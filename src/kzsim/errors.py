"""Exception types shared across the package.

Each type carries the command-line exit code and the stderr prefix it is
reported with.
"""


class KzsimError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 3
    prefix = "error"


class _InvalidConfiguration(KzsimError):
    prefix = "invalid configuration"


class NonHermitianInput(KzsimError):
    """Matrix handed to a Hermitian-only routine violates the symmetry tolerance."""


class DimensionMismatch(KzsimError):
    """Operands have incompatible or unsupported dimensions."""


class DegenerateGround(KzsimError):
    """Ground state is not unique (gap below tolerance)."""


class GapClosed(KzsimError):
    """Energy gap too small to define a relaxation time."""


class NoConvergence(KzsimError):
    """The eigensolver failed: LAPACK raised LinAlgError or returned a non-finite result."""


class ConfigInconsistent(_InvalidConfiguration):
    """Sweep configuration is out of range or describes no whole scan."""


class InvalidT2(_InvalidConfiguration):
    """Dephasing requested with missing or non-positive T2 times."""


class IndexOutOfRange(KzsimError, IndexError):
    """Segment index outside the configured scan."""


class NoValidBranch(KzsimError):
    """The preparation angles do not reproduce the ground state (fidelity below 1 - 1e-6)."""


class InvalidParam(_InvalidConfiguration):
    """Parameter outside its admissible range."""


class WorkLimitExceeded(_InvalidConfiguration):
    """A run would take more propagator steps than the work limit allows."""


class UnknownFigure(_InvalidConfiguration):
    """Requested figure id is not one of the reproducible datasets."""


class UsageError(KzsimError):
    """Command line could not be parsed."""

    exit_code = 2
    prefix = "usage error"


class ValidationError(_InvalidConfiguration):
    """Command line parsed but carries invalid values."""


class IoError(KzsimError):
    """Output could not be written."""

    exit_code = 4
    prefix = "i/o error"
