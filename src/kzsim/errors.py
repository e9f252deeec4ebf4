"""Exception types shared across the package: one type per exit path.

Each type carries the command-line exit code and the stderr prefix it is
reported with.  No two share both, except IndexOutOfRange, which is
KzsimError's path for an index that is also an IndexError.
"""


class KzsimError(Exception):
    """Base of every refusal, and itself the refusal of a computation that
    cannot go on: a non-Hermitian or misshapen matrix, a failed eigensolver,
    a degenerate ground state, a closed gap, or a preparation that misses
    the ground state."""

    exit_code = 3
    prefix = "error"


class InvalidConfiguration(KzsimError):
    """A parameter, sweep configuration, T2 pair, work estimate, figure id or
    command-line value is outside the range its layer accepts."""

    prefix = "invalid configuration"


class IndexOutOfRange(KzsimError, IndexError):
    """Segment index outside the configured scan."""


class UsageError(KzsimError):
    """Command line could not be parsed."""

    exit_code = 2
    prefix = "usage error"


class IoError(KzsimError):
    """Output could not be written."""

    exit_code = 4
    prefix = "i/o error"
