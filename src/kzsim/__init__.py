"""Numerical study of defect production in a driven two-qubit Ising system.

The package simulates linear sweeps of the longitudinal field through the
model's avoided crossings, reproduces the discretized NMR measurement
protocol, and fits the resulting defect densities to the freeze-out scaling
law.  See the README for the command-line entry points.
"""

from .errors import (ConfigInconsistent, DegenerateGround, DimensionMismatch,
                     GapClosed, IndexOutOfRange, InvalidParam, InvalidT2,
                     KzsimError, NoConvergence, NonHermitianInput,
                     NoValidBranch, UnknownFigure, WorkLimitExceeded)
from .evolve import (ScanTrace, SweepConfig, concurrence, concurrence_mixed,
                     dephase_propagate, propagate, ramp, scan, trotter_step)
from .kzm import (KzmParams, ScalingFit, freeze_out, lz_check,
                  predicted_defects, quench_time, reproduce_figure,
                  run_scaling_sweep, tau0)
from .model import (GroundState, ModelParams, driven_hamiltonian,
                    effective_hamiltonian, ground_state, ground_vector,
                    relaxation_time, triplet_block)
from .protocol import (PrepAngles, PulseSchedule, gradient_crush,
                       nmr_schedule, prep_angles, prep_operator,
                       protocol_overlap)
from .smallmat import SpectralData, hermitian_eig, unitary_step

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
