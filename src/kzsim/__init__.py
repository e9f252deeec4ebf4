"""Numerical study of defect production in a driven two-qubit Ising system.

The package simulates linear sweeps of the longitudinal field through the
model's avoided crossings, reproduces the discretized NMR measurement
protocol, and fits the resulting defect densities to the freeze-out scaling
law.  See the README for the command-line entry points.
"""

__version__ = "0.1.0"
