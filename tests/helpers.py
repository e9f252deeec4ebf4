"""Shared test helpers built on the package's own propagators."""
from functools import reduce

from kzsim.evolve import _segment_unitaries


def segment_unitary(cfg, m: int):
    """Full propagator of segment m (1-based) for ``cfg``'s backend: the
    product of the propagators ``_segment_unitaries`` yields for it."""
    return reduce(lambda u, sub: sub @ u, next(_segment_unitaries(cfg, m, m)))
