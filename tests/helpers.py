"""Shared test helpers built on the package's own propagators."""
from functools import reduce

import numpy as np

from kzsim import model
from kzsim.evolve import _segment_unitaries


def segment_unitary(cfg, m: int):
    """Full propagator of segment m (1-based) for ``cfg``'s backend: the
    product of the propagators ``_segment_unitaries`` yields for it."""
    return reduce(lambda u, sub: sub @ u, next(_segment_unitaries(cfg, m, m)))


def spectrum_fields(monkeypatch):
    """The fields of each ``model.triplet_spectrum`` call made from now on,
    one list per call."""
    fields, spectrum = [], model.triplet_spectrum

    def spy(p):
        fields.append(np.atleast_1d(p.bz).tolist())
        return spectrum(p)

    monkeypatch.setattr(model, "triplet_spectrum", spy)
    return fields
