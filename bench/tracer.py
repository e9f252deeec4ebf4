"""Outside-in tracer for the kzsim layers.

``Tracer.install`` rebinds every public function of each layer module at
every binding site (``evolve`` and ``kzm`` hold their own references to
``smallmat.unitary_step`` and friends), plus the three methods a pass runs
through.  Each call records a span ``[function, parent span, start, end,
probe]`` in memory; ``dump`` writes them out once the pass is over.  The
probes capture what the counts need: the dimension and bytes of every
eigendecomposition input, and the segment grid of every captured
``SweepConfig``.

An eigendecomposition is a call of ``smallmat.hermitian_eig``, or a matrix
handed to one of numpy's eigensolvers (``EIGENSOLVERS``; each matrix of a
stacked input counts once) outside such a call, so that a batched kernel on
``numpy.linalg`` is still counted.  ``install`` raises when a function a
probe hangs on is gone: a rename has to be followed here, not read as zero.
"""
from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("smallmat", "model", "evolve", "protocol", "kzm", "cli")
METHODS = {"evolve": ("ScanTrace.to_csv", "SweepConfig.from_rate"),
           "protocol": ("PulseSchedule.to_text",)}
EIGENSOLVERS = ("eigh", "eigvalsh", "eig", "eigvals")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.eig_calls: dict[int, int] = defaultdict(int)
        self.eig_inputs: dict[int, set] = defaultdict(set)

    def _count_eig(self, a) -> None:
        a = np.asarray(a, dtype=complex)
        n = a.shape[-1]
        for m in a.reshape(-1, n, n):
            self.eig_calls[n] += 1
            self.eig_inputs[n].add(m.tobytes())

    def _eig_probe(self, m, prev=None):
        self._count_eig(m)

    def _wrap_numpy(self, fn):
        """A numpy eigensolver that counts its input matrices unless a
        ``hermitian_eig`` span, which counts them itself, is open."""
        eig_fid = self.names.index("smallmat.hermitian_eig")
        spans, stack = self.spans, self.stack

        def counted(a, *args, **kwargs):
            if all(spans[i][0] != eig_fid for i in stack):
                self._count_eig(a)
            return fn(a, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @staticmethod
    def _sweep_probe(cfg, *args, **kwargs):
        import kzsim.evolve

        nsub = 1
        if cfg.backend == "reference":
            nsub = max(1, math.ceil(cfg.delta / kzsim.evolve.REFERENCE_SUBSTEP))
        return [cfg.steps, nsub]

    def _wrap(self, name: str, fn, probe=None):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [fid, stack[-1] if stack else -1, 0.0, 0.0,
                    probe(*args, **kwargs) if probe else None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import kzsim  # noqa: F401  (loads every layer module)

        probes = {"smallmat.hermitian_eig": self._eig_probe,
                  "evolve.propagate": self._sweep_probe,
                  "evolve.dephase_propagate": self._sweep_probe}
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"kzsim.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    full = f"{layer}.{name}"
                    replace[id(obj)] = (obj, self._wrap(full, obj, probes.pop(full, None)))
            for dotted in METHODS.get(layer, ()):
                cls_name, meth = dotted.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(f"{layer}.{dotted}", raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(f"{layer}.{dotted}", raw))
        if probes:
            raise RuntimeError(f"no public function {', '.join(probes)} to probe:"
                               " follow the rename in bench/tracer.py")
        for name in EIGENSOLVERS:
            fn = getattr(np.linalg, name)
            replace[id(fn)] = (fn, self._wrap_numpy(fn))
            setattr(np.linalg, name, replace[id(fn)][1])
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "kzsim" and not mod_name.startswith("kzsim."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def dump(self, path: str) -> None:
        eig = {str(n): [self.eig_calls[n], len(self.eig_inputs[n])]
               for n in sorted(self.eig_calls)}
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "eig": eig}, fh)
