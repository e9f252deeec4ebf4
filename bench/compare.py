"""Field-by-field comparison of an artifact against its stored reference.

Text is split into numeric and non-numeric tokens.  Non-numeric tokens must
match exactly; numbers must agree within ``TOL``, absolute or relative.
1e-9 sits above the ~1.6e-12 by which a LAPACK eigensolver moves the defect
density and below the ~4e-7 by which a change of integrator moves it.
Below a magnitude of 1e-3 the absolute 1e-9 is the looser of the two, so a
small value (a defect density of 1e-4, an amplitude of 1e-7) is held to
1e-9 absolute, not to 1e-9 of itself.
"""
from __future__ import annotations

import re

TOL = 1e-9
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def tokens(text: str) -> list[str]:
    """Alternating non-numeric / numeric tokens (odd indices are numbers)."""
    return _NUMBER.split(text)


def mismatch(got: str, want: str) -> str | None:
    """None when ``got`` matches ``want``, else a description of the first
    differing token."""
    g, w = tokens(got), tokens(want)
    if len(g) != len(w):
        return f"token count {len(g)} != reference {len(w)}"
    for i, (a, b) in enumerate(zip(g, w)):
        if i % 2 == 0:
            if a != b:
                return f"token {i}: text {a[:40]!r} != reference {b[:40]!r}"
            continue
        x, y = float(a), float(b)
        diff = abs(x - y)
        if diff > TOL and diff > TOL * max(abs(x), abs(y)):
            return f"token {i}: {a} != reference {b} (|diff| {diff:.3g})"
    return None
