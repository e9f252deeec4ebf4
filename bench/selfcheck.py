"""Check the output comparison against perturbed copies of the references.

    python3 bench/selfcheck.py

Every number of every stored artifact and stdout is perturbed on its own,
the rest of the file left as stored.  Moved by a relative 1e-12 (absolute
for zeros) it must pass.  Moved by a relative 1e-6 it must fail; below a
magnitude of 1e-3, where the comparison's absolute 1e-9 is the looser bound
(``compare.py``), the move that must fail is an absolute 1e-6 instead.  A
changed word must fail too.  Exits 1 and names the file and token if any
check goes the wrong way.
"""
from __future__ import annotations

import os
import sys

import compare
from run import REFERENCE

SMALL = 1e-3  # below this magnitude a relative 1e-6 is under the absolute 1e-9


def moved(x: float, eps: float) -> float:
    return x * (1.0 + eps) if x != 0.0 else eps


def wrong_way(parts: list[str], i: int) -> list[str]:
    """The checks that go the wrong way when token ``i`` alone is moved."""
    text = "".join(parts)
    x = float(parts[i])
    big = abs(x) >= SMALL
    cases = [(moved(x, 1e-12), True, "1e-12"),
             (moved(x, 1e-6) if big else x + 1e-6, False,
              "1e-6" if big else "absolute 1e-6")]
    wrong = []
    for value, should_pass, label in cases:
        changed = parts[:i] + [repr(value)] + parts[i + 1:]
        passed = compare.mismatch("".join(changed), text) is None
        if passed != should_pass:
            wrong.append(f"{label} {'rejected' if should_pass else 'accepted'}")
    return wrong


def main() -> int:
    files = numbers = small = bad = 0
    for workload in sorted(os.listdir(REFERENCE)):
        folder = os.path.join(REFERENCE, workload)
        for name in sorted(os.listdir(folder)):
            with open(os.path.join(folder, name), newline="") as fh:
                text = fh.read()
            parts = compare.tokens(text)
            if len(parts) < 2:
                continue
            files += 1
            problems = []
            for i in range(1, len(parts), 2):
                numbers += 1
                small += abs(float(parts[i])) < SMALL
                problems += [f"token {i} ({parts[i]}): {w}" for w in wrong_way(parts, i)]
            if compare.mismatch(text + "x", text) is None:
                problems.append("changed text accepted")
            if problems:
                bad += 1
                print(f"{workload}/{name}: {'; '.join(problems[:5])}")
    print(f"{numbers} numbers in {files} reference files checked one at a time"
          f" ({small} below {SMALL:g}, moved by absolute 1e-6), {bad} files wrong")
    return 1 if bad or not files else 0


if __name__ == "__main__":
    sys.exit(main())
