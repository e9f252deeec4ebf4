"""Golden digests of the command-line artifacts.

Every artifact below is regenerated through ``cli.main`` and its sha256
compared with ``golden/sha256.txt``; commands that print a summary also pin
their stdout.  ``protocol-overlap.csv``, which the command line does not
emit, holds ``protocol_overlap`` at every boundary of the eight experimental
trotter settings over [-1.5, 0].  The reference-backend artifacts (``figure
fig1c/fig4/fig5`` and ``fit --k-grid ideal`` per transverse field) are
included; they are affordable because the reference backend diagonalizes
its substeps in stacks.

Print fresh digests with ``PYTHONPATH=src python tests/test_golden.py``.
"""
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from kzsim import cli, evolve, kzm, protocol

GOLDEN = Path(__file__).parent / "golden" / "sha256.txt"
T2 = ["--t2", "2,0.2"]
GRID = ["--k-grid", "experiment", "--backend", "trotter"]
# bx = 0 over [-2, 2]: level crossings at bz = -1, 0 and 1, where the
# boundary spectra are degenerate
BX0 = ["--bx", "0", "--b0", "-2", "--bz-end", "2"]

ARTIFACTS = {
    "fig1a.csv": ["figure", "fig1a"],
    "fig1b.csv": ["figure", "fig1b"],
    "fig1c.csv": ["figure", "fig1c"],
    "fig3.csv": ["figure", "fig3"],
    "fig4.csv": ["figure", "fig4"],
    "fig5.csv": ["figure", "fig5"],
    "scan-reference.csv": ["scan"],
    "scan-reference-t2.csv": ["scan", *T2],
    "scan-trotter.csv": ["scan", "--backend", "trotter"],
    "scan-trotter-t2.csv": ["scan", "--backend", "trotter", *T2],
    "scan-bx0.csv": ["scan", *BX0],
    "scan-bx0-trotter-t2.csv": ["scan", *BX0, "--backend", "trotter", *T2],
    "fit-experiment.json": ["fit", *GRID],
    "fit-experiment-t2.json": ["fit", *GRID, *T2],
    "fit-ideal-bx0.1.json": ["fit", "--bx", "0.1", "--k-grid", "ideal"],
    "fit-ideal-bx0.2.json": ["fit", "--bx", "0.2", "--k-grid", "ideal"],
    "sweep-experiment.csv": ["sweep", *GRID],
    "sweep-experiment-t2.csv": ["sweep", *GRID, *T2],
    "schedule.txt": ["schedule", "--j", "15"],
    "lz-check.json": ["lz-check"],
}
OVERLAP = "protocol-overlap.csv"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _generate(name: str, workdir: Path) -> dict[str, str]:
    """Digests of one artifact and, when the command prints one, its stdout."""
    out = workdir / name
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([*ARTIFACTS[name], "--out", str(out)])
    assert code == 0, f"{name}: exit code {code}"
    digests = {name: _sha(out.read_bytes())}
    if stdout.getvalue():
        digests[f"{Path(name).stem}.stdout"] = _sha(stdout.getvalue().encode())
    return digests


def _overlap_csv() -> bytes:
    """The lines ``bx,k,j,overlap`` with ``repr`` floats."""
    lines = ["bx,k,j,overlap"]
    for bx in kzm.EXPERIMENT_BX_VALUES:
        for k in kzm.EXPERIMENT_K_VALUES:
            cfg = evolve.SweepConfig.from_rate(bx, k, b0=-1.5, bz_end=0.0, backend="trotter")
            lines += (f"{bx!r},{k!r},{j},{protocol.protocol_overlap(cfg, j)!r}"
                      for j in range(cfg.steps + 1))
    return ("\n".join(lines) + "\n").encode()


def _golden() -> dict[str, str]:
    pairs = (line.split() for line in GOLDEN.read_text().splitlines() if line)
    return {name: digest for digest, name in pairs}


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_golden_digest(name, tmp_path):
    golden = _golden()
    digests = _generate(name, tmp_path)
    assert digests == {key: golden.get(key) for key in digests}
    stdout_key = f"{Path(name).stem}.stdout"
    assert (stdout_key in golden) == (stdout_key in digests)


def test_golden_overlap_digest():
    assert _sha(_overlap_csv()) == _golden()[OVERLAP]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        found: dict[str, str] = {}
        for artifact in sorted(ARTIFACTS):
            found.update(_generate(artifact, Path(tmp)))
    found[OVERLAP] = _sha(_overlap_csv())
    sys.stdout.write("".join(f"{found[key]}  {key}\n" for key in sorted(found)))
