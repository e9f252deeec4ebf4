"""Mutation driver: which tier-1 test kills which operator flip in src/kzsim.

Run ``python3 tests/mutate.py > KILL_MATRIX.json`` from the checkout.  On a
temporary copy it flips one comparison or arithmetic operator at a time and
runs tier-1 without ``-x``, each run capped at CAP_S seconds.  A row names
only what its run reported (``classify``): the killers are the tests that
pass at the parent and that the run reported as not passing, or whose module
it reported as not collected, plus the test a capped run was in; the tests
it never reported are ``unseen``.  A row with unseen tests is run once more;
``unstable`` marks one whose killers differ between its two runs, and
``aborted`` one whose runs reported no test at all (the suite did not run).  Nothing is
written into the checkout.
"""
import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

CAP_S = 120
FLIP = {"Eq": "NotEq", "NotEq": "Eq", "Lt": "LtE", "LtE": "Lt", "Gt": "GtE", "GtE": "Gt",
        "Is": "IsNot", "IsNot": "Is", "In": "NotIn", "NotIn": "In", "Add": "Sub", "Sub": "Add",
        "Mult": "Div", "Div": "Mult", "FloorDiv": "Mult", "Mod": "FloorDiv", "Pow": "Mult",
        "MatMult": "Mult", "BitOr": "BitAnd", "BitAnd": "BitOr"}
EXPECTED_FAILURES = {"tests/test_acceptance.py::test_criterion_08_backend_equivalence",
                     "tests/test_acceptance.py::test_criterion_10_concurrence"}
# hypothesis draws the same examples every run, stores none and shrinks no failure
PYTEST = ("import sys, kzsim, pytest; from hypothesis import Phase, settings; "
          "settings.register_profile('mutate', derandomize=True, database=None, "
          "phases=(Phase.explicit, Phase.generate)); settings.load_profile('mutate'); "
          "print('kzsim from', kzsim.__file__, flush=True); "
          "sys.exit(pytest.main(['-v', '-p', 'no:cacheprovider', '--continue-on-collection-errors']))")
RESULT = re.compile(r"^(tests/\S+::\S+) (PASSED|FAILED|ERROR|SKIPPED|XFAIL|XPASS)", re.M)
# a module whose collection errored, as the short test summary names it
UNCOLLECTED = re.compile(r"^ERROR (tests/[^\s:]+\.py)\b(?!::)", re.M)


def sites(tree):
    """(node, index in a comparison chain or None, operator), in ``ast.walk`` order,
    outside annotations: under ``from __future__ import annotations`` none is
    evaluated, so a flip there can never be killed."""
    notes = {id(n) for node in ast.walk(tree)
             for note in (getattr(node, "returns", None), getattr(node, "annotation", None))
             if note is not None for n in ast.walk(note)}
    for node in ast.walk(tree):
        if id(node) in notes:
            continue
        if isinstance(node, ast.Compare):
            yield from ((node, i, op) for i, op in enumerate(node.ops))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            yield node, None, node.op


def classify(passing, out, running):
    """The killers and the unseen tests among ``passing`` in the ``pytest -v``
    transcript ``out`` of a run that was capped in the test ``running`` (else None)."""
    seen = dict(RESULT.findall(out))
    seen.update((t, "ERROR") for t in passing if t.split("::")[0] in UNCOLLECTED.findall(out))
    killers = {t for t in passing if seen.get(t, "PASSED") != "PASSED"} | ({running} & passing)
    return killers, passing - killers - set(seen)


def run(copy):
    """The ``pytest -v`` transcript of tier-1 in ``copy``, and the test a capped run was in (else None)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONUNBUFFERED="1")
    with subprocess.Popen([sys.executable, "-c", PYTEST], cwd=copy, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          start_new_session=True) as proc:
        try:
            out, running = proc.communicate(timeout=CAP_S)[0], None
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # with the CLI children of test_cli
            out = proc.communicate()[0]
            running = out.rstrip("\n").rsplit("\n", 1)[-1].split(" ")[0]
        except BaseException:  # an interrupt: the run is in a session of its own
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    if not out.startswith(f"kzsim from {copy / 'src' / 'kzsim'}{os.sep}"):
        sys.exit(f"tier-1 did not import kzsim from the copy: {out[:200]!r}")
    return out, running


def mutant_row(passing, copy):
    """The kill-matrix fields of the mutant now in ``copy``, from one run, or
    two when the first left tests unseen."""
    runs = [run(copy)]
    if classify(passing, *runs[0])[1]:
        runs.append(run(copy))
    results = [classify(passing, *r) for r in runs]
    return {"killers": sorted(set.union(*(killers for killers, _ in results))),
            "unseen": sorted(set.intersection(*(unseen for _, unseen in results))),
            "capped": any(running is not None for _, running in runs),
            "aborted": not any(RESULT.search(out) for out, _ in runs),
            "unstable": len({frozenset(killers) for killers, _ in results}) > 1}


def main():
    with tempfile.TemporaryDirectory(prefix="kzsim-mutate-") as tmp:
        copy, rows = Path(tmp), []
        shutil.copytree(Path(__file__).resolve().parents[1], copy, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns(".git", "__pycache__", ".*cache", ".hypothesis"))
        out, running = run(copy)
        parent = dict(RESULT.findall(out))
        passing = {t for t, outcome in parent.items() if outcome == "PASSED"}
        if running is not None or set(parent) - passing != EXPECTED_FAILURES:
            sys.exit(f"the parent must fail exactly {sorted(EXPECTED_FAILURES)}, not"
                     f" {sorted(set(parent) - passing)}")
        for path in sorted((copy / "src" / "kzsim").glob("*.py")):
            source = path.read_text()
            for n in range(len(list(sites(ast.parse(source))))):
                tree = ast.parse(source)
                node, i, op = list(sites(tree))[n]
                flip = getattr(ast, FLIP[type(op).__name__])()
                if i is None:
                    node.op = flip
                else:
                    node.ops[i] = flip
                path.write_text(ast.unparse(tree))
                row = mutant_row(passing, copy)
                path.write_text(source)
                rows.append({"site": f"{path.name}:{node.lineno}:{n}", "mutant": ast.unparse(node), **row})
                print(len(rows), rows[-1]["site"], len(row["killers"]), len(row["unseen"]),
                      file=sys.stderr, flush=True)
    print("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]")


if __name__ == "__main__":
    main()
