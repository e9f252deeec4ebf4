"""The mutation driver's rows name only what a run reported."""
from mutate import classify

PASSED, FAILED, MISSING = (f"tests/test_a.py::test_{name}" for name in ("passed", "failed", "missing"))
TRANSCRIPT = (f"kzsim from src/kzsim/__init__.py\n{PASSED} PASSED  [ 33%]\n"
              f"{FAILED} FAILED  [ 66%]\n")


def test_a_test_the_run_never_reported_is_unseen():
    passing = {PASSED, FAILED, MISSING}
    assert classify(passing, TRANSCRIPT, None) == ({FAILED}, {MISSING})
    # a capped run was in the test it never reported
    assert classify(passing, TRANSCRIPT, MISSING) == ({FAILED, MISSING}, set())
    # the tests of a module that was not collected errored
    other = "tests/test_b.py::test_other"
    assert classify({*passing, other}, f"{TRANSCRIPT}ERROR tests/test_b.py\n", None) == (
        {FAILED, other}, {MISSING})
