import signal

import pytest

from kzsim import protocol

# about 20x the slowest test: a lost refusal that starts a huge run fails
# here instead of hanging the suite
TEST_TIME_BOUND_S = 30


@pytest.fixture(autouse=True)
def cold_overlap_run():
    """No test may pass on a protocol_overlap run another test left."""
    protocol._overlaps.cache_clear()


@pytest.fixture(autouse=True)
def time_bound():
    """Fail a test that runs longer than TEST_TIME_BOUND_S seconds."""
    def expire(signum, frame):
        pytest.fail(f"test ran longer than {TEST_TIME_BOUND_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_BOUND_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
