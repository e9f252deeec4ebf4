import pytest

from kzsim import protocol


@pytest.fixture(autouse=True)
def cold_overlap_window():
    """No test may pass on a protocol_overlap window another test left."""
    protocol._window.cache_clear()
