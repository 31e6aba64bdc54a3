"""Guards shared by every test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    # a run starts no thread; one a test leaves behind would run on into
    # the next test, racing it for the BLAS thread count a run sets
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate()
            if t not in before and t.is_alive()]
    assert not left, f"threads left alive by the test: {left}"
