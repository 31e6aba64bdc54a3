"""Guards shared by every test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    # a run that draws ahead joins its helper before it returns or raises;
    # a thread a test leaves behind would draw or hold BLAS into the next
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate()
            if t not in before and t.is_alive()]
    assert not left, f"threads left alive by the test: {left}"
