"""Shared test checks."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_package_threads():
    """Fail a test after which a thread named by the package is still alive."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before and t.name.startswith("zitterlab")]
    if leaked:
        pytest.fail(f"threads still alive after the test: {leaked}")
