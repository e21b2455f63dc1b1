"""Checks every test in this directory must also pass, and the ``needs_lanes`` marker.

Beside ``pyproject.toml``'s filter that fails a run on an exception escaping
any thread, no ``fork_join`` lane may outlive its call: neck forwards and
``fusionneck forward`` start lanes.  A test marked ``needs_lanes`` is
skipped, not passed, on a host where ``fork_join`` runs its functions in
sequence (``tensor._lanes``, read once at collection, before any test
patches it).
"""

import threading

import pytest

from fusionneck import tensor


def pytest_configure(config):
    config.addinivalue_line("markers", "needs_lanes: runs only where fork_join runs two lanes")


def pytest_collection_modifyitems(items):
    if tensor._lanes():
        return
    skip = pytest.mark.skip(reason="lanes need two usable CPUs and OpenBLAS's thread-count functions")
    for item in items:
        if item.get_closest_marker("needs_lanes"):
            item.add_marker(skip)


@pytest.fixture(autouse=True)
def no_lane_left_alive():
    """Fail a test that leaves a ``fusionneck-lane`` thread running."""
    yield
    alive = [t for t in threading.enumerate() if t.name == "fusionneck-lane"]
    if alive:
        pytest.fail(f"{len(alive)} fusionneck-lane thread(s) still alive after the test")
