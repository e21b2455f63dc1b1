"""Checks every test in this directory must also pass.

Beside ``pyproject.toml``'s filter that fails a run on an exception escaping
any thread, no ``fork_join`` lane may outlive its call: taped forwards and
``fusionneck forward`` both start lanes.
"""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_lane_left_alive():
    """Fail a test that leaves a ``fusionneck-lane`` thread running."""
    yield
    alive = [t for t in threading.enumerate() if t.name == "fusionneck-lane"]
    if alive:
        pytest.fail(f"{len(alive)} fusionneck-lane thread(s) still alive after the test")
