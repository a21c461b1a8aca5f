"""Shared pytest plumbing.

Collects the ``ACCEPTANCE n: ...`` verdict lines emitted by
tests/test_acceptance.py and repeats them in the terminal summary, where
output capture cannot hide them, and builds the map too wide for the loop
sum that the guard tests share.
"""

import random

import pytest

from rgp.maps import RotationSpec, from_rotation_system

ACCEPTANCE_KEY = pytest.StashKey[list]()


@pytest.fixture
def acceptance_report(request):
    lines = request.config.stash.setdefault(ACCEPTANCE_KEY, [])

    def emit(line: str) -> None:
        print(line)
        lines.append(line)

    return emit


@pytest.fixture
def wide_map():
    """A 3-vertex map with 60 edges, twists at random: its loop order holds
    48 sigma0 arcs open."""
    rng = random.Random(60)
    halves = [f"h{i}" for i in range(120)]
    rng.shuffle(halves)
    return from_rotation_system(RotationSpec(
        tuple((f"v{k}", tuple(halves[k::3])) for k in range(3)),
        tuple((f"e{i}", f"h{2 * i}", f"h{2 * i + 1}", rng.randint(0, 1))
              for i in range(60))))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = config.stash.get(ACCEPTANCE_KEY, [])
    if lines:
        terminalreporter.section("acceptance")
        for line in lines:
            terminalreporter.write_line(line)
