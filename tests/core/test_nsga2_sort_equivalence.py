"""``non_dominated_sort`` returns exactly the fronts of Deb's loop.

The order inside each front is part of the contract: ``_select``,
``crowding_distance`` and the final front all sort stably, so a front
emitted in another order changes which architectures survive. The
reference below is Deb's pairwise loop, kept here only for that check.
"""

import math

import numpy as np
import pytest

from repro.core import BiObjective
from repro.core.nsga2 import non_dominated_sort
from repro.space import Architecture

ARCH = Architecture.uniform(2)


def deb_sort(points):
    """Deb's fast non-dominated sort, pair by pair."""
    n = len(points)
    dominated_by = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts = [[]]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if points[i].dominates(points[j]):
                dominated_by[i].append(j)
            elif points[j].dominates(points[i]):
                domination_count[i] += 1
        if domination_count[i] == 0:
            fronts[0].append(i)
    current = 0
    while fronts[current]:
        next_front = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    return [f for f in fronts if f]


def _points(pairs):
    return [BiObjective(ARCH, float(lat), float(acc)) for lat, acc in pairs]


def _population(rng, n, levels, nan_share):
    """``n`` points on a ``levels``-step grid (so ties and duplicates are
    common), with a share of NaN objectives."""
    values = rng.integers(0, levels, size=(n, 2)).astype(np.float64)
    values[rng.random((n, 2)) < nan_share] = math.nan
    return _points(values)


@pytest.mark.parametrize(
    "pairs",
    [
        [],
        [(1.0, 0.5)],
        [(1.0, 0.5), (2.0, 0.4)],
        [(2.0, 0.4), (1.0, 0.5)],
        [(1.0, 0.5), (1.0, 0.5)],
        [(1.0, 0.5), (2.0, 0.6)],
        [(math.nan, 0.5), (1.0, 0.9)],
        [(1.0, 0.5), (1.0, 0.4), (1.0, 0.3), (1.0, 0.5)],
        [(3.0, 0.5), (2.0, 0.5), (1.0, 0.5), (2.0, 0.5)],
        [(math.nan, math.nan), (1.0, 0.9), (0.5, math.nan), (2.0, 0.1)],
    ],
    ids=[
        "empty", "one", "two-dominated", "two-dominating", "duplicates",
        "two-incomparable", "nan", "tied-latency", "tied-accuracy",
        "nan-mixed",
    ],
)
def test_small_cases(pairs):
    points = _points(pairs)
    assert non_dominated_sort(points) == deb_sort(points)


@pytest.mark.parametrize(
    "levels, nan_share", [(4, 0.0), (6, 0.05), (50, 0.0), (1000, 0.02)]
)
def test_random_populations(levels, nan_share):
    rng = np.random.default_rng(levels)
    for _ in range(150):
        points = _population(rng, int(rng.integers(0, 60)), levels, nan_share)
        fronts = non_dominated_sort(points)
        assert fronts == deb_sort(points)
        assert all(type(i) is int for front in fronts for i in front)


def test_population_sized_input():
    """The sizes NSGA-II sorts: parents plus offspring."""
    rng = np.random.default_rng(7)
    for n in (50, 100, 101):
        points = _population(rng, n, 40, 0.01)
        assert non_dominated_sort(points) == deb_sort(points)
