"""Shared fixtures and independent helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from infodiagram import Dist, DistPair, RandomVariable, empirical_from_rows

XOR_ROWS = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


@pytest.fixture
def xor_joint():
    """The uniform XOR triple: dist plus the three bit variables."""
    return empirical_from_rows(XOR_ROWS)


def random_dist(rng, size, points=None):
    """Strictly positive random distribution on ``size`` points."""
    masses = rng.uniform(0.05, 1.0, size)
    return Dist(masses=masses / masses.sum(), points=points)


def random_joint(rng, n_vars, arities=None):
    """Random strictly positive joint of ``n_vars`` discrete variables.

    Returns ``(dist, variables)``; sample points are tuples of values.
    """
    if arities is None:
        arities = [2] * n_vars
    points = [()]
    for arity in arities:
        points = [pt + (v,) for pt in points for v in range(arity)]
    points = tuple(points)
    dist = random_dist(rng, len(points), points=points)
    variables = [RandomVariable(labels=tuple(pt[j] for pt in points)) for j in range(n_vars)]
    return dist, variables


def random_pair(rng, dist):
    """Pair ``dist`` with Q = (1 - lam) P + lam * uniform, guaranteeing P << Q."""
    lam = rng.uniform(0.1, 1.0)
    uniform = np.full(len(dist), 1.0 / len(dist))
    q = Dist(masses=(1.0 - lam) * dist.masses + lam * uniform, points=dist.points)
    return DistPair(p=dist, q=q)


def scaled_sqrt_modular(n, k):
    """``10**k * sqrt(sum of w_i over S)`` for every mask ``S``, ascending, as
    a list: the concave-of-modular set function of the benchmark's
    ``setfun-wide`` workload at seed 5, whose chain rule is exact."""
    weights = np.random.default_rng([5, n, 1]).uniform(0.5, 2.0, size=n)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    return (np.sqrt(bits @ weights) * 10.0 ** k).tolist()


def set_partitions(items):
    """All partitions of a sequence, each as a list of lists."""
    items = list(items)
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            out.append(smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:])
        out.append([[first]] + smaller)
    return out


def variable_from_partition(cells, size):
    """Random variable labeling each point by the index of its cell."""
    labels = [None] * size
    for k, cell in enumerate(cells):
        for i in cell:
            labels[i] = k
    assert all(lab is not None for lab in labels)
    return RandomVariable(labels=tuple(labels))
