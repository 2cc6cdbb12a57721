"""Guards on what the engine detects, whatever route computes it.

A fast path that skips work passes any test that only compares it with
itself: a sweep whose lhs came from the totals, or a ``k1`` that is the
totals difference, agrees with the region measures by construction.  So
these tests plant a fault in an instance's own conditional and require the
sweep and the chain check to see exactly that fault, and they hold each
action-form family's ``k1`` to its averaged-conditioning definition,
computed here on the label route.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_pair
from infodiagram import (
    alpha_kl,
    alpha_kl_instance,
    check_chain_rule,
    cross_entropy,
    cross_entropy_instance,
    empirical_from_rows,
    joint_of,
    kl,
    kl_instance,
    marginal,
    tsallis_entropy,
    tsallis_instance,
    verify_hu,
)
from infodiagram.shannon import _average, condition, condition_pair

DELTA = 1e-3
PLANTED = (3, 4)  # the (y, z) pair whose k1 gets DELTA added


def _table(n, rows=300, seed=4):
    """A seeded three-valued table of ``rows`` rows as (dist, generators)."""
    rng = random.Random(seed)
    return empirical_from_rows([tuple(str(rng.randrange(3)) for _ in range(n)) for _ in range(rows)])


def _tsallis(n):
    p, gens = _table(n)
    return tsallis_instance(p, gens, 0.7)


def _alpha_kl(n):
    p, gens = _table(n)
    return alpha_kl_instance(random_pair(np.random.default_rng(n), p), gens, 0.5)


def _planted(inst):
    """``inst`` with DELTA added to its own ``k1`` at the PLANTED pair alone."""
    return replace(inst, k1=lambda y, z: inst.k1(y, z) + (DELTA if (y, z) == PLANTED else 0.0))


def _reads(l_masks, j_mask) -> int:
    """Signed count of the reads of ``k1`` at the PLANTED pair by the
    recursion of the check (L, J): degree 1 reads ``k1(l | j)``, and degree
    q is its first q - 1 arguments given J minus the same given J joined
    with the last argument."""
    def signed(prefix, z):
        if len(prefix) == 1:
            return int((prefix[0], z) == PLANTED)
        return signed(prefix[:-1], z) - signed(prefix[:-1], prefix[-1] | z)

    return signed(tuple(sorted(l_masks)), j_mask)


@pytest.mark.parametrize("build, n", [(_tsallis, 4), (_alpha_kl, 3)], ids=["tsallis-n4", "alpha-kl-n3"])
def test_the_sweep_sees_a_fault_planted_in_k1_where_the_recursion_reads_it(build, n):
    inst = build(n)
    base = verify_hu(inst, q_max=3, check_chain=False).residuals
    moved = verify_hu(_planted(inst), q_max=3, check_chain=False).residuals
    counts = np.array([_reads(r.l_masks, r.j_mask) for r in base])
    assert np.count_nonzero(counts) > 0
    # the region measures come from the totals, which the fault leaves alone
    assert np.array_equal(moved.rhs, base.rhs)
    # each lhs moves by DELTA once per signed read of the pair, within roundoff
    np.testing.assert_allclose(moved.lhs - base.lhs, DELTA * counts, rtol=0, atol=1e-12)
    # and a check that never reads the pair keeps its gap, bit for bit
    unread = counts == 0
    assert np.array_equal(moved.gap[unread], base.gap[unread])
    assert np.all(moved.gap[~unread] > 0.5 * DELTA)


@pytest.mark.parametrize("build, n", [(_tsallis, 4), (_alpha_kl, 3)], ids=["tsallis-n4", "alpha-kl-n3"])
def test_the_exhaustive_chain_check_lists_the_planted_pair_alone(build, n):
    inst = build(n)
    assert check_chain_rule(inst)[1] == []
    _, violations = check_chain_rule(_planted(inst))
    # the check reads k1c(z, y) for its own (y, z), so it names the pair swapped
    assert [(y, z) for y, z, _ in violations] == [PLANTED[::-1]]
    assert violations[0][2] == pytest.approx(DELTA, rel=0, abs=1e-12)


def _tsallis_case(p, pair, gens):
    return (tsallis_instance(p, gens, 0.7), p, condition, lambda c, x: tsallis_entropy(c, x, 0.7),
            lambda c, z: marginal(c, z).masses ** 0.7)


def _kl_case(p, pair, gens):
    return (kl_instance(pair, gens, "bits"), pair, condition_pair, lambda c, x: kl(c, x, "bits"),
            lambda c, z: marginal(c.p, z).masses)


def _cross_entropy_case(p, pair, gens):
    return (cross_entropy_instance(pair, gens), pair, condition_pair, cross_entropy,
            lambda c, z: marginal(c.p, z).masses)


def _alpha_kl_case(p, pair, gens):
    def weights(c, z):
        pm, qm = marginal(c.p, z).masses.tolist(), marginal(c.q, z).masses.tolist()
        return [pv ** 0.5 * qv ** 0.5 for pv, qv in zip(pm, qm)]

    return alpha_kl_instance(pair, gens, 0.5), pair, condition_pair, lambda c, x: alpha_kl(c, x, 0.5), weights


@pytest.mark.parametrize("case", [_tsallis_case, _kl_case, _cross_entropy_case, _alpha_kl_case],
                         ids=["tsallis", "kl", "cross-entropy", "alpha-kl"])
def test_action_form_k1_is_the_family_average_over_the_conditioning_labels(case):
    # every pair at n = 4, so the conditioning joints run up to all four
    # generators (up to 80 labels on the 80 points of the table)
    p, gens = _table(4)
    assert np.all(p.masses > 0)  # every pushforward mass is positive, so every weight is
    inst, ctx, condition_fn, value, weights = case(p, random_pair(np.random.default_rng(4), p), gens)
    size = len(p)
    differs = 0
    for y in range(16):
        x_y = joint_of(gens, y, size)
        for z in range(16):
            x_z = joint_of(gens, z, size)
            want = _average(x_z, lambda c: value(c, x_y), ctx, weights(ctx, x_z), condition_fn)
            got = float(inst.k1(y, z))
            assert got.hex() == want.hex(), (y, z)
            differs += got.hex() != (inst.totals[y | z] - inst.totals[z]).hex()
    # the totals difference is another route, which differs by roundoff: a
    # k1 replaced by it fails the comparison above
    assert differs > 0
