"""Tsallis, KL, alpha-KL and cross-entropy instances and their chain rules."""

from __future__ import annotations

import math

import numpy as np
import pytest

import infodiagram.divergences
import infodiagram.shannon
from conftest import random_joint, random_pair
from infodiagram import (
    Dist,
    DistPair,
    DomainError,
    RandomVariable,
    act,
    alpha_kl,
    alpha_kl_instance,
    cross_entropy,
    cross_entropy_instance,
    entropy,
    interaction,
    joint_of,
    kl,
    kl_instance,
    marginal,
    shannon_instance,
    tsallis_entropy,
    tsallis_instance,
    validate_action_form,
    verify_hu,
)
from infodiagram.divergences import MIN_ALPHA_MASS
from infodiagram.shannon import condition, condition_pair

KL_BERNOULLI_34_14_BITS = 0.792481250360578  # (1/2) log2 3

# 1 + (1/2)(log2(1-eps) + log2(eps)) for the symmetric-channel construction
BSC_D2_BITS = {0.5: 0.0, 0.25: -0.20751874963942196, 0.01: -2.3291778797349196}


def bsc_pair(epsilon):
    """Uniform prior; P's channel is pure noise, Q's flips with prob epsilon."""
    points = ((0, 0), (0, 1), (1, 0), (1, 1))
    p = Dist(masses=np.full(4, 0.25), points=points)
    q = Dist(
        masses=np.array([(1 - epsilon) / 2, epsilon / 2, epsilon / 2, (1 - epsilon) / 2]),
        points=points,
    )
    gens = [
        RandomVariable(labels=(0, 0, 1, 1), name="X"),
        RandomVariable(labels=(0, 1, 0, 1), name="Y"),
    ]
    return DistPair(p=p, q=q), gens


def identical_pair(rng, size):
    masses = rng.uniform(0.05, 1.0, size)
    d = Dist(masses=masses / masses.sum())
    return DistPair(p=d, q=Dist(masses=d.masses.copy()))


# ---------------------------------------------------------------------------
# pair preconditions


def test_distpair_absolute_continuity():
    p = Dist(masses=np.array([0.5, 0.5, 0.0]), points=("a", "b", "c"))
    q = Dist(masses=np.array([0.5, 0.0, 0.5]), points=("a", "b", "c"))
    with pytest.raises(DomainError, match="'b'"):
        DistPair(p=p, q=q)
    # the other direction is allowed: Q may spread wider than P
    DistPair(p=q, q=Dist(masses=np.full(3, 1 / 3), points=("a", "b", "c")))


def test_distpair_names_the_first_offending_point():
    p = Dist(masses=np.full(4, 0.25), points=("a", "b", "c", "d"))
    q = Dist(masses=np.array([0.0, 1.0, 0.0, 0.0]), points=("a", "b", "c", "d"))
    with pytest.raises(DomainError, match="at sample point 'a':"):
        DistPair(p=p, q=q)


def test_distpair_space_mismatch():
    with pytest.raises(DomainError, match=r"^sample-space size mismatch: 1 vs 2$"):
        DistPair(p=Dist(masses=np.array([1.0])), q=Dist(masses=np.array([0.5, 0.5])))


def test_divergences_re_exports_the_pair_machinery():
    # divergences holds formulas only; the pair and its conditioning are re-exported
    assert infodiagram.divergences.DistPair is infodiagram.shannon.DistPair is DistPair
    assert infodiagram.divergences.condition_pair is infodiagram.shannon.condition_pair


def test_condition_pair_on_a_p_null_event_returns_the_pair_unchanged():
    # as condition does for a distribution; P is not left unconditioned beside a conditioned Q
    pair = DistPair(p=Dist(masses=np.array([0.5, 0.5, 0.0])), q=Dist(masses=np.array([0.25, 0.25, 0.5])))
    x = RandomVariable(labels=("a", "a", "b"))
    assert condition_pair(pair, x, "b") is pair
    # on an event P sees, both are conditioned
    given_a = condition_pair(pair, x, "a")
    assert given_a.p.masses.tolist() == [0.5, 0.5, 0.0]
    assert given_a.q.masses.tolist() == [0.5, 0.5, 0.0]


# ---------------------------------------------------------------------------
# Tsallis entropy


def test_tsallis_closed_form_values():
    uniform2 = Dist(masses=np.array([0.5, 0.5]))
    ident = RandomVariable(labels=(0, 1))
    assert tsallis_entropy(uniform2, ident, 2.0) == pytest.approx(0.5, abs=1e-15)

    point = Dist(masses=np.array([1.0, 0.0]))
    for alpha in (0.5, 2.0, 3.0):
        assert tsallis_entropy(point, ident, alpha) == pytest.approx(0.0, abs=1e-15)

    with pytest.raises(DomainError, match="alpha = 1"):
        tsallis_entropy(uniform2, ident, 1.0)
    with pytest.raises(DomainError, match="strictly positive"):
        tsallis_entropy(point, ident, -0.5)


def test_tsallis_approaches_shannon():
    rng = np.random.default_rng(40)
    for _ in range(20):
        size = int(rng.integers(2, 8))
        masses = rng.uniform(0.05, 1.0, size)
        p = Dist(masses=masses / masses.sum())
        x = RandomVariable(labels=tuple(int(v) for v in rng.integers(0, 3, size)))
        h = entropy(p, x, "nats")
        for delta, tol in ((1e-3, 1e-2), (1e-5, 1e-4)):
            for alpha in (1.0 - delta, 1.0 + delta):
                assert abs(tsallis_entropy(p, x, alpha) - h) <= tol


def test_tsallis_instance_constant_conditioning_and_chain():
    rng = np.random.default_rng(41)
    dist, gens = random_joint(rng, 3)
    inst = tsallis_instance(dist, gens, 2.0)
    for mask in range(8):
        # conditioning by the neutral element gives the plain value back
        assert inst.k1c(mask, 0) == pytest.approx(
            tsallis_entropy(dist, _joint_var(gens, mask, len(dist)), 2.0), abs=1e-14
        )
    worst = _chain_residual(inst)
    assert worst <= 1e-12


def test_tsallis_instance_verifies():
    rng = np.random.default_rng(42)
    dist, gens = random_joint(rng, 3)
    for alpha in (0.5, 2.0):
        inst = tsallis_instance(dist, gens, alpha)
        report = verify_hu(inst, q_max=3, tol=1e-9)
        assert report.passed
        assert validate_action_form(inst, tol=1e-9) <= 1e-9


# ---------------------------------------------------------------------------
# KL divergence


def test_kl_values():
    rng = np.random.default_rng(43)
    pair = identical_pair(rng, 5)
    x = RandomVariable(labels=(0, 1, 2, 0, 1))
    assert kl(pair, x) == pytest.approx(0.0, abs=1e-15)

    bern = DistPair(
        p=Dist(masses=np.array([0.75, 0.25])),
        q=Dist(masses=np.array([0.25, 0.75])),
    )
    ident = RandomVariable(labels=(0, 1))
    assert kl(bern, ident, "bits") == pytest.approx(KL_BERNOULLI_34_14_BITS, abs=1e-15)

    rng2 = np.random.default_rng(44)
    some = random_pair(rng2, Dist(masses=np.full(4, 0.25)))
    assert kl(some, RandomVariable(labels=("c",) * 4)) == 0.0


def test_kl_nonnegative_degree_one():
    rng = np.random.default_rng(45)
    for _ in range(30):
        dist, gens = random_joint(rng, 2)
        pair = random_pair(rng, dist)
        for mask in range(1, 4):
            var = _joint_var(gens, mask, len(dist))
            assert kl(pair, var) >= -1e-12


def test_bsc_mutual_kl_divergence():
    for eps, expected in BSC_D2_BITS.items():
        pair, gens = bsc_pair(eps)
        inst = kl_instance(pair, gens, "bits")
        d2 = interaction(inst, (0b01, 0b10), 0)
        assert d2 == pytest.approx(expected, abs=1e-12)
    # arbitrarily negative as the channel gets deterministic
    assert BSC_D2_BITS[0.01] < -1.0
    pair, gens = bsc_pair(0.01)
    assert interaction(kl_instance(pair, gens, "bits"), (0b01, 0b10), 0) < -1.0


def test_kl_instance_verifies():
    rng = np.random.default_rng(46)
    dist, gens = random_joint(rng, 3)
    pair = random_pair(rng, dist)
    inst = kl_instance(pair, gens)
    report = verify_hu(inst, q_max=3, tol=1e-9)
    assert report.passed
    assert validate_action_form(inst, tol=1e-9) <= 1e-9


# ---------------------------------------------------------------------------
# alpha-KL


def test_alpha_kl_zero_for_identical():
    rng = np.random.default_rng(47)
    pair = identical_pair(rng, 4)
    x = RandomVariable(labels=(0, 1, 1, 0))
    for alpha in (0.5, 2.0, 3.0):
        assert alpha_kl(pair, x, alpha) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(DomainError, match="alpha = 1"):
        alpha_kl(pair, x, 1.0)


def test_alpha_kl_approaches_kl():
    rng = np.random.default_rng(48)
    for _ in range(20):
        size = int(rng.integers(2, 8))
        masses = rng.uniform(0.05, 1.0, size)
        p = Dist(masses=masses / masses.sum())
        pair = random_pair(rng, p)
        x = RandomVariable(labels=tuple(int(v) for v in rng.integers(0, 3, size)))
        base = kl(pair, x, "nats")
        for delta, tol in ((1e-3, 1e-2), (1e-5, 1e-4)):
            for alpha in (1.0 - delta, 1.0 + delta):
                assert abs(alpha_kl(pair, x, alpha) - base) <= tol


def test_alpha_kl_instance_verifies():
    rng = np.random.default_rng(49)
    dist, gens = random_joint(rng, 3)
    pair = random_pair(rng, dist)
    inst = alpha_kl_instance(pair, gens, 2.0)
    report = verify_hu(inst, q_max=3, tol=1e-9)
    assert report.passed
    assert validate_action_form(inst, tol=1e-9) <= 1e-9


# ---------------------------------------------------------------------------
# cross-entropy


def test_cross_entropy_equals_entropy_for_identical():
    rng = np.random.default_rng(50)
    pair = identical_pair(rng, 5)
    x = RandomVariable(labels=(0, 0, 1, 2, 1))
    assert cross_entropy(pair, x) == pytest.approx(entropy(pair.p, x), abs=1e-13)


def test_cross_entropy_decomposition_degree_one():
    rng = np.random.default_rng(51)
    for _ in range(30):
        size = int(rng.integers(2, 9))
        masses = rng.uniform(0.05, 1.0, size)
        p = Dist(masses=masses / masses.sum())
        pair = random_pair(rng, p)
        x = RandomVariable(labels=tuple(int(v) for v in rng.integers(0, 3, size)))
        lhs = cross_entropy(pair, x)
        rhs = entropy(pair.p, x) + kl(pair, x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_cross_entropy_decomposes_by_degree():
    rng = np.random.default_rng(52)
    dist, gens = random_joint(rng, 3)
    pair = random_pair(rng, dist)
    ce = cross_entropy_instance(pair, gens)
    sh = shannon_instance(dist, gens)
    dv = kl_instance(pair, gens)
    rng2 = np.random.default_rng(53)
    for _ in range(60):
        q = int(rng2.integers(1, 4))
        l_masks = tuple(int(rng2.integers(0, 8)) for _ in range(q))
        j = int(rng2.integers(0, 8))
        combined = interaction(sh, l_masks, j) + interaction(dv, l_masks, j)
        assert interaction(ce, l_masks, j) == pytest.approx(combined, abs=1e-9)


def test_cross_entropy_instance_verifies():
    rng = np.random.default_rng(54)
    dist, gens = random_joint(rng, 3)
    pair = random_pair(rng, dist)
    inst = cross_entropy_instance(pair, gens)
    report = verify_hu(inst, q_max=3, tol=1e-9)
    assert report.passed
    assert validate_action_form(inst, tol=1e-9) <= 1e-9


# ---------------------------------------------------------------------------
# chain rules across the board


def _joint_var(gens, mask, size):
    from infodiagram import joint_of

    return joint_of(gens, mask, size)


def _chain_residual(inst):
    size = 1 << inst.n
    worst = 0.0
    for y in range(size):
        for z in range(size):
            gap = abs(inst.total(y | z) - inst.total(y) - inst.k1c(z, y))
            worst = max(worst, gap)
    return worst


def test_all_instances_pass_chain_rule_on_random_contexts():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        dist, gens = random_joint(rng, 2)
        pair = random_pair(rng, dist)
        instances = [
            shannon_instance(dist, gens),
            tsallis_instance(dist, gens, 2.0),
            tsallis_instance(dist, gens, 0.5),
            kl_instance(pair, gens),
            alpha_kl_instance(pair, gens, 2.0),
            cross_entropy_instance(pair, gens),
        ]
        for inst in instances:
            worst = max(worst, _chain_residual(inst))
    assert worst <= 1e-12


def test_deformed_conditionals_are_totals_differences_but_not_plain_averages():
    rng = np.random.default_rng(56)
    dist, gens = random_joint(rng, 3)
    pair = random_pair(rng, dist)
    size = len(dist)
    plain_gap = 0.0
    for alpha in (0.5, 2.0):
        for inst in (tsallis_instance(dist, gens, alpha), alpha_kl_instance(pair, gens, alpha)):
            for y in range(8):
                for z in range(8):
                    assert inst.k1c(y, z) == pytest.approx(inst.total(y | z) - inst.total(z), abs=1e-12)
        tsallis = tsallis_instance(dist, gens, alpha)
        for y in range(8):
            for z in range(8):
                plain = act(joint_of(gens, z, size),
                            lambda d: tsallis_entropy(d, joint_of(gens, y, size), alpha), dist)
                plain_gap = max(plain_gap, abs(plain - (tsallis.total(y | z) - tsallis.total(z))))
    # the P_Z-weighted average is a different, non-chain-rule quantity
    assert plain_gap > 0.1


def test_negative_alpha_weights_reject_zero_mass_labels():
    # the deformed weights P_X(v)**alpha have a pole at P_X(v) = 0 for alpha < 0;
    # a constant function isolates the weights from the conditioned values
    rng = np.random.default_rng(57)
    dist, gens = random_joint(rng, 2)
    pair = random_pair(rng, dist)
    masses = np.where(np.array(gens[0].labels) == 0, 0.0, dist.masses)
    zero = Dist(masses=masses / masses.sum(), points=dist.points)
    contexts = ((tsallis_instance, dist, zero), (alpha_kl_instance, pair, DistPair(p=zero, q=pair.q)))
    for build, ctx, zero_ctx in contexts:
        with pytest.raises(DomainError, match="strictly positive"):
            build(ctx, gens, -0.5).action(lambda c: 1.0, 0b01)(zero_ctx)
        # for alpha > 0 the zero-mass label only drops out of the average
        weight = build(ctx, gens, 0.5).action(lambda c: 1.0, 0b01)(zero_ctx)
        assert 0.0 < weight < float("inf")


# ---------------------------------------------------------------------------
# the family formulas against the expressions they replaced
#
# The functions below are the earlier value functions and action weights,
# copied as they were, so the documents keep their bytes: Tsallis sums a
# numpy power array, KL and cross-entropy take ``math.log`` per label, and
# alpha-KL sums per-label powers left to right.


def _old_powers(masses, alpha):
    if alpha < 0 and np.any(masses < MIN_ALPHA_MASS):
        raise DomainError("negative alpha requires strictly positive masses")
    out = np.zeros_like(masses)
    pos = masses > 0
    out[pos] = masses[pos] ** alpha
    return out


def _old_pair_sum(pm, qm, term):
    total = 0.0
    for pv, qv in zip(pm, qm):
        if pv > 0.0:
            total += term(pv, qv)
    return total


def _old_tsallis(p, x, alpha):
    return (float(_old_powers(marginal(p, x).masses, alpha).sum()) - 1.0) / (1.0 - alpha)


def _old_kl(pair, x, scale):
    pm, qm = marginal(pair.p, x).masses, marginal(pair.q, x).masses
    return _old_pair_sum(pm, qm, lambda pv, qv: pv * math.log(pv / qv)) * scale


def _old_cross_entropy(pair, x, scale):
    pm, qm = marginal(pair.p, x).masses, marginal(pair.q, x).masses
    return _old_pair_sum(pm, qm, lambda pv, qv: -pv * math.log(qv)) * scale


def _old_alpha_kl(pair, x, alpha):
    pm, qm = marginal(pair.p, x).masses, marginal(pair.q, x).masses
    if alpha < 0 and (np.any(pm < MIN_ALPHA_MASS) or np.any(qm < MIN_ALPHA_MASS)):
        raise DomainError("negative alpha requires strictly positive masses")
    total = _old_pair_sum(pm, qm, lambda pv, qv: pv ** alpha * qv ** (1.0 - alpha))
    return (total - 1.0) / (alpha - 1.0)


def _old_tsallis_weights(p, x, alpha):
    return _old_powers(marginal(p, x).masses, alpha)


def _old_p_weights(pair, x, _):
    return marginal(pair.p, x).masses


def _old_alpha_kl_weights(pair, x, alpha):
    pm, qm = marginal(pair.p, x).masses, marginal(pair.q, x).masses
    if alpha < 0 and np.any(pm == 0.0):
        raise DomainError("negative alpha requires strictly positive masses")
    return [pv ** alpha * qv ** (1.0 - alpha) if pv > 0.0 else 0.0 for pv, qv in zip(pm.tolist(), qm.tolist())]


def _old_pair_condition(pair, x, v):
    return DistPair(p=condition(pair.p, x, v), q=condition(pair.q, x, v))


def _old_k1(ctx, gens, value, weights, cond, param, y_mask, z_mask):
    size = len(ctx)
    y, z = joint_of(gens, y_mask, size), joint_of(gens, z_mask, size)
    labels = marginal(ctx if isinstance(ctx, Dist) else ctx.p, z).points
    total = 0.0
    for label, weight in zip(labels, weights(ctx, z, param)):
        w = float(weight)
        if w == 0.0:
            continue
        total += w * value(cond(ctx, z, label), y, param)
    return total


def _zeroed_context(rng, positive):
    """A seeded 3-variable joint and pair; unless ``positive``, some masses are 0."""
    dist, gens = random_joint(rng, 3, arities=[2, 3, 2])
    if not positive:
        masses = np.where(rng.uniform(size=len(dist)) < 0.3, 0.0, dist.masses)
        dist = Dist(masses=masses / masses.sum(), points=dist.points)
    return dist, gens, random_pair(rng, dist)


def _outcome(fn, *args):
    """The float's bits, or the refusal, so that both must agree exactly."""
    try:
        return float(fn(*args)).hex()
    except DomainError:
        return "refused"


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 2.0])
def test_family_formulas_match_the_earlier_expressions_bit_for_bit(alpha):
    rng = np.random.default_rng(58)
    bits = 1.0 / math.log(2.0)
    for _ in range(6):
        # a negative power refuses zero masses, so alpha < 0 gets positive contexts
        dist, gens, pair = _zeroed_context(rng, positive=alpha < 0)
        families = (
            (tsallis_instance(dist, gens, alpha), dist, _old_tsallis, _old_tsallis_weights, condition, alpha,
             lambda x: tsallis_entropy(dist, x, alpha)),
            (kl_instance(pair, gens, "bits"), pair, _old_kl, _old_p_weights, _old_pair_condition, bits,
             lambda x: kl(pair, x, "bits")),
            (cross_entropy_instance(pair, gens), pair, _old_cross_entropy, _old_p_weights, _old_pair_condition,
             1.0, lambda x: cross_entropy(pair, x)),
            (alpha_kl_instance(pair, gens, alpha), pair, _old_alpha_kl, _old_alpha_kl_weights,
             _old_pair_condition, alpha, lambda x: alpha_kl(pair, x, alpha)),
        )
        for inst, ctx, value, weights, cond, param, public in families:
            empty = value(ctx, joint_of(gens, 0, len(dist)), param)
            for y in range(8):
                x = joint_of(gens, y, len(dist))
                assert _outcome(public, x) == _outcome(value, ctx, x, param)
                assert inst.totals[y].hex() == float(value(ctx, x, param) - empty).hex()
                for z in range(8):
                    old = _outcome(_old_k1, ctx, gens, value, weights, cond, param, y, z)
                    assert _outcome(inst.k1, y, z) == old


def test_alpha_kl_weights_and_value_refuse_the_same_pushforwards():
    # a P_X label of 1e-310 is positive but below MIN_ALPHA_MASS: both refuse it
    rng = np.random.default_rng(59)
    dist, gens = random_joint(rng, 2)
    pair = random_pair(rng, dist)
    masses = np.where(np.array(gens[0].labels) == 0, 1e-310, dist.masses)
    tiny = DistPair(p=Dist(masses=masses / masses.sum(), points=dist.points), q=pair.q)
    inst = alpha_kl_instance(pair, gens, -0.5)
    with pytest.raises(DomainError, match="strictly positive"):
        alpha_kl(tiny, gens[0], -0.5)
    with pytest.raises(DomainError, match="strictly positive"):
        inst.action(lambda c: 1.0, 0b01)(tiny)
    # on the positive pair both accept, and the weights sum to the value's sum
    weight = inst.action(lambda c: 1.0, 0b01)(pair)
    assert weight == pytest.approx(1.0 + (-0.5 - 1.0) * alpha_kl(pair, gens[0], -0.5), rel=1e-12)


def test_out_of_range_family_values_are_refused():
    # Q's 1:1:1 masses of 0.001 to the power 1 - alpha = -399 overflow a float
    points = ((0, 0), (0, 1), (1, 0), (1, 1))
    p = Dist(masses=np.full(4, 0.25), points=points)
    q = Dist(masses=np.array([997, 1, 1, 1]) / 1000, points=points)
    pair = DistPair(p=p, q=q)
    gens = [RandomVariable(labels=(0, 0, 1, 1)), RandomVariable(labels=(0, 1, 0, 1))]
    with pytest.raises(DomainError, match="alpha kl value out of floating-point range at parameter 400.0"):
        alpha_kl(pair, gens[1], 400.0)
    with pytest.raises(DomainError, match="out of floating-point range"):
        alpha_kl_instance(pair, gens, 400.0)
    # the weights alone overflow too: the value on a context where they do not
    inst = alpha_kl_instance(DistPair(p=p, q=Dist(masses=np.full(4, 0.25), points=points)), gens, 400.0)
    with pytest.raises(DomainError, match="alpha kl weights out of floating-point range"):
        inst.action(lambda c: 1.0, 0b11)(pair)
    # a numpy power overflow is refused too, not left as a warning and inf
    tiny = Dist(masses=np.array([1e-200, 1.0 - 1e-200]))
    ident = RandomVariable(labels=(0, 1))
    with pytest.raises(DomainError, match="tsallis value out of floating-point range at parameter -2.0"):
        tsallis_entropy(tiny, ident, -2.0)
