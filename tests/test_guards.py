"""Guards on what the engine detects, whatever route computes it.

A fast path that skips work passes any test that only compares it with
itself: a sweep whose lhs came from the totals, or a ``k1`` that is the
totals difference, agrees with the region measures by construction.  So
these tests plant a fault in an instance's own conditional and require the
sweep and the chain check to see exactly that fault, and they hold each
action-form family's ``k1`` to its averaged-conditioning definition,
computed here on the label route.  That ``k1`` conditions on a mask's
labels once, into one read-only value cached for the last mask asked, and
reads every y from one grouped table, which the family's value takes
whole, so the guards also run it in the chain check's order and shuffled,
count its conditioning calls, bound its memory, hold each table's values
and refusals to the per-row route's, plant a failing row behind good ones
and share it between threads.
"""

from __future__ import annotations

import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_pair, scaled_sqrt_modular
from infodiagram import (
    Dist,
    DistPair,
    DomainError,
    RandomVariable,
    SetFunction,
    VerificationError,
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
    r1_instance,
    tsallis_entropy,
    tsallis_instance,
    verify_hu,
)
from infodiagram import divergences, shannon
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


@pytest.mark.parametrize("k", [0, 3, 6, 9, 12])
def test_a_fault_of_one_millionth_of_the_totals_is_found_at_every_scale(k):
    # the tolerance scales with max |F1|, so a fault that scales with it too
    # stays a thousand times past the bound while the roundoff stays under it
    values = scaled_sqrt_modular(4, k)
    inst = r1_instance(SetFunction(n=4, values=tuple(values)))
    fault = 1e-6 * max(1.0, max(map(abs, values)))
    planted = replace(inst, k1=lambda y, z: inst.k1(y, z) + (fault if (y, z) == PLANTED else 0.0))
    assert check_chain_rule(inst)[1] == []
    assert [(y, z) for y, z, _ in check_chain_rule(planted)[1]] == [PLANTED[::-1]]
    with pytest.raises(VerificationError, match=r"chain rule at 1 element pair\(s\): \(Y=\(3,\), Z=\(1, 2\)"):
        verify_hu(planted, q_max=3)
    assert verify_hu(inst, q_max=3).passed
    assert not verify_hu(planted, q_max=3, check_chain=False).passed


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


def _zero_heavy_pair(n):
    """A pair on the seeded n-column table whose P is zero on every third
    point while Q, the table's own distribution, covers every point: the
    shape of the benchmark's verify input, so the conditioning labels of
    P-mass zero, whose weight is 0, are skipped."""
    q, gens = _table(n)
    masses = q.masses.copy()
    masses[::3] = 0.0
    return DistPair(p=Dist(masses / masses.sum(), q.points), q=q), gens


@pytest.mark.parametrize("case", [_tsallis_case, _kl_case, _cross_entropy_case, _alpha_kl_case],
                         ids=["tsallis", "kl", "cross-entropy", "alpha-kl"])
def test_grouped_k1_is_the_label_route_bit_for_bit_in_the_chain_checks_order_and_shuffled(case):
    # k1 conditions once per conditioning mask and keeps the last one only,
    # so the chain check's order (one z for a run of y) mostly reuses it and
    # a shuffled order mostly conditions anew; both give the label route's bits
    pair, gens = _zero_heavy_pair(5)
    p = pair.p
    assert np.any(p.masses == 0.0) and np.all(pair.q.masses > 0.0)
    _, ctx, condition_fn, value, weights = case(p, pair, gens)
    size = len(p)
    want = {}
    for z in range(32):
        x_z = joint_of(gens, z, size)
        w = weights(ctx, x_z)
        for y in range(32):
            x_y = joint_of(gens, y, size)
            want[y, z] = _average(x_z, lambda c: value(c, x_y), ctx, w, condition_fn).hex()
    # at z = 31 every label is one point, so each zero of P is a label of weight 0
    assert any(float(w) == 0.0 for w in weights(ctx, joint_of(gens, 31, size)))

    inst = case(p, pair, gens)[0]
    calls = []

    def recorded(y, z):
        calls.append((y, z, inst.k1(y, z)))
        return calls[-1][2]

    check_chain_rule(replace(inst, k1=recorded))
    assert len(calls) == 32 * 32
    assert [(y, z, got.hex()) for y, z, got in calls] == [(y, z, want[y, z]) for y, z, _ in calls]

    inst = case(p, pair, gens)[0]
    pairs = sorted(want)
    random.Random(30).shuffle(pairs)
    assert [(y, z, inst.k1(y, z).hex()) for y, z in pairs] == [(y, z, want[y, z]) for y, z in pairs]


@pytest.mark.parametrize("case", [_tsallis_case, _alpha_kl_case], ids=["tsallis", "alpha-kl"])
def test_k1_conditions_once_per_run_of_one_conditioning_mask(case, monkeypatch):
    # the conditioned blocks are cached for the last mask asked, so the chain
    # check conditions on z's labels of nonzero weight once per run of calls
    # with one z (a pair conditions its P and its Q), not once per call
    pair, gens = _zero_heavy_pair(4)
    conditioned = []

    def counting(p, x, value):
        conditioned.append(value)
        return condition(p, x, value)

    monkeypatch.setattr(shannon, "condition", counting)
    inst, ctx, _, _, weights = case(pair.p, pair, gens)
    calls = []

    def recorded(y, z):
        calls.append(z)
        return inst.k1(y, z)

    check_chain_rule(replace(inst, k1=recorded))
    runs = [z for i, z in enumerate(calls) if i == 0 or calls[i - 1] != z]
    assert len(runs) < len(calls)
    per_label = 2 if ctx is pair else 1
    kept = [sum(float(w) != 0.0 for w in weights(ctx, joint_of(gens, z, len(pair.p)))) for z in runs]
    assert len(conditioned) == per_label * sum(kept)


def test_grouped_k1_holds_a_bounded_table_however_many_labels_meet():
    # 679 points; z = 62 has 243 labels and y = 63 has 679, so the whole
    # grouped table would be 243 x 679 floats (1.3 MB); it is built in row
    # chunks of at most max(points, 4096) entries
    p, gens = _table(6, rows=2000)
    assert len(p) == 679
    inst = tsallis_instance(p, gens, 0.7)
    inst.k1(62, 62)  # builds the joints, their labels and the weights of z = 62 and 63
    inst.k1(63, 63)  # and leaves z = 63 the conditioning mask held
    tracemalloc.start()
    try:
        got = inst.k1(63, 62)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6, peak
    assert got == pytest.approx(inst.totals[63] - inst.totals[62], rel=0, abs=1e-12)


def test_grouped_k1_refuses_what_the_label_route_refuses_with_its_message():
    # at alpha < 0 a Tsallis weight needs every pushforward mass positive:
    # conditioned on a label of generator 1, the pushforward along generator
    # 1 is one label of mass 1 and the others 0, so k1(1, 1) is refused,
    # while along generator 2 every mass is positive
    p, gens = _table(3)
    assert np.all(p.masses > 0)
    inst = tsallis_instance(p, gens, -0.5)
    size = len(p)

    def label_route(y, z):
        x_y, x_z = joint_of(gens, y, size), joint_of(gens, z, size)
        return _average(x_z, lambda c: tsallis_entropy(c, x_y, -0.5), p, marginal(p, x_z).masses ** -0.5,
                        condition)

    with pytest.raises(DomainError, match="strictly positive") as labels:
        label_route(1, 1)

    def refusal(y, z):
        with pytest.raises(DomainError) as grouped:
            inst.k1(y, z)
        return str(grouped.value)

    assert refusal(1, 1) == str(labels.value)  # z = 1 conditioned afresh
    assert refusal(1, 1) == str(labels.value)  # asked again after a refusal cached nothing
    got = inst.k1(1, 2)
    assert math.isfinite(got) and got.hex() == label_route(1, 2).hex()
    assert refusal(1, 1) == str(labels.value)  # z = 1 conditioned again


_FAMILIES = {
    "tsallis": (tsallis_instance, divergences._tsallis_value, divergences._tsallis_weights),
    "kl": (lambda pair, gens, alpha: kl_instance(pair, gens, "bits"), divergences._kl_value, shannon._mass_weights),
    "cross-entropy": (lambda pair, gens, alpha: cross_entropy_instance(pair, gens), divergences._cross_entropy_value,
                      shannon._mass_weights),
    "alpha-kl": (alpha_kl_instance, divergences._alpha_kl_value, divergences._alpha_kl_weights),
}


def _outcome(fn, *args):
    """The float's bits, or the refusal's message, so that both must agree exactly."""
    try:
        return float(fn(*args)).hex()
    except DomainError as refused:
        return str(refused)


def _row_route(inst, ctx, gens, value, weights, y, z):
    """``k1(y | z)`` one pushforward at a time: each kept label of z conditions
    ``ctx`` (label route), and the pushforward along y of each conditioned
    context is checked by :func:`marginal` and evaluated alone by ``_evaluate``."""
    param = inst.meta["alpha"] if "alpha" in inst.meta else shannon.log_scale(inst.meta["base"])
    size = len(ctx)
    x_y, x_z = joint_of(gens, y, size), joint_of(gens, z, size)
    condition_fn = condition if isinstance(ctx, Dist) else condition_pair
    return _average(x_z, lambda c: shannon._apply(value, c, x_y, param), ctx, shannon._apply(weights, ctx, x_z, param),
                    condition_fn)


# a negative alpha refuses the zero masses of the zero-heavy P in the totals themselves
@pytest.mark.parametrize("context, kind, alpha", [
    (context, kind, alpha) for kind in ("tsallis", "alpha-kl") for alpha in (-0.5, 0.3, 0.7, 2.0)
    for context in ("positive", "zero-heavy") if alpha > 0 or context == "positive"
] + [(context, kind, None) for kind in ("kl", "cross-entropy") for context in ("positive", "zero-heavy")])
def test_grouped_k1_evaluates_each_table_whole_with_the_row_routes_bits_and_refusals(context, kind, alpha,
                                                                                      monkeypatch):
    # k1 hands each chunk's pushforward table to the family's formula whole:
    # every value must be the bits of the per-row route, and every refusal its
    # message.  Conditioning on z's labels leaves zero cells in most rows, which
    # a negative alpha refuses; the zero-heavy P also has labels of weight 0
    if context == "zero-heavy":
        pair, gens = _zero_heavy_pair(4)
    else:
        p, gens = _table(4)
        pair = random_pair(np.random.default_rng(4), p)
    build, value, weights = _FAMILIES[kind]
    ctx = pair.p if kind == "tsallis" else pair
    tables = []
    evaluate = shannon._evaluate

    def recording(formula, pm, qm, param):
        if pm.ndim == 2:
            tables.append(pm)
        return evaluate(formula, pm, qm, param)

    monkeypatch.setattr(shannon, "_evaluate", recording)
    inst = build(ctx, gens, alpha)
    got = {(y, z): _outcome(inst.k1, y, z) for z in range(16) for y in range(16)}
    whole = list(tables)
    want = {(y, z): _outcome(_row_route, inst, ctx, gens, value, weights, y, z) for y, z in got}
    assert got == want
    # tables of three or more rows with zero cells were evaluated whole
    assert any(len(t) >= 3 and np.any(t == 0.0) for t in whole)
    refused = sum(not bits.startswith(("0x", "-0x")) for bits in got.values())
    if alpha is not None and alpha < 0:
        assert 0 < refused < len(got)
    else:
        assert refused == 0


def _planted_blocks(p_rows, q_rows=None, weights=None):
    """``_condition_blocks``' value and a variable ``y`` whose grouped tables
    are ``p_rows`` (and ``q_rows`` for a pair): row r is the r-th kept label,
    point ``r * ny + c`` carries cell c of it, and y labels that point c."""
    tables = [np.array(p_rows, dtype=float)] + ([] if q_rows is None else [np.array(q_rows, dtype=float)])
    rows, ny = tables[0].shape
    points = np.arange(rows * ny)
    weights = np.full(rows, 1.0 / rows) if weights is None else np.array(weights, dtype=float)
    blocks = (points, points // ny, tuple(t.ravel() for t in tables), weights, np.arange(rows + 1) * ny)
    return blocks, RandomVariable(labels=tuple(range(ny)) * rows), tables


def _planted_row_route(tables, weights, formula, param, tol):
    """The rows of ``tables`` checked and evaluated one at a time, left to right."""
    total = 0.0
    for i, w in enumerate(weights.tolist()):
        rows = [t[i] for t in tables]
        for row in rows:
            shannon._check_masses(row, tol)
        total += w * shannon._evaluate(formula, rows[0], rows[1] if len(rows) == 2 else None, param)
    return total


@pytest.mark.parametrize("formula, param, p_rows, q_rows, message", [
    # Q's label of mass 0.001 to the power 1 - alpha = -399 overflows in the third row
    (divergences._alpha_kl_value, 400.0, [[0.5, 0.5], [0.25, 0.75], [0.5, 0.5]],
     [[0.5, 0.5], [0.5, 0.5], [0.001, 0.999]], "alpha kl value out of floating-point range at parameter 400.0"),
    # the second row overflows, and the table's positivity check sees the
    # third row's zero first: the second row's message is the one raised
    (divergences._tsallis_value, -2.0, [[0.5, 0.5], [1e-200, 1.0 - 1e-200], [0.0, 1.0]], None,
     "tsallis value out of floating-point range at parameter -2.0"),
    (divergences._alpha_kl_value, -2.0, [[0.5, 0.5], [1e-200, 1.0 - 1e-200], [0.0, 1.0]],
     [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]], "alpha kl value out of floating-point range at parameter -2.0"),
    # P / Q is past the largest float, and its log is not finite
    (divergences._kl_value, 1.0, [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5], [1e-310, 1.0]],
     "kl value out of floating-point range at parameter 1.0"),
    # a row that fails marginal's check is refused before the formula sees the table
    (divergences._tsallis_value, 0.7, [[0.5, 0.5], [0.5, 0.4], [0.0, 1.0]], None, "masses sum to 0.9, not 1 within"),
    (divergences._alpha_kl_value, 0.5, [[0.5, 0.5], [0.5, 0.5], [0.0, 1.0]], [[0.5, 0.5], [0.25, 0.75], [0.5, 0.25]],
     "masses sum to 0.75, not 1 within"),
], ids=["alpha-kl-overflow", "tsallis-overflow-before-zero", "alpha-kl-overflow-before-zero", "kl-not-finite",
        "tsallis-mass-check", "alpha-kl-mass-check"])
def test_a_failing_row_behind_good_rows_raises_the_row_routes_message(formula, param, p_rows, q_rows, message):
    blocks, y, tables = _planted_blocks(p_rows, q_rows, weights=[0.5, 0.25, 0.25])
    tol = shannon.MASS_TOL + len(y) * 2.0 ** -53
    with pytest.raises(DomainError) as rows:
        _planted_row_route(tables, blocks[3], formula, param, tol)
    assert str(rows.value).startswith(message)
    with pytest.raises(DomainError) as grouped:
        shannon._grouped_average(blocks, y, formula, param)
    assert str(grouped.value) == str(rows.value)


@pytest.mark.parametrize("kind", ["tsallis", "alpha-kl"])
def test_k1_refuses_a_zero_cell_behind_good_rows_with_the_row_routes_message(kind):
    # points (z, y): z's labels 0 and 1 meet both labels of y, label 2 meets
    # only y = 0, so conditioned on it the pushforward along y has a zero
    # cell, which alpha = -0.5 refuses, behind the two good rows of z = 0, 1
    points = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0))
    p = Dist(masses=np.full(5, 0.2), points=points)
    gens = [RandomVariable(labels=tuple(pt[i] for pt in points)) for i in range(2)]
    build, value, weights = _FAMILIES[kind]
    ctx = p if kind == "tsallis" else DistPair(p=p, q=Dist(masses=np.array([4, 1, 2, 1, 2]) / 10, points=points))
    inst = build(ctx, gens, -0.5)
    want = _outcome(_row_route, inst, ctx, gens, value, weights, 0b10, 0b01)
    assert "strictly positive" in want
    assert _outcome(inst.k1, 0b10, 0b01) == want
    assert _outcome(inst.k1, 0b01, 0b10) == _outcome(_row_route, inst, ctx, gens, value, weights, 0b01, 0b10)


def test_grouped_k1_gives_the_serial_bits_when_threads_share_the_instance(monkeypatch):
    # k1 caches the last conditioning mask's blocks, which threads sharing
    # one instance all read: each is a read-only value, so none can rewrite it
    made = []
    blocks = shannon._condition_blocks

    def recording(*args):
        made.append(blocks(*args))
        return made[-1]

    monkeypatch.setattr(shannon, "_condition_blocks", recording)
    pair, gens = _zero_heavy_pair(4)
    pairs = [(y, z) for z in range(16) for y in range(16)]
    serial = alpha_kl_instance(pair, gens, 0.5)
    want = [(y, z, serial.k1(y, z).hex()) for y, z in pairs]
    shared = alpha_kl_instance(pair, gens, 0.5)
    orders = [random.Random(seed).sample(range(len(pairs)), len(pairs)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda order: {i: shared.k1(*pairs[i]).hex() for i in order}, order)
                       for order in orders]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert [(y, z, got[i]) for i, (y, z) in enumerate(pairs)] == want
    assert made
    for points, rank, masses, weights, starts in made:
        for arr in (points, rank, *masses, weights, starts):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
