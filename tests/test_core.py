"""Engine tests: atoms, regions, the measure, interactions, oracles, sweeps."""

from __future__ import annotations

import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_joint, random_pair
from infodiagram import (
    ChainRuleInstance,
    DomainError,
    InfoFunction,
    SetFunction,
    VerificationError,
    alpha_kl_instance,
    atom_interaction,
    atom_measure,
    atom_table,
    atoms,
    check_chain_rule,
    circle_region,
    empirical_from_rows,
    hu_region,
    indices_of,
    interaction,
    interaction_incl_excl,
    mask_of,
    mobius_oracle,
    r1_instance,
    region_atoms,
    region_measure,
    relative_instance,
    shannon_instance,
    validate_action_form,
    verify_hu,
)
from infodiagram.core import _check_term, _interaction_node, _sweep_plan, _Term


def random_r1(rng, n, dyadic=False):
    """Arbitrary-values chain-rule instance; the broadest engine input."""
    size = 1 << n
    if dyadic:
        values = tuple(float(v) / 1024.0 for v in rng.integers(0, 1024, size))
    else:
        values = tuple(rng.uniform(0.0, 1.0, size))
    return r1_instance(SetFunction(n=n, values=values))


# ---------------------------------------------------------------------------
# atoms and regions


def test_atoms_enumeration():
    assert atoms(1) == [1]
    assert atoms(2) == [1, 2, 3]
    # an n-set diagram has 2**n - 1 minimal cells: 3, 7, 15, ...
    assert len(atoms(3)) == 7
    assert len(atoms(4)) == 15


def test_atoms_cap():
    with pytest.raises(DomainError, match="INFODIAGRAM_MAX_N"):
        atoms(13)
    with pytest.raises(DomainError):
        atoms(0)


def test_atoms_cap_env_override(monkeypatch):
    monkeypatch.setenv("INFODIAGRAM_MAX_N", "2")
    with pytest.raises(DomainError, match="1..2"):
        atoms(3)
    monkeypatch.setenv("INFODIAGRAM_MAX_N", "13")
    assert len(atoms(13)) == 2**13 - 1
    monkeypatch.setenv("INFODIAGRAM_MAX_N", "zero")
    with pytest.raises(DomainError):
        atoms(3)


def test_circle_region_examples():
    # one circle of a two-set diagram: its own cell plus the overlap
    assert region_atoms(circle_region(0b01, 2)) == [0b01, 0b11]
    assert circle_region(0, 3) == 0
    assert region_atoms(circle_region(0b111, 3)) == atoms(3)


def test_circle_region_rejects_stray_bits():
    with pytest.raises(DomainError):
        circle_region(0b100, 2)


def test_hu_region_examples():
    # atoms meeting both {1,2} and {1,3}: everything except the lone 2 and 3 cells
    got = hu_region((0b011, 0b101), 0, 3)
    assert region_atoms(got) == [0b001, 0b011, 0b101, 0b110, 0b111]
    assert region_atoms(hu_region((0b01,), 0b10, 2)) == [0b01]
    assert hu_region((0b001,), 0b001, 3) == 0
    with pytest.raises(DomainError, match="q >= 1"):
        hu_region((), 0, 3)


@pytest.mark.parametrize("l_masks, j_mask, message", [
    ((), 0, "interaction needs at least one argument (q >= 1)"),
    ((0b01, 0b100), 0, "interaction mask 4 is not a subset of 1..2"),
    ((0b01,), 0b100, "conditioning mask 4 is not a subset of 1..2"),
    # the residual columns hold masks as numpy integers, not ints
    ((np.uint8(1),), 0, "interaction mask np.uint8(1) is a uint8, not an int"),
    ((0b01,), np.uint8(1), "conditioning mask np.uint8(1) is a uint8, not an int"),
    ((True,), 0, "interaction mask True is a bool, not an int"),
    ((0b01,), True, "conditioning mask True is a bool, not an int"),
    ((1.0,), 0, "interaction mask 1.0 is a float, not an int"),
    ((0b01,), 1.0, "conditioning mask 1.0 is a float, not an int"),
    ((-1,), 0, "interaction mask -1 is not a subset of 1..2"),
    ((0b01,), -1, "conditioning mask -1 is not a subset of 1..2"),
    # the L masks are named before J, whichever fails first in one pass
    ((0b01, 1.0), -1, "interaction mask 1.0 is a float, not an int"),
])
def test_term_functions_refuse_bad_arguments_alike(l_masks, j_mask, message):
    inst = random_r1(np.random.default_rng(12), 2)
    for term in (
        lambda: interaction(inst, l_masks, j_mask),
        lambda: interaction_incl_excl(inst, l_masks, j_mask),
        lambda: hu_region(l_masks, j_mask, 2),
    ):
        with pytest.raises(DomainError) as info:
            term()
        assert str(info.value) == message


def test_term_functions_accept_int_subclass_masks():
    class Mask(int):
        pass

    inst = random_r1(np.random.default_rng(12), 2)
    for l_masks, j_mask in (((Mask(1), Mask(2)), Mask(0)), ((1, Mask(3)), 0), ((1, 2), Mask(2))):
        plain_l, plain_j = tuple(map(int, l_masks)), int(j_mask)
        assert interaction(inst, l_masks, j_mask) == interaction(inst, plain_l, plain_j)
        assert interaction_incl_excl(inst, l_masks, j_mask) == interaction_incl_excl(inst, plain_l, plain_j)
        assert hu_region(l_masks, j_mask, 2) == hu_region(plain_l, plain_j, 2)


# a mask as a caller may pass one at n = 3: an int from -1 to 2**3, a bool or a numpy int
_ANY_MASK = st.one_of(st.integers(-1, 8), st.booleans(), st.integers(-1, 8).map(np.int64))

@settings(max_examples=400, deadline=None)
@given(
    l_masks=st.one_of(
        st.lists(_ANY_MASK, max_size=4).map(tuple),
        st.lists(_ANY_MASK, max_size=4),
        st.lists(st.integers(-1, 8), max_size=4).map(sorted).map(tuple),
        st.lists(st.integers(0, 9), min_size=1, max_size=4).map(sorted).map(_Term),
    ),
    j_mask=_ANY_MASK,
)
@example(l_masks=(-1,), j_mask=0)
@example(l_masks=(-1, 2), j_mask=0)
@example(l_masks=(1, 8), j_mask=0)
@example(l_masks=(2,), j_mask=8)
@example(l_masks=(2, 1), j_mask=0)  # out of order: its bits differ from the sorted term's
@example(l_masks=(4, 3, 1), j_mask=2)
@example(l_masks=(), j_mask=0)
@example(l_masks=(True, 2), j_mask=0)
@example(l_masks=(np.int64(1), 2), j_mask=0)
@example(l_masks=(1, 2), j_mask=np.int64(0))
@example(l_masks=[1, 2, 4], j_mask=0)
@example(l_masks=_Term((1, 2, 4, 7)), j_mask=0)  # degree 4: the node splits on its last mask
@example(l_masks=_Term((1, 8)), j_mask=0)  # the last mask past 2**n
@example(l_masks=_Term((8,)), j_mask=3)
@example(l_masks=_Term((2, 3)), j_mask=8)  # J past 2**n
@example(l_masks=_Term((2, 3)), j_mask=-1)
@example(l_masks=_Term((2, 3)), j_mask=True)
@example(l_masks=_Term((2, 3)), j_mask=np.int64(1))
def test_only_a_term_skips_the_checks_and_every_route_gives_the_checked_bits(l_masks, j_mask):
    # interaction takes a _Term, sorted by construction, as it is once its last
    # mask and a plain-int J are in range; any other arguments, a sorted tuple
    # of plain ints too, go through _check_term and the sort.  Both give the
    # checked route's bits or its refusal: an action-form instance's terms
    # differ in the last bits when their order changes
    dist, gens = random_joint(np.random.default_rng(32), 3)
    inst = alpha_kl_instance(random_pair(np.random.default_rng(33), dist), gens, 0.5)

    def outcome(term):
        try:
            return term().hex()
        except DomainError as refused:
            return str(refused)

    want = outcome(lambda: _interaction_node(inst, sorted(_check_term(l_masks, j_mask, 3)), j_mask))
    assert outcome(lambda: interaction(inst, l_masks, j_mask)) == want


@settings(max_examples=200)
@given(
    n=st.integers(1, 5),
    data=st.data(),
)
def test_hu_region_matches_circle_algebra(n, data):
    # independent route: intersect the circle unions, subtract the conditioning
    q = data.draw(st.integers(1, 3))
    l_masks = tuple(data.draw(st.integers(0, (1 << n) - 1)) for _ in range(q))
    j_mask = data.draw(st.integers(0, (1 << n) - 1))
    expected = (1 << ((1 << n) - 1)) - 1
    for l in l_masks:
        expected &= circle_region(l, n)
    expected &= ~circle_region(j_mask, n)
    assert hu_region(l_masks, j_mask, n) == expected


@given(a=st.integers(0, 31), b=st.integers(0, 31))
def test_circle_region_of_join_is_union(a, b):
    assert circle_region(a | b, 5) == circle_region(a, 5) | circle_region(b, 5)


# ---------------------------------------------------------------------------
# the measure


def test_atom_measure_closed_forms():
    rng = np.random.default_rng(7)

    inst1 = random_r1(rng, 1)
    assert atom_measure(inst1, 0b1) == pytest.approx(inst1.total(0b1), abs=1e-15)

    inst2 = random_r1(rng, 2)
    f1 = inst2.total
    assert atom_measure(inst2, 0b01) == pytest.approx(-f1(0b10) + f1(0b11), abs=1e-15)

    inst3 = random_r1(rng, 3)
    f1 = inst3.total
    expected = -f1(0b100) + f1(0b101) + f1(0b110) - f1(0b111)
    assert atom_measure(inst3, 0b011) == pytest.approx(expected, abs=1e-15)


def test_atom_measure_rejects_empty_atom():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        atom_measure(random_r1(rng, 2), 0)


def test_region_measure_empty_and_full():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        inst = random_r1(rng, n)
        assert region_measure(inst, 0) == 0.0
        full = circle_region((1 << n) - 1, n)
        assert region_measure(inst, full) == pytest.approx(inst.total((1 << n) - 1), abs=1e-12)


@settings(max_examples=100)
@given(split=st.integers(0, (1 << 15) - 1), seed=st.integers(0, 2**31))
def test_region_measure_additive_on_disjoint(split, seed):
    # dyadic values make every intermediate sum exact, so splitting a region
    # is literally a reassociation of the same additions
    rng = np.random.default_rng(seed)
    inst = random_r1(rng, 4, dyadic=True)
    full = (1 << 15) - 1
    a = split
    b = full & ~split
    assert region_measure(inst, a) + region_measure(inst, b) == region_measure(inst, full)


def test_region_measure_additivity_float():
    rng = np.random.default_rng(3)
    inst = random_r1(rng, 4)
    rng2 = np.random.default_rng(4)
    for _ in range(50):
        a = int(rng2.integers(0, 1 << 15))
        b = int(rng2.integers(0, 1 << 15)) & ~a
        lhs = region_measure(inst, a) + region_measure(inst, b)
        assert lhs == pytest.approx(region_measure(inst, a | b), abs=1e-12)


# ---------------------------------------------------------------------------
# interaction terms


def test_interaction_base_case_is_k1():
    rng = np.random.default_rng(5)
    inst = random_r1(rng, 3)
    for y in range(8):
        for z in range(8):
            assert interaction(inst, (y,), z) == inst.k1c(y, z)


def test_interaction_rejects_degree_zero():
    rng = np.random.default_rng(5)
    with pytest.raises(DomainError):
        interaction(random_r1(rng, 2), (), 0)


def test_interaction_with_itself_is_degree_one():
    # mutual information of a variable with itself is its entropy
    rng = np.random.default_rng(6)
    dist, gens = random_joint(rng, 3)
    inst = shannon_instance(dist, gens)
    for mask in range(1, 8):
        assert interaction(inst, (mask, mask), 0) == pytest.approx(
            interaction(inst, (mask,), 0), abs=1e-12
        )


def test_interaction_symmetry_is_exact():
    # the arguments are sorted before the recursion, so permutations are float-identical
    rng = np.random.default_rng(8)
    inst = random_r1(rng, 4)
    l_masks = (0b0011, 0b1010, 0b0110)
    base = interaction(inst, l_masks, 0b0001)
    assert interaction(inst, (0b1010, 0b0110, 0b0011), 0b0001) == base
    assert interaction(inst, (0b0110, 0b0011, 0b1010), 0b0001) == base


def test_interaction_absorbs_full_joint():
    rng = np.random.default_rng(9)
    dist, gens = random_joint(rng, 3)
    for inst in (shannon_instance(dist, gens), random_r1(rng, 3)):
        full = 0b111
        for l_masks in ((0b001,), (0b011, 0b101), (0b001, 0b010, 0b100)):
            for j in (0, 0b010):
                plain = interaction(inst, l_masks, j)
                absorbed = interaction(inst, l_masks + (full,), j)
                assert absorbed == pytest.approx(plain, abs=1e-12)


def test_interaction_with_neutral_argument_vanishes():
    rng = np.random.default_rng(10)
    dist, gens = random_joint(rng, 3)
    inst = shannon_instance(dist, gens)
    assert interaction(inst, (0,), 0b011) == pytest.approx(0.0, abs=1e-12)
    assert interaction(inst, (0, 0b011), 0) == pytest.approx(0.0, abs=1e-12)
    assert interaction(inst, (0b101, 0, 0b110), 0b010) == pytest.approx(0.0, abs=1e-12)


def _plain_rec(inst, prefix, z_mask):
    """The recursion with one call per node down to degree 1, the reference
    for the engine's, which reads each node of degree <= 3 from the k1 memo
    in one expression."""
    if len(prefix) == 1:
        return inst.k1c(prefix[0], z_mask)
    rest = prefix[:-1]
    return _plain_rec(inst, rest, z_mask) - _plain_rec(inst, rest, prefix[-1] | z_mask)


def _memo(inst):
    """The k1 values an instance has memoized, keyed by (y, z)."""
    return {(y, z): v for y, row in inst._k1_cache.items() for z, v in row.items()}


@pytest.mark.parametrize("memo", ["empty", "chain-checked", "half-seeded"])
@pytest.mark.parametrize("family", ["totals", "alpha-kl"])
def test_memo_reads_give_the_plain_recursion_bit_for_bit(family, memo):
    def fresh():  # one instance per route, so neither reads k1 values the other memoized
        if family == "totals":
            return random_r1(np.random.default_rng(31), 4)
        dist, gens = random_joint(np.random.default_rng(32), 3)
        return alpha_kl_instance(random_pair(np.random.default_rng(33), dist), gens, 0.5)

    inst, reference = fresh(), fresh()
    size = 1 << inst.n
    if memo == "chain-checked":
        check_chain_rule(inst)
        assert len(_memo(inst)) == size * size
    elif memo == "half-seeded":
        for y, z in np.argwhere(np.random.default_rng(35).random((size, size)) < 0.5).tolist():
            inst.k1c(y, z)
    rng = np.random.default_rng(34)
    for q in range(1, 7):
        for _ in range(60):
            l_masks = rng.integers(0, size, q).tolist()
            j = int(rng.integers(0, size))
            want = _plain_rec(reference, tuple(sorted(l_masks)), j)
            rng.shuffle(l_masks)
            assert interaction(inst, l_masks, j).hex() == want.hex(), (l_masks, j)
    # each term memoized as k1 gave it; a memo that starts empty gains only the terms read
    assert _memo(reference).items() <= _memo(inst).items()
    if memo == "empty":
        assert len(_memo(inst)) == len(_memo(reference))


@pytest.mark.parametrize("family", ["totals", "alpha-kl"])
def test_the_sweep_reaches_k1_once_per_pair_and_only_through_k1c(family):
    if family == "totals":
        inst = random_r1(np.random.default_rng(40), 4)
    else:
        dist, gens = random_joint(np.random.default_rng(41), 4)
        inst = alpha_kl_instance(random_pair(np.random.default_rng(42), dist), gens, 0.5)
    k1, k1c_code = inst.k1, ChainRuleInstance.k1c.__code__
    calls, callers = [], set()

    def counted(y_mask, z_mask):
        calls.append((y_mask, z_mask))
        callers.add(sys._getframe(1).f_code)
        return k1(y_mask, z_mask)

    counted_inst = dataclasses.replace(inst, k1=counted)
    report = verify_hu(counted_inst, q_max=3, mode="exhaustive", check_chain=False)
    assert report.passed and len(report.residuals) == 15488
    assert len(calls) == len(set(calls)) == len(_memo(counted_inst))
    assert callers == {k1c_code}


def test_incl_excl_degree_one_is_chain_conditional():
    rng = np.random.default_rng(12)
    inst = random_r1(rng, 3)
    for y in range(8):
        for z in range(8):
            expected = inst.total(y | z) - inst.total(z)
            assert interaction_incl_excl(inst, (y,), z) == pytest.approx(expected, abs=1e-15)


def test_incl_excl_independent_bits_mutual_information_zero():
    rows = [(a, b) for a in (0, 1) for b in (0, 1)]
    dist, gens = empirical_from_rows(rows)
    inst = shannon_instance(dist, gens, "bits")
    assert interaction_incl_excl(inst, (0b01, 0b10), 0) == pytest.approx(0.0, abs=1e-12)


def test_incl_excl_agrees_with_recursion():
    # dual-route check: the alternating sum against the recursive definition
    rng = np.random.default_rng(13)
    dist, gens = random_joint(rng, 3)
    instances = [shannon_instance(dist, gens), random_r1(rng, 4)]
    rng2 = np.random.default_rng(14)
    for inst in instances:
        size = 1 << inst.n
        for _ in range(80):
            q = int(rng2.integers(1, 5))
            l_masks = tuple(int(rng2.integers(0, size)) for _ in range(q))
            j = int(rng2.integers(0, size))
            a = interaction(inst, l_masks, j)
            b = interaction_incl_excl(inst, l_masks, j)
            assert a == pytest.approx(b, abs=1e-9)


# ---------------------------------------------------------------------------
# atom values by interaction, and the linear-solve oracle


def test_atom_interaction_small_cases():
    rng = np.random.default_rng(15)
    inst1 = random_r1(rng, 1)
    assert atom_interaction(inst1, 0b1) == inst1.total(0b1)

    inst2 = random_r1(rng, 2)
    f1 = inst2.total
    mutual = f1(0b01) - (f1(0b11) - f1(0b10))  # I(X1) - X2-conditioned I(X1)
    assert atom_interaction(inst2, 0b11) == pytest.approx(mutual, abs=1e-12)


def test_atom_interaction_matches_measure_tables():
    rng = np.random.default_rng(16)
    dist, gens = random_joint(rng, 3)
    for inst in (shannon_instance(dist, gens), random_r1(rng, 4)):
        for a in atoms(inst.n):
            assert atom_interaction(inst, a) == pytest.approx(atom_measure(inst, a), abs=1e-9)


def test_mobius_oracle_trivial_and_random():
    rng = np.random.default_rng(17)
    inst1 = random_r1(rng, 1)
    assert mobius_oracle(inst1) == {1: pytest.approx(inst1.total(1))}
    for n in (1, 2, 3, 4):
        inst = random_r1(rng, n)
        solved = mobius_oracle(inst)
        table = atom_table(inst)
        assert max(abs(solved[a] - table[a]) for a in atoms(n)) <= 1e-9


def test_mobius_oracle_xor_triple(xor_joint):
    dist, gens = xor_joint
    inst = shannon_instance(dist, gens, "bits")
    assert mobius_oracle(inst)[0b111] == pytest.approx(-1.0, abs=1e-12)


def test_mobius_oracle_cap():
    rng = np.random.default_rng(18)
    with pytest.raises(DomainError, match="cap"):
        mobius_oracle(random_r1(rng, 6))


# ---------------------------------------------------------------------------
# the transform engine against its oracles


def _close(got, want):
    # the transforms reorder float sums, so agreement is relative, not bitwise
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _drawn_r1(n, data):
    values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=1 << n, max_size=1 << n))
    return r1_instance(SetFunction(n=n, values=tuple(values)))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 5), data=st.data())
def test_atom_table_matches_closed_form_and_linear_solve(n, data):
    inst = _drawn_r1(n, data)
    table = atom_table(inst)
    assert list(table) == atoms(n)
    solved = mobius_oracle(inst)
    for a in atoms(n):
        assert _close(table[a], atom_measure(inst, a))
        assert _close(table[a], solved[a])


def test_atom_table_matches_closed_form_at_n10():
    inst = random_r1(np.random.default_rng(19), 10)
    table = atom_table(inst)
    assert all(_close(table[a], atom_measure(inst, a)) for a in atoms(10))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**31), data=st.data())
def test_verify_region_sums_match_region_measure(n, seed, data):
    # the sweep's zeta lookups against the atom-by-atom sum over hu_region
    inst = _drawn_r1(n, data)
    report = verify_hu(inst, q_max=3, tol=1e-9, mode="sampled", samples=25, seed=seed)
    for r in report.residuals:
        assert _close(r.rhs, region_measure(inst, hu_region(r.l_masks, r.j_mask, n)))


# ---------------------------------------------------------------------------
# chain-rule checking and the verification sweep


def corrupt(inst: ChainRuleInstance, bad_y: int, bad_z: int, delta: float = 0.1) -> ChainRuleInstance:
    """Copy of an instance with one k1 value shifted; breaks the chain rule."""
    def k1(y, z):
        bump = delta if (y, z) == (bad_y, bad_z) else 0.0
        return inst.k1(y, z) + bump

    return ChainRuleInstance(n=inst.n, totals=inst.totals, k1=k1)


def test_check_chain_rule_clean_and_corrupted():
    rng = np.random.default_rng(19)
    dist, gens = random_joint(rng, 3)
    inst = shannon_instance(dist, gens)
    max_gap, violations = check_chain_rule(inst, 1e-12)
    assert not violations
    assert max_gap <= 1e-13

    bad = corrupt(inst, 0b011, 0b100)
    _, violations = check_chain_rule(bad, 1e-9)
    assert violations
    assert any(abs(gap - 0.1) < 1e-9 for _, _, gap in violations)


def test_verify_trivial_single_generator():
    rng = np.random.default_rng(20)
    report = verify_hu(random_r1(rng, 1), q_max=1, tol=1e-12)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_verify_random_shannon():
    rng = np.random.default_rng(21)
    dist, gens = random_joint(rng, 3)
    report = verify_hu(shannon_instance(dist, gens), q_max=3, tol=1e-9)
    assert report.passed
    assert report.max_residual <= 1e-9
    # 1 <= q <= 3 sorted tuples over 8 elements, times 8 conditionings
    assert len(report.residuals) == (8 + 36 + 120) * 8
    assert report.max_residual == max(r.gap for r in report.residuals)


def test_verify_raises_on_chain_violation_naming_pair():
    rng = np.random.default_rng(22)
    dist, gens = random_joint(rng, 3)
    inst = corrupt(shannon_instance(dist, gens), 0b011, 0b100)
    with pytest.raises(VerificationError, match=r"chain rule.*Y="):
        verify_hu(inst)


def test_verify_gate_off_reports_offending_identity():
    rng = np.random.default_rng(23)
    dist, gens = random_joint(rng, 3)
    inst = corrupt(shannon_instance(dist, gens), 0b011, 0b100)
    report = verify_hu(inst, check_chain=False)
    assert not report.passed
    worst = report.worst()
    assert worst.gap > 1e-3
    assert worst.q >= 1 and len(worst.l_masks) == worst.q


def test_verify_figure_like_triple_decomposition():
    # region form: the {1,2}x{1,3} overlap splits into "1 without 3" and
    # the {1,2}x{3} overlap, and the values follow
    lens = hu_region((0b011, 0b101), 0, 3)
    left = hu_region((0b001,), 0b100, 3)
    right = hu_region((0b011, 0b100), 0, 3)
    assert left & right == 0
    assert left | right == lens

    rng = np.random.default_rng(24)
    for _ in range(5):
        dist, gens = random_joint(rng, 3)
        inst = shannon_instance(dist, gens)
        lhs = interaction(inst, (0b011, 0b101), 0)
        rhs = interaction(inst, (0b001,), 0b100) + interaction(inst, (0b011, 0b100), 0)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_verify_sampled_mode_deterministic():
    rng = np.random.default_rng(25)
    inst_values = tuple(rng.uniform(0, 1, 64))
    make = lambda: r1_instance(SetFunction(n=6, values=inst_values))
    r1 = verify_hu(make(), q_max=3, tol=1e-9, samples=200, seed=42)
    r2 = verify_hu(make(), q_max=3, tol=1e-9, samples=200, seed=42)
    assert r1.mode == "sampled"
    assert r1.passed
    assert [tuple(r) for r in r1.residuals] == [tuple(r) for r in r2.residuals]
    with pytest.raises(DomainError, match="exhaustive"):
        verify_hu(make(), mode="exhaustive")


def test_verify_rejects_bad_qmax():
    rng = np.random.default_rng(26)
    with pytest.raises(DomainError):
        verify_hu(random_r1(rng, 2), q_max=0)


def test_verify_refuses_an_oversized_sweep_before_any_work():
    class Reached(Exception):
        pass

    def untouchable(y, z):
        raise Reached  # the sweep got past its argument checks

    inst = ChainRuleInstance(n=5, totals=(0.0,) * 32, k1=untouchable)
    # the cap is 2**25 terms, checks * 2**q_max; n = 5 exhaustive makes
    # 30,158,848 at q_max = 4 and 446,357,504 at q_max = 5
    cases = (
        ({"q_max": 4}, True),
        ({"q_max": 5}, False),
        ({"mode": "sampled", "samples": 1024, "q_max": 15}, True),
        ({"mode": "sampled", "samples": 1025, "q_max": 15}, False),
        ({"mode": "sampled", "samples": 1000, "q_max": 16}, False),
        ({"mode": "sampled", "samples": 1, "q_max": 10 ** 9}, False),
    )
    for kwargs, admitted in cases:
        if admitted:
            with pytest.raises(Reached):
                verify_hu(inst, **kwargs)
        else:
            with pytest.raises(DomainError, match="cap"):
                verify_hu(inst, **kwargs)


def test_verify_rejects_empty_sample_before_any_work():
    def untouchable(y, z):
        raise AssertionError("k1 evaluated before the argument check")

    inst = ChainRuleInstance(n=2, totals=(0.0, 1.0, 1.0, 2.0), k1=untouchable)
    for samples in (0, -3):
        with pytest.raises(DomainError, match="samples"):
            verify_hu(inst, mode="sampled", samples=samples)


def test_verify_refuses_sizes_that_are_not_ints_before_any_work():
    def untouchable(y, z):
        raise AssertionError("k1 evaluated before the argument check")

    inst = ChainRuleInstance(n=2, totals=(0.0, 1.0, 1.0, 2.0), k1=untouchable)
    # q_max and samples follow the engine's integer rule: a bool, a float or a string is no count
    for kwargs in ({"q_max": True}, {"q_max": 2.0}, {"q_max": "2"},
                   {"mode": "sampled", "samples": True}, {"mode": "sampled", "samples": 2.5}):
        with pytest.raises(DomainError, match="must be an int"):
            verify_hu(inst, **kwargs)
        with pytest.raises(DomainError, match="must be an int"):
            _sweep_plan(2, **{"q_max": 3, **kwargs})
    # so does the sample count of the chain-rule check and the action-form spot check
    acting = dataclasses.replace(inst, f1=untouchable, action=untouchable, evaluate=untouchable)
    for samples in (2.5, True, -3, None, "2"):
        with pytest.raises(DomainError, match=rf"^samples must be an int >= 0, got {re.escape(repr(samples))}$"):
            validate_action_form(acting, samples=samples)
        if samples is not None:  # None is the exhaustive check
            with pytest.raises(DomainError, match=rf"^samples must be an int >= 0, got {re.escape(repr(samples))}$"):
                check_chain_rule(inst, samples=samples)
    assert check_chain_rule(inst, samples=0) == (0.0, [])
    assert validate_action_form(acting, samples=0) == 0.0


def test_rescaled_conditional_fails_against_its_totals():
    # a nats conditional obeys the chain rule on its own, but not with bits totals
    rng = np.random.default_rng(262)
    dist, gens = random_joint(rng, 3)
    nats = shannon_instance(dist, gens, "nats")
    bits = shannon_instance(dist, gens, "bits")
    mixed = ChainRuleInstance(n=3, totals=bits.totals, k1=nats.k1)
    _, violations = check_chain_rule(nats, 1e-9)
    assert not violations
    _, violations = check_chain_rule(mixed, 1e-9)
    assert violations
    with pytest.raises(VerificationError, match="chain rule"):
        verify_hu(mixed)


def test_totals_length_is_checked():
    with pytest.raises(DomainError, match="totals"):
        ChainRuleInstance(n=2, totals=(0.0, 1.0, 1.0))
    with pytest.raises(DomainError, match="totals"):
        ChainRuleInstance(n=2, totals=[0.0] * 8)
    for bad in (None, "x", 10 ** 400):
        with pytest.raises(DomainError, match="totals must be real numbers"):
            ChainRuleInstance(n=1, totals=(0.0, bad))


def test_totals_untouched_beyond_the_cap(monkeypatch):
    class Untouchable:
        def __iter__(self):
            raise AssertionError("totals read before the cap check")

        def __len__(self):
            raise AssertionError("totals read before the cap check")

    monkeypatch.setenv("INFODIAGRAM_MAX_N", "3")
    with pytest.raises(DomainError, match="INFODIAGRAM_MAX_N"):
        ChainRuleInstance(n=4, totals=Untouchable())


def test_boolean_n_is_refused():
    with pytest.raises(DomainError, match="n=True"):
        ChainRuleInstance(n=True, totals=(0.0, 1.0))
    with pytest.raises(DomainError, match="n=True"):
        SetFunction(n=True, values=(0.0, 1.0))


def test_boolean_masks_are_refused():
    # a bool is an int to isinstance, but no subset mask, as n=True is no count
    inst = ChainRuleInstance(n=2, totals=(0.0, 1.0, 1.0, 2.0))
    fn = SetFunction(n=2, values=(0.0, 1.0, 2.0, 3.0))
    for call, what in [
        (lambda: fn(True), "set-function mask True"),
        (lambda: interaction(inst, (True,), 0), "interaction mask True"),
        (lambda: interaction(inst, (1,), False), "conditioning mask False"),
        (lambda: interaction_incl_excl(inst, (1, False)), "interaction mask False"),
        (lambda: hu_region((True,), 0, 2), "interaction mask True"),
        (lambda: circle_region(True, 2), "element mask True"),
        (lambda: atom_measure(inst, True), "atom mask True"),
        (lambda: atom_interaction(inst, True), "atom mask True"),
        (lambda: relative_instance(inst, (True,)), "fixed argument mask True"),
    ]:
        with pytest.raises(DomainError, match=rf"^{what} is a bool, not an int$"):
            call()
    assert interaction(inst, (1,), 0) == interaction(inst, (1,), int(False)) == 1.0


def test_masks_and_indices_follow_the_integer_rule():
    class NoWalk(int):  # fails at its first shift, so a walk over its bits cannot run on
        def __rshift__(self, other):
            raise AssertionError("mask walked before its sign was checked")

    inst = ChainRuleInstance(n=2, totals=(0.0, 1.0, 1.0, 2.0))
    # a negative mask has no finite bit set: refused, not walked without end
    for call in (lambda: indices_of(NoWalk(-1)), lambda: region_atoms(NoWalk(-1)),
                 lambda: region_measure(inst, NoWalk(-1))):
        with pytest.raises(DomainError, match=r"^mask -1 is not a nonnegative int$"):
            call()
    for bad in (-1, -6, True, 1.0, "1", None, np.int64(1)):
        with pytest.raises(DomainError, match=rf"^mask {re.escape(repr(bad))} is not a nonnegative int$"):
            indices_of(bad)
    with pytest.raises(DomainError, match=r"^mask -1 is not a nonnegative int$"):
        region_measure(inst, -1)
    for bad in ([True], [1, False], [2.0], [0]):
        with pytest.raises(DomainError, match="1-based positive ints"):
            mask_of(bad)
    for bad in (5, None, 1.0):  # a collection of indices, not one
        with pytest.raises(DomainError, match=rf"^generator indices must be a collection of 1-based ints, got {bad!r}$"):
            mask_of(bad)
    for mask, indices in ((0, ()), (1, (1,)), (0b1011, (1, 2, 4)), (1 << 70, (71,))):
        assert indices_of(mask) == indices
        assert mask_of(indices) == mask


def test_default_conditional_is_the_totals_difference():
    totals = (0.0, 0.5, 0.75, 1.0)
    inst = ChainRuleInstance(n=2, totals=totals)
    for y in range(4):
        for z in range(4):
            assert inst.k1c(y, z) == totals[y | z] - totals[z]
    assert inst.total(3) == 1.0


def test_verify_residual_scales_with_chain_noise():
    # an instance that honors the chain rule only up to delta still satisfies
    # every identity up to a small multiple of delta * 2**q_max
    rng = np.random.default_rng(260)
    base = random_r1(rng, 3)
    delta = 1e-6
    noise = {
        (y, z): float(rng.uniform(-delta, delta)) for y in range(8) for z in range(8)
    }
    noisy = ChainRuleInstance(n=3, totals=base.totals, k1=lambda y, z: base.k1(y, z) + noise[(y, z)])
    chain_gap, _ = check_chain_rule(noisy, tol=0.0)
    assert 0 < chain_gap <= 3 * delta
    report = verify_hu(noisy, q_max=3, tol=1e-9, check_chain=False)
    assert report.max_residual <= 8 * delta * 2**3


@pytest.mark.parametrize("n, q_max", [(4, 4), (5, 3)])
def test_a_chain_residual_of_delta_bounds_every_degree_q_gap_by_2_to_the_q_minus_1_delta(n, q_max):
    # the chain-rule certificate: a degree-q term is a signed sum of
    # 2**(q - 1) k1 values and its region measure the same sum of totals
    # differences, so a k1 within delta of them at every pair holds every
    # degree-q identity within 2**(q - 1) * delta, plus the roundoff of the sums
    rng = np.random.default_rng([28, n])
    size = 1 << n
    totals = rng.uniform(-1.0, 1.0, size) * 1e6
    totals[0] = 0.0
    scale = float(np.max(np.abs(totals)))
    delta = 1e-9 * scale
    noise = rng.uniform(-delta, delta, (size, size)).tolist()
    exact = ChainRuleInstance(n, totals.tolist())
    noisy = ChainRuleInstance(n, exact.totals, k1=lambda y, z: exact.k1(y, z) + noise[y][z])
    assert check_chain_rule(noisy, tol=0.0)[0] <= delta + 1e-12 * scale
    rows = verify_hu(noisy, q_max=q_max, check_chain=False).residuals
    for q in range(1, q_max + 1):
        assert rows.gap[rows.q == q].max() <= 2 ** (q - 1) * delta + 1e-12 * scale, q
    assert rows.gap[rows.q == 1].max() > 0.5 * delta  # the noise shows


def test_atom_values_deterministic_across_threads():
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(261)
    dist, gens = random_joint(rng, 3)
    serial = atom_table(shannon_instance(dist, gens))
    shared = shannon_instance(dist, gens)
    with ThreadPoolExecutor(max_workers=8) as pool:
        tables = list(pool.map(lambda _: atom_table(shared), range(16)))
    for table in tables:
        assert table == serial


# ---------------------------------------------------------------------------
# relative instances


def test_relative_identity_when_nothing_fixed():
    rng = np.random.default_rng(27)
    dist, gens = random_joint(rng, 3)
    inst = shannon_instance(dist, gens)
    rel = relative_instance(inst)
    for y in range(8):
        for z in range(8):
            assert rel.k1c(y, z) == inst.k1c(y, z)


def test_relative_higher_degree_equality():
    # fixed argument chosen as the largest mask so the recursion orders
    # genuinely differ between the two routes
    rng = np.random.default_rng(28)
    dist, gens = random_joint(rng, 4)
    inst = shannon_instance(dist, gens)
    y_fixed, z_fixed = 0b1000, 0b0100
    rel = relative_instance(inst, (y_fixed,), z_fixed)
    for v1 in range(16):
        for v2 in range(16):
            got = interaction(rel, (v1, v2), 0)
            want = interaction(inst, (y_fixed, v1, v2), z_fixed)
            assert got == pytest.approx(want, abs=1e-9)


def test_relative_instance_passes_verification():
    rng = np.random.default_rng(29)
    dist, gens = random_joint(rng, 3)
    inst = shannon_instance(dist, gens)
    report = verify_hu(relative_instance(inst, (0b100,), 0b010), q_max=2, tol=1e-9)
    assert report.passed


def test_relative_closing_decomposition():
    # with one fixed argument Y and conditioning Z, the overlap of X1X2 and
    # X1X3 still splits: term(Y; X1X2; X1X3 | Z) =
    #   term(Y; X1 | X3 Z) + term(Y; X1X2; X3 | Z)
    rng = np.random.default_rng(30)
    for _ in range(5):
        dist, gens = random_joint(rng, 4)
        inst = shannon_instance(dist, gens)
        y, z = 0b1000, 0
        x1, x2, x3 = 0b0001, 0b0010, 0b0100
        lhs = interaction(inst, (y, x1 | x2, x1 | x3), z)
        rhs = interaction(inst, (y, x1), x3 | z) + interaction(inst, (y, x1 | x2, x3), z)
        assert lhs == pytest.approx(rhs, abs=1e-9)


# ---------------------------------------------------------------------------
# action-form validation


def test_validate_action_form_passes_for_shannon():
    rng = np.random.default_rng(31)
    dist, gens = random_joint(rng, 3)
    inst = shannon_instance(dist, gens)
    assert validate_action_form(inst, tol=1e-9) <= 1e-12


def test_validate_action_form_requires_the_form():
    rng = np.random.default_rng(32)
    with pytest.raises(DomainError, match="action form"):
        validate_action_form(random_r1(rng, 2))


def test_validate_action_form_catches_broken_action():
    # a "conditioning" that is not additive must be rejected
    rng = np.random.default_rng(33)
    dist, gens = random_joint(rng, 2)
    inst = shannon_instance(dist, gens)
    broken = ChainRuleInstance(
        n=inst.n,
        totals=inst.totals,
        k1=inst.k1,
        f1=inst.f1,
        action=lambda f, mask: InfoFunction(lambda p: inst.action(f, mask)(p) ** 2 if mask else f(p)),
        evaluate=inst.evaluate,
    )
    with pytest.raises(VerificationError):
        validate_action_form(broken, tol=1e-9)


# ---------------------------------------------------------------------------
# NaN gaps


def _nan_instance():
    """Three independent fair bits in bits (totals |K|), with one NaN conditional.

    ``k1`` is NaN only at (3, 4); every other term is exact.
    """
    points = tuple((b >> 2 & 1, b >> 1 & 1, b & 1) for b in range(8))
    dist, gens = empirical_from_rows(points)
    inst = shannon_instance(dist, gens, "bits")
    assert inst.totals == pytest.approx((0.0, 1.0, 1.0, 2.0, 1.0, 2.0, 2.0, 3.0))
    exact = inst.k1
    return dataclasses.replace(inst, k1=lambda y, z: math.nan if (y, z) == (3, 4) else exact(y, z))


def test_a_nan_gap_fails_every_gate():
    inst = _nan_instance()
    max_gap, violations = check_chain_rule(inst)
    assert math.isnan(max_gap)
    assert [(y, z) for y, z, _ in violations] == [(4, 3)]

    with pytest.raises(VerificationError, match="chain rule"):
        verify_hu(inst, q_max=3)
    report = verify_hu(inst, q_max=3, check_chain=False)
    nan_rows = [r for r in report.residuals if math.isnan(r.gap)]
    assert (len(report.residuals), len(nan_rows)) == (1312, 27)
    assert math.isnan(report.max_residual) and not report.passed
    worst = report.worst()
    assert worst[:3] == nan_rows[0][:3] and math.isnan(worst.gap)

    with pytest.raises(VerificationError, match="two-argument form vs action"):
        validate_action_form(inst, samples=500)

    # the oracle reads only the totals: a NaN total fails its residual check
    with pytest.raises(VerificationError, match="residual nan"):
        mobius_oracle(ChainRuleInstance(n=2, totals=(0.0, 1.0, math.nan, 2.0)))

    # the bound scales with the finite totals only: an infinite total widens
    # no bound, so its infinite gap against a finite conditional fails
    infinite = ChainRuleInstance(n=1, totals=(0.0, math.inf), k1=lambda y, z: 0.0)
    assert (0, 1, math.inf) in check_chain_rule(infinite)[1]

    # finite gaps keep the largest gap and, among tied rows, the first
    clean = verify_hu(ChainRuleInstance(n=3, totals=inst.totals), q_max=3)
    gaps = [r.gap for r in clean.residuals]
    assert gaps.count(max(gaps)) > 1
    assert clean.max_residual == max(gaps)
    assert clean.worst() == clean.residuals[gaps.index(max(gaps))]


def test_a_replaced_instance_does_not_share_the_k1_memo():
    nan_inst = _nan_instance()
    with pytest.raises(VerificationError, match="chain rule"):
        verify_hu(nan_inst, q_max=3)  # memoizes every k1 value, the NaN at (3, 4) too
    clean = dataclasses.replace(nan_inst, k1=None)
    assert verify_hu(clean, q_max=3).passed
