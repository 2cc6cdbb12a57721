"""Distribution machinery, entropy, the conditioning action, equivalence."""

from __future__ import annotations

import pickle
import tracemalloc
from collections import Counter
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_joint, random_pair, set_partitions, variable_from_partition
from infodiagram import (
    Dist,
    DistPair,
    DomainError,
    IngestionError,
    RandomVariable,
    act,
    alpha_kl_instance,
    condition,
    conditioned,
    constant_variable,
    empirical_from_rows,
    entropy,
    entropy_function,
    equivalent,
    interaction,
    joint,
    marginal,
    refines,
    shannon_instance,
    tsallis_instance,
)
from infodiagram.shannon import MASS_TOL, _apply, _codes, _dense, _entropy_value, _joint_codes, joint_of, log_scale

H_BERNOULLI_34_BITS = 0.8112781244591328  # -(3/4)log2(3/4) - (1/4)log2(1/4)


def random_variable(rng, size, arity=3):
    return RandomVariable(labels=tuple(int(v) for v in rng.integers(0, arity, size)))


def strictly_positive(rng, size, points=None):
    masses = rng.uniform(0.05, 1.0, size)
    return Dist(masses=masses / masses.sum(), points=points)


# ---------------------------------------------------------------------------
# distributions and variables


def test_dist_validation():
    # a refused array is named by the first check it fails: shape, finiteness, sign, sum
    for masses, message in [
        ([np.nan, 1.0], "masses must be finite"),
        ([np.inf, -np.inf], "masses must be finite"),
        ([1.5, -0.5], "masses must be nonnegative"),
        ([0.5, 0.6], "masses sum to 1.1, not 1 within 1e-12"),
        ([], "masses must be a nonempty 1-d array"),
        ([[0.5, 0.5]], "masses must be a nonempty 1-d array"),
    ]:
        with pytest.raises(DomainError) as caught:
            Dist(masses=np.array(masses))
        assert str(caught.value) == message, masses
    # a finite array whose sum overflows is refused by its sum, with numpy's warning
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(DomainError) as caught:
        Dist(masses=np.array([1e308, 1e308]))
    assert str(caught.value) == "masses sum to inf, not 1 within 1e-12"
    with pytest.raises(DomainError, match="^1 points for 2 masses$"):
        Dist(masses=np.array([0.5, 0.5]), points=("a",))
    # -0.0, a subnormal mass and a sum off 1 by less than the tolerance pass, bit for bit
    for masses in ([-0.0, 1.0], [5e-324, 1.0], [0.5, 0.5 + 2e-13]):
        assert Dist(masses=np.array(masses)).masses.tobytes() == np.array(masses).tobytes()


def test_pushforward_masses_pass_within_the_rounding_bound_of_their_sum():
    # the constant variable's one mass is the sequential sum of every mass:
    # over 100,000 equal masses it misses 1 by about 1.9e-12, outside
    # MASS_TOL but inside MASS_TOL + m * 2**-53, about 1.2e-11
    size = 100_000
    p = Dist(masses=np.full(size, 1.0 / size))
    pushed = marginal(p, constant_variable(size))
    assert MASS_TOL < abs(float(pushed.masses[0]) - 1.0) <= MASS_TOL + size * 2.0 ** -53
    assert pushed.points == ("*",)
    # a distribution the user gives keeps the plain tolerance
    for masses in (pushed.masses, np.array([0.5, 0.5 + 2e-12])):
        with pytest.raises(DomainError) as caught:
            Dist(masses=masses)
        assert str(caught.value) == f"masses sum to {float(masses.sum())!r}, not 1 within 1e-12"


def test_marginal_parity_and_injective():
    p = Dist(masses=np.full(4, 0.25))
    parity = RandomVariable(labels=(0, 1, 1, 0))
    pushed = marginal(p, parity)
    assert pushed.points == (0, 1)
    assert pushed.masses.tolist() == [0.5, 0.5]

    injective = RandomVariable(labels=("w", "x", "y", "z"))
    q = Dist(masses=np.array([0.1, 0.2, 0.3, 0.4]))
    assert marginal(q, injective).masses.tolist() == [0.1, 0.2, 0.3, 0.4]


def test_marginal_xor_component(xor_joint):
    dist, gens = xor_joint
    pushed = marginal(dist, gens[2])
    assert sorted(pushed.masses.tolist()) == [0.5, 0.5]


def test_condition_constant_and_zero_mass():
    p = Dist(masses=np.array([0.5, 0.5, 0.0]))
    const = constant_variable(3)
    conditioned_on_all = condition(p, const, "*")
    assert conditioned_on_all.masses.tolist() == p.masses.tolist()
    assert conditioned_on_all.points == p.points

    x = RandomVariable(labels=("a", "a", "b"))
    # "b" only carries zero mass: conditioning leaves p untouched
    assert condition(p, x, "b") is p
    with pytest.raises(DomainError):
        condition(p, x, "c")


def test_condition_renormalizes_block():
    p = Dist(masses=np.full(4, 0.25), points=("00", "01", "10", "11"))
    first_bit = RandomVariable(labels=(0, 0, 1, 1))
    cond = condition(p, first_bit, 0)
    assert cond.masses.tolist() == [0.5, 0.5, 0.0, 0.0]
    assert cond.points == p.points


def test_entropy_values():
    p = Dist(masses=np.full(4, 0.25))
    labels = RandomVariable(labels=("a", "b", "c", "d"))
    assert entropy(p, labels, "bits") == pytest.approx(2.0, abs=1e-15)
    assert entropy(p, constant_variable(4), "bits") == 0.0

    bern = Dist(masses=np.array([0.75, 0.25]))
    ident = RandomVariable(labels=(0, 1))
    assert entropy(bern, ident, "bits") == pytest.approx(H_BERNOULLI_34_BITS, abs=1e-15)
    with pytest.raises(DomainError, match="base"):
        entropy(bern, ident, "trits")


def test_act_examples(xor_joint):
    rng = np.random.default_rng(0)
    p = strictly_positive(rng, 6)
    x = random_variable(rng, 6)
    f = entropy_function(x, "nats")
    # the trivial variable acts trivially
    assert act(constant_variable(6), f, p) == pytest.approx(f(p), abs=1e-15)
    # conditioning a variable on itself leaves no uncertainty
    assert act(x, f, p) == pytest.approx(0.0, abs=1e-12)

    dist, gens = xor_joint
    hx = entropy_function(gens[0], "bits")
    assert act(gens[2], hx, dist) == pytest.approx(1.0, abs=1e-15)


def test_joint_and_equivalence_laws():
    rng = np.random.default_rng(1)
    x = random_variable(rng, 5)
    y = random_variable(rng, 5)
    assert equivalent(joint(x, constant_variable(5)), x)
    assert equivalent(joint(x, x), x)
    assert equivalent(joint(x, y), joint(y, x))

    def selected(a, b):
        return joint_of([a, b], 0b11, len(a))

    for check in (joint, selected, equivalent, refines):  # one size check, one message
        with pytest.raises(DomainError, match=r"^sample-space size mismatch: 5 vs 4$"):
            check(x, random_variable(rng, 4))


def test_equivalent_examples():
    x = RandomVariable(labels=(0, 0, 1, 1))
    relabeled = RandomVariable(labels=("down", "down", "up", "up"))
    parity = RandomVariable(labels=(0, 1, 1, 0))
    assert equivalent(x, relabeled)
    assert not equivalent(x, parity)


def test_refines_examples():
    first_bit = RandomVariable(labels=(0, 0, 1, 1))
    parity = RandomVariable(labels=(0, 1, 1, 0))
    both = joint(first_bit, parity)
    assert refines(first_bit, constant_variable(4))
    assert refines(both, first_bit)
    assert not refines(first_bit, parity)
    assert not refines(parity, first_bit)


# ---------------------------------------------------------------------------
# chain rule, action axioms, equivalence interplay


def test_chain_rule_on_random_triples():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(2, 9))
        p = strictly_positive(rng, size)
        x = random_variable(rng, size)
        y = random_variable(rng, size)
        lhs = entropy(p, joint(x, y))
        rhs = entropy(p, x) + act(x, entropy_function(y), p)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12


def test_action_axioms_sampled():
    rng = np.random.default_rng(3)
    for _ in range(25):
        size = int(rng.integers(2, 8))
        p = strictly_positive(rng, size)
        x = random_variable(rng, size)
        y = random_variable(rng, size)
        f = entropy_function(random_variable(rng, size))
        g = entropy_function(random_variable(rng, size))
        assert act(constant_variable(size), f, p) == pytest.approx(f(p), abs=1e-13)
        assert act(x, conditioned(y, f), p) == pytest.approx(act(joint(x, y), f, p), abs=1e-12)
        assert act(x, f + g, p) == pytest.approx(act(x, f, p) + act(x, g, p), abs=1e-12)


def test_entropy_monotone_under_refinement():
    rng = np.random.default_rng(4)
    for _ in range(50):
        size = int(rng.integers(2, 9))
        p = strictly_positive(rng, size)
        x = random_variable(rng, size, arity=4)
        # y = f(x): collapse x's labels through a random map
        table = {lab: int(rng.integers(0, 2)) for lab in set(x.labels)}
        y = RandomVariable(labels=tuple(table[lab] for lab in x.labels))
        assert refines(x, y)
        assert entropy(p, y) <= entropy(p, x) + 1e-12


def test_zero_conditional_iff_function_of():
    # on a strictly positive 4-point space, X.H(Y) vanishes exactly when
    # Y is a function of X; checked over all 15 x 15 partition pairs
    rng = np.random.default_rng(5)
    p = strictly_positive(rng, 4)
    parts = set_partitions(range(4))
    assert len(parts) == 15
    variables = [variable_from_partition(cells, 4) for cells in parts]
    for x in variables:
        for y in variables:
            value = act(x, entropy_function(y), p)
            if refines(x, y):
                assert abs(value) <= 1e-12
            else:
                assert value > 1e-12


def test_equivalence_preserves_entropy_and_action():
    rng = np.random.default_rng(6)
    for _ in range(20):
        size = int(rng.integers(2, 8))
        p = strictly_positive(rng, size)
        x = random_variable(rng, size)
        relabel = {lab: f"<{lab}>" for lab in set(x.labels)}
        x2 = RandomVariable(labels=tuple(relabel[lab] for lab in x.labels))
        assert equivalent(x, x2)
        assert entropy(p, x) == pytest.approx(entropy(p, x2), abs=1e-13)
        f = entropy_function(random_variable(rng, size))
        assert act(x, f, p) == pytest.approx(act(x2, f, p), abs=1e-12)


def test_nonnegativity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dist, gens = random_joint(rng, 2)
        inst = shannon_instance(dist, gens)
        assert entropy(dist, gens[0]) >= 0.0
        assert interaction(inst, (0b01, 0b10), 0) >= -1e-12


# ---------------------------------------------------------------------------
# the instance and ingestion


def test_shannon_instance_small_cases(xor_joint):
    rows = [(a, b) for a in (0, 1) for b in (0, 1)]
    dist, gens = empirical_from_rows(rows)
    inst = shannon_instance(dist, gens, "bits")
    assert interaction(inst, (0b01,), 0) == entropy(dist, gens[0], "bits")
    assert interaction(inst, (0b01, 0b10), 0) == pytest.approx(0.0, abs=1e-12)

    copied = empirical_from_rows([(0, 0), (1, 1)])
    inst_eq = shannon_instance(*copied, "bits")
    assert interaction(inst_eq, (0b01, 0b10), 0) == pytest.approx(1.0, abs=1e-15)

    dist, gens = xor_joint
    inst_xor = shannon_instance(dist, gens, "bits")
    assert interaction(inst_xor, (1, 2, 4), 0) == pytest.approx(-1.0, abs=1e-12)


def _direct_entropy(p, x, base):
    """Shannon entropy by its own expression, apart from the family builder."""
    m = marginal(p, x).masses
    pos = m[m > 0]
    return float(-(pos * np.log(pos)).sum() * log_scale(base))


def _spaces_with_zero_masses(seed, count, n):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        size = int(rng.integers(1, 40))
        masses = rng.uniform(0.0, 1.0, size)
        masses[rng.random(size) < 0.3] = 0.0
        masses[int(rng.integers(size))] = 1.0
        p = Dist(masses=masses / masses.sum())
        gens = [random_variable(rng, size, int(rng.integers(1, 5))) for _ in range(n)]
        yield p, gens


def test_entropy_matches_its_direct_expression_with_zero_masses():
    for p, gens in _spaces_with_zero_masses(20262, 80, 3):
        for x in gens + [joint(gens[0], gens[1]), constant_variable(len(p))]:
            for base in ("nats", "bits"):
                value = entropy(p, x, base)
                assert type(value) is float
                assert value == _direct_entropy(p, x, base)


def test_shannon_instance_matches_a_direct_construction_bit_for_bit():
    # joint entropies for totals, the totals difference for k1, and
    # entropy_function and conditioned for the action form
    for p, gens in _spaces_with_zero_masses(20263, 25, 3):
        size = len(p)
        var = [joint_of(gens, mask, size) for mask in range(8)]
        for base in ("nats", "bits"):
            inst = shannon_instance(p, gens, base)
            values = [_direct_entropy(p, x, base) for x in var]
            assert list(inst.totals) == [v - values[0] for v in values]
            assert inst.meta == {"kind": "shannon", "base": base}
            for y in range(8):
                assert inst.evaluate(inst.f1(y)) == entropy_function(var[y], base)(p) == values[y]
                for z in range(8):
                    assert inst.k1(y, z) == inst.totals[y | z] - inst.totals[z]
                    acted = inst.evaluate(inst.action(inst.f1(y), z))
                    assert acted == conditioned(var[z], entropy_function(var[y], base))(p)
                    assert acted == conditioned(var[z], lambda q, x=var[y]: _direct_entropy(q, x, base))(p)


def test_marginal_matches_dict_accumulation_bit_for_bit():
    # an independent route: one dict, masses added in sample order
    rng = np.random.default_rng(20260)
    for _ in range(60):
        size = int(rng.integers(1, 3001))
        masses = rng.uniform(0.0, 1.0, size)
        masses[rng.random(size) < 0.3] = 0.0
        masses[int(rng.integers(size))] = 1.0
        p = Dist(masses=masses / masses.sum())
        arity = int(rng.integers(1, size + 1))
        x = RandomVariable(labels=tuple(("v", int(v)) for v in rng.integers(0, arity, size)))
        expected = {}
        for label, mass in zip(x.labels, p.masses.tolist()):
            expected[label] = expected.get(label, 0.0) + mass
        pushed = marginal(p, x)
        assert pushed.points == tuple(expected)
        assert pushed.masses.tolist() == list(expected.values())


def test_each_variable_is_coded_once(monkeypatch):
    rng = np.random.default_rng(20261)
    dist, gens = empirical_from_rows([tuple(row) for row in rng.integers(0, 3, size=(60, 3)).tolist()])
    inst = tsallis_instance(dist, gens, 0.7)
    coded = []

    def counting(coder):
        def wrapper(*args):
            coded.append(args[0])
            return coder(*args)
        return wrapper

    # a joint is coded by _joint_codes, any other variable by _codes
    monkeypatch.setattr("infodiagram.shannon._codes", counting(_codes))
    monkeypatch.setattr("infodiagram.shannon._joint_codes", counting(_joint_codes))
    first = inst.k1(0b010, 0b100)
    assert 0 < len(coded) <= 2  # the two variables the call touches
    del coded[:]
    assert inst.k1(0b010, 0b100) == first
    assert coded == []


def _label_draw(rng, kind, arity, size):
    raw = rng.integers(0, arity, size).tolist()
    if kind == "int":
        return tuple(raw)
    if kind == "str":
        return tuple(f"v{v}" for v in raw)
    if kind == "one":  # 1, True and 1.0 are one dict key
        return tuple((1, True, 1.0, 0, 2.5)[v % 5] for v in raw)
    if kind == "nan":  # two NaN objects are two dict keys, each equal to itself
        return tuple((float("nan"), float("nan"), 0.0)[v % 3] for v in raw)
    return tuple((v % 2, f"t{v}") for v in raw)


def _assert_codes_like_dict(var):
    labels, codes = _codes(var.labels)
    got_labels, got_codes = var._coded
    assert got_codes.dtype == codes.dtype
    assert got_codes.tolist() == codes.tolist()
    assert len(got_labels) == len(labels)
    assert all(a is b for a, b in zip(got_labels, labels))  # the objects a dict keeps


def test_joint_codes_match_dict_codes_of_the_joint_labels():
    rng = np.random.default_rng(20264)
    kinds = ("int", "str", "tuple", "one", "nan")
    for n in range(1, 13):
        size = int(rng.integers(1, 60))
        gens = [RandomVariable(labels=_label_draw(rng, kinds[(n + i) % 5], int(rng.integers(1, 6)), size))
                for i in range(n)]
        for mask in range(1, 1 << n):
            _assert_codes_like_dict(joint_of(gens, mask, size))
        x = joint_of(gens, (1 << n) - 1, size)
        for y in gens:
            _assert_codes_like_dict(joint(x, y))
            _assert_codes_like_dict(joint(y, y))


def test_wide_joints_are_reranked_by_unique(monkeypatch):
    # 400 distinct labels per column: eight columns pass the int64 range of
    # a mixed-radix key
    rng = np.random.default_rng(20265)
    ranked = []

    def dense(key):
        ranked.append(int(key.max()))
        return _dense(key)

    monkeypatch.setattr("infodiagram.shannon._dense", dense)
    size = 400
    gens = [RandomVariable(labels=tuple(rng.permutation(size).tolist())) for _ in range(8)]
    gens.append(RandomVariable(labels=_label_draw(rng, "nan", 3, size)))
    for mask, passes in ((0b11, 1), (0b11111111, 2), (0b111111111, 2)):
        del ranked[:]
        _assert_codes_like_dict(joint_of(gens, mask, size))
        assert len(ranked) == passes
    # besides the final re-rank, the key re-ranks once, before the eighth
    # column would pass 2**63 - 1
    assert ranked[0] >= size ** 6


def test_joints_whose_span_fits_the_points_are_ranked_without_unique(monkeypatch):
    # a joint's key spans the product of its parts' label counts; a span up
    # to the point count is ranked on a table, one past it by _dense
    rng = np.random.default_rng(20270)
    ranked = []

    def dense(key):
        ranked.append(key.size)
        return _dense(key)

    def column(arity, size):  # every label present
        return RandomVariable(labels=tuple(rng.permutation(np.arange(size) % arity).tolist()))

    monkeypatch.setattr("infodiagram.shannon._dense", dense)
    gens = [column(3, 60) for _ in range(3)]
    for mask in range(1, 8):
        _assert_codes_like_dict(joint_of(gens, mask, 60))
    assert ranked == []
    for size, passes in ((12, 0), (11, 1)):  # a span of 3 * 4 = 12
        del ranked[:]
        _assert_codes_like_dict(joint_of([column(3, size), column(4, size)], 0b11, size))
        assert len(ranked) == passes


@settings(max_examples=150, deadline=None)
@given(
    size=st.integers(1, 200),
    columns=st.lists(st.tuples(st.sampled_from(("int", "str", "tuple", "one", "nan")), st.integers(1, 6)),
                     min_size=1, max_size=6),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_joint_codes_equal_dict_codes_of_random_columns(size, columns, seed):
    rng = np.random.default_rng(seed)
    parts = [RandomVariable(labels=_label_draw(rng, kind, arity, size)) for kind, arity in columns]
    (count, codes), firsts = _joint_codes(parts)
    values, expected = _codes(tuple(zip(*(x.labels for x in parts))))
    assert count == len(values)
    assert codes.dtype == firsts.dtype == expected.dtype
    assert codes.tolist() == expected.tolist()
    assert firsts.tolist() == _first_points(expected)


def test_joint_of_refuses_a_mask_or_size_its_generators_do_not_have():
    gens = [RandomVariable(labels=(0, 1, 1)), RandomVariable(labels=("a", "a", "b"))]
    for mask, size, message in (
        (0b100, 3, "joint mask 4 is not a subset of 1..2"),
        (-1, 3, "joint mask -1 is not a subset of 1..2"),
        (True, 3, "joint mask True is a bool, not an int"),
        (0, 7, "sample-space size mismatch: 7 vs 3"),
        (0b01, 7, "sample-space size mismatch: 7 vs 3"),
    ):
        with pytest.raises(DomainError, match=message):
            joint_of(gens, mask, size)
    assert joint_of(gens, 0, 3).labels == ("*",) * 3
    assert joint_of(gens, 0b01, 3).labels == ((0,), (1,), (1,))


def _eager_joint(parts, name=""):
    # a joint whose tuple labels are built first and coded by a dict
    var = RandomVariable(labels=tuple(zip(*(x.labels for x in parts))), name=name)
    object.__setattr__(var, "_coded", _codes(var.labels))
    return var


def _first_points(codes):
    first = {}
    for i, code in enumerate(codes.tolist()):
        first.setdefault(code, i)
    return list(first.values())


def test_lazy_joint_labels_pair_the_parts_labels():
    rng = np.random.default_rng(20269)
    size = 50
    gens = [RandomVariable(labels=_label_draw(rng, kind, 5, size)) for kind in ("int", "str", "tuple", "one", "nan")]
    dist = Dist(masses=np.full(size, 1.0 / size))
    for mask in range(1, 1 << len(gens)):
        x = joint_of(gens, mask, size)
        parts = [g for i, g in enumerate(gens) if mask >> i & 1]
        assert "_coded" not in vars(x) and "labels" not in vars(x)
        # the distinct labels, picked before the labels are built, are an
        # eager joint's and hold the parts' own objects
        values, eager = x.values(), _eager_joint(parts).values()
        assert values == eager
        assert all(a is b for got, want in zip(values, eager) for a, b in zip(got, want))
        assert marginal(dist, x).points is values
        assert "labels" not in vars(x)
        labels = x.labels
        assert labels == tuple(zip(*(g.labels for g in parts)))
        # each entry holds the parts' own objects: True stays True beside 1 and 1.0
        for k, g in enumerate(parts):
            assert all(label[k] is part for label, part in zip(labels, g.labels))
        values, codes = x._coded
        assert all(labels[i] is value for i, value in zip(_first_points(codes), values))
        assert x.labels is labels


def test_reading_a_joints_codes_leaves_its_labels_unbuilt():
    rng = np.random.default_rng(20270)
    dist, gens = empirical_from_rows([tuple(row) for row in rng.integers(0, 3, size=(40, 3)).tolist()])
    x = joint_of(gens, 0b011, len(dist))
    y = joint(gens[1], gens[0])
    assert len(x) == len(y) == len(dist)
    marginal(dist, x)
    _apply(_entropy_value, dist, x, 1.0)
    entropy(dist, y)
    assert equivalent(x, y) and refines(x, gens[0]) and not refines(gens[0], y)
    joint(x, y)
    # label counts and codes only: the distinct labels are not picked yet
    assert "_coded" not in vars(x) and "_coded" not in vars(y)
    condition(dist, x, x.values()[-1])
    assert "labels" not in vars(x) and "labels" not in vars(y)


def test_instances_build_no_joint_labels(monkeypatch):
    rng = np.random.default_rng(20271)
    dist, gens = empirical_from_rows([tuple(row) for row in rng.integers(0, 3, size=(60, 4)).tolist()])

    def refuse(self, attr):
        raise AssertionError(f"read {attr}")

    monkeypatch.setattr(RandomVariable, "__getattr__", refuse)
    shannon_instance(dist, gens)
    inst = tsallis_instance(dist, gens, 0.7)
    inst.k1(0b0011, 0b1100)
    inst.evaluate(inst.action(inst.f1(0b0101), 0b1010))


def test_instance_totals_pick_no_distinct_labels(monkeypatch):
    rng = np.random.default_rng(20274)
    dist, gens = empirical_from_rows([tuple(row) for row in rng.integers(0, 3, size=(60, 4)).tolist()])

    def refuse(parts, firsts):
        raise AssertionError("picked a joint's distinct labels")

    monkeypatch.setattr("infodiagram.shannon._joint_values", refuse)
    shannon = shannon_instance(dist, gens)
    tsallis = tsallis_instance(dist, gens, 0.7)
    monkeypatch.undo()
    # the action form conditions on the distinct labels, picked on first read
    y, z = 0b0011, 0b1100
    assert tsallis.k1(y, z) == pytest.approx(tsallis.totals[y | z] - tsallis.totals[z], abs=1e-12)
    assert shannon.totals == shannon_instance(dist, gens).totals


def test_joint_of_a_lazy_joint():
    rng = np.random.default_rng(20272)
    size = 40
    gens = [RandomVariable(labels=_label_draw(rng, kind, 4, size)) for kind in ("one", "nan", "str")]
    x = joint_of(gens, 0b011, size)
    xz = joint(x, gens[2])
    assert xz.values() == _eager_joint((x, gens[2])).values()
    assert xz.labels == tuple(zip(x.labels, gens[2].labels))
    _assert_codes_like_dict(xz)
    assert equivalent(xz, joint_of(gens, 0b111, size))
    assert joint(xz, x).labels == tuple(zip(xz.labels, x.labels))


def test_lazy_joint_repr_replace_and_pickle_match_an_eager_joint():
    rng = np.random.default_rng(20273)
    size = 30
    for kinds in (("int", "str"), ("one", "nan"), ("tuple", "one")):
        x, z = (RandomVariable(labels=_label_draw(rng, kind, 4, size), name=kind) for kind in kinds)
        lazy, eager = joint(x, z), _eager_joint((x, z), f"({x.name},{z.name})")
        assert repr(lazy) == repr(eager)
        assert pickle.dumps(lazy) == pickle.dumps(eager)
        back = pickle.loads(pickle.dumps(lazy))
        assert list(vars(back)) == ["labels", "name", "_coded"]
        assert repr(back) == repr(lazy)  # a NaN comes back as a new object, unequal to the old
        assert back._coded[1].tolist() == lazy._coded[1].tolist()
        assert all(back.labels[i] is v for i, v in zip(_first_points(back._coded[1]), back.values()))
        renamed = replace(lazy, name="w")
        assert type(renamed) is RandomVariable
        assert repr(renamed) == repr(replace(eager, name="w"))
        assert vars(renamed) == {"labels": lazy.labels, "name": "w"}


def test_lazy_pushforward_repr_replace_and_pickle_match_an_eager_one():
    rng = np.random.default_rng(20275)
    size = 30
    dist = strictly_positive(rng, size, points=tuple(f"s{i}" for i in range(size)))
    other = strictly_positive(rng, size, points=dist.points)
    for kinds in (("int", "str"), ("one", "nan"), ("tuple", "one")):
        x = joint(*(RandomVariable(labels=_label_draw(rng, kind, 4, size)) for kind in kinds))
        lazy = marginal(dist, x)
        assert type(lazy) is Dist and "points" not in vars(lazy)
        eager = Dist(masses=lazy.masses, points=x.values())
        assert pickle.dumps(lazy) == pickle.dumps(eager)
        assert repr(marginal(dist, x)) == repr(eager)
        masses = marginal(other, x).masses
        renamed = replace(marginal(dist, x), masses=masses)
        assert type(renamed) is Dist and repr(renamed) == repr(replace(eager, masses=masses))
        assert lazy.points is x.values()
        back = pickle.loads(pickle.dumps(marginal(dist, x)))
        assert type(back) is Dist and list(vars(back)) == ["masses", "points"]
        assert repr(back) == repr(eager)
        # a pair's points check and condition's points read a pushforward's
        DistPair(p=marginal(dist, x), q=marginal(other, x))
        with pytest.raises(DomainError, match="enumerate different sample points"):
            DistPair(p=marginal(dist, x), q=Dist(masses=marginal(other, x).masses))
        index = RandomVariable(labels=tuple(range(len(lazy))))
        assert condition(marginal(dist, x), index, 0).points is x.values()


@pytest.mark.parametrize("route", ["pickle", "deepcopy"])
def test_a_copied_dist_keeps_read_only_masses(route):
    copier = {"pickle": lambda d: pickle.loads(pickle.dumps(d)), "deepcopy": deepcopy}[route]
    rng = np.random.default_rng(20279)
    dist = strictly_positive(rng, 6, points=tuple(f"s{i}" for i in range(6)))
    x = RandomVariable(labels=(0, 0, 1, 1, 2, 2))
    for original in (dist, marginal(dist, x), condition(dist, x, 1)):
        back = copier(original)
        assert type(back) is Dist and back.points == original.points
        assert back.masses.tobytes() == original.masses.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            back.masses[0] = 7.0


def test_kept_joints_hold_codes_not_tuple_labels():
    # every joint of an 8-column, 932-point table, kept as the k1 memo keeps
    # them: their tuple labels alone take about 21 MB, their codes and
    # distinct labels about 6 MB, their codes and first points about 2.5 MB
    rng = np.random.default_rng(20268)
    dist, gens = empirical_from_rows([tuple(row) for row in rng.integers(0, 3, size=(1000, 8)).tolist()])
    tracemalloc.start()
    try:
        kept = [joint_of(gens, mask, len(dist)) for mask in range(1 << 8)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kept) == 256 and len(dist) == 932
    assert peak < 10_000_000


def test_joint_totals_equal_dict_coded_joints_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(20266)
    dist, gens = empirical_from_rows([tuple(row) for row in rng.integers(0, 3, size=(300, 6)).tolist()])
    pair = random_pair(rng, dist)
    builders = [
        lambda: shannon_instance(dist, gens, "bits"),
        lambda: tsallis_instance(dist, gens, 0.7),
        lambda: alpha_kl_instance(pair, gens, 0.5),
    ]
    fast = [build() for build in builders]
    # the oracle: dict coding of the joint's full tuple labels
    def dict_coded(parts):
        values, codes = _codes(tuple(zip(*(x.labels for x in parts))))
        return (len(values), codes), np.array(_first_points(codes), dtype=np.intp)

    monkeypatch.setattr("infodiagram.shannon._joint_codes", dict_coded)
    for inst, build in zip(fast, builders):
        slow = build()
        assert inst.totals == slow.totals
        for y, z in ((0b011, 0b100), (0b110, 0b001)):
            assert inst.k1c(y, z) == slow.k1c(y, z)
            assert inst.evaluate(inst.action(inst.f1(y), z)) == slow.evaluate(slow.action(slow.f1(y), z))


def test_instance_codes_only_generators_and_the_constant_with_codes(monkeypatch):
    rng = np.random.default_rng(20267)
    dist, gens = empirical_from_rows([tuple(row) for row in rng.integers(0, 3, size=(80, 5)).tolist()])
    coded = []

    def counting(keys, limit=None):
        coded.append(keys)
        return _codes(keys, limit)

    monkeypatch.setattr("infodiagram.shannon._codes", counting)
    shannon_instance(dist, gens)
    assert Counter(coded) == Counter([g.labels for g in gens] + [("*",) * len(dist)])


def test_coded_partition_matches_label_scans_bit_for_bit():
    # independent routes: a dict of masses, an equality scan per label and a
    # dict image, each walking the labels in sample order
    rng = np.random.default_rng(20262)
    kinds = ("int", "str", "tuple")
    for trial in range(80):
        size = int(rng.integers(1, 400))
        masses = rng.uniform(0.0, 1.0, size)
        masses[rng.random(size) < 0.3] = 0.0
        masses[int(rng.integers(size))] = 1.0
        p = Dist(masses=masses / masses.sum())
        x = RandomVariable(labels=_label_draw(rng, kinds[trial % 3], int(rng.integers(1, 12)), size))
        y = RandomVariable(labels=_label_draw(rng, kinds[(trial // 3) % 3], int(rng.integers(1, 12)), size))

        expected = {}
        for label, mass in zip(x.labels, p.masses.tolist()):
            expected[label] = expected.get(label, 0.0) + mass
        assert x.values() == tuple(expected)
        pushed = marginal(p, x)
        assert pushed.points == tuple(expected)
        assert pushed.masses.tolist() == list(expected.values())

        for value in expected:
            block = np.array([lab == value for lab in x.labels])
            px = float(p.masses[block].sum())
            got = condition(p, x, value)
            if px == 0.0:
                assert got is p
            else:
                # bit for bit, and a read-only distribution on the points of p
                assert got.masses.tobytes() == (np.where(block, p.masses, 0.0) / px).tobytes()
                assert not got.masses.flags.writeable and got.points is p.points
                for copy in (pickle.loads(pickle.dumps(got)), replace(got)):
                    assert type(copy) is Dist and copy.masses.tobytes() == got.masses.tobytes()
                    assert copy.points == p.points

        coarse = RandomVariable(labels=tuple(str(lab)[:2] for lab in x.labels))
        for a, b in ((x, y), (y, x), (x, coarse), (coarse, x), (x, x)):
            image, function = {}, True
            for la, lb in zip(a.labels, b.labels):
                if image.setdefault(la, lb) != lb:
                    function = False
                    break
            assert refines(a, b) is function
            assert equivalent(a, b) == (a.partition() == b.partition())


def test_condition_agrees_with_marginal_on_a_self_unequal_label():
    nan = float("nan")
    x = RandomVariable(labels=(nan, nan, 1.0, 1, True))
    p = Dist(masses=np.full(5, 0.2))
    assert marginal(p, x).masses[0] == 0.4
    assert condition(p, x, nan).masses.tolist() == [0.5, 0.5, 0.0, 0.0, 0.0]
    assert condition(p, x, 1).masses.tolist() == [0.0, 0.0, 1 / 3, 1 / 3, 1 / 3]
    assert refines(x, x)
    with pytest.raises(DomainError, match="is not a label"):
        condition(p, x, float("nan"))  # an equal-looking but distinct NaN object
    with pytest.raises(DomainError, match="is not a label"):
        condition(p, x, [1])  # unhashable, so no label's key
    # 1, True and 1.0 are one label; two distinct NaN objects are two
    distinct_nans = RandomVariable(labels=(float("nan"), float("nan"), 1.0, 1, True))
    for a, b, same in ((x, RandomVariable(labels=(0, 0, 1, 1, 1)), True), (x, distinct_nans, False),
                       (distinct_nans, RandomVariable(labels=(0, 1, 2, 2, 2)), True)):
        assert equivalent(a, b) == (a.partition() == b.partition())
        assert equivalent(a, b) is same


def test_sample_point_coding_stops_at_the_first_point_past_the_cap():
    def rows():
        yield from [(0,), (1,), (0,), (2,)]
        raise AssertionError("rows read past the first point beyond the cap")

    points, codes = _codes(rows(), limit=2)
    assert points == ((0,), (1,), (2,))
    assert codes.tolist() == [0, 1, 0]
    assert _codes(["b", "a", "b"])[1].tolist() == [0, 1, 0]


def test_empirical_from_rows_xor(xor_joint):
    dist, gens = xor_joint
    assert dist.masses.tolist() == [0.25, 0.25, 0.25, 0.25]
    assert len(gens) == 3
    assert dist.points == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_empirical_single_row_is_deterministic():
    dist, gens = empirical_from_rows([("a", "b")])
    assert dist.masses.tolist() == [1.0]
    for g in gens:
        assert entropy(dist, g) == 0.0


def test_empirical_duplicates_equal_weights():
    d1, _ = empirical_from_rows([(0, 1), (0, 1), (1, 0)])
    d2, _ = empirical_from_rows([(0, 1), (1, 0)], weights=[2.0, 1.0])
    assert d1.points == d2.points
    assert d1.masses.tolist() == d2.masses.tolist()


def test_empirical_errors_name_rows():
    with pytest.raises(IngestionError, match="row 1"):
        empirical_from_rows([(0, 1), (0,)])
    with pytest.raises(IngestionError, match="row 0"):
        empirical_from_rows([(0, 1)], weights=[float("nan")])
    with pytest.raises(IngestionError, match="row 1"):
        empirical_from_rows([(0, 1), (1, 1)], weights=[1.0, -2.0])
    with pytest.raises(IngestionError, match="positive"):
        empirical_from_rows([(0, 1)], weights=[0.0])
    with pytest.raises(IngestionError, match="no rows"):
        empirical_from_rows([])
