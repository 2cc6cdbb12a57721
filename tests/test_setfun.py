"""Set-function, submodularity, advantage and compressor instances."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from conftest import random_joint
from infodiagram import (
    DomainError,
    HypothesisEvaluator,
    SetFunction,
    advantage_instance,
    bayes_error_evaluator,
    compressor_setfunction,
    conditional_mutual,
    empirical_from_rows,
    entropy_setfunction,
    interaction,
    is_submodular,
    r1_instance,
    shannon_instance,
    verify_hu,
    zlib_compressor,
)


def random_setfunction(rng, n, dyadic=False):
    size = 1 << n
    if dyadic:
        return SetFunction(n=n, values=tuple(float(v) / 512.0 for v in rng.integers(0, 512, size)))
    return SetFunction(n=n, values=tuple(rng.uniform(0.0, 1.0, size)))


def monotone_errors(rng, n):
    """Random error table that only decreases as feature sets grow."""
    errors = [0.0] * (1 << n)
    order = sorted(range(1 << n), key=lambda m: -m.bit_count())
    for mask in order:
        floor = max(
            (errors[sup] for sup in range(1 << n) if sup != mask and (sup & mask) == mask),
            default=0.0,
        )
        errors[mask] = floor + float(rng.uniform(0.0, 1.0))
    return HypothesisEvaluator(n=n, errors=tuple(errors))


# ---------------------------------------------------------------------------
# SetFunction plumbing


def test_setfunction_validation(monkeypatch):
    with pytest.raises(DomainError, match="need 4 values"):
        SetFunction(n=2, values=(0.0, 1.0))
    # a non-number is a DomainError, and a None value is not a missing subset
    for bad in (None, "x"):
        with pytest.raises(DomainError, match=f"values must be real numbers, got {bad!r}"):
            SetFunction(n=1, values=(0.0, bad))
        with pytest.raises(DomainError, match=f"values must be real numbers, got {bad!r}"):
            SetFunction.from_mapping(1, {(): 0.0, (1,): bad})
        with pytest.raises(DomainError, match=f"error values must be real numbers, got {bad!r}"):
            HypothesisEvaluator(n=1, errors=(0.0, bad))
    with pytest.raises(DomainError, match="need 4 error values for n=2, got 2"):
        HypothesisEvaluator(n=2, errors=(0.0, 1.0))
    with pytest.raises(DomainError, match="not total"):
        SetFunction.from_mapping(2, {(): 0.0, (1,): 1.0, (2,): 1.0})
    fn = SetFunction.from_mapping(2, {(): 0.0, (1,): 1.0, (2,): 2.0, (1, 2): 3.0})
    assert fn(0b11) == 3.0
    with pytest.raises(DomainError):
        fn(0b100)
    # the cap is checked before 2**n slots are allocated, not after
    monkeypatch.setenv("INFODIAGRAM_MAX_N", "3")
    with pytest.raises(DomainError, match="cap"):
        SetFunction.from_mapping(4, {(): 0.0, (1,): 1.0})


@pytest.mark.parametrize("table, what", [
    (SetFunction(n=2, values=(0.0, 1.0, 2.0, 3.0)), "set-function"),
    (HypothesisEvaluator(n=2, errors=(0.0, 1.0, 2.0, 3.0)), "error-table"),
])
def test_lookups_use_the_engine_mask_rule(table, what):
    # the mask rule of core._check_element: a mask that is not an int, a
    # numpy integer included, is named by its type; one outside 1..n by its value
    for bad, kind in ((1.5, "float"), ("1", "str"), (None, "NoneType"), (np.int64(1), "int64")):
        with pytest.raises(DomainError, match=rf"^{what} mask {re.escape(repr(bad))} is a {kind}, not an int$"):
            table(bad)
    for bad in (4, -1):
        with pytest.raises(DomainError, match=rf"^{what} mask {bad} is not a subset of 1\.\.2$"):
            table(bad)
    assert [table(mask) for mask in range(4)] == [0.0, 1.0, 2.0, 3.0]


def test_from_mapping_rejects_bad_and_repeated_keys():
    # index 0 names no generator: a DomainError, not a bare negative-shift ValueError
    with pytest.raises(DomainError, match="1-based"):
        SetFunction.from_mapping(2, {(): 0.0, (0,): 1.0, (2,): 1.0, (1, 2): 2.0})
    # (1, 2) and (2, 1) are one subset; the second key is refused, not kept
    with pytest.raises(DomainError, match=r"duplicate subset key \(2, 1\)"):
        SetFunction.from_mapping(2, {(): 0.0, (1,): 1.0, (2,): 1.0, (1, 2): 2.0, (2, 1): 3.0})
    with pytest.raises(DomainError, match="duplicate subset key 3"):
        SetFunction.from_mapping(2, {(): 0.0, (1,): 1.0, (2,): 1.0, (1, 2): 2.0, 3: 3.0})
    # the checks and messages shared with the CLI's subset tables
    # an index far past n is refused without building its 2**index mask
    for key in (4, -1, (3,), (10 ** 8,)):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=rf"subset key {re.escape(repr(key))} is out of range 1\.\.2"):
                SetFunction.from_mapping(2, {(): 0.0, (1,): 1.0, (2,): 1.0, key: 2.0})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
    with pytest.raises(DomainError, match=r"^set function is not total; missing subset \[1, 2\]$"):
        SetFunction.from_mapping(2, {(): 0.0, (1,): 1.0, (2,): 1.0})
    # a key is an int mask or an iterable of 1-based indices: True is neither mask 1 nor index 1
    for key in (True, 1.0, None):
        with pytest.raises(DomainError, match=rf"^subset key {re.escape(repr(key))} is neither an int mask nor an iterable"):
            SetFunction.from_mapping(1, {0: 0.0, key: 1.0})
    for key in ((True,), (1.0,)):
        with pytest.raises(DomainError, match=rf"1-based positive ints, got {re.escape(repr(key[0]))}$"):
            SetFunction.from_mapping(1, {0: 0.0, key: 1.0})
    # a key is read in one pass: a bad index is refused before or after an index past n,
    # and a one-shot iterator is a key
    for key, bad in (((3, 0), "0"), ((0, 3), "0"), ((3, 1.5), "1.5")):
        with pytest.raises(DomainError, match=rf"1-based positive ints, got {re.escape(bad)}$"):
            SetFunction.from_mapping(2, {(): 0.0, (1,): 1.0, (2,): 1.0, key: 2.0})
    assert SetFunction.from_mapping(2, {(): 0.0, (1,): 1.0, (2,): 1.0, iter((2, 1)): 2.0}).values[3] == 2.0


# ---------------------------------------------------------------------------
# arbitrary-function instances


def test_r1_constant_function_gives_zero_interactions():
    fn = SetFunction(n=3, values=(4.2,) * 8)
    inst = r1_instance(fn)
    for l_masks, j in (((0b001,), 0), ((0b011, 0b101), 0b010), ((1, 2, 4), 0)):
        assert interaction(inst, l_masks, j) == 0.0


def test_r1_modular_function_no_pairwise_interaction():
    fn = SetFunction(n=3, values=tuple(float(m.bit_count()) for m in range(8)))
    inst = r1_instance(fn)
    # |{1}| + |{2}| - |{1,2}| - |{}| = 1 + 1 - 2 - 0
    assert interaction(inst, (0b001, 0b010), 0) == 0.0
    assert interaction(inst, (0b001, 0b100), 0b010) == 0.0


def test_r1_random_function_verifies_exactly():
    rng = np.random.default_rng(60)
    report = verify_hu(r1_instance(random_setfunction(rng, 4)), q_max=3, tol=1e-12)
    assert report.passed


# ---------------------------------------------------------------------------
# submodularity


def test_is_submodular_modular_and_entropy():
    modular = SetFunction(n=3, values=tuple(float(m.bit_count()) for m in range(8)))
    assert is_submodular(modular) == (True, None)

    rng = np.random.default_rng(61)
    dist, gens = random_joint(rng, 3)
    entropic = entropy_setfunction(dist, gens)
    assert is_submodular(entropic) == (True, None)
    assert entropic.values == shannon_instance(dist, gens).totals
    assert entropy_setfunction(dist, gens, "bits").values == shannon_instance(dist, gens, "bits").totals


def test_is_submodular_violation_witnesses():
    # R({1,2}) > R({1}) + R({2}) breaks submodularity at ({1}, {2})
    broken = SetFunction.from_mapping(2, {(): 0.0, (1,): 1.0, (2,): 1.0, (1, 2): 3.0})
    ok, witness = is_submodular(broken)
    assert not ok
    assert witness == (0b01, 0b10)

    unnormalized = SetFunction.from_mapping(1, {(): 0.5, (1,): 1.0})
    assert is_submodular(unnormalized) == (False, (0, 0))

    shrinking = SetFunction.from_mapping(2, {(): 0.0, (1,): 2.0, (2,): 1.0, (1, 2): 1.5})
    ok, witness = is_submodular(shrinking)
    assert not ok
    a, b = witness
    assert (a & b) == a  # a monotonicity witness is a nested pair


def _first_pair_by_double_loop(size, violated):
    for a in range(size):
        for b in range(size):
            if violated(a, b):
                return False, (a, b)
    return True, None


def test_lattice_scans_match_the_double_loop():
    # verdicts and witnesses of the exhaustive loop, near-modular functions included
    rng = np.random.default_rng(63)
    tol = 1e-12
    for _ in range(300):
        n = int(rng.integers(1, 6))
        size = 1 << n
        kind = rng.integers(3)
        if kind == 0:
            weights = rng.uniform(0.0, 1.0, n)
            v = [sum(weights[i] for i in range(n) if m >> i & 1) for m in range(size)]
            v = [x * (1.0 + 1e-13 * rng.standard_normal()) for x in v]
        elif kind == 1:
            v = rng.uniform(0.0, 1.0, size).tolist()
        else:
            v = np.sqrt(rng.uniform(0.0, 1.0, size).cumsum()).tolist()
        v[0] = 0.0
        r = SetFunction(n=n, values=tuple(v))
        rv = r.values
        assert is_submodular(r, tol) == _first_pair_by_double_loop(
            size,
            lambda a, b: ((a & b) == a and rv[a] > rv[b] + tol)
            or rv[a] + rv[b] < rv[a | b] + rv[a & b] - tol,
        )
        # complements reverse inclusion, so increasing values give monotone errors
        e = HypothesisEvaluator(n=n, errors=tuple(v[::-1]))
        ev = e.errors
        assert e.is_monotone(tol) == _first_pair_by_double_loop(
            size, lambda a, b: (a & b) == a and ev[b] > ev[a] + tol
        )


def test_is_submodular_cap(monkeypatch):
    monkeypatch.setenv("INFODIAGRAM_MAX_N", "13")
    big = SetFunction(n=13, values=(0.0,) * (1 << 13))
    with pytest.raises(DomainError, match="capped"):
        is_submodular(big)


# ---------------------------------------------------------------------------
# conditional mutual information of set functions


def test_conditional_mutual_matches_interaction_exactly():
    # dyadic values make both four-term association orders exact
    rng = np.random.default_rng(62)
    fn = random_setfunction(rng, 3, dyadic=True)
    inst = r1_instance(fn)
    for a in range(8):
        for b in range(8):
            for c in range(8):
                assert conditional_mutual(fn, a, b, c) == interaction(inst, (a, b), c)


def test_conditional_mutual_cancellations():
    rng = np.random.default_rng(63)
    fn = random_setfunction(rng, 3)
    # conditioning on one argument collapses the four terms pairwise
    for a in range(8):
        for b in range(8):
            assert conditional_mutual(fn, a, b, a) == pytest.approx(0.0, abs=1e-12)
    modular = SetFunction(n=3, values=tuple(float(m.bit_count()) for m in range(8)))
    assert conditional_mutual(modular, 0b001, 0b010, 0b100) == 0.0


def test_conditional_mutual_xor_entropy_setfunction(xor_joint):
    dist, gens = xor_joint
    fn = entropy_setfunction(dist, gens, "bits")
    assert conditional_mutual(fn, 0b001, 0b010, 0) == pytest.approx(0.0, abs=1e-12)
    assert conditional_mutual(fn, 0b001, 0b010, 0b100) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# generalization-error advantage


def test_advantage_constant_errors():
    ev = HypothesisEvaluator(n=2, errors=(0.3, 0.3, 0.3, 0.3))
    inst = advantage_instance(ev)
    for l_masks, j in (((0b01,), 0), ((0b01, 0b10), 0), ((1, 2), 2)):
        assert interaction(inst, l_masks, j) == 0.0


def test_advantage_xor_synergy():
    ev = HypothesisEvaluator(n=2, errors=(1.0, 1.0, 1.0, 0.0))
    inst = advantage_instance(ev)
    assert interaction(inst, (0b01, 0b10), 0) == -1.0


def test_advantage_monotone_errors_nonnegative_conditionals():
    rng = np.random.default_rng(64)
    for _ in range(10):
        ev = monotone_errors(rng, 3)
        assert ev.is_monotone() == (True, None)
        inst = advantage_instance(ev)
        for y in range(8):
            for z in range(8):
                assert inst.k1c(y, z) >= -1e-12


def test_advantage_degree_two_expansion():
    rng = np.random.default_rng(65)
    ev = HypothesisEvaluator(n=3, errors=tuple(rng.uniform(0.0, 2.0, 8)))
    inst = advantage_instance(ev)
    for a in range(8):
        for b in range(8):
            expansion = ev(0) - ev(a) - ev(b) + ev(a | b)
            assert interaction(inst, (a, b), 0) == pytest.approx(expansion, abs=1e-12)


def test_advantage_random_instance_verifies_exactly():
    rng = np.random.default_rng(66)
    ev = HypothesisEvaluator(n=4, errors=tuple(rng.uniform(0.0, 1.0, 16)))
    report = verify_hu(advantage_instance(ev), q_max=3, tol=1e-12)
    assert report.passed


def test_hypothesis_evaluator_rejects_negative_errors():
    with pytest.raises(DomainError):
        HypothesisEvaluator(n=1, errors=(0.5, -0.1))


# ---------------------------------------------------------------------------
# exact Bayes errors


def test_bayes_error_xor_table(xor_joint):
    dist, gens = xor_joint
    ev = bayes_error_evaluator(dist, gens[:2], gens[2], "bits")
    assert ev.errors == (1.0, 1.0, 1.0, 0.0)
    assert interaction(advantage_instance(ev), (0b01, 0b10), 0) == -1.0


def test_bayes_error_target_function_of_feature():
    rows = [(0, "a", 0), (0, "b", 0), (1, "a", 1), (1, "b", 1)]
    dist, gens = empirical_from_rows(rows)
    ev = bayes_error_evaluator(dist, gens[:2], gens[2], "bits")
    assert ev(0b01) == 0.0
    assert ev(0b11) == 0.0


def test_bayes_error_independent_target():
    rows = [(a, b, t) for a in (0, 1) for b in (0, 1) for t in (0, 1)]
    dist, gens = empirical_from_rows(rows)
    ev = bayes_error_evaluator(dist, gens[:2], gens[2], "bits")
    for mask in range(4):
        assert ev(mask) == pytest.approx(1.0, abs=1e-12)


def test_bayes_error_monotone_on_random_joints():
    rng = np.random.default_rng(67)
    for _ in range(10):
        dist, gens = random_joint(rng, 3)
        ev = bayes_error_evaluator(dist, gens[:2], gens[2])
        ok, _ = ev.is_monotone(tol=1e-12)
        assert ok


# ---------------------------------------------------------------------------
# compression-backed set functions


def test_compressor_deterministic_and_canonical():
    blobs = [b"alpha" * 40, b"alpha" * 40, b"gamma" * 40]
    r1 = compressor_setfunction(blobs)
    r2 = compressor_setfunction(blobs)
    assert r1.values == r2.values
    # identical blobs at different indices encode to identical bytes
    assert r1(0b001) == r1(0b010)
    assert r1(0b101) == r1(0b110)


def test_compressor_instance_verifies_exactly():
    rng = np.random.default_rng(68)
    blobs = [bytes(rng.integers(0, 256, 200, dtype=np.uint8)) for _ in range(3)]
    fn = compressor_setfunction(blobs)
    report = verify_hu(r1_instance(fn), q_max=3, tol=1e-12)
    assert report.passed


def test_compressor_failure_names_subset():
    def flaky(data: bytes) -> bytes:
        if len(data) > 50:  # single prefixed blobs are 38 bytes; the pair is 76
            raise OSError("backend down")
        return zlib_compressor(data)

    with pytest.raises(RuntimeError, match=r"subset \(1, 2\)"):
        compressor_setfunction([b"x" * 30, b"y" * 30], compressor=flaky)


def test_compressor_rejects_bad_input():
    with pytest.raises(DomainError):
        compressor_setfunction([])
    with pytest.raises(DomainError, match="blob 2"):
        compressor_setfunction([b"ok", "not bytes"])
