"""The verification sweep's residual columns: oracles, the sequence view, memory."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_joint, random_pair
from infodiagram import (
    ChainRuleInstance,
    DiagramReport,
    HypothesisEvaluator,
    Residual,
    SetFunction,
    advantage_instance,
    alpha_kl_instance,
    cross_entropy_instance,
    hu_region,
    indices_of,
    interaction,
    interaction_incl_excl,
    kl_instance,
    r1_instance,
    region_measure,
    shannon_instance,
    tsallis_instance,
    verify_hu,
)
from infodiagram import cli

FAMILIES = ("shannon", "tsallis", "kl", "alpha-kl", "cross-entropy", "setfun", "advantage")


def _instance(family, n, seed):
    rng = np.random.default_rng([seed, n, FAMILIES.index(family)])
    if family == "setfun":
        return r1_instance(SetFunction(n=n, values=tuple(rng.uniform(0.0, 1.0, 1 << n))))
    if family == "advantage":
        return advantage_instance(HypothesisEvaluator(n=n, errors=tuple(rng.uniform(0.0, 1.0, 1 << n))))
    dist, gens = random_joint(rng, n)
    pair = random_pair(rng, dist)
    return {
        "shannon": lambda: shannon_instance(dist, gens),
        "tsallis": lambda: tsallis_instance(dist, gens, 0.5),
        "kl": lambda: kl_instance(pair, gens),
        "alpha-kl": lambda: alpha_kl_instance(pair, gens, 2.0),
        "cross-entropy": lambda: cross_entropy_instance(pair, gens),
    }[family]()


def _reference_rows(inst, zeta, q_max, mode, samples=1000, seed=0):
    """The sweep as a loop of one ``Residual`` per check: ``interaction`` for
    the lhs and, for the rhs, the signed zeta lookups of every index subset
    of the L tuple, summed from 0.0 in binary order of the subsets."""
    size = 1 << inst.n
    full = size - 1

    def check(q, l_tuple, j):
        terms = [(False, 0)]
        for l in l_tuple:
            terms += [(not odd, union | l) for odd, union in terms]
        lhs = interaction(inst, l_tuple, j)
        rhs = 0.0
        for odd, union in terms:
            if odd:
                rhs -= zeta[full ^ (j | union)]
            else:
                rhs += zeta[full ^ (j | union)]
        return Residual(q, tuple(l_tuple), j, lhs, rhs, abs(lhs - rhs))

    if mode == "exhaustive":
        return [check(q, l_tuple, j) for q in range(1, q_max + 1)
                for l_tuple in combinations_with_replacement(range(size), q) for j in range(size)]
    rng = random.Random(seed)
    rows = []
    for _ in range(samples):
        q = rng.randint(1, q_max)
        l_tuple = tuple(sorted(rng.randrange(size) for _ in range(q)))
        j = rng.randrange(size)
        rows.append(check(q, l_tuple, j))
    return rows


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mode, n, q_max", [("exhaustive", 3, 3), ("exhaustive", 4, 2), ("sampled", 4, 4)])
def test_columnar_sweep_matches_the_per_check_loop_and_the_oracles(family, mode, n, q_max):
    inst = _instance(family, n, seed=31)
    report = verify_hu(inst, q_max=q_max, mode=mode, samples=300, seed=5)
    assert report.passed
    rows = list(report.residuals)
    # bit for bit, and as Python ints and floats (a numpy scalar's repr differs)
    assert [repr(r) for r in rows] == [repr(r) for r in _reference_rows(inst, report.zeta, q_max, mode, 300, 5)]
    regions = {}
    for r in rows:
        assert r.lhs == interaction(inst, r.l_masks, r.j_mask)
        assert r.lhs == pytest.approx(interaction_incl_excl(inst, r.l_masks, r.j_mask), rel=1e-9, abs=1e-9)
        region = hu_region(r.l_masks, r.j_mask, n)
        if region not in regions:
            regions[region] = region_measure(inst, region)
        assert r.rhs == pytest.approx(regions[region], rel=1e-9, abs=1e-9)
    if mode == "sampled":
        assert {r.q for r in rows} == set(range(1, q_max + 1))


@pytest.mark.parametrize("mode, n, q_max", [("exhaustive", 3, 3), ("exhaustive", 4, 3), ("sampled", 6, 4)])
def test_unit_totals_give_every_check_a_gap_of_exactly_zero(mode, n, q_max):
    # on a totals-difference instance, each check's lhs (the recursion) and
    # rhs (atom transform, zeta, region sum) are fixed integer forms in the
    # totals; on a unit vector e_k every value is a small integer, exact in
    # floating point, so a zero gap on every e_k proves the two forms equal
    for k in range(1, 1 << n):
        totals = [0.0] * (1 << n)
        totals[k] = 1.0
        report = verify_hu(ChainRuleInstance(n, totals), q_max=q_max, mode=mode, seed=k)
        assert report.residuals.gap.tolist() == [0.0] * len(report.residuals)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(n=st.sampled_from([2, 3, 4, 6]), k=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_roundoff_on_random_signed_totals_stays_within_the_scaled_tolerance(n, k, seed):
    # the identities are exact, so every gap is roundoff, which grows with the totals:
    # far under the default bound tol * max(1, max |F1|), at every magnitude
    totals = np.random.default_rng(seed).uniform(-1.0, 1.0, 1 << n) * 10.0 ** k
    totals[0] = 0.0
    scale = max(1.0, float(np.max(np.abs(totals))))
    report = verify_hu(ChainRuleInstance(n, totals.tolist()), q_max=3, seed=seed)
    assert report.mode == ("exhaustive" if n <= 4 else "sampled")
    assert report.passed
    assert max(report.max_residual, report.chain_residual) <= 1e-12 * scale


def _exact_routes(totals, n, q_max):
    """Each exhaustive check of ``verify_hu`` in exact arithmetic: its lhs by
    the recursion over ``k1(y | z) = F1(y OR z) - F1(z)``, its rhs by the atom
    transform, the zeta transform and the region sum, each with the sum of
    the absolute values of the totals it adds up, one per leaf of its tree of
    float operations.  Each float total is a ``Fraction`` whose denominator
    is a power of two, so the largest is a common denominator, and every
    value is an int over it."""
    fractions = [Fraction(t) for t in totals]
    den = max(f.denominator for f in fractions)
    t = [f.numerator * (den // f.denominator) for f in fractions]
    size, full = 1 << n, (1 << n) - 1

    def lhs(prefix, z):
        if len(prefix) == 1:
            return t[prefix[0] | z] - t[z], abs(t[prefix[0] | z]) + abs(t[z])
        (v, a), (w, b) = lhs(prefix[:-1], z), lhs(prefix[:-1], prefix[-1] | z)
        return v - w, a + b

    # atom_table's butterflies, then _subset_zeta's, each beside its |leaves| twin
    mu, mu_abs = [0] + t[1:], [0] + [abs(v) for v in t[1:]]
    for i in range(n):
        for s in range(size):
            if not s >> i & 1:
                mu[s] -= mu[s | 1 << i]
                mu_abs[s] += mu_abs[s | 1 << i]
    zeta, zeta_abs = [0] + [-mu[full ^ a] for a in range(1, size)], [0] + [mu_abs[full ^ a] for a in range(1, size)]
    for i in range(n):
        for s in range(size):
            if s >> i & 1:
                zeta[s] += zeta[s ^ 1 << i]
                zeta_abs[s] += zeta_abs[s ^ 1 << i]

    def rhs(l_tuple, j):
        terms = [(False, j)]
        for l in l_tuple:
            terms += [(not odd, union | l) for odd, union in terms]
        value = sum(-zeta[full ^ u] if odd else zeta[full ^ u] for odd, u in terms)
        return value, sum(zeta_abs[full ^ u] for _, u in terms)

    for q in range(1, q_max + 1):
        for l_tuple in combinations_with_replacement(range(size), q):
            for j in range(size):
                yield lhs(l_tuple, j), rhs(l_tuple, j), den


def _within_gamma(value: float, exact: int, den: int, ops: int, leaves: int) -> bool:
    """``|value - exact / den| <= gamma_ops * leaves / den``, decided in ints:
    ``gamma_m = m u / (1 - m u)`` with ``u = 2**-53`` bounds the relative
    error of a value that went through at most ``m`` roundings (Higham 2002,
    Lemma 3.1 and section 4.2).  ``den`` is a multiple of the float's own
    denominator, since a rounded sum of multiples of ``1 / den`` is one too."""
    num, fden = value.as_integer_ratio()
    assert den % fden == 0
    return abs(num * (den // fden) - exact) * (2 ** 53 - ops) <= ops * leaves


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(n=st.sampled_from([2, 3, 4]), k=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_each_float_route_is_within_its_rounding_bound_of_the_exact_value(n, k, seed):
    # a leaf of the lhs goes through q roundings (one difference, q - 1 levels
    # of the recursion); one of the rhs through n (atoms), n (zeta) and 2**q
    # (the region sum); the two exact routes are one value, as Hu's theorem says
    totals = np.random.default_rng(seed).uniform(-1.0, 1.0, 1 << n) * 10.0 ** k
    totals[0] = 0.0
    q_max = 3
    rows = verify_hu(ChainRuleInstance(n, totals.tolist()), q_max=q_max, mode="exhaustive").residuals
    for r, ((lhs, lhs_leaves), (rhs, rhs_leaves), den) in zip(rows, _exact_routes(totals.tolist(), n, q_max), strict=True):
        assert lhs == rhs
        assert _within_gamma(r.lhs, lhs, den, r.q, lhs_leaves), r
        assert _within_gamma(r.rhs, rhs, den, 2 * n + 2 ** r.q, rhs_leaves), r


def _write(doc, tmp_path, fmt):
    path = tmp_path / f"doc.{fmt}"
    cli._write_document(doc, argparse.Namespace(command="verify", fmt=fmt, out=str(path)))
    return path.read_text(encoding="utf-8")


def test_residual_view_is_a_sequence_whose_rows_reach_every_reader(tmp_path, monkeypatch):
    inst = _instance("setfun", 3, seed=7)
    report = verify_hu(inst, q_max=2)
    s = report.residuals
    rows = _reference_rows(inst, report.zeta, 2, "exhaustive")
    assert len(s) == len(rows) == (8 + 36) * 8
    assert list(s) == rows and s == rows and rows == s and s != rows[:-1]
    assert all(r == s[i] for i, r in enumerate(s))  # iterating yields the rows indexing gives
    assert s[0] == rows[0] and s[-1] == rows[-1] and s[5] == rows[5]
    assert s[5] == s[5] and s[-1] == s[len(s) - 1] and s[-len(s)] == s[0]
    assert s[3:9:2] == rows[3:9:2] and s[4:6][1] == s[5] and s[-2:] == rows[-2:]
    assert report == verify_hu(inst, q_max=2)
    fresh = verify_hu(inst, q_max=2).residuals
    fifth = fresh[5]
    assert list(fresh)[5] == fifth
    for bad in (len(s), -len(s) - 1):
        with pytest.raises(IndexError):
            s[bad]
    assert all(type(v) is int for v in (s[9].q, s[9].j_mask, *s[9].l_masks))
    assert all(type(v) is float for v in (s[9].lhs, s[9].rhs, s[9].gap))

    # a value written to the columns is what every reader sees
    s.lhs[17], s.rhs[17], s.gap[17] = 5.0, 1.0, 4.0
    s.q[-2], s.l[-2], s.j[-2] = 2, (5, 6), 7
    s.lhs[-2], s.rhs[-2], s.gap[-2] = 0.5, 0.25, 0.25
    assert s[17] == rows[17]._replace(lhs=5.0, rhs=1.0, gap=4.0)
    assert s[len(s) - 2] == (2, (5, 6), 7, 0.5, 0.25, 0.25)
    assert report.worst() == s[17]
    doc = {"metadata": {"n": 3}, "summary": {"checks": len(s)}, "residuals": s}
    written = json.loads(_write(doc, tmp_path, "json"))["residuals"]
    assert len(written) == len(s)
    assert written[17] == {"q": rows[17].q, "L": [list(indices_of(l)) for l in rows[17].l_masks],
                           "J": list(indices_of(rows[17].j_mask)), "lhs": 5.0, "rhs": 1.0, "gap": 4.0}
    assert written[-2] == {"q": 2, "L": [[1, 3], [2, 3]], "J": [1, 2, 3], "lhs": 0.5, "rhs": 0.25, "gap": 0.25}
    lines = _write(doc, tmp_path, "csv").splitlines()
    assert len(lines) == 1 + len(s)
    assert lines[1 + 17].endswith(",5.0,1.0,4.0")
    assert lines[-2] == '2,"1 3|2 3","1 2 3",0.5,0.25,0.25'

    # rows are read, not assigned
    with pytest.raises(TypeError):
        s[0] = s[0]

    # the chunking does not show in the bytes, a non-finite value included
    s.lhs[30] = s.gap[30] = math.inf
    whole = {fmt: _write(doc, tmp_path, fmt) for fmt in ("json", "csv")}
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
    assert {fmt: _write(doc, tmp_path, fmt) for fmt in ("json", "csv")} == whole
    assert '"lhs": Infinity' in whole["json"] and ",inf," in whole["csv"]


def test_worst_row_follows_the_gap_column():
    report = verify_hu(_instance("setfun", 3, seed=8), q_max=2)
    s = report.residuals
    assert report.max_residual == max(r.gap for r in s) and report.worst().gap == report.max_residual
    top = report.max_residual + 1.0
    for i in (40, 12, 90):  # ties: the first of the largest gaps
        s.gap[i] = top
    assert report.worst() == s[12]
    s.gap[200] = math.inf
    assert report.worst() == s[200]
    for i in (150, 60, 300):  # NaN beats every number, and the first NaN wins
        s.gap[i] = math.nan
    worst = report.worst()
    assert worst[:3] == s[60][:3] and math.isnan(worst.gap)
    assert report.passed  # max_residual is the gap the sweep found
    report.max_residual = math.nan
    assert not report.passed


def test_a_report_built_by_hand_keeps_the_list_api():
    rows = [Residual(1, (1,), 0, 0.5, 0.5, 0.0), Residual(2, (1, 2), 0, 1.0, 0.75, 0.25),
            Residual(1, (3,), 1, 0.0, 0.25, 0.25)]
    report = DiagramReport({1: 0.5}, rows, 0.25, 1e-9, "exhaustive")
    assert report.residuals is rows and report.max_residual == 0.25 and not report.passed
    assert report.worst() is rows[1]
    rows[2] = rows[2]._replace(gap=math.nan)
    assert report.worst() is rows[2]
    by_keyword = DiagramReport(atom_values={1: 0.5}, residuals=list(rows), max_residual=0.25,
                               tolerance=1e-9, mode="exhaustive")
    assert by_keyword == report
    relaxed = dataclasses.replace(report, tolerance=1.0)
    assert relaxed.passed and relaxed.max_residual == 0.25 and relaxed.residuals is rows


def test_the_sweep_holds_no_per_check_objects():
    # 209,408 checks; one Residual object per check took about 36 MB, and
    # whole-table index arrays, L and J copies and per-degree lhs and rhs
    # 4.5 MB over the columns: the sweep fills lhs and rhs a row block at a time
    inst = _instance("setfun", 5, seed=9)
    tracemalloc.start()
    try:
        report = verify_hu(inst, q_max=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    s = report.residuals
    columns = sum(column.nbytes for column in (s.q, s.l, s.j, s.lhs, s.rhs, s.gap))
    assert len(s) == 209_408 and columns == 6_072_832 and report.passed
    assert peak <= columns + 1_500_000, peak - columns
    # reading it keeps no row: a kept row per check took about 37 MB
    tracemalloc.start()
    try:
        report.worst()
        for _ in report.residuals:
            pass
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 100_000
    # nor does writing it: the write holds a chunk of row texts and one text
    # per distinct float (4,030 here), 4.3 MB traced for JSON, 2.3 MB for CSV
    doc = {"summary": cli._verification_summary(report), "residuals": report.residuals}
    for fmt in ("json", "csv"):
        tracemalloc.start()
        try:
            cli._write_document(doc, argparse.Namespace(out=os.devnull, fmt=fmt, command="verify"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000, fmt
