"""Independent output checker for benchmark jobs.

It recomputes the totals vector F1 from the generated input with numpy
alone and never imports infodiagram, so a defect in the program cannot
hide in the check.  Comparisons use a relative tolerance, not byte
equality, so transforms that reorder float sums still pass:

    |got - want| <= REL_TOL * max(1, |want|)
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import Job, expected_checks

REL_TOL = 1e-9


def _mask(indices) -> int:
    return sum(1 << (i - 1) for i in indices)


def _selector(n: int, radix: int) -> np.ndarray:
    """(n, 2**n) matrix whose column K turns a code row into the joint code of X_K."""
    masks = np.arange(1 << n)
    bits = (masks[None, :] >> np.arange(n)[:, None]) & 1
    return bits * radix ** np.arange(n)[:, None]


def _pushforwards(codes: np.ndarray, radix: int):
    """Pushforward mass vector of every joint X_K, indexed by K."""
    n = codes.shape[1]
    keys = codes @ _selector(n, radix)
    for k in range(1 << n):
        yield k, np.bincount(keys[:, k], minlength=radix ** n) / len(codes)


def reference_totals(job: Job, base: str | None = None) -> np.ndarray:
    """F1(X_K) for every mask K (index 0 is the empty joint, F1 = 0)."""
    ref = job.reference
    if job.instance == "setfun":
        return np.asarray(ref["values"], dtype=float)
    out = np.zeros(1 << job.n)
    if job.instance == "shannon":
        scale = 1.0 / math.log(2.0) if base == "bits" else 1.0
        for k, pm in _pushforwards(ref["codes"], ref["arity"]):
            pos = pm[pm > 0]
            out[k] = -(pos * np.log(pos)).sum() * scale
        return out
    alpha = ref["alpha"]
    for (k, pm), (_, qm) in zip(_pushforwards(ref["p_codes"], 2), _pushforwards(ref["q_codes"], 2)):
        pos = pm > 0
        out[k] = ((pm[pos] ** alpha * qm[pos] ** (1.0 - alpha)).sum() - 1.0) / (alpha - 1.0)
    return out


def union_sums(eta: np.ndarray, n: int) -> np.ndarray:
    """Sum of atom values over the circle union of every K (zeta transform).

    ``g[S]`` sums the atoms inside S, so the atoms meeting K are all atoms
    minus those inside the complement of K.
    """
    g = eta.copy()
    for i in range(n):
        view = g.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    full = (1 << n) - 1
    return g[full] - g[full ^ np.arange(1 << n)]


def _close(got, want) -> np.ndarray:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.abs(got - want) <= REL_TOL * np.maximum(1.0, np.abs(want))


def _first_miss(got, want, labels, what: str) -> list[str]:
    ok = _close(got, want)
    if ok.all():
        return []
    i = int(np.argmin(ok))
    return [f"{what}: {int((~ok).sum())} mismatch(es), first at {labels[i]}: "
            f"got {float(got[i])!r}, want {float(want[i])!r}"]


def check_document(job: Job, doc: dict) -> list[str]:
    """Problems found in one job's document; an empty list means it passed."""
    n, size = job.n, 1 << job.n
    want_checks = expected_checks(n)
    want = reference_totals(job, doc.get("metadata", {}).get("base"))
    if job.command == "diagram":
        summary = doc["verification"]
        problems = [] if summary["passed"] is True else ["verification.passed is not true"]
        if summary["checks"] != want_checks:
            problems.append(f"verification.checks is {summary['checks']}, want {want_checks}")
        totals = np.full(size, np.nan)
        totals[0] = 0.0
        for entry in doc["totals"]:
            totals[_mask(entry["K"])] = entry["f1"]
        eta = np.full(size, np.nan)
        eta[0] = 0.0
        for entry in doc["atoms"]:
            eta[_mask(entry["subset"])] = entry["eta"]
        if len(doc["totals"]) != size - 1 or len(doc["atoms"]) != size - 1 or np.isnan(totals).any() \
                or np.isnan(eta).any():
            return problems + [f"document does not list all {size - 1} totals and atoms"]
        masks = list(range(size))
        problems += _first_miss(totals[1:], want[1:], masks[1:], "totals f1 vs F1 of the input")
        problems += _first_miss(union_sums(eta, n)[1:], totals[1:], masks[1:], "atom zeta sums vs totals")
        return problems
    summary = doc["summary"]
    problems = [] if summary["passed"] is True else ["summary.passed is not true"]
    rows = doc["residuals"]
    if summary["checks"] != want_checks or len(rows) != want_checks:
        problems.append(f"{summary['checks']} checks and {len(rows)} residual rows, want {want_checks}")
    singles = [(_mask(r["L"][0]), _mask(r["J"]), r["lhs"]) for r in rows if r["q"] == 1]
    if len(singles) != size * size:
        problems.append(f"{len(singles)} q = 1 rows, want {size * size}")
    if singles:
        y, j, lhs = (np.array(col) for col in zip(*singles))
        labels = list(zip(y.tolist(), j.tolist()))
        problems += _first_miss(lhs, want[y | j] - want[j], labels, "q = 1 lhs vs F1(L|J) - F1(J)")
    return problems


def check_job(job: Job, exit_code: int) -> list[str]:
    """Check one finished job: its exit code, then its document."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        with open(job.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"document unreadable: {exc}"]
    try:
        return check_document(job, doc)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return [f"document malformed: {exc!r}"]
