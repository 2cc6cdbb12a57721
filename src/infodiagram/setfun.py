"""Instances whose chain rule holds by construction: set functions and advantages.

Any function R on the subsets of {1..n} yields a chain-rule instance with
``R1(A | B) = R(A or B) - R(B)`` (the chain rule is then an algebraic
identity), and dually any error table E yields the "advantage"
``Ad(A | B) = E(B) - E(A or B)``, the drop in optimal generalization error
from gaining access to the features in A.  Degree-2 terms recover the
classical conditional mutual information of submodular set functions, and
for advantages they measure feature synergy (negative) or redundancy
(positive).

Also here: entropy and compression-backed set functions, and the exact
Bayes generalization-error table for a finite joint under log loss.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .core import ChainRuleInstance, DomainError, _check_element, _check_n, _check_vector, _is_int, _mask_within, indices_of
from .shannon import Dist, RandomVariable, _check_same_size, entropy, joint, joint_of, shannon_instance

SUBMODULAR_MAX_N = 12
SUBMODULAR_TOL = 1e-12


@dataclass(frozen=True)
class SetFunction:
    """A real value for every subset of {1..n}, indexed by bitmask."""

    n: int
    values: tuple

    def __post_init__(self):
        vals = _check_vector(self.n, self.values, "values")
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("set-function values must be finite")
        object.__setattr__(self, "values", vals)

    def __call__(self, mask: int) -> float:
        _check_element(mask, self.n, "set-function")
        return self.values[mask]

    @classmethod
    def from_mapping(cls, n: int, mapping) -> "SetFunction":
        """Build from a mapping keyed by bitmask or by iterable of 1-based indices."""
        _check_n(n)  # before the 2**n subsets are walked
        entries = ((key, _key_mask(key, n), val) for key, val in mapping.items())
        return cls(n=n, values=_subset_values(n, entries, "set function"))


def _key_mask(key, n: int) -> int:
    """The mask of an int mask or an iterable of 1-based indices, or -1, a
    mask the range check refuses, when an index lies past ``n``
    (:func:`core._mask_within`).  Any other key is a DomainError."""
    if _is_int(key):
        return key
    if not hasattr(key, "__iter__"):  # 1.0, None or True: refused by name, not by a bare TypeError
        raise DomainError(f"subset key {key!r} is neither an int mask nor an iterable of indices")
    return _mask_within(key, n)


def _subset_values(n: int, entries, what: str) -> tuple:
    """The values of a table keyed by subsets of 1..n, in mask order.

    ``entries`` yields ``(key, mask, value)``.  A mask outside the subsets
    of 1..n, a mask met twice or a missing subset is a DomainError naming
    the key, or naming the first missing subset of ``what``.
    """
    values = {}
    for key, mask, val in entries:
        if not 0 <= mask < 1 << n:
            raise DomainError(f"subset key {key!r} is out of range 1..{n}")
        if mask in values:
            raise DomainError(f"duplicate subset key {key!r}")
        values[mask] = val
    if len(values) < 1 << n:
        missing = next(m for m in range(1 << n) if m not in values)
        raise DomainError(f"{what} is not total; missing subset {list(indices_of(missing))}")
    return tuple(values[m] for m in range(1 << n))


def entropy_setfunction(p: Dist, gens, base: str = "nats") -> SetFunction:
    """The classical entropy set function ``R(A) = H(X_A; P)``."""
    inst = shannon_instance(p, gens, base)
    return SetFunction(n=inst.n, values=inst.totals)


def r1_instance(r: SetFunction) -> ChainRuleInstance:
    """Chain-rule instance of an arbitrary set function: totals ``R(K) - R(0)``,
    refused if one is out of floating-point range."""
    totals = [v - r.values[0] for v in r.values]
    if not all(map(math.isfinite, totals)):
        raise DomainError("set-function totals R(K) - R(0) out of floating-point range")
    return ChainRuleInstance(n=r.n, totals=totals, meta={"kind": "setfun"})


def is_submodular(r: SetFunction, tol: float = SUBMODULAR_TOL):
    """Check normalization, monotonicity and submodularity exhaustively.

    Returns ``(True, None)`` or ``(False, (a, b))`` with a violating pair:
    (0, 0) for a nonzero empty value, a subset pair for a monotonicity
    violation, and the offending (a, b) for a submodularity violation.
    """
    if r.n > SUBMODULAR_MAX_N:
        raise DomainError(f"exhaustive submodularity check capped at n={SUBMODULAR_MAX_N}")
    if abs(r(0)) > tol:
        return False, (0, 0)
    return _first_violation(
        r.values,
        lambda v, a, b: (((a & b) == a) & (v[a] > v[b] + tol))  # a subset of b
        | (v[a] + v[b] < v[a | b] + v[a & b] - tol),
    )


def _first_violation(values, violated):
    """``(True, None)``, or ``(False, (a, b))`` for the first violating pair.

    Pairs are taken in ascending ``a``, then ascending ``b``, the order of
    the exhaustive double loop.  ``violated(v, a, b)`` sees ``values`` as
    an array ``v``, one mask ``a`` and every mask ``b`` at once, so each
    ``a`` is one numpy pass; the scan is still O(4**n).
    """
    v = np.array(values)
    b = np.arange(v.size)
    for a in range(v.size):
        hits = np.flatnonzero(violated(v, a, b))
        if hits.size:
            return False, (a, int(hits[0]))
    return True, None


def conditional_mutual(r: SetFunction, a: int, b: int, c: int) -> float:
    """``I(a; b | c) = R(a|c) + R(b|c) - R(a|b|c) - R(c)``.

    Agrees exactly with the degree-2 interaction of :func:`r1_instance`.
    """
    return r(a | c) + r(b | c) - r(a | b | c) - r(c)


@dataclass(frozen=True)
class HypothesisEvaluator:
    """Optimal generalization error per feature subset, indexed by bitmask."""

    n: int
    errors: tuple

    def __post_init__(self):
        errs = _check_vector(self.n, self.errors, "error values")
        if not all(math.isfinite(e) and e >= 0 for e in errs):
            raise DomainError("generalization errors must be finite and >= 0")
        object.__setattr__(self, "errors", errs)

    def __call__(self, mask: int) -> float:
        _check_element(mask, self.n, "error-table")
        return self.errors[mask]

    def is_monotone(self, tol: float = SUBMODULAR_TOL):
        """Nonincreasing under feature-set inclusion (holds when larger
        feature sets keep access to all smaller-set hypotheses)."""
        return _first_violation(self.errors, lambda v, a, b: ((a & b) == a) & (v[b] > v[a] + tol))


def advantage_instance(e: HypothesisEvaluator) -> ChainRuleInstance:
    """Advantage of feature access as a chain-rule instance.

    The totals are ``E(0) - E(K)``, so ``k1(a, b) = E(b) - E(a|b)``: what a
    perfect learner gains from the features in ``a`` when it already sees
    ``b``.  Degree-1 conditionals are >= 0 whenever ``e`` is monotone; the
    degree-2 term can still be negative (feature synergy).
    """
    return ChainRuleInstance(n=e.n, totals=[e.errors[0] - v for v in e.errors], meta={"kind": "advantage"})


def bayes_error_evaluator(p: Dist, features, target: RandomVariable,
                          base: str = "nats") -> HypothesisEvaluator:
    """Exact Bayes generalization error under log loss for every feature subset.

    With an unrestricted hypothesis class and cross-entropy loss, the best
    predictor of the target from the features in A attains the conditional
    entropy ``E(A) = H(target | X_A; P)``.
    """
    features = tuple(features)
    n = len(features)
    _check_n(n)
    for g in features:
        _check_same_size(p, g)
    _check_same_size(p, target)
    size = len(p)

    def err(mask: int) -> float:
        feats = joint_of(features, mask, size)
        return entropy(p, joint(feats, target), base) - entropy(p, feats, base)

    return HypothesisEvaluator(n=n, errors=tuple(err(mask) for mask in range(1 << n)))


def zlib_compressor(data: bytes) -> bytes:
    """The pinned default compressor: zlib at level 9, deterministic."""
    return zlib.compress(data, 9)


def compressor_setfunction(blobs, compressor=zlib_compressor) -> SetFunction:
    """Compression-based information function over subsets of byte blobs.

    ``R(S)`` is the compressed length in bytes of the canonical encoding of
    the subset: blobs at the indices of S in ascending order, each with an
    8-byte big-endian length prefix, concatenated.  Canonical ordering plus
    prefixes make R well-defined (commutative and idempotent) on subsets.
    No claim is made that this approximates Kolmogorov complexity.
    """
    blobs = tuple(blobs)
    if not blobs:
        raise DomainError("need at least one blob")
    n = len(blobs)
    _check_n(n)
    for i, blob in enumerate(blobs):
        if not isinstance(blob, (bytes, bytearray)):
            raise DomainError(f"blob {i + 1} is not bytes")

    def encode(mask: int) -> bytes:
        parts = []
        for i in indices_of(mask):
            blob = bytes(blobs[i - 1])
            parts.append(struct.pack(">Q", len(blob)))
            parts.append(blob)
        return b"".join(parts)

    values = []
    for mask in range(1 << n):
        try:
            compressed = compressor(encode(mask))
        except Exception as exc:
            raise RuntimeError(f"compressor failed on subset {indices_of(mask)}: {exc}") from exc
        values.append(float(len(compressed)))
    return SetFunction(n=n, values=tuple(values))
