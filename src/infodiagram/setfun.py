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

from .core import ChainRuleInstance, DomainError, _check_n, indices_of
from .shannon import Dist, RandomVariable, _check_same_space, entropy, joint, joint_of

SUBMODULAR_MAX_N = 12
SUBMODULAR_TOL = 1e-12


@dataclass(frozen=True)
class SetFunction:
    """A real value for every subset of {1..n}, indexed by bitmask."""

    n: int
    values: tuple

    def __post_init__(self):
        _check_n(self.n)
        vals = tuple(float(v) for v in self.values)
        if len(vals) != 1 << self.n:
            raise DomainError(f"need {1 << self.n} values for n={self.n}, got {len(vals)}")
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("set-function values must be finite")
        object.__setattr__(self, "values", vals)

    def __call__(self, mask: int) -> float:
        if mask < 0 or mask >= (1 << self.n):
            raise DomainError(f"mask {mask} is not a subset of 1..{self.n}")
        return self.values[mask]

    @classmethod
    def from_mapping(cls, n: int, mapping) -> "SetFunction":
        """Build from a mapping keyed by bitmask or by iterable of 1-based indices."""
        _check_n(n)  # before allocating 2**n slots
        values = [None] * (1 << n)
        for key, val in mapping.items():
            mask = key if isinstance(key, int) else sum(1 << (i - 1) for i in key)
            if mask < 0 or mask >= (1 << n):
                raise DomainError(f"subset key {key!r} is not a subset of 1..{n}")
            values[mask] = float(val)
        missing = [m for m, v in enumerate(values) if v is None]
        if missing:
            raise DomainError(f"set function is not total: missing subset {indices_of(missing[0])}")
        return cls(n=n, values=tuple(values))


def entropy_setfunction(p: Dist, gens, base: str = "nats") -> SetFunction:
    """The classical entropy set function ``R(A) = H(X_A; P)``."""
    gens = tuple(gens)
    n = len(gens)
    _check_n(n)
    for g in gens:
        _check_same_space(p, g)
    size = len(p)
    values = [entropy(p, joint_of(gens, mask, size), base) for mask in range(1 << n)]
    return SetFunction(n=n, values=tuple(values))


def r1_instance(r: SetFunction) -> ChainRuleInstance:
    """Chain-rule instance of an arbitrary set function: ``k1(a, b) = R(a|b) - R(b)``."""
    def k1(y_mask: int, z_mask: int) -> float:
        return r(y_mask | z_mask) - r(z_mask)

    return ChainRuleInstance(n=r.n, k1=k1, meta={"kind": "setfun"})


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
    size = 1 << r.n
    for a in range(size):
        for b in range(size):
            if (a & b) == a and r(a) > r(b) + tol:  # a subset of b
                return False, (a, b)
            if r(a) + r(b) < r(a | b) + r(a & b) - tol:
                return False, (a, b)
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
        _check_n(self.n)
        errs = tuple(float(e) for e in self.errors)
        if len(errs) != 1 << self.n:
            raise DomainError(f"need {1 << self.n} error values for n={self.n}, got {len(errs)}")
        if not all(math.isfinite(e) and e >= 0 for e in errs):
            raise DomainError("generalization errors must be finite and >= 0")
        object.__setattr__(self, "errors", errs)

    def __call__(self, mask: int) -> float:
        if mask < 0 or mask >= (1 << self.n):
            raise DomainError(f"mask {mask} is not a subset of 1..{self.n}")
        return self.errors[mask]

    def is_monotone(self, tol: float = SUBMODULAR_TOL):
        """Nonincreasing under feature-set inclusion (holds when larger
        feature sets keep access to all smaller-set hypotheses)."""
        size = 1 << self.n
        for a in range(size):
            for b in range(size):
                if (a & b) == a and self(b) > self(a) + tol:
                    return False, (a, b)
        return True, None


def advantage_instance(e: HypothesisEvaluator) -> ChainRuleInstance:
    """Advantage of feature access as a chain-rule instance.

    ``k1(a, b) = E(b) - E(a|b)``: what a perfect learner gains from the
    features in ``a`` when it already sees ``b``.  Degree-1 conditionals
    are >= 0 whenever ``e`` is monotone; the degree-2 term can still be
    negative (feature synergy).
    """
    def k1(y_mask: int, z_mask: int) -> float:
        return e(z_mask) - e(y_mask | z_mask)

    return ChainRuleInstance(n=e.n, k1=k1, meta={"kind": "advantage"})


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
        _check_same_space(p, g)
    _check_same_space(p, target)
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
