"""Deformed and two-distribution instances: Tsallis, KL, alpha-KL, cross-entropy.

Each function here satisfies a chain rule of the same shape as entropy's,
with its own averaged-conditioning action:

* Tsallis alpha-entropy conditions with weights ``P_X(x)**alpha``;
* KL divergence and cross-entropy condition both distributions of a pair
  and weight by ``P_X(x)``;
* alpha-KL conditions the pair with weights
  ``P_X(x)**alpha * Q_X(x)**(1 - alpha)``.

Every one of these chain rules forces ``k1(y | z) = F1(y or z) - F1(z)``:
the deformed conditional equals the joint-minus-marginal difference of the
totals for every alpha.  What fails for alpha != 1 is the plain average of
the conditional values with weights ``P_Z(z)``.  The conditional degree-1
terms are computed through the action form, which keeps an evaluation of
``k1`` independent of the totals for the verification sweep.
Tsallis and alpha-KL values use the base-free alpha-logarithm; their
alpha -> 1 limits are the natural-log Shannon entropy and KL divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChainRuleInstance, DomainError, _check_n
from .shannon import (
    Dist,
    InfoFunction,
    RandomVariable,
    _check_same_space,
    condition,
    joint_of,
    log_scale,
    marginal,
)

MIN_ALPHA_MASS = 1e-300


@dataclass(frozen=True, eq=False)
class DistPair:
    """Two distributions on the same sample space with P absolutely continuous w.r.t. Q."""

    p: Dist
    q: Dist

    def __post_init__(self):
        if len(self.p) != len(self.q):
            raise DomainError(f"sample-space size mismatch: {len(self.p)} vs {len(self.q)}")
        if self.p.points != self.q.points:
            raise DomainError("the two distributions enumerate different sample points")
        for i in range(len(self.p)):
            if self.q.masses[i] == 0.0 and self.p.masses[i] > 0.0:
                raise DomainError(
                    f"absolute continuity violated at sample point {self.p.points[i]!r}: "
                    "Q assigns 0 where P does not"
                )

    def __len__(self) -> int:
        return len(self.p)


def condition_pair(pair: DistPair, x: RandomVariable, value) -> DistPair:
    """Condition both distributions of a pair on the same event."""
    return DistPair(p=condition(pair.p, x, value), q=condition(pair.q, x, value))


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha!r}")
    if alpha == 1.0:
        raise DomainError("alpha = 1 is the undeformed limit; use the Shannon/KL functions")
    return alpha


def _powers(masses: np.ndarray, alpha: float, what: str) -> np.ndarray:
    """``masses**alpha`` with zeros contributing zero; alpha < 0 needs positivity."""
    if alpha < 0 and np.any(masses < MIN_ALPHA_MASS):
        raise DomainError(f"negative alpha requires strictly positive {what} masses (>= {MIN_ALPHA_MASS})")
    out = np.zeros_like(masses)
    pos = masses > 0
    out[pos] = masses[pos] ** alpha
    return out


def tsallis_entropy(p: Dist, x: RandomVariable, alpha: float) -> float:
    """Tsallis alpha-entropy ``(sum of P_X(x)**alpha - 1) / (1 - alpha)``."""
    alpha = _check_alpha(alpha)
    m = marginal(p, x).masses
    s = float(_powers(m, alpha, "pushforward").sum())
    return (s - 1.0) / (1.0 - alpha)


def tsallis_instance(p: Dist, gens, alpha: float) -> ChainRuleInstance:
    """Tsallis alpha-entropy as a chain-rule instance.

    ``k1(y, z)`` averages the conditional alpha-entropies with deformed
    weights ``P_Z(z)**alpha``.  This alpha-action satisfies the chain rule,
    so it equals the joint-minus-marginal difference ``F1(y or z) - F1(z)``;
    the plain ``P_Z(z)``-weighted average does not for alpha != 1.
    """
    alpha = _check_alpha(alpha)
    gens = tuple(gens)
    n = len(gens)
    _check_n(n)
    for g in gens:
        _check_same_space(p, g)
    size = len(p)

    joints: dict[int, RandomVariable] = {}

    def var(mask: int) -> RandomVariable:
        v = joints.get(mask)
        if v is None:
            v = joint_of(gens, mask, size)
            joints[mask] = v
        return v

    def act_alpha(x: RandomVariable, f, dist: Dist) -> float:
        pushed = marginal(dist, x)
        weights = _powers(pushed.masses, alpha, "conditioning")
        total = 0.0
        for value, w in zip(pushed.points, weights):
            if w == 0.0:
                continue
            total += float(w) * f(condition(dist, x, value))
        return total

    def k1(y_mask: int, z_mask: int) -> float:
        y = var(y_mask)
        return act_alpha(var(z_mask), lambda d: tsallis_entropy(d, y, alpha), p)

    return ChainRuleInstance(
        n=n,
        k1=k1,
        f1=lambda mask: InfoFunction(lambda d: tsallis_entropy(d, var(mask), alpha), "entropy"),
        action=lambda f, mask: InfoFunction(lambda d: act_alpha(var(mask), f, d), "conditioned"),
        evaluate=lambda f: f(p),
        meta={"kind": "tsallis", "alpha": alpha},
    )


def _aligned_marginals(pair: DistPair, x: RandomVariable):
    pm = marginal(pair.p, x)
    qm = marginal(pair.q, x)
    # identical labels in identical order: both marginals walk x's labels
    return pm.masses, qm.masses, pm.points


def kl(pair: DistPair, x: RandomVariable, base: str = "nats") -> float:
    """KL divergence of the pushforwards, ``sum of P_X(x) * log(P_X(x) / Q_X(x))``."""
    scale = log_scale(base)
    pm, qm, _ = _aligned_marginals(pair, x)
    total = 0.0
    for pv, qv in zip(pm, qm):
        if pv == 0.0:
            continue
        total += pv * math.log(pv / qv)
    return total * scale


def cross_entropy(pair: DistPair, x: RandomVariable, base: str = "nats") -> float:
    """Cross-entropy of the pushforwards, ``-sum of P_X(x) * log Q_X(x)``."""
    scale = log_scale(base)
    pm, qm, _ = _aligned_marginals(pair, x)
    total = 0.0
    for pv, qv in zip(pm, qm):
        if pv == 0.0:
            continue
        total -= pv * math.log(qv)
    return total * scale


def alpha_kl(pair: DistPair, x: RandomVariable, alpha: float) -> float:
    """alpha-KL divergence ``(sum of P**alpha * Q**(1-alpha) - 1) / (alpha - 1)``."""
    alpha = _check_alpha(alpha)
    pm, qm, _ = _aligned_marginals(pair, x)
    if alpha < 0 and (np.any(pm < MIN_ALPHA_MASS) or np.any(qm < MIN_ALPHA_MASS)):
        raise DomainError(f"negative alpha requires strictly positive masses (>= {MIN_ALPHA_MASS})")
    total = 0.0
    for pv, qv in zip(pm, qm):
        if pv == 0.0:
            continue
        total += pv ** alpha * qv ** (1.0 - alpha)
    return (total - 1.0) / (alpha - 1.0)


def _pair_instance(pair: DistPair, gens, value_fn, weight_fn, meta) -> ChainRuleInstance:
    """Shared scaffolding for the two-distribution instances.

    ``value_fn(pair, x)`` is the degree-1 value from the point of view of a
    variable; ``weight_fn(pv, qv)`` the conditioning weight of one value of
    the conditioning variable.
    """
    gens = tuple(gens)
    n = len(gens)
    _check_n(n)
    for g in gens:
        _check_same_space(pair.p, g)
    size = len(pair)

    joints: dict[int, RandomVariable] = {}

    def var(mask: int) -> RandomVariable:
        v = joints.get(mask)
        if v is None:
            v = joint_of(gens, mask, size)
            joints[mask] = v
        return v

    def act_pair(x: RandomVariable, f, pr: DistPair) -> float:
        pm, qm, values = _aligned_marginals(pr, x)
        total = 0.0
        for value, pv, qv in zip(values, pm, qm):
            w = weight_fn(float(pv), float(qv))
            if w == 0.0:
                continue
            total += w * f(condition_pair(pr, x, value))
        return total

    def k1(y_mask: int, z_mask: int) -> float:
        y = var(y_mask)
        return act_pair(var(z_mask), lambda pr: value_fn(pr, y), pair)

    return ChainRuleInstance(
        n=n,
        k1=k1,
        f1=lambda mask: InfoFunction(lambda pr: value_fn(pr, var(mask)), "divergence"),
        action=lambda f, mask: InfoFunction(lambda pr: act_pair(var(mask), f, pr), "conditioned"),
        evaluate=lambda f: f(pair),
        meta=meta,
    )


def kl_instance(pair: DistPair, gens, base: str = "nats") -> ChainRuleInstance:
    """KL divergence as a chain-rule instance; conditions both distributions."""
    return _pair_instance(
        pair,
        gens,
        value_fn=lambda pr, x: kl(pr, x, base),
        weight_fn=lambda pv, qv: pv,
        meta={"kind": "kl", "base": base},
    )


def cross_entropy_instance(pair: DistPair, gens, base: str = "nats") -> ChainRuleInstance:
    """Cross-entropy as a chain-rule instance; decomposes as entropy + KL."""
    return _pair_instance(
        pair,
        gens,
        value_fn=lambda pr, x: cross_entropy(pr, x, base),
        weight_fn=lambda pv, qv: pv,
        meta={"kind": "cross-entropy", "base": base},
    )


def alpha_kl_instance(pair: DistPair, gens, alpha: float) -> ChainRuleInstance:
    """alpha-KL divergence as a chain-rule instance with deformed pair weights."""
    alpha = _check_alpha(alpha)

    def weight(pv: float, qv: float) -> float:
        if pv == 0.0:
            if alpha < 0:
                raise DomainError(f"negative alpha requires strictly positive masses (>= {MIN_ALPHA_MASS})")
            return 0.0
        return pv ** alpha * qv ** (1.0 - alpha)

    return _pair_instance(
        pair,
        gens,
        value_fn=lambda pr, x: alpha_kl(pr, x, alpha),
        weight_fn=weight,
        meta={"kind": "alpha-kl", "alpha": alpha},
    )
