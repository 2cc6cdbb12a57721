"""Deformed and two-distribution instances: Tsallis, KL, alpha-KL, cross-entropy.

Each function here satisfies a chain rule of the same shape as entropy's,
with its own averaged-conditioning action.  The instances differ only in
the value formula over pushforward masses and in the weight each label
of the conditioning variable gets:

* Tsallis alpha-entropy weights by ``P_X(x)**alpha`` and conditions P;
* KL divergence and cross-entropy weight by ``P_X(x)`` and condition both
  distributions of a pair;
* alpha-KL weights the pair by ``P_X(x)**alpha * Q_X(x)**(1 - alpha)``.

One builder, ``_action_instance``, makes all four: the totals are the
closed-form value of every joint, and the conditional ``k1`` is the
action-form average (Shannon's averaging loop with these weights), so the
chain-rule check and the verification sweep compare one route against
the other.  Every one of these chain rules forces
``k1(y | z) = F1(y or z) - F1(z)`` for every alpha; what fails for
alpha != 1 is the plain average with weights ``P_Z(z)``.
Tsallis and alpha-KL values use the base-free alpha-logarithm; their
alpha -> 1 limits are the natural-log Shannon entropy and KL divergence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ChainRuleInstance, DomainError
from .shannon import (
    Dist,
    InfoFunction,
    RandomVariable,
    _average,
    _lattice_totals,
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
        bad = np.flatnonzero((self.q.masses == 0.0) & (self.p.masses > 0.0))
        if bad.size:
            raise DomainError(
                f"absolute continuity violated at sample point {self.p.points[bad[0]]!r}: "
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


def _aligned_marginals(pair: DistPair, x: RandomVariable):
    pm = marginal(pair.p, x)
    qm = marginal(pair.q, x)
    # identical labels in identical order: both marginals walk x's labels
    return pm.masses, qm.masses, pm.points


def _pair_sum(pm, qm, term) -> float:
    """Sum of ``term(P_X(v), Q_X(v))`` over the labels ``v`` with ``P_X(v) > 0``."""
    total = 0.0
    for pv, qv in zip(pm, qm):
        if pv > 0.0:
            total += term(pv, qv)
    return total


def kl(pair: DistPair, x: RandomVariable, base: str = "nats") -> float:
    """KL divergence of the pushforwards, ``sum of P_X(x) * log(P_X(x) / Q_X(x))``."""
    scale = log_scale(base)
    pm, qm, _ = _aligned_marginals(pair, x)
    return _pair_sum(pm, qm, lambda pv, qv: pv * math.log(pv / qv)) * scale


def cross_entropy(pair: DistPair, x: RandomVariable, base: str = "nats") -> float:
    """Cross-entropy of the pushforwards, ``-sum of P_X(x) * log Q_X(x)``."""
    scale = log_scale(base)
    pm, qm, _ = _aligned_marginals(pair, x)
    return _pair_sum(pm, qm, lambda pv, qv: -pv * math.log(qv)) * scale


def alpha_kl(pair: DistPair, x: RandomVariable, alpha: float) -> float:
    """alpha-KL divergence ``(sum of P**alpha * Q**(1-alpha) - 1) / (alpha - 1)``."""
    alpha = _check_alpha(alpha)
    pm, qm, _ = _aligned_marginals(pair, x)
    if alpha < 0 and (np.any(pm < MIN_ALPHA_MASS) or np.any(qm < MIN_ALPHA_MASS)):
        raise DomainError(f"negative alpha requires strictly positive masses (>= {MIN_ALPHA_MASS})")
    total = _pair_sum(pm, qm, lambda pv, qv: pv ** alpha * qv ** (1.0 - alpha))
    return (total - 1.0) / (alpha - 1.0)


def _action_instance(ctx, gens, value_fn, weights_fn, condition_fn, meta) -> ChainRuleInstance:
    """A chain-rule instance whose ``k1`` is an averaged-conditioning action.

    ``ctx`` is a :class:`Dist` or a :class:`DistPair`; ``value_fn(ctx, x)``
    gives the totals, ``weights_fn(ctx, x)`` the labels of ``x`` and their
    conditioning weights, and ``condition_fn(ctx, x, v)`` conditions a
    context on ``x == v``.  ``k1(y, z)`` averages the values of ``y`` over
    the labels of ``z``, a route to the totals difference independent of it.
    """
    gens, totals = _lattice_totals(ctx, gens, lambda x: value_fn(ctx, x))
    size = len(ctx)
    var = functools.cache(lambda mask: joint_of(gens, mask, size))
    tag = "entropy" if isinstance(ctx, Dist) else "divergence"

    def act(x: RandomVariable, f, c) -> float:
        labels, weights = weights_fn(c, x)
        return _average(x, f, c, labels, weights, condition_fn)

    def k1(y_mask: int, z_mask: int) -> float:
        y = var(y_mask)
        return act(var(z_mask), lambda c: value_fn(c, y), ctx)

    return ChainRuleInstance(
        n=len(gens),
        totals=totals,
        k1=k1,
        f1=lambda mask: InfoFunction(lambda c: value_fn(c, var(mask)), tag),
        action=lambda f, mask: InfoFunction(lambda c: act(var(mask), f, c), "conditioned"),
        evaluate=lambda f: f(ctx),
        meta=meta,
    )


def tsallis_instance(p: Dist, gens, alpha: float) -> ChainRuleInstance:
    """Tsallis alpha-entropy as a chain-rule instance.

    The totals are the alpha-entropies of the joints; ``k1(y, z)``
    independently averages the conditional alpha-entropies with deformed
    weights ``P_Z(z)**alpha``.  This alpha-action satisfies the chain rule,
    so it equals the joint-minus-marginal difference ``F1(y or z) - F1(z)``;
    the plain ``P_Z(z)``-weighted average does not for alpha != 1.
    """
    alpha = _check_alpha(alpha)

    def weights(d: Dist, x: RandomVariable):
        pushed = marginal(d, x)
        return pushed.points, _powers(pushed.masses, alpha, "conditioning")

    return _action_instance(
        p, gens, value_fn=lambda d, x: tsallis_entropy(d, x, alpha),
        weights_fn=weights, condition_fn=condition, meta={"kind": "tsallis", "alpha": alpha},
    )


def _p_weights(pair: DistPair, x: RandomVariable):
    """Labels of ``x`` weighted by ``P_X``, the weights of the KL-type actions."""
    pushed = marginal(pair.p, x)
    return pushed.points, pushed.masses


def kl_instance(pair: DistPair, gens, base: str = "nats") -> ChainRuleInstance:
    """KL divergence as a chain-rule instance; conditions both distributions."""
    return _action_instance(
        pair, gens, value_fn=lambda pr, x: kl(pr, x, base),
        weights_fn=_p_weights, condition_fn=condition_pair, meta={"kind": "kl", "base": base},
    )


def cross_entropy_instance(pair: DistPair, gens, base: str = "nats") -> ChainRuleInstance:
    """Cross-entropy as a chain-rule instance; decomposes as entropy + KL."""
    return _action_instance(
        pair, gens, value_fn=lambda pr, x: cross_entropy(pr, x, base),
        weights_fn=_p_weights, condition_fn=condition_pair, meta={"kind": "cross-entropy", "base": base},
    )


def alpha_kl_instance(pair: DistPair, gens, alpha: float) -> ChainRuleInstance:
    """alpha-KL divergence as a chain-rule instance with deformed pair weights."""
    alpha = _check_alpha(alpha)

    def weights(pr: DistPair, x: RandomVariable):
        pm, qm, labels = _aligned_marginals(pr, x)
        if alpha < 0 and np.any(pm == 0.0):
            raise DomainError(f"negative alpha requires strictly positive masses (>= {MIN_ALPHA_MASS})")
        return labels, [pv ** alpha * qv ** (1.0 - alpha) if pv > 0.0 else 0.0
                        for pv, qv in zip(pm.tolist(), qm.tolist())]

    return _action_instance(
        pair, gens, value_fn=lambda pr, x: alpha_kl(pr, x, alpha),
        weights_fn=weights, condition_fn=condition_pair, meta={"kind": "alpha-kl", "alpha": alpha},
    )
