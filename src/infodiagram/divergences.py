"""Deformed and two-distribution instances: Tsallis, KL, alpha-KL, cross-entropy.

Each function here satisfies a chain rule of the same shape as entropy's,
with the action ``(X.F)(P) = sum over x of w(x) * F(P | X = x)``.  So a
family is a weight rule ``w`` and a value, both formulas over the
pushforward masses ``P_X`` (and ``Q_X`` for a pair).

* Tsallis alpha-entropy weights by ``P_X(x)**alpha`` and conditions P; its
  value is ``(sum of weights - 1) / (1 - alpha)``;
* KL divergence and cross-entropy weight by ``P_X(x)`` and condition both
  distributions of a pair;
* alpha-KL weights the pair by ``P_X(x)**alpha * Q_X(x)**(1 - alpha)``; its
  value is ``(sum of weights - 1) / (alpha - 1)``.

One builder, ``_action_instance``, makes all four: the totals are the
value of every joint, and the conditional ``k1`` is the action-form
average (Shannon's averaging loop with the family's weights), so the
chain-rule check and the verification sweep compare one route against
the other.  Every one of these chain rules forces
``k1(y | z) = F1(y or z) - F1(z)`` for every alpha; what fails for
alpha != 1 is the plain average with weights ``P_Z(z)``.  Tsallis and
alpha-KL values use the base-free alpha-logarithm; their alpha -> 1
limits are the natural-log Shannon entropy and KL divergence.  A weight
or value out of floating-point range is a :class:`DomainError`.
"""

from __future__ import annotations

import functools
import math
import operator
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


def _tsallis_weights(pm, qm, alpha):
    """``P_X(x)**alpha``, zero where ``P_X(x) = 0``; alpha < 0 needs positivity."""
    if alpha < 0 and np.any(pm < MIN_ALPHA_MASS):
        raise DomainError(f"negative alpha requires strictly positive pushforward masses (>= {MIN_ALPHA_MASS})")
    out = np.zeros_like(pm)
    pos = pm > 0
    out[pos] = pm[pos] ** alpha
    return out


def _tsallis_value(pm, qm, alpha):
    return (float(_tsallis_weights(pm, qm, alpha).sum()) - 1.0) / (1.0 - alpha)


def _kl_weights(pm, qm, scale):  # also cross-entropy's
    return pm


def _pair_terms(pm, qm, term):
    """``term(P_X(x), Q_X(x))`` per label, on Python floats; 0.0 where ``P_X(x) = 0``."""
    return [term(pv, qv) if pv > 0.0 else 0.0 for pv, qv in zip(pm.tolist(), qm.tolist())]


def _sum(terms) -> float:
    """Left-to-right sum; the builtin ``sum`` is compensated from Python 3.12."""
    return functools.reduce(operator.add, terms, 0.0)


def _kl_value(pm, qm, scale):
    return _sum(_pair_terms(pm, qm, lambda pv, qv: pv * math.log(pv / qv))) * scale


def _cross_entropy_value(pm, qm, scale):
    return _sum(_pair_terms(pm, qm, lambda pv, qv: -pv * math.log(qv))) * scale


def _alpha_kl_weights(pm, qm, alpha):
    """``P_X(x)**alpha * Q_X(x)**(1 - alpha)``, zero where ``P_X(x) = 0``."""
    if alpha < 0 and (np.any(pm < MIN_ALPHA_MASS) or np.any(qm < MIN_ALPHA_MASS)):
        raise DomainError(f"negative alpha requires strictly positive masses (>= {MIN_ALPHA_MASS})")
    return _pair_terms(pm, qm, lambda pv, qv: pv ** alpha * qv ** (1.0 - alpha))


def _alpha_kl_value(pm, qm, alpha):
    return (_sum(_alpha_kl_weights(pm, qm, alpha)) - 1.0) / (alpha - 1.0)


def _apply(formula, ctx, x, param):
    """``formula(pm, qm, param)`` on the pushforwards of ``ctx`` along ``x``, refused if not finite.

    ``pm`` is P_X, the mass of each label of ``x``, ``qm`` is Q_X (None for a
    distribution) and ``param`` is alpha or the log scale of the base.
    """
    pair = not isinstance(ctx, Dist)
    pm = marginal(ctx.p if pair else ctx, x).masses
    qm = marginal(ctx.q, x).masses if pair else None
    try:
        with np.errstate(over="raise"):
            out = formula(pm, qm, param)
    except (OverflowError, FloatingPointError):
        out = math.inf
    # values are Python floats, which math.isfinite checks in a tenth of the time
    if not (math.isfinite(out) if isinstance(out, float) else np.isfinite(out).all()):
        name = formula.__name__[1:].replace("_", " ")  # family and part, e.g. "alpha kl weights"
        raise DomainError(f"{name} out of floating-point range at parameter {param!r}")
    return out


def tsallis_entropy(p: Dist, x: RandomVariable, alpha: float) -> float:
    """Tsallis alpha-entropy ``(sum of P_X(x)**alpha - 1) / (1 - alpha)``."""
    return _apply(_tsallis_value, p, x, _check_alpha(alpha))


def kl(pair: DistPair, x: RandomVariable, base: str = "nats") -> float:
    """KL divergence of the pushforwards, ``sum of P_X(x) * log(P_X(x) / Q_X(x))``."""
    return _apply(_kl_value, pair, x, log_scale(base))


def cross_entropy(pair: DistPair, x: RandomVariable, base: str = "nats") -> float:
    """Cross-entropy of the pushforwards, ``-sum of P_X(x) * log Q_X(x)``."""
    return _apply(_cross_entropy_value, pair, x, log_scale(base))


def alpha_kl(pair: DistPair, x: RandomVariable, alpha: float) -> float:
    """alpha-KL divergence ``(sum of P**alpha * Q**(1-alpha) - 1) / (alpha - 1)``."""
    return _apply(_alpha_kl_value, pair, x, _check_alpha(alpha))


def _action_instance(ctx, gens, value, weights, param, meta) -> ChainRuleInstance:
    """A chain-rule instance whose ``k1`` is an averaged-conditioning action.

    ``ctx`` is a :class:`Dist` or a :class:`DistPair`, conditioned with
    :func:`condition` or :func:`condition_pair`; ``value``, ``weights`` and
    ``param`` are a family's two formulas and its parameter (see
    :func:`_apply`).  ``k1(y, z)`` averages the values of ``y`` over the
    labels of ``z``, a route to the totals difference independent of it.
    """
    gens, totals = _lattice_totals(ctx, gens, lambda x: _apply(value, ctx, x, param))
    var = functools.cache(lambda mask: joint_of(gens, mask, len(ctx)))
    tag, condition_fn = ("entropy", condition) if isinstance(ctx, Dist) else ("divergence", condition_pair)

    def act(x: RandomVariable, f, c) -> float:
        return _average(x, f, c, _apply(weights, c, x, param), condition_fn)

    return ChainRuleInstance(
        n=len(gens),
        totals=totals,
        k1=lambda y_mask, z_mask: act(var(z_mask), lambda c: _apply(value, c, var(y_mask), param), ctx),
        f1=lambda mask: InfoFunction(lambda c: _apply(value, c, var(mask), param), tag),
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
    meta = {"kind": "tsallis", "alpha": alpha}
    return _action_instance(p, gens, _tsallis_value, _tsallis_weights, alpha, meta)


def kl_instance(pair: DistPair, gens, base: str = "nats") -> ChainRuleInstance:
    """KL divergence as a chain-rule instance; conditions both distributions."""
    return _action_instance(pair, gens, _kl_value, _kl_weights, log_scale(base), {"kind": "kl", "base": base})


def cross_entropy_instance(pair: DistPair, gens, base: str = "nats") -> ChainRuleInstance:
    """Cross-entropy as a chain-rule instance; decomposes as entropy + KL."""
    meta = {"kind": "cross-entropy", "base": base}
    return _action_instance(pair, gens, _cross_entropy_value, _kl_weights, log_scale(base), meta)


def alpha_kl_instance(pair: DistPair, gens, alpha: float) -> ChainRuleInstance:
    """alpha-KL divergence as a chain-rule instance with deformed pair weights."""
    alpha = _check_alpha(alpha)
    meta = {"kind": "alpha-kl", "alpha": alpha}
    return _action_instance(pair, gens, _alpha_kl_value, _alpha_kl_weights, alpha, meta)
