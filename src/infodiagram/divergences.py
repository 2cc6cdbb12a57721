"""Deformed and two-distribution families: Tsallis, KL, alpha-KL, cross-entropy.

Each function here satisfies a chain rule of the same shape as entropy's,
with the action ``(X.F)(P) = sum over x of w(x) * F(P | X = x)``.  So a
family is a weight rule ``w`` and a value, both formulas over the
pushforward masses ``P_X`` (and ``Q_X`` for a pair).

* Tsallis alpha-entropy weights by ``P_X(x)**alpha`` and conditions P; its
  value is ``(sum of weights - 1) / (1 - alpha)``;
* KL divergence and cross-entropy weight by ``P_X(x)``, as Shannon entropy
  does, and condition both distributions of a pair;
* alpha-KL weights the pair by ``P_X(x)**alpha * Q_X(x)**(1 - alpha)``; its
  value is ``(sum of weights - 1) / (alpha - 1)``.

This module holds only those formulas and their public wrappers.  One
builder, :func:`.shannon._action_instance`, makes all five probabilistic
families, Shannon's included: the totals are the value of every joint, and
the conditional ``k1`` is the action-form average with the family's
weights, so the chain-rule check and the verification sweep compare one
route against the other.  Each value is one definition for one pushforward
and for a table of them, one per row, as ``k1`` hands it every conditioned
pushforward of one conditioning mask at once; each row's value is the bits
of its own pushforward's.  Tsallis's is numpy's, summed along the rows; the
pair families keep ``math`` and Python floats per cell, summed left to
right by :func:`_sum`.  Every one of these chain rules forces
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
from itertools import islice

import numpy as np

from .core import ChainRuleInstance, DomainError
from .shannon import (  # DistPair and condition_pair are re-exported here
    Dist,
    DistPair,
    RandomVariable,
    _action_instance,
    _apply,
    _mass_weights,
    condition_pair,
    log_scale,
)

MIN_ALPHA_MASS = 1e-300


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
    # the weights of a table's C-contiguous rows are summed row by row with
    # the one-pushforward sum's pairwise order, so each row gives its bits
    return ((_tsallis_weights(pm, qm, alpha).sum(axis=-1) - 1.0) / (1.0 - alpha)).tolist()


def _pair_sums(pm, qm, term):
    """Per pushforward, the :func:`_sum` of ``term(P_X(x), Q_X(x))`` on Python
    floats over the labels where ``P_X(x) > 0``, as an array shaped as ``pm``
    without its label axis: one sum, or one per row of a table.

    The cells where P is positive are made Python floats by one ``tolist``
    per distribution and taken row by row, and a sum from 0.0 that skips a
    label of P-mass 0 has the bits of one that adds 0.0 there, so each
    row's sum is the bits of its own pushforward's.
    """
    pos = pm > 0.0
    cells = map(term, pm[pos].tolist(), qm[pos].tolist())
    counts = pos.reshape(-1, pos.shape[-1]).sum(axis=1).tolist()
    return np.array([_sum(islice(cells, count)) for count in counts]).reshape(pm.shape[:-1])


def _sum(terms) -> float:
    """Left-to-right sum; the builtin ``sum`` is compensated from Python 3.12."""
    return functools.reduce(operator.add, terms, 0.0)


def _kl_value(pm, qm, scale):
    return (_pair_sums(pm, qm, lambda pv, qv: pv * math.log(pv / qv)) * scale).tolist()


def _cross_entropy_value(pm, qm, scale):
    return (_pair_sums(pm, qm, lambda pv, qv: -pv * math.log(qv)) * scale).tolist()


def _alpha_kl_term(pm, qm, alpha):
    """The per-label term ``P_X(x)**alpha * Q_X(x)**(1 - alpha)``, once alpha < 0
    has found every mass of ``pm`` and ``qm`` strictly positive."""
    if alpha < 0 and (np.any(pm < MIN_ALPHA_MASS) or np.any(qm < MIN_ALPHA_MASS)):
        raise DomainError(f"negative alpha requires strictly positive masses (>= {MIN_ALPHA_MASS})")
    return lambda pv, qv: pv ** alpha * qv ** (1.0 - alpha)


def _alpha_kl_weights(pm, qm, alpha):
    """``P_X(x)**alpha * Q_X(x)**(1 - alpha)``, zero where ``P_X(x) = 0``."""
    term = _alpha_kl_term(pm, qm, alpha)
    return [term(pv, qv) if pv > 0.0 else 0.0 for pv, qv in zip(pm.tolist(), qm.tolist())]


def _alpha_kl_value(pm, qm, alpha):
    return ((_pair_sums(pm, qm, _alpha_kl_term(pm, qm, alpha)) - 1.0) / (alpha - 1.0)).tolist()


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
    return _action_instance(pair, gens, _kl_value, _mass_weights, log_scale(base), {"kind": "kl", "base": base})


def cross_entropy_instance(pair: DistPair, gens, base: str = "nats") -> ChainRuleInstance:
    """Cross-entropy as a chain-rule instance; decomposes as entropy + KL."""
    meta = {"kind": "cross-entropy", "base": base}
    return _action_instance(pair, gens, _cross_entropy_value, _mass_weights, log_scale(base), meta)


def alpha_kl_instance(pair: DistPair, gens, alpha: float) -> ChainRuleInstance:
    """alpha-KL divergence as a chain-rule instance with deformed pair weights."""
    alpha = _check_alpha(alpha)
    meta = {"kind": "alpha-kl", "alpha": alpha}
    return _action_instance(pair, gens, _alpha_kl_value, _alpha_kl_weights, alpha, meta)
