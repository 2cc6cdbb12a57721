"""Finite discrete probability: distributions, variables as partitions, entropy.

Random variables here are labelings of an enumerated finite sample space;
two variables carry the same information iff they induce the same
partition, which is what :func:`equivalent` decides.  Conditioning an
information function by a variable is the averaged conditioning
``(X.F)(P) = sum over x of P_X(x) * F(P | X = x)``, and Shannon entropy is
the function satisfying the chain rule ``H(XY) = H(X) + X.H(Y)``, so
:func:`shannon_instance` hands the diagram engine just the joint entropies.

Conventions: ``0 * log 0 = 0``; conditioning on a zero-probability value
returns the distribution unchanged; natural log by default, ``base="bits"``
for binary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ChainRuleInstance, DomainError, _check_n

MASS_TOL = 1e-12
MAX_SAMPLE_POINTS = 10 ** 6

_LOG_SCALE = {"nats": 1.0, "bits": 1.0 / math.log(2.0)}


class IngestionError(ValueError):
    """Malformed input data (ragged rows, bad weights, oversized spaces)."""


def log_scale(base: str) -> float:
    """Multiplier turning natural-log values into the requested base."""
    try:
        return _LOG_SCALE[base]
    except KeyError:
        raise DomainError(f"log base must be 'nats' or 'bits', got {base!r}") from None


@dataclass(frozen=True, eq=False)
class Dist:
    """Probability mass function over an enumerated finite sample space.

    ``points`` names the sample points (defaults to their indices); masses
    must be nonnegative and sum to 1 within 1e-12.
    """

    masses: np.ndarray
    points: tuple = None

    def __post_init__(self):
        arr = np.asarray(self.masses, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("masses must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise DomainError("masses must be finite")
        if np.any(arr < 0):
            raise DomainError("masses must be nonnegative")
        if abs(float(arr.sum()) - 1.0) > MASS_TOL:
            raise DomainError(f"masses sum to {float(arr.sum())!r}, not 1 within {MASS_TOL}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "masses", arr)
        pts = self.points if self.points is not None else tuple(range(arr.size))
        pts = tuple(pts)
        if len(pts) != arr.size:
            raise DomainError(f"{len(pts)} points for {arr.size} masses")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.masses.size


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """A labeling of sample points; its partition is what carries information.

    The partition is coded once, on first use: ``_coded`` is the distinct
    labels in first-occurrence order and the code of each point, and
    :meth:`values`, :func:`marginal`, :func:`condition` and :func:`refines`
    all read it.
    """

    labels: tuple
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise DomainError("a random variable needs at least one sample point")

    def __len__(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def _coded(self):
        return _codes(self.labels)

    def values(self) -> tuple:
        """Distinct labels in first-occurrence order."""
        return self._coded[0]

    def partition(self) -> frozenset:
        """The induced partition of the sample space as index cells."""
        cells = {}
        for i, lab in enumerate(self.labels):
            cells.setdefault(lab, []).append(i)
        return frozenset(frozenset(cell) for cell in cells.values())


def constant_variable(size: int, name: str = "") -> RandomVariable:
    """The trivial variable: one label, no information."""
    return RandomVariable(labels=("*",) * size, name=name)


def _check_same_space(p: Dist, x: RandomVariable) -> None:
    if len(p) != len(x):
        raise DomainError(f"variable on {len(x)} points does not match distribution on {len(p)}")


def _codes(keys, limit=None):
    """Distinct keys in first-occurrence order and the integer code of each key.

    With ``limit``, coding stops at the first key beyond ``limit`` distinct
    ones, so a caller can refuse an oversized space without reading on.
    """
    index = {}
    codes = []
    for key in keys:
        code = index.setdefault(key, len(index))
        if code == limit:
            break
        codes.append(code)
    return tuple(index), np.array(codes, dtype=np.intp)


def marginal(p: Dist, x: RandomVariable) -> Dist:
    """Pushforward of ``p`` along ``x``: mass per label, first-occurrence order."""
    _check_same_space(p, x)
    labels, codes = x._coded
    return Dist(masses=np.bincount(codes, weights=p.masses, minlength=len(labels)), points=labels)


def condition(p: Dist, x: RandomVariable, value) -> Dist:
    """Renormalized restriction of ``p`` to ``x == value``.

    If the value has probability zero, returns ``p`` unchanged; that
    convention keeps averaged sums free of case splits.
    """
    _check_same_space(p, x)
    labels, codes = x._coded
    try:
        block = codes == labels.index(value)
    except ValueError:
        raise DomainError(f"{value!r} is not a label of the variable") from None
    px = float(p.masses[block].sum())
    if px == 0.0:
        return p
    masses = np.where(block, p.masses, 0.0) / px
    return Dist(masses=masses, points=p.points)


def entropy(p: Dist, x: RandomVariable, base: str = "nats") -> float:
    """Shannon entropy of ``x`` under ``p``, with ``0 log 0 = 0``."""
    scale = log_scale(base)
    m = marginal(p, x).masses
    pos = m[m > 0]
    return float(-(pos * np.log(pos)).sum() * scale)


def act(x: RandomVariable, f, p: Dist) -> float:
    """Averaged conditioning: ``sum over x-values of P_X(x) * F(P | X = x)``.

    ``f`` is any callable on distributions; zero-probability values are
    skipped (their weight is zero).
    """
    return _average(x, f, p, marginal(p, x).masses, condition)


def _average(x: RandomVariable, f, ctx, weights, condition_fn) -> float:
    """Sum of ``w * f(condition_fn(ctx, x, v))`` over labels ``v`` with weight ``w != 0``.

    ``weights`` follow the labels ``x.values()``, as a pushforward's masses
    do.  The averaging loop of every action, Shannon's and the deformed ones.
    """
    total = 0.0
    for value, weight in zip(x.values(), weights):
        w = float(weight)
        if w == 0.0:
            continue
        total += w * f(condition_fn(ctx, x, value))
    return total


def joint(x: RandomVariable, y: RandomVariable) -> RandomVariable:
    """Pairing of two variables on the same sample space."""
    if len(x) != len(y):
        raise DomainError(f"sample-space size mismatch: {len(x)} vs {len(y)}")
    name = f"({x.name},{y.name})" if x.name or y.name else ""
    return RandomVariable(labels=tuple(zip(x.labels, y.labels)), name=name)


def joint_of(gens, mask: int, size: int) -> RandomVariable:
    """Joint of the generators selected by ``mask`` (the constant variable for 0)."""
    selected = [g for i, g in enumerate(gens) if mask & (1 << i)]
    if not selected:
        return constant_variable(size)
    return RandomVariable(labels=tuple(zip(*(g.labels for g in selected))))


def equivalent(x: RandomVariable, y: RandomVariable) -> bool:
    """True iff the two variables induce the same partition of the space."""
    if len(x) != len(y):
        raise DomainError(f"sample-space size mismatch: {len(x)} vs {len(y)}")
    return x.partition() == y.partition()


def refines(x: RandomVariable, y: RandomVariable) -> bool:
    """True iff ``y`` is a function of ``x`` (x's partition refines y's)."""
    if len(x) != len(y):
        raise DomainError(f"sample-space size mismatch: {len(x)} vs {len(y)}")
    labels, cx = x._coded
    cy = y._coded[1]
    # y is a function of x iff every x-block carries one y-code; any point
    # of a block can stand for it
    image = np.empty(len(labels), dtype=np.intp)
    image[cx] = cy
    return bool(np.array_equal(image[cx], cy))


@dataclass(frozen=True)
class InfoFunction:
    """An evaluatable information function, closed under +, - and conditioning."""

    evaluator: Callable
    tag: str = ""

    def __call__(self, context) -> float:
        return float(self.evaluator(context))

    def __add__(self, other) -> "InfoFunction":
        return InfoFunction(lambda ctx: self(ctx) + other(ctx), "sum")

    def __sub__(self, other) -> "InfoFunction":
        return InfoFunction(lambda ctx: self(ctx) - other(ctx), "difference")

    def __neg__(self) -> "InfoFunction":
        return InfoFunction(lambda ctx: -self(ctx), "difference")


def entropy_function(x: RandomVariable, base: str = "nats") -> InfoFunction:
    """The entropy of ``x`` as a function of the distribution."""
    return InfoFunction(lambda p: entropy(p, x, base), "entropy")


def conditioned(x: RandomVariable, f) -> InfoFunction:
    """The averaged conditioning of ``f`` by ``x`` as a function."""
    return InfoFunction(lambda p: act(x, f, p), "conditioned")


def _lattice_totals(ctx, gens, value):
    """Validated generators and ``value(X_K) - value(X_0)`` for every mask ``K``.

    ``ctx`` is the builder's fixed context, a distribution or a pair; only
    its length is read here.  ``value`` maps a joint variable to its
    unconditional value under it; each joint is built once and dropped as
    soon as its value is taken.  Returns ``(gens, totals)``.
    """
    gens = tuple(gens)
    _check_n(len(gens))
    for g in gens:
        _check_same_space(ctx, g)
    size = len(ctx)
    values = [value(joint_of(gens, mask, size)) for mask in range(1 << len(gens))]
    return gens, [v - values[0] for v in values]


def shannon_instance(p: Dist, gens, base: str = "nats") -> ChainRuleInstance:
    """Entropy as a chain-rule instance over the monoid the generators span.

    The totals are the joint entropies ``H(X_K)``, so the conditional term
    is the totals difference ``H(X_(y|z)) - H(X_z)``.  Also carries the
    function-valued form so the action axioms can be validated.
    """
    gens, totals = _lattice_totals(p, gens, lambda x: entropy(p, x, base))
    size = len(p)
    return ChainRuleInstance(
        n=len(gens),
        totals=totals,
        f1=lambda mask: entropy_function(joint_of(gens, mask, size), base),
        action=lambda f, mask: conditioned(joint_of(gens, mask, size), f),
        evaluate=lambda f: f(p),
        meta={"kind": "shannon", "base": base},
    )


def _weight(raw, where: str) -> float:
    """A sample weight as a float; ``where`` names the row in the message."""
    try:
        w = float(raw)
    except (TypeError, ValueError):
        raise IngestionError(f"{where}: weight {raw!r} is not a number") from None
    if not math.isfinite(w) or w < 0:
        raise IngestionError(f"{where}: weight {w!r} must be finite and >= 0")
    return w


def _sample_space(tables):
    """Distinct rows of one or more ``(rows, weights, where)`` tables and their masses.

    The sample space is the distinct rows of all tables in first-occurrence
    order, at most ``MAX_SAMPLE_POINTS`` of them; each table's masses are
    its weighted counts normalized by their ``math.fsum``.  ``where``
    prefixes a table's zero-total message.  Returns ``(points, masses)``
    with one mass array per table.
    """
    points, codes = _codes((row for rows, _, _ in tables for row in rows), MAX_SAMPLE_POINTS)
    if len(points) > MAX_SAMPLE_POINTS:
        raise IngestionError(f"more than {MAX_SAMPLE_POINTS} distinct sample points")
    masses = []
    start = 0
    for rows, weights, where in tables:
        stop = start + len(rows)
        acc = np.bincount(codes[start:stop], weights=weights, minlength=len(points))
        total = math.fsum(acc)
        if total <= 0:
            raise IngestionError(f"{where}total weight must be positive")
        masses.append(acc / total)
        start = stop
    return points, masses


def empirical_from_rows(rows, weights=None):
    """Empirical distribution and one variable per column from a table of rows.

    The sample space is the distinct rows in first-occurrence order; masses
    are normalized (weighted) counts.  Returns ``(dist, variables)``.
    """
    rows = [tuple(row) for row in rows]
    if not rows:
        raise IngestionError("no rows")
    width = len(rows[0])
    weights = [1.0] * len(rows) if weights is None else list(weights)
    if len(weights) != len(rows):
        raise IngestionError(f"{len(weights)} weights for {len(rows)} rows")
    for i, row in enumerate(rows):
        if len(row) != width:
            raise IngestionError(f"row {i}: expected {width} columns, got {len(row)}")
        weights[i] = _weight(weights[i], f"row {i}")

    points, (masses,) = _sample_space([(rows, weights, "")])
    variables = [RandomVariable(labels=column) for column in zip(*points)]
    return Dist(masses=masses, points=points), variables
