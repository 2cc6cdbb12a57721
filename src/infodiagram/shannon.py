"""Finite discrete probability, the one action-form builder, and Shannon entropy.

Random variables here are labelings of an enumerated finite sample space;
two variables carry the same information iff they induce the same
partition, which is what :func:`equivalent` decides.  A context is a
:class:`Dist` or a :class:`DistPair` (two distributions on one space).

Every probabilistic family conditions by the same averaging action,
``(X.F)(P) = sum over x of w(x) * F(P | X = x)``, and is two formulas over
the pushforward masses ``P_X`` (and ``Q_X`` for a pair): a value and a
weight rule ``w``.  :func:`_apply` evaluates a formula along a variable and
:func:`_action_instance` builds an instance from the two; the deformed and
two-distribution families live in :mod:`.divergences`.  Shannon entropy is
the value ``-sum of P_X(x) log P_X(x)`` with weights ``w = P_X``, the
function satisfying the chain rule ``H(XY) = H(X) + X.H(Y)``.

Conventions: ``0 * log 0 = 0``; conditioning on a zero-probability value
returns the distribution unchanged, and a pair on a value of P-probability
zero too; natural log by default, ``base="bits"`` for binary.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import ChainRuleInstance, DomainError, _check_element, _check_n

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
    must be nonnegative and sum to 1 within 1e-12, and are kept as a
    read-only array, in a pickled or deep copy too.  A pushforward from
    :func:`marginal` is checked against the rounding bound of its sums
    instead, and keeps its variable in place of its points: it builds them,
    the variable's ``values()``, on first read; ``repr``,
    :func:`dataclasses.replace` and pickling read them.
    """

    masses: np.ndarray
    points: tuple = None

    def __post_init__(self):
        arr = np.asarray(self.masses, dtype=float)
        _check_masses(arr, MASS_TOL)
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

    def __getattr__(self, attr):
        # called only for what the instance and class lack: the points of a
        # pushforward not read yet
        var = self.__dict__.get("_variable")
        if attr != "points" or var is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")
        points = var.values()
        object.__setattr__(self, "points", points)
        return points

    def __getstate__(self):
        # a pushforward pickles as a distribution built with its points does
        return {"masses": self.masses, "points": self.points}

    def __setstate__(self, state):
        # numpy restores an array writable, in a pickle and a deepcopy alike
        state["masses"].setflags(write=False)
        self.__dict__.update(state)


# the default lives on in __init__; without the class attribute an unread
# pushforward's points reach __getattr__
del Dist.points


def _check_masses(arr, tol) -> None:
    """Refuse ``arr`` unless it is a nonempty 1-d array of nonnegative masses summing to 1 within ``tol``."""
    # one pass accepts a valid array: a NaN or a negative fails the minimum,
    # and an infinity makes the sum miss 1; the minimum goes first, so
    # inf + -inf is never summed.  Only a refused array runs the checks that
    # name what is wrong.
    if not (arr.ndim == 1 and arr.size and arr.min() >= 0 and abs(float(arr.sum()) - 1.0) <= tol):
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("masses must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise DomainError("masses must be finite")
        if np.any(arr < 0):
            raise DomainError("masses must be nonnegative")
        raise DomainError(f"masses sum to {float(arr.sum())!r}, not 1 within {tol}")


@dataclass(frozen=True, eq=False)
class DistPair:
    """Two distributions on the same sample space with P absolutely continuous w.r.t. Q."""

    p: Dist
    q: Dist

    def __post_init__(self):
        _check_same_size(self.p, self.q)
        # identity first: a pair conditioned or built from one space shares its points tuple
        if self.p.points is not self.q.points and self.p.points != self.q.points:
            raise DomainError("the two distributions enumerate different sample points")
        bad = np.flatnonzero((self.q.masses == 0.0) & (self.p.masses > 0.0))
        if bad.size:
            raise DomainError(
                f"absolute continuity violated at sample point {self.p.points[bad[0]]!r}: "
                "Q assigns 0 where P does not"
            )

    def __len__(self) -> int:
        return len(self.p)


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """A labeling of sample points; its partition is what carries information.

    The partition is coded once: ``_blocks`` is the number of distinct
    labels and the code of each point, which :func:`marginal`,
    :func:`refines`, :func:`equivalent` and the coding of joints read, and
    ``_coded`` is the distinct labels in first-occurrence order with the
    same codes, which :meth:`values`, :func:`condition` and the averaging
    action read; :func:`condition` finds a label's code in the dict
    ``_label_codes``, built from :meth:`values` on first use.  A joint built
    by :func:`joint` or :func:`joint_of` keeps its parts, its ``_blocks``
    coded from their codes and the first point of each code, in place of
    its labels: its distinct labels are picked from the parts' labels at
    those first points on first read, and the tuple ``labels`` is built on
    first read, with those same objects at the first points.  ``len()`` and
    everything that reads ``_blocks`` leave both unbuilt; ``repr``,
    :func:`dataclasses.replace` and pickling read them.  Any other variable
    is coded on first use, from its labels.
    """

    labels: tuple
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise DomainError("a random variable needs at least one sample point")

    def __len__(self) -> int:
        parts = self.__dict__.get("_parts")
        return len(parts[0]) if parts else len(self.labels)

    def __getattr__(self, attr):
        # called only for what the instance and class lack: the labels of a
        # joint not read yet
        parts = self.__dict__.get("_parts")
        if attr != "labels" or parts is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")
        labels = list(zip(*(x.labels for x in parts)))
        for value, i in zip(self.values(), self._firsts.tolist()):
            labels[i] = value
        labels = tuple(labels)
        object.__setattr__(self, "labels", labels)
        return labels

    def __getstate__(self):
        # a variable pickles as its labels, name and, once coded, _coded: a
        # joint as a variable built from its labels does
        state = {"labels": self.labels, **self.__dict__}
        for key in ("_parts", "_firsts", "_blocks", "_label_codes"):
            state.pop(key, None)
        return state

    @functools.cached_property
    def _coded(self):
        parts = self.__dict__.get("_parts")
        if parts is None:
            return _codes(self.labels)
        return _joint_values(parts, self._firsts), self._blocks[1]

    @functools.cached_property
    def _blocks(self):
        values, codes = self._coded
        return len(values), codes

    @functools.cached_property
    def _label_codes(self) -> dict:
        # the distinct labels are distinct dict keys, so each maps to its own code
        return {label: code for code, label in enumerate(self.values())}

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


def _check_same_size(a, b) -> None:
    """Two variables, a distribution and a variable, or a pair's two distributions on spaces of one size."""
    if len(a) != len(b):
        raise DomainError(f"sample-space size mismatch: {len(a)} vs {len(b)}")


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


_KEY_MAX = 2 ** 63 - 1  # the largest int64


def _joint_codes(parts):
    """The ``_blocks`` of the joint of ``parts``, from theirs, and the first point of each code.

    The joint's label at a point is the tuple of the parts' labels there.
    Two points share a joint label iff they share every part's code, so the
    codes combine into one mixed-radix ``int64`` key per point, of ``span``
    possible values.  One rule ranks it: a direct-address table of one entry
    per key value and never more entries than points, so :func:`_dense`
    sorts the key only when its span exceeds the point count, or before it
    would pass the ``int64`` range.  ``np.minimum.at`` writes each key's
    first point into the table; the points that are their key's first are
    the first points in ascending order, so numbering them in turn gives the
    first-occurrence codes, which are written back into the table and read
    at every point.  Only the label counts and codes are read: no label,
    neither the parts' nor the joint's, is touched (see
    :func:`_joint_values`).
    """
    size = len(parts[0])
    key = np.zeros(size, dtype=np.int64)
    span = 1
    for x in parts:
        count, codes = x._blocks
        if span * count > _KEY_MAX:
            span, key = _dense(key)
        key = key * count + codes
        span *= count
    if span > size:
        span, key = _dense(key)
    points = np.arange(size)
    table = np.full(span, size, dtype=np.intp)
    np.minimum.at(table, key, points)
    firsts = np.flatnonzero(table[key] == points)
    table[key[firsts]] = np.arange(firsts.size)
    return (firsts.size, table[key]), firsts


def _joint_values(parts, firsts):
    """The distinct labels of the joint of ``parts``: the tuples of their labels at ``firsts``."""
    firsts = firsts.tolist()
    # itemgetter of one index gives the item, not a 1-tuple
    pick = operator.itemgetter(*firsts) if len(firsts) > 1 else lambda labels: (labels[firsts[0]],)
    return tuple(zip(*(pick(x.labels) for x in parts)))


def _dense(key):
    """The number of distinct keys and each key's rank among them.

    A sort: :func:`_joint_codes` calls it only when a key's span would pass
    the ``int64`` range or exceeds the point count.
    """
    distinct, rank = np.unique(key, return_inverse=True)
    return distinct.size, rank


def marginal(p: Dist, x: RandomVariable) -> Dist:
    """Pushforward of ``p`` along ``x``: mass per label, first-occurrence order.

    Its points, ``x.values()``, are built on first read (see :class:`Dist`).
    Each mass is a sequential sum of the masses of its label's points, so
    the masses must sum to 1 within ``MASS_TOL`` plus ``m * 2**-53``, the
    rounding bound of a sum of the ``m = len(p)`` masses (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., 2002, section 4.2).
    """
    _check_same_size(p, x)
    count, codes = x._blocks
    masses = np.bincount(codes, weights=p.masses, minlength=count)
    return _derived(masses, MASS_TOL + len(p) * 2.0 ** -53, variable=x)


def condition(p: Dist, x: RandomVariable, value) -> Dist:
    """Renormalized restriction of ``p`` to ``x == value``.

    If the value has probability zero, returns ``p`` unchanged; that
    convention keeps averaged sums free of case splits.  Otherwise the
    result is a derived distribution (see :func:`_derived`): read-only
    masses, zero off the block, and the points of ``p``, the same object.
    """
    _check_same_size(p, x)
    try:
        block = x._coded[1] == x._label_codes[value]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise DomainError(f"{value!r} is not a label of the variable") from None
    px = float(p.masses[block].sum())
    if px == 0.0:
        return p
    # the bits of np.where(block, p.masses, 0.0) / px, in one pass
    masses = np.divide(p.masses, px, out=np.zeros(len(p)), where=block)
    return _derived(masses, MASS_TOL, points=p.points)


def _derived(masses: np.ndarray, tol: float, points: tuple = None, variable: RandomVariable = None) -> Dist:
    """A :class:`Dist` that takes over ``masses``, a fresh float array
    computed from a valid distribution: checked at ``tol`` and made
    read-only, without the conversion, copy and points re-wrap that
    ``Dist(...)`` makes for an array it may share.  Its points are the tuple
    ``points``, or for a pushforward those of ``variable``, built on first
    read."""
    _check_masses(masses, tol)
    masses.setflags(write=False)
    dist = object.__new__(Dist)
    object.__setattr__(dist, "masses", masses)
    if variable is None:
        object.__setattr__(dist, "points", points)
    else:
        object.__setattr__(dist, "_variable", variable)
    return dist


def condition_pair(pair: DistPair, x: RandomVariable, value) -> DistPair:
    """Both distributions of a pair conditioned on one event; the pair itself if P gives it probability zero."""
    p = condition(pair.p, x, value)  # p itself where P gives the event probability zero
    return pair if p is pair.p else DistPair(p=p, q=condition(pair.q, x, value))


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
    """Pairing of two variables on the same sample space, coded from their codes."""
    _check_same_size(x, y)
    name = f"({x.name},{y.name})" if x.name or y.name else ""
    return _joint_variable((x, y), name)


def joint_of(gens, mask: int, size: int) -> RandomVariable:
    """Joint of the generators selected by ``mask`` (the constant variable for 0).

    Its labels are the tuples of the selected generators' labels, and its
    partition is coded from their codes by :func:`_joint_codes`; its
    distinct labels and its labels tuple are built only when read (see
    :class:`RandomVariable`).  ``mask`` must be a plain ``int`` subset of
    the generators, and each generator it selects (every generator, for
    mask 0) must have ``size`` points; either fault raises
    :class:`DomainError`.
    """
    _check_element(mask, len(gens), "joint")
    selected = [g for i, g in enumerate(gens) if mask & (1 << i)]
    space = range(size)  # a sized stand-in for the sample space
    for g in selected or gens:
        _check_same_size(space, g)
    if not selected:
        return constant_variable(size)
    return _joint_variable(selected)


def _joint_variable(parts, name: str = "") -> RandomVariable:
    """The joint of the parts: ``_blocks`` from the parts' codes, its labels built on first read.

    Its labels pair the parts' labels (see :class:`RandomVariable`); the
    callers have checked that the parts share one sample-space size.
    """
    blocks, firsts = _joint_codes(parts)
    var = object.__new__(RandomVariable)
    object.__setattr__(var, "name", name)
    object.__setattr__(var, "_parts", tuple(parts))
    object.__setattr__(var, "_blocks", blocks)
    object.__setattr__(var, "_firsts", firsts)
    return var


def equivalent(x: RandomVariable, y: RandomVariable) -> bool:
    """True iff the two variables induce the same partition of the space."""
    _check_same_size(x, y)
    # first-occurrence codes number a partition's blocks canonically
    return np.array_equal(x._blocks[1], y._blocks[1])


def refines(x: RandomVariable, y: RandomVariable) -> bool:
    """True iff ``y`` is a function of ``x`` (x's partition refines y's)."""
    _check_same_size(x, y)
    count, cx = x._blocks
    cy = y._blocks[1]
    # y is a function of x iff every x-block carries one y-code; any point
    # of a block can stand for it
    image = np.empty(count, dtype=np.intp)
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


def _apply(formula, ctx, x, param):
    """``formula(pm, qm, param)`` on the pushforwards of ``ctx`` along ``x``, refused if not finite.

    ``pm`` is P_X, the mass of each label of ``x``, ``qm`` is Q_X (None for a
    distribution) and ``param`` is alpha or the log scale of the base.
    """
    pair = not isinstance(ctx, Dist)
    pm = marginal(ctx.p if pair else ctx, x).masses
    qm = marginal(ctx.q, x).masses if pair else None
    return _evaluate(formula, pm, qm, param)


def _evaluate(formula, pm, qm, param):
    """``formula(pm, qm, param)``, refused with :class:`DomainError` if it overflows or is not finite.

    ``pm`` (and ``qm``) is one pushforward, or for a family's value a table
    of them, one per row, which gives one value per row; either way the
    call runs inside one ``np.errstate(over="raise")`` and one check.
    """
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


_CHUNK = 1 << 12  # a grouped pushforward table holds at most max(points, _CHUNK) entries at once


def _condition_blocks(ctx, x: RandomVariable, weights):
    """``ctx`` conditioned on each label of ``x`` with nonzero weight, as one read-only value.

    Each such label, in label order, conditions each distribution of
    ``ctx`` (P, then Q for a pair) by :func:`condition`, with its checks,
    and only the label's block is kept: its points in ascending order, the
    conditioned masses there and the label's rank among the kept labels.
    A pair is conditioned as its two distributions, with no
    :class:`DistPair` built, since its check cannot fail here: every
    family's weight of a label is 0 where P gives it mass 0, so Q gives a
    kept label mass ``Q_z > 0`` (P is absolutely continuous w.r.t. Q), and
    a conditioned Q mass ``q / Q_z``, with ``Q_z <= 1 + MASS_TOL``, is
    positive wherever ``q`` is.  Returns fresh read-only arrays ``(points,
    rank, masses, weights, starts)``: one entry per kept point in
    ``points``, ``rank`` and each array of the tuple ``masses`` (one per
    distribution), one per kept label in ``weights``, and block ``i`` at
    ``starts[i]:starts[i + 1]``.
    """
    dists = (ctx,) if isinstance(ctx, Dist) else (ctx.p, ctx.q)
    count, codes = x._blocks
    weights = np.asarray(weights, dtype=float)
    keep = weights != 0.0
    order = np.argsort(codes, kind="stable")
    points = order[keep[codes[order]]]
    sizes = np.bincount(codes, minlength=count)[keep]
    starts = np.concatenate(([0], np.cumsum(sizes)))
    rank = np.repeat(np.arange(sizes.size), sizes)
    masses = tuple(np.empty(points.size) for _ in dists)
    bounds = starts.tolist()
    for label, lo, hi in zip(itertools.compress(x.values(), keep.tolist()), bounds, bounds[1:]):
        for out, dist in zip(masses, dists):
            np.take(condition(dist, x, label).masses, points[lo:hi], out=out[lo:hi])
    weights = weights[keep]
    for arr in (points, rank, *masses, weights, starts):
        arr.setflags(write=False)
    return points, rank, masses, weights, starts


def _grouped_average(blocks, y: RandomVariable, formula, param) -> float:
    """Sum of ``w * formula`` on the pushforward along ``y`` of each label kept in ``blocks``, left to right.

    A conditioned distribution is ``+0.0`` off its block, so the kept
    labels' pushforwards are the rows of one ``bincount`` over ``rank * ny
    + y's code`` per distribution: each row holds the sums :func:`marginal`
    forms, added in the same order, and is checked by its rule.  The table
    is built ``max(points, _CHUNK) // ny`` rows at a time, and ``formula``
    takes each chunk's table whole, one value per row (P's table, and Q's
    for a pair), so the sum is the bits of :func:`_average` on the label
    route.  A chunk with a row that fails :func:`marginal`'s check, or whose
    table :func:`_evaluate` refuses, is taken again one row at a time, as
    the label route takes it: the first failing row raises its own message
    before the rows after it are evaluated.
    """
    points, rank, masses, weights, starts = blocks
    size = len(y)
    ny, cy = y._blocks
    tol = MASS_TOL + size * 2.0 ** -53
    step = max(size, _CHUNK) // ny
    total = 0.0
    for first in range(0, weights.size, step):
        ws = weights[first:first + step].tolist()
        lo, hi = starts[first], starts[first + len(ws)]
        cells = (rank[lo:hi] - first) * ny + cy[points[lo:hi]]
        tables = [np.bincount(cells, weights=m[lo:hi], minlength=len(ws) * ny).reshape(-1, ny) for m in masses]
        pts, qts = tables[0], tables[1] if len(masses) == 2 else None
        values = None
        # every row passes _check_masses iff the table's least mass and worst sum do; NaN fails both
        if all(t.min() >= 0 and np.abs(t.sum(axis=1) - 1.0).max() <= tol for t in tables):
            try:
                values = _evaluate(formula, pts, qts, param)
            except (ArithmeticError, ValueError):  # a DomainError too: the rows name the failing one
                pass
        if values is None:
            values = []
            for pm, qm in zip(pts, [None] * len(ws) if qts is None else qts):
                _check_masses(pm, tol)
                if qm is not None:
                    _check_masses(qm, tol)
                values.append(_evaluate(formula, pm, qm, param))
        for w, value in zip(ws, values):
            total += w * value
    return total


def _action_instance(ctx, gens, value, weights, param, meta) -> ChainRuleInstance:
    """A chain-rule instance whose ``k1`` is an averaged-conditioning action.

    ``ctx`` is a :class:`Dist` or a :class:`DistPair`; ``value``,
    ``weights`` and ``param`` are a family's two formulas and its parameter (see
    :func:`_apply`), and ``value`` also takes a table of pushforwards, one
    per row (Shannon's need not: its instance drops this ``k1``).  The totals are ``value(X_K) - value(X_0)`` for every
    mask ``K``, each joint built once by :func:`joint_of` and dropped as
    soon as its value is taken; only the generators and the constant
    variable are coded from their labels, every joint from the generators'
    codes, and no joint's tuple labels are built.  The totals read only
    label counts and codes, so they build no distinct label either; ``k1``,
    ``f1`` and ``action`` also read the distinct labels of the variables
    they condition on.  ``k1(y, z)`` averages the values of ``y`` over the
    labels of ``z``, a route to the totals difference independent of it.
    The weights of z's labels and the distributions conditioned on them are
    a value of ``z`` alone, the same for every ``y``: ``k1`` takes them as
    read-only blocks (:func:`_condition_blocks`) cached for the last
    conditioning mask asked, as the joints are built once per mask, so a
    run of calls with one ``z``, as the chain check makes, conditions once
    and reads each ``y``'s pushforwards from one grouped ``bincount``,
    whose table the family's value takes whole (:func:`_grouped_average`).
    Threads sharing the instance share only those immutable arrays.  Every
    ``k1`` value is the bits of the label route's :func:`_average`, which
    ``action`` takes with :func:`condition` or :func:`condition_pair`.
    """
    gens = tuple(gens)
    _check_n(len(gens))
    for g in gens:
        _check_same_size(ctx, g)
    size = len(ctx)
    values = [_apply(value, ctx, joint_of(gens, mask, size), param) for mask in range(1 << len(gens))]
    var = functools.cache(lambda mask: joint_of(gens, mask, size))
    tag, condition_fn = ("entropy", condition) if isinstance(ctx, Dist) else ("divergence", condition_pair)

    @functools.lru_cache(maxsize=1)
    def blocks(z_mask: int):
        z = var(z_mask)
        return _condition_blocks(ctx, z, _apply(weights, ctx, z, param))

    def average(x: RandomVariable, f, c) -> float:
        return _average(x, f, c, _apply(weights, c, x, param), condition_fn)

    def k1(y_mask: int, z_mask: int) -> float:
        return _grouped_average(blocks(z_mask), var(y_mask), value, param)

    return ChainRuleInstance(
        n=len(gens),
        totals=[v - values[0] for v in values],
        k1=k1,
        f1=lambda mask: InfoFunction(lambda c: _apply(value, c, var(mask), param), tag),
        action=lambda f, mask: InfoFunction(lambda c: average(var(mask), f, c), "conditioned"),
        evaluate=lambda f: f(ctx),
        meta=meta,
    )


def _entropy_value(pm, qm, scale):
    pos = pm[pm > 0]
    return float(-(pos * np.log(pos)).sum() * scale)


def _mass_weights(pm, qm, scale):  # also KL's and cross-entropy's
    return pm


def entropy(p: Dist, x: RandomVariable, base: str = "nats") -> float:
    """Shannon entropy of ``x`` under ``p``, with ``0 log 0 = 0``."""
    return _apply(_entropy_value, p, x, log_scale(base))


def shannon_instance(p: Dist, gens, base: str = "nats") -> ChainRuleInstance:
    """Entropy as a chain-rule instance over the monoid the generators span.

    The totals are the joint entropies ``H(X_K)``, so the conditional term
    is the totals difference ``H(X_(y|z)) - H(X_z)``.  Also carries the
    function-valued form so the action axioms can be validated.
    """
    meta = {"kind": "shannon", "base": base}
    inst = _action_instance(p, gens, _entropy_value, _mass_weights, log_scale(base), meta)
    # the averaged k1 conditions once per label of the conditioning joint, and
    # a joint of a wide table has nearly one label per row (about 1,960 on the
    # 10-column, 2,000-row shannon-lattice input), so k1 stays the totals
    # difference; the action form stays the check of validate_action_form
    return replace(inst, k1=None)


def _weight(raw, where: str) -> float:
    """A sample weight as a float; ``where`` names the row in the message."""
    try:
        w = float(raw)
    except (TypeError, ValueError):
        raise IngestionError(f"{where}: weight {raw!r} is not a number") from None
    if not math.isfinite(w) or w < 0:
        raise IngestionError(f"{where}: weight {w!r} must be finite and >= 0")
    return w


def _sample_space(tables, names):
    """The distribution of each ``(rows, weights, where)`` table, then a generator per column named by ``names``.

    The sample space is the distinct rows of all tables in first-occurrence
    order, at most ``MAX_SAMPLE_POINTS`` of them; each table's masses are
    its weighted counts normalized by their ``math.fsum``.  ``where``
    prefixes a table's zero-total message.
    """
    points, codes = _codes((row for rows, _, _ in tables for row in rows), MAX_SAMPLE_POINTS)
    if len(points) > MAX_SAMPLE_POINTS:
        raise IngestionError(f"more than {MAX_SAMPLE_POINTS} distinct sample points")
    dists, start = [], 0
    for rows, weights, where in tables:
        acc = np.bincount(codes[start:start + len(rows)], weights=weights, minlength=len(points))
        total = math.fsum(acc)
        if total <= 0:
            raise IngestionError(f"{where}total weight must be positive")
        dists.append(Dist(masses=acc / total, points=points))
        start += len(rows)
    return *dists, [RandomVariable(labels=column, name=name) for column, name in zip(zip(*points), names)]


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
    return _sample_space([(rows, weights, "")], [""] * width)
