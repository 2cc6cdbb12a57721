"""Information-diagram engine for chain-rule functions on join-semilattices.

A finitely generated commutative idempotent monoid (equivalently, a
join-semilattice) with generators 1..n is encoded with bitmasks: an element
is the set of generators it contains, the product of two elements is the
bitwise OR of their masks, and the neutral element is the empty mask 0.
This makes idempotence and commutativity structural rather than checked.

An instance is, for the engine, its vector of totals ``F1(X_K)`` over
all 2**n masks ``K`` (``F1(0) = 0``).  The chain rule

    F1(y) + k1(z | y) == F1(y OR z)

then forces every conditional term to be ``k1(y | z) = F1(y OR z) -
F1(z)``, and the totals induce a signed measure on the 2**n - 1 atoms
(minimal cells) of the generic n-set Venn diagram in which every
conditional interaction term of every degree equals the measure of an
explicit region.  That is the mechanism behind information diagrams for
Shannon entropy, and it works verbatim for Tsallis entropy, KL-type
divergences, cross-entropy, submodular set functions, and
generalization-error advantages.  An instance may also carry an
independent conditional ``k1`` (for the divergences, the averaged
conditioning of their action form); the chain-rule check and the
verification sweep then compare two routes rather than one formula with
itself.

This module is agnostic about where the totals come from; concrete
instances live in :mod:`infodiagram.shannon`, :mod:`infodiagram.divergences`,
and :mod:`infodiagram.setfun`.

Encodings
---------
* monoid element: int bitmask, bit ``i - 1`` set iff generator ``i`` is a
  factor; ``0`` is the neutral element.
* atom: nonzero bitmask ``a`` naming the Venn cell inside exactly the
  circles of generators in ``a``.
* region: int bitset over atoms, bit ``a - 1`` set iff atom ``a`` belongs
  to the region.  Union/intersection/difference are ``|``, ``&``, ``& ~``.

Transforms
----------
By Hu's theorem every diagram quantity is a linear transform of the
totals vector.  The atom table is its superset Moebius transform and
circle unions and Hu regions are read off the subset zeta transform of the
atoms; both are n * 2**n butterflies (Yates 1937).  :func:`atom_measure`,
:func:`region_measure` and :func:`mobius_oracle` keep the closed-form and
linear-solve routes as independent oracles for them.

All operations are pure functions of immutable inputs, and an instance's
caches hold only immutable values, each recomputable from those inputs
(the ``k1`` memo's floats; for an action-form family its joints and its
read-only conditioned blocks), so everything here is safe to call from
multiple threads with no lock; every transform and sum runs in a fixed
order, making each value deterministic regardless of scheduling.
"""

from __future__ import annotations

import math
import operator
import os
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Any, Callable, NamedTuple

import numpy as np

DEFAULT_MAX_N = 12
VERIFY_EXHAUSTIVE_MAX_N = 5
ORACLE_MAX_N = 5
DEFAULT_TOL = 1e-9
VERIFY_MAX_TERMS = 2 ** 25
VERIFY_SAMPLES = 1000


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class VerificationError(RuntimeError):
    """A numerical identity that must hold failed beyond tolerance."""


def max_generators() -> int:
    """Current generator-count cap (INFODIAGRAM_MAX_N overrides the default)."""
    raw = os.environ.get("INFODIAGRAM_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DomainError(f"INFODIAGRAM_MAX_N must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise DomainError(f"INFODIAGRAM_MAX_N must be >= 1, got {cap}")
    return cap


def _is_int(x) -> bool:
    """An int that is not a bool: the one integer rule for counts, masks, indices and subset keys."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_samples(samples) -> None:
    if not _is_int(samples) or samples < 0:
        raise DomainError(f"samples must be an int >= 0, got {samples!r}")


def _scale(values) -> float:
    """``max(1, max |v|)`` over the finite ``values``: the magnitude that
    roundoff in sums and differences of them grows with (Higham 2002, §4.2).
    A non-finite value widens no bound."""
    magnitudes = np.abs(values)
    return float(np.max(magnitudes, initial=1.0, where=np.isfinite(magnitudes)))


def _passes(gap: float, tol: float, scale: float) -> bool:
    """The one tolerance rule for the gap of an identity that Hu's theorem
    makes exact, so that any gap is roundoff: it passes when it is at most
    ``tol * scale``, ``scale`` being :func:`_scale` of the values the
    identity is made of, an instance's totals vector.  A NaN gap fails."""
    return gap <= tol * scale


def _check_n(n: int) -> None:
    cap = max_generators()
    if not _is_int(n) or n < 1 or n > cap:
        raise DomainError(
            f"generator count n={n} outside 1..{cap} "
            "(raise the cap with INFODIAGRAM_MAX_N)"
        )


def _check_vector(n: int, values, what: str) -> tuple:
    """``values`` as a tuple of 2**n floats, one per subset mask.

    The cap on ``n`` is checked first, so an oversized vector is never read;
    ``what`` names the entries in the messages.
    """
    _check_n(n)
    vals = []
    for v in values:
        try:
            vals.append(float(v))
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"{what} must be real numbers, got {v!r}") from None
    if len(vals) != 1 << n:
        raise DomainError(f"need {1 << n} {what} for n={n}, got {len(vals)}")
    return tuple(vals)


def _check_element(mask: int, n: int, what: str = "element") -> None:
    if type(mask) is not int and not _is_int(mask):  # a plain int skips the call on this hot path
        raise DomainError(f"{what} mask {mask!r} is a {type(mask).__name__}, not an int")
    if mask < 0 or mask >= (1 << n):
        raise DomainError(f"{what} mask {mask} is not a subset of 1..{n}")


def _check_term(l_masks, j_mask: int, n: int) -> tuple:
    """``l_masks`` as a tuple, checked with ``j_mask`` as the arguments of a
    conditional interaction term of degree ``len(l_masks) >= 1``."""
    l_masks = tuple(l_masks)
    if not l_masks:
        raise DomainError("interaction needs at least one argument (q >= 1)")
    for l in l_masks:
        _check_element(l, n, "interaction")
    _check_element(j_mask, n, "conditioning")
    return l_masks


def mask_of(indices) -> int:
    """Bitmask of a collection of 1-based generator indices."""
    if not hasattr(indices, "__iter__"):  # 5 or None: refused by name, not by a bare TypeError
        raise DomainError(f"generator indices must be a collection of 1-based ints, got {indices!r}")
    return _mask_within(indices, math.inf)


def _mask_within(indices, n) -> int:
    """The bitmask of 1-based generator indices, each read once, or -1, a
    mask no range check accepts, when one lies past ``n``: the mask of such
    an index, 2**index, is never built.  An index that is not a positive
    int is a DomainError wherever it stands."""
    mask = 0
    for i in indices:
        if type(i) is not int and not _is_int(i) or i < 1:  # a plain int skips the call on this hot path
            raise DomainError(f"generator indices are 1-based positive ints, got {i!r}")
        if i > n:
            mask = -1
        elif mask >= 0:
            mask |= 1 << (i - 1)
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based generator indices of a bitmask."""
    if not _is_int(mask) or mask < 0:
        raise DomainError(f"mask {mask!r} is not a nonnegative int")
    return tuple([i + 1 for i in range(mask.bit_length()) if mask >> i & 1])  # a list: a generator raised peak RSS


def atoms(n: int) -> list[int]:
    """All 2**n - 1 atoms of the n-set diagram, in ascending mask order."""
    _check_n(n)
    return list(range(1, 1 << n))


def circle_region(i_mask: int, n: int) -> int:
    """Region covered by the union of the circles of the generators in ``i_mask``.

    An atom ``a`` lies under some circle of ``i_mask`` iff ``a & i_mask`` is
    nonzero; the empty element covers the empty region.
    """
    _check_n(n)
    _check_element(i_mask, n)
    region = 0
    for a in range(1, 1 << n):
        if a & i_mask:
            region |= 1 << (a - 1)
    return region


def hu_region(l_masks, j_mask: int, n: int) -> int:
    """Region whose measure is the conditional interaction of the ``l_masks``.

    Returns the intersection of the circle regions of the ``l_masks`` minus
    the circle region of ``j_mask``; membership reduces to the atom rule
    ``a & l != 0`` for every ``l`` and ``a & j == 0``.
    """
    _check_n(n)
    l_masks = _check_term(l_masks, j_mask, n)
    region = 0
    for a in range(1, 1 << n):
        if a & j_mask:
            continue
        if all(a & l for l in l_masks):
            region |= 1 << (a - 1)
    return region


def region_atoms(region: int) -> list[int]:
    """Atoms of a region bitset, in ascending mask order."""
    # bit a - 1 names atom a, as bit i - 1 names generator i
    return list(indices_of(region))


def _submasks_ascending(mask: int) -> list[int]:
    # standard submask walk runs descending; reverse for the fixed
    # ascending accumulation order
    subs = []
    s = mask
    while True:
        subs.append(s)
        if s == 0:
            break
        s = (s - 1) & mask
    subs.reverse()
    return subs


@dataclass
class ChainRuleInstance:
    """A chain-rule function as its totals vector plus an optional conditional.

    ``totals[K]`` is ``F1(X_K)`` for every mask ``K`` of one fixed context
    (a distribution, a distribution pair, a set function, ...), stored as
    a tuple of 2**n floats; ``totals[0]`` should be 0.

    ``k1(y, z)`` evaluates the degree-1 conditional term for monoid
    elements given as bitmasks.  When omitted it is the totals difference
    ``totals[y | z] - totals[z]``, which the chain rule forces; an
    instance that passes its own ``k1`` (an independent route, such as an
    averaged-conditioning action) must satisfy ``k1(0, z) == 0`` and
    ``totals[y] + k1(z | y) == totals[y | z]`` within the working
    tolerance, and :func:`check_chain_rule` tests exactly that.

    Instances whose chain rule comes from an averaged-conditioning action
    may also carry the function-valued form: ``f1(mask)`` lifts an element
    to a function object, ``action(F, mask)`` conditions such an object,
    and ``evaluate(F)`` evaluates it at the fixed context.  The function
    objects must support ``+`` and ``-`` so that the action axioms can be
    spot-checked (:func:`validate_action_form`).
    """

    n: int
    totals: tuple
    k1: Callable[[int, int], float] | None = None
    f1: Callable[[int], Any] | None = None
    action: Callable[[Any, int], Any] | None = None
    evaluate: Callable[[Any], float] | None = None
    meta: dict = field(default_factory=dict)
    # k1(y | z) as _k1_cache[y][z]: int keys, so a read builds and hashes no tuple.  Not
    # an __init__ argument, so a dataclasses.replace copy starts with an empty memo
    _k1_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.totals = _check_vector(self.n, self.totals, "totals")
        if self.k1 is None:
            totals = self.totals
            self.k1 = lambda y_mask, z_mask: totals[y_mask | z_mask] - totals[z_mask]

    def k1c(self, y_mask: int, z_mask: int) -> float:
        """Memoized ``k1``, and the only caller of ``k1``: :func:`interaction`
        reads its terms from this memo and sends a missing term here."""
        try:
            return self._k1_cache[y_mask][z_mask]
        except KeyError:
            val = float(self.k1(y_mask, z_mask))
            self._k1_cache.setdefault(y_mask, {})[z_mask] = val
            return val

    def total(self, y_mask: int) -> float:
        """Unconditional degree-1 value ``F1(X_y)`` of a joint element."""
        return self.totals[y_mask]

    def has_action_form(self) -> bool:
        return self.f1 is not None and self.action is not None and self.evaluate is not None


def atom_measure(inst: ChainRuleInstance, i_mask: int) -> float:
    """Closed-form measure of the atom ``i_mask``; the oracle for :func:`atom_table`.

    Expands the alternating inclusion-exclusion sum

        sum over S subset of I of (-1)**(|S| + 1) * F1(X_(S union I^c))

    where ``F1`` is the totals vector and ``I^c`` is the complement of
    ``I``; the empty joint (only reachable when ``I`` is the full set) is
    skipped since ``F1(0) = 0``.  Each call sums O(2**|I|) totals in
    ascending submask order.
    """
    _check_element(i_mask, inst.n, "atom")
    if i_mask == 0:
        raise DomainError("atoms are nonempty subsets; got the empty mask")
    comp = ((1 << inst.n) - 1) & ~i_mask
    total = 0.0
    for sub in _submasks_ascending(i_mask):
        k = sub | comp
        if k == 0:
            continue
        if sub.bit_count() & 1:
            total += inst.total(k)
        else:
            total -= inst.total(k)
    return total


def atom_table(inst: ChainRuleInstance) -> dict[int, float]:
    """Measure of every atom, keyed by atom mask, ascending.

    The closed form of :func:`atom_measure` is ``eta(I) = -mu(I^c)``, where
    ``mu`` is the superset Moebius transform of the totals vector ``F1``
    (entry 0 is taken as ``F1(0) = 0``).  One butterfly pass per generator
    computes ``mu`` in n * 2**n operations, against O(3**n) for the atoms
    one by one.
    """
    size = 1 << inst.n
    mu = np.array(inst.totals)
    mu[0] = 0.0
    for i in range(inst.n):
        view = mu.reshape(-1, 2, 1 << i)
        view[:, 0, :] -= view[:, 1, :]
    # 0.0 - x rather than -x, so that zero atoms are +0.0 and serialize as 0.0
    eta = 0.0 - mu[::-1]
    return dict(zip(range(1, size), eta[1:].tolist()))


def _subset_zeta(values: dict[int, float], n: int) -> np.ndarray:
    """``zeta[S]``: sum of the atom values inside ``S`` (the empty atom is 0).

    The atoms meeting a mask ``K`` sum to ``zeta[full] - zeta[full ^ K]``.
    """
    size = 1 << n
    zeta = np.zeros(size)
    zeta[1:] = [values[a] for a in range(1, size)]
    for i in range(n):
        view = zeta.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    return zeta


# verify_hu fills its residuals in blocks of _REGION_BLOCK_TERMS >> q_max
# rows: each block takes its lhs from the next rows' interaction calls and
# its rhs from one _region_sums call per degree, so no temporary grows with
# the table.  On the n = 5, q = 3 rows of an exhaustive sweep (2 vCPUs)
# 2**15 took 8 ms, 2**18 7 ms and 2**10 59 ms of region sums
_REGION_BLOCK_TERMS = 1 << 15


def _region_sums(zeta: np.ndarray, l_cols: np.ndarray, j_col: np.ndarray) -> np.ndarray:
    """Measure of the Hu region of each row ``(l_cols[r], j_col[r])``.

    By inclusion-exclusion the Hu region of ``(L, j)`` measures
    ``sum over S of (-1)**|S| * zeta[full ^ (j | L_S)]``, where ``L_S`` is
    the union of the masks indexed by ``S``.  The index subsets ``S`` run
    in binary order (bit ``p`` of ``S`` takes ``L[p]``), and each row's
    terms are added to 0.0 one after another in that order, so every sum
    is the one a plain loop over the terms gives, to the bit.
    """
    full = len(zeta) - 1
    terms = [(False, j_col)]  # (|S| odd, j | L_S)
    for p in range(l_cols.shape[1]):
        terms += [(not odd, union | l_cols[:, p]) for odd, union in terms]
    acc = np.zeros(len(j_col))
    for odd, union in terms:
        if odd:
            acc -= zeta[full ^ union]
        else:
            acc += zeta[full ^ union]
    return acc


def region_measure(inst: ChainRuleInstance, region: int) -> float:
    """Measure of a region: sum of its atom measures, ascending mask order."""
    total = 0.0
    for a in region_atoms(region):
        total += atom_measure(inst, a)
    return total


def interaction(inst: ChainRuleInstance, l_masks, j_mask: int = 0) -> float:
    """Conditional interaction term of degree ``len(l_masks)`` given ``j_mask``.

    Defined recursively: degree 1 is ``k1(l | j)``, and each higher degree
    subtracts a copy conditioned additionally on its last argument, so a
    degree-q term is a signed sum of 2**(q - 1) conditional terms
    ``k1(a | w)``.  The terms are read from the memo that
    :meth:`ChainRuleInstance.k1c` fills, and a term missing from it is
    evaluated through ``k1c``, so ``k1`` is reached only through ``k1c``.
    A node of degree 3 or less is one expression over the memo, e.g.
    ``(k1(a | j) - k1(a | b OR j)) - (k1(a | c OR j) - k1(a | b OR c OR j))``:
    the same terms, subtracted in the same order, as the recursion down to
    degree 1 gives, so every value is that recursion's to the bit.  A
    higher degree splits on its last argument down to such nodes.  The
    arguments are sorted first, which canonicalizes their order; a tuple of
    plain ints already sorted and in range, with a plain-int ``j_mask`` in
    range, as every check of :func:`verify_hu` is, is taken as it is, and
    any other arguments are checked by :func:`_check_term` and sorted.
    """
    size = 1 << inst.n
    if type(l_masks) is tuple and l_masks and type(j_mask) is int and 0 <= j_mask < size:
        low = 0  # not -1: a mask below 0 is refused
        for m in l_masks:
            if type(m) is not int or not low <= m < size:
                break
            low = m
        else:
            return _interaction_node(inst, l_masks, j_mask)
    return _interaction_node(inst, sorted(_check_term(l_masks, j_mask, inst.n)), j_mask)


def _interaction_node(inst: ChainRuleInstance, prefix, z: int) -> float:
    q = len(prefix)
    if q > 3:
        rest = prefix[:-1]
        return _interaction_node(inst, rest, z) - _interaction_node(inst, rest, prefix[-1] | z)
    memo, a = inst._k1_cache, prefix[0]
    try:
        row = memo[a]
        if q == 3:
            _, b, c = prefix
            bz = b | z
            return (row[z] - row[bz]) - (row[c | z] - row[c | bz])
        if q == 2:
            return row[z] - row[prefix[1] | z]
        return row[z]
    except KeyError as miss:  # k1c evaluates and memoizes the first term missing; read the node again
        inst.k1c(a, miss.args[0] if a in memo else z)
        return _interaction_node(inst, prefix, z)


def interaction_incl_excl(inst: ChainRuleInstance, l_masks, j_mask: int = 0) -> float:
    """Interaction term via the 2**q-term inclusion-exclusion sum.

    Evaluates ``sum over K subset of {1..q} of (-1)**(|K| + 1) * F1(Y_K | j)``
    where ``Y_K`` is the join of the arguments indexed by ``K`` (the empty
    ``K`` contributes ``-F1(j)``).  Independent of :func:`interaction`;
    the two must agree within tolerance, which makes this an oracle for the
    recursion and vice versa.
    """
    l_masks = _check_term(l_masks, j_mask, inst.n)
    q = len(l_masks)
    total = 0.0
    for kset in range(1 << q):
        y = 0
        for pos in range(q):
            if kset & (1 << pos):
                y |= l_masks[pos]
        term = inst.total(y | j_mask)
        if kset.bit_count() & 1:
            total += term
        else:
            total -= term
    return total


def atom_interaction(inst: ChainRuleInstance, i_mask: int) -> float:
    """Atom value as the fully conditioned interaction of its singletons.

    For ``I = {i_1 < ... < i_q}`` this is the degree-q interaction of the
    single generators in ``I`` conditioned on everything outside ``I``; it
    equals :func:`atom_measure` within tolerance, which is the identity
    that pins the diagram's smallest cells.
    """
    _check_element(i_mask, inst.n, "atom")
    if i_mask == 0:
        raise DomainError("atoms are nonempty subsets; got the empty mask")
    singles = [1 << (i - 1) for i in indices_of(i_mask)]
    outside = ((1 << inst.n) - 1) & ~i_mask
    return interaction(inst, singles, outside)


def mobius_oracle(inst: ChainRuleInstance, tol: float = DEFAULT_TOL) -> dict[int, float]:
    """Atom values recovered by a dense linear solve, independent of the closed form.

    One equation per nonempty ``K``: the atom values under the circle union
    of ``K`` must sum to ``F1(X_K)``.  The (2**n - 1)-square system is
    uniquely solvable; a residual beyond ``tol * max(1, max |F1|)``
    (:func:`_passes`) is reported as an internal error because it cannot
    occur for real-valued input.
    """
    n = inst.n
    if n > ORACLE_MAX_N:
        raise DomainError(f"mobius_oracle solves a dense 2**n - 1 system; n={n} exceeds cap {ORACLE_MAX_N}")
    m = (1 << n) - 1
    a = np.zeros((m, m))
    b = np.zeros(m)
    for k in range(1, m + 1):
        b[k - 1] = inst.total(k)
        for i in range(1, m + 1):
            if i & k:
                a[k - 1, i - 1] = 1.0
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:  # unreachable for this incidence matrix
        raise VerificationError(f"internal error: atom system reported singular: {exc}") from exc
    residual = float(np.max(np.abs(a @ x - b)))
    scale = _scale(inst.totals)
    if not _passes(residual, tol, scale):
        raise VerificationError(
            f"internal error: atom system residual {residual:.3e} exceeds tolerance {tol * scale:.1e}"
        )
    return {i: float(x[i - 1]) for i in range(1, m + 1)}


def check_chain_rule(inst: ChainRuleInstance, tol: float = DEFAULT_TOL,
                     samples: int | None = None, seed: int = 0):
    """Residuals of the instance's chain rule: its conditional against its totals.

    Checks ``k1(0 | z) == 0`` and ``F1(y) + k1(z | y) == F1(y|z)``, where
    ``F1`` is the totals vector, exhaustively over all element pairs, or
    over ``samples`` random pairs when given.  Returns ``(max_gap,
    violations)`` where violations is the list of ``(y, z, gap)`` beyond
    ``tol * max(1, max |F1|)`` (:func:`_passes`); a NaN gap is a violation,
    and the first one is ``max_gap``.
    """
    n = inst.n
    size = 1 << n
    if samples is None:
        pairs = ((y, z) for y in range(size) for z in range(size))
    else:
        _check_samples(samples)
        rng = random.Random(seed)
        pairs = ((rng.randrange(size), rng.randrange(size)) for _ in range(samples))
    scale = _scale(inst.totals)
    gaps = [0.0]
    violations = []
    seen_neutral = set()
    for y, z in pairs:
        if z not in seen_neutral:
            seen_neutral.add(z)
            gaps.append(abs(inst.k1c(0, z)))
            if not _passes(gaps[-1], tol, scale):
                violations.append((0, z, gaps[-1]))
        gaps.append(abs(inst.total(y | z) - inst.total(y) - inst.k1c(z, y)))
        if not _passes(gaps[-1], tol, scale):
            violations.append((y, z, gaps[-1]))
    return gaps[_worst_index(gaps)], violations


def validate_action_form(inst: ChainRuleInstance, tol: float = DEFAULT_TOL,
                         samples: int = 24, seed: int = 0) -> float:
    """Spot-check the averaged-conditioning action behind an instance.

    Verifies, at sampled elements and lifted functions, that the neutral
    element acts trivially, that acting twice equals acting by the join,
    that the action is additive, and that ``k1(y, z)`` agrees with
    evaluating the acted-on lift.  These axioms cannot be dropped: the
    diagram identities fail for a non-action "conditioning".  Returns the
    max gap; raises :class:`VerificationError` beyond ``tol * max(1, max
    |F1|)`` over the totals ``F1`` (:func:`_passes`).
    """
    if not inst.has_action_form():
        raise DomainError("instance carries no action form (f1/action/evaluate)")
    _check_samples(samples)
    rng = random.Random(seed)
    size = 1 << inst.n
    ev = inst.evaluate
    checked = [(0.0, "nothing checked")]
    for _ in range(samples):
        x = rng.randrange(size)
        y = rng.randrange(size)
        f = inst.f1(rng.randrange(size))
        g = inst.f1(rng.randrange(size))
        checked += (
            (abs(ev(inst.action(f, 0)) - ev(f)), "neutral action"),
            (abs(ev(inst.action(inst.action(f, y), x)) - ev(inst.action(f, x | y))),
             "action associativity"),
            (abs(ev(inst.action(f + g, x)) - ev(inst.action(f, x)) - ev(inst.action(g, x))),
             "action additivity"),
            (abs(ev(inst.action(f - g, x)) - ev(inst.action(f, x)) + ev(inst.action(g, x))),
             "action additivity (difference)"),
            (abs(inst.k1c(y, x) - ev(inst.action(inst.f1(y), x))),
             "two-argument form vs action"),
        )
    worst = checked[_worst_index([gap for gap, _ in checked])]
    scale = _scale(inst.totals)
    if not _passes(worst[0], tol, scale):
        raise VerificationError(f"action axiom '{worst[1]}' violated by {worst[0]:.3e} (tol {tol * scale:.1e})")
    return worst[0]


class Residual(NamedTuple):
    """One verified identity: interaction value vs. measure of its region."""

    q: int
    l_masks: tuple[int, ...]
    j_mask: int
    lhs: float
    rhs: float
    gap: float


class _ResidualColumns(Sequence):
    """A sweep's residuals as six columns, read as a sequence of :class:`Residual`.

    ``q``, the L masks ``l`` (one row of ``q_max`` entries per check,
    padded with 0 past its ``q``) and ``j`` are small unsigned integers,
    masks of ``n`` generators; ``lhs``, ``rhs`` and ``gap`` are float64.
    The view assigns no rows: each read, by index or by iteration, builds
    a fresh ``Residual`` of Python ints and floats from the columns and
    keeps none, so a value written to a column reaches every later read.
    The view equals a list, or another view, with equal rows.
    """

    def __init__(self, checks: int, q_max: int, n: int):
        self.n = n
        mask = np.min_scalar_type((1 << n) - 1)
        self.q = np.zeros(checks, dtype=np.min_scalar_type(q_max))
        self.l = np.zeros((checks, q_max), dtype=mask)
        self.j = np.zeros(checks, dtype=mask)
        self.lhs = np.zeros(checks)
        self.rhs = np.zeros(checks)
        self.gap = np.zeros(checks)

    def __len__(self) -> int:
        return len(self.gap)

    def __getitem__(self, i):
        k = range(len(self))[i]  # a range for a slice
        if isinstance(k, range):
            return [self[x] for x in k]
        q = int(self.q[k])
        return Residual(q, tuple(self.l[k, :q].tolist()), int(self.j[k]),
                        self.lhs[k].item(), self.rhs[k].item(), self.gap[k].item())

    def __iter__(self):
        columns = (self.q, self.l, self.j, self.lhs, self.rhs, self.gap)
        for start in range(0, len(self), 1024):
            chunk = [column[start:start + 1024].tolist() for column in columns]
            for q, l_row, j, lhs, rhs, gap in zip(*chunk):
                yield Residual(q, tuple(l_row[:q]), j, lhs, rhs, gap)

    def __eq__(self, other) -> bool:
        if other is self:  # as a list does, though a row with a NaN equals no row
            return True
        if not isinstance(other, (list, _ResidualColumns)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def _worst_index(gaps) -> int:
    """The index of the first NaN gap, else of the first largest gap."""
    return int(np.argmax(gaps))  # argmax stops at the first NaN


@dataclass
class DiagramReport:
    """Result of a full diagram verification sweep.

    ``residuals`` is a sequence of :class:`Residual`; :func:`verify_hu`
    gives a read-only view of six columns, whose rows are built on read
    and not kept.  :meth:`worst` reads its ``gap`` column, so a gap
    written there reaches it; ``max_residual`` is the worst gap as the
    report was made.  ``zeta`` is the subset zeta transform of
    ``atom_values``: ``zeta[S]`` sums the atoms inside ``S``.  The report
    passes when ``max_residual`` is at most ``tolerance * scale``
    (:func:`_passes`); :func:`verify_hu` sets ``scale`` to ``max(1, max
    |F1|)`` over the instance's totals, and a report built by hand is held
    to ``tolerance`` alone.
    """

    atom_values: dict[int, float]
    residuals: Sequence[Residual]
    max_residual: float
    tolerance: float
    mode: str
    chain_residual: float | None = None
    zeta: list[float] = field(default_factory=list, repr=False)
    scale: float = 1.0

    @property
    def passed(self) -> bool:
        return _passes(self.max_residual, self.tolerance, self.scale)

    def worst(self) -> Residual:
        """The first residual with a NaN gap, else the first with the largest gap."""
        rows = self.residuals
        return rows[_worst_index(rows.gap if isinstance(rows, _ResidualColumns) else [r.gap for r in rows])]


def _sweep_plan(n: int, q_max: int, mode: str = "auto", samples: int = VERIFY_SAMPLES) -> tuple[str, int]:
    """``(mode, checks)`` of a sweep of degree <= ``q_max`` over n generators,
    or a :class:`DomainError` for one past its caps, which depend on n alone.
    ``auto`` checks every sorted q-tuple against every conditioning element
    up to n = ``VERIFY_EXHAUSTIVE_MAX_N`` and draws ``samples`` checks beyond."""
    if not (_is_int(q_max) and _is_int(samples)) or q_max < 1:
        raise DomainError(f"q_max must be an int >= 1 and samples an int, got {q_max!r} and {samples!r}")
    if mode == "auto":
        mode = "exhaustive" if n <= VERIFY_EXHAUSTIVE_MAX_N else "sampled"
    if mode not in ("exhaustive", "sampled"):
        raise DomainError(f"verify mode {mode!r} is not 'auto', 'exhaustive' or 'sampled'")
    if mode == "exhaustive" and n > VERIFY_EXHAUSTIVE_MAX_N:
        raise DomainError(f"exhaustive verification is capped at n={VERIFY_EXHAUSTIVE_MAX_N}, got n={n}")
    if mode == "sampled" and samples < 1:
        raise DomainError(f"sampled verification needs samples >= 1, got {samples}")
    # a degree-q check reads at most 2**q terms; checks >= 1, so a q_max at
    # or past the cap's bit length is refused without counting the checks
    if q_max < VERIFY_MAX_TERMS.bit_length():
        size = 1 << n
        checks = samples if mode == "sampled" else sum(math.comb(size + q - 1, q) for q in range(1, q_max + 1)) * size
        if checks * 2 ** q_max <= VERIFY_MAX_TERMS:
            return mode, checks
    raise DomainError(f"verification sweep at q_max={q_max} exceeds the cap of {VERIFY_MAX_TERMS} terms "
                      "(checks * 2**q_max)")


def verify_hu(inst: ChainRuleInstance, q_max: int = 3, tol: float = DEFAULT_TOL,
              mode: str = "auto", samples: int = VERIFY_SAMPLES, seed: int = 0,
              check_chain: bool = True) -> DiagramReport:
    """Check every diagram identity of degree <= ``q_max`` for an instance.

    For each tuple of interaction arguments and each conditioning element,
    compares the recursive interaction term, which goes through the
    instance's own ``k1`` (one :func:`interaction` call per check), against
    the measure of its region, which comes from the atom table: an
    inclusion-exclusion of 2**q lookups in the subset zeta transform of the
    atoms (kept as ``DiagramReport.zeta``), gathered in numpy.
    :func:`_sweep_plan` gives the mode and check count, and refuses a sweep
    past its caps before any work.  An exhaustive sweep takes argument tuples
    as sorted multisets (the interaction canonicalizes order, so permutations
    are float-identical); a sampled one draws its checks with a fixed seed.

    The residuals are six preallocated columns (q, the L masks padded to
    ``q_max``, J, lhs, rhs and gap), read as :class:`Residual` rows.  Each
    mode fills q, L and J and yields its checks in row order; one pass over
    row blocks takes each block's lhs from the next checks and its rhs from
    one region-sum gather per degree, so nothing else grows with the table.

    Every gap, of the sweep and of the chain check, is held to ``tol *
    max(1, max |F1|)`` over the instance's totals ``F1`` (:func:`_passes`):
    the identities are exact, and roundoff grows with the totals.  If the
    instance's conditional disagrees with its totals beyond that bound, a
    :class:`VerificationError` naming the violating (Y, Z) pairs is raised
    first (disable with ``check_chain=False`` to see the identity residuals
    of a broken instance).
    """
    n = inst.n
    mode, checks = _sweep_plan(n, q_max, mode, samples)
    size = 1 << n

    chain_samples = None if mode == "exhaustive" else samples
    chain_gap = None
    if check_chain:
        chain_gap, violations = check_chain_rule(inst, tol, samples=chain_samples, seed=seed)
        if violations:
            shown = ", ".join(
                f"(Y={indices_of(y)}, Z={indices_of(z)}, gap={gap:.3e})" for y, z, gap in violations[:5]
            )
            raise VerificationError(
                f"instance violates its chain rule at {len(violations)} element pair(s): {shown}"
            )

    values = atom_table(inst)
    zeta = _subset_zeta(values, n)
    res = _ResidualColumns(checks, q_max, n)

    if mode == "exhaustive":
        start = 0
        for q in range(1, q_max + 1):
            tuples = list(combinations_with_replacement(range(size), q))
            rows = slice(start, start + len(tuples) * size)
            res.q[rows] = q
            # each L tuple heads `size` rows, one per J
            res.l[rows].reshape(len(tuples), size, q_max)[:, :, :q] = np.array(tuples)[:, None, :]
            res.j[rows].reshape(len(tuples), size)[:] = np.arange(size)
            start = rows.stop
        lhs = (interaction(inst, l_tuple, j) for q in range(1, q_max + 1)
               for l_tuple in combinations_with_replacement(range(size), q) for j in range(size))
    else:
        def draws():  # writes each row's q, L and J as the block loop reads its lhs
            rng = random.Random(seed)
            for i in range(samples):
                q = rng.randint(1, q_max)
                l_tuple = tuple(sorted(rng.randrange(size) for _ in range(q)))
                j = rng.randrange(size)
                res.q[i], res.l[i, :q], res.j[i] = q, l_tuple, j
                yield interaction(inst, l_tuple, j)

        lhs = draws()
    step = max(1, _REGION_BLOCK_TERMS >> q_max)
    for start in range(0, checks, step):
        block = slice(start, start + step)
        q_col, l_cols, j_col = res.q[block], res.l[block], res.j[block]
        res.lhs[block] = np.fromiter(lhs, float, len(q_col))
        for q in set(q_col.tolist()):  # the degrees in the block
            rows = np.flatnonzero(q_col == q)
            res.rhs[block][rows] = _region_sums(zeta, l_cols[rows, :q], j_col[rows])
    np.abs(np.subtract(res.lhs, res.rhs, out=res.gap), out=res.gap)

    return DiagramReport(
        atom_values=values,
        residuals=res,
        max_residual=res.gap[_worst_index(res.gap)].item(),  # NaN if any gap is, which fails the report
        tolerance=tol,
        mode=mode,
        chain_residual=chain_gap,
        zeta=zeta.tolist(),
        scale=_scale(inst.totals),
    )


def relative_instance(inst: ChainRuleInstance, y_fixed=(), z_fixed: int = 0) -> ChainRuleInstance:
    """Instance of the interaction terms relative to fixed arguments and conditioning.

    The derived degree-1 term is ``k1'(v | w) = K_(p+1)(Y_1; ...; Y_p; v |
    w join z_fixed)``, so the derived degree-q terms are the original
    degree-(p+q) terms with the fixed block prepended and ``z_fixed`` mixed
    into the conditioning; its totals are ``k1'(K | 0)``.  The derived
    instance satisfies the chain rule whenever the original does and
    passes verification on its own.
    """
    y_fixed = tuple(y_fixed)
    for y in y_fixed:
        _check_element(y, inst.n, "fixed argument")
    _check_element(z_fixed, inst.n, "fixed conditioning")

    def derived_k1(v_mask: int, w_mask: int) -> float:
        return interaction(inst, y_fixed + (v_mask,), w_mask | z_fixed)

    meta = dict(inst.meta)
    meta["relative"] = {
        "fixed": [list(indices_of(y)) for y in y_fixed],
        "given": list(indices_of(z_fixed)),
    }
    totals = [derived_k1(k, 0) for k in range(1 << inst.n)]
    return ChainRuleInstance(n=inst.n, totals=totals, k1=derived_k1, meta=meta)
