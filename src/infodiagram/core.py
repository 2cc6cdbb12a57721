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

All operations are pure functions of immutable inputs (instance caches are
only ever filled with recomputable values), so everything here is safe to
call from multiple threads; every transform and sum runs in a fixed order,
making each value deterministic regardless of scheduling.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Any, Callable, NamedTuple

import numpy as np

DEFAULT_MAX_N = 12
VERIFY_EXHAUSTIVE_MAX_N = 5
ORACLE_MAX_N = 5
DEFAULT_TOL = 1e-9
VERIFY_MAX_TERMS = 2 ** 25


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


def _check_n(n: int) -> None:
    cap = max_generators()
    if isinstance(n, bool) or not isinstance(n, int) or n < 1 or n > cap:
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
    if not isinstance(mask, int) or mask < 0 or mask >= (1 << n):
        raise DomainError(f"{what} mask {mask} is not a subset of 1..{n}")


def mask_of(indices) -> int:
    """Bitmask of a collection of 1-based generator indices."""
    mask = 0
    for i in indices:
        if not isinstance(i, int) or i < 1:
            raise DomainError(f"generator indices are 1-based positive ints, got {i!r}")
        mask |= 1 << (i - 1)
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based generator indices of a bitmask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


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
    l_masks = tuple(l_masks)
    if not l_masks:
        raise DomainError("hu_region needs at least one interaction argument (q >= 1)")
    for l in l_masks:
        _check_element(l, n, "interaction")
    _check_element(j_mask, n, "conditioning")
    region = 0
    for a in range(1, 1 << n):
        if a & j_mask:
            continue
        if all(a & l for l in l_masks):
            region |= 1 << (a - 1)
    return region


def region_atoms(region: int) -> list[int]:
    """Atoms of a region bitset, in ascending mask order."""
    out = []
    a = 1
    while region:
        if region & 1:
            out.append(a)
        region >>= 1
        a += 1
    return out


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
    _k1_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.totals = _check_vector(self.n, self.totals, "totals")
        if self.k1 is None:
            totals = self.totals
            self.k1 = lambda y_mask, z_mask: totals[y_mask | z_mask] - totals[z_mask]

    def k1c(self, y_mask: int, z_mask: int) -> float:
        """Memoized ``k1``; the recursion revisits shared terms exponentially often."""
        key = (y_mask, z_mask)
        val = self._k1_cache.get(key)
        if val is None:
            val = float(self.k1(y_mask, z_mask))
            self._k1_cache[key] = val
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


def _subset_zeta(values: dict[int, float], n: int) -> list[float]:
    """``zeta[S]``: sum of the atom values inside ``S`` (the empty atom is 0).

    The atoms meeting a mask ``K`` sum to ``zeta[full] - zeta[full ^ K]``.
    """
    size = 1 << n
    zeta = np.zeros(size)
    zeta[1:] = [values[a] for a in range(1, size)]
    for i in range(n):
        view = zeta.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    return zeta.tolist()


def _region_terms(l_masks) -> list[tuple[bool, int]]:
    """``(|S| odd, union of l_masks[S])`` for every index subset ``S``.

    By inclusion-exclusion the Hu region of ``(l_masks, j)`` measures
    ``sum over S of (-1)**|S| * zeta[full ^ (j | L_S)]``.
    """
    terms = [(False, 0)]
    for l in l_masks:
        terms += [(not odd, union | l) for odd, union in terms]
    return terms


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
    degree-q term makes 2**(q - 1) calls of the memoized ``k1``.  The
    arguments are sorted first, which canonicalizes their order.
    """
    l_masks = tuple(l_masks)
    if not l_masks:
        raise DomainError("interaction needs at least one argument (q >= 1)")
    for l in l_masks:
        _check_element(l, inst.n, "interaction")
    _check_element(j_mask, inst.n, "conditioning")
    return _interaction_rec(inst, tuple(sorted(l_masks)), j_mask)


def _interaction_rec(inst: ChainRuleInstance, prefix: tuple[int, ...], z_mask: int) -> float:
    if len(prefix) == 1:
        return inst.k1c(prefix[0], z_mask)
    rest = prefix[:-1]
    return _interaction_rec(inst, rest, z_mask) - _interaction_rec(inst, rest, prefix[-1] | z_mask)


def interaction_incl_excl(inst: ChainRuleInstance, l_masks, j_mask: int = 0) -> float:
    """Interaction term via the 2**q-term inclusion-exclusion sum.

    Evaluates ``sum over K subset of {1..q} of (-1)**(|K| + 1) * F1(Y_K | j)``
    where ``Y_K`` is the join of the arguments indexed by ``K`` (the empty
    ``K`` contributes ``-F1(j)``).  Independent of :func:`interaction`;
    the two must agree within tolerance, which makes this an oracle for the
    recursion and vice versa.
    """
    l_masks = tuple(l_masks)
    q = len(l_masks)
    if q == 0:
        raise DomainError("interaction needs at least one argument (q >= 1)")
    for l in l_masks:
        _check_element(l, inst.n, "interaction")
    _check_element(j_mask, inst.n, "conditioning")
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
    uniquely solvable; a residual beyond ``tol`` is reported as an internal
    error because it cannot occur for real-valued input.
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
    residual = float(np.max(np.abs(a @ x - b))) if m else 0.0
    scale = max(1.0, float(np.max(np.abs(b)))) if m else 1.0
    if not residual <= tol * scale:
        raise VerificationError(
            f"internal error: atom system residual {residual:.3e} exceeds tolerance {tol:.1e}"
        )
    return {i: float(x[i - 1]) for i in range(1, m + 1)}


def check_chain_rule(inst: ChainRuleInstance, tol: float = DEFAULT_TOL,
                     samples: int | None = None, seed: int = 0):
    """Residuals of the instance's chain rule: its conditional against its totals.

    Checks ``k1(0 | z) == 0`` and ``F1(y) + k1(z | y) == F1(y|z)``, where
    ``F1`` is the totals vector, exhaustively over all element pairs, or
    over ``samples`` random pairs when given.  Returns ``(max_gap,
    violations)`` where violations is the list of ``(y, z, gap)`` beyond
    ``tol``; a NaN gap is a violation, and the first one is ``max_gap``.
    """
    n = inst.n
    size = 1 << n
    if samples is None:
        pairs = ((y, z) for y in range(size) for z in range(size))
    else:
        rng = random.Random(seed)
        pairs = ((rng.randrange(size), rng.randrange(size)) for _ in range(samples))
    max_gap = 0.0
    violations = []
    seen_neutral = set()
    for y, z in pairs:
        if z not in seen_neutral:
            seen_neutral.add(z)
            gap = abs(inst.k1c(0, z))
            if _worse(gap, max_gap):
                max_gap = gap
            if not gap <= tol:
                violations.append((0, z, gap))
        gap = abs(inst.total(y | z) - inst.total(y) - inst.k1c(z, y))
        if _worse(gap, max_gap):
            max_gap = gap
        if not gap <= tol:
            violations.append((y, z, gap))
    return max_gap, violations


def validate_action_form(inst: ChainRuleInstance, tol: float = DEFAULT_TOL,
                         samples: int = 24, seed: int = 0) -> float:
    """Spot-check the averaged-conditioning action behind an instance.

    Verifies, at sampled elements and lifted functions, that the neutral
    element acts trivially, that acting twice equals acting by the join,
    that the action is additive, and that ``k1(y, z)`` agrees with
    evaluating the acted-on lift.  These axioms cannot be dropped: the
    diagram identities fail for a non-action "conditioning".  Returns the
    max gap; raises :class:`VerificationError` beyond ``tol``.
    """
    if not inst.has_action_form():
        raise DomainError("instance carries no action form (f1/action/evaluate)")
    rng = random.Random(seed)
    size = 1 << inst.n
    ev = inst.evaluate
    worst = (0.0, "nothing checked")
    for _ in range(samples):
        x = rng.randrange(size)
        y = rng.randrange(size)
        f = inst.f1(rng.randrange(size))
        g = inst.f1(rng.randrange(size))
        checks = (
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
        for gap, name in checks:
            if _worse(gap, worst[0]):
                worst = (gap, name)
    if not worst[0] <= tol:
        raise VerificationError(f"action axiom '{worst[1]}' violated by {worst[0]:.3e} (tol {tol:.1e})")
    return worst[0]


def _worse(gap: float, worst: float) -> bool:
    """Whether ``gap`` replaces ``worst``: it is larger, or the first NaN."""
    return gap > worst or (math.isnan(gap) and not math.isnan(worst))


class Residual(NamedTuple):
    """One verified identity: interaction value vs. measure of its region."""

    q: int
    l_masks: tuple[int, ...]
    j_mask: int
    lhs: float
    rhs: float
    gap: float


def _worst(residuals) -> Residual:
    """The first residual with a NaN gap, else the first with the largest gap."""
    for r in residuals:
        if math.isnan(r.gap):
            return r
    return max(residuals, key=lambda r: r.gap)


@dataclass
class DiagramReport:
    """Result of a full diagram verification sweep.

    ``zeta`` is the subset zeta transform of ``atom_values`` (see
    :func:`verify_hu`): ``zeta[S]`` sums the atoms inside ``S``.
    """

    atom_values: dict[int, float]
    residuals: list[Residual]
    max_residual: float
    tolerance: float
    mode: str
    chain_residual: float | None = None
    zeta: list[float] = field(default_factory=list, repr=False)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def worst(self) -> Residual:
        return _worst(self.residuals)


def _sweep_checks(size: int, q_max: int, mode: str, samples: int) -> int:
    """Identity checks of a sweep: every sorted q-tuple and conditioning
    element in exhaustive mode, ``samples`` in sampled mode."""
    if mode == "sampled":
        return samples
    return sum(math.comb(size + q - 1, q) for q in range(1, q_max + 1)) * size


def verify_hu(inst: ChainRuleInstance, q_max: int = 3, tol: float = DEFAULT_TOL,
              mode: str = "auto", samples: int = 1000, seed: int = 0,
              check_chain: bool = True) -> DiagramReport:
    """Check every diagram identity of degree <= ``q_max`` for an instance.

    For each tuple of interaction arguments and each conditioning element,
    compares the recursive interaction term, which goes through the
    instance's own ``k1``, against the measure of its region, which comes
    from the atom table: an inclusion-exclusion of 2**q lookups in the
    subset zeta transform of the atoms (kept as ``DiagramReport.zeta``).
    Exhaustive up to n = 5 (argument tuples are swept as sorted
    multisets; the interaction canonicalizes order, so permutations are
    float-identical); ``samples`` (at least 1) checks drawn with a fixed
    seed beyond that.  A sweep whose checks times ``2**q_max`` exceed
    ``VERIFY_MAX_TERMS`` is refused with :class:`DomainError` before any
    work.

    If the instance's conditional disagrees with its totals beyond
    ``tol``, a :class:`VerificationError` naming the violating (Y, Z)
    pairs is raised first (disable with ``check_chain=False`` to see the
    identity residuals of a broken instance).
    """
    if q_max < 1:
        raise DomainError(f"q_max must be >= 1, got {q_max}")
    n = inst.n
    if mode == "auto":
        mode = "exhaustive" if n <= VERIFY_EXHAUSTIVE_MAX_N else "sampled"
    if mode not in ("exhaustive", "sampled"):
        raise DomainError(f"verify mode {mode!r} is not 'auto', 'exhaustive' or 'sampled'")
    if mode == "exhaustive" and n > VERIFY_EXHAUSTIVE_MAX_N:
        raise DomainError(f"exhaustive verification is capped at n={VERIFY_EXHAUSTIVE_MAX_N}, got n={n}")
    if mode == "sampled" and samples < 1:
        raise DomainError(f"sampled verification needs samples >= 1, got {samples}")
    size = 1 << n
    # a degree-q check reads at most 2**q terms; checks >= 1, so a q_max at
    # or past the cap's bit length is refused without counting the checks
    if (q_max >= VERIFY_MAX_TERMS.bit_length()
            or _sweep_checks(size, q_max, mode, samples) * 2 ** q_max > VERIFY_MAX_TERMS):
        raise DomainError(
            f"verification sweep at q_max={q_max} exceeds the cap of {VERIFY_MAX_TERMS} terms "
            "(checks * 2**q_max)"
        )

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
    full = size - 1
    zeta = _subset_zeta(values, n)

    def check(q, l_tuple, terms, j):
        lhs = interaction(inst, l_tuple, j)
        rhs = 0.0
        for odd, union in terms:
            if odd:
                rhs -= zeta[full ^ (j | union)]
            else:
                rhs += zeta[full ^ (j | union)]
        return Residual(q, tuple(l_tuple), j, lhs, rhs, abs(lhs - rhs))

    residuals = []
    if mode == "exhaustive":
        for q in range(1, q_max + 1):
            for l_tuple in combinations_with_replacement(range(size), q):
                terms = _region_terms(l_tuple)
                for j in range(size):
                    residuals.append(check(q, l_tuple, terms, j))
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            q = rng.randint(1, q_max)
            l_tuple = tuple(sorted(rng.randrange(size) for _ in range(q)))
            j = rng.randrange(size)
            residuals.append(check(q, l_tuple, _region_terms(l_tuple), j))

    return DiagramReport(
        atom_values=values,
        residuals=residuals,
        max_residual=_worst(residuals).gap,  # NaN if any gap is, which fails the report
        tolerance=tol,
        mode=mode,
        chain_residual=chain_gap,
        zeta=zeta,
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
