"""Information-diagram engine for chain-rule functions on join-semilattices.

A finitely generated commutative idempotent monoid (equivalently, a
join-semilattice) with generators 1..n is encoded with bitmasks: an element
is the set of generators it contains, the product of two elements is the
bitwise OR of their masks, and the neutral element is the empty mask 0.
This makes idempotence and commutativity structural rather than checked.

Any real-valued two-argument function ``k1(y, z)`` ("value of y given z")
on such a monoid that satisfies the chain rule

    k1(y | 0) + k1(z | y) == k1(y OR z | 0)

induces a signed measure on the 2**n - 1 atoms (minimal cells) of the
generic n-set Venn diagram, and every conditional interaction term of every
degree equals the measure of an explicit region of that diagram.  That is
the mechanism behind information diagrams for Shannon entropy, and it works
verbatim for Tsallis entropy, KL-type divergences, cross-entropy,
submodular set functions, and generalization-error advantages.

This module is agnostic about where ``k1`` comes from; concrete instances
live in :mod:`infodiagram.shannon`, :mod:`infodiagram.divergences`, and
:mod:`infodiagram.setfun`.

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
By Hu's theorem every diagram quantity is a linear transform of the totals
vector ``F1(X_K) = k1(K | 0)`` over all masks ``K`` (``F1(0) = 0``).  The
atom table is its superset Moebius transform and circle unions and Hu
regions are read off the subset zeta transform of the atoms; both are
n * 2**n butterflies (Yates 1937).  :func:`atom_measure`,
:func:`region_measure` and :func:`mobius_oracle` keep the closed-form and
linear-solve routes as independent oracles for them.

All operations are pure functions of immutable inputs (instance caches are
only ever filled with recomputable values), so everything here is safe to
call from multiple threads; every transform and sum runs in a fixed order,
making each value deterministic regardless of scheduling.
"""

from __future__ import annotations

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
    if not isinstance(n, int) or n < 1 or n > cap:
        raise DomainError(
            f"generator count n={n} outside 1..{cap} "
            "(raise the cap with INFODIAGRAM_MAX_N)"
        )


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
    """A chain-rule function bundled with everything the engine needs.

    ``k1(y, z)`` evaluates the degree-1 conditional term for monoid elements
    given as bitmasks, for one fixed context (a distribution, a distribution
    pair, a set function, ...).  It must satisfy ``k1(0, z) == 0`` and the
    chain rule ``k1(y | 0) + k1(z | y) == k1(y | z | 0)`` within the
    working tolerance; :func:`check_chain_rule` tests exactly that.

    Instances whose chain rule comes from an averaged-conditioning action
    may also carry the function-valued form: ``f1(mask)`` lifts an element
    to a function object, ``action(F, mask)`` conditions such an object,
    and ``evaluate(F)`` evaluates it at the fixed context.  The function
    objects must support ``+`` and ``-`` so that the action axioms can be
    spot-checked (:func:`validate_action_form`).
    """

    n: int
    k1: Callable[[int, int], float]
    f1: Callable[[int], Any] | None = None
    action: Callable[[Any, int], Any] | None = None
    evaluate: Callable[[Any], float] | None = None
    meta: dict = field(default_factory=dict)
    _k1_cache: dict = field(default_factory=dict, repr=False)
    _term_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        _check_n(self.n)

    def k1c(self, y_mask: int, z_mask: int) -> float:
        """Memoized ``k1``; the recursion revisits shared terms exponentially often."""
        key = (y_mask, z_mask)
        val = self._k1_cache.get(key)
        if val is None:
            val = float(self.k1(y_mask, z_mask))
            self._k1_cache[key] = val
        return val

    def total(self, y_mask: int) -> float:
        """Unconditional degree-1 value ``k1(y | 0)`` of a joint element."""
        return self.k1c(y_mask, 0)

    def has_action_form(self) -> bool:
        return self.f1 is not None and self.action is not None and self.evaluate is not None


def atom_measure(inst: ChainRuleInstance, i_mask: int) -> float:
    """Closed-form measure of the atom ``i_mask``; the oracle for :func:`atom_table`.

    Expands the alternating inclusion-exclusion sum

        sum over S subset of I of (-1)**(|S| + 1) * F1(X_(S union I^c))

    where ``F1(y) = k1(y | 0)`` and ``I^c`` is the complement of ``I``;
    the empty joint (only reachable when ``I`` is the full set) is skipped
    since ``F1(0) = 0``.  Uncached: each call costs O(2**|I|) evaluations
    of ``k1``, summed in ascending submask order.
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
    (entry 0 is ``F1(0) = 0``).  One butterfly pass per generator computes
    ``mu`` in n * 2**n operations, against O(3**n) for the atoms one by one.
    """
    size = 1 << inst.n
    mu = np.array([0.0] + [inst.total(k) for k in range(1, size)])
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
    subtracts a copy conditioned additionally on its last argument.  The
    memo key is (sorted argument prefix, conditioning mask), which also
    canonicalizes the argument order.
    """
    l_masks = tuple(l_masks)
    if not l_masks:
        raise DomainError("interaction needs at least one argument (q >= 1)")
    for l in l_masks:
        _check_element(l, inst.n, "interaction")
    _check_element(j_mask, inst.n, "conditioning")
    return _interaction_rec(inst, tuple(sorted(l_masks)), j_mask)


def _interaction_rec(inst: ChainRuleInstance, prefix: tuple[int, ...], z_mask: int) -> float:
    key = (prefix, z_mask)
    val = inst._term_cache.get(key)
    if val is None:
        if len(prefix) == 1:
            val = inst.k1c(prefix[0], z_mask)
        else:
            rest = prefix[:-1]
            last = prefix[-1]
            val = _interaction_rec(inst, rest, z_mask) - _interaction_rec(inst, rest, last | z_mask)
        inst._term_cache[key] = val
    return val


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
    if residual > tol * scale:
        raise VerificationError(
            f"internal error: atom system residual {residual:.3e} exceeds tolerance {tol:.1e}"
        )
    return {i: float(x[i - 1]) for i in range(1, m + 1)}


def check_chain_rule(inst: ChainRuleInstance, tol: float = DEFAULT_TOL,
                     samples: int | None = None, seed: int = 0):
    """Residuals of the instance's own chain rule.

    Checks ``k1(0 | z) == 0`` and ``k1(y | 0) + k1(z | y) == k1(y|z | 0)``,
    exhaustively over all element pairs, or over ``samples`` random pairs
    when given.  Returns ``(max_gap, violations)`` where violations is the
    list of ``(y, z, gap)`` beyond ``tol``.
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
            if gap > max_gap:
                max_gap = gap
            if gap > tol:
                violations.append((0, z, gap))
        gap = abs(inst.total(y | z) - inst.total(y) - inst.k1c(z, y))
        if gap > max_gap:
            max_gap = gap
        if gap > tol:
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
            if gap > worst[0]:
                worst = (gap, name)
    if worst[0] > tol:
        raise VerificationError(f"action axiom '{worst[1]}' violated by {worst[0]:.3e} (tol {tol:.1e})")
    return worst[0]


class Residual(NamedTuple):
    """One verified identity: interaction value vs. measure of its region."""

    q: int
    l_masks: tuple[int, ...]
    j_mask: int
    lhs: float
    rhs: float
    gap: float


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
        return max(self.residuals, key=lambda r: r.gap)


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
    float-identical); sampled with a fixed seed beyond that.

    If the instance violates its own chain rule beyond ``tol``, a
    :class:`VerificationError` naming the violating (Y, Z) pairs is raised
    first (disable with ``check_chain=False`` to see the identity residuals
    of a broken instance).
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

    chain_samples = None if mode == "exhaustive" else max(samples, 1)
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
    size = 1 << n
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

    max_residual = max(r.gap for r in residuals)
    return DiagramReport(
        atom_values=values,
        residuals=residuals,
        max_residual=max_residual,
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
    into the conditioning.  The derived instance satisfies the chain rule
    whenever the original does and passes verification on its own.
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
    return ChainRuleInstance(n=inst.n, k1=derived_k1, meta=meta)
