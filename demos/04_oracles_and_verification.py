"""How the engine keeps itself honest: dual routes, oracles, fault injection.

Every quantity here can be computed at least two independent ways: atom
values by an n * 2**n Moebius transform, by a closed-form alternating sum and
by a dense linear solve; interaction terms by their recursion and by
inclusion-exclusion; and each conditional term against the measure of its
diagram region.  A broken instance (one perturbed value) is caught
immediately by the chain-rule gate.  Relative computations let a fixed block
of arguments ride along for free.

Run:  python demos/04_oracles_and_verification.py
"""

import numpy as np

from infodiagram import (
    ChainRuleInstance,
    SetFunction,
    VerificationError,
    atom_measure,
    atom_table,
    atoms,
    empirical_from_rows,
    indices_of,
    interaction,
    interaction_incl_excl,
    mobius_oracle,
    r1_instance,
    relative_instance,
    shannon_instance,
    verify_hu,
)


def main():
    rng = np.random.default_rng(11)

    print("1. Three routes to every atom value (random set function, n = 4):")
    fn = SetFunction(n=4, values=tuple(rng.uniform(0.0, 1.0, 16)))
    inst = r1_instance(fn)
    transform = atom_table(inst)
    closed = {a: atom_measure(inst, a) for a in atoms(4)}
    for name, values in (("closed-form sum", closed), ("15x15 linear solve", mobius_oracle(inst))):
        gap = max(abs(values[a] - transform[a]) for a in atoms(4))
        print(f"   Moebius transform vs {name}: max gap {gap:.2e}")
    print()

    print("2. Two routes to every interaction term:")
    worst = 0.0
    for _ in range(200):
        q = int(rng.integers(1, 5))
        l_masks = tuple(int(rng.integers(0, 16)) for _ in range(q))
        j = int(rng.integers(0, 16))
        worst = max(worst, abs(interaction(inst, l_masks, j)
                               - interaction_incl_excl(inst, l_masks, j)))
    print(f"   recursion vs inclusion-exclusion on 200 random terms: max gap {worst:.2e}")
    print()

    print("3. The verification sweep compares every term with its region:")
    report = verify_hu(inst, q_max=3, tol=1e-12)
    print(f"   {len(report.residuals)} identities at n=4, max residual "
          f"{report.max_residual:.2e} -> {'pass' if report.passed else 'FAIL'}")
    print()

    print("4. Fault injection: add 0.1 to a single conditional value.")
    broken = ChainRuleInstance(
        n=inst.n,
        totals=inst.totals,
        k1=lambda y, z: inst.k1(y, z) + (0.1 if (y, z) == (0b0011, 0b0100) else 0.0),
    )
    try:
        verify_hu(broken)
    except VerificationError as exc:
        print(f"   caught: {exc}")
    print()

    print("5. Relative computations: fix a block, keep the whole diagram.")
    masses = rng.uniform(0.05, 1.0, 16)
    points = tuple((b >> 3 & 1, b >> 2 & 1, b >> 1 & 1, b & 1) for b in range(16))
    dist, gens = empirical_from_rows(points, weights=masses)
    base = shannon_instance(dist, gens, "bits")
    fixed, given = 0b1000, 0b0100
    rel = relative_instance(base, (fixed,), given)
    rel_report = verify_hu(rel, q_max=2, tol=1e-9)
    print(f"   derived instance passes its own sweep: max residual "
          f"{rel_report.max_residual:.2e}")
    v1, v2 = 0b0001, 0b0011
    lhs = interaction(rel, (v1, v2), 0)
    rhs = interaction(base, (fixed, v1, v2), given)
    print(f"   relative degree-2 term {lhs:+.6f} equals the degree-3 term with the")
    print(f"   fixed block prepended {rhs:+.6f} (gap {abs(lhs - rhs):.2e})")
    print()
    print(f"   (fixed block X{list(indices_of(fixed))}, conditioning X{list(indices_of(given))})")


if __name__ == "__main__":
    main()
