"""Seeded inputs for the benchmark workloads.

Each workload is one CLI job shape.  ``generate`` writes the input files
for a seed into a work directory and returns the job's argument list, the
arrays the independent checker recomputes F1 from, and the input shape.
The program only ever sees the written files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Full-size parameters; BENCHMARK.json says why each workload exists.
# ``generate(..., smoke=True)`` overlays SMOKE, a tiny size (n = 3) that
# walks the same code path.
SPECS = {
    "shannon-lattice": {"command": "diagram", "instance": "shannon", "n": 10, "rows": 2000, "arity": 3},
    "setfun-wide": {"command": "diagram", "instance": "setfun", "n": 12},
    "verify-exhaustive": {"command": "verify", "instance": "alpha-kl", "alpha": 0.5, "n": 5,
                          "rows_p": 400, "rows_q": 4000},
}

SMOKE = {"n": 3, "rows": 40, "rows_p": 40, "rows_q": 400}

Q_MAX = 3  # the CLI default; the checker derives the expected check count from it
SAMPLED_CHECKS = 1000  # the sweep's sample count beyond the exhaustive cap
EXHAUSTIVE_MAX_N = 5


@dataclass
class Job:
    """One generated job: CLI arguments plus what the checker needs."""

    command: str
    instance: str
    n: int
    argv: list
    out: Path
    reference: dict
    shape: dict


def _write_table(path: Path, codes: np.ndarray) -> None:
    header = ",".join(f"x{j + 1}" for j in range(codes.shape[1]))
    body = "\n".join(",".join(map(str, row)) for row in codes.tolist())
    path.write_text(header + "\n" + body + "\n", encoding="utf-8")


def _distinct(*tables: np.ndarray) -> int:
    return len(np.unique(np.concatenate(tables), axis=0))


def generate(workload: str, seed: int, workdir: Path, smoke: bool = False) -> Job:
    """Write the inputs of ``workload`` for ``seed`` and describe the job."""
    spec = dict(SPECS[workload])
    if smoke:
        spec.update((key, value) for key, value in SMOKE.items() if key in spec)
    n = spec["n"]
    rng = np.random.default_rng([seed, n, list(SPECS).index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "doc.json"
    command, instance = spec["command"], spec["instance"]
    if instance == "shannon":
        rows = spec["rows"]
        codes = rng.integers(0, spec["arity"], size=(rows, n))
        path = workdir / "samples.csv"
        _write_table(path, codes)
        inputs = [path]
        reference = {"codes": codes, "arity": spec["arity"]}
        shape = {"rows": rows, "points": _distinct(codes)}
    elif instance == "setfun":
        # a concave function of a modular one: R(S) = sqrt(sum of w_i over S)
        weights = rng.uniform(0.5, 2.0, size=n)
        masks = np.arange(1 << n)
        bits = (masks[:, None] >> np.arange(n)) & 1
        values = np.sqrt(bits @ weights)
        keys = (",".join(str(j + 1) for j in range(n) if m >> j & 1) for m in range(1 << n))
        table = dict(zip(keys, values.tolist()))
        path = workdir / "setfn.json"
        path.write_text(json.dumps({"n": n, "values": table}), encoding="utf-8")
        inputs = [path]
        reference = {"values": values}
        shape = {"rows": 1 << n, "points": 1 << n}
    else:
        rows_p, rows_q = spec["rows_p"], spec["rows_q"]
        # P: a noisy chain of bits; Q: every point once, then uniform, so
        # Q is positive wherever P is (absolute continuity holds)
        flips = rng.random((rows_p, n)) < 0.2
        chain = np.empty((rows_p, n), dtype=np.int64)
        chain[:, 0] = rng.integers(0, 2, size=rows_p)
        for j in range(1, n):
            chain[:, j] = chain[:, j - 1] ^ flips[:, j]
        every = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        q_codes = np.concatenate([every, rng.integers(0, 2, size=(rows_q - (1 << n), n))])
        path_p, path_q = workdir / "p.csv", workdir / "q.csv"
        _write_table(path_p, chain)
        _write_table(path_q, q_codes)
        inputs = [path_p, path_q]
        reference = {"p_codes": chain, "q_codes": q_codes, "alpha": spec["alpha"]}
        shape = {"rows": rows_p + rows_q, "points": _distinct(chain, q_codes)}
    argv = [command, *map(str, inputs), "--instance", instance, "--out", str(out)]
    if "alpha" in spec:
        argv += ["--alpha", repr(spec["alpha"])]
    shape = {"n": n, **shape, "bytes": sum(p.stat().st_size for p in inputs)}
    return Job(command, instance, n, argv, out, reference, shape)


def expected_checks(n: int) -> int:
    """Identity checks the sweep reports: every sorted q-tuple and conditioning
    element up to the exhaustive cap, a fixed sample count beyond it."""
    if n > EXHAUSTIVE_MAX_N:
        return SAMPLED_CHECKS
    size = 1 << n
    return sum(math.comb(size + q - 1, q) * size for q in range(1, Q_MAX + 1))
