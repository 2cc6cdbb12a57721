"""Command-line front end: ingestion, diagrams, verification sweeps, examples.

Subcommands
-----------
* ``diagram``  -- compute all atom values and joint totals of an instance,
  verify the diagram identities, and write a JSON/CSV document.
* ``verify``   -- run the identity sweep alone and write the residual table;
  the process exit code reflects pass/fail.
* ``examples`` -- built-in constructions with known closed-form values.
* ``render``   -- draw a computed document as a static SVG Venn diagram.

Exit codes: 0 ok, 2 ingestion/usage error, 3 instance-precondition failure
(absolute continuity, alpha poles, caps), 4 verification failure beyond
tolerance.  Diagnostics go to stderr; with ``--out -`` only the requested
document goes to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

from .core import (
    DEFAULT_TOL,
    ChainRuleInstance,
    DomainError,
    VerificationError,
    _check_n,
    indices_of,
    interaction,
    mask_of,
    verify_hu,
)
from .divergences import DistPair, alpha_kl_instance, cross_entropy_instance, kl_instance, tsallis_instance
from .render import render_venn
from .setfun import (
    HypothesisEvaluator,
    SetFunction,
    advantage_instance,
    bayes_error_evaluator,
    compressor_setfunction,
    r1_instance,
)
from .shannon import Dist, IngestionError, RandomVariable, _sample_space, _weight, empirical_from_rows, shannon_instance

EXIT_OK = 0
EXIT_INGEST = 2
EXIT_INSTANCE = 3
EXIT_VERIFY = 4

KINDS = ("shannon", "tsallis", "kl", "alpha-kl", "cross-entropy", "setfun", "advantage", "compressor")
PAIR_KINDS = frozenset({"kl", "alpha-kl", "cross-entropy"})
ALPHA_KINDS = frozenset({"tsallis", "alpha-kl"})
BASE_FREE_KINDS = frozenset({"tsallis", "alpha-kl", "setfun", "advantage", "compressor"})

COMPRESSOR_ID = "zlib level 9"

EXAMPLE_NAMES = ("xor-i3", "bsc-d2", "xor-advantage", "venn-decomposition")

_XOR_ROWS = [("0", "0", "0"), ("0", "1", "1"), ("1", "0", "1"), ("1", "1", "0")]


# ---------------------------------------------------------------------------
# ingestion


def read_table(path: str):
    """Read a CSV/TSV sample table: header of variable names, one sample per
    row, optional ``__weight`` column.  Returns (names, rows, weights)."""
    delimiter = "\t" if str(path).endswith(".tsv") else ","
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            raw = list(csv.reader(fh, delimiter=delimiter))
    except OSError as exc:
        raise IngestionError(f"{path}: {exc}") from exc
    raw = [row for row in raw if row]
    if len(raw) < 2:
        raise IngestionError(f"{path}: need a header row and at least one sample row")
    header = [name.strip() for name in raw[0]]
    weight_col = header.index("__weight") if "__weight" in header else None
    names = [name for i, name in enumerate(header) if i != weight_col]
    if not names:
        raise IngestionError(f"{path}: no variable columns")
    rows, weights = [], []
    for i, row in enumerate(raw[1:], start=1):
        if len(row) != len(header):
            raise IngestionError(f"{path} row {i}: expected {len(header)} fields, got {len(row)}")
        rows.append(tuple(v for j, v in enumerate(row) if j != weight_col))
        weights.append(1.0 if weight_col is None else _weight(row[weight_col], f"{path} row {i}"))
    return names, rows, weights


def paired_empirical(path_p: str, path_q: str):
    """Two tables of identical shape, joined on row tuples, as a DistPair.

    The sample space is the union of distinct rows; each file's masses are
    its normalized weighted counts.  Rows present in the first file but
    absent from the second leave Q at zero there, which the DistPair
    constructor rejects as an absolute-continuity violation.
    """
    names_p, rows_p, weights_p = read_table(path_p)
    names_q, rows_q, weights_q = read_table(path_q)
    if names_p != names_q:
        raise IngestionError(f"variable names differ between {path_p} and {path_q}: {names_p} vs {names_q}")
    points, (masses_p, masses_q) = _sample_space(
        [(rows_p, weights_p, f"{path_p}: "), (rows_q, weights_q, f"{path_q}: ")]
    )
    pair = DistPair(p=Dist(masses=masses_p, points=points), q=Dist(masses=masses_q, points=points))
    gens = [RandomVariable(labels=column, name=name) for column, name in zip(zip(*points), names_p)]
    return pair, gens, names_p


def _parse_subset_key(key: str, n: int) -> int:
    key = key.strip()
    if not key:
        return 0
    try:
        indices = [int(part) for part in key.replace(",", " ").split()]
    except ValueError:
        raise IngestionError(f"subset key {key!r} is not a list of indices") from None
    if any(i < 1 or i > n for i in indices):
        raise IngestionError(f"subset key {key!r} is out of range 1..{n}")
    return mask_of(indices)


def _read_subset_table(path: str, field_name: str):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IngestionError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IngestionError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or field_name not in doc:
        raise IngestionError(f"{path}: expected an object with 'n' and '{field_name}'")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise IngestionError(f"{path}: 'n' must be a positive integer")
    _check_n(n)  # before anything of size 2**n is built
    table = doc[field_name]
    if not isinstance(table, dict):
        raise IngestionError(f"{path}: '{field_name}' must map subset keys to numbers")
    values = {}
    for key, val in table.items():
        try:
            mask = _parse_subset_key(str(key), n)
        except IngestionError as exc:
            raise IngestionError(f"{path}: {exc}") from None
        if mask in values:
            raise IngestionError(f"{path}: duplicate subset key {key!r}")
        # a JSON number, not a boolean or a numeric string; the set function checks its range
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise IngestionError(f"{path}: value for subset {key!r} is not a number")
        values[mask] = val
    missing = [m for m in range(1 << n) if m not in values]
    if missing:
        raise IngestionError(
            f"{path}: '{field_name}' is not total; missing subset {list(indices_of(missing[0]))}"
        )
    names = doc.get("names", [str(i) for i in range(1, n + 1)])
    if not isinstance(names, list) or len(names) != n:
        raise IngestionError(f"{path}: 'names' must list {n} generator names")
    return n, values, [str(name) for name in names]


def read_setfunction(path: str):
    n, values, names = _read_subset_table(path, "values")
    return SetFunction(n=n, values=tuple(values[m] for m in range(1 << n))), names


def read_errors(path: str):
    n, values, names = _read_subset_table(path, "errors")
    return HypothesisEvaluator(n=n, errors=tuple(values[m] for m in range(1 << n))), names


def read_blobs(paths):
    blobs = []
    for path in paths:
        try:
            blobs.append(Path(path).read_bytes())
        except OSError as exc:
            raise IngestionError(f"{path}: {exc}") from exc
    return blobs, [Path(path).name for path in paths]


def build_instance(config: argparse.Namespace):
    """Construct the configured instance; returns (instance, generator names)."""
    kind = config.kind
    if kind == "shannon":
        names, rows, weights = read_table(config.inputs[0])
        dist, gens = empirical_from_rows(rows, weights)
        return shannon_instance(dist, gens, config.base), names
    if kind == "tsallis":
        names, rows, weights = read_table(config.inputs[0])
        dist, gens = empirical_from_rows(rows, weights)
        return tsallis_instance(dist, gens, config.alpha), names
    if kind in PAIR_KINDS:
        pair, gens, names = paired_empirical(config.inputs[0], config.inputs[1])
        if kind == "kl":
            return kl_instance(pair, gens, config.base), names
        if kind == "cross-entropy":
            return cross_entropy_instance(pair, gens, config.base), names
        return alpha_kl_instance(pair, gens, config.alpha), names
    if kind == "setfun":
        fn, names = read_setfunction(config.inputs[0])
        return r1_instance(fn), names
    if kind == "advantage":
        errors, names = read_errors(config.inputs[0])
        return advantage_instance(errors), names
    if kind == "compressor":
        blobs, names = read_blobs(config.inputs)
        fn = compressor_setfunction(blobs)
        inst = r1_instance(fn)
        inst.meta["kind"] = "compression-based information function"
        inst.meta["compressor"] = COMPRESSOR_ID
        return inst, names
    raise IngestionError(f"unknown instance kind {kind!r}")


# ---------------------------------------------------------------------------
# documents


def _metadata(config: argparse.Namespace, inst: ChainRuleInstance, names) -> dict:
    meta = {
        "instance": inst.meta.get("kind", config.kind),
        "base": None if config.kind in BASE_FREE_KINDS else config.base,
        "alpha": config.alpha,
        "tolerance": config.tol,
        "q_max": config.q_max,
        "n": inst.n,
        "generators": list(names),
    }
    if "compressor" in inst.meta:
        meta["compressor"] = inst.meta["compressor"]
    return meta


def _residual_row(r) -> dict:
    """One residual as a document row, masks written as 1-based index lists."""
    return {
        "q": r.q,
        "L": [list(indices_of(l)) for l in r.l_masks],
        "J": list(indices_of(r.j_mask)),
        "lhs": r.lhs,
        "rhs": r.rhs,
        "gap": r.gap,
    }


def _verification_summary(report) -> dict:
    return {
        "mode": report.mode,
        "checks": len(report.residuals),
        "max_residual": report.max_residual,
        "chain_residual": report.chain_residual,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "worst": _residual_row(report.worst()),
    }


def cmd_diagram(config: argparse.Namespace) -> dict:
    """Compute atom values, joint totals and a verification summary."""
    inst, names = build_instance(config)
    report = verify_hu(inst, q_max=config.q_max, tol=config.tol, seed=config.seed)
    if not report.passed:
        worst = _residual_row(report.worst())
        raise VerificationError(
            f"diagram identity check failed: max residual {report.max_residual:.3e} "
            f"> tolerance {config.tol:.1e} at q={worst['q']}, L={worst['L']}, J={worst['J']}"
        )
    atom_entries = [
        {"subset": list(indices_of(a)), "eta": value} for a, value in sorted(report.atom_values.items())
    ]
    totals = []
    full = (1 << inst.n) - 1
    zeta = report.zeta
    for k in range(1, full + 1):
        f1 = inst.total(k)
        # atoms under the circles of K: all atoms minus those inside full ^ K
        cell_sum = zeta[full] - zeta[full ^ k]
        if not abs(f1 - cell_sum) <= config.tol:  # a NaN gap fails too
            raise VerificationError(
                f"total consistency check failed for K={list(indices_of(k))}: "
                f"F1={f1!r} vs atom sum {cell_sum!r}"
            )
        totals.append({"K": list(indices_of(k)), "f1": f1})
    return {
        "metadata": _metadata(config, inst, names),
        "atoms": atom_entries,
        "totals": totals,
        "verification": _verification_summary(report),
    }


def cmd_verify(config: argparse.Namespace):
    """Full residual table; returns (document, exit_code)."""
    inst, names = build_instance(config)
    report = verify_hu(inst, q_max=config.q_max, tol=config.tol, seed=config.seed)
    doc = {
        "metadata": _metadata(config, inst, names),
        "summary": _verification_summary(report),
        "residuals": [_residual_row(r) for r in report.residuals],
    }
    return doc, (EXIT_OK if report.passed else EXIT_VERIFY)


def _xor_shannon(base: str = "bits"):
    dist, gens = empirical_from_rows(_XOR_ROWS)
    return shannon_instance(dist, gens, base)


def _bsc_pair(epsilon: float):
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"epsilon must lie strictly between 0 and 1, got {epsilon}")
    points = (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))
    p = Dist(masses=np.full(4, 0.25), points=points)
    q = Dist(
        masses=np.array([(1 - epsilon) / 2, epsilon / 2, epsilon / 2, (1 - epsilon) / 2]),
        points=points,
    )
    gens = [
        RandomVariable(labels=tuple(pt[0] for pt in points), name="X"),
        RandomVariable(labels=tuple(pt[1] for pt in points), name="Y"),
    ]
    return DistPair(p=p, q=q), gens


def cmd_examples(config: argparse.Namespace):
    """Built-in constructions with known values; returns (document, exit_code)."""
    name = config.name
    tol = config.tol
    if name == "xor-i3":
        inst = _xor_shannon("bits")
        value = interaction(inst, (1, 2, 4), 0)
        expected = -1.0
        detail = {"construction": "uniform XOR triple, base 2", "term": "degree-3 interaction of X, Y, Z"}
    elif name == "bsc-d2":
        eps = config.epsilon
        pair, gens = _bsc_pair(eps)
        inst = kl_instance(pair, gens, "bits")
        value = interaction(inst, (1, 2), 0)
        expected = 1.0 + 0.5 * (math.log2(1.0 - eps) + math.log2(eps))
        detail = {
            "construction": f"uniform prior, channels (1/2,1/2) vs (1-eps,eps), eps={eps}",
            "term": "degree-2 mutual KL divergence of X, Y, base 2",
        }
    elif name == "xor-advantage":
        dist, gens = empirical_from_rows(_XOR_ROWS)
        evaluator = bayes_error_evaluator(dist, gens[:2], gens[2], "bits")
        inst = advantage_instance(evaluator)
        value = interaction(inst, (1, 2), 0)
        expected = -1.0
        detail = {
            "construction": "XOR target, exact Bayes log-loss errors",
            "errors": {"" if m == 0 else " ".join(map(str, indices_of(m))): evaluator(m) for m in range(4)},
            "term": "degree-2 mutual advantage of the two features",
        }
    elif name == "venn-decomposition":
        rng = random.Random(config.seed)
        masses = np.array([rng.uniform(0.05, 1.0) for _ in range(8)])
        points = tuple((b >> 2 & 1, b >> 1 & 1, b & 1) for b in range(8))
        dist = Dist(masses=masses / masses.sum(), points=points)
        gens = [RandomVariable(labels=tuple(pt[j] for pt in points)) for j in range(3)]
        inst = shannon_instance(dist, gens, "bits")
        lhs = interaction(inst, (0b011, 0b101), 0)
        rhs = interaction(inst, (0b001,), 0b100) + interaction(inst, (0b011, 0b100), 0)
        value = lhs - rhs
        expected = 0.0
        detail = {
            "construction": f"random 3-variable joint, seed {config.seed}",
            "term": "I2(X1X2; X1X3) minus [X3.I1(X1) + I2(X1X2; X3)]",
            "lhs": lhs,
            "rhs": rhs,
        }
    else:
        raise IngestionError(f"unknown example {name!r}; available: {', '.join(EXAMPLE_NAMES)}")
    gap = abs(value - expected)
    doc = {
        "example": name,
        "value": value,
        "expected": expected,
        "gap": gap,
        "tolerance": tol,
        "passed": gap <= tol,
        "detail": detail,
    }
    return doc, (EXIT_OK if doc["passed"] else EXIT_VERIFY)


def cmd_render(config: argparse.Namespace) -> str:
    """Render a diagram document to SVG text."""
    try:
        with open(config.document, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IngestionError(f"{config.document}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IngestionError(f"{config.document}: invalid JSON: {exc}") from exc
    try:
        return render_venn(doc)
    except DomainError as exc:
        # the render size limit is an input-shape problem, not an instance one
        raise IngestionError(str(exc)) from exc


# ---------------------------------------------------------------------------
# plumbing


@contextlib.contextmanager
def _output(out: str):
    """The output handle: stdout for ``-``, else the file, closed on exit."""
    if out == "-":
        yield sys.stdout
    else:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh


def _write_json(doc: dict, out: str) -> None:
    with _output(out) as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_document(doc: dict, config: argparse.Namespace) -> None:
    """Stream the document to ``config.out`` without building its text first."""
    if config.fmt != "csv":
        _write_json(doc, config.out)
        return
    with _output(config.out) as fh:
        if config.command == "diagram":
            fh.write("subset,eta\n")
            for entry in doc["atoms"]:
                fh.write(f"\"{' '.join(map(str, entry['subset']))}\",{entry['eta']!r}\n")
        else:
            fh.write("q,L,J,lhs,rhs,gap\n")
            for row in doc["residuals"]:
                l_txt = "|".join(" ".join(map(str, l)) for l in row["L"])
                j_txt = " ".join(map(str, row["J"]))
                fh.write(f"{row['q']},\"{l_txt}\",\"{j_txt}\",{row['lhs']!r},{row['rhs']!r},{row['gap']!r}\n")


def _add_instance_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("inputs", nargs="+", help="sample table(s), set-function JSON, or blob files")
    sub.add_argument("--instance", required=True, choices=KINDS, dest="kind")
    sub.add_argument("--base", choices=("nats", "bits"), default="nats")
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sub.add_argument("--qmax", type=int, default=3, dest="q_max")
    sub.add_argument("--out", default="-")
    sub.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infodiagram",
        description="Information diagrams for anything that satisfies the chain rule of information.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    diagram = sub.add_parser("diagram", help="compute atom values and totals, verify, write a document")
    _add_instance_options(diagram)

    verify = sub.add_parser("verify", help="run the identity sweep and write the residual table")
    _add_instance_options(verify)

    examples = sub.add_parser("examples", help="run a built-in example with a known value")
    examples.add_argument("name", help=f"one of: {', '.join(EXAMPLE_NAMES)}")
    examples.add_argument("--epsilon", type=float, default=0.25, help="channel flip probability (bsc-d2)")
    examples.add_argument("--tol", type=float, default=DEFAULT_TOL)
    examples.add_argument("--seed", type=int, default=0)
    examples.add_argument("--out", default="-")

    render = sub.add_parser("render", help="draw a diagram document as an SVG Venn diagram")
    render.add_argument("document", help="JSON document produced by the diagram subcommand")
    render.add_argument("out", help="output SVG path, or - for stdout")

    return parser


def _check_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if args.command in ("diagram", "verify"):
        if args.kind in ALPHA_KINDS and args.alpha is None:
            parser.error(f"--alpha is required for --instance {args.kind}")
        if args.kind not in ALPHA_KINDS and args.alpha is not None:
            parser.error(f"--alpha is only meaningful for {sorted(ALPHA_KINDS)}")
        expected = 2 if args.kind in PAIR_KINDS else None
        if expected is not None and len(args.inputs) != expected:
            parser.error(f"--instance {args.kind} needs exactly {expected} input files (P then Q)")
        if args.kind not in PAIR_KINDS and args.kind != "compressor" and len(args.inputs) != 1:
            parser.error(f"--instance {args.kind} takes exactly one input file")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        config = parser.parse_args(argv)
        _check_args(config, parser)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if config.command == "diagram":
            doc = cmd_diagram(config)
            _write_document(doc, config)
            return EXIT_OK
        if config.command == "verify":
            doc, code = cmd_verify(config)
            _write_document(doc, config)
            if code != EXIT_OK:
                print(f"verification failed: max residual {doc['summary']['max_residual']:.3e} "
                      f"> tolerance {config.tol:.1e}", file=sys.stderr)
            return code
        if config.command == "examples":
            doc, code = cmd_examples(config)
            _write_json(doc, config.out)
            if code != EXIT_OK:
                print(f"example {config.name!r} failed: value {doc['value']!r} vs expected "
                      f"{doc['expected']!r}", file=sys.stderr)
            return code
        if config.command == "render":
            svg = cmd_render(config)
            with _output(config.out) as fh:
                fh.write(svg)
            return EXIT_OK
        raise IngestionError(f"unknown command {config.command!r}")
    except IngestionError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except OSError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except DomainError as exc:
        print(f"instance error: {exc}", file=sys.stderr)
        return EXIT_INSTANCE
    except VerificationError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
