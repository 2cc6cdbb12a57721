"""Command-line front end: ingestion, diagrams, verification sweeps, examples.

Subcommands
-----------
* ``diagram``  -- compute all atom values and joint totals of an instance,
  verify the diagram identities, and write a JSON/CSV document.
* ``verify``   -- run the identity sweep alone and write the residual table;
  the process exit code reflects pass/fail.
* ``examples`` -- built-in constructions with known closed-form values.
* ``render``   -- draw a computed document as a static SVG Venn diagram.

Every JSON document (``diagram``, ``verify`` and ``examples``) has exactly
the bytes of ``json.dump(doc, sort_keys=True, indent=2)`` plus a newline;
one streaming writer, :func:`_write_document`, writes them all.  A sweep
holds few distinct values, so the writer formats each distinct float of a
residual table once, JSON and CSV alike.

Exit codes: 0 ok, 2 ingestion/usage error (an unreadable or malformed
input, a file that is not UTF-8 included), 3 instance-precondition failure
(absolute continuity, alpha poles, caps), 4 verification failure beyond
tolerance.  Diagnostics go to stderr; with ``--out -`` only the requested
document goes to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
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
    _is_int,
    _sweep_plan,
    indices_of,
    interaction,
    verify_hu,
)
from .divergences import DistPair, alpha_kl_instance, cross_entropy_instance, kl_instance, tsallis_instance
from .render import render_venn
from .setfun import (
    HypothesisEvaluator,
    SetFunction,
    _key_mask,
    _subset_values,
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

COMPRESSOR_ID = "zlib level 9"

EXAMPLE_NAMES = ("xor-i3", "bsc-d2", "xor-advantage", "venn-decomposition")

_XOR_ROWS = [("0", "0", "0"), ("0", "1", "1"), ("1", "0", "1"), ("1", "1", "0")]


# ---------------------------------------------------------------------------
# ingestion


def read_table(path: str):
    """Read a CSV/TSV sample table in one pass, blank lines skipped: header of variable
    names, one sample per row, optional ``__weight`` column.  Returns (names, rows, weights)."""
    delimiter = "\t" if str(path).lower().endswith(".tsv") else ","
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
            reader = filter(None, csv.reader(fh, delimiter=delimiter))
            header, first = next(reader, None), next(reader, None)
            if first is None:
                raise IngestionError(f"{path}: need a header row and at least one sample row")
            header = [name.strip() for name in header]
            if header.count("__weight") > 1:
                raise IngestionError(f"{path}: more than one __weight column")
            weight_col = header.index("__weight") if "__weight" in header else None
            names = [name for i, name in enumerate(header) if i != weight_col]
            if not names:
                raise IngestionError(f"{path}: no variable columns")
            rows, weights = [], []
            for i, row in enumerate(itertools.chain([first], reader), start=1):
                if len(row) != len(header):
                    raise IngestionError(f"{path} row {i}: expected {len(header)} fields, got {len(row)}")
                weights.append(1.0 if weight_col is None else _weight(row.pop(weight_col), f"{path} row {i}"))
                rows.append(tuple(row))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:  # csv.Error: a field past the csv module's limit
        raise IngestionError(f"{path}: {exc}") from exc
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
    p, q, gens = _sample_space([(rows_p, weights_p, f"{path_p}: "), (rows_q, weights_q, f"{path_q}: ")], names_p)
    return DistPair(p=p, q=q), gens, names_p


def _load_json(path: str):
    """The JSON value of the UTF-8 file ``path``.  An unreadable file,
    invalid JSON and a key written twice in any object, at any depth, are
    each an IngestionError.

    Outside its strings, a JSON text has one ':' per object member.  So when
    the text holds no more ':' than its decoded objects hold members, no key
    repeats; only otherwise is it decoded again, refusing the first key
    written twice.  That decode holds each object's list of pairs, which
    costs more memory than the dict (about 5 MB at 2**16 keys).
    """
    members = 0

    def count(obj):
        nonlocal members
        members += len(obj)
        return obj

    def refuse_repeats(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            key = next(key for key, _ in pairs if key in seen or seen.add(key))
            raise IngestionError(f"{path}: duplicate key {key!r}")
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text, object_hook=count)
        return json.loads(text, object_pairs_hook=refuse_repeats) if text.count(":") > members else doc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:  # RecursionError: values nested too deep
        raise IngestionError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IngestionError(f"{path}: invalid JSON: {exc}") from exc


def _parse_subset_key(key: str, n: int) -> int:
    """The mask of a subset key such as ``"1 3"`` or ``"1,3"``, by the
    library's key rule (:func:`setfun._key_mask`).  Each part is ASCII
    decimal digits after an optional sign: ``int`` alone would also read
    ``"1_0"`` and other scripts' digits."""
    parts = key.replace(",", " ").split()
    digits = "".join(parts)  # a key without signs passes on one test of all its parts at once
    if not (digits.isascii() and digits.isdigit()) and not all(
            part.isascii() and part[part[0] in "+-":].isdigit() for part in parts):
        raise DomainError(f"subset key {key!r} is not a list of indices")
    return _key_mask(map(int, parts), n)


def _read_subset_table(path: str, field_name: str, table_type):
    """A ``table_type`` from the subset table ``field_name`` of ``path``, and its generator names."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or "n" not in doc or field_name not in doc:
        raise IngestionError(f"{path}: expected an object with 'n' and '{field_name}'")
    n = doc["n"]
    if not _is_int(n) or n < 1:
        raise IngestionError(f"{path}: 'n' must be a positive integer")
    _check_n(n)  # before anything of size 2**n is built
    table = doc[field_name]
    if not isinstance(table, dict):
        raise IngestionError(f"{path}: '{field_name}' must map subset keys to numbers")

    def entries():
        for raw_key, val in table.items():
            key = raw_key.strip()
            yield key, _parse_subset_key(key, n), val
            # once the key has passed the range and duplicate checks: a JSON
            # number, not a boolean or a numeric string; the set function checks its range
            if not (_is_int(val) or isinstance(val, float)):
                raise DomainError(f"value for subset {raw_key!r} is not a number")

    try:
        values = _subset_values(n, entries(), f"'{field_name}'")
    except DomainError as exc:
        raise IngestionError(f"{path}: {exc}") from None
    names = doc.get("names", [str(i) for i in range(1, n + 1)])
    if not isinstance(names, list) or len(names) != n or not all(isinstance(name, str) for name in names):
        raise IngestionError(f"{path}: 'names' must list {n} generator names")
    return table_type(n, values), names


def read_setfunction(path: str):
    return _read_subset_table(path, "values", SetFunction)


def read_errors(path: str):
    return _read_subset_table(path, "errors", HypothesisEvaluator)


def read_blobs(paths):
    blobs = []
    for path in paths:
        try:
            blobs.append(Path(path).read_bytes())
        except OSError as exc:
            raise IngestionError(f"{path}: {exc}") from exc
    return blobs, [Path(path).name for path in paths]


def build_instance(config: argparse.Namespace):
    """Construct the configured instance; returns (instance, generator names).
    The sweep's plan is asked before the builder runs: a refused sweep builds nothing."""
    kind = config.kind
    if kind == "setfun":
        fn, names = read_setfunction(config.inputs[0])
        build = lambda: r1_instance(fn)
    elif kind == "advantage":
        errors, names = read_errors(config.inputs[0])
        build = lambda: advantage_instance(errors)
    elif kind == "compressor":
        blobs, names = read_blobs(config.inputs)
        build = lambda: r1_instance(compressor_setfunction(blobs))
    else:
        if kind in PAIR_KINDS:
            ctx, gens, names = paired_empirical(*config.inputs)
        else:
            names, rows, weights = read_table(config.inputs[0])
            ctx, gens = empirical_from_rows(rows, weights)
        builder = {"shannon": shannon_instance, "tsallis": tsallis_instance, "kl": kl_instance,
                   "cross-entropy": cross_entropy_instance, "alpha-kl": alpha_kl_instance}[kind]
        build = lambda: builder(ctx, gens, config.alpha if kind in ALPHA_KINDS else config.base)
    _check_n(len(names))  # the generator cap is named before the sweep's
    _sweep_plan(len(names), config.q_max)
    return build(), names


# ---------------------------------------------------------------------------
# documents


def _metadata(config: argparse.Namespace, inst: ChainRuleInstance, names) -> dict:
    meta = {
        "instance": inst.meta.get("kind", config.kind),
        "base": inst.meta.get("base"),
        "alpha": inst.meta.get("alpha"),
        "tolerance": config.tol,
        "q_max": config.q_max,
        "n": inst.n,
        "generators": list(names),
    }
    if config.kind == "compressor":
        meta.update(instance="compression-based information function", compressor=COMPRESSOR_ID)
    return meta


def _residual_row(r) -> dict:
    """One residual as a document row, masks written as 1-based index lists.

    The summary's ``worst`` is such a dict; the verify writer gives every
    residual row these bytes without building the dict.
    """
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


def cmd_diagram(config: argparse.Namespace):
    """Atom values, joint totals and a verification summary; returns
    (document, None), and raises before any write when a check fails.
    Its ``atoms`` and ``totals`` are the values of masks 1, 2, ...: ``report.atom_values``, ``inst.totals[1:]``."""
    inst, names = build_instance(config)
    report = verify_hu(inst, q_max=config.q_max, tol=config.tol, seed=config.seed)
    if not report.passed:
        worst = _residual_row(report.worst())
        raise VerificationError(
            f"diagram identity check failed: max residual {report.max_residual:.3e} "
            f"> tolerance {config.tol:.1e} at q={worst['q']}, L={worst['L']}, J={worst['J']}"
        )
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
    return {
        "metadata": _metadata(config, inst, names),
        "atoms": report.atom_values.values(),
        "totals": inst.totals[1:],
        "verification": _verification_summary(report),
    }, None


def cmd_verify(config: argparse.Namespace):
    """Full residual table; returns (document, failure text or None).

    The document's ``residuals`` is ``report.residuals`` itself, the
    sweep's residual columns: :func:`_write_document` writes each check as
    a row of the fixed schema ``J, L, gap, lhs, q, rhs`` (the
    :func:`_residual_row` shape) straight from the columns, without
    building a :class:`Residual` or a dict per row.
    """
    inst, names = build_instance(config)
    report = verify_hu(inst, q_max=config.q_max, tol=config.tol, seed=config.seed)
    doc = {
        "metadata": _metadata(config, inst, names),
        "summary": _verification_summary(report),
        "residuals": report.residuals,
    }
    if report.passed:
        return doc, None
    return doc, f"verification failed: max residual {report.max_residual:.3e} > tolerance {config.tol:.1e}"


def _bsc_pair(epsilon: float):
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"epsilon must lie strictly between 0 and 1, got {epsilon}")
    p, gens = empirical_from_rows([("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")])
    q = Dist(masses=np.array([(1 - epsilon) / 2, epsilon / 2, epsilon / 2, (1 - epsilon) / 2]), points=p.points)
    return DistPair(p=p, q=q), gens


def cmd_examples(config: argparse.Namespace):
    """Built-in constructions with known values; returns (document, failure text or None)."""
    name = config.name
    tol = config.tol
    if name == "xor-i3":
        dist, gens = empirical_from_rows(_XOR_ROWS)
        inst = shannon_instance(dist, gens, "bits")
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
        subset = _subset_texts(2)
        detail = {
            "construction": "XOR target, exact Bayes log-loss errors",
            "errors": {subset(m): evaluator(m) for m in range(4)},
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
    if doc["passed"]:
        return doc, None
    return doc, f"example {name!r} failed: value {value!r} vs expected {expected!r}"


def cmd_render(config: argparse.Namespace) -> str:
    """Render a diagram document to SVG text."""
    doc = _load_json(config.document)
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


# json writes a non-finite float by these names, any other by float.__repr__
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _json_list(items, indent: str) -> str:
    """Item texts as ``json.dump(..., indent=2)`` writes a list whose closing
    bracket sits at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _subset_texts(n: int, indent: str | None = None):
    """The text of a subset of 1..n as a function of its mask: its 1-based
    indices as :func:`_json_list` writes them at ``indent``, or, with no
    indent, joined by spaces (a CSV subset cell, an examples error key).

    The text is joined from two half tables, so the function holds
    O(2**ceil(n/2)) texts and makes at most two joins per mask: ``low``
    holds the opening and the indices of the low ``n // 2`` bits, ``high``
    the indices of the other bits, each after its separator, and the close.
    A mask without low bits drops the first separator of its ``high`` text.
    """
    if indent is None:
        first, sep, last, empty = "", " ", "", ""
    else:
        inner = "\n" + indent + "  "
        first, sep, last, empty = "[" + inner, "," + inner, "\n" + indent + "]", "[]"
    split = n // 2
    low_bits = (1 << split) - 1
    low = [first + sep.join(map(str, indices_of(m))) for m in range(1 << split)]
    high = ["".join(sep + str(split + i) for i in indices_of(m)) + last for m in range(1 << (n - split))]
    cut = len(sep)

    def text(mask: int) -> str:
        if mask & low_bits:
            return low[mask & low_bits] + high[mask >> split]
        return first + high[mask >> split][cut:] if mask else empty

    return text


# rows of a row list formatted and written at a time; a chunk's texts live
# at once, so larger chunks raise the peak memory of the write
_CHUNK_ROWS = 1024


def _residual_chunks(residuals, fmt, l_text, j_text):
    """The residual rows ``_CHUNK_ROWS`` at a time, as lists: ``q``, the texts
    ``l_text(key)`` of L, where ``key`` is q followed by the row's L masks
    (padded with 0 past q), ``j_text(j)`` of J, and ``fmt(x)`` of ``lhs``,
    ``rhs`` and ``gap``.

    A sweep measures few distinct Hu regions, so its columns hold few
    distinct values, and each is formatted once per write: a chunk's floats
    are reduced to their distinct float64 bit patterns by ``np.unique``,
    each new pattern's text goes into a memo kept for the whole write, and
    one object-array index gives the row texts.  The memo is keyed by the
    bit pattern, not by the float: ``0.0 == -0.0`` would give ``-0.0`` the
    text of ``0.0``, and ``NaN != NaN`` would miss every NaN.  The sweep
    writes the checks of one ``(q, L)`` as one run of rows, one per J, so
    an L text is built once per run of equal keys and a J text once per
    distinct J of a chunk.
    """
    memo: dict[int, str] = {}
    for start in range(0, len(residuals), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        floats = np.concatenate((residuals.lhs[rows], residuals.rhs[rows], residuals.gap[rows]))
        bits, inverse = np.unique(floats.view(np.int64), return_inverse=True)
        texts = []
        for key, x in zip(bits.tolist(), bits.view(np.float64).tolist()):
            text = memo.get(key)
            if text is None:
                text = memo[key] = fmt(x)
            texts.append(text)
        lhs, rhs, gaps = np.array(texts, dtype=object)[inverse.reshape(3, -1)].tolist()
        qs = residuals.q[rows]
        keys = np.column_stack((qs, residuals.l[rows]))
        new = np.ones(len(keys), dtype=bool)
        new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        l_texts = np.array([l_text(key) for key in keys[new].tolist()], dtype=object)[np.cumsum(new) - 1]
        js, j_rows = np.unique(residuals.j[rows], return_inverse=True)
        j_texts = np.array([j_text(j) for j in js.tolist()], dtype=object)[j_rows]
        yield qs.tolist(), l_texts.tolist(), j_texts.tolist(), lhs, rhs, gaps


def _residual_json_chunks(residuals):
    """The texts of the ``residuals`` rows, a list of them per chunk, as
    ``json.dump(..., sort_keys=True, indent=2)`` gives the
    :func:`_residual_row` dicts inside a document."""
    l_entry = _subset_texts(residuals.n, "        ")

    def l_text(key):
        return _json_list([l_entry(l) for l in key[1:1 + key[0]]], "      ")

    for qs, ls, js, lhs, rhs, gaps in _residual_chunks(residuals, _json_float, l_text,
                                                       _subset_texts(residuals.n, "      ")):
        yield [
            f'    {{\n      "J": {j},\n      "L": {l},\n'
            f'      "gap": {gap},\n      "lhs": {a},\n      "q": {q},\n      "rhs": {b}\n    }}'
            for q, l, j, a, b, gap in zip(qs, ls, js, lhs, rhs, gaps)
        ]


def _mask_chunks(values, row, indent=None):
    """``row(subset, value)`` of the values of the masks 1, 2, ..., a list per
    ``_CHUNK_ROWS``; ``subset`` is the mask's :func:`_subset_texts` text at ``indent``."""
    subset = _subset_texts(len(values).bit_length(), indent)  # the values of n generators are 2**n - 1
    rows = enumerate(values, 1)
    while chunk := [row(subset(mask), value) for mask, value in itertools.islice(rows, _CHUNK_ROWS)]:
        yield chunk


def _atom_json(subset: str, eta: float) -> str:
    return f'    {{\n      "eta": {_json_float(eta)},\n      "subset": {subset}\n    }}'


def _total_json(k: str, f1: float) -> str:
    return f'    {{\n      "K": {k},\n      "f1": {_json_float(f1)}\n    }}'


def _atom_csv(subset: str, eta: float) -> str:
    return f'"{subset}",{eta!r}\n'


# the row lists of the documents: each gives a list of row texts per chunk
_ROW_LISTS = {
    "atoms": functools.partial(_mask_chunks, row=_atom_json, indent="      "),
    "totals": functools.partial(_mask_chunks, row=_total_json, indent="      "),
    "residuals": _residual_json_chunks,
}


def _residual_csv_chunks(residuals):
    subset = _subset_texts(residuals.n)

    def l_text(key):
        return "|".join(map(subset, key[1:1 + key[0]]))

    for qs, ls, js, lhs, rhs, gaps in _residual_chunks(residuals, float.__repr__, l_text, subset):
        yield [f'{q},"{l}","{j}",{a},{b},{gap}\n' for q, l, j, a, b, gap in zip(qs, ls, js, lhs, rhs, gaps)]


def _nested_json(value) -> str:
    """``value`` as ``json.dump(..., sort_keys=True, indent=2)`` writes it one
    level down; json escapes newlines inside strings, so every newline of
    the text is a line break."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


def _write_document(doc: dict, config: argparse.Namespace) -> None:
    """Stream the document to ``config.out`` without building its text first.

    Every JSON document, ``diagram``, ``verify`` and ``examples`` alike, has
    the bytes of ``json.dump(doc, sort_keys=True, indent=2)`` plus a
    newline.  Its top-level keys are written in sorted order.  The row
    lists ``atoms``, ``totals`` and ``residuals`` are written by hand in
    their fixed key orders (``eta, subset``; ``K, f1``; ``J, L, gap, lhs,
    q, rhs``), each float as json writes it (``float.__repr__``, or
    ``NaN``, ``Infinity`` and ``-Infinity``), and no dict is built per
    row: ``atoms`` and ``totals`` are values by mask (:func:`cmd_diagram`),
    and ``residuals`` are the sweep's columns, each distinct ``lhs``,
    ``rhs`` or ``gap`` bit pattern formatted once per write
    (:func:`_residual_chunks`).  Each index list and CSV subset cell is
    joined from two half tables built once per write
    (:func:`_subset_texts`).  Any other value goes through ``json.dumps``.
    A CSV document is one line per atom (``diagram``) or per residual
    (``verify``), floats by ``float.__repr__``.  JSON rows and CSV lines
    are formatted ``_CHUNK_ROWS`` at a time, and each chunk goes to the
    handle as one ``write``.
    """
    with _output(config.out) as fh:
        if config.fmt == "csv":
            diagram = config.command == "diagram"
            fh.write("subset,eta\n" if diagram else "q,L,J,lhs,rhs,gap\n")
            for lines in _mask_chunks(doc["atoms"], _atom_csv) if diagram else _residual_csv_chunks(doc["residuals"]):
                fh.write("".join(lines))
        else:
            sep = "{\n  "
            for key in sorted(doc):
                fh.write(sep + json.dumps(key) + ": ")
                if key in _ROW_LISTS:  # a row list is never empty: its "]" goes on a line of its own
                    row_sep = "[\n"
                    for rows in _ROW_LISTS[key](doc[key]):
                        fh.write(row_sep + ",\n".join(rows))
                        row_sep = ",\n"
                    fh.write("\n  ]")
                else:
                    fh.write(_nested_json(doc[key]))
                sep = ",\n  "
            fh.write("\n}\n")


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
    examples.set_defaults(fmt="json")

    render = sub.add_parser("render", help="draw a diagram document as an SVG Venn diagram")
    render.add_argument("document", help="JSON document produced by the diagram subcommand")
    render.add_argument("out", help="output SVG path, or - for stdout")

    return parser


def _check_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if args.command != "render" and not args.tol >= 0:  # NaN compares false
        parser.error(f"--tol must be a nonnegative number, got {args.tol!r}")
    if args.command in ("diagram", "verify"):
        if args.q_max < 1:
            parser.error(f"--qmax must be a positive integer, got {args.q_max}")
        if args.kind in ALPHA_KINDS and args.alpha is None:
            parser.error(f"--alpha is required for --instance {args.kind}")
        if args.kind not in ALPHA_KINDS and args.alpha is not None:
            parser.error(f"--alpha is only meaningful for {sorted(ALPHA_KINDS)}")
        expected = 2 if args.kind in PAIR_KINDS else None
        if expected is not None and len(args.inputs) != expected:
            parser.error(f"--instance {args.kind} needs exactly {expected} input files (P then Q)")
        if args.kind not in PAIR_KINDS and args.kind != "compressor" and len(args.inputs) != 1:
            parser.error(f"--instance {args.kind} takes exactly one input file")


# options whose value may be negative: argparse takes "-1e-3" after one of
# them for an option, so main passes it on as "--alpha=-1e-3"
_NUMBER_OPTIONS = ("--alpha", "--tol", "--epsilon")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _number_option(token: str) -> bool:
    """True for one of ``_NUMBER_OPTIONS`` or an abbreviation of one, as ``--alph`` or ``--to``.

    No other option of the commands shares their first letter after "--",
    so argparse reads each such prefix as that option where the command has it.
    """
    return len(token) > 2 and token.startswith("--") and any(option.startswith(token) for option in _NUMBER_OPTIONS)


def main(argv=None) -> int:
    parser = build_parser()
    args = []
    for arg in sys.argv[1:] if argv is None else argv:
        if args and _number_option(args[-1]) and arg.startswith("-") and _is_float(arg):
            args[-1] += "=" + arg
        else:
            args.append(arg)
    try:
        config = parser.parse_args(args)
        _check_args(config, parser)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if config.command == "render":
            svg = cmd_render(config)
            with _output(config.out) as fh:
                fh.write(svg)
            return EXIT_OK
        command = {"diagram": cmd_diagram, "verify": cmd_verify, "examples": cmd_examples}[config.command]
        doc, failure = command(config)
        _write_document(doc, config)
        if failure is None:
            return EXIT_OK
        print(failure, file=sys.stderr)
        return EXIT_VERIFY
    except (IngestionError, OSError) as exc:
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
