"""The readers' input contract, fuzzed: subset tables, error tables, render documents and sample tables.

Each example writes a valid input, mutates it the ways hand-found reader
faults went (a key written twice at any depth, a number spelled another
way, non-finite literals, a value of another JSON type, a byte-order mark,
NUL and non-UTF-8 bytes, deep nesting, a subset key with a sign or spaces,
an extra top-level key) and runs ``cli.main`` in process.  A subset table
is also read by a strict reference reader written here from the README's
contract, which must accept exactly what the CLI accepts; an accepted input
must give the same bytes as its canonical respelling.  A CSV sample table
is mutated the ways a sample table goes wrong (a ragged row, a second
``__weight`` column, a bad weight, NUL and non-UTF-8 bytes, a quoted field
holding the delimiter); an accepted one must give the same bytes as each
of its respellings.  A CSV or TSV sample table, mutated also the ways the
README's reading rules turn on (zero weights, no variable column, no
sample row, blank lines, Latin-1 text, a byte-order mark), is read by a
reference reader written here from those rules, which must accept exactly
what the CLI accepts and read the same names, rows and weights.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodiagram.cli import main, read_table
from infodiagram.core import indices_of

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# values on a 1/8 grid keep every sum exact, so an accepted table never fails its sweep
_VALUE = st.integers(0, 32).map(lambda k: k / 8)
_NAME = st.text(alphabet="ab:, é", min_size=1, max_size=3)


class _Repeat(Exception):
    pass


def _strict_object(pairs):
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise _Repeat(keys)
    return dict(pairs)


def _strict_json(data: bytes):
    """The JSON value of ``data``, or None for bytes the contract refuses
    before any field is read: not UTF-8, not JSON, nested too deep, or a key
    written twice in some object."""
    try:
        return json.loads(data.decode("utf-8"), object_pairs_hook=_strict_object)
    except (UnicodeDecodeError, ValueError, RecursionError, _Repeat):
        return None


_INDEX = re.compile(r"[+-]?[0-9]+")  # ASCII digits after an optional sign


def _reference_table(data: bytes, field: str):
    """The canonical JSON text of the subset table ``data``, or None where
    the contract refuses it: ``n`` a JSON integer in 1..12, ``field`` an
    object keyed by every subset of 1..n once (indices separated by commas
    or whitespace), each value a finite JSON number (an error also >= 0),
    ``names`` absent or a list of n strings, other top-level keys ignored."""
    doc = _strict_json(data)
    if not isinstance(doc, dict) or "n" not in doc or field not in doc:
        return None
    n, table = doc["n"], doc[field]
    if type(n) is not int or not 1 <= n <= 12 or not isinstance(table, dict):
        return None
    names = doc.get("names", [str(i) for i in range(1, n + 1)])
    if not isinstance(names, list) or len(names) != n or not all(isinstance(name, str) for name in names):
        return None
    values = {}
    for key, value in table.items():
        parts = [part for part in re.split(r"[\s,]+", key) if part]
        if not all(_INDEX.fullmatch(part) and 1 <= int(part) <= n for part in parts):
            return None
        mask = sum({1 << (int(part) - 1) for part in parts})
        if mask in values or type(value) not in (int, float):
            return None
        try:
            values[mask] = float(value)
        except OverflowError:
            return None
    if len(values) < 1 << n or not all(map(math.isfinite, values.values())):
        return None
    if field == "errors" and min(values.values()) < 0:
        return None
    if field == "values" and not all(math.isfinite(v - values[0]) for v in values.values()):
        return None
    canonical = {",".join(map(str, indices_of(mask))): values[mask] for mask in range(1 << n)}
    return json.dumps({"n": n, field: canonical, "names": names}, sort_keys=True)


# ---------------------------------------------------------------------------
# valid inputs as mutable trees: ["obj", [[key, node], ...]], ["arr", [node, ...]],
# ["num", text] or ["raw", text]; an object may hold a key twice


def _tree(value):
    if isinstance(value, dict):
        return ["obj", [[key, _tree(v)] for key, v in value.items()]]
    if isinstance(value, list):
        return ["arr", [_tree(v) for v in value]]
    return ["num" if type(value) in (int, float) else "raw", json.dumps(value)]


def _text(node, space: str) -> str:
    kind, body = node
    if kind == "obj":
        return "{" + ("," + space).join(json.dumps(key) + ":" + space + _text(v, space) for key, v in body) + "}"
    if kind == "arr":
        return "[" + ("," + space).join(_text(v, space) for v in body) + "]"
    return body


def _nodes(node):
    yield node
    if node[0] in ("obj", "arr"):
        for child in node[1]:
            yield from _nodes(child[1] if node[0] == "obj" else child)


def _spellings(text: str):
    """Other spellings of the JSON number ``text``: the same value (an int
    may turn float), then spellings json refuses."""
    x = float(text)
    same = [text + "e0", text + "E+00", format(x, ".17e"), repr(x)]
    if "." in text and "e" not in text:
        same.append(text + "0")
    if x == 0:
        same.append(text[1:] if text.startswith("-") else "-" + text)
    return same + ["0" + text.lstrip("-"), "+" + text, text + ".", "0x1"]


def _key_spellings(key: str):
    return [" " + key, key + " ", "\t" + key + "\n", "+" + key, "-" + key, "+ " + key,
            key.replace(",", ", "), key.replace(",", " "), key.replace(",", ",,"),
            ",".join(reversed(key.split(","))), key + "," + key, key.replace("1", "١")]


_MUTATIONS = ("repeat", "number", "non-finite", "type", "nest", "key", "extra", "bom", "nul", "bytes")


def _mutate(data, tree, space: str) -> bytes:
    """``tree`` as UTF-8 text after one or two drawn mutations; the byte
    mutations (a byte-order mark, NUL, a byte that is not UTF-8) come last."""
    mutations = data.draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=2))
    for mutation in mutations:
        nodes = list(_nodes(tree))
        objects = [node for node in nodes if node[0] == "obj" and node[1]]
        numbers = [node for node in nodes if node[0] == "num"]
        if mutation == "repeat" and objects:
            pairs = data.draw(st.sampled_from(objects))[1]
            key, value = data.draw(st.sampled_from(pairs))
            pairs.insert(data.draw(st.integers(0, len(pairs))), [key, copy.deepcopy(data.draw(
                st.sampled_from([value, ["num", "0.5"]])))])
        elif mutation == "number" and numbers:
            node = data.draw(st.sampled_from(numbers))
            node[1] = data.draw(st.sampled_from(_spellings(node[1])))
        elif mutation == "non-finite" and numbers:
            data.draw(st.sampled_from(numbers))[1] = data.draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400"]))
        elif mutation == "type":  # a string or literal as often as a number
            kind = data.draw(st.sampled_from(["num", "raw"]))
            node = data.draw(st.sampled_from([node for node in nodes if node[0] == kind] or nodes))
            node[:] = ["raw", data.draw(st.sampled_from(["true", "null", '"0.5"', "1", "[]"]))]
        elif mutation == "nest":
            node = data.draw(st.sampled_from(nodes))
            depth = data.draw(st.sampled_from([1, 3, 100_000]))
            node[:] = ["raw", "[" * depth + _text(node, space) + "]" * depth]
        elif mutation == "key" and objects:
            pair = data.draw(st.sampled_from(data.draw(st.sampled_from(objects))[1]))
            pair[0] = data.draw(st.sampled_from(_key_spellings(pair[0])))
        elif mutation == "extra" and tree[0] == "obj":
            tree[1].append(["x", data.draw(st.sampled_from([["raw", "NaN"], ["raw", "[[[{}]]]"], ["raw", '"1"']]))])
    raw = _text(tree, space).encode("utf-8")
    for mutation in mutations:
        if mutation == "bom":
            raw = b"\xef\xbb\xbf" + raw
        elif mutation in ("nul", "bytes"):
            at = data.draw(st.integers(0, len(raw)))
            raw = raw[:at] + (b"\x00" if mutation == "nul" else data.draw(st.sampled_from([b"\xff", b"\xc3"]))) + raw[at:]
    return raw


def _run(*argv):
    """``main(argv)`` in process: the exit code and stderr, after checking
    that stderr is empty on success and one line without a traceback otherwise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    err = err.getvalue()
    assert code in (0, 2, 3, 4)
    assert out.getvalue() == ""
    assert err == "" if code == 0 else (err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err)
    return code, err


@st.composite
def _subset_tables(draw):
    n = draw(st.integers(1, 3))
    field = draw(st.sampled_from(["values", "errors"]))
    doc = {"n": n, field: {draw(st.sampled_from([",", " ", ", "])).join(map(str, indices_of(mask))): draw(_VALUE)
                           for mask in draw(st.permutations(range(1 << n)))}}
    if draw(st.booleans()):
        doc["names"] = draw(st.lists(_NAME, min_size=n, max_size=n))
    return field, list(draw(st.permutations(list(doc.items()))))


@FUZZ
@given(table=_subset_tables(), space=st.sampled_from(["", " ", "\n  "]), data=st.data())
def test_subset_tables_are_read_as_the_reference_reader_reads_them(table, space, data):
    field, items = table
    raw = _mutate(data, _tree(dict(items)), space)
    kind = "setfun" if field == "values" else "advantage"
    canonical = _reference_table(raw, field)
    with tempfile.TemporaryDirectory() as folder:
        path, doc, again = (Path(folder) / name for name in ("in.json", "doc.json", "again.json"))
        path.write_bytes(raw)
        code, err = _run("diagram", str(path), "--instance", kind, "--out", str(doc))
        assert (code == 0) == (canonical is not None), (raw, err)
        if _strict_json(raw) is None:
            assert code == 2
        if canonical is not None:
            path.write_text(canonical, encoding="utf-8")
            assert _run("diagram", str(path), "--instance", kind, "--out", str(again)) == (0, "")
            assert again.read_bytes() == doc.read_bytes()


@st.composite
def _render_documents(draw):
    n = draw(st.sampled_from([2, 3]))
    atoms = [{"eta": draw(_VALUE), "subset": list(indices_of(mask))} for mask in draw(st.permutations(range(1, 1 << n)))]
    meta = {"n": n, "instance": "shannon", "generators": draw(st.lists(_NAME, min_size=n, max_size=n))}
    return {"metadata": meta, "atoms": atoms}


@FUZZ
@given(document=_render_documents(), space=st.sampled_from(["", " ", "\n  "]), data=st.data())
def test_render_documents_refuse_cleanly_and_ignore_spelling(document, space, data):
    raw = _mutate(data, _tree(document), space)
    strict = _strict_json(raw)
    with tempfile.TemporaryDirectory() as folder:
        path, svg, again = (Path(folder) / name for name in ("in.json", "out.svg", "again.svg"))
        path.write_bytes(raw)
        code, _ = _run("render", str(path), str(svg))
        if strict is None:
            assert code == 2
        elif code == 0:
            path.write_text(json.dumps(strict, sort_keys=True), encoding="utf-8")
            assert _run("render", str(path), str(again)) == (0, "")
            assert again.read_bytes() == svg.read_bytes()


# ---------------------------------------------------------------------------
# sample tables as lists of rows of fields, header first


@st.composite
def _sample_tables(draw):
    """A valid table: 1-3 variables (names may repeat), 1-6 samples, and
    maybe a ``__weight`` column of positive weights at a drawn place."""
    n = draw(st.integers(1, 3))
    header = draw(st.lists(st.sampled_from(["x", "y", "é"]), min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(st.sampled_from(["0", "1", "a b", "é"]), min_size=n, max_size=n),
                         min_size=1, max_size=6))
    if draw(st.booleans()):
        at = draw(st.integers(0, n))
        for row in [header, *rows]:
            row.insert(at, "__weight" if row is header else draw(st.sampled_from(["1", "0.5", "3e0"])))
    return [header, *rows]


def _delimited(table, delimiter=",", quoting=csv.QUOTE_MINIMAL) -> str:
    text = io.StringIO()
    csv.writer(text, delimiter=delimiter, quoting=quoting, lineterminator="\n").writerows(table)
    return text.getvalue()


_TABLE_MUTATIONS = ("weight-column", "bad-weight", "nul", "quoted", "ragged", "bytes")
_REFUSED = ("weight-column", "bad-weight", "ragged", "bytes")  # each alone makes the table exit 2
# every mutation in the order it applies, so each finds the fields it changes; bytes go in last.
# The spelling test draws only _TABLE_MUTATIONS: the others, which the reading rules turn on,
# include a byte-order mark and a table with no row left, which its respellings do not fit
_ORDER = ("weight-column", "bad-weight", "zero-weights", "nul", "quoted", "no-variables", "ragged",
          "no-samples", "blank", "latin-1", "bom", "bytes")


def _add_weight_column(table) -> None:
    for row in table:
        row.append("__weight" if row is table[0] else "1")


def _mutate_table(data, table, mutations, delimiter=",") -> bytes:
    """``table`` as delimited bytes after the drawn ``mutations``."""
    header, rows = table[0], table[1:]
    for mutation in sorted(mutations, key=_ORDER.index):
        if mutation == "ragged":  # a row loses its last field, or a row of one field gains one
            row = data.draw(st.sampled_from(rows))
            if len(row) > 1:
                row.pop()
            else:
                row.append("0")
        elif mutation == "weight-column":
            while header.count("__weight") < 2:
                _add_weight_column(table)
        elif mutation == "bad-weight":
            if "__weight" not in header:
                _add_weight_column(table)
            data.draw(st.sampled_from(rows))[header.index("__weight")] = data.draw(
                st.sampled_from(["nan", "-1", "inf", "x"]))
        elif mutation == "zero-weights":  # some rows, or all, weigh 0
            if "__weight" not in header:
                _add_weight_column(table)
            for row in rows:
                if data.draw(st.booleans()):
                    row[header.index("__weight")] = "0"
        elif mutation in ("nul", "quoted"):
            row = data.draw(st.sampled_from(table if mutation == "nul" else rows))
            at = data.draw(st.sampled_from([i for i, name in enumerate(header) if name != "__weight"]))
            row[at] = row[at] + "\x00" if mutation == "nul" else "a,b"
        elif mutation == "no-variables":  # only the weight columns are left
            if "__weight" not in header:
                _add_weight_column(table)
            keep = [i for i, name in enumerate(header) if name == "__weight"]
            for row in table:
                row[:] = [row[i] for i in keep]
        elif mutation == "no-samples":
            del table[data.draw(st.integers(0, 1)):]
    text = _delimited(table, delimiter)
    if "blank" in mutations:  # blank lines before some line, or at the end
        lines = text.split("\n")
        at = data.draw(st.integers(0, len(lines) - 1))
        text = "\n".join(lines[:at] + [data.draw(st.sampled_from(["", "\r", "\n"]))] + lines[at:])
    raw = text.encode("latin-1" if "latin-1" in mutations else "utf-8")
    if "bom" in mutations:
        raw = b"\xef\xbb\xbf" + raw
    if "bytes" in mutations:
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + data.draw(st.sampled_from([b"\xff", b"\xc3"])) + raw[at:]
    return raw


def _reference_samples(data: bytes, delimiter: str):
    """``(names, rows, weights)`` of the sample table ``data``, or None where
    the README's rules refuse it: UTF-8 text after an optional byte-order
    mark, blank lines skipped; a header row of names, read stripped, and at
    least one sample row; at most one ``__weight`` column and at least one
    other column; every row as long as the header; each weight a finite
    number >= 0 (1 without the column), and some weight positive."""
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
        table = [row for row in csv.reader(io.StringIO(text, newline=""), delimiter=delimiter) if row]
    except (UnicodeDecodeError, csv.Error):
        return None
    if len(table) < 2:
        return None
    header = [name.strip() for name in table[0]]
    at = [i for i, name in enumerate(header) if name == "__weight"]
    if len(at) > 1 or len(at) == len(header):
        return None
    names = [name for i, name in enumerate(header) if i not in at]
    rows, weights = [], []
    for row in table[1:]:
        if len(row) != len(header):
            return None
        try:
            weight = float(row[at[0]]) if at else 1.0
        except ValueError:
            return None
        if not math.isfinite(weight) or weight < 0:
            return None
        rows.append(tuple(field for i, field in enumerate(row) if i not in at))
        weights.append(weight)
    return (names, rows, weights) if any(weights) else None


@settings(FUZZ, max_examples=100)
@given(table=_sample_tables(), data=st.data())
def test_sample_tables_refuse_cleanly_and_ignore_spelling(table, data):
    mutations = data.draw(st.lists(st.sampled_from(_TABLE_MUTATIONS), max_size=2))
    raw = _mutate_table(data, table, mutations)
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)

        def diagram(name: str, content: bytes):
            path, doc = folder / name, folder / (name + ".json")
            path.write_bytes(content)
            code, _ = _run("diagram", str(path), "--instance", "shannon", "--qmax", "1", "--out", str(doc))
            return code, doc.read_bytes() if code == 0 else None

        code, doc = diagram("in.csv", raw)
        if any(mutation in _REFUSED for mutation in mutations):
            assert code == 2
        elif "nul" not in mutations:  # the csv module reads a NUL from Python 3.11 on, and refuses it before
            assert code == 0, raw
        if code == 0:
            text = raw.decode("utf-8")
            for name, respelled in [
                ("crlf.csv", text.replace("\n", "\r\n").encode("utf-8")),
                ("bom.csv", b"\xef\xbb\xbf" + raw),
                ("blank.csv", ("\n" + text.replace("\n", "\n\n", 1) + "\n").encode("utf-8")),
                ("quoted.csv", _delimited(table, quoting=csv.QUOTE_ALL).encode("utf-8")),
                ("table.tsv", _delimited(table, delimiter="\t").encode("utf-8")),
            ]:
                assert diagram(name, respelled) == (0, doc), name


@pytest.mark.parametrize("mutation", _ORDER)  # each mutation leads a dozen examples
@settings(FUZZ, max_examples=12)
@given(table=_sample_tables(), delimiter=st.sampled_from([",", "\t"]), data=st.data())
def test_sample_tables_are_read_as_the_reference_reader_reads_them(mutation, table, delimiter, data):
    mutations = [mutation] + data.draw(st.lists(st.sampled_from(_ORDER), max_size=1))
    raw = _mutate_table(data, table, mutations, delimiter)
    want = _reference_samples(raw, delimiter)
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / ("in.csv" if delimiter == "," else "in.tsv")
        path.write_bytes(raw)
        code, err = _run("diagram", str(path), "--instance", "shannon", "--qmax", "1",
                         "--out", str(Path(folder) / "doc.json"))
        assert (code == 0) == (want is not None), (raw, err)
        if want is not None:
            assert read_table(str(path)) == want
