"""The JSON readers' input contract, fuzzed: subset tables, error tables and render documents.

Each example writes a valid input, mutates it the ways hand-found reader
faults went (a key written twice at any depth, a number spelled another
way, non-finite literals, a value of another JSON type, a byte-order mark,
NUL and non-UTF-8 bytes, deep nesting, a subset key with a sign or spaces,
an extra top-level key) and runs ``cli.main`` in process.  A subset table
is also read by a strict reference reader written here from the README's
contract, which must accept exactly what the CLI accepts; an accepted input
must give the same bytes as its canonical respelling.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from infodiagram.cli import main
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
