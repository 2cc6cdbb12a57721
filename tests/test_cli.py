"""End-to-end CLI tests: ingestion formats, exit codes, documents, rendering."""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import random
import struct
import tracemalloc

import pytest

import infodiagram.cli as cli
import infodiagram.shannon as shannon
from infodiagram.cli import main
from infodiagram.core import indices_of
from infodiagram.setfun import SetFunction, r1_instance

XOR_CSV = "X,Y,Z\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def atom_value(doc, subset):
    for entry in doc["atoms"]:
        if entry["subset"] == list(subset):
            return entry["eta"]
    raise AssertionError(f"no atom {subset} in document")


def _capture_documents(monkeypatch, name):
    """The documents ``cli.<name>`` hands to the writer, in call order."""
    docs = []
    real = getattr(cli, name)

    def capture(config):
        result = real(config)
        docs.append(result[0] if isinstance(result, tuple) else result)
        return result

    monkeypatch.setattr(cli, name, capture)
    return docs


# ---------------------------------------------------------------------------
# diagram


def test_diagram_xor(tmp_path, capsys):
    csv_path = write(tmp_path, "xor.csv", XOR_CSV)
    code, out, err = run(capsys, "diagram", csv_path, "--instance", "shannon", "--base", "bits")
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["generators"] == ["X", "Y", "Z"]
    assert atom_value(doc, (1, 2, 3)) == pytest.approx(-1.0, abs=1e-9)
    assert doc["verification"]["passed"] is True
    # every joint total must equal the sum of the atoms its circles cover
    total_full = next(t["f1"] for t in doc["totals"] if t["K"] == [1, 2, 3])
    assert total_full == pytest.approx(2.0, abs=1e-12)


def test_diagram_duplicated_column(tmp_path, capsys):
    csv_path = write(tmp_path, "dup.csv", "A,B\n0,0\n1,1\n2,2\n")
    code, out, _ = run(capsys, "diagram", csv_path, "--instance", "shannon", "--base", "bits")
    assert code == 0
    doc = json.loads(out)
    assert atom_value(doc, (1,)) == pytest.approx(0.0, abs=1e-12)
    assert atom_value(doc, (2,)) == pytest.approx(0.0, abs=1e-12)
    assert atom_value(doc, (1, 2)) == pytest.approx(math.log2(3), abs=1e-12)


def test_diagram_independent_columns(tmp_path, capsys):
    rows = "\n".join(f"{a},{b}" for a in (0, 1) for b in (0, 1))
    csv_path = write(tmp_path, "ind.csv", "A,B\n" + rows + "\n")
    code, out, _ = run(capsys, "diagram", csv_path, "--instance", "shannon")
    assert code == 0
    doc = json.loads(out)
    assert atom_value(doc, (1, 2)) == pytest.approx(0.0, abs=1e-12)


def _diagram_inputs(tmp_path, case):
    """Input arguments of a small two-generator diagram of an instance kind,
    or of a set function whose totals include -0.0."""
    table = write(tmp_path, "p.csv", "A,B,__weight\n0,0,3\n0,1,1\n1,0,2\n1,1,1.5\n")
    other = write(tmp_path, "q.csv", "A,B\n0,0\n0,1\n1,0\n1,1\n1,1\n")
    values = {"": 0.0, "1": -0.0, "2": 0.5, "1 2": 0.25} if case == "setfun-negative-zero" else \
        {"": 0.0, "1": 1.0, "2": 1.0, "1 2": 1.5}
    kind = "setfun" if case == "setfun-negative-zero" else case
    inputs = {
        "shannon": [table],
        "tsallis": [table, "--alpha", "0.5"],
        "kl": [table, other],
        "alpha-kl": [table, other, "--alpha", "0.5"],
        "cross-entropy": [table, other],
        "setfun": [write(tmp_path, "sf.json", json.dumps({"n": 2, "values": values}))],
        "advantage": [write(tmp_path, "ev.json", json.dumps({"n": 2, "errors": {"": 1, "1": 1, "2": 1, "1 2": 0}}))],
        "compressor": [write(tmp_path, "a.txt", "abc" * 20), write(tmp_path, "b.txt", "xyz" * 9)],
    }[kind]
    return [*inputs, "--instance", kind]


def _old_diagram(doc) -> dict:
    """The diagram document with one dict per atom and per total, as it used to hold them."""
    return {**doc,
            "atoms": [{"subset": list(indices_of(a)), "eta": eta} for a, eta in enumerate(doc["atoms"], 1)],
            "totals": [{"K": list(indices_of(k)), "f1": f1} for k, f1 in enumerate(doc["totals"], 1)]}


@pytest.mark.parametrize("command, case", [
    *(("diagram", kind) for kind in cli.KINDS),
    ("diagram", "setfun-negative-zero"),
    *(("examples", name) for name in cli.EXAMPLE_NAMES),
])
def test_diagram_roundtrip_bit_exact(tmp_path, capsys, monkeypatch, command, case):
    # every JSON document is written by hand; its bytes are those json.dump
    # gives the returned document, to stdout and to a file alike
    docs = _capture_documents(monkeypatch, f"cmd_{command}")
    argv = [command, *(_diagram_inputs(tmp_path, case) if command == "diagram" else [case])]
    out_path = tmp_path / "doc.json"
    code, out, _ = run(capsys, *argv)
    assert (code, run(capsys, *argv, "--out", str(out_path))[0]) == (0, 0)
    assert len(docs) == 2
    if command == "diagram":  # the atoms and totals are values in mask order
        docs = [_old_diagram(doc) for doc in docs]
    for doc, text in zip(docs, (out, out_path.read_text(encoding="utf-8"))):
        fh = io.StringIO()
        json.dump(doc, fh, sort_keys=True, indent=2)
        assert text == fh.getvalue() + "\n"
    if command == "diagram":
        # serialize-parse keeps every float bit-exact, the sign of zero included
        again = json.loads(out)
        assert [repr(a["eta"]) for a in again["atoms"]] == [repr(a["eta"]) for a in docs[0]["atoms"]]
        assert [repr(t["f1"]) for t in again["totals"]] == [repr(t["f1"]) for t in docs[0]["totals"]]
    if case == "setfun-negative-zero":
        assert '"f1": -0.0' in out


def test_shannon_document_is_the_same_when_joints_build_their_labels_eagerly(tmp_path, capsys, monkeypatch):
    # the totals read each joint's label counts and codes only, so the n = 12
    # document does not depend on whether a joint's distinct labels exist
    rng = random.Random(12)
    header = ",".join(f"x{j}" for j in range(1, 13))
    rows = "".join(",".join(str(rng.randrange(3)) for _ in range(12)) + "\n" for _ in range(150))
    table = write(tmp_path, "t.csv", header + "\n" + rows)
    lazy, eager = tmp_path / "lazy.json", tmp_path / "eager.json"
    assert run(capsys, "diagram", table, "--instance", "shannon", "--out", str(lazy))[0] == 0
    real, built = shannon._joint_variable, []

    def eager_joint(parts, name=""):
        var = real(parts, name)
        var.values()
        built.append(var.name)
        return var

    monkeypatch.setattr(shannon, "_joint_variable", eager_joint)
    assert run(capsys, "diagram", table, "--instance", "shannon", "--out", str(eager))[0] == 0
    assert len(built) == 4095
    assert lazy.read_bytes() == eager.read_bytes()


def test_diagram_holds_no_row_object_per_atom_or_total(monkeypatch):
    # the atoms and totals reach the writer as the engine's own values, and
    # each row's index list is formatted as it is written: at n = 14 the
    # diagram and its write allocate at most about 2.8 MB at once, against
    # 12.9 MB with a dict and an index list per atom and per total
    monkeypatch.setenv("INFODIAGRAM_MAX_N", "14")
    n = 14
    rng = random.Random(14)
    weights = [rng.uniform(0.5, 2.0) for _ in range(n)]
    values = [math.sqrt(sum(w for i, w in enumerate(weights) if mask >> i & 1)) for mask in range(1 << n)]
    inst = r1_instance(SetFunction(n, values))
    monkeypatch.setattr(cli, "build_instance", lambda config: (inst, [str(i) for i in range(1, n + 1)]))
    for fmt in ("json", "csv"):
        config = argparse.Namespace(command="diagram", kind="setfun", fmt=fmt, out=os.devnull,
                                    q_max=3, tol=1e-9, seed=0)
        tracemalloc.start()
        try:
            doc, _ = cli.cmd_diagram(config)
            cli._write_document(doc, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del doc
        assert peak < 6e6, (fmt, peak)


def test_diagram_csv_format(tmp_path, capsys):
    csv_path = write(tmp_path, "xor.csv", XOR_CSV)
    code, out, _ = run(capsys, "diagram", csv_path, "--instance", "shannon", "--base", "bits",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "subset,eta"
    assert len(lines) == 8  # header + 7 atoms
    assert any(line.startswith('"1 2 3",') for line in lines)


def test_diagram_tsv_and_weights(tmp_path, capsys):
    tsv_path = write(tmp_path, "t.tsv", "A\tB\t__weight\n0\t0\t1\n1\t1\t1\n")
    code, out, _ = run(capsys, "diagram", tsv_path, "--instance", "shannon", "--base", "bits")
    assert code == 0
    doc = json.loads(out)
    assert atom_value(doc, (1, 2)) == pytest.approx(1.0, abs=1e-12)
    # the extension is matched without regard to case: a .TSV table is a TSV table
    upper_path = write(tmp_path, "t.TSV", "A\tB\t__weight\n0\t0\t1\n1\t1\t1\n")
    assert run(capsys, "diagram", upper_path, "--instance", "shannon", "--base", "bits") == (0, out, "")


def test_diagram_tsallis_requires_alpha(tmp_path, capsys):
    csv_path = write(tmp_path, "xor.csv", XOR_CSV)
    code, _, _ = run(capsys, "diagram", csv_path, "--instance", "tsallis")
    assert code == 2
    code, out, _ = run(capsys, "diagram", csv_path, "--instance", "tsallis", "--alpha", "2.0")
    assert code == 0
    assert json.loads(out)["metadata"]["alpha"] == 2.0


def test_diagram_ingestion_errors(tmp_path, capsys):
    ragged = write(tmp_path, "bad.csv", "A,B\n0\n")
    code, _, err = run(capsys, "diagram", ragged, "--instance", "shannon")
    assert code == 2
    assert "row 1" in err

    missing = str(tmp_path / "nope.csv")
    code, _, err = run(capsys, "diagram", missing, "--instance", "shannon")
    assert code == 2

    # a key is read by the library's key rule, so index 0 gets its 1-based message
    for key, message in (("4", "subset key '4' is out of range 1..3"),
                         ("1;2", "subset key '1;2' is not a list of indices"),
                         # int() reads both, as 10 and 1: a part is ASCII digits after an optional sign
                         ("1_0", "subset key '1_0' is not a list of indices"),
                         ("\u0661", "subset key '\u0661' is not a list of indices"),
                         ("0", "generator indices are 1-based positive ints, got 0")):
        sf_path = write(tmp_path, "sf.json", json.dumps({"n": 3, "values": {"": 0.0, key: 1.0}}))
        code, _, err = run(capsys, "diagram", sf_path, "--instance", "setfun")
        assert code == 2
        assert f"ingestion error: {sf_path}: {message}" in err

    # subset-table values are JSON numbers: a boolean or a numeric string is refused
    for kind, field in (("setfun", "values"), ("advantage", "errors")):
        for bad in (True, "0.5"):
            sf_path = write(tmp_path, "sf.json", json.dumps({"n": 1, field: {"": 0, "1": bad}}))
            code, out, err = run(capsys, "diagram", sf_path, "--instance", kind)
            assert (code, out) == (2, "")
            assert f"ingestion error: {sf_path}: value for subset '1' is not a number" in err
        # a NaN literal is a number, refused by the instance as before
        sf_path = write(tmp_path, "sf.json", '{"n": 1, "%s": {"": 0, "1": NaN}}' % field)
        code, out, _ = run(capsys, "diagram", sf_path, "--instance", kind)
        assert (code, out) == (3, "")


@pytest.mark.parametrize("kind, content", [
    pytest.param("shannon", b"A,B\n0,\xff\n", id="csv-not-utf8"),
    pytest.param("setfun", b'{"n": 1, "values": {"": 0, "1": "\xff"}}', id="setfun-not-utf8"),
    pytest.param(None, b'{"metadata": {"n": 2, "instance": "\xff"}}', id="render-not-utf8"),
    pytest.param("shannon", b"A\n" + b"x" * (csv.field_size_limit() + 1) + b"\n", id="csv-field-past-limit"),
    pytest.param("setfun", b'{"n": 1, "values": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", id="json-nested-too-deep"),
])
def test_unreadable_inputs_exit_2(tmp_path, capsys, kind, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    argv = ["render", str(path), str(tmp_path / "out.svg")] if kind is None else \
        ["diagram", str(path), "--instance", kind]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"ingestion error: {path}: ")


@pytest.mark.parametrize("header, bad, message", [
    *(pytest.param("A,B,__weight", bad, " row 2: weight", id=bad) for bad in ("-1", "nan", "heavy")),
    # a second weight column is not a variable named __weight
    pytest.param("A,__weight,__weight", "1", ": more than one __weight column", id="second-weight-column"),
])
def test_bad_weight_names_file_and_row(tmp_path, capsys, header, bad, message):
    csv_path = write(tmp_path, "w.csv", f"{header}\n0,0,1\n1,1,{bad}\n")
    code, out, err = run(capsys, "diagram", csv_path, "--instance", "shannon")
    assert code == 2
    assert out == ""
    assert f"ingestion error: {csv_path}{message}" in err


def test_byte_order_mark_is_not_part_of_the_header(tmp_path, capsys):
    table = "A,B,__weight\n0,0,3\n0,1,1\n1,0,2\n1,1,1.5\n"
    plain = write(tmp_path, "plain.csv", table)
    marked = write(tmp_path, "marked.csv", "\ufeff" + table)
    docs = [run(capsys, "diagram", path, "--instance", "shannon") for path in (plain, marked)]
    assert docs[0][0] == 0
    assert docs[1] == docs[0]


def test_read_table_holds_one_copy_of_the_table(tmp_path):
    # one pass over the reader: no whole-file list of fields and filtered copy beside the rows kept
    rng = random.Random(7)
    n, count = 12, 20_000
    lines = [",".join(f"x{j + 1}" for j in range(n))]
    lines += [",".join(str(rng.randrange(3)) for _ in range(n)) for _ in range(count)]
    path = write(tmp_path, "wide.csv", "\n".join(lines) + "\n")
    del lines
    tracemalloc.start()
    try:
        names, rows, weights = cli.read_table(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(names), len(rows), len(weights)) == (n, count, count)
    assert peak <= 1.25 * held, (peak, held)


@pytest.mark.parametrize("body, message", [
    pytest.param("0,0,1\n\n\n1,1,heavy\n", "row 2: weight 'heavy' is not a number", id="weight"),
    pytest.param("0,0,1\n\n1,1\n", "row 2: expected 3 fields, got 2", id="ragged"),
])
def test_row_numbers_skip_blank_lines(tmp_path, capsys, body, message):
    csv_path = write(tmp_path, "gaps.csv", "\nA,B,__weight\n\n" + body + "\n")
    code, out, err = run(capsys, "diagram", csv_path, "--instance", "shannon")
    assert (code, out) == (2, "")
    assert err == f"ingestion error: {csv_path} {message}\n"


def test_paired_table_with_itself_is_its_empirical_distribution(tmp_path):
    rng = random.Random(3)
    body = "".join(f"{rng.randrange(3)},{rng.randrange(2)},{rng.randrange(4)},{rng.uniform(0.1, 2.0)!r}\n"
                   for _ in range(300))
    table = write(tmp_path, "t.csv", "A,B,C,__weight\n" + body)
    pair, gens, names = cli.paired_empirical(table, table)
    names_t, rows, weights = cli.read_table(table)
    dist, ref = shannon.empirical_from_rows(rows, weights)
    assert names == names_t == [g.name for g in gens] == ["A", "B", "C"]
    assert pair.p.points == dist.points
    assert pair.p.masses.tobytes() == pair.q.masses.tobytes() == dist.masses.tobytes()
    assert [g.partition() for g in gens] == [g.partition() for g in ref]


@pytest.mark.parametrize("kind", ["tsallis", "alpha-kl"])
def test_negative_alpha_needs_strictly_positive_masses(tmp_path, capsys, kind):
    # conditioning zeroes masses, which a negative power cannot take
    p_csv = write(tmp_path, "p.csv", "A,B\n0,0\n0,1\n1,0\n1,1\n")
    q_csv = write(tmp_path, "q.csv", "A,B,__weight\n0,0,2\n0,1,1\n1,0,1\n1,1,4\n")
    inputs = [p_csv, q_csv] if kind == "alpha-kl" else [p_csv]
    # argparse alone takes "-5e-1" after --alpha for an option
    for command, alpha in itertools.product(("diagram", "verify"), ("-0.5", "-5e-1")):
        code, out, err = run(capsys, command, *inputs, "--instance", kind, "--alpha", alpha)
        assert code == 3
        assert out == ""
        assert "strictly positive" in err


def test_abbreviated_number_options_take_negative_values(tmp_path, capsys):
    # argparse resolves --alph, --to and --ep to the full options; a negative
    # value in exponent form after one reaches the program as it does after "="
    p_csv = write(tmp_path, "p.csv", "A,B\n0,0\n0,1\n1,0\n1,1\n")
    cases = [
        (["diagram", p_csv, "--instance", "tsallis"], "--alpha", ("--a", "--alph"), "-1e-3", 3),
        (["examples", "xor-i3"], "--tol", ("--t", "--to"), "-1e-9", 2),
        (["examples", "bsc-d2"], "--epsilon", ("--e", "--ep"), "-1e-9", 3),
    ]
    for command, option, abbreviations, value, code in cases:
        expected = run(capsys, *command, f"{option}={value}")
        assert expected[0] == code
        for abbreviation in [option, *abbreviations]:
            assert run(capsys, *command, abbreviation, value) == expected
    # a prefix of a number option that the command lacks is still refused
    code, _, err = run(capsys, "diagram", p_csv, "--instance", "tsallis", "--e", "-1e-3")
    assert code == 2
    assert "unrecognized arguments: --e=-1e-3" in err


def test_overflowing_family_value_exits_3(tmp_path, capsys):
    # Q masses of 0.001 to the power 1 - alpha = -399 are beyond a float
    p_csv = write(tmp_path, "p.csv", "A,B\n0,0\n0,1\n1,0\n1,1\n")
    q_csv = write(tmp_path, "q.csv", "A,B,__weight\n0,0,997\n0,1,1\n1,0,1\n1,1,1\n")
    # and a set function's total R(1) - R(0) = -2e308
    sf_path = write(tmp_path, "sf.json", json.dumps({"n": 1, "values": {"": 1e308, "1": -1e308}}))
    cases = [
        ([p_csv, q_csv, "--instance", "alpha-kl", "--alpha", "400"],
         "alpha kl value out of floating-point range at parameter 400.0"),
        ([sf_path, "--instance", "setfun"], "set-function totals R(K) - R(0) out of floating-point range"),
    ]
    for command, (args, message) in itertools.product(("diagram", "verify"), cases):
        code, out, err = run(capsys, command, *args)
        assert (code, out) == (3, "")
        assert f"instance error: {message}" in err


_PQ = {"p.csv": "A,B\n0,0\n1,1\n"}
_SF = "sf.json"


@pytest.mark.parametrize("files, argv, code, message", [
    pytest.param({"t.csv": "A,B\n"}, ["diagram", "t.csv", "--instance", "shannon"], 2,
                 "ingestion error: t.csv: need a header row and at least one sample row", id="header-only-table"),
    pytest.param({"t.csv": "__weight\n1\n"}, ["diagram", "t.csv", "--instance", "shannon"], 2,
                 "ingestion error: t.csv: no variable columns", id="weight-column-only"),
    pytest.param({**_PQ, "q.csv": "A,C\n0,0\n1,1\n"}, ["diagram", "p.csv", "q.csv", "--instance", "kl"], 2,
                 "ingestion error: variable names differ between p.csv and q.csv: ['A', 'B'] vs ['A', 'C']",
                 id="pair-headers-differ"),
    pytest.param({_SF: "not json"}, ["diagram", _SF, "--instance", "setfun"], 2,
                 "ingestion error: sf.json: invalid JSON: ", id="setfun-not-json"),
    pytest.param({_SF: "[1, 2]"}, ["diagram", _SF, "--instance", "setfun"], 2,
                 "ingestion error: sf.json: expected an object with 'n' and 'values'", id="subset-table-not-object"),
    pytest.param({_SF: '{"n": 2, "values": [0, 1, 1, 2]}'}, ["diagram", _SF, "--instance", "setfun"], 2,
                 "ingestion error: sf.json: 'values' must map subset keys to numbers", id="values-a-list"),
    # a key written twice is refused by the JSON reader; two spellings of one subset by the key rule
    pytest.param({_SF: '{"n": 1, "values": {"": 0.0, "1": 0.5, "1": 0.9}}'}, ["diagram", _SF, "--instance", "setfun"], 2,
                 "ingestion error: sf.json: duplicate key '1'", id="key-repeated-verbatim"),
    pytest.param({_SF: '{"n": 1, "values": {"": 0.0, "1": 0.5, " 1": 0.9}}'}, ["diagram", _SF, "--instance", "setfun"], 2,
                 "ingestion error: sf.json: duplicate subset key '1'", id="key-repeated-with-a-space"),
    pytest.param({_SF: '{"n": 1, "errors": {"": 1, "1": 0.5, "1": 0.5}, "names": ["a:b"]}'},
                 ["diagram", _SF, "--instance", "advantage"], 2,
                 "ingestion error: sf.json: duplicate key '1'", id="error-key-repeated-verbatim"),
    pytest.param({_SF: '{"n": 2, "values": {"": 0, "1": 1, "2": 1, "1 2": 2}, "names": ["a"]}'},
                 ["diagram", _SF, "--instance", "setfun"], 2,
                 "ingestion error: sf.json: 'names' must list 2 generator names", id="one-name-at-n-2"),
    pytest.param({_SF: '{"n": 2, "values": {"": 0, "1": 1, "2": 1, "1 2": 2}, "names": [1, {"a": 2}]}'},
                 ["diagram", _SF, "--instance", "setfun"], 2,
                 "ingestion error: sf.json: 'names' must list 2 generator names", id="names-not-strings"),
    pytest.param({**_PQ, "d": None}, ["diagram", "d", "p.csv", "--instance", "compressor"], 2,
                 "ingestion error: d: ", id="directory-blob"),
    pytest.param(_PQ, ["diagram", "p.csv", "--instance", "shannon", "--alpha", "0.5"], 2,
                 "--alpha is only meaningful for ['alpha-kl', 'tsallis']", id="alpha-for-shannon"),
    pytest.param(_PQ, ["diagram", "p.csv", "p.csv", "--instance", "shannon"], 2,
                 "--instance shannon takes exactly one input file", id="two-inputs-for-shannon"),
    pytest.param(_PQ, ["diagram", "p.csv", "--instance", "tsallis", "--alpha", "nan"], 3,
                 "instance error: alpha must be finite, got nan", id="nan-alpha"),
    # non-dyadic values leave a roundoff gap in the sweep
    pytest.param({_SF: '{"n": 2, "values": {"": 0, "1": 0.1, "2": 0.2, "1 2": 0.7}}'},
                 ["diagram", _SF, "--instance", "setfun", "--tol", "0"], 4,
                 "verification error: diagram identity check failed: max residual 5.551e-17 > tolerance 0.0e+00",
                 id="setfun-diagram-roundoff"),
    pytest.param({}, ["examples", "venn-decomposition", "--tol", "0", "--seed", "3", "--out", "doc.json"], 4,
                 "example 'venn-decomposition' failed: value 2.220446049250313e-16 vs expected 0.0",
                 id="venn-decomposition-roundoff"),
])
def test_refusals_exit_with_their_code_and_message(tmp_path, capsys, monkeypatch, files, argv, code, message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        if text is None:
            (tmp_path / name).mkdir()
        else:
            write(tmp_path, name, text)
    exit_code, out, err = run(capsys, *argv)
    assert (exit_code, out) == (code, "")
    assert message in err


def test_nan_totals_gap_fails_the_diagram(tmp_path, capsys, monkeypatch):
    # the totals check of diagram compares each F1 with its atom sum; a NaN
    # atom sum is a failure, not a gap that compares false with the tolerance
    import infodiagram.cli as cli

    real = cli.verify_hu

    def nan_zeta(inst, **kwargs):
        report = real(inst, **kwargs)
        report.zeta[0] = math.nan  # the atom sum of K = full reads zeta[full ^ K]
        return report

    monkeypatch.setattr(cli, "verify_hu", nan_zeta)
    csv_path = write(tmp_path, "xor.csv", XOR_CSV)
    code, out, err = run(capsys, "diagram", csv_path, "--instance", "shannon")
    assert (code, out) == (4, "")
    assert "total consistency check failed for K=[1, 2, 3]" in err


# ---------------------------------------------------------------------------
# two-distribution ingestion


def test_pair_join_and_absolute_continuity(tmp_path, capsys):
    p_csv = write(tmp_path, "p.csv", "A,B\n0,0\n0,1\n1,0\n1,1\n")
    q_csv = write(tmp_path, "q.csv", "A,B\n0,0\n0,1\n1,0\n")  # missing a P row
    code, _, err = run(capsys, "diagram", p_csv, q_csv, "--instance", "kl")
    assert code == 3
    assert "absolute continuity" in err

    q_ok = write(tmp_path, "q2.csv", "A,B,__weight\n0,0,2\n0,1,1\n1,0,1\n1,1,4\n")
    code, out, _ = run(capsys, "diagram", p_csv, q_ok, "--instance", "kl", "--base", "bits")
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["instance"] == "kl"
    assert len(doc["atoms"]) == 3

    code, _, _ = run(capsys, "diagram", p_csv, "--instance", "kl")
    assert code == 2  # needs both P and Q


@pytest.mark.parametrize("kind", ["kl", "shannon"])
def test_pair_sample_point_cap(tmp_path, capsys, monkeypatch, kind):
    # the distinct rows of the table, or the union of both tables' distinct
    # rows for a pair, are the sample space; it is capped
    monkeypatch.setattr("infodiagram.shannon.MAX_SAMPLE_POINTS", 3)
    p_csv = write(tmp_path, "p.csv", "A,B\n0,0\n0,1\n")
    q3_csv = write(tmp_path, "q3.csv", "A,B\n0,0\n0,1\n1,0\n")
    q4_csv = write(tmp_path, "q4.csv", "A,B\n0,0\n0,1\n1,0\n1,1\n")
    first = [p_csv] if kind == "kl" else []
    code, _, _ = run(capsys, "diagram", *first, q3_csv, "--instance", kind)
    assert code == 0
    code, out, err = run(capsys, "diagram", *first, q4_csv, "--instance", kind)
    assert code == 2
    assert out == ""
    assert "more than 3 distinct sample points" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_setfun_passes(tmp_path, capsys):
    sf = {"n": 3, "values": {"": 0.0, "1": 0.5, "2": 0.25, "3": 1.0, "1,2": 0.625,
                             "1,3": 1.25, "2,3": 1.0, "1,2,3": 1.375}}
    sf_path = write(tmp_path, "sf.json", json.dumps(sf))
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", sf_path, "--instance", "setfun", "--tol", "1e-12",
                     "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["summary"]["passed"] is True
    assert report["summary"]["max_residual"] <= 1e-12
    assert len(report["residuals"]) == report["summary"]["checks"]


@pytest.mark.parametrize("argv", [
    ["examples", "xor-i3", "--tol", "-1"],
    ["examples", "xor-i3", "--tol", "nan"],
    ["diagram", "XOR", "--instance", "shannon", "--tol", "nan"],
    ["verify", "XOR", "--instance", "shannon", "--tol", "-0.5"],
    ["verify", "XOR", "--instance", "shannon", "--tol", "-1e-9"],
])
def test_negative_or_nan_tolerance_is_a_usage_error(tmp_path, capsys, argv):
    # every check would fail against such a tolerance, with a misleading message
    xor_path = write(tmp_path, "xor.csv", XOR_CSV)
    *args, tol = [xor_path if arg == "XOR" else arg for arg in argv]
    code, out, err = run(capsys, *args, tol)
    assert (code, out) == (2, "")
    assert f"--tol must be a nonnegative number, got {float(tol)!r}" in err
    # zero and infinity stay valid; the XOR values are exact
    for valid in ("0", "inf"):
        assert run(capsys, *args, valid)[0] == 0


@pytest.mark.parametrize("command", ["diagram", "verify"])
@pytest.mark.parametrize("q_max", ["0", "-1"])
def test_nonpositive_qmax_is_a_usage_error(tmp_path, capsys, command, q_max):
    # refused before the input is read: the file named does not exist
    code, out, err = run(capsys, command, str(tmp_path / "absent.csv"), "--instance", "shannon",
                         "--qmax", q_max)
    assert (code, out) == (2, "")
    assert f"--qmax must be a positive integer, got {q_max}" in err


def test_verify_zero_tolerance_fails(tmp_path, capsys):
    # non-dyadic weights leave float roundoff in some identity, so tolerance 0
    # must fail; the XOR sweep is exact and would pass
    weights = (0.31, 0.07, 0.23, 0.11, 0.05, 0.13, 0.03, 0.07)
    rows = "".join(f"{b >> 2 & 1},{b >> 1 & 1},{b & 1},{w}\n" for b, w in enumerate(weights))
    csv_path = write(tmp_path, "w.csv", "X,Y,Z,__weight\n" + rows)
    code, out, err = run(capsys, "verify", csv_path, "--instance", "shannon", "--tol", "0")
    assert code == 4
    assert "verification failed" in err
    report = json.loads(out)
    assert report["summary"]["max_residual"] > 0
    assert report["summary"]["passed"] is False


def test_verify_setfun_missing_subset(tmp_path, capsys):
    sf = {"n": 2, "values": {"": 0.0, "1": 0.5, "2": 0.25}}
    sf_path = write(tmp_path, "sf.json", json.dumps(sf))
    code, _, err = run(capsys, "verify", sf_path, "--instance", "setfun")
    assert code == 2
    assert "not total" in err


def test_subset_table_cap_checked_before_allocation(tmp_path, capsys, monkeypatch):
    # an n beyond the cap must be refused before the 2**n subsets are walked,
    # so the incomplete table is never reported as "missing subset"
    monkeypatch.setenv("INFODIAGRAM_MAX_N", "3")
    sf = {"n": 4, "values": {"": 0.0, "1": 0.5}}
    sf_path = write(tmp_path, "sf.json", json.dumps(sf))
    code, _, err = run(capsys, "verify", sf_path, "--instance", "setfun")
    assert code == 3
    assert "cap" in err


def test_oversized_sweep_exits_before_any_work(tmp_path, capsys, monkeypatch):
    # the sweep's plan is asked once the input is read: no builder runs
    def refuse(*args, **kwargs):
        raise AssertionError("an instance was built for a refused sweep")

    for name in ("shannon_instance", "compressor_setfunction", "r1_instance"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.delenv("INFODIAGRAM_MAX_N", raising=False)
    rows = "".join(",".join(str(b >> j & 1) for j in range(7)) + "\n" for b in range(8))
    table = write(tmp_path, "wide.csv", ",".join(f"x{j}" for j in range(1, 8)) + "\n" + rows)  # sampled
    blobs = [write(tmp_path, f"{name}.bin", name * 10) for name in "abc"]
    sf_path = write(tmp_path, "sf.json", json.dumps({"n": 3, "values": {
        " ".join(map(str, indices_of(m))): float(m) for m in range(8)}}))
    for inputs, kind in (([table], "shannon"), (blobs, "compressor"), ([sf_path], "setfun")):
        code, out, err = run(capsys, "verify", *inputs, "--instance", kind, "--qmax", "16")
        assert (code, out) == (3, "")
        assert err == ("instance error: verification sweep at q_max=16 exceeds the cap of 33554432 terms "
                       "(checks * 2**q_max)\n")
    # past both caps, the generator cap is named
    wide = write(tmp_path, "n13.csv", ",".join(f"x{j}" for j in range(1, 14)) + "\n" + ",".join("0" * 13) + "\n")
    code, out, err = run(capsys, "verify", wide, "--instance", "shannon", "--qmax", "16")
    assert (code, out) == (3, "")
    assert err == "instance error: generator count n=13 outside 1..12 (raise the cap with INFODIAGRAM_MAX_N)\n"


def test_subset_table_rejects_boolean_n(tmp_path, capsys):
    # JSON true is not a generator count, although Python's bool is an int
    sf_path = write(tmp_path, "sf.json", '{"n": true, "values": {"": 0, "1": 1}}')
    code, out, err = run(capsys, "diagram", sf_path, "--instance", "setfun")
    assert code == 2
    assert out == ""
    assert "'n' must be a positive integer" in err


def test_verify_advantage_table(tmp_path, capsys):
    ev = {"n": 2, "errors": {"": 1.0, "1": 1.0, "2": 1.0, "1,2": 0.0}, "names": ["X1", "X2"]}
    ev_path = write(tmp_path, "ev.json", json.dumps(ev))
    code, out, _ = run(capsys, "verify", ev_path, "--instance", "advantage", "--tol", "1e-12")
    assert code == 0
    assert json.loads(out)["metadata"]["generators"] == ["X1", "X2"]


def test_verify_compressor_blobs(tmp_path, capsys):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    a.write_bytes(b"squeamish ossifrage " * 30)
    b.write_bytes(bytes(range(256)) * 3)
    code, out, _ = run(capsys, "verify", str(a), str(b), "--instance", "compressor",
                       "--tol", "1e-12")
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["compressor"] == "zlib level 9"
    assert doc["metadata"]["generators"] == ["a.bin", "b.bin"]


_BASE_FREE = {"tsallis", "alpha-kl", "setfun", "advantage", "compressor"}


@pytest.mark.parametrize("kind", cli.KINDS)
def test_metadata_base_and_alpha_come_from_the_instance(tmp_path, capsys, kind):
    # a document names the base of the log-based families only, and alpha
    # of the deformed ones only
    table = write(tmp_path, "p.csv", XOR_CSV)
    inputs = {
        "shannon": [table],
        "tsallis": [table],
        "setfun": [write(tmp_path, "sf.json", json.dumps({"n": 2, "values": {"": 0, "1": 1, "2": 1, "1 2": 1.5}}))],
        "advantage": [write(tmp_path, "ev.json", json.dumps({"n": 2, "errors": {"": 1, "1": 1, "2": 1, "1 2": 0}}))],
        "compressor": [write(tmp_path, "a.txt", "abc" * 20), write(tmp_path, "b.txt", "xyz" * 9)],
    }.get(kind, [table, table])
    alpha = ["--alpha", "0.5"] if kind in cli.ALPHA_KINDS else []
    code, out, _ = run(capsys, "diagram", *inputs, "--instance", kind, "--base", "bits", *alpha, "--tol", "1e-9")
    assert code == 0
    meta = json.loads(out)["metadata"]
    assert meta["base"] == (None if kind in _BASE_FREE else "bits")
    assert meta["alpha"] == (0.5 if alpha else None)


def _verify_inputs(tmp_path, family, n):
    """Seeded input files of an n-generator instance of ``family``."""
    rng = random.Random(n)
    header = ",".join(f"x{j + 1}" for j in range(n)) + ",__weight\n"
    rows = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(12)]
    p_text = header + "".join(",".join(map(str, row)) + f",{rng.uniform(0.1, 2.0)}\n" for row in rows)
    if family == "shannon":
        return [write(tmp_path, "p.csv", p_text), "--instance", "shannon"]
    if family == "alpha-kl":
        q_rows = rows + [tuple(rng.randrange(3) for _ in range(n)) for _ in range(8)]
        q_text = header + "".join(",".join(map(str, row)) + f",{rng.uniform(0.1, 2.0)}\n" for row in q_rows)
        return [write(tmp_path, "p.csv", p_text), write(tmp_path, "q.csv", q_text),
                "--instance", "alpha-kl", "--alpha", "0.5"]
    values = {" ".join(map(str, indices_of(m))): rng.uniform(-1.0, 1.0) for m in range(1 << n)}
    return [write(tmp_path, "sf.json", json.dumps({"n": n, "values": values})), "--instance", "setfun"]


def _old_rows(residuals):
    """One dict per residual, as the verify document used to hold them."""
    return [{"q": r.q, "L": [list(indices_of(l)) for l in r.l_masks], "J": list(indices_of(r.j_mask)),
             "lhs": r.lhs, "rhs": r.rhs, "gap": r.gap} for r in residuals]


def _old_json(doc) -> str:
    fh = io.StringIO()
    json.dump({**doc, "residuals": _old_rows(doc["residuals"])}, fh, sort_keys=True, indent=2)
    fh.write("\n")
    return fh.getvalue()


def _old_csv(doc) -> str:
    lines = ["q,L,J,lhs,rhs,gap\n"]
    for row in _old_rows(doc["residuals"]):
        l_txt = "|".join(" ".join(map(str, l)) for l in row["L"])
        j_txt = " ".join(map(str, row["J"]))
        lines.append(f"{row['q']},\"{l_txt}\",\"{j_txt}\",{row['lhs']!r},{row['rhs']!r},{row['gap']!r}\n")
    return "".join(lines)


def _verify_both_ways(tmp_path, capsys, argv, fmt="json"):
    """Exit code and text of a verify run to stdout, checked equal to ``--out FILE``."""
    code, out, _ = run(capsys, "verify", *argv, "--format", fmt)
    out_path = tmp_path / f"doc.{fmt}"
    assert run(capsys, "verify", *argv, "--format", fmt, "--out", str(out_path))[0] == code
    assert out_path.read_bytes() == out.encode("utf-8")
    return code, out


@pytest.mark.parametrize("family", ["shannon", "alpha-kl", "setfun"])
@pytest.mark.parametrize("n, q_max", [(1, 1), (1, 4), (2, 1), (2, 4), (3, 1), (3, 4), (6, 3)])
def test_verify_document_matches_json_dump_of_the_rows(tmp_path, capsys, monkeypatch, family, n, q_max):
    # the rows are written by hand; their bytes are those json.dump gives
    # the old one-dict-per-row document, to stdout and to a file alike
    docs = _capture_documents(monkeypatch, "cmd_verify")
    argv = [*_verify_inputs(tmp_path, family, n), "--qmax", str(q_max)]
    code, out = _verify_both_ways(tmp_path, capsys, argv)
    assert code == 0
    doc = docs[0]
    assert doc["summary"]["mode"] == ("sampled" if n > 5 else "exhaustive")
    if n > 1 and q_max > 1:  # L tuples hold the empty mask and repeated masks
        assert any(0 in r.l_masks for r in doc["residuals"])
        assert any(len(set(r.l_masks)) < r.q for r in doc["residuals"])
    assert out == _old_json(doc)
    code, out = _verify_both_ways(tmp_path, capsys, argv, "csv")
    assert code == 0
    assert out == _old_csv(docs[-1])


@pytest.mark.parametrize("n", [1, 5, 12])
def test_documents_at_widths_across_the_half_split(tmp_path, capsys, monkeypatch, n):
    # a subset's text joins a table text of its low n // 2 bits to one of
    # the others: n = 1 has no low bits, n = 5 splits 2 + 3, n = 12 6 + 6
    docs = _capture_documents(monkeypatch, "cmd_diagram")
    argv = ["diagram", *_verify_inputs(tmp_path, "setfun", n)]
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, json.dumps(_old_diagram(docs[0]), sort_keys=True, indent=2) + "\n")
    code, out, _ = run(capsys, *argv, "--format", "csv")
    atoms = enumerate(docs[1]["atoms"], 1)
    assert (code, out) == (0, "subset,eta\n" + "".join(f'"{_index_text(a)}",{eta!r}\n' for a, eta in atoms))
    if n > 5:  # verify samples beyond n = 5; test_verify_document_matches_json_dump_of_the_rows covers n = 6
        return
    docs = _capture_documents(monkeypatch, "cmd_verify")
    argv = [*_verify_inputs(tmp_path, "setfun", n), "--qmax", "2"]
    code, out = _verify_both_ways(tmp_path, capsys, argv)
    rows = docs[0]["residuals"]
    assert any(r.j_mask == 0 for r in rows) and any(0 in r.l_masks for r in rows)
    assert (code, out) == (0, _old_json(docs[0]))
    code, out = _verify_both_ways(tmp_path, capsys, argv, "csv")
    assert (code, out) == (0, _old_csv(docs[-1]))


def _index_text(mask: int) -> str:
    return " ".join(map(str, indices_of(mask)))


def test_subset_texts_join_two_half_tables_for_every_mask():
    for n in range(1, 11):
        for indent in ("      ", "        "):
            text = cli._subset_texts(n, indent)
            # json.dump writes a nested list as a top-level one, each line after the first indented
            assert [text(m) for m in range(1 << n)] == [
                json.dumps(list(indices_of(m)), indent=2).replace("\n", "\n" + indent) for m in range(1 << n)]
        text = cli._subset_texts(n)
        assert [text(m) for m in range(1 << n)] == [_index_text(m) for m in range(1 << n)]


@pytest.mark.parametrize("text", [
    '{"n": 1, "values": {"": 0, "1": 0.5}}',
    '{"n": 1, "values": {"": 0, "1": 0.5}, "names": ["a:b"]}',  # one ':' more than the members
])
def test_subset_table_text_decodes_as_json_does(tmp_path, text):
    assert cli._load_json(write(tmp_path, "sf.json", text)) == json.loads(text)


@pytest.mark.parametrize("text, key", [
    pytest.param('{"n": 2, "n": 1, "values": {"": 0, "1": 0.5}}', "n", id="top-level"),
    pytest.param('{"n": 1, "values": {"": 0, "1": 0.5, "1": 0.9}}', "1", id="in-the-table"),
    pytest.param('{"n": 1, "values": {"": 0, "1": {"a": 1, "a": 2}}}', "a", id="in-a-nested-value"),
    pytest.param('{"metadata": {"n": 2, "n": 3}, "atoms": []}', "n", id="in-a-render-document"),
])
def test_a_key_written_twice_is_refused_in_any_json_input(tmp_path, capsys, text, key):
    path = write(tmp_path, "in.json", text)
    with pytest.raises(shannon.IngestionError) as refusal:
        cli._load_json(path)
    assert str(refusal.value) == f"{path}: duplicate key '{key}'"
    argv = ["render", path, str(tmp_path / "out.svg")] if "metadata" in text else \
        ["diagram", path, "--instance", "setfun"]
    assert run(capsys, *argv) == (2, "", f"ingestion error: {path}: duplicate key '{key}'\n")


def test_verify_writes_non_finite_and_signed_zero_values_as_json_does(tmp_path, capsys, monkeypatch):
    real = cli.verify_hu
    json_float = cli._json_float
    nan_payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
    inputs = (
        (math.nan, math.inf, -math.inf, -0.0, 0.5),
        # 0.0 beside -0.0, a NaN with a payload and a negative NaN, and
        # values whose shortest text has an exponent or just has none
        (0.0, -0.0, nan_payload, -math.nan, 5e-324, 1e16, 1e-05),
    )

    def special_sweep(inst, **kwargs):
        report = real(inst, **kwargs)
        s = report.residuals
        for i, (lhs, rhs, gap) in enumerate(itertools.product(specials, repeat=3)):
            s.lhs[i], s.rhs[i], s.gap[i] = lhs, rhs, gap
        report.max_residual = math.nan
        return report

    def bits(x):
        return struct.unpack("<Q", struct.pack("<d", x))[0]

    formatted = []

    def counted_json_float(x):
        formatted.append(bits(x))
        return json_float(x)

    monkeypatch.setattr(cli, "verify_hu", special_sweep)
    monkeypatch.setattr(cli, "_json_float", counted_json_float)
    docs = _capture_documents(monkeypatch, "cmd_verify")
    argv = [write(tmp_path, "xor.csv", XOR_CSV), "--instance", "shannon"]
    for specials, chunk_rows in itertools.product(inputs, (cli._CHUNK_ROWS, 7)):
        # chunks of 7 rows split equal values apart
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
        code, out = _verify_both_ways(tmp_path, capsys, argv)
        assert code == 4
        assert out == _old_json(docs[-1])
        # NaN, Infinity, -Infinity and -0.0 parse back to what was written
        parsed = [(row["lhs"], row["rhs"], row["gap"]) for row in json.loads(out)["residuals"][:len(specials) ** 3]]
        assert [tuple(map(repr, values)) for values in parsed] == [
            tuple(map(repr, values)) for values in itertools.product(specials, repeat=3)
        ]
        # one write formats each distinct bit pattern of the three float columns once
        formatted.clear()
        assert run(capsys, "verify", *argv)[:2] == (4, out)
        columns = docs[-1]["residuals"]
        patterns = {bits(x) for x in [*columns.lhs.tolist(), *columns.rhs.tolist(), *columns.gap.tolist()]}
        assert {bits(x) for x in specials} <= patterns
        assert sorted(formatted) == sorted(patterns)
        code, out = _verify_both_ways(tmp_path, capsys, argv, "csv")
        assert code == 4
        assert out == _old_csv(docs[-1])


# ---------------------------------------------------------------------------
# examples


def test_examples_xor_i3(capsys):
    code, out, _ = run(capsys, "examples", "xor-i3")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["value"] == pytest.approx(-1.0, abs=1e-9)


def test_examples_bsc_epsilons(capsys):
    for eps, expected in ((0.5, 0.0), (0.25, -0.2075187496), (0.01, -2.3291778797)):
        code, out, _ = run(capsys, "examples", "bsc-d2", "--epsilon", str(eps))
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(expected, abs=1e-9)
    code, _, err = run(capsys, "examples", "bsc-d2", "--epsilon", "1.5")
    assert code == 3
    assert "epsilon" in err


def test_examples_xor_advantage(capsys):
    code, out, _ = run(capsys, "examples", "xor-advantage")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == -1.0
    assert doc["detail"]["errors"] == {"": 1.0, "1": 1.0, "2": 1.0, "1 2": 0.0}


def test_examples_venn_decomposition(capsys):
    code, out, _ = run(capsys, "examples", "venn-decomposition", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"]) <= 1e-9


def test_examples_unknown_name(capsys):
    code, _, err = run(capsys, "examples", "does-not-exist")
    assert code == 2
    assert "xor-i3" in err and "bsc-d2" in err


# ---------------------------------------------------------------------------
# render


def test_render_two_and_three_variables(tmp_path, capsys):
    for csv_text, n_cells in (("A,B\n0,0\n1,1\n", 3), (XOR_CSV, 7)):
        csv_path = write(tmp_path, f"in{n_cells}.csv", csv_text)
        doc_path = tmp_path / f"doc{n_cells}.json"
        code, _, _ = run(capsys, "diagram", csv_path, "--instance", "shannon",
                         "--out", str(doc_path))
        assert code == 0
        svg_path = tmp_path / f"venn{n_cells}.svg"
        code, _, _ = run(capsys, "render", str(doc_path), str(svg_path))
        assert code == 0
        svg = svg_path.read_text()
        assert svg.count("<circle") == (2 if n_cells == 3 else 3)
        # one subset label and one value label per cell
        assert svg.count('text-anchor="middle"') == 2 * n_cells


def test_render_deterministic_bytes(tmp_path, capsys):
    csv_path = write(tmp_path, "xor.csv", XOR_CSV)
    doc_path = tmp_path / "doc.json"
    run(capsys, "diagram", csv_path, "--instance", "shannon", "--out", str(doc_path))
    first = tmp_path / "one.svg"
    second = tmp_path / "two.svg"
    assert run(capsys, "render", str(doc_path), str(first))[0] == 0
    assert run(capsys, "render", str(doc_path), str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_render_rejects_other_sizes(tmp_path, capsys):
    csv_path = write(tmp_path, "one.csv", "A\n0\n1\n")
    doc_path = tmp_path / "doc1.json"
    code, _, _ = run(capsys, "diagram", csv_path, "--instance", "shannon", "--out", str(doc_path))
    assert code == 0
    code, _, err = run(capsys, "render", str(doc_path), str(tmp_path / "no.svg"))
    assert code == 2
    assert "n=2,3" in err


_ATOMS3 = [{"subset": [1], "eta": 0.5}, {"subset": [2], "eta": 0.5}, {"subset": [1, 2], "eta": 0.0}]


@pytest.mark.parametrize("doc", [
    pytest.param([_ATOMS3], id="top-level-list"),
    pytest.param({"metadata": {"n": "x"}, "atoms": _ATOMS3}, id="n-not-an-integer"),
    pytest.param({"metadata": {"n": 2}, "atoms": [*_ATOMS3[:2], {}]}, id="atom-without-subset-or-eta"),
    pytest.param({"metadata": {"n": 2}, "atoms": [*_ATOMS3[:2], {"subset": [1, 2], "eta": "a"}]},
                 id="eta-not-a-number"),
    pytest.param({"metadata": {"n": 2}, "atoms": [*_ATOMS3[:2], {"subset": [[1], 2], "eta": 0.0}]},
                 id="nested-list-in-subset"),
    pytest.param({"metadata": {"n": 2, "generators": "ab"}, "atoms": _ATOMS3}, id="generators-not-a-list"),
    # n is a JSON integer: 2.9 and "2" are not read as 2, nor true as 1
    *(pytest.param({"metadata": {"n": n}, "atoms": _ATOMS3}, id=f"n-{n!r}") for n in (2.9, "2", True)),
    # an atom value is a JSON number: not a boolean or a numeric string
    *(pytest.param({"metadata": {"n": 2}, "atoms": [*_ATOMS3[:2], {"subset": [1, 2], "eta": eta}]},
                   id=f"eta-{eta!r}") for eta in (True, "nan", "1e3")),
    pytest.param({"metadata": {"n": 2}, "atoms": [_ATOMS3[0], _ATOMS3[0], _ATOMS3[2]]}, id="subset-twice-one-missing"),
])
def test_render_rejects_malformed_documents(tmp_path, capsys, doc):
    doc_path = write(tmp_path, "doc.json", json.dumps(doc))
    svg_path = tmp_path / "no.svg"
    code, out, err = run(capsys, "render", doc_path, str(svg_path))
    assert (code, out) == (2, "")
    assert err.startswith("ingestion error: malformed diagram document (")
    assert not svg_path.exists()


@pytest.mark.parametrize("subset", [[True], [2.0]], ids=repr)
def test_render_refuses_subset_indices_that_are_not_ints(tmp_path, capsys, subset):
    # true and 2.0 equal the indices 1 and 2 as dict keys, but are no JSON integers
    atoms = [{"subset": subset, "eta": 0.5}, *(a for a in _ATOMS3 if a["subset"] != [int(subset[0])])]
    doc_path = write(tmp_path, "doc.json", json.dumps({"metadata": {"n": 2}, "atoms": atoms}))
    svg_path = tmp_path / "no.svg"
    code, out, err = run(capsys, "render", doc_path, str(svg_path))
    assert (code, out, err) == (2, "", f"ingestion error: unexpected atom subset {subset!r} for n=2\n")
    assert not svg_path.exists()


def test_xor_diagram_has_no_negative_zero(tmp_path, capsys):
    csv_path = write(tmp_path, "xor.csv", XOR_CSV)
    code, out, _ = run(capsys, "diagram", csv_path, "--instance", "shannon", "--base", "bits")
    assert code == 0
    assert "-0.0," not in out and "-0.0\n" not in out
    doc = json.loads(out)
    zeros = [a["eta"] for a in doc["atoms"] if a["eta"] == 0.0]
    assert zeros and all(math.copysign(1.0, z) == 1.0 for z in zeros)


def test_stdout_carries_only_the_document(tmp_path, capsys):
    csv_path = write(tmp_path, "xor.csv", XOR_CSV)
    code, out, _ = run(capsys, "diagram", csv_path, "--instance", "shannon")
    assert code == 0
    json.loads(out)  # parses as-is: nothing else was printed
