"""End-to-end CLI tests: ingestion formats, exit codes, documents, rendering."""

from __future__ import annotations

import json
import math

import pytest

from infodiagram.cli import main

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


def test_diagram_roundtrip_bit_exact(tmp_path, capsys):
    csv_path = write(tmp_path, "r.csv", "A,B,__weight\n0,0,3\n0,1,1\n1,0,2\n1,1,1.5\n")
    out_path = tmp_path / "doc.json"
    code, _, _ = run(capsys, "diagram", csv_path, "--instance", "shannon", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    doc = json.loads(text)
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text
    # serialize-parse keeps every float bit-exact
    again = json.loads(json.dumps(doc, sort_keys=True))
    assert [a["eta"] for a in again["atoms"]] == [a["eta"] for a in doc["atoms"]]


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

    for key, message in (("4", "is out of range 1..3"), ("1;2", "is not a list of indices")):
        sf_path = write(tmp_path, "sf.json", json.dumps({"n": 3, "values": {"": 0.0, key: 1.0}}))
        code, _, err = run(capsys, "diagram", sf_path, "--instance", "setfun")
        assert code == 2
        assert f"ingestion error: {sf_path}: subset key {key!r} {message}" in err

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


@pytest.mark.parametrize("bad", ["-1", "nan", "heavy"])
def test_bad_weight_names_file_and_row(tmp_path, capsys, bad):
    csv_path = write(tmp_path, "w.csv", f"A,B,__weight\n0,0,1\n1,1,{bad}\n")
    code, out, err = run(capsys, "diagram", csv_path, "--instance", "shannon")
    assert code == 2
    assert out == ""
    assert f"{csv_path} row 2: weight" in err


@pytest.mark.parametrize("kind", ["tsallis", "alpha-kl"])
def test_negative_alpha_needs_strictly_positive_masses(tmp_path, capsys, kind):
    # conditioning zeroes masses, which a negative power cannot take
    p_csv = write(tmp_path, "p.csv", "A,B\n0,0\n0,1\n1,0\n1,1\n")
    q_csv = write(tmp_path, "q.csv", "A,B,__weight\n0,0,2\n0,1,1\n1,0,1\n1,1,4\n")
    inputs = [p_csv, q_csv] if kind == "alpha-kl" else [p_csv]
    for command in ("diagram", "verify"):
        code, out, err = run(capsys, command, *inputs, "--instance", kind, "--alpha", "-0.5")
        assert code == 3
        assert out == ""
        assert "strictly positive" in err


def test_overflowing_family_value_exits_3(tmp_path, capsys):
    # Q masses of 0.001 to the power 1 - alpha = -399 are beyond a float
    p_csv = write(tmp_path, "p.csv", "A,B\n0,0\n0,1\n1,0\n1,1\n")
    q_csv = write(tmp_path, "q.csv", "A,B,__weight\n0,0,997\n0,1,1\n1,0,1\n1,1,1\n")
    for command in ("diagram", "verify"):
        code, out, err = run(capsys, command, p_csv, q_csv, "--instance", "alpha-kl", "--alpha", "400")
        assert (code, out) == (3, "")
        assert "instance error: alpha kl value out of floating-point range at parameter 400.0" in err


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


def test_oversized_sweep_exits_before_any_work(tmp_path, capsys):
    code, out, err = run(capsys, "verify", write(tmp_path, "xor.csv", XOR_CSV),
                         "--instance", "shannon", "--qmax", "16")
    assert code == 3
    assert out == ""
    assert "cap" in err


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
