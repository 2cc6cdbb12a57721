"""Tests of the benchmark itself: every workload's code path at n = 3, and
the checker catching perturbed documents and wrong exit codes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json
from pathlib import Path

import pytest

import run
from check import check_document, check_job
from layertrace import summarize
from workloads import SPECS, expected_checks, generate

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def spawner():
    (run.WORK / "tests").mkdir(parents=True, exist_ok=True)
    with run.Spawner() as spawner:
        yield spawner


def _run(spawner, job, *trace):
    wall, rss, code = spawner.run([run.sys.executable, str(run.HERE / "job.py"), *trace, *job.argv],
                                  job.out.with_name("job.err"))
    assert code == 0, job.out.with_name("job.err").read_text()
    assert wall > 0 and rss > 0
    return wall


@pytest.fixture(scope="module", params=list(SPECS))
def smoke_job(request, spawner):
    """One untraced and one traced run of a workload at n = 3."""
    job = generate(request.param, seed=7, workdir=run.WORK / "tests" / request.param, smoke=True)
    _run(spawner, job)
    assert check_job(job, 0) == []
    spans = job.out.with_name("spans.json")
    wall = _run(spawner, job, "--trace", str(spans))
    layers = summarize(json.loads(spans.read_text()), wall)
    return job, layers, json.loads(job.out.read_text())


def test_peak_rss_is_the_jobs_own(spawner):
    # a child forked straight from a large process would report that process's peak
    ballast = bytearray(256 << 20)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    _, rss, code = spawner.run([run.sys.executable, "-c", "pass"], run.WORK / "tests" / "rss.err")
    assert code == 0 and rss < 64


def test_reference_loop_runs(spawner):
    wall, _, code = spawner.run([run.sys.executable, str(run.HERE / "reference.py")],
                                run.WORK / "tests" / "reference.err")
    assert code == 0 and wall > 0


def test_generation_is_seeded():
    tmp_path = run.WORK / "tests" / "seeded"
    for name in SPECS:
        first = generate(name, 3, tmp_path / "a", smoke=True)
        again = generate(name, 3, tmp_path / "b", smoke=True)
        other = generate(name, 4, tmp_path / "c", smoke=True)
        read = lambda job: [Path(a).read_bytes() for a in job.argv[1:job.argv.index("--instance")]]
        assert read(first) == read(again) != read(other)
        assert first.shape == again.shape and first.shape["n"] == 3


def test_smoke_job_passes_the_checker(smoke_job):
    job, _, doc = smoke_job
    assert check_document(job, doc) == []
    assert check_job(job, 0) == []


def test_smoke_trace_reaches_every_layer_of_the_path(smoke_job):
    job, layers, _ = smoke_job
    checks = expected_checks(job.n)
    assert checks == 1312
    assert layers["core.verify_hu.checks"] == layers["core.interaction.calls"] == checks
    assert layers["instance.k1.calls"] > 0 and layers["instance.k1c.calls"] >= layers["instance.k1.calls"]
    assert layers["core.atom_table.atoms"] == 7
    assert layers["cli._write_document.bytes"] == job.out.stat().st_size
    assert layers["ingest.bytes"] == job.shape["bytes"] and layers["ingest.points"] == job.shape["points"]
    top = "cli.cmd_diagram" if job.command == "diagram" else "cli.cmd_verify"
    assert layers[top + ".s"] >= layers[top + ".self_s"] > 0
    assert layers["trace.unattributed_s"] > 0
    if job.instance == "shannon":
        assert layers["shannon.joint_of.calls"] == layers["shannon.marginal.calls"] == 8
    if job.instance == "alpha-kl":  # divergences' own imported names are wrapped too
        assert layers["shannon.condition.calls"] > 0 and layers["shannon.marginal.calls"] > 8


def test_checker_rejects_a_wrong_exit_code(smoke_job):
    job, _, _ = smoke_job
    assert check_job(job, 4) == ["exit code 4"]


def test_checker_rejects_a_perturbed_value(smoke_job):
    job, _, doc = smoke_job
    bad = copy.deepcopy(doc)
    if job.command == "diagram":
        bad["atoms"][3]["eta"] += 1e-6
        assert any("atom zeta sums" in p for p in check_document(job, bad))
        bad = copy.deepcopy(doc)
        bad["totals"][0]["f1"] *= 1 + 1e-6
        assert check_document(job, bad) != []
    else:
        row = next(r for r in bad["residuals"] if r["q"] == 1 and r["L"][0] and not r["J"])
        row["lhs"] += 1e-6
        assert any("q = 1 lhs" in p for p in check_document(job, bad))
    bad = copy.deepcopy(doc)
    bad["verification" if job.command == "diagram" else "summary"]["passed"] = False
    assert check_document(job, bad) != []


def test_checker_tolerates_reordered_float_sums(smoke_job):
    job, _, doc = smoke_job
    near = copy.deepcopy(doc)
    for entry in near.get("atoms", []):
        entry["eta"] *= 1 + 1e-13
    for entry in near.get("residuals", []):
        entry["lhs"] += 1e-13
    assert check_document(job, near) == []


def test_benchmark_json_matches_the_runner():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(SPECS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
