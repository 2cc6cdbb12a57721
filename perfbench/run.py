"""Benchmark of the infodiagram CLI: seeded workloads, checked outputs,
end-to-end job metrics and an outside-in per-layer trace.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs nothing built.  Each job is a
fresh interpreter running ``perfbench/job.py``, which calls
``infodiagram.cli.main`` on files generated from ``--seed``; ``spawner.py``
launches and times it.  Jobs run one at a time, a closed loop with one
client.  ``check.py`` checks every
document independently of the program.  ``reference.py``, a fixed loop
timed between the jobs, gives the run's host speed: the gated job time is
``job_ref_ratio``, the median job over the median reference loop.
``--workload all`` interleaves the workloads, ``--seconds`` apiece.

Human-readable rows come first.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  The exit code is 1 when a job failed, 2
when the checkout holds no ``src/infodiagram``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from check import check_job
from layertrace import summarize
from workloads import SPECS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END = {"job_ref_ratio": "1", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "job_s": "s", "reference_s": "s",
    "cli.read_table.s": "s", "cli.paired_empirical.s": "s", "cli.read_setfunction.s": "s",
    "shannon.empirical_from_rows.s": "s", "ingest.points": "count", "ingest.bytes": "B",
    "instance.k1.s": "s", "instance.k1.calls": "count", "instance.k1c.calls": "count",
    "instance.k1_hit_ratio": "1",
    "shannon.joint_of.s": "s", "shannon.joint_of.calls": "count",
    "shannon.marginal.s": "s", "shannon.marginal.calls": "count", "shannon.condition.calls": "count",
    "core.check_chain_rule.self_s": "s", "core.atom_table.self_s": "s", "core.atom_table.atoms": "count",
    "cli.cmd_diagram.self_s": "s",
    "core.verify_hu.self_s": "s", "core.verify_hu.checks": "count", "core.interaction.calls": "count",
    "cli.cmd_verify.self_s": "s", "cli._write_document.s": "s", "cli._write_document.bytes": "B",
    "trace.job_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
}

MIN_JOBS = 2
GRACE_S = 45
# set-up and reference samples come in pairs after each job, one pair per
# REF_EVERY_S of its wall time, so they sample the host's speed as evenly
# over the run as the jobs do; any short of MIN_SAMPLES follow at the end
MIN_SAMPLES = 11
REF_EVERY_S = 3.0
# a child still running DEADLINE_S into the run, or MIN_TIMEOUT_S after it
# started if that is later, is killed and fails; the run ends within 180 s
DEADLINE_S = 120
MIN_TIMEOUT_S = 10.0


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("INFODIAGRAM_MAX_N", None)  # the default generator cap
    return env


class Spawner:
    """Client of ``spawner.py``, the small process that launches and times
    every child, so that a job's peak RSS is its own (see there)."""

    def __enter__(self):
        self.deadline = time.perf_counter() + DEADLINE_S
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], cwd=ROOT, env=_child_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.terminate()  # kills and reaps a job still running
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def run(self, cmd, log: Path):
        """Run ``cmd`` to exit; return (wall seconds, max RSS in MB, exit code)."""
        timeout = max(MIN_TIMEOUT_S, self.deadline - time.perf_counter())
        self.proc.stdin.write(json.dumps({"cmd": cmd, "log": str(log), "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        reply = json.loads(reply)
        return reply["wall"], reply["rss_mb"], reply["code"]


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


class Runner:
    """Jobs, checks and samples of one workload within one benchmark run."""

    def __init__(self, workload: str, seed: int, traced: bool, spawner: Spawner):
        self.workload, self.traced, self.spawner = workload, traced, spawner
        self.dir = WORK / workload
        self.job = generate(workload, seed, self.dir)
        self.samples = defaultdict(list)
        self.layers = []
        self.attempted = self.failed = 0
        self.problems = []

    def setup(self) -> None:
        cmd = [sys.executable, "-c", "import infodiagram.cli"]
        wall, _, code = self.spawner.run(cmd, self.dir / "setup.err")
        if code != 0:
            self.problems.append(f"importing infodiagram.cli exited {code}")
        self.samples["setup_s"].append(wall)

    def reference(self) -> None:
        wall, _, code = self.spawner.run([sys.executable, str(HERE / "reference.py")], self.dir / "reference.err")
        if code != 0:
            self.problems.append(f"the reference loop exited {code}")
        self.samples["reference_s"].append(wall)

    def run_job(self, traced: bool) -> None:
        spans = self.dir / "spans.json"
        spans.unlink(missing_ok=True)
        trace = ["--trace", str(spans)] if traced else []
        cmd = [sys.executable, str(HERE / "job.py"), *trace, *self.job.argv]
        wall, rss, code = self.spawner.run(cmd, self.dir / "job.err")
        problems = check_job(self.job, code)
        self.attempted += 1
        if problems:
            self.failed += 1
            err = (self.dir / "job.err").read_text(errors="replace").strip().splitlines()
            last = f" [{err[-1]}]" if err else ""
            self.problems.append(f"job {self.attempted}: {'; '.join(problems)}{last}")
        if traced:
            self.samples["trace.job_s"].append(wall)
            if code == 0:
                self.layers.append(summarize(json.loads(spans.read_text()), wall))
        else:
            self.samples["job_s"].append(wall)
            self.samples["peak_rss_mb"].append(rss)
        self.job.out.unlink(missing_ok=True)

    def pair(self) -> None:
        self.setup()
        self.reference()

    def round(self) -> None:
        if not self.samples["setup_s"]:
            self.pair()
        if self.traced:
            self.run_job(True)
        self.run_job(False)
        for _ in range(max(1, round(self.samples["job_s"][-1] / REF_EVERY_S))):
            self.pair()

    def finish(self) -> None:
        while len(self.samples["setup_s"]) < MIN_SAMPLES:
            self.pair()

    def end_to_end(self) -> dict:
        median = {name: statistics.median(values) for name, values in self.samples.items()}
        median["job_ref_ratio"] = median["job_s"] / median["reference_s"]
        return {name: median[name] for name in END_TO_END}

    def per_layer(self) -> dict:
        out = {}
        for name in PER_LAYER:
            values = [layer.get(name, 0) for layer in self.layers]
            out[name] = statistics.median(values) if values else 0.0
        out["job_s"] = statistics.median(self.samples["job_s"])
        out["reference_s"] = statistics.median(self.samples["reference_s"])
        out["trace.job_s"] = statistics.median(self.samples["trace.job_s"])
        out["trace.overhead_s"] = out["trace.job_s"] - out["job_s"]
        k1c = out["instance.k1c.calls"]
        out["instance.k1_hit_ratio"] = 1.0 - out["instance.k1.calls"] / k1c if k1c else 0.0
        return out

    def report(self) -> None:
        shape = " ".join(f"{key}={value}" for key, value in self.job.shape.items())
        print(f"{self.workload}: input {shape}")
        print(f"  {'job_ref_ratio':<12} {self.end_to_end()['job_ref_ratio']:10.4f} 1   "
              f"median job_s / median reference_s")
        for name, unit in (("job_s", "s"), ("reference_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")):
            values = self.samples[name]
            q1, q2, q3 = quartiles(values)
            print(f"  {name:<12} {q2:10.4f} {unit:<3} median  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"samples {len(values)}")
            print(f"  {'':<12} in run order: {' '.join(f'{v:.4f}' for v in values)}")
        ratio = self.failed / self.attempted
        print(f"  {'failed_ratio':<12} {ratio:10.4f} 1   "
              f"{self.failed} failed of {self.attempted} jobs attempted")
        if self.traced and self.layers:
            layers = self.per_layer()
            total = layers["trace.job_s"]
            print(f"  traced job {total:.4f} s, overhead {layers['trace.overhead_s']:+.4f} s; "
                  f"self-time shares of the traced job:")
            names = {key for layer in self.layers for key in layer if key.endswith(".self_s")}
            shares = {key[:-len(".self_s")]: statistics.median(layer.get(key, 0.0) for layer in self.layers)
                      for key in names}
            shares["(outside every span)"] = layers["trace.unattributed_s"]
            for name, value in sorted(shares.items(), key=lambda kv: -kv[1]):
                print(f"    {name:<30} {value / total:6.1%}")
        for problem in self.problems:
            print(f"  FAILED {problem}")


def measure(runners, seconds: float) -> None:
    """Interleave rounds, ``seconds`` per workload, while the next pass of
    rounds is expected to end within that budget.

    Every workload of an untraced run also gets MIN_JOBS jobs, so the
    median of a run never rests on one slow job, unless that would overrun
    GRACE_S more.  A traced run, whose rounds hold two jobs, needs one round.
    """
    budget = seconds * len(runners)
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        short = any(len(runner.samples["job_s"]) < (1 if runner.traced else MIN_JOBS) for runner in runners)
        if last and elapsed + last > budget + (GRACE_S if short else 0.0):
            break
        for runner in runners:
            runner.round()
        last = time.perf_counter() - start - elapsed
    for runner in runners:
        runner.finish()


def _program_present() -> bool:
    """The checkout's own infodiagram is importable; warms the byte-code cache."""
    if not (SRC / "infodiagram" / "cli.py").is_file():
        return False
    probe = subprocess.run([sys.executable, "-c", "import infodiagram.cli; print(infodiagram.cli.__file__)"],
                           cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=60)
    return probe.returncode == 0 and Path(probe.stdout.strip()).resolve() == SRC / "infodiagram" / "cli.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*SPECS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the job it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not _program_present():
        print(f"no importable infodiagram under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(SPECS) if args.workload == "all" else [args.workload]
    with Spawner() as spawner:
        runners = [Runner(name, args.seed, bool(args.trace), spawner) for name in names]
        measure(runners, args.seconds)
    metrics = {}
    for runner in runners:
        runner.report()
        values, units = (runner.per_layer(), PER_LAYER) if args.trace else (runner.end_to_end(), END_TO_END)
        prefix = "" if len(runners) == 1 else runner.workload + "."
        metrics.update({prefix + name: {"value": values[name], "unit": unit} for name, unit in units.items()})
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    correct = failed == 0 and not any(r.problems for r in runners)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
