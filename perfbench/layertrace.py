"""Outside-in layer trace of one CLI job, installed from the benchmark's files.

``Tracer.install`` wraps public functions of infodiagram's modules without
touching ``src/``.  A wrapper replaces the original in every module
namespace that holds it, because callers look names up in their own
globals: ``cli`` imports ``verify_hu``, ``read_table``,
``empirical_from_rows`` and the instance builders by name, ``divergences``
imports ``marginal``, ``condition`` and ``joint_of`` by name, and
``core.verify_hu`` reaches ``check_chain_rule``, ``atom_table`` and
``interaction`` through ``core`` globals.  ``k1`` is a per-instance field,
so it is wrapped after each instance is constructed; ``k1c`` is wrapped on
the class.

Spans (name, start, end, parent, self time) live in memory and are written
as JSON by ``Tracer.write`` when the job ends.  Self time is the span's
duration minus the time of its children, taken from a span stack.  Hot,
cheap functions (``interaction``, ``k1c``, ``condition``) are counted, not
spanned, so their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from importlib import import_module

# imported on install, so the benchmark process itself never loads infodiagram
MODULES = ("cli", "core", "shannon", "divergences", "setfun")


def _size(path) -> int:
    return os.path.getsize(path) if path != "-" else 0


# name -> how the call adds to the job's counters: f(args, result) -> {counter: amount}
SPANNED = {
    "cli.read_table": lambda a, r: {"ingest.bytes": _size(a[0])},
    "cli.paired_empirical": lambda a, r: {"ingest.points": len(r[0])},
    "cli.read_setfunction": lambda a, r: {"ingest.bytes": _size(a[0]), "ingest.points": 1 << r[0].n},
    "shannon.empirical_from_rows": lambda a, r: {"ingest.points": len(r[0])},
    "cli.cmd_diagram": None,
    "cli.cmd_verify": None,
    "cli._write_document": lambda a, r: {"cli._write_document.bytes": _size(a[1].out)},
    "core.verify_hu": lambda a, r: {"core.verify_hu.checks": len(r.residuals)},
    "core.check_chain_rule": None,
    "core.atom_table": lambda a, r: {"core.atom_table.atoms": len(r)},
    "shannon.joint_of": None,
    "shannon.marginal": None,
}
COUNTED = ("core.interaction", "shannon.condition")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, self time]
        self.stack = []  # [span index, child time]
        self.counts = Counter()
        self.modules = {}

    def span(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, None])
            self.stack.append([index, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = self.stack.pop()
                record = self.spans[index]
                record[2], record[4] = end, end - record[1] - child
                if self.stack:
                    self.stack[-1][1] += end - record[1]
            self.counts[name + ".calls"] += 1
            if counter is not None:
                self.counts.update(counter(args, result))
            return result
        return wrapper

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, name: str, make):
        module, attr = name.split(".")
        original = getattr(self.modules[module], attr)
        wrapped = make(name, original)
        for mod in self.modules.values():
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)

    def install(self) -> None:
        self.modules = {name: import_module("infodiagram." + name) for name in MODULES}
        for name, counter in SPANNED.items():
            self._patch(name, lambda nm, fn, c=counter: self.span(nm, fn, c))
        for name in COUNTED:
            self._patch(name, self.count)
        klass = self.modules["core"].ChainRuleInstance
        klass.k1c = self.count("instance.k1c", klass.k1c)
        post_init = klass.__post_init__

        def traced_post_init(inst):
            post_init(inst)
            inst.k1 = self.span("instance.k1", inst.k1)
        klass.__post_init__ = traced_post_init

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def run_traced(argv, spans_path) -> int:
    """Run the CLI on ``argv`` under a fresh tracer and write its spans."""
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.modules["cli"].main(argv)
    finally:
        tracer.write(spans_path)


def summarize(record: dict, job_wall: float) -> dict:
    """Per-layer totals of one traced job: ``<name>.s``, ``.self_s``, ``.calls``
    and counters, plus the job time outside every top-level span."""
    out = dict(record["counts"])
    top = 0.0
    for name, start, end, parent, self_time in record["spans"]:
        out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start)
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + self_time
        if parent is None:
            top += end - start
    out["trace.unattributed_s"] = job_wall - top
    return out
