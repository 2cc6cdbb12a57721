"""Fixed reference work, timed next to every job to track the host's speed.

    python3 perfbench/reference.py

It imports nothing from the program, nor numpy, whose import time rides
on the file system more than on the processor, and its work never
changes.  ``job_ref_ratio``, a job's median wall time over this loop's in
the same run, cancels much of the drift of a shared host's speed.

The drift does not slow every kind of work alike.  On the reference host,
across runs, ``setfun-wide`` jobs (a small working set) moved with a
cache-resident loop almost one for one, ``shannon-lattice`` jobs (hundreds
of MB of label tuples) hardly at all, and ``verify-exhaustive`` jobs about
half as much.  So the loop spends about half its time in each kind: a
lattice of label tuples that it keeps, as the Shannon instance does, and
cache-resident dict updates, a JSON encoding and a string sort.
"""


def main() -> int:
    import json

    columns = [tuple((i * 7919 + j * 104729) // 7 % 3 for i in range(2000)) for j in range(10)]
    lattice = []
    for mask in range(1, 230):
        labels = tuple(zip(*(col for j, col in enumerate(columns) if mask >> j & 1)))
        mass = {}
        for label in labels:
            mass[label] = mass.get(label, 0) + 1
        lattice.append(labels)

    counts = {}
    for i in range(250_000):
        key = i % 5003
        counts[key] = counts.get(key, 0.0) + i * 0.5
    rows = [{"q": i % 3, "L": [i % 7, i % 11], "lhs": i * 1e-3} for i in range(30_000)]
    text = json.dumps(rows)
    words = sorted(str(i * 7919 % 300_007) for i in range(60_000))
    return 0 if len(lattice) == 229 and len(counts) == 5003 and text and len(words) == 60_000 else 1


if __name__ == "__main__":
    raise SystemExit(main())
