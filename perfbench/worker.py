"""One workload in one fresh process: set up, then run queries in a closed loop.

Usage (normally started by run.py)::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode run|setup [--trace 0|1] [--passes N] [--reference FILE]

With ``--mode setup`` the worker only imports simphom, generates the seeded
inputs and runs the warm-up query, then prints its set-up time.  With
``--mode run`` it then issues queries one after another for ``--seconds``
seconds, or for exactly ``--passes`` passes over its query list, checks
every result, and prints one JSON record as its last line.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class _Pair:
    __slots__ = ("key", "count")

    def __init__(self, key, count):
        self.key = key
        self.count = count


def calibrate():
    """Seconds a fixed pure-Python kernel, independent of simphom, takes now.

    The kernel hashes small tuples into a dict and allocates small objects,
    like simphom's hot paths.  The machine's speed drifts by a fifth over
    minutes under other load; run.py divides query times by this figure to
    take that drift out.
    """
    t0 = perf_counter()
    table = {}
    for i in range(4000):
        key = (i % 97, i * 7 % 13, "x%d" % (i % 50))
        table[key] = table.get(key, 0) + 1
        _Pair(key, i)
    return perf_counter() - t0


def _canonical(summary):
    return json.loads(json.dumps(summary))


def verdict(workload, q, summary, error, reference):
    """("ok" | "mismatch" | "failed", problems) for one query's outcome.

    A result is checked by the workload's own routes and against the
    reference.  A query that raised is a mismatch when the reference has a
    result for it, since the recorded commit answered it, and otherwise a
    failed query.
    """
    from workloads import fingerprint

    key = workload.key(q)
    if error is not None:
        if key in reference:
            return "mismatch", ["raised %s; the reference has a result" % error]
        return "failed", ["raised %s" % error]
    found = workload.check(q, summary)
    expected = reference.get(key)
    if expected is not None and expected != fingerprint(summary):
        found.append("differs from the reference for %s" % key)
    return ("mismatch" if found else "ok"), found


def main(argv=None):
    before = [calibrate() for _ in range(5)]
    started = perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "setup"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=0, help="0: run until --seconds are up")
    parser.add_argument("--reference", default=str(HERE / "reference.json"))
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import simphom

    if Path(simphom.__file__).resolve().parent != SRC / "simphom":
        sys.exit("simphom was imported from %s, not from %s" % (simphom.__file__, SRC))
    from workloads import LONG_PATH_CAP, WORKLOADS, long_path_limit

    workload = WORKLOADS[args.workload]
    queries = workload.queries(args.seed)
    workload.run(workload.warmup())
    setup_s = perf_counter() - started
    # the machine's speed over the set-up, read from both of its ends
    # (a median without importing statistics, which would add to peak_rss_mb)
    cal = sorted(before + [calibrate() for _ in range(5)])
    setup_cal = (cal[4] + cal[5]) / 2
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_cal": setup_cal}))
        return 0

    with open(args.reference) as fh:
        reference = json.load(fh).get(workload.name, {})
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()

    total = len(queries) * args.passes if args.passes > 0 else None
    which, durations, cal, failed, mismatched, problems = [], [], [], [], [], []
    items = {}  # distinct query -> work units of its last correct run
    digest = hashlib.sha256()
    checkpoints = {}
    deadline = perf_counter() + args.seconds
    i = 0
    while i < total if total is not None else perf_counter() < deadline:
        j = i % len(queries)
        q = queries[j]
        # garbage left by the previous query is collected outside the clock
        gc.collect()
        cal.append(calibrate())
        if tracer is not None:
            tracer.enabled = True
        t0 = perf_counter()
        try:
            summary = workload.run(q)
            error = None
        except Exception as exc:  # a raising query is a failed query; keep measuring
            summary, error = None, "%s: %s" % (type(exc).__name__, str(exc)[:120])
        durations.append(perf_counter() - t0)
        which.append(j)
        if tracer is not None:
            tracer.enabled = False

        key = workload.key(q)
        if error is None:
            summary = _canonical(summary)
        kind, found = verdict(workload, q, summary, error, reference)
        if kind == "ok":
            items[j] = workload.items(summary)
        else:
            (mismatched if kind == "mismatch" else failed).append(i)
            problems.extend("query %d: %s" % (i, msg) for msg in found)
        result = summary if error is None else "failed"
        digest.update(("%d %s %s\n" % (i, key, json.dumps(result, sort_keys=True))).encode())
        i += 1
        if i & (i - 1) == 0:
            checkpoints[i] = digest.hexdigest()[:16]
    checkpoints[i] = digest.hexdigest()[:16]

    record = {
        "pid": os.getpid(),
        "wrapped": sum(tracer.installed.values()) if tracer is not None else 0,
        "setup_s": setup_s,
        "setup_cal": setup_cal,
        "which": which,
        "durations": durations,
        "cal": cal,
        "failed": failed,
        "mismatched": mismatched,
        "problems": problems[:20],
        "items": items,
        "item": workload.unit,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": checkpoints,
    }
    if not args.trace:
        # the known long-path defect, probed after the timed loop and outside
        # the counted queries, so it never counts as a failed query
        limit, found = long_path_limit()
        record["long_path"] = {"max_p": limit, "cap": LONG_PATH_CAP, "problems": found}
    if tracer is not None:
        from tracer import layer_metrics

        record["layers"] = layer_metrics(tracer, sum(durations))
        record["missing"] = tracer.missing
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
