"""The simphom benchmark: one workload, measured end to end or per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Workloads: enumerate, degeneracy_sweep, cli_script, oracle_check (see
design.json for why each was chosen and what it predicts).  Every workload
is a closed loop with one client: one process, one thread, the next query
issued only when the previous one has finished.  Each measurement runs in
a fresh worker process (worker.py), so memory and per-space caches belong
to that workload alone, and the traced run never shares a process with the
untraced one.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of nine
set-ups, each in its own process), ``query_s.p50``, ``query_s.tail``,
``items_per_s``, ``peak_rss_mb``, ``success_rate`` and ``long_path_max_p``
(the largest degree the long-path probe answers; see workloads.py).  ``--trace 1``
runs an untraced worker for half the time, then a traced worker for
exactly one pass over the same query list, and prints the per-layer
metrics of that pass, including ``trace.overhead``.
Times are seconds at a reference machine speed: each wall time is scaled
by a calibration kernel timed next to it (see design.json).  Every result
is checked; the last line of output is one JSON object.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("enumerate", "degeneracy_sweep", "cli_script", "oracle_check")
SETUPS = 9
# Seconds worker.calibrate() typically takes inside a worker on the machine
# the benchmark was written on (a 2-core 2.0 GHz VM, CPython 3.11).  Reported
# times are wall times scaled by NOMINAL_CAL_S over the calibration measured
# next to them: seconds at that machine's typical speed.
NOMINAL_CAL_S = 0.0056
CAL_WINDOW = 5


class BenchError(Exception):
    pass


def _worker(workload, seed, seconds, mode, trace=0, reference=None, passes=0):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--mode", mode,
        "--trace", str(trace),
        "--passes", str(passes),
    ]
    if reference is not None:
        cmd += ["--reference", reference]
    # A fixed hash seed gives every worker the same dict and set orders, so
    # runs differ only in their inputs and the machine's speed.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=seconds + 150
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker timed out: %s" % " ".join(cmd)) from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            "worker failed (exit %d): %s\n%s" % (proc.returncode, " ".join(cmd), proc.stderr[-2000:])
        )
    return json.loads(lines[-1])


def _environment():
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def normalised(record):
    """Query wall times scaled to the reference machine speed.

    Each query is preceded by a run of the calibration kernel; the speed
    at query i is read from the median kernel time of the CAL_WINDOW runs
    around it, which smooths the kernel's own jitter.
    """
    cal = record["cal"]
    half = CAL_WINDOW // 2
    out = []
    for i, seconds in enumerate(record["durations"]):
        window = cal[max(0, i - half): i + half + 1]
        out.append(seconds * NOMINAL_CAL_S / statistics.median(window))
    return out


def query_times(record):
    """Distinct query -> the median of its normalised times over the run.

    The run cycles through its distinct queries, so each one is timed once
    per cycle, seconds apart.  A query that failed on any repeat counts as
    infinitely slow.
    """
    bad = set(record["failed"]) | set(record["mismatched"])
    repeats = {}
    for i, (j, seconds) in enumerate(zip(record["which"], normalised(record))):
        repeats.setdefault(j, []).append(math.inf if i in bad else seconds)
    return {
        j: math.inf if math.inf in times else statistics.median(times)
        for j, times in repeats.items()
    }


def tail(values):
    """(value, percentile): the highest percentile with ten queries beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(record, setups):
    times = query_times(record)
    attempted = len(record["durations"])
    failed = len(record["failed"]) + len(record["mismatched"])
    tail_s, tail_pct = tail(times.values())
    # each distinct query once, so the queries the last, partial cycle
    # happened to reach do not weigh more than the others
    fine = [j for j, t in times.items() if math.isfinite(t)]
    items = sum(record["items"][str(j)] for j in fine)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "query_s.p50": (statistics.median(times.values()), "s"),
        "query_s.tail": (tail_s, "s"),
        "items_per_s": (items / sum(times[j] for j in fine), "items/s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "success_rate": ((attempted - failed) / attempted, "fraction"),
        "long_path_max_p": (record["long_path"]["max_p"], "degree"),
    }
    repeats = "each the median of %.1f repeats on average" % (attempted / len(times))
    notes = {
        "query_s.p50": "median of %d distinct queries, %s" % (len(times), repeats),
        "query_s.tail": "p%.2f of %d distinct queries" % (tail_pct, len(times)),
        "items_per_s": "item = %s" % record["item"],
        "long_path_max_p": "largest p <= %d that enumerate_hom_simplices(delta(0), 2, p) answers"
        % record["long_path"]["cap"],
        "setup_s": "median of %d set-ups: %s" % (len(setups), ", ".join("%.4f" % s for s in setups)),
    }
    return metrics, notes, attempted, failed


def overhead(untraced, traced):
    """Traced over untraced query time, summed over queries both runs completed."""
    a, b = query_times(untraced), query_times(traced)
    common = [j for j in a if j in b and math.isfinite(a[j]) and math.isfinite(b[j])]
    return sum(b[j] for j in common) / sum(a[j] for j in common), len(common)


def measure(workload, seed, seconds, trace, reference=None):
    """Run one measurement; returns (printable lines, result object)."""
    env = _environment()
    lines = ["# environment %s" % json.dumps(env)]
    if trace:
        untraced = _worker(workload, seed, seconds / 2.0, "run", 0, reference)
        # One fixed pass, so counts and self times describe the seed's query
        # list and not how many queries fit in the time.
        traced = _worker(workload, seed, seconds, "run", 1, reference, passes=1)
        record = traced
        # self times in the same normalised seconds as the query times
        wall = sum(normalised(traced))
        scale = wall / sum(traced["durations"])
        metrics = {
            name: (value * scale if unit == "s" and value is not None else value, unit)
            for name, (value, unit) in traced["layers"].items()
        }
        ratio, common = overhead(untraced, traced)
        metrics["trace.overhead"] = (ratio, "ratio")
        notes = {"trace.overhead": "over %d distinct queries" % common}
        if traced["missing"]:
            lines.append("# missing traced names: %s" % ", ".join(traced["missing"]))
        attempted = len(traced["durations"])
        failed = len(traced["failed"]) + len(traced["mismatched"])
        correct = not traced["mismatched"] and not untraced["mismatched"]
        lines.append("# traced wall %.6f s, raw %.6f s" % (wall, sum(traced["durations"])))
    else:
        record = _worker(workload, seed, seconds, "run", 0, reference)
        probes = [record] + [_worker(workload, seed, 0, "setup") for _ in range(SETUPS - 1)]
        setups = [p["setup_s"] * NOMINAL_CAL_S / p["setup_cal"] for p in probes]
        metrics, notes, attempted, failed = end_to_end(record, setups)
        correct = not record["mismatched"] and not record["long_path"]["problems"]
        # p = 44 (1035 lattice paths) is the first degree that raised when
        # the benchmark was added
        if record["long_path"]["max_p"] < 44:
            lines.append(
                "# known defect open: enumerate_hom_simplices(delta(0), 2, 44) raises RecursionError"
            )
        lines.append(
            "# error_rate %.6f (%d failed of %d attempted)" % (failed / attempted, failed, attempted)
        )
        lines.append(
            "# raw wall: query p50 %.6f s, set-up median %.6f s; machine speed %.3f of reference"
            % (
                statistics.median(record["durations"]),
                statistics.median(p["setup_s"] for p in probes),
                NOMINAL_CAL_S / statistics.median(record["cal"]),
            )
        )
    for name, (value, unit) in metrics.items():
        extra = "  (%s)" % notes[name] if name in notes else ""
        shown = "missing" if value is None else "%.6g" % value
        lines.append("%-36s %12s %s%s" % (name, shown, unit, extra))
    lines.append("# digests %s" % json.dumps(record["digests"]))
    lines.extend("# problem: %s" % p for p in record["problems"])
    lines.extend("# problem: long-path probe: %s" % p for p in record.get("long_path", {}).get("problems", []))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: (
                {"value": value, "unit": unit}
                if value is not None
                else {"value": None, "unit": unit, "missing": True}
            )
            for name, (value, unit) in metrics.items()
        },
    }
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", help="reference file (default: perfbench/reference.json)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "simphom" / "__init__.py").is_file():
        print("perfbench: no simphom sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    try:
        lines, result = measure(args.workload, args.seed, args.seconds, args.trace, args.reference)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
