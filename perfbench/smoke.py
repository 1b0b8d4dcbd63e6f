"""Smoke tests of the benchmark itself.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

Checks, at a tiny run length:

* BENCHMARK.json keeps to its format, and design.json and the tracer name
  the same per-layer metrics;
* every workload prints every end-to-end metric (untraced) and every
  per-layer metric (traced) with the unit BENCHMARK.json gives it, and the
  per-layer self times plus unattributed time add up to the traced wall;
* the per-layer counts come from one fixed pass, so they do not change
  with the run length;
* a deliberately corrupted reference value makes a query fail, and so does
  a query that raises although the reference has a result for it;
* no query fails on any workload, and every untraced run reports the
  long-path probe;
* traced and untraced workers are separate processes and only the traced
  one installs wrappers;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits with an error and prints no result.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return proc


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "names must be unique"
    assert all(NAME.match(n) for n in names), names
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and UNIT.match(m["unit"])
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    design = json.loads((HERE / "design.json").read_text())
    predicted = {name for row in design["predictions"] for name in row["metrics"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert predicted <= per_layer, predicted - per_layer
    assert len(json.dumps(spec)) <= 64 * 1024


def check_metrics(result, expected):
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert set(result["metrics"]) == set(expected), set(result["metrics"]) ^ set(expected)
    for name, unit in expected.items():
        got = result["metrics"][name]
        assert got["unit"] == unit, (name, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (name, got)


def check_workloads(spec):
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in run.WORKLOADS:
        plain = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
        result = _last_json(plain)
        check_metrics(result, end_to_end)
        assert result["correct"], plain.stdout
        assert "# error_rate" in plain.stdout and "# digests" in plain.stdout
        assert "# environment" in plain.stdout
        assert result["failed"] == 0, plain.stdout

        traced = _bench("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", "1")
        result = _last_json(traced)
        check_metrics(result, per_layer)
        wall = float(re.search(r"# traced wall ([0-9.e+-]+) s", traced.stdout).group(1))
        parts = sum(v["value"] for k, v in result["metrics"].items() if k.endswith(".self_s"))
        assert abs(parts - wall) <= 1e-3 * max(wall, 1e-3), (parts, wall)
        assert result["metrics"]["unattributed.self_s"]["value"] >= -1e-6
        assert result["metrics"]["trace.overhead"]["value"] > 0
        if workload == "cli_script":
            longer = _last_json(_bench("--workload", workload, "--seed", "3", "--seconds", "6", "--trace", "1"))
            for name, got in result["metrics"].items():
                if got["unit"] == "count":
                    assert longer["metrics"][name]["value"] == got["value"], name
        print("ok  %s" % workload, flush=True)


def check_corrupted_reference():
    from workloads import WORKLOADS

    workload = WORKLOADS["oracle_check"]
    reference = json.loads((HERE / "reference.json").read_text())
    key = workload.key(workload.queries(5)[0])
    assert key in reference[workload.name], "seed 5 should be covered by the reference"
    reference[workload.name][key] = "0" * 16
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "reference.json"
        path.write_text(json.dumps(reference))
        proc = _bench("--workload", "oracle_check", "--seed", "5", "--seconds", "1", "--reference", str(path))
    result = _last_json(proc)
    assert not result["correct"] and result["failed"] >= 1, proc.stdout
    assert "differs from the reference" in proc.stdout
    print("ok  corrupted reference counts as a failure", flush=True)


def check_raise_with_reference():
    import worker
    from workloads import WORKLOADS

    workload = WORKLOADS["enumerate"]
    reference = json.loads((HERE / "reference.json").read_text())[workload.name]
    q = workload.queries(5)[0]
    assert workload.key(q) in reference, "seed 5 should be covered by the reference"
    error = "RecursionError: maximum recursion depth exceeded"
    kind, problems = worker.verdict(workload, q, None, error, reference)
    assert kind == "mismatch" and "the reference has a result" in problems[0], (kind, problems)
    kind, _ = worker.verdict(workload, q, None, error, {})
    assert kind == "failed", kind
    print("ok  a raising query with a reference counts as a mismatch", flush=True)


def check_separate_processes():
    records = []
    for trace in (0, 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", "cli_script", "--seed", "2",
             "--seconds", "0.5", "--mode", "run", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        records.append(_last_json(proc))
    untraced, traced = records
    assert untraced["pid"] != traced["pid"]
    assert untraced["wrapped"] == 0 and "layers" not in untraced
    assert traced["wrapped"] > 0
    print("ok  traced and untraced runs use separate processes", flush=True)


def check_bare_directory():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "enumerate", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    print("ok  bare directory exits with code %d and no result" % proc.returncode, flush=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("ok  BENCHMARK.json format", flush=True)
    check_bare_directory()
    check_separate_processes()
    check_corrupted_reference()
    check_raise_with_reference()
    check_workloads(spec)
    print("all smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
