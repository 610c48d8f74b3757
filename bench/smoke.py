"""Smoke check of the benchmark at its smallest size, in well under a minute.

    python3 bench/smoke.py

Runs both workloads with the output checks, the traced run of both, and the
affine traced run a second time so that its computed counts are compared
with the first (two processes at a time).  Checks the shape of every result
line against BENCHMARK.json, and that a directory holding only the benchmark
files makes the benchmark fail without printing a result.  Exits 0 when all
of that holds.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 170
SEED = 1
PHASES = ((("general", 0), ("affine", 1)), (("general", 1), ("affine", 1)))


def command(workload, trace, seed=SEED):
    return [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "smoke"]


def check_result(stdout, names, problems, label):
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        problems.append(f"{label}: last line is not a JSON result")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return
    if result["correct"] is not True:
        problems.append(f"{label}: correct is {result['correct']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append(f"{label}: attempted/failed not whole numbers")
    if set(result["metrics"]) != set(names):
        missing = set(names) - set(result["metrics"])
        extra = set(result["metrics"]) - set(names)
        problems.append(f"{label}: metrics missing {sorted(missing)}, extra {sorted(extra)}")
    for name, entry in result["metrics"].items():
        if not (isinstance(entry.get("value"), (int, float)) and math.isfinite(entry["value"])
                and names.get(name) == entry.get("unit")):
            problems.append(f"{label}: metric {name} = {entry}")
    print(f"{label}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} metrics={len(result['metrics'])}")


def bare_directory_fails(problems):
    """The benchmark alone, without the sources, must exit non-zero silently."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_runs") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "bench", Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(command("general", 0), cwd=tmp, capture_output=True,
                             text=True, timeout=TIMEOUT_S)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        problems.append(f"bare directory: exit {out.returncode}, stdout {out.stdout!r}")
    else:
        print(f"bare directory: exit {out.returncode}, no result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    (ROOT / ".bench_runs").mkdir(exist_ok=True)
    problems = []
    for phase in PHASES:
        procs = [(f"{w} --trace {t}", t,
                  subprocess.Popen(command(w, t), cwd=ROOT, stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, text=True))
                 for w, t in phase]
        for label, trace, proc in procs:
            try:
                stdout, stderr = proc.communicate(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                problems.append(f"{label}: timed out")
                continue
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {stderr[-2000:]}")
                continue
            for line in stderr.splitlines():
                if line.startswith("count mismatch"):
                    problems.append(f"{label}: {line}")
            check_result(stdout, names[trace], problems, label)
    bare_directory_fails(problems)
    for p in problems:
        print("PROBLEM: " + p)
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
