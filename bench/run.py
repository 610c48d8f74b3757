"""Benchmark of the stabledyn CLI on Van der Pol, one fresh process per run.

    python3 bench/run.py --workload general --seed 1 --seconds 50 --trace 0

A run sets up (configs and checkpoint from the seed, one warm-up call), then
makes closed-loop passes for about ``--seconds``: at least one, and another
only while it can end within the budget at the pace of the last one.  A pass
runs the train, rollout and audit stages of the workload's model mode
through ``stabledyn.cli.main`` in this process and checks every output.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``.
Details of the run (environment, every operation, the traced spans) go to
``.bench_runs/results``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
WORKLOADS = ("general", "affine")
BLAS_THREADS = 2  # the same on both sides of every comparison, capped at nproc


def nproc():
    return len(os.sched_getaffinity(0))


def pin_blas_threads():
    """Must run before numpy is imported."""
    threads = min(BLAS_THREADS, nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def git_revision():
    """HEAD of the checkout's git repository, read from its files."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args, threads):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "nproc": nproc(),
            "git_revision": git_revision(), "seed": args.seed,
            "workload": args.workload, "size": args.size, "trace": args.trace}


def start_seconds(reps):
    """Median wall time for a fresh interpreter to start and import the CLI,
    the fixed cost of every command a user runs."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import stabledyn.cli"
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def load_spec():
    """Metric names and units of BENCHMARK.json, end-to-end then per-layer."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", default="full", choices=("full", "smoke"))
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    threads = pin_blas_threads()
    if not (SRC / "stabledyn" / "__init__.py").is_file():
        print(f"no stabledyn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stabledyn

    if Path(stabledyn.__file__).resolve().parent != SRC / "stabledyn":
        print(f"imported stabledyn from {stabledyn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import counts
    import pipeline
    from tracer import Tracer, layer_metrics, roadmap_rows

    e2e_units, layer_units = load_spec()
    size = pipeline.SIZES[args.size]
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{args.size}"
    workload = pipeline.Workload(args.workload, args.seed, size,
                                 RUNS / f"work-{tag}-{os.getpid()}")
    tracer = Tracer() if args.trace else None
    tally = pipeline.Tally()
    try:
        start_med, start_reps = start_seconds(size.setup_reps)
        setup_med, setup_reps = pipeline.median_setup(workload, size.setup_reps)
        if tracer is not None:
            tracer.install()
        passes = 0
        t0 = now = time.perf_counter()
        while passes == 0 or (now - t0) * (passes + 1) / passes <= args.seconds:
            workload.run_pass(tally, tracer)
            passes += 1
            now = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(workload.root, ignore_errors=True)

    ops_failed = len(tally.failed)
    metrics = {
        "setup_s": start_med + setup_med,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": 1.0 - ops_failed / len(tally.ops),
        "train_samples_per_s": tally.train_samples / tally.stage_s["train"],
        "train_final_loss": float(np.median(tally.final_losses)),
        "rollout_steps_per_s": tally.row_steps / tally.stage_s["rollout"],
        "audit_samples_per_s": tally.audit_rows / tally.stage_s["audit"],
    }
    units = dict(e2e_units)
    info = {"env": environment(args, threads), "passes": passes,
            "measured_s": now - t0, "start_reps_s": start_reps,
            "setup_reps_s": setup_reps, "ops_failed_frac": ops_failed / len(tally.ops),
            "decay_worst_ratio": tally.decay_ratios,
            "stage_wall_s": tally.stage_s,
            "ops": [op.__dict__ for op in tally.ops]}
    correct = tally.correct
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        layers = layer_metrics(tracer, workload.model, tracer.calibrate())
        layers["training.artifact_bytes"] = float(tally.train_artifact_bytes)
        layers = {name: layers[name] for name in layer_units}
        mismatches = counts.check_repeat(RUNS / "counts", counts.code_hash(ROOT), args,
                                         passes, layers)
        for line in mismatches:
            print(f"count mismatch: {line}", file=sys.stderr)
        correct = correct and not mismatches
        info["roadmap"] = roadmap_rows(tracer, args.workload)
        tracer.write_spans(results / f"{tag}.spans.csv.gz")
        metrics.update(layers)
        units.update(layer_units)
    info["metrics"] = metrics
    (results / f"{tag}.json").write_text(json.dumps(info, indent=1) + "\n")

    print("env: " + json.dumps(info["env"], sort_keys=True))
    for op in tally.failed:
        print(f"op {'verdict' if op.verdict else 'FAILED'}: {op.name}: {op.detail}")
    print(f"ops: {len(tally.ops)} attempted, {ops_failed} failed "
          f"(ops_failed_frac {info['ops_failed_frac']:.4f}), {passes} pass(es) "
          f"in {info['measured_s']:.2f} s")
    for row in info.get("roadmap", []):
        print("roadmap: " + row)
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    reported = layer_units if tracer is not None else e2e_units
    print(json.dumps({"correct": bool(correct), "attempted": len(tally.ops),
                      "failed": ops_failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
