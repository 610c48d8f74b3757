"""Computed counts of the traced run, which must repeat exactly across runs.

A traced run compares its counts with those that earlier traced runs of the
same code (a hash of ``src`` and ``bench``), workload, size and number of
passes stored under ``.bench_runs/counts``, and stores any it is the first
to see.  A difference is a benchmark error, not noise.  Counts fixed by the workload's sizes are compared across all
seeds; counts that may depend on the model, such as calls made before an
escape-guard truncation, are compared between runs of the same seed.
"""

from __future__ import annotations

import hashlib
import json
import os

ANY_SEED = (
    "diffcore.tape_nodes_per_step", "diffcore.tape_bytes_per_step",
    "diffcore.reverse_sweep_ms.n", "training.record_ms.n", "training.steps",
    "models.eval_rows.p50", "models.flops_per_row", "models.bytes_per_row",
    "verify.samples",
)
PER_SEED = (
    "training.artifact_bytes", "models.eval_calls", "models.eval_us_per_call.n",
    "models.controller_calls", "models.lyapunov_calls", "sim.row_steps",
    "sim.model_evals_per_step.true", "sim.model_evals_per_step.learned",
    "sim.rows_truncated.escape", "sim.rows_truncated.other",
    "systems.dynamics_calls", "bench.spans",
)


def code_hash(root):
    """Digest of the Python sources that the counts depend on."""
    digest = hashlib.sha1()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "bench").rglob("*.py")]):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def check_repeat(directory, code, args, passes, metrics):
    """Mismatches against stored counts, as printable lines."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{code}-{args.workload}-{args.size}-p{passes}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    groups = {"any": ANY_SEED, f"seed {args.seed}": PER_SEED}
    mismatches = []
    for group, names in groups.items():
        seen = stored.setdefault(group, {})
        for name in names:
            value = metrics[name]
            if name not in seen:
                seen[name] = value
            elif seen[name] != value:
                mismatches.append(f"{name} ({group}): {value!r}, "
                                  f"earlier runs {seen[name]!r}")
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return mismatches
