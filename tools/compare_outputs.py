"""Check that two source trees of stabledyn write byte-identical outputs.

Each config runs one pipeline of CLI commands, each in a fresh process:
``sample``, ``train`` on that dataset, a ``train`` resumed from it into a
copy of its directory (appending to its ``losses.csv``), the same resume
into an empty directory, a zero-epoch ``train``, ``simulate``, ``verify`` (every check, with the
dataset), ``verify --ablate-projection`` and ``portrait``.  Every command
after ``sample`` reads its inputs from the earlier ones through paths that
this script sets in its config.  Both trees run from the same directory,
so the configs that artifacts embed name the same paths.  After each step,
every ``checkpoint.json`` in its directory is loaded by the same tree's
``load_checkpoint``, in a fresh process with the same environment, and what
it holds is written beside it as ``checkpoint.values``: SHA-256 digests of
the parameter vector and of Adam's m and v, the step and epoch counts, and
the mode, hyper, system and each network's dims.  So two trees that store a
model differently still show whether they stored the same model.  Then
every file written, and every command's exit code, stdout and stderr, is
compared.  ``verify.json`` is compared with each check's ``seconds`` left
out.

    python tools/compare_outputs.py OLD/src NEW/src vdp.json affine.json \\
        --threads 2 --work /tmp/compare

A config is an ordinary run config; keep its sizes small, for instance
``{"system": "vdp", "model": {"mode": "affine"}, "sample": {"n": 20000},
"train": {"epochs": 2}, "simulate": {"k": 3, "T": 2.0},
"verify": {"n_samples": 20000, "rollouts": 2}, "portrait": {"resolution": 41}}``.
Exits 0 when every file and exit code matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

# (step, command, extra flags, config overrides given the run directory)
STEPS = (
    ("sample", "sample", (), lambda run: {}),
    ("train", "train", (), lambda run: {"train": {"dataset": run / "sample/dataset.csv"}}),
    ("resume", "train", (), lambda run: {"train": {
        "dataset": run / "sample/dataset.csv", "resume_from": run / "train/checkpoint.json"}}),
    ("resume_fresh", "train", (), lambda run: {"train": {
        "dataset": run / "sample/dataset.csv", "resume_from": run / "train/checkpoint.json"}}),
    ("zero_epoch", "train", (), lambda run: {"train": {
        "dataset": run / "sample/dataset.csv", "epochs": 0}}),
    ("simulate", "simulate", (), lambda run: {"simulate": {
        "checkpoint": run / "train/checkpoint.json"}}),
    ("verify", "verify", (), lambda run: {"verify": {
        "checkpoint": run / "train/checkpoint.json", "dataset": run / "sample/dataset.csv",
        "checks": ["decrease", "decay", "quad", "certificate"]}}),
    ("ablated", "verify", ("--ablate-projection",), lambda run: {"verify": {
        "checkpoint": run / "train/checkpoint.json", "dataset": run / "sample/dataset.csv",
        "checks": ["decrease", "decay", "quad", "certificate"]}}),
    ("portrait", "portrait", (), lambda run: {"portrait": {
        "checkpoint": run / "train/checkpoint.json"}}),
)


# run with a tree's src/ on PYTHONPATH and a checkpoint path as argv[1]
CHECKPOINT_VALUES = """
import hashlib, json, sys
from stabledyn.training import load_checkpoint

def digest(vec):
    return None if vec is None else hashlib.sha256(vec.astype("<f8").tobytes()).hexdigest()

model, system, opt = load_checkpoint(sys.argv[1])
print(json.dumps({
    "params": digest(model.get_params()),
    "m": digest(opt.m if opt else None), "v": digest(opt.v if opt else None),
    "step": opt.step if opt else None, "epochs": opt.epochs if opt else None,
    "mode": model.mode, "hyper": model.hyper.to_dict(), "system": system,
    "dims": {name: net.dims for name, net in model.nets.items()},
}, indent=1))
"""


def _overlay(config, overrides):
    out = dict(config)
    for section, entries in overrides.items():
        out[section] = {**config.get(section, {}),
                        **{key: str(v) if isinstance(v, Path) else v
                           for key, v in entries.items()}}
    return out


def run_pipeline(src, config, run, threads):
    """Every step of ``config`` on the tree ``src``, written under ``run``."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               OPENBLAS_NUM_THREADS=str(threads))
    for step, command, flags, overrides in STEPS:
        out = run / step
        if step == "resume":  # resume into a copy, so train's own files stay
            shutil.copytree(run / "train", out)
        out.mkdir(parents=True, exist_ok=True)
        cfg = run / f"{step}.config.json"
        cfg.write_text(json.dumps(_overlay(config, overrides(run))))
        done = subprocess.run(
            [sys.executable, "-m", "stabledyn.cli", command, "--config", str(cfg),
             "--out", str(out), *flags], env=env, capture_output=True)
        (out / "exit_code").write_text(f"{done.returncode}\n")
        (out / "stdout").write_bytes(done.stdout)
        (out / "stderr").write_bytes(done.stderr)
        for checkpoint in out.rglob("checkpoint.json"):
            values = subprocess.run([sys.executable, "-c", CHECKPOINT_VALUES, str(checkpoint)],
                                    env=env, capture_output=True)
            (checkpoint.parent / "checkpoint.values").write_bytes(values.stdout + values.stderr)


def _comparable(path):
    if path.name != "verify.json":
        return path.read_bytes()
    report = json.loads(path.read_text())
    for entry in report.get("checks", {}).values():
        entry.pop("seconds", None)
    return report


def compare(old, new):
    """Relative paths of the files that differ or exist on one side only,
    and how many files matched."""
    files = {p.relative_to(root) for root in (old, new) for p in root.rglob("*")
             if p.is_file()}
    differ = sorted(rel for rel in files
                    if not ((old / rel).is_file() and (new / rel).is_file())
                    or _comparable(old / rel) != _comparable(new / rel))
    return differ, len(files) - len(differ)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="the reference tree's src/ directory")
    parser.add_argument("new", help="the changed tree's src/ directory")
    parser.add_argument("configs", nargs="+", help="run config JSON files")
    parser.add_argument("--threads", type=int, default=1, help="OPENBLAS_NUM_THREADS")
    parser.add_argument("--work", default="compare_outputs",
                        help="scratch directory, emptied first")
    args = parser.parse_args(argv)
    work = Path(args.work).resolve()
    shutil.rmtree(work, ignore_errors=True)
    failed = False
    for path in args.configs:
        config = json.loads(Path(path).read_text())
        name = Path(path).stem
        for side in ("old", "new"):
            run = work / "run"  # one path for both trees
            run.mkdir(parents=True)
            run_pipeline(getattr(args, side), config, run, args.threads)
            (work / side).mkdir(exist_ok=True)
            run.rename(work / side / name)
        differ, same = compare(work / "old" / name, work / "new" / name)
        codes = {step: (work / "old" / name / step / "exit_code").read_text().strip()
                 for step, *_ in STEPS}
        print(f"{name}: {same} files identical, {len(differ)} differ; exit codes {codes}")
        for rel in differ:
            print(f"  differs: {rel}")
        failed |= bool(differ)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
