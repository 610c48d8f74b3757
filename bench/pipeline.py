"""One workload run: set-up, then closed-loop passes of the train, rollout and
audit stages through ``stabledyn.cli.main``, each command followed by the
checks of its outputs.

A pass runs every command once, in order, each only after the previous one
returned.  Stage wall times cover the commands alone; the output checks run
between them, untimed and untraced.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stabledyn import cli, training
from stabledyn.models import Hyper, StableDynamicsModel
from stabledyn.sim import ESCAPE_FACTOR
from stabledyn.systems import get_system

SYSTEM = "vdp"
STAGES = ("train", "rollout", "audit")
EXIT_OK, EXIT_VERIFY = cli.EXIT_OK, cli.EXIT_VERIFY
DECREASE_TOL = 1e-9  # the gate cmd_verify applies to the projected model
DECAY_STEPS = 10000  # the decay check integrates at rollout_many's T=10, h=1e-3
HOLDOUT = training.TrainConfig().holdout  # the CLI leaves the default in place


@dataclass(frozen=True)
class Size:
    train_n: int        # dataset rows sampled in-process by `train`
    train_epochs: int
    warmup_n: int
    sim_T: float
    decay_rollouts: int  # the decay check always runs at the CLI's T=10, h=1e-3
    audit_n: int        # rows written by `sample`, and samples per verify check
    portrait_res: int
    setup_reps: int = 3
    batch: int = 256
    starts: int = 5


SIZES = {
    "full": Size(train_n=40000, train_epochs=8, warmup_n=4096, sim_T=10.0,
                 decay_rollouts=5, audit_n=100000, portrait_res=41),
    "smoke": Size(train_n=2048, train_epochs=1, warmup_n=1024, sim_T=0.2,
                  decay_rollouts=1, audit_n=2000, portrait_res=9),
}

# model rows evaluated per requested sample by each audit check: decrease 1;
# quad 2 (annulus cube and box); certificate 5 (dataset error, coverage,
# gradient bound and both Lipschitz points)
AUDIT_EVALS = {"decrease": 1, "quad": 2, "certificate": 5}
FIELD_KINDS = ("fhat", "fstar", "gv", "v")  # the grids `portrait` writes


@dataclass
class Op:
    """A CLI invocation or an output check."""

    name: str
    ok: bool
    detail: str = ""
    verdict: bool = False  # a verify exit 3 whose report names the failed check


@dataclass
class Tally:
    """Operations, stage wall times and work done in a run."""

    ops: list = field(default_factory=list)
    stage_s: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    train_samples: int = 0
    row_steps: int = 0
    audit_rows: int = 0
    final_losses: list = field(default_factory=list)
    decay_ratios: list = field(default_factory=list)
    train_artifact_bytes: int = 0

    def check(self, name, ok, detail=""):
        self.ops.append(Op(name, bool(ok), detail))

    @property
    def failed(self):
        return [op for op in self.ops if not op.ok]

    @property
    def correct(self):
        """Every failure is a verification verdict, not a wrong output."""
        return all(op.verdict for op in self.failed)


class Workload:
    """One model mode: configs and checkpoint made from the seed, and the pass
    of commands with their output checks."""

    def __init__(self, mode, seed, size, root):
        self.mode = mode
        self.seed = seed
        self.size = size
        self.root = Path(root)
        self.hyper = Hyper.for_system(get_system(SYSTEM))
        self.ckpt = self.root / "model.json"
        self.model = None

    # -- set-up --------------------------------------------------------------

    def _config(self, name, **sections):
        cfg = {"name": name, "system": SYSTEM, "seed": self.seed,
               "model": {"mode": self.mode}}
        cfg.update(sections)
        path = self.root / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1) + "\n")
        return str(path)

    def setup(self):
        """Fresh run directory, configs and checkpoint from the seed, and one
        untimed warm-up call that reaches BLAS."""
        if self.root.exists():
            shutil.rmtree(self.root)
        self.root.mkdir(parents=True)
        sz = self.size
        ckpt = str(self.ckpt)
        self.cfg = {
            "warmup": self._config("warmup", sample={"n": sz.warmup_n},
                                   train={"epochs": 1, "batch_size": sz.batch}),
            "train": self._config("train", sample={"n": sz.train_n},
                                  train={"epochs": sz.train_epochs,
                                         "batch_size": sz.batch}),
            "rollout": self._config("rollout",
                                    simulate={"k": sz.starts, "T": sz.sim_T,
                                              "h": 1e-3, "checkpoint": ckpt},
                                    verify={"checkpoint": ckpt, "checks": ["decay"],
                                            "rollouts": sz.decay_rollouts}),
            "sample": self._config("sample", sample={"n": sz.audit_n}),
            "audit": self._config("audit", verify={
                "checkpoint": ckpt, "checks": list(AUDIT_EVALS),
                "dataset": str(self.root / "sample" / "dataset.csv"),
                "n_samples": sz.audit_n}),
            "ablated": self._config("ablated", verify={
                "checkpoint": ckpt, "checks": ["decrease"], "n_samples": sz.audit_n}),
            "portrait": self._config("portrait", portrait={
                "checkpoint": ckpt, "resolution": sz.portrait_res}),
        }
        model_seed = np.random.SeedSequence([self.seed, 2])
        self.model = StableDynamicsModel.initialize(self.hyper, seed=model_seed,
                                                    mode=self.mode)
        training.save_checkpoint(self.model, self.ckpt)
        code = _cli(["train", "--config", self.cfg["warmup"],
                     "--out", str(self.root / "warmup")])
        if code != EXIT_OK:
            raise RuntimeError(f"warm-up train exited {code}")

    # -- one pass --------------------------------------------------------------

    def _run(self, tally, stage, label, argv, expected, tracer):
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        code = _cli(argv)
        tally.stage_s[stage] += time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        tally.ops.append(Op(f"cli {label}", code == expected,
                            f"exit {code}, expected {expected}"))
        return code

    def steps(self):
        """The pass, in order, as (stage, label, argv, expected exit, output
        check)."""
        def argv(command, config, out, *flags):
            return [command, "--config", self.cfg[config], "--out",
                    str(self.root / out), *flags]

        return [
            # train: SGD on an in-process dataset, holdout loss, artifacts
            ("train", "train", argv("train", "train", "train"), EXIT_OK, self._after_train),
            # rollout: true and learned plant from k starts, then the decay check
            ("rollout", "simulate", argv("simulate", "rollout", "simulate"), EXIT_OK,
             self._after_simulate),
            ("rollout", "verify decay", argv("verify", "rollout", "decay"), EXIT_OK,
             self._after_decay),
            # audit: a dataset written and read back, sampled audits, the
            # negative control, field grids
            ("audit", "sample", argv("sample", "sample", "sample"), EXIT_OK,
             self._after_sample),
            ("audit", "verify audit", argv("verify", "audit", "audit"), EXIT_OK,
             self._after_audit),
            ("audit", "verify ablated",
             argv("verify", "ablated", "ablated", "--ablate-projection"), EXIT_VERIFY,
             self._after_ablated),
            ("audit", "portrait", argv("portrait", "portrait", "portrait"), EXIT_OK,
             self._after_portrait),
        ]

    def run_pass(self, tally, tracer=None):
        for stage, label, args, expected, after in self.steps():
            code = self._run(tally, stage, label, args, expected, tracer)
            after(tally, Path(args[4]), code)

    # -- output checks and work accounting, one per step -------------------------

    def _after_train(self, tally, out, code):
        sz = self.size
        tally.train_samples += sz.train_epochs * (sz.train_n - int(round(HOLDOUT * sz.train_n)))
        path = out / "losses.csv"
        if not path.exists():
            tally.check("train losses finite", False, "losses.csv not written")
            return
        lines = [ln for ln in path.read_text().splitlines()
                 if ln and not ln.startswith(("#", "epoch"))]
        losses = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines])
        ok = len(losses) == sz.train_epochs and np.all(np.isfinite(losses))
        tally.check("train losses finite", ok, f"{len(losses)} of {sz.train_epochs} epochs")
        if len(losses):
            tally.final_losses.append(float(losses[-1, 0]))
        tally.train_artifact_bytes = sum(p.stat().st_size for p in out.iterdir())

    def _after_simulate(self, tally, out, code):
        """Each trajectory is finite and full length, or was stopped by the
        escape guard."""
        steps = int(round(self.size.sim_T / 1e-3))
        limit = ESCAPE_FACTOR * float(np.linalg.norm(self.hyper.x_ub - self.hyper.x_lb))
        for plant in ("true", "learned"):
            for i in range(self.size.starts):
                path = out / f"traj_{plant}_{i}.csv"
                if not path.exists():
                    tally.check(f"trajectory {plant} {i}", False, "not written")
                    continue
                data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)
                tally.row_steps += len(data) - 1
                finite = bool(np.all(np.isfinite(data)))
                full = len(data) == steps + 1
                escaped = finite and data[-1, -1] > limit
                tally.check(f"trajectory {plant} {i}", finite and (full or escaped),
                            f"{len(data)} of {steps + 1} rows, finite={finite}")

    def _after_decay(self, tally, out, code):
        tally.row_steps += self.size.decay_rollouts * DECAY_STEPS
        report = self._report(tally, "decay", out, code)
        if report is not None:
            ratio = report["checks"]["decay"]["report"]["worst_v_ratio"]
            tally.decay_ratios.append(ratio)
            tally.check("decay ratio finite", math.isfinite(ratio), f"{ratio}")

    def _after_sample(self, tally, out, code):
        path = out / "dataset.csv"
        rows = _csv_rows(path) if path.exists() else 0
        tally.check("sample csv rows", rows == self.size.audit_n,
                    f"{rows} of {self.size.audit_n}")

    def _after_audit(self, tally, out, code):
        n = self.size.audit_n
        tally.audit_rows += sum(AUDIT_EVALS.values()) * n
        report = self._report(tally, "audit", out, code)
        if report is None:
            return
        checks = report["checks"]
        resid = checks["decrease"]["report"]["max_residual"]
        tally.check("decrease residual", resid <= DECREASE_TOL, f"{resid:.3e}")
        tally.check("quad passed", checks["quad"]["passed"])
        rows = (checks["certificate"]["report"] or {}).get("n_data")
        tally.check("certificate csv read back", rows == n, f"{rows} of {n}")

    def _after_ablated(self, tally, out, code):
        tally.audit_rows += AUDIT_EVALS["decrease"] * self.size.audit_n
        report = self._report(tally, "ablated", out, code)
        if report is not None:
            resid = report["checks"]["decrease"]["report"]["max_residual"]
            tally.check("ablated control violates decrease", resid > DECREASE_TOL,
                        f"{resid:.3e}")

    def _after_portrait(self, tally, out, code):
        res = self.size.portrait_res
        tally.audit_rows += len(FIELD_KINDS) * res ** 2
        for kind in FIELD_KINDS:
            path = out / f"field_{kind}.csv"
            data = (np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)
                    if path.exists() else np.empty((0, 0)))
            ok = len(data) == res ** 2 and np.all(np.isfinite(data))
            tally.check(f"portrait {kind} grid", ok, f"{len(data)} rows")

    def _report(self, tally, label, out, code):
        """verify.json exists and its verdict matches the exit code.  A
        failing verdict makes the command's exit 3 a verdict, not an error."""
        path = out / "verify.json"
        if not path.exists():
            tally.check(f"verify {label} report", False, "no verify.json")
            return None
        report = json.loads(path.read_text())
        agrees = report["passed"] == (code == EXIT_OK) and code in (EXIT_OK, EXIT_VERIFY)
        tally.check(f"verify {label} report matches exit", agrees,
                    f"passed={report['passed']}, exit {code}")
        if agrees and code == EXIT_VERIFY:
            failing = sorted(k for k, v in report["checks"].items() if not v["passed"])
            cli_op = tally.ops[-2]
            cli_op.verdict = True
            cli_op.detail += f"; failing checks: {', '.join(failing)}"
        return report


def _cli(argv):
    """One command; its progress lines go to stderr, keeping stdout for the
    benchmark's report."""
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


def _csv_rows(path):
    """Data rows of a CSV written with one comment line and one header line."""
    with open(path) as fh:
        return sum(1 for ln in fh if not ln.startswith("#")) - 1


def median_setup(workload, reps):
    """Median wall time of ``reps`` complete set-ups."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times
