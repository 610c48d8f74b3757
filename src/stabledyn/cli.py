"""Command-line front end: sample, train, simulate, portrait, verify.

Every command is driven by a JSON config (all keys optional, published
hyperparameters as defaults) plus a few overriding flags, and is fully
reproducible from config + seed.  The resolved config is embedded in every
artifact the command writes.

Exit codes: 0 success, 1 validation/config error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import sim, systems, training, verify
from .diffcore import GradientError
from .models import DEFAULT_DEPTH, DEFAULT_WIDTHS, Hyper, StableDynamicsModel
from .systems import DomainError


class ConfigError(ValueError):
    pass


class RunConfig(dict):
    """A resolved run config, with the ``model`` keys the config itself set
    in ``model_keys``: the defaults filled in for the rest must not be held
    against a checkpoint."""

    model_keys = frozenset()


EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3

_HYPER_KEYS = {"alpha", "beta", "lambda", "eps_pd", "eps_proj", "d",
               "u_lim", "x_lb", "x_ub", "v_cap"}
_MODEL_KEYS = {"mode", "widths", "depth"}
_TRAIN_KEYS = {"lr", "batch_size", "epochs", "clip_norm", "holdout",
               "dataset", "resume_from"}
_SAMPLE_KEYS = {"n"}
_SIM_KEYS = {"k", "T", "h", "checkpoint"}
_PORTRAIT_KEYS = {"resolution", "checkpoint"}
_VERIFY_KEYS = {"checkpoint", "dataset", "n_samples", "r", "rollouts",
                "ablate_projection", "checks"}
_TOP_KEYS = {"name", "system", "seed", "hyper", "model", "train", "sample",
             "simulate", "portrait", "verify"}
_ALL_CHECKS = ("decrease", "decay", "quad", "certificate")
# (section, key, smallest allowed value) for integer settings, and the
# float settings that must be positive and finite when set
_MINIMA = (("verify", "n_samples", 1), ("verify", "rollouts", 1),
           ("portrait", "resolution", 2), ("simulate", "k", 1), ("sample", "n", 1))
_POSITIVE = (("simulate", "T"), ("simulate", "h"), ("verify", "r"))
# settings kept as given that must be real numbers; beta and r may be null
_REAL_KEYS = (("hyper", "alpha"), ("hyper", "beta"), ("hyper", "lambda"),
              ("hyper", "eps_pd"), ("hyper", "eps_proj"), ("hyper", "d"),
              ("hyper", "v_cap"), ("train", "lr"), ("train", "clip_norm"),
              ("train", "holdout"), ("verify", "r"))


def _check_keys(section, allowed, where):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown config key(s) in {where}: {sorted(unknown)}")


def _coerce(value, name, kind=int):
    """``kind(value)``, or a ConfigError naming the setting.  Only real
    numbers are converted: strings and booleans are refused, and so are
    non-integral numbers for an int setting."""
    try:
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or (kind is int and isinstance(value, float) and not value.is_integer())):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}") from None


def _widths(widths):
    """``model.widths`` with known network names and integer widths >= 1."""
    if widths is None:
        return None
    if not isinstance(widths, dict):
        raise ConfigError(f"model.widths must be an object, got {widths!r}")
    out = {}
    for net, value in widths.items():
        name = f"model.widths.{net}"
        if net not in DEFAULT_WIDTHS:
            raise ConfigError(f"{name}: unknown network; choose from {sorted(DEFAULT_WIDTHS)}")
        out[net] = _coerce(value, name)
        if out[net] < 1:
            raise ConfigError(f"{name} must be at least 1, got {out[net]}")
    return out


def load_config(path=None, overrides=None):
    """Parse, validate, and default-fill a run config."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "config root")
    for key, allowed in (("hyper", _HYPER_KEYS), ("model", _MODEL_KEYS),
                         ("train", _TRAIN_KEYS), ("sample", _SAMPLE_KEYS),
                         ("simulate", _SIM_KEYS), ("portrait", _PORTRAIT_KEYS),
                         ("verify", _VERIFY_KEYS)):
        section = raw.get(key, {})
        if not isinstance(section, dict):
            raise ConfigError(f"config section {key!r} must be an object")
        _check_keys(section, allowed, f"section {key!r}")
        raw[key] = section
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value

    for section, key in _REAL_KEYS:
        value = raw[section].get(key)
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if key in raw[section] and not real and not (value is None and key in ("beta", "r")):
            raise ConfigError(f"{section}.{key} must be a number, got {value!r}")

    def number(section, key, default, kind=int):
        """raw[section][key] (top level when section is None) or ``default``,
        coerced by ``kind``."""
        value = (raw if section is None else raw[section]).get(key, default)
        return _coerce(value, key if section is None else f"{section}.{key}", kind)

    train = training.TrainConfig()  # the training defaults live there
    cfg = RunConfig({
        "name": raw.get("name", "run"),
        "system": raw.get("system", "vdp"),
        "seed": number(None, "seed", 0),
        "hyper": raw["hyper"],
        "model": {"mode": raw["model"].get("mode", "general"),
                  "widths": _widths(raw["model"].get("widths")),
                  "depth": number("model", "depth", DEFAULT_DEPTH)},
        "train": {"lr": raw["train"].get("lr", train.lr),
                  "batch_size": number("train", "batch_size", train.batch_size),
                  "epochs": number("train", "epochs", train.epochs),
                  "clip_norm": raw["train"].get("clip_norm", train.clip_norm),
                  "holdout": raw["train"].get("holdout", train.holdout),
                  "dataset": raw["train"].get("dataset"),
                  "resume_from": raw["train"].get("resume_from")},
        "sample": {"n": number("sample", "n", 100000)},
        "simulate": {"k": number("simulate", "k", 5),
                     "T": number("simulate", "T", 10.0, float),
                     "h": number("simulate", "h", 1e-3, float),
                     "checkpoint": raw["simulate"].get("checkpoint")},
        "portrait": {"resolution": number("portrait", "resolution", 41),
                     "checkpoint": raw["portrait"].get("checkpoint")},
        "verify": {"checkpoint": raw["verify"].get("checkpoint"),
                   "dataset": raw["verify"].get("dataset"),
                   "n_samples": number("verify", "n_samples", 100000),
                   "r": raw["verify"].get("r"),
                   "rollouts": number("verify", "rollouts", 5),
                   "ablate_projection": raw["verify"].get("ablate_projection", False),
                   "checks": raw["verify"].get("checks", list(_ALL_CHECKS))},
    })
    cfg.model_keys = frozenset(raw["model"])
    for key, kind, what in (("ablate_projection", bool, "true or false"),
                            ("checks", list, "a list of check names")):
        if not isinstance(cfg["verify"][key], kind):
            raise ConfigError(f"verify.{key} must be {what}, got {cfg['verify'][key]!r}")
    for section, key, least in _MINIMA:
        if cfg[section][key] < least:
            raise ConfigError(f"{section}.{key} must be at least {least}, "
                              f"got {cfg[section][key]}")
    for section, key in _POSITIVE:
        value = cfg[section][key]
        if value is not None and not 0 < value < math.inf:
            raise ConfigError(f"{section}.{key} must be positive and finite, got {value}")
    try:  # TrainConfig owns the training ranges
        training.TrainConfig(**{key: cfg["train"][key] for key in
                                ("lr", "batch_size", "epochs", "clip_norm", "holdout")})
    except ValueError as exc:
        raise ConfigError(f"train.{exc}") from None
    if cfg["system"] not in systems.system_names():
        raise ConfigError(f"unknown system {cfg['system']!r}")
    if cfg["model"]["mode"] not in ("general", "affine"):
        raise ConfigError(f"model.mode must be 'general' or 'affine', "
                          f"got {cfg['model']['mode']!r}")
    for check in cfg["verify"]["checks"]:
        if check not in _ALL_CHECKS:
            raise ConfigError(f"unknown verify check {check!r}")
    return cfg


def resolve_hyper(cfg):
    """The run's Hyper: the system's boxes and Hyper's defaults under the
    config's ``hyper`` section."""
    try:
        return Hyper.for_system(systems.get_system(cfg["system"]), **cfg["hyper"])
    except ValueError as exc:
        raise ConfigError(f"invalid hyperparameters: {exc}") from exc


def _sub_seed(seed, label):
    labels = {"dataset": 1, "model": 2, "train": 3, "simulate": 4, "verify": 5}
    return np.random.SeedSequence([int(seed), labels[label]])


def _embed(cfg):
    """The resolved config, paths included, as one line of sorted-key JSON."""
    return json.dumps(cfg, sort_keys=True)


def _outpath(args, cfg):
    return Path(args.out) if args.out else Path("runs") / cfg["name"]


def _outdir(args, cfg):
    out = _outpath(args, cfg)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w") as fh:
        json.dump(cfg, fh, indent=2)
        fh.write("\n")
    return out


def _check_model_section(cfg, model, checkpoint):
    """The ``model`` keys the config sets must describe the checkpoint's
    networks.  A width for a network the checkpoint's mode lacks is ignored,
    as :meth:`StableDynamicsModel.initialize` ignores it."""
    where = f"checkpoint {checkpoint}"
    mode, depth = cfg["model"]["mode"], cfg["model"]["depth"]
    if "mode" in cfg.model_keys and mode != model.mode:
        raise ConfigError(f"model.mode = {mode!r} differs from {model.mode!r} in {where}")
    stored = sorted({len(net.dims) - 2 for net in model.nets.values()})
    if "depth" in cfg.model_keys and stored != [depth]:
        raise ConfigError(f"model.depth = {depth} differs from {stored} in {where}")
    for net, width in (cfg["model"]["widths"] or {}).items():
        if net not in model.nets:  # a network of the other mode, unused here too
            continue
        stored = sorted(set(model.nets[net].dims[1:-1]))
        if stored != [width]:
            raise ConfigError(f"model.widths.{net} = {width} differs from {stored} in {where}")


def _load_or_init_model(cfg, checkpoint):
    """The checkpoint's model and optimizer state, or a new model from the
    config's seed and Hyper with no optimizer state.

    A checkpoint carries the Hyper its model was trained under, and every
    command that loads one works with ``model.hyper``.  A key the config's
    ``hyper`` or ``model`` section sets must agree with the checkpoint's
    value, and so must the run's system where the checkpoint records one.
    """
    hyper = resolve_hyper(cfg)
    if not checkpoint:
        seed = _sub_seed(cfg["seed"], "model")
        return StableDynamicsModel.initialize(
            hyper, seed=seed, mode=cfg["model"]["mode"],
            widths=cfg["model"]["widths"], depth=cfg["model"]["depth"]), None
    model, system, optimizer = training.load_checkpoint(checkpoint, return_state=True)
    if system is not None and system != cfg["system"]:
        raise ConfigError(f"system = {cfg['system']!r} differs from {system!r} "
                          f"in checkpoint {checkpoint}")
    wanted, stored = hyper.to_dict(), model.hyper.to_dict()
    for key in sorted(cfg["hyper"]):
        if wanted[key] != stored[key]:
            raise ConfigError(f"hyper.{key} = {wanted[key]!r} differs from "
                              f"{stored[key]!r} in checkpoint {checkpoint}")
    _check_model_section(cfg, model, checkpoint)
    return model, optimizer


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_sample(args):
    cfg = load_config(args.config, {"seed": args.seed, "system": args.system})
    hyper = resolve_hyper(cfg)
    system = systems.get_system(cfg["system"])
    out = _outdir(args, cfg)
    seed = int(_sub_seed(cfg["seed"], "dataset").generate_state(1)[0])
    dataset = training.sample_dataset(system, hyper, cfg["sample"]["n"], seed)
    training.export_dataset_csv(dataset, out / "dataset.csv",
                                meta_path=out / "dataset.meta.json",
                                comment="# config: " + _embed(cfg))
    print(f"wrote {len(dataset)} samples to {out / 'dataset.csv'}")
    return EXIT_OK


LOSS_COLUMNS = "epoch,train_loss,holdout_loss,grad_norm_max,clip_frac"


def cmd_train(args):
    cfg = load_config(args.config, {"seed": args.seed, "system": args.system})
    system = systems.get_system(cfg["system"])
    tc = cfg["train"]
    model, optimizer = _load_or_init_model(cfg, tc["resume_from"])
    losses_path = _outpath(args, cfg) / "losses.csv"
    existing, offset = "", 0
    if tc["resume_from"] and losses_path.exists():
        existing = losses_path.read_text()
        lines = [ln for ln in existing.splitlines() if ln and not ln.startswith("#")]
        header = lines[0] if lines else None
        if header != LOSS_COLUMNS:  # never append rows under other columns
            raise ConfigError(f"{losses_path} has columns {header!r}, not "
                              f"{LOSS_COLUMNS!r}; resume into another output directory")
        offset = len(lines) - 1
    if tc["resume_from"] and optimizer is None:
        print(f"{tc['resume_from']} holds no optimizer state; Adam starts at step 0")
    out = _outdir(args, cfg)

    if tc["dataset"]:
        dataset = training.import_dataset_csv(tc["dataset"])
    else:
        seed = int(_sub_seed(cfg["seed"], "dataset").generate_state(1)[0])
        dataset = training.sample_dataset(system, model.hyper, cfg["sample"]["n"], seed)

    config = training.TrainConfig(
        lr=tc["lr"], batch_size=tc["batch_size"], epochs=tc["epochs"],
        clip_norm=tc["clip_norm"], holdout=tc["holdout"],
        seed=int(_sub_seed(cfg["seed"], "train").generate_state(1)[0]))
    result = training.train(model, dataset, config, optimizer)

    training.save_checkpoint(model, out / "checkpoint.json", system=cfg["system"],
                             optimizer=result.optimizer)
    with open(losses_path, "w") as fh:
        if existing:
            fh.write(existing)
        else:
            fh.write("# config: " + _embed(cfg) + "\n")
            fh.write(LOSS_COLUMNS + "\n")
        for i, row in enumerate(zip(result.train_losses, result.holdout_losses,
                                    result.grad_norm_max, result.clip_frac)):
            fh.write(f"{offset + i}," + ",".join(f"{v:.17g}" for v in row) + "\n")
    final = result.train_losses[-1] if result.train_losses else result.initial_loss
    print(f"trained {config.epochs} epochs; loss {result.initial_loss:.4g} -> {final:.4g}")
    print(f"checkpoint: {out / 'checkpoint.json'}")
    return EXIT_OK


def cmd_simulate(args):
    cfg = load_config(args.config, {"seed": args.seed, "system": args.system})
    system = systems.get_system(cfg["system"])
    sc = cfg["simulate"]
    if not sc["checkpoint"]:
        raise ConfigError("simulate requires simulate.checkpoint in the config")
    model, _ = _load_or_init_model(cfg, sc["checkpoint"])
    out = _outdir(args, cfg)

    rng = np.random.default_rng(_sub_seed(cfg["seed"], "simulate"))
    starts = rng.uniform(model.hyper.x_lb, model.hyper.x_ub, size=(sc["k"], model.n))
    comment = "# config: " + _embed(cfg)
    for name, plant in (("true", system), ("learned", model)):
        trajs = sim.rollout_many(plant, model, starts, T=sc["T"], h=sc["h"])
        for i, traj in enumerate(trajs):
            traj.to_csv(out / f"traj_{name}_{i}.csv", comment=comment)
    print(f"wrote {2 * sc['k']} trajectories to {out}")
    return EXIT_OK


def cmd_portrait(args):
    cfg = load_config(args.config, {"seed": args.seed, "system": args.system})
    pc = cfg["portrait"]
    model, _ = _load_or_init_model(cfg, pc["checkpoint"])
    out = _outdir(args, cfg)
    comment = "# config: " + _embed(cfg)
    grids = sim.export_field(model, ("fhat", "fstar", "gv", "v"), pc["resolution"])
    for kind, grid in grids.items():
        grid.to_csv(out / f"field_{kind}.csv", comment=comment)
    print(f"wrote 4 field grids at resolution {pc['resolution']} to {out}")
    return EXIT_OK


def cmd_verify(args):
    cfg = load_config(args.config, {"seed": args.seed, "system": args.system})
    if args.ablate_projection:
        cfg["verify"]["ablate_projection"] = True
    system = systems.get_system(cfg["system"])
    vc = cfg["verify"]
    model, _ = _load_or_init_model(cfg, vc["checkpoint"])
    hyper = model.hyper
    out = _outdir(args, cfg)
    seed_root = _sub_seed(cfg["seed"], "verify")
    seeds = seed_root.generate_state(4)
    ablate = vc["ablate_projection"]
    report = {"config": cfg, "checks": {}, "passed": True}

    def record(name, entry, samples, t0):
        """Add a check's entry with its wall time and sampled points."""
        entry.update(seconds=time.perf_counter() - t0, samples=samples)
        report["checks"][name] = entry
        report["passed"] &= entry["passed"]

    if "decrease" in vc["checks"]:
        t0 = time.perf_counter()
        dec = verify.check_decrease(model, vc["n_samples"], int(seeds[0]),
                                    ablate_projection=ablate)
        ok = dec.max_residual <= 1e-9
        record("decrease", {"report": asdict(dec), "passed": ok}, vc["n_samples"], t0)

    if "decay" in vc["checks"]:
        t0 = time.perf_counter()
        rng = np.random.default_rng(int(seeds[1]))
        starts = rng.uniform(hyper.x_lb, hyper.x_ub, size=(vc["rollouts"], model.n))
        worst = None
        ok = True
        for traj in sim.rollout_many(model, model, starts):
            rep = verify.decay_bound_check(traj, hyper)
            ok &= rep.passed
            if worst is None or rep.worst_v_ratio > worst["worst_v_ratio"]:
                worst = asdict(rep)
        record("decay", {"report": worst, "passed": bool(ok),
                         "rollouts": vc["rollouts"]}, vc["rollouts"], t0)

    if "quad" in vc["checks"]:
        t0 = time.perf_counter()
        r1 = 0.1 * float(np.linalg.norm(hyper.x_ub))
        r2 = float(np.linalg.norm(hyper.x_ub))
        quad = verify.estimate_quadratic_ratio(model, r1, r2, vc["n_samples"],
                                               int(seeds[2]))
        ok = quad.M >= quad.c1
        record("quad", {"report": asdict(quad), "passed": ok}, vc["n_samples"], t0)

    if "certificate" in vc["checks"]:
        t0 = time.perf_counter()
        if vc["dataset"]:
            dataset = training.import_dataset_csv(vc["dataset"])
            r = vc["r"] if vc["r"] is not None else verify.default_radius(hyper)
            cert = verify.certificate(model, system, dataset, r,
                                      vc["n_samples"], int(seeds[3]))
            import scipy  # loaded by the certificate, which builds a cKDTree

            # completion is the gate; whether the bound holds is reported only
            record("certificate", {"report": asdict(cert), "passed": True,
                                   "scipy": scipy.__version__}, vc["n_samples"], t0)
        else:
            record("certificate", {"report": None, "passed": True,
                                   "skipped": "no dataset configured"}, 0, t0)
    report["numpy"] = np.__version__

    with open(out / "verify.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for name, entry in report["checks"].items():
        status = "pass" if entry["passed"] else "FAIL"
        print(f"verify {name}: {status}")
    print(f"report: {out / 'verify.json'}")
    return EXIT_OK if report["passed"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="stabledyn",
        description="Learn dynamics models with built-in closed-loop stability, "
                    "then simulate and audit them.",
        exit_on_error=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("sample", cmd_sample), ("train", cmd_train),
                     ("simulate", cmd_simulate), ("portrait", cmd_portrait),
                     ("verify", cmd_verify)):
        p = sub.add_parser(name, exit_on_error=False)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--system", default=None,
                       choices=systems.system_names(), help="benchmark system")
        if name == "verify":
            p.add_argument("--ablate-projection", action="store_true",
                           help="negative control: audit the raw nominal model")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:  # --help or argparse-internal exits
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (training.CheckpointError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (training.TrainingDivergedError, GradientError, DomainError,
            FloatingPointError, sim.DimensionError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
