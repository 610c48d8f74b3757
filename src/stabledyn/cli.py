"""Command-line front end: sample, train, simulate, portrait, verify.

Every command is driven by a JSON config (all keys optional, published
hyperparameters as defaults) plus a few overriding flags.  A run is
reproducible from config + seed at a fixed BLAS thread count: a trained
model also depends on the thread count, which no artifact records.  The
resolved config is embedded in every artifact the command writes, and goes
to the output directory's ``config.json`` once the command has finished, so
a command that fails leaves that file as it was.

Exit codes: 0 success, 1 validation/config error (bad arguments included),
2 numerical failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import sim, systems, training, verify
from .diffcore import GradientError
from .models import DEFAULT_DEPTH, NETWORKS, Hyper, StableDynamicsModel
from .systems import DomainError


class ConfigError(ValueError):
    pass


class RunConfig(dict):
    """A resolved run config.  ``model_keys`` holds the ``model`` keys the
    config itself set: the defaults filled in for the rest must not be held
    against a checkpoint.  ``trainer`` is the run's TrainConfig."""

    model_keys = frozenset()
    trainer = None


EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3

_ALL_CHECKS = ("decrease", "decay", "quad", "certificate")


# ---------------------------------------------------------------------------
# Config schema: each key's default and the rule that checks and resolves it
# ---------------------------------------------------------------------------

def _number(kind=None, least=-math.inf, positive=False, null=False):
    """A number, converted by ``kind`` (int or float) or kept as given: at
    least ``least``, positive and finite where ``positive``, null where
    ``null``.  Strings and booleans are refused, and so are non-integral
    numbers for an int."""
    def rule(value, name):
        if value is None and null:
            return None
        try:
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or (kind is int and isinstance(value, float) and not value.is_integer())):
                raise TypeError
            value = value if kind is None else kind(value)
        except (TypeError, ValueError, OverflowError):
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"{name} must be {what}, got {value!r}") from None
        if value < least:
            raise ConfigError(f"{name} must be at least {least}, got {value}")
        if positive and not 0 < value < math.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value}")
        return value
    return rule


def _typed(kind, what):
    def rule(value, name):
        if not isinstance(value, kind):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        return value
    return rule


def _choice(options):
    def rule(value, name):
        if value not in options:
            raise ConfigError(f"{name} must be one of {list(options)}, got {value!r}")
        return value
    return rule


def _checks(value, name):
    if not isinstance(value, list) or any(check not in _ALL_CHECKS for check in value):
        raise ConfigError(f"{name} must be a list of checks from {list(_ALL_CHECKS)}, "
                          f"got {value!r}")
    return list(value)


def _keyed(rules, null=False):
    """An object of known keys, each checked by its own rule and kept in the
    config's order (null where ``null``)."""
    def rule(value, name):
        if value is None and null:
            return None
        _check_keys(value, rules, name)
        return {key: rules[key](v, f"{name}.{key}") for key, v in value.items()}
    return rule


def _field_rule(field):
    """A dataclass field's type rule: an integer for an int, a number kept as
    given (null where the default is None) for a float.  The dataclass
    checks every other field and every range itself."""
    kind = getattr(field.type, "__name__", field.type)  # annotations may be strings
    if kind in ("int", "float"):
        return _number(int if kind == "int" else None, null=field.default is None)
    return lambda value, name: value


# Hyper's fields, with ``lam`` spelled "lambda"; only the keys the config
# sets are kept, and Hyper fills in the rest
_HYPER_RULES = {("lambda" if f.name == "lam" else f.name): _field_rule(f)
                for f in fields(Hyper)}
# TrainConfig's fields; its seed comes from the run's seed
_TRAIN_FIELDS = [f for f in fields(training.TrainConfig) if f.name != "seed"]

_PATH = (None, _typed((str, type(None)), "a string or null"))
_SCHEMA = {
    "name": ("run", _typed(str, "a string")),
    "system": ("vdp", _choice(systems.system_names())),
    "seed": (0, _number(int, 0)),
    "hyper": ({}, _keyed(_HYPER_RULES)),
    "model": {"mode": ("general", _choice(tuple(NETWORKS))),
              "widths": (None, _keyed({role.name: _number(int, 1)
                                       for roles in NETWORKS.values() for role in roles},
                                      null=True)),
              "depth": (DEFAULT_DEPTH, _number(int, 0))},
    "train": {**{f.name: (f.default, _field_rule(f)) for f in _TRAIN_FIELDS},
              "dataset": _PATH, "resume_from": _PATH},
    "sample": {"n": (100000, _number(int, 1))},
    "simulate": {"k": (5, _number(int, 1)),
                 "T": (10.0, _number(float, positive=True)),
                 "h": (1e-3, _number(float, positive=True)),
                 "checkpoint": _PATH},
    "portrait": {"resolution": (41, _number(int, 2)), "checkpoint": _PATH},
    "verify": {"checkpoint": _PATH, "dataset": _PATH,
               "n_samples": (100000, _number(int, 1)),
               "r": (None, _number(positive=True, null=True)),
               "rollouts": (5, _number(int, 1)),
               "ablate_projection": (False, _typed(bool, "true or false")),
               "checks": (list(_ALL_CHECKS), _checks)},
}


def _check_keys(section, allowed, where=None):
    """``section`` is an object whose keys are all ``allowed``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where or 'config root'} must be an object, got {section!r}")
    unknown = sorted(f"{where}.{key}" if where else key
                     for key in set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config key(s) {', '.join(unknown)}; "
                          f"choose from {sorted(allowed)}")


def _resolve(schema, raw, where=None):
    """``raw`` under ``schema``: each key's rule applied to its value or
    default, in schema order, and each section resolved in turn."""
    _check_keys(raw, schema, where)
    out = {}
    for key, entry in schema.items():
        name = f"{where}.{key}" if where else key
        if isinstance(entry, dict):
            out[key] = _resolve(entry, raw.get(key, {}), name)
        else:
            default, rule = entry
            out[key] = rule(raw.get(key, default), name)
    return out


def load_config(path=None, overrides=None):
    """Parse, validate, and default-fill a run config.

    ``overrides`` replace top-level keys of the file (None values are
    skipped) before any check runs.  A new key is added in one place: an
    entry of ``_SCHEMA`` with its default and rule, or a field of
    :class:`Hyper` (the ``hyper`` section) or :class:`training.TrainConfig`
    (the ``train`` section), which also own their ranges.
    """
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    raw.update((key, value) for key, value in (overrides or {}).items()
               if value is not None)
    cfg = RunConfig(_resolve(_SCHEMA, raw))
    cfg.model_keys = frozenset(raw.get("model", {}))
    seed = int(_sub_seed(cfg["seed"], "train").generate_state(1)[0])
    try:  # TrainConfig owns the training ranges
        cfg.trainer = training.TrainConfig(
            seed=seed, **{f.name: cfg["train"][f.name] for f in _TRAIN_FIELDS})
    except ValueError as exc:
        raise ConfigError(f"train.{exc}") from None
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
    model, system, optimizer = training.load_checkpoint(checkpoint)
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

def cmd_sample(cfg, system, out):
    hyper = resolve_hyper(cfg)
    seed = int(_sub_seed(cfg["seed"], "dataset").generate_state(1)[0])
    dataset = training.sample_dataset(system, hyper, cfg["sample"]["n"], seed)
    training.export_dataset_csv(dataset, out / "dataset.csv",
                                meta_path=out / "dataset.meta.json",
                                comment="# config: " + _embed(cfg))
    print(f"wrote {len(dataset)} samples to {out / 'dataset.csv'}")
    return EXIT_OK


LOSS_COLUMNS = "epoch,train_loss,holdout_loss,grad_norm_max,clip_frac"


def cmd_train(cfg, system, out):
    tc = cfg["train"]
    model, optimizer = _load_or_init_model(cfg, tc["resume_from"])
    losses_path = out / "losses.csv"
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

    if tc["dataset"]:
        dataset = training.import_dataset_csv(tc["dataset"])
    else:
        seed = int(_sub_seed(cfg["seed"], "dataset").generate_state(1)[0])
        dataset = training.sample_dataset(system, model.hyper, cfg["sample"]["n"], seed)

    result = training.train(model, dataset, cfg.trainer, optimizer)

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
    print(f"trained {cfg.trainer.epochs} epochs; loss {result.initial_loss:.4g} -> {final:.4g}")
    print(f"checkpoint: {out / 'checkpoint.json'}")
    return EXIT_OK


def cmd_simulate(cfg, system, out):
    sc = cfg["simulate"]
    if not sc["checkpoint"]:
        raise ConfigError("simulate requires simulate.checkpoint in the config")
    model, _ = _load_or_init_model(cfg, sc["checkpoint"])

    rng = np.random.default_rng(_sub_seed(cfg["seed"], "simulate"))
    starts = rng.uniform(model.hyper.x_lb, model.hyper.x_ub, size=(sc["k"], model.n))
    comment = "# config: " + _embed(cfg)
    for name, plant in (("true", system), ("learned", model)):
        trajs = sim.rollout_many(plant, model, starts, T=sc["T"], h=sc["h"])
        for i, traj in enumerate(trajs):
            traj.to_csv(out / f"traj_{name}_{i}.csv", comment=comment)
    print(f"wrote {2 * sc['k']} trajectories to {out}")
    return EXIT_OK


def cmd_portrait(cfg, system, out):
    pc = cfg["portrait"]
    model, _ = _load_or_init_model(cfg, pc["checkpoint"])
    comment = "# config: " + _embed(cfg)
    for kind, grid in sim.export_field(model, pc["resolution"]).items():
        grid.to_csv(out / f"field_{kind}.csv", comment=comment)
    print(f"wrote 4 field grids at resolution {pc['resolution']} to {out}")
    return EXIT_OK


def cmd_verify(cfg, system, out):
    vc = cfg["verify"]
    model, _ = _load_or_init_model(cfg, vc["checkpoint"])
    hyper = model.hyper
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
        p.set_defaults(fn=fn, ablate_projection=False)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:  # --help exits 0, argparse's usage errors 2
        return EXIT_OK if not exc.code else EXIT_CONFIG
    try:
        cfg = load_config(args.config, {"seed": args.seed, "system": args.system})
        if args.ablate_projection:
            cfg["verify"]["ablate_projection"] = True
        out = Path(args.out) if args.out else Path("runs") / cfg["name"]
        out.mkdir(parents=True, exist_ok=True)
        code = args.fn(cfg, systems.get_system(cfg["system"]), out)  # 0 or 3
        # written only now: a failed command leaves the directory's config.json
        # describing the run that made its other files
        with open(out / "config.json", "w") as fh:
            json.dump(cfg, fh, indent=2)
            fh.write("\n")
        return code
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
