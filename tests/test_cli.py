"""Exit codes of the command-line front end, driven through ``cli.main``."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stabledyn import cli, sim, systems, training, verify
from stabledyn.diffcore import GradientError
from stabledyn.models import Hyper, StableDynamicsModel

from conftest import fill_output_layer

TINY = {"name": "tiny", "seed": 0,
        "model": {"widths": {"gf": 8, "gu": 8, "gv": 8}},
        "sample": {"n": 200},
        "train": {"epochs": 1, "batch_size": 64},
        "verify": {"checks": ["decrease"], "n_samples": 2000}}


def run(tmp_path, command, config, *flags, out="out"):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return cli.main([command, "--config", str(cfg), "--out", str(tmp_path / out),
                     *flags])


def with_section(section, **entries):
    config = json.loads(json.dumps(TINY))
    config.setdefault(section, {}).update(entries)
    return config


@pytest.mark.parametrize("command", ["sample", "train", "verify"])
def test_success_exits_zero(tmp_path, command):
    # verify runs only the decrease check, on the projected model
    assert run(tmp_path, command, TINY) == cli.EXIT_OK


@pytest.mark.parametrize("key", ["bogus", "determinism"])
def test_unknown_train_key_exits_one(tmp_path, key):
    assert run(tmp_path, "train", with_section("train", **{key: True})) == cli.EXIT_CONFIG


@pytest.mark.parametrize("command, key, box", [
    ("portrait", "x_lb", {"x_lb": [-1.0] * 3, "x_ub": [1.0] * 3}),
    ("sample", "x_ub", {"x_ub": [1.0] * 3}),
    ("sample", "u_lim", {"u_lim": [5.0, 5.0]})], ids=["portrait-x_lb", "sample-x_ub",
                                                       "sample-u_lim"])
def test_box_of_wrong_length_exits_one(tmp_path, capsys, command, key, box):
    # vdp has two states and one control
    assert run(tmp_path, command, with_section("hyper", **box)) == cli.EXIT_CONFIG
    assert f"hyper.{key} has" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "verify"])
@pytest.mark.parametrize("text, fault", [
    ("x1,x2,u1,xdot1,xdot2\n", "no data rows"),
    ("x1,x2,u1,xdot1,xdot2\n0.1,0.2,0.3,0.4,0.5\n0.1,abc,0.3,0.4,0.5\n",
     "line 3: expected 5 finite numbers"),
    ("x1,x2,x3,u1,xdot1,xdot2,xdot3\n0.1,0.2,0.3,0.4,0.5,0.6,0.7\n",
     "3 state and 1 control columns where vdp has 2 and 1"),
    ("x1,x2,u1,xdot1,xdot2\n0.1,0.2,0.3,0.4,0.5\n0.1,inf,0.3,0.4,0.5\n",
     "line 3: expected 5 finite numbers, got '0.1,inf,0.3,0.4,0.5'"),
    ("x1,x2,u1,xdot1,xdot2\n0.1,0.2,0.3,0.4,0.5\n0.1,0.2,0.3,0.4\n",
     "line 3: expected 5 finite numbers, got '0.1,0.2,0.3,0.4'"),
    ("x1,x2,u1,xdot1,xdot2\n0.1,0.2,0.3,0.4,0.5\n# note\n\n0.1,abc,0.3,0.4,0.5\n",
     "line 5: expected 5 finite numbers"),
    ("x,y,u\n0.1,0.2,0.3\n", "header 'x,y,u' is not x1..xn,u1..um,xdot1..xdotn")],
    ids=["header-only", "non-numeric", "three-states", "infinite", "ragged",
         "comment-and-blank", "other-header"])
def test_bad_dataset_csv_exits_one(tmp_path, capsys, command, text, fault):
    path = tmp_path / "data.csv"
    path.write_text(text)
    config = with_section(command, dataset=str(path))
    config["verify"]["checks"] = ["certificate"]
    assert run(tmp_path, command, config) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(path) in err and fault in err


@pytest.mark.parametrize("kind", ["config", "checkpoint", "dataset", "dataset_row", "losses"])
def test_non_utf8_input_exits_one(tmp_path, capsys, kind):
    path = tmp_path / f"{kind}.bin"
    path.write_bytes(b'{"name": "\xff"}\n')
    if kind == "dataset_row":  # past the first block of text that a read decodes
        path.write_bytes(b"x1,x2,u1,xdot1,xdot2\n" + b"0.1,0.2,0.3,0.4,0.5\n" * 1000
                         + b"0.1,\xff,0.3,0.4,0.5\n")
        kind = "dataset"
    if kind == "config":
        code = cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
    elif kind == "losses":  # a resume into a directory whose losses.csv does not decode
        assert run(tmp_path, "train", TINY) == cli.EXIT_OK
        path = tmp_path / "out" / "losses.csv"
        text = path.read_bytes() + b"\xff\xfe\n"
        path.write_bytes(text)
        code = run(tmp_path, "train", with_section(
            "train", resume_from=str(tmp_path / "out" / "checkpoint.json")))
        assert path.read_bytes() == text
    else:
        config = with_section("verify", **{kind: str(path)})
        config["verify"]["checks"] = ["certificate"]
        code = run(tmp_path, "verify", config)
    assert code == cli.EXIT_CONFIG
    assert str(path) in capsys.readouterr().err


def test_ablated_decrease_exits_three(tmp_path):
    # negative control: without the projection the decrease check must fail
    assert run(tmp_path, "verify", TINY, "--ablate-projection") == cli.EXIT_VERIFY


@pytest.mark.parametrize("command, section, key", [
    ("verify", "verify", "n_samples"), ("portrait", "portrait", "resolution"),
    ("train", "model", "mode"), ("verify", "verify", "checks")])
def test_out_of_range_setting_exits_one(tmp_path, capsys, command, section, key):
    # an empty checks list would audit nothing and report a pass
    value = {"n_samples": 0, "resolution": 1, "mode": "bogus", "checks": []}[key]
    assert run(tmp_path, command, with_section(section, **{key: value})) == cli.EXIT_CONFIG
    assert f"{section}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("verify", "n_samples", "many"), (None, "seed", "abc"),
    ("hyper", "alpha", "x"), ("train", "lr", "fast"),
    ("verify", "ablate_projection", "false"), ("verify", "ablate_projection", 0),
    ("train", "epochs", 1.7), ("train", "epochs", True), ("verify", "n_samples", 2000.5),
    ("model", "widths", {"gf": 8.5}), ("model", "widths", {"gu": True}),
    ("train", "lr", True), ("hyper", "lambda", False),
    ("verify", "checks", "decay")])
def test_wrong_type_setting_exits_one(tmp_path, capsys, section, key, value):
    if section is None:
        config = dict(TINY, **{key: value})
    else:
        config = with_section(section, **{key: value})
    command = "verify" if section == "verify" else "train"
    assert run(tmp_path, command, config) == cli.EXIT_CONFIG
    assert (key if section is None else f"{section}.{key}") in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("alpha", float("nan")), ("eps_proj", float("nan")), ("v_cap", float("inf"))])
def test_non_finite_hyper_exits_one(tmp_path, capsys, key, value):
    # JSON's NaN and Infinity literals reach Hyper, which names the field
    assert run(tmp_path, "train", with_section("hyper", **{key: value})) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_integral_float_count_accepted():
    cfg = cli.load_config(overrides={"sample": {"n": 1e3}})
    assert cfg["sample"]["n"] == 1000 and isinstance(cfg["sample"]["n"], int)


def test_portrait_writes_four_grids(tmp_path):
    res = 5
    assert run(tmp_path, "portrait", with_section("portrait", resolution=res)) == cli.EXIT_OK
    for kind in ("fhat", "fstar", "gv", "v"):
        data = np.loadtxt(tmp_path / "out" / f"field_{kind}.csv", delimiter=",",
                          skiprows=2, ndmin=2)
        assert data.shape[0] == res * res, kind
        assert np.all(np.isfinite(data)), kind


def test_simulate_writes_finite_trajectories(tmp_path):
    assert run(tmp_path, "train", TINY, out="train") == cli.EXIT_OK
    k, T, h = 3, 0.02, 1e-3
    config = with_section("simulate", k=k, T=T, h=h,
                          checkpoint=str(tmp_path / "train" / "checkpoint.json"))
    assert run(tmp_path, "simulate", config, out="sim") == cli.EXIT_OK
    paths = sorted((tmp_path / "sim").glob("traj_*.csv"))
    assert [p.name for p in paths] == sorted(f"traj_{plant}_{i}.csv"
                                             for plant in ("true", "learned")
                                             for i in range(k))
    for path in paths:
        data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        assert data.shape[0] == round(T / h) + 1, path.name
        assert np.all(np.isfinite(data)), path.name
        assert path.read_text().partition("\n")[0].endswith("; reason=full"), path.name


def test_simulate_of_a_nonfinite_model_exits_two(tmp_path, capsys, monkeypatch):
    # a fault of gf leaves the true plant's u* and V finite; both plants
    # integrate together, so it stops the command before any trajectory is
    # written
    model = fill_output_layer(StableDynamicsModel.initialize(
        cli.resolve_hyper(cli.load_config()), seed=0, widths=TINY["model"]["widths"]),
        "gf", bias=np.nan)
    monkeypatch.setattr(cli, "_load_or_init_model", lambda cfg, checkpoint: (model, None))
    config = with_section("simulate", k=2, T=0.01, checkpoint=write_checkpoint(tmp_path))
    assert run(tmp_path, "simulate", config) == cli.EXIT_NUMERICAL
    assert "numerical failure: non-finite intermediate 'fhat_star'" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("traj_*.csv"))


@pytest.mark.parametrize("into", ["same", "fresh"])
def test_resume_appends_losses_with_continued_epochs(tmp_path, into):
    # the epochs continue the checkpoint's count, whichever directory they go to
    config = with_section("train", epochs=2)
    assert run(tmp_path, "train", config) == cli.EXIT_OK
    first = (tmp_path / "out" / "losses.csv").read_text()
    config["train"]["resume_from"] = str(tmp_path / "out" / "checkpoint.json")
    out = "out" if into == "same" else "resumed"
    assert run(tmp_path, "train", config, out=out) == cli.EXIT_OK
    text = (tmp_path / out / "losses.csv").read_text()
    if into == "same":
        assert text.startswith(first)
    lines = text.splitlines()
    assert sum(ln.startswith("#") for ln in lines) == 1
    assert sum(ln.startswith("epoch") for ln in lines) == 1
    epochs = [int(ln.split(",")[0]) for ln in lines
              if ln and not ln.startswith(("#", "epoch"))]
    assert epochs == ([0, 1, 2, 3] if into == "same" else [2, 3])


@pytest.mark.parametrize("key, value", [
    ("u_lim", None), ("x_ub", [float("inf"), 3.0]), ("x_lb", [-2.0, float("nan")])])
def test_non_finite_box_exits_one(tmp_path, capsys, key, value):
    assert run(tmp_path, "train", with_section("hyper", **{key: value})) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("value", [{"a": 1}, "abc", ["-1.3", "-1.3"], [True, -1.3]],
                         ids=["object", "string", "numeric-strings", "boolean"])
def test_box_that_is_not_numbers_exits_one(tmp_path, capsys, value):
    assert run(tmp_path, "sample", with_section("hyper", x_lb=value)) == cli.EXIT_CONFIG
    assert "x_lb must be a number or a flat list of numbers" in capsys.readouterr().err


def test_negative_depth_exits_one(tmp_path, capsys):
    assert run(tmp_path, "train", with_section("model", depth=-1)) == cli.EXIT_CONFIG
    assert "model.depth" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("lr", -1), ("clip_norm", 0), ("holdout", 1.0), ("holdout", -0.1),
    ("batch_size", 0), ("epochs", -1)])
def test_train_setting_out_of_range_exits_one(tmp_path, capsys, key, value):
    assert run(tmp_path, "train", with_section("train", **{key: value})) == cli.EXIT_CONFIG
    assert f"train.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("widths, net", [
    ({"gf": "x"}, "gf"), ({"gz": 8}, "gz"), ({"gv": 0}, "gv"), ({"gu": -3}, "gu")])
def test_bad_width_exits_one(tmp_path, capsys, widths, net):
    config = with_section("model", widths=dict(TINY["model"]["widths"], **widths))
    assert run(tmp_path, "train", config) == cli.EXIT_CONFIG
    assert f"model.widths.{net}" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("verify", "r", float("nan")), ("verify", "r", -1.0), ("verify", "r", 0.0),
    ("simulate", "T", float("inf")), ("simulate", "h", float("inf"))])
def test_non_positive_or_infinite_setting_exits_one(tmp_path, capsys, section, key, value):
    assert run(tmp_path, "verify", with_section(section, **{key: value})) == cli.EXIT_CONFIG
    assert f"{section}.{key}" in capsys.readouterr().err


def test_horizon_shorter_than_step_exits_one(tmp_path, capsys):
    config = with_section("simulate", T=4e-4, h=1e-3, checkpoint=write_checkpoint(tmp_path))
    assert run(tmp_path, "simulate", config) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "simulate.T" in err and "simulate.h" in err
    assert not list((tmp_path / "out").glob("traj_*.csv"))


def test_null_radius_means_default(tmp_path):
    assert run(tmp_path, "sample", TINY, out="sample") == cli.EXIT_OK
    config = with_section("verify", r=None, checks=["certificate"], n_samples=500,
                          dataset=str(tmp_path / "sample" / "dataset.csv"))
    assert run(tmp_path, "verify", config) == cli.EXIT_OK
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    hyper = cli.resolve_hyper(cli.load_config(overrides={"system": "vdp"}))
    assert report["checks"]["certificate"]["report"]["r"] == verify.default_radius(hyper)


@pytest.mark.parametrize("section, key, value, name", [
    ("simulate", "T", "0.5", "simulate.T"), ("sample", "n", "300", "sample.n"),
    ("model", "widths", {"gf": "10"}, "model.widths.gf")])
def test_numeric_string_exits_one(tmp_path, capsys, section, key, value, name):
    # JSON strings are not numbers, even when they spell one
    assert run(tmp_path, "train", with_section(section, **{key: value})) == cli.EXIT_CONFIG
    assert name in capsys.readouterr().err


def write_checkpoint(tmp_path, **hyper):
    """A TINY-width vdp checkpoint trained under ``hyper``."""
    model = StableDynamicsModel.initialize(
        Hyper.for_system(systems.get_system("vdp"), **hyper), seed=0,
        widths=TINY["model"]["widths"])
    path = tmp_path / "ck.json"
    training.save_checkpoint(model, path)
    return str(path)


def test_portrait_of_checkpoint_with_gu_contradicting_its_role_exits_one(tmp_path, capsys):
    # vdp's gu maps its 2 states to 1 control, not 2
    path = Path(write_checkpoint(tmp_path))
    doc = json.loads(path.read_text())
    doc["dims"]["gu"][-1] = 2
    path.write_text(json.dumps(doc))
    config = with_section("portrait", checkpoint=str(path), resolution=3)
    assert run(tmp_path, "portrait", config) == cli.EXIT_CONFIG
    assert "gu must have (input, output) widths (2, 1), got (2, 2)" in capsys.readouterr().err


def test_checkpoint_of_format_two_exits_one(tmp_path, capsys):
    path = Path(write_checkpoint(tmp_path))
    doc = json.loads(path.read_text())
    doc["format_version"] = 2
    path.write_text(json.dumps(doc))
    config = with_section("verify", checkpoint=str(path))
    assert run(tmp_path, "verify", config) == cli.EXIT_CONFIG
    assert "checkpoint version 2, expected 3" in capsys.readouterr().err


def test_verify_audits_under_checkpoint_hyper(tmp_path):
    # the quad radii come from the state box the checkpoint was trained on
    box = [2.0, 2.0]
    config = with_section("verify", checks=["quad"],
                          checkpoint=write_checkpoint(tmp_path, x_lb=[-2.0, -2.0], x_ub=box))
    assert run(tmp_path, "verify", config) == cli.EXIT_OK
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["checks"]["quad"]["report"]["r2"] == float(np.linalg.norm(box))
    # keys the config sets to the checkpoint's values are accepted
    config["hyper"] = {"x_ub": box, "alpha": 1.0}
    assert run(tmp_path, "verify", config) == cli.EXIT_OK


@pytest.mark.parametrize("command, section, key", [
    ("verify", "verify", "checkpoint"), ("simulate", "simulate", "checkpoint"),
    ("portrait", "portrait", "checkpoint"), ("train", "train", "resume_from")])
def test_hyper_differing_from_checkpoint_exits_one(tmp_path, capsys, command, section, key):
    config = with_section(section, **{key: write_checkpoint(tmp_path, alpha=0.05)})
    config["hyper"] = {"alpha": 0.5}
    assert run(tmp_path, command, config) == cli.EXIT_CONFIG
    assert "hyper.alpha" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, key", [
    ("verify", "verify", "checkpoint"), ("simulate", "simulate", "checkpoint"),
    ("portrait", "portrait", "checkpoint"), ("train", "train", "resume_from")])
def test_checkpoint_of_other_dimensions_exits_one(tmp_path, capsys, command, section, key):
    # three states and no recorded system, run as vdp (two states, one control)
    model = StableDynamicsModel.initialize(
        Hyper(u_lim=[5.0], x_lb=[-1.0] * 3, x_ub=[1.0] * 3), seed=0,
        widths=TINY["model"]["widths"])
    path = tmp_path / "ck.json"
    training.save_checkpoint(model, path)
    config = with_section(section, **{key: str(path)})
    config["verify"]["checks"] = ["quad"]
    assert run(tmp_path, command, config) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"checkpoint {path} has 3 states and 1 controls where vdp has 2 and 1" in err


def verify_briefly(tmp_path, config):
    """``verify`` with rollouts cut to T = 0.5: the decay check integrates to
    T = 10, about 7 s per rollout here.  The check table reaches
    sim.rollout_many through its module, as a wrapper does."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "rollout_many", functools.partial(sim.rollout_many, T=0.5))
        return run(tmp_path, "verify", config)


@pytest.fixture(scope="module")
def every_check(tmp_path_factory):
    """The config and verify.json of one run of every check, with a dataset."""
    tmp_path = tmp_path_factory.mktemp("every_check")
    assert run(tmp_path, "sample", TINY, out="sample") == cli.EXIT_OK
    config = with_section("verify", checks=list(verify.CHECKS), n_samples=500, rollouts=1,
                          dataset=str(tmp_path / "sample" / "dataset.csv"))
    verify_briefly(tmp_path, config)
    return config, json.loads((tmp_path / "out" / "verify.json").read_text())


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_check_alone_matches_its_run_among_all(tmp_path, every_check, name):
    # check i keeps seed i of the table whichever checks run
    config, together = every_check
    config = json.loads(json.dumps(config))
    config["verify"]["checks"] = [name]
    code = verify_briefly(tmp_path, config)
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert list(report["checks"]) == [name]
    entry = report["checks"][name]
    assert {"report", "passed", "seconds", "samples"} <= set(entry)
    assert code == (cli.EXIT_OK if entry["passed"] else cli.EXIT_VERIFY)
    assert entry["report"] == together["checks"][name]["report"]


def test_verify_report_records_check_cost(tmp_path):
    assert run(tmp_path, "sample", TINY, out="sample") == cli.EXIT_OK
    config = with_section("verify", checks=["decrease", "quad", "certificate"],
                          n_samples=500, dataset=str(tmp_path / "sample" / "dataset.csv"))
    assert run(tmp_path, "verify", config) == cli.EXIT_OK
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["numpy"] == np.__version__
    assert list(report["checks"]) == ["decrease", "quad", "certificate"]
    for name, entry in report["checks"].items():
        assert entry["samples"] == 500, name
        assert entry["seconds"] > 0.0, name
    assert report["checks"]["certificate"]["report"]["n_samples"] == 500


def test_cold_start_loads_no_scipy(tmp_path):
    # a fresh interpreter: this test session has imported scipy already
    sample, audit = tmp_path / "sample.json", tmp_path / "audit.json"
    sample.write_text(json.dumps(TINY))
    audit.write_text(json.dumps(with_section(
        "verify", checks=["certificate"], n_samples=500,
        dataset=str(tmp_path / "out" / "dataset.csv"))))
    argvs = {"sample": ["sample", "--config", str(sample), "--out", str(tmp_path / "out")],
             "verify": ["verify", "--config", str(audit), "--out", str(tmp_path / "audit")]}
    code = f"""
import sys
import stabledyn, stabledyn.cli
assert "scipy" not in sys.modules, "import"
for command, argv in {argvs!r}.items():
    assert stabledyn.cli.main(argv) == 0, command
    assert "scipy" not in sys.modules, command
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "audit" / "verify.json").read_text())
    assert report["checks"]["certificate"]["report"]["n_data"] == TINY["sample"]["n"]


def data_rows(path):
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith(("#", "epoch"))]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines])


@pytest.mark.parametrize("mode", ["general", "affine"])
def test_resume_repeats_uninterrupted_run(tmp_path, mode):
    config = with_section("model", mode=mode, widths={"gf": 8, "gu": 8, "gv": 8,
                                                      "gf1": 8, "gf2": 8})
    config["train"]["epochs"] = 4
    assert run(tmp_path, "train", config, out="whole") == cli.EXIT_OK
    config["train"]["epochs"] = 2
    assert run(tmp_path, "train", config, out="part") == cli.EXIT_OK
    config["train"]["resume_from"] = str(tmp_path / "part" / "checkpoint.json")
    assert run(tmp_path, "train", config, out="part") == cli.EXIT_OK
    whole, part = (training.load_checkpoint(tmp_path / out / "checkpoint.json")[0]
                   for out in ("whole", "part"))
    assert np.array_equal(part.get_params(), whole.get_params())
    rows = data_rows(tmp_path / "part" / "losses.csv")
    assert rows.shape == (4, 5)
    assert np.array_equal(rows, data_rows(tmp_path / "whole" / "losses.csv"))


def initial_model():
    """The model a TINY run starts from."""
    cfg = cli.load_config(overrides=TINY)
    return StableDynamicsModel.initialize(
        cli.resolve_hyper(cfg), seed=cli._sub_seed(0, "model"), widths=TINY["model"]["widths"])


def test_resume_from_stateless_checkpoint_starts_adam_afresh(tmp_path, capsys):
    # a file of the model a fresh run starts from, without optimizer state:
    # Adam restarts at step 0 and the epoch orders at epoch 0, so the fresh
    # run is repeated
    assert run(tmp_path, "train", TINY, out="fresh") == cli.EXIT_OK
    path = tmp_path / "stateless.json"
    training.save_checkpoint(initial_model(), path)
    capsys.readouterr()
    config = with_section("train", resume_from=str(path))
    assert run(tmp_path, "train", config, out="resumed") == cli.EXIT_OK
    assert "no optimizer state; Adam starts at step 0" in capsys.readouterr().out
    fresh, resumed = (training.load_checkpoint(tmp_path / out / "checkpoint.json")[0]
                      for out in ("fresh", "resumed"))
    assert np.array_equal(resumed.get_params(), fresh.get_params())
    assert np.array_equal(data_rows(tmp_path / "resumed" / "losses.csv"),
                          data_rows(tmp_path / "fresh" / "losses.csv"))


def test_losses_csv_records_gradient_telemetry(tmp_path):
    assert run(tmp_path, "train", with_section("train", epochs=2)) == cli.EXIT_OK
    lines = (tmp_path / "out" / "losses.csv").read_text().splitlines()
    assert lines[1] == "epoch,train_loss,holdout_loss,grad_norm_max,clip_frac"
    rows = data_rows(tmp_path / "out" / "losses.csv")
    assert np.all(np.isfinite(rows)) and np.all(rows[:, 3] > 0)
    assert np.all((rows[:, 4] >= 0) & (rows[:, 4] <= 1))


def test_resume_onto_other_loss_columns_exits_one(tmp_path, capsys):
    assert run(tmp_path, "train", TINY) == cli.EXIT_OK
    losses = tmp_path / "out" / "losses.csv"
    old = "# config: {}\nepoch,train_loss,holdout_loss\n0,1.5,1.25\n"
    losses.write_text(old)
    written = (tmp_path / "out" / "config.json").read_text()
    config = with_section("train", resume_from=str(tmp_path / "out" / "checkpoint.json"))
    assert run(tmp_path, "train", config) == cli.EXIT_CONFIG
    assert str(losses) in capsys.readouterr().err
    assert losses.read_text() == old
    assert (tmp_path / "out" / "config.json").read_text() == written


@pytest.mark.parametrize("command, section, key", [
    ("verify", "verify", "checkpoint"), ("simulate", "simulate", "checkpoint"),
    ("train", "train", "resume_from")])
@pytest.mark.parametrize("setting, name", [
    ({"mode": "affine"}, "model.mode"), ({"depth": 2}, "model.depth"),
    ({"widths": {"gf": 8, "gu": 16, "gv": 8}}, "model.widths.gu")])
def test_model_differing_from_checkpoint_exits_one(tmp_path, capsys, command, section,
                                                   key, setting, name):
    config = with_section(section, **{key: write_checkpoint(tmp_path)})
    config["model"] = dict(config["model"], **setting)
    assert run(tmp_path, command, config) == cli.EXIT_CONFIG
    assert name in capsys.readouterr().err


def test_model_keys_matching_checkpoint_accepted(tmp_path):
    # widths of the other mode's networks are ignored, as a fresh model ignores them
    config = with_section("verify", checkpoint=write_checkpoint(tmp_path))
    config["model"] = {"mode": "general", "depth": 3,
                       "widths": dict(TINY["model"]["widths"], gf1=5)}
    assert run(tmp_path, "verify", config) == cli.EXIT_OK


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("how", ["config", "flag"])
def test_system_differing_from_checkpoint_exits_one(tmp_path, capsys, command, how):
    assert run(tmp_path, "train", TINY, out="train") == cli.EXIT_OK
    config = with_section(command, checkpoint=str(tmp_path / "train" / "checkpoint.json"))
    if command == "simulate":
        config["simulate"].update(k=1, T=0.01)
    flags = []
    if how == "config":
        config["system"] = "pendulum"
    else:
        flags = ["--system", "pendulum"]
    assert run(tmp_path, command, config, *flags) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "system = 'pendulum' differs from 'vdp'" in err
    # the system the checkpoint records is accepted
    config["system"] = "vdp"
    assert run(tmp_path, command, config) == cli.EXIT_OK


def test_failed_command_keeps_run_directory_config(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    marker = b'{"marker": true}\n'
    (out / "config.json").write_bytes(marker)
    config = with_section("train", dataset=str(tmp_path / "missing.csv"))
    assert run(tmp_path, "train", config) == cli.EXIT_CONFIG
    assert "input error" in capsys.readouterr().err
    assert (out / "config.json").read_bytes() == marker


@pytest.mark.parametrize("overrides, name", [
    ({"train": {"bogus": 1}}, "train.bogus"), ({"hyper": {"nonsense": 3}}, "hyper.nonsense"),
    ({"verify": {"n_samples": 0}}, "verify.n_samples")])
def test_overrides_pass_the_same_checks(overrides, name):
    with pytest.raises(cli.ConfigError, match=name):
        cli.load_config(overrides=overrides)


@pytest.mark.parametrize("command, section, key, value", [
    ("train", None, "name", 5), ("train", "train", "dataset", 0),
    ("train", "train", "resume_from", 2.5), ("verify", "verify", "dataset", ["d.csv"]),
    ("verify", "verify", "checkpoint", False), ("simulate", "simulate", "checkpoint", 12345),
    ("portrait", "portrait", "checkpoint", {"path": "ck.json"})])
def test_non_string_name_or_path_exits_one(tmp_path, capsys, command, section, key, value):
    if section is None:
        config = dict(TINY, **{key: value})
    else:
        config = with_section(section, **{key: value})
    assert run(tmp_path, command, config) == cli.EXIT_CONFIG
    assert (key if section is None else f"{section}.{key}") in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    ([], cli.EXIT_CONFIG), (["train", "--nosuchflag"], cli.EXIT_CONFIG),
    (["train", "--seed", "x"], cli.EXIT_CONFIG), (["nosuchcommand"], cli.EXIT_CONFIG),
    (["--help"], cli.EXIT_OK), (["verify", "--help"], cli.EXIT_OK)])
def test_argument_exit_codes(capsys, argv, code):
    assert cli.main(argv) == code


def test_hyper_and_train_keys_are_their_dataclass_fields():
    hyper = Hyper.for_system(systems.get_system("vdp"), alpha=0.5, lam=1e-4)
    cfg = cli.load_config(overrides={"hyper": hyper.to_dict(),
                                     "train": {"lr": 0.5, "epochs": 3.0}})
    assert cli.resolve_hyper(cfg).to_dict() == hyper.to_dict()
    assert cfg.trainer == training.TrainConfig(lr=0.5, epochs=3, seed=cfg.trainer.seed)
    assert isinstance(cfg.trainer.epochs, int)


def test_negative_seed_exits_one(tmp_path, capsys):
    # SeedSequence refuses it; the config check names it before any work
    assert cli.main(["sample", "--seed", "-1", "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert "seed must be at least 0" in capsys.readouterr().err


def test_holdout_of_every_row_exits_one(tmp_path, capsys):
    # round(0.9 * 2) = 2 rows held out leave none to train on
    config = with_section("train", holdout=0.9)
    config["sample"]["n"] = 2
    assert run(tmp_path, "train", config) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "train.holdout = 0.9" in err and "sample.n = 2" in err


def test_radius_past_the_box_exits_one(tmp_path, capsys):
    assert run(tmp_path, "sample", TINY, out="sample") == cli.EXIT_OK
    config = with_section("verify", r=100, checks=["certificate"], n_samples=500,
                          dataset=str(tmp_path / "sample" / "dataset.csv"))
    assert run(tmp_path, "verify", config) == cli.EXIT_CONFIG
    assert "verify.r = 100" in capsys.readouterr().err


def test_diverging_training_exits_two(tmp_path, capsys):
    # the divergence check stops the run before any overflow warns, which
    # the suite's error::RuntimeWarning filter would turn into a failure
    config = with_section("train", lr=1e5)
    config["sample"]["n"] = 600
    assert run(tmp_path, "train", config) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure: batch loss" in err and "exceeds 1e+06 x initial loss" in err


@pytest.mark.parametrize("error, code, prefix", [
    (cli.ConfigError("c"), cli.EXIT_CONFIG, "config error"),
    (training.CheckpointError("c"), cli.EXIT_CONFIG, "input error"),
    (training.DatasetError("c"), cli.EXIT_CONFIG, "input error"),
    (systems.DomainError("c"), cli.EXIT_CONFIG, "input error"),
    (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "c"), cli.EXIT_CONFIG, "input error"),
    (ValueError("c"), cli.EXIT_CONFIG, "input error"),
    (OSError("c"), cli.EXIT_CONFIG, "input error"),
    (FloatingPointError("c"), cli.EXIT_NUMERICAL, "numerical failure"),
    (GradientError("c"), cli.EXIT_NUMERICAL, "numerical failure"),
    (training.TrainingDivergedError("c"), cli.EXIT_NUMERICAL, "numerical failure")],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_exception_class_decides_exit_code(tmp_path, capsys, monkeypatch, error, code,
                                           prefix):
    def fail(cfg, system, out):
        raise error
    monkeypatch.setattr(cli, "cmd_sample", fail)
    assert run(tmp_path, "sample", TINY) == code
    assert capsys.readouterr().err.startswith(f"{prefix}: ")


@pytest.mark.parametrize("case, message", [
    ("radius", "radius r=1.8 leaves no box samples outside the neighborhood"),
    ("eps_proj", "decrease check kept none of 500 samples: 0 near the origin, "
                 "500 under the eps_proj floor"),
    ("bicycle", "bicycle sample 1 has d_e=1.00000000, within 1e-6 of the unit-circle "
                "singularity")], ids=["radius", "eps_proj", "bicycle"])
def test_audit_refusing_its_inputs_exits_one(tmp_path, capsys, case, message):
    # settings or data that leave an audit nothing to check are input, not a model fault
    if case == "radius":  # vdp's box corner lies at norm 1.838; 20 samples keep none past 1.8
        assert run(tmp_path, "sample", TINY, out="sample") == cli.EXIT_OK
        config = with_section("verify", checks=["certificate"], r=1.8, n_samples=20,
                              dataset=str(tmp_path / "sample" / "dataset.csv"))
    elif case == "eps_proj":
        config = dict(with_section("verify", n_samples=500), hyper={"eps_proj": 1e6})
    else:  # a dataset row on the bicycle's singular circle d_e = 1
        path = tmp_path / "bike.csv"
        path.write_text("x1,x2,u1,xdot1,xdot2\n0.1,0.2,0.3,0.4,0.5\n1,0.2,0.3,0.4,0.5\n")
        config = dict(with_section("verify", checks=["certificate"], n_samples=500,
                                   dataset=str(path)), system="bicycle")
    assert run(tmp_path, "verify", config) == cli.EXIT_CONFIG
    assert f"input error: {message}" in capsys.readouterr().err


def test_horizon_of_more_steps_than_a_float_counts_exits_one(tmp_path, capsys):
    config = with_section("simulate", T=1e300, h=1e-10, k=1,
                          checkpoint=write_checkpoint(tmp_path))
    assert run(tmp_path, "simulate", config) == cli.EXIT_CONFIG
    assert ("input error: horizon T = 1e+300 over step h = 1e-10 is not a finite step count"
            in capsys.readouterr().err)


def test_config_root_that_is_not_an_object_exits_one(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[]")
    assert cli.main(["sample", "--config", str(path), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "config error: config root must be a JSON object" in capsys.readouterr().err


def test_zero_epoch_train_keeps_the_initial_model(tmp_path):
    assert run(tmp_path, "train", with_section("train", epochs=0)) == cli.EXIT_OK
    lines = (tmp_path / "out" / "losses.csv").read_text().splitlines()
    assert [ln for ln in lines if not ln.startswith("#")] == [cli.LOSS_COLUMNS]
    saved = training.load_checkpoint(tmp_path / "out" / "checkpoint.json")[0]
    assert np.array_equal(saved.get_params(), initial_model().get_params())


def test_simulate_without_checkpoint_exits_one(tmp_path, capsys):
    assert run(tmp_path, "simulate", TINY) == cli.EXIT_CONFIG
    assert "simulate.checkpoint" in capsys.readouterr().err


def test_section_that_is_not_an_object_exits_one(tmp_path, capsys):
    assert run(tmp_path, "train", dict(TINY, train=3)) == cli.EXIT_CONFIG
    assert "train must be an object, got 3" in capsys.readouterr().err


def test_certificate_without_dataset_is_skipped(tmp_path):
    config = with_section("verify", checks=["certificate"])
    assert run(tmp_path, "verify", config) == cli.EXIT_OK
    entry = json.loads((tmp_path / "out" / "verify.json").read_text())["checks"]["certificate"]
    assert entry["passed"] and entry["report"] is None
    assert entry["skipped"] == "no dataset configured"
