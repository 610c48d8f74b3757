"""Exit codes of the command-line front end, driven through ``cli.main``."""

import json

import pytest

from stabledyn import cli

TINY = {"name": "tiny", "seed": 0,
        "model": {"widths": {"gf": 8, "gu": 8, "gv": 8}},
        "sample": {"n": 200},
        "train": {"epochs": 1, "batch_size": 64},
        "verify": {"checks": ["decrease"], "n_samples": 2000}}


def run(tmp_path, command, config, *flags):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
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


def test_portrait_of_non_planar_state_exits_two(tmp_path):
    config = with_section("hyper", x_lb=[-1.0, -1.0, -1.0], x_ub=[1.0, 1.0, 1.0])
    assert run(tmp_path, "portrait", config) == cli.EXIT_NUMERICAL


def test_ablated_decrease_exits_three(tmp_path):
    # negative control: without the projection the decrease check must fail
    assert run(tmp_path, "verify", TINY, "--ablate-projection") == cli.EXIT_VERIFY
