"""The benchmark still finds what it relies on in ``stabledyn``.

``bench/tracer.py`` patches package functions and methods by name, and
``bench/pipeline.py`` restates the verify gate and check names it audits, so
a change in ``src/`` would otherwise break only the benchmark runs.
"""

import functools
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from stabledyn import cli, sim, training, verify

from conftest import make_model


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", Path(__file__).resolve().parents[1] / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer_mod = _load_bench("tracer")
pipeline_mod = _load_bench("pipeline")


@pytest.mark.parametrize("mode, flops, nbytes", [
    ("general", 71_900, 12_112), ("affine", 102_200, 14_512)])
def test_flops_and_bytes_per_row_read_the_default_dims(vdp_hyper, mode, flops, nbytes):
    # the tracer reads each network's dims; these are the default widths' costs
    model = make_model(vdp_hyper, mode=mode, small=False)
    assert tracer_mod.flops_bytes_per_row(model) == (flops, nbytes)


def test_install_patches_every_target_and_uninstall_restores_it(vdp_system, vdp_hyper):
    tracer = tracer_mod.Tracer()
    tracer.install()  # raises AttributeError on a target that is gone
    try:
        patched = list(tracer._patched)
        assert patched
        for owner, attr, fn in patched:
            assert getattr(owner, attr) is not fn
            assert getattr(owner, attr).__wrapped__ is fn
        # the loss span reads the tape's node list, node values and length
        batch = training.sample_dataset(vdp_system, vdp_hyper, 8, 0)
        tracer.enabled = True
        graph = training.loss(make_model(vdp_hyper), batch)
        tracer.enabled = False
        (span,) = [s for s in tracer.spans if s[tracer_mod.NAME] == "training.loss"]
        assert span[tracer_mod.EXTRA] == len(graph.tape)
        assert tracer.tape_bytes[8] > 0
    finally:
        tracer.uninstall()
    for owner, attr, fn in patched:
        assert getattr(owner, attr) is fn


def test_traced_train_step_records_sweep_and_update(vdp_system, vdp_hyper):
    # reverse_sweep_ms and update_ms read these spans: one each per step,
    # inside the train span
    batch = training.sample_dataset(vdp_system, vdp_hyper, 16, 0)
    config = training.TrainConfig(epochs=1, batch_size=16, holdout=0.0)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        training.train(make_model(vdp_hyper), batch, config)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    names = [span[tracer_mod.NAME] for span in tracer.spans]
    (train,) = [i for i, name in enumerate(names) if name == "training.train"]
    for name in ("diffcore.param_gradient", "models.set_params"):
        (span,) = [s for s in tracer.spans if s[tracer_mod.NAME] == name]
        assert span[tracer_mod.PARENT] == train
        assert span[tracer_mod.END] >= span[tracer_mod.START]


def test_traced_verify_records_every_check(tmp_path, monkeypatch):
    # the check table must reach each wrapped function at call time; one that
    # held the functions themselves would leave these spans unrecorded.  The
    # decay check's rollouts are cut to T = 0.5 from its fixed T = 10.
    monkeypatch.setattr(sim, "rollout_many", functools.partial(sim.rollout_many, T=0.5))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"widths": {"gf": 8, "gu": 8, "gv": 8}}, "sample": {"n": 200},
        "verify": {"n_samples": 500, "rollouts": 1,
                   "dataset": str(tmp_path / "sample" / "dataset.csv")}}))
    assert cli.main(["sample", "--config", str(config), "--out", str(tmp_path / "sample")]) == 0
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        cli.main(["verify", "--config", str(config), "--out", str(tmp_path / "verify")])
    finally:
        tracer.enabled = False
        tracer.uninstall()
    report = json.loads((tmp_path / "verify" / "verify.json").read_text())
    assert list(report["checks"]) == list(verify.CHECKS)
    names = {span[tracer_mod.NAME] for span in tracer.spans}
    assert {"verify.check_decrease", "verify.decay_bound_check",
            "verify.estimate_quadratic_ratio", "verify.certificate",
            "sim.rollout_many.learned"} <= names


def test_traced_simulate_makes_one_true_plant_rollout(tmp_path, vdp_hyper):
    # the per-step model calls of the true-plant rollouts divide by that
    # rollout's steps, so simulate must make one, covering both plants' rows
    k, T, h = 2, 0.01, 1e-3
    checkpoint = tmp_path / "checkpoint.json"
    training.save_checkpoint(make_model(vdp_hyper), checkpoint)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"simulate": {"k": k, "T": T, "h": h,
                                               "checkpoint": str(checkpoint)}}))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        code = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")])
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert code == cli.EXIT_OK
    rollouts = [s for s in tracer.spans if s[tracer_mod.NAME].startswith("sim.rollout_many")]
    assert [s[tracer_mod.NAME] for s in rollouts] == ["sim.rollout_many.true"]
    extra = rollouts[0][tracer_mod.EXTRA]
    steps = round(T / h)
    assert extra["steps"] == steps
    assert extra["row_steps"] == 2 * k * steps
    # one shared model evaluation at each record step and at three RK4 stages
    rollout = tracer.spans.index(rollouts[0])
    calls = [s[tracer_mod.NAME] for s in tracer.spans if s[tracer_mod.PARENT] == rollout
             and s[tracer_mod.NAME] in tracer_mod.MODEL_CALLS]
    assert calls == ["models.eval_pieces"] * (4 * steps + 1)


def test_traced_true_only_rollout_counts_every_model_call(vdp_system, vdp_hyper):
    # a true-only batch records through controller_batch and lyapunov_batch
    # and steps through controller_batch, all wrapped: 2 calls at each of
    # the steps + 1 record steps and 3 at each step's stages
    steps = 10
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        sim.rollout_many(vdp_system, make_model(vdp_hyper, mode="affine"),
                         np.array([[1.0, 0.0], [-0.5, 0.2]]), T=steps * 1e-3, h=1e-3)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    names = [span[tracer_mod.NAME] for span in tracer.spans]
    (rollout,) = [i for i, name in enumerate(names) if name == "sim.rollout_many.true"]
    calls = [s[tracer_mod.NAME] for s in tracer.spans if s[tracer_mod.PARENT] == rollout
             and s[tracer_mod.NAME] in tracer_mod.MODEL_CALLS]
    assert len(calls) == 5 * steps + 2
    assert calls.count("models.lyapunov_batch") == steps + 1


def test_pipeline_audits_what_verify_declares():
    assert pipeline_mod.DECREASE_TOL == verify.DECREASE_TOL
    assert set(pipeline_mod.AUDIT_EVALS) <= set(verify.CHECKS)
