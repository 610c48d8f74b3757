import base64
import json
import tracemalloc

import numpy as np
import pytest

from stabledyn import training
from stabledyn.models import Hyper, StableDynamicsModel
from stabledyn.systems import DomainError, SystemSpec, get_system
from stabledyn.training import (
    CheckpointError,
    Dataset,
    TrainConfig,
    TrainingDivergedError,
)

from conftest import (SMALL_WIDTHS, jitter_params, make_model, model_from_networks, model_layers,
                      net_slices, seam_margins)



class TestSampleDataset:
    def test_containment(self, vdp_system, vdp_hyper):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 5000, seed=0)
        assert np.all(ds.X >= vdp_hyper.x_lb) and np.all(ds.X <= vdp_hyper.x_ub)
        assert np.all(np.abs(ds.U) <= vdp_hyper.u_lim)

    def test_xdot_reevaluates_identically(self, vdp_system, vdp_hyper):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 1000, seed=1)
        assert np.array_equal(ds.Xdot, vdp_system.dynamics(ds.X, ds.U))

    def test_deterministic(self, vdp_system, vdp_hyper):
        a = training.sample_dataset(vdp_system, vdp_hyper, 500, seed=7)
        b = training.sample_dataset(vdp_system, vdp_hyper, 500, seed=7)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.U, b.U)
        assert np.array_equal(a.Xdot, b.Xdot)

    def test_meta_provenance(self, vdp_system, vdp_hyper):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 10, seed=3)
        assert ds.meta["system"] == "vdp" and ds.meta["seed"] == 3
        assert ds.meta["n"] == 10

    def test_singular_bounds_raise_with_sample_index(self):
        bike = get_system("bicycle")
        hp = Hyper.for_system(bike, x_lb=[0.999, -0.8], x_ub=[1.001, 0.8])
        with pytest.raises(DomainError, match="sample"):
            training.sample_dataset(bike, hp, 200, seed=0)

    def test_needs_positive_count(self, vdp_system, vdp_hyper):
        with pytest.raises(ValueError):
            training.sample_dataset(vdp_system, vdp_hyper, 0, seed=0)


@pytest.mark.parametrize("arrays, message", [
    ((np.zeros(3), np.zeros((3, 1)), np.zeros((3, 2))), "must be 2-D"),
    ((np.zeros((3, 2)), np.zeros((2, 1)), np.zeros((3, 2))), "must have equal length"),
    ((np.zeros((3, 2)), np.zeros((3, 1)), np.zeros((3, 3))),
     "state and state-derivative dims differ"),
    ((np.zeros((3, 2)), np.full((3, 1), np.inf), np.zeros((3, 2))),
     "non-finite entries in dataset U")],
    ids=["flat", "ragged", "derivative-width", "infinite"])
def test_dataset_rejects_inconsistent_arrays(arrays, message):
    with pytest.raises(ValueError, match=message):
        Dataset(*arrays)


class TestDatasetCsv:
    def test_roundtrip(self, tmp_path, vdp_system, vdp_hyper):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 200, seed=5)
        path = tmp_path / "data.csv"
        meta = tmp_path / "data.meta.json"
        training.export_dataset_csv(ds, path, meta_path=meta)
        back = training.import_dataset_csv(path)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.U, ds.U)
        assert np.array_equal(back.Xdot, ds.Xdot)
        assert json.loads(meta.read_text()) == ds.meta

    def test_read_memory_is_bounded(self, tmp_path, vdp_system, vdp_hyper):
        # rows stream from the file: no list of its lines is held
        ds = training.sample_dataset(vdp_system, vdp_hyper, 50000, seed=5)
        path = tmp_path / "data.csv"
        training.export_dataset_csv(ds, path)
        tracemalloc.start()
        try:
            back = training.import_dataset_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.Xdot, ds.Xdot)
        assert peak < 3 * (back.X.nbytes + back.U.nbytes + back.Xdot.nbytes)

    def test_header_layout(self, tmp_path, vdp_system, vdp_hyper):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 3, seed=5)
        path = tmp_path / "data.csv"
        training.export_dataset_csv(ds, path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,u1,xdot1,xdot2"


class TestLoss:
    def test_zero_residual_zero_loss(self, small_model, vdp_hyper):
        # data generated by the model itself leaves no residual; lambda is 0
        rng = np.random.default_rng(1)
        X = rng.uniform(-1.3, 1.3, (32, 2))
        U = rng.uniform(-5, 5, (32, 1))
        ds = Dataset(X, U, small_model.eval_pieces(X, U)["fstar_data"])
        graph = training.loss(small_model, ds)
        assert graph.value == 0.0

    def test_regularizer_off_by_default(self, small_model, vdp_system, vdp_hyper):
        assert vdp_hyper.lam == 0.0
        ds = training.sample_dataset(vdp_system, vdp_hyper, 16, seed=2)
        with_reg = training.loss(small_model, ds).value
        # identical model, lambda bumped: loss strictly larger by lam*||theta||^2
        hp2 = Hyper.for_system(vdp_system, lam=1e-3)
        model2 = model_from_networks(hp2, model_layers(small_model))
        reg_loss = training.loss(model2, ds).value
        theta2 = np.sum(model2.get_params() ** 2)
        assert reg_loss == pytest.approx(with_reg + 1e-3 * theta2, rel=1e-12)

    def test_single_sample_hand_value(self, small_model):
        # u = u*(x) makes the kernel exactly 2; an injected residual of norm
        # 0.5 then costs 2 * 0.25
        x = np.array([[0.4, -0.7]])
        u = small_model.controller_batch(x)
        fstar = small_model.eval_pieces(x, u)["fstar_data"]
        resid = np.array([0.3, 0.4])  # norm 0.5
        ds = Dataset(x, u, fstar + resid)
        graph = training.loss(small_model, ds)
        assert graph.value == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("beta_offset,k", [(0.0, 2.0), (np.log(2.0), 1.5),
                                               (1e8, 1.0)],
                             ids=["k=2", "k=1.5", "k=1"])
    def test_kernel_hand_value(self, small_model, beta_offset, k):
        # a control offset ||u - u*(x)||^2 = beta_offset / beta sets the kernel
        # 1 + exp(-beta ||u - u*(x)||^2) to k; an injected residual of norm
        # 0.5 then costs k * 0.25
        x = np.array([[0.4, -0.7]])
        u = small_model.controller_batch(x) + np.sqrt(beta_offset / small_model.hyper.beta)
        fstar = small_model.eval_pieces(x, u)["fstar_data"]
        resid = np.array([0.3, 0.4])  # norm 0.5
        ds = Dataset(x, u, fstar + resid)
        graph = training.loss(small_model, ds)
        assert graph.value == pytest.approx(k * 0.25, rel=1e-14)

    def test_empty_batch_rejected(self, small_model):
        ds = Dataset(np.zeros((0, 2)), np.zeros((0, 1)), np.zeros((0, 2)))
        for fn in (training.loss, training.loss_value):
            with pytest.raises(ValueError, match="loss of an empty batch"):
                fn(small_model, ds)

    @pytest.mark.parametrize("fn, message", [
        (training.loss, "non-finite training loss"),
        (training.loss_value, "non-finite loss value")])
    @np.errstate(over="ignore")  # the squared residual overflows on purpose
    def test_overflowing_loss_raises(self, small_model, fn, message):
        X = np.full((4, 2), 0.3)
        ds = Dataset(X, np.zeros((4, 1)), np.full((4, 2), 1e200))
        with pytest.raises(FloatingPointError, match=message):
            fn(small_model, ds)

    def test_loss_value_memory_does_not_grow_with_rows(self, vdp_system, vdp_hyper):
        # rows share model calls of models.BLOCK_ROWS rows, however many
        model = make_model(vdp_hyper, seed=2, small=False)
        peaks = []
        for n in (4000, 40000):
            ds = training.sample_dataset(vdp_system, vdp_hyper, n, seed=6)
            tracemalloc.start()
            try:
                training.loss_value(model, ds)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1e6

    @pytest.mark.parametrize("mode", ["general", "affine"])
    def test_loss_value_matches_tape(self, vdp_system, vdp_hyper, mode):
        # the tape records the origin nodes inline, loss_value reads the numpy
        # cache; jittered biases keep the origin values away from zero
        model = jitter_params(make_model(vdp_hyper, seed=11, mode=mode),
                              np.random.default_rng(4))
        ds = training.sample_dataset(vdp_system, vdp_hyper, 64, seed=3)
        assert training.loss_value(model, ds) == training.loss(model, ds).value

    @pytest.mark.parametrize("mode", ["general", "affine"])
    def test_gradient_matches_finite_differences(self, vdp_system, vdp_hyper, mode):
        rng = np.random.default_rng(9)
        model = jitter_params(make_model(vdp_hyper, seed=11, mode=mode), rng)
        h = 1e-5
        checked = 0
        for trial in range(4):
            ds = training.sample_dataset(vdp_system, vdp_hyper, 5, seed=100 + trial)
            if mode == "affine":
                # a step may flip sign(coeff), and with it u*, near coeff = 0
                coeff = model.eval_pieces(ds.X)["coeff"]
                ds = ds.subset(np.flatnonzero(np.min(np.abs(coeff), axis=1) >= 1e-3))
            if len(ds) == 0 or seam_margins(model, ds.X, ds.U) < 10 * h:
                continue
            checked += 1
            graph = training.loss(model, ds)
            grad = graph.param_gradient()
            theta = model.get_params()
            for c in rng.choice(theta.size, 12, replace=False):
                tp = theta.copy(); tp[c] += h
                model.set_params(tp)
                lp = training.loss_value(model, ds)
                tm = theta.copy(); tm[c] -= h
                model.set_params(tm)
                lm = training.loss_value(model, ds)
                model.set_params(theta)
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(grad[c]), 1e-8)
                assert abs(fd - grad[c]) / denom <= 1e-4
        assert checked

    def test_gradient_flows_through_kernel(self, vdp_system, vdp_hyper):
        # with the residual frozen (data from a detached copy), moving gu still
        # changes the loss through k(u, u*(x)) unless the kernel is flat
        rng = np.random.default_rng(12)
        model = jitter_params(make_model(vdp_hyper, seed=13), rng)
        ds = training.sample_dataset(vdp_system, vdp_hyper, 64, seed=5)
        grad = training.loss(model, ds).param_gradient()
        gu_norm = np.sum(grad[net_slices(model)["gu"]] ** 2)
        assert gu_norm > 0.0


class TestTrain:
    def test_zero_lr_keeps_parameters(self, small_model, vdp_system, vdp_hyper):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 128, seed=6)
        before = small_model.get_params()
        training.train(small_model, ds, TrainConfig(lr=0.0, epochs=3, batch_size=32, seed=1))
        assert np.array_equal(small_model.get_params(), before)

    def test_toy_linear_system_loss_decreases(self, vdp_hyper):
        lin = SystemSpec(name="lin", params={},
                         x_lb=np.array([-1.0, -1.0]), x_ub=np.array([1.0, 1.0]),
                         u_lim=np.array([1.0]),
                         _fn=lambda x, u: np.stack(
                             [-x[:, 0] + u[:, 0], -2.0 * x[:, 1]], axis=1))
        hp = Hyper.for_system(lin)
        model = make_model(hp, seed=14)
        ds = training.sample_dataset(lin, hp, 200, seed=7)
        cfg = TrainConfig(lr=1e-4, epochs=50, batch_size=32, clip_norm=5.0, seed=2)
        result = training.train(model, ds, cfg)
        assert result.history[-1].train_loss < result.history[0].train_loss

    def test_deterministic_per_seed(self, vdp_system, vdp_hyper):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 256, seed=8)
        cfg = TrainConfig(lr=1e-4, epochs=3, batch_size=64, seed=3)
        runs = []
        for _ in range(2):
            model = make_model(vdp_hyper, seed=15)
            res = training.train(model, ds, cfg)
            runs.append((model.get_params(), [(e.train_loss, e.holdout_loss)
                                              for e in res.history]))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    @pytest.mark.parametrize("clip", [1e-3, 1e6], ids=["every-step", "no-step"])
    def test_adam_receives_clipped_gradient(self, monkeypatch, small_model, vdp_system,
                                            vdp_hyper, clip):
        # every gradient Adam is fed is the step's raw gradient, rescaled to
        # norm clip_norm where it was longer, and passed as it is otherwise
        raw, fed = [], []
        param_gradient, adam_step = training.param_gradient, training.adam_step

        def record_raw(*args):
            grad = param_gradient(*args)
            raw.append(grad.copy())
            return grad

        def record_fed(theta, grad, state, lr):
            fed.append(grad.copy())
            return adam_step(theta, grad, state, lr)

        monkeypatch.setattr(training, "param_gradient", record_raw)
        monkeypatch.setattr(training, "adam_step", record_fed)
        ds = training.sample_dataset(vdp_system, vdp_hyper, 256, seed=9)
        cfg = TrainConfig(lr=1e-3, epochs=2, batch_size=64, clip_norm=clip,
                          holdout=0.0, seed=4)
        history = training.train(small_model, ds, cfg).history
        clip_frac = [e.clip_frac for e in history]
        assert len(raw) == len(fed) == 8
        norms = [np.linalg.norm(g) for g in raw]
        if clip < 1:
            assert min(norms) > clip and clip_frac == [1.0, 1.0]
            for g, f, nm in zip(raw, fed, norms):
                assert np.linalg.norm(f) <= clip * (1 + 1e-12)
                assert np.allclose(f, g * (clip / nm), rtol=1e-15, atol=0.0)
        else:
            assert max(norms) < clip and clip_frac == [0.0, 0.0]
            for g, f in zip(raw, fed):
                assert np.array_equal(f, g)
        assert [e.grad_norm_max for e in history] == [max(norms[:4]), max(norms[4:])]

    def test_adam_step_matches_textbook_update(self):
        rng = np.random.default_rng(19)
        theta = rng.normal(size=50)
        state = training.AdamState.zeros(50)
        ref, m, v = theta.copy(), np.zeros(50), np.zeros(50)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 3e-3
        for t in range(1, 6):
            grad = rng.normal(size=50)
            training.adam_step(theta, grad, state, lr)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            ref = ref - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            assert state.step == t
            assert np.allclose(state.m, m, rtol=1e-15, atol=0.0)
            assert np.allclose(state.v, v, rtol=1e-15, atol=0.0)
            assert np.allclose(theta, ref, rtol=1e-13, atol=1e-16)

    def test_continued_state_matches_uninterrupted_run(self, vdp_system, vdp_hyper):
        # 2 + 2 epochs through a saved and reloaded optimizer state, against 4
        ds = training.sample_dataset(vdp_system, vdp_hyper, 200, seed=20)
        cfg = TrainConfig(epochs=4, batch_size=64, seed=7)
        whole = make_model(vdp_hyper, seed=21)
        full = training.train(whole, ds, cfg)
        part = make_model(vdp_hyper, seed=21)
        first = training.train(part, ds, TrainConfig(epochs=2, batch_size=64, seed=7))
        assert first.optimizer.epochs == 2
        second = training.train(part, ds, TrainConfig(epochs=2, batch_size=64, seed=7),
                                first.optimizer)
        assert np.array_equal(part.get_params(), whole.get_params())
        # whole rows: the epoch numbers 0-3 along with the losses
        assert first.history + second.history == full.history
        assert [e.epoch for e in full.history] == [0, 1, 2, 3]
        assert np.array_equal(second.optimizer.m, full.optimizer.m)
        assert second.optimizer.step == full.optimizer.step == 12

    def test_divergence_guard(self, small_model, vdp_system, vdp_hyper):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 64, seed=10)
        cfg = TrainConfig(lr=1e3, epochs=50, batch_size=16, clip_norm=1e6, seed=5)
        with pytest.raises((TrainingDivergedError, FloatingPointError)):
            training.train(small_model, ds, cfg)

    def test_holdout_reported(self, small_model, vdp_system, vdp_hyper):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 100, seed=11)
        res = training.train(small_model, ds,
                             TrainConfig(epochs=2, batch_size=32, holdout=0.2, seed=6))
        assert len(res.history) == 2
        assert all(np.isfinite([e.holdout_loss for e in res.history]))

    def test_holdout_of_every_row_rejected(self, small_model, vdp_system, vdp_hyper):
        # round(0.9 * 2) = 2: the CLI checks this before it calls train
        ds = training.sample_dataset(vdp_system, vdp_hyper, 2, seed=0)
        with pytest.raises(ValueError, match="leaves no training samples"):
            training.train(small_model, ds, TrainConfig(holdout=0.9))

    def test_optimizer_state_of_another_size_rejected(self, small_model, vdp_system,
                                                      vdp_hyper):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 20, seed=0)
        size = small_model.get_params().size
        with pytest.raises(ValueError, match=f"has 5 entries, the model {size} parameters"):
            training.train(small_model, ds, TrainConfig(), training.AdamState.zeros(5))

    @pytest.mark.parametrize("kw", [
        {"lr": -1.0}, {"batch_size": 0}, {"clip_norm": 0.0}, {"holdout": 1.0},
        {"epochs": 1.5}, {"epochs": True}, {"batch_size": 2.5}, {"batch_size": False},
        {"lr": "x"}, {"lr": True}, {"clip_norm": None}, {"holdout": "0.1"},
        {"seed": 1.5}, {"seed": "a"}, {"seed": True}, {"seed": -1},
    ])
    def test_bad_config_rejected(self, kw):
        name, = kw
        with pytest.raises(ValueError, match=f"^{name} must be "):
            TrainConfig(**kw)

    def test_numpy_integers_accepted(self):
        cfg = TrainConfig(epochs=np.int64(2), batch_size=np.int32(8), seed=np.uint32(3))
        assert (cfg.epochs, cfg.batch_size, cfg.seed) == (2, 8, 3)


def nan_gv_output_bias(doc):
    """Set a checkpoint document's last parameter, gv's output bias, to NaN."""
    theta = np.frombuffer(base64.b64decode(doc["params"]), dtype="<f8").copy()
    theta[-1] = np.nan
    doc["params"] = training._encode_floats(theta)


class TestCheckpoint:
    def test_roundtrip_bit_identical_evaluation(self, tmp_path, small_model):
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path)
        back = training.load_checkpoint(path)[0]
        rng = np.random.default_rng(16)
        X = rng.uniform(-1.3, 1.3, (100, 2))
        U = rng.uniform(-5, 5, (100, 1))
        assert np.array_equal(back.eval_pieces(X, U)["fstar_data"],
                              small_model.eval_pieces(X, U)["fstar_data"])
        assert np.array_equal(back.lyapunov_batch(X), small_model.lyapunov_batch(X))
        assert np.array_equal(back.get_params(), small_model.get_params())

    def test_saved_model_is_the_set_parameters(self, tmp_path, small_model):
        # the networks a checkpoint is written from view the parameter vector
        theta = small_model.get_params() * 1.5
        small_model.set_params(theta)
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path)
        assert np.array_equal(training.load_checkpoint(path)[0].get_params(), theta)

    @pytest.mark.parametrize("mode", ["general", "affine"])
    def test_indented_layout_loads_bit_identically(self, tmp_path, vdp_hyper, mode):
        # checkpoints were once written by json.dump(doc, fh, indent=1)
        model = make_model(vdp_hyper, seed=18, mode=mode)
        path = tmp_path / "ck.json"
        training.save_checkpoint(model, path)
        assert len(path.read_text().splitlines()) == 1
        doc = json.loads(path.read_text())
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        back = training.load_checkpoint(path)[0]
        assert np.array_equal(back.get_params(), model.get_params())
        rng = np.random.default_rng(18)
        X = rng.uniform(-1.3, 1.3, (50, 2))
        U = rng.uniform(-5, 5, (50, 1))
        for U_ in (None, U):
            want = model.eval_pieces(X, U_)
            got = back.eval_pieces(X, U_)
            assert want.keys() == got.keys()
            for key in want:
                assert np.array_equal(got[key], want[key]), key

    def test_affine_roundtrip(self, tmp_path):
        hp = Hyper(u_lim=[2.0], x_lb=[-1.0, -1.0], x_ub=[1.0, 1.0])
        model = make_model(hp, seed=17, mode="affine")
        path = tmp_path / "ck.json"
        training.save_checkpoint(model, path)
        back = training.load_checkpoint(path)[0]
        assert back.mode == "affine"
        X = np.random.default_rng(17).uniform(-1, 1, (20, 2))
        assert np.array_equal(back.eval_pieces(X)["fstar_star"],
                              model.eval_pieces(X)["fstar_star"])

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["dims"]["gv"].__setitem__(-1, 2),
         r"gv must have \(input, output\) widths \(2, 1\), got \(2, 2\)"),
        (lambda doc: doc["dims"]["gv"].__setitem__(1, 8.7),
         r"gv layer widths must be a list of at least two positive integers, "
         r"got \[2, 8.7, 8, 8, 1\]"),
        (lambda doc: doc["dims"]["gv"].__setitem__(2, 0),
         r"gv layer widths must be .* positive integers, got \[2, 8, 0, 8, 1\]"),
        (lambda doc: doc["dims"]["gv"].__setitem__(2, True),
         r"gv layer widths must be .* positive integers, got \[2, 8, True, 8, 1\]"),
        (lambda doc: doc["dims"].__setitem__("gv", 5), "gv layer widths must be a list"),
        (lambda doc: doc.update(params="not base64!"), "^parameters:"),
        (lambda doc: doc.update(params=doc["params"][:-12]), "^parameters holds"),
        (nan_gv_output_bias, "^parameters has non-finite entries")],
        ids=["gv-out-width", "gv-width-not-integer", "gv-width-zero", "gv-width-bool",
             "gv-dims-not-a-list", "params-not-base64", "params-length", "gv-nan-bias"])
    def test_network_contradicting_its_role_is_format_error(self, tmp_path, small_model,
                                                            edit, message):
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=message):
            training.load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("alpha", True), ("v_cap", True), ("lambda", False), ("eps_pd", "0.5")])
    def test_hyper_that_is_not_a_number(self, tmp_path, small_model, key, value):
        # the config's type rule: true would pass every range check
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path)
        doc = json.loads(path.read_text())
        doc["hyper"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=f"must be a number, got {value!r}"):
            training.load_checkpoint(path)

    @pytest.mark.parametrize("key, value, message", [
        ("mode", "bogus", "unknown mode 'bogus'"),
        ("system", 3, "system must be a name, got 3")], ids=["mode", "system"])
    def test_mode_or_system_that_names_nothing(self, tmp_path, small_model, key, value,
                                               message):
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=f"checkpoint {path}: {message}"):
            training.load_checkpoint(path)

    def test_truncated_file_is_format_error(self, tmp_path, small_model):
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError, match="malformed checkpoint"):
            training.load_checkpoint(path)

    def test_altered_dims_is_shape_error(self, tmp_path, small_model):
        # a wider gv hidden layer has more parameters than the file stores
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path)
        doc = json.loads(path.read_text())
        doc["dims"]["gv"][1] += 1
        path.write_text(json.dumps(doc))
        size = small_model.get_params().size
        with pytest.raises(CheckpointError, match=f"^parameters holds {size} values, "
                                                  f"the model {size + 11} parameters"):
            training.load_checkpoint(path)

    def test_huge_dims_refused_before_any_allocation(self, tmp_path, small_model):
        # a file of a few KB naming a 2000-wide gf: the loader refuses its
        # 548 parameters from the widths, without the 64 MB such a gf needs
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path)
        doc = json.loads(path.read_text())
        doc["dims"]["gf"] = [3, 2000, 2000, 2000, 2]
        doc["params"] = training._encode_floats(np.zeros(548))
        path.write_text(json.dumps(doc))
        gf = net_slices(small_model)["gf"]
        size = 8_016_002 + small_model.get_params().size - (gf.stop - gf.start)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match=f"^parameters holds 548 values, "
                                                      f"the model {size} parameters$"):
                training.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_version_mismatch(self, tmp_path, small_model):
        # formats 1 and 2 stored per-layer float lists; no reader is kept
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path)
        doc = json.loads(path.read_text())
        for version in (1, 2, 999):
            doc["format_version"] = version
            path.write_text(json.dumps(doc))
            with pytest.raises(CheckpointError,
                               match=f"^checkpoint version {version}, expected 3$"):
                training.load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text('{"something": "else"}')
        with pytest.raises(CheckpointError, match="is not a checkpoint document"):
            training.load_checkpoint(path)

    @pytest.mark.parametrize("value", [[], None], ids=["list", "null"])
    def test_networks_not_an_object(self, tmp_path, small_model, value):
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path)
        doc = json.loads(path.read_text())
        doc["dims"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=f"{path}: dims must be an object"):
            training.load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda dims: dims.pop("gu"), lambda dims: dims.update(gf1=[2, 8, 2])],
        ids=["missing", "extra"])
    def test_dims_naming_other_networks(self, tmp_path, small_model, edit):
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path)
        doc = json.loads(path.read_text())
        edit(doc["dims"])
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError,
                           match=f"{path}: dims must be an object naming gf, gu, gv, got"):
            training.load_checkpoint(path)

    def test_written_document_holds_one_parameter_vector(self, tmp_path, small_model):
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path)
        doc = json.loads(path.read_text())
        assert list(doc) == ["format_version", "mode", "hyper", "dims", "params"]
        assert doc["format_version"] == 3
        assert doc["dims"] == {name: net.dims for name, net in small_model.nets.items()}
        assert list(doc["dims"]) == ["gf", "gu", "gv"]
        assert (base64.b64decode(doc["params"])
                == small_model.get_params().astype("<f8").tobytes())

    def test_mixed_widths_and_srelu_width_roundtrip(self, tmp_path, vdp_system):
        # the smoothed-ReLU width is not stored: it comes back from hyper.d
        hp = Hyper.for_system(vdp_system, d=0.01)
        model = StableDynamicsModel.initialize(
            hp, seed=23, widths={"gf": 7, "gu": 5, "gv": 9}, depth=2)
        jitter_params(model, np.random.default_rng(23))
        path = tmp_path / "ck.json"
        training.save_checkpoint(model, path)
        back = training.load_checkpoint(path)[0]
        assert np.array_equal(back.get_params(), model.get_params())
        assert {k: n.dims for k, n in back.nets.items()} == {
            "gf": [3, 7, 7, 2], "gu": [2, 5, 5, 1], "gv": [2, 9, 9, 1]}
        assert back.hyper.d == 0.01
        X = np.random.default_rng(24).uniform(-1.3, 1.3, (40, 2))
        U = np.random.default_rng(25).uniform(-5, 5, (40, 1))
        want, got = model.eval_pieces(X, U), back.eval_pieces(X, U)
        assert want.keys() == got.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    def test_optimizer_state_and_system_roundtrip(self, tmp_path, small_model,
                                                  vdp_system, vdp_hyper):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 100, seed=22)
        state = training.train(small_model, ds, TrainConfig(epochs=1, batch_size=32)).optimizer
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path, system="vdp", optimizer=state)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 3 and doc["system"] == "vdp"
        assert isinstance(doc["optimizer"]["m"], str)
        model, system, back = training.load_checkpoint(path)
        assert system == "vdp"
        assert np.array_equal(model.get_params(), small_model.get_params())
        assert (back.step, back.epochs) == (state.step, state.epochs) == (3, 1)
        assert np.array_equal(back.m, state.m) and np.array_equal(back.v, state.v)

    def test_file_without_state_loads_none_for_it(self, tmp_path, small_model):
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path)
        assert not {"system", "optimizer"} & json.loads(path.read_text()).keys()
        model, system, state = training.load_checkpoint(path)
        assert system is None and state is None
        assert np.array_equal(model.get_params(), small_model.get_params())

    @pytest.mark.parametrize("edit, message", [
        (lambda opt, size: opt.update(step=-1),
         "optimizer step must be a nonnegative integer, got -1"),
        (lambda opt, size: opt.update(epochs=1.5),
         "optimizer epochs must be a nonnegative integer, got 1.5"),
        (lambda opt, size: opt.update(m="not base64!"), "optimizer m:"),
        (lambda opt, size: opt.update(v="AAAAAAAA8P8="), "optimizer v holds 1 values"),
        (lambda opt, size: opt.update(v=None), "optimizer v:"),
        (lambda opt, size: opt.update(m=training._encode_floats(np.full(size, np.nan))),
         "optimizer m has non-finite entries"),
        (lambda opt, size: opt.update(v=training._encode_floats(np.full(size, -1.0))),
         "optimizer v has negative entries"),
        (lambda opt, size: opt.pop("step"), "optimizer state malformed: 'step'")],
        ids=["step", "epochs", "m", "v-size", "v-type", "m-nan", "v-negative",
             "step-missing"])
    def test_malformed_optimizer_state(self, tmp_path, small_model, edit, message):
        path = tmp_path / "ck.json"
        size = small_model.get_params().size
        state = training.AdamState(np.zeros(size), np.ones(size), 5, 1)
        training.save_checkpoint(small_model, path, optimizer=state)
        doc = json.loads(path.read_text())
        edit(doc["optimizer"], size)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=message):
            training.load_checkpoint(path)
