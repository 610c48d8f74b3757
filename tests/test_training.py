import json

import numpy as np
import pytest

from stabledyn import training
from stabledyn.models import Hyper, StableDynamicsModel
from stabledyn.systems import DomainError, SystemSpec, get_system
from stabledyn.training import (
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointVersionError,
    Dataset,
    TrainConfig,
    TrainingDivergedError,
)

from conftest import SMALL_WIDTHS, jitter_params, make_model, seam_margins


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
        model2 = StableDynamicsModel(small_model.nets, hp2)
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
        with pytest.raises(ValueError):
            training.loss(small_model, ds)

    @pytest.mark.parametrize("mode", ["general", "affine"])
    def test_loss_value_matches_tape(self, vdp_system, vdp_hyper, mode):
        # the tape records the origin nodes inline, loss_value reads the numpy
        # cache; jittered biases keep the origin values away from zero
        model = jitter_params(make_model(vdp_hyper, seed=11, mode=mode),
                              np.random.default_rng(4))
        ds = training.sample_dataset(vdp_system, vdp_hyper, 64, seed=3)
        assert training.loss_value(model, ds) == training.loss(model, ds).value

    def test_gradient_matches_finite_differences(self, vdp_system, vdp_hyper):
        rng = np.random.default_rng(9)
        model = jitter_params(make_model(vdp_hyper, seed=11), rng)
        h = 1e-5
        for trial in range(4):
            ds = training.sample_dataset(vdp_system, vdp_hyper, 5, seed=100 + trial)
            if seam_margins(model, ds.X, ds.U) < 10 * h:
                continue
            graph = training.loss(model, ds)
            grad = graph.param_gradient()
            theta = model.get_params()
            for c in rng.choice(model.layout.size, 12, replace=False):
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

    def test_gradient_flows_through_kernel(self, vdp_system, vdp_hyper):
        # with the residual frozen (data from a detached copy), moving gu still
        # changes the loss through k(u, u*(x)) unless the kernel is flat
        rng = np.random.default_rng(12)
        model = jitter_params(make_model(vdp_hyper, seed=13), rng)
        ds = training.sample_dataset(vdp_system, vdp_hyper, 64, seed=5)
        grad = training.loss(model, ds).param_gradient()
        gu_blocks = [b for b in model.layout.blocks if b.net == "gu"]
        gu_norm = sum(np.sum(grad[b.offset:b.offset + b.size] ** 2) for b in gu_blocks)
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
        assert result.train_losses[-1] < result.train_losses[0]

    def test_deterministic_per_seed(self, vdp_system, vdp_hyper):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 256, seed=8)
        cfg = TrainConfig(lr=1e-4, epochs=3, batch_size=64, seed=3)
        runs = []
        for _ in range(2):
            model = make_model(vdp_hyper, seed=15)
            res = training.train(model, ds, cfg)
            runs.append((model.get_params(), res.train_losses, res.holdout_losses))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1] and runs[0][2] == runs[1][2]

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
        result = training.train(small_model, ds, cfg)
        assert len(raw) == len(fed) == 8
        norms = [np.linalg.norm(g) for g in raw]
        if clip < 1:
            assert min(norms) > clip and result.clip_frac == [1.0, 1.0]
            for g, f, nm in zip(raw, fed, norms):
                assert np.linalg.norm(f) <= clip * (1 + 1e-12)
                assert np.allclose(f, g * (clip / nm), rtol=1e-15, atol=0.0)
        else:
            assert max(norms) < clip and result.clip_frac == [0.0, 0.0]
            for g, f in zip(raw, fed):
                assert np.array_equal(f, g)
        assert result.grad_norm_max == [max(norms[:4]), max(norms[4:])]

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
        assert first.train_losses + second.train_losses == full.train_losses
        assert first.holdout_losses + second.holdout_losses == full.holdout_losses
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
        assert len(res.train_losses) == len(res.holdout_losses) == 2
        assert all(np.isfinite(res.holdout_losses))

    @pytest.mark.parametrize("kw", [
        {"lr": -1.0}, {"batch_size": 0}, {"clip_norm": 0.0}, {"holdout": 1.0},
    ])
    def test_bad_config_rejected(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


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

    @pytest.mark.parametrize("net, field, value, message", [
        ("gu", "activations", ["tanh", "tanh", "tanh", "identity"], "gu must have"),
        ("gv", "activations", ["tanh", "smoothed_relu", "smoothed_relu", "tanh"],
         "gv must have"),
        ("gv", "srelu_width", 0.01, "gv srelu_width 0.01 differs")],
        ids=["gu-output", "gv-hidden", "gv-srelu-width"])
    def test_network_contradicting_its_role_is_format_error(self, tmp_path, small_model,
                                                            net, field, value, message):
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path)
        doc = json.loads(path.read_text())
        doc["networks"][net][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointFormatError, match=message):
            training.load_checkpoint(path)

    def test_truncated_file_is_format_error(self, tmp_path, small_model):
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointFormatError):
            training.load_checkpoint(path)

    def test_altered_dims_is_shape_error(self, tmp_path, small_model):
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path)
        doc = json.loads(path.read_text())
        doc["networks"]["gv"]["dims"][1] += 1
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointShapeError):
            training.load_checkpoint(path)

    def test_version_mismatch(self, tmp_path, small_model):
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointVersionError):
            training.load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text('{"something": "else"}')
        with pytest.raises(CheckpointFormatError):
            training.load_checkpoint(path)

    def test_optimizer_state_and_system_roundtrip(self, tmp_path, small_model,
                                                  vdp_system, vdp_hyper):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 100, seed=22)
        state = training.train(small_model, ds, TrainConfig(epochs=1, batch_size=32)).optimizer
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path, system="vdp", optimizer=state)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 2 and doc["system"] == "vdp"
        assert isinstance(doc["optimizer"]["m"], str)
        model, system, back = training.load_checkpoint(path)
        assert system == "vdp"
        assert np.array_equal(model.get_params(), small_model.get_params())
        assert (back.step, back.epochs) == (state.step, state.epochs) == (3, 1)
        assert np.array_equal(back.m, state.m) and np.array_equal(back.v, state.v)

    def test_format_one_loads_without_state(self, tmp_path, small_model):
        path = tmp_path / "ck.json"
        training.save_checkpoint(small_model, path)
        doc = json.loads(path.read_text())
        assert "system" not in doc and "optimizer" not in doc
        doc["format_version"] = 1
        path.write_text(json.dumps(doc))
        model, system, state = training.load_checkpoint(path)
        assert system is None and state is None
        assert np.array_equal(model.get_params(), small_model.get_params())

    @pytest.mark.parametrize("entry, error", [
        ({"step": -1}, CheckpointFormatError), ({"epochs": 1.5}, CheckpointFormatError),
        ({"m": "not base64!"}, CheckpointFormatError),
        ({"v": "AAAAAAAA8P8="}, CheckpointShapeError),
        ({"v": None}, CheckpointFormatError)],
        ids=["step", "epochs", "m", "v-size", "v-type"])
    def test_malformed_optimizer_state(self, tmp_path, small_model, entry, error):
        path = tmp_path / "ck.json"
        size = small_model.layout.size
        state = training.AdamState(np.zeros(size), np.ones(size), 5, 1)
        training.save_checkpoint(small_model, path, optimizer=state)
        doc = json.loads(path.read_text())
        doc["optimizer"].update(entry)
        path.write_text(json.dumps(doc))
        with pytest.raises(error):
            training.load_checkpoint(path)
