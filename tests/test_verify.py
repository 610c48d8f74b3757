import json
from dataclasses import asdict

import numpy as np
import pytest

from stabledyn import sim, training, verify
from stabledyn.models import Hyper, StableDynamicsModel
from stabledyn.systems import SystemSpec, get_system

from conftest import make_model
from test_models import constant_network


class TestCheckDecrease:
    def test_random_models_satisfy_bound(self, vdp_hyper):
        for seed in range(5):
            model = make_model(vdp_hyper, seed=seed)
            rep = verify.check_decrease(model, 3000, seed=100 + seed)
            assert rep.max_residual <= 1e-9
            assert rep.n_used + rep.n_floor <= rep.n_samples

    def test_ablated_model_violates(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=3)
        rep = verify.check_decrease(model, 3000, seed=1, ablate_projection=True)
        assert rep.ablated
        assert rep.max_residual > 0.0

    def test_deterministic_per_seed(self, small_model):
        a = verify.check_decrease(small_model, 2000, seed=9)
        b = verify.check_decrease(small_model, 2000, seed=9)
        assert a == b

    def test_report_serializes(self, small_model):
        rep = verify.check_decrease(small_model, 100, seed=0)
        doc = json.loads(json.dumps(asdict(rep)))
        assert doc["estimate_kind"] == "sampled"
        assert doc["n_samples"] == 100

    def test_positive_sample_count_required(self, small_model):
        with pytest.raises(ValueError):
            verify.check_decrease(small_model, 0, seed=0)


class TestChunkCoverage:
    """The audits' block loops see every sample exactly once."""

    N = 3 * verify.BLOCK_ROWS + 7  # three full blocks and a partial one

    def test_decrease_counts_and_max(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=13)
        rep = verify.check_decrease(model, self.N, seed=21)
        X = np.random.default_rng(21).uniform(vdp_hyper.x_lb, vdp_hyper.x_ub, (self.N, 2))
        X = X[np.linalg.norm(X, axis=1) >= verify.ORIGIN_EXCLUSION]
        assert rep.n_used + rep.n_floor == len(X)
        pieces = model.eval_pieces(X)
        ok = np.sum(pieces["grad_v"] ** 2, axis=1) >= vdp_hyper.eps_proj
        resid = (np.sum(pieces["grad_v"] * pieces["fstar_star"], axis=1)
                 + vdp_hyper.alpha * pieces["v"][:, 0])
        assert rep.n_used == int(ok.sum())
        assert rep.max_residual == pytest.approx(float(resid[ok].max()), rel=1e-12, abs=0)

    def test_quad_maxima(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=14)
        r1, r2, seed = 0.2, 1.3, 22
        rep = verify.estimate_quadratic_ratio(model, r1, r2, self.N, seed=seed)
        cube = np.random.default_rng(np.random.SeedSequence([seed, 1])).uniform(
            -r2, r2, (self.N, 2))
        norms = np.linalg.norm(cube, axis=1)
        box = np.random.default_rng(np.random.SeedSequence([seed, 2])).uniform(
            vdp_hyper.x_lb, vdp_hyper.x_ub, (self.N, 2))
        for X, sup in ((cube[(norms >= r1) & (norms <= r2)], rep.M),
                       (box[np.linalg.norm(box, axis=1) >= verify.ORIGIN_EXCLUSION],
                        rep.c2_global)):
            assert sup == float(np.max(model.lyapunov_batch(X) / np.sum(X ** 2, axis=1)))

    def test_certificate_lipschitz_pairs(self, vdp_system, vdp_hyper):
        model = make_model(vdp_hyper, seed=15)
        ds = training.sample_dataset(vdp_system, vdp_hyper, 200, seed=23)
        seed = 24
        rep = verify.certificate(model, vdp_system, ds, r=0.06, n_samples=self.N, seed=seed)
        lo = np.concatenate((vdp_hyper.x_lb, -vdp_hyper.u_lim))
        hi = np.concatenate((vdp_hyper.x_ub, vdp_hyper.u_lim))
        Z = np.random.default_rng(np.random.SeedSequence([seed, 3])).uniform(lo, hi, (self.N, 3))
        dirs = np.random.default_rng(np.random.SeedSequence([seed, 4])).standard_normal(Z.shape)
        Z2 = Z + dirs * (verify.LIPSCHITZ_SEPARATION / np.linalg.norm(dirs, axis=1, keepdims=True))
        sep = np.linalg.norm(Z2 - Z, axis=1)
        df = vdp_system.dynamics(Z[:, :2], Z[:, 2:]) - vdp_system.dynamics(Z2[:, :2], Z2[:, 2:])
        dfs = (model.eval_pieces(Z[:, :2], Z[:, 2:])["fstar_data"]
               - model.eval_pieces(Z2[:, :2], Z2[:, 2:])["fstar_data"])
        assert rep.L_f == float(np.max(np.linalg.norm(df, axis=1) / sep))
        assert rep.L_fstar == pytest.approx(float(np.max(np.linalg.norm(dfs, axis=1) / sep)),
                                            rel=1e-12, abs=0)


class TestDecayBound:
    def test_origin_trajectory_passes(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=4)
        traj = sim.rollout_many(model, model, np.zeros((1, 2)), T=0.2, h=1e-3)[0]
        rep = verify.decay_bound_check(traj, vdp_hyper)
        assert rep.passed

    def test_envelope_respected_before_floor(self, vdp_hyper):
        # truncate the rollout to the segment where the projection denominator
        # never floors; there the construction guarantees the envelope
        model = make_model(vdp_hyper, seed=5, small=False)
        traj = sim.rollout_many(model, model, np.array([[1.0, 1.0]]), T=3.0, h=1e-3)[0]
        gn2 = np.sum(model.eval_pieces(traj.states)["grad_v"] ** 2, axis=1)
        floored = np.flatnonzero(gn2 < vdp_hyper.eps_proj)
        stop = floored[0] if len(floored) else len(traj)
        clipped = sim.Trajectory(
            times=traj.times[:stop], states=traj.states[:stop],
            controls=traj.controls[:stop], v_trace=traj.v_trace[:stop],
            norm_trace=traj.norm_trace[:stop])
        rep = verify.decay_bound_check(clipped, vdp_hyper)
        assert rep.passed, rep.worst_v_ratio

    def test_inflated_trace_fails(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=6)
        traj = sim.rollout_many(model, model, np.array([[0.8, -0.2]]), T=1.0, h=1e-3)[0]
        bad = sim.Trajectory(
            times=traj.times, states=traj.states, controls=traj.controls,
            v_trace=traj.v_trace * np.exp(+vdp_hyper.alpha * traj.times),
            norm_trace=traj.norm_trace)
        rep = verify.decay_bound_check(bad, vdp_hyper)
        assert not rep.passed
        assert rep.worst_v_ratio > 1.02


class TestQuadraticRatio:
    def test_constant_gv_gives_exact_floor(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=7)
        model.nets["gv"] = constant_network(2, 1, 0.25, out_activation="tanh")
        model = StableDynamicsModel(model.nets, vdp_hyper)
        rep = verify.estimate_quadratic_ratio(model, 0.2, 1.0, 20000, seed=2)
        assert rep.M == vdp_hyper.eps_pd
        assert rep.c2_global == vdp_hyper.eps_pd
        assert rep.c1 == vdp_hyper.eps_pd

    def test_floor_always_respected(self, vdp_hyper):
        for seed in range(4):
            model = make_model(vdp_hyper, seed=seed)
            rep = verify.estimate_quadratic_ratio(model, 0.2, 1.0, 5000, seed=3)
            assert rep.M >= vdp_hyper.eps_pd
            assert rep.c1 <= rep.c2_global

    def test_capped_gv_bounds_global_ratio(self, vdp_hyper):
        # fresh zero-bias networks have g_V(0)=0, so the smoothed-ReLU term is
        # capped by v_cap - d/2 and the ratio by eps_pd + cap/r1^2
        r1 = 0.3
        for seed in range(4):
            model = make_model(vdp_hyper, seed=seed)
            rep = verify.estimate_quadratic_ratio(model, r1, 1.0, 5000, seed=4)
            cap = vdp_hyper.eps_pd + (vdp_hyper.v_cap - vdp_hyper.d / 2) / r1**2
            assert rep.M <= cap

    def test_annulus_ordering_enforced(self, small_model):
        with pytest.raises(ValueError):
            verify.estimate_quadratic_ratio(small_model, 1.0, 0.5, 100, seed=0)

    def test_monotone_in_sample_count(self, small_model):
        small = verify.estimate_quadratic_ratio(small_model, 0.2, 1.3, 2000, seed=5)
        large = verify.estimate_quadratic_ratio(small_model, 0.2, 1.3, 8000, seed=5)
        assert large.M >= small.M
        assert large.c2_global >= small.c2_global

    def test_nonfinite_value_named(self, small_model):
        # max() over a NaN ratio would silently skip it; the audit stops instead
        small_model.nets["gv"].biases[-1][:] = np.nan
        small_model.invalidate_cache()
        with pytest.raises(FloatingPointError, match="non-finite 'v'"):
            verify.estimate_quadratic_ratio(small_model, 0.2, 1.0, 500, seed=0)


class TestCertificate:
    @pytest.fixture
    def trained_free_setup(self, vdp_hyper):
        """A 'perfectly learned' plant: the true system IS the model."""
        model = make_model(vdp_hyper, seed=8)
        plant = SystemSpec(
            name="model-as-plant", params={},
            x_lb=vdp_hyper.x_lb, x_ub=vdp_hyper.x_ub, u_lim=vdp_hyper.u_lim,
            _fn=lambda x, u, **kw: model.eval_pieces(x, u)["fstar_data"])
        return model, plant

    def test_zero_model_error_when_plant_is_model(self, trained_free_setup, vdp_hyper):
        model, plant = trained_free_setup
        ds = training.sample_dataset(plant, vdp_hyper, 400, seed=6)
        rep = verify.certificate(model, plant, ds, r=0.1, n_samples=2000, seed=7)
        assert rep.e == 0.0
        assert rep.lhs == pytest.approx((rep.L_f + rep.L_fstar) * rep.delta, rel=1e-15)

    def test_single_far_sample_fails_certificate(self, vdp_system, vdp_hyper):
        model = make_model(vdp_hyper, seed=9)
        ds = training.sample_dataset(vdp_system, vdp_hyper, 50000, seed=8).subset([0])
        rep = verify.certificate(model, vdp_system, ds, r=0.1, n_samples=3000, seed=9)
        assert rep.delta > 0.5
        assert not rep.holds

    def test_holds_is_exactly_the_predicate(self, vdp_system, vdp_hyper):
        model = make_model(vdp_hyper, seed=10)
        ds = training.sample_dataset(vdp_system, vdp_hyper, 500, seed=10)
        rep = verify.certificate(model, vdp_system, ds, r=0.06, n_samples=1000, seed=11)
        assert rep.holds == (rep.lhs < rep.rhs)

    def test_e_matches_direct_subtraction(self, vdp_system, vdp_hyper):
        model = make_model(vdp_hyper, seed=11)
        ds = training.sample_dataset(vdp_system, vdp_hyper, 800, seed=12)
        rep = verify.certificate(model, vdp_system, ds, r=0.06, n_samples=500, seed=13)
        direct = np.sqrt(np.sum(
            (vdp_system.dynamics(ds.X, ds.U) - model.eval_pieces(ds.X, ds.U)["fstar_data"]) ** 2,
            axis=1)).max()
        assert rep.e == direct

    def test_monotonicity_in_dataset_and_samples(self, vdp_system, vdp_hyper):
        model = make_model(vdp_hyper, seed=12)
        big = training.sample_dataset(vdp_system, vdp_hyper, 2000, seed=14)
        small_ds = big.subset(np.arange(500))
        r = verify.default_radius(vdp_hyper)
        rep_small = verify.certificate(model, vdp_system, small_ds, r, 1500, seed=15)
        rep_big = verify.certificate(model, vdp_system, big, r, 1500, seed=15)
        assert rep_big.delta <= rep_small.delta  # superset data never increases delta
        rep_few = verify.certificate(model, vdp_system, big, r, 500, seed=15)
        assert rep_big.delta >= rep_few.delta    # more probes never decrease it
        assert rep_big.M_r >= rep_few.M_r
        assert rep_big.L_f >= rep_few.L_f
        assert rep_big.L_fstar >= rep_few.L_fstar

    def test_empty_dataset_rejected(self, vdp_system, vdp_hyper, small_model):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 5, seed=0).subset([])
        with pytest.raises(ValueError):
            verify.certificate(small_model, vdp_system, ds, 0.1, 100, seed=0)

    def test_report_serializes_with_provenance(self, vdp_system, vdp_hyper, small_model):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 100, seed=1)
        rep = verify.certificate(small_model, vdp_system, ds, 0.1, 200, seed=2)
        doc = json.loads(json.dumps(asdict(rep)))
        assert "sampled" in doc["estimate_kind"]
        assert doc["seed"] == 2 and doc["n_data"] == 100


class TestDefaultRadius:
    def test_five_percent_of_corner(self, vdp_hyper):
        expect = 0.05 * np.linalg.norm([1.3, 1.3])
        assert verify.default_radius(vdp_hyper) == pytest.approx(expect, rel=1e-12)
