import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from scipy.spatial import cKDTree

from stabledyn import sim, training, verify
from stabledyn.models import Hyper, row_blocks
from stabledyn.systems import SystemSpec, get_system

from conftest import fill_output_layer, make_model, model_from_networks, model_layers
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

    def test_ablated_residual_is_the_graphs(self, vdp_hyper):
        # the negative control reads the nominal loop's resid off the projected
        # graph, on the same samples and blocks as the projected check
        hp = vdp_hyper
        for mode in ("general", "affine"):
            model = make_model(hp, seed=3, mode=mode)
            rep = verify.check_decrease(model, 3000, seed=1, ablate_projection=True)
            X = np.random.default_rng(1).uniform(hp.x_lb, hp.x_ub, size=(3000, hp.n))
            X = X[np.linalg.norm(X, axis=1) >= verify.ORIGIN_EXCLUSION]
            resid, n_floor = [], 0
            for sl in row_blocks(len(X)):
                pieces = model.eval_pieces(X[sl])
                ok = np.sum(pieces["grad_v"] ** 2, axis=1) >= hp.eps_proj
                n_floor += int(np.sum(~ok))
                resid.append(pieces["resid"][ok, 0])
            assert rep.max_residual == np.max(np.concatenate(resid)) > 0.0, mode
            assert (rep.n_floor, rep.n_used) == (n_floor, len(X) - n_floor), mode

    def test_deterministic_per_seed(self, small_model):
        a = verify.check_decrease(small_model, 2000, seed=9)
        b = verify.check_decrease(small_model, 2000, seed=9)
        assert a == b

    def test_report_serializes(self, small_model):
        rep = verify.check_decrease(small_model, 100, seed=0)
        doc = json.loads(json.dumps(asdict(rep)))
        assert doc["estimate_kind"] == "sampled"
        assert doc["n_samples"] == 100

    def test_positive_sample_count_required(self, small_model, vdp_system):
        with pytest.raises(ValueError):
            verify.check_decrease(small_model, 0, seed=0)
        # a floor above every ||grad V||^2 leaves no sample for the max
        hp = Hyper.for_system(vdp_system, eps_proj=1e6)
        with pytest.raises(ValueError,
                           match=r"decrease check kept none of 50 samples: "
                                 r"0 near the origin, 50 under the eps_proj floor"):
            verify.check_decrease(make_model(hp, seed=0), 50, seed=0)


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
        layers = model_layers(make_model(vdp_hyper, seed=7))
        model = model_from_networks(vdp_hyper, dict(layers, gv=constant_network(2, 1, 0.25)))
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
        # the sphere r1 = r2 has no volume, so the annulus keeps no sample
        with pytest.raises(ValueError, match=r"quad check kept 0 of 100 annulus samples "
                                             r"and \d+ of 100 box samples"):
            verify.estimate_quadratic_ratio(small_model, 1.0, 1.0, 100, seed=0)

    def test_monotone_in_sample_count(self, small_model):
        small = verify.estimate_quadratic_ratio(small_model, 0.2, 1.3, 2000, seed=5)
        large = verify.estimate_quadratic_ratio(small_model, 0.2, 1.3, 8000, seed=5)
        assert large.M >= small.M
        assert large.c2_global >= small.c2_global

    def test_nonfinite_value_named(self, small_model):
        # max() over a NaN ratio would silently skip it; the audit stops instead
        fill_output_layer(small_model, "gv", bias=np.nan)
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

    def test_memory_does_not_grow_with_samples(self, vdp_system, vdp_hyper, small_model):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 2000, seed=3)
        peaks = []
        for n_samples in (5000, 50000):
            tracemalloc.start()
            try:
                verify.certificate(small_model, vdp_system, ds, 0.1, n_samples, seed=4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1e6

    def test_empty_dataset_rejected(self, vdp_system, vdp_hyper, small_model):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 5, seed=0).subset([])
        with pytest.raises(ValueError):
            verify.certificate(small_model, vdp_system, ds, 0.1, 100, seed=0)

    @pytest.mark.parametrize("r", [0.0, -0.1, float("nan")])
    def test_nonpositive_radius_rejected(self, vdp_system, vdp_hyper, small_model, r):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 5, seed=0)
        with pytest.raises(ValueError, match=f"radius must be positive, got {r}"):
            verify.certificate(small_model, vdp_system, ds, r, 100, seed=0)

    def test_report_serializes_with_provenance(self, vdp_system, vdp_hyper, small_model):
        ds = training.sample_dataset(vdp_system, vdp_hyper, 100, seed=1)
        rep = verify.certificate(small_model, vdp_system, ds, 0.1, 200, seed=2)
        doc = json.loads(json.dumps(asdict(rep)))
        assert "sampled" in doc["estimate_kind"]
        assert doc["seed"] == 2 and doc["n_data"] == 100


def kdtree_delta(model, dataset, n_samples, seed):
    """The certificate's delta, with cKDTree as the nearest-neighbour search."""
    hp = model.hyper
    X = np.random.default_rng(np.random.SeedSequence([seed, 1])).uniform(
        hp.x_lb, hp.x_ub, (n_samples, hp.n))
    U = np.vstack([model.controller_batch(X[sl]) for sl in row_blocks(n_samples)])
    tree = cKDTree(np.hstack((dataset.X, dataset.U)))
    return float(np.max(tree.query(np.hstack((X, U)))[0]))


class TestCellGrid:
    """The certificate's nearest-neighbour search returns cKDTree's distances
    bit for bit."""

    @staticmethod
    def assert_matches_kdtree(points, queries):
        got = verify.CellGrid(points).nearest(queries)
        assert np.array_equal(got, cKDTree(points).query(queries)[0])

    @pytest.mark.parametrize("k", [1, 3, 5, 9])  # 9: cKDTree sums in four lanes
    def test_uniform(self, k):
        rng = np.random.default_rng(k)
        self.assert_matches_kdtree(rng.uniform(-1, 1, (2000, k)) * rng.uniform(0.1, 10, k),
                                   rng.uniform(-10, 10, (1000, k)))

    def test_duplicate_rows(self):
        rng = np.random.default_rng(1)
        points = np.repeat(rng.uniform(-1, 1, (50, 3)), 40, axis=0)
        self.assert_matches_kdtree(points, np.vstack((points[::7], rng.uniform(-1, 1, (500, 3)))))

    def test_single_row(self):
        rng = np.random.default_rng(2)
        self.assert_matches_kdtree(np.array([[0.3, -0.2, 1.0]]), rng.normal(size=(500, 3)))

    def test_queries_outside_the_data_box(self):
        rng = np.random.default_rng(3)
        self.assert_matches_kdtree(rng.uniform(-1, 1, (3000, 3)),
                                   rng.uniform(-4, 4, (2000, 3)))

    def test_affine_queries_pinned_at_the_control_limit(self, vdp_system, vdp_hyper):
        model = make_model(vdp_hyper, seed=16, mode="affine")
        ds = training.sample_dataset(vdp_system, vdp_hyper, 3000, seed=16)
        X = np.random.default_rng(17).uniform(vdp_hyper.x_lb, vdp_hyper.x_ub, (2000, 2))
        U = model.controller_batch(X)
        assert np.all(np.abs(U) == vdp_hyper.u_lim)  # just outside the data's u range
        self.assert_matches_kdtree(np.hstack((ds.X, ds.U)), np.hstack((X, U)))

    @pytest.mark.parametrize("mode", ["general", "affine"])
    def test_certificate_delta(self, vdp_system, vdp_hyper, mode):
        model = make_model(vdp_hyper, seed=18, mode=mode)
        ds = training.sample_dataset(vdp_system, vdp_hyper, 2000, seed=18)
        rep = verify.certificate(model, vdp_system, ds, r=0.1, n_samples=1500, seed=19)
        assert rep.delta == kdtree_delta(model, ds, 1500, 19)

    @pytest.mark.parametrize("layout", ["clustered", "constant_u"])
    def test_skewed_data_in_uniform_memory(self, vdp_system, vdp_hyper, small_model, layout):
        # a cell holding most rows, or a column of one value, must not widen
        # what a call gathers or the cell table
        uniform = training.sample_dataset(vdp_system, vdp_hyper, 4000, seed=20)
        X, U = uniform.X.copy(), uniform.U.copy()
        if layout == "clustered":
            X[40:] = [0.3, -0.4] + 1e-6 * X[40:]
            U[40:] = 1.0 + 1e-6 * U[40:]
        else:
            U[:] = 2.0
        skewed = training.Dataset(X, U, vdp_system.dynamics(X, U))
        peaks = []
        for ds in (uniform, skewed):
            tracemalloc.start()
            try:
                rep = verify.certificate(small_model, vdp_system, ds, 0.1, 3000, seed=21)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rep.delta == kdtree_delta(small_model, ds, 3000, 21)
        assert abs(peaks[1] - peaks[0]) < 1e6


class TestStreamedSamples:
    """The decrease and quad checks draw their samples a block at a time, as
    the certificate does."""

    @pytest.mark.parametrize("check", ["decrease", "quad"])
    def test_sampled_check_memory_does_not_grow(self, small_model, check):
        run = {"decrease": lambda n: verify.check_decrease(small_model, n, seed=4),
               "quad": lambda n: verify.estimate_quadratic_ratio(small_model, 0.1, 1.3,
                                                                 n, seed=4)}[check]
        peaks = []
        for n_samples in (5000, 50000):
            tracemalloc.start()
            try:
                run(n_samples)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1e6


class TestDefaultRadius:
    def test_five_percent_of_corner(self, vdp_hyper):
        expect = 0.05 * np.linalg.norm([1.3, 1.3])
        assert verify.default_radius(vdp_hyper) == pytest.approx(expect, rel=1e-12)
