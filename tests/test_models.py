import re

import numpy as np
import pytest
from scipy.optimize import minimize

import stabledyn
from stabledyn.diffcore import NumpyOps, Tape, _srelu_raw
from stabledyn.models import NETWORKS, Hyper, StableDynamicsModel, projection_shift

from conftest import (SMALL_WIDTHS, apply_net, fill_output_layer, jitter_params, make_model,
                      model_from_networks, model_layers)

ORIGIN = np.zeros((1, 2))


def model_dims(model):
    """Each network's layer widths, as a checkpoint stores them."""
    return {name: net.dims for name, net in model.nets.items()}


def constant_network(in_dim, out_dim, value):
    """Single affine layer with zero weights: its role's output activation of
    the constant bias."""
    return [(np.zeros((out_dim, in_dim)), np.full(out_dim, float(value)))]


class TestHyper:
    def test_beta_default_rule(self, vdp_system):
        hp = Hyper.for_system(vdp_system)
        assert hp.beta == pytest.approx(5.0 / 5.0)
        hp2 = Hyper(u_lim=[2.0, 10.0], x_lb=[-1, -1], x_ub=[1, 1])
        assert hp2.beta == pytest.approx(0.5)

    def test_explicit_beta_kept(self, vdp_system):
        hp = Hyper.for_system(vdp_system, beta=3.0)
        assert hp.beta == 3.0

    @pytest.mark.parametrize("kw", [
        {"alpha": 0.0}, {"eps_pd": -1.0}, {"eps_proj": 0.0}, {"d": 0.0},
        {"u_lim": [-1.0]}, {"v_cap": 0.0}, {"beta": 0.0},
        {"u_lim": None}, {"x_lb": [np.nan, -1.0]}, {"x_ub": [np.inf, 1.0]},
        {"lam": -1.0},
    ] + [{name: bad} for name in ("alpha", "beta", "eps_pd", "eps_proj", "d", "v_cap", "lam")
         for bad in (np.nan, np.inf)])
    def test_invalid_rejected(self, kw):
        base = dict(u_lim=[5.0], x_lb=[-1.0, -1.0], x_ub=[1.0, 1.0])
        base.update(kw)
        (name,) = kw
        with pytest.raises(ValueError, match=name):
            Hyper(**base)

    def test_box_must_order(self):
        with pytest.raises(ValueError):
            Hyper(u_lim=[1.0], x_lb=[1.0, -1.0], x_ub=[1.0, 1.0])

    def test_dict_roundtrip(self, vdp_hyper):
        again = Hyper.from_dict(vdp_hyper.to_dict())
        assert again.to_dict() == vdp_hyper.to_dict()


class TestController:
    def test_zero_network_zero_control(self, vdp_hyper):
        model = fill_output_layer(make_model(vdp_hyper, seed=1), "gu", weight=0.0)
        X = np.random.default_rng(0).uniform(-1, 1, (20, 2))
        assert np.array_equal(model.controller_batch(X), np.zeros((20, 1)))

    def test_zero_limit_zero_control(self, vdp_system):
        hp = Hyper.for_system(vdp_system, u_lim=[0.0])
        model = make_model(hp, seed=1)
        X = np.random.default_rng(0).uniform(-1, 1, (20, 2))
        assert np.array_equal(model.controller_batch(X), np.zeros((20, 1)))

    def test_strictly_inside_box(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=2)
        X = np.random.default_rng(1).uniform(-1.3, 1.3, (5000, 2))
        u = model.controller_batch(X)
        assert np.all(np.abs(u) < 5.0)


class TestNominal:
    def test_equilibrium_exact(self, vdp_hyper):
        for seed in range(5):
            model = make_model(vdp_hyper, seed=seed)
            u0 = model.controller_batch(ORIGIN)
            assert np.array_equal(model.eval_pieces(ORIGIN, u0)["fhat_data"], ORIGIN)

    def test_constant_network_gives_zero_everywhere(self, vdp_hyper):
        layers = model_layers(make_model(vdp_hyper, seed=3))
        model = model_from_networks(vdp_hyper, dict(layers, gf=constant_network(3, 2, 1.7)))
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, (50, 2))
        U = rng.uniform(-5, 5, (50, 1))
        assert np.array_equal(model.eval_pieces(X, U)["fhat_data"], np.zeros((50, 2)))

    def test_shift_is_reevaluated_gf(self, small_model, vdp_hyper):
        # nominal(x,u) + g_f(0, u*(0)) reproduces the raw network value
        model = small_model
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (20, 2))
        U = rng.uniform(-5, 5, (20, 1))
        u0 = model.controller_batch(ORIGIN)
        gf0, _ = apply_net(model.nets["gf"], np.hstack((ORIGIN, u0)))
        raw, _ = apply_net(model.nets["gf"], np.hstack((X, U)))
        assert np.allclose(model.eval_pieces(X, U)["fhat_data"] + gf0, raw,
                           rtol=1e-13, atol=1e-15)


class TestLyapunov:
    def test_origin_value_and_gradient_zero(self, vdp_hyper):
        for seed in range(5):
            model = make_model(vdp_hyper, seed=seed)
            assert model.lyapunov_batch(ORIGIN)[0] == 0.0
            assert np.array_equal(model.lyapunov_grad_batch(ORIGIN), ORIGIN)

    def test_constant_gv_reduces_to_quadratic(self, vdp_hyper):
        layers = model_layers(make_model(vdp_hyper, seed=4))
        model = model_from_networks(vdp_hyper, dict(layers, gv=constant_network(2, 1, 0.33)))
        X = np.random.default_rng(4).uniform(-1.3, 1.3, (100, 2))
        v = model.lyapunov_batch(X)
        q = vdp_hyper.eps_pd * np.sum(X * X, axis=1)
        assert np.allclose(v, q, rtol=0, atol=1e-15)
        assert np.allclose(model.lyapunov_grad_batch(X), 2 * vdp_hyper.eps_pd * X,
                           rtol=0, atol=1e-15)

    def test_quadratic_floor_sweep(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=5)
        X = np.random.default_rng(5).uniform(-1.3, 1.3, (10000, 2))
        v = model.lyapunov_batch(X)
        floor = vdp_hyper.eps_pd * np.sum(X * X, axis=1)
        assert np.all(v >= floor - 1e-15)

    def test_gradient_matches_finite_differences(self, small_model):
        rng = np.random.default_rng(6)
        model = jitter_params(small_model, rng)
        h = 1e-6
        for _ in range(20):
            x = rng.uniform(-1.2, 1.2, (1, 2))
            g = model.lyapunov_grad_batch(x)[0]
            fd = np.array([
                (model.lyapunov_batch(x + h * e)[0] - model.lyapunov_batch(x - h * e)[0])
                / (2 * h) for e in np.eye(2)])
            assert np.max(np.abs(g - fd)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))


class TestProjection:
    def test_hand_computed_correction(self):
        # grad V = (0,1), V = 1, alpha = 1, fhat(x, u*(x)) = (0, 2):
        # residual = 3, shift = (0, 3), projected derivative (0, -1)
        grad_v = np.array([[0.0, 1.0]])
        fhat = np.array([[0.0, 2.0]])
        v = np.array([[1.0]])
        resid = np.sum(grad_v * fhat, axis=1, keepdims=True) + 1.0 * v
        shift = projection_shift(NumpyOps, grad_v, resid, eps_proj=1e-3)
        assert np.array_equal(shift, [[0.0, 3.0]])
        fstar = fhat - shift
        assert np.array_equal(fstar, [[0.0, -1.0]])
        assert float(np.sum(grad_v * fstar)) == -1.0  # equals -alpha V

    def test_inactive_when_decrease_already_holds(self, vdp_hyper):
        # quadratic V with a linear nominal fhat = (-3 x1, +x2): the residual
        # -2.5 x1^2 + 1.5 x2^2 changes sign across the box
        layers = dict(model_layers(make_model(vdp_hyper, seed=7)),
                      gv=constant_network(2, 1, 0.0),
                      gf=[(np.array([[-3.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.zeros(2))])
        model = model_from_networks(vdp_hyper, layers)
        rng = np.random.default_rng(7)
        X = rng.uniform(-1.3, 1.3, (4000, 2))
        pieces = model.eval_pieces(X)
        inactive = pieces["resid"][:, 0] <= 0.0
        assert np.any(inactive) and not np.all(inactive)
        assert np.array_equal(pieces["fstar_star"][inactive],
                              pieces["fhat_star"][inactive])

    def test_origin_passthrough_for_any_control(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=8)
        for u in (np.array([[0.0]]), np.array([[3.3]]), np.array([[-4.9]])):
            pieces = model.eval_pieces(ORIGIN, u)
            assert np.array_equal(pieces["fstar_data"], pieces["fhat_data"])

    def test_shift_shared_across_controls(self, small_model):
        # the correction depends on u only through u*(x)
        model = small_model
        rng = np.random.default_rng(8)
        X = rng.uniform(-1.3, 1.3, (30, 2))
        u1 = rng.uniform(-5, 5, (30, 1))
        u2 = rng.uniform(-5, 5, (30, 1))
        p1, p2 = model.eval_pieces(X, u1), model.eval_pieces(X, u2)
        d1 = p1["fhat_data"] - p1["fstar_data"]
        d2 = p2["fhat_data"] - p2["fstar_data"]
        assert np.allclose(d1, d2, rtol=0, atol=1e-14)

    def test_decrease_property_sweep(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=9, small=False)
        rng = np.random.default_rng(9)
        X = rng.uniform(-1.3, 1.3, (10000, 2))
        pieces = model.eval_pieces(X)
        gn2 = np.sum(pieces["grad_v"] ** 2, axis=1)
        ok = gn2 >= vdp_hyper.eps_proj
        lhs = np.sum(pieces["grad_v"] * pieces["fstar_star"], axis=1)
        rhs = -vdp_hyper.alpha * pieces["v"][:, 0]
        assert np.all(lhs[ok] <= rhs[ok] + 1e-9)

    def test_minimality_against_qp_solver(self, vdp_hyper):
        # closed-form distance r/||g|| vs a generic constrained least-norm solve
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 100:
            n = rng.integers(2, 5)
            g = rng.normal(size=n)
            fhat = rng.normal(size=n) * 3
            v = float(rng.uniform(0.1, 2.0))
            alpha = 1.0
            r = float(g @ fhat + alpha * v)
            if r <= 1e-3 or g @ g < 1e-3:
                continue
            shift = projection_shift(NumpyOps, g[None, :], np.array([[r]]), 1e-3)[0]
            case = f"case {checked} (n={n})"
            dist = np.linalg.norm(shift)
            assert dist == pytest.approx(r / np.linalg.norm(g), abs=1e-10), case

            # KKT: shift = lam * g with lam > 0 and the constraint active; by
            # Cauchy-Schwarz that is the least-norm feasible correction
            lam = float(shift @ g) / float(g @ g)
            assert lam > 0, f"{case}: multiplier {lam}"
            par = np.linalg.norm(shift - lam * g) / dist
            assert par <= 1e-12, f"{case}: shift not parallel to g ({par:.3g})"
            active = abs(g @ (fhat - shift) + alpha * v)
            assert active <= 1e-10 * max(1.0, r), f"{case}: constraint slack {active:.3g}"

            # exact derivatives: finite-difference ones (~1e-8) stall SLSQP's
            # line search at ftol=1e-12 near the optimum
            feasible0 = -(r + 0.1) * g / (g @ g)
            res = minimize(
                lambda df: df @ df, feasible0, jac=lambda df: 2 * df, method="SLSQP",
                constraints=[{"type": "ineq",
                              "fun": lambda df: -(g @ (fhat + df) + alpha * v),
                              "jac": lambda df: -g}],
                options={"maxiter": 200, "ftol": 1e-12})
            assert res.success, f"{case}: SLSQP status {res.status}: {res.message}"
            assert dist == pytest.approx(np.linalg.norm(res.x), abs=1e-8), case
            checked += 1

    def test_nonfinite_input_rejected(self, small_model):
        with pytest.raises(ValueError):
            small_model.eval_pieces(np.array([[np.nan, 0.0]]), np.array([[0.0]]))

    def test_control_rows_must_match_states(self, small_model):
        with pytest.raises(ValueError, match="2 control rows for 3 states"):
            small_model.eval_pieces(np.zeros((3, 2)), np.zeros((2, 1)))

    @np.errstate(over="ignore")  # gf's output overflows on purpose
    def test_nonfinite_data_output_raises(self, vdp_hyper):
        # u* = 0 keeps every closed-loop piece finite; only fhat at the data
        # control, 1e308 * u, overflows
        gf = [(np.array([[0.0, 0.0, 1e308], [0.0, 0.0, 0.0]]), np.zeros(2))]
        layers = dict(model_layers(make_model(vdp_hyper)), gf=gf, gu=constant_network(2, 1, 0.0))
        model = model_from_networks(vdp_hyper, layers)
        with pytest.raises(FloatingPointError, match="non-finite model output"):
            model.eval_pieces(np.full((1, 2), 0.5), np.array([[4.0]]))

    @pytest.mark.parametrize("rows", [1, 7, 300])
    def test_shift_same_on_tape_and_numpy(self, rows):
        # one projection_shift serves both backends, with the same values;
        # the small-gradient rows sit under the eps_proj floor
        rng = np.random.default_rng(rows)
        grad_v = rng.normal(size=(rows, 3)) * rng.choice([1e-3, 1.0], size=(rows, 1))
        resid = rng.normal(size=(rows, 1))
        tape = Tape()
        node = projection_shift(tape, tape.constant(grad_v), tape.constant(resid), 1e-3)
        assert np.array_equal(node.value, projection_shift(NumpyOps, grad_v, resid, 1e-3))

    @pytest.mark.parametrize("mode", ["general", "affine"])
    def test_graph_shift_is_projection_shift(self, vdp_hyper, mode):
        model = make_model(vdp_hyper, seed=23, mode=mode)
        X = np.random.default_rng(23).uniform(-1.3, 1.3, (500, 2))
        pieces = model.eval_pieces(X)
        expected = projection_shift(NumpyOps, pieces["grad_v"], pieces["resid"],
                                    vdp_hyper.eps_proj)
        assert np.any(expected != 0.0)
        assert np.array_equal(pieces["shift"], expected)


class TestClosedLoop:
    @pytest.mark.parametrize("mode", ["general", "affine"])
    def test_origin_is_equilibrium(self, vdp_hyper, mode):
        # non-zero biases move gv(0), gu(0) and the nominal offset off zero;
        # the origin's gradV(0) is still exactly 0, so affine u*(0) = 0 and
        # f*(0) = 0 on both backends
        rng = np.random.default_rng(5)
        for seed in range(10):
            model = jitter_params(make_model(vdp_hyper, seed=seed, mode=mode), rng)
            tape = Tape()
            handles = {name: net._replace(layers=[(tape.leaf(w), tape.leaf(b))
                                                  for w, b in net.layers])
                       for name, net in model.nets.items()}
            on_tape = model.build_graph(tape, handles, tape.constant(ORIGIN))
            for pieces in (model.eval_pieces(ORIGIN),
                           {name: node.value for name, node in on_tape.items()}):
                assert np.array_equal(pieces["grad_v"], np.zeros((1, 2)))
                assert np.array_equal(pieces["fstar_star"], np.zeros((1, 2)))
                if mode == "affine":
                    assert np.array_equal(pieces["u_star"], np.zeros((1, 1)))

    def test_matches_project_of_controller(self, small_model):
        X = np.random.default_rng(11).uniform(-1.3, 1.3, (40, 2))
        u = small_model.controller_batch(X)
        assert np.array_equal(small_model.eval_pieces(X)["fstar_star"],
                              small_model.eval_pieces(X, u)["fstar_data"])


class TestAffineMode:
    @pytest.fixture
    def affine_two_input(self):
        hp = Hyper(u_lim=[5.0, 5.0], x_lb=[-1.0, -1.0], x_ub=[1.0, 1.0])
        return make_model(hp, seed=13, mode="affine")

    def test_bang_bang_signs(self):
        # coefficient row (1, -2) with u_lim (5, 5) -> controls (-5, +5)
        coeff = np.array([[1.0, -2.0]])
        u = -np.sign(coeff) * np.array([5.0, 5.0])
        assert np.array_equal(u, [[-5.0, 5.0]])

    def test_sign_zero_gives_zero_component(self, affine_two_input):
        model = affine_two_input
        # force the Lyapunov gradient to vanish: constant gv leaves only the
        # quadratic part, which is zero at the origin
        coeff = model.eval_pieces(ORIGIN)["coeff"]
        assert np.array_equal(coeff, np.zeros((1, 2)))
        assert np.array_equal(model.controller_batch(ORIGIN), np.zeros((1, 2)))

    def test_matches_grid_argmin(self, affine_two_input):
        model = affine_two_input
        hp = model.hyper
        rng = np.random.default_rng(14)
        X = rng.uniform(hp.x_lb, hp.x_ub, (200, 2))
        pieces = model.eval_pieces(X)
        coeff, u_star = pieces["coeff"], pieces["u_star"]
        grid = np.linspace(-5.0, 5.0, 21)
        uu, vv = np.meshgrid(grid, grid, indexing="ij")
        candidates = np.column_stack((uu.ravel(), vv.ravel()))
        for i in range(len(X)):
            vals = candidates @ coeff[i]
            best = vals.min()
            attained = float(coeff[i] @ u_star[i])
            assert attained == pytest.approx(best, abs=1e-12)

    def test_affinity_identity(self, affine_two_input):
        model = affine_two_input
        rng = np.random.default_rng(15)
        X = rng.uniform(-1, 1, (30, 2))
        u1 = rng.uniform(-5, 5, (30, 2))
        u2 = rng.uniform(-5, 5, (30, 2))

        def nominal(U):
            return model.eval_pieces(X, U)["fhat_data"]
        lhs = (nominal(u1 + u2) - nominal(u1)
               - nominal(u2) + nominal(np.zeros((30, 2))))
        assert np.max(np.abs(lhs)) <= 1e-12

    def test_equilibrium_shift(self, affine_two_input):
        model = affine_two_input
        u0 = model.controller_batch(ORIGIN)
        assert np.linalg.norm(model.eval_pieces(ORIGIN, u0)["fhat_data"]) <= 1e-12

    def test_projection_preserves_decrease(self):
        hp = Hyper(u_lim=[3.0], x_lb=[-1.0, -1.0], x_ub=[1.0, 1.0])
        model = make_model(hp, seed=16, mode="affine")
        X = np.random.default_rng(16).uniform(-1, 1, (5000, 2))
        pieces = model.eval_pieces(X)
        gn2 = np.sum(pieces["grad_v"] ** 2, axis=1)
        ok = gn2 >= hp.eps_proj
        lhs = np.sum(pieces["grad_v"] * pieces["fstar_star"], axis=1)
        assert np.all(lhs[ok] <= -hp.alpha * pieces["v"][:, 0][ok] + 1e-9)


class TestPartialEvaluation:
    """The batch methods evaluate only the part of the graph they return,
    with the node builders of build_graph, so they agree with eval_pieces
    bit for bit."""

    @pytest.mark.parametrize("mode", ["general", "affine"])
    @pytest.mark.parametrize("rows", [1, 5, 2048])
    def test_matches_eval_pieces_exactly(self, vdp_hyper, mode, rows):
        rng = np.random.default_rng(rows)
        model = jitter_params(make_model(vdp_hyper, seed=31, mode=mode, small=False), rng)
        X = rng.uniform(vdp_hyper.x_lb, vdp_hyper.x_ub, (rows, 2))
        pieces = model.eval_pieces(X)
        assert np.array_equal(model.controller_batch(X), pieces["u_star"])
        assert np.array_equal(model.lyapunov_batch(X), pieces["v"][:, 0])
        assert np.array_equal(model.lyapunov_grad_batch(X), pieces["grad_v"])

    @pytest.mark.parametrize("mode", ["general", "affine"])
    @pytest.mark.parametrize("part", ["u_star", "v", "grad_v"])
    def test_nonfinite_piece_named(self, vdp_hyper, mode, part):
        model = make_model(vdp_hyper, seed=31, mode=mode)
        net = {"v": "gv", "grad_v": "gv", "u_star": "gu" if mode == "general" else "gf2"}[part]
        fill_output_layer(model, net, bias=np.nan)
        query = {"u_star": model.controller_batch, "v": model.lyapunov_batch,
                 "grad_v": model.lyapunov_grad_batch}[part]
        with pytest.raises(FloatingPointError, match=f"non-finite '{part}'"):
            query(np.full((4, 2), 0.3))


class TestParams:
    def test_roundtrip_and_cache_invalidation(self, small_model):
        x = np.array([[0.4, -0.2]])
        before = small_model.eval_pieces(x)["fstar_star"]
        theta = small_model.get_params()
        small_model.set_params(theta * 1.01)
        changed = small_model.eval_pieces(x)["fstar_star"]
        assert not np.array_equal(before, changed)
        small_model.set_params(theta)
        assert np.array_equal(small_model.eval_pieces(x)["fstar_star"], before)

    @pytest.mark.parametrize("mode", ["general", "affine"])
    def test_get_set_roundtrip(self, vdp_hyper, mode):
        model = make_model(vdp_hyper, seed=5, mode=mode)
        vec = model.get_params()
        assert vec.shape == (sum(w.size + b.size for n in model.nets.values()
                                 for w, b in n.layers),)
        model.set_params(vec * 2.0)
        assert np.array_equal(model.get_params(), vec * 2.0)
        returned = model.get_params()
        returned[:] = 0.0  # a copy: the model keeps its parameters
        assert np.array_equal(model.get_params(), vec * 2.0)

    def test_wrong_length_rejected(self, small_model):
        theta = small_model.get_params()
        for bad in (np.zeros(theta.size + 1), np.zeros(theta.size - 1),
                    np.zeros((1, theta.size))):
            with pytest.raises(ValueError, match=f"length {theta.size}"):
                small_model.set_params(bad)
        assert np.array_equal(small_model.get_params(), theta)

    @pytest.mark.parametrize("mode", ["general", "affine"])
    def test_networks_view_the_vector_in_declared_order(self, vdp_hyper, mode):
        # network by network, layer by layer, each weight before its bias
        model = make_model(vdp_hyper, seed=6, mode=mode)
        arrays = [a for n in model.nets.values() for wb in n.layers for a in wb]
        assert np.array_equal(model.get_params(),
                              np.concatenate([a.ravel() for a in arrays]))
        before = [a.copy() for a in arrays]
        model.set_params(model.get_params() + 1.0)  # written through the views
        assert all(np.array_equal(a, b + 1.0) for a, b in zip(arrays, before))
        for a in arrays:  # set_params is the only writer
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 7.0
        assert np.array_equal(model.get_params(),
                              np.concatenate([b.ravel() + 1.0 for b in before]))

    def test_networks_cannot_be_replaced(self, small_model):
        # save_checkpoint writes from nets, so nets must stay the vector's views
        theta = small_model.get_params()
        net = small_model.nets["gv"]
        pairs = net.layers
        with pytest.raises(TypeError):
            pairs[0] = (np.zeros_like(pairs[0][0]), pairs[0][1])
        with pytest.raises(TypeError):
            pairs[0][0] = np.zeros_like(pairs[0][0])
        with pytest.raises(AttributeError):
            net.layers = ()
        with pytest.raises(TypeError):
            small_model.nets["gv"] = small_model.nets["gf"]
        with pytest.raises(AttributeError):
            small_model.nets = {}
        assert small_model.nets["gv"] is net and net.layers is pairs
        assert np.array_equal(small_model.get_params(), theta)

    def test_model_from_another_models_networks_is_independent(self, small_model,
                                                              vdp_hyper):
        x = np.array([[0.4, -0.2], [-0.9, 0.3]])
        theta = small_model.get_params()
        before = small_model.eval_pieces(x)["fstar_star"].copy()
        other = model_from_networks(vdp_hyper, model_layers(small_model))
        other.set_params(2.0 * theta)
        assert np.array_equal(small_model.get_params(), theta)
        assert np.array_equal(small_model.eval_pieces(x)["fstar_star"], before)
        small_model.set_params(theta)  # fresh origin nodes read the same vector
        assert np.array_equal(small_model.eval_pieces(x)["fstar_star"], before)
        assert not np.array_equal(other.eval_pieces(x)["fstar_star"], before)
        small_model.set_params(3.0 * theta)
        assert np.array_equal(other.get_params(), 2.0 * theta)

    def test_constructor_copies_the_vector(self, small_model, vdp_hyper):
        theta = small_model.get_params()
        model = StableDynamicsModel(vdp_hyper, "general", model_dims(small_model), theta)
        theta += 1.0  # the caller's array is not viewed
        assert np.array_equal(model.get_params(), small_model.get_params())

    def test_mode_net_names_enforced(self, small_model, vdp_hyper):
        # dims names exactly the mode's networks, in any order
        dims, theta = model_dims(small_model), small_model.get_params()
        for bad in (None, list(dims.values()), dict(dims, gf1=[2, 8, 2]),
                    {name: dims[name] for name in ("gf", "gv")}):
            with pytest.raises(ValueError,
                               match="^dims must be an object naming gf, gu, gv, got"):
                StableDynamicsModel(vdp_hyper, "general", bad, theta)
        with pytest.raises(ValueError, match="^dims must be an object naming gf1, gf2, gv"):
            StableDynamicsModel(vdp_hyper, "affine", dims, theta)
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            StableDynamicsModel(vdp_hyper, "bogus", dims, theta)
        shuffled = StableDynamicsModel(vdp_hyper, "general", dict(reversed(dims.items())),
                                       theta)
        assert list(shuffled.nets) == ["gf", "gu", "gv"]
        assert np.array_equal(shuffled.get_params(), theta)

    def test_params_of_another_length_rejected(self, small_model, vdp_hyper):
        # the loader checks the count itself, before it decodes the vector
        theta = small_model.get_params()
        for bad in (theta[:-1], theta[None]):
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"parameters must be a flat vector of {theta.size} values, "
                    f"got shape {bad.shape}") + "$"):
                StableDynamicsModel(vdp_hyper, "general", model_dims(small_model), bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_params_rejected(self, small_model, vdp_hyper, bad):
        theta = small_model.get_params()
        theta[theta.size // 2] = bad
        with pytest.raises(ValueError, match="^parameters must be finite$"):
            StableDynamicsModel(vdp_hyper, "general", model_dims(small_model), theta)

    @pytest.mark.parametrize("mode", ["general", "affine"])
    def test_activations_and_srelu_width_follow_the_roles(self, vdp_system, mode):
        hp = Hyper.for_system(vdp_system, d=0.01)
        model = jitter_params(make_model(hp, seed=3, mode=mode), np.random.default_rng(3))
        for role in NETWORKS[mode]:
            net = model.nets[role.name]
            assert net.activations == (role.hidden,) * (len(net.layers) - 1) + (role.out,)
        # V = srelu(v_cap (gv(x) - gv(0)), d) + eps_pd |x|^2 with gv's
        # smoothed-ReLU layers of width d too
        X = np.random.default_rng(4).uniform(-1.3, 1.3, (64, 2))
        gv = model.nets["gv"]
        w = hp.v_cap * (apply_net(gv, X, 0.01)[0] - apply_net(gv, ORIGIN, 0.01)[0])
        want = _srelu_raw(w, 0.01)[:, 0] + hp.eps_pd * np.sum(X * X, axis=1)
        assert np.allclose(model.lyapunov_batch(X), want, rtol=1e-12, atol=1e-15)
        other = apply_net(gv, X, 0.02)[0] - apply_net(gv, ORIGIN, 0.02)[0]
        assert not np.allclose(hp.v_cap * other, w, rtol=1e-6, atol=0)


def test_package_exports_resolve():
    for name in stabledyn.__all__:
        assert hasattr(stabledyn, name), name
