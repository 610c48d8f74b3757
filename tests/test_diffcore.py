import json
import re

import numpy as np
import pytest

from stabledyn import diffcore as dc
from stabledyn import training
from stabledyn.diffcore import (
    GradientError,
    NumpyOps,
    Tape,
    net_apply,
    net_input_gradient,
    param_gradient,
)
from stabledyn.models import NETWORKS, Net, StableDynamicsModel

from conftest import apply_net, init_net, make_model, model_from_networks, model_layers

D = 0.005


def _apply(net, X):
    return apply_net(net, X)[0]


def _input_grad(net, X, cot=None):
    """Vector-Jacobian product of a network on a (B, in) batch at the output
    cotangent ``cot``, by default all ones (the input gradient of a
    scalar-output network)."""
    out, cache = apply_net(net, X)
    cot = np.ones_like(out) if cot is None else cot
    return net_input_gradient(NumpyOps, net, D, cache, cot)


class TestInit:
    """StableDynamicsModel.initialize draws every network's layers."""

    def test_identical_seeds_identical_params(self, vdp_hyper):
        for mode in NETWORKS:
            a = StableDynamicsModel.initialize(vdp_hyper, seed=7, mode=mode)
            b = StableDynamicsModel.initialize(vdp_hyper, seed=7, mode=mode)
            assert np.array_equal(a.get_params(), b.get_params())
            other = StableDynamicsModel.initialize(vdp_hyper, seed=8, mode=mode)
            assert not np.array_equal(a.get_params(), other.get_params())

    @pytest.mark.parametrize("mode", ["general", "affine"])
    def test_network_i_draws_from_seed_stream_i(self, vdp_hyper, mode):
        # layer by layer, as a lone network drawn from that stream
        model = StableDynamicsModel.initialize(vdp_hyper, seed=7, mode=mode)
        streams = np.random.SeedSequence(7).spawn(len(NETWORKS[mode]))
        for (name, net), stream in zip(model.nets.items(), streams):
            alone = init_net(net.dims, seed=stream)
            assert all(np.array_equal(w, v) and np.array_equal(b, c)
                       for (w, b), (v, c) in zip(net.layers, alone.layers)), name

    def test_benchmark_shape(self, vdp_hyper):
        assert {name: net.dims
                for name, net in StableDynamicsModel.initialize(vdp_hyper).nets.items()} == {
            "gf": [3, 100, 100, 100, 2], "gu": [2, 50, 50, 50, 1], "gv": [2, 50, 50, 50, 1]}

    def test_biases_zero_weights_bounded(self, vdp_hyper):
        for mode in NETWORKS:
            model = StableDynamicsModel.initialize(vdp_hyper, seed=123, mode=mode)
            for net in model.nets.values():
                for w, b in net.layers:
                    assert np.array_equal(b, np.zeros(w.shape[0]))
                    assert np.all(np.abs(w) <= np.sqrt(1.0 / w.shape[1]))

    @pytest.mark.parametrize("dims", [{"gv": 8.7}, {"gv": True}, {"gv": "8"}, {"gv": 0},
                                      {"gu": -1}, {"gf": 2.0}, {"gf": None}])
    def test_bad_dims_rejected(self, vdp_hyper, monkeypatch, dims):
        # parameter_count refuses the widths, naming the network, before a draw
        def no_draw(seed):
            raise AssertionError("drew parameters for widths that are refused")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        (name, width), = dims.items()
        role = next(role for role in NETWORKS["general"] if role.name == name)
        in_dim, out_dim = role.dims(vdp_hyper.n, vdp_hyper.m)
        widths = [in_dim] + [width] * 3 + [out_dim]
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{name} layer widths must be a list of at least two positive "
                f"integers, got {widths!r}") + "$"):
            StableDynamicsModel.initialize(vdp_hyper, widths=dims)

    def test_numpy_integer_widths_accepted(self, vdp_hyper, tmp_path):
        model = StableDynamicsModel.initialize(
            vdp_hyper, widths={"gv": np.int64(8), "gu": np.int32(6)}, depth=2)
        dims = {name: net.dims for name, net in model.nets.items()}
        assert dims == {"gf": [3, 100, 100, 2], "gu": [2, 6, 6, 1], "gv": [2, 8, 8, 1]}
        assert all(type(w) is int for widths in dims.values() for w in widths)
        path = tmp_path / "ck.json"
        training.save_checkpoint(model, path)
        assert json.loads(path.read_text())["dims"] == dims


class TestForward:
    def test_zero_weights_identity_gives_bias(self):
        net = Net([(np.zeros((3, 2)), np.array([1.0, -2.0, 0.5]))], ("identity",))
        assert np.array_equal(_apply(net, [[0.3, -0.7]]), [[1.0, -2.0, 0.5]])

    def test_identity_layer_passthrough(self):
        net = Net([(np.eye(2), np.zeros(2))], ("identity",))
        x = np.array([[0.25, -4.0]])
        assert np.array_equal(_apply(net, x), x)

    def test_tanh_output_in_open_unit_box(self):
        net = init_net([2, 10, 3], "tanh", seed=5, out_activation="tanh")
        out = _apply(net, np.random.default_rng(0).uniform(-50, 50, (200, 2)))
        assert np.all(np.abs(out) < 1.0)

    def test_dim_mismatch_rejected(self, vdp_hyper):
        # inputs are validated once, where the model receives them
        model = make_model(vdp_hyper, seed=0)
        with pytest.raises(ValueError, match="state must have dimension 2"):
            model.eval_pieces(np.zeros((4, 3)))

    def test_batch_matches_single(self):
        # rows agree up to BLAS kernel rounding (shape-dependent ulps)
        net = init_net([2, 8, 8, 2], "smoothed_relu", seed=3)
        X = np.random.default_rng(1).uniform(-1, 1, (5, 2))
        batch = _apply(net, X)
        for i in range(5):
            assert np.allclose(batch[i], _apply(net, X[i:i + 1])[0],
                               rtol=1e-13, atol=1e-15)


def srelu(z, d=D):
    return dc._srelu_raw(np.float64(z), d)


def srelu_grad(z, d=D):
    return dc._srelu_grad_raw(np.float64(z), d)


def srelu_curv(z, d=D):
    return dc._srelu_curv_raw(np.float64(z), d)


class TestSmoothedRelu:
    def test_negative_branch(self):
        assert srelu(-1.0, D) == 0.0

    def test_continuity_at_upper_seam(self):
        # both branch formulas agree at z = d
        z = D
        middle = z * z / (2.0 * D)
        upper = z - D / 2.0
        assert middle == upper == srelu(z, D)

    def test_quadratic_branch_value(self):
        assert srelu(0.0025, 0.005) == pytest.approx(0.000625, abs=0)

    def test_c1_at_both_seams(self):
        # derivative one-sided limits agree exactly under the branch formulas
        assert srelu_grad(0.0, D) == 0.0
        assert srelu_grad(D, D) == 1.0
        eps = 1e-12
        assert srelu(eps, D) == pytest.approx(0.0, abs=1e-21)
        assert srelu_grad(eps, D) == pytest.approx(0.0, abs=1e-9)
        assert srelu_grad(D - 1e-12, D) == pytest.approx(1.0, abs=1e-9)

    def test_curvature_seam_convention(self):
        # lower-branch values at the seams: 0 at z=0, 1/d at z=d
        assert srelu_curv(0.0, D) == 0.0
        assert srelu_curv(D, D) == 1.0 / D
        assert srelu_curv(D + 1e-9, D) == 0.0

    def test_vectorized(self):
        z = np.array([-1.0, 0.0, 0.0025, 0.005, 1.0])
        out = dc._srelu_raw(z, 0.005)
        assert out == pytest.approx([0.0, 0.0, 0.000625, 0.0025, 0.9975],
                                    rel=1e-12, abs=1e-18)


class TestInputGradient:
    def test_single_affine_layer_gradient_is_weight_row(self):
        w = np.array([[0.3, -1.2, 0.07]])
        net = Net([(w.copy(), np.array([4.0]))], ("identity",))
        g = _input_grad(net, [[1.0, 2.0, 3.0]])
        assert np.array_equal(g, w)

    def test_constant_network_zero_gradient(self):
        net = Net([(np.zeros((1, 2)), np.array([3.0]))], ("identity",))
        assert np.array_equal(_input_grad(net, [[0.4, 0.6]]), np.zeros((1, 2)))

    def test_non_scalar_output_rejected(self, vdp_hyper):
        # the Lyapunov network is the one whose input gradient is taken
        layers = dict(model_layers(make_model(vdp_hyper, seed=0)),
                      gv=init_net([2, 4, 2], "smoothed_relu", seed=0).layers)
        with pytest.raises(ValueError,
                           match=r"gv must have \(input, output\) widths \(2, 1\), got \(2, 2\)"):
            model_from_networks(vdp_hyper, layers)

    @pytest.mark.parametrize("act,out_act,outs", [
        pytest.param("tanh", "identity", 1, id="tanh-identity"),
        pytest.param("smoothed_relu", "tanh", 1, id="smoothed_relu-tanh"),
        pytest.param("tanh", "identity", 2, id="tanh-identity-2out")])
    def test_matches_finite_differences(self, act, out_act, outs):
        net = init_net([3, 20, 20, 20, outs], act, seed=9, out_activation=out_act)
        rng = np.random.default_rng(2)
        cot = np.random.default_rng(3).standard_normal((1, outs))
        for _w, b in net.layers:  # move preactivations off the seams
            b += rng.uniform(0.01, 0.05, b.shape)
        h = 1e-5
        checked = 0
        while checked < 100:
            x = rng.uniform(-2, 2, 3)
            zs = _preacts(net, x)
            if act == "smoothed_relu" and min(
                    min(abs(z).min() for z in zs),
                    min(abs(z - D).min() for z in zs)) < 10 * h:
                continue
            g = _input_grad(net, x[None, :], cot)[0]
            fd = np.array([
                np.sum((_apply(net, [x + h * e]) - _apply(net, [x - h * e])) * cot) / (2 * h)
                for e in np.eye(3)])
            assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))
            checked += 1


def _preacts(net, x):
    return [z for z, _a in apply_net(net, np.atleast_2d(x))[1]]


class TestTape:
    def test_gradient_of_untouched_leaf_is_zero(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 2)))
        b = tape.leaf(np.ones((2, 2)))
        out = tape.sum_all(a)
        ga, gb = tape.gradient(out, [a, b])
        assert np.array_equal(ga, np.ones((2, 2)))
        assert np.array_equal(gb, np.zeros((2, 2)))

    def test_l2_penalty_gradient(self):
        lam = 0.3
        theta = np.array([[1.0, -2.0, 0.5]])
        tape = Tape()
        leaf = tape.leaf(theta)
        out = tape.scale(tape.sum_all(tape.mul(leaf, leaf)), lam)
        (g,) = tape.gradient(out, [leaf])
        assert np.allclose(g, 2.0 * lam * theta, rtol=0, atol=1e-15)

    def test_zero_loss_zero_gradient(self):
        tape = Tape()
        leaf = tape.leaf(np.array([[2.0, 3.0]]))
        out = tape.sum_all(tape.scale(leaf, 0.0))
        (g,) = tape.gradient(out, [leaf])
        assert np.array_equal(g, np.zeros((1, 2)))

    @np.errstate(divide="ignore", invalid="ignore")  # the 1/0 below is the point
    def test_nan_in_backward_names_node(self):
        tape = Tape()
        a = tape.leaf(np.array([[0.0]]))
        bad = tape.div(tape.add_scalar(a, 1.0), a)  # 1/0 -> inf
        out = tape.sum_all(bad)
        with pytest.raises(GradientError, match=r"non-finite adjoint at node \d+"):
            tape.gradient(out, [a])

    def test_non_scalar_target_rejected(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 2)))
        with pytest.raises(GradientError):
            tape.gradient(a, [a])

    def test_relu_subgradient_dead_at_zero(self):
        tape = Tape()
        a = tape.leaf(np.array([[0.0, -1.0, 2.0]]))
        out = tape.sum_all(tape.maximum_scalar(a, 0.0))
        (g,) = tape.gradient(out, [a])
        assert np.array_equal(g, [[0.0, 0.0, 1.0]])

    def test_nonfinite_adjoint_at_sign_detached_names_node(self):
        # the sign drops its adjoint, so the sweep must check it there
        tape = Tape()
        a = tape.leaf(np.array([[2.0]]))
        s = tape.sign_detached(a)
        out = tape.sum_all(tape.mul(s, tape.constant(np.array([[np.inf]]))))
        with pytest.raises(GradientError,
                           match=rf"non-finite adjoint at node {s.idx} \(sign_detached\)"):
            tape.gradient(out, [a])

    def test_nonfinite_adjoint_names_node_nearest_output(self):
        # both tanh nodes get an inf adjoint; the error names the one the
        # reverse sweep reaches first
        tape = Tape()
        a = tape.leaf(np.array([[0.5]]))
        inner = tape.tanh(a)
        outer = tape.tanh(inner)
        out = tape.sum_all(tape.mul(outer, tape.constant(np.array([[np.inf]]))))
        with pytest.raises(GradientError,
                           match=rf"non-finite adjoint at node {outer.idx} \(tanh\)"):
            tape.gradient(out, [a])

    @np.errstate(over="ignore")  # the constant's adjoint overflows on purpose
    def test_overflow_only_in_constant_adjoint_passes(self):
        # the constant's two adjoint terms sum to inf; every other adjoint,
        # the requested leaf's included, stays finite
        tape = Tape()
        a = tape.leaf(np.array([[1e308]]))
        c = tape.constant(np.array([[1.0]]))
        out = tape.sum_all(tape.add(tape.mul(c, a), tape.mul(c, a)))
        (g,) = tape.gradient(out, [a])
        assert np.array_equal(g, [[2.0]])

    def test_lower_rank_operand_gets_summed_adjoint(self):
        # a (2,) operand broadcast over (3, 2) rows takes the sum over rows
        tape = Tape()
        a = tape.leaf(np.ones((3, 2)))
        b = tape.leaf(np.array([1.0, 2.0]))
        out = tape.sum_all(tape.mul(a, b))
        ga, gb = tape.gradient(out, [a, b])
        assert np.array_equal(ga, np.tile([1.0, 2.0], (3, 1)))
        assert np.array_equal(gb, [3.0, 3.0])

    def test_maximum_scalar_tie_takes_constant_branch(self):
        tape = Tape()
        a = tape.leaf(np.array([[0.5, 1.0, 2.0]]))
        out = tape.sum_all(tape.maximum_scalar(a, 1.0))
        (g,) = tape.gradient(out, [a])
        assert np.array_equal(g, [[0.0, 0.0, 1.0]])


class TestDense:
    @pytest.mark.parametrize("B", [1, 5, 256, 20000])
    def test_numpy_dense_is_affine_map_bit_for_bit(self, B):
        rng = np.random.default_rng(B)
        a = rng.normal(size=(B, 50))
        w = rng.normal(size=(40, 50))
        b = rng.normal(size=40)
        assert np.array_equal(NumpyOps.dense(a, w, b), a @ w.T + b)

    def test_tape_dense_matches_fd(self):
        # same step and tolerance as the parameter-gradient check below
        rng = np.random.default_rng(4)
        vals = [rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (5, 3)),
                rng.uniform(-1, 1, 5)]

        def value(a, w, b):
            tape = Tape()
            nodes = [tape.leaf(v) for v in (a, w, b)]
            z = tape.dense(*nodes)
            return tape, tape.sum_all(tape.mul(z, z)), nodes

        tape, out, nodes = value(*vals)
        grads = tape.gradient(out, nodes)
        h = 1e-5
        for i, (v, g) in enumerate(zip(vals, grads)):
            assert g.shape == v.shape
            for c in np.ndindex(v.shape):
                plus = [x.copy() for x in vals]
                plus[i][c] += h
                minus = [x.copy() for x in vals]
                minus[i][c] -= h
                fd = (float(value(*plus)[1].value) - float(value(*minus)[1].value)) / (2 * h)
                assert abs(fd - g[c]) / max(abs(fd), abs(g[c]), 1e-8) <= 1e-4

    @pytest.mark.parametrize("mode, nodes", [("general", 138), ("affine", 139)])
    def test_training_tape_node_count(self, vdp_hyper, vdp_system, mode, nodes):
        # one node per dense layer at the default widths and depth
        model = StableDynamicsModel.initialize(vdp_hyper, seed=0, mode=mode)
        batch = training.sample_dataset(vdp_system, vdp_hyper, 256, 0)
        assert len(training.loss(model, batch).tape) == nodes


def _primitive_inputs(name):
    """Operands and constants for one primitive, away from its seams."""
    rng = np.random.default_rng(sorted(dc.PRIMITIVES).index(name))

    def away(shape, *seams):
        # uniform in [-1, 1], at least 0.05 from every seam
        x = rng.uniform(-1, 1, shape)
        for c in seams:
            x = np.where(np.abs(x - c) < 0.05, c + 0.1, x)
        return x

    m34 = away((3, 4))
    return {
        "add": ([m34, away((1, 4))], []),
        "sub": ([m34, away((1, 4))], []),
        "mul": ([m34, away((1, 4))], []),
        "div": ([m34, rng.choice([-1, 1], (3, 4)) * rng.uniform(0.5, 1.5, (3, 4))], []),
        "matmul": ([m34, away((4, 2))], []),
        "dense": ([away((4, 3)), away((5, 3)), away((5,))], []),
        "concat_cols": ([away((3, 2)), away((3, 3))], []),
        "tanh": ([m34], []),
        "srelu": ([away((3, 4), 0.0, 0.3)], [0.3]),
        "srelu_grad": ([away((3, 4), 0.0, 0.3)], [0.3]),
        "exp": ([m34], []),
        "scale": ([m34], [-1.7]),
        "add_scalar": ([m34], [0.3]),
        "maximum_scalar": ([away((3, 4), 0.2)], [0.2]),
        "row_sum": ([m34], []),
        "sum_all": ([m34], []),
        "mean_all": ([m34], []),
        "reshape": ([m34], [(3, 2, 2)]),
        "bmat_vec": ([away((3, 2, 4)), away((3, 4))], []),
        "vec_bmat": ([away((3, 2)), away((3, 2, 4))], []),
        "sign_detached": ([away((3, 4), 0.0)], []),
    }[name]


class TestPrimitiveTable:
    @pytest.mark.parametrize("name", sorted(dc.PRIMITIVES))
    def test_entry(self, name):
        # a primitive added to the table fails here until it has inputs
        operands, consts = _primitive_inputs(name)
        assert len(operands) == dc.PRIMITIVES[name].arity
        forward = getattr(NumpyOps, name)
        cot = np.random.default_rng(99).normal(size=np.shape(forward(*operands, *consts)))

        def record(vals):
            tape = Tape()
            leaves = [tape.leaf(v) for v in vals]
            node = getattr(tape, name)(*leaves, *consts)
            return tape, node, leaves

        tape, node, leaves = record(operands)
        assert node.op == name
        assert np.array_equal(node.value, forward(*operands, *consts))
        grads = tape.gradient(tape.sum_all(tape.mul(node, tape.constant(cot))), leaves)

        # same step and tolerance as test_tape_dense_matches_fd
        h = 1e-5
        for i, (v, g) in enumerate(zip(operands, grads)):
            assert g.shape == v.shape
            for c in np.ndindex(v.shape):
                plus = [x.copy() for x in operands]
                plus[i][c] += h
                minus = [x.copy() for x in operands]
                minus[i][c] -= h
                fd = (np.sum(forward(*plus, *consts) * cot)
                      - np.sum(forward(*minus, *consts) * cot)) / (2 * h)
                assert abs(fd - g[c]) / max(abs(fd), abs(g[c]), 1e-8) <= 1e-4

        # only sign_detached drops its adjoint, so the sweep must check it there
        ends = any(c is None for c in node.vjp(cot, node.value, *node.args))
        assert ends == (name == "sign_detached")
        if ends:
            tape, node, leaves = record(operands)
            inf = tape.constant(np.copysign(np.inf, node.value))  # sums to +inf
            out = tape.sum_all(tape.mul(node, inf))
            with pytest.raises(GradientError,
                               match=rf"non-finite adjoint at node {node.idx} \({name}\)"):
                tape.gradient(out, leaves)


class TestBackendConsistency:
    def test_tape_values_match_numpy_ops(self):
        net = init_net([3, 10, 10, 1], "smoothed_relu", seed=6, out_activation="tanh")
        X = np.random.default_rng(3).uniform(-1, 1, (7, 3))
        out_np, cache_np = net_apply(NumpyOps, net, D, X)
        cot = np.random.default_rng(4).standard_normal((7, 1))
        grad_np = net_input_gradient(NumpyOps, net, D, cache_np, cot)

        tape = Tape()
        on_tape = net._replace(layers=[(tape.leaf(w), tape.leaf(b)) for w, b in net.layers])
        out_t, cache_t = net_apply(tape, on_tape, D, tape.constant(X))
        grad_t = net_input_gradient(tape, on_tape, D, cache_t, tape.constant(cot))
        assert np.array_equal(out_np, out_t.value)
        assert np.array_equal(grad_np, grad_t.value)


class TestParamGradientFiniteDifferences:
    def test_scalar_pipeline_matches_fd(self):
        # scalar made from a net value and its input gradient at a fixed
        # output cotangent, per network shape
        rng = np.random.default_rng(8)
        for dims, act, out_act in (
            ([3, 100, 100, 100, 2], "tanh", "identity"),
            ([2, 50, 50, 50, 1], "tanh", "tanh"),
            ([2, 50, 50, 50, 1], "smoothed_relu", "tanh"),
        ):
            net = init_net(dims, act, seed=13, out_activation=out_act)
            for _w, b in net.layers:
                b += rng.uniform(0.01, 0.03, b.shape)
            # the parameters as one vector, each layer's weight before its bias
            arrays = [a for wb in net.layers for a in wb]
            ends = np.cumsum([a.size for a in arrays])
            X = rng.uniform(-1, 1, (4, dims[0]))
            cot = np.random.default_rng(dims[-1]).standard_normal((4, dims[-1]))

            def value(vec):
                tape = Tape()
                leaves = [tape.leaf(chunk.reshape(a.shape))
                          for chunk, a in zip(np.split(vec, ends[:-1]), arrays)]
                on_tape = net._replace(layers=list(zip(leaves[0::2], leaves[1::2])))
                out, cache = net_apply(tape, on_tape, D, tape.constant(X))
                g = net_input_gradient(tape, on_tape, D, cache, tape.constant(cot))
                scalar = tape.add(tape.mean_all(tape.mul(out, out)),
                                  tape.mean_all(tape.mul(g, g)))
                return tape, scalar, leaves

            theta = np.concatenate([a.ravel() for a in arrays])
            tape, scalar, leaves = value(theta)
            grad = param_gradient(tape, scalar, leaves)
            assert grad.shape == theta.shape
            h = 1e-5
            for c in rng.choice(theta.size, 12, replace=False):
                tp = theta.copy(); tp[c] += h
                lp = float(value(tp)[1].value)
                tm = theta.copy(); tm[c] -= h
                lm = float(value(tm)[1].value)
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(grad[c]), 1e-8)
                assert abs(fd - grad[c]) / denom <= 1e-4


class TestDeterminism:
    def test_bit_identical_outputs_and_gradients(self):
        def build_and_run():
            net = init_net([2, 30, 30, 1], "smoothed_relu", seed=21, out_activation="tanh")
            X = np.random.default_rng(22).uniform(-1, 1, (6, 2))
            tape = Tape()
            on_tape = net._replace(layers=[(tape.leaf(w), tape.leaf(b)) for w, b in net.layers])
            out, _cache = net_apply(tape, on_tape, D, tape.constant(X))
            scalar = tape.mean_all(tape.mul(out, out))
            leaves = [h for pair in on_tape.layers for h in pair]
            return out.value.copy(), [g.copy() for g in tape.gradient(scalar, leaves)]

        out1, grads1 = build_and_run()
        out2, grads2 = build_and_run()
        assert np.array_equal(out1, out2)
        for g1, g2 in zip(grads1, grads2):
            assert np.array_equal(g1, g2)
