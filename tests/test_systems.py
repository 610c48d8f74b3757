import numpy as np
import pytest

from stabledyn.systems import DomainError, bicycle, get_system, pendulum, system_names, vdp


def one(fn, x, u):
    """``fn`` at one state and control, passed as (1, n) and (1, m) batches."""
    return fn(np.array([x], dtype=float), np.array([[u]], dtype=float))[0]


class TestVdp:
    def test_origin_equilibrium(self):
        assert np.array_equal(one(vdp, [0.0, 0.0], 0.0), [0.0, 0.0])

    def test_unit_displacement(self):
        # zddot = u - z + mu (1 - z^2) zdot = 0 - 1 + 0
        assert np.array_equal(one(vdp, [1.0, 0.0], 0.0), [0.0, -1.0])

    def test_forced_point(self):
        # zddot = 2 - 0 + 1*1*1
        assert np.array_equal(one(vdp, [0.0, 1.0], 2.0), [1.0, 3.0])


class TestPendulum:
    def test_inverted_equilibrium(self):
        assert np.array_equal(one(pendulum, [0.0, 0.0], 0.0), [0.0, 0.0])

    def test_gravity_at_quarter_turn(self):
        out = one(pendulum, [np.pi / 2, 0.0], 0.0)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(19.62, rel=1e-12)  # g/l

    def test_damping_only(self):
        out = one(pendulum, [0.0, 1.0], 0.0)
        assert out[0] == 1.0
        assert out[1] == pytest.approx(-0.1 / 0.0375, rel=1e-12)


class TestBicycle:
    def test_equilibrium_steering(self):
        # tan(pi/4) = 1 balances the curvature term at the origin
        out = one(bicycle, [0.0, 0.0], np.pi / 4)
        assert out[0] == 0.0
        assert abs(out[1]) < 1e-14

    def test_right_angle_heading(self):
        out = one(bicycle, [0.0, np.pi / 2], 0.0)
        assert out == pytest.approx([6.0, 0.0], abs=1e-14)

    def test_distance_singularity_guarded(self):
        with pytest.raises(DomainError):
            one(bicycle, [1.0 - 5e-7, 0.0], 0.0)

    def test_steering_singularity_guarded(self):
        with pytest.raises(DomainError):
            one(bicycle, [0.0, 0.0], np.pi / 2)

    def test_denominator_bounded_inside_default_box(self):
        spec = get_system("bicycle")
        rng = np.random.default_rng(0)
        X = rng.uniform(spec.x_lb, spec.x_ub, (20000, 2))
        assert np.min(np.abs(1.0 - X[:, 0])) >= 0.2 - 1e-12
        U = rng.uniform(-spec.u_lim, spec.u_lim, (20000, 1))
        spec.dynamics(X, U)  # must not raise anywhere in the box


class TestRegistry:
    def test_names(self):
        assert system_names() == ["bicycle", "pendulum", "vdp"]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_system("lorenz")

    @pytest.mark.parametrize("name,x_bound,u_bound", [
        ("vdp", 1.3, 5.0),
        ("pendulum", 4.0, 5.0),
        ("bicycle", 0.8, 0.4 * np.pi),
    ])
    def test_published_defaults(self, name, x_bound, u_bound):
        spec = get_system(name)
        assert np.array_equal(spec.x_ub, [x_bound, x_bound])
        assert np.array_equal(spec.x_lb, [-x_bound, -x_bound])
        assert spec.u_lim == pytest.approx([u_bound], rel=0)
        assert spec.x_lb.shape == (2,) and spec.u_lim.shape == (1,)

    @pytest.mark.parametrize("name", ["vdp", "pendulum", "bicycle"])
    def test_pure_and_deterministic(self, name):
        spec = get_system(name)
        rng = np.random.default_rng(3)
        X = rng.uniform(spec.x_lb, spec.x_ub, (50, 2))
        U = rng.uniform(-spec.u_lim, spec.u_lim, (50, 1))
        a = spec.dynamics(X, U)
        b = spec.dynamics(X.copy(), U.copy())
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["vdp", "pendulum", "bicycle"])
    def test_batch_matches_single(self, name):
        spec = get_system(name)
        rng = np.random.default_rng(4)
        X = rng.uniform(spec.x_lb, spec.x_ub, (10, 2))
        U = rng.uniform(-spec.u_lim, spec.u_lim, (10, 1))
        batch = spec.dynamics(X, U)
        for i in range(10):
            assert np.array_equal(batch[i], spec.dynamics(X[i:i + 1], U[i:i + 1])[0])


@pytest.mark.parametrize("x, u", [
    ([0.0, 0.0], [[0.0]]), ([[0.0, 0.0]], 0.0), ([[0.0, 0.0]], [0.0])])
def test_non_batch_input_rejected(x, u):
    with pytest.raises(ValueError, match="expected state"):
        vdp(x, u)
