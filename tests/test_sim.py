import numpy as np
import pytest

from stabledyn import sim
from stabledyn.models import Hyper, StableDynamicsModel
from stabledyn.sim import FieldGrid, export_field, rk4_step, rollout_many
from stabledyn.systems import SystemSpec, get_system

from conftest import fill_output_layer, make_model

# each mode on its own plant, then with the learned rows beside the true plant
MODES_AND_FLAG = [pytest.param(mode, lock, id=mode + "-lockstep" * lock)
                  for lock in (False, True) for mode in ("general", "affine")]


def lockstep_rows(plant, model, starts, T, h):
    """``rollout_many`` with the learned rows beside the true plant's.  Every
    row must end where the separate true-plant and learned calls end it,
    with the same reason and states equal to rounding."""
    trajs = rollout_many(plant, model, starts, T=T, h=h, with_learned=True)
    apart = (rollout_many(plant, model, starts, T=T, h=h)
             + rollout_many(model, model, starts, T=T, h=h))
    assert [(len(t), t.reason) for t in trajs] == [(len(t), t.reason) for t in apart]
    for lock, sep in zip(trajs, apart):
        assert np.allclose(lock.states, sep.states, rtol=0, atol=1e-12)
    return trajs


class TestRk4Step:
    def test_zero_field_fixed_point(self):
        x = np.array([[0.3, -0.8]])
        out = rk4_step(lambda x: np.zeros_like(x), x, 0.1)
        assert np.array_equal(out, x)

    def test_exponential_decay_oracle(self):
        # xdot = -x from 1.0: one step of h=0.1 matches e^{-0.1} to 1e-7
        x = np.array([[1.0]])
        out = rk4_step(lambda x: -x, x, 0.1)
        assert out[0, 0] == pytest.approx(np.exp(-0.1), abs=1e-7)

    def test_linearity_in_initial_state(self):
        A = np.array([[0.0, 1.0], [-2.0, -0.3]])
        field = lambda x: x @ A.T
        x = np.array([[0.4, -1.1]])
        out1 = rk4_step(field, x, 0.05)
        out3 = rk4_step(field, 3.0 * x, 0.05)
        assert np.allclose(out3, 3.0 * out1, rtol=1e-14, atol=1e-16)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            rk4_step(lambda x: x, np.zeros((1, 2)), 0.0)

    def test_nonfinite_stage_rejected(self):
        with pytest.raises(FloatingPointError), np.errstate(divide="ignore"):
            rk4_step(lambda x: x / 0.0, np.ones((1, 2)), 0.1)

    @np.errstate(over="ignore")  # the stage input overflows on purpose
    def test_nonfinite_stage_input_rejected(self):
        # x + h/2 k1 overflows: the step raises before the field sees it
        seen = []

        def field(x):
            seen.append(x)
            return np.full_like(x, 1e308)

        with pytest.raises(FloatingPointError, match="^non-finite RK4 stage input$"):
            rk4_step(field, np.ones((1, 2)), 10.0)
        assert len(seen) == 1 and np.all(np.isfinite(seen[0]))


class TestRollout:
    def test_origin_start_stays_flat(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=1)
        traj = rollout_many(model, model, np.zeros((1, 2)), T=0.5, h=1e-3)[0]
        assert len(traj) == 501
        assert np.max(traj.norm_trace) <= 1e-9
        assert np.max(traj.v_trace) <= 1e-12
        assert traj.reason == ""

    @pytest.mark.parametrize("plant", [None, "other model", "callable", "learned beside model"])
    def test_other_plant_rejected(self, vdp_hyper, vdp_system, plant):
        # the plant is the model itself or a SystemSpec; nothing else is
        # accepted, and only a SystemSpec takes the learned rows beside it
        model = make_model(vdp_hyper, seed=2)
        with_learned = plant == "learned beside model"
        plant = {None: None, "other model": make_model(vdp_hyper, seed=2),
                 "callable": vdp_system.dynamics, "learned beside model": model}[plant]
        with pytest.raises(ValueError,
                           match="SystemSpec plant$" if with_learned else "plant must be"):
            rollout_many(plant, model, np.array([[0.5, -0.5]]), T=0.1, h=1e-3,
                         with_learned=with_learned)

    def test_start_must_be_a_batch(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=2)
        with pytest.raises(ValueError, match="start states"):
            rollout_many(model, model, np.array([0.5, -0.5]), T=0.1, h=1e-3)

    def test_uniform_time_grid(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=3)
        traj = rollout_many(model, model, np.array([[0.2, 0.2]]), T=0.05, h=1e-3)[0]
        steps = np.diff(traj.times)
        assert np.allclose(steps, 1e-3, rtol=1e-12, atol=0)
        assert np.all(steps > 0)

    def test_v_trace_consistent_with_states(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=4)
        traj = rollout_many(model, model, np.array([[0.9, -0.3]]), T=0.1, h=1e-3)[0]
        recomputed = model.eval_pieces(traj.states)["v"][:, 0]
        assert np.allclose(recomputed, traj.v_trace, rtol=1e-13, atol=1e-15)
        assert np.array_equal(np.linalg.norm(traj.states, axis=1), traj.norm_trace)

    def test_controls_are_feedback_values(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=4)
        traj = rollout_many(model, model, np.array([[0.9, -0.3]]), T=0.05, h=1e-3)[0]
        assert np.allclose(model.controller_batch(traj.states), traj.controls,
                           rtol=1e-13, atol=1e-15)

    def test_true_plant_rollout_runs(self, vdp_system, vdp_hyper):
        model = make_model(vdp_hyper, seed=5)
        traj = rollout_many(vdp_system, model, np.array([[1.0, 0.0]]), T=0.2, h=1e-3)[0]
        assert len(traj) == 201
        assert traj.reason == ""

    def test_escape_guard_truncates_with_flag(self, vdp_hyper):
        blowup = SystemSpec(name="blowup", params={},
                            x_lb=np.array([-1.3, -1.3]), x_ub=np.array([1.3, 1.3]),
                            u_lim=np.array([5.0]),
                            _fn=lambda x, u, **kw: 10.0 * x)
        model = make_model(vdp_hyper, seed=6)
        traj = rollout_many(blowup, model, np.array([[1.0, 1.0]]), T=5.0, h=1e-3)[0]
        assert traj.reason == "escape guard"
        assert len(traj) < 5001
        limit = 10.0 * np.linalg.norm(vdp_hyper.x_ub - vdp_hyper.x_lb)
        assert traj.norm_trace[-1] > limit
        assert np.all(traj.norm_trace[:-1] <= limit)

    def test_bicycle_singularity_truncates_not_crashes(self):
        bike = get_system("bicycle")
        hp = Hyper.for_system(bike, x_lb=[-1.5, -1.5], x_ub=[1.5, 1.5])
        model = make_model(hp, seed=7)
        traj = lockstep_rows(bike, model, np.array([[1.0 - 5e-7, 0.0]]), 0.01, 1e-3)[0]
        assert "domain" in traj.reason
        assert len(traj) >= 1

    def test_batch_mixed_truncation(self, vdp_hyper):
        blowup = SystemSpec(name="blowup", params={},
                            x_lb=np.array([-1.3, -1.3]), x_ub=np.array([1.3, 1.3]),
                            u_lim=np.array([5.0]),
                            _fn=lambda x, u, **kw: 10.0 * x)
        model = make_model(vdp_hyper, seed=8)
        starts = np.array([[1.0, 1.0], [0.0, 0.0]])
        trajs = lockstep_rows(blowup, model, starts, 2.0, 1e-3)
        assert trajs[0].reason == "escape guard" and trajs[1].reason == ""
        assert len(trajs[1]) == 2001

    def test_learned_rows_truncate_alone(self, vdp_system, monkeypatch):
        # the reverse of the cases above: a nominal field that grows with
        # the state and a projection floor too high to correct it, so the
        # learned rows escape while the true rows, unforced, run the horizon
        hp = Hyper.for_system(vdp_system, eps_proj=1e6)
        model = fill_output_layer(make_model(hp, seed=8, mode="affine"), "gf1", weight=100.0)
        model = fill_output_layer(model, "gf2", weight=0.0)
        starts = np.array([[1.0, 0.0], [-0.5, 0.2]])
        trajs = lockstep_rows(vdp_system, model, starts, 1.0, 1e-3)
        assert [len(t) for t in trajs[:2]] == [1001, 1001]
        assert [t.reason for t in trajs] == ["", "", "escape guard", "escape guard"]
        assert all(len(t) < 1001 for t in trajs[2:])
        # stopped rows leave the batch: each record step and stage evaluates
        # u* once, and every evaluation after the last learned row's final
        # record sees the 2 true rows alone
        rows = []
        controller = StableDynamicsModel._controller
        monkeypatch.setattr(StableDynamicsModel, "_controller",
                            lambda self, ops, handles, X, *rest:
                            rows.append(len(X)) or controller(self, ops, handles, X, *rest))
        rollout_many(vdp_system, model, starts, T=1.0, h=1e-3, with_learned=True)
        last = max(len(t) for t in trajs[2:]) - 1
        assert len(rows) == 4 * 1000 + 1
        assert min(rows[:4 * last + 1]) > 2
        assert rows[4 * last + 1:] == [2] * (4 * (1000 - last))

    @pytest.mark.parametrize("mode", ["general", "affine"])
    def test_nonfinite_row_truncated_alone(self, vdp_hyper, mode):
        # the row whose plant derivative is inf stops at its start with its
        # own cause; the other row runs the full horizon
        spiky = SystemSpec(name="spiky", params={},
                           x_lb=np.array([-1.3, -1.3]), x_ub=np.array([1.3, 1.3]),
                           u_lim=np.array([5.0]),
                           _fn=lambda x, u: np.where(x[:, :1] > 0.5, np.inf, -x))
        model = make_model(vdp_hyper, seed=8, mode=mode)
        starts = np.array([[1.0, 0.0], [-0.5, 0.2]])
        trajs = lockstep_rows(spiky, model, starts, 0.05, 1e-3)
        assert len(trajs[0]) == 1
        assert trajs[0].reason == "non-finite state"
        assert len(trajs[1]) == 51 and trajs[1].reason == ""

    @pytest.mark.parametrize("mode", ["general", "affine"])
    @pytest.mark.parametrize("plant", ["true", "learned"])
    @np.errstate(over="ignore", invalid="ignore")  # the stage input overflows on purpose
    def test_overflowing_stage_input_truncates_the_row(self, vdp_system, vdp_hyper, mode,
                                                       plant):
        # at h = 1e308 the stage input x + h/2 k1 overflows; the row stops at
        # its start on either plant instead of raising the model's ValueError
        model = make_model(vdp_hyper, seed=1, mode=mode, small=False)
        trajs = rollout_many(vdp_system if plant == "true" else model, model,
                             np.array([[50.0, 50.0]]), T=1e308, h=1e308)
        assert len(trajs) == 1 and len(trajs[0]) == 1
        assert trajs[0].reason == "non-finite state"

    @pytest.mark.parametrize("mode, with_learned", MODES_AND_FLAG)
    def test_plain_value_error_propagates(self, vdp_hyper, mode, with_learned):
        # only DomainError and non-finite stages truncate a row; any other
        # ValueError from the plant is a programming error and surfaces
        def broken(x, u):
            raise ValueError("broken plant")

        plant = SystemSpec(name="broken", params={},
                           x_lb=np.array([-1.3, -1.3]), x_ub=np.array([1.3, 1.3]),
                           u_lim=np.array([5.0]), _fn=broken)
        model = make_model(vdp_hyper, seed=8, mode=mode)
        with pytest.raises(ValueError, match="broken plant"):
            rollout_many(plant, model, np.array([[0.5, 0.5], [-0.5, 0.2]]),
                         T=0.01, h=1e-3, with_learned=with_learned)

    @pytest.mark.parametrize("mode, with_learned", MODES_AND_FLAG)
    def test_true_plant_records_eval_pieces_exactly(self, vdp_system, vdp_hyper, mode,
                                                    with_learned):
        # the recorded (u*, V) come from controller_batch and lyapunov_batch,
        # or beside the learned rows from the full graph on all rows; at each
        # step they equal the full graph on the same batch of recorded states
        model = make_model(vdp_hyper, seed=12, mode=mode)
        starts = np.array([[1.0, 0.0], [-0.6, 0.9], [0.3, -1.2]])
        trajs = rollout_many(vdp_system, model, starts, T=0.02, h=1e-3,
                             with_learned=with_learned)
        assert len(trajs) == 3 * (1 + with_learned)
        assert all(len(t) == 21 for t in trajs)
        for k in range(21):
            pieces = model.eval_pieces(np.stack([t.states[k] for t in trajs]))
            assert np.array_equal(np.stack([t.controls[k] for t in trajs]),
                                  pieces["u_star"]), k
            assert np.array_equal(np.array([t.v_trace[k] for t in trajs]),
                                  pieces["v"][:, 0]), k

    @pytest.mark.parametrize("mode", ["general", "affine"])
    @pytest.mark.parametrize("plant", ["true", "learned", "both"])
    def test_nonfinite_model_raises(self, vdp_system, vdp_hyper, mode, plant):
        # a model fault is not a plant-state fault: no row is truncated for it
        model = fill_output_layer(make_model(vdp_hyper, seed=14, mode=mode), "gv", bias=np.nan)
        with pytest.raises(FloatingPointError, match="non-finite"):
            rollout_many(model if plant == "learned" else vdp_system, model,
                         np.array([[0.5, 0.5], [-0.5, 0.2]]), T=0.01, h=1e-3,
                         with_learned=plant == "both")

    @pytest.mark.parametrize("mode", ["general", "affine"])
    @pytest.mark.parametrize("plant", ["true", "learned"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_start_rejected(self, vdp_system, vdp_hyper, mode, plant, bad):
        model = make_model(vdp_hyper, seed=13, mode=mode)
        with pytest.raises(ValueError, match="non-finite start state"):
            rollout_many(vdp_system if plant == "true" else model, model,
                         np.array([[0.5, 0.5], [bad, 0.2]]), T=0.01, h=1e-3)

    def test_step_halving_is_fourth_order(self, vdp_system, vdp_hyper):
        # pure Van der Pol (controller forced to zero) is smooth enough for
        # the classical convergence order to show up under Richardson ratios
        model = fill_output_layer(make_model(vdp_hyper, seed=9), "gu", weight=0.0)
        x0 = np.array([[1.0, 0.5]])
        ends = {}
        for h in (0.02, 0.01, 0.005):
            ends[h] = rollout_many(vdp_system, model, x0, T=1.0, h=h)[0].states[-1]
        d1 = np.linalg.norm(ends[0.02] - ends[0.01])
        d2 = np.linalg.norm(ends[0.01] - ends[0.005])
        assert 4.0 <= d1 / d2 <= 64.0

    def test_decrease_holds_off_the_floor_along_trajectory(self, vdp_hyper):
        # the construction guarantees the decrease condition wherever the
        # projection denominator is not floored; verify it pointwise along a
        # learned rollout
        model = make_model(vdp_hyper, seed=10, small=False)
        traj = rollout_many(model, model, np.array([[1.1, -0.9]]), T=2.0, h=1e-3)[0]
        pieces = model.eval_pieces(traj.states)
        gn2 = np.sum(pieces["grad_v"] ** 2, axis=1)
        resid = (np.sum(pieces["grad_v"] * pieces["fstar_star"], axis=1)
                 + vdp_hyper.alpha * pieces["v"][:, 0])
        off_floor = gn2 >= vdp_hyper.eps_proj
        assert np.all(resid[off_floor] <= 1e-9)

    def test_envelope_holds_until_first_floor_entry(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=11, small=False)
        traj = rollout_many(model, model, np.array([[-1.2, 0.7]]), T=5.0, h=1e-3)[0]
        gn2 = np.sum(model.eval_pieces(traj.states)["grad_v"] ** 2, axis=1)
        floored = np.flatnonzero(gn2 < vdp_hyper.eps_proj)
        stop = floored[0] if len(floored) else len(traj)
        env = traj.v_trace[0] * np.exp(-vdp_hyper.alpha * traj.times[:stop])
        assert np.all(traj.v_trace[:stop] <= env * 1.02)

    def test_bad_horizon_rejected(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=1)
        with pytest.raises(ValueError):
            rollout_many(model, model, np.zeros((1, 2)), T=0.0, h=1e-3)
        with pytest.raises(ValueError, match="rounds to no step"):
            rollout_many(model, model, np.zeros((1, 2)), T=4e-4, h=1e-3)
        with pytest.raises(ValueError, match="T = 1e[+]300 over step h = 1e-10 is not a finite"):
            rollout_many(model, model, np.zeros((1, 2)), T=1e300, h=1e-10)


class TestExportField:
    def test_three_by_three_nodes(self, vdp_hyper):
        hp = Hyper(u_lim=[5.0], x_lb=[-1.0, -1.0], x_ub=[1.0, 1.0])
        model = make_model(hp, seed=13)
        grid = export_field(model, 3)["v"]
        assert np.array_equal(grid.xs, [-1.0, 0.0, 1.0])
        assert np.array_equal(grid.ys, [-1.0, 0.0, 1.0])
        assert grid.values.shape == (3, 3)

    def test_v_contour_zero_at_origin_node(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=14)
        grid = export_field(model, 5)["v"]  # odd resolution includes 0
        assert grid.values[2, 2] == 0.0

    def test_closed_loop_field_zero_at_origin_node(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=15)
        grid = export_field(model, 5)["fstar"]
        assert grid.values.shape == (5, 5, 2)
        assert np.array_equal(grid.values[2, 2], np.zeros(2))

    def test_kinds_share_one_evaluation(self, vdp_hyper, monkeypatch):
        model = make_model(vdp_hyper, seed=22)
        calls = []
        real = model.eval_pieces
        monkeypatch.setattr(model, "eval_pieces", lambda *a: calls.append(a) or real(*a))
        grids = export_field(model, 4)
        assert len(calls) == 1
        assert list(grids) == ["fhat", "fstar", "gv", "v"]
        pieces = real(*calls[0])
        want = {"fhat": pieces["fhat_star"], "fstar": pieces["fstar_star"],
                "gv": pieces["w"], "v": pieces["v"]}
        for kind, grid in grids.items():
            assert grid.kind == kind
            assert np.array_equal(grid.values.reshape(16, -1), want[kind])

    def test_resolution_floor(self, vdp_hyper):
        model = make_model(vdp_hyper, seed=17)
        with pytest.raises(ValueError):
            export_field(model, 1)

    def test_non_planar_rejected(self):
        hp = Hyper(u_lim=[1.0], x_lb=[-1.0, -1.0, -1.0], x_ub=[1.0, 1.0, 1.0])
        model = make_model(hp, seed=18)
        with pytest.raises(ValueError, match="planar state space, n=3"):
            export_field(model, 3)


class TestCsv:
    def test_trajectory_csv_roundtrip(self, tmp_path, vdp_hyper):
        model = make_model(vdp_hyper, seed=20)
        traj = rollout_many(model, model, np.array([[0.4, 0.1]]), T=0.02, h=1e-3)[0]
        path = tmp_path / "traj.csv"
        traj.to_csv(path, comment="# config: {}")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "t,x1,x2,u1,V,normx"
        body = np.loadtxt(lines[2:], delimiter=",")
        assert np.array_equal(body[:, 1:3], traj.states)

    @pytest.mark.parametrize("comment", [None, "# config: {}"])
    @pytest.mark.parametrize("reason", ["", "escape guard",
                                        "plant domain error: bicycle sample 0 has d_e=1"])
    def test_trajectory_csv_records_stop_reason(self, tmp_path, comment, reason):
        # one comment line, ending with the reason, then the header: readers
        # skip two lines
        traj = sim.Trajectory(times=np.array([0.0, 1e-3]), states=np.ones((2, 2)),
                              controls=np.zeros((2, 1)), v_trace=np.ones(2),
                              norm_trace=np.full(2, np.sqrt(2.0)), reason=reason)
        path = tmp_path / "traj.csv"
        traj.to_csv(path, comment=comment)
        lines = path.read_text().splitlines()
        assert [ln.startswith("#") for ln in lines] == [True, False, False, False]
        assert lines[0].startswith(comment or "# reason=")
        assert lines[0].rpartition("reason=")[2] == (reason or "full")
        assert lines[1] == "t,x1,x2,u1,V,normx"
        body = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        assert np.array_equal(body[:, 1:3], traj.states)

    def test_writer_round_trips_exactly(self, tmp_path):
        body = np.array([[-0.0, 5e-324, 1e300], [0.1, -2.5, np.pi], [1.0, 1e-17, -1e300]])
        path = tmp_path / "out.csv"
        sim._write_csv(path, ["a", "b", "c"], body, comment="# config: {}\n")
        lines = path.read_text().splitlines()
        assert lines[:2] == ["# config: {}", "a,b,c"]
        back = np.loadtxt(lines[2:], delimiter=",")
        assert np.array_equal(back, body)
        assert np.array_equal(np.signbit(back), np.signbit(body))
        sim._write_csv(path, ["a", "b", "c"], body)
        assert path.read_text().splitlines()[0] == "a,b,c"

    def test_field_csv_layout(self, tmp_path, vdp_hyper):
        model = make_model(vdp_hyper, seed=21)
        grid = export_field(model, 2)["fstar"]
        path = tmp_path / "field.csv"
        grid.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,f1,f2"
        assert len(lines) == 5
