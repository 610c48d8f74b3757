"""Numerical stability audits for the learned models.

These checks restate the analytical guarantees at sample level: the
pointwise decrease condition, the exponential decay envelope along
rollouts, the quadratic sandwich constants of the Lyapunov function, and
the data-coverage certificate that connects learned-model stability to the
true plant.  Every supremum and Lipschitz constant here is a Monte-Carlo
estimate over a recorded seed and sample count — an audit, not a formal
proof — and the reports say so.

:data:`CHECKS` is what ``verify`` runs: ``decrease``, ``decay``, ``quad`` and
``certificate``, in that order, each beside its gate.  A new check or gate is
one entry there.

The certificate's coverage radius delta needs each sampled point's nearest
neighbour in the dataset.  :class:`CellGrid` finds it exactly, in numpy, and
its distances equal ``scipy.spatial.cKDTree``'s bit for bit, so the package
needs no scipy at run time (the tests still compare against it).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import sim
from .models import BLOCK_ROWS, row_blocks

ORIGIN_EXCLUSION = 1e-3  # sampling stays clear of the 0/0 at the equilibrium
DECREASE_TOL = 1e-9  # largest sampled decrease residual that passes
DECAY_TOL = 0.02
LIPSCHITZ_SEPARATION = 1e-3


def _box_blocks(rng, lb, ub, total):
    """The rows of ``rng.uniform(lb, ub, size=(total, len(lb)))``, drawn
    BLOCK_ROWS at a time: the generator's stream is sequential, so the rows
    are the same.  Every sampled audit draws and evaluates its samples in
    such blocks, so the memory it uses beyond the model and the dataset is
    set by BLOCK_ROWS, not by n_samples."""
    for sl in row_blocks(total):
        yield rng.uniform(lb, ub, size=(sl.stop - sl.start, len(lb)))


def _shell_blocks(rng, lb, ub, total, r_min, r_max=np.inf):
    """The rows of ``rng.uniform(lb, ub, size=(total, len(lb)))`` whose norm
    lies in [r_min, r_max], drawn BLOCK_ROWS at a time and cut into blocks as
    ``row_blocks`` cuts the kept rows' concatenation: a model call's rounding
    depends on which rows share it."""
    carry = np.empty((0, len(lb)))
    for X in _box_blocks(rng, lb, ub, total):
        norms = np.linalg.norm(X, axis=1)
        carry = np.concatenate((carry, X[(norms >= r_min) & (norms <= r_max)]))
        while len(carry) >= BLOCK_ROWS:
            yield carry[:BLOCK_ROWS]
            carry = carry[BLOCK_ROWS:]
    if len(carry):
        yield carry


# ---------------------------------------------------------------------------
# Decrease condition
# ---------------------------------------------------------------------------

@dataclass
class DecreaseReport:
    """Largest sampled violation of grad V . f*(x, u*(x)) <= -alpha V."""

    max_residual: float
    n_floor: int          # samples where ||grad V||^2 fell below eps_proj
    n_used: int
    n_samples: int
    seed: int
    ablated: bool
    estimate_kind: str = "sampled"


def check_decrease(model, n_samples, seed, ablate_projection=False):
    """Max residual over box samples with an active projection denominator.

    Samples within ORIGIN_EXCLUSION of the origin are discarded; samples
    whose Lyapunov gradient falls under the eps_proj floor are counted but
    excluded from the max (the construction only guarantees decrease off
    the floor).  Raises ValueError when no sample is left for the max.
    ``ablate_projection``, a negative control, takes the unprojected
    residual grad V . fhat(x, u*(x)) + alpha V from the graph's ``resid``.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    hp = model.hyper
    rng = np.random.default_rng(seed)
    max_resid = -np.inf
    n_floor = 0
    n_used = 0
    for X in _shell_blocks(rng, hp.x_lb, hp.x_ub, n_samples, ORIGIN_EXCLUSION):
        pieces = model.eval_pieces(X)
        gn2 = np.sum(pieces["grad_v"] ** 2, axis=1)
        ok = gn2 >= hp.eps_proj
        n_floor += int(np.sum(~ok))
        n_used += int(np.sum(ok))
        if np.any(ok):
            resid = (pieces["resid"][:, 0] if ablate_projection else
                     np.sum(pieces["grad_v"] * pieces["fstar_star"], axis=1)
                     + hp.alpha * pieces["v"][:, 0])
            max_resid = max(max_resid, float(resid[ok].max()))
    if n_used == 0:
        raise ValueError(f"decrease check kept none of {n_samples} samples: "
                         f"{n_samples - n_floor} near the origin, {n_floor} under "
                         f"the eps_proj floor")
    return DecreaseReport(max_resid, n_floor, n_used, n_samples, int(seed),
                          bool(ablate_projection))


# ---------------------------------------------------------------------------
# Decay envelopes along a rollout
# ---------------------------------------------------------------------------

@dataclass
class DecayReport:
    """Pointwise exponential-envelope check along one learned-plant rollout."""

    passed: bool
    worst_v_ratio: float
    tol: float


def decay_bound_check(traj, hyper):
    """Verify V(x(t)) <= V(x(0)) e^{-alpha t} with a (1 + DECAY_TOL)
    multiplicative allowance.  A trajectory started exactly at the origin
    passes trivially.

    The norm envelope ||x(t)|| <= sqrt(V(x(0))/eps_pd) e^{-alpha t/2} needs
    no check of its own: V >= eps_pd ||x||^2 bounds its ratio by the square
    root of the V ratio.
    """
    v0 = float(traj.v_trace[0])
    env = v0 * np.exp(-hyper.alpha * traj.times)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(env > 0.0, traj.v_trace / env,
                          np.where(traj.v_trace <= 0.0, 0.0, np.inf))
    worst = float(np.max(ratios)) if len(ratios) else 0.0
    return DecayReport(bool(worst <= 1.0 + DECAY_TOL), worst, DECAY_TOL)



# ---------------------------------------------------------------------------
# Quadratic sandwich constants
# ---------------------------------------------------------------------------

@dataclass
class QuadBoundReport:
    """Sampled sup of V(x)/||x||^2 over an annulus and over the whole box."""

    r1: float
    r2: float
    M: float
    c2_global: float
    c1: float
    n_samples: int
    seed: int
    estimate_kind: str = "sampled"


def estimate_quadratic_ratio(model, r1, r2, n_samples, seed):
    """Monte-Carlo sup of V/||x||^2 on {r1<=||x||<=r2} and on the box.

    The annulus is sampled by rejection from its bounding cube; the global
    estimate uses the state box minus a small origin exclusion.  Both are
    lower bounds on the true suprema.  Raises ValueError when either set
    keeps no sample.
    """
    if not 0 < r1 <= r2:
        raise ValueError("need r2 >= r1 > 0")
    hp = model.hyper
    rng_ann = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    rng_box = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))

    def sup_ratio(blocks):
        best, kept = -np.inf, 0
        for X in blocks:
            kept += len(X)
            v = model.lyapunov_batch(X)
            best = max(best, float(np.max(v / np.sum(X ** 2, axis=1))))
        return best, kept

    M, n_ann = sup_ratio(_shell_blocks(rng_ann, -r2 * np.ones(hp.n), r2 * np.ones(hp.n),
                                       n_samples, r1, r2))
    c2, n_box = sup_ratio(_shell_blocks(rng_box, hp.x_lb, hp.x_ub, n_samples,
                                        ORIGIN_EXCLUSION))
    if n_ann == 0 or n_box == 0:
        raise ValueError(f"quad check kept {n_ann} of {n_samples} annulus samples "
                         f"and {n_box} of {n_samples} box samples")
    return QuadBoundReport(float(r1), float(r2), M, c2, hp.eps_pd, int(n_samples),
                           int(seed))


# ---------------------------------------------------------------------------
# Data-coverage certificate
# ---------------------------------------------------------------------------

@dataclass
class CertificateReport:
    """Sampled ingredients of the coverage condition

        (L_f + L_fstar) * delta + e  <  alpha * eps_pd * r^2 / M_r.

    ``holds`` is exactly the lhs < rhs predicate on the reported numbers.
    delta, M_r, and both Lipschitz constants are sampled estimates (delta a
    lower bound on the true supremum); e is exact over the dataset.
    """

    r: float
    delta: float
    e: float
    L_f: float
    L_fstar: float
    M_r: float
    lhs: float
    rhs: float
    holds: bool
    n_samples: int
    n_data: int
    seed: int
    estimate_kind: str = "sampled (delta, M_r, Lipschitz constants); exact (e)"


# Candidate (query, data row) pairs that one distance evaluation of CellGrid
# takes at most: a query block, or one query's candidates, is split to stay
# under it however the data cluster.
GRID_CANDIDATES = 8 * BLOCK_ROWS
# Cell widths held back from a ring's reach, for a floored cell index that
# rounding put one cell off
_RING_MARGIN = 1e-6


def _cell_width(extent, n):
    """Width of cubic cells that hold about two of ``n`` points each over a
    bounding box with side lengths ``extent``.  A side shorter than a cell
    is left out of the count and gets a single cell, so a constant or nearly
    constant column keeps the grid at O(n) cells."""
    wide = extent > 0
    while wide.any():
        width = np.exp((np.sum(np.log(extent[wide])) - np.log(max(n / 2, 1))) / wide.sum())
        if np.all(extent[wide] >= width):
            return width
        wide &= extent >= width
    return 1.0


def _squared_distance(diffs):
    """Sum of the squares of the column differences ``diffs``, added in the
    order cKDTree adds them: four running lanes over the leading multiple of
    four columns, then the lanes, then the remaining columns one by one."""
    head = len(diffs) - len(diffs) % 4
    lanes = [0.0] * 4
    for j in range(head):
        lanes[j % 4] = lanes[j % 4] + diffs[j] * diffs[j]
    total = lanes[0] + lanes[1] + lanes[2] + lanes[3]
    for d in diffs[head:]:
        total = total + d * d
    return total


class CellGrid:
    """Exact Euclidean nearest-neighbour distances to a fixed set of points.

    The points are binned into a uniform grid of cubic cells, about two to a
    cell over their bounding box.  A query is answered from the cells within
    r of the cell that holds it (clipped to the box), for r = 1, 2, ...:
    every point outside those lies farther than r cell widths plus the
    query's distance to the box, so a query is done once its nearest
    candidate lies within that reach.  The grid has O(n) cells however the
    points are spread (see _cell_width), and no call gathers more than
    GRID_CANDIDATES candidate pairs.
    """

    def __init__(self, points):
        P = np.asarray(points, dtype=np.float64)
        self.lo, self.hi = P.min(axis=0), P.max(axis=0)
        self.width = _cell_width(self.hi - self.lo, len(P))
        cells = self._cells(P)
        self.shape = cells.max(axis=0) + 1
        self.strides = np.cumprod(np.r_[self.shape[1:], 1][::-1])[::-1]
        keys = cells @ self.strides
        self.columns = list(P[np.argsort(keys, kind="stable")].T.copy())
        # cell c holds the sorted rows bounds[c]:bounds[c + 1]; the extra
        # last cell, which holds none, stands for every cell off the grid
        self.off_grid = int(np.prod(self.shape))
        self.bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(keys, minlength=self.off_grid)), [len(P)]))

    def _cells(self, P):
        return np.floor((P - self.lo) / self.width).astype(np.int64)

    def nearest(self, Q):
        """Distance from each row of ``Q`` to its nearest point, equal bit for
        bit to ``cKDTree(points).query(Q)[0]``."""
        inside = np.clip(Q, self.lo, self.hi)
        home = self._cells(inside)
        beyond = np.sum((Q - inside) ** 2, axis=1)
        Qt = list(Q.T.copy())
        n = len(self.columns[0])
        best = np.full(len(Q), np.inf)
        todo = np.arange(len(Q))
        r = 0
        while len(todo):
            r += 1
            span = np.minimum(r, self.shape - 1)
            if np.prod(2 * span + 1) > n:
                # more cells in reach than points: every point is a candidate
                self._gather(Qt, todo, np.zeros_like(todo), np.full_like(todo, n), best)
                break
            self._scan(Qt, home, todo, span, r, best)
            if r >= self.shape.max() - 1:
                break  # the cells within r of any cell are the whole grid
            reach = ((r - _RING_MARGIN) * self.width) ** 2 + (1 - _RING_MARGIN) * beyond[todo]
            todo = todo[best[todo] > reach]
        return np.sqrt(best)

    def _scan(self, Qt, home, todo, span, r, best):
        """Fold into ``best`` the points in the cells r cells away (within 1
        when r is 1) from the home cells of the queries ``todo``."""
        axes = np.ix_(*(np.arange(-s, s + 1) for s in span))
        rings = np.zeros(tuple(2 * span + 1), dtype=np.int64)
        for ax in axes:
            rings = np.maximum(rings, np.abs(ax))
        ring = np.flatnonzero(rings >= (r if r > 1 else 0))
        step = max(1, GRID_CANDIDATES // len(ring))
        for b in range(0, len(todo), step):
            queries = todo[b:b + step]
            keys = 0
            for j, ax in enumerate(axes):
                c = home[queries, j].reshape((-1,) + (1,) * len(axes)) + ax
                keys = keys + np.where((c >= 0) & (c < self.shape[j]),
                                       c * self.strides[j], -self.off_grid)
            keys = keys.reshape(len(queries), -1)[:, ring]
            keys[keys < 0] = self.off_grid
            start = self.bounds[keys]
            count = self.bounds[keys + 1] - start
            hit = count > 0
            self._gather(Qt, np.broadcast_to(queries[:, None], keys.shape)[hit],
                         start[hit], count[hit], best)

    def _gather(self, Qt, queries, start, count, best):
        """Fold into ``best`` the distances from each of ``queries`` to the
        sorted points start:start+count, GRID_CANDIDATES pairs at a time."""
        ends = np.cumsum(count)
        firsts = ends - count
        shift = start - firsts  # sorted row of each pair's flat position
        total = int(ends[-1]) if len(ends) else 0
        for a in range(0, total, GRID_CANDIDATES):
            b = min(a + GRID_CANDIDATES, total)
            # pairs i:j overlap the flat positions a:b
            i, j = np.searchsorted(ends, a, side="right"), np.searchsorted(firsts, b)
            n = np.minimum(ends[i:j], b) - np.maximum(firsts[i:j], a)
            rows = np.repeat(shift[i:j], n)
            rows += np.arange(a, b)
            q = np.repeat(queries[i:j], n)
            np.minimum.at(best, q, _squared_distance(
                [qt[q] - col[rows] for qt, col in zip(Qt, self.columns)]))


def certificate(model, system, dataset, r, n_samples, seed):
    """Audit the coverage condition for a trained model on its dataset.

    The sampled states, Lipschitz base points and directions are drawn
    BLOCK_ROWS rows at a time.  delta's nearest neighbours come from a
    :class:`CellGrid` over the dataset's (x, u) rows, which is dropped once
    delta is known and gathers a bounded number of candidates per call, so
    the memory used beyond the model and the dataset does not grow with
    ``n_samples``.
    """
    if len(dataset) == 0:
        raise ValueError("certificate needs a nonempty dataset")
    if not r > 0:
        raise ValueError(f"neighborhood radius must be positive, got {r}")
    hp = model.hyper

    # e: exact max model error over the dataset
    e = 0.0
    for sl in row_blocks(len(dataset)):
        f_true = system.dynamics(dataset.X[sl], dataset.U[sl])
        f_star = model.eval_pieces(dataset.X[sl], dataset.U[sl])["fstar_data"]
        err = np.sqrt(np.sum((f_true - f_star) ** 2, axis=1))
        e = max(e, float(err.max()))

    # delta: sampled sup over x of the distance from (x, u*(x)) to the data
    rng_delta = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    grid = CellGrid(np.hstack((dataset.X, dataset.U)))
    delta = 0.0
    for Xq in _box_blocks(rng_delta, hp.x_lb, hp.x_ub, n_samples):
        u = model.controller_batch(Xq)
        delta = max(delta, float(np.max(grid.nearest(np.hstack((Xq, u))))))
    del grid

    # M_r: sampled sup of ||grad V|| outside the target neighborhood
    rng_m = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))
    M_r = 0.0
    n_kept = 0
    for Xm in _shell_blocks(rng_m, hp.x_lb, hp.x_ub, n_samples, r):
        n_kept += len(Xm)
        g = model.lyapunov_grad_batch(Xm)
        M_r = max(M_r, float(np.max(np.linalg.norm(g, axis=1))))
    if n_kept == 0:
        raise ValueError(f"radius r={r} leaves no box samples outside the neighborhood")

    # Lipschitz constants: max difference quotients over random close pairs
    rng_lz = np.random.default_rng(np.random.SeedSequence([int(seed), 3]))
    rng_ld = np.random.default_rng(np.random.SeedSequence([int(seed), 4]))
    L_f = L_fstar = 0.0
    nmax = hp.n
    for a in _box_blocks(rng_lz, np.concatenate((hp.x_lb, -hp.u_lim)),
                         np.concatenate((hp.x_ub, hp.u_lim)), n_samples):
        dirs = rng_ld.standard_normal(a.shape)
        dirs *= LIPSCHITZ_SEPARATION / np.linalg.norm(dirs, axis=1, keepdims=True)
        b = a + dirs
        sep = np.linalg.norm(b - a, axis=1)
        # both ends of every pair in one call: rows [0, k) are a, [k, 2k) are b
        k = len(a)
        ab = np.concatenate((a, b))
        f = system.dynamics(ab[:, :nmax], ab[:, nmax:])
        fs = model.eval_pieces(ab[:, :nmax], ab[:, nmax:])["fstar_data"]
        df = f[:k] - f[k:]
        dfs = fs[:k] - fs[k:]
        L_f = max(L_f, float(np.max(np.linalg.norm(df, axis=1) / sep)))
        L_fstar = max(L_fstar, float(np.max(np.linalg.norm(dfs, axis=1) / sep)))

    lhs = (L_f + L_fstar) * delta + e
    rhs = hp.alpha * hp.eps_pd * r * r / M_r
    return CertificateReport(
        r=float(r), delta=delta, e=e, L_f=L_f, L_fstar=L_fstar, M_r=M_r,
        lhs=lhs, rhs=rhs, holds=bool(lhs < rhs),
        n_samples=int(n_samples), n_data=len(dataset), seed=int(seed))


def default_radius(hyper):
    """Default certificate neighborhood: 5% of the box corner norm."""
    return 0.05 * float(np.linalg.norm(hyper.x_ub))


# ---------------------------------------------------------------------------
# The checks `verify` runs
# ---------------------------------------------------------------------------
# An entry reaches the check functions and ``sim.rollout_many`` through their
# modules at call time, so a wrapper set on either one sees every call.

class Check(NamedTuple):
    run: Callable  # (model, system, vc, seed, dataset) -> (verify.json entry, samples)
    reads_dataset: bool = False  # the CLI then reads it before any check runs


def _decrease(model, system, vc, seed, dataset):
    rep = check_decrease(model, vc["n_samples"], seed,
                         ablate_projection=vc["ablate_projection"])
    return {"report": asdict(rep), "passed": rep.max_residual <= DECREASE_TOL}, vc["n_samples"]


def _decay(model, system, vc, seed, dataset):
    # passes when every learned-plant rollout from a seeded box start does
    hp, count = model.hyper, vc["rollouts"]
    starts = np.random.default_rng(seed).uniform(hp.x_lb, hp.x_ub, size=(count, hp.n))
    reports = [decay_bound_check(traj, hp) for traj in sim.rollout_many(model, model, starts)]
    worst = max(reports, key=lambda rep: rep.worst_v_ratio)
    return ({"report": asdict(worst), "passed": all(rep.passed for rep in reports),
             "rollouts": count}, count)


def _quad(model, system, vc, seed, dataset):
    r2 = float(np.linalg.norm(model.hyper.x_ub))
    rep = estimate_quadratic_ratio(model, 0.1 * r2, r2, vc["n_samples"], seed)
    return {"report": asdict(rep), "passed": rep.M >= rep.c1}, vc["n_samples"]


def _certificate(model, system, vc, seed, dataset):
    if dataset is None:
        return {"report": None, "passed": True, "skipped": "no dataset configured"}, 0
    r = vc["r"] if vc["r"] is not None else default_radius(model.hyper)
    rep = certificate(model, system, dataset, r, vc["n_samples"], seed)
    # completion is the gate; whether the bound holds is reported only
    return {"report": asdict(rep), "passed": True}, vc["n_samples"]


# check i draws seed i of the run's verify seeds, so a new entry goes last
CHECKS = {"decrease": Check(_decrease), "decay": Check(_decay), "quad": Check(_quad),
          "certificate": Check(_certificate, reads_dataset=True)}
