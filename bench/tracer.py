"""Span tracing of stabledyn's public calls, installed from outside the package.

``Tracer.install`` replaces module functions and class methods of each layer
(the package's modules) with wrappers that record one span per call: name,
start, end, parent span, batch rows and an optional extra value.  Spans stay
in memory; ``write_spans`` saves them once the run is over and
``layer_metrics`` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import gzip
import inspect
import time

import numpy as np

LAYERS = ("cli", "training", "diffcore", "models", "sim", "verify", "systems")

# span fields
NAME, START, END, PARENT, ROWS, EXTRA = range(6)

MODEL_CALLS = ("models.eval_pieces", "models.controller_batch", "models.lyapunov_batch")


def _rows(x):
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


class Tracer:
    """Records spans while ``enabled``; the wrappers stay installed until
    ``uninstall``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.enabled = False
        self._patched = []
        self.tape_bytes = {}  # batch rows -> bytes of node values on one tape

    # -- installation ------------------------------------------------------

    def _wrap(self, owner, attr, name, rows=None, extra=None, name_of=None):
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            span = [name_of(args) if name_of else name, 0, 0,
                    stack[-1] if stack else -1, rows(args) if rows else 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self):
        from stabledyn import cli, diffcore, models, sim, systems, training, verify

        model_cls = models.StableDynamicsModel
        rollout_sig = inspect.signature(sim.rollout_many)

        def rollout_extra(args, kwargs, trajs):
            bound = rollout_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            steps = int(round(bound.arguments["T"] / bound.arguments["h"]))
            short = [t for t in trajs if len(t) - 1 < steps]
            return {"steps": steps,
                    "row_steps": sum(len(t) - 1 for t in trajs),
                    "escaped": sum(t.reason == "escape guard" for t in short),
                    "other": sum(t.reason != "escape guard" for t in short)}

        def plant_kind(args):
            return ("sim.rollout_many.true" if isinstance(args[0], systems.SystemSpec)
                    else "sim.rollout_many.learned")

        w = self._wrap
        w(cli, "main", "cli.main", name_of=lambda a: "cli." + a[0][0])
        w(training, "train", "training.train")
        w(training, "loss", "training.loss", rows=lambda a: len(a[1]),
          extra=self._tape_size)
        w(training, "loss_value", "training.loss_value", rows=lambda a: len(a[1]))
        w(training, "sample_dataset", "training.sample_dataset", rows=lambda a: a[2])
        w(training, "export_dataset_csv", "training.export_dataset_csv",
          rows=lambda a: len(a[0]))
        w(training, "import_dataset_csv", "training.import_dataset_csv",
          extra=lambda a, k, out: len(out))
        w(training, "save_checkpoint", "training.save_checkpoint")
        w(training, "load_checkpoint", "training.load_checkpoint")
        # LossGraph.param_gradient reaches diffcore.param_gradient through the
        # training module's namespace, so that is where it is wrapped
        if training.param_gradient is not diffcore.param_gradient:
            raise RuntimeError("training no longer calls diffcore.param_gradient")
        w(training, "param_gradient", "diffcore.param_gradient")
        w(model_cls, "set_params", "models.set_params")
        w(model_cls, "eval_pieces", "models.eval_pieces", rows=lambda a: _rows(a[1]))
        w(model_cls, "controller_batch", "models.controller_batch",
          rows=lambda a: _rows(a[1]))
        w(model_cls, "lyapunov_batch", "models.lyapunov_batch",
          rows=lambda a: _rows(a[1]))
        w(sim, "rollout_many", "sim.rollout_many", rows=lambda a: _rows(a[2]),
          name_of=plant_kind, extra=rollout_extra)
        w(sim.Trajectory, "to_csv", "sim.Trajectory.to_csv", rows=lambda a: len(a[0]))
        w(sim, "export_field", "sim.export_field")
        w(sim.FieldGrid, "to_csv", "sim.FieldGrid.to_csv")
        w(systems.SystemSpec, "dynamics", "systems.dynamics", rows=lambda a: _rows(a[1]))
        w(verify, "check_decrease", "verify.check_decrease", rows=lambda a: a[1])
        w(verify, "estimate_quadratic_ratio", "verify.estimate_quadratic_ratio",
          rows=lambda a: a[3])
        w(verify, "certificate", "verify.certificate", rows=lambda a: a[4])
        w(verify, "decay_bound_check", "verify.decay_bound_check",
          rows=lambda a: len(a[0]), extra=lambda a, k, out: out.worst_v_ratio)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def _tape_size(self, args, kwargs, graph):
        """Nodes on the recorded tape.  Its bytes, summed over the node value
        arrays, are computed once per batch size."""
        rows = len(args[1])
        if rows not in self.tape_bytes:
            self.tape_bytes[rows] = sum(np.asarray(node.value).nbytes
                                        for node in graph.tape._nodes)
        return len(graph.tape)

    # -- overhead ----------------------------------------------------------

    def calibrate(self, calls=20000, repeats=7):
        """Median time in seconds that one wrapper adds to a call."""

        class Probe:
            @staticmethod
            def noop(x):
                return x

        raw = Probe.noop
        self._wrap(Probe, "noop", "bench.noop", rows=lambda a: 0)
        wrapped = Probe.noop
        saved = (self.spans, self.stack, self.enabled)
        self.spans, self.stack, self.enabled = [], [], True
        samples = []
        try:
            for _ in range(repeats):
                t0 = time.perf_counter_ns()
                for i in range(calls):
                    raw(i)
                t1 = time.perf_counter_ns()
                for i in range(calls):
                    wrapped(i)
                t2 = time.perf_counter_ns()
                self.spans.clear()
                samples.append(((t2 - t1) - (t1 - t0)) / calls)
        finally:
            self.spans, self.stack, self.enabled = saved
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)
        return float(np.median(samples)) * 1e-9

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        """All spans as gzip CSV: id, parent, name, start_ns, end_ns, rows, extra."""
        base = self.spans[0][START] if self.spans else 0
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start_ns,end_ns,rows,extra\n")
            for i, s in enumerate(self.spans):
                extra = "" if s[EXTRA] is None else str(s[EXTRA]).replace(",", ";")
                fh.write(f"{i},{s[PARENT]},{s[NAME]},{s[START] - base},"
                         f"{s[END] - base},{s[ROWS]},{extra}\n")


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics
# ---------------------------------------------------------------------------

def _pct(values, q):
    return float(np.percentile(values, q))


def flops_bytes_per_row(model):
    """Matmul flops and activation bytes per row of ``eval_pieces`` without a
    control, computed from the layer dims.

    A dense layer costs 2*in*out flops and moves its input and output row
    (8 bytes a value).  Three networks run forward, and the gv input-gradient
    chain costs one more gv pass.
    """
    def dense(net):
        pairs = list(zip(net.dims[:-1], net.dims[1:]))
        return 2 * sum(i * o for i, o in pairs), 8 * sum(i + o for i, o in pairs)

    nets = ("gu", "gf", "gv", "gv") if model.mode == "general" else ("gf2", "gf1", "gv", "gv")
    costs = [dense(model.nets[name]) for name in nets]
    return sum(c[0] for c in costs), sum(c[1] for c in costs)


class _Spans:
    """Column view of the span list with the lookups the metrics need."""

    def __init__(self, spans):
        self.spans = spans
        self.names = [s[NAME] for s in spans]
        self.dur = np.array([s[END] - s[START] for s in spans], dtype=np.float64) * 1e-9
        self.parent = np.array([s[PARENT] for s in spans], dtype=np.int64)
        self.rows = np.array([s[ROWS] for s in spans], dtype=np.int64)
        child = np.zeros(len(spans))
        inner = self.parent >= 0
        np.add.at(child, self.parent[inner], self.dur[inner])
        self.self_time = self.dur - child
        self.by_name = {}
        for i, name in enumerate(self.names):
            self.by_name.setdefault(name, []).append(i)

    def idx(self, name):
        return np.asarray(self.by_name.get(name, []), dtype=np.int64)

    def total(self, name):
        return float(self.dur[self.idx(name)].sum())

    def extra(self, name):
        return [self.spans[i][EXTRA] for i in self.idx(name)]


def layer_metrics(tracer, model, overhead_per_call):
    """Per-layer metrics of one traced pass (listed in BENCHMARK.json)."""
    sp = _Spans(tracer.spans)
    m = {}
    layer_of = np.array([LAYERS.index(name.split(".")[0]) for name in sp.names],
                        dtype=np.int64)
    for k, layer in enumerate(LAYERS):
        m[f"{layer}.self_s"] = float(sp.self_time[layer_of == k].sum())

    # diffcore and training: a step records the loss, sweeps and updates
    loss = sp.idx("training.loss")
    batch = int(np.max(sp.rows[loss]))
    full = loss[sp.rows[loss] == batch]
    m["diffcore.tape_nodes_per_step"] = float(max(sp.spans[i][EXTRA] for i in full))
    m["diffcore.tape_bytes_per_step"] = float(tracer.tape_bytes[batch])
    sweep = sp.dur[sp.idx("diffcore.param_gradient")] * 1e3
    m["diffcore.reverse_sweep_ms.p50"] = _pct(sweep, 50)
    m["diffcore.reverse_sweep_ms.p99"] = _pct(sweep, 99)
    m["diffcore.reverse_sweep_ms.n"] = float(len(sweep))
    record = sp.dur[full] * 1e3
    m["training.record_ms.p50"] = _pct(record, 50)
    m["training.record_ms.p99"] = _pct(record, 99)
    m["training.record_ms.n"] = float(len(record))
    m["training.update_ms.p50"] = _pct(sp.dur[sp.idx("models.set_params")] * 1e3, 50)
    m["training.holdout_s"] = sp.total("training.loss_value")
    m["training.steps"] = float(len(loss))
    m["training.dataset_csv_write_s"] = sp.total("training.export_dataset_csv")
    m["training.dataset_csv_read_s"] = sp.total("training.import_dataset_csv")
    m["training.checkpoint_write_s"] = sp.total("training.save_checkpoint")
    m["training.checkpoint_read_s"] = sp.total("training.load_checkpoint")

    # models: cost per call on rollout-sized batches, rows/s on audit chunks
    ev = sp.idx("models.eval_pieces")
    small = ev[sp.rows[ev] <= 64]
    large = ev[sp.rows[ev] >= 1024]
    us = sp.dur[small] * 1e6
    m["models.eval_calls"] = float(len(ev))
    m["models.eval_rows.p50"] = _pct(sp.rows[ev], 50)
    m["models.eval_us_per_call.p50"] = _pct(us, 50)
    m["models.eval_us_per_call.p99"] = _pct(us, 99)
    m["models.eval_us_per_call.n"] = float(len(us))
    m["models.eval_rows_per_s"] = float(sp.rows[large].sum() / sp.dur[large].sum())
    flops, nbytes = flops_bytes_per_row(model)
    m["models.flops_per_row"] = float(flops)
    m["models.bytes_per_row"] = float(nbytes)
    m["models.controller_calls"] = float(len(sp.idx("models.controller_batch")))
    m["models.lyapunov_calls"] = float(len(sp.idx("models.lyapunov_batch")))

    # sim: model calls made under each kind of rollout, per batched step
    owner = np.full(len(sp.spans), -1, dtype=np.int64)
    kinds = {kind: sp.idx(f"sim.rollout_many.{kind}") for kind in ("true", "learned")}
    for kind_idx in kinds.values():
        owner[kind_idx] = kind_idx
    for i in range(len(owner)):  # a parent always precedes its children
        if owner[i] < 0 and sp.parent[i] >= 0:
            owner[i] = owner[sp.parent[i]]
    is_model = np.isin(np.array(sp.names, dtype=object), MODEL_CALLS)
    rollouts = []
    for kind, kind_idx in kinds.items():
        info = [sp.spans[i][EXTRA] for i in kind_idx]
        rollouts += info
        steps = sum(r["steps"] for r in info)
        calls = int(np.sum(is_model & np.isin(owner, kind_idx)))
        m[f"sim.model_evals_per_step.{kind}"] = calls / steps
    m["sim.rollout_s"] = float(sum(sp.total(f"sim.rollout_many.{k}") for k in kinds))
    m["sim.row_steps"] = float(sum(r["row_steps"] for r in rollouts))
    m["sim.rows_truncated.escape"] = float(sum(r["escaped"] for r in rollouts))
    m["sim.rows_truncated.other"] = float(sum(r["other"] for r in rollouts))
    m["sim.csv_write_s"] = sp.total("sim.Trajectory.to_csv")

    m["systems.dynamics_calls"] = float(len(sp.idx("systems.dynamics")))
    m["systems.dynamics_s"] = sp.total("systems.dynamics")

    m["verify.decrease_s"] = sp.total("verify.check_decrease")
    m["verify.quad_s"] = sp.total("verify.estimate_quadratic_ratio")
    m["verify.certificate_s"] = sp.total("verify.certificate")
    m["verify.decay_check_s"] = float(sum(_decay_commands(sp).values()))
    m["verify.samples"] = float(sum(sp.rows[sp.idx(name)].sum() for name in
                                    ("verify.check_decrease",
                                     "verify.estimate_quadratic_ratio",
                                     "verify.certificate")))
    m["verify.decay_worst_ratio"] = float(max(sp.extra("verify.decay_bound_check")))

    for cmd in ("train", "simulate", "verify", "sample", "portrait"):
        m[f"cli.{cmd}_s"] = sp.total(f"cli.{cmd}")
    m["bench.spans"] = float(len(sp.spans))
    traced = float(sp.dur[sp.parent < 0].sum())
    overhead = len(sp.spans) * overhead_per_call
    m["bench.trace_overhead_frac"] = overhead / (traced - overhead)
    return m


def _decay_commands(sp):
    """Wall time of each verify command that ran the decay check (its
    rollouts plus the envelope checks), keyed by rollouts checked."""
    checks = sp.idx("verify.decay_bound_check")
    return {(int(i), int(np.sum(sp.parent[checks] == i))): float(sp.dur[i])
            for i in set(sp.parent[checks].tolist())}


# ---------------------------------------------------------------------------
# The timing table of ROADMAP open item 1, measured again
# ---------------------------------------------------------------------------

# (row, baseline low, baseline high, unit); per-row costs for batch evaluations
BASELINES = {
    "record": ("tape record, one train step (B=256)", 2.1, 2.1, "ms"),
    "sweep": ("reverse sweep, same step", 5.2, 5.2, "ms"),
    "set_params": ("set_params", 0.25, 0.25, "ms"),
    "eval_small": ("eval_pieces per call (baseline at B=1)", 0.15, 0.15, "ms"),
    "eval_large_general": ("eval_pieces per row, general (baseline at B=2560)",
                           29e3 / 2560, 29e3 / 2560, "us"),
    "eval_large_affine": ("eval_pieces per row, affine (baseline at B=2560)",
                          20e3 / 2560, 20e3 / 2560, "us"),
    "learned": ("learned-plant rollout, 5 starts (per step)", 1.0, 1.0, "ms"),
    "true_affine": ("true-plant rollout, 5 starts, affine (per step)", 1.3, 1.3, "ms"),
    "true_general": ("true-plant rollout, 5 starts, general (per step)", 0.25, 0.25, "ms"),
    "decrease": ("check_decrease, 100k samples", 0.8, 0.8, "s"),
    "decay": ("verify decay check at defaults", 9.0, 11.0, "s"),
}
CONFIRM_BAND = 0.25  # within this share of the baseline (range) counts as confirmed


def roadmap_rows(tracer, mode):
    """One printable line per table row: baseline, measurement, verdict."""
    sp = _Spans(tracer.spans)
    ms = 1e3
    rows = []

    def add(key, measured, how):
        label, lo, hi, unit = BASELINES[key]
        ok = lo * (1 - CONFIRM_BAND) <= measured <= hi * (1 + CONFIRM_BAND)
        base = f"{lo:.3g}" if lo == hi else f"{lo:.3g}-{hi:.3g}"
        rows.append(f"{label}: baseline {base} {unit}, measured {measured:.3g} {unit} "
                    f"({how}) -> {'confirms' if ok else 'corrects'}")

    loss = sp.idx("training.loss")
    at256 = loss[sp.rows[loss] == 256]
    add("record", np.median(sp.dur[at256]) * ms, f"median of {len(at256)}, {mode}")
    sweep = sp.idx("diffcore.param_gradient")
    add("sweep", np.median(sp.dur[sweep]) * ms, f"median of {len(sweep)}, {mode}")
    upd = sp.idx("models.set_params")
    add("set_params", np.median(sp.dur[upd]) * ms, f"median of {len(upd)}, {mode}")
    ev = sp.idx("models.eval_pieces")
    sizes, calls = np.unique(sp.rows[ev], return_counts=True)
    for key, pick in (("eval_small", sizes <= 64), (f"eval_large_{mode}", sizes >= 1024)):
        if np.any(pick):  # the most frequent batch size of the class
            b = int(sizes[pick][np.argmax(calls[pick])])
            sel = ev[sp.rows[ev] == b]
            med = float(np.median(sp.dur[sel]))
            value = med * ms if key == "eval_small" else med / b * 1e6
            add(key, value, f"B={b}, median of {len(sel)} calls, {mode}")
    for kind, key in (("learned", "learned"), ("true", f"true_{mode}")):
        idx = sp.idx(f"sim.rollout_many.{kind}")
        full = [i for i in idx if sp.rows[i] == 5]
        steps = sum(sp.spans[i][EXTRA]["steps"] for i in full)
        if steps:
            add(key, sum(sp.dur[i] for i in full) / steps * ms,
                f"{len(full)} rollouts, {steps} steps, {mode}")
    dec = sp.idx("verify.check_decrease")
    big = dec[sp.rows[dec] == 100000]
    if len(big):
        add("decrease", float(np.median(sp.dur[big])),
            f"median of {len(big)}, projected and ablated, {mode}")
    decays = _decay_commands(sp)
    rollouts = sorted({k for _, k in decays})
    add("decay", float(np.median(list(decays.values()))),
        f"{len(decays)} verify runs of {'/'.join(map(str, rollouts))} rollouts, {mode}")
    return rows
