"""In-memory span tracer and the per-layer split of a traced run.

The tracer replaces public functions of the ``enks`` package at the names
their callers look them up under (``enks.core.predict_ensemble``,
``enks.iterative.compute_gain``, ...) with wrappers that record one span
per call: name, parent, start, end, optional process CPU time and optional
attributes taken from the arguments.  The library itself is not edited;
``patched`` puts every original back when the traced run ends.

``RngStream.standard_normal`` runs once per particle per step, so it gets
no span of its own: each call adds one to a count and its duration to an
accumulated time on the innermost open span.

A span's self time is its duration minus the durations of its child spans
and the accumulated draw time; draw time is attributed to the ``rng``
layer.  Span names are ``<layer>.<function>``, so the layer of a span is
the part of its name before the first dot.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter, process_time

import numpy as np

import kernels

# span fields
NAME, PARENT, T0, T1, C0, C1, DRAWS, DRAW_T, ATTR = range(9)

# filter step functions, keyed by span name
STEP_SPANS = {"core.enks_step": "enks",
              "iterative.iterative_enks_step": "enks-iter",
              "enkf.enkf_step": "enkf"}
RUN_SPAN = "harness.run_filter_series"
LAYERS = ("rng", "sde", "models", "benchmarks", "problems", "core",
          "iterative", "enkf", "harness", "record", "bench")
COLUMNS = (*LAYERS, "remainder")  # of the printed split


@contextlib.contextmanager
def patched(patches):
    """Apply ``(owner, attribute, replacement)`` patches, then undo them."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


class Tracer:
    """Collects spans of one traced run; ``run_id`` is shared by all of them."""

    def __init__(self, run_id: str, failure_type: type):
        self.run_id = run_id
        self.failure_type = failure_type
        self.failures: dict = {}
        self.emitted: list = []  # paths the record layer wrote
        self.spans: list = [["bench.root", -1, perf_counter(), 0.0, 0.0, 0.0,
                             0, 0.0, None]]
        self.stack: list = [0]

    def _open(self, name, attr, cpu):
        span = [name, self.stack[-1], 0.0, 0.0, 0.0, 0.0, 0, 0.0, attr]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        if cpu:
            span[C0] = process_time()
        span[T0] = perf_counter()
        return span

    def _close(self, span, cpu):
        span[T1] = perf_counter()
        if cpu:
            span[C1] = process_time()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, attr=None):
        """Span around a block of the benchmark's own code."""
        span = self._open(name, attr, False)
        try:
            yield span
        finally:
            self._close(span, False)

    def wrap(self, name: str, fn, attr=None, cpu: bool = False):
        """Wrapper recording one span per call of ``fn``.

        ``attr(*args, **kwargs)`` computes the span's attributes from the
        call's arguments; ``cpu`` also records process CPU time.  A
        ``failure_type`` exception passing through is counted under
        ``name`` and re-raised.
        """
        def traced(*args, **kwargs):
            span = self._open(name, attr(*args, **kwargs) if attr else None,
                              cpu)
            try:
                return fn(*args, **kwargs)
            except self.failure_type:
                self.failures[name] = self.failures.get(name, 0) + 1
                raise
            finally:
                self._close(span, cpu)
        traced.__wrapped__ = fn
        return traced

    def count(self, fn):
        """Wrapper adding each call's count and duration to the open span."""
        spans, stack = self.spans, self.stack

        def counted(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            span = spans[stack[-1]]
            span[DRAWS] += 1
            span[DRAW_T] += perf_counter() - t0
            return out
        counted.__wrapped__ = fn
        return counted

    def finish(self):
        self.spans[0][T1] = perf_counter()

    def write(self, path) -> None:
        """Write the spans as JSON lines, after one header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id,
                                 "fields": ["id", "name", "parent", "start",
                                            "end", "draws", "draw_s", "attr"],
                                 "failures": self.failures}) + "\n")
            t_ref = self.spans[0][T0]
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s[NAME], s[PARENT], s[T0] - t_ref,
                                     s[T1] - t_ref, s[DRAWS], s[DRAW_T],
                                     s[ATTR]]) + "\n")


def self_times(spans) -> np.ndarray:
    """Duration of each span minus its children and its counted draws."""
    out = np.array([s[T1] - s[T0] - s[DRAW_T] for s in spans], dtype=float)
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[T1] - s[T0]
    return out


def enclosing(spans, names) -> list:
    """Index of the nearest span (itself included) whose name is in ``names``.

    Relies on a parent being recorded before its children, which holds
    because spans are appended when they open.
    """
    out = [-1] * len(spans)
    for i, s in enumerate(spans):
        if s[NAME] in names:
            out[i] = i
        elif s[PARENT] >= 0:
            out[i] = out[s[PARENT]]
    return out


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------

def _gain_attr(pred, h_pred, *rest):
    n, N = np.shape(pred)
    q = np.shape(h_pred)[0]
    return {"flops": kernels.gain_flops(n, q, N), "bytes": kernels.gain_bytes(n, q, N)}


def _update_attr(pred, gain, y, h_pred):
    n, N = np.shape(pred)
    q = np.shape(h_pred)[0]
    return {"flops": kernels.update_flops(n, q, N),
            "bytes": kernels.update_bytes(n, q, N)}


def _enkf_attr(pred, h_pred, *rest):
    n, N = np.shape(pred)
    q = np.shape(h_pred)[0]
    return {"flops": kernels.enkf_update_flops(n, q, N)}


def _run_attr(kind, problem, series, *rest, **kwargs):
    return {"kind": kind, "steps": len(series)}


class _RepeatDetector:
    """Marks a measurement evaluation whose input array and time repeat the
    previous call's, i.e. work whose result the caller already had."""

    def __init__(self):
        self.last = (None, None)

    def __call__(self, meas, ens, t):
        repeat = ens is self.last[0] and t == self.last[1]
        self.last = (ens, t)
        return {"repeat": repeat}


def patches(tracer: Tracer, enks) -> list:
    """Every wrapper of a traced run, at the names the callers use.

    ``enks`` is the imported package; its submodules are reached through it.
    A name its owner no longer has is skipped, so the metrics of that
    function read 0 instead of the traced run failing.
    """
    core, iterative, enkf, harness, models, rng = (
        enks.core, enks.iterative, enks.enkf, enks.harness, enks.models,
        enks.rng)
    w = tracer.wrap

    def build(fn):
        def build_traced(*args, **kwargs):
            problem = fn(*args, **kwargs)
            drift = getattr(problem.proc_filter, "drift_ensemble", None)
            if drift is not None:
                problem.proc_filter.drift_ensemble = w(
                    "benchmarks.drift_ensemble", drift)
            return problem
        return w("problems.build_problem", build_traced)

    def emitter(name):
        def make(fn):
            traced = w(name, fn)

            def emit(*args, **kwargs):
                path = traced(*args, **kwargs)
                tracer.emitted.append(path)
                return path
            return emit
        return make

    def span(name, attr=None, cpu=False):
        return lambda fn: w(name, fn, attr, cpu)

    table = [
        (harness, "build_problem", build),
        (harness, "make_twin_data", span("harness.make_twin_data")),
        (harness, "simulate_truth", span("sde.simulate_truth")),
        (harness, "synth_measurements", span("sde.synth_measurements")),
        (harness, "initial_ensemble", span("harness.initial_ensemble")),
        (harness, "particle_streams", span("rng.particle_streams")),
        (harness, "run_filter_series", span(RUN_SPAN, _run_attr)),
        (harness, "enks_step", span("core.enks_step")),
        (harness, "iterative_enks_step", span("iterative.iterative_enks_step")),
        (harness, "enkf_step", span("enkf.enkf_step")),
        (harness, "emit_csv", emitter("record.emit_csv")),
        (harness, "emit_summary", emitter("record.emit_summary")),
        (harness, "emit_linechart", emitter("record.emit_linechart")),
        *((owner, "predict_ensemble", span("sde.predict_ensemble"))
          for owner in (core, iterative, enkf)),
        *((owner, "compute_gain", span("core.compute_gain", _gain_attr, True))
          for owner in (core, iterative)),
        *((owner, "additive_update",
           span("core.additive_update", _update_attr, True))
          for owner in (core, iterative)),
        (iterative, "iterate_update", span("iterative.iterate_update")),
        (enkf, "enkf_update", span("enkf.enkf_update", _enkf_attr, True)),
        (models.MeasurementModel, "evaluate",
         span("models.evaluate", _RepeatDetector())),
        (rng.RngStream, "standard_normal", tracer.count),
    ]
    return [(owner, attr, make(getattr(owner, attr)))
            for owner, attr, make in table if hasattr(owner, attr)]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, iterations: int) -> tuple[dict, list]:
    """Per-layer metrics of a finished trace, and the printable split.

    ``iterations`` is the number of workload iterations (twin experiments)
    the trace covers; set-up and output costs are
    reported per iteration.  Metrics of a layer the workload does not
    exercise read 0.
    """
    spans = tracer.spans
    selft = self_times(spans)
    step_of = enclosing(spans, STEP_SPANS)
    run_of = enclosing(spans, {RUN_SPAN})
    names = [s[NAME] for s in spans]
    dur = np.array([s[T1] - s[T0] for s in spans])
    in_step = np.array(step_of) >= 0

    steps = [i for i, n in enumerate(names) if n in STEP_SPANS]
    n_steps = max(len(steps), 1)
    iter_steps = [i for i in steps if names[i] == "iterative.iterative_enks_step"]
    n_iter_steps = max(len(iter_steps), 1)
    it = max(iterations, 1)

    def idx(name, step_only=True):
        return [i for i, n in enumerate(names)
                if n == name and (in_step[i] or not step_only)]

    def total(name, step_only=True):
        ids = idx(name, step_only)
        return float(dur[ids].sum()) if ids else 0.0

    m = {}
    draws = [i for i in range(len(spans)) if in_step[i]]
    m["rng.draw_calls_per_step"] = sum(spans[i][DRAWS] for i in draws) / n_steps
    m["rng.draw_ms_per_step"] = 1e3 * sum(spans[i][DRAW_T] for i in draws) / n_steps
    runs = idx(RUN_SPAN, False)
    m["rng.streams_ms"] = 1e3 * total("rng.particle_streams", False) / max(len(runs), 1)

    pred = idx("sde.predict_ensemble")
    m["sde.predict_ms_per_step"] = 1e3 * float(dur[pred].sum()) / n_steps
    m["sde.predict_self_ms_per_step"] = 1e3 * float(selft[pred].sum()) / n_steps
    m["sde.truth_s"] = total("sde.simulate_truth", False) / it
    m["sde.synth_s"] = total("sde.synth_measurements", False) / it

    ev = idx("models.evaluate")
    m["models.evaluate_ms_per_step"] = 1e3 * float(dur[ev].sum()) / n_steps
    m["models.evaluate_calls_per_step"] = len(ev) / n_steps
    ev_iter = [i for i in ev if names[step_of[i]] == "iterative.iterative_enks_step"]
    ev_base = ev_iter or ev
    m["models.evaluate_useful_ratio"] = (
        sum(not spans[i][ATTR]["repeat"] for i in ev_base) / max(len(ev_base), 1))

    m["benchmarks.drift_ms_per_step"] = 1e3 * total("benchmarks.drift_ensemble") / n_steps
    m["benchmarks.oracle_s"] = total("benchmarks.kalman_oracle", False) / it
    m["problems.build_s"] = total("problems.build_problem", False) / it

    for short, name in (("gain", "core.compute_gain"),
                        ("update", "core.additive_update")):
        ids = idx(name)
        t = float(dur[ids].sum())
        cpu = sum(spans[i][C1] - spans[i][C0] for i in ids)
        fl = sum(spans[i][ATTR]["flops"] for i in ids)
        by = sum(spans[i][ATTR]["bytes"] for i in ids)
        m[f"core.{short}_ms_per_call"] = 1e3 * t / max(len(ids), 1)
        m[f"core.{short}_calls_per_step"] = len(ids) / n_steps
        m[f"core.{short}_flops"] = fl / max(len(ids), 1)
        m[f"core.{short}_flops_per_byte"] = fl / by if by else 0.0
        m[f"core.{short}_gflops"] = fl / t / 1e9 if t else 0.0
        m[f"core.{short}_cpu_per_wall"] = cpu / t if t else 0.0

    iu = idx("iterative.iterate_update")
    m["iterative.self_ms_per_step"] = 1e3 * float(selft[iu].sum()) / n_iter_steps
    passes = [i for i in idx("core.additive_update")
              if names[spans[i][PARENT]] == "iterative.iterate_update"]
    m["iterative.passes_per_step"] = len(passes) / n_iter_steps

    eu = idx("enkf.enkf_update")
    t_eu = float(dur[eu].sum())
    m["enkf.update_ms_per_call"] = 1e3 * t_eu / max(len(eu), 1)
    m["enkf.update_gflops"] = (sum(spans[i][ATTR]["flops"] for i in eu) / t_eu / 1e9
                               if t_eu else 0.0)

    m["harness.twin_s"] = total("harness.make_twin_data", False) / it
    m["harness.loop_self_ms_per_step"] = 1e3 * float(selft[runs].sum()) / n_steps
    for kind in STEP_SPANS.values():
        ms = [1e3 * dur[i] for i in steps if STEP_SPANS[names[i]] == kind]
        m[f"harness.step_ms_p50.{kind}"] = _pct(ms, 50)
        m[f"harness.step_ms_p95.{kind}"] = _pct(ms, 95)
        m[f"harness.step_count.{kind}"] = len(ms)
    m["record.emit_s"] = sum(total(n, False) for n in (
        "record.emit_csv", "record.emit_summary", "record.emit_linechart")) / it

    step_t = float(dur[steps].sum())
    m["trace.unattributed_frac"] = (float(selft[steps].sum()) / step_t
                                    if step_t else 0.0)
    return m, split_table(spans, selft, run_of, names)


def split_table(spans, selft, run_of, names) -> list:
    """Per-filter ms per step by layer, over the ``run_filter_series`` spans.

    A span's self time goes to its layer, except that the self time of a
    filter's step function is printed as the unattributed remainder: step
    time that no traced library function accounts for.  The layer columns
    and the remainder add up to the traced step time.
    """
    rows = {}
    for i, r in enumerate(run_of):
        if r < 0:
            continue
        kind = spans[r][ATTR]["kind"]
        row = rows.setdefault(kind, {"steps": 0, "run_s": 0.0,
                                     **{column: 0.0 for column in COLUMNS}})
        if i == r:
            row["steps"] += spans[r][ATTR]["steps"]
            row["run_s"] += spans[r][T1] - spans[r][T0]
        column = "remainder" if names[i] in STEP_SPANS else names[i].split(".")[0]
        row[column] += selft[i]
        row["rng"] += spans[i][DRAW_T]
    lines = ["per-layer self time, ms per step (traced):",
             f"{'filter':>10s} {'step_ms':>8s} " + " ".join(
                 f"{column:>9s}" for column in COLUMNS)]
    for kind, row in rows.items():
        k = 1e3 / max(row["steps"], 1)
        lines.append(f"{kind:>10s} {row['run_s'] * k:8.3f} " + " ".join(
            f"{row[column] * k:9.3f}" for column in COLUMNS))
    return lines


# ---------------------------------------------------------------------------
# what each per-layer metric should move
# ---------------------------------------------------------------------------

# metric -> ((end-to-end metric, workload) pairs it should move,
#            pairs on which it should stay flat).  An empty first entry
# marks a metric that describes accuracy, failures or the trace itself.
_LG, _FRAME = "lg-n2000", "frame50-n800"
_STEPS_LG = tuple((f"step_ms.{k}", _LG) for k in STEP_SPANS.values())
_STEPS_FRAME = tuple((f"step_ms.{k}", _FRAME) for k in STEP_SPANS.values())
_SETUP = (("setup_s", _LG), ("setup_s", _FRAME))
_GAIN = ((("step_ms.enks", _FRAME), ("step_ms.enks-iter", _FRAME)),
         (("step_ms.enks", _LG),))
_RNG = (_STEPS_LG, (("step_ms.enks-iter", _FRAME),))
_NONE = ((), ())

TARGETS = {
    "rng.draw_calls_per_step": _RNG,
    "rng.draw_ms_per_step": _RNG,
    "rng.streams_ms": _RNG,
    "sde.predict_ms_per_step": (_STEPS_LG + _STEPS_FRAME, ()),
    "sde.predict_self_ms_per_step": (_STEPS_LG + _STEPS_FRAME, ()),
    "sde.truth_s": (_SETUP, ()),
    "sde.synth_s": (_SETUP, ()),
    "models.evaluate_ms_per_step": ((("step_ms.enks-iter", _FRAME),), ()),
    "models.evaluate_calls_per_step": ((("step_ms.enks-iter", _FRAME),), ()),
    "models.evaluate_useful_ratio": ((("step_ms.enks-iter", _FRAME),), ()),
    "benchmarks.drift_ms_per_step": (_STEPS_FRAME, _STEPS_LG),
    # cost of the oracle check, which is outside the timed run
    "benchmarks.oracle_s": _NONE,
    "problems.build_s": (_SETUP, ()),
    **{f"core.{k}_{m}": _GAIN
       for k in ("gain", "update")
       for m in ("ms_per_call", "calls_per_step", "flops", "flops_per_byte",
                 "gflops", "cpu_per_wall", "gflops.blas1")},
    "iterative.self_ms_per_step": ((("step_ms.enks-iter", _FRAME),), ()),
    "iterative.passes_per_step": ((("step_ms.enks-iter", _FRAME),), ()),
    "enkf.update_ms_per_call": ((("step_ms.enkf", _FRAME),), (("step_ms.enkf", _LG),)),
    "enkf.update_gflops": ((("step_ms.enkf", _FRAME),), (("step_ms.enkf", _LG),)),
    "harness.twin_s": (_SETUP, ()),
    "harness.loop_self_ms_per_step": (_STEPS_LG + _STEPS_FRAME, ()),
    **{f"harness.{m}.{k}": (((f"step_ms.{k}", _LG), (f"step_ms.{k}", _FRAME)), ())
       for k in STEP_SPANS.values()
       for m in ("step_ms_p50", "step_ms_p95", "step_count")},
    "record.emit_s": ((("run_s", _FRAME),), (("run_s", _LG),)),
    "record.bytes_written": ((("run_s", _FRAME),), (("run_s", _LG),)),
    **{f"rmse.{k}": _NONE for k in STEP_SPANS.values()},
    "failed_frac": _NONE,
    "trace.overhead_frac": _NONE,
    "trace.unattributed_frac": _NONE,
}
