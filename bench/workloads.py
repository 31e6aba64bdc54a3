"""Workloads of the EnKS benchmark and the closed batch loop that runs them.

One process runs one workload iteration after another until the time
budget is spent, and starts no threads of its own.  An iteration of a
workload is ``run_experiment`` with all three filters and every artifact
``enks run`` writes.  Every iteration uses the same seed, so each one also
re-checks that reruns are bit-identical.

BLAS threading is left as the library sets it: the benchmark sets no
thread variable, because pinning one would hide how the default behaves.

Set-up is timed ``SETUP_PER_ITERATION`` times in every iteration, so that
its median, like the other times, covers the whole run.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import enks
from enks import harness
from enks.benchmarks import kalman_oracle
from enks.errors import NumericFailure
from enks.harness import (FILTER_KINDS, ExperimentConfig, initial_ensemble,
                          make_twin_data)
from enks.record import load_csv

import kernels
import tracing

SETUP_PER_ITERATION = 20
DT = 0.01  # time step of every workload
# EnKF against the exact Kalman filter on linear-Gaussian data: the time
# mean of |EnKF mean - Kalman mean| may be at most this many Monte-Carlo
# standard errors (posterior std / sqrt(N)), and the mean ratio of EnKF
# spread to Kalman posterior std may differ from 1 by at most the second.
ORACLE_MEAN_SE = 3.0
ORACLE_STD_RTOL = 0.1


@dataclass(frozen=True)
class Workload:
    problem: str
    N: int
    horizon: float

    def config(self, seed: int, **kw) -> ExperimentConfig:
        return ExperimentConfig(problem=self.problem, filters=FILTER_KINDS,
                                N=self.N, dt=DT, horizon=self.horizon,
                                seed=seed, **kw)


# Horizons are short so that each run of the loop covers several
# iterations within the benchmark's time budget; per-step cost does not
# depend on the horizon.
WORKLOADS = {
    "lg-n2000": Workload("linear-gaussian", N=2000, horizon=1.0),
    "frame50-n800": Workload("frame50", N=800, horizon=0.2),
}


class FilterProbe:
    """Stands in for ``harness.run_filter_series``: times every call and
    keeps the last inputs per filter kind for the correctness checks."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []  # (kind, steps, seconds)
        self.inputs = {}

    def __call__(self, kind, problem, series, *args, **kwargs):
        t0 = perf_counter()
        out = self.fn(kind, problem, series, *args, **kwargs)
        self.calls.append((kind, len(series), perf_counter() - t0))
        self.inputs[kind] = (problem, series)
        return out


@dataclass
class Tally:
    """Outcome counts, digests and per-iteration measurements of a run."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    run_s: list = field(default_factory=list)
    rmse: dict = field(default_factory=dict)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.problems.append(reason)

    def same_as_first(self, key: str, *arrays) -> bool:
        """Record a digest of ``arrays`` and compare it with the first one."""
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return self.digests.setdefault(key, h.hexdigest()) == h.hexdigest()


def _span(tracer, name: str):
    """A span of the benchmark's own call into the library, when tracing."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def step_ms(calls) -> dict:
    """Filter kind -> wall time of its ``run_filter_series`` calls per step,
    in ms, summed over ``calls`` before dividing."""
    totals = {}
    for kind, steps, seconds in calls:
        s, t = totals.get(kind, (0, 0.0))
        totals[kind] = (s + steps, t + seconds)
    return {kind: 1e3 * t / s for kind, (s, t) in totals.items()}


def twin_iteration(spec: Workload, seed: int, out_dir: Path, probe: FilterProbe,
                   tally: Tally, tracer=None) -> None:
    """One ``run_experiment`` with all filters, then its correctness checks."""
    cfg = spec.config(seed, out_dir=str(out_dir))
    tally.attempted += len(FILTER_KINDS)
    t0 = perf_counter()
    try:
        record = harness.run_experiment(cfg)
    except NumericFailure as err:
        tally.fail(len(FILTER_KINDS), f"run_experiment raised NumericFailure: {err}")
        return
    tally.run_s.append(perf_counter() - t0)

    bad = set()
    for kind in FILTER_KINDS:
        means, stds = record.filter_means[kind], record.filter_stds[kind]
        if not (np.isfinite(means).all() and np.isfinite(stds).all()):
            bad.add(kind)
            tally.problems.append(f"{kind}: non-finite mean or std")
        if not tally.same_as_first(kind, means, stds):
            bad.add(kind)
            tally.problems.append(f"{kind}: rerun of the same seed differs")
        tally.rmse.setdefault(kind, []).append(
            float(np.mean(record.summary_rmse()[kind])))

    problem, series = probe.inputs["enkf"]
    if problem.kalman_spec is not None:
        with _span(tracer, "benchmarks.kalman_oracle"):
            ok, detail = oracle_check(record, problem, series, spec)
        if not ok:
            bad.add("enkf")
            tally.problems.append(f"enkf: {detail}")

    loaded = load_csv(out_dir / f"{cfg.problem}_rows.csv")
    same = (np.array_equal(loaded.steps, record.steps)
            and np.array_equal(loaded.times, record.times)
            and np.array_equal(loaded.truth, record.truth)
            and all(np.array_equal(loaded.filter_means[k], record.filter_means[k])
                    and np.array_equal(loaded.filter_stds[k], record.filter_stds[k])
                    for k in FILTER_KINDS))
    if not same:
        bad.update(FILTER_KINDS)
        tally.problems.append("rows CSV does not round-trip through load_csv")
    tally.failed += len(bad)


def oracle_check(record, problem, series, spec: Workload) -> tuple[bool, str]:
    """EnKF mean and spread against the exact Kalman posterior."""
    m_kal, covs = kalman_oracle(problem.kalman_spec, series, DT)
    sd_kal = np.sqrt(np.diagonal(covs, axis1=1, axis2=2).T)  # (n, M)
    dev = float(np.mean(np.abs(record.filter_means["enkf"] - m_kal)))
    tol = ORACLE_MEAN_SE * float(np.mean(sd_kal)) / np.sqrt(spec.N)
    ratio = float(np.mean(record.filter_stds["enkf"] / sd_kal))
    ok = dev <= tol and abs(ratio - 1.0) <= ORACLE_STD_RTOL
    return ok, (f"mean |EnKF - Kalman| = {dev:.3g} (limit {tol:.3g}), "
                f"spread ratio {ratio:.4f} (limit 1 +- {ORACLE_STD_RTOL})")


def setup_times(spec: Workload, seed: int, repeats: int) -> list:
    """Times from configuration to the first assimilation step: problem
    build, truth simulation, measurement synthesis and the initial
    ensemble."""
    cfg = spec.config(seed, emit_outputs=False)
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        problem, _, _, _ = make_twin_data(cfg)
        initial_ensemble(problem, spec.N, seed)
        times.append(perf_counter() - t0)
    return times


def closed_loop(seconds: float, iteration, min_iterations: int) -> int:
    """Run ``iteration`` back to back while the next one is expected to
    finish within ``seconds``; at least ``min_iterations`` times."""
    durations = []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        iteration()
        durations.append(perf_counter() - t0)
        expected_end = perf_counter() - t_start + statistics.median(durations)
        if len(durations) >= min_iterations and expected_end > seconds:
            return len(durations)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        out_dir: Path, run_id: str) -> dict:
    """Run one workload; returns metrics, counts and what the trace found.

    Untraced, the loop fills ``seconds``.  Traced, an untraced half comes
    first, so that the traced half's step times give the tracing overhead.
    """
    spec = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    probe = FilterProbe(harness.run_filter_series)
    setups = []
    result = {"tally": tally, "calls": probe.calls, "setups": setups}

    def iteration():
        setups.extend(setup_times(spec, seed, SETUP_PER_ITERATION))
        twin_iteration(spec, seed, out_dir, probe, tally)

    with tracing.patched([(harness, "run_filter_series", probe)]):
        if not trace:
            closed_loop(seconds, iteration, min_iterations=2)
            result["metrics"] = {
                "setup_s": statistics.median(setups),
                **{f"step_ms.{k}": v for k, v in step_ms(probe.calls).items()},
                "run_s": statistics.median(tally.run_s) if tally.run_s else 0.0,
                "peak_rss_mb": peak_rss_mb(),
            }
            return result

        closed_loop(seconds / 2, iteration, min_iterations=1)
        untraced = step_ms(probe.calls)
        start = len(probe.calls)
        tracer = tracing.Tracer(run_id, NumericFailure)

        def traced_iteration():
            with tracer.span("bench.iteration"):
                twin_iteration(spec, seed, out_dir, probe, tally, tracer)

        with tracing.patched(tracing.patches(tracer, enks)):
            iterations = closed_loop(seconds / 2, traced_iteration,
                                     min_iterations=1)
        tracer.finish()
    metrics, table = tracing.layer_metrics(tracer, iterations)
    traced = step_ms(probe.calls[start:])
    both = [k for k in traced if k in untraced]
    metrics["trace.overhead_frac"] = (
        sum(traced[k] for k in both) / sum(untraced[k] for k in both) - 1.0
        if both else 0.0)
    metrics["record.bytes_written"] = (
        sum(Path(p).stat().st_size for p in tracer.emitted) / iterations)
    # the one-thread baseline times the kernels at one workload's shapes
    blas1 = (kernels.blas1_baseline(root, seed)
             if (spec.problem, spec.N) == kernels.BASELINE else {})
    metrics["core.gain_gflops.blas1"] = blas1.get("gain_gflops", 0.0)
    metrics["core.update_gflops.blas1"] = blas1.get("update_gflops", 0.0)
    for kind in FILTER_KINDS:
        values = tally.rmse.get(kind)
        metrics[f"rmse.{kind}"] = statistics.median(values) if values else 0.0
    metrics["failed_frac"] = tally.failed / max(tally.attempted, 1)
    result.update(metrics=metrics, table=table, tracer=tracer, blas1=blas1,
                  untraced_step_ms=untraced, traced_step_ms=traced)
    return result
