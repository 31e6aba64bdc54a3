"""Self-tests of the benchmark on a tiny configuration (N=8, a few steps).

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import enks  # noqa: E402
from enks import harness  # noqa: E402
from enks.errors import NumericFailure  # noqa: E402

import kernels  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import DRAW_T, DRAWS, NAME, PARENT, T0, T1  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_TWIN = workloads.Workload("linear-gaussian", N=8, horizon=0.03)


def span(name, parent, t0, t1, draws=0, draw_t=0.0):
    return [name, parent, t0, t1, 0.0, 0.0, draws, draw_t, None]


def test_self_times_subtract_children_and_draws():
    spans = [span("bench.root", -1, 0.0, 10.0),
             span("sde.a", 0, 1.0, 5.0, draws=3, draw_t=1.0),
             span("core.b", 1, 2.0, 3.0),
             span("core.c", 0, 6.0, 9.0)]
    selft = tracing.self_times(spans)
    assert selft.tolist() == pytest.approx([3.0, 2.0, 1.0, 3.0])
    # self times and draw time partition the root span
    assert selft.sum() + 1.0 == pytest.approx(10.0)
    assert tracing.enclosing(spans, {"sde.a"}) == [-1, 1, 1, -1]


def test_tracer_records_nesting_counts_and_failures():
    tracer = tracing.Tracer("test", NumericFailure)
    draw = tracer.count(lambda: 1.0)
    inner = tracer.wrap("core.inner", lambda: draw() + draw())

    def boom():
        raise NumericFailure("injected")

    outer = tracer.wrap("sde.outer", lambda: inner())
    failing = tracer.wrap("enkf.fail", boom)
    assert outer() == 2.0
    with pytest.raises(NumericFailure):
        failing()
    tracer.finish()
    names = [s[NAME] for s in tracer.spans]
    assert names == ["bench.root", "sde.outer", "core.inner", "enkf.fail"]
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 1, 0]
    assert tracer.spans[2][DRAWS] == 2 and tracer.spans[2][DRAW_T] > 0
    assert tracer.failures == {"enkf.fail": 1}
    assert all(s[T1] >= s[T0] for s in tracer.spans)


def test_flop_counts_match_hand_derived_values():
    # n=2, q=1, N=8: 2nqN = 32, 2q^2N = 16, q^3/3, 2q^2n = 4
    assert kernels.gain_flops(2, 1, 8) == pytest.approx(52 + 1 / 3)
    assert kernels.update_flops(2, 1, 8) == 32
    # 32 + 16 + 2/3 + 4 + 16 + 32
    assert kernels.enkf_update_flops(2, 1, 8) == pytest.approx(100 + 2 / 3)
    # frame50 shapes: 16e6 + 4e6 + 125000/3 + 1e6
    assert kernels.gain_flops(200, 50, 800) == pytest.approx(21_041_666.667)
    assert kernels.gain_bytes(2, 1, 8) == 8 * (16 + 8 + 2)
    assert kernels.update_bytes(2, 1, 8) == 8 * (32 + 2 + 8 + 1)


def test_failed_frac_counts_injected_numeric_failure(monkeypatch, tmp_path):
    def diverge(*args, **kwargs):
        raise NumericFailure("injected")

    probe = workloads.FilterProbe(harness.run_filter_series)
    monkeypatch.setattr(harness, "run_filter_series", probe)
    tally = workloads.Tally()
    workloads.twin_iteration(TINY_TWIN, 3, tmp_path, probe, tally)
    assert (tally.attempted, tally.failed) == (3, 0)

    monkeypatch.setattr(harness, "iterative_enks_step", diverge)
    workloads.twin_iteration(TINY_TWIN, 3, tmp_path, probe, tally)
    # run_experiment stops at the failure, so all three filter runs are lost
    assert (tally.attempted, tally.failed) == (6, 3)
    assert any("NumericFailure" in p for p in tally.problems)


def test_rerun_with_other_output_counts_as_failure(tmp_path, monkeypatch):
    probe = workloads.FilterProbe(harness.run_filter_series)
    monkeypatch.setattr(harness, "run_filter_series", probe)
    tally = workloads.Tally()
    workloads.twin_iteration(TINY_TWIN, 4, tmp_path, probe, tally)
    tally.digests["enks"] = "0" * 64
    workloads.twin_iteration(TINY_TWIN, 4, tmp_path, probe, tally)
    assert tally.failed == 1
    assert any("rerun" in p for p in tally.problems)


def test_run_reports_exactly_the_declared_metrics(monkeypatch, tmp_path):
    name = "tiny-twin"
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY_TWIN)
    originals = (harness.run_filter_series, enks.core.compute_gain,
                 enks.models.MeasurementModel.evaluate,
                 enks.rng.RngStream.standard_normal)
    untraced = workloads.run(name, 5, 0.01, False, ROOT, tmp_path, "test")
    assert set(untraced["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(v > 0 for v in untraced["metrics"].values())
    traced = workloads.run(name, 5, 0.01, True, ROOT, tmp_path, "test")
    assert set(traced["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    assert traced["tally"].failed == 0
    # the layer columns and the remainder add up to each filter's step time
    rows = [line.split() for line in traced["table"][2:]]
    assert {r[0] for r in rows} == set(harness.FILTER_KINDS)
    for r in rows:
        parts = [float(x) for x in r[2:]]
        assert sum(parts) == pytest.approx(float(r[1]), abs=1e-3 * len(parts))
        assert 0 < parts[-1] < float(r[1])
    assert 0 < traced["metrics"]["trace.unattributed_frac"] < 1
    # the run leaves the library as it found it
    assert (harness.run_filter_series, enks.core.compute_gain,
            enks.models.MeasurementModel.evaluate,
            enks.rng.RngStream.standard_normal) == originals


def test_traced_run_skips_a_name_the_library_no_longer_has(monkeypatch, tmp_path):
    # as if the library had dropped particle_streams and built its streams
    # inside run_filter_series
    streams, run_filter_series = harness.particle_streams, harness.run_filter_series

    def without_particle_streams(kind, problem, series, ens0, cfg, *args, **kwargs):
        kwargs.setdefault("streams", streams(cfg.seed, ens0.shape[1]))
        return run_filter_series(kind, problem, series, ens0, cfg, *args, **kwargs)

    monkeypatch.delattr(harness, "particle_streams")
    monkeypatch.setattr(harness, "run_filter_series", without_particle_streams)
    tracer = tracing.Tracer("test", NumericFailure)
    assert (harness, "particle_streams") not in {
        (owner, attr) for owner, attr, _ in tracing.patches(tracer, enks)}
    name = "tiny-twin"
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY_TWIN)
    traced = workloads.run(name, 5, 0.01, True, ROOT, tmp_path, "test")
    assert set(traced["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    assert traced["tally"].failed == 0
    assert traced["metrics"]["rng.streams_ms"] == 0
    assert traced["metrics"]["sde.predict_ms_per_step"] > 0


def test_benchmark_json_documents_workloads_and_targets():
    names = [w["name"] for w in DECLARED["workloads"]]
    assert names == list(workloads.WORKLOADS)
    assert all(w["why"].strip() for w in DECLARED["workloads"])
    end_to_end = {m["name"] for m in DECLARED["end_to_end"]}
    per_layer = [m["name"] for m in DECLARED["per_layer"]]
    assert set(per_layer) == set(tracing.TARGETS)
    for name in per_layer:
        moves, flat = tracing.TARGETS[name]
        for metric, workload in moves + flat:
            assert metric in end_to_end, (name, metric)
            assert workload in names, (name, workload)
