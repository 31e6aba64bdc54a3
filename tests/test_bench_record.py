"""The BENCH file recorder ``tests/bench_record.py``, fed canned output: no
benchmark or test run starts here."""

import json

import pytest

import bench_record

BENCH_STDOUT = """env {"workload": "lg-n2000", "seed": 0, "nproc": 2}
digest enks 1f2e
digest enks-iter 3a4b
digest enkf 5c6d
setup_s                              0.0009 s
{"correct": true, "attempted": 6, "failed": 0, "metrics": {}}
"""

RESULT = {
    "attempted": 6, "failed": 0,
    "setup_samples_s": [0.004, 0.001, 0.002, 0.003, 0.005],
    "iteration_run_s": [0.3, 0.1, 0.2],
    "filter_calls": [{"filter": "enks", "steps": 100, "seconds": 0.01},
                     {"filter": "enkf", "steps": 100, "seconds": 0.03},
                     {"filter": "enks", "steps": 50, "seconds": 0.01}],
    "metrics": {"setup_s": {"value": 0.003, "unit": "s"},
                "step_ms.enks": {"value": 0.1333, "unit": "ms/step"},
                "step_ms.enkf": {"value": 0.3, "unit": "ms/step"},
                "run_s": {"value": 0.2, "unit": "s"},
                "peak_rss_mb": {"value": 38.5, "unit": "MB"}},
}

PYTEST_OUTPUT = """F..F........                                    [100%]
=================================== FAILURES ===================================
E       AssertionError: single-step mean deviates from the Kalman posterior by 0.4004 (3 x MC standard error = 0.0666); gain 0.0125
==================================== PASSES ====================================
----------------------------- Captured stdout call -----------------------------

CRITERION 2 (ensemble convergence order): PASS - slope -0.49 [5s]
=========================== short test summary info ============================
PASSED tests/test_acceptance.py::test_criterion_2_ensemble_convergence_order
PASSED tests/test_core.py::TestComputeGain::test_shift_invariance
FAILED tests/test_acceptance.py::test_criterion_1_kalman_oracle_equivalence - AssertionError: CRITERION 1 (Kalman-oracle equivalence): FAIL - deviation
FAILED tests/test_core.py::TestEnksStep::test_single_step_tracks_kalman_posterior - AssertionError: single-step ...
CRITERION 1 (Kalman-oracle equivalence): FAIL - deviation 0.3297 [2s]
2 failed, 2 passed in 63.40s (0:01:03)
"""


def test_bench_entry_takes_quartiles_from_the_samples():
    entry = bench_record.bench_entry(RESULT, BENCH_STDOUT)
    assert entry["env"] == {"workload": "lg-n2000", "seed": 0, "nproc": 2}
    assert entry["digests"] == {"enks": "1f2e", "enks-iter": "3a4b",
                                "enkf": "5c6d"}
    assert (entry["attempted"], entry["failed"]) == (6, 0)
    setup = entry["metrics"]["setup_s"]
    assert (setup["median"], setup["q1"], setup["q3"], setup["n"]) == (
        0.003, 0.002, 0.004, 5)
    assert setup["value"] == 0.003 and setup["unit"] == "s"
    # one sample per run_filter_series call: 0.1 and 0.2 ms per step
    enks = entry["metrics"]["step_ms.enks"]
    assert enks["n"] == 2 and enks["median"] == pytest.approx(0.15)
    assert entry["metrics"]["run_s"]["median"] == 0.2
    # the peak RSS is one value, its own median and quartiles
    rss = entry["metrics"]["peak_rss_mb"]
    assert (rss["median"], rss["q1"], rss["q3"], rss["n"]) == (38.5, 38.5,
                                                               38.5, 1)


def test_tier1_entry_reads_outcomes_criteria_and_the_single_step_line():
    entry = bench_record.tier1_entry(PYTEST_OUTPUT, 63.4)
    assert entry["wall_s"] == 63.4
    assert entry["summary"] == "2 failed, 2 passed in 63.40s (0:01:03)"
    assert entry["failed"] == [
        "tests/test_acceptance.py::test_criterion_1_kalman_oracle_equivalence",
        "tests/test_core.py::TestEnksStep::"
        "test_single_step_tracks_kalman_posterior"]
    assert len(entry["passed"]) == 2
    assert entry["criteria"] == [
        "CRITERION 2 (ensemble convergence order): PASS - slope -0.49",
        "CRITERION 1 (Kalman-oracle equivalence): FAIL - deviation 0.3297"]
    assert entry["single_step"].startswith(
        "single-step mean deviates from the Kalman posterior by 0.4004")


def test_src_size_entry():
    assert bench_record.src_size_entry(
        "src/enks: 3020 lines, 1744 code lines, 876 docstring lines\n") == {
        "lines": 3020, "code_lines": 1744, "docstring_lines": 876}


def canned_record(scale):
    entry = bench_record.bench_entry(RESULT, BENCH_STDOUT)
    for m in entry["metrics"].values():
        for key in ("median", "q1", "q3"):
            m[key] *= scale
    return {"workloads": {"lg-n2000": entry},
            "tier1": bench_record.tier1_entry(PYTEST_OUTPUT, 63.4),
            "src_size": bench_record.src_size_entry(
                "src/enks: 3020 lines, 1744 code lines, 876 docstring lines")}


def test_compare_prints_each_move_against_the_quartile_spread(tmp_path,
                                                              capsys):
    a, b = tmp_path / "BENCH_1.json", tmp_path / "BENCH_2.json"
    a.write_text(json.dumps(canned_record(1.0)))
    b.write_text(json.dumps(canned_record(0.5)))
    assert bench_record.main(["--compare", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    setup = next(line.split() for line in lines if "setup_s" in line)
    # median 0.003 -> 0.0015 against a spread of 0.004 - 0.002
    assert setup[:5] == ["lg-n2000", "setup_s", "0.003", "0.0015", "-50.0%"]
    assert float(setup[6]) == pytest.approx(-0.75)
    rss = next(line.split() for line in lines if "peak_rss_mb" in line)
    assert rss[-1] == "-"  # one sample: no spread to measure against
    assert lines[-2].startswith("tier1: A 2 failed, 2 passed")
    assert lines[-1] == ("src_size: A 3020 lines, 1744 code, 876 docstring; "
                         "B 3020 lines, 1744 code, 876 docstring")


def test_a_run_needs_a_pr_number():
    with pytest.raises(SystemExit):
        bench_record.main([])
