"""Record a checkout's benchmark and Tier-1 numbers in ``BENCH_<pr>.json``,
and compare two such files.

Run from the repository root with

    python tests/bench_record.py PR
    python tests/bench_record.py --compare BENCH_A.json BENCH_B.json

The first form runs ``python3 bench/run.py --trace 0`` once per workload
of ``BENCHMARK.json``, 20 seconds each (lg-n2000 spreads three times
wider at 10 s), then the Tier-1 suite, and writes ``BENCH_<PR>.json`` at
the root of the checkout the script sits in.  Per workload the file holds each end-to-end metric's
value and the median and quartiles of its samples in
``bench/out/<workload>/seed0/result-trace0.json`` (set-up times, per-call
ms per step, per-iteration run times; the peak RSS is one value), the
environment line and each filter's output digest.  For Tier-1 it holds
the wall time, the summary line, the ids that passed and failed, every
``CRITERION n:`` line and the single-step Kalman test's message; and the
``tests/src_size.py`` counts.

``--compare A B`` prints, per workload and metric, B's median move from
A's and its size against A's quartile spread (``q3 - q1``).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 20.0
SEED = 0
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-rA", "-p", "no:cacheprovider"]
OUTCOMES = ("PASSED", "FAILED", "ERROR", "XFAIL", "XPASS")
SINGLE_STEP = "single-step mean deviates from the Kalman posterior"


def quartiles(samples) -> dict:
    """Median, first and third quartile and count of ``samples``."""
    samples = sorted(samples)
    if len(samples) == 1:
        q1 = med = q3 = samples[0]
    else:
        q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(samples)}


def metric_samples(result: dict) -> dict:
    """End-to-end metric -> its samples, from a ``result-trace0.json``."""
    samples = {"setup_s": result["setup_samples_s"],
               "run_s": result["iteration_run_s"]}
    for call in result["filter_calls"]:
        samples.setdefault(f"step_ms.{call['filter']}", []).append(
            1e3 * call["seconds"] / call["steps"])
    return samples


def bench_entry(result: dict, stdout: str) -> dict:
    """One workload's entry: its metrics with their quartiles, the
    environment line and the digests, from the bench's result file and
    standard output."""
    samples = metric_samples(result)
    metrics = {}
    for name, m in result["metrics"].items():
        metrics[name] = {"value": m["value"], "unit": m["unit"],
                         **quartiles(samples.get(name, [m["value"]]))}
    env = next(json.loads(line[len("env "):]) for line in stdout.splitlines()
               if line.startswith("env "))
    digests = dict(line.split()[1:3] for line in stdout.splitlines()
                   if line.startswith("digest "))
    return {"env": env, "digests": digests, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def tier1_entry(output: str, wall_s: float) -> dict:
    """Tier-1 wall time, summary line, outcome -> ids, the ``CRITERION``
    lines and the single-step test's message, from ``pytest -q -rA``."""
    lines = output.splitlines()
    outcomes = {}
    for line in lines:
        word, _, rest = line.partition(" ")
        if word in OUTCOMES and "::" in rest:
            outcomes.setdefault(word.lower(), []).append(rest.split(" - ")[0])
    summary = next((line.strip("= ") for line in reversed(lines)
                    if re.search(r"\d+ (passed|failed)", line)), "")
    criteria = [re.sub(r" \[\d+s\]$", "", line) for line in lines
                if line.startswith("CRITERION ")]
    single = next((line.split("AssertionError: ", 1)[1] for line in lines
                   if line.startswith("E ") and SINGLE_STEP in line), None)
    return {"wall_s": wall_s, "summary": summary,
            **{k: sorted(v) for k, v in outcomes.items()},
            "criteria": criteria, "single_step": single}


def src_size_entry(output: str) -> dict:
    """The three counts ``tests/src_size.py`` prints."""
    lines, code, docs = (int(x) for x in re.findall(r"(\d+) (?:code |docstring )?lines",
                                                    output))
    return {"lines": lines, "code_lines": code, "docstring_lines": docs}


def run(cmd, timeout) -> tuple:
    """``(stdout, seconds)`` of ``cmd`` run at the root, with ``src`` first
    on ``PYTHONPATH``."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout,
                          env={**os.environ, "PYTHONPATH": path})
    return done.stdout, time.perf_counter() - t0


def record(pr: int) -> Path:
    """Run the benchmark, Tier-1 and the size count; write BENCH_<pr>.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {}
    for w in declared["workloads"]:
        name = w["name"]
        stdout, _ = run(["python3", "bench/run.py", "--workload", name,
                         "--seed", str(SEED), "--seconds", str(SECONDS),
                         "--trace", "0"], timeout=20 * SECONDS + 600)
        result = json.loads((ROOT / "bench" / "out" / name / f"seed{SEED}"
                             / "result-trace0.json").read_text())
        workloads[name] = bench_entry(result, stdout)
    output, wall = run(TIER1, timeout=3600)
    size, _ = run([sys.executable, "tests/src_size.py"], timeout=120)
    out = ROOT / f"BENCH_{pr}.json"
    out.write_text(json.dumps({"pr": pr, "seconds": SECONDS,
                               "workloads": workloads,
                               "tier1": tier1_entry(output, wall),
                               "src_size": src_size_entry(size)},
                              indent=1) + "\n")
    return out


def compare(a: dict, b: dict) -> list:
    """Per workload and metric: A's and B's medians, the move and the
    move over A's quartile spread."""
    lines = [f"{'workload':14s} {'metric':18s} {'A median':>10s} "
             f"{'B median':>10s} {'move':>8s} {'A q3-q1':>9s} {'move/IQR':>9s}"]
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name, {"metrics": {}})
        for metric, ma in wa["metrics"].items():
            mb = wb["metrics"].get(metric)
            if mb is None:
                continue
            move = mb["median"] - ma["median"]
            spread = ma["q3"] - ma["q1"]
            ratio = f"{move / spread:+9.2f}" if spread > 0 else f"{'-':>9s}"
            pct = 100 * move / ma["median"] if ma["median"] else 0.0
            lines.append(f"{name:14s} {metric:18s} {ma['median']:10.4g} "
                         f"{mb['median']:10.4g} {pct:+7.1f}% {spread:9.3g} "
                         f"{ratio}")
    for key in ("tier1", "src_size"):
        lines.append(f"{key}: A {_brief(a, key)}; B {_brief(b, key)}")
    return lines


def _brief(rec: dict, key: str) -> str:
    if key == "tier1":
        t = rec["tier1"]
        return f"{t['summary'] or 'no summary'} ({t['wall_s']:.1f} s wall)"
    s = rec["src_size"]
    return (f"{s['lines']} lines, {s['code_lines']} code, "
            f"{s['docstring_lines']} docstring")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("pr", nargs="?", type=int)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        print("\n".join(compare(a, b)))
        return 0
    if args.pr is None:
        parser.error("give a PR number or --compare A B")
    print(record(args.pr))
    return 0


if __name__ == "__main__":
    sys.exit(main())
