"""EnKS benchmark: ms per assimilation step, set-up time, run time and memory
of the twin-experiment workloads, with their outputs checked.

Run from the repository root:

    python3 bench/run.py --workload lg-n2000 --seed 0 --seconds 60 --trace 0

``BENCHMARK.json`` at the root names the workloads and declares every
metric with its unit.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics of a traced
run, in which the split is printed as a table and the spans are written to
``bench/out/<workload>/seed<seed>/spans.jsonl``.  Per-layer metrics of a
layer that the workload does not exercise read 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give the environment (core count, library versions, BLAS build and the
thread count in effect, commit, seed, ``src/enks`` line count), the digest
of each filter's output and any failed check; the same record, with the
metrics, is written next to the spans as ``result-trace<0|1>.json``.

The benchmark imports ``enks`` from ``src/`` of the checkout it sits in
and exits with status 2 if there is none.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit(root: Path):
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, run_id: str) -> dict:
    import numpy
    import scipy

    import kernels
    return {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": kernels.blas_libraries(),
        "thread_env_inherited": {v: os.environ.get(v) for v in THREAD_VARS},
        "src_enks_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                              for p in sorted((ROOT / "src" / "enks").glob("*.py"))),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "enks" / "__init__.py").is_file():
        print(f"bench: no enks package under {src}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(src), str(BENCH)]
    import enks
    if not Path(enks.__file__).resolve().is_relative_to(src):
        print(f"bench: enks imported from {enks.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r} (expected one of "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    out_dir = BENCH / "out" / args.workload / f"seed{args.seed}"
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), ROOT, out_dir, run_id)
    tally = result["tally"]
    metrics = result["metrics"]
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    if names != set(metrics):
        print(f"bench: metrics differ from BENCHMARK.json: missing "
              f"{sorted(names - set(metrics))}, undeclared "
              f"{sorted(set(metrics) - names)}", file=sys.stderr)
        return 1
    reported = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                for m in wanted}

    env = environment(args, run_id)
    record = {"env": env, "attempted": tally.attempted, "failed": tally.failed,
              "failed_checks": tally.problems, "digests": tally.digests,
              "iteration_run_s": tally.run_s,
              "setup_samples_s": result["setups"],
              "filter_calls": [{"filter": k, "steps": n, "seconds": t}
                               for k, n, t in result["calls"]],
              "metrics": reported}
    print("env " + json.dumps(env))
    for kind, digest in tally.digests.items():
        print(f"digest {kind} {digest}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    if args.trace:
        tracer = result["tracer"]
        tracer.write(out_dir / "spans.jsonl")
        record.update(blas1=result["blas1"], failures_by_layer=tracer.failures,
                      untraced_step_ms=result["untraced_step_ms"],
                      traced_step_ms=result["traced_step_ms"])
        print("\n".join(result["table"]))
        print(f"BLAS threads in effect: "
              f"{[lib['threads'] for lib in env['blas']]}; "
              f"core.gain_gflops {metrics['core.gain_gflops']:.3f} beside "
              f"core.gain_gflops.blas1 {metrics['core.gain_gflops.blas1']:.3f}")
    for name, m in reported.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
