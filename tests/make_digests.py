"""Write ``tests/digests.json``: sha256 digests of short twin experiments.

Run from the repository root with

    PYTHONPATH=src python tests/make_digests.py [--check]

``--check`` writes nothing: it prints the keys whose digest differs from
the file (or is missing from either side) and exits with status 1 if any
does.

Each digest is the sha256 of one array's bytes from ``run_experiment``:
the truth, and every filter's means and stds, for every problem at seeds
0 and 1, N=60 and ``STEPS`` steps of the problem's default dt.  The file
also records the numpy, the OpenBLAS and the CPU the digests were taken
with: the bits of a run depend on all three, so ``test_digests.py``
compares against the file only where they match.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from enks.benchmarks import PROBLEM_IDS, build_problem
from enks.harness import FILTER_KINDS, ExperimentConfig, run_experiment

PATH = Path(__file__).resolve().with_name("digests.json")
SEEDS = (0, 1)
N = 60
STEPS = 20


def environment() -> dict:
    """The numpy, the OpenBLAS build and the CPU of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__,
            "openblas": f"{blas.get('name')} {blas.get('version')}",
            "cpu": cpu}


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()
                          ).hexdigest()


def digests() -> dict:
    """``"<problem>/seed<s>/<array>"`` -> sha256 of that array's bytes."""
    out = {}
    for problem in PROBLEM_IDS:
        dt = build_problem(problem).default_dt
        for seed in SEEDS:
            record = run_experiment(ExperimentConfig(
                problem=problem, filters=FILTER_KINDS, N=N, seed=seed,
                horizon=STEPS * dt, emit_outputs=False))
            key = f"{problem}/seed{seed}"
            out[f"{key}/truth"] = _sha(record.truth)
            for kind in FILTER_KINDS:
                out[f"{key}/{kind}/means"] = _sha(record.filter_means[kind])
                out[f"{key}/{kind}/stds"] = _sha(record.filter_stds[kind])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="print the keys that differ from the file; "
                             "write nothing")
    args = parser.parse_args(argv)
    if args.check:
        recorded = json.loads(PATH.read_text(encoding="utf-8"))
        if recorded["environment"] != environment():
            print(f"recorded in another environment: "
                  f"{recorded['environment']}")
        before, now = recorded["digests"], digests()
        keys = sorted(k for k in before.keys() | now.keys()
                      if before.get(k) != now.get(k))
        print("\n".join(keys) if keys else "no digest differs")
        return 1 if keys else 0
    PATH.write_text(json.dumps({"environment": environment(),
                                "digests": digests()}, indent=1) + "\n",
                    encoding="utf-8")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
