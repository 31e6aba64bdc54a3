"""Computed work of the analysis kernels, and their single-thread baseline.

Flop counts take the matrix products, the Cholesky factorization and the
triangular solves of each kernel at the argument shapes: a product of an
(a, b) and a (b, c) matrix is 2abc flops, a Cholesky factorization of
order q is q^3/3, and two triangular solves against r right-hand sides
are 2 q^2 r.  Element-wise passes are left out.  Byte counts are the
compulsory traffic in float64: every input read once and the result
written once.  Both are computed from shapes, not measured.

Run as a script, this file measures the gain and update kernels of one
frame50 step (n=200, q=50, N=800: the ``BASELINE`` problem and ensemble
size) and prints their GFLOP/s as one JSON line.  ``blas1_baseline`` runs
it in a child process whose BLAS is held to one thread:

    OPENBLAS_NUM_THREADS=1 python3 bench/kernels.py <repo root> <seed>
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

F64 = 8
BLAS1_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
BASELINE = ("frame50", 800)  # problem and N whose kernel shapes are timed
BASELINE_TIMEOUT_S = 60.0
KERNEL_TIMING_S = 0.5  # per kernel


def gain_flops(n: int, q: int, N: int) -> float:
    """``compute_gain``: cross product, innovation covariance, Cholesky, solve."""
    return 2 * n * N * q + 2 * q * q * N + q ** 3 / 3 + 2 * q * q * n


def gain_bytes(n: int, q: int, N: int) -> float:
    """Reads the (n, N) ensemble and its (q, N) image, writes the (n, q) gain."""
    return F64 * (n * N + q * N + n * q)


def update_flops(n: int, q: int, N: int) -> float:
    """``additive_update``: the (n, q) gain times the (q, N) innovations."""
    return 2 * n * q * N


def update_bytes(n: int, q: int, N: int) -> float:
    """Reads ensemble, gain, image and observation, writes the ensemble."""
    return F64 * (2 * n * N + n * q + q * N + q)


def enkf_update_flops(n: int, q: int, N: int) -> float:
    """``enkf_update``: two covariances, two Cholesky factorizations, the
    solve, the correlated perturbations and the gain times innovations."""
    return (2 * n * q * N + 2 * q * q * N + 2 * q ** 3 / 3 + 2 * q * q * n
            + 2 * q * q * N + 2 * n * q * N)


def blas_libraries() -> list:
    """Each OpenBLAS loaded in this process: file, build config and the
    thread count in effect, read through the library's own API."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and "/" in line})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}"):
            if hasattr(lib, symbol.format("get_num_threads")):
                threads = getattr(lib, symbol.format("get_num_threads"))
                config = getattr(lib, symbol.format("get_config"))
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                out.append({"library": Path(path).name,
                            "config": config().decode().strip(),
                            "threads": threads()})
                break
    return out


def blas1_baseline(root: Path, seed: int) -> dict:
    """GFLOP/s of the gain and update kernels with one BLAS thread.

    Runs this file in a child process, waits for it, and returns its
    JSON result.
    """
    env = {**os.environ, **BLAS1_ENV}
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           str(root), str(seed)], env=env, capture_output=True,
                          text=True, timeout=BASELINE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _time_call(fn, args, kwargs) -> float:
    """Median seconds per call over repeated calls for ``KERNEL_TIMING_S``."""
    times = []
    t_end = perf_counter() + KERNEL_TIMING_S
    while perf_counter() < t_end or len(times) < 5:
        t0 = perf_counter()
        fn(*args, **kwargs)
        times.append(perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def _measure(root: Path, seed: int) -> dict:
    """Capture the kernels' arguments in one enks step of the ``BASELINE``
    problem, then time them."""
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    from enks import core
    from enks.harness import ExperimentConfig, run_experiment

    captured = {}

    def capture(name, fn):
        def wrapper(*args, **kwargs):
            captured.setdefault(name, (args, kwargs))
            return fn(*args, **kwargs)
        return wrapper

    gain, update = core.compute_gain, core.additive_update
    core.compute_gain = capture("gain", gain)
    core.additive_update = capture("update", update)
    try:
        problem, N = BASELINE
        run_experiment(ExperimentConfig(problem=problem, filters=("enks",),
                                        N=N, horizon=0.01, seed=seed,
                                        emit_outputs=False))
    finally:
        core.compute_gain, core.additive_update = gain, update

    out = {}
    for name, fn, count in (("gain", gain, gain_flops),
                            ("update", update, update_flops)):
        args, kwargs = captured[name]
        n, N = np.shape(args[0])
        q = np.shape(args[1] if name == "gain" else args[3])[0]
        out[f"{name}_gflops"] = count(n, q, N) / _time_call(fn, args, kwargs) / 1e9
        out[f"{name}_shape"] = [n, q, N]
    out["blas"] = blas_libraries()
    return out


if __name__ == "__main__":
    print(json.dumps(_measure(Path(sys.argv[1]), int(sys.argv[2]))))
