"""A filter step runs on numpy alone.

scipy bundles its own OpenBLAS with its own thread pool; a step that calls
into both libraries waits on the other pool's threads.  This guard runs one
step of each filter in a fresh interpreter and checks that scipy was never
imported.

Every run pins numpy's OpenBLAS to one thread through two symbols of
numpy's core module; a second guard checks, in a fresh interpreter, that
they are still there and set the count.  A third checks that a run starts
no thread and imports no executor.

The analysis kernels call three private LAPACK gufuncs of numpy directly;
a fourth guard checks, in a fresh interpreter, that they are still there,
give the bits of the public calls and report a failed factorization as a
non-finite factor.

Products with an inner dimension of 1 go through ``np.dot`` rather than
``np.matmul`` (``enks.core.matmul``), and a stream restart loads one
Philox state dict that it rewrites in place; two more guards check that
numpy gives the bits each relies on.
"""

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from enks.harness import _one_blas_thread
from enks.rng import RngStream

SRC = Path(__file__).resolve().parents[1] / "src"

STEP_SCRIPT = """
import sys
import numpy as np
from enks import (EnkfConfig, FilterConfig, FilterState, build_problem,
                  enkf_step, enks_step, iterative_enks_step,
                  make_initial_state, make_schedule, particle_streams,
                  RngStream)

dt, N = 0.01, 16
problem = build_problem("frame4-damaged", dt=dt, meas_noise_std=0.1)
q = problem.meas.q
proc, meas = problem.proc_filter, problem.meas
ens = (problem.init_mean[:, None]
       + problem.init_spread[:, None] * RngStream(0, 2).standard_normal(
           (problem.init_mean.size, N)))
y = meas.h(problem.init_mean[:, None], dt)[:, 0]
cfg = FilterConfig(dt=dt)
enks_step(make_initial_state(ens, problem.noise_std, cfg), proc, meas, y, cfg,
          particle_streams(0, N))
iterative_enks_step(make_initial_state(ens, problem.noise_std, cfg), proc,
                    meas, y, cfg, particle_streams(0, N), make_schedule(3))
enkf_cfg = EnkfConfig(R=0.01 * np.eye(q))
enkf_step(FilterState(0.0, ens, enkf_cfg.R), proc, meas, y, enkf_cfg,
          particle_streams(0, N), RngStream(0, 3), dt)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_filter_steps_do_not_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", STEP_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


BLAS_SCRIPT = """
import ctypes
import numpy as np
lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
get = lib.scipy_openblas_get_num_threads64_
set_ = lib.scipy_openblas_set_num_threads64_
found = get()
set_(1)
pinned = get()
set_(found)
print(found, pinned, get())
"""


def test_numpy_exports_the_openblas_thread_count():
    # without these symbols a run would keep the host's BLAS thread count,
    # so its bits would depend on the core count without a word; a numpy
    # wheel that moves them fails here
    done = subprocess.run([sys.executable, "-c", BLAS_SCRIPT],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    found, pinned, restored = map(int, done.stdout.split())
    assert found >= 1 and pinned == 1 and restored == found


RUN_SCRIPT = """
import sys
import threading
from enks.harness import ExperimentConfig, run_experiment
for problem, N, horizon in (("linear-gaussian", 50, 0.05),
                            ("frame20-damaged", 700, 0.03)):
    run_experiment(ExperimentConfig(problem=problem, N=N, horizon=horizon,
                                    filters=("enks", "enks-iter", "enkf"),
                                    emit_outputs=False))
print("concurrent.futures" in sys.modules, threading.active_count())
"""


def test_a_run_starts_no_thread():
    # every panel is drawn on the calling thread, narrow (linear-Gaussian
    # at N=50) or wide (frame20-damaged's (700, 60)); a run that started a
    # thread could race the next on the one BLAS thread count it sets
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", RUN_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "1"]


LAPACK_SCRIPT = """
import warnings
import numpy as np
from numpy.linalg import _umath_linalg as lapack

warnings.simplefilter("error")
print(*(hasattr(lapack, name) for name in ("cholesky_lo", "inv", "eigh_lo")))
rng = np.random.default_rng(0)
same = []
for q in (1, 50):
    a = rng.standard_normal((q, q + 5))
    A = a @ a.T + 0.1 * np.eye(q)
    L = lapack.cholesky_lo(A)
    same.append(np.array_equal(L, np.linalg.cholesky(A)))
    # the inverse of a factor, and the whitening of core.step_gain's
    # damped passes: the eigenpairs of a symmetric matrix from its lower
    # triangle
    same.append(np.array_equal(lapack.inv(L), np.linalg.inv(L)))
    for ours, public in zip(lapack.eigh_lo(A), np.linalg.eigh(A)):
        same.append(np.array_equal(ours, public))
print(len(same), all(same))
with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
    factor = lapack.cholesky_lo(np.array([[1.0, 2.0], [2.0, 1.0]]))
print(np.isfinite(factor).all())
"""


def test_numpy_exports_the_lapack_gufuncs_of_the_kernel():
    # core.factor_denominator calls cholesky_lo and inv, and
    # core.whitened_spectrum eigh_lo, without np.linalg's wrappers; a
    # numpy that moves them or changes what a failed factorization leaves
    # fails here rather than slowing the kernels down or naming the wrong
    # failure
    done = subprocess.run([sys.executable, "-c", LAPACK_SCRIPT],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True"] * 3 + ["8", "True", "False"]


@pytest.mark.parametrize("blas", [contextlib.nullcontext, _one_blas_thread])
@pytest.mark.parametrize("shape", [(1, 1, 2000), (4, 1, 600), (200, 50, 800)])
def test_dot_gives_the_bits_of_matmul(shape, blas):
    # core.matmul sends an inner dimension of 1 to np.dot, which numpy runs
    # through BLAS where matmul runs an unblocked loop; a numpy whose two
    # products differ in their bits would move every output.  The widest
    # shape is frame50's update, whose gain is C-ordered: core.matmul keeps
    # it on matmul only because matmul is faster there.  Both layouts of
    # the gain are checked
    rows, inner, cols = shape
    rng = np.random.default_rng(inner)
    gain = rng.standard_normal((rows, inner))
    b = rng.standard_normal((inner, cols))
    for a in (gain, np.asfortranarray(gain)):
        with blas():
            expected = a @ b
            out = np.empty_like(expected)
            assert np.array_equal(np.dot(a, b), expected)
            assert np.dot(a, b, out=out) is out
            assert np.array_equal(out, expected)


def test_restarts_through_reused_state_dicts_replay_fresh_streams():
    # each RngStream rewrites and reloads its own Philox state dict: the
    # setter must copy the words, so that draws leave the dict's counter at
    # zero, and two streams restarted and drawn by turns must not see each
    # other's key
    streams = RngStream(3, 0), RngStream(5, 1)
    sizes = (3, 1, 5)
    for key in (7, 2**20, 2**20 + 1, 7, 2**64 - 1):
        drawn = {id(stream): [] for stream in streams}
        for stream in streams:
            stream.restart(key)
        for size in sizes:
            for stream in streams:
                drawn[id(stream)].append(stream.standard_normal(size))
        for stream in streams:
            fresh = RngStream(stream.seed, key)
            for got, size in zip(drawn[id(stream)], sizes):
                assert np.array_equal(got, fresh.standard_normal(size))
