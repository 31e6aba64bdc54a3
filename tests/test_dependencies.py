"""A filter step runs on numpy alone.

scipy bundles its own OpenBLAS with its own thread pool; a step that calls
into both libraries waits on the other pool's threads.  This guard runs one
step of each filter in a fresh interpreter and checks that scipy was never
imported.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

STEP_SCRIPT = """
import sys
import numpy as np
from enks import (EnkfConfig, EnkfState, FilterConfig, build_problem,
                  enkf_step, enks_step, iterative_enks_step,
                  make_initial_state, make_schedule, particle_streams,
                  RngStream)

dt, N = 0.01, 16
problem = build_problem("frame4-damaged", dt=dt)
q = problem.meas.q
problem = problem.with_noise_std(np.full(q, 0.1), dt)
proc, meas = problem.proc_filter, problem.meas
ens = (problem.init_mean[:, None]
       + problem.init_spread[:, None] * RngStream(0, 2).standard_normal(
           (problem.init_mean.size, N)))
y = meas.h(problem.init_mean, dt)
cfg = FilterConfig(N=N, dt=dt)
enks_step(make_initial_state(ens, meas, cfg), proc, meas, y, cfg,
          particle_streams(0, N))
iterative_enks_step(make_initial_state(ens, meas, cfg), proc, meas, y, cfg,
                    particle_streams(0, N), make_schedule(3))
enkf_step(EnkfState(t_curr=0.0, ensemble=ens), proc, meas, y,
          EnkfConfig(N=N, R=0.01 * np.eye(q)), particle_streams(0, N),
          RngStream(0, 3), dt)
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
