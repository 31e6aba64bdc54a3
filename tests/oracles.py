"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's numerics: plain loops, replicated
matrices, and explicit inverses, so a test comparing library output to an
oracle value exercises two independent code paths.
"""

import numpy as np

from enks.errors import NumericFailure
from enks.rng import STEP_BASE, RngStream


def brute_covariance(columns):
    """Sample covariance of a list of vectors, (1/(N-1)) normalization."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    N = len(cols)
    mean = sum(cols) / N
    q = mean.size
    out = np.zeros((q, q))
    for c in cols:
        d = c - mean
        for i in range(q):
            for j in range(q):
                out[i, j] += d[i] * d[j]
    return out / (N - 1)


def gain_oracle(pred, h_pred, prev_x_mean, prev_h_mean, t_i, t_prev, alpha,
                sigma_gram):
    """Straight-line evaluation of the displayed gain formula.

    Builds the replicated mean matrices explicitly and uses a plain
    matrix inverse:

        G = (1/N) [ (X - Xhat)(H^T t_i - Hhat_prev^T t_prev - dHhat^T t_i)
                  + (Xhat t_i - Xhat_prev t_prev)(H^T - Hhat^T) ]
            [ alpha/(N-1) (H - Hhat)(H^T - Hhat^T) + (1-alpha) sigma_gram ]^{-1}

    with dHhat = Hhat - Hhat_prev and every hatted matrix the
    column-replicated ensemble mean.
    """
    X = np.atleast_2d(np.asarray(pred, dtype=float))
    H = np.atleast_2d(np.asarray(h_pred, dtype=float))
    n, N = X.shape
    q = H.shape[0]
    ones = np.ones((1, N))
    Xhat = X.mean(axis=1, keepdims=True) @ ones
    Hhat = H.mean(axis=1, keepdims=True) @ ones
    Hhat_prev = np.asarray(prev_h_mean, dtype=float).reshape(q, 1) @ ones
    Xhat_prev = np.asarray(prev_x_mean, dtype=float).reshape(n, 1) @ ones
    dHhat = Hhat - Hhat_prev

    first = H.T * t_i - Hhat_prev.T * t_prev - dHhat.T * t_i
    term1 = (X - Xhat) @ first
    term2 = (Xhat * t_i - Xhat_prev * t_prev) @ (H.T - Hhat.T)
    numerator = (term1 + term2) / N
    S = (H - Hhat) @ (H.T - Hhat.T) / (N - 1)
    denom = alpha * S + (1.0 - alpha) * np.atleast_2d(sigma_gram)
    return numerator @ np.linalg.inv(denom)


def centred_solve_gain(pred, h_pred, scale, weight, noise_term):
    """The analysis gain from centred moments and one LU solve.

        G = scale Xd Hd^T (weight Hd Hd^T + noise_term)^{-1},

    with both ensembles centred on their means and the denominator solved
    by ``np.linalg.solve``.  ``enks.core.analysis_gain`` reads the state
    ensemble uncentred and applies the inverse of the denominator's
    Cholesky factor instead; this form's rounding scales with the rows'
    spreads, not their means.
    """
    X = np.asarray(pred, dtype=float)
    H = np.asarray(h_pred, dtype=float)
    Xd = X - X.mean(axis=1, keepdims=True)
    Hd = H - H.mean(axis=1, keepdims=True)
    denom = weight * (Hd @ Hd.T) + noise_term
    return scale * np.linalg.solve(denom, (Xd @ Hd.T).T).T


def enks_gain_cap(dt, N, alpha):
    """Bound ``dt (N-1)/(N alpha)`` on the measured EnKS gain's eigenvalues.

    On a linear map the measured gain ``H G = s C (w C + R0)^{-1}``, with
    ``s = dt/N``, ``w = alpha/(N-1)`` and ``C = Hd Hd^T``, has the
    eigenvalues ``s mu / (w mu + 1)`` of ``C`` whitened by ``R0``, so
    they lie in ``[0, s/w)`` however wide the spread.
    """
    return dt * (N - 1) / (N * alpha)


def scalar_kalman_step(m, P, a, Q, H, R, y):
    """Textbook scalar Kalman predict + update."""
    m_pred = a * m
    P_pred = a * P * a + Q
    S = H * P_pred * H + R
    K = P_pred * H / S
    m_post = m_pred + K * (y - H * m_pred)
    P_post = (1.0 - K * H) * P_pred
    return m_post, P_post


def scalar_kalman_series(m0, P0, a, Q, H, R, ys):
    """Scalar Kalman recursion over a measurement sequence."""
    m, P = m0, P0
    means, covs = [], []
    for y in ys:
        m, P = scalar_kalman_step(m, P, a, Q, H, R, y)
        means.append(m)
        covs.append(P)
    return np.array(means), np.array(covs)


def kalman_series(m0, P0, a, Q, H, R, ys):
    """Textbook matrix Kalman recursion over a measurement sequence.

    Per measurement ``y``: ``m <- a m``, ``P <- a P a^T + Q``; then ``K =
    P H^T S^{-1}`` with ``S = H P H^T + R``, by ``np.linalg.solve``, and
    ``m <- m + K (y - H m)``, ``P <- (I - K H) P``.  Returns means (M, n)
    and covariances (M, n, n).
    """
    a, Q, H, R = (np.atleast_2d(np.asarray(v, dtype=float))
                  for v in (a, Q, H, R))
    m = np.asarray(m0, dtype=float).reshape(-1).copy()
    P = np.atleast_2d(np.asarray(P0, dtype=float)).copy()
    means, covs = [], []
    for y in ys:
        m = a @ m
        P = a @ P @ a.T + Q
        S = H @ P @ H.T + R
        K = np.linalg.solve(S, H @ P).T  # S and P symmetric: (S^{-1} H P)^T
        m = m + K @ (np.atleast_1d(y) - H @ m)
        P = (np.eye(m.size) - K @ H) @ P
        means.append(m.copy())
        covs.append(P.copy())
    return np.array(means), np.array(covs)


def exact_moment_ensemble(m, P):
    """Deterministic 2n-column ensemble whose sample mean is m and whose
    sample covariance, (1/(N-1)) normalization, is exactly P."""
    m = np.asarray(m, dtype=float).reshape(-1)
    n = m.size
    w, V = np.linalg.eigh(np.atleast_2d(P))
    root = V @ np.diag(np.sqrt(np.maximum(w, 0.0)))
    c = np.sqrt((2 * n - 1) / 2.0)
    cols = []
    for i in range(n):
        cols.append(m + c * root[:, i])
        cols.append(m - c * root[:, i])
    return np.column_stack(cols)


def enks_limit_series(m0, P0, a, Q, H, sigma_gram, alpha, dt, ys,
                      betas=(1.0,)):
    """Large-N EnKS recursion with every gain taken from gain_oracle.

    The moments (m, P) are carried by an exact-moment ensemble.  On it the
    displayed formula, with any lagged means, evaluates to
    dt (N-1)/N P H^T [alpha H P H^T + (1-alpha) sigma_gram]^{-1}, so
    rescaling by N/(N-1) gives the gain's large-N limit.  Each pass then
    moves the mean by beta G (y - H m) and maps the covariance through
    I - beta G H, as it maps every particle.
    """
    a, Q, H = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (a, Q, H))
    m = np.asarray(m0, dtype=float).reshape(-1).copy()
    P = np.atleast_2d(np.asarray(P0, dtype=float)).copy()
    n = m.size
    means, covs = [], []
    for y in ys:
        m = a @ m
        P = a @ P @ a.T + Q
        for beta in betas:
            X = exact_moment_ensemble(m, P)
            N = X.shape[1]
            G = gain_oracle(X, H @ X, m + 1.0, H @ m - 2.0, dt, 0.0,
                            alpha, sigma_gram) * N / (N - 1)
            L = np.eye(n) - beta * G @ H
            m = m + beta * G @ (np.atleast_1d(y) - H @ m)
            P = L @ P @ L.T
        means.append(m.copy())
        covs.append(P.copy())
    return np.array(means), np.array(covs)


def linear_step_gain_oracle(cross, hh, noise_term, betas, scale, weight):
    """Step gain ``B`` of damped passes on a linear map, by brute force.

    Carries the (n, q) cross moment, the (q, q) measured moment ``C`` and
    the map ``Q`` from the first pass's innovations to the current ones
    through every pass, with explicit inverses and no eigendecomposition:

        D = weight C + noise_term,  A = beta scale cross D^{-1},
        K = beta scale C D^{-1},    E = I - K,
        B += A Q,  cross <- (cross - A C) E^T,  C <- E C E^T,  Q <- E Q.

    A pass moves every particle by ``A`` times its innovation, so the
    centred ensemble by ``-A Hd`` and its image by ``-K Hd``; the last
    iterate is ``pred + B (y - h(pred))``.
    """
    cross = np.array(cross, dtype=float)
    C = np.array(hh, dtype=float)
    q = C.shape[0]
    eye = np.eye(q)
    Q = eye.copy()
    B = np.zeros_like(cross)
    for beta in betas:
        inverse = np.linalg.inv(weight * C + noise_term)
        A = beta * scale * cross @ inverse
        E = eye - beta * scale * C @ inverse
        B = B + A @ Q
        cross = (cross - A @ C) @ E.T
        C = E @ C @ E.T
        Q = E @ Q
    return B


# The gain of an unperturbed additive update in three readings of the
# EnKS formula's time weights, as functions of (P H^T, H P H^T, R, dt,
# alpha) in the large-N limit, where sigma^T sigma = R dt:
GAIN_READINGS = {
    # dt P H^T (alpha H P H^T + (1 - alpha) R dt)^{-1}
    "as specified": lambda PH, HPH, R, dt, alpha: dt * PH @ np.linalg.inv(
        alpha * HPH + (1.0 - alpha) * R * dt),
    # tc also weights C_hh: P H^T (alpha H P H^T + (1 - alpha) R)^{-1}
    "tc weights C_hh": lambda PH, HPH, R, dt, alpha: PH @ np.linalg.inv(
        alpha * HPH + (1.0 - alpha) * R),
    # the Kalman gain P H^T (H P H^T + R)^{-1}
    "Kalman gain": lambda PH, HPH, R, dt, alpha: PH @ np.linalg.inv(HPH + R),
}


def gain_reading_limit(spec, ys, dt, alpha, reading):
    """Large-N means and step gains of the EnKS's unperturbed update with
    the gain of ``GAIN_READINGS[reading]``, on the EM-discretized
    linear-Gaussian model ``spec``.

    Per step: ``m <- a m``, ``P <- a P a^T + F F^T dt`` with ``a = I + A
    dt``; then ``m <- m + G (y - H m)`` and ``P <- (I - G H) P (I - G
    H)^T``, with no ``G R G^T`` term, since the update adds no
    perturbation.  Returns means (M, n) and gains (M, n, q).
    """
    gain = GAIN_READINGS[reading]
    A, F, H, R = (np.atleast_2d(np.asarray(v, dtype=float))
                  for v in (spec.A, spec.F, spec.H, spec.R))
    n = A.shape[0]
    a = np.eye(n) + A * dt
    m = np.asarray(spec.x0_mean, dtype=float).reshape(-1).copy()
    P = np.atleast_2d(np.asarray(spec.x0_cov, dtype=float)).copy()
    means, gains = [], []
    for y in ys:
        m = a @ m
        P = a @ P @ a.T + F @ F.T * dt
        G = gain(P @ H.T, H @ P @ H.T, R, dt, alpha)
        L = np.eye(n) - G @ H
        m = m + G @ (np.atleast_1d(y) - H @ m)
        P = L @ P @ L.T
        means.append(m.copy())
        gains.append(G)
    return np.array(means), np.array(gains)


def truth_path_oracle(model, x0, grid, stream):
    """Euler-Maruyama path of one state vector, one step at a time.

    Step i runs from the previous grid time (0 before ``grid[0]``) to
    ``grid[i]`` as ``x + b dt + F (sqrt(dt) z)``, with ``z`` that step's
    ``standard_normal(m)`` call on ``stream`` and the dense product with
    ``F = model.constant_diffusion``.  The first non-finite state raises
    ``NumericFailure("truth simulation failed", t=grid[i], step=i)``.
    """
    x = np.asarray(x0, dtype=float).copy()
    F = model.constant_diffusion
    traj = np.empty((x.size, len(grid)))
    t = 0.0
    for i, t_next in enumerate(grid):
        dt = t_next - t
        with np.errstate(over="ignore", invalid="ignore"):
            b = model.drift_ensemble(x[:, None], t)[:, 0]
            x = x + b * dt
            if model.m:
                x = x + F @ (np.sqrt(dt) * stream.standard_normal(model.m))
        if not np.isfinite(x).all():
            raise NumericFailure("truth simulation failed", t=t_next, step=i)
        traj[:, i] = x
        t = t_next
    return traj


def clean_signal_oracle(meas, traj, grid):
    """Noise-free measurements of a trajectory, one grid time at a time.

    Column i is the measurement map of the one-column ensemble
    ``traj[:, i]`` at the single time ``grid[i]``.
    """
    clean = np.empty((meas.q, len(grid)))
    for i, t in enumerate(grid):
        clean[:, i] = np.asarray(meas.h(traj[:, i:i + 1], t),
                                 dtype=float).reshape(meas.q)
    return clean


class StepKeyedNoise:
    """Ensemble noise built one particle and one fine step at a time.

    Fine step k opens a fresh ``RngStream(seed, STEP_BASE + k)`` and gives
    particle j the (j+1)-th of N ``standard_normal(m)`` calls.  A step of
    ``stride`` fine steps adds each particle's fine draws in a loop,
    divides by sqrt(stride) and scales by sqrt(dt).  Stands in for
    ``enks.rng.ParticleNoise``.
    """

    def __init__(self, seed, N, stride=1):
        self.seed, self.N, self.stride = seed, N, stride
        self.step = 0  # next fine step

    def fine_draws(self, k, m):
        """Unit draws of fine step k, one length-m vector per particle."""
        stream = RngStream(self.seed, STEP_BASE + k)
        return [stream.standard_normal(m) for _ in range(self.N)]

    def increments(self, m, dt):
        fine = [self.fine_draws(k, m)
                for k in range(self.step, self.step + self.stride)]
        self.step += self.stride
        dB = np.empty((m, self.N))
        for j in range(self.N):
            total = fine[0][j]
            for draws in fine[1:]:
                total = total + draws[j]
            dB[:, j] = np.sqrt(dt) * (total / np.sqrt(self.stride))
        return dB


class FixedNoise:
    """Serves the same increments ``dB`` at every step; stands in for
    ``enks.rng.ParticleNoise`` where a test must see the array a step read."""

    def __init__(self, dB):
        self.dB = dB
        self.N = dB.shape[1]

    def increments(self, m, dt):
        assert self.dB.shape[0] == m
        return self.dB
