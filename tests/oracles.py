"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's numerics: plain loops, replicated
matrices, and explicit inverses, so a test comparing library output to an
oracle value exercises two independent code paths.
"""

import numpy as np

from enks.rng import PARTICLE_BASE, RngStream, brownian_increments


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
                      betas=(1.0,), absolute=False):
    """Large-N EnKS recursion with every gain taken from gain_oracle.

    The moments (m, P) are carried by an exact-moment ensemble.  On it the
    displayed formula, with any lagged means, evaluates to
    tc (N-1)/N P H^T [alpha H P H^T + (1-alpha) sigma_gram]^{-1}, so
    rescaling by N/(N-1) gives the gain's large-N limit.  Each pass then
    moves the mean by beta G (y - H m) and maps the covariance through
    I - beta G H, as it maps every particle.
    """
    a, Q, H = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (a, Q, H))
    m = np.asarray(m0, dtype=float).reshape(-1).copy()
    P = np.atleast_2d(np.asarray(P0, dtype=float)).copy()
    n = m.size
    means, covs = [], []
    t = 0.0
    for y in ys:
        t = t + dt
        tc = t if absolute else dt
        m = a @ m
        P = a @ P @ a.T + Q
        for beta in betas:
            X = exact_moment_ensemble(m, P)
            N = X.shape[1]
            G = gain_oracle(X, H @ X, m + 1.0, H @ m - 2.0, tc, tc - dt,
                            alpha, sigma_gram) * N / (N - 1)
            L = np.eye(n) - beta * G @ H
            m = m + beta * G @ (np.atleast_1d(y) - H @ m)
            P = L @ P @ L.T
        means.append(m.copy())
        covs.append(P.copy())
    return np.array(means), np.array(covs)


class NestedIncrementStream:
    """Per-particle stream whose draws aggregate a fine Brownian path.

    Each ``standard_normal(m)`` call consumes ``stride`` fine-grid draws
    from ``base`` and returns their sum divided by sqrt(stride).
    """

    def __init__(self, base, stride):
        self.base = base
        self.stride = stride

    def standard_normal(self, size=None):
        m = 1 if size is None else int(size)
        block = self.base.standard_normal((self.stride, m))
        out = block.sum(axis=0) / np.sqrt(self.stride)
        return out if size is not None else float(out[0])


class PerParticleNoise:
    """Ensemble noise drawn one particle and one step at a time.

    Each step, column j is ``brownian_increments`` on particle j's stream
    keyed (seed, PARTICLE_BASE + j), wrapped in a NestedIncrementStream
    when ``stride > 1``.  Stands in for ``enks.rng.ParticleNoise``.
    """

    def __init__(self, seed, N, stride=1):
        streams = [RngStream(seed, PARTICLE_BASE + j) for j in range(N)]
        if stride > 1:
            streams = [NestedIncrementStream(s, stride) for s in streams]
        self.streams = streams

    @property
    def N(self):
        return len(self.streams)

    def increments(self, m, dt):
        dB = np.empty((m, self.N))
        for j, stream in enumerate(self.streams):
            dB[:, j] = brownian_increments(stream, m, dt)
        return dB
