"""Independent reference implementations used only by the test suite.

Everything here is deliberately written against different primitives than
the package (Gauss-Jordan elimination instead of Cholesky, matrix
exponentials and discrete-time Kalman recursions instead of moment ODEs,
numeric Isserlis recursions instead of compiled symbolic expansions, a
lockstep ensemble with its own rate evaluation instead of the one-path
jump simulator) so that agreement is meaningful.
"""

from __future__ import annotations

from itertools import product
from math import comb

import numpy as np
from scipy.linalg import expm

from epsde.errors import DivergedPath, NegativeRate

# the total polynomial degree the package's closure supports
MAX_DEGREE = 8


def gauss_jordan_inverse(mat: np.ndarray) -> np.ndarray:
    """Matrix inverse by Gauss-Jordan elimination with partial pivoting."""
    a = np.asarray(mat, dtype=float).copy()
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) < 1e-300:
            raise np.linalg.LinAlgError("singular matrix")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def mean_params(m) -> tuple[np.ndarray, np.ndarray]:
    """Expected sufficient statistics (E[x], E[-x x^T / 2]) of a Gaussian
    with moments (m.mean, m.cov)."""
    second = m.cov + np.outer(m.mean, m.mean)
    return m.mean.copy(), -0.5 * second


def validate_moments(m, *, sym_tol: float = 1e-12) -> None:
    """Check that m.cov is symmetric and positive definite, raising
    ValueError on failure."""
    scale = max(1.0, float(np.max(np.abs(m.cov))))
    asym = float(np.max(np.abs(m.cov - m.cov.T)))
    if asym > sym_tol * scale:
        raise ValueError(f"covariance asymmetric: max |C - C^T| = {asym:g}")
    if not np.linalg.eigvalsh(m.cov)[0] > 0.0:
        raise ValueError("covariance not positive definite")


def ou_transition(A: np.ndarray, b: np.ndarray, dt: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Exact discrete transition (F, Q) of dx = A x dt + b^(1/2) dW.

    Van Loan construction: exp([[A, b], [0, -A^T]] dt) has upper blocks
    [F, G] with Q = G F^T.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    d = A.shape[0]
    M = np.zeros((2 * d, 2 * d))
    M[:d, :d] = A
    M[:d, d:] = b
    M[d:, d:] = -A.T
    E = expm(M * dt)
    F = E[:d, :d]
    Q = E[:d, d:] @ F.T
    return F, 0.5 * (Q + Q.T)


def ou_exact_moments(A, b, mean0, cov0, t: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form mean/cov of the linear SDE at time t from (mean0, cov0)."""
    F, Q = ou_transition(A, b, t)
    mean = F @ np.asarray(mean0, dtype=float)
    cov = F @ np.asarray(cov0, dtype=float) @ F.T + Q
    return mean, 0.5 * (cov + cov.T)


def kalman_filter_grid(F_list, Q_list, mean0, cov0, obs_map):
    """Kalman filter over a node sequence with optional observations.

    F_list/Q_list give the transition from node k to k+1 (length N).
    obs_map maps node index -> (y, R) with identity observation operator.
    Node 0 may carry an observation.  Returns post-update means/covs at
    every node, pre-update (predictive) means/covs, and the accumulated
    log marginal likelihood sum_i log N(y_i; m_pred, P_pred + R).
    """
    n_nodes = len(F_list) + 1
    d = len(mean0)
    means = np.zeros((n_nodes, d))
    covs = np.zeros((n_nodes, d, d))
    pre_means = np.zeros((n_nodes, d))
    pre_covs = np.zeros((n_nodes, d, d))
    loglik = 0.0
    m, P = np.asarray(mean0, dtype=float), np.asarray(cov0, dtype=float)
    for k in range(n_nodes):
        if k > 0:
            F, Q = F_list[k - 1], Q_list[k - 1]
            m = F @ m
            P = F @ P @ F.T + Q
        pre_means[k], pre_covs[k] = m, P
        if k in obs_map:
            y, R = obs_map[k]
            S = P + R
            Sinv = gauss_jordan_inverse(S)
            innov = y - m
            K = P @ Sinv
            m = m + K @ innov
            P = P - K @ P
            P = 0.5 * (P + P.T)
            sign, logdet = np.linalg.slogdet(S)
            assert sign > 0
            loglik += -0.5 * (innov @ Sinv @ innov + logdet
                              + d * np.log(2.0 * np.pi))
        means[k], covs[k] = m, P
    return means, covs, pre_means, pre_covs, loglik


def rts_smoother_grid(F_list, Q_list, means, covs):
    """Fixed-interval RTS smoother over filtered node marginals."""
    n_nodes = len(means)
    sm = means.copy()
    sP = covs.copy()
    for k in range(n_nodes - 2, -1, -1):
        F, Q = F_list[k], Q_list[k]
        m_pred = F @ means[k]
        P_pred = F @ covs[k] @ F.T + Q
        G = covs[k] @ F.T @ gauss_jordan_inverse(P_pred)
        sm[k] = means[k] + G @ (sm[k + 1] - m_pred)
        sP[k] = covs[k] + G @ (sP[k + 1] - P_pred) @ G.T
        sP[k] = 0.5 * (sP[k] + sP[k].T)
    return sm, sP


def linear_gaussian_reference(A, b, mean0, cov0, t0, t1, n_steps,
                              obs_times, obs_values, R):
    """Exact filtered/smoothed node marginals and log-likelihood.

    Builds exact transitions per grid cell and runs the discrete
    filter/smoother above with observations at their snapped nodes.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    dt = (t1 - t0) / n_steps
    F, Q = ou_transition(A, b, dt)
    F_list = [F] * n_steps
    Q_list = [Q] * n_steps
    obs_map = {}
    for t, y in zip(obs_times, obs_values):
        k = int(round((t - t0) / dt))
        obs_map[k] = (np.asarray(y, dtype=float), np.asarray(R, dtype=float))
    means, covs, pre_m, pre_P, loglik = kalman_filter_grid(
        F_list, Q_list, mean0, cov0, obs_map)
    sm, sP = rts_smoother_grid(F_list, Q_list, means, covs)
    return {
        "filtered_means": means, "filtered_covs": covs,
        "pre_means": pre_m, "pre_covs": pre_P,
        "smoothed_means": sm, "smoothed_covs": sP,
        "loglik": loglik,
    }


def _central_moment(cov: np.ndarray, beta: tuple[int, ...]) -> float:
    """E[prod z_i^beta_i] for z ~ N(0, cov) by direct pairing recursion."""
    idx: list[int] = []
    for i, b in enumerate(beta):
        idx.extend([i] * b)
    if len(idx) % 2 == 1:
        return 0.0
    if not idx:
        return 1.0

    def rec(rest: tuple[int, ...]) -> float:
        if not rest:
            return 1.0
        first, tail = rest[0], rest[1:]
        total = 0.0
        for j in range(len(tail)):
            total += cov[first, tail[j]] * rec(tail[:j] + tail[j + 1:])
        return total

    return rec(tuple(idx))


def gaussian_expectation(p, m) -> float:
    """E[p(x)] for x ~ N(mean, cov), exact for total degree <= 8.

    p is any polynomial with .degree and .terms() -> [(coeff, exponents)];
    m any Gaussian with .mean and .cov.
    """
    if p.degree > MAX_DEGREE:
        raise ValueError(f"polynomial degree {p.degree} exceeds the "
                         f"supported maximum of {MAX_DEGREE}")
    mean, cov = m.mean, m.cov
    total = 0.0
    for c, alpha in p.terms():
        acc = 0.0
        for beta in product(*(range(a + 1) for a in alpha)):
            w = 1.0
            for i, (a, b) in enumerate(zip(alpha, beta)):
                w *= comb(a, b) * mean[i] ** (a - b)
            if w == 0.0:
                continue
            cm = _central_moment(cov, beta)
            if cm != 0.0:
                acc += w * cm
        total += c * acc
    return float(total)


def _ensemble_rates(mjp, state: np.ndarray) -> np.ndarray:
    """Reaction rates (n_paths, n_reactions) of every path's state, each
    rate summed term by term from its coefficients and exponents."""
    x = state.astype(float)
    g = np.zeros((len(state), mjp.n_reactions))
    for r, rate in enumerate(mjp.rates):
        for c, e in rate.terms():
            g[:, r] += np.prod(x ** np.array(e), axis=1) * c
    return g


def gillespie_ensemble(mjp, n0, t0: float, t1: float, grid, *, n_paths: int,
                       seed: int, max_events: int = 50_000_000) -> np.ndarray:
    """States of n_paths exact jump paths at the given grid times.

    Paths advance in lockstep: each iteration draws one event per still
    active path, with rates evaluated for all paths at once.  Returns an
    array of shape (n_paths, len(grid), dim).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size and (grid[0] < t0 or grid[-1] > t1):
        raise ValueError("grid times must lie inside [t0, t1]")
    rng = np.random.Generator(np.random.Philox(key=seed))
    d, n_rx = mjp.dim, mjp.n_reactions
    cols = np.ascontiguousarray(mjp.stoich.T, dtype=np.int64)   # (R, d)
    state = np.broadcast_to(np.asarray(n0, dtype=np.int64),
                            (n_paths, d)).copy()
    t = np.full(n_paths, float(t0))
    out = np.empty((n_paths, len(grid), d), dtype=np.int64)
    ptr = np.zeros(n_paths, dtype=np.int64)     # next grid slot to fill
    active = np.ones(n_paths, dtype=bool)
    total_events = 0
    n_grid = len(grid)

    def flush(upto: np.ndarray) -> None:
        # record current state at every grid time strictly before upto
        while True:
            can = ptr < n_grid
            mask = can & (grid[np.minimum(ptr, n_grid - 1)] < upto)
            if not mask.any():
                return
            rows = np.nonzero(mask)[0]
            out[rows, ptr[rows]] = state[rows]
            ptr[rows] += 1

    while active.any():
        g = _ensemble_rates(mjp, state)
        if (g[active] < 0.0).any():
            raise NegativeRate("negative reaction rate in ensemble")
        total = g.sum(axis=1)
        absorbed = active & (total <= 0.0)
        if absorbed.any():
            t[absorbed] = np.inf
            active &= ~absorbed
        if not active.any():
            break
        dt = np.full(n_paths, np.inf)
        dt[active] = rng.exponential(size=int(active.sum())) / total[active]
        t_next = t + dt
        done = active & (t_next > t1)
        flush(np.where(active, t_next, t))
        if done.any():
            t[done] = np.inf
            active &= ~done
        if not active.any():
            break
        u = rng.random(n_paths) * total
        cum = np.cumsum(g, axis=1)
        r_idx = np.minimum((cum < u[:, None]).sum(axis=1), n_rx - 1)
        rows = np.nonzero(active)[0]
        state[rows] += cols[r_idx[rows]]
        t[rows] = t_next[rows]
        total_events += len(rows)
        if total_events > max_events:
            raise DivergedPath(
                f"ensemble exceeded {max_events} total events")
    flush(np.full(n_paths, np.inf))
    return out
