"""Exact Kalman/RTS reference for a linear SDE with a symmetric drift.

Written against numpy only and independent of epsde: the transition of
dx = A x dt + b^(1/2) dW over one grid cell comes in closed form from
the eigendecomposition A = V diag(lam) V^T,

    F = V diag(exp(lam dt)) V^T,
    Q = V [ (V^T b V)_ij (exp((lam_i + lam_j) dt) - 1) / (lam_i + lam_j) ] V^T,

and a discrete Kalman filter plus Rauch-Tung-Striebel smoother over the
grid nodes then gives the exact smoothed marginals and the exact log
marginal likelihood of the observations.
"""

from __future__ import annotations

import numpy as np


def ou_transition(A: np.ndarray, b: np.ndarray, dt: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-cell transition (F, Q); A must be symmetric."""
    A = np.asarray(A, dtype=float)
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12):
        raise ValueError("drift matrix must be symmetric")
    lam, V = np.linalg.eigh(A)
    F = (V * np.exp(lam * dt)) @ V.T
    s = lam[:, None] + lam[None, :]
    safe = np.where(s == 0.0, 1.0, s)
    gain = np.where(s == 0.0, dt, np.expm1(s * dt) / safe)
    Q = V @ ((V.T @ np.asarray(b, dtype=float) @ V) * gain) @ V.T
    return F, 0.5 * (Q + Q.T)


def kalman_rts(A, b, mean0, cov0, t0: float, t1: float, n_steps: int,
               obs_times, obs_values, R) -> dict:
    """Smoothed node marginals and log evidence on a uniform grid.

    Observations y = x + N(0, R) act at their nearest grid node, after
    the transition into it, exactly as the package places them.
    """
    dt = (t1 - t0) / n_steps
    F, Q = ou_transition(A, b, dt)
    R = np.asarray(R, dtype=float)
    at_node = {int(round((t - t0) / dt)): np.asarray(y, dtype=float)
               for t, y in zip(obs_times, obs_values)}
    d = len(mean0)
    means = np.empty((n_steps + 1, d))
    covs = np.empty((n_steps + 1, d, d))
    m = np.asarray(mean0, dtype=float)
    P = np.asarray(cov0, dtype=float)
    loglik = 0.0
    for k in range(n_steps + 1):
        if k > 0:
            m = F @ m
            P = F @ P @ F.T + Q
        if k in at_node:
            S = P + R
            innov = at_node[k] - m
            K = np.linalg.solve(S, P).T
            m = m + K @ innov
            P = P - K @ P
            _, logdet = np.linalg.slogdet(S)
            loglik -= 0.5 * (innov @ np.linalg.solve(S, innov) + logdet
                             + d * np.log(2.0 * np.pi))
        P = 0.5 * (P + P.T)
        means[k], covs[k] = m, P
    s_means, s_covs = means.copy(), covs.copy()
    for k in range(n_steps - 1, -1, -1):
        P_pred = F @ covs[k] @ F.T + Q
        G = np.linalg.solve(P_pred, F @ covs[k]).T
        s_means[k] = means[k] + G @ (s_means[k + 1] - F @ means[k])
        C = covs[k] + G @ (s_covs[k + 1] - P_pred) @ G.T
        s_covs[k] = 0.5 * (C + C.T)
    return {"means": s_means, "covs": s_covs, "loglik": float(loglik)}
