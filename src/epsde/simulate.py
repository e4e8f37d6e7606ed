"""Stochastic simulation: exact jump paths, diffusion paths, observations.

The jump simulator draws exact trajectories of a Markov jump process by
sampling exponential waiting times from the total rate.  Diffusion
paths use fixed-step Euler-Maruyama; when the process carries
jump-process provenance the noise is assembled directly from
per-reaction rates (clamped at zero where the continuous state has gone
slightly negative), which keeps the diffusion factorization exact.

All randomness comes from counter-based Philox generators so runs are
reproducible from a single integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergedPath, NegativeRate
from .likelihoods import GaussianObs, LogNormalObs, Observation
from .processes import MjpSpec, SdeSpec, evaluate_polynomial

RNG_ALGORITHM = "philox4x64"
# Philox takes keys in [0, 2**128)
SEED_LIMIT = 2 ** 128


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True, eq=False)
class JumpTrajectory:
    """Piecewise-constant path: states[k] holds on [times[k], times[k+1])."""

    times: np.ndarray    # event times, times[0] = t0
    states: np.ndarray   # (n_events + 1, d) copy numbers after each jump
    t_end: float
    seed: int

    def state_at(self, t) -> np.ndarray:
        """State at each query time (scalar or array), right-continuous."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="right") - 1
        return self.states[np.clip(idx, 0, len(self.states) - 1)]


@dataclass(frozen=True, eq=False)
class DiffusionTrajectory:
    times: np.ndarray    # (n_steps + 1,) uniform grid
    states: np.ndarray   # (n_steps + 1, d)
    seed: int
    n_clamps: int = 0    # diffusion evaluations clamped to stay PSD


def _rate_closures(mjp: MjpSpec):
    fns = []
    for rate in mjp.rates:
        terms = [(float(c), tuple(int(k) for k in e))
                 for c, e in rate.terms()]

        def f(n, terms=terms):
            tot = 0.0
            for c, e in terms:
                v = c
                for i, k in enumerate(e):
                    if k:
                        v *= n[i] ** k
                tot += v
            return tot

        fns.append(f)
    return fns


def gillespie(mjp: MjpSpec, n0, t0: float, t1: float, *, seed: int,
              max_events: int | None = None) -> JumpTrajectory:
    """One exact jump-process path on [t0, t1]."""
    rng = make_rng(seed)
    state = np.asarray(n0, dtype=np.int64).copy()
    if state.shape != (mjp.dim,):
        raise ValueError("initial state has wrong dimension")
    rates = _rate_closures(mjp)
    stoich = mjp.stoich
    times = [float(t0)]
    path = [state.copy()]
    t = float(t0)
    n_events = 0
    while True:
        g = [f(state) for f in rates]
        total = 0.0
        for v in g:
            if v < 0.0:
                raise NegativeRate(
                    f"negative reaction rate {v!r} at state {state.tolist()}")
            total += v
        if total <= 0.0:
            break
        t = t + rng.exponential() / total
        if t > t1:
            break
        u = rng.random() * total
        acc = 0.0
        r = len(g) - 1
        for j, v in enumerate(g):
            acc += v
            if u < acc:
                r = j
                break
        state = state + stoich[:, r]
        times.append(t)
        path.append(state.copy())
        n_events += 1
        if max_events is not None and n_events >= max_events:
            raise DivergedPath(
                f"jump path exceeded {max_events} events before t={t1}")
    return JumpTrajectory(np.asarray(times), np.asarray(path),
                          float(t1), seed)


def euler_maruyama(sde: SdeSpec, x0, t0: float, t1: float, *,
                   n_steps: int, seed: int) -> DiffusionTrajectory:
    times, states, n_clamps = euler_maruyama_ensemble(
        sde, x0, t0, t1, n_steps=n_steps, n_paths=1, seed=seed)
    return DiffusionTrajectory(times, states[0], seed, n_clamps)


def euler_maruyama_ensemble(sde: SdeSpec, x0, t0: float, t1: float, *,
                            n_steps: int, n_paths: int, seed: int
                            ) -> tuple[np.ndarray, np.ndarray, int]:
    """Fixed-step Euler-Maruyama paths.

    Returns (times, states, n_clamps) with states of shape
    (n_paths, n_steps + 1, dim).  For a process with jump-process
    provenance the noise is sum_r S_r sqrt(g_r dt) z_r with negative
    rates clamped at zero; otherwise the evaluated diffusion matrix is
    factorized by eigendecomposition with negative eigenvalues clamped.
    Each clamped evaluation counts once.
    """
    rng = make_rng(seed)
    d = sde.dim
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, d)).copy()
    dt = (float(t1) - float(t0)) / n_steps
    times = float(t0) + dt * np.arange(n_steps + 1)
    out = np.empty((n_paths, n_steps + 1, d))
    out[:, 0] = x
    sqrt_dt = np.sqrt(dt)
    n_clamps = 0
    mjp = sde.source
    if mjp is not None:
        cols = np.ascontiguousarray(mjp.stoich.T, dtype=float)   # (R, d)
    for k in range(n_steps):
        drift = np.stack(
            [evaluate_polynomial(p, x) for p in sde.drift], axis=-1)
        if mjp is not None:
            g = np.stack(
                [evaluate_polynomial(p, x) for p in mjp.rates], axis=-1)
            neg = g < 0.0
            if neg.any():
                n_clamps += int(neg.any(axis=1).sum())
                g = np.where(neg, 0.0, g)
            z = rng.standard_normal((n_paths, mjp.n_reactions))
            noise = (z * np.sqrt(g)) @ cols
        else:
            b = np.empty((n_paths, d, d))
            for i in range(d):
                for j in range(d):
                    b[:, i, j] = evaluate_polynomial(sde.diffusion[i][j], x)
            b = 0.5 * (b + np.swapaxes(b, 1, 2))
            w, v = np.linalg.eigh(b)
            neg = w < 0.0
            if neg.any():
                n_clamps += int(neg.any(axis=1).sum())
                w = np.where(neg, 0.0, w)
            z = rng.standard_normal((n_paths, d))
            noise = np.einsum("pij,pj->pi", v, np.sqrt(w) * z)
        x = x + drift * dt + noise * sqrt_dt
        if not np.all(np.isfinite(x)):
            raise DivergedPath(f"diffusion path diverged at step {k + 1}")
        out[:, k + 1] = x
    return times, out, n_clamps


def sample_observations(traj, times, model, *, seed: int
                        ) -> list[Observation]:
    """Read the trajectory at each time and draw one noisy observation.

    Jump trajectories use the piecewise-constant lookup; diffusion
    trajectories read the nearest grid node.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if isinstance(traj, JumpTrajectory):
        horizon = (traj.times[0], traj.t_end)
        states = traj.state_at(times).astype(float)
    elif isinstance(traj, DiffusionTrajectory):
        horizon = (traj.times[0], traj.times[-1])
        dt = traj.times[1] - traj.times[0]
        idx = np.round((times - traj.times[0]) / dt).astype(np.int64)
        states = traj.states[np.clip(idx, 0, len(traj.times) - 1)]
    else:
        raise TypeError(f"unknown trajectory type {type(traj).__name__}")
    if (times < horizon[0]).any() or (times > horizon[1]).any():
        raise ValueError("observation time outside the trajectory horizon")
    return observe_states(times, states, model, seed=seed)


def observe_states(times, states, model, *, seed: int) -> list[Observation]:
    """Draw one observation per row of states under the given model."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if len(times) != len(states):
        raise ValueError("times and states must have equal length")
    rng = make_rng(seed)
    if isinstance(model, GaussianObs):
        L = np.linalg.cholesky(model.R)
        z = rng.standard_normal(states.shape)
        values = states + z @ L.T
    elif isinstance(model, LogNormalObs):
        if (states <= 0.0).any():
            raise ValueError(
                "log-normal observations require positive states")
        z = rng.standard_normal(states.shape)
        s2, loc = model.log_params(states)
        values = np.exp(loc + np.sqrt(s2) * z)
    else:
        raise TypeError(f"unknown observation model {type(model).__name__}")
    return [Observation(t, v) for t, v in zip(times, values)]
