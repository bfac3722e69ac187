"""Fixed-step integration of the revision dynamics and basin estimation.

dp_i/dt = w_i(p_j) - p_i points into the unit square on its boundary, so
trajectories are clamped componentwise after every step; the clamp can
only absorb integrator error.  Fixed-step RK4 keeps runs reproducible
bit for bit, which the golden-file outputs depend on.  ``analysis.System``
decides between one and two populations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import StationaryAnalysis, StationaryState, System, _clamp01

CONVERGENCE_TOL = 1e-10
MATCH_TOL = 1e-6
DEFAULT_T_MAX = 200.0
DEFAULT_DT = 0.01


class NumericError(ArithmeticError):
    """A trajectory produced a non-finite state (response function bug)."""


def _step_count(t_max: float, dt: float) -> int:
    """Number of fixed steps of size dt that cover [0, t_max]."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be a positive finite number, got {dt!r}")
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ValueError(f"t_max must be a finite number >= 0, got {t_max!r}")
    return int(round(t_max / dt))


def _clip01(x: np.ndarray) -> np.ndarray:
    return np.clip(x, 0.0, 1.0)


@dataclass
class Trajectory:
    """Time-stamped states from one integration run."""

    times: np.ndarray
    states: np.ndarray  # shape (n,) for one population, (n, 2) for two
    converged: bool
    limit: StationaryState | None
    dt: float
    max_clamp: float

    @property
    def verdict(self) -> str:
        if self.converged:
            return f"converged-to({self._limit_label()})"
        return "max-time-reached"

    def _limit_label(self) -> str:
        if self.limit is None:
            return "unmatched"
        return repr(self.limit.state)

    @property
    def final_state(self):
        last = self.states[-1]
        return float(last) if last.ndim == 0 or last.shape == () else tuple(last)


def _match_stationary(
    states: StationaryAnalysis, point: np.ndarray, tol: float = MATCH_TOL
) -> StationaryState | None:
    best = None
    best_dist = math.inf
    for s in states.states:
        ref = np.atleast_1d(np.asarray(s.state, dtype=float))
        dist = float(np.max(np.abs(ref - point)))
        if dist < best_dist:
            best, best_dist = s, dist
    if best is not None and best_dist <= tol:
        return best
    return None


def _rk4_step(field, x, dt, project, k1=None):
    """One RK4 step on an array state.  ``project`` maps the stage
    arguments and the result back onto the state space, where the field
    is defined; the overshoot it removes is O(dt * |field|)."""
    if k1 is None:
        k1 = field(x)
    k2 = field(project(x + 0.5 * dt * k1))
    k3 = field(project(x + 0.5 * dt * k2))
    k4 = field(project(x + dt * k3))
    return project(x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def _scalar_rk4_step(rhs, x: tuple, dt: float, k1: tuple) -> tuple:
    """One unclamped RK4 step on a tuple state from k1 = rhs(x); at this
    size tuples of floats are far faster than numpy arrays."""
    half = 0.5 * dt
    k2 = rhs(tuple(xi + half * ki for xi, ki in zip(x, k1)))
    k3 = rhs(tuple(xi + half * ki for xi, ki in zip(x, k2)))
    k4 = rhs(tuple(xi + dt * ki for xi, ki in zip(x, k3)))
    sixth = dt / 6.0
    return tuple(
        xi + sixth * (a + 2.0 * b + 2.0 * c + d)
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    )


def integrate(
    system,
    initial,
    t_max: float = DEFAULT_T_MAX,
    dt: float = DEFAULT_DT,
    stationary: StationaryAnalysis | None = None,
) -> Trajectory:
    """Integrate from one initial state, recording every step.

    Stops early once the vector field's sup norm drops below 1e-10; the
    verdict then names the nearest stationary state within 1e-6 (matched
    against ``stationary`` when given, otherwise computed on demand).
    """
    n_steps = _step_count(t_max, dt)
    init = np.atleast_1d(np.asarray(initial, dtype=float))
    if init.ndim != 1 or init.size not in (1, 2):
        raise ValueError(f"initial state must be a scalar or a pair, got {initial!r}")
    if not np.all((init >= 0.0) & (init <= 1.0)):
        raise ValueError(f"initial state outside the unit interval/square: {initial!r}")
    system = System.of(system, init.size)

    rhs = system.scalar_rhs()
    x = tuple(float(v) for v in init)
    times = [0.0]
    path = [x]
    converged = False
    max_clamp = 0.0
    for step in range(1, n_steps + 1):
        k1 = rhs(x)
        if max(abs(v) for v in k1) < CONVERGENCE_TOL:
            converged = True
            break
        raw = _scalar_rk4_step(rhs, x, dt, k1)
        if not all(math.isfinite(v) for v in raw):
            raise NumericError(f"non-finite state at step {step}")
        x = tuple(_clamp01(v) for v in raw)
        max_clamp = max(max_clamp, max(abs(a - b) for a, b in zip(x, raw)))
        times.append(step * dt)
        path.append(x)
    else:
        converged = max(abs(v) for v in rhs(x)) < CONVERGENCE_TOL

    limit = None
    if converged:
        if stationary is None:
            stationary = system.stationary()
        limit = _match_stationary(stationary, np.asarray(x))

    states = np.asarray(path)
    if system.dim == 1:
        states = states[:, 0]
    return Trajectory(
        times=np.asarray(times),
        states=states,
        converged=converged,
        limit=limit,
        dt=dt,
        max_clamp=max_clamp,
    )


def convergence_limit(
    system,
    initial,
    t_max: float = 500.0,
    dt: float = DEFAULT_DT,
    stationary: StationaryAnalysis | None = None,
) -> StationaryState:
    """The stationary state a trajectory settles into."""
    traj = integrate(system, initial, t_max=t_max, dt=dt, stationary=stationary)
    if not traj.converged or traj.limit is None:
        raise NumericError(
            f"trajectory from {initial!r} did not converge to a known stationary "
            f"state within t_max={t_max}"
        )
    return traj.limit


def _terminal_states(field, x0: np.ndarray, t_max: float, dt: float):
    """Batched RK4 without trajectory recording; converged rows drop out.

    The working set is kept compact: rows are only copied out when they
    converge, so the common all-active phase costs no masking passes.
    Returns (final states, converged mask).
    """
    n_steps = _step_count(t_max, dt)
    n = x0.shape[0]
    out = x0.copy()
    converged = np.zeros(n, dtype=bool)
    idx = np.arange(n)
    x = x0.copy()
    for _ in range(n_steps):
        fa = field(x)
        if not np.all(np.isfinite(fa)):
            raise NumericError("non-finite vector field during batched integration")
        done = np.max(np.abs(fa), axis=1) < CONVERGENCE_TOL
        if done.any():
            rows = idx[done]
            out[rows] = x[done]
            converged[rows] = True
            keep = ~done
            idx, x, fa = idx[keep], x[keep], fa[keep]
            if idx.size == 0:
                return out, converged
        x = _rk4_step(field, x, dt, _clip01, k1=fa)
    if idx.size:
        fa = field(x)
        done = np.max(np.abs(fa), axis=1) < CONVERGENCE_TOL
        out[idx] = x
        converged[idx[done]] = True
    return out, converged


def terminal_states(
    system,
    initials,
    t_max: float = DEFAULT_T_MAX,
    dt: float = DEFAULT_DT,
):
    """Batched no-recording integration of many initial states.

    ``initials`` has shape (n,) for one population or (n, 2) for two.
    Returns (final states in the same shape, converged mask).
    """
    x0 = np.asarray(initials, dtype=float)
    one_pop = x0.ndim == 1
    system = System.of(system, 1 if one_pop else 2)
    finals, ok = _terminal_states(system.field, x0.reshape(-1, system.dim), t_max, dt)
    return (finals[:, 0] if one_pop else finals), ok


@dataclass
class BasinGrid:
    """Attractor index per grid cell plus each attractor's share of cells."""

    resolution: int
    attractors: tuple[StationaryState, ...]
    cells: np.ndarray  # shape (res,) or (res, res); -1 marks a flagged cell
    shares: dict[int, float]
    flagged: int

    def share_of(self, state: StationaryState) -> float:
        for i, s in enumerate(self.attractors):
            if s is state or s.state == state.state:
                return self.shares.get(i, 0.0)
        raise ValueError(f"unknown attractor {state!r}")


def estimate_basins(
    system,
    resolution: int,
    t_max: float = DEFAULT_T_MAX,
    dt: float = DEFAULT_DT,
) -> BasinGrid:
    """Integrate from every cell center and record which attractor wins.

    Cells that have not converged by t_max continue from where they
    stopped for another t_max at half the step size, and are flagged with
    index -1 if they still have not.  Shares are fractions of
    all cells, flagged ones included, so they sum to less than one when
    any cell is flagged.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution!r}")
    system = System.of(system)

    centers = (np.arange(resolution) + 0.5) / resolution
    if system.dim == 1:
        x0 = centers.reshape(-1, 1)
    else:
        g1, g2 = np.meshgrid(centers, centers, indexing="ij")
        x0 = np.column_stack([g1.ravel(), g2.ravel()])

    stationary = system.stationary()
    if stationary.continuum:
        raise ValueError("basin estimation needs finitely many stationary states")

    finals, ok = _terminal_states(system.field, x0, t_max, dt)
    if not ok.all():
        redo = ~ok
        finals[redo], ok[redo] = _terminal_states(system.field, finals[redo], t_max, dt / 2.0)

    refs = np.array(
        [np.atleast_1d(np.asarray(s.state, dtype=float)) for s in stationary.states]
    )
    dists = np.max(np.abs(finals[:, None, :] - refs[None, :, :]), axis=2)
    nearest = np.argmin(dists, axis=1)
    near = dists[np.arange(len(nearest)), nearest] <= 1e-3
    cells = np.where(ok & near, nearest, -1)
    shares = {
        int(j): float(np.sum(cells == j)) / float(cells.size)
        for j in np.unique(cells[cells >= 0])
    }
    shape = (resolution,) if system.dim == 1 else (resolution, resolution)
    return BasinGrid(
        resolution=resolution,
        attractors=stationary.states,
        cells=cells.reshape(shape),
        shares=shares,
        flagged=int(np.sum(cells < 0)),
    )
