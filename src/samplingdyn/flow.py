"""Fixed-step integration of the revision dynamics and basin estimation.

dp_i/dt = w_i(p_j) - p_i points into the unit square on its boundary, so
trajectories are clamped componentwise after every step; the clamp can
only absorb integrator error.  Fixed-step RK4 keeps runs reproducible
bit for bit, which the golden-file outputs depend on.  ``analysis.System``
decides between one and two populations.  ``label_basins`` reads basins
off the stationary analysis and integrates only where it cannot decide;
``estimate_basins``, which integrates every cell, is its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    ContinuumError,
    Stability,
    StationaryAnalysis,
    StationaryState,
    System,
    _clamp01,
)

CONVERGENCE_TOL = 1e-10
MATCH_TOL = 1e-6
DEFAULT_T_MAX = 200.0
DEFAULT_DT = 0.01
SEPARATRIX_OFFSET = 1e-6  # distance from the saddle at which a trace starts
SEPARATRIX_TOL = 1e-8  # least gap in p1 + p2 between a labelled cell and a separatrix
_UNLABELLED = -2


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
    integrated: int  # cells labelled by integrating their trajectory

    def share_of(self, state: StationaryState) -> float:
        for i, s in enumerate(self.attractors):
            if s is state or s.state == state.state:
                return self.shares.get(i, 0.0)
        raise ValueError(f"unknown attractor {state!r}")


def _match_labels(finals: np.ndarray, ok, stationary: StationaryAnalysis):
    """Index of the state nearest each converged end point, -1 when none
    lies within 1e-3."""
    refs = np.array(
        [np.atleast_1d(np.asarray(s.state, dtype=float)) for s in stationary.states]
    )
    dists = np.max(np.abs(finals[:, None, :] - refs[None, :, :]), axis=2)
    nearest = np.argmin(dists, axis=1)
    near = dists[np.arange(len(nearest)), nearest] <= 1e-3
    return np.where(ok & near, nearest, -1)


def _integrated_labels(system: System, x0, stationary, t_max: float, dt: float):
    """Reference labels by brute force: integrate every start, continue the
    unconverged ones from where they stopped for another t_max at dt/2, and
    match the end points."""
    finals, ok = _terminal_states(system.field, x0, t_max, dt)
    if not ok.all():
        redo = ~ok
        finals[redo], ok[redo] = _terminal_states(system.field, finals[redo], t_max, dt / 2.0)
    return _match_labels(finals, ok, stationary)


def _sign_labels(system: System, x0, stationary):
    """One population: a start moves monotonically to the nearest stationary
    state in the direction of w(p) - p, marginal or not."""
    p = x0[:, 0]
    f = system.field(x0)[:, 0]
    ps = np.array([s.state for s in stationary.states])
    above = np.searchsorted(ps, p, side="right")
    below = np.searchsorted(ps, p, side="left") - 1
    target = np.where(f > 0.0, above, np.where(f < 0.0, below, -1))
    cells = np.where((target >= 0) & (target < len(ps)), target, _UNLABELLED)
    rest = np.abs(f) < CONVERGENCE_TOL
    cells[rest] = _match_labels(x0[rest], True, stationary)
    return cells


def _hermite(knots, q):
    """The cubic Hermite interpolant through knots (s, t, dt/ds) at q, held
    constant beyond the first and last knot."""
    s, t, m = knots
    q = np.clip(q, s[0], s[-1])
    i = np.clip(np.searchsorted(s, q, side="right") - 1, 0, len(s) - 2)
    h = s[i + 1] - s[i]
    u = (q - s[i]) / h
    u2, u3 = u * u, u * u * u
    return (
        (2.0 * u3 - 3.0 * u2 + 1.0) * t[i]
        + (u3 - 2.0 * u2 + u) * h * m[i]
        + (3.0 * u2 - 2.0 * u3) * t[i + 1]
        + (u3 - u2) * h * m[i + 1]
    )


def _stable_manifold(system: System, saddle: StationaryState, t_max: float, dt: float):
    """Knots of the stable manifold of an interior saddle as t = h(s) in the
    rotated coordinates s = p1 - p2, t = p1 + p2, traced backward from the
    saddle along its stable eigenvector until both branches leave the
    square.  None when a branch does not leave the square within t_max or
    the curve increases somewhere."""
    w1, w2 = system.responses
    p1, p2 = saddle.state
    v = (math.sqrt(w1.derivative(p2)), -math.sqrt(w2.derivative(p1)))
    scale = SEPARATRIX_OFFSET / math.hypot(*v)
    rhs = system.scalar_rhs()

    def back(x):
        return tuple(-f for f in rhs(x))

    n_steps = _step_count(t_max, dt)
    branches = []
    for sign in (-1.0, 1.0):  # up-left, then down-right
        x = (p1 + sign * scale * v[0], p2 + sign * scale * v[1])
        k = back(x)
        points, tangents = [x], [k]
        for _ in range(n_steps):
            x = _scalar_rk4_step(back, x, dt, k)
            k = back(x)
            points.append(x)
            tangents.append(k)
            if not all(0.0 <= c <= 1.0 for c in x):
                break
        else:
            return None
        branches.append((points, tangents))
    (up_pts, up_tan), (down_pts, down_tan) = branches
    pts = np.array(up_pts[::-1] + [saddle.state] + down_pts)
    tan = np.array(up_tan[::-1] + [v] + down_tan)
    if not (np.all(np.diff(pts[:, 0]) >= 0.0) and np.all(np.diff(pts[:, 1]) <= 0.0)):
        return None
    s = pts[:, 0] - pts[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = (tan[:, 0] + tan[:, 1]) / (tan[:, 0] - tan[:, 1])
    if np.any(np.diff(s) <= 0.0) or not np.all(np.isfinite(slopes)):
        return None
    return s, pts[:, 0] + pts[:, 1], slopes


def _separatrix_labels(system: System, centers, x0, stationary, t_max: float, dt: float):
    """Two populations: both responses increase, so the dynamics are
    cooperative and the stable manifolds of the interior saddles are the
    basin boundaries.  Once corner saddles, whose basins are the corners
    alone, are dropped, the ordered states must alternate stable and
    saddle; the start's label is the stable state between the curves it
    lies above and below.  Each curve is traced at dt and at 2 dt, and a
    start closer to it than their gap (at least SEPARATRIX_TOL) is left
    unlabelled, as is every start when a precondition fails."""
    unlabelled = np.full(len(x0), _UNLABELLED)
    chain = [
        i for i, s in enumerate(stationary.states)
        if not (
            s.stability == Stability.UNSTABLE
            and (max(s.state) <= 1e-9 or min(s.state) >= 1.0 - 1e-9)
        )
    ]
    stable, saddles = chain[0::2], [stationary.states[i] for i in chain[1::2]]
    increasing = all(np.all(np.diff(w(centers)) >= 0.0) for w in system.responses)
    if not (
        increasing
        and len(chain) % 2 == 1
        and all(stationary.states[i].stability == Stability.STABLE for i in stable)
        and all(s.stability == Stability.UNSTABLE and s.is_interior() for s in saddles)
    ):
        return unlabelled

    s_cell = x0[:, 0] - x0[:, 1]
    t_cell = x0[:, 0] + x0[:, 1]
    above = np.zeros((len(saddles), len(x0)), dtype=bool)
    unsure = np.zeros(len(x0), dtype=bool)
    for k, saddle in enumerate(saddles):
        heights = []
        for step in (dt, 2.0 * dt):
            knots = _stable_manifold(system, saddle, t_max, step)
            if knots is None:
                return unlabelled
            heights.append(_hermite(knots, s_cell))
        gap = t_cell - heights[0]
        above[k] = gap > 0.0
        unsure |= np.abs(gap) <= np.maximum(np.abs(heights[0] - heights[1]), SEPARATRIX_TOL)
    # a start above a curve lies above every lower one
    unsure |= np.any(np.diff(above.astype(np.int8), axis=0) > 0, axis=0)
    cells = np.asarray(stable)[above.sum(axis=0)]
    return np.where(unsure, _UNLABELLED, cells)


def _basin_starts(system, resolution: int, t_max: float, dt: float):
    """The system, the cell centers along one axis, the grid's starts (one
    row per cell) and its stationary analysis; checks the arguments."""
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution!r}")
    _step_count(t_max, dt)  # checks dt and t_max even when nothing is integrated
    system = System.of(system)
    centers = (np.arange(resolution) + 0.5) / resolution
    if system.dim == 1:
        x0 = centers.reshape(-1, 1)
    else:
        g1, g2 = np.meshgrid(centers, centers, indexing="ij")
        x0 = np.column_stack([g1.ravel(), g2.ravel()])
    stationary = system.stationary()
    if stationary.continuum:
        raise ContinuumError("basin estimation needs finitely many stationary states")
    return system, centers, x0, stationary


def _basin_grid(system: System, resolution: int, stationary, cells, integrated: int):
    shares = {
        int(j): float(np.sum(cells == j)) / float(cells.size)
        for j in np.unique(cells[cells >= 0])
    }
    return BasinGrid(
        resolution=resolution,
        attractors=stationary.states,
        cells=cells.reshape((resolution,) * system.dim),
        shares=shares,
        flagged=int(np.sum(cells < 0)),
        integrated=integrated,
    )


def estimate_basins(
    system,
    resolution: int,
    t_max: float = DEFAULT_T_MAX,
    dt: float = DEFAULT_DT,
) -> BasinGrid:
    """Integrate from every cell center and record which attractor wins:
    the reference for :func:`label_basins`, which gives the same labels
    from the stationary analysis and integrates only where that cannot
    decide.

    Cells that have not converged by t_max continue from where they
    stopped for another t_max at half the step size, and are flagged with
    index -1 if they still have not.  Shares are fractions of all cells,
    flagged ones included, so they sum to less than one when any cell is
    flagged.
    """
    system, _, x0, stationary = _basin_starts(system, resolution, t_max, dt)
    cells = _integrated_labels(system, x0, stationary, t_max, dt)
    return _basin_grid(system, resolution, stationary, cells, len(cells))


def label_basins(
    system,
    resolution: int,
    t_max: float = DEFAULT_T_MAX,
    dt: float = DEFAULT_DT,
) -> BasinGrid:
    """The stationary state each cell center converges to.

    Labels are limits of the dynamics, read off the stationary analysis:
    in one population from the sign of w(p) - p, in two from the side of
    each interior saddle's stable manifold a cell lies on.  Only the cells
    too close to a separatrix to classify, or the whole grid when a
    stationary state is marginal or the states do not alternate stable
    and saddle, are integrated as in :func:`estimate_basins`; ``integrated``
    counts them.  ``t_max`` and ``dt`` are the horizon and step of every
    integration this runs, separatrix traces included.  Shares are
    fractions of all cells, flagged ones included.
    """
    system, centers, x0, stationary = _basin_starts(system, resolution, t_max, dt)
    if system.dim == 1:
        cells = _sign_labels(system, x0, stationary)
    else:
        cells = _separatrix_labels(system, centers, x0, stationary, t_max, dt)
    todo = cells == _UNLABELLED
    if todo.any():
        cells[todo] = _integrated_labels(system, x0[todo], stationary, t_max, dt)
    return _basin_grid(system, resolution, stationary, cells, int(np.sum(todo)))
