"""Fixed-step integration of the revision dynamics and basin estimation.

dp_i/dt = w_i(p_j) - p_i points into the unit square on its boundary, so
trajectories are clamped componentwise after every step; the clamp can
only absorb integrator error.  Fixed-step RK4 keeps runs reproducible
bit for bit, which the golden-file outputs depend on.  There are two
forms of the step.  ``analysis.System`` decides between one and two
populations and runs the one float RK4 loop of each arity
(``System.rk4_path``): ``integrate`` records it, and the separatrix traces
follow it backward in time.  Basin grids and
``extensions.integrate_contracting`` step arrays of states
(``_rk4_step``).  ``label_basins`` reads basins off the
stationary analysis and the order of the cooperative dynamics, and
steps a start only until that order decides it; ``estimate_basins``,
which integrates every cell to its end, is its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    CONVERGENCE_TOL,
    MATCH_TOL,
    ContinuumError,
    NumericError,
    Stability,
    StationaryAnalysis,
    StationaryState,
    System,
)

DEFAULT_T_MAX = 200.0
DEFAULT_DT = 0.01
SEPARATRIX_OFFSET = 1e-6  # distance from the saddle at which a trace starts
SEPARATRIX_TOL = 1e-8  # least gap in p1 + p2 between a labelled cell and a separatrix
_UNLABELLED = -2


def _step_count(t_max: float, dt: float) -> int:
    """Number of fixed steps of size dt that cover [0, t_max]."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be a positive finite number, got {dt!r}")
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ValueError(f"t_max must be a finite number >= 0, got {t_max!r}")
    if not math.isfinite(t_max / dt):
        raise ValueError(f"t_max / dt must be a finite number of steps, got {t_max!r} / {dt!r}")
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
    max_clamp: float

    @property
    def verdict(self) -> str:
        if not self.converged:
            return "max-time-reached"
        return f"converged-to({'unmatched' if self.limit is None else self.limit.state!r})"


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


def integrate(
    system,
    initial,
    t_max: float = DEFAULT_T_MAX,
    dt: float = DEFAULT_DT,
) -> Trajectory:
    """Integrate from one initial state, recording every step.

    Stops early once the vector field's sup norm drops below 1e-10; the
    verdict then names the stationary state of ``system.stationary()``
    nearest the end point within 1e-6, or none.
    """
    n_steps = _step_count(t_max, dt)
    init = np.atleast_1d(np.asarray(initial, dtype=float))
    if init.ndim != 1 or init.size not in (1, 2):
        raise ValueError(f"initial state must be a scalar or a pair, got {initial!r}")
    if not np.all((init >= 0.0) & (init <= 1.0)):
        raise ValueError(f"initial state outside the unit interval/square: {initial!r}")
    system = System.of(system, init.size)
    start = float(init[0]) if system.dim == 1 else (float(init[0]), float(init[1]))
    paths, converged, max_clamp = system.rk4_path(start, dt, n_steps)
    states = np.asarray(paths[0]) if system.dim == 1 else np.column_stack(paths)
    limit = None
    if converged:
        stationary = system.stationary()
        (i,) = _match_labels(states[-1:].reshape(1, -1), True, stationary, MATCH_TOL)
        limit = stationary.states[i] if i >= 0 else None
    return Trajectory(np.arange(len(states)) * dt, states, converged, limit, max_clamp)


def _at_rest(x, f):
    return np.max(np.abs(f), axis=1) < CONVERGENCE_TOL


def _terminal_states(field, x0: np.ndarray, t_max: float, dt: float, stop=_at_rest):
    """Batched RK4 without trajectory recording; a row drops out once
    ``stop(x, field(x))`` holds for it, by default once it is at rest.

    The working set is kept compact: rows are only copied out when they
    stop, so the common all-active phase costs no masking passes.
    Returns (final states, stopped mask).
    """
    n_steps = _step_count(t_max, dt)
    n = x0.shape[0]
    out = x0.copy()
    stopped = np.zeros(n, dtype=bool)
    idx = np.arange(n)
    x = x0.copy()
    for step in range(n_steps + 1):
        fa = field(x)
        if not np.all(np.isfinite(fa)):
            raise NumericError("non-finite vector field during batched integration")
        done = stop(x, fa)
        if done.any():
            rows = idx[done]
            out[rows] = x[done]
            stopped[rows] = True
            keep = ~done
            idx, x, fa = idx[keep], x[keep], fa[keep]
            if idx.size == 0:
                return out, stopped
        if step == n_steps:
            break
        x = _rk4_step(field, x, dt, _clip01, k1=fa)
    out[idx] = x
    return out, stopped


@dataclass
class BasinGrid:
    """Attractor index per grid cell plus each attractor's share of cells."""

    resolution: int
    attractors: tuple[StationaryState, ...]
    cells: np.ndarray  # shape (res,) or (res, res); -1 marks a flagged cell
    shares: dict[int, float]
    flagged: int
    integrated: int  # cells whose label needed RK4 steps


def _match_labels(finals: np.ndarray, ok, stationary: StationaryAnalysis, tol: float = 1e-3):
    """Index of the first state nearest (in sup distance) each converged
    end point, -1 when none lies within ``tol``."""
    if not stationary.states:
        return np.full(len(finals), -1)
    refs = np.array(
        [np.atleast_1d(np.asarray(s.state, dtype=float)) for s in stationary.states]
    )
    dists = np.max(np.abs(finals[:, None, :] - refs[None, :, :]), axis=2)
    nearest = np.argmin(dists, axis=1)
    near = dists[np.arange(len(nearest)), nearest] <= tol
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


def _monotone_labels(x, f, stationary):
    """Both responses increase, so the dynamics are cooperative (Hirsch
    1985; Smith 1995, ch. 3): a start whose field ``f`` is >= 0 in every
    component rises to the least stationary state >= it, one whose field
    is <= 0 falls to the greatest state <= it, and a start at rest is
    matched as ``_integrated_labels`` matches an end point.  Every other
    start, and one with no such state, is left unlabelled.  The states,
    in order of p1 with p2 = w2(p1), form a chain, so the least state
    above a start is the first above it and the greatest below the last."""
    refs = np.array([np.atleast_1d(s.state) for s in stationary.states]).reshape(-1, x.shape[1])
    above = np.all(refs[None, :, :] >= x[:, None, :], axis=2)
    below = np.all(refs[None, :, :] <= x[:, None, :], axis=2)
    up = np.all(f >= 0.0, axis=1) & above.any(axis=1)
    down = np.all(f <= 0.0, axis=1) & below.any(axis=1)
    cells = np.full(len(x), _UNLABELLED)
    cells[up] = np.argmax(above[up], axis=1)
    cells[down] = len(refs) - 1 - np.argmax(below[down, ::-1], axis=1)
    rest = np.max(np.abs(f), axis=1) < CONVERGENCE_TOL
    cells[rest] = _match_labels(x[rest], True, stationary)
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
    n_steps = _step_count(t_max, dt)
    branches = []
    for sign in (-1.0, 1.0):  # up-left, then down-right
        start = (p1 + sign * scale * v[0], p2 + sign * scale * v[1])
        # RK4 with -dt runs time backward, along the tangent -f
        paths, left, _ = system.rk4_path(start, -dt, n_steps, _trace=True)
        if not left:
            return None
        branches.append(paths)
    (u1, u2), (d1, d2) = branches
    pts = np.column_stack([u1[::-1] + [p1] + d1, u2[::-1] + [p2] + d2])
    # the tangent -f at each recorded state, read at the clamped point as the trace reads it
    tan = -system.field(_clip01(pts))
    tan[len(u1)] = v  # the saddle's own tangent
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
    from the stationary analysis and steps a start only until its order
    decides it.

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

    Labels are limits of the dynamics, read off the stationary analysis.
    In two populations a cell first takes the side of each interior
    saddle's stable manifold it lies on.  Every cell left, all of them in
    one population, takes the order rule of ``_monotone_labels``: a field
    >= 0 (<= 0) in every component leads to the least (greatest)
    stationary state above (below) the start, which in one population is
    the sign of w(p) - p.  A start that the rule cannot decide is stepped
    by RK4 and the rule re-read after each step; ``integrated`` counts
    these starts, and one still undecided at ``t_max`` is flagged.
    ``t_max`` and ``dt`` are the horizon and step of every integration
    this runs, separatrix traces included.  Shares are fractions of all
    cells, flagged ones included.
    """
    system, centers, x0, stationary = _basin_starts(system, resolution, t_max, dt)
    cells = np.full(len(x0), _UNLABELLED)
    if system.dim == 2:
        cells = _separatrix_labels(system, centers, x0, stationary, t_max, dt)
    todo = np.flatnonzero(cells == _UNLABELLED)
    if todo.size:
        cells[todo] = _monotone_labels(x0[todo], system.field(x0[todo]), stationary)
        todo = todo[cells[todo] == _UNLABELLED]
    if todo.size:  # step the undecided starts until the rule decides them
        finals, decided = _terminal_states(
            system.field, x0[todo], t_max, dt,
            lambda x, f: _monotone_labels(x, f, stationary) != _UNLABELLED,
        )
        labels = _monotone_labels(finals, system.field(finals), stationary)
        cells[todo] = np.where(decided, labels, -1)
    return _basin_grid(system, resolution, stationary, cells, len(todo))
