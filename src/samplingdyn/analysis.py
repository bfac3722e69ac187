"""Stationary states, stability classification, and theorem condition checks.

A state is stationary when every revising agent reproduces the incumbent
mix: w(p) = p for one population, p_i = w_i(p_j) for two.  Interior
states are classified by the slope (product) of the response functions at
the fixed point, pure states by the products of the responses' own corner
slopes: each response reads the agents that one contrary observation
flips off its own thresholds, tie rule included, times its observation
map's slope at the corner (``corner_slopes``).  ``classify_slope`` makes
every such call, and every verdict, against the marginal band.  The
checkers evaluate the paper-level sufficient conditions (instability of
homogeneous mixing, stabilization by sample-size mixtures, global
convergence to miscoordination) as numeric reports rather than proofs.
Every check takes a ``System``, or anything ``System.of`` resolves, and
reads payoffs, sample sizes and tie rule off its responses; each
response builds its own mixtures (``mix_with``), so every mixture keeps
its tie rule.

Roots come from one grid scan over a block of rows, which splits the
grid level by level and drops the cells that a monotone enclosure shows
hold no root: ``scan_fixed_points`` is its one-row case, and the one
mixture search scans blocks of shares (one population) or of pairs of
shares (two), which share their response tails within each level.

Arity: a ``System`` of one response function drives the one-population
dynamics dp/dt = w(p) - p, and a ``System`` of two the two-population
dynamics.  ``System.of`` is the one place that builds a ``System`` from
anything else: a single response is one population, a ``ResponsePair``
two, and an ``Environment`` whichever the state asks for (a share or a
pair); with no state to go by, a symmetric environment is one population
and any other two.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .dynamics import (
    Environment,
    ResponsePair,
    _int_power,
    _tail,
    truncated_expectation,
)

GRID_POINTS = 10_001
BISECT_WIDTH = 1e-12
RESIDUAL_TOL = 1e-10
CONVERGENCE_TOL = 1e-10  # a run has converged where |field| is below it in each component
MATCH_TOL = 1e-6  # largest residual of a stationary state, and sup distance to one
MARGINAL_BAND = 1e-9
_CONTINUUM_TOL = 1e-12
_TWO_POP_CONTINUUM = "a state is stationary iff it is symmetric"
ALPHA_STEP = 0.01  # the mixture searches' default and finest alpha step
SCAN_BLOCK = 1 << 18  # most grid values of a mixture-search block: pairs * GRID_POINTS


class Stability(str, Enum):
    STABLE = "asymptotically-stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


class Verdict(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class StationaryState:
    """A rest point of the dynamics with its stability diagnostics.

    ``slope_product`` is w'(p*) for one population and w1'(p2)*w2'(p1)
    for two; at pure states it coincides with the corner product of
    ``classify_pure_states``.
    """

    state: float | tuple[float, float]
    stability: Stability
    slope_product: float
    residual: float

    @property
    def is_pair(self) -> bool:
        return isinstance(self.state, tuple)

    @property
    def p1(self) -> float:
        return self.state[0] if self.is_pair else self.state

    @property
    def p2(self) -> float | None:
        return self.state[1] if self.is_pair else None

    @property
    def leading_eigenvalue(self) -> float:
        """The larger Jacobian eigenvalue: w' - 1 in one population,
        -1 + sqrt(w1' w2') in two (-1 when the product is negative)."""
        if self.is_pair:
            return -1.0 + math.sqrt(max(self.slope_product, 0.0))
        return self.slope_product - 1.0

    def is_interior(self) -> bool:
        coords = self.state if self.is_pair else (self.state,)
        return all(1e-9 < c < 1.0 - 1e-9 for c in coords)


@dataclass(frozen=True)
class StationaryAnalysis:
    """Stationary states of one environment, or a continuum sentinel."""

    states: tuple[StationaryState, ...]
    continuum: bool = False
    note: str = ""

    def interior(self) -> tuple[StationaryState, ...]:
        return tuple(s for s in self.states if s.is_interior())

    def stable_interior(self) -> tuple[StationaryState, ...]:
        return tuple(s for s in self.interior() if s.stability == Stability.STABLE)


@dataclass(frozen=True)
class TheoremReport:
    """Named condition values plus a holds/fails/boundary verdict."""

    theorem: str
    conditions: dict[str, float]
    verdict: Verdict
    parts: dict[str, Verdict] = field(default_factory=dict)


def classify_slope(weak: float, strict: float | None = None, bound: float = 1.0) -> Stability:
    """The one marginal-band rule of every stability call and verdict: stable
    when ``weak`` lies below ``bound`` by more than ``MARGINAL_BAND``, unstable
    when ``strict`` (else ``weak``) lies above it by more, otherwise marginal.
    Proposition 5's calls pair weak and strict truncated-expectation products."""
    if weak < bound - MARGINAL_BAND:
        return Stability.STABLE
    if (weak if strict is None else strict) > bound + MARGINAL_BAND:
        return Stability.UNSTABLE
    return Stability.MARGINAL


def _bisect_root(g: Callable, lo: float, hi: float, glo: float, ghi: float) -> float:
    """Root of g in [lo, hi], where the caller has g's values ``glo`` at lo
    and ``ghi`` at hi, of strict opposite signs.

    The ends are not evaluated again: the scan's array values are the float
    g's bit for bit, and the stationary search passes a deflated g its limit
    at the zero it divides out, where it cannot be evaluated.
    A trial point where g is exactly zero is the root.  The bracket closes
    to at most ``BISECT_WIDTH`` by the Illinois method (Dowell & Jarratt
    1971): false position, halving the value kept at an end that two steps
    in a row left in place.  Each trial point stays at least
    ``BISECT_WIDTH / 2`` from both ends, so every step closes the bracket by
    that much.  After as many steps as halving would take (slow near a
    multiple root), the rest is halving, so it never takes more than twice
    halving's evaluations, and stops there even when g returns NaN.
    """
    lo, hi, flo, fhi = float(lo), float(hi), glo, ghi
    neg = glo < 0.0
    budget = math.ceil(math.log2(max((hi - lo) / BISECT_WIDTH, 1.0)))
    half = 0.5 * BISECT_WIDTH
    kept = 0  # -1 when the last step moved lo, +1 when it moved hi
    for step in range(2 * budget):
        if hi - lo <= BISECT_WIDTH:
            break
        if step < budget:
            x = lo - flo * (hi - lo) / (fhi - flo)
            x = min(max(x, lo + half), hi - half)
        else:
            x = 0.5 * (lo + hi)
        gx = g(x)
        if gx == 0.0:
            return x
        if (gx < 0.0) == neg:
            lo, flo = x, gx
            if kept < 0:
                fhi *= 0.5
            kept = -1
        else:
            hi, fhi = x, gx
            if kept > 0:
                flo *= 0.5
            kept = 1
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=4)
def _grid_points(points: int) -> np.ndarray:
    """The grid of ``points`` points, read-only, since every scan shares it."""
    xs = np.linspace(0.0, 1.0, points)
    xs.flags.writeable = False
    return xs


def _grid() -> tuple[np.ndarray, tuple[int, int, int]]:
    """The grid, and the steps of the scan's levels: s = isqrt(n), isqrt(s)
    and 1 for a grid of n steps."""
    s = math.isqrt(GRID_POINTS - 1)
    return _grid_points(GRID_POINTS), (s, math.isqrt(s), 1)


def _scan_rows(g_at: Callable, rows: int) -> list[tuple]:
    """``scan_fixed_points`` on ``rows`` functions g_r, ``g_at(r, i, x)`` giving
    g_r at grid points x = xs[i].  A row's scan, for ``_refine``, holds the
    exception it raises, its zeros, and (lo, hi, g(lo), g(hi)) per sign
    change."""
    xs, steps = _grid()
    n = GRID_POINTS - 1
    coarse = np.append(np.arange(0, n, steps[0]), n)
    # the points of each cell in order, ends included; level 0 has one cell
    # [0, n] a row, split at the coarse points
    seg, idx = np.arange(rows).repeat(coarse.size), np.tile(coarse, rows)
    v = np.asarray(g_at(seg, idx, xs[idx]), dtype=float)
    cell_row, seen = np.arange(rows), [(seg, idx, v)]
    for step in steps[1:] + (0,):  # 0: the open cells are single grid steps
        # the open sub-cells: consecutive points of a cell whose enclosure
        # does not lie beyond +-RESIDUAL_TOL
        x = xs[idx]
        width = x[1:] - x[:-1]
        keep = seg[:-1] == seg[1:]
        keep &= ~((v[:-1] - width > RESIDUAL_TOL) | (v[1:] + width < -RESIDUAL_TOL))
        row, a, b = cell_row[seg[:-1][keep]], idx[:-1][keep], idx[1:][keep]
        ga, gb = v[:-1][keep], v[1:][keep]
        if not step:
            break
        # each open cell split at every step-th grid point
        count = (b - a - 1) // step + 2
        last = count.cumsum() - 1
        first = last - count + 1
        seg = np.arange(a.size).repeat(count)
        idx = a[seg] + (np.arange(seg.size) - first[seg]) * step
        idx[last] = b
        inner = np.ones(seg.size, dtype=bool)
        inner[first] = inner[last] = False
        v = np.empty(seg.size)
        v[first], v[last] = ga, gb
        r, i = row[seg[inner]], idx[inner]
        if i.size:
            v[inner] = g_at(r, i, xs[i])
        cell_row = row
        seen.append((r, i, v[inner]))
    # a dropped cell has one strict sign at every grid point in it, ends
    # included, so the rule reads the evaluated points and open cells alone
    er, ei, ev = (np.concatenate(c) for c in zip(*seen))
    ends = (ei == 0) | (ei == n)
    zero = ((ev == 0.0) | (ends & (np.abs(ev) < RESIDUAL_TOL))).nonzero()[0]
    zero = zero[np.lexsort((ei[zero], er[zero]))]
    sa, sb = np.sign(ga), np.sign(gb)
    sa[(a == 0) & (np.abs(ga) < RESIDUAL_TOL)] = 0.0
    sb[(b == n) & (np.abs(gb) < RESIDUAL_TOL)] = 0.0
    flip = (sa * sb < 0.0).nonzero()[0]
    bad = np.zeros(rows, dtype=bool)
    bad[er[~np.isfinite(ev)]] = True
    # values this small open every cell, so a row of them has all its points
    flat = np.ones(rows, dtype=bool)
    flat[er[np.abs(ev) >= _CONTINUUM_TOL]] = False
    scans = [(ArithmeticError("non-finite values while scanning for fixed points") if nonfinite
              else ContinuumError("every state is a fixed point") if fixed else None, [], [])
             for nonfinite, fixed in zip(bad.tolist(), flat.tolist())]
    ok = ~(bad | flat)  # a row that raises reports no roots
    zero = zero[ok[er[zero]]]
    for r, i in zip(er[zero].tolist(), ei[zero].tolist()):
        scans[r][1].append(xs[i])
    flip = flip[ok[row[flip]]]
    for r, i, glo, ghi in zip(*(c[flip].tolist() for c in (row, a, ga, gb))):
        scans[r][2].append((xs[i], xs[i + 1], glo, ghi))
    return scans


def _refine(g: Callable[[float], float], scan: tuple) -> list[float]:
    """The sorted roots of a row of ``_scan_rows``, its brackets refined."""
    error, zeros, brackets = scan
    if error is not None:
        raise error
    return sorted(zeros + [_bisect_root(g, *bracket) for bracket in brackets])


def scan_fixed_points(g: Callable) -> list[float]:
    """All roots of g on [0, 1] found on a grid of ``GRID_POINTS`` points:
    the one-row case of the block scan ``_scan_rows``.

    ``g`` must accept numpy arrays, which the scan passes, and Python
    floats, which the refinement passes, with the same values, and have
    the form g(x) = h(x) - x with h nondecreasing.  A root is either a grid
    point where g is exactly zero (at 0 and 1, where |g| < ``RESIDUAL_TOL``),
    or one root refined by ``_bisect_root`` in each grid cell over which g
    strictly changes sign.
    The rule resolves roots one grid cell apart: two roots within one cell,
    one of them an exact zero, show as one (the stationary search finds the
    other from the sign of g' at the zero), and two roots strictly inside
    one cell, such as a tangency between grid points, do not show.

    g is evaluated level by level (``_grid``): at every s-th grid point
    (s = isqrt(n) for n grid steps, and the last point), then at every
    isqrt(s)-th point of each cell still open, then at every point of each
    smaller cell still open.  On a cell [a, b], h(a) <= h(x) <= h(b) gives
    the enclosure g(a) - (b - a) <= g(x) <= g(b) + (b - a) (Moore 1966).  A
    cell whose enclosure lies above ``RESIDUAL_TOL`` or below
    -``RESIDUAL_TOL`` is dropped at every level: that margin absorbs the
    rounding that makes the computed h less than monotone, so g has the
    enclosure's sign on the whole cell, ends included, and the roots are
    those of g evaluated at every grid point.  The grid step is the
    narrowest cell, so the work stays bounded next to a marginal state,
    where cells that cannot be dropped multiply as they narrow.
    """
    return _refine(g, _scan_rows(lambda r, i, x: g(x), 1)[0])


class NumericError(ArithmeticError):
    """A trajectory produced a non-finite state, or the stationary search a
    state that is not at rest."""


class ContinuumError(ValueError):
    """The dynamics fix every state: raised by the scan, which the search
    turns into a continuum sentinel, and by basin estimation."""


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


class System:
    """The responses of one- or two-population dynamics, with their
    batched vector field, the float RK4 loop that recorded trajectories and
    separatrix traces run, and their stationary states."""

    def __init__(self, responses: tuple) -> None:
        self.responses = responses  # (w,) or (w1, w2)
        self.dim = len(responses)

    @classmethod
    def of(cls, system, dim: int | None = None) -> "System":
        """Resolve an Environment, ResponsePair, single response or System;
        ``dim`` is the size of the state when there is one."""
        if isinstance(system, System):
            out = system
        elif isinstance(system, ResponsePair):
            out = cls((system.w1, system.w2))
        elif isinstance(system, Environment):
            if dim is None:
                dim = 1 if system.is_symmetric else 2
            if dim == 1:
                out = cls((system.single_response(),))
            else:
                out = cls((system.response(1), system.response(2)))
        else:
            out = cls((system,))
        if dim is not None and dim != out.dim:
            name = type(system).__name__
            raise ValueError(f"{name} drives {out.dim}-population dynamics, not {dim}")
        return out

    def field(self, x: np.ndarray) -> np.ndarray:
        """Vector field on an (n, dim) array of states.  The responses
        are called through their checked entry: on arrays the check is a
        small share of a call, and perfbench's tracer counts the batched
        RK4 steps of basin grids from these calls."""
        if self.dim == 1:
            return self.responses[0](x) - x
        w1, w2 = self.responses
        out = np.empty_like(x)
        out[:, 0] = w1(x[:, 1]) - x[:, 0]
        out[:, 1] = w2(x[:, 0]) - x[:, 1]
        return out

    def rk4_path(self, start, dt: float, n_steps: int, _trace: bool = False):
        """At most ``n_steps`` fixed RK4 steps of size dt from ``start`` (a
        share in [0, 1] in one population, a pair of shares in two), on
        Python floats through the responses' float kernels, bound once: the
        one float RK4 loop of each arity.  The stages clamp their states
        into [0, 1], as the batched step projects them; a negative dt runs
        time backward.

        Returns ``(paths, stopped, max_clamp)``, with one list of recorded
        shares per population, the start first.  The run stops early
        (``stopped``) at the first state where every component of the field
        is below ``CONVERGENCE_TOL`` in absolute value; the field is the
        step's first stage, so the last state costs one field call.  A next
        state outside [0, 1] is clamped into it, and ``max_clamp`` is the
        largest move the clamp made; a non-finite one raises
        ``NumericError`` with its step number.

        ``_trace``, for the separatrix traces, which run in two populations,
        keeps the next states unclamped and checks no convergence: the run
        stops early after the first state past the start that lies outside
        the square, and ``max_clamp`` is 0.0.
        """
        half, sixth, max_clamp = 0.5 * dt, dt / 6.0, 0.0
        if self.dim == 1:
            w = self.responses[0]._kernel
            p = start
            path = [p]
            append = path.append
            for n in range(n_steps + 1):
                a = w(p) - p  # the state is in [0, 1], where the clamp does nothing
                if -CONVERGENCE_TOL < a < CONVERGENCE_TOL:
                    return (path,), True, max_clamp
                if n == n_steps:
                    break
                y = p + half * a
                y = 0.0 if y < 0.0 else (1.0 if y > 1.0 else y)
                b = w(y) - y
                y = p + half * b
                y = 0.0 if y < 0.0 else (1.0 if y > 1.0 else y)
                c = w(y) - y
                y = p + dt * c
                y = 0.0 if y < 0.0 else (1.0 if y > 1.0 else y)
                d = w(y) - y
                raw = p + sixth * (a + 2.0 * b + 2.0 * c + d)
                if 0.0 <= raw <= 1.0:
                    p = raw
                else:
                    if not math.isfinite(raw):
                        raise NumericError(f"non-finite state at step {n + 1}")
                    p = 0.0 if raw < 0.0 else 1.0
                    max_clamp = max(max_clamp, abs(p - raw))
                append(p)
            return (path,), False, max_clamp

        w1, w2 = (w._kernel for w in self.responses)
        p1, p2 = start
        path1, path2 = [p1], [p2]
        append1, append2 = path1.append, path2.append
        for n in range(n_steps + 1):
            y1 = 0.0 if p1 < 0.0 else (1.0 if p1 > 1.0 else p1)
            y2 = 0.0 if p2 < 0.0 else (1.0 if p2 > 1.0 else p2)
            a1, a2 = w1(y2) - y1, w2(y1) - y2
            if _trace:
                if n and not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
                    return (path1, path2), True, max_clamp
            elif (-CONVERGENCE_TOL < a1 < CONVERGENCE_TOL
                    and -CONVERGENCE_TOL < a2 < CONVERGENCE_TOL):
                return (path1, path2), True, max_clamp
            if n == n_steps:
                break
            y1, y2 = p1 + half * a1, p2 + half * a2
            y1 = 0.0 if y1 < 0.0 else (1.0 if y1 > 1.0 else y1)
            y2 = 0.0 if y2 < 0.0 else (1.0 if y2 > 1.0 else y2)
            b1, b2 = w1(y2) - y1, w2(y1) - y2
            y1, y2 = p1 + half * b1, p2 + half * b2
            y1 = 0.0 if y1 < 0.0 else (1.0 if y1 > 1.0 else y1)
            y2 = 0.0 if y2 < 0.0 else (1.0 if y2 > 1.0 else y2)
            c1, c2 = w1(y2) - y1, w2(y1) - y2
            y1, y2 = p1 + dt * c1, p2 + dt * c2
            y1 = 0.0 if y1 < 0.0 else (1.0 if y1 > 1.0 else y1)
            y2 = 0.0 if y2 < 0.0 else (1.0 if y2 > 1.0 else y2)
            d1, d2 = w1(y2) - y1, w2(y1) - y2
            raw1 = p1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
            raw2 = p2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
            if _trace or (0.0 <= raw1 <= 1.0 and 0.0 <= raw2 <= 1.0):
                p1, p2 = raw1, raw2
            else:
                if not (math.isfinite(raw1) and math.isfinite(raw2)):
                    raise NumericError(f"non-finite state at step {n + 1}")
                p1 = 0.0 if raw1 < 0.0 else (1.0 if raw1 > 1.0 else raw1)
                p2 = 0.0 if raw2 < 0.0 else (1.0 if raw2 > 1.0 else raw2)
                max_clamp = max(max_clamp, abs(p1 - raw1), abs(p2 - raw2))
            append1(p1)
            append2(p2)
        return (path1, path2), False, max_clamp

    def stationary(self) -> StationaryAnalysis:
        if self.dim == 1:
            return find_stationary_one_pop(self)
        return find_stationary_two_pop(self)


class _Identity:
    """The response w(p) = p: one population's dynamics compose w with it."""

    def __call__(self, p):
        return p

    _kernel = __call__

    def derivative(self, p) -> float:
        return 1.0


def _state(point, slope_product: float, residual: float) -> StationaryState:
    """A stationary state at a share (one population) or a pair (two),
    classified by its slope product."""
    return StationaryState(
        state=point,
        stability=classify_slope(slope_product),
        slope_product=slope_product,
        residual=residual,
    )


def _stationary_search(system: System, scan: tuple | None = None) -> StationaryAnalysis:
    """Roots p1 of w1(w2(p1)) = p1 with p2 = w2(p1), where one population
    has w2 = id, so p2 = p1 and the slope product w1'(p2) * w2'(p1) is w'(p).

    Both responses increase, so the composition has no 2-cycles and each
    root is a rest point.  When the scan finds every state fixed the
    result is a continuum sentinel with its arity's note.  The scan's g
    evaluates a Python float through the responses' float kernels, clamping
    w2(p) as the checked call does, and an array through the checked
    calls; a row ``scan`` of ``_scan_rows`` on this g can stand in for it.

    The scan cannot see a root in a cell next to its own zero r on the
    grid.  Where the state at r is not marginal, g has the sign of
    g'(r) = slope product - 1 just beyond r; a grid neighbour where g has
    the other sign brackets a root, which ``_bisect_root`` refines on the
    deflated h(x) = g(x) / (x - r), from h(r) = g'(r) without evaluating h
    at r.

    A bisected root within BISECT_WIDTH of a rest point has residual
    |w1(p2) - p1| at most about |slope product| * BISECT_WIDTH; a state
    whose residual exceeds ``MATCH_TOL`` plus that is no rest point (a
    response too steep for floats), and raises ``NumericError``.
    """
    w1, w2 = system.responses if system.dim == 2 else (system.responses[0], _Identity())
    e1, e2 = w1._kernel, w2._kernel

    def g(p):
        if type(p) is float:
            return e1(_clamp01(e2(p))) - p
        return w1(w2(p)) - p

    try:
        roots = scan_fixed_points(g) if scan is None else _refine(g, scan)
    except ContinuumError:
        note = _TWO_POP_CONTINUUM if system.dim == 2 else "every state is stationary"
        return StationaryAnalysis(states=(), continuum=True, note=note)

    def state_at(p1: float) -> StationaryState:
        p1 = float(p1)
        p2 = float(w2(p1))
        if p1 in (0.0, 1.0) and abs(p2 - p1) <= RESIDUAL_TOL:
            p2 = p1  # the pure state: masses summing one rounding off 1 move w2(p1)
        slope = float(w1.derivative(p2)) * float(w2.derivative(p1))
        point = (p1, p2) if system.dim == 2 else p1
        residual = abs(float(w1(p2)) - p1)
        if not residual <= MATCH_TOL + abs(slope) * BISECT_WIDTH:
            raise NumericError(f"state {point} has residual {residual:.3g} at slope {slope:.3g}")
        return _state(point, slope, residual)

    states = [state_at(p1) for p1 in roots]
    xs, n = _grid()[0], GRID_POINTS - 1
    beside = []
    for s in states:
        # the scan's zeros are its roots on the grid: a refined root lies
        # strictly inside its cell
        i, r, slope = round(s.p1 * n), s.p1, s.slope_product - 1.0
        if xs[i] != r or s.stability == Stability.MARGINAL:
            continue

        def h(x, r=r):  # g deflated by its zero r, so h(r) = g'(r) = slope
            return g(x) / (x - r)

        for j in (i - 1, i + 1):
            if 0 <= j <= n:
                edge = float(xs[j])
                hedge = h(edge)
                if slope * hedge < 0.0:
                    beside.append(_bisect_root(h, edge, r, hedge, slope) if j < i
                                  else _bisect_root(h, r, edge, slope, hedge))
    if beside:
        states = sorted(states + [state_at(p1) for p1 in beside], key=lambda s: s.p1)
    return StationaryAnalysis(states=tuple(states))


def find_stationary_one_pop(env) -> StationaryAnalysis:
    """All stationary states of the one-population dynamics dp/dt = w(p) - p;
    a continuum sentinel when every state is stationary (every agent
    samples a single action)."""
    return _stationary_search(System.of(env, 1))


def find_stationary_two_pop(env) -> StationaryAnalysis:
    """All stationary states of the two-population dynamics; pure and
    interior states alike are classified by the slope product w1'(p2) * w2'(p1)."""
    return _stationary_search(System.of(env, 2))


@dataclass(frozen=True)
class PureStateClassification:
    """Stability of the two pure equilibria from corner linearization."""

    state_a: StationaryState  # everyone plays the first action
    state_b: StationaryState  # everyone plays the second action


def classify_pure_states(system) -> PureStateClassification:
    """Classify both pure states of ``System.of(system)`` by their corner products.

    The corner Jacobian of the two-population dynamics has eigenvalues
    -1 +/- sqrt(prod) where prod multiplies the responses' slopes at the
    corner: the expected sample size of the agents whose best reply flips
    after a single contrary observation (those whose threshold is the whole
    sample at the first-action corner and one observation at the second),
    times the observation map's slope there.  Each response's
    ``corner_slopes`` reads that set off its own thresholds, so its tie
    rule decides the sizes on a tie, and the products are the slope
    products of the stationary search at the corners: Proposition 4 for a
    sampling system, Propositions 7 and 8 for a ``MinEffortResponse``.
    """
    system = System.of(system)
    b, a = (math.prod(m) for m in zip(*(w.corner_slopes() for w in system.responses)))
    one = system.dim == 1
    return PureStateClassification(state_a=_state(1.0 if one else (1.0, 1.0), a, 0.0),
                                   state_b=_state(0.0 if one else (0.0, 0.0), b, 0.0))


def check_theorem4(system) -> TheoremReport:
    """Global-miscoordination and local-coordination conditions of the two
    populations of ``System.of(system, 2)``.

    Part 1 (both strict products above 1) asserts that no interior start
    converges to a pure state; part 2 (some weak product below 1) asserts
    that at least one pure equilibrium is asymptotically stable.
    """
    w1, w2 = System.of(system, 2).responses
    if w1.u < 1.0 - 1e-12:
        raise ValueError("requires the canonical representation u1 >= 1")
    t1_1, t2_1 = w1.theta.mass(1), w2.theta.mass(1)
    p1a = t1_1 * truncated_expectation(w2.theta, 1.0 / w2.u + 1.0, "strict")
    p1b = t2_1 * truncated_expectation(w1.theta, w1.u + 1.0, "strict")
    p2a = t1_1 * truncated_expectation(w2.theta, 1.0 / w2.u + 1.0, "weak")
    p2b = t2_1 * truncated_expectation(w1.theta, w1.u + 1.0, "weak")

    calls1 = {classify_slope(p1a), classify_slope(p1b)}
    calls2 = {classify_slope(p2a), classify_slope(p2b)}
    part1 = (Verdict.BOUNDARY if Stability.MARGINAL in calls1
             else Verdict.HOLDS if calls1 == {Stability.UNSTABLE} else Verdict.FAILS)
    part2 = (Verdict.BOUNDARY if Stability.MARGINAL in calls2
             else Verdict.HOLDS if Stability.STABLE in calls2 else Verdict.FAILS)
    return TheoremReport(
        theorem="theorem-4",
        conditions={
            "part1_product_a": p1a,
            "part1_product_b": p1b,
            "part2_product_a": p2a,
            "part2_product_b": p2b,
        },
        verdict=part1,
        parts={"part1": part1, "part2": part2},
    )


def check_homogeneous_uniqueness(system) -> TheoremReport:
    """At most one interior stationary state of ``System.of(system)`` under
    homogeneous sampling (Theorem 1 for one population, 1' for two).

    Requires every agent in each population to share one sample size
    strictly above 1; the report records the interior count and whether
    any interior state was classified stable.
    """
    system = System.of(system)
    ks = [w.theta.degenerate_k for w in system.responses]
    if None in ks:
        raise ValueError("requires homogeneous sample size distributions")
    if min(ks) < 2:
        raise ValueError("requires sample sizes larger than 1")
    analysis = system.stationary()
    interior = analysis.interior()
    any_stable = any(s.stability == Stability.STABLE for s in interior)
    verdict = Verdict.HOLDS if (len(interior) <= 1 and not any_stable) else Verdict.FAILS
    return TheoremReport(
        theorem="homogeneous-uniqueness",
        conditions={
            "interior_count": float(len(interior)),
            "any_interior_stable": float(any_stable),
        },
        verdict=verdict,
    )


def miscoordination_probability(state: tuple[float, float]) -> float:
    """Probability a matched pair plays different actions: p1(1-p2) + p2(1-p1)."""
    p1, p2 = state
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
        raise ValueError(f"state must lie in the unit square, got {state!r}")
    return p1 * (1.0 - p2) + p2 * (1.0 - p1)


@dataclass(frozen=True)
class StableInteriorSearch:
    """Outcome of a sample-size mixture search for a stable interior state;
    ``alpha`` is a pair of shares in two populations, one share in one."""

    found: bool
    alpha: tuple[float, float] | float | None
    state: StationaryState | None
    in_scope: bool


def _alpha_grid(step: float) -> list[float]:
    """Every share i * step <= 1 - 1e-9 with i >= 1, whether or not step
    divides 1; the step of both mixture searches, which must lie in
    [``ALPHA_STEP``, 1)."""
    if not ALPHA_STEP <= step < 1.0:
        raise ValueError(f"alpha step must lie in [{ALPHA_STEP}, 1), got {step!r}")
    return [i * step for i in range(1, int(1.0 / step) + 1) if i * step <= 1.0 - 1e-9]


def _mixture_field(w1s: list, w2s: list | None = None) -> Callable:
    """``g_at`` of ``_scan_rows`` for a block of rows: g(x) = w1s[i](x) - x for
    a share (i,), g(x) = w1s[i](w2s[j](x)) - x for a pair (i, j).  Within a
    call, one level of the scan, each tail of w2 or of a lone w1 is taken
    once per grid point, and of w1 after w2 once per (j, point), w1's at its
    observed chance.  Masses add tails in ``_tail_mixture``'s order, so each
    row equals its checked one-row scan bit for bit."""
    xs, n = _grid()[0], w1s[0]._exponent
    atoms1, masses1 = w1s[0]._atoms, np.array([[a[1] for a in w._atoms] for w in w1s]).T
    if w2s is not None:
        atoms2, masses2 = w2s[0]._atoms, np.array([[a[1] for a in w._atoms] for w in w2s]).T

    def field(block: list) -> Callable:
        alpha1, alpha2 = np.array(block).T[[0, -1]]

        def g_at(r, i, x):
            points, at = np.unique(i, return_inverse=True)
            q = xs[points]
            if w2s is not None:
                j = alpha2[r]
                keys, at_key = np.unique(j * GRID_POINTS + i, return_inverse=True)
                one = np.empty(keys.size, dtype=int)  # an element of each key
                one[at_key] = np.arange(i.size)
                y = 0.0
                for mass, (k, _, m) in zip(masses2, atoms2):
                    y = y + mass[j[one]] * _tail(k, m, q)[at[one]]
                q, at = np.clip(y, 0.0, 1.0), at_key
            if n is not None:
                q = 1.0 - _int_power(1.0 - q, n)
            out = 0.0
            for mass, (k, _, m) in zip(masses1, atoms1):
                out = out + mass[alpha1[r]] * _tail(k, m, q)[at]
            return out - x

        return g_at

    return field


def _first_stable_interior(base, big_k, step, in_scope) -> StableInteriorSearch:
    """The first row with a stable interior state, each response of ``base``
    mixed by ``mix_with`` at the shares of ``_alpha_grid(step)``: shares
    for one response, else pairs, the diagonal first, then
    lexicographically.  Blocks of rows within ``SCAN_BLOCK`` share one scan
    (``_mixture_field``) and are resolved row by row."""
    if big_k <= max(w.theta.max_support for w in base):
        raise ValueError("big_k must exceed the base supports")
    grid = _alpha_grid(step)
    ws, shares = [[w.mix_with(a, big_k) for a in grid] for w in base], range(len(grid))
    rows = [(i,) * len(ws) for i in shares]
    rows += [(i, j) for i in shares for j in shares if i != j] if len(ws) == 2 else []
    field, size = _mixture_field(*ws), max(1, SCAN_BLOCK // GRID_POINTS)
    for done in range(0, len(rows), size):
        block = rows[done:done + size]
        for row, scan in zip(block, _scan_rows(field(block), len(block))):
            system = System(tuple(w[i] for w, i in zip(ws, row)))
            hits = _stationary_search(system, scan).stable_interior()
            if hits:
                alpha = tuple(grid[i] for i in row) if len(ws) == 2 else grid[row[0]]
                return StableInteriorSearch(True, alpha, hits[0], in_scope)
    return StableInteriorSearch(False, None, None, in_scope)


def stable_interior_search(system, big_k: int = 1000,
                           alpha_step: float = ALPHA_STEP) -> StableInteriorSearch:
    """Scan mixture shares that keep mass alpha_i on each base distribution
    of ``System.of(system)`` and move the rest to sample size big_k,
    looking for a stable interior state: shares alpha of one population,
    pairs (alpha1, alpha2) of two.

    The sufficient-condition hypothesis (1 < max support < u_i + 1 for
    each population) is only a flag: the search runs either way.  The
    first hit in ``_first_stable_interior``'s order is the result.  A big_k
    inside a support, or a step outside [``ALPHA_STEP``, 1), raises
    ``ValueError``.
    """
    responses = System.of(system).responses
    in_scope = all(1 < w.theta.max_support < w.u + 1.0 for w in responses)
    return _first_stable_interior(responses, big_k, alpha_step, in_scope)


def check_theorem3(system, big_k: int = 1000) -> TheoremReport:
    """Half-and-half mixture test for high-miscoordination stable states.

    For games where the players prefer opposite outcomes (u2 < 1 < u1),
    moving half of each population to sample size big_k should create an
    asymptotically stable interior state with miscoordination of at least
    one half and p2 < 1/2 < p1.  The verdict records whether that holds at
    the given payoffs of ``System.of(system, 2)``; the underlying claim is
    only asserted for u1 and 1/u2 large.
    """
    w1, w2 = System.of(system, 2).responses
    if not (w2.u < 1.0 < w1.u):
        raise ValueError("requires u2 < 1 < u1 (different preferred outcomes)")
    analysis = System((w1.mix_with(0.5, big_k), w2.mix_with(0.5, big_k))).stationary()
    best_misc = math.nan
    verdict = Verdict.FAILS
    best_state = None
    for s in analysis.stable_interior():
        misc = miscoordination_probability(s.state)
        if best_state is None or misc > best_misc:
            best_state, best_misc = s, misc
    conditions: dict[str, float] = {"stable_interior_count": float(len(analysis.stable_interior()))}
    if best_state is not None:
        p1, p2 = best_state.state
        conditions.update({"p1": p1, "p2": p2, "miscoordination": best_misc})
        side = classify_slope(best_misc, bound=0.5)  # unstable: above one half
        if side == Stability.MARGINAL:
            verdict = Verdict.BOUNDARY
        elif side == Stability.UNSTABLE and p2 < 0.5 < p1:
            verdict = Verdict.HOLDS
    return TheoremReport(theorem="theorem-3", conditions=conditions, verdict=verdict)

