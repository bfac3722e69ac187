"""Stationary states, stability classification, and theorem condition checks.

A state is stationary when every revising agent reproduces the incumbent
mix: w(p) = p for one population, p_i = w_i(p_j) for two.  Interior
states are classified by the slope (product) of the response functions at
the fixed point, pure states by truncated-expectation products that equal
those slopes at the corners.  The checkers evaluate the paper-level
sufficient conditions (instability of homogeneous mixing, stabilization
by sample-size mixtures, global convergence to miscoordination) as
numeric reports rather than proofs.

Arity: a single response function drives the one-population dynamics
dp/dt = w(p) - p and a ``ResponsePair`` the two-population dynamics.  An
``Environment`` drives whichever the state asks for (a share or a pair);
with no state to go by, a symmetric environment is one population and
any other two.  ``System.of`` is the one place that applies this rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    Environment,
    ResponsePair,
    SampleSizeDistribution,
    truncated_expectation,
)
from .games import CoordinationGame

GRID_POINTS = 10_001
BISECT_WIDTH = 1e-12
RESIDUAL_TOL = 1e-10
MARGINAL_BAND = 1e-9
_DEDUPE_TOL = 1e-8
_CONTINUUM_TOL = 1e-12
ALPHA_STEP = 0.01  # the mixture search's default and finest alpha step


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
    for two; at pure states it coincides with the truncated-expectation
    product of the corner linearization.
    """

    state: float | tuple[float, float]
    stability: Stability
    slope_product: float
    eigenvalues: tuple[float, ...]
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
        return max(self.eigenvalues)

    def is_interior(self, eps: float = 1e-9) -> bool:
        coords = self.state if self.is_pair else (self.state,)
        return all(eps < c < 1.0 - eps for c in coords)


@dataclass(frozen=True)
class StationaryAnalysis:
    """Stationary states of one environment, or a continuum sentinel."""

    states: tuple[StationaryState, ...]
    continuum: bool = False
    note: str = ""

    def stable(self) -> tuple[StationaryState, ...]:
        return tuple(s for s in self.states if s.stability == Stability.STABLE)

    def interior(self, eps: float = 1e-9) -> tuple[StationaryState, ...]:
        return tuple(s for s in self.states if s.is_interior(eps))

    def stable_interior(self, eps: float = 1e-9) -> tuple[StationaryState, ...]:
        return tuple(s for s in self.interior(eps) if s.stability == Stability.STABLE)


@dataclass(frozen=True)
class TheoremReport:
    """Named condition values plus a holds/fails/boundary verdict."""

    theorem: str
    conditions: dict[str, float]
    verdict: Verdict
    parts: dict[str, Verdict] = field(default_factory=dict)
    note: str = ""


def classify_slope(slope_product: float) -> Stability:
    """Slope-product stability rule with a marginal band around 1."""
    if slope_product < 1.0 - MARGINAL_BAND:
        return Stability.STABLE
    if slope_product > 1.0 + MARGINAL_BAND:
        return Stability.UNSTABLE
    return Stability.MARGINAL


def _bisect_root(g: Callable[[float], float], lo: float, hi: float, glo: float) -> float:
    """Root of g in [lo, hi], bracketed by the sign of ``glo`` (the scan's
    value at lo), which g at hi does not share.

    ``g`` may be any callable, whose array and float values need not
    agree to the last bit, so the bracket keeps the scan's signs and an
    endpoint where the float g is exactly zero is the root.
    """
    for end in (lo, hi):
        if g(end) == 0.0:
            return end
    for _ in range(200):
        if hi - lo <= BISECT_WIDTH:
            break
        mid = 0.5 * (lo + hi)
        gmid = g(mid)
        if gmid == 0.0:
            return mid
        if (glo < 0.0) == (gmid < 0.0):
            lo, glo = mid, gmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _golden_min_abs(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Golden-section minimizer of |g| for tangency refinement."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = abs(g(c)), abs(g(d))
    for _ in range(120):
        if b - a <= BISECT_WIDTH:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = abs(g(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = abs(g(d))
    return 0.5 * (a + b)


def scan_fixed_points(g: Callable) -> list[float]:
    """All roots of g on [0, 1] by sign-change scan plus bisection.

    ``g`` must accept numpy arrays.  Grid points where |g| dips below the
    marginal band without a sign change are treated as tangency candidates
    and refined by golden section on |g|; they are kept only when the
    refined residual is below the stationary-state tolerance.
    """
    xs = np.linspace(0.0, 1.0, GRID_POINTS)
    gs = np.asarray(g(xs), dtype=float)
    if not np.all(np.isfinite(gs)):
        raise ArithmeticError("non-finite values while scanning for fixed points")
    if np.max(np.abs(gs)) < _CONTINUUM_TOL:
        raise ContinuumError("every state is a fixed point")

    roots: list[float] = []

    def push(x: float) -> None:
        for r in roots:
            if abs(r - x) <= _DEDUPE_TOL:
                return
        roots.append(x)

    if abs(gs[0]) < RESIDUAL_TOL:
        push(0.0)
    if abs(gs[-1]) < RESIDUAL_TOL:
        push(1.0)

    signs = np.sign(gs)
    for i in np.flatnonzero(signs[:-1] * signs[1:] < 0):
        push(_bisect_root(lambda x: float(g(x)), xs[i], xs[i + 1], gs[i]))
    for i in np.flatnonzero(signs == 0.0):
        push(float(xs[i]))

    # tangency sweep: near-zero grid values not already next to a root
    near = np.flatnonzero(np.abs(gs) < MARGINAL_BAND)
    for i in near:
        x = float(xs[i])
        if any(abs(x - r) <= 2.0 / (GRID_POINTS - 1) for r in roots):
            continue
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, GRID_POINTS - 1)]
        cand = _golden_min_abs(lambda t: float(g(t)), lo, hi)
        if abs(float(g(cand))) < RESIDUAL_TOL:
            push(cand)

    return sorted(roots)


class ContinuumError(ValueError):
    """The dynamics fix every state: raised by the scan, which the search
    turns into a continuum sentinel, and by basin estimation."""


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


class System:
    """The responses of one- or two-population dynamics, with their
    batched vector field, scalar right-hand side and stationary states."""

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

    @property
    def pair(self) -> ResponsePair:
        return ResponsePair(*self.responses)

    def field(self, x: np.ndarray) -> np.ndarray:
        """Vector field on an (n, dim) array of states."""
        if self.dim == 1:
            return self.responses[0](x) - x
        w1, w2 = self.responses
        out = np.empty_like(x)
        out[:, 0] = w1(x[:, 1]) - x[:, 0]
        out[:, 1] = w2(x[:, 0]) - x[:, 1]
        return out

    def scalar_rhs(self):
        """Python-float field on a tuple state, responses bound once; the
        state is clamped first, as the batched step projects its stages."""
        if self.dim == 1:
            (w,) = self.responses

            def rhs(state):
                p = _clamp01(state[0])
                return (w(p) - p,)

            return rhs
        w1, w2 = self.responses

        def rhs(state):
            p1, p2 = _clamp01(state[0]), _clamp01(state[1])
            return (w1(p2) - p1, w2(p1) - p2)

        return rhs

    def stationary(self) -> StationaryAnalysis:
        if self.dim == 1:
            return find_stationary_one_pop(self.responses[0])
        return find_stationary_two_pop(self.pair)


class _Identity:
    """The response w(p) = p: one population's dynamics compose w with it."""

    def __call__(self, p):
        return p

    def derivative(self, p) -> float:
        return 1.0


def _state(point, slope_product: float, residual: float) -> StationaryState:
    """A stationary state at a share (one population) or a pair (two),
    classified by its slope product."""
    if isinstance(point, tuple):
        root = math.sqrt(max(slope_product, 0.0))
        eigenvalues = (-1.0 + root, -1.0 - root)
    else:
        eigenvalues = (slope_product - 1.0,)
    return StationaryState(
        state=point,
        stability=classify_slope(slope_product),
        slope_product=slope_product,
        eigenvalues=eigenvalues,
        residual=residual,
    )


def _stationary_search(system: System, note: str) -> StationaryAnalysis:
    """Roots p1 of w1(w2(p1)) = p1 with p2 = w2(p1), where one population
    has w2 = id, so p2 = p1 and the slope product w1'(p2) * w2'(p1) is w'(p).

    Both responses increase, so the composition has no 2-cycles and each
    root is a rest point.  When the scan finds every state fixed the
    result is a continuum sentinel with ``note``.
    """
    w1, w2 = system.responses if system.dim == 2 else (system.responses[0], _Identity())
    try:
        roots = scan_fixed_points(lambda p: w1(w2(p)) - p)
    except ContinuumError:
        return StationaryAnalysis(states=(), continuum=True, note=note)
    states = []
    for p1 in roots:
        p1 = float(p1)
        p2 = float(w2(p1))
        slope = float(w1.derivative(p2)) * float(w2.derivative(p1))
        point = (p1, p2) if system.dim == 2 else p1
        states.append(_state(point, slope, abs(float(w1(p2)) - p1)))
    return StationaryAnalysis(states=tuple(states))


def find_stationary_one_pop(env) -> StationaryAnalysis:
    """All stationary states of the one-population dynamics dp/dt = w(p) - p;
    a continuum sentinel when every state is stationary (every agent
    samples a single action)."""
    return _stationary_search(System.of(env, 1), "every state is stationary")


def find_stationary_two_pop(env) -> StationaryAnalysis:
    """All stationary states of the two-population dynamics; pure and
    interior states alike are classified by the slope product w1'(p2) * w2'(p1)."""
    return _stationary_search(System.of(env, 2), "a state is stationary iff it is symmetric")


@dataclass(frozen=True)
class PureStateClassification:
    """Stability of the two pure equilibria from corner linearization."""

    state_a: StationaryState  # everyone plays the first action
    state_b: StationaryState  # everyone plays the second action


def classify_pure_states(env: Environment, one_population: bool = False) -> PureStateClassification:
    """Classify both pure states by truncated-expectation products.

    The corner Jacobian of the two-population dynamics has eigenvalues
    -1 +/- sqrt(prod) where prod multiplies, across populations, the
    truncated expectation of agents whose best reply flips after a single
    contrary observation: strictly below 1/u_i + 1 at the first-action
    corner, weakly below u_i + 1 at the second.
    """
    g = env.game
    a1 = truncated_expectation(env.theta1, 1.0 / g.u1 + 1.0, "strict")
    a2 = truncated_expectation(env.theta2, 1.0 / g.u2 + 1.0, "strict")
    b1 = truncated_expectation(env.theta1, g.u1 + 1.0, "weak")
    b2 = truncated_expectation(env.theta2, g.u2 + 1.0, "weak")

    if one_population:
        if not env.is_symmetric:
            raise ValueError("one-population classification needs a symmetric environment")
        return PureStateClassification(
            state_a=_state(1.0, a1, 0.0), state_b=_state(0.0, b1, 0.0)
        )
    return PureStateClassification(
        state_a=_state((1.0, 1.0), a1 * a2, 0.0), state_b=_state((0.0, 0.0), b1 * b2, 0.0)
    )


def _band_verdict(conditions: Sequence[tuple[float, bool]]) -> Verdict:
    """HOLDS iff all (value > 1) match the wanted direction, BOUNDARY near 1.

    Each entry is (value, want_greater).  Any value within the marginal
    band of the threshold makes the verdict boundary.
    """
    if any(abs(v - 1.0) <= MARGINAL_BAND for v, _ in conditions):
        return Verdict.BOUNDARY
    ok = all((v > 1.0) == want for v, want in conditions)
    return Verdict.HOLDS if ok else Verdict.FAILS


def check_theorem4(env: Environment) -> TheoremReport:
    """Global-miscoordination and local-coordination conditions.

    Part 1 (both strict products above 1) asserts that no interior start
    converges to a pure state; part 2 (some weak product below 1) asserts
    that at least one pure equilibrium is asymptotically stable.
    """
    g = env.game
    if g.u1 < 1.0 - 1e-12:
        raise ValueError("requires the canonical representation u1 >= 1")
    t1_1 = env.theta1.mass(1)
    t2_1 = env.theta2.mass(1)
    p1a = t1_1 * truncated_expectation(env.theta2, 1.0 / g.u2 + 1.0, "strict")
    p1b = t2_1 * truncated_expectation(env.theta1, g.u1 + 1.0, "strict")
    p2a = t1_1 * truncated_expectation(env.theta2, 1.0 / g.u2 + 1.0, "weak")
    p2b = t2_1 * truncated_expectation(env.theta1, g.u1 + 1.0, "weak")

    part1 = _band_verdict([(p1a, True), (p1b, True)])
    if any(abs(v - 1.0) <= MARGINAL_BAND for v in (p2a, p2b)):
        part2 = Verdict.BOUNDARY
    else:
        part2 = Verdict.HOLDS if (p2a < 1.0 or p2b < 1.0) else Verdict.FAILS
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


def check_homogeneous_uniqueness(env: Environment) -> TheoremReport:
    """At most one interior stationary state under homogeneous sampling.

    Requires every agent in each population to share one sample size
    strictly above 1; the report records the interior count and whether
    any interior state was classified stable.
    """
    k1 = env.theta1.degenerate_k
    k2 = env.theta2.degenerate_k
    if k1 is None or k2 is None:
        raise ValueError("requires homogeneous sample size distributions")
    if k1 < 2 or k2 < 2:
        raise ValueError("requires sample sizes larger than 1")
    analysis = System.of(env).stationary()
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
    """Outcome of the sample-size mixture search for a stable interior state."""

    found: bool
    alpha: tuple[float, float] | None
    state: StationaryState | None
    in_scope: bool
    note: str = ""


def _alpha_grid(step: float) -> list[float]:
    n = int(round(1.0 / step))
    return [i * step for i in range(1, n)]


def stable_interior_search(
    game: CoordinationGame,
    thetas: tuple[SampleSizeDistribution, SampleSizeDistribution],
    big_k: int = 1000,
    alpha_step: float = ALPHA_STEP,
) -> StableInteriorSearch:
    """Scan mixture shares that keep mass alpha_i on the base distribution
    and move the rest to sample size big_k, looking for a stable interior
    state.

    The sufficient-condition hypothesis (1 < max support < u_i + 1 for
    each population) is only a flag: the search runs either way.  Alpha
    pairs are generated one at a time, diagonal first, then lexicographically.
    """
    theta1, theta2 = thetas
    if big_k <= max(theta1.max_support, theta2.max_support):
        raise ValueError("big_k must exceed the base supports")
    in_scope = (
        1 < theta1.max_support < game.u1 + 1.0
        and 1 < theta2.max_support < game.u2 + 1.0
    )
    note = "" if in_scope else "outside theorem scope"
    grid = _alpha_grid(alpha_step)
    pairs = itertools.chain(
        ((a, a) for a in grid), ((a1, a2) for a1 in grid for a2 in grid if a1 != a2)
    )
    for a1, a2 in pairs:
        env = Environment(
            game, theta1.mix_with(a1, big_k), theta2.mix_with(a2, big_k)
        )
        analysis = find_stationary_two_pop(env)
        hits = analysis.stable_interior()
        if hits:
            return StableInteriorSearch(
                found=True, alpha=(a1, a2), state=hits[0], in_scope=in_scope, note=note
            )
    return StableInteriorSearch(
        found=False, alpha=None, state=None, in_scope=in_scope, note=note
    )


def check_theorem3(
    game: CoordinationGame,
    thetas: tuple[SampleSizeDistribution, SampleSizeDistribution],
    big_k: int = 1000,
) -> TheoremReport:
    """Half-and-half mixture test for high-miscoordination stable states.

    For games where the players prefer opposite outcomes (u2 < 1 < u1),
    moving half of each population to sample size big_k should create an
    asymptotically stable interior state with miscoordination of at least
    one half and p2 < 1/2 < p1.  The verdict records whether that holds at
    the given payoffs; the underlying claim is only asserted for u1 and
    1/u2 large.
    """
    if not (game.u2 < 1.0 < game.u1):
        raise ValueError("requires u2 < 1 < u1 (different preferred outcomes)")
    theta1, theta2 = thetas
    env = Environment(
        game, theta1.mix_with(0.5, big_k), theta2.mix_with(0.5, big_k)
    )
    analysis = find_stationary_two_pop(env)
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
        if abs(best_misc - 0.5) <= MARGINAL_BAND:
            verdict = Verdict.BOUNDARY
        elif best_misc > 0.5 and p2 < 0.5 < p1:
            verdict = Verdict.HOLDS
    return TheoremReport(theorem="theorem-3", conditions=conditions, verdict=verdict)


def payoff_efficiency(response, u: float) -> float:
    """Average payoff of response-following agents against a uniform opponent
    share, relative to exact payoff maximizers.

    Both averages are brute-force integrals over the opponent share on a
    uniform grid of 100,001 points (composite Simpson).
    """
    from scipy.integrate import simpson

    ps = np.linspace(0.0, 1.0, 100_001)
    wp = np.asarray(response(ps), dtype=float)
    realized = wp * ps * u + (1.0 - wp) * (1.0 - ps)
    best = np.maximum(ps * u, 1.0 - ps)
    return float(simpson(realized, x=ps) / simpson(best, x=ps))
