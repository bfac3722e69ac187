"""Multi-action contracting games and N-player minimum-effort games.

Contracting games put positive payoffs on the diagonal and zero off it;
sampling agents best-reply to multinomial samples of opponent actions.
Minimum-effort games have two effort levels and two observation
structures: agents either see the minimum effort of a random past round
or the action of a random opponent.  Both extensions reuse the
two-action machinery through per-size thresholds and truncated
expectations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .analysis import (
    MARGINAL_BAND,
    Stability,
    StationaryAnalysis,
    _alpha_grid,
    find_stationary_one_pop,
)
from .dynamics import (
    SampleSizeDistribution,
    _as_prob_array,
    binomial_tail,
    binomial_tail_derivative,
    snap_to_integer,
    truncated_expectation,
)
from .flow import _rk4_step, _step_count

_PAYOFF_TIE_TOL = 1e-12
ENUMERATION_LIMIT = 10**6
MC_DRAWS = 10**6


class ContractTieRule(str, Enum):
    """Tie rule among equally good actions against a sample."""

    LOWEST = "lowest"
    HIGHEST = "highest"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class ContractingGame:
    """M-action coordination game with positive diagonal payoffs.

    ``diag1[m]`` (``diag2[m]``) is player 1's (2's) payoff when both pick
    action m; any mismatch pays zero.  Genericity (no two diagonal cells
    with the same payoff profile) is required by the stability analysis;
    pass ``require_generic=False`` to study tied games where only the
    response machinery is needed.
    """

    diag1: tuple[float, ...]
    diag2: tuple[float, ...]
    require_generic: bool = True

    def __post_init__(self) -> None:
        d1 = tuple(float(x) for x in self.diag1)
        d2 = tuple(float(x) for x in self.diag2)
        object.__setattr__(self, "diag1", d1)
        object.__setattr__(self, "diag2", d2)
        if len(d1) != len(d2):
            raise ValueError("payoff vectors must have equal length")
        if len(d1) < 2:
            raise ValueError("need at least two actions")
        if any(x <= 0.0 for x in d1 + d2):
            raise ValueError("diagonal payoffs must be positive")
        if self.require_generic and not self.is_generic():
            raise ValueError("two equilibria share a payoff profile (set "
                             "require_generic=False to allow ties)")

    def is_generic(self) -> bool:
        for m in range(self.M):
            for n in range(m + 1, self.M):
                if (
                    abs(self.diag1[m] - self.diag1[n]) <= _PAYOFF_TIE_TOL
                    and abs(self.diag2[m] - self.diag2[n]) <= _PAYOFF_TIE_TOL
                ):
                    return False
        return True

    @property
    def M(self) -> int:
        return len(self.diag1)

    def diag(self, player: int) -> tuple[float, ...]:
        if player == 1:
            return self.diag1
        if player == 2:
            return self.diag2
        raise ValueError(f"player must be 1 or 2, got {player!r}")

    def ubar(self, player: int) -> float:
        return max(self.diag(player))

    def pareto_efficient(self, m: int) -> bool:
        """Whenever another equilibrium pays player 1 more, it pays player 2 less."""
        for n in range(self.M):
            if n == m:
                continue
            if self.diag1[m] < self.diag1[n] and not self.diag2[m] > self.diag2[n]:
                return False
            if self.diag2[m] < self.diag2[n] and not self.diag1[m] > self.diag1[n]:
                return False
        return True


def _argmax_set(payoffs: Sequence[float]) -> tuple[int, ...]:
    best = max(payoffs)
    tol = _PAYOFF_TIE_TOL * max(1.0, abs(best))
    return tuple(i for i, v in enumerate(payoffs) if v >= best - tol)


def contracting_best_response(
    g: ContractingGame,
    player: int,
    counts: Sequence[int],
    rule: ContractTieRule = ContractTieRule.LOWEST,
    rng: np.random.Generator | None = None,
) -> int:
    """Best reply (0-based action index) to a sample with the given
    per-action counts.

    Payoff of action m against the sample is diag[m] * counts[m]; ties go
    to the lowest index by default, or are drawn by ``rng`` under the
    uniform rule.
    """
    counts = tuple(int(c) for c in counts)
    if len(counts) != g.M:
        raise ValueError(f"expected {g.M} counts, got {len(counts)}")
    if any(c < 0 for c in counts) or sum(counts) < 1:
        raise ValueError("sample must contain at least one observation")
    payoffs = [u * c for u, c in zip(g.diag(player), counts)]
    ties = _argmax_set(payoffs)
    rule = ContractTieRule(rule)
    if len(ties) == 1 or rule == ContractTieRule.LOWEST:
        return ties[0]
    if rule == ContractTieRule.HIGHEST:
        return ties[-1]
    if rng is None:
        raise ValueError("uniform tie-breaking needs an rng")
    return int(rng.choice(ties))


def _compositions(k: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative integer vectors of length ``parts`` summing to k."""
    if parts == 1:
        yield (k,)
        return
    for head in range(k + 1):
        for rest in _compositions(k - head, parts - 1):
            yield (head,) + rest


def _log_multinomial(k: int, counts: tuple[int, ...]) -> float:
    out = math.lgamma(k + 1)
    for c in counts:
        out -= math.lgamma(c + 1)
    return out


@dataclass(frozen=True)
class ContractingResponse:
    """Expected reply distribution; ``standard_error`` set on Monte Carlo runs."""

    probabilities: np.ndarray
    standard_error: np.ndarray | None
    exact: bool


def contracting_response_vector(
    g: ContractingGame,
    player: int,
    theta: SampleSizeDistribution,
    p_opponent: Sequence[float],
    rule: ContractTieRule = ContractTieRule.LOWEST,
    seed: int = 0,
    enumeration_limit: int = ENUMERATION_LIMIT,
    mc_draws: int = MC_DRAWS,
) -> ContractingResponse:
    """Distribution of best replies over sampled opponent play.

    Exact expectation enumerates every multinomial sample when the total
    composition count across the support stays within
    ``enumeration_limit``; beyond that, a seeded Monte Carlo run with
    ``mc_draws`` draws reports its standard error.
    """
    p = np.asarray(p_opponent, dtype=float)
    if p.shape != (g.M,):
        raise ValueError(f"opponent state must have {g.M} components")
    if np.any(p < -1e-10) or abs(float(p.sum()) - 1.0) > 1e-10:
        raise ValueError("opponent state must lie on the simplex")
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    rule = ContractTieRule(rule)

    n_terms = sum(math.comb(k + g.M - 1, g.M - 1) for k in theta.support)
    if n_terms <= enumeration_limit:
        out = np.zeros(g.M)
        logs = np.log(np.where(p > 0.0, p, 1.0))
        for k, mass in theta.atoms:
            for counts in _compositions(k, g.M):
                if any(c > 0 and p[i] == 0.0 for i, c in enumerate(counts)):
                    continue
                logprob = _log_multinomial(k, counts) + sum(
                    c * logs[i] for i, c in enumerate(counts) if c
                )
                prob = mass * math.exp(logprob)
                payoffs = [u * c for u, c in zip(g.diag(player), counts)]
                ties = _argmax_set(payoffs)
                if rule == ContractTieRule.LOWEST:
                    out[ties[0]] += prob
                elif rule == ContractTieRule.HIGHEST:
                    out[ties[-1]] += prob
                else:
                    for t in ties:
                        out[t] += prob / len(ties)
        return ContractingResponse(out, None, exact=True)

    rng = np.random.default_rng(seed)
    ks = rng.choice(
        theta.support, size=mc_draws, p=[m for _, m in theta.atoms]
    )
    hits = np.zeros(g.M)
    for k in np.unique(ks):
        n_k = int(np.sum(ks == k))
        samples = rng.multinomial(int(k), p, size=n_k)
        payoffs = samples * np.asarray(g.diag(player))
        for row in payoffs:
            ties = _argmax_set(row.tolist())
            if rule == ContractTieRule.LOWEST:
                hits[ties[0]] += 1.0
            elif rule == ContractTieRule.HIGHEST:
                hits[ties[-1]] += 1.0
            else:
                hits[int(rng.choice(ties))] += 1.0
    probs = hits / mc_draws
    se = np.sqrt(probs * (1.0 - probs) / mc_draws)
    return ContractingResponse(probs, se, exact=False)


@dataclass(frozen=True)
class ContractingEquilibriumReport:
    """Proposition-level stability call for one diagonal equilibrium."""

    action: int
    pareto_efficient: bool
    part1_products: tuple[float, float]
    part2_products: tuple[float, float]
    label: str  # "unstable" | "asymptotically-stable" | "undetermined" | "boundary"


def contracting_pure_stability(
    g: ContractingGame,
    theta1: SampleSizeDistribution,
    theta2: SampleSizeDistribution,
) -> tuple[ContractingEquilibriumReport, ...]:
    """Classify each diagonal equilibrium by truncated-expectation products.

    An equilibrium is unstable when either strict product (share of
    size-1 agents in one population times the truncated expectation of
    the other, cut at ubar_j/u_j^m + 1) exceeds 1, and asymptotically
    stable when it is Pareto efficient and both weak products stay below
    1; anything else is undetermined at this level.
    """
    if not g.is_generic():
        raise ValueError("stability classification needs a generic payoff profile")
    reports = []
    t1_1 = theta1.mass(1)
    t2_1 = theta2.mass(1)
    for m in range(g.M):
        cut2 = g.ubar(2) / g.diag2[m] + 1.0
        cut1 = g.ubar(1) / g.diag1[m] + 1.0
        s1 = t1_1 * truncated_expectation(theta2, cut2, "strict")
        s2 = t2_1 * truncated_expectation(theta1, cut1, "strict")
        w1 = t1_1 * truncated_expectation(theta2, cut2, "weak")
        w2 = t2_1 * truncated_expectation(theta1, cut1, "weak")
        pareto = g.pareto_efficient(m)
        near = any(abs(v - 1.0) <= MARGINAL_BAND for v in (s1, s2, w1, w2))
        if s1 > 1.0 + MARGINAL_BAND or s2 > 1.0 + MARGINAL_BAND:
            label = "unstable"
        elif pareto and w1 < 1.0 - MARGINAL_BAND and w2 < 1.0 - MARGINAL_BAND:
            label = "asymptotically-stable"
        elif near:
            label = "boundary"
        else:
            label = "undetermined"
        reports.append(
            ContractingEquilibriumReport(
                action=m,
                pareto_efficient=pareto,
                part1_products=(s1, s2),
                part2_products=(w1, w2),
                label=label,
            )
        )
    return tuple(reports)


def contracting_field(
    g: ContractingGame,
    theta1: SampleSizeDistribution,
    theta2: SampleSizeDistribution,
    rule: ContractTieRule = ContractTieRule.LOWEST,
):
    """Mean-field vector field on the concatenated simplex pair (2M,)."""

    def field(x: np.ndarray) -> np.ndarray:
        p1, p2 = x[: g.M], x[g.M :]
        r1 = contracting_response_vector(g, 1, theta1, p2, rule).probabilities
        r2 = contracting_response_vector(g, 2, theta2, p1, rule).probabilities
        return np.concatenate([r1 - p1, r2 - p2])

    return field


def integrate_contracting(
    g: ContractingGame,
    theta1: SampleSizeDistribution,
    theta2: SampleSizeDistribution,
    initial: tuple[Sequence[float], Sequence[float]],
    t_max: float = 50.0,
    dt: float = 0.01,
    rule: ContractTieRule = ContractTieRule.LOWEST,
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 on the simplex pair; states renormalized after each step."""
    field = contracting_field(g, theta1, theta2, rule)
    x = np.concatenate([np.asarray(initial[0], float), np.asarray(initial[1], float)])
    if x.shape != (2 * g.M,):
        raise ValueError("initial state must be a pair of M-simplex points")
    n_steps = _step_count(t_max, dt)

    def renorm(y: np.ndarray) -> np.ndarray:
        out = np.clip(y, 0.0, 1.0)
        out[: g.M] /= out[: g.M].sum()
        out[g.M :] /= out[g.M :].sum()
        return out

    times = np.arange(n_steps + 1) * dt
    path = np.empty((n_steps + 1, 2 * g.M))
    path[0] = x
    for i in range(1, n_steps + 1):
        x = _rk4_step(field, x, dt, renorm)
        path[i] = x
    return times, path


class Observation(str, Enum):
    MINIMUM_EFFORT = "minimum-effort"
    OPPONENT_ACTION = "opponent-action"


@dataclass(frozen=True)
class MinEffortGame:
    """N-player two-level minimum-effort game.

    Low effort pays 1 regardless; high effort pays 2 - c when every
    opponent also goes high and 1 - c otherwise.  States track the share
    playing low.
    """

    n_players: int
    cost: float
    observation: Observation = Observation.MINIMUM_EFFORT

    def __post_init__(self) -> None:
        if self.n_players < 2 or self.n_players != int(self.n_players):
            raise ValueError(f"need at least two players, got {self.n_players!r}")
        if not (0.0 < self.cost < 1.0):
            raise ValueError(f"effort cost must lie in (0, 1), got {self.cost!r}")
        object.__setattr__(self, "observation", Observation(self.observation))


def _mineffort_thresholds(g: MinEffortGame, support: Sequence[int]) -> dict[int, int]:
    """Per-size minimal count of low observations that triggers low effort.

    Minimum-effort observation: low wins on x >= k(1-c) (ties to low,
    which keeps small samples on the one-observation rule).  Action
    observation: low wins on x > k(1 - c^(1/(N-1))) (ties to high).
    """
    out = {}
    if g.observation == Observation.MINIMUM_EFFORT:
        cut = 1.0 - g.cost
        for k in support:
            x = snap_to_integer(k * cut)
            out[k] = int(x) if x == int(x) else math.ceil(x)
    else:
        cut = 1.0 - g.cost ** (1.0 / (g.n_players - 1))
        for k in support:
            x = snap_to_integer(k * cut)
            out[k] = int(x) + 1 if x == int(x) else math.ceil(x)
    return out


class MinEffortResponse:
    """Share of revising agents adopting low effort as a function of the
    current low-effort share.

    Under minimum-effort observation each sampled round shows the minimum
    of N-1 opponents (the proof convention; the model text says N), so a
    round reads low with probability q = 1 - (1-p)^(N-1), and for sample
    sizes below 1/(1-c) the response reduces to
    1 - (1-p)^(k(N-1)).  Under action observation the sample is binomial
    in p directly.
    """

    kind = "min-effort"

    def __init__(self, game: MinEffortGame, theta: SampleSizeDistribution) -> None:
        self.game = game
        self.theta = theta
        thresholds = _mineffort_thresholds(game, theta.support)
        self._atoms = tuple((k, w, thresholds[k]) for k, w in theta.atoms)

    def _observable(self, p):
        if self.game.observation == Observation.MINIMUM_EFFORT:
            return 1.0 - (1.0 - p) ** (self.game.n_players - 1)
        return p

    def __call__(self, p):
        arr, scalar = _as_prob_array(p)
        q = self._observable(arr)
        out = np.zeros_like(arr)
        for k, w, m in self._atoms:
            if m > k:
                continue
            if m <= 0:
                out = out + w
                continue
            out = out + w * binomial_tail(k, m, q)
        return float(out) if scalar else out

    def derivative(self, p):
        arr, scalar = _as_prob_array(p)
        q = self._observable(arr)
        if self.game.observation == Observation.MINIMUM_EFFORT:
            n = self.game.n_players - 1
            chain = n * (1.0 - arr) ** (n - 1)
        else:
            chain = np.ones_like(arr)
        out = np.zeros_like(arr)
        for k, w, m in self._atoms:
            if m > k or m <= 0:
                continue
            out = out + w * binomial_tail_derivative(k, m, q) * chain
        return float(out) if scalar else out

    def inverse(self, y):
        from .dynamics import _monotone_inverse

        return _monotone_inverse(self, y, lo_value=float(self(0.0)), hi_value=float(self(1.0)))


def mineffort_response(g: MinEffortGame, theta: SampleSizeDistribution, p):
    """Share of revising agents choosing low effort at low-share p."""
    return MinEffortResponse(g, theta)(p)


@dataclass(frozen=True)
class MinEffortStabilityReport:
    """Pure-state stability labels with their condition values."""

    safe_label: Stability
    efficient_label: Stability
    conditions: dict[str, float]
    note: str


def mineffort_pure_stability(
    g: MinEffortGame, theta: SampleSizeDistribution
) -> MinEffortStabilityReport:
    """Stability of all-low (safe) and all-high (efficient) equilibria.

    Minimum-effort observation: the safe state is always stable; the
    efficient state compares truncated expectations cut at 1/(1-c)
    against 1/N (weak for stability, strict for instability).  Action
    observation classifies both states against 1; the efficient cut is
    1/(1 - c^(1/(N-1))) and the safe cut (1/c)^(1/(N-1)), the latter
    derived from the decision rule rather than the looser stated bound.
    """
    note = (
        "round minimum taken over N-1 opponents (proof convention); "
        "the model text says N"
    )
    if g.observation == Observation.MINIMUM_EFFORT:
        cut = 1.0 / (1.0 - g.cost)
        weak = truncated_expectation(theta, cut, "weak")
        strict = truncated_expectation(theta, cut, "strict")
        bound = 1.0 / g.n_players
        if weak < bound - MARGINAL_BAND:
            eff = Stability.STABLE
        elif strict > bound + MARGINAL_BAND:
            eff = Stability.UNSTABLE
        else:
            eff = Stability.MARGINAL
        return MinEffortStabilityReport(
            safe_label=Stability.STABLE,
            efficient_label=eff,
            conditions={
                "efficient_weak": weak,
                "efficient_strict": strict,
                "bound": bound,
            },
            note=note,
        )

    root = 1.0 / (g.n_players - 1)
    safe_cut = (1.0 / g.cost) ** root
    eff_cut = 1.0 / (1.0 - g.cost**root)
    conditions = {
        "safe_weak": truncated_expectation(theta, safe_cut, "weak"),
        "safe_strict": truncated_expectation(theta, safe_cut, "strict"),
        "efficient_weak": truncated_expectation(theta, eff_cut, "weak"),
        "efficient_strict": truncated_expectation(theta, eff_cut, "strict"),
    }

    def label(weak: float, strict: float) -> Stability:
        if weak < 1.0 - MARGINAL_BAND:
            return Stability.STABLE
        if strict > 1.0 + MARGINAL_BAND:
            return Stability.UNSTABLE
        return Stability.MARGINAL

    return MinEffortStabilityReport(
        safe_label=label(conditions["safe_weak"], conditions["safe_strict"]),
        efficient_label=label(conditions["efficient_weak"], conditions["efficient_strict"]),
        conditions=conditions,
        note=note,
    )


@dataclass(frozen=True)
class MinEffortInteriorSearch:
    found: bool
    alpha: float | None
    p_star: float | None
    state: object | None
    in_scope: bool
    note: str = ""


def mineffort_stable_interior(
    g: MinEffortGame,
    k: int,
    big_k: int = 1000,
    alpha_step: float = 0.01,
) -> MinEffortInteriorSearch:
    """Mixture search for a stable interior low-effort share.

    Scans alpha over a grid, placing mass alpha on sample size k and the
    rest on big_k, and returns the first mixture whose response has an
    interior fixed point with slope below 1.  The proposition hypothesis
    (k < 1/(1-c) for minimum-effort observation, 1 < k < 1/(1-c^(1/(N-1)))
    for action observation) is reported as a flag; the search runs either
    way.
    """
    if big_k <= k:
        raise ValueError("big_k must exceed k")
    if g.observation == Observation.MINIMUM_EFFORT:
        in_scope = k < 1.0 / (1.0 - g.cost)
    else:
        in_scope = 1 < k < 1.0 / (1.0 - g.cost ** (1.0 / (g.n_players - 1)))
    note = "" if in_scope else "outside proposition hypothesis"
    for alpha in _alpha_grid(alpha_step):
        theta = SampleSizeDistribution.of({k: alpha, big_k: 1.0 - alpha})
        response = MinEffortResponse(g, theta)
        analysis: StationaryAnalysis = find_stationary_one_pop(response)
        if analysis.continuum:
            continue
        hits = analysis.stable_interior()
        if hits:
            return MinEffortInteriorSearch(
                found=True,
                alpha=alpha,
                p_star=hits[0].state,
                state=hits[0],
                in_scope=in_scope,
                note=note,
            )
    return MinEffortInteriorSearch(
        found=False, alpha=None, p_star=None, state=None, in_scope=in_scope, note=note
    )
