"""Multi-action contracting games and N-player minimum-effort games.

Contracting games put positive payoffs on the diagonal and zero off it;
sampling agents best-reply to multinomial samples of opponent actions.
Minimum-effort games have two effort levels and two observation
structures: agents either see the minimum effort of a random past round
or the action of a random opponent.  Both reuse the two-action
machinery.  A minimum-effort agent best-replies as a sampling agent with
low effort first, at the payoff and tie rule ``MinEffortGame`` states:
``sampling_threshold`` gives its thresholds, and its response is their
tail mixture at the chance that one observation reads low.  So
``analysis`` classifies its pure states by the response's own corner
slopes (Propositions 7 and 8), as it classifies a sampling response's,
and its mixture search is the one-population search of ``analysis``.
Truncated expectations decide the contracting pure states of generic
games, with the stability rule of ``analysis``; the exact contracting
reply sums the replies to every multinomial sample.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from scipy import special

from .analysis import (
    ALPHA_STEP,
    Stability,
    StableInteriorSearch,
    _first_stable_interior,
    classify_slope,
)
from .dynamics import (
    SampleSizeDistribution,
    TieBreak,
    _TailMixture,
    sampling_threshold,
    truncated_expectation,
)
from .flow import _rk4_step, _step_count

_PAYOFF_TIE_TOL = 1e-12
ENUMERATION_LIMIT = 10**6  # samples a reply table may enumerate


class ContractTieRule(str, Enum):
    """Tie rule among equally good actions against a sample."""

    LOWEST = "lowest"
    HIGHEST = "highest"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class ContractingGame:
    """M-action coordination game with positive diagonal payoffs.

    ``diag1[m]`` (``diag2[m]``) is player 1's (2's) payoff when both pick
    action m; any mismatch pays zero.  Only the stability analysis needs
    genericity (no two diagonal cells with the same payoff profile, see
    ``is_generic``); the replies and the field take tied games too.
    """

    diag1: tuple[float, ...]
    diag2: tuple[float, ...]

    def __post_init__(self) -> None:
        d1 = tuple(float(x) for x in self.diag1)
        d2 = tuple(float(x) for x in self.diag2)
        object.__setattr__(self, "diag1", d1)
        object.__setattr__(self, "diag2", d2)
        if len(d1) != len(d2):
            raise ValueError("payoff vectors must have equal length")
        if len(d1) < 2:
            raise ValueError("need at least two actions")
        if not all(0.0 < x < math.inf for x in d1 + d2):
            raise ValueError(f"diagonal payoffs must be finite and positive, got {d1}, {d2}")
        # the pure-state conditions cut sample sizes at ubar / u + 1
        if not all(math.isfinite(max(d) / min(d)) for d in (d1, d2)):
            raise ValueError(f"diagonal payoff ratios must be finite, got {d1}, {d2}")

    def is_generic(self) -> bool:
        return not any(
            abs(self.diag1[m] - self.diag1[n]) <= _PAYOFF_TIE_TOL
            and abs(self.diag2[m] - self.diag2[n]) <= _PAYOFF_TIE_TOL
            for m, n in itertools.combinations(range(self.M), 2)
        )

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


def _replies(payoffs: np.ndarray, rule: ContractTieRule) -> np.ndarray:
    """Reply weights per row of sample payoffs.  The ties are the actions within
    ``_PAYOFF_TIE_TOL * max(1, |best|)`` of the row's best; ``LOWEST`` and
    ``HIGHEST`` give the lowest or highest tie weight 1, ``UNIFORM`` each tie 1/|ties|."""
    best = payoffs.max(axis=1, keepdims=True)
    ties = payoffs >= best - _PAYOFF_TIE_TOL * np.maximum(1.0, np.abs(best))
    if rule == ContractTieRule.UNIFORM:
        return ties / ties.sum(axis=1, keepdims=True)
    if rule == ContractTieRule.HIGHEST:
        return _replies(payoffs[:, ::-1], ContractTieRule.LOWEST)[:, ::-1]
    return (np.arange(ties.shape[1]) == ties.argmax(axis=1)[:, None]).astype(float)


def _simplex_points(p, shape: tuple[int, ...]) -> np.ndarray:
    """``p`` as an array of the given shape whose rows lie on the simplex within 1e-10."""
    p = np.asarray(p, dtype=float)
    if p.shape != shape:
        raise ValueError(f"a state must have shape {shape}, got {p.shape}")
    if not (np.all(p >= -1e-10) and np.all(np.abs(p.sum(axis=-1) - 1.0) <= 1e-10)):
        raise ValueError(f"a state must lie on the simplex, got {p.tolist()}")
    return p


def _samples(k: int, M: int) -> np.ndarray:
    """Count rows of every size-k sample over M actions (stars and bars)."""
    bars = itertools.chain.from_iterable(itertools.combinations(range(k + M - 1), M - 1))
    bars = np.fromiter(bars, dtype=np.int64).reshape(math.comb(k + M - 1, M - 1), M - 1)
    return np.diff(bars, axis=1, prepend=-1, append=k + M - 1) - 1


class _ReplyMap:
    """One player's exact reply distribution as a function of the opponent state.

    The table holds one row per sample of each size in theta's support
    (``_samples``): its counts, its log weight (log mass plus log
    multinomial coefficient) and its replies (``_replies``).  An evaluation
    is ``exp(logw + counts @ log p) @ replies``.  Past ``ENUMERATION_LIMIT``
    samples it raises ``ValueError``; calls do not check the state.
    """

    def __init__(self, g, player, theta, rule):
        n_samples = sum(math.comb(k + g.M - 1, g.M - 1) for k in theta.support)
        if n_samples > ENUMERATION_LIMIT:
            raise ValueError(f"{n_samples} samples exceed ENUMERATION_LIMIT")
        tables = [_samples(k, g.M) for k in theta.support]
        counts = np.concatenate(tables)
        log_mass = np.repeat([math.log(m) for _, m in theta.atoms], [len(t) for t in tables])
        log_coef = special.gammaln(counts.sum(axis=1) + 1.0)
        self.logw = log_mass + log_coef - special.gammaln(counts + 1.0).sum(axis=1)
        self.replies = _replies(counts * np.asarray(g.diag(player)), ContractTieRule(rule))
        self.counts = counts.astype(float)

    def __call__(self, p: np.ndarray) -> np.ndarray:
        p = np.maximum(p, 0.0)
        p = p / p.sum()
        # a zero share's log is -1e300, so a row that samples it weighs exactly 0
        log_p = np.log(p, out=np.full(len(p), -1e300), where=p > 0.0)
        return np.exp(self.logw + self.counts @ log_p) @ self.replies


def contracting_response_vector(
    g: ContractingGame,
    player: int,
    theta: SampleSizeDistribution,
    p_opponent: Sequence[float],
    rule: ContractTieRule = ContractTieRule.LOWEST,
) -> np.ndarray:
    """Chances of each best reply (entry m: reply m) to multinomial samples of
    ``p_opponent`` with sizes from ``theta``; ties follow ``rule`` (``UNIFORM`` splits evenly)."""
    p = _simplex_points(p_opponent, (g.M,))
    return _ReplyMap(g, player, theta, rule)(p)


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
    1 (``classify_slope`` on the larger products); anything else is boundary
    when some product is marginal and otherwise undetermined at this level.
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
        call = classify_slope(max(w1, w2), max(s1, s2))
        if call == Stability.UNSTABLE:
            label = "unstable"
        elif call == Stability.STABLE and pareto:
            label = "asymptotically-stable"
        elif any(classify_slope(v) == Stability.MARGINAL for v in (s1, s2, w1, w2)):
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


def integrate_contracting(
    g: ContractingGame,
    theta1: SampleSizeDistribution,
    theta2: SampleSizeDistribution,
    initial: tuple[Sequence[float], Sequence[float]],
    t_max: float = 50.0,
    dt: float = 0.01,
    rule: ContractTieRule = ContractTieRule.LOWEST,
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 on the simplex pair, each population moving toward its reply
    distribution to the other's state; states renormalized after each step."""
    x = _simplex_points(initial, (2, g.M)).ravel()
    n_steps = _step_count(t_max, dt)
    reply1, reply2 = _ReplyMap(g, 1, theta1, rule), _ReplyMap(g, 2, theta2, rule)

    def field(y: np.ndarray) -> np.ndarray:
        p1, p2 = y[: g.M], y[g.M :]
        return np.concatenate([reply1(p2) - p1, reply2(p1) - p2])

    def renorm(y: np.ndarray) -> np.ndarray:
        y = np.clip(y, 0.0, 1.0).reshape(2, g.M)
        return (y / y.sum(axis=1, keepdims=True)).ravel()

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
    playing low.  An agent's reply is the two-action best reply with low
    effort first, at the effective payoff ``u`` and tie rule ``tie_break``.
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

    @property
    def u(self) -> float:
        """c/(1 - c) under minimum-effort observation (low wins on
        x >= k(1 - c)); c'/(1 - c') with c' = c^(1/(N-1)) under action
        observation, infinite where c' rounds to 1 (low wins on any low
        observation)."""
        c = self.cost
        if self.observation == Observation.OPPONENT_ACTION:
            c = c ** (1.0 / (self.n_players - 1))
        return c / (1.0 - c) if c < 1.0 else math.inf

    @property
    def tie_break(self) -> TieBreak:
        """Ties go to low effort under minimum-effort observation, which
        keeps small samples on the one-observation rule, else to high."""
        low = self.observation == Observation.MINIMUM_EFFORT
        return TieBreak.FAVOR_A if low else TieBreak.FAVOR_B


class MinEffortResponse(_TailMixture):
    """Share of revising agents adopting low effort as a function of the
    current low-effort share.

    Under minimum-effort observation each sampled round shows the minimum
    effort of its N players (the model text's convention), so a round
    reads low with probability q = 1 - (1-p)^N, and for sample sizes below
    1/(1-c) the response reduces to 1 - (1-p)^(kN).  Under action
    observation the sample is binomial in p directly.  Either way the
    response is the sampling response's tail mixture at the observed
    probability q, with observation exponent N or none and the thresholds
    ``sampling_threshold`` gives at the game's ``u`` and ``tie_break``.
    At exponent N the corner slopes are w'(0) = N times the efficient sum
    and w'(1) = 0: the efficient state is stable iff that sum is below
    1/N, and the safe state always is (Proposition 7).
    """

    def __init__(self, game: MinEffortGame, theta: SampleSizeDistribution) -> None:
        self.game = game
        u, rule = game.u, game.tie_break
        n = game.n_players if game.observation == Observation.MINIMUM_EFFORT else None
        super().__init__(theta, [sampling_threshold(k, u, rule) for k in theta.support], n)

    # perfbench's tracer wraps these three names in each response class's own namespace
    __call__, derivative, inverse = (
        _TailMixture.__call__, _TailMixture.derivative, _TailMixture.inverse)

    def mix_with(self, alpha: float, big_k: int) -> "MinEffortResponse":
        """This response on ``theta.mix_with(alpha, big_k)``."""
        return MinEffortResponse(self.game, self.theta.mix_with(alpha, big_k))


def mineffort_stable_interior(
    g: MinEffortGame,
    k: int,
    big_k: int = 1000,
    alpha_step: float = ALPHA_STEP,
) -> StableInteriorSearch:
    """Mixture search for a stable interior low-effort share.

    The one-population search of ``stable_interior_search`` (big_k <= k, or
    a step outside [``ALPHA_STEP``, 1), raises ``ValueError``) on the
    response to sample size k: the first alpha, a float, with a stable
    interior state.  The proposition hypothesis, k < u + 1 at the game's
    effective payoff u (k < 1/(1-c) for minimum-effort observation) and
    also 1 < k under action observation, is only a flag.
    """
    in_scope = k < g.u + 1.0 and (g.observation == Observation.MINIMUM_EFFORT or 1 < k)
    base = (MinEffortResponse(g, SampleSizeDistribution.point(k)),)
    return _first_stable_interior(base, big_k, alpha_step, in_scope)
