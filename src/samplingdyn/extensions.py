"""Multi-action contracting games and N-player minimum-effort games.

Contracting games put positive payoffs on the diagonal and zero off it;
sampling agents best-reply to multinomial samples of opponent actions.
Minimum-effort games have two effort levels and two observation
structures: agents either see the minimum effort of a random past round
or the action of a random opponent.  Both extensions reuse the
two-action machinery: per-size thresholds, truncated expectations and
the binomial tails, which close the exact contracting reply over how a
sample splits between the last two actions.
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
    MARGINAL_BAND,
    Stability,
    StationaryAnalysis,
    _alpha_grid,
    find_stationary_one_pop,
)
from .dynamics import (
    SampleSizeDistribution,
    _as_prob_array,
    _int_power,
    _monotone_inverse,
    _slope_mixture,
    _tail_atoms,
    _tail_mixture,
    snap_to_integer,
    truncated_expectation,
)
from .flow import _rk4_step, _step_count

_PAYOFF_TIE_TOL = 1e-12
ENUMERATION_LIMIT = 10**6  # prefixes a reply table may enumerate


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
        if not all(0.0 < x < math.inf for x in d1 + d2):
            raise ValueError(f"diagonal payoffs must be finite and positive, got {d1}, {d2}")
        # the pure-state conditions cut sample sizes at ubar / u + 1
        if not all(math.isfinite(max(d) / min(d)) for d in (d1, d2)):
            raise ValueError(f"diagonal payoff ratios must be finite, got {d1}, {d2}")
        if self.require_generic and not self.is_generic():
            raise ValueError("two equilibria share a payoff profile (set "
                             "require_generic=False to allow ties)")

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


def _tie_margin(best):
    return _PAYOFF_TIE_TOL * np.maximum(1.0, best)


def _replies(payoffs: np.ndarray, rule: ContractTieRule) -> np.ndarray:
    """Reply weights per row of sample payoffs.  The ties are the actions within
    ``_tie_margin`` of the row's best; ``LOWEST`` and ``HIGHEST`` give the lowest
    or highest tie weight 1, ``UNIFORM`` each tie 1/|ties|."""
    best = payoffs.max(axis=1, keepdims=True)
    ties = payoffs >= best - _tie_margin(np.abs(best))
    if rule == ContractTieRule.UNIFORM:
        return ties / ties.sum(axis=1, keepdims=True)
    if rule == ContractTieRule.HIGHEST:
        return _replies(payoffs[:, ::-1], ContractTieRule.LOWEST)[:, ::-1]
    return (np.arange(ties.shape[1]) == ties.argmax(axis=1)[:, None]).astype(float)


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
    payoffs = np.asarray(g.diag(player)) * np.asarray(counts)
    ties = np.flatnonzero(_replies(payoffs[None, :], ContractTieRule(rule))[0])
    if len(ties) == 1:
        return int(ties[0])
    if rng is None:
        raise ValueError("uniform tie-breaking needs an rng")
    return int(rng.choice(ties))


@dataclass(frozen=True)
class ContractingResponse:
    """Exact reply distribution: ``probabilities[m]`` is the chance of replying m."""

    probabilities: np.ndarray


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

    The table lists each prefix of each size in theta's support (counts of
    actions 0..M-3, then the total n of the last two).  As the split a of n
    grows, x = a*d[M-2] rises, y = (n-a)*d[M-1] falls and the prefix
    payoffs v stay put.  A payoff ties when it is at least f(best) =
    best - margin(best), f increasing, so the ties change only where x or y
    crosses f(max v) or f^-1(v_i) = v_i + margin(v_i), or x crosses f(y), or
    y crosses f(x).  Marks at 0, n + 1 and floor - 1 to floor + 2 of each
    crossing, which absorbs rounding, cut the splits into pieces [lo, hi].
    A row per piece holds the prefix counts, log weight (log mass plus log
    multinomial coefficient) and the replies to its first split; with q the
    state with its last two shares merged, an evaluation is
    ``(exp(logw + counts @ log q) * (U(lo) - U(hi + 1))) @ replies`` with
    U(j) = Pr(Bin(n, r) >= j) = I_r(j, n - j + 1), r = p[M-2] / q[-1].
    Past ``ENUMERATION_LIMIT`` prefixes it raises ``ValueError``; calls do
    not check the state.
    """

    def __init__(self, g, player, theta, rule):
        diag, M = np.asarray(g.diag(player)), g.M
        n_prefixes = sum(math.comb(k + M - 2, M - 2) for k in theta.support)
        if n_prefixes > ENUMERATION_LIMIT:
            raise ValueError(f"{n_prefixes} sample prefixes exceed ENUMERATION_LIMIT")
        tables = [_samples(k, M - 1) for k in theta.support]
        prefixes = np.concatenate(tables)
        log_mass = np.repeat([math.log(m) for _, m in theta.atoms], [len(t) for t in tables])
        log_coef = special.gammaln(prefixes.sum(axis=1) + 1.0)
        logw = log_mass + log_coef - special.gammaln(prefixes + 1.0).sum(axis=1)
        d1, d2, n = diag[-2], diag[-1], prefixes[:, -1]
        v = prefixes[:, :-1] * diag[:-2]
        best = v.max(axis=1, initial=0.0)
        levels = np.column_stack([best - _tie_margin(best), v + _tie_margin(v)])
        side = np.multiply.outer(_tie_margin(n * (d1 / (d1 + d2)) * d2), [-1.0, 1.0])
        crossings = [levels / d1, n[:, None] - levels / d2, (n[:, None] * d2 + side) / (d1 + d2)]
        marks = np.floor(np.column_stack(crossings))[:, :, None] + np.arange(-1.0, 3.0)
        ends = np.column_stack([np.zeros(len(n)), n + 1.0])
        marks = np.clip(np.column_stack([ends, marks.reshape(len(n), -1)]), 0.0, ends[:, 1:])
        marks = np.sort(marks, axis=1).astype(np.int64)
        fresh = np.diff(marks, axis=1, prepend=-1) > 0
        row, flat = np.nonzero(fresh)[0], marks[fresh]
        starts = np.flatnonzero(flat <= n[row])
        row, lo, hi = row[starts], flat[starts], flat[starts + 1] - 1
        self.counts, self.logw, n = prefixes[row].astype(float), logw[row], n[row]
        splits = np.column_stack([self.counts[:, :-1], lo, n - lo])
        self.replies = _replies(splits * diag, ContractTieRule(rule))
        # tails = [U(0) = 1, U(n + 1) = 0, U(lo) for lo > 0]; U(hi + 1) is the next U(lo)
        inner = lo > 0
        self._a, self._b = lo[inner].astype(float), (n - lo + 1)[inner].astype(float)
        self._upper = np.where(inner, np.cumsum(inner) + 1, 0)
        self._lower = np.where(hi < n, np.append(self._upper[1:], 1), 1)

    def __call__(self, p: np.ndarray) -> ContractingResponse:
        p = np.maximum(p, 0.0)
        p = p / p.sum()
        q = p[:-1].copy()
        q[-1] += p[-1]
        r = p[-2] / q[-1] if q[-1] > 0.0 else 0.0
        tails = np.concatenate(([1.0, 0.0], special.betainc(self._a, self._b, r)))
        # a zero share's log is -1e300, so a row that samples it weighs exactly 0
        log_q = np.log(q, out=np.full(len(q), -1e300), where=q > 0.0)
        weights = np.exp(self.logw + self.counts @ log_q) * (tails[self._upper] - tails[self._lower])
        return ContractingResponse(weights @ self.replies)


def contracting_response_vector(
    g: ContractingGame,
    player: int,
    theta: SampleSizeDistribution,
    p_opponent: Sequence[float],
    rule: ContractTieRule = ContractTieRule.LOWEST,
) -> ContractingResponse:
    """Exact distribution of best replies to multinomial samples of ``p_opponent``
    with sizes from ``theta``; ties follow ``rule`` (``UNIFORM`` splits evenly)."""
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
    reply1 = _ReplyMap(g, 1, theta1, rule)
    reply2 = _ReplyMap(g, 2, theta2, rule)

    def field(x: np.ndarray) -> np.ndarray:
        p1, p2 = x[: g.M], x[g.M :]
        return np.concatenate([reply1(p2).probabilities - p1, reply2(p1).probabilities - p2])

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
    x = _simplex_points(initial, (2, g.M)).ravel()
    n_steps = _step_count(t_max, dt)
    field = contracting_field(g, theta1, theta2, rule)

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


def _mineffort_thresholds(g: MinEffortGame, support: Sequence[int]) -> list[int]:
    """Per-size minimal count of low observations that triggers low effort.

    Minimum-effort observation: low wins on x >= k(1-c) (ties to low,
    which keeps small samples on the one-observation rule).  Action
    observation: low wins on x > k(1 - c^(1/(N-1))) (ties to high).
    """
    low_ties = g.observation == Observation.MINIMUM_EFFORT
    cut = 1.0 - (g.cost if low_ties else g.cost ** (1.0 / (g.n_players - 1)))
    out = []
    for k in support:
        x = snap_to_integer(k * cut)
        out.append(math.ceil(x) if x != int(x) else int(x) + (0 if low_ties else 1))
    return out


class MinEffortResponse:
    """Share of revising agents adopting low effort as a function of the
    current low-effort share.

    Under minimum-effort observation each sampled round shows the minimum
    of N-1 opponents (the proof convention; the model text says N), so a
    round reads low with probability q = 1 - (1-p)^(N-1), and for sample
    sizes below 1/(1-c) the response reduces to
    1 - (1-p)^(k(N-1)).  Under action observation the sample is binomial
    in p directly.  Either way the response is the sampling response's
    mixture of binomial tails, evaluated at the observed probability q.
    Calling it checks p as the sampling response does; ``_eval`` skips
    the check.
    """

    def __init__(self, game: MinEffortGame, theta: SampleSizeDistribution) -> None:
        self.game = game
        self.theta = theta
        self._atoms = _tail_atoms(theta, _mineffort_thresholds(game, theta.support))

    def _observed(self, p):
        """Chance that one sampled observation reads low at low-share p."""
        if self.game.observation == Observation.MINIMUM_EFFORT:
            return 1.0 - _int_power(1.0 - p, self.game.n_players - 1)
        return p

    def __call__(self, p):
        return self._eval(_as_prob_array(p))

    def _eval(self, p):
        return _tail_mixture(self._atoms, self._observed(p))

    def derivative(self, p):
        p = _as_prob_array(p)
        slope = _slope_mixture(self._atoms, self._observed(p))
        if self.game.observation == Observation.MINIMUM_EFFORT:
            n = self.game.n_players - 1
            slope = slope * (n * _int_power(1.0 - p, n - 1))
        return slope

    def inverse(self, y):
        return _monotone_inverse(self, y, lo_value=self(0.0), hi_value=self(1.0))


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

    def label(weak: float, strict: float, bound: float = 1.0) -> Stability:
        if weak < bound - MARGINAL_BAND:
            return Stability.STABLE
        if strict > bound + MARGINAL_BAND:
            return Stability.UNSTABLE
        return Stability.MARGINAL

    if g.observation == Observation.MINIMUM_EFFORT:
        cut = 1.0 / (1.0 - g.cost)
        weak = truncated_expectation(theta, cut, "weak")
        strict = truncated_expectation(theta, cut, "strict")
        bound = 1.0 / g.n_players
        return MinEffortStabilityReport(
            safe_label=Stability.STABLE,
            efficient_label=label(weak, strict, bound),
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
