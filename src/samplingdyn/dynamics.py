"""Response functions for sampling and logit dynamics.

The sampling response gives the probability that a revising agent plays
the first action when she best-replies to a random sample of opponent
actions: a weighted sum of binomial upper tails, one per sample size.
Every tail, whatever its sample size, is one regularized incomplete beta
function, and a Python float and an array get the same bits from it.
The logit response is a mixture of logistic curves, one per noise group.
Both are strictly increasing on [0, 1], differentiable, and invertible,
which is what the stability analysis relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np
from scipy import special
from scipy.special import cython_special

from .games import CoordinationGame

# Absolute snap applied before integrality-sensitive comparisons, so that
# thresholds like k/(u+1) with u = 1 land on the intended tie branch.
INTEGER_SNAP = 1e-12

_MASS_TOL = 1e-12
_P_TOL = 1e-9
# Largest sample size; scipy's incomplete beta turns NaN near 1e18.
MAX_SAMPLE_SIZE = 10**6


class TieBreak(str, Enum):
    """Best-response tie rule when a sample makes both actions equally good."""

    FAVOR_A = "favor-a"
    FAVOR_B = "favor-b"


def _as_prob_array(p, clip_tol: float = _P_TOL):
    """Validate p in [0, 1] (within clip_tol) and clip it there: a Python
    float for a scalar or 0-d input, otherwise a float ndarray."""
    if isinstance(p, (float, int)) or np.ndim(p) == 0:
        x = float(p)
        # NaN fails the comparison
        if not -clip_tol <= x <= 1.0 + clip_tol:
            raise ValueError(f"probability input must be finite and in [0, 1]: {p!r}")
        # a conditional costs a fraction of the min/max builtins
        return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
    arr = np.asarray(p, dtype=float)
    if arr.size == 0:
        return arr
    mn, mx = arr.min(), arr.max()
    # NaN propagates into min/max and fails these comparisons
    if not (mn >= -clip_tol and mx <= 1.0 + clip_tol):
        raise ValueError(f"probability input must be finite and in [0, 1]: {p!r}")
    if mn < 0.0 or mx > 1.0:
        arr = np.clip(arr, 0.0, 1.0)
    return arr


def _plain(x):
    """A ufunc's value on a float, which numpy returns as a numpy scalar or
    0-d array, as a Python float; arrays pass through."""
    return float(x) if np.ndim(x) == 0 else x


def _int_power(base, k: int):
    """base**k for k >= 0 by binary exponentiation with ``*`` alone, so a
    float and an ndarray get the same IEEE products (numpy's ``**`` on
    arrays rounds differently from the float ``**``)."""
    if k == 0:
        return 0.0 * base + 1.0  # shaped like base
    result = 1.0
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


# scipy's compiled float routines, which its ufuncs of the same names call
# per element: a Python float gets an array's bits without the ufunc's
# dispatch.  Indexing a fused function picks its float signature once.
_betainc = cython_special.betainc["double"]
_xlogy = cython_special.xlogy["double"]
_betaln = cython_special.betaln
_exp2 = cython_special.exp2
_LOG2E = math.log2(math.e)


def _tail(k: int, m: int, p):
    """Unchecked Pr(X >= m) for X ~ Binomial(k, p): the regularized
    incomplete beta I_p(m, k - m + 1).

    Arrays call the ufunc; a Python float calls the same compiled routine
    directly, which skips the ufunc's dispatch and gives the same bits.
    """
    if m == 0:
        return 0.0 * p + 1.0
    if m > k:
        return 0.0 * p
    if type(p) is float:
        return _betainc(m, k - m + 1.0, p)
    return _plain(special.betainc(m, k - m + 1, p))


def _tail_slope(k: int, m: int, p, q):
    """Unchecked derivative in p of the tail, with q = 1 - p:
    p^(m-1) q^(k-m) / B(m, k - m + 1).

    It is taken in exp-log form, because the coefficient m C(k, m)
    overflows a float well below k = 1000; xlogy reads 0 log 0 as 0, so
    the endpoints need no special case.  exp(x) is exp2(x log2(e)), since
    numpy's exp has no compiled float routine to share with arrays; the
    extra rounding is far below the error that q = 1 - p carries.
    """
    if m == 0 or m > k:
        return 0.0 * p
    a, b = m - 1.0, k - m + 0.0  # the compiled calls take floats faster than ints
    log_beta = _betaln(a + 1.0, b + 1.0)
    if type(p) is float:
        return _exp2((_xlogy(a, p) + _xlogy(b, q) - log_beta) * _LOG2E)
    logs = special.xlogy(a, p) + special.xlogy(b, q)
    return _plain(special.exp2((logs - log_beta) * _LOG2E))


def _tail_atoms(theta: SampleSizeDistribution, thresholds: Sequence[int]) -> tuple:
    """(k, mass, m) per sample size of theta, with m the matching threshold."""
    return tuple((k, mass, m) for (k, mass), m in zip(theta.atoms, thresholds))


def _tail_mixture(atoms, p):
    """Unchecked sum of mass * Pr(Bin(k, p) >= m) over the atoms."""
    out = 0.0
    for k, mass, m in atoms:
        out = out + mass * _tail(k, m, p)
    return out


def _slope_mixture(atoms, p):
    """Unchecked derivative in p of ``_tail_mixture``."""
    q = 1.0 - p
    out = 0.0
    for k, mass, m in atoms:
        out = out + mass * _tail_slope(k, m, p, q)
    return out


def _check_tail_args(k: int, m: int) -> tuple[int, int]:
    if k < 1 or k != int(k):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if m < 0 or m > k or m != int(m):
        raise ValueError(f"m must be an integer in [0, {k}], got {m!r}")
    return int(k), int(m)


def binomial_tail(k: int, m: int, p):
    """Upper tail Pr(X >= m) for X ~ Binomial(k, p).

    Parameters
    ----------
    k : int
        Number of trials, k >= 1.
    m : int
        Tail cutoff, 0 <= m <= k.  m = 0 returns 1.
    p : float or ndarray
        Success probability in [0, 1].

    Notes
    -----
    Every k uses the regularized incomplete beta identity
    Pr(X >= m) = I_p(m, k - m + 1) (Abramowitz & Stegun, section 26.5), which
    stays accurate for p near 0 or 1; a float and an array give
    bit-identical values.
    """
    k, m = _check_tail_args(k, m)
    return _tail(k, m, _as_prob_array(p, clip_tol=0.0))


def binomial_tail_derivative(k: int, m: int, p):
    """Derivative in p of the binomial upper tail: m*C(k,m)*p^(m-1)*(1-p)^(k-m)."""
    k, m = _check_tail_args(k, m)
    p = _as_prob_array(p, clip_tol=0.0)
    return _tail_slope(k, m, p, 1.0 - p)


def snap_to_integer(x: float, tol: float = INTEGER_SNAP) -> float:
    """Round x to the nearest integer when within tol of it."""
    r = round(x)
    return float(r) if abs(x - r) <= tol else x


def sampling_threshold(k: int, u: float, rule: TieBreak = TieBreak.FAVOR_A) -> int:
    """Minimal count of first-action observations that makes it a best reply.

    In a sample of size k, the first action is weakly optimal iff the count
    X satisfies X >= k/(u+1).  Under ``favor-a`` ties go to the first
    action; under ``favor-b`` an exact tie (integral k/(u+1)) goes to the
    second action, raising the threshold by one.
    """
    if k < 1 or k != int(k):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u!r}")
    x = snap_to_integer(k / (u + 1.0))
    if x == int(x) and x >= 1.0:
        m = int(x)
        if rule == TieBreak.FAVOR_B:
            m += 1
        return m
    return math.ceil(x)


@dataclass(frozen=True)
class SampleSizeDistribution:
    """Finite-support distribution of sample sizes, stored as (k, mass) atoms."""

    atoms: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("sample size distribution needs at least one atom")
        seen = set()
        total = 0.0
        for k, mass in self.atoms:
            if k < 1 or k != int(k):
                raise ValueError(f"sample sizes must be positive integers, got {k!r}")
            if k > MAX_SAMPLE_SIZE:
                raise ValueError(f"sample sizes must be at most {MAX_SAMPLE_SIZE}, got {k!r}")
            if k in seen:
                raise ValueError(f"duplicate sample size {k}")
            seen.add(k)
            if not (0.0 < mass <= 1.0):
                raise ValueError(f"mass of k={k} must lie in (0, 1], got {mass!r}")
            total += mass
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"masses must sum to 1 within {_MASS_TOL:g}, got {total!r}")
        object.__setattr__(
            self, "atoms", tuple(sorted((int(k), float(w)) for k, w in self.atoms))
        )

    @classmethod
    def of(cls, masses: Mapping[int, float]) -> "SampleSizeDistribution":
        return cls(tuple(masses.items()))

    @classmethod
    def point(cls, k: int) -> "SampleSizeDistribution":
        """Homogeneous distribution: every agent samples exactly k actions."""
        return cls(((k, 1.0),))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.atoms)

    @property
    def max_support(self) -> int:
        return self.atoms[-1][0]

    @property
    def degenerate_k(self) -> int | None:
        """The single sample size of a homogeneous distribution, else None."""
        return self.atoms[0][0] if len(self.atoms) == 1 else None

    def mass(self, k: int) -> float:
        for kk, w in self.atoms:
            if kk == k:
                return w
        return 0.0

    def mean(self) -> float:
        return math.fsum(k * w for k, w in self.atoms)

    def mix_with(self, alpha: float, big_k: int) -> "SampleSizeDistribution":
        """Mixture keeping mass alpha on this distribution and 1-alpha on big_k."""
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
        if big_k in self.support:
            raise ValueError(f"big_k={big_k} already in the support")
        atoms = tuple((k, alpha * w) for k, w in self.atoms) + ((big_k, 1.0 - alpha),)
        return SampleSizeDistribution(atoms)

    def as_dict(self) -> dict[int, float]:
        return dict(self.atoms)


def truncated_expectation(theta: SampleSizeDistribution, m: float, mode: str = "weak") -> float:
    """Expected sample size counting only sizes up to m.

    ``weak`` sums k*theta(k) over k <= m, ``strict`` over k < m.  A bound m
    within 1e-12 of an integer is snapped to it before comparing, so tie
    cases like m = u + 1 with integral u land on the intended side.
    """
    if m <= 0:
        raise ValueError(f"truncation bound must be positive, got {m!r}")
    if mode not in ("weak", "strict"):
        raise ValueError(f"mode must be 'weak' or 'strict', got {mode!r}")
    bound = snap_to_integer(float(m))
    if mode == "weak":
        return math.fsum(k * w for k, w in theta.atoms if k <= bound)
    return math.fsum(k * w for k, w in theta.atoms if k < bound)


class SamplingResponse:
    """Sampling best-response function w(p) for one population.

    ``w(p)`` is the probability that a revising agent with own
    coordination payoff ``u`` and sample size drawn from ``theta`` plays
    the first action when the opposing share playing it is ``p``:
    a theta-weighted sum of binomial tails with per-size thresholds.
    It is a strictly increasing polynomial of degree ``max(support)``
    with w(0) = 0 and w(1) = 1.

    Calling the response checks that p lies in [0, 1] (within 1e-9, then
    clipped); ``_eval`` is the same evaluation without the check, for
    callers whose p is a Python float or float array already in [0, 1].
    """

    def __init__(
        self,
        u: float,
        theta: SampleSizeDistribution,
        tie_break: TieBreak = TieBreak.FAVOR_A,
    ) -> None:
        if u <= 0.0 or not math.isfinite(u):
            raise ValueError(f"u must be a positive finite number, got {u!r}")
        self.u = float(u)
        self.theta = theta
        self.tie_break = TieBreak(tie_break)
        self._atoms = _tail_atoms(
            theta, [sampling_threshold(k, self.u, self.tie_break) for k in theta.support]
        )

    def __repr__(self) -> str:
        return (
            f"SamplingResponse(u={self.u!r}, theta={self.theta.as_dict()!r}, "
            f"tie_break={self.tie_break.value!r})"
        )

    @property
    def degree(self) -> int:
        return self.theta.max_support

    def __call__(self, p):
        return self._eval(_as_prob_array(p))

    def _eval(self, p):
        return _tail_mixture(self._atoms, p)

    def derivative(self, p):
        return _slope_mixture(self._atoms, _as_prob_array(p))

    def inverse(self, y):
        """Preimage of y under w, by bisection; exact at the endpoints."""
        return _monotone_inverse(self, y, lo_value=0.0, hi_value=1.0)

    def polynomial_coefficients(self) -> tuple[Fraction, ...]:
        """Exact power-basis coefficients of w as Fractions.

        Intended for identity checks at desk scale; the coefficients of a
        degree-k tail grow like C(k, k/2), so evaluate them in exact
        arithmetic rather than floats.
        """
        degree = self.degree
        coeffs = [Fraction(0)] * (degree + 1)
        for k, w, m in self._atoms:
            if m > k:
                continue
            wf = Fraction(w)
            for l in range(m, k + 1):
                c_kl = math.comb(k, l)
                for i in range(0, k - l + 1):
                    coeffs[l + i] += wf * c_kl * math.comb(k - l, i) * (-1) ** i
        return tuple(coeffs)


class LogitResponse:
    """Noisy best-response function: mixture of logistic curves.

    Each group (mass mu, noise eta) plays the first action with
    probability 1/(1 + exp(((1-p) - p*u)/eta)), where ``u`` is the
    deciding player's own payoff for coordinating on the first action.
    Unlike the sampling response, w(0) > 0 and w(1) < 1.  Calling it
    checks p as the sampling response does; ``_eval`` skips the check.
    """

    def __init__(self, u: float, groups: Sequence[tuple[float, float]]) -> None:
        if u <= 0.0 or not math.isfinite(u):
            raise ValueError(f"u must be a positive finite number, got {u!r}")
        groups = tuple((float(mu), float(eta)) for mu, eta in groups)
        if not groups:
            raise ValueError("logit response needs at least one noise group")
        for mu, eta in groups:
            # NaN fails these comparisons
            if not 0.0 < eta < math.inf:
                raise ValueError(f"noise level must be positive and finite, got {eta!r}")
            if not 0.0 < mu < math.inf:
                raise ValueError(f"group mass must be positive and finite, got {mu!r}")
        total = math.fsum(mu for mu, _ in groups)
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"group masses must sum to 1, got {total!r}")
        self.u = float(u)
        self.groups = groups

    def __repr__(self) -> str:
        return f"LogitResponse(u={self.u!r}, groups={self.groups!r})"

    def __call__(self, p):
        return self._eval(_as_prob_array(p))

    def _eval(self, p):
        out = 0.0
        for mu, eta in self.groups:
            # payoff difference (first minus second action) is p*u - (1-p)
            out = out + mu * special.expit((p * (1.0 + self.u) - 1.0) / eta)
        return _plain(out)

    def derivative(self, p):
        p = _as_prob_array(p)
        out = 0.0
        for mu, eta in self.groups:
            s = special.expit((p * (1.0 + self.u) - 1.0) / eta)
            out = out + mu * s * (1.0 - s) * (1.0 + self.u) / eta
        return _plain(out)

    def inverse(self, y):
        lo, hi = self(0.0), self(1.0)
        return _monotone_inverse(self, y, lo_value=lo, hi_value=hi)


ResponseFunction = Union[SamplingResponse, LogitResponse]


def _monotone_inverse(f, y, lo_value: float, hi_value: float):
    """Invert a strictly increasing f: [0,1] -> [lo_value, hi_value] by bisection."""
    arr, scalar = np.asarray(y, dtype=float), np.ndim(y) == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < lo_value - 1e-12) or np.any(arr > hi_value + 1e-12):
        raise ValueError(
            f"value outside the response range [{lo_value:g}, {hi_value:g}]"
        )
    lo = np.zeros_like(arr)
    hi = np.ones_like(arr)
    # 80 halvings shrink the bracket below 1e-24, so f(mid) is within
    # machine noise of y for any polynomially bounded slope
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        high = f(mid) >= arr
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    out = 0.5 * (lo + hi)
    out = np.where(arr <= lo_value, 0.0, out)
    out = np.where(arr >= hi_value, 1.0, out)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class Environment:
    """A coordination game together with per-population sample size distributions."""

    game: CoordinationGame
    theta1: SampleSizeDistribution
    theta2: SampleSizeDistribution
    tie_break: TieBreak = TieBreak.FAVOR_A

    @classmethod
    def of(
        cls,
        game: CoordinationGame,
        theta1: SampleSizeDistribution,
        theta2: SampleSizeDistribution | None = None,
        tie_break: TieBreak = TieBreak.FAVOR_A,
    ) -> "Environment":
        return cls(game, theta1, theta2 if theta2 is not None else theta1, tie_break)

    @classmethod
    def symmetric(
        cls,
        u: float,
        theta: SampleSizeDistribution,
        tie_break: TieBreak = TieBreak.FAVOR_A,
    ) -> "Environment":
        """One-population environment: same payoff and sampling for both roles."""
        return cls(CoordinationGame.symmetric(u), theta, theta, tie_break)

    @property
    def is_symmetric(self) -> bool:
        return self.game.is_symmetric and self.theta1 == self.theta2

    def response(self, population: int) -> SamplingResponse:
        if population == 1:
            return SamplingResponse(self.game.u1, self.theta1, self.tie_break)
        if population == 2:
            return SamplingResponse(self.game.u2, self.theta2, self.tie_break)
        raise ValueError(f"population must be 1 or 2, got {population!r}")

    def single_response(self) -> SamplingResponse:
        """The shared response function of a one-population environment."""
        if not self.is_symmetric:
            raise ValueError("one-population analysis needs a symmetric environment")
        return self.response(1)

    def pair(self) -> "ResponsePair":
        return ResponsePair(self.response(1), self.response(2))


@dataclass(frozen=True)
class ResponsePair:
    """Two response functions driving the two-population dynamics
    dp1/dt = w1(p2) - p1, dp2/dt = w2(p1) - p2."""

    w1: ResponseFunction
    w2: ResponseFunction

    @classmethod
    def logit(
        cls,
        game: CoordinationGame,
        groups1: Sequence[tuple[float, float]],
        groups2: Sequence[tuple[float, float]] | None = None,
    ) -> "ResponsePair":
        if groups2 is None:
            groups2 = groups1
        return cls(LogitResponse(game.u1, groups1), LogitResponse(game.u2, groups2))
