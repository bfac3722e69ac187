"""Response functions for sampling and logit dynamics.

The sampling response gives the probability that a revising agent plays
the first action when she best-replies to a random sample of opponent
actions: a weighted sum of binomial upper tails, one per sample size, in
one tail-mixture class that the minimum-effort response shares.  Every
tail is one regularized incomplete beta function, and a Python float and
an array get the same bits from it (a float through a kernel bound once,
on the ufuncs' compiled routines).  The logit response is a mixture of
logistic curves, one per noise group.  All are strictly increasing on
[0, 1], differentiable, and invertible, as the stability analysis needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence, Union

import numpy as np
from scipy import special
from scipy.special import cython_special

from .games import CoordinationGame

# Relative snap before integrality-sensitive comparisons: x within
# INTEGER_SNAP * max(1, |x|) of an integer is that integer, so an exact tie
# k/(u+1) lands on the tie branch at every k up to MAX_SAMPLE_SIZE.
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
_expit = cython_special.expit["double"]
_LOG2E = math.log2(math.e)


def _tail(k: int, m: int, p):
    """Unchecked Pr(X >= m) for X ~ Binomial(k, p) on an array p: the
    regularized incomplete beta I_p(m, k - m + 1), for m >= 1."""
    if m > k:
        return 0.0 * p
    return special.betainc(m, k - m + 1, p)


def _tail_mixture(atoms, p):
    """Unchecked sum of mass * Pr(Bin(k, p) >= m) over the atoms, in order,
    on an array p; ``_tail_kernel`` is the same sum on a Python float."""
    out = 0.0
    for k, mass, m in atoms:
        out = out + mass * _tail(k, m, p)
    return out


def _tail_kernel(atoms):
    """``_tail_mixture`` on a Python float, bound over the terms (mass, m,
    k - m + 1.0) of the atoms, whose thresholds m are at least 1.  An atom
    with m > k adds nothing, as b <= 0 would give NaN."""
    terms = tuple((mass, float(m), k - m + 1.0) for k, mass, m in atoms if m <= k)

    def kernel(p):
        out = 0.0
        for mass, a, b in terms:
            out = out + mass * _betainc(a, b, p)
        return out

    return kernel


def _slope_mixture(atoms, p):
    """Unchecked derivative in p of ``_tail_mixture``: the sum over the
    atoms with m <= k of mass * p^(m-1) q^(k-m) / B(m, k - m + 1),
    q = 1 - p, in exp-log form, because m C(k, m) overflows a float well
    below k = 1000 (xlogy reads 0 log 0 as 0, so the endpoints need no
    special case).  exp(x) is exp2(x log2(e)), as numpy's exp has no
    compiled float routine; the extra rounding is far below the error of
    q = 1 - p.  A float runs scipy's compiled routines, an array the ufuncs
    of the same names, with the same bits; the sum starts at 0.0 * p, so an
    array p gives an array even when every atom is constant."""
    xlogy, exp2 = (_xlogy, _exp2) if type(p) is float else (special.xlogy, special.exp2)
    q, out = 1.0 - p, 0.0 * p
    for k, mass, m in atoms:
        if m <= k:
            a, b = m - 1.0, k - m + 0.0  # the compiled calls take floats faster
            logs = xlogy(a, p) + xlogy(b, q) - _betaln(a + 1.0, b + 1.0)
            out = out + mass * exp2(logs * _LOG2E)
    return out


def binomial_tail(k: int, m: int, p):
    """Upper tail Pr(X >= m) for X ~ Binomial(k, p).

    Parameters
    ----------
    k : int
        Number of trials, k >= 1.
    m : int
        Tail cutoff, 0 <= m <= k.  m = 0 returns 1, which no kernel takes.
    p : float or ndarray
        Success probability in [0, 1].

    Notes
    -----
    Every k uses the regularized incomplete beta identity
    Pr(X >= m) = I_p(m, k - m + 1) (Abramowitz & Stegun, section 26.5), which
    stays accurate for p near 0 or 1; a float and an array give
    bit-identical values.
    """
    if k < 1 or k != int(k):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if m < 0 or m > k or m != int(m):
        raise ValueError(f"m must be an integer in [0, {k}], got {m!r}")
    p, atoms = _as_prob_array(p, clip_tol=0.0), ((int(k), 1.0, int(m)),)
    if m == 0:
        return 0.0 * p + 1.0  # shaped like p
    return _tail_kernel(atoms)(p) if type(p) is float else _tail_mixture(atoms, p)


def snap_to_integer(x: float) -> float:
    """Round x to the nearest integer when within INTEGER_SNAP * max(1, |x|)
    of it: the rounding error of a computed cut scales with its size."""
    r = round(x)
    return float(r) if abs(x - r) <= INTEGER_SNAP * max(1.0, abs(x)) else x


def sampling_threshold(k: int, u: float, rule: TieBreak = TieBreak.FAVOR_A) -> int:
    """Least count of first-action observations in a sample of size k that
    makes the first action a best reply at coordination payoff u: the one
    threshold rule, which the minimum-effort responses share.

    The first action is weakly optimal iff the count X satisfies
    X >= k/(u+1).  An exact tie (k/(u+1) integral after ``snap_to_integer``)
    goes to the first action under ``favor-a`` and to the second under
    ``favor-b``, which raises the threshold by one.  The threshold is at
    least 1, also for u = inf: a sample without the first action never
    makes it a best reply.
    """
    if k < 1 or k != int(k):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not u > 0.0:  # NaN fails the comparison
        raise ValueError(f"u must be positive, got {u!r}")
    x = snap_to_integer(k / (u + 1.0))
    if not x.is_integer():
        return math.ceil(x)
    # a cut of 0 (snapped, or u = inf) is no tie: one observation decides
    return max(int(x) + (1 if rule == TieBreak.FAVOR_B else 0), 1)


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

    ``weak`` sums k*theta(k) over k <= m, ``strict`` over k < m.  The bound
    is snapped as the thresholds are (``snap_to_integer``), so tie cases
    like m = u + 1 with integral u land on the intended side.
    """
    if m <= 0:
        raise ValueError(f"truncation bound must be positive, got {m!r}")
    if mode not in ("weak", "strict"):
        raise ValueError(f"mode must be 'weak' or 'strict', got {mode!r}")
    bound = snap_to_integer(float(m))
    if mode == "weak":
        return math.fsum(k * w for k, w in theta.atoms if k <= bound)
    return math.fsum(k * w for k, w in theta.atoms if k < bound)


class _TailMixture:
    """A mixture of binomial upper tails over the atoms (k, mass, m): a
    sample size, its mass under ``theta`` and the least count that makes
    the first action a best reply at payoff ``u`` under ``tie_break``
    (``sampling_threshold``), at the chance q that one observation shows
    that action: q = p, or q = 1 - (1 - p)^n with an observation exponent
    n (the minimum of n draws).  Sampling and minimum-effort responses are
    its two forms, so the stability calls and the mixture search read
    ``theta``, ``u``, the atoms and the exponent off either.  Calling it
    checks p in [0, 1] (within 1e-9, then clipped); a float goes to
    ``_kernel``, the float form bound once, and an array to
    ``_tail_mixture`` at q.  The slope carries the chain-rule factor
    n (1 - p)^(n-1) when n is set.
    """

    def __init__(self, theta: SampleSizeDistribution, u: float, tie_break: TieBreak,
                 exponent: int | None = None):
        self.theta, self.u, self.tie_break = theta, float(u), TieBreak(tie_break)
        self._atoms = tuple((k, mass, sampling_threshold(k, self.u, self.tie_break))
                            for k, mass in theta.atoms)
        self._exponent = n = exponent
        tail = _tail_kernel(self._atoms)
        self._kernel = tail if n is None else (lambda p: tail(1.0 - _int_power(1.0 - p, n)))

    def __call__(self, p):
        p, n = _as_prob_array(p), self._exponent
        if type(p) is float:
            return self._kernel(p)
        return _tail_mixture(self._atoms, p if n is None else 1.0 - _int_power(1.0 - p, n))

    def derivative(self, p):
        p, n = _as_prob_array(p), self._exponent
        if n is None:
            return _slope_mixture(self._atoms, p)
        slope = _slope_mixture(self._atoms, 1.0 - _int_power(1.0 - p, n))
        return slope * (n * _int_power(1.0 - p, n - 1))

    def inverse(self, y):
        return _monotone_inverse(self, y)

    def corner_slopes(self) -> tuple[float, float]:
        """The slopes w'(0) and w'(1): the sum of k * mass over the atoms
        whose reply flips after one contrary observation (m = 1 at p = 0,
        m = k at p = 1), with ``math.fsum`` in atom order as
        ``truncated_expectation`` sums, times the observation map's slope at
        the corner: n at p = 0, and 0 at p = 1 when n >= 2.  The
        thresholds carry the tie rule."""
        n = self._exponent
        low = math.fsum(k * mass for k, mass, m in self._atoms if m == 1)
        high = math.fsum(k * mass for k, mass, m in self._atoms if m == k)
        return (low, high) if n is None else (n * low, high * 0 ** (n - 1))


class SamplingResponse(_TailMixture):
    """Sampling best-response function w(p) for one population.

    ``w(p)`` is the probability that a revising agent with own
    coordination payoff ``u`` and sample size drawn from ``theta`` plays
    the first action when the opposing share playing it is ``p``:
    a theta-weighted sum of binomial tails with per-size thresholds, the
    tail mixture observed directly (q = p).  It is a strictly increasing
    polynomial of degree ``max(support)`` with w(0) = 0 and w(1) = 1.
    """

    def __init__(
        self,
        u: float,
        theta: SampleSizeDistribution,
        tie_break: TieBreak = TieBreak.FAVOR_A,
    ) -> None:
        if u <= 0.0 or not math.isfinite(u):
            raise ValueError(f"u must be a positive finite number, got {u!r}")
        super().__init__(theta, u, tie_break)

    # perfbench's tracer wraps these three names in each response class's own namespace
    __call__, derivative, inverse = (
        _TailMixture.__call__, _TailMixture.derivative, _TailMixture.inverse)

    def __repr__(self) -> str:
        return (
            f"SamplingResponse(u={self.u!r}, theta={self.theta.as_dict()!r}, "
            f"tie_break={self.tie_break.value!r})"
        )

    def mix_with(self, alpha: float, big_k: int) -> "SamplingResponse":
        """This response on ``theta.mix_with(alpha, big_k)``, tie rule kept."""
        return SamplingResponse(self.u, self.theta.mix_with(alpha, big_k), self.tie_break)


class LogitResponse:
    """Noisy best-response function: mixture of logistic curves.

    Each group (mass mu, noise eta) plays the first action with
    probability 1/(1 + exp(((1-p) - p*u)/eta)), where ``u`` is the
    deciding player's own payoff for coordinating on the first action.
    Unlike the sampling response, w(0) > 0 and w(1) < 1.  Calling it
    checks p as the sampling response does, and a float goes to
    ``_kernel``, its float form, bound once over the groups.
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
        c = 1.0 + self.u

        def kernel(p):
            out = 0.0
            for mu, eta in groups:  # the payoff difference is p*u - (1-p)
                out = out + mu * _expit((p * c - 1.0) / eta)
            return out

        self._kernel = kernel

    def __repr__(self) -> str:
        return f"LogitResponse(u={self.u!r}, groups={self.groups!r})"

    def __call__(self, p):
        p = _as_prob_array(p)
        if type(p) is float:
            return self._kernel(p)
        out = 0.0
        for mu, eta in self.groups:
            out = out + mu * special.expit((p * (1.0 + self.u) - 1.0) / eta)
        return out

    def derivative(self, p):
        p = _as_prob_array(p)
        expit = _expit if type(p) is float else special.expit
        out = 0.0
        for mu, eta in self.groups:
            s = expit((p * (1.0 + self.u) - 1.0) / eta)
            out = out + mu * s * (1.0 - s) * (1.0 + self.u) / eta
        return out

    def inverse(self, y):
        return _monotone_inverse(self, y)


ResponseFunction = Union[SamplingResponse, LogitResponse]


def _monotone_inverse(f, y):
    """Invert a strictly increasing f: [0, 1] -> [f(0), f(1)] by bisection."""
    lo_value, hi_value = f(0.0), f(1.0)
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
    dp1/dt = w1(p2) - p1, dp2/dt = w2(p1) - p2: the value of
    ``Environment.pair``, which ``analysis.System.of`` resolves."""

    w1: ResponseFunction
    w2: ResponseFunction
