import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.integrate import simpson

from samplingdyn import CoordinationGame, Environment, SampleSizeDistribution
from samplingdyn.analysis import MARGINAL_BAND, Stability, classify_slope


def polynomial_coefficients(w) -> tuple[Fraction, ...]:
    """Exact power-basis coefficients of a sampling response w as Fractions:
    the reference for identity checks at desk scale.  The coefficients of a
    degree-k tail grow like C(k, k/2), so they are kept exact."""
    coeffs = [Fraction(0)] * (w.theta.max_support + 1)
    for k, mass, m in w._atoms:
        if m > k:
            continue
        wf = Fraction(mass)
        for l in range(m, k + 1):
            c_kl = math.comb(k, l)
            for i in range(0, k - l + 1):
                coeffs[l + i] += wf * c_kl * math.comb(k - l, i) * (-1) ** i
    return tuple(coeffs)


def payoff_efficiency(response, u: float) -> float:
    """Average payoff of response-following agents against a uniform opponent
    share, relative to exact payoff maximizers.

    Both averages are brute-force integrals over the opponent share on a
    uniform grid of 100,001 points (composite Simpson).
    """
    ps = np.linspace(0.0, 1.0, 100_001)
    wp = np.asarray(response(ps), dtype=float)
    realized = wp * ps * u + (1.0 - wp) * (1.0 - ps)
    best = np.maximum(ps * u, 1.0 - ps)
    return float(simpson(realized, x=ps) / simpson(best, x=ps))


class NanPastResponse:
    """A response with a bug: w = 1 below ``cut`` and NaN from it on, in
    the float kernel that the RK4 loop calls and in the checked call.

    With w = 1, an RK4 step of dt = 1 from 0 evaluates the stages at 0,
    0.5, 0.25 and 0.75 and ends at 0.625; the next step's stages run from
    0.625 to 0.90625 and end near 0.859, and the third step's last stage
    is near 0.965.  So a cut at 0.7, 0.8 or 0.95 turns the state
    non-finite at step 1, 2 or 3."""

    def __init__(self, cut: float) -> None:
        self.cut = cut

    def _kernel(self, p):
        return 1.0 if p < self.cut else math.nan

    __call__ = _kernel


def random_theta(rng, max_k=12, max_atoms=4, big_k=None):
    """Random finite-support sample size distribution with bounded masses."""
    n_atoms = int(rng.integers(1, max_atoms + 1))
    ks = rng.choice(np.arange(1, max_k + 1), size=n_atoms, replace=False)
    raw = rng.random(n_atoms) + 0.15
    if big_k is not None:
        ks = np.append(ks, big_k)
        raw = np.append(raw, rng.random() + 0.15)
    masses = raw / raw.sum()
    return SampleSizeDistribution.of(
        {int(k): float(w) for k, w in zip(ks, masses)}
    )


@st.composite
def theta_strategy(draw):
    """Sample size distributions with one to four sizes in 1-12, sometimes
    one more in 13-1000, and masses drawn from [0.15, 1.15], normalized."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        sizes.append(draw(st.integers(13, 1000)))
    raw = [draw(st.floats(0.15, 1.15)) for _ in sizes]
    return SampleSizeDistribution.of({k: w / sum(raw) for k, w in zip(sizes, raw)})


def random_game(rng, lo=0.15, hi=8.0):
    return CoordinationGame(float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)))


def random_env(rng, **theta_kw):
    return Environment.of(
        random_game(rng), random_theta(rng, **theta_kw), random_theta(rng, **theta_kw)
    )


def random_symmetric_env(rng, **theta_kw):
    u = float(rng.uniform(0.15, 8.0))
    return Environment.symmetric(u, random_theta(rng, **theta_kw))


def band_inputs(rng, n=200) -> list[float]:
    """Products for checks of the marginal-band rule: ``n`` seeded draws from
    [0, 3], and every double within 8 ulps of bound -/+ ``MARGINAL_BAND`` for
    the bounds 1, 1/2 and 1/N with N = 2..5."""
    values = rng.uniform(0.0, 3.0, n).tolist()
    for bound in [1.0] + [1.0 / N for N in range(2, 6)]:
        for edge in (bound - MARGINAL_BAND, bound + MARGINAL_BAND):
            v = edge
            for _ in range(8):
                v = math.nextafter(v, -math.inf)
            for _ in range(17):
                values.append(v)
                v = math.nextafter(v, math.inf)
    return values


def abs_near(v: float, bound: float) -> bool:
    """The band test of the reference verdicts: |v - bound| <= MARGINAL_BAND."""
    return abs(v - bound) <= MARGINAL_BAND


def rule_near(v: float, bound: float) -> bool:
    """The band test of ``classify_slope``: neither below nor above the band."""
    return classify_slope(v, bound=bound) == Stability.MARGINAL


def band_reference(ref, values, bound):
    """``ref(near)``, a reference verdict on ``values`` with the band test
    ``near``, and whether the two band tests differ on some value.  Where
    they differ (one double next to some band edges) the reference takes
    the rule's own band test, so only the rule's answer passes there."""
    split = any(abs_near(v, bound) != rule_near(v, bound) for v in values)
    return ref(rule_near if split else abs_near), split


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
