"""The stationary search against an exact reference.

With a finite support the sampling response is a polynomial in p,
w(p) = sum_k theta_k sum_{x >= m_k} C(k, x) p^x (1 - p)^(k - x).  With the
masses and payoffs read as ``Fraction``, g = w - p (one population) and
g = w1(w2(p)) - p (two) have rational coefficients.  Sturm's theorem
counts the distinct roots of g on [0, 1] exactly, and bisection on
rationals isolates each one.  A root shared with g' is a multiple root: a
marginal state.  At a simple root the sign of g' is its stability.

The thresholds m_k come from x * u >= k - x in ``Fraction`` (x * u > k - x
under favor-b), not from ``sampling_threshold``.  Payoffs and masses are
dyadic rationals, so an exact tie and the float rule's snap agree, and the
masses sum to 1 in floats too.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samplingdyn import analysis
from samplingdyn.analysis import Stability, check_homogeneous_uniqueness
from samplingdyn.dynamics import Environment, SampleSizeDistribution, SamplingResponse, TieBreak
from samplingdyn.games import CoordinationGame

WIDTH = Fraction(1, 2**40)  # the isolating intervals' width
SLOPE_MARGIN = 1e-6  # labels of roots where |g'| is below it are not compared
MATCH = 1e-9  # largest distance of a state from its isolating interval


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _add(p: list, q: list) -> list:
    if len(p) < len(q):
        p, q = q, p
    return _trim([a + (q[i] if i < len(q) else 0) for i, a in enumerate(p)])


def _mul(p: list, q: list) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _value(p: list, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def _derivative(p: list) -> list:
    return [i * c for i, c in enumerate(p)][1:]


def _divmod(p: list, q: list) -> tuple[list, list]:
    """Quotient and remainder of p by a nonzero q."""
    quo, rem = [Fraction(0)] * max(len(p) - len(q) + 1, 0), list(p)
    while len(rem) >= len(q):
        c = rem[-1] / q[-1]
        shift = len(rem) - len(q)
        quo[shift] = c
        for i, b in enumerate(q):
            rem[shift + i] -= c * b
        rem.pop()  # its leading coefficient is now zero
        _trim(rem)
    return _trim(quo), rem


def _monic(p: list) -> list:
    return [c / p[-1] for c in p]


def _gcd(p: list, q: list) -> list:
    while q:
        rem = _divmod(p, q)[1]
        p, q = q, _monic(rem) if rem else []
    return _monic(p)


def _sturm(p: list) -> list:
    """The Sturm sequence of p, each remainder scaled to a leading
    coefficient of +-1, which keeps every sign."""
    chain = [p, _derivative(p)]
    while len(chain[-1]) > 1:
        rem = _divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        scale = abs(rem[-1])
        chain.append([-c / scale for c in rem])
    return chain


def _variations(chain: list, x: Fraction) -> int:
    signs = [v > 0 for v in (_value(p, x) for p in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _roots(g: list) -> list | None:
    """(lo, hi, sign, slope) for each distinct root of g in [0, 1], in
    order: the root lies in [lo, hi], lo == hi when it is exact, and
    hi - lo <= ``WIDTH``; sign is that of g' at the root, 0 at a multiple
    root, and slope is g' at hi.  None when g is zero."""
    if not g:
        return None
    common = _gcd(g, _derivative(g))  # [1] when every root is simple
    q = _divmod(g, common)[0]  # the simple roots of g
    chain, multiple = _sturm(q), _sturm(common) if len(common) > 1 else None
    slope = _derivative(g)
    out = []

    def add(lo, hi):
        if multiple is not None and (_value(common, hi) == 0 or (
                lo < hi and _variations(multiple, lo) > _variations(multiple, hi))):
            sign = 0
        else:
            sign = _sign(_value(slope, hi) if lo == hi else _value(g, hi))
        out.append((lo, hi, sign, _value(slope, hi)))

    def refine(a, b):
        # one root in (a, b], and q(a) != 0, so q changes sign over it
        below = _value(q, a) < 0
        while _value(q, b) != 0 and b - a > WIDTH:
            mid = (a + b) / 2
            v = _value(q, mid)
            if v == 0:
                a = b = mid
            elif (v < 0) == below:
                a = mid
            else:
                b = mid
        add(b if _value(q, b) == 0 else a, b)

    def isolate(a, b, va, vb):
        # va - vb roots of q in (a, b]
        if va == vb:
            return
        if va - vb == 1 and _value(q, a) != 0:
            refine(a, b)
            return
        mid = (a + b) / 2
        vm = _variations(chain, mid)
        isolate(a, mid, va, vm)
        isolate(mid, b, vm, vb)

    zero, one = Fraction(0), Fraction(1)
    if _value(q, zero) == 0:
        add(zero, zero)
    isolate(zero, one, _variations(chain, zero), _variations(chain, one))
    return out


def _tail(k: int, m: int) -> list:
    """sum_{x >= m} C(k, x) p^x (1 - p)^(k - x) in the power basis."""
    coeffs = [Fraction(0)] * (k + 1)
    for x in range(m, k + 1):
        for j in range(x, k + 1):
            coeffs[j] += math.comb(k, x) * math.comb(k - x, j - x) * (-1) ** (j - x)
    return coeffs


def _response(w: SamplingResponse) -> list:
    """The exact polynomial of w, from its payoff, masses and tie rule."""
    u, strict = Fraction(w.u), w.tie_break == TieBreak.FAVOR_B
    out = []
    for k, mass in w.theta.atoms:
        m = next(x for x in range(k + 1) if (x * u > k - x if strict else x * u >= k - x))
        out = _add(out, [Fraction(mass) * c for c in _tail(k, m)])
    return out


def _compose(p: list, q: list) -> list:
    out = []
    for c in reversed(p):
        out = _add(_mul(out, q), [c])
    return out


def _check_against_exact(system: analysis.System, every_root: bool = False) -> list:
    """Compare ``System.stationary()`` with the exact roots, and return them.
    The states must be as many as the roots, and carry their labels, when no
    two roots lie within two grid steps, or at every system when
    ``every_root``."""
    w1, *w2 = (_response(w) for w in system.responses)
    inner = w2[0] if w2 else [Fraction(0), Fraction(1)]  # w2, or p itself
    roots = _roots(_add(_compose(w1, inner), [Fraction(0), Fraction(-1)]))
    res = system.stationary()
    if roots is None:
        assert res.continuum
        return roots
    assert not res.continuum
    intervals = [(float(lo), float(hi)) for lo, hi, _, _ in roots]
    for s in res.states:
        # every state is a root, within MATCH of its isolating interval
        near = [i for i, (lo, hi) in enumerate(intervals) if lo - MATCH <= s.p1 <= hi + MATCH]
        assert near, (s, intervals)
        if s.is_pair:  # and p2 is within MATCH of w2's image of the interval
            lo, hi = roots[near[0]][:2]
            assert float(_value(inner, lo)) - MATCH <= s.p2 <= float(_value(inner, hi)) + MATCH
    apart = 2.0 / (analysis.GRID_POINTS - 1)
    if every_root or all(b[0] - a[1] > apart for a, b in zip(intervals, intervals[1:])):
        # as many states as distinct roots, each labelled by the sign of g'
        assert len(res.states) == len(roots), (res.states, intervals)
        for s, (_, _, sign, slope) in zip(res.states, roots):
            if sign and abs(slope) <= SLOPE_MARGIN:
                continue
            want = {-1: Stability.STABLE, 0: Stability.MARGINAL, 1: Stability.UNSTABLE}[sign]
            assert s.stability == want, (s, float(slope))
    return roots


_PAYOFFS = st.integers(1, 512).map(lambda j: j / 64)  # dyadic, in (0, 8]


@st.composite
def _theta(draw, max_k: int = 12):
    """One to four sizes up to ``max_k`` with masses in multiples of 1/64."""
    sizes = draw(st.lists(st.integers(1, max_k), min_size=1, max_size=4, unique=True))
    cuts = draw(st.lists(st.integers(1, 63), min_size=len(sizes) - 1,
                         max_size=len(sizes) - 1, unique=True))
    edges = [0, *sorted(cuts), 64]
    return SampleSizeDistribution.of(
        {k: (b - a) / 64 for k, a, b in zip(sizes, edges, edges[1:])})


@st.composite
def _beside_a_corner(draw, big_k: int):
    """Symmetric environments with a stable corner of slope 1 - delta and a
    root about delta / (C(big_k, 2) theta_big) from it, up to about 6e-4.

    Sizes 1 and 2 take the threshold 1 (corner 0) or their own size (corner
    1), and theta_1 + 2 theta_2 = 1 - delta; ``big_k``, at threshold 2 or
    big_k - 1, bends g away from the corner.  Dyadic u with
    (big_k - 2) / 2 <= u < big_k - 1, or 1 / (big_k - 1) <= u < 2 / (big_k - 2),
    sets those thresholds."""
    big, delta = draw(st.integers(8, 32)) / 64, draw(st.integers(1, 64)) / 2**16
    corner0 = st.integers(32 * (big_k - 2), 64 * (big_k - 1) - 1)
    corner1 = st.integers(-(-64 // (big_k - 1)), -(-128 // (big_k - 2)) - 1)
    u = draw(st.one_of(corner0, corner1)) / 64
    theta = {1: 1.0 - 2.0 * big + delta, 2: big - delta, big_k: big}
    return Environment.symmetric(u, SampleSizeDistribution.of(theta))


class TestReference:
    def test_roots_of_known_polynomials(self):
        # (p - 1/4)^2 (p - 1/2) (p - 1): a double root, two simple ones
        g = _mul(_mul(_mul([Fraction(-1, 4), 1], [Fraction(-1, 4), 1]), [Fraction(-1, 2), 1]),
                 [Fraction(-1), 1])
        roots = _roots(g)
        assert [(lo, hi, sign) for lo, hi, sign, _ in roots] == [
            (Fraction(1, 4), Fraction(1, 4), 0),
            (Fraction(1, 2), Fraction(1, 2), -1),
            (Fraction(1), Fraction(1), 1),
        ]
        # p^2 - 1/3: one irrational root, isolated to WIDTH
        ((lo, hi, sign, _),) = _roots([Fraction(-1, 3), Fraction(0), Fraction(1)])
        assert 0 < hi - lo <= WIDTH and sign == 1
        assert lo * lo < Fraction(1, 3) < hi * hi

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(u=_PAYOFFS, theta=_theta(), tie=st.sampled_from(TieBreak),
           p=st.floats(0.0, 1.0))
    def test_the_exact_response_is_the_float_one(self, u, theta, tie, p):
        # the reference's thresholds and tails against the program's floats
        w = SamplingResponse(u, theta, tie)
        assert float(_value(_response(w), Fraction(p))) == pytest.approx(w(p), abs=1e-12)


class TestStationaryStates:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(u=_PAYOFFS, theta=_theta(), tie=st.sampled_from(TieBreak))
    def test_one_population(self, u, theta, tie):
        _check_against_exact(analysis.System.of(Environment.symmetric(u, theta, tie)))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data(), u1=_PAYOFFS, u2=_PAYOFFS, tie=st.sampled_from(TieBreak))
    def test_two_populations(self, data, u1, u2, tie):
        # k1 * k2 <= 36, the degree of w1(w2(p))
        theta1 = data.draw(_theta(12))
        theta2 = data.draw(_theta(36 // theta1.max_support))
        env = Environment(CoordinationGame(u1, u2), theta1, theta2, tie)
        _check_against_exact(analysis.System.of(env, 2))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), dim=st.sampled_from([1, 2]))
    def test_a_root_beside_a_stable_corner(self, data, dim):
        # the corner's cell or the next few hold a second root, which the
        # scan does not see when the corner is its only zero in the cell;
        # two populations take a size of 6, so that w(w(p)) has degree 36
        env = data.draw(_beside_a_corner(12 if dim == 1 else 6))
        roots = _check_against_exact(analysis.System.of(env, dim), every_root=True)
        assert len(roots) == 3

    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_double_root_at_a_corner_is_marginal(self, dim):
        # at u = 1 a sample of 2 with one first action ties, and favor-a
        # takes the first action: half the agents make w'(0) = 2 * 1/2 = 1
        theta = SampleSizeDistribution.of({2: 0.5, 8: 0.5})
        env = Environment.symmetric(1.0, theta)
        roots = _check_against_exact(analysis.System.of(env, dim))
        assert roots[0][:3] == (0, 0, 0)
        assert env.pair().w1.derivative(0.0) == 1.0


@pytest.mark.parametrize("k", range(1, 13))
def test_theorem_1_holds_exactly(k):
    # one sample size: at most one interior state, and none stable
    for j in range(8, 257, 8):
        for tie in TieBreak:
            env = Environment.symmetric(j / 64, SampleSizeDistribution.point(k), tie)
            roots = _check_against_exact(analysis.System.of(env))
            if k == 1:
                assert roots is None  # w(p) = p
                continue
            interior = [r for r in roots if 0 < r[0] and r[1] < 1]
            assert len(interior) <= 1 and all(sign > 0 for _, _, sign, _ in interior)
            report = check_homogeneous_uniqueness(env)
            assert report.conditions["interior_count"] == len(interior)
            assert report.conditions["any_interior_stable"] == 0.0
