import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from conftest import polynomial_coefficients, random_env, random_theta
from samplingdyn.dynamics import (
    MAX_SAMPLE_SIZE,
    Environment,
    LogitResponse,
    SampleSizeDistribution,
    SamplingResponse,
    TieBreak,
    _slope_mixture,
    binomial_tail,
    sampling_threshold,
    truncated_expectation,
)
from samplingdyn.extensions import MinEffortGame, MinEffortResponse, Observation
from samplingdyn.games import CoordinationGame


class TestBinomialTail:
    def test_single_draw_is_identity(self):
        ps = np.linspace(0.0, 1.0, 101)
        assert np.allclose(binomial_tail(1, 1, ps), ps, atol=0)

    def test_symmetric_midpoint(self):
        assert binomial_tail(3, 2, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_complement_example(self):
        # 1 - (1 - 0.3)^2
        assert binomial_tail(2, 1, 0.3) == pytest.approx(0.51, abs=1e-15)

    def test_m_zero_is_one(self):
        assert binomial_tail(7, 0, 0.3) == 1.0
        assert np.array_equal(binomial_tail(7, 0, np.array([0.0, 0.3, 1.0])), np.ones(3))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            binomial_tail(0, 0, 0.5)
        with pytest.raises(ValueError):
            binomial_tail(3, 4, 0.5)
        with pytest.raises(ValueError):
            binomial_tail(3, -1, 0.5)
        with pytest.raises(ValueError):
            binomial_tail(3, 1, 1.5)

    def test_matches_scipy_small_and_large_k(self, rng):
        # scipy.stats is the independent reference implementation
        for _ in range(250):
            k = int(rng.choice([1, 2, 3, 7, 12, 40, 60, 61, 200, 1000]))
            m = int(rng.integers(0, k + 1))
            ps = np.concatenate(
                [rng.random(9), [0.0, 1.0, 1e-12, 1.0 - 1e-12, 1e-4]]
            )
            ref = binom.sf(m - 1, k, ps)
            got = binomial_tail(k, m, ps)
            assert np.max(np.abs(got - ref)) < 5e-13
            # scalar and array paths agree
            assert binomial_tail(k, m, float(ps[0])) == pytest.approx(
                float(got[0]), abs=1e-14
            )

    def test_float_incomplete_beta_equals_the_ufunc(self, rng):
        # a float calls scipy's compiled routines directly and an array
        # calls their ufuncs, for the tail and for its slope
        def binomial_tail_slope(k, m, p):
            return _slope_mixture(((k, 1.0, m),), p)

        for _ in range(400):
            k = int(rng.integers(1, 1001))
            m = int(rng.integers(1, k + 1))
            ps = np.concatenate([rng.random(50), [0.0, 1.0, 5e-324, 1e-300, 1.0 - 1e-16]])
            for f in (binomial_tail, binomial_tail_slope):
                want = f(k, m, ps)
                got = [f(k, m, float(p)) for p in ps]
                assert all(type(v) is float for v in got)
                assert np.array_equal(got, want), (f.__name__, k, m)

    def test_no_cancellation_near_edges(self):
        # relative accuracy where the tail is tiny
        val = binomial_tail(50, 25, 1e-3)
        ref = float(binom.sf(24, 50, 1e-3))
        assert val == pytest.approx(ref, rel=1e-10)
        val1 = binomial_tail(50, 1, 1e-12)
        assert val1 == pytest.approx(50e-12, rel=1e-9)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    x=st.floats(0.0, 1.0),
    ks=st.lists(
        st.sampled_from([1, 2, 3, 5, 12, 40, 60, 61, 200, 1000]),
        min_size=1, max_size=5, unique=True,
    ),
    u=st.floats(0.1, 5.0),
    m_share=st.floats(0.0, 1.0),
    n_players=st.integers(2, 6),
    cost=st.floats(0.05, 0.95),
    eta=st.floats(0.01, 1.0),
)
def test_float_and_array_paths_are_bit_identical(x, ks, u, m_share, n_players, cost, eta):
    theta = SampleSizeDistribution.of({k: 1.0 / len(ks) for k in ks})
    responses = [
        SamplingResponse(u, theta, TieBreak.FAVOR_A),
        SamplingResponse(u, theta, TieBreak.FAVOR_B),
        LogitResponse(u, [(1.0, eta)]),
        LogitResponse(u, [(0.5, eta), (0.5, 2.0 * eta)]),
        LogitResponse(u, [(0.25, eta), (0.25, 2.0 * eta), (0.5, 0.5 * eta)]),
        MinEffortResponse(MinEffortGame(n_players, cost, Observation.MINIMUM_EFFORT), theta),
        MinEffortResponse(MinEffortGame(n_players, cost, Observation.OPPONENT_ACTION), theta),
    ]
    arr = np.array([x, 1.0 - x, 0.5 * x])
    for w in responses:
        assert w(x) == w(arr)[0], w
        assert w.derivative(x) == w.derivative(arr)[0], w
        # the float kernel, bound once, is the float path
        assert type(w._kernel(x)) is float and w._kernel(x) == w(arr)[0], w
    for k in ks:
        m = round(m_share * k)
        assert binomial_tail(k, m, x) == binomial_tail(k, m, arr)[0], (k, m)


_ZERO_ONE_THETA = SampleSizeDistribution.of({1: 0.25, 3: 0.25, 9: 0.5})


@pytest.mark.parametrize(
    "w, value",
    [
        # every threshold is k + 1: the response is 0 everywhere
        pytest.param(MinEffortResponse(MinEffortGame(2, 1e-13, Observation.OPPONENT_ACTION),
                                       _ZERO_ONE_THETA), 0.0, id="m-past-k"),
    ],
)
def test_float_kernel_keeps_exact_zero_and_one_atoms(w, value):
    # betainc has no such tail: b <= 0 is NaN
    xs = [0.0, 5e-324, 1e-17, 0.3, 1.0 - 1e-16, 1.0]
    for x in xs:
        assert w(x) == value and w.derivative(x) == 0.0, x
        assert type(w._kernel(x)) is float and w._kernel(x) == value, x
    assert np.array_equal(w(np.array(xs)), np.full(len(xs), value))
    assert np.array_equal(w.derivative(np.array(xs)), np.zeros(len(xs)))


class TestSamplingThreshold:
    def test_modal_action_for_three_samples(self):
        # best reply to three observations is the modal action when u = 1.2
        assert sampling_threshold(3, 1.2) == 2

    def test_tie_branches(self):
        assert sampling_threshold(2, 1.0, TieBreak.FAVOR_A) == 1
        assert sampling_threshold(2, 1.0, TieBreak.FAVOR_B) == 2

    def test_single_observation_decides(self):
        for u in (0.1, 1.0, 17.0):
            for rule in TieBreak:
                assert sampling_threshold(1, u, rule) == 1

    def test_near_integer_snapping(self):
        # k/(u+1) lands within fp noise of 2; both sides must snap alike
        u = 2.0 * (1.0 + 1e-15)
        assert sampling_threshold(6, u, TieBreak.FAVOR_A) == 2
        assert sampling_threshold(6, u, TieBreak.FAVOR_B) == 3

    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(a=st.integers(1, 1000), b=st.integers(1, 1000), k=st.integers(1, MAX_SAMPLE_SIZE),
           tie=st.booleans())
    @example(a=7, b=13, k=83320, tie=False)  # 54,158 exactly, which a 1e-12 snap missed
    def test_exact_at_rational_payoffs(self, a, b, k, tie):
        # u = a/b: the first action wins on x >= kb/(a + b), a tie when a + b
        # divides kb (always when it divides k); the rounding of k/(u + 1)
        # grows with k, the snap with it
        if tie:
            k = max(k - k % (a + b), a + b)
        cut, rest = divmod(k * b, a + b)
        assert sampling_threshold(k, a / b, TieBreak.FAVOR_A) == cut + (rest > 0)
        assert sampling_threshold(k, a / b, TieBreak.FAVOR_B) == cut + 1

    @pytest.mark.parametrize("rule", list(TieBreak))
    def test_a_positive_cut_needs_one_observation(self, rule):
        # k/(u + 1) below the snap (or 0 at u = inf) still needs one
        # first-action observation: no threshold is 0
        for u in (1e11, 1e13, 1e300, math.inf):
            for k in (1, 2, 1000, MAX_SAMPLE_SIZE):
                assert sampling_threshold(k, u, rule) == 1, (k, u)


class TestSamplingResponse:
    def test_unit_theta_is_identity(self):
        w = SamplingResponse(3.7, SampleSizeDistribution.point(1))
        ps = np.linspace(0.0, 1.0, 1001)
        assert np.max(np.abs(w(ps) - ps)) < 1e-15

    def test_pair_sampling_closed_form(self):
        w = SamplingResponse(1.2, SampleSizeDistribution.point(2))
        ps = np.linspace(0.0, 1.0, 101)
        assert np.allclose(w(ps), ps * (2.0 - ps), atol=1e-15)
        assert w(0.5) == pytest.approx(0.75)

    def test_triple_sampling_closed_form(self):
        w = SamplingResponse(1.2, SampleSizeDistribution.point(3))
        ps = np.linspace(0.0, 1.0, 101)
        assert np.allclose(w(ps), 3 * ps**2 - 2 * ps**3, atol=1e-14)
        assert w(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_endpoints(self, rng):
        for _ in range(20):
            w = SamplingResponse(float(rng.uniform(0.1, 10)), random_theta(rng))
            assert w(0.0) == 0.0
            assert w(1.0) == pytest.approx(1.0, abs=1e-12)
        w = SamplingResponse(1.2, SampleSizeDistribution.point(7))
        assert w(1.0) == 1.0

    def test_strict_monotonicity(self, rng):
        # strictly increasing wherever float rounding can resolve it; the
        # saturated tails near 0 and 1 only need to be nondecreasing
        ps = np.linspace(0.0, 1.0, 1001)
        for _ in range(40):
            w = SamplingResponse(float(rng.uniform(0.1, 10)), random_theta(rng))
            vals = w(ps)
            diffs = np.diff(vals)
            assert np.all(diffs > -1e-14)
            resolved = (vals[:-1] > 1e-12) & (vals[1:] < 1.0 - 1e-12)
            assert np.all(diffs[resolved] > 0)

    def test_tie_rule_equivalence_off_integer(self, rng):
        # when no k/(u+1) is an integer the tie branch never fires
        ps = np.linspace(0.0, 1.0, 501)
        for _ in range(40):
            u = float(rng.uniform(0.1, 10))
            theta = random_theta(rng)
            if any(
                abs(k / (u + 1) - round(k / (u + 1))) < 1e-9 for k in theta.support
            ):
                continue
            wa = SamplingResponse(u, theta, TieBreak.FAVOR_A)
            wb = SamplingResponse(u, theta, TieBreak.FAVOR_B)
            assert np.array_equal(wa(ps), wb(ps))

    def test_polynomial_identity_and_degree(self, rng):
        # the expanded power-basis form, evaluated exactly, matches the
        # runtime tail summation; the degree is exactly max(support)
        for _ in range(12):
            theta = random_theta(rng, max_k=50)
            w = SamplingResponse(float(rng.uniform(0.1, 10)), theta)
            coeffs = polynomial_coefficients(w)
            assert len(coeffs) - 1 == theta.max_support
            assert coeffs[-1] != 0
            for num in (1, 333, 500, 777, 999):
                x = Fraction(num, 1000)
                exact = sum(c * x**j for j, c in enumerate(coeffs))
                assert abs(float(exact) - w(num / 1000.0)) < 1e-10


class TestLogitResponse:
    def test_symmetric_payoff_midpoint(self):
        for eta in (0.05, 0.5, 3.0):
            w = LogitResponse(1.0, ((1.0, eta),))
            assert w(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_obvious_mistake_rate(self):
        w = LogitResponse(2.5, ((1.0, 1.0),))
        assert w(0.0) == pytest.approx(1.0 / (1.0 + math.e), abs=1e-12)

    def test_heterogeneous_mistake_rate(self):
        w = LogitResponse(2.5, ((0.55, 0.55), (0.45, 0.01)))
        expected = 0.55 / (1.0 + math.exp(1.0 / 0.55)) + 0.45 / (1.0 + math.exp(100.0))
        assert w(0.0) == pytest.approx(expected, abs=1e-12)
        assert w(0.0) == pytest.approx(0.077, abs=5e-4)

    def test_full_support_noise(self):
        w = LogitResponse(2.5, ((0.55, 0.55), (0.45, 0.01)))
        assert 0.0 < w(0.0) and w(1.0) < 1.0

    def test_extreme_noise_no_overflow(self):
        w = LogitResponse(2.5, ((1.0, 0.001),))
        vals = w(np.linspace(0.0, 1.0, 101))
        assert np.all(np.isfinite(vals))

    def test_validation(self):
        with pytest.raises(ValueError):
            LogitResponse(2.5, ((1.0, 0.0),))
        with pytest.raises(ValueError):
            LogitResponse(2.5, ((0.7, 1.0),))


class TestDerivative:
    def test_closed_forms(self):
        w1 = SamplingResponse(3.7, SampleSizeDistribution.point(1))
        assert w1.derivative(0.3) == pytest.approx(1.0)
        w2 = SamplingResponse(1.2, SampleSizeDistribution.point(2))
        assert w2.derivative(0.0) == pytest.approx(2.0)
        ps = np.linspace(0.0, 1.0, 51)
        assert np.allclose(w2.derivative(ps), 2.0 * (1.0 - ps), atol=1e-14)
        w3 = SamplingResponse(1.2, SampleSizeDistribution.point(3))
        assert w3.derivative(0.5) == pytest.approx(1.5)

    def test_matches_finite_differences(self, rng):
        ps = np.linspace(0.01, 0.99, 25)
        h = 1e-6
        checked = 0
        while checked < 100:
            kind = rng.integers(0, 3)
            if kind == 0:
                w = SamplingResponse(float(rng.uniform(0.1, 10)), random_theta(rng))
            elif kind == 1:
                w = SamplingResponse(
                    float(rng.uniform(0.1, 10)), random_theta(rng, big_k=1000)
                )
            else:
                etas = rng.uniform(0.05, 2.0, size=2)
                mu = float(rng.uniform(0.2, 0.8))
                w = LogitResponse(
                    float(rng.uniform(0.1, 10)),
                    ((mu, float(etas[0])), (1 - mu, float(etas[1]))),
                )
            fd = (w(ps + h) - w(ps - h)) / (2 * h)
            assert np.max(np.abs(w.derivative(ps) - fd)) < 1e-6
            checked += 1

    def test_large_k_derivative_endpoints(self):
        # the slope of Pr(Bin(k, p) >= m) is m C(k, m) p^(m-1) (1-p)^(k-m)
        assert _slope_mixture(((1000, 1.0, 48),), 0.0) == 0.0
        assert _slope_mixture(((1000, 1.0, 1),), 0.0) == pytest.approx(1000.0)
        assert _slope_mixture(((1000, 1.0, 1000),), 1.0) == pytest.approx(1000.0)


class TestInverse:
    def test_pair_sampling_inverse(self):
        w = SamplingResponse(1.2, SampleSizeDistribution.point(2))
        assert w.inverse(0.75) == pytest.approx(0.5, abs=1e-10)

    def test_round_trip(self, rng):
        for _ in range(20):
            w = SamplingResponse(float(rng.uniform(0.1, 10)), random_theta(rng))
            for y in (0.3, float(rng.random())):
                assert w.inverse(w(y)) == pytest.approx(y, abs=1e-10)
            assert w.inverse(0.0) == 0.0
            assert w.inverse(1.0) == 1.0

    def test_identity_inverse(self):
        w = SamplingResponse(2.0, SampleSizeDistribution.point(1))
        ys = np.linspace(0.0, 1.0, 11)
        assert np.max(np.abs(w.inverse(ys) - ys)) < 1e-12

    def test_residual_below_tolerance(self, rng):
        for _ in range(20):
            w = SamplingResponse(float(rng.uniform(0.1, 10)), random_theta(rng))
            y = float(rng.random())
            assert abs(w(w.inverse(y)) - y) < 1e-12

    def test_logit_out_of_range(self):
        w = LogitResponse(2.5, ((1.0, 1.0),))
        with pytest.raises(ValueError):
            w.inverse(1e-9)  # below w(0) = 1/(1+e)


class TestTruncatedExpectation:
    def test_examples(self):
        unit = SampleSizeDistribution.point(1)
        assert truncated_expectation(unit, 2.0, "weak") == pytest.approx(1.0)
        theta = SampleSizeDistribution.of({1: 0.5, 5: 0.5})
        assert truncated_expectation(theta, 6.0, "strict") == pytest.approx(3.0)
        assert truncated_expectation(theta, 5.0, "strict") == pytest.approx(0.5)
        assert truncated_expectation(theta, 5.0, "weak") == pytest.approx(3.0)

    def test_near_integer_snap(self):
        theta = SampleSizeDistribution.of({1: 0.5, 5: 0.5})
        assert truncated_expectation(theta, 5.0 - 1e-13, "strict") == pytest.approx(0.5)
        assert truncated_expectation(theta, 5.0 - 1e-13, "weak") == pytest.approx(3.0)
        assert truncated_expectation(theta, 5.0 + 1e-13, "strict") == pytest.approx(0.5)

    def test_validation(self):
        theta = SampleSizeDistribution.point(2)
        with pytest.raises(ValueError):
            truncated_expectation(theta, 0.0, "weak")
        with pytest.raises(ValueError):
            truncated_expectation(theta, 2.0, "sideways")


class TestSampleSizeDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampleSizeDistribution.of({})
        with pytest.raises(ValueError):
            SampleSizeDistribution.of({0: 1.0})
        with pytest.raises(ValueError):
            SampleSizeDistribution.of({1: 0.5, 2: 0.4})
        with pytest.raises(ValueError):
            SampleSizeDistribution.of({1: 1.5, 2: -0.5})

    def test_helpers(self):
        theta = SampleSizeDistribution.of({5: 0.25, 1: 0.75})
        assert theta.support == (1, 5)
        assert theta.max_support == 5
        assert theta.mass(5) == 0.25 and theta.mass(2) == 0.0
        assert SampleSizeDistribution.point(4).degenerate_k == 4
        assert theta.degenerate_k is None

    def test_mixture(self):
        theta = SampleSizeDistribution.of({1: 0.5, 5: 0.5})
        mixed = theta.mix_with(0.4, 1000)
        assert mixed.mass(1) == pytest.approx(0.2)
        assert mixed.mass(5) == pytest.approx(0.2)
        assert mixed.mass(1000) == pytest.approx(0.6)
        with pytest.raises(ValueError):
            theta.mix_with(0.4, 5)


class TestEnvironment:
    def test_symmetric_helpers(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
        assert env.is_symmetric
        w = env.single_response()
        assert w.u == 1.2

    def test_asymmetric_responses(self):
        env = Environment.of(
            CoordinationGame(5.0, 0.2), SampleSizeDistribution.of({1: 0.5, 5: 0.5})
        )
        assert env.response(1).u == 5.0
        assert env.response(2).u == 0.2
        with pytest.raises(ValueError):
            env.single_response()
