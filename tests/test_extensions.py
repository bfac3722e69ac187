import functools
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from samplingdyn import extensions
from samplingdyn.analysis import Stability, find_stationary_one_pop
from samplingdyn.dynamics import (
    SampleSizeDistribution,
    SamplingResponse,
    TieBreak,
    truncated_expectation,
)
from samplingdyn.extensions import (
    ContractTieRule,
    ContractingGame,
    MinEffortGame,
    MinEffortResponse,
    Observation,
    contracting_best_response,
    contracting_pure_stability,
    contracting_response_vector,
    integrate_contracting,
    mineffort_pure_stability,
    mineffort_response,
    mineffort_stable_interior,
    _replies,
    _ReplyMap,
    _samples,
)


def random_contracting(rng, M=None, lo=0.3, hi=5.0):
    M = M or int(rng.integers(2, 5))
    while True:
        d1 = tuple(float(v) for v in rng.uniform(lo, hi, M))
        d2 = tuple(float(v) for v in rng.uniform(lo, hi, M))
        try:
            return ContractingGame(d1, d2)
        except ValueError:
            continue


class TestBestResponse:
    def test_hand_example(self):
        g = ContractingGame((1.0, 3.0), (2.0, 1.0))
        assert contracting_best_response(g, 1, (2, 1)) == 1  # payoffs (2, 3)

    def test_unanimous_sample(self, rng):
        for _ in range(20):
            g = random_contracting(rng)
            k = int(rng.integers(1, 9))
            counts = [0] * g.M
            counts[0] = k
            assert contracting_best_response(g, 1, counts) == 0

    def test_two_actions_match_threshold_rule(self, rng):
        # the two-action argmax agrees with the binomial threshold under
        # the matching tie conventions (lowest index == first-action ties)
        for _ in range(50):
            g = random_contracting(rng, M=2)
            u = g.diag1[0] / g.diag1[1]
            k = int(rng.integers(1, 12))
            m = __import__("samplingdyn").dynamics.sampling_threshold(
                k, u, TieBreak.FAVOR_A
            )
            for x in range(k + 1):
                best = contracting_best_response(g, 1, (x, k - x))
                assert (best == 0) == (x >= m)

    def test_tie_rules(self):
        g = ContractingGame((1.0, 1.0), (1.0, 2.0), require_generic=False)
        assert contracting_best_response(g, 1, (1, 1), ContractTieRule.LOWEST) == 0
        assert contracting_best_response(g, 1, (1, 1), ContractTieRule.HIGHEST) == 1
        rng = np.random.default_rng(0)
        picks = {
            contracting_best_response(g, 1, (1, 1), ContractTieRule.UNIFORM, rng)
            for _ in range(40)
        }
        assert picks == {0, 1}

    def test_empty_sample_rejected(self):
        g = ContractingGame((1.0, 2.0), (2.0, 1.0))
        with pytest.raises(ValueError):
            contracting_best_response(g, 1, (0, 0))


class TestResponseVector:
    def test_two_action_reduction(self, rng):
        for _ in range(50):
            g = random_contracting(rng, M=2)
            theta = SampleSizeDistribution.of({1: 0.3, 4: 0.5, 9: 0.2})
            pa = float(rng.random())
            r = contracting_response_vector(g, 1, theta, (pa, 1.0 - pa))
            w = SamplingResponse(g.diag1[0] / g.diag1[1], theta)
            assert r.probabilities[0] == pytest.approx(w(pa), abs=1e-10)

    def test_single_observation_is_identity(self, rng):
        g = random_contracting(rng, M=3)
        p = rng.dirichlet(np.ones(3))
        r = contracting_response_vector(g, 1, SampleSizeDistribution.point(1), p)
        assert np.allclose(r.probabilities, p, atol=1e-12)

    def test_symmetric_ties_split_uniformly(self):
        g = ContractingGame((1.0,) * 3, (1.0,) * 3, require_generic=False)
        r = contracting_response_vector(
            g,
            1,
            SampleSizeDistribution.point(2),
            (1 / 3, 1 / 3, 1 / 3),
            rule=ContractTieRule.UNIFORM,
        )
        assert np.allclose(r.probabilities, 1 / 3, atol=1e-12)

    def test_simplex_output(self, rng):
        for _ in range(20):
            g = random_contracting(rng)
            theta = SampleSizeDistribution.of({2: 0.5, 6: 0.5})
            p = rng.dirichlet(np.ones(g.M))
            r = contracting_response_vector(g, 1, theta, p)
            assert r.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(r.probabilities >= 0)

    @pytest.mark.parametrize("rule", [r.value for r in ContractTieRule])
    def test_monte_carlo_agrees_with_exact(self, rng, rule):
        # theta = {1500: 1} has 1,127,251 samples; at p proportional to
        # 1/diag every action pays the same in expectation, so the replies
        # spread, and the second game ties actions 1 and 2 for player 1
        # whenever their counts agree, so the three rules give different
        # vectors
        tied = ContractingGame((1.0, 2.0, 2.0), (2.0, 1.0, 3.0), require_generic=False)
        theta = SampleSizeDistribution.point(1500)
        draws = np.random.default_rng(11)
        for g in (random_contracting(rng, M=3), tied):
            p = 1.0 / np.asarray(g.diag1)
            p /= p.sum()
            exact = contracting_response_vector(g, 1, theta, p, rule).probabilities
            samples = draws.multinomial(1500, p, size=200_000)
            mc = _replies(samples * np.asarray(g.diag1), ContractTieRule(rule)).mean(axis=0)
            band = 4.0 * np.maximum(np.sqrt(mc * (1.0 - mc) / len(samples)), 1e-6)
            assert np.all(np.abs(mc - exact) <= band)
            # a few pieces per prefix, not one row per sample
            assert len(_ReplyMap(g, 1, theta, rule).counts) <= 20 * 1501

    def test_prefix_count_is_bounded(self, monkeypatch):
        # M = 3 has k + 1 prefixes at size k
        monkeypatch.setattr(extensions, "ENUMERATION_LIMIT", 50)
        g = ContractingGame((4.0, 2.0, 1.0), (1.0, 2.0, 4.0))
        p = (0.2, 0.5, 0.3)
        with pytest.raises(ValueError, match="ENUMERATION_LIMIT"):
            contracting_response_vector(g, 1, SampleSizeDistribution.point(60), p)
        contracting_response_vector(g, 1, SampleSizeDistribution.point(40), p)


@functools.lru_cache(maxsize=1)
def _full_table(M, theta):
    tables = [_samples(k, M) for k in theta.support]
    counts = np.concatenate(tables)
    log_mass = np.repeat([math.log(m) for _, m in theta.atoms], [len(t) for t in tables])
    logw = (log_mass + special.gammaln(counts.sum(axis=1) + 1.0)
            - special.gammaln(counts + 1.0).sum(axis=1))
    return counts, logw


def full_enumeration(diag, theta, p, rule):
    """The reply distribution from one table row per sample: every count
    vector of every size, its multinomial weight and its reply."""
    diag = np.asarray(diag)
    counts, logw = _full_table(len(diag), theta)
    p = np.asarray(p, dtype=float)
    zero = p == 0.0
    exponent = logw + counts @ np.log(np.where(zero, 1.0, p))
    exponent[counts[:, zero].any(axis=1)] = -np.inf
    return np.exp(exponent) @ _replies(counts * diag, ContractTieRule(rule))


class TestSplitPieces:
    @pytest.mark.parametrize("rule", [r.value for r in ContractTieRule])
    def test_matches_full_enumeration(self, rng, rule):
        families = [
            lambda M: rng.integers(1, 4, M).astype(float),
            lambda M: rng.choice([0.1, 0.2, 0.3, 0.6], M),
            lambda M: rng.uniform(0.1, 5.0, M),
            lambda M: rng.choice([1e-13, 3e-13, 1e-12, 1e-6, 1.0, 1e6, 1e12], M),
        ]
        for i in range(200):
            M = int(rng.integers(2, 6))
            diag = families[i % 4](M)
            sizes = rng.choice(np.arange(1, 13), size=int(rng.integers(1, 4)), replace=False)
            raw = rng.random(len(sizes)) + 0.05
            theta = SampleSizeDistribution.of(
                {int(k): float(w) for k, w in zip(sizes, raw / raw.sum())}
            )
            weights = rng.random(M) * (rng.random(M) > 0.25)
            if weights.sum() == 0.0:
                weights[0] = 1.0
            p = weights / weights.sum()
            g = ContractingGame(tuple(diag), tuple(diag), require_generic=False)
            got = contracting_response_vector(g, 1, theta, p, rule).probabilities
            assert np.max(np.abs(got - full_enumeration(diag, theta, p, rule))) <= 1e-12

    def test_matches_full_enumeration_with_a_large_size(self, rng):
        # 982,111 samples, 1,405 prefixes; the zero component leaves whole
        # rows of the merged state without weight
        g = ContractingGame((4.0, 2.0, 1.0), (1.0, 2.0, 4.0))
        theta = SampleSizeDistribution.of({3: 0.5, 1400: 0.5})
        states = [rng.dirichlet(np.ones(3)) for _ in range(2)]
        states += [(0.0, 0.3, 0.7), (0.5, 0.5, 0.0), (0.2, 0.0, 0.8), (0.002, 0.499, 0.499)]
        for rule in ContractTieRule:
            for p in states:
                got = contracting_response_vector(g, 1, theta, p, rule).probabilities
                assert np.max(np.abs(got - full_enumeration(g.diag1, theta, p, rule))) <= 2e-12

    @pytest.mark.parametrize("rule", [r.value for r in ContractTieRule])
    def test_near_tied_prefix_payoffs(self, rule):
        # actions 0 and 1 tie (4.8e-12 and 5e-12 lie within the absolute
        # tolerance 1e-12); as a * 1e-13 rises past 5.8e-12 action 0 leaves
        # the ties before action 1 does, a change that only the crossing of
        # the lower prefix payoff marks
        diag = (3e-13, 1e-12, 1e-13, 1e-13)
        g = ContractingGame(diag, diag, require_generic=False)
        theta = SampleSizeDistribution.point(90)
        p = np.array([16.0, 5.0, 57.0, 12.0]) / 90.0
        got = contracting_response_vector(g, 1, theta, p, rule).probabilities
        assert np.max(np.abs(got - full_enumeration(diag, theta, p, rule))) <= 1e-12

    @pytest.mark.parametrize("diag", [(1e200, 1e200), (3.0, 1e200, 1e200)])
    def test_payoffs_whose_product_overflows(self, diag):
        # the last two payoffs meet at n * d1 * d2 / (d1 + d2), and d1 * d2
        # alone overflows
        g = ContractingGame(diag, diag, require_generic=False)
        theta = SampleSizeDistribution.point(10)
        p = np.full(len(diag), 1.0 / len(diag))
        for rule in ContractTieRule:
            got = contracting_response_vector(g, 1, theta, p, rule).probabilities
            assert np.max(np.abs(got - full_enumeration(diag, theta, p, rule))) <= 1e-12

    def test_matches_high_precision_reference(self):
        # every one of the 11,476 samples summed at 30 digits; the payoffs
        # are integers, so ties are exact and argmax takes the lowest
        g = ContractingGame((4.0, 2.0, 1.0), (1.0, 2.0, 4.0))
        k, p = 150, ("0.3", "0.45", "0.25")
        counts = _samples(k, 3)
        with mpmath.workdps(30):
            probs = [mpmath.mpf(x) for x in p]
            want = [mpmath.mpf(0)] * 3
            for reply, row in zip(np.argmax(counts * np.asarray(g.diag1), axis=1), counts):
                want[reply] += mpmath.factorial(k) * mpmath.fprod(
                    probs[i] ** int(c) / mpmath.factorial(int(c)) for i, c in enumerate(row)
                )
            want = np.array([float(w) for w in want])
        got = contracting_response_vector(
            g, 1, SampleSizeDistribution.point(k), [float(x) for x in p]
        ).probabilities
        assert np.max(np.abs(got - want)) <= 1e-12


def reference_response(diag, theta, p, rule):
    """Brute-force reply distribution: every count vector of every sample
    size, its multinomial probability and a Python argmax with the tie
    tolerance of the module."""
    out = [0.0] * len(diag)
    for k, mass in theta.atoms:
        for counts in itertools.product(range(k + 1), repeat=len(diag)):
            if sum(counts) != k or any(c and p[i] == 0.0 for i, c in enumerate(counts)):
                continue
            log_prob = math.lgamma(k + 1) + sum(
                c * math.log(p[i]) - math.lgamma(c + 1) for i, c in enumerate(counts)
                if c
            )
            prob = mass * math.exp(log_prob)
            payoffs = [u * c for u, c in zip(diag, counts)]
            best = max(payoffs)
            ties = [i for i, v in enumerate(payoffs) if v >= best - 1e-12 * max(1.0, best)]
            if rule == "lowest":
                out[ties[0]] += prob
            elif rule == "highest":
                out[ties[-1]] += prob
            else:
                for i in ties:
                    out[i] += prob / len(ties)
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    data=st.data(),
    M=st.integers(2, 4),
    rule=st.sampled_from([r.value for r in ContractTieRule]),
    player=st.sampled_from([1, 2]),
)
def test_response_vector_matches_brute_force(data, M, rule, player):
    # games on small integers have exact ties, so every rule matters, games
    # on tenths near ties (3 * 0.1 > 0.3) that only the tolerance joins, and
    # games of extreme magnitudes, where the absolute tolerance joins counts
    payoff = data.draw(
        st.sampled_from(
            [st.integers(1, 3).map(float), st.sampled_from([0.1, 0.2, 0.3, 0.6]),
             st.floats(0.1, 5.0), st.sampled_from([1e-13, 3e-13, 1e-12, 1e-6, 1.0, 1e6, 1e12])]
        )
    )
    g = ContractingGame(
        tuple(data.draw(st.lists(payoff, min_size=M, max_size=M))),
        tuple(data.draw(st.lists(payoff, min_size=M, max_size=M))),
        require_generic=False,
    )
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    raw = data.draw(st.lists(st.floats(0.05, 1.0), min_size=len(sizes), max_size=len(sizes)))
    theta = SampleSizeDistribution.of(
        {k: w / sum(raw) for k, w in zip(sizes, raw)}
    )
    weights = data.draw(
        st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=M, max_size=M)
        .filter(lambda w: sum(w) > 0.0)
    )
    p = [w / sum(weights) for w in weights]
    got = contracting_response_vector(g, player, theta, p, rule).probabilities
    want = reference_response(g.diag(player), theta, p, rule)
    assert np.max(np.abs(got - np.array(want))) <= 1e-12
    assert abs(got.sum() - 1.0) <= 1e-12


class TestContractingStability:
    def test_two_action_products_match_theorem4(self, rng):
        from samplingdyn.analysis import check_theorem4
        from samplingdyn.dynamics import Environment
        from samplingdyn.games import CoordinationGame, canonicalize

        for _ in range(50):
            g = random_contracting(rng, M=2)
            theta1 = SampleSizeDistribution.of({1: 0.5, 5: 0.5})
            theta2 = SampleSizeDistribution.of({1: 0.25, 3: 0.75})
            reports = contracting_pure_stability(g, theta1, theta2)
            u1 = g.diag1[0] / g.diag1[1]
            u2 = g.diag2[0] / g.diag2[1]
            # products at the first equilibrium equal the first-corner
            # products of the reduced two-action game
            a1 = theta1.mass(1) * truncated_expectation(theta2, 1.0 / u2 + 1.0, "strict")
            a2 = theta2.mass(1) * truncated_expectation(theta1, 1.0 / u1 + 1.0, "strict")
            assert reports[0].part1_products == pytest.approx((a1, a2), abs=1e-12)
            b1 = theta1.mass(1) * truncated_expectation(theta2, u2 + 1.0, "strict")
            b2 = theta2.mass(1) * truncated_expectation(theta1, u1 + 1.0, "strict")
            assert reports[1].part1_products == pytest.approx((b1, b2), abs=1e-12)

    def test_homogeneous_large_samples_stabilize_pareto_equilibria(self, rng):
        for _ in range(20):
            g = random_contracting(rng)
            k1, k2 = (int(v) for v in rng.integers(2, 9, size=2))
            reports = contracting_pure_stability(
                g, SampleSizeDistribution.point(k1), SampleSizeDistribution.point(k2)
            )
            for r in reports:
                if r.pareto_efficient:
                    assert r.label == "asymptotically-stable"

    def test_three_action_hand_example(self):
        g = ContractingGame((4.0, 2.0, 1.0), (1.0, 2.0, 4.0))
        theta = SampleSizeDistribution.of({1: 0.6, 4: 0.4})
        reports = contracting_pure_stability(g, theta, theta)
        assert [r.label for r in reports] == [
            "unstable",
            "asymptotically-stable",
            "unstable",
        ]
        assert reports[0].part1_products == pytest.approx((1.32, 0.36))
        assert reports[1].part1_products == pytest.approx((0.36, 0.36))
        assert reports[2].part1_products == pytest.approx((0.36, 1.32))

    def test_stable_label_agrees_with_trajectories(self):
        # perturb the stable equilibrium and integrate the simplex dynamics
        g = ContractingGame((4.0, 2.0, 1.0), (1.0, 2.0, 4.0))
        theta = SampleSizeDistribution.of({1: 0.6, 4: 0.4})
        eps = 1e-3
        p0 = np.array([eps, 1.0 - 2 * eps, eps])
        _, path = integrate_contracting(g, theta, theta, (p0, p0), t_max=30.0)
        final = path[-1]
        target = np.array([0.0, 1.0, 0.0] * 2)
        assert np.max(np.abs(final - target)) < 1e-4

    def test_unstable_label_agrees_with_trajectories(self):
        g = ContractingGame((4.0, 2.0, 1.0), (1.0, 2.0, 4.0))
        theta = SampleSizeDistribution.of({1: 0.6, 4: 0.4})
        eps = 1e-3
        # seed the invading action (each population's favorite) near a^0
        p1 = np.array([1.0 - eps, 0.0, eps])
        p2 = np.array([1.0 - eps, 0.0, eps])
        _, path = integrate_contracting(g, theta, theta, (p1, p2), t_max=60.0)
        depart = np.max(np.abs(path - path[0]), axis=1)
        assert depart.max() > 1e-2

    @pytest.mark.parametrize(
        "initial",
        [
            ((0.5, 0.6, 0.0), (0.2, 0.3, 0.5)),
            ((1.1, -0.1, 0.0), (0.2, 0.3, 0.5)),
            ((math.nan, 0.5, 0.5), (0.2, 0.3, 0.5)),
            ((0.5, 0.5), (0.2, 0.3, 0.5)),
            ((0.5, 0.5, 0.0),),
            ((0.5, 0.5, 0.0),) * 3,
        ],
        ids=["sum-above-1", "negative", "nan", "two-actions", "one-point", "three-points"],
    )
    def test_initial_state_is_checked(self, initial):
        g = ContractingGame((4.0, 2.0, 1.0), (1.0, 2.0, 4.0))
        theta = SampleSizeDistribution.point(2)
        with pytest.raises(ValueError):
            integrate_contracting(g, theta, theta, initial, t_max=0.1)

    def test_requires_generic_game(self):
        g = ContractingGame((1.0, 1.0), (2.0, 2.0), require_generic=False)
        with pytest.raises(ValueError):
            contracting_pure_stability(
                g, SampleSizeDistribution.point(2), SampleSizeDistribution.point(2)
            )


class TestMinEffortResponse:
    def test_boundaries(self):
        for obs in Observation:
            g = MinEffortGame(3, 0.4, obs)
            theta = SampleSizeDistribution.of({1: 0.3, 4: 0.7})
            assert mineffort_response(g, theta, 0.0) == 0.0
            assert mineffort_response(g, theta, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_minimum_mode_low_sample_formula(self):
        g = MinEffortGame(3, 0.5, Observation.MINIMUM_EFFORT)
        theta = SampleSizeDistribution.point(2)
        assert mineffort_response(g, theta, 0.3) == pytest.approx(1 - 0.7**4, abs=1e-12)

    def test_minimum_mode_mixture_formula(self):
        # every supported size is below 1/(1-c): response is the mixture of
        # 1 - (1-p)^(k(N-1)) terms
        g = MinEffortGame(4, 0.8, Observation.MINIMUM_EFFORT)
        theta = SampleSizeDistribution.of({1: 0.25, 2: 0.25, 4: 0.5})
        ps = np.linspace(0.0, 1.0, 41)
        expected = (
            0.25 * (1 - (1 - ps) ** 3)
            + 0.25 * (1 - (1 - ps) ** 6)
            + 0.5 * (1 - (1 - ps) ** 12)
        )
        assert np.allclose(mineffort_response(g, theta, ps), expected, atol=1e-12)

    def test_two_player_reductions(self, rng):
        # N = 2 collapses onto the two-action sampling response with
        # u = c/(1-c) and ties toward high effort
        for _ in range(50):
            c = float(rng.uniform(0.15, 0.85))
            u = c / (1.0 - c)
            ps = rng.random(17)
            k_cap = 1.0 / (1.0 - c)
            ks = [k for k in range(1, 13) if k < k_cap - 1e-9]
            if ks:
                theta = SampleSizeDistribution.point(int(rng.choice(ks)))
                g = MinEffortGame(2, c, Observation.MINIMUM_EFFORT)
                w = SamplingResponse(u, theta, TieBreak.FAVOR_B)
                got = mineffort_response(g, theta, ps)
                assert np.allclose(got, w(ps), atol=1e-9)
            theta = SampleSizeDistribution.point(int(rng.integers(1, 13)))
            g = MinEffortGame(2, c, Observation.OPPONENT_ACTION)
            w = SamplingResponse(u, theta, TieBreak.FAVOR_B)
            assert np.allclose(mineffort_response(g, theta, ps), w(ps), atol=1e-9)

    def test_derivative_matches_finite_differences(self, rng):
        ps = np.linspace(0.02, 0.98, 21)
        h = 1e-6
        for obs in Observation:
            for _ in range(10):
                g = MinEffortGame(
                    int(rng.integers(2, 6)), float(rng.uniform(0.2, 0.8)), obs
                )
                theta = SampleSizeDistribution.of(
                    {1: 0.4, int(rng.integers(2, 15)): 0.6}
                )
                r = MinEffortResponse(g, theta)
                fd = (r(ps + h) - r(ps - h)) / (2 * h)
                assert np.max(np.abs(r.derivative(ps) - fd)) < 1e-6


class TestMinEffortStability:
    def test_unit_sample_example(self):
        g = MinEffortGame(2, 0.5, Observation.MINIMUM_EFFORT)
        rep = mineffort_pure_stability(g, SampleSizeDistribution.point(1))
        assert rep.safe_label == Stability.STABLE
        assert rep.efficient_label == Stability.UNSTABLE

    def test_large_samples_keep_efficient_stable(self):
        # k > 1/(1-c): the truncated expectation is empty
        g = MinEffortGame(2, 0.5, Observation.MINIMUM_EFFORT)
        rep = mineffort_pure_stability(g, SampleSizeDistribution.point(5))
        assert rep.efficient_label == Stability.STABLE

    def test_costly_effort_example(self):
        g = MinEffortGame(4, 0.9, Observation.MINIMUM_EFFORT)
        theta = SampleSizeDistribution.of({1: 0.4, 20: 0.6})
        rep = mineffort_pure_stability(g, theta)
        assert rep.conditions["efficient_weak"] == pytest.approx(0.4)
        assert rep.conditions["bound"] == pytest.approx(0.25)
        assert rep.efficient_label == Stability.UNSTABLE

    def test_notes_mention_opponent_count_convention(self):
        g = MinEffortGame(3, 0.5, Observation.MINIMUM_EFFORT)
        rep = mineffort_pure_stability(g, SampleSizeDistribution.point(2))
        assert "N-1" in rep.note

    def test_action_mode_two_player_reduction(self, rng):
        # thresholds collapse onto the two-action corner products
        from samplingdyn.analysis import classify_pure_states
        from samplingdyn.dynamics import Environment
        from samplingdyn.games import CoordinationGame

        for _ in range(50):
            c = float(rng.uniform(0.15, 0.85))
            theta = SampleSizeDistribution.of({1: 0.5, int(rng.integers(2, 13)): 0.5})
            g = MinEffortGame(2, c, Observation.OPPONENT_ACTION)
            rep = mineffort_pure_stability(g, theta)
            env = Environment.symmetric(c / (1.0 - c), theta)
            pure = classify_pure_states(env, one_population=True)
            # low effort is the first action of the reduced game
            if pure.state_a.stability != Stability.MARGINAL:
                assert rep.safe_label == pure.state_a.stability
            if pure.state_b.stability != Stability.MARGINAL:
                assert rep.efficient_label == pure.state_b.stability

    def test_stable_interior_search(self):
        g = MinEffortGame(2, 0.6, Observation.MINIMUM_EFFORT)
        res = mineffort_stable_interior(g, k=2, big_k=1000, alpha_step=0.01)
        assert res.found and res.in_scope
        response = MinEffortResponse(
            g, SampleSizeDistribution.of({2: res.alpha, 1000: 1.0 - res.alpha})
        )
        assert abs(response(res.p_star) - res.p_star) < 1e-10
        assert response.derivative(res.p_star) < 1.0

    def test_search_flags_hypothesis_violation(self):
        g = MinEffortGame(2, 0.6, Observation.MINIMUM_EFFORT)
        res = mineffort_stable_interior(g, k=3, big_k=1000, alpha_step=0.05)
        assert not res.in_scope

    def test_action_mode_search(self):
        # 1 < k < 1/(1 - c^(1/(N-1))) = 1/(1 - sqrt(0.64)) = 5
        g = MinEffortGame(3, 0.64, Observation.OPPONENT_ACTION)
        res = mineffort_stable_interior(g, k=2, big_k=1000, alpha_step=0.02)
        assert res.in_scope and res.found
