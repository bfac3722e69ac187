import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import band_inputs, band_reference, theta_strategy
from samplingdyn import extensions
from samplingdyn.analysis import (
    MARGINAL_BAND,
    Stability,
    classify_pure_states,
    classify_slope,
    find_stationary_one_pop,
)
from samplingdyn.dynamics import (
    MAX_SAMPLE_SIZE,
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
    contracting_pure_stability,
    contracting_response_vector,
    integrate_contracting,
    mineffort_stable_interior,
    _replies,
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


def _reply(g, counts, rule=ContractTieRule.LOWEST) -> list[float]:
    """Player 1's reply weights to one sample with the given per-action
    counts: one row of ``_replies``."""
    return _replies(np.asarray(g.diag1) * np.asarray([counts], dtype=float), rule)[0].tolist()


class TestBestResponse:
    def test_hand_example(self):
        g = ContractingGame((1.0, 3.0), (2.0, 1.0))
        assert _reply(g, (2, 1)) == [0.0, 1.0]  # payoffs (2, 3)

    def test_unanimous_sample(self, rng):
        for _ in range(20):
            g = random_contracting(rng)
            k = int(rng.integers(1, 9))
            counts = [0] * g.M
            counts[0] = k
            assert _reply(g, counts) == [1.0] + [0.0] * (g.M - 1)

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
                reply = _reply(g, (x, k - x))
                assert reply == ([1.0, 0.0] if x >= m else [0.0, 1.0])

    def test_tie_rules(self):
        g = ContractingGame((1.0, 1.0), (1.0, 2.0))
        assert _reply(g, (1, 1), ContractTieRule.LOWEST) == [1.0, 0.0]
        assert _reply(g, (1, 1), ContractTieRule.HIGHEST) == [0.0, 1.0]
        assert _reply(g, (1, 1), ContractTieRule.UNIFORM) == [0.5, 0.5]


class TestResponseVector:
    def test_two_action_reduction(self, rng):
        for _ in range(50):
            g = random_contracting(rng, M=2)
            theta = SampleSizeDistribution.of({1: 0.3, 4: 0.5, 9: 0.2})
            pa = float(rng.random())
            r = contracting_response_vector(g, 1, theta, (pa, 1.0 - pa))
            w = SamplingResponse(g.diag1[0] / g.diag1[1], theta)
            assert r[0] == pytest.approx(w(pa), abs=1e-10)

    def test_single_observation_is_identity(self, rng):
        g = random_contracting(rng, M=3)
        p = rng.dirichlet(np.ones(3))
        r = contracting_response_vector(g, 1, SampleSizeDistribution.point(1), p)
        assert np.allclose(r, p, atol=1e-12)

    def test_symmetric_ties_split_uniformly(self):
        g = ContractingGame((1.0,) * 3, (1.0,) * 3)
        r = contracting_response_vector(
            g,
            1,
            SampleSizeDistribution.point(2),
            (1 / 3, 1 / 3, 1 / 3),
            rule=ContractTieRule.UNIFORM,
        )
        assert np.allclose(r, 1 / 3, atol=1e-12)

    def test_simplex_output(self, rng):
        for _ in range(20):
            g = random_contracting(rng)
            theta = SampleSizeDistribution.of({2: 0.5, 6: 0.5})
            p = rng.dirichlet(np.ones(g.M))
            r = contracting_response_vector(g, 1, theta, p)
            assert r.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(r >= 0)

    @pytest.mark.parametrize("rule", [r.value for r in ContractTieRule])
    def test_monte_carlo_agrees_with_exact(self, rng, rule):
        # theta = {1000: 1} has 501,501 samples; at p proportional to
        # 1/diag every action pays the same in expectation, so the replies
        # spread, and the second game ties actions 1 and 2 for player 1
        # whenever their counts agree, so the three rules give different
        # vectors
        tied = ContractingGame((1.0, 2.0, 2.0), (2.0, 1.0, 3.0))
        theta = SampleSizeDistribution.point(1000)
        draws = np.random.default_rng(11)
        for g in (random_contracting(rng, M=3), tied):
            p = 1.0 / np.asarray(g.diag1)
            p /= p.sum()
            exact = contracting_response_vector(g, 1, theta, p, rule)
            samples = draws.multinomial(1000, p, size=200_000)
            mc = _replies(samples * np.asarray(g.diag1), ContractTieRule(rule)).mean(axis=0)
            band = 4.0 * np.maximum(np.sqrt(mc * (1.0 - mc) / len(samples)), 1e-6)
            assert np.all(np.abs(mc - exact) <= band)

    def test_sample_count_is_bounded(self, monkeypatch):
        # M = 3 has (k + 1)(k + 2)/2 samples at size k: 45 at 8, 55 at 9
        monkeypatch.setattr(extensions, "ENUMERATION_LIMIT", 50)
        g = ContractingGame((4.0, 2.0, 1.0), (1.0, 2.0, 4.0))
        p = (0.2, 0.5, 0.3)
        with pytest.raises(ValueError, match="ENUMERATION_LIMIT"):
            contracting_response_vector(g, 1, SampleSizeDistribution.point(9), p)
        contracting_response_vector(g, 1, SampleSizeDistribution.point(8), p)

    def test_sizes_past_the_limit_raise(self):
        # 1,128,751 samples; the largest size at M = 3 is 1,412
        g = ContractingGame((4.0, 2.0, 1.0), (1.0, 2.0, 4.0))
        with pytest.raises(ValueError, match="ENUMERATION_LIMIT"):
            contracting_response_vector(g, 1, SampleSizeDistribution.point(1500), (0.2, 0.5, 0.3))


def _compositions(k, M):
    """Every tuple of M counts that sum to k."""
    if M == 1:
        yield (k,)
        return
    for c in range(k + 1):
        for rest in _compositions(k - c, M - 1):
            yield (c, *rest)


def reference_response(diag, theta, p, rule):
    """Brute-force reply distribution: every count vector of every sample
    size, its multinomial probability and a Python argmax with the tie
    tolerance of the module."""
    out = [0.0] * len(diag)
    for k, mass in theta.atoms:
        for counts in _compositions(k, len(diag)):
            if any(c and p[i] == 0.0 for i, c in enumerate(counts)):
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
    return np.array(out)


class TestSplitPieces:
    """The reply table against independent references: the Python brute
    force ``reference_response`` and a 30-digit sum."""

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
            g = ContractingGame(tuple(diag), tuple(diag))
            got = contracting_response_vector(g, 1, theta, p, rule)
            assert np.max(np.abs(got - reference_response(diag, theta, p, rule))) <= 1e-12

    @pytest.mark.parametrize("rule", [r.value for r in ContractTieRule])
    def test_near_tied_prefix_payoffs(self, rule):
        # actions 0 and 1 tie (4.8e-12 and 5e-12 lie within the absolute
        # tolerance 1e-12); as a * 1e-13 rises past 5.8e-12 action 0 leaves
        # the ties before action 1 does
        diag = (3e-13, 1e-12, 1e-13, 1e-13)
        g = ContractingGame(diag, diag)
        theta = SampleSizeDistribution.point(90)
        p = np.array([16.0, 5.0, 57.0, 12.0]) / 90.0
        got = contracting_response_vector(g, 1, theta, p, rule)
        assert np.max(np.abs(got - reference_response(diag, theta, p, rule))) <= 1e-12

    @pytest.mark.parametrize("diag", [(1e200, 1e200), (3.0, 1e200, 1e200)])
    def test_payoffs_whose_product_overflows(self, diag):
        # sample payoffs up to 10 * 1e200, near the top of the float range
        g = ContractingGame(diag, diag)
        theta = SampleSizeDistribution.point(10)
        p = np.full(len(diag), 1.0 / len(diag))
        for rule in ContractTieRule:
            got = contracting_response_vector(g, 1, theta, p, rule)
            assert np.max(np.abs(got - reference_response(diag, theta, p, rule))) <= 1e-12

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
        )
        assert np.max(np.abs(got - want)) <= 1e-12


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
    got = contracting_response_vector(g, player, theta, p, rule)
    want = reference_response(g.diag(player), theta, p, rule)
    assert np.max(np.abs(got - np.array(want))) <= 1e-12
    assert abs(got.sum() - 1.0) <= 1e-12


def _contracting_label(s1, s2, w1, w2, pareto, near) -> str:
    """The reference for an equilibrium's label from its strict (s) and weak
    (w) products, with the band test ``near``."""
    if s1 > 1.0 + MARGINAL_BAND or s2 > 1.0 + MARGINAL_BAND:
        return "unstable"
    if pareto and w1 < 1.0 - MARGINAL_BAND and w2 < 1.0 - MARGINAL_BAND:
        return "asymptotically-stable"
    if any(near(v, 1.0) for v in (s1, s2, w1, w2)):
        return "boundary"
    return "undetermined"


def _mineffort_label(v) -> Stability:
    """The reference for a minimum-effort pure state's label."""
    if v < 1.0 - MARGINAL_BAND:
        return Stability.STABLE
    if v > 1.0 + MARGINAL_BAND:
        return Stability.UNSTABLE
    return Stability.MARGINAL


class TestContractingStability:
    def test_labels_match_the_reference(self, rng, monkeypatch):
        # size-1 masses are 1, so the truncated expectations are the products;
        # action 1 of this game is Pareto efficient, action 0 is not
        g = ContractingGame((1.0, 2.0), (1.0, 2.0))
        theta1, theta2 = SampleSizeDistribution.point(1), SampleSizeDistribution.of({1: 1.0})
        table = {}
        monkeypatch.setattr(extensions, "truncated_expectation",
                            lambda theta, m, mode: table[theta is theta1, mode])
        splits = 0
        for v in band_inputs(rng):
            r = rng.uniform(0.0, 1.0, 3).tolist()
            # a strict product never exceeds the weak one of its population
            edges = (v, v), (v * r[1], v), (v, v + r[2])
            others = (3.0 * r[0] * r[1], 3.0 * r[0]), (0.0, 0.0)
            for edge, other in itertools.product(edges, others):
                for (s1, w1), (s2, w2) in ((edge, other), (other, edge)):
                    table.update({(False, "strict"): s1, (True, "strict"): s2,
                                  (False, "weak"): w1, (True, "weak"): w2})
                    got = [rep.label for rep in contracting_pure_stability(g, theta1, theta2)]
                    want = [band_reference(
                        lambda near: _contracting_label(s1, s2, w1, w2, pareto, near),
                        (s1, s2, w1, w2), 1.0) for pareto in (False, True)]
                    assert got == [label for label, _ in want], (s1, s2, w1, w2)
                    splits += want[0][1]
        assert splits  # the inputs reach the doubles where the band tests differ

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
        g = ContractingGame((1.0, 1.0), (2.0, 2.0))
        with pytest.raises(ValueError):
            contracting_pure_stability(
                g, SampleSizeDistribution.point(2), SampleSizeDistribution.point(2)
            )


class TestMinEffortResponse:
    def test_boundaries(self):
        for obs in Observation:
            g = MinEffortGame(3, 0.4, obs)
            theta = SampleSizeDistribution.of({1: 0.3, 4: 0.7})
            assert MinEffortResponse(g, theta)(0.0) == 0.0
            assert MinEffortResponse(g, theta)(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_minimum_mode_low_sample_formula(self):
        g = MinEffortGame(3, 0.5, Observation.MINIMUM_EFFORT)
        theta = SampleSizeDistribution.point(2)
        assert MinEffortResponse(g, theta)(0.3) == pytest.approx(1 - 0.7**6, abs=1e-12)

    def test_minimum_mode_mixture_formula(self):
        # every supported size is below 1/(1-c): response is the mixture of
        # 1 - (1-p)^(kN) terms
        g = MinEffortGame(4, 0.8, Observation.MINIMUM_EFFORT)
        theta = SampleSizeDistribution.of({1: 0.25, 2: 0.25, 4: 0.5})
        ps = np.linspace(0.0, 1.0, 41)
        expected = (
            0.25 * (1 - (1 - ps) ** 4)
            + 0.25 * (1 - (1 - ps) ** 8)
            + 0.5 * (1 - (1 - ps) ** 16)
        )
        assert np.allclose(MinEffortResponse(g, theta)(ps), expected, atol=1e-12)

    def test_two_player_reductions(self, rng):
        # N = 2 collapses onto the two-action sampling response with
        # u = c/(1-c) and ties toward high effort, at the chance
        # q = 1 - (1-p)^2 that a round's minimum reads low under
        # minimum-effort observation and at p under action observation
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
                got = MinEffortResponse(g, theta)(ps)
                assert np.allclose(got, w(1.0 - (1.0 - ps) ** 2), atol=1e-9)
            theta = SampleSizeDistribution.point(int(rng.integers(1, 13)))
            g = MinEffortGame(2, c, Observation.OPPONENT_ACTION)
            w = SamplingResponse(u, theta, TieBreak.FAVOR_B)
            assert np.allclose(MinEffortResponse(g, theta)(ps), w(ps), atol=1e-9)

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

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(a=st.integers(1, 1000), d=st.integers(1, 1000), n=st.integers(2, 8),
           k=st.integers(1, MAX_SAMPLE_SIZE), tie=st.booleans())
    @example(a=9, d=11, n=6, k=950100, tie=False)  # c = 0.45: 522,555 exactly
    def test_thresholds_are_exact_at_rational_costs(self, a, d, n, k, tie):
        # c = a/(a + d): minimum-effort observation goes low on
        # x >= k d/(a + d), ties to low, and action observation at N = 2 on
        # x > k d/(a + d); a tie whenever a + d divides k
        if tie:
            k = max(k - k % (a + d), a + d)
        cut, rest = divmod(k * d, a + d)
        c, theta = a / (a + d), SampleSizeDistribution.point(k)
        for game, want in ((MinEffortGame(n, c, Observation.MINIMUM_EFFORT), cut + (rest > 0)),
                           (MinEffortGame(2, c, Observation.OPPONENT_ACTION), cut + 1)):
            ((_, _, m),) = MinEffortResponse(game, theta)._atoms
            assert m == want, game

    @pytest.mark.parametrize("observation", list(Observation))
    def test_costs_next_to_one_need_one_observation(self, observation):
        # c^(1/7) rounds to 1 at c = 1 - 2^-53, an infinite effective payoff
        c = 1.0 - 2.0**-53
        assert MinEffortGame(8, c, Observation.OPPONENT_ACTION).u == math.inf
        theta = SampleSizeDistribution.of({1: 0.5, 1000: 0.25, MAX_SAMPLE_SIZE: 0.25})
        for n in range(2, 9):
            game = MinEffortGame(n, c, observation)
            assert [m for _, _, m in MinEffortResponse(game, theta)._atoms] == [1, 1, 1], n
            assert mineffort_stable_interior(game, k=2, big_k=10, alpha_step=0.5).in_scope


# costs with k * cut integral for some k <= 12 under N = 2-4 players, where
# the tie rules of the thresholds decide
TIE_COSTS = (0.5, 0.25, 0.75, 0.64, 1.0 / 9.0, 0.8, 0.2)


def _mineffort_games(observation):
    costs = st.one_of(st.sampled_from(TIE_COSTS), st.floats(0.05, 0.95))
    return st.builds(MinEffortGame, st.integers(2, 6), costs, st.just(observation))


class TestMinEffortStability:
    """Propositions 7 and 8 are ``classify_pure_states`` on the game's own
    response: state a is the safe state (everyone low), state b the
    efficient one (everyone high)."""

    def test_unit_sample_example(self):
        g = MinEffortGame(2, 0.5, Observation.MINIMUM_EFFORT)
        pure = classify_pure_states(MinEffortResponse(g, SampleSizeDistribution.point(1)))
        assert pure.state_a.stability == Stability.STABLE
        assert pure.state_b.stability == Stability.UNSTABLE

    def test_large_samples_keep_efficient_stable(self):
        # k > 1/(1-c): no agent flips on one low round
        g = MinEffortGame(2, 0.5, Observation.MINIMUM_EFFORT)
        pure = classify_pure_states(MinEffortResponse(g, SampleSizeDistribution.point(5)))
        assert pure.state_b.stability == Stability.STABLE

    def test_costly_effort_example(self):
        # the efficient sum 0.4 is above 1/N = 0.25: its corner slope is N * 0.4
        g = MinEffortGame(4, 0.9, Observation.MINIMUM_EFFORT)
        theta = SampleSizeDistribution.of({1: 0.4, 20: 0.6})
        pure = classify_pure_states(MinEffortResponse(g, theta))
        assert pure.state_b.slope_product == pytest.approx(1.6)
        assert pure.state_b.stability == Stability.UNSTABLE
        assert pure.state_a.slope_product == 0.0
        assert pure.state_a.stability == Stability.STABLE

    def test_action_mode_two_player_reduction(self, rng):
        # thresholds collapse onto the two-action corner products
        from samplingdyn.dynamics import Environment

        for _ in range(50):
            c = float(rng.uniform(0.15, 0.85))
            theta = SampleSizeDistribution.of({1: 0.5, int(rng.integers(2, 13)): 0.5})
            g = MinEffortGame(2, c, Observation.OPPONENT_ACTION)
            got = classify_pure_states(MinEffortResponse(g, theta))
            pure = classify_pure_states(Environment.symmetric(c / (1.0 - c), theta))
            # low effort is the first action of the reduced game
            if pure.state_a.stability != Stability.MARGINAL:
                assert got.state_a.stability == pure.state_a.stability
            if pure.state_b.stability != Stability.MARGINAL:
                assert got.state_b.stability == pure.state_b.stability

    def test_labels_match_the_reference(self, rng, monkeypatch):
        # the corner slopes are read off the response, so the band inputs go in there
        slopes, theta = {}, SampleSizeDistribution.point(2)
        monkeypatch.setattr(MinEffortResponse, "corner_slopes",
                            lambda self: (slopes["efficient"], slopes["safe"]))
        for v in band_inputs(rng):
            r = float(rng.uniform(0.0, 3.0))
            for observation in Observation:
                response = MinEffortResponse(MinEffortGame(3, 0.4, observation), theta)
                for safe, efficient in ((v, r), (r, v)):
                    slopes.update(efficient=efficient, safe=safe)
                    pure = classify_pure_states(response)
                    want = (_mineffort_label(safe), _mineffort_label(efficient))
                    assert (pure.state_a.stability, pure.state_b.stability) == want, (v, r)

    @pytest.mark.parametrize("observation", list(Observation))
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), theta=theta_strategy())
    def test_action_labels_equal_the_stationary_corners(self, observation, data, theta):
        # Propositions 7 and 8 are the response's slopes at the corners
        game = data.draw(_mineffort_games(observation))
        response = MinEffortResponse(game, theta)
        res = find_stationary_one_pop(response)
        assume(not res.continuum)
        corners = {s.p1: s for s in res.states if s.p1 in (0.0, 1.0)}
        pure = classify_pure_states(response)
        for got, want in ((pure.state_b, corners[0.0]), (pure.state_a, corners[1.0])):
            assert got.stability == want.stability, (game, theta)
            assert math.isclose(got.slope_product, want.slope_product, rel_tol=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(game=_mineffort_games(Observation.MINIMUM_EFFORT), theta=theta_strategy())
    def test_minimum_labels_move_only_off_the_weak_strict_margin(self, game, theta):
        # the weak and strict sums cut at 1/(1 - c) called "marginal" wherever
        # they disagreed; the threshold sum is one of the two, and the slope
        # at the efficient corner is N times it (Proposition 7's 1/N bound)
        n, cut = game.n_players, 1.0 / (1.0 - game.cost)
        weak, strict = (truncated_expectation(theta, cut, mode) for mode in ("weak", "strict"))
        old = classify_slope(weak, strict, 1.0 / n)
        pure = classify_pure_states(MinEffortResponse(game, theta))
        assert pure.state_a.slope_product == 0.0
        assert pure.state_a.stability == Stability.STABLE
        assert pure.state_b.slope_product in (n * weak, n * strict)
        assert pure.state_b.stability == old or old == Stability.MARGINAL, (game, theta)

    def test_stable_interior_search(self):
        g = MinEffortGame(2, 0.6, Observation.MINIMUM_EFFORT)
        res = mineffort_stable_interior(g, k=2, big_k=1000, alpha_step=0.01)
        assert res.found and res.in_scope
        response = MinEffortResponse(
            g, SampleSizeDistribution.of({2: res.alpha, 1000: 1.0 - res.alpha})
        )
        assert abs(response(res.state.state) - res.state.state) < 1e-10
        assert response.derivative(res.state.state) < 1.0

    def test_search_flags_hypothesis_violation(self):
        g = MinEffortGame(2, 0.6, Observation.MINIMUM_EFFORT)
        res = mineffort_stable_interior(g, k=3, big_k=1000, alpha_step=0.05)
        assert not res.in_scope

    def test_action_mode_search(self):
        # 1 < k < 1/(1 - c^(1/(N-1))) = 1/(1 - sqrt(0.64)) = 5
        g = MinEffortGame(3, 0.64, Observation.OPPONENT_ACTION)
        res = mineffort_stable_interior(g, k=2, big_k=1000, alpha_step=0.02)
        assert res.in_scope and res.found
