import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from conftest import random_env, random_symmetric_env, random_theta
from samplingdyn.analysis import (
    Stability,
    Verdict,
    check_homogeneous_uniqueness,
    check_theorem3,
    check_theorem4,
    classify_pure_states,
    find_stationary_one_pop,
    find_stationary_two_pop,
    miscoordination_probability,
    payoff_efficiency,
    stable_interior_search,
)
from samplingdyn.dynamics import (
    Environment,
    ResponsePair,
    SampleSizeDistribution,
    SamplingResponse,
)
from samplingdyn.games import CoordinationGame

THETA_15 = SampleSizeDistribution.of({1: 0.5, 5: 0.5})
THETA_3_1000 = SampleSizeDistribution.of({3: 0.5, 1000: 0.5})


class TestOnePopStationary:
    def test_pair_sampling_no_interior(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
        res = find_stationary_one_pop(env)
        assert [s.p1 for s in res.states] == [0.0, 1.0]
        assert res.states[0].stability == Stability.UNSTABLE
        assert res.states[1].stability == Stability.STABLE
        assert not res.interior()

    def test_triple_sampling_interior_unstable(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(3))
        res = find_stationary_one_pop(env)
        assert len(res.states) == 3
        inner = res.interior()[0]
        assert inner.p1 == pytest.approx(0.5, abs=1e-10)
        assert inner.stability == Stability.UNSTABLE
        assert res.states[0].stability == Stability.STABLE
        assert res.states[2].stability == Stability.STABLE

    def test_unit_theta_continuum(self):
        env = Environment.symmetric(1.7, SampleSizeDistribution.point(1))
        res = find_stationary_one_pop(env)
        assert res.continuum and not res.states

    def test_large_sample_mixture_has_stable_interior(self):
        # moving 45% of the pair-samplers to huge samples stabilizes mixing
        env = Environment.symmetric(
            1.5, SampleSizeDistribution.of({2: 0.55, 1000: 0.45})
        )
        res = find_stationary_one_pop(env)
        hits = res.stable_interior()
        assert hits and hits[0].p1 == pytest.approx(0.1818, abs=2e-3)

    def test_residuals_below_tolerance(self, rng):
        for _ in range(10):
            env = random_symmetric_env(rng)
            for s in find_stationary_one_pop(env).states:
                assert s.residual < 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    u=st.floats(1.0, 1.5, exclude_min=True, exclude_max=True),
    masses=st.tuples(*[st.floats(0.05, 1.0)] * 3),
)
# p = 0.5 is an exact root on the scan grid
@example(u=1.12, masses=(0.3, 0.6, 0.1))
def test_reported_states_are_stationary(u, masses):
    total = sum(masses)
    theta = SampleSizeDistribution.of({k: m / total for k, m in zip((1, 3, 5), masses)})
    env = Environment.symmetric(u, theta)
    for res in (find_stationary_one_pop(env), find_stationary_two_pop(env)):
        assert all(s.residual <= 1e-10 for s in res.states), res.states


class TestTwoPopStationary:
    def test_fig3_right_unique_stable_interior(self):
        env = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        res = find_stationary_two_pop(env)
        interior = res.interior()
        assert len(interior) == 1
        s = interior[0]
        assert s.p1 == pytest.approx(0.63, abs=0.01)
        assert s.p2 == pytest.approx(0.37, abs=0.01)
        assert s.stability == Stability.STABLE
        corners = [st for st in res.states if not st.is_interior()]
        assert all(st.stability == Stability.UNSTABLE for st in corners)

    def test_fig3_left_three_interior(self):
        env = Environment.of(CoordinationGame(20.0, 0.05), THETA_3_1000)
        res = find_stationary_two_pop(env)
        interior = res.interior()
        assert len(interior) == 3
        expected = [
            ((0.47, 0.05), Stability.UNSTABLE),
            ((0.77, 0.23), Stability.STABLE),
            ((0.95, 0.53), Stability.UNSTABLE),
        ]
        for s, (coords, label) in zip(interior, expected):
            assert s.p1 == pytest.approx(coords[0], abs=0.01)
            assert s.p2 == pytest.approx(coords[1], abs=0.01)
            assert s.stability == label

    def test_unit_theta_continuum(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(1))
        res = find_stationary_two_pop(env)
        assert res.continuum
        assert "symmetric" in res.note

    def test_symmetric_equivalence(self, rng):
        # two-population stable states of a symmetric environment are the
        # diagonal embeddings of the one-population stable states
        for _ in range(50):
            env = random_symmetric_env(rng, max_k=9)
            one = find_stationary_one_pop(env)
            two = find_stationary_two_pop(env)
            if one.continuum:
                assert two.continuum
                continue
            one_stable = [s.p1 for s in one.stable()]
            two_stable = [s.state for s in two.stable()]
            assert len(one_stable) == len(two_stable)
            for p, (p1, p2) in zip(one_stable, two_stable):
                assert p1 == pytest.approx(p, abs=1e-9)
                assert p2 == pytest.approx(p, abs=1e-9)

    def test_neighbor_alternation(self, rng):
        # no two adjacent stationary states are both asymptotically stable
        for _ in range(30):
            env = random_env(rng, max_k=9)
            res = find_stationary_two_pop(env)
            labels = [s.stability for s in res.states]
            for a, b in zip(labels, labels[1:]):
                assert not (a == Stability.STABLE and b == Stability.STABLE)

    def test_slope_rule_matches_neighborhood_sign_test(self, rng):
        # interior classification agrees with the curve-ordering test:
        # stable iff w2 is above the preimage curve of w1 just left of the
        # state and below it just right
        delta = 1e-4
        for _ in range(25):
            env = random_env(rng, max_k=9)
            pair = env.pair()
            res = find_stationary_two_pop(env)
            for s in res.interior(eps=1e-3):
                if s.stability == Stability.MARGINAL:
                    continue
                left = float(pair.w2(s.p1 - delta)) - float(pair.w1.inverse(s.p1 - delta))
                right = float(pair.w2(s.p1 + delta)) - float(pair.w1.inverse(s.p1 + delta))
                is_stable = left > 0 > right
                assert is_stable == (s.stability == Stability.STABLE)


class TestPureStates:
    def test_fig3_right_products(self):
        env = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        pure = classify_pure_states(env)
        assert pure.state_a.slope_product == pytest.approx(1.5, abs=1e-12)
        assert pure.state_b.slope_product == pytest.approx(1.5, abs=1e-12)
        assert pure.state_a.stability == Stability.UNSTABLE
        assert pure.state_a.leading_eigenvalue == pytest.approx(
            -1.0 + math.sqrt(1.5), abs=1e-12
        )

    def test_no_unit_samples_makes_first_corner_stable(self, rng):
        # with nobody sampling once, a single contrary observation never
        # flips anyone at the first-action corner
        for k in (2, 5, 9):
            env = Environment.of(
                CoordinationGame(1.3, 0.7),
                SampleSizeDistribution.point(k),
                random_theta(rng),
            )
            pure = classify_pure_states(env)
            assert pure.state_a.slope_product == 0.0
            assert pure.state_a.stability == Stability.STABLE

    def test_common_preference_first_corner_never_unstable(self, rng):
        # u_i > 1 for both: the a-product is at most theta1(1)*theta2(1) <= 1
        for _ in range(30):
            env = Environment.of(
                CoordinationGame(1.2, 1.2), random_theta(rng), random_theta(rng)
            )
            pure = classify_pure_states(env)
            assert pure.state_a.slope_product <= 1.0 + 1e-12
            assert pure.state_a.stability != Stability.UNSTABLE

    def test_products_equal_corner_slopes(self, rng):
        # the truncated-expectation products are exactly the response slope
        # products at the corners
        for _ in range(25):
            env = random_env(rng, max_k=9)
            pair = env.pair()
            pure = classify_pure_states(env)
            slope_a = float(pair.w1.derivative(1.0)) * float(pair.w2.derivative(1.0))
            slope_b = float(pair.w1.derivative(0.0)) * float(pair.w2.derivative(0.0))
            assert pure.state_a.slope_product == pytest.approx(slope_a, rel=1e-12)
            assert pure.state_b.slope_product == pytest.approx(slope_b, rel=1e-12)

    def test_one_population_variant(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
        pure = classify_pure_states(env, one_population=True)
        assert pure.state_a.state == 1.0 and pure.state_b.state == 0.0
        assert pure.state_a.eigenvalues == (pure.state_a.slope_product - 1.0,)


class TestTheorem4:
    def test_fig3_right_holds(self):
        env = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        rep = check_theorem4(env)
        assert rep.parts["part1"] == Verdict.HOLDS
        assert rep.conditions["part1_product_a"] == pytest.approx(1.5, abs=1e-12)
        assert rep.conditions["part1_product_b"] == pytest.approx(1.5, abs=1e-12)
        assert rep.parts["part2"] == Verdict.FAILS

    def test_no_unit_samples_fails_part1(self):
        env = Environment.of(
            CoordinationGame(5.0, 0.2),
            SampleSizeDistribution.point(2),
            SampleSizeDistribution.of({1: 0.4, 5: 0.6}),
        )
        rep = check_theorem4(env)
        assert rep.conditions["part1_product_a"] == 0.0
        assert rep.parts["part1"] == Verdict.FAILS
        assert rep.parts["part2"] == Verdict.HOLDS

    def test_unit_sample_boundary(self):
        env = Environment.of(
            CoordinationGame(2.0, 2.0), SampleSizeDistribution.point(1)
        )
        rep = check_theorem4(env)
        assert rep.parts["part1"] == Verdict.BOUNDARY

    def test_requires_canonical_form(self):
        env = Environment.of(CoordinationGame(0.5, 2.0), THETA_15)
        with pytest.raises(ValueError):
            check_theorem4(env)


class TestHomogeneousUniqueness:
    def test_triple_sampling(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(3))
        rep = check_homogeneous_uniqueness(env)
        assert rep.verdict == Verdict.HOLDS
        assert rep.conditions["interior_count"] == 1.0

    def test_pair_sampling(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
        rep = check_homogeneous_uniqueness(env)
        assert rep.verdict == Verdict.HOLDS
        assert rep.conditions["interior_count"] == 0.0

    def test_rejects_heterogeneous(self):
        env = Environment.of(CoordinationGame(2.0, 2.0), THETA_15)
        with pytest.raises(ValueError):
            check_homogeneous_uniqueness(env)

    def test_random_homogeneous_pairs(self, rng):
        for _ in range(25):
            k1, k2 = rng.integers(2, 13, size=2)
            env = Environment.of(
                CoordinationGame(
                    float(rng.uniform(0.15, 8.0)), float(rng.uniform(0.15, 8.0))
                ),
                SampleSizeDistribution.point(int(k1)),
                SampleSizeDistribution.point(int(k2)),
            )
            assert check_homogeneous_uniqueness(env).verdict == Verdict.HOLDS

    def test_composed_tail_oracle_spot_checks(self, rng):
        # independent fixed-point counter for compositions of binomial tails
        xs = np.linspace(0.0, 1.0, 10001)
        for _ in range(40):
            k1, k2 = (int(v) for v in rng.integers(1, 13, size=2))
            m1 = int(rng.integers(1, k1 + 1))
            m2 = int(rng.integers(1, k2 + 1))
            inner = binom.sf(m2 - 1, k2, xs)
            outer = binom.sf(m1 - 1, k1, inner)
            g = outer - xs
            signs = np.sign(g[1:-1])
            crossings = int(np.sum(signs[:-1] * signs[1:] < 0))
            assert crossings <= 1


class TestMiscoordination:
    def test_values(self):
        # 0.77*0.77 + 0.23*0.23
        assert miscoordination_probability((0.77, 0.23)) == pytest.approx(0.6458)
        assert miscoordination_probability((1.0, 1.0)) == 0.0
        for x in (0.0, 0.3, 1.0):
            assert miscoordination_probability((0.5, x)) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            miscoordination_probability((1.2, 0.5))


class TestStableInteriorSearch:
    def test_oyama_interval(self):
        res = stable_interior_search(
            CoordinationGame.symmetric(1.5),
            (SampleSizeDistribution.point(2),) * 2,
            big_k=1000,
            alpha_step=0.01,
        )
        assert res.found and res.in_scope
        assert 0.5 < res.alpha[0] < 0.6
        assert res.state.stability == Stability.STABLE

    def test_fig3_left_game_found_out_of_scope(self):
        res = stable_interior_search(
            CoordinationGame(20.0, 0.05),
            (SampleSizeDistribution.point(3),) * 2,
            big_k=1000,
            alpha_step=0.1,
        )
        # max(supp) = 3 exceeds u2 + 1 = 1.05, so the hypothesis fails,
        # yet the mixture search still finds the stable interior state
        assert not res.in_scope and res.found

    def test_unit_theta_flagged_and_empty(self):
        res = stable_interior_search(
            CoordinationGame.symmetric(1.5),
            (SampleSizeDistribution.point(1),) * 2,
            big_k=1000,
            alpha_step=0.2,
        )
        assert not res.in_scope and not res.found


class TestTheorem3:
    def test_fig3_left_holds(self):
        rep = check_theorem3(
            CoordinationGame(20.0, 0.05), (SampleSizeDistribution.point(3),) * 2, 1000
        )
        assert rep.verdict == Verdict.HOLDS
        assert rep.conditions["miscoordination"] == pytest.approx(0.6458, abs=5e-3)
        assert rep.conditions["p2"] < 0.5 < rep.conditions["p1"]

    def test_weak_asymmetry_fails(self):
        rep = check_theorem3(
            CoordinationGame(1.01, 1 / 1.01), (SampleSizeDistribution.point(2),) * 2, 1000
        )
        assert rep.verdict == Verdict.FAILS

    def test_symmetric_game_rejected(self):
        with pytest.raises(ValueError):
            check_theorem3(
                CoordinationGame(2.0, 2.0), (SampleSizeDistribution.point(2),) * 2
            )


class TestPayoffEfficiency:
    def test_identity_response_closed_form(self):
        # w(p) = p against uniform share: realized 2/3, best 3/4
        w = SamplingResponse(1.0, SampleSizeDistribution.point(1))
        assert payoff_efficiency(w, 1.0) == pytest.approx((2 / 3) / (3 / 4), abs=1e-6)

    def test_perfect_response_approaches_one(self):
        w = SamplingResponse(1.0, SampleSizeDistribution.point(1000))
        assert payoff_efficiency(w, 1.0) > 0.97
