import numpy as np
import pytest
from scipy.stats import binom, chisquare

from conftest import random_symmetric_env
from samplingdyn import dynamics
from samplingdyn.dynamics import Environment, SampleSizeDistribution
from samplingdyn.flow import integrate
from samplingdyn.games import CoordinationGame
from samplingdyn.oracle import empirical_response, simulate_population

THETA_15 = SampleSizeDistribution.of({1: 0.5, 5: 0.5})


class TestEmpiricalResponse:
    def test_unit_theta_recovers_share(self, rng):
        env = Environment.symmetric(2.0, SampleSizeDistribution.point(1))
        for p in (0.1, 0.5, 0.9):
            est, se = empirical_response(env, p, 200_000, seed=3)
            assert abs(est - p) < 3 * se + 1e-9

    def test_pair_sampling_value(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
        est, se = empirical_response(env, 0.5, 10**6, seed=42)
        assert abs(est - 0.75) < 3 * se

    def test_seed_determinism(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
        a = empirical_response(env, 0.37, 50_000, seed=9)
        b = empirical_response(env, 0.37, 50_000, seed=9)
        assert a == b

    def test_mean_field_agreement_grid(self, rng):
        # 20-point grid, several random environments, 4 standard errors
        # (the error scale uses the mean-field value too: an all-zero draw
        # has zero sample error but the true response can be small-positive)
        n = 20_000
        for _ in range(10):
            env = random_symmetric_env(rng, max_k=10)
            w = env.single_response()
            for p in np.linspace(0.0, 1.0, 20):
                est, se = empirical_response(env, float(p), n, seed=int(p * 1000))
                truth = w(float(p))
                scale = max(se, np.sqrt(max(truth * (1.0 - truth), 0.0) / n))
                assert abs(est - truth) <= 4 * scale + 1e-9

    def test_validation(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
        with pytest.raises(ValueError):
            empirical_response(env, 0.5, 0, seed=1)
        with pytest.raises(ValueError):
            empirical_response(env, 1.5, 10, seed=1)


class TestSimulatePopulation:
    def test_risk_dominant_takeover(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
        traj = simulate_population(env, n=20_000, t_max=40.0, dt=0.01, seed=1, initial=0.01)
        assert traj.final_state > 0.99

    def test_absorbing_zero(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
        traj = simulate_population(env, n=500, t_max=5.0, dt=0.01, seed=1, initial=0.0)
        assert np.all(traj.states == 0.0)

    def test_seed_determinism(self):
        env = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        a = simulate_population(env, n=1000, t_max=2.0, seed=42, initial=(0.5, 0.5))
        b = simulate_population(env, n=1000, t_max=2.0, seed=42, initial=(0.5, 0.5))
        assert np.array_equal(a.states, b.states)

    def test_tracks_mean_field(self):
        env = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        sim = simulate_population(
            env, n=50_000, t_max=30.0, dt=0.01, seed=7, initial=(0.5, 0.5)
        )
        ref = integrate(env, (0.5, 0.5), t_max=30.0, dt=0.01)
        m = min(len(sim.states), len(ref.states))
        gap = np.max(np.abs(sim.states[:m] - ref.states[:m]))
        assert gap < 0.03

    def test_states_stay_in_bounds(self):
        env = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        traj = simulate_population(env, n=500, t_max=5.0, seed=3)
        assert np.all((traj.states >= 0.0) & (traj.states <= 1.0))
        assert np.all(np.diff(traj.times) > 0)

    def test_validation(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
        with pytest.raises(ValueError):
            simulate_population(env, n=10, t_max=1.0)
        for dt in (0.0, 1.5, float("nan")):
            with pytest.raises(ValueError):
                simulate_population(env, n=500, t_max=1.0, dt=dt)
        for initial in (-0.2, 1.7):
            with pytest.raises(ValueError):
                simulate_population(env, n=500, t_max=0.0, initial=initial)
        asym = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        with pytest.raises(ValueError):
            simulate_population(asym, n=500, t_max=1.0, initial=0.5)


class TestCountLevelStep:
    def test_one_step_follows_the_per_agent_distribution(self):
        # n = 100 agents, 30 on the first action, one step of dt = 0.1: the
        # 30 keep it with probability 1 - dt + dt*w(p) and the other 70 take
        # it with probability dt*w(p), so the new count is the sum of two
        # binomials
        n, n_a, dt, runs = 100, 30, 0.1, 4000
        env = Environment.symmetric(3.0, SampleSizeDistribution.of({1: 0.3, 4: 0.7}))
        w = env.single_response()(n_a / n)
        states = np.array([
            simulate_population(env, n=n, t_max=dt, dt=dt, seed=seed, initial=n_a / n).states
            for seed in range(runs)
        ])
        assert states.shape == (runs, 2)
        counts = np.round(states * n)
        # shares are counts over n, up to the rounding of the division
        assert np.max(np.abs(states * n - counts)) < 1e-9
        assert np.all((counts >= 0) & (counts <= n))
        assert np.all(counts[:, 0] == n_a)

        values = np.arange(n + 1)
        stay = binom.pmf(values, n_a, 1.0 - dt + dt * w)
        join = binom.pmf(values, n - n_a, dt * w)
        exact = np.convolve(stay, join)[: n + 1]
        observed = np.bincount(counts[:, 1].astype(int), minlength=n + 1)
        # counts expected fewer than 5 times share one bin
        expected = runs * exact / exact.sum()
        rare = expected < 5
        pooled_obs = np.append(observed[~rare], observed[rare].sum())
        pooled_exp = np.append(expected[~rare], expected[rare].sum())
        assert chisquare(pooled_obs, pooled_exp).pvalue > 1e-3

    def test_draws_only_thresholds_not_the_analytic_tails(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle evaluated the analytic response")

        for name in ("_tail", "_tail_mixture", "_slope_mixture"):
            monkeypatch.setattr(dynamics, name, refuse)
        one = Environment.symmetric(1.2, THETA_15)
        est, se = empirical_response(one, 0.4, 10_000, seed=1)
        assert 0.0 < est < 1.0 and se > 0.0
        traj = simulate_population(one, n=1000, t_max=0.5, seed=2, initial=0.3)
        assert len(traj.states) == 51
        two = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        traj = simulate_population(two, n=1000, t_max=0.5, seed=2, initial=(0.5, 0.5))
        assert traj.states.shape == (51, 2)
