import sys
import threading

import numpy as np
import pytest
from scipy.stats import binom, chisquare

from conftest import logit_system, random_symmetric_env
from samplingdyn import dynamics, oracle
from samplingdyn.analysis import System
from samplingdyn.dynamics import Environment, LogitResponse, SampleSizeDistribution
from samplingdyn.extensions import MinEffortGame, MinEffortResponse, Observation
from samplingdyn.flow import integrate
from samplingdyn.games import CoordinationGame
from samplingdyn.oracle import DRAW_BLOCK, DRAW_CHUNKS, empirical_response, simulate_population

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

    @pytest.mark.parametrize("samples", [2.5, True, np.True_, "10", float("nan")])
    def test_samples_must_be_an_integer(self, samples):
        # 2.5 samples used to run as 2 chosen over 2.5, True as one sample
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
        with pytest.raises(ValueError, match="samples must be an integer"):
            empirical_response(env, 0.5, samples, seed=1)

    def test_integral_samples_of_any_type_run_as_the_int(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
        want = empirical_response(env, 0.5, 10, seed=1)
        assert empirical_response(env, 0.5, np.int64(10), seed=1) == want
        assert empirical_response(env, 0.5, 10.0, seed=1) == want


THETA_MIXED = SampleSizeDistribution.of({1: 0.2, 4: 0.5, 9: 0.3})


def _serial_estimate(env, p, samples, seed):
    """The chunks of ``empirical_response`` drawn one after another here."""
    (response,) = System.of(env, 1).responses
    table = oracle._draw_table(response)
    streams = np.random.SeedSequence(seed).spawn(DRAW_CHUNKS)
    base, extra = divmod(samples, DRAW_CHUNKS)
    chosen = sum(
        oracle._first_action_choices(np.random.default_rng(stream), table, base + (i < extra),
                                     p, block=DRAW_BLOCK // DRAW_CHUNKS)
        for i, stream in enumerate(streams))
    return chosen / samples


class TestChunkStreams:
    @pytest.mark.parametrize("samples", [1, 2, 3, 100_000, DRAW_BLOCK + 1])
    def test_threads_equal_the_chunks_drawn_in_turn(self, monkeypatch, samples):
        env = Environment.symmetric(1.7, THETA_MIXED)
        drawing = set()
        draw = oracle._first_action_choices

        def spy(*args, **kwargs):
            drawing.add(threading.get_ident())
            return draw(*args, **kwargs)

        monkeypatch.setattr(oracle, "_first_action_choices", spy)
        est, _ = empirical_response(env, 0.45, samples, seed=11)
        assert len(drawing) == DRAW_CHUNKS
        monkeypatch.undo()
        assert est == _serial_estimate(env, 0.45, samples, 11)

    def test_concurrent_calls_under_fast_switching(self):
        # eight calls at once run sixteen chunks on two cores, switching
        # threads every microsecond; each still reads its seed's estimate
        env = Environment.symmetric(1.7, THETA_MIXED)
        want = {seed: _serial_estimate(env, 0.6, 20_001, seed) for seed in range(8)}
        got = {}

        def call(seed):
            got[seed] = empirical_response(env, 0.6, 20_001, seed)[0]

        callers = [threading.Thread(target=call, args=(seed,)) for seed in want]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == want

    def test_a_seed_sequence_seeds_its_children(self):
        env = Environment.symmetric(1.7, THETA_MIXED)
        child = np.random.SeedSequence(4).spawn(2)[1]
        est, _ = empirical_response(env, 0.3, 5_000, child)
        again = np.random.SeedSequence(4).spawn(2)[1]
        assert est == empirical_response(env, 0.3, 5_000, again)[0]
        assert est != empirical_response(env, 0.3, 5_000, 4)[0]

    @pytest.mark.parametrize("failing", [0, 1], ids=["first-chunk", "second-chunk"])
    def test_a_failing_chunk_raises_and_no_thread_is_left(self, monkeypatch, failing):
        # 5 samples make chunks of 3 and 2, told apart by their size
        env = Environment.symmetric(1.7, THETA_MIXED)
        draw = oracle._first_action_choices

        def fail_one(rng, table, draws, p, **kwargs):
            if draws == (3, 2)[failing]:
                raise RuntimeError("chunk failed")
            return draw(rng, table, draws, p, **kwargs)

        monkeypatch.setattr(oracle, "_first_action_choices", fail_one)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk failed"):
            empirical_response(env, 0.5, 5, seed=1)
        assert threading.active_count() == before


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
        # n = 1000.5 used to run
        for n in (1000.5, True, "1000", float("inf")):
            with pytest.raises(ValueError, match="population size n must be an integer"):
                simulate_population(env, n=n, t_max=1.0)
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


class TestModelsTheOracleDoesNotPlay:
    """The newcomers draw opponent actions and compare the count with a
    threshold: a response that observes through an exponent, or that has
    no thresholds, would be simulated as another model or not at all."""

    MINIMUM = MinEffortResponse(MinEffortGame(3, 0.5), SampleSizeDistribution.point(2))
    LOGIT = LogitResponse(2.0, [(1.0, 0.3)])

    @pytest.mark.parametrize("response", [MINIMUM, LOGIT], ids=["minimum-effort", "logit"])
    def test_both_entries_refuse_it(self, response):
        # the minimum-effort estimate at p = 0.5 read 0.7524 +- 0.0014 where
        # w(0.5) = 0.984375; a logit response raised AttributeError
        with pytest.raises(ValueError, match="sample opponent actions"):
            empirical_response(response, 0.5, 1000, 1)
        with pytest.raises(ValueError, match="sample opponent actions"):
            simulate_population(response, n=500, t_max=0.1)

    def test_a_two_population_logit_system_is_refused(self):
        system = logit_system(CoordinationGame(2.5, 2.5), [(0.55, 0.55), (0.45, 0.01)])
        with pytest.raises(ValueError, match="sample opponent actions"):
            simulate_population(system, n=500, t_max=0.1)

    def test_action_observation_stays_a_sampling_model(self):
        # one observation is one opponent's action, so the draws are the model's
        game = MinEffortGame(3, 0.5, Observation.OPPONENT_ACTION)
        response = MinEffortResponse(game, SampleSizeDistribution.of({2: 0.5, 5: 0.5}))
        est, se = empirical_response(response, 0.5, 100_000, 1)
        assert abs(est - response(0.5)) < 4 * se
        traj = simulate_population(response, n=500, t_max=0.1, initial=0.5)
        assert len(traj.states) == 11
