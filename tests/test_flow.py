import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import random_env, random_symmetric_env
from samplingdyn.analysis import Stability, find_stationary_two_pop
from samplingdyn.dynamics import Environment, SampleSizeDistribution
from samplingdyn.flow import (
    convergence_limit,
    estimate_basins,
    integrate,
    terminal_states,
)
from samplingdyn.games import CoordinationGame

THETA_15 = SampleSizeDistribution.of({1: 0.5, 5: 0.5})


class TestIntegrate:
    def test_pair_sampling_global_convergence(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
        traj = integrate(env, 0.01, t_max=100.0)
        assert traj.converged
        assert traj.limit.p1 == pytest.approx(1.0, abs=1e-8)

    def test_triple_sampling_threshold_split(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(3))
        down = integrate(env, 0.49, t_max=200.0)
        up = integrate(env, 0.51, t_max=200.0)
        assert down.limit.p1 == pytest.approx(0.0, abs=1e-8)
        assert up.limit.p1 == pytest.approx(1.0, abs=1e-8)

    def test_rest_point_stays_put(self):
        env = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        res = find_stationary_two_pop(env)
        interior = res.interior()[0]
        traj = integrate(env, interior.state, t_max=50.0, stationary=res)
        drift = np.max(np.abs(np.atleast_2d(traj.states) - np.asarray(interior.state)))
        assert drift < 1e-8

    def test_time_strictly_increasing_and_in_bounds(self, rng):
        env = random_symmetric_env(rng)
        traj = integrate(env, float(rng.random()), t_max=30.0)
        assert np.all(np.diff(traj.times) > 0)
        assert np.all((traj.states >= 0.0) & (traj.states <= 1.0))

    def test_forward_invariance_random_suite(self, rng):
        for _ in range(100):
            env = random_env(rng, max_k=9)
            initial = tuple(rng.random(2))
            traj = integrate(env, initial, t_max=60.0)
            assert np.all((traj.states >= 0.0) & (traj.states <= 1.0))
            assert traj.max_clamp < 1e-8

    def test_monotone_approach_near_the_end(self, rng):
        for _ in range(10):
            env = random_symmetric_env(rng, max_k=9)
            traj = integrate(env, float(rng.random()), t_max=200.0)
            if not traj.converged or len(traj.times) < 20:
                continue
            limit = traj.limit.p1 if traj.limit else traj.states[-1]
            tail = traj.states[-max(2, len(traj.states) // 10):]
            dists = np.abs(tail - limit)
            assert np.all(np.diff(dists) <= 1e-12)

    def test_step_halving_stability(self, rng):
        for _ in range(5):
            env = random_env(rng, max_k=9)
            initial = tuple(rng.random(2))
            a = integrate(env, initial, t_max=200.0, dt=0.01)
            b = integrate(env, initial, t_max=200.0, dt=0.005)
            assert a.converged and b.converged
            assert np.max(np.abs(np.asarray(a.final_state) - np.asarray(b.final_state))) < 1e-8

    def test_limit_exists_across_random_suite(self, rng):
        for _ in range(25):
            env = random_env(rng, max_k=9)
            traj = integrate(env, tuple(rng.random(2)), t_max=500.0)
            assert traj.converged

    def test_matches_adaptive_reference_integrator(self):
        # cross-check one trajectory against scipy's adaptive RK45
        env = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        pair = env.pair()

        def rhs(_, x):
            return [
                float(pair.w1(min(max(x[1], 0.0), 1.0))) - x[0],
                float(pair.w2(min(max(x[0], 0.0), 1.0))) - x[1],
            ]

        ref = solve_ivp(rhs, (0.0, 40.0), [0.9, 0.1], rtol=1e-10, atol=1e-12)
        traj = integrate(env, (0.9, 0.1), t_max=40.0)
        assert traj.states[-1] == pytest.approx(ref.y[:, -1], abs=1e-6)

    @pytest.mark.parametrize(
        "initial, kwargs",
        [
            pytest.param(1.5, {}, id="initial-above-one"),
            pytest.param(float("nan"), {}, id="initial-nan"),
            pytest.param(0.5, {"dt": 0.0}, id="dt-zero"),
            pytest.param(0.5, {"dt": -1.0}, id="dt-negative"),
            pytest.param(0.5, {"dt": float("nan")}, id="dt-nan"),
            pytest.param(0.5, {"dt": float("inf")}, id="dt-inf"),
            pytest.param(0.5, {"t_max": float("nan")}, id="tmax-nan"),
            pytest.param(0.5, {"t_max": -1.0}, id="tmax-negative"),
            pytest.param((0.5, 0.5, 0.5), {}, id="initial-triple"),
        ],
    )
    def test_invalid_inputs(self, initial, kwargs):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
        with pytest.raises(ValueError):
            integrate(env, initial, **kwargs)

    def test_arity_mismatch(self):
        env = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        with pytest.raises(ValueError):
            integrate(env.pair(), 0.5)
        with pytest.raises(ValueError):
            integrate(env.response(1), (0.5, 0.5))
        with pytest.raises(ValueError, match="symmetric"):
            integrate(env, 0.5)


class TestConvergenceLimit:
    def test_fig3_left_inner_basin(self):
        env = Environment.of(
            CoordinationGame(20.0, 0.05), SampleSizeDistribution.of({3: 0.5, 1000: 0.5})
        )
        limit = convergence_limit(env, (0.6, 0.4), t_max=400.0)
        assert limit.p1 == pytest.approx(0.77, abs=1e-2)
        assert limit.p2 == pytest.approx(0.23, abs=1e-2)

    def test_corner_is_absorbing(self):
        env = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        limit = convergence_limit(env, (0.0, 0.0))
        assert limit.state == (0.0, 0.0)

    def test_global_miscoordination_env_stays_interior(self, rng):
        # when both corner products exceed one, interior starts stay interior
        env = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        for _ in range(5):
            limit = convergence_limit(env, tuple(rng.uniform(0.05, 0.95, 2)))
            assert limit.is_interior()


class TestTerminalStates:
    def test_batch_matches_scalar(self, rng):
        env = random_env(rng, max_k=9)
        starts = rng.random((8, 2))
        finals, ok = terminal_states(env, starts, t_max=300.0)
        assert ok.all()
        for row, final in zip(starts, finals):
            single = integrate(env, tuple(row), t_max=300.0)
            assert np.max(np.abs(np.asarray(single.final_state) - final)) < 1e-9


class TestBasins:
    def test_two_pop_globally_stable_interior(self):
        env = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        grid = estimate_basins(env, resolution=21, t_max=300.0)
        assert grid.flagged == 0
        interior_idx = [
            i for i, s in enumerate(grid.attractors) if s.is_interior()
        ][0]
        assert grid.shares[interior_idx] == pytest.approx(1.0)

    def test_retry_continues_slow_cells(self):
        # the slow eigenvalue -0.099 needs t ~ 217, past the default t_max
        env = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        grid = estimate_basins(env, resolution=5)
        assert grid.flagged == 0
        interior_idx = [i for i, s in enumerate(grid.attractors) if s.is_interior()]
        assert np.all(grid.cells == interior_idx[0])

    def test_one_pop_symmetric_split(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(3))
        grid = estimate_basins(env, resolution=101, t_max=100.0)
        share0 = grid.share_of(grid.attractors[0])  # p = 0
        share1 = grid.share_of(grid.attractors[-1])  # p = 1
        assert share0 == pytest.approx(50 / 101)
        assert share1 == pytest.approx(50 / 101)

    def test_single_attractor_takes_all(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
        grid = estimate_basins(env, resolution=33, t_max=100.0)
        assert grid.shares[len(grid.attractors) - 1] == pytest.approx(1.0)

    def test_shares_sum_to_one(self, rng):
        env = random_env(rng, max_k=7)
        grid = estimate_basins(env, resolution=9, t_max=300.0)
        assert sum(grid.shares.values()) == pytest.approx(
            1.0, abs=1.0 / grid.cells.size + 1e-12
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"resolution": 1}, id="resolution-1"),
            pytest.param({"resolution": 0}, id="resolution-0"),
            pytest.param({"resolution": 5, "dt": 0.0}, id="dt-zero"),
            pytest.param({"resolution": 5, "dt": -0.01}, id="dt-negative"),
            pytest.param({"resolution": 5, "t_max": -1.0}, id="tmax-negative"),
            pytest.param({"resolution": 5, "t_max": float("nan")}, id="tmax-nan"),
        ],
    )
    def test_resolution_validation(self, kwargs):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
        with pytest.raises(ValueError):
            estimate_basins(env, **kwargs)

    def test_arity_follows_the_system(self):
        # a symmetric Environment is one population; its pair is two
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(3))
        assert estimate_basins(env, resolution=5, t_max=100.0).cells.shape == (5,)
        grid = estimate_basins(env.pair(), resolution=5, t_max=100.0)
        assert grid.cells.shape == (5, 5)
        assert all(s.is_pair for s in grid.attractors)
