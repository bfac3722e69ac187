import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from conftest import (
    NanPastResponse,
    logit_system,
    random_env,
    random_symmetric_env,
    random_theta,
)
from samplingdyn import flow
from samplingdyn.analysis import Stability, System, _clamp01, find_stationary_two_pop
from samplingdyn.dynamics import (
    Environment,
    LogitResponse,
    ResponsePair,
    SampleSizeDistribution,
    SamplingResponse,
)
from samplingdyn.extensions import (
    ContractingGame,
    MinEffortGame,
    MinEffortResponse,
    Observation,
    integrate_contracting,
)
from samplingdyn.flow import estimate_basins, integrate, label_basins
from samplingdyn.games import CoordinationGame
from samplingdyn.oracle import simulate_population

THETA_15 = SampleSizeDistribution.of({1: 0.5, 5: 0.5})
FIG3_LEFT = Environment.of(
    CoordinationGame(20.0, 0.05), SampleSizeDistribution.of({3: 0.5, 1000: 0.5})
)
FIG3_RIGHT = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)


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
        traj = integrate(env, interior.state, t_max=50.0)
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
            assert np.max(np.abs(a.states[-1] - b.states[-1])) < 1e-8

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

    @pytest.mark.parametrize("run", [
        lambda env, t_max, dt: integrate(env, 0.5, t_max=t_max, dt=dt),
        lambda env, t_max, dt: estimate_basins(env, 3, t_max=t_max, dt=dt),
        lambda env, t_max, dt: label_basins(env, 3, t_max=t_max, dt=dt),
        lambda env, t_max, dt: simulate_population(env, 100, t_max, dt),
        lambda env, t_max, dt: integrate_contracting(
            ContractingGame((1.0, 2.0), (2.0, 1.0)), THETA_15, THETA_15,
            ((0.5, 0.5), (0.5, 0.5)), t_max, dt),
    ], ids=["integrate", "estimate_basins", "label_basins", "simulate_population",
            "integrate_contracting"])
    @pytest.mark.parametrize("t_max, dt", [(1e300, 1e-10), (1e300, 1e-300)])
    def test_a_step_count_past_the_float_range_is_a_value_error(self, run, t_max, dt):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
        with pytest.raises(ValueError, match=r"t_max / dt"):
            run(env, t_max, dt)

    def test_arity_mismatch(self):
        env = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        with pytest.raises(ValueError):
            integrate(env.pair(), 0.5)
        with pytest.raises(ValueError):
            integrate(env.response(1), (0.5, 0.5))
        with pytest.raises(ValueError, match="symmetric"):
            integrate(env, 0.5)


class TestNonFiniteState:
    """A response that turns NaN stops the run with NumericError, which
    names the step whose next state is not finite."""

    @pytest.mark.parametrize("cut, step", [(0.7, 1), (0.8, 2), (0.95, 3)])
    def test_one_population(self, cut, step):
        with pytest.raises(flow.NumericError, match=rf"^non-finite state at step {step}$"):
            integrate(NanPastResponse(cut), 0.0, t_max=10.0, dt=1.0)

    @pytest.mark.parametrize("cut, step", [(0.7, 1), (0.8, 2), (0.95, 3)])
    def test_two_populations(self, cut, step):
        # w2 reads population 1's stage states, which move as one population's
        pair = ResponsePair(NanPastResponse(2.0), NanPastResponse(cut))
        with pytest.raises(flow.NumericError, match=rf"^non-finite state at step {step}$"):
            integrate(pair, (0.0, 0.0), t_max=10.0, dt=1.0)

    def test_a_run_that_ends_first_is_finite(self):
        traj = integrate(NanPastResponse(0.95), 0.0, t_max=2.0, dt=1.0)
        assert not traj.converged and traj.states[:2].tolist() == [0.0, 0.625]
        assert 0.85 < traj.states[2] < 0.87


def _limit(env, initial, t_max=500.0):
    """The stationary state the trajectory from ``initial`` settles into."""
    traj = integrate(env, initial, t_max=t_max)
    assert traj.converged and traj.limit is not None, traj.verdict
    return traj.limit


class TestConvergenceLimit:
    def test_fig3_left_inner_basin(self):
        env = Environment.of(
            CoordinationGame(20.0, 0.05), SampleSizeDistribution.of({3: 0.5, 1000: 0.5})
        )
        limit = _limit(env, (0.6, 0.4), t_max=400.0)
        assert limit.p1 == pytest.approx(0.77, abs=1e-2)
        assert limit.p2 == pytest.approx(0.23, abs=1e-2)

    def test_corner_is_absorbing(self):
        env = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        limit = _limit(env, (0.0, 0.0))
        assert limit.state == (0.0, 0.0)

    def test_global_miscoordination_env_stays_interior(self, rng):
        # when both corner products exceed one, interior starts stay interior
        env = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        for _ in range(5):
            limit = _limit(env, tuple(rng.uniform(0.05, 0.95, 2)))
            assert limit.is_interior()


class TestTerminalStates:
    def test_batch_matches_scalar(self, rng):
        env = random_env(rng, max_k=9)
        starts = rng.random((8, 2))
        finals, ok = flow._terminal_states(System.of(env, 2).field, starts, 300.0, 0.01)
        assert ok.all()
        for row, final in zip(starts, finals):
            single = integrate(env, tuple(row), t_max=300.0)
            assert np.max(np.abs(single.states[-1] - final)) < 1e-9


class TestBasins:
    def test_two_pop_globally_stable_interior(self):
        env = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        grid = label_basins(env, resolution=21, t_max=300.0)
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
        grid = label_basins(env, resolution=101, t_max=100.0)
        share0 = grid.shares[0]  # p = 0
        share1 = grid.shares[len(grid.attractors) - 1]  # p = 1
        assert share0 == pytest.approx(50 / 101)
        assert share1 == pytest.approx(50 / 101)

    def test_single_attractor_takes_all(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
        grid = label_basins(env, resolution=33, t_max=100.0)
        assert grid.shares[len(grid.attractors) - 1] == pytest.approx(1.0)

    def test_shares_sum_to_one(self, rng):
        env = random_env(rng, max_k=7)
        grid = label_basins(env, resolution=9, t_max=300.0)
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
        for basins in (estimate_basins, label_basins):
            with pytest.raises(ValueError):
                basins(env, **kwargs)

    def test_arity_follows_the_system(self):
        # a symmetric Environment is one population; its pair is two
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(3))
        for basins in (estimate_basins, label_basins):
            assert basins(env, resolution=5, t_max=100.0).cells.shape == (5,)
            grid = basins(env.pair(), resolution=5, t_max=100.0)
            assert grid.cells.shape == (5, 5)
            assert all(s.is_pair for s in grid.attractors)

    def test_marginal_state_takes_its_cells(self):
        # w(p) - p < 0 above the marginal state 0 (slope 1), which the
        # trajectory from p = 1/18 only approaches algebraically
        game = MinEffortGame(3, 0.4, Observation.OPPONENT_ACTION)
        w = MinEffortResponse(game, SampleSizeDistribution.of({2: 0.5, 6: 0.5}))
        grid = label_basins(w, resolution=9, t_max=260.0, dt=0.05)
        assert grid.attractors[0].state == 0.0
        assert grid.attractors[0].stability == Stability.MARGINAL
        assert grid.cells[0] == 0
        assert grid.flagged == 0 and grid.integrated == 0

    @pytest.mark.parametrize("env", [FIG3_LEFT, FIG3_RIGHT], ids=["left", "right"])
    def test_figure3_panels_need_no_integration(self, env):
        grid = label_basins(env, resolution=99, t_max=260.0, dt=0.01)
        assert grid.integrated == 0 and grid.flagged == 0
        # cooperative dynamics: labels, ordered like the states, never
        # decrease along a row or a column
        assert np.all(np.diff(grid.cells, axis=0) >= 0)
        assert np.all(np.diff(grid.cells, axis=1) >= 0)

    @pytest.mark.parametrize(
        "env, t_max, integrated",
        [
            # the saddle's stable manifold is the anti-diagonal p1 + p2 = 1,
            # through the centers of 5 cells; the middle one is the saddle,
            # at rest, so 4 are stepped
            pytest.param(
                Environment.symmetric(1.0, SampleSizeDistribution.point(3)).pair(),
                260.0,
                4,
                id="cells-on-a-separatrix",
            ),
            # the corner (1, 1) has slope product 1 * (0.5 + 0.25 * 2) = 1, so
            # no separatrix is traced; the 20 cells whose field has mixed
            # signs are stepped until it has one, and the corner, which
            # brute force approaches only algebraically, takes its cell
            pytest.param(
                Environment.of(
                    CoordinationGame(3.0, 0.5),
                    SampleSizeDistribution.point(1),
                    SampleSizeDistribution.of({1: 0.5, 2: 0.25, 9: 0.25}),
                ),
                20.0,
                20,
                id="marginal-state",
            ),
        ],
    )
    def test_fallback_cells_are_counted(self, env, t_max, integrated):
        grid = label_basins(env, resolution=5, t_max=t_max, dt=0.1)
        assert grid.integrated == integrated and grid.flagged == 0
        ref = estimate_basins(env, resolution=5, t_max=260.0, dt=0.1).cells
        assert np.array_equal(np.where(ref >= 0, ref, grid.cells), grid.cells)

    def test_reference_integrates_every_cell(self):
        env = Environment.symmetric(1.2, SampleSizeDistribution.point(3))
        grid = estimate_basins(env.pair(), resolution=5, t_max=100.0)
        assert grid.integrated == 25 and grid.flagged == 0
        fast = label_basins(env.pair(), resolution=5, t_max=100.0)
        assert fast.integrated == 4  # the cells on the anti-diagonal separatrix but the saddle's
        assert np.array_equal(grid.cells, fast.cells)


# the brute-force labels of each system, which the order-rule tests read
# again over the same derandomized draws as the label tests
_BRUTE_FORCE: dict = {}


def _assert_matches_brute_force(system, resolution, t_max=260.0, dt=0.05):
    """Equal labels wherever the reference converges to a listed state."""
    cells = label_basins(system, resolution, t_max=t_max, dt=dt).cells
    key = (repr(system), resolution, t_max, dt)
    if key not in _BRUTE_FORCE:
        _BRUTE_FORCE[key] = estimate_basins(system, resolution, t_max=t_max, dt=dt).cells
    ref = _BRUTE_FORCE[key]
    assert np.array_equal(np.where(ref >= 0, ref, cells), cells)


@st.composite
def _thetas(draw):
    """One or two small sample sizes, often next to a large one."""
    masses = draw(st.dictionaries(st.integers(1, 6), st.floats(0.1, 1.0), min_size=1, max_size=2))
    if draw(st.booleans()):
        masses[draw(st.sampled_from([20, 100, 1000]))] = draw(st.floats(0.1, 1.0))
    total = sum(masses.values())
    return SampleSizeDistribution.of({k: m / total for k, m in masses.items()})


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    u1=st.floats(0.0, 3.2).map(math.exp),
    u2=st.floats(-3.2, 1.0).map(math.exp),
    theta1=_thetas(),
    theta2=_thetas(),
)
def test_two_population_labels_match_brute_force(u1, u2, theta1, theta2):
    pair = Environment.of(CoordinationGame(u1, u2), theta1, theta2).pair()
    assume(not System.of(pair).stationary().continuum)
    _assert_matches_brute_force(pair, 9)


def _without_separatrices(monkeypatch):
    """Send every two-population cell through the order rule."""
    monkeypatch.setattr(flow, "_separatrix_labels",
                        lambda system, centers, x0, *rest: np.full(len(x0), flow._UNLABELLED))


def test_two_population_order_rule_matches_brute_force(monkeypatch):
    _without_separatrices(monkeypatch)
    test_two_population_labels_match_brute_force()


_GROUPS = st.one_of(
    st.tuples(st.tuples(st.just(1.0), st.floats(-4.0, 0.0).map(math.exp))),
    st.floats(0.1, 0.9).flatmap(
        lambda m: st.tuples(
            st.tuples(st.just(m), st.floats(-4.0, -1.0).map(math.exp)),
            st.tuples(st.just(1.0 - m), st.floats(-1.0, 1.0).map(math.exp)),
        )
    ),
)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    u1=st.floats(-1.5, 2.0).map(math.exp),
    u2=st.floats(-1.5, 2.0).map(math.exp),
    groups1=_GROUPS,
    groups2=_GROUPS,
)
def test_logit_labels_match_brute_force(u1, u2, groups1, groups2):
    _assert_matches_brute_force(
        logit_system(CoordinationGame(u1, u2), groups1, groups2), 9
    )


def test_logit_order_rule_matches_brute_force(monkeypatch):
    _without_separatrices(monkeypatch)
    test_logit_labels_match_brute_force()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(u=st.floats(-2.0, 2.5).map(math.exp), theta=_thetas())
def test_one_population_labels_match_brute_force(u, theta):
    env = Environment.symmetric(u, theta)
    assume(not System.of(env).stationary().continuum)
    _assert_matches_brute_force(env, 41)


def test_figure3_left_labels_match_brute_force():
    _assert_matches_brute_force(FIG3_LEFT.pair(), 33)


# The float path as it was before the fused RK4 step, kept as the reference
# that the step, ``integrate`` and the separatrix traces must equal bit for
# bit: a clamped field on a state sequence, one RK4 step over tuples, the
# recording loop, and the backward trace on the negated field.
def _reference_rhs(system):
    if system.dim == 1:
        w = system.responses[0]._kernel

        def rhs(state):
            p = _clamp01(state[0])
            return (w(p) - p,)

        return rhs
    w1, w2 = (w._kernel for w in system.responses)

    def rhs(state):
        p1, p2 = _clamp01(state[0]), _clamp01(state[1])
        return (w1(p2) - p1, w2(p1) - p2)

    return rhs


def _reference_rk4_step(rhs, x, dt, k1):
    half = 0.5 * dt
    k2 = rhs([xi + half * ki for xi, ki in zip(x, k1)])
    k3 = rhs([xi + half * ki for xi, ki in zip(x, k2)])
    k4 = rhs([xi + dt * ki for xi, ki in zip(x, k3)])
    sixth = dt / 6.0
    return tuple(
        xi + sixth * (a + 2.0 * b + 2.0 * c + d)
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    )


def _reference_integrate(system, initial, t_max, dt):
    system = System.of(system, np.size(initial))
    rhs = _reference_rhs(system)
    x = tuple(float(v) for v in np.atleast_1d(initial))
    times, path = [0.0], [x]
    converged, max_clamp = False, 0.0
    for step in range(1, int(round(t_max / dt)) + 1):
        k1 = rhs(x)
        if max(map(abs, k1)) < flow.CONVERGENCE_TOL:
            converged = True
            break
        raw = _reference_rk4_step(rhs, x, dt, k1)
        assert all(map(math.isfinite, raw))
        x = tuple(map(_clamp01, raw))
        max_clamp = max(max_clamp, *(abs(a - b) for a, b in zip(x, raw)))
        times.append(step * dt)
        path.append(x)
    else:
        converged = max(abs(v) for v in rhs(x)) < flow.CONVERGENCE_TOL
    limit = None
    if converged:
        stationary = system.stationary()
        (i,) = flow._match_labels(np.asarray([x]), True, stationary, flow.MATCH_TOL)
        limit = stationary.states[i] if i >= 0 else None
    states = np.asarray(path)
    if system.dim == 1:
        states = states[:, 0]
    return np.asarray(times), states, converged, limit, max_clamp


def _reference_stable_manifold(system, saddle, t_max, dt):
    w1, w2 = system.responses
    p1, p2 = saddle.state
    v = (math.sqrt(w1.derivative(p2)), -math.sqrt(w2.derivative(p1)))
    scale = flow.SEPARATRIX_OFFSET / math.hypot(*v)
    rhs = _reference_rhs(system)

    def back(x):
        return tuple(-f for f in rhs(x))

    branches = []
    for sign in (-1.0, 1.0):
        x = (p1 + sign * scale * v[0], p2 + sign * scale * v[1])
        k = back(x)
        points, tangents = [x], [k]
        for _ in range(int(round(t_max / dt))):
            x = _reference_rk4_step(back, x, dt, k)
            k = back(x)
            points.append(x)
            tangents.append(k)
            if not all(0.0 <= c <= 1.0 for c in x):
                break
        else:
            return None
        branches.append((points, tangents))
    (up_pts, up_tan), (down_pts, down_tan) = branches
    pts = np.array(up_pts[::-1] + [saddle.state] + down_pts)
    tan = np.array(up_tan[::-1] + [v] + down_tan)
    if not (np.all(np.diff(pts[:, 0]) >= 0.0) and np.all(np.diff(pts[:, 1]) <= 0.0)):
        return None
    s = pts[:, 0] - pts[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = (tan[:, 0] + tan[:, 1]) / (tan[:, 0] - tan[:, 1])
    if np.any(np.diff(s) <= 0.0) or not np.all(np.isfinite(slopes)):
        return None
    return s, pts[:, 0] + pts[:, 1], slopes


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _reference_suite():
    """(system, start, t_max, dt) runs over every response kind, both
    arities and starts at 0 and 1; dt = 2.5 overshoots the square, so
    those runs clamp."""
    rng = np.random.default_rng(1414)
    systems = []
    for k in range(1, 13):
        u = float(rng.uniform(0.15, 8.0))
        systems.append(SamplingResponse(u, SampleSizeDistribution.point(k)))
    for _ in range(6):
        systems.append(SamplingResponse(float(rng.uniform(0.15, 8.0)), random_theta(rng, big_k=1000)))
        systems.append(random_env(rng))
        systems.append(random_env(rng, big_k=1000))
    eta = [float(e) for e in rng.uniform(0.05, 1.0, 3)]
    for groups in ([(1.0, eta[0])], [(0.3, eta[1]), (0.7, eta[2])]):
        systems.append(LogitResponse(float(rng.uniform(0.15, 8.0)), groups))
        systems.append(logit_system(CoordinationGame(*rng.uniform(0.15, 8.0, 2)), groups))
    mixed = SampleSizeDistribution.of({1: 0.5, 1000: 0.5})
    for game in (
        MinEffortGame(3, 0.4, Observation.MINIMUM_EFFORT),
        MinEffortGame(4, 0.3, Observation.OPPONENT_ACTION),
        MinEffortGame(3, 1.0 - 1e-13, Observation.MINIMUM_EFFORT),  # every threshold 1
        MinEffortGame(2, 1e-13, Observation.OPPONENT_ACTION),  # every threshold past k
    ):
        systems.append(MinEffortResponse(game, mixed))
        systems.append(MinEffortResponse(game, random_theta(rng)))
    # float kernels over tails of one to five atoms, observation exponents
    # 1 to 5 and one to three logit groups
    for sizes in ((4,), (2, 9), (1, 3, 7), (1, 2, 5, 8), (1, 2, 5, 8, 11)):
        theta = SampleSizeDistribution.of({k: 1.0 / len(sizes) for k in sizes})
        systems.append(SamplingResponse(1.7, theta))
    for n_players in range(2, 7):
        game = MinEffortGame(n_players, 0.4, Observation.MINIMUM_EFFORT)
        systems.append(MinEffortResponse(game, SampleSizeDistribution.of({1: 0.3, 4: 0.7})))
    three = [(0.2, 0.1), (0.3, 0.4), (0.5, 0.9)]
    systems.append(LogitResponse(2.5, three))
    systems.append(logit_system(CoordinationGame(3.0, 0.4), three, [(1.0, 0.3)]))
    runs = []
    for system in systems:
        dim = System.of(system).dim
        starts = [0.0, 1.0, float(rng.random())] if dim == 1 else [
            (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), tuple(rng.random(2))
        ]
        for i, start in enumerate(starts):
            runs.append((system, start, 3.0, 0.05 if i % 2 else 0.01))
        runs.append((system, starts[-1], 25.0, 2.5))
    runs.append((FIG3_RIGHT, (0.9, 0.1), 30.0, 0.01))  # converges at t = 11.6
    return runs


class TestFusedStep:
    def test_integrate_matches_the_reference_bit_for_bit(self):
        clamped = converged = 0
        for system, start, t_max, dt in _reference_suite():
            traj = integrate(system, start, t_max=t_max, dt=dt)
            times, states, ok, limit, max_clamp = _reference_integrate(system, start, t_max, dt)
            where = (system, start, dt)
            assert _same_bits(traj.times, times), where
            assert _same_bits(traj.states, states), where
            assert traj.converged == ok, where
            assert traj.limit == limit, where
            assert _same_bits(traj.max_clamp, max_clamp), where
            clamped += max_clamp > 0.0
            converged += ok and len(times) > 100
        assert clamped >= 10 and converged >= 1, (clamped, converged)

    def test_separatrix_traces_match_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(2718)
        envs = [FIG3_LEFT] + [random_env(rng, max_k=9) for _ in range(20)]
        traced = 0
        for env in envs:
            system = System.of(env, 2)
            stationary = system.stationary()
            if stationary.continuum:
                continue
            for saddle in stationary.states:
                if not (saddle.is_interior() and saddle.stability == Stability.UNSTABLE):
                    continue
                for dt in (0.01, 0.05):
                    got = flow._stable_manifold(system, saddle, 260.0, dt)
                    ref = _reference_stable_manifold(system, saddle, 260.0, dt)
                    assert (got is None) == (ref is None), (env, dt)
                    if got is not None:
                        assert all(_same_bits(a, b) for a, b in zip(got, ref)), (env, dt)
                        traced += 1
        assert traced >= 8, traced

    def test_a_trace_keeps_the_return_shape(self):
        system = System.of(FIG3_LEFT, 2)
        paths, left, max_clamp = system.rk4_path((0.5, 0.5), -0.01, 3, _trace=True)
        assert not left and max_clamp == 0.0
        assert [len(x) for x in paths] == [4, 4]
        paths, converged, max_clamp = system.rk4_path((0.5, 0.5), 0.01, 3)
        assert [len(x) for x in paths] == [4, 4] and not converged
