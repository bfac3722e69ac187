"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is asserted exactly as stated.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import binom

from conftest import logit_system, payoff_efficiency
from samplingdyn.analysis import (
    Stability,
    Verdict,
    check_theorem4,
    classify_pure_states,
    find_stationary_one_pop,
    find_stationary_two_pop,
    miscoordination_probability,
)
from samplingdyn.dynamics import (
    Environment,
    LogitResponse,
    SampleSizeDistribution,
    SamplingResponse,
)
from samplingdyn.extensions import (
    ContractingGame,
    MinEffortGame,
    MinEffortResponse,
    Observation,
    contracting_response_vector,
    contracting_pure_stability,
)
from samplingdyn.flow import System, _terminal_states, integrate, label_basins
from samplingdyn.games import CoordinationGame
from samplingdyn.oracle import empirical_response, simulate_population

THETA_15 = SampleSizeDistribution.of({1: 0.5, 5: 0.5})
THETA_3_1000 = SampleSizeDistribution.of({3: 0.5, 1000: 0.5})
FIG3_LEFT = Environment.of(CoordinationGame(20.0, 0.05), THETA_3_1000)
FIG3_RIGHT = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)


def _ok(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion:02d}] PASS  {detail}")


def test_criterion_01_figure1_suite():
    start = time.perf_counter()
    # theta = 1: identity response
    w1 = SamplingResponse(1.2, SampleSizeDistribution.point(1))
    grid = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(w1(grid) - grid)) < 1e-12

    # theta = 2: no interior fixed point, global convergence to 1
    env2 = Environment.symmetric(1.2, SampleSizeDistribution.point(2))
    res2 = find_stationary_one_pop(env2)
    assert not res2.interior()
    starts = np.linspace(0.01, 0.99, 99)
    finals, ok = _terminal_states(System.of(env2, 1).field, starts.reshape(-1, 1), 100.0, 0.01)
    assert ok.all()
    assert np.max(np.abs(finals - 1.0)) < 1e-6

    # theta = 3: interior fixed point at one half, unstable
    env3 = Environment.symmetric(1.2, SampleSizeDistribution.point(3))
    res3 = find_stationary_one_pop(env3)
    inner = res3.interior()
    assert len(inner) == 1
    assert inner[0].p1 == pytest.approx(0.5, abs=1e-10)
    assert inner[0].stability == Stability.UNSTABLE
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(1, f"figure-1 environments reproduced in {elapsed:.2f}s (< 1s)")


def test_criterion_02_figure3_left():
    start = time.perf_counter()
    res = find_stationary_two_pop(FIG3_LEFT)
    interior = res.interior()
    assert len(interior) == 3
    expected = [
        ((0.47, 0.05), Stability.UNSTABLE),
        ((0.77, 0.23), Stability.STABLE),
        ((0.95, 0.53), Stability.UNSTABLE),
    ]
    for state, (coords, label) in zip(interior, expected):
        assert state.p1 == pytest.approx(coords[0], abs=0.01)
        assert state.p2 == pytest.approx(coords[1], abs=0.01)
        assert state.stability == label
    stable = res.stable_interior()[0]
    misc = miscoordination_probability(stable.state)
    assert misc == pytest.approx(0.65, abs=0.01)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(2, f"three interior states with labels, miscoordination {misc:.4f}, {elapsed:.1f}s (< 30s)")


def test_criterion_03_figure3_right():
    start = time.perf_counter()
    res = find_stationary_two_pop(FIG3_RIGHT)
    interior = res.interior()
    assert len(interior) == 1
    s = interior[0]
    assert s.p1 == pytest.approx(0.63, abs=0.01)
    assert s.p2 == pytest.approx(0.37, abs=0.01)
    assert s.stability == Stability.STABLE

    rep = check_theorem4(FIG3_RIGHT)
    assert rep.conditions["part1_product_a"] == 1.5
    assert rep.conditions["part1_product_b"] == 1.5
    assert rep.parts["part1"] == Verdict.HOLDS

    pure = classify_pure_states(FIG3_RIGHT)
    for st in (pure.state_a, pure.state_b):
        assert st.stability == Stability.UNSTABLE
        assert st.leading_eigenvalue == pytest.approx(
            -1.0 + math.sqrt(1.5), abs=1e-9
        )

    grid = label_basins(FIG3_RIGHT, resolution=99, t_max=260.0, dt=0.01)
    assert grid.flagged == 0
    interior_idx = [i for i, a in enumerate(grid.attractors) if a.is_interior()]
    assert len(interior_idx) == 1
    assert np.all(grid.cells == interior_idx[0])
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(3, f"unique stable interior, exact products, full 99x99 basin, {elapsed:.1f}s (< 60s)")


def test_criterion_04_oyama_comparison():
    hits = {}
    for beta in (0.45, 0.55, 0.65):
        theta = SampleSizeDistribution.of({2: beta, 1000: 1.0 - beta})
        env = Environment.symmetric(1.5, theta)
        res = find_stationary_one_pop(env)
        hits[beta] = bool(res.stable_interior())
    assert hits == {0.45: False, 0.55: True, 0.65: False}
    _ok(4, "stable-interior indicator true only at theta(2) = 0.55")


def test_criterion_05_homogeneous_uniqueness_suite():
    rng = np.random.default_rng(5)
    u_pairs = [
        (float(rng.uniform(0.15, 8.0)), float(rng.uniform(0.15, 8.0)))
        for _ in range(50)
    ]
    checked = 0
    for k1 in range(2, 13):
        for k2 in range(2, 13):
            for u1, u2 in u_pairs:
                env = Environment.of(
                    CoordinationGame(u1, u2),
                    SampleSizeDistribution.point(k1),
                    SampleSizeDistribution.point(k2),
                )
                res = find_stationary_two_pop(env)
                interior = res.interior()
                assert len(interior) <= 1
                assert all(s.stability != Stability.STABLE for s in interior)
                checked += 1

    # independent oracle: compositions of binomial tails have at most one
    # interior fixed point, scanned on a 1e-4 grid
    xs = np.linspace(0.0, 1.0, 10001)
    inner_cache = {
        (k2, m2): binom.sf(m2 - 1, k2, xs)
        for k2 in range(1, 13)
        for m2 in range(1, k2 + 1)
    }
    combos = 0
    for k1 in range(1, 13):
        for m1 in range(1, k1 + 1):
            for (k2, m2), inner in inner_cache.items():
                if (k1, m1) == (1, 1) and (k2, m2) == (1, 1):
                    # the double identity fixes every state (the continuum
                    # sentinel case), so the uniqueness claim is vacuous
                    continue
                g = binom.sf(m1 - 1, k1, inner) - xs
                assert _interior_roots(g[1:-1]) <= 1, (k1, m1, k2, m2)
                combos += 1
    _ok(5, f"{checked} homogeneous environments and {combos} tail compositions")


def _interior_roots(core: np.ndarray) -> int:
    """Count sign changes with zero runs collapsed into single roots: each
    run of equal signs is one token, and the roots are the zero tokens
    plus the neighbouring nonzero tokens of opposite sign."""
    signs = np.sign(core)
    tokens = signs[np.append(True, signs[1:] != signs[:-1])]
    return int(np.count_nonzero(tokens == 0.0) + np.count_nonzero(tokens[:-1] * tokens[1:] < 0.0))


def test_criterion_06_logit_suite():
    game = CoordinationGame(2.5, 2.5)

    hom = logit_system(game, ((1.0, 1.0),))
    res_hom = find_stationary_two_pop(hom)
    stable = res_hom.stable_interior()
    assert stable, "homogeneous logit must have a stable interior state"
    assert all(0.10 <= c <= 0.90 for s in stable for c in s.state)

    mistake_hom = float(hom.responses[0](0.0))
    assert mistake_hom == pytest.approx(1.0 / (1.0 + math.e), abs=1e-4)

    groups = ((0.55, 0.55), (0.45, 0.01))
    het = logit_system(game, groups)
    res_het = find_stationary_two_pop(het)
    target = [
        s
        for s in res_het.states
        if s.stability == Stability.STABLE
        and abs(s.p1 - 0.21) <= 0.01 and abs(s.p2 - 0.21) <= 0.01
    ]
    assert target, "heterogeneous logit must stabilize (0.21, 0.21)"
    mistake_het = float(het.responses[0](0.0))
    assert mistake_het == pytest.approx(0.077, abs=0.005)

    # reported, not gating: payoff efficiencies against uniform opponent
    # play, for the paper's six dynamics/game combinations.  Convention:
    # sampling comparisons use theta = {3: 1/2, 1000: 1/2}; asymmetric
    # games report the population with the smaller coordination payoff.
    checks = [
        ("sampling  u=2.5        ", SamplingResponse(2.5, THETA_3_1000), 2.5, 0.98),
        ("sampling  u=(5,0.2)    ", SamplingResponse(0.2, THETA_3_1000), 0.2, 0.95),
        ("logit hom u=2.5        ", LogitResponse(2.5, ((1.0, 1.0),)), 2.5, 0.85),
        ("logit hom u=(5,0.2)    ", LogitResponse(0.2, ((1.0, 1.0),)), 0.2, 0.71),
        ("logit het u=2.5        ", LogitResponse(2.5, groups), 2.5, 0.96),
        ("logit het u=(5,0.2)    ", LogitResponse(0.2, groups), 0.2, 0.89),
    ]
    for label, response, u, reported in checks:
        value = payoff_efficiency(response, u)
        within = abs(value - reported) <= 0.03
        print(
            f"    efficiency {label} computed {value:.4f} vs reported "
            f"{reported:.2f}: {'ok' if within else 'OUTSIDE 3pp'} (non-gating)"
        )
    _ok(6, f"logit states and mistake rates ({mistake_hom:.4f}, {mistake_het:.4f})")


def _march_until(system, start, ref, exceed=None, below=None, t_max=400.0, dt=0.01):
    """Scalar RK4 march that stops when the sup-distance from ref crosses
    a threshold; returns the stopping distance (or the final one).  The
    float RK4 loop records the states; it ends early only at a state where
    the field is below 1e-10, which the march would barely move from."""
    x0 = tuple(float(v) for v in start)
    paths, _, _ = System.of(system, len(x0)).rk4_path(
        x0 if len(x0) == 2 else x0[0], dt, int(round(t_max / dt)))
    for x in zip(*paths):
        d = max(abs(a - b) for a, b in zip(x, ref))
        if exceed is not None and d > exceed:
            return d
        if below is not None and d < below:
            return d
    return d


def test_criterion_07_pure_state_trajectory_consistency():
    rng = np.random.default_rng(7)
    eps = 1e-3
    checked = 0
    while checked < 50:
        u1, u2 = rng.uniform(0.15, 8.0, size=2)
        ks = rng.choice(np.arange(1, 13), size=4, replace=False)
        masses = rng.random(2) * 0.6 + 0.2
        theta1 = SampleSizeDistribution.of(
            {int(ks[0]): float(masses[0]), int(ks[1]): 1.0 - float(masses[0])}
        )
        theta2 = SampleSizeDistribution.of(
            {int(ks[2]): float(masses[1]), int(ks[3]): 1.0 - float(masses[1])}
        )
        env = Environment.of(CoordinationGame(float(u1), float(u2)), theta1, theta2)
        pure = classify_pure_states(env)
        # keep the linearization well away from marginal so finite-step
        # trajectories resolve the verdict
        if any(
            abs(st.slope_product - 1.0) < 0.2 for st in (pure.state_a, pure.state_b)
        ):
            continue
        for st in (pure.state_a, pure.state_b):
            ref = st.state
            prod = st.slope_product
            if st.stability == Stability.UNSTABLE:
                # perturb along the unstable eigendirection
                w1 = env.response(1)
                w2 = env.response(2)
                if ref == (1.0, 1.0):
                    v = (math.sqrt(w1.derivative(1.0)), math.sqrt(w2.derivative(1.0)))
                else:
                    v = (math.sqrt(w1.derivative(0.0)), math.sqrt(w2.derivative(0.0)))
                norm = max(v)
                step = (eps * v[0] / norm, eps * v[1] / norm)
                start = (
                    (1.0 - step[0], 1.0 - step[1])
                    if ref == (1.0, 1.0)
                    else (step[0], step[1])
                )
                d = _march_until(env, start, ref, exceed=1e-2)
                assert d > 1e-2, f"unstable state {ref} did not repel (prod={prod})"
            else:
                start = (
                    (1.0 - eps, 1.0 - eps) if ref == (1.0, 1.0) else (eps, eps)
                )
                d = _march_until(env, start, ref, below=1e-4)
                assert d < 1e-4, f"stable state {ref} did not attract (prod={prod})"
        checked += 1
    _ok(7, f"{checked} environments: eigenvalue labels match trajectories")


def test_criterion_08_symmetric_equivalence():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 50:
        u = float(rng.uniform(0.15, 8.0))
        n_atoms = int(rng.integers(1, 4))
        ks = rng.choice(np.arange(1, 13), size=n_atoms, replace=False)
        raw = rng.random(n_atoms) + 0.15
        theta = SampleSizeDistribution.of(
            {int(k): float(w) for k, w in zip(ks, raw / raw.sum())}
        )
        env = Environment.symmetric(u, theta)
        one = find_stationary_one_pop(env)
        two = find_stationary_two_pop(env)
        if one.continuum:
            assert two.continuum
            continue
        one_stable = [s.p1 for s in one.states if s.stability == Stability.STABLE]
        two_stable = [s.state for s in two.states if s.stability == Stability.STABLE]
        assert len(one_stable) == len(two_stable)
        for p, (p1, p2) in zip(one_stable, two_stable):
            assert abs(p1 - p) < 1e-9 and abs(p2 - p) < 1e-9
            assert abs(p1 - p2) < 1e-9
        checked += 1
    _ok(8, f"{checked} symmetric environments: stable sets coincide on the diagonal")


def test_criterion_09_extension_reductions():
    rng = np.random.default_rng(9)

    # M = 2 contracting response matches the two-action response to 1e-9
    for _ in range(50):
        diag1 = tuple(rng.uniform(0.3, 5.0, 2))
        diag2 = tuple(rng.uniform(0.3, 5.0, 2))
        try:
            g = ContractingGame(diag1, diag2)
        except ValueError:
            continue
        theta = SampleSizeDistribution.of({1: 0.4, 6: 0.6})
        pa = float(rng.random())
        r = contracting_response_vector(g, 1, theta, (pa, 1.0 - pa))
        w = SamplingResponse(g.diag1[0] / g.diag1[1], theta)
        assert abs(r[0] - w(pa)) < 1e-9

    # N = 2 minimum-effort response matches the two-action response with
    # u = c/(1-c) and high-effort tie-breaking, at the chance q = 1 - (1-p)^2
    # that a round's minimum of both players reads low under minimum-effort
    # observation and at p under action observation
    from samplingdyn.dynamics import TieBreak

    for _ in range(50):
        c = float(rng.uniform(0.2, 0.8))
        cap = 1.0 / (1.0 - c)
        ks = [k for k in range(1, 13) if k < cap - 1e-9]
        ps = rng.random(9)
        if ks:
            theta = SampleSizeDistribution.point(int(rng.choice(ks)))
            g_min = MinEffortGame(2, c, Observation.MINIMUM_EFFORT)
            w_ref = SamplingResponse(c / (1.0 - c), theta, TieBreak.FAVOR_B)
            assert np.max(
                np.abs(MinEffortResponse(g_min, theta)(ps) - w_ref(1.0 - (1.0 - ps) ** 2))
            ) < 1e-9
        theta = SampleSizeDistribution.point(int(rng.integers(1, 13)))
        g_act = MinEffortGame(2, c, Observation.OPPONENT_ACTION)
        w_ref = SamplingResponse(c / (1.0 - c), theta, TieBreak.FAVOR_B)
        assert np.max(np.abs(MinEffortResponse(g_act, theta)(ps) - w_ref(ps))) < 1e-9

    # homogeneous sampling above size one keeps every Pareto-efficient
    # contracting equilibrium asymptotically stable
    verified = 0
    while verified < 20:
        M = int(rng.integers(2, 5))
        try:
            g = ContractingGame(
                tuple(rng.uniform(0.3, 5.0, M)), tuple(rng.uniform(0.3, 5.0, M))
            )
        except ValueError:
            continue
        k1, k2 = (int(v) for v in rng.integers(2, 9, size=2))
        reports = contracting_pure_stability(
            g, SampleSizeDistribution.point(k1), SampleSizeDistribution.point(k2)
        )
        assert any(r.pareto_efficient for r in reports)
        for r in reports:
            if r.pareto_efficient:
                assert r.label == "asymptotically-stable"
        verified += 1

    # the unit-sample minimum-effort example
    pure = classify_pure_states(MinEffortResponse(
        MinEffortGame(2, 0.5, Observation.MINIMUM_EFFORT),
        SampleSizeDistribution.point(1),
    ))
    assert pure.state_a.stability == Stability.STABLE  # safe: everyone low
    assert pure.state_b.stability == Stability.UNSTABLE  # efficient
    _ok(9, "two-action reductions, homogeneous stabilization, unit-sample example")


def test_criterion_10_oracle_agreement():
    rng = np.random.default_rng(10)
    draws = 100_000
    for i in range(10):
        u = float(rng.uniform(0.15, 8.0))
        n_atoms = int(rng.integers(1, 4))
        ks = rng.choice(np.arange(1, 13), size=n_atoms, replace=False)
        raw = rng.random(n_atoms) + 0.15
        theta = SampleSizeDistribution.of(
            {int(k): float(w) for k, w in zip(ks, raw / raw.sum())}
        )
        env = Environment.symmetric(u, theta)
        w = env.single_response()
        for j, p in enumerate(np.linspace(0.0, 1.0, 20)):
            est, se = empirical_response(env, float(p), draws, seed=1000 * i + j)
            truth = w(float(p))
            scale = max(se, math.sqrt(max(truth * (1.0 - truth), 0.0) / draws))
            assert abs(est - truth) <= 4.0 * scale + 1e-12

    # finite-population trajectories track the mean field on both panels
    for env, start in ((FIG3_LEFT, (0.6, 0.4)), (FIG3_RIGHT, (0.5, 0.5))):
        sim = simulate_population(
            env, n=100_000, t_max=50.0, dt=0.01, seed=123, initial=start
        )
        ref = integrate(env, start, t_max=50.0, dt=0.01)
        m = min(len(sim.states), len(ref.states))
        gap = float(np.max(np.abs(sim.states[:m] - np.atleast_2d(ref.states)[:m])))
        assert gap < 0.03
    _ok(10, "empirical response within 4 SE; finite-population gap < 0.03")


def test_informational_basin_footnote_report():
    # the basin-share footnote is ambiguous about which panel it describes,
    # so report both panels at desk resolution without asserting a value
    for name, env in (("left", FIG3_LEFT), ("right", FIG3_RIGHT)):
        grid = label_basins(env, resolution=15, t_max=260.0, dt=0.01)
        interior_share = sum(
            share
            for idx, share in grid.shares.items()
            if grid.attractors[idx].is_interior()
        )
        print(
            f"    figure-3 {name} panel: interior attractor basin share "
            f"{interior_share:.3f} at resolution 15 (reported, not gating)"
        )
    _ok(0, "basin shares reported for both panels (informational)")


def test_informational_oracle_gap_against_n():
    # the finite-population gap to the mean field should shrink like
    # 1/sqrt(n); report it with the floor no n removes: the chain's
    # expected step is a forward-Euler step of the field, which drifts
    # O(dt) from the RK4 reference
    start, t_max, dt = (0.5, 0.5), 2.0, 0.01
    ref = integrate(FIG3_RIGHT, start, t_max=t_max, dt=dt).states
    w1, w2 = FIG3_RIGHT.response(1), FIG3_RIGHT.response(2)
    euler = [np.array(start)]
    for _ in range(len(ref) - 1):
        x, y = euler[-1]
        euler.append(euler[-1] + dt * np.array([w1(y) - x, w2(x) - y]))
    floor = float(np.max(np.abs(np.array(euler) - ref)))
    print(f"    forward-Euler floor of the gap at dt = {dt}: {floor:.2e}")
    gap = math.inf
    for n in (10**3, 10**4, 10**5, 10**6, 10**7):
        sim = simulate_population(FIG3_RIGHT, n=n, t_max=t_max, dt=dt, seed=1, initial=start)
        gap = float(np.max(np.abs(sim.states - ref)))
        print(f"    n = {n:>8}: gap {gap:.2e}, gap * sqrt(n) {gap * math.sqrt(n):.2f}")
    assert gap < 0.03
    _ok(0, "oracle gap to the mean field reported against n (informational)")
