import functools
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from conftest import (
    band_inputs,
    band_reference,
    logit_system,
    payoff_efficiency,
    polynomial_coefficients,
    random_env,
    random_game,
    random_symmetric_env,
    random_theta,
    theta_strategy,
)
from samplingdyn import analysis
from samplingdyn.analysis import (
    Stability,
    StationaryAnalysis,
    Verdict,
    check_homogeneous_uniqueness,
    check_theorem3,
    check_theorem4,
    classify_pure_states,
    find_stationary_one_pop,
    find_stationary_two_pop,
    miscoordination_probability,
    stable_interior_search,
)
from samplingdyn.dynamics import (
    Environment,
    ResponsePair,
    SampleSizeDistribution,
    SamplingResponse,
    TieBreak,
    truncated_expectation,
)
from samplingdyn.extensions import MinEffortGame, MinEffortResponse, Observation
from samplingdyn.games import CoordinationGame

THETA_15 = SampleSizeDistribution.of({1: 0.5, 5: 0.5})
THETA_3_1000 = SampleSizeDistribution.of({3: 0.5, 1000: 0.5})
# payoffs u with k/(u + 1) integral for some sizes k <= 12 and for 1000, so
# that the tie rule moves thresholds
TIE_PAYOFFS = (1.0, 2.0, 3.0, 4.0, 0.5, 0.25, 1.0 / 3.0)


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
        # the two-population states of a symmetric environment are the
        # diagonal embeddings of the one-population states, with the slope
        # product w'(p)^2 and the same stability
        for _ in range(50):
            env = random_symmetric_env(rng, max_k=9)
            one = find_stationary_one_pop(env)
            two = find_stationary_two_pop(env)
            if one.continuum:
                assert two.continuum
                continue
            assert len(one.states) == len(two.states)
            for s1, s2 in zip(one.states, two.states):
                assert s2.p1 == pytest.approx(s1.p1, abs=1e-9)
                assert s2.p2 == pytest.approx(s1.p1, abs=1e-9)
                assert s2.slope_product == pytest.approx(s1.slope_product**2, rel=1e-9, abs=1e-12)
                assert s2.stability == s1.stability

    def test_identity_response_is_a_continuum(self):
        # opponent-action observation with single-action samples copies the
        # observed action; only the scan can tell, the response is no
        # SamplingResponse
        game = MinEffortGame(3, 0.5, Observation.OPPONENT_ACTION)
        w = MinEffortResponse(game, SampleSizeDistribution.point(1))
        res = find_stationary_one_pop(w)
        assert res.continuum and not res.states
        assert find_stationary_two_pop(ResponsePair(w, w)).continuum

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
            for s in (s for s in res.states if all(1e-3 < c < 1.0 - 1e-3 for c in s.state)):
                if s.stability == Stability.MARGINAL:
                    continue
                left = float(pair.w2(s.p1 - delta)) - float(pair.w1.inverse(s.p1 - delta))
                right = float(pair.w2(s.p1 + delta)) - float(pair.w1.inverse(s.p1 + delta))
                is_stable = left > 0 > right
                assert is_stable == (s.stability == Stability.STABLE)


def _exact_roots(w: SamplingResponse) -> list[float] | None:
    """Real roots in [0, 1] of the exact polynomial w(p) - p, by mpmath at
    60 digits, with multiplicity; None when w(p) = p identically."""
    coeffs = list(polynomial_coefficients(w))
    coeffs[1] -= 1
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return None
    with mpmath.workdps(60):
        descending = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(coeffs)]
        roots = mpmath.polyroots(descending, maxsteps=400, extraprec=200)
        return sorted(
            float(mpmath.re(r))
            for r in roots
            if abs(mpmath.im(r)) < 1e-20 and -1e-9 <= mpmath.re(r) <= 1.0 + 1e-9
        )


def _full_grid_scan(g_at, rows):
    """The scan's rule on each row g_r evaluated at every grid point: the
    reference that the level-by-level ``analysis._scan_rows`` must equal
    row for row, with the same error, zeros and (lo, hi, g(lo), g(hi))
    brackets."""
    n = analysis.GRID_POINTS
    xs = np.linspace(0.0, 1.0, n)
    r, i = np.arange(rows).repeat(n), np.tile(np.arange(n), rows)
    out = []
    for gs in np.asarray(g_at(r, i, xs[i]), dtype=float).reshape(rows, n):
        if not np.all(np.isfinite(gs)):
            error = ArithmeticError("non-finite values while scanning for fixed points")
            out.append((error, [], []))
            continue
        if np.max(np.abs(gs)) < analysis._CONTINUUM_TOL:
            out.append((analysis.ContinuumError("every state is a fixed point"), [], []))
            continue
        signs = np.sign(gs)
        for end in (0, -1):
            if abs(gs[end]) < analysis.RESIDUAL_TOL:
                signs[end] = 0.0
        zeros = [xs[k] for k in np.flatnonzero(signs == 0.0).tolist()]
        flips = np.flatnonzero(signs[:-1] * signs[1:] < 0.0).tolist()
        out.append((None, zeros, [(xs[k], xs[k + 1], float(gs[k]), float(gs[k + 1]))
                                  for k in flips]))
    return out


def _dense_scan(g):
    """The scan's rule on g evaluated at every grid point, refined: the
    reference that the pruned ``analysis.scan_fixed_points`` must equal bit
    for bit."""
    return analysis._refine(g, _full_grid_scan(lambda r, i, x: g(x), 1)[0])


def _scan_systems(rng):
    """(search, system) pairs: one- and two-population sampling systems
    with sizes 1-12, with an atom in 61-1000, mixed with big_k = 1000 as
    the Theorem-2 search mixes them, logit pairs and minimum-effort systems."""
    def groups():
        mass = rng.random(int(rng.integers(1, 3))) + 0.2
        return [(m, float(rng.uniform(0.05, 1.0))) for m in mass / mass.sum()]

    def big():
        return int(rng.integers(61, 1001))

    one, two = find_stationary_one_pop, find_stationary_two_pop
    out = [(one, random_symmetric_env(rng)) for _ in range(30)]
    out += [(two, random_env(rng)) for _ in range(30)]
    out += [(one, random_symmetric_env(rng, big_k=big())) for _ in range(8)]
    out += [(two, random_env(rng, big_k=big())) for _ in range(8)]
    for _ in range(12):
        env = random_env(rng)
        a1, a2 = rng.uniform(0.05, 0.95, size=2)
        mixed = Environment(
            env.game, env.theta1.mix_with(a1, 1000), env.theta2.mix_with(a2, 1000)
        )
        out.append((two, mixed))
    out += [(two, logit_system(random_game(rng), groups(), groups())) for _ in range(10)]
    for n_players in (2, 3, 5):
        for observation in Observation:
            for cost in (0.2, 0.5, 0.8):
                game = MinEffortGame(n_players, cost, observation)
                out.append((one, MinEffortResponse(game, random_theta(rng))))
    return out


def _counting(g, count):
    """g that adds the number of points it evaluates to ``count[0]``."""
    def counted(x):
        count[0] += np.size(x)
        return g(x)

    return counted


_U = st.floats(0.15, 8.0)


@st.composite
def _scan_theta(draw, big=True):
    """Sizes 1-12, with an atom in 61-1000 half of the time when ``big``."""
    masses = draw(st.dictionaries(st.integers(1, 12), st.floats(0.05, 1.0), min_size=1, max_size=4))
    if big and draw(st.booleans()):
        masses[draw(st.integers(61, 1000))] = draw(st.floats(0.05, 1.0))
    total = sum(masses.values())
    return SampleSizeDistribution.of({k: m / total for k, m in masses.items()})


@st.composite
def _scan_block(draw):
    """(g_at, rows) of ``_scan_rows``: a one- or two-population sampling
    system, a minimum-effort system under either observation, a logit pair,
    or a block of ``_mixture_field`` rows, pairs of sampling responses or
    shares of one sampling or minimum-effort response."""
    kind = draw(st.sampled_from(["one", "two", "min-effort", "logit", "mixture", "shares"]))
    if kind == "one":
        w = SamplingResponse(draw(_U), draw(_scan_theta()))
        return (lambda r, i, x: w(x) - x), 1
    if kind == "min-effort":
        game = MinEffortGame(draw(st.integers(2, 5)), draw(st.floats(0.05, 0.95)),
                             draw(st.sampled_from(Observation)))
        w = MinEffortResponse(game, draw(_scan_theta()))
        return (lambda r, i, x: w(x) - x), 1
    if kind == "mixture":
        u1, u2, step = draw(_U), draw(_U), draw(st.sampled_from([0.5, 0.25, 0.2]))
        theta1, theta2 = draw(_scan_theta(big=False)), draw(_scan_theta(big=False))
        big_k = draw(st.integers(61, 1000))
        grid = analysis._alpha_grid(step)
        w1s = [SamplingResponse(u1, theta1.mix_with(a, big_k)) for a in grid]
        w2s = [SamplingResponse(u2, theta2.mix_with(a, big_k)) for a in grid]
        index = st.integers(0, len(grid) - 1)
        block = draw(st.lists(st.tuples(index, index), min_size=1, max_size=6))
        return analysis._mixture_field(w1s, w2s)(block), len(block)
    if kind == "shares":
        theta, big_k = draw(_scan_theta(big=False)), draw(st.integers(61, 1000))
        grid = analysis._alpha_grid(draw(st.sampled_from([0.5, 0.25, 0.2])))
        if draw(st.booleans()):
            u, tie = draw(_U), draw(st.sampled_from(TieBreak))
            ws = [SamplingResponse(u, theta.mix_with(a, big_k), tie) for a in grid]
        else:
            game = MinEffortGame(draw(st.integers(2, 5)), draw(st.floats(0.05, 0.95)),
                                 draw(st.sampled_from(Observation)))
            ws = [MinEffortResponse(game, theta.mix_with(a, big_k)) for a in grid]
        block = draw(st.lists(st.integers(0, len(grid) - 1).map(lambda i: (i,)), min_size=1,
                              max_size=6))
        return analysis._mixture_field(ws, None)(block), len(block)
    game = CoordinationGame(draw(_U), draw(_U))
    if kind == "two":
        pair = Environment.of(game, draw(_scan_theta()), draw(_scan_theta())).pair()
        w1, w2 = pair.w1, pair.w2
    else:
        groups = st.lists(st.tuples(st.floats(0.2, 1.2), st.floats(0.05, 1.0)),
                          min_size=1, max_size=2)
        g1, g2 = ([(m / sum(m for m, _ in g), eta) for m, eta in g]
                  for g in (draw(groups), draw(groups)))
        w1, w2 = logit_system(game, g1, g2).responses
    return (lambda r, i, x: w1(w2(x)) - x), 1


class TestPrunedScan:
    @pytest.mark.parametrize("grid_points", [10_001, 100_001])
    def test_states_equal_the_dense_scan(self, rng, monkeypatch, grid_points):
        # at 100,001 points the coarse step is 316 and the last coarse
        # cell holds 144 points, not 316
        systems = _scan_systems(rng)
        if grid_points != analysis.GRID_POINTS:
            systems = systems[::3]
            monkeypatch.setattr(analysis, "GRID_POINTS", grid_points)
        with monkeypatch.context() as m:
            m.setattr(analysis, "scan_fixed_points", _dense_scan)
            want = [repr(search(system)) for search, system in systems]
        got = [repr(search(system)) for search, system in systems]
        for (_, system), a, b in zip(systems, want, got):
            assert b == a, system

    @pytest.mark.parametrize(
        "env, n_roots",
        [
            (Environment.of(CoordinationGame(20.0, 0.05),
                            SampleSizeDistribution.point(3).mix_with(0.5, 1000)), 5),
            (Environment.symmetric(1.5, SampleSizeDistribution.of({2: 0.5, 1000: 0.5})), 3),
        ],
        ids=["fig3-left-mixed-at-one-half", "oyama"],
    )
    def test_scan_evaluates_few_points(self, env, n_roots):
        # bisection included; a scan of every grid point takes 10,001
        if env.is_symmetric:
            w = env.single_response()
            g = lambda p: w(p) - p
        else:
            pair = env.pair()
            w1, w2 = pair.w1, pair.w2
            g = lambda p: w1(w2(p)) - p
        count = [0]
        assert len(analysis.scan_fixed_points(_counting(g, count))) == n_roots
        assert count[0] < 2_000, count[0]

    def test_continuum_evaluates_every_point(self):
        w = SamplingResponse(1.5, SampleSizeDistribution.point(1))
        count = [0]
        with pytest.raises(analysis.ContinuumError):
            analysis.scan_fixed_points(_counting(lambda p: w(p) - p, count))
        assert count[0] == analysis.GRID_POINTS

    @pytest.mark.parametrize("grid_points", [10_001, 101, 1_235])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_levels_equal_the_full_grid(self, grid_points, data):
        # at 101 points the levels are 10, 3 and 1 steps; at 1,235 they are
        # 35, 5 and 1, and the last coarse cell (9 steps) splits into 5 and 4
        with pytest.MonkeyPatch.context() as m:
            m.setattr(analysis, "GRID_POINTS", grid_points)
            g_at, rows = data.draw(_scan_block())
            got = analysis._scan_rows(g_at, rows)
            want = _full_grid_scan(g_at, rows)
        assert [repr(scan) for scan in got] == [repr(scan) for scan in want]

    @pytest.mark.parametrize(
        "env, two_level",
        [
            (Environment.of(CoordinationGame(20.0, 0.05), THETA_3_1000), 1_289),
            (Environment.of(CoordinationGame(5.0, 0.2), THETA_15), 1_586),
            (Environment.symmetric(1.5, SampleSizeDistribution.of({2: 0.55, 1000: 0.45})), 2_873),
        ],
        ids=["fig3-left", "fig3-right", "oyama"],
    )
    def test_levels_evaluate_at_most_half_the_two_level_scan(self, monkeypatch, env, two_level):
        # ``two_level``: the grid points the scan of the coarse points, then
        # of every point of each open coarse cell, evaluated
        count = [0]
        scan = analysis._scan_rows

        def counted(g_at, rows):
            def g(r, i, x):
                count[0] += i.size
                return g_at(r, i, x)

            return scan(g, rows)

        monkeypatch.setattr(analysis, "_scan_rows", counted)
        analysis.System.of(env).stationary()
        assert 0 < count[0] <= two_level // 2, count[0]


def _halving_root(g, lo, hi, glo, ghi):
    """Plain halving of the bracket to ``BISECT_WIDTH``, keeping the scan's
    sign at lo: the refinement the Illinois method replaced, kept as its
    reference."""
    for _ in range(200):
        if hi - lo <= analysis.BISECT_WIDTH:
            break
        mid = 0.5 * (lo + hi)
        gmid = g(mid)
        if gmid == 0.0:
            return mid
        if (glo < 0.0) == (gmid < 0.0):
            lo, glo = mid, gmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _recorded_root(g, lo, hi, glo, ghi):
    """``analysis._bisect_root``'s root and the (x, g(x)) it evaluated."""
    seen = []

    def recorded(x):
        seen.append((x, g(x)))
        return seen[-1][1]

    return analysis._bisect_root(recorded, lo, hi, glo, ghi), seen


def _bisect_root_evaluating_ends(g, lo, hi, glo):
    """The refinement as it was when it evaluated g at both ends itself,
    kept as the reference for the one that takes them from its caller."""
    lo, hi = float(lo), float(hi)
    neg = glo < 0.0
    flo, fhi = g(lo), g(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    illinois = ((flo < 0.0) == neg) and ((fhi < 0.0) != neg)
    budget = math.ceil(math.log2(max((hi - lo) / analysis.BISECT_WIDTH, 1.0)))
    half = 0.5 * analysis.BISECT_WIDTH
    kept = 0
    for step in range(2 * budget):
        if hi - lo <= analysis.BISECT_WIDTH:
            break
        if illinois and step < budget:
            x = lo - flo * (hi - lo) / (fhi - flo)
            x = min(max(x, lo + half), hi - half)
        else:
            x = 0.5 * (lo + hi)
        gx = g(x)
        if gx == 0.0:
            return x
        if (gx < 0.0) == neg:
            lo, flo = x, gx
            if kept < 0:
                fhi *= 0.5
            kept = -1
        else:
            hi, fhi = x, gx
            if kept > 0:
                flo *= 0.5
            kept = 1
    return 0.5 * (lo + hi)


def _criterion5_and_mixtures():
    """Criterion 5's 6,050 homogeneous environments and 200 random mixtures
    with big_k = 1000."""
    rng = np.random.default_rng(5)
    u_pairs = [(float(rng.uniform(0.15, 8.0)), float(rng.uniform(0.15, 8.0))) for _ in range(50)]
    systems = [
        Environment.of(
            CoordinationGame(u1, u2),
            SampleSizeDistribution.point(k1),
            SampleSizeDistribution.point(k2),
        )
        for k1 in range(2, 13)
        for k2 in range(2, 13)
        for u1, u2 in u_pairs
    ]
    rng = np.random.default_rng(11)
    for _ in range(200):
        env = random_env(rng)
        a1, a2 = rng.uniform(0.05, 0.95, size=2)
        systems.append(Environment(
            env.game, env.theta1.mix_with(a1, 1000), env.theta2.mix_with(a2, 1000)
        ))
    return systems


class TestRefinement:
    def test_states_agree_with_halving_in_fewer_evaluations(self, monkeypatch):
        systems = _criterion5_and_mixtures()
        results, evaluations = {}, {}
        for name, refine in [("halving", _halving_root), ("illinois", analysis._bisect_root)]:
            count = [0]
            monkeypatch.setattr(
                analysis, "_bisect_root",
                lambda g, lo, hi, glo, ghi, refine=refine, count=count:
                    refine(_counting(g, count), lo, hi, glo, ghi),
            )
            results[name] = [find_stationary_two_pop(env) for env in systems]
            evaluations[name] = count[0]
        for env, a, b in zip(systems, results["halving"], results["illinois"]):
            assert len(b.states) == len(a.states), env
            for sa, sb in zip(a.states, b.states):
                assert sb.stability == sa.stability, env
                assert sb.state == pytest.approx(sa.state, abs=1e-10), env
        # 151,929 evaluations by halving, 25,966 by the Illinois method over
        # 5,627 brackets (163,183 and 37,220 when both evaluated the ends)
        assert evaluations["illinois"] < 0.3 * evaluations["halving"], evaluations

    def test_ends_from_the_caller_give_the_same_roots_in_two_fewer_evaluations(
            self, monkeypatch):
        # every 25th system of the set above, and two mixture searches,
        # whose rows come from the block scan
        systems = _criterion5_and_mixtures()[::25]
        searches = [Environment.symmetric(1.5, SampleSizeDistribution.of({2: 1.0})),
                    Environment.of(CoordinationGame(20.0, 0.05),
                                   SampleSizeDistribution.of({3: 0.5, 10: 0.5}))]
        results, evaluations, brackets = {}, {}, [0]
        bisect = analysis._bisect_root
        for name in ("evaluating-ends", "caller-ends"):
            count, new = [0], name == "caller-ends"

            def refine(g, lo, hi, glo, ghi, count=count, new=new):
                assert glo != 0.0 and ghi != 0.0 and (glo < 0.0) != (ghi < 0.0)
                brackets[0] += new
                if new:
                    return bisect(_counting(g, count), lo, hi, glo, ghi)
                return _bisect_root_evaluating_ends(_counting(g, count), lo, hi, glo)

            monkeypatch.setattr(analysis, "_bisect_root", refine)
            results[name] = [repr(find_stationary_two_pop(env)) for env in systems]
            results[name] += [repr(stable_interior_search(env, big_k=100, alpha_step=0.1))
                              for env in searches]
            evaluations[name] = count[0]
        assert results["caller-ends"] == results["evaluating-ends"]
        assert brackets[0] > 200, brackets
        assert evaluations["evaluating-ends"] - evaluations["caller-ends"] == 2 * brackets[0]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        lo=st.integers(0, 9_999),
        c=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        shape=st.sampled_from(["line", "cube", "step", "steep", "quadratic"]),
        falling=st.booleans(),
    )
    def test_final_bracket_is_at_most_the_width(self, lo, c, shape, falling):
        # a grid cell of the scan holding the root lo + c * width
        width = 1.0 / (analysis.GRID_POINTS - 1)
        a, b = lo * width, (lo + 1) * width
        root = a + c * width
        assume(a < root < b)
        sign = -1.0 if falling else 1.0
        g = {
            "line": lambda x: sign * (x - root),
            "cube": lambda x: sign * (x - root) ** 3,
            "step": lambda x: sign * (1.0 if x >= root else -1.0),
            "steep": lambda x: sign * math.tanh(1e9 * (x - root)),
            "quadratic": lambda x: sign * (x - root) * (1.0 + 1e4 * (x - a)),
        }[shape]
        glo, ghi = g(a), g(b)
        assume(glo != 0.0 and ghi != 0.0)
        got, seen = _recorded_root(g, a, b, glo, ghi)
        # at most twice the 27 halvings of a 1e-4 cell, and a few steps for
        # a simple root of a smooth g
        assert len(seen) <= (10 if shape in ("line", "quadratic") else 2 * 27)
        if (got, 0.0) in seen:
            return  # an exact zero is returned as is
        # the last points evaluated on each side of the root
        low = max([a] + [x for x, v in seen if (v < 0.0) == (glo < 0.0)])
        high = min([b] + [x for x, v in seen if (v < 0.0) != (glo < 0.0)])
        assert 0.0 < high - low <= analysis.BISECT_WIDTH
        assert got == 0.5 * (low + high)
        if shape == "step":
            assert low < root <= high

    @pytest.mark.parametrize("at", ["inside"])
    def test_exact_zero_is_returned_as_is(self, at):
        # the first false-position point is exactly 0.5
        g = lambda x: x - 0.5
        assert analysis._bisect_root(g, 0.25, 0.75, g(0.25), g(0.75)) == 0.5

    def test_nan_from_g_ends_the_refinement(self):
        g = lambda x: {0.25: -1.0, 0.75: 1.0}.get(x, math.nan)
        _, seen = _recorded_root(g, 0.25, 0.75, -1.0, 1.0)
        # twice the 39 halvings from width 0.5 to 1e-12
        assert len(seen) == 2 * 39


class TestScanResolution:
    def test_oyama_states_do_not_depend_on_resolution(self, monkeypatch):
        # |w(p) - p| stays below the marginal band for p up to about
        # 4.4e-5, where it has no root: a small value is not a state
        env = Environment.symmetric(1.5, SampleSizeDistribution.of({2: 0.5, 1000: 0.5}))
        coarse = find_stationary_one_pop(env)
        monkeypatch.setattr(analysis, "GRID_POINTS", 1_000_001)
        fine = find_stationary_one_pop(env)
        assert len(coarse.states) == len(fine.states) == 3
        for a, b in zip(coarse.states, fine.states):
            assert b.p1 == pytest.approx(a.p1, abs=1e-9)
            assert b.stability == a.stability

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        u=st.floats(0.15, 8.0),
        masses=st.dictionaries(st.integers(1, 12), st.floats(0.05, 1.0), min_size=1, max_size=4),
    )
    def test_one_pop_states_match_exact_roots(self, u, masses):
        # every state is a root of the exact polynomial, and every root at
        # least two grid cells from the others is found
        total = sum(masses.values())
        theta = SampleSizeDistribution.of({k: m / total for k, m in masses.items()})
        w = SamplingResponse(u, theta)
        res = find_stationary_one_pop(w)
        exact = _exact_roots(w)
        if exact is None:
            assert res.continuum
            return
        found = [s.p1 for s in res.states]
        for p in found:
            assert min(abs(p - r) for r in exact) <= 1e-9, (found, exact)
        apart = 2.0 / (analysis.GRID_POINTS - 1)
        for i, r in enumerate(exact):
            if all(abs(r - q) > apart for j, q in enumerate(exact) if j != i):
                assert min(abs(p - r) for p in found) <= 1e-9, (found, exact)

    def test_two_pop_states_agree_at_ten_times_the_resolution(self, rng, monkeypatch):
        def groups():
            mass = rng.random(int(rng.integers(1, 3))) + 0.2
            return [(m, float(rng.uniform(0.05, 1.0))) for m in mass / mass.sum()]

        systems = [random_env(rng) for _ in range(60)]
        systems += [random_env(rng, big_k=1000) for _ in range(20)]
        systems += [logit_system(random_game(rng), groups(), groups()) for _ in range(20)]
        coarse = [find_stationary_two_pop(system) for system in systems]
        monkeypatch.setattr(analysis, "GRID_POINTS", 10 * (analysis.GRID_POINTS - 1) + 1)
        for system, a in zip(systems, coarse):
            b = find_stationary_two_pop(system)
            assert b.continuum == a.continuum
            assert len(b.states) == len(a.states), (system, a.states, b.states)
            for sa, sb in zip(a.states, b.states):
                assert sb.state == pytest.approx(sa.state, abs=1e-9)
                assert sb.stability == sa.stability

    def test_root_next_to_a_pure_state(self):
        # w1(p) = p, so the states are the roots of w2(p) - p: exactly 0,
        # 7.706e-5 and 1.  The grid's first cell holds the middle one with
        # no sign change, so the scan shows only (0, 0) and (1, 1); g' < 0
        # at the zero 0 and g > 0 at the next grid point bracket the saddle
        theta2 = SampleSizeDistribution.of({
            4: 0.24983216337430852, 5: 0.3713036772548215,
            6: 0.2427754812819987, 7: 0.13608867808887123,
        })
        env = Environment.of(CoordinationGame(1.0, 3.0), SampleSizeDistribution.point(1), theta2)
        res = find_stationary_two_pop(env)
        assert [s.stability for s in res.states] == [
            Stability.STABLE, Stability.UNSTABLE, Stability.STABLE
        ]
        assert res.states[1].p1 == pytest.approx(7.706386127041599e-05, abs=1e-9)

    def test_root_next_to_a_pure_state_one_population(self):
        # mpmath roots 0, 6.087e-5 and 1; the grid's first cell holds the
        # middle one with no sign change
        w = SamplingResponse(
            2.7485565010908943,
            SampleSizeDistribution.of({2: 0.49978687922031156, 6: 0.5002131207796884}),
        )
        res = find_stationary_one_pop(w)
        exact = _exact_roots(w)
        assert len(exact) == 3 and exact[1] == pytest.approx(6.087e-5, rel=1e-3)
        assert [s.stability for s in res.states] == [
            Stability.STABLE, Stability.UNSTABLE, Stability.STABLE
        ]
        assert [s.p1 for s in res.states] == pytest.approx(exact, abs=1e-12)

    def test_root_next_to_a_pure_state_two_populations(self):
        # an unstable state at (4.31e-6, 1.80e-6), which the grid alone
        # shows only at 1,000,001 points
        game = CoordinationGame(7.472748337710141, 7.288412647814977)
        theta1 = SampleSizeDistribution.of(
            {8: 0.29995741581932894, 10: 0.47344709347137587, 229: 0.2265954907092951}
        )
        theta2 = SampleSizeDistribution.of({
            7: 0.05951704793059627, 9: 0.42879465471535533,
            11: 0.17417677448982877, 432: 0.3375115228642197,
        })
        env = Environment.of(game, theta1, theta2)
        res = find_stationary_two_pop(env)
        assert [s.stability for s in res.states] == [
            Stability.STABLE, Stability.UNSTABLE, Stability.STABLE
        ]
        saddle = res.states[1]
        assert saddle.state == pytest.approx((4.31e-6, 1.80e-6), rel=1e-2)
        assert saddle.residual < 1e-15
        w1, w2 = env.response(1), env.response(2)
        g = lambda p: w1(w2(p)) - p
        assert g(saddle.p1 - 1e-10) < 0.0 < g(saddle.p1 + 1e-10)


@st.composite
def _sampling_envs(draw):
    """Sampling environments with payoffs where thresholds tie or at random,
    either tie rule, and one population or two."""
    payoffs = st.one_of(st.sampled_from(TIE_PAYOFFS), st.floats(0.15, 8.0))
    tie = draw(st.sampled_from(TieBreak))
    if draw(st.booleans()):
        return Environment.symmetric(draw(payoffs), draw(theta_strategy()), tie)
    game = CoordinationGame(draw(payoffs), draw(payoffs))
    return Environment(game, draw(theta_strategy()), draw(theta_strategy()), tie)


def _payoff_cut_products(env, one_population):
    """Proposition 4's corner products as truncated expectations cut at the
    payoffs, the favor-a reference: sizes strictly below 1/u + 1 at the
    first-action corner, weakly below u + 1 at the second."""
    g = env.game
    a1 = truncated_expectation(env.theta1, 1.0 / g.u1 + 1.0, "strict")
    a2 = truncated_expectation(env.theta2, 1.0 / g.u2 + 1.0, "strict")
    b1 = truncated_expectation(env.theta1, g.u1 + 1.0, "weak")
    b2 = truncated_expectation(env.theta2, g.u2 + 1.0, "weak")
    return (a1, b1) if one_population else (a1 * a2, b1 * b2)


# the two examples where the payoff cuts called the favor-b corners the wrong way
FAVOR_B_EXAMPLES = (
    Environment.symmetric(1.0, SampleSizeDistribution.of({2: 0.5, 4: 0.5}), TieBreak.FAVOR_B),
    Environment.of(CoordinationGame(3.0, 1.0 / 3.0), SampleSizeDistribution.of({1: 0.5, 4: 0.5}),
                   tie_break=TieBreak.FAVOR_B),
)


# theta2's masses sum one rounding below 1, so w2(1) reads 0.9999999999999999
SHORT_MASS_EXAMPLE = Environment.of(
    CoordinationGame(1.0, 1.0), SampleSizeDistribution.of({2: 1.0}),
    SampleSizeDistribution.of({1: 0.7692307692307692, 13: 0.23076923076923075}))


class TestPureStates:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(env=_sampling_envs())
    @example(env=FAVOR_B_EXAMPLES[0])
    @example(env=FAVOR_B_EXAMPLES[1])
    @example(env=SHORT_MASS_EXAMPLE)
    def test_corners_equal_the_stationary_search(self, env):
        system = analysis.System.of(env)
        res = system.stationary()
        assume(not res.continuum)
        pure = classify_pure_states(system)
        corners = {s.p1: s for s in res.states if s.p1 in (0.0, 1.0)}
        for got, at in ((pure.state_b, 0.0), (pure.state_a, 1.0)):
            want = corners[at]
            assert got.state == want.state and got.stability == want.stability, (env, at)
            assert math.isclose(got.slope_product, want.slope_product, rel_tol=1e-12), (env, at)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(env=_sampling_envs())
    def test_favor_a_products_equal_the_payoff_cuts(self, env):
        env = replace(env, tie_break=TieBreak.FAVOR_A)
        for one_population in (True, False) if env.is_symmetric else (False,):
            pure = classify_pure_states(analysis.System.of(env, 1 if one_population else 2))
            want = _payoff_cut_products(env, one_population)
            assert (pure.state_a.slope_product, pure.state_b.slope_product) == want, env

    def test_favor_b_examples_trade_their_corners(self):
        # the payoff cuts read the favor-a sets, whose products trade places here
        for env, want in zip(FAVOR_B_EXAMPLES, ((1.0, 0.0), (1.25, 0.25))):
            pure = classify_pure_states(env)
            assert (pure.state_a.slope_product, pure.state_b.slope_product) == want
            assert _payoff_cut_products(env, env.is_symmetric) == want[::-1]

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
        pure = classify_pure_states(env)
        assert pure.state_a.state == 1.0 and pure.state_b.state == 0.0
        assert pure.state_a.leading_eigenvalue == pure.state_a.slope_product - 1.0


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


def _band_verdict(conditions, near) -> Verdict:
    """Theorem 4 part 1 with its own band test: HOLDS iff every (value > 1)
    matches the wanted direction, BOUNDARY when a value is near 1."""
    if any(near(v, 1.0) for v, _ in conditions):
        return Verdict.BOUNDARY
    ok = all((v > 1.0) == want for v, want in conditions)
    return Verdict.HOLDS if ok else Verdict.FAILS


def _theorem4_parts(p1a, p1b, p2a, p2b, near) -> dict:
    """The reference for Theorem 4's two parts."""
    part1 = _band_verdict([(p1a, True), (p1b, True)], near)
    if any(near(v, 1.0) for v in (p2a, p2b)):
        part2 = Verdict.BOUNDARY
    else:
        part2 = Verdict.HOLDS if (p2a < 1.0 or p2b < 1.0) else Verdict.FAILS
    return {"part1": part1, "part2": part2}


def _theorem3_verdict(misc, p1, p2, near) -> Verdict:
    """The reference for Theorem 3's verdict on its most miscoordinated state."""
    if near(misc, 0.5):
        return Verdict.BOUNDARY
    return Verdict.HOLDS if misc > 0.5 and p2 < 0.5 < p1 else Verdict.FAILS


class TestBandRule:
    def test_theorem4_parts_match_the_reference(self, rng, monkeypatch):
        # size-1 masses are 1, and the cuts 1/u2 + 1 = 3 and u1 + 1 = 4 tell
        # the four truncated expectations apart, so they are the products
        env = Environment.of(CoordinationGame(3.0, 0.5), SampleSizeDistribution.point(1))
        keys = [(3.0, "strict"), (4.0, "strict"), (3.0, "weak"), (4.0, "weak")]
        table = {}
        monkeypatch.setattr(analysis, "truncated_expectation", lambda _, m, mode: table[m, mode])
        splits = 0
        for v in band_inputs(rng):
            others = rng.uniform(0.0, 3.0, 3).tolist()
            for at in range(4):
                p = others[:at] + [v] + others[at:]
                table.update(zip(keys, p))
                want, split = band_reference(lambda near: _theorem4_parts(*p, near), p, 1.0)
                assert check_theorem4(env).parts == want, p
                splits += split
        assert splits  # the inputs reach the doubles where the band tests differ

    def test_theorem3_boundary_matches_the_reference(self, rng, monkeypatch):
        # one stable interior state at ``point``, whose miscoordination is ``misc``
        case = {}
        monkeypatch.setattr(analysis, "miscoordination_probability", lambda state: case["misc"])
        monkeypatch.setattr(analysis, "find_stationary_two_pop", lambda env: StationaryAnalysis(
            (analysis._state(case["point"], 0.25, 0.0),)))
        env = Environment.of(CoordinationGame(3.0, 0.5), SampleSizeDistribution.point(3))
        splits = 0
        for v in band_inputs(rng):
            for p1, p2 in ((0.9, 0.1), (0.1, 0.9)):
                case.update(misc=v, point=(p1, p2))
                want, split = band_reference(
                    lambda near: _theorem3_verdict(v, p1, p2, near), [v], 0.5)
                assert check_theorem3(env).verdict == want, (v, p1, p2)
                splits += split
        assert splits


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


def _reference_search(env, big_k, alpha_step):
    """The mixture search as one whole two-population stationary search per
    alpha pair, in the search's order and with the environment's tie rule:
    the reference that the block scan must equal."""
    game, theta1, theta2 = env.game, env.theta1, env.theta2
    in_scope = (
        1 < theta1.max_support < game.u1 + 1.0 and 1 < theta2.max_support < game.u2 + 1.0
    )
    grid = analysis._alpha_grid(alpha_step)
    pairs = [(a, a) for a in grid] + [(a1, a2) for a1 in grid for a2 in grid if a1 != a2]
    for a1, a2 in pairs:
        mixed = Environment(
            game, theta1.mix_with(a1, big_k), theta2.mix_with(a2, big_k), env.tie_break
        )
        hits = find_stationary_two_pop(mixed).stable_interior()
        if hits:
            return analysis.StableInteriorSearch(True, (a1, a2), hits[0], in_scope)
    return analysis.StableInteriorSearch(False, None, None, in_scope)


def _reference_one_pop_search(env, big_k, alpha_step):
    """The one-population mixture search as one whole stationary search per
    share, in order and with the environment's tie rule."""
    in_scope = 1 < env.theta1.max_support < env.game.u1 + 1.0
    for a in analysis._alpha_grid(alpha_step):
        mixed = env.theta1.mix_with(a, big_k)
        env_a = Environment(env.game, mixed, mixed, env.tie_break)
        hits = find_stationary_one_pop(env_a).stable_interior()
        if hits:
            return analysis.StableInteriorSearch(True, a, hits[0], in_scope)
    return analysis.StableInteriorSearch(False, None, None, in_scope)


def _reference_mineffort_search(game, k, big_k, alpha_step):
    """The minimum-effort mixture search as it was written before it joined
    the block scan: one whole stationary search per share."""
    in_scope = k < game.u + 1.0 and (game.observation == Observation.MINIMUM_EFFORT or 1 < k)
    for alpha in analysis._alpha_grid(alpha_step):
        theta = SampleSizeDistribution.point(k).mix_with(alpha, big_k)
        hits = find_stationary_one_pop(MinEffortResponse(game, theta)).stable_interior()
        if hits:
            return analysis.StableInteriorSearch(True, alpha, hits[0], in_scope)
    return analysis.StableInteriorSearch(False, None, None, in_scope)


def _search_cases(rng):
    """(environment, alpha_step): one- and two-population bases with sizes
    1-12, half of them below u + 1 as Theorem 2 asks, some with an atom in
    61-600, under favor-a at random payoffs and under favor-b at payoffs
    where thresholds tie, and last the paper's fixtures."""
    def theta(u, n):
        max_k = 12 if n % 8 < 4 else max(2, min(12, int(u + 1.0)))
        big = int(rng.integers(61, 601)) if n % 3 == 2 else None
        return random_theta(rng, max_k=max_k, max_atoms=min(4, max_k), big_k=big)

    cases = []
    for n in range(24):
        if n % 2:
            game = random_game(rng)
            thetas = (theta(game.u1, n), theta(game.u2, n))
        else:
            game = CoordinationGame.symmetric(float(rng.uniform(0.15, 8.0)))
            thetas = (theta(game.u1, n),) * 2
        cases.append((Environment(game, *thetas), (0.5, 0.25, 0.2, 0.1)[n % 4]))
    for n in range(8):
        u1, u2 = (float(u) for u in rng.choice(TIE_PAYOFFS, 2))
        game = CoordinationGame(u1, u2) if n % 2 else CoordinationGame.symmetric(u1)
        thetas = (theta(game.u1, n), theta(game.u2, n)) if n % 2 else (theta(u1, n),) * 2
        cases.append((Environment(game, *thetas, TieBreak.FAVOR_B), (0.5, 0.25)[n % 2]))
    cases.append((Environment.symmetric(1.5, SampleSizeDistribution.point(2)), 0.01))
    cases.append((Environment.of(CoordinationGame(20.0, 0.05), SampleSizeDistribution.point(3)),
                  0.1))
    return cases


class TestStableInteriorSearch:
    def test_equals_one_stationary_search_per_pair(self, rng, monkeypatch):
        cases = _search_cases(rng)
        want = [repr(_reference_search(env, 1000, step)) for env, step in cases]
        assert sum("found=True" in w for w in want) >= 8
        # favor-b cases whose favor-a search differs: the tie rule reaches the search
        moved = [env for (env, step), w in zip(cases, want) if env.tie_break == TieBreak.FAVOR_B
                 and repr(_reference_search(replace(env, tie_break=TieBreak.FAVOR_A), 1000,
                                            step)) != w]
        assert moved
        # the default budget, blocks of three pairs, and blocks of one
        for budget in (analysis.SCAN_BLOCK, 3 * analysis.GRID_POINTS, 1):
            monkeypatch.setattr(analysis, "SCAN_BLOCK", budget)
            for (env, step), w in zip(cases, want):
                got = repr(stable_interior_search(analysis.System.of(env, 2), 1000, step))
                assert got == w, (budget, env, step)

    def test_block_rows_equal_one_row_scans(self, rng):
        # every row of a block, not only the first hit, evaluates the grid
        # points of its own scan and gets the scan of its own composed
        # checked responses, bit for bit: pairs of sampling responses, and
        # shares of one sampling or minimum-effort response
        def recording(g_at, points):
            def recorded(r, i, x):
                for row, k in zip(r.tolist(), i.tolist()):
                    points.setdefault(row, []).append(k)
                return g_at(r, i, x)

            return recorded

        def check(w1s, w2s, block, case):
            points = {}
            field = recording(analysis._mixture_field(w1s, w2s)(block), points)
            scans = analysis._scan_rows(field, len(block))
            for row, (index, scan) in enumerate(zip(block, scans)):
                w1, w2, want_points = w1s[index[0]], w2s and w2s[index[1]], {}
                h = w1 if w2 is None else (lambda x: w1(w2(x)))
                (want,) = analysis._scan_rows(recording(lambda r, k, x: h(x) - x, want_points), 1)
                assert repr(scan) == repr(want), (case, index)
                assert points[row] == want_points[0], (case, index)

        for env, step in _search_cases(rng)[:-2]:
            game, theta1, theta2, tie = env.game, env.theta1, env.theta2, env.tie_break
            grid = analysis._alpha_grid(step)
            w1s = [SamplingResponse(game.u1, theta1.mix_with(a, 1000), tie) for a in grid]
            w2s = [SamplingResponse(game.u2, theta2.mix_with(a, 1000), tie) for a in grid]
            check(w1s, w2s, [(i, j) for i in range(len(grid)) for j in range(len(grid))], env)
            if env.is_symmetric:
                check(w1s, None, [(i,) for i in range(len(grid))], env)
        grid = analysis._alpha_grid(0.2)
        for n in range(12):
            game = MinEffortGame(int(rng.integers(2, 7)), float(rng.uniform(0.05, 0.95)),
                                 list(Observation)[n % 2])
            theta = random_theta(rng)
            ws = [MinEffortResponse(game, theta.mix_with(a, 1000)) for a in grid]
            check(ws, None, [(i,) for i in range(len(grid))], (game, theta))

    def test_one_population_equals_one_stationary_search_per_share(self, rng, monkeypatch):
        cases = [(replace(env, tie_break=tie), step) for env, step in _search_cases(rng)
                 if env.is_symmetric for tie in TieBreak]
        want = [repr(_reference_one_pop_search(env, 1000, step)) for env, step in cases]
        assert sum("found=True" in w for w in want) >= 4
        for budget in (analysis.SCAN_BLOCK, 3 * analysis.GRID_POINTS, 1):
            monkeypatch.setattr(analysis, "SCAN_BLOCK", budget)
            for (env, step), w in zip(cases, want):
                got = repr(stable_interior_search(env, 1000, step))
                assert got == w, (budget, env, step)

    def test_minimum_effort_equals_one_stationary_search_per_share(self, rng, monkeypatch):
        # half of the sizes k below u + 1, as the proposition asks
        cases = []
        for n in range(40):
            game = MinEffortGame(int(rng.integers(2, 7)), float(rng.uniform(0.05, 0.95)),
                                 list(Observation)[n % 2])
            top = 12 if n % 4 >= 2 else max(2, min(12, int(game.u + 1.0)))
            cases.append((game, int(rng.integers(1, top + 1)), int(rng.integers(13, 601)),
                          (0.5, 0.25, 0.2, 0.1, 0.05)[n % 5]))
        want = [repr(_reference_mineffort_search(*case)) for case in cases]
        assert 4 <= sum("found=True" in w for w in want) < len(want)
        for budget in (analysis.SCAN_BLOCK, 3 * analysis.GRID_POINTS, 1):
            monkeypatch.setattr(analysis, "SCAN_BLOCK", budget)
            for (game, k, big_k, step), w in zip(cases, want):
                base = MinEffortResponse(game, SampleSizeDistribution.point(k))
                got = repr(stable_interior_search(base, big_k, step))
                assert got == w, (budget, game, k, big_k, step)

    def test_pairs_with_minimum_effort_equal_one_stationary_search_per_pair(self, rng):
        # each side of a pair observes through its own exponent, or none;
        # sizes mostly below u + 1, as the propositions ask
        def response(n, side):
            if n % 3 == 2 and side == 1:
                u = float(rng.uniform(0.15, 8.0))
                top = max(2, min(6, int(u + 1.0)))
                theta = SampleSizeDistribution.point(int(rng.integers(2, top + 1)))
                return SamplingResponse(u, theta)
            game = MinEffortGame(int(rng.integers(2, 5)), float(rng.uniform(0.05, 0.95)),
                                 list(Observation)[(n + side) % 2])
            top = max(1, min(6, int(game.u + 1.0)))
            theta = SampleSizeDistribution.point(int(rng.integers(1, top + 1)))
            return MinEffortResponse(game, theta)

        found = 0
        for n in range(12):
            base = (response(n, 0), response(n, 1))
            # a minimum-effort round counts one sample size as in scope
            rounds = [isinstance(w, MinEffortResponse)
                      and w.game.observation == Observation.MINIMUM_EFFORT for w in base]
            in_scope = all(w.theta.max_support < w.u + 1.0 and (r or 1 < w.theta.max_support)
                           for w, r in zip(base, rounds))
            grid = analysis._alpha_grid(0.25)
            pairs = [(a, a) for a in grid] + [(a, b) for a in grid for b in grid if a != b]
            want = analysis.StableInteriorSearch(False, None, None, in_scope)
            for a1, a2 in pairs:
                mixed = analysis.System((base[0].mix_with(a1, 50), base[1].mix_with(a2, 50)))
                hits = mixed.stationary().stable_interior()
                if hits:
                    want = analysis.StableInteriorSearch(True, (a1, a2), hits[0], in_scope)
                    break
            found += want.found
            got = stable_interior_search(analysis.System(base), 50, 0.25)
            assert repr(got) == repr(want), base
        assert 2 <= found < 12

    def test_one_population_needs_a_symmetric_environment(self):
        env = Environment.of(CoordinationGame(5.0, 0.2), THETA_15)
        with pytest.raises(ValueError, match="symmetric"):
            stable_interior_search(analysis.System.of(env, 1), 1000, 0.5)

    def test_oyama_interval(self):
        res = stable_interior_search(
            analysis.System.of(Environment.symmetric(1.5, SampleSizeDistribution.point(2)), 2),
            big_k=1000,
            alpha_step=0.01,
        )
        assert res.found and res.in_scope
        assert 0.5 < res.alpha[0] < 0.6
        assert res.state.stability == Stability.STABLE

    def test_fig3_left_game_found_out_of_scope(self):
        res = stable_interior_search(
            Environment.of(CoordinationGame(20.0, 0.05), SampleSizeDistribution.point(3)),
            big_k=1000,
            alpha_step=0.1,
        )
        # max(supp) = 3 exceeds u2 + 1 = 1.05, so the hypothesis fails,
        # yet the mixture search still finds the stable interior state
        assert not res.in_scope and res.found

    def test_steps_that_divide_one_keep_their_grid(self):
        for n in range(2, 101):
            assert analysis._alpha_grid(1.0 / n) == [i * (1.0 / n) for i in range(1, n)], n

    def test_step_that_does_not_divide_one_keeps_the_top_share(self):
        # round(1 / step) cut the grid at 0.6 for step 0.3, at 0.45 for step
        # 0.45, and left none for step 0.7; both searches share the grid
        assert analysis._alpha_grid(0.3) == [0.3, 0.6, 3 * 0.3]
        assert analysis._alpha_grid(0.07)[-1] == 14 * 0.07
        two = stable_interior_search(Environment.of(CoordinationGame(5.0, 0.2), THETA_15), 50, 0.45)
        assert two.found and two.alpha == (0.9, 0.9)
        base = MinEffortResponse(MinEffortGame(2, 0.05), SampleSizeDistribution.point(1))
        one = stable_interior_search(base, big_k=1000, alpha_step=0.7)
        assert one.found and one.alpha == 0.7 and one.state.stability == Stability.STABLE

    @pytest.mark.parametrize("step", [-0.1, 0.0, 0.005, 1.0, 1.5, math.nan, math.inf])
    def test_both_searches_reject_a_step_outside_the_grid_range(self, step):
        with pytest.raises(ValueError, match="alpha step"):
            stable_interior_search(
                Environment.symmetric(1.5, SampleSizeDistribution.point(2)), 1000, step
            )
        base = MinEffortResponse(MinEffortGame(3, 0.05), SampleSizeDistribution.point(1))
        with pytest.raises(ValueError, match="alpha step"):
            stable_interior_search(base, big_k=1000, alpha_step=step)

    def test_unit_theta_flagged_and_empty(self):
        res = stable_interior_search(
            Environment.symmetric(1.5, SampleSizeDistribution.point(1)),
            big_k=1000,
            alpha_step=0.2,
        )
        assert not res.in_scope and not res.found


def _outcome(check, *args) -> str:
    """The repr of a check's result, or of the ValueError it raises."""
    try:
        return repr(check(*args))
    except ValueError as exc:
        return repr(exc)


class TestSystemArguments:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(env=_sampling_envs())
    @example(env=Environment.symmetric(1.5, SampleSizeDistribution.point(3)))
    @example(env=Environment.symmetric(2.0, SampleSizeDistribution.of({2: 0.5, 3: 0.5})))
    @example(env=Environment.of(CoordinationGame(2.0, 0.5), SampleSizeDistribution.point(2),
                                SampleSizeDistribution.point(4), TieBreak.FAVOR_B))
    def test_an_environment_is_the_system_it_resolves_to(self, env):
        # a bare environment is one population when symmetric, two otherwise
        assume(max(env.theta1.max_support, env.theta2.max_support) < 1000)
        system = analysis.System.of(env)
        search = functools.partial(stable_interior_search, big_k=1000, alpha_step=0.5)
        checks = [classify_pure_states, search]
        if all(t.degenerate_k for t in (env.theta1, env.theta2)):
            checks.append(check_homogeneous_uniqueness)
        for check in checks:
            assert _outcome(check, env) == _outcome(check, system), (env, check)
        if env.is_symmetric:
            # two populations on request, as the searches read a symmetric
            # environment before one population became the default
            pair = analysis.System.of(env, 2)
            (b1, a1), (b2, a2) = (w.corner_slopes() for w in pair.responses)
            want = analysis.PureStateClassification(analysis._state((1.0, 1.0), a1 * a2, 0.0),
                                                    analysis._state((0.0, 0.0), b1 * b2, 0.0))
            assert repr(classify_pure_states(pair)) == repr(want), env
            assert repr(search(pair)) == repr(_reference_search(env, 1000, 0.5)), env

    @pytest.mark.parametrize("tie", list(TieBreak))
    def test_sampling_responses_mix_their_own_atoms(self, tie, rng):
        for _ in range(20):
            u, theta, alpha = float(rng.uniform(0.15, 8.0)), random_theta(rng), rng.random()
            mixed = SamplingResponse(u, theta, tie).mix_with(alpha, 1000)
            want = SamplingResponse(u, theta.mix_with(alpha, 1000), tie)
            assert type(mixed) is SamplingResponse and mixed._atoms == want._atoms
            assert mixed.tie_break == tie

    @pytest.mark.parametrize("observation", list(Observation))
    def test_minimum_effort_responses_mix_their_own_atoms(self, observation, rng):
        for _ in range(20):
            game = MinEffortGame(int(rng.integers(2, 7)), float(rng.uniform(0.05, 0.95)),
                                 observation)
            theta, alpha = random_theta(rng), rng.random()
            mixed = MinEffortResponse(game, theta).mix_with(alpha, 1000)
            want = MinEffortResponse(game, theta.mix_with(alpha, 1000))
            assert type(mixed) is MinEffortResponse and mixed._atoms == want._atoms
            assert mixed._exponent == want._exponent


class TestResponseKinds:
    """Each check names the responses it needs: the theorems read sample
    sizes and payoffs of sampling responses, the corner call and the
    mixture search thresholds and mixtures of minimum-effort ones too, and
    a logit response has none of them."""

    LOGIT = logit_system(CoordinationGame(5.0, 0.2), [(0.55, 0.55), (0.45, 0.01)])
    MINIMUM = MinEffortResponse(MinEffortGame(2, 0.6), SampleSizeDistribution.point(2))

    @pytest.mark.parametrize("check", [
        classify_pure_states, check_theorem4, check_homogeneous_uniqueness,
        stable_interior_search, check_theorem3,
    ])
    def test_a_logit_system_is_a_value_error(self, check):
        # each raised AttributeError; check_theorem3 once past u2 < 1 < u1
        with pytest.raises(ValueError, match="needs sampling .*responses, got LogitResponse"):
            check(self.LOGIT)

    @pytest.mark.parametrize("check", [
        check_theorem4, check_homogeneous_uniqueness, check_theorem3,
    ])
    def test_the_theorems_need_sampling_responses(self, check):
        pair = analysis.System((self.MINIMUM, self.MINIMUM))
        with pytest.raises(ValueError, match="needs sampling responses, got MinEffortResponse"):
            check(pair)

    def test_minimum_effort_reaches_the_corner_call_and_the_search(self):
        pure = classify_pure_states(self.MINIMUM)
        assert pure.state_a.stability == Stability.STABLE
        assert stable_interior_search(self.MINIMUM, 50, 0.5).in_scope


class TestTheorem3:
    def test_fig3_left_holds(self):
        rep = check_theorem3(
            Environment.of(CoordinationGame(20.0, 0.05), SampleSizeDistribution.point(3)), 1000
        )
        assert rep.verdict == Verdict.HOLDS
        assert rep.conditions["miscoordination"] == pytest.approx(0.6458, abs=5e-3)
        assert rep.conditions["p2"] < 0.5 < rep.conditions["p1"]

    def test_weak_asymmetry_fails(self):
        rep = check_theorem3(
            Environment.of(CoordinationGame(1.01, 1 / 1.01), SampleSizeDistribution.point(2)), 1000
        )
        assert rep.verdict == Verdict.FAILS

    def test_keeps_the_tie_rule(self):
        # 1000 / (u + 1) is integral for u = 3 and u = 1/4, so the big-sample
        # thresholds tie; the mixture keeps the environment's rule
        env = Environment.of(CoordinationGame(3.0, 0.25), SampleSizeDistribution.of(
            {1: 0.5, 2: 0.5}), tie_break=TieBreak.FAVOR_B)
        states = {}
        for tie in TieBreak:
            mixed = Environment.of(env.game, env.theta1.mix_with(0.5, 1000), tie_break=tie)
            (state,) = find_stationary_two_pop(mixed).stable_interior()
            states[tie] = state.state
        assert states[TieBreak.FAVOR_A] != states[TieBreak.FAVOR_B]
        rep = check_theorem3(env, 1000)
        assert (rep.conditions["p1"], rep.conditions["p2"]) == states[TieBreak.FAVOR_B]

    def test_symmetric_game_rejected(self):
        with pytest.raises(ValueError):
            check_theorem3(Environment.symmetric(2.0, SampleSizeDistribution.point(2)))


class TestPayoffEfficiency:
    def test_identity_response_closed_form(self):
        # w(p) = p against uniform share: realized 2/3, best 3/4
        w = SamplingResponse(1.0, SampleSizeDistribution.point(1))
        assert payoff_efficiency(w, 1.0) == pytest.approx((2 / 3) / (3 / 4), abs=1e-6)

    def test_perfect_response_approaches_one(self):
        w = SamplingResponse(1.0, SampleSizeDistribution.point(1000))
        assert payoff_efficiency(w, 1.0) > 0.97

    @pytest.mark.parametrize("u, theta, tie", [
        (1.2, {2: 1.0}, TieBreak.FAVOR_A),
        (5.0, {1: 0.5, 5: 0.5}, TieBreak.FAVOR_A),
        (0.2, {3: 0.5, 10: 0.5}, TieBreak.FAVOR_A),
        (3.0, {2: 0.2, 4: 0.8}, TieBreak.FAVOR_B),
    ])
    def test_simpson_matches_the_exact_beta_integrals(self, u, theta, tie):
        # w is the sum of mass * I_p(a, b) with a = m and b = k - m + 1, and
        # int_0^1 I_p(a, b) dp = b/(a + b),
        # int_0^1 p I_p(a, b) dp = 1/2 - a(a + 1)/(2(a + b)(a + b + 1))
        w = SamplingResponse(u, SampleSizeDistribution.of(theta), tie)
        mean = first = 0.0
        for k, mass, m in w._atoms:
            if m <= k:
                a, b = m, k - m + 1
                mean += mass * b / (a + b)
                first += mass * (0.5 - a * (a + 1) / (2 * (a + b) * (a + b + 1)))
        realized = (u + 1.0) * first + 0.5 - mean
        cut = 1.0 / (1.0 + u)  # max(pu, 1 - p) changes sides here
        best = cut - cut**2 / 2 + u * (1.0 - cut**2) / 2
        assert payoff_efficiency(w, u) == pytest.approx(realized / best, rel=1e-9)
