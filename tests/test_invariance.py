"""Mirror and swap relations that the dynamics keep exactly.

Relabelling the two actions turns the game with payoff u for coordinating
on the first action into the one with payoff 1/u, and a tie that went to
the first action now goes to the second: (u, theta, tie rule) becomes
(1/u, theta, the other tie rule), the response becomes
p -> 1 - w(1 - p), and every stationary state p becomes 1 - p with its
stability label.  A logit group's payoff difference scales by 1/u, so its
noise eta becomes eta/u.  Swapping the two populations maps a state
(p1, p2) to (p2, p1).  Payoffs are powers of two, so that 1/u and eta/u
are exact, and states must agree within ``TOL``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import theta_strategy
from samplingdyn.analysis import System
from samplingdyn.dynamics import LogitResponse, SamplingResponse, TieBreak
from samplingdyn.flow import label_basins

TOL = 1e-9
OTHER = {TieBreak.FAVOR_A: TieBreak.FAVOR_B, TieBreak.FAVOR_B: TieBreak.FAVOR_A}
PAYOFFS = st.integers(-4, 4).map(lambda e: 2.0**e)
TIES = st.sampled_from(list(TieBreak))


@st.composite
def sampling_responses(draw):
    theta = draw(theta_strategy())
    return SamplingResponse(draw(PAYOFFS), theta, draw(TIES))


@st.composite
def logit_responses(draw):
    mu = draw(st.floats(0.1, 0.9))
    etas = [draw(st.floats(0.02, 1.0)) for _ in range(2)]
    return LogitResponse(draw(PAYOFFS), [(mu, etas[0]), (1.0 - mu, etas[1])])


def mirror(w):
    """The response of the relabelled game."""
    if isinstance(w, LogitResponse):
        return LogitResponse(1.0 / w.u, [(mu, eta / w.u) for mu, eta in w.groups])
    return SamplingResponse(1.0 / w.u, w.theta, OTHER[w.tie_break])


def flip(state):
    return 1.0 - state if isinstance(state, float) else (1.0 - state[0], 1.0 - state[1])


def assert_maps(before, after, f, case):
    """The stationary states of ``after`` are those of ``before`` under f,
    each with its label, and a continuum maps to a continuum."""
    assert before.continuum == after.continuum, case
    want = sorted(((np.ravel(f(s.state)).tolist(), s.stability) for s in before.states),
                  key=lambda t: t[0])
    got = sorted(((np.ravel(s.state).tolist(), s.stability) for s in after.states),
                 key=lambda t: t[0])
    assert len(got) == len(want), (case, want, got)
    for (x, label), (y, image_label) in zip(want, got):
        assert np.max(np.abs(np.subtract(x, y))) <= TOL, (case, x, y)
        assert label == image_label, (case, x, y)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(w=sampling_responses())
def test_one_population_mirror(w):
    assert_maps(System((w,)).stationary(), System((mirror(w),)).stationary(), flip, w)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(w1=sampling_responses(), w2=sampling_responses(), tie=TIES)
def test_two_population_mirror(w1, w2, tie):
    # the two populations share one tie rule, as an environment's do
    w1, w2 = (SamplingResponse(w.u, w.theta, tie) for w in (w1, w2))
    before, after = System((w1, w2)), System((mirror(w1), mirror(w2)))
    assert_maps(before.stationary(), after.stationary(), flip, (w1, w2))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(w1=logit_responses(), w2=logit_responses())
def test_logit_mirror(w1, w2):
    one, image = System((w1,)), System((mirror(w1),))
    assert_maps(one.stationary(), image.stationary(), flip, w1)
    two, image = System((w1, w2)), System((mirror(w1), mirror(w2)))
    assert_maps(two.stationary(), image.stationary(), flip, (w1, w2))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(w1=st.one_of(sampling_responses(), logit_responses()),
       w2=st.one_of(sampling_responses(), logit_responses()))
def test_swap(w1, w2):
    before, after = System((w1, w2)), System((w2, w1))
    assert_maps(before.stationary(), after.stationary(), lambda s: (s[1], s[0]), (w1, w2))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(w1=sampling_responses(), w2=sampling_responses(), tie=TIES)
def test_basin_grid_mirrors_cell_by_cell(w1, w2, tie):
    w1, w2 = (SamplingResponse(w.u, w.theta, tie) for w in (w1, w2))
    before, after = System((w1, w2)), System((mirror(w1), mirror(w2)))
    if before.stationary().continuum:
        return
    grid, image = label_basins(before, 9), label_basins(after, 9)
    # attractor j of the grid is attractor index[j] of the image
    index = {-1: -1}
    for j, s in enumerate(grid.attractors):
        (match,) = [i for i, t in enumerate(image.attractors)
                    if np.max(np.abs(np.subtract(flip(s.state), t.state))) <= TOL]
        index[j] = match
    want = np.vectorize(index.__getitem__)(grid.cells[::-1, ::-1])
    assert np.array_equal(image.cells, want), (w1, w2)
