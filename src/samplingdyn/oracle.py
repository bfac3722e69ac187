"""Finite-population Monte Carlo oracle for the mean-field dynamics.

Each step, every agent independently dies with probability dt and is
replaced by a newcomer who samples (with replacement) from the opposing
population's actions at the start of the step and best responds.
Sampling with replacement makes the observed count exactly binomial in
the opposing share, which is what the mean-field response assumes.

Agents are exchangeable, so a population's state is the number of its
agents on the first action.  A step draws the deaths among the
first-action and second-action agents as two binomials and lets only
the newcomers draw a sample size and a sample, so it costs O(n*dt)
draws, not O(n).  The newcomers' choices use the response's own sampling
thresholds alone, never the analytic tails they are meant to check.  All
draws come from one seeded generator, so runs are bit-reproducible for a
seed and follow the same distribution as the model of n individual
agents; the numbers a seed gives differ from those of the per-agent
simulation that earlier versions ran.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import System
from .dynamics import Environment, SamplingResponse
from .flow import _step_count

# Most binomial samples held in memory at once, whatever the number of draws.
DRAW_BLOCK = 1 << 20


def _draw_table(response: SamplingResponse):
    """The response's atoms (k, mass, m), with m its threshold, and their masses."""
    return response._atoms, np.array([mass for _, mass, _ in response._atoms])


def _first_action_choices(rng, table, draws: int, p: float) -> int:
    """How many of ``draws`` newcomers choose the first action.

    Each draws a sample size from theta and that many i.i.d. Bernoulli(p)
    opponent actions, and chooses the first action when the count
    reaches the threshold of its size.
    """
    atoms, masses = table
    chosen = 0
    while draws > 0:
        block = min(draws, DRAW_BLOCK)
        for (k, _, m), c in zip(atoms, rng.multinomial(block, masses)):
            if c:
                chosen += int(np.count_nonzero(rng.binomial(k, p, size=c) >= m))
        draws -= block
    return chosen


def empirical_response(env, p: float, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the sampling response at opposing share p.

    Draws ``samples`` independent agents: a sample size from theta, then
    that many i.i.d. Bernoulli(p) opponent actions, then the threshold
    rule.  Returns the fraction choosing the first action and its
    binomial standard error.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    (response,) = System.of(env, 1).responses
    rng = np.random.default_rng(seed)
    chosen = _first_action_choices(rng, _draw_table(response), samples, p)
    estimate = chosen / samples
    stderr = float(np.sqrt(estimate * (1.0 - estimate) / samples))
    return estimate, stderr


@dataclass
class EmpiricalTrajectory:
    """Share trajectory of a finite-population run."""

    times: np.ndarray
    states: np.ndarray  # (steps+1,) one population, (steps+1, 2) two
    n: int

    @property
    def final_state(self):
        last = self.states[-1]
        return float(last) if np.ndim(last) == 0 else tuple(last.tolist())


def simulate_population(
    env: Environment,
    n: int,
    t_max: float,
    dt: float = 0.01,
    seed: int = 0,
    initial=None,
) -> EmpiricalTrajectory:
    """Simulate n agents per population for t_max time units.

    A scalar ``initial`` runs one population that samples itself, a pair
    two populations that sample each other; with no ``initial``,
    ``analysis.System`` picks the form and every population starts at one
    half.  Starting shares must lie in [0, 1]; each population starts
    with ``round(share * n)`` agents on the first action.

    The state of a population is that count.  A step draws the deaths
    ``D_A ~ Bin(n_A, dt)`` and ``D_B ~ Bin(n - n_A, dt)``; the
    ``D_A + D_B`` newcomers sample the opposing shares at the start of
    the step, and the count becomes ``n_A - D_A`` plus the newcomers who
    choose the first action.  A step thus costs O(n*dt) draws.  Each
    agent ends a step on the first action with probability
    ``1 - dt + dt*w`` if it was on it and ``dt*w`` if not, as when every
    agent is simulated; runs are bit-reproducible for a seed, but a
    seed's numbers differ from those of the per-agent simulation.
    """
    if n < 100:
        raise ValueError(f"population size must be at least 100, got {n!r}")
    n_steps = _step_count(t_max, dt)
    if dt > 1.0:
        raise ValueError(f"dt is a replacement probability per step, at most 1; got {dt!r}")
    system = System.of(env, None if initial is None else np.size(initial))
    starts = np.full(system.dim, 0.5) if initial is None else np.reshape(initial, system.dim)
    if not np.all((starts >= 0.0) & (starts <= 1.0)):
        raise ValueError(f"initial shares must lie in [0, 1], got {initial!r}")
    tables = [_draw_table(w) for w in system.responses]
    # population i samples population opponent[i]
    opponent = (0,) if system.dim == 1 else (1, 0)

    rng = np.random.default_rng(seed)
    times = np.arange(n_steps + 1) * dt
    state = [int(round(share * n)) for share in starts]
    counts = np.empty((n_steps + 1, system.dim), dtype=np.int64)
    counts[0] = state
    for step in range(1, n_steps + 1):
        before = [count / n for count in state]
        for i, table in enumerate(tables):
            n_a = state[i]
            # two scalar draws cost a fifth of one draw on a pair
            d_a, d_b = rng.binomial(n_a, dt), rng.binomial(n - n_a, dt)
            p = before[opponent[i]]
            state[i] = n_a - d_a + _first_action_choices(rng, table, d_a + d_b, p)
        counts[step] = state
    shares = counts / n
    states = shares[:, 0] if system.dim == 1 else shares
    return EmpiricalTrajectory(times, states, n=n)
