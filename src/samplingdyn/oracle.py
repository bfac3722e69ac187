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
thresholds alone, never the analytic tails they are meant to check.  A
population run draws everything from one seeded generator, so it is
bit-reproducible for a seed and follows the same distribution as the
model of n individual agents; the numbers a seed gives differ from those
of the per-agent simulation that earlier versions ran.

A response estimate splits its samples into ``DRAW_CHUNKS`` chunks of
equal size (the first ones one larger when the count does not divide).
Chunk i draws from child i of ``numpy.random.SeedSequence(seed)`` on a
thread of its own, the calling thread drawing chunk 0, and the counts
are added in chunk order.  numpy's binomial and multinomial draws
release the GIL, so the chunks run at once on as many cores.  The
chunking depends on the number of samples alone, never on the core
count or on timing, and no chunk shares a stream with another, so a
seed gives the same estimate on any machine and under any scheduling.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .analysis import System
from .dynamics import Environment, _TailMixture
from .flow import _count, _step_count

# Most binomial samples held in memory at once, whatever the number of draws.
DRAW_BLOCK = 1 << 20
# Chunks, and so threads, of a response estimate: fixed, so that a seed's
# estimate never depends on the machine.
DRAW_CHUNKS = 2


def _draw_table(response):
    """The response's atoms (k, mass, m), with m its threshold, and their
    masses.  The newcomers draw opponent actions themselves, so only a
    tail mixture observed directly has them: one with an observation
    exponent (a minimum-effort round) or without thresholds (logit)
    raises ``ValueError``."""
    tail = isinstance(response, _TailMixture)
    if not tail or response._exponent is not None:
        why = "observes minimum-effort rounds" if tail else "has no thresholds"
        raise ValueError("the oracle simulates agents who sample opponent actions; "
                         f"a {type(response).__name__} that {why} is not one of them")
    return response._atoms, np.array([mass for _, mass, _ in response._atoms])


def _first_action_choices(rng, table, draws: int, p: float, block: int = DRAW_BLOCK) -> int:
    """How many of ``draws`` newcomers choose the first action.

    Each draws a sample size from theta and that many i.i.d. Bernoulli(p)
    opponent actions, and chooses the first action when the count
    reaches the threshold of its size.  At most ``block`` samples are
    held at once.
    """
    atoms, masses = table
    chosen = 0
    while draws > 0:
        size = min(draws, block)
        for (k, _, m), c in zip(atoms, rng.multinomial(size, masses)):
            if c:
                chosen += int(np.count_nonzero(rng.binomial(k, p, size=c) >= m))
        draws -= size
    return chosen


def _population_streams(seed: int, count: int) -> list:
    """The seeds of a run's ``count`` response estimates, one a population:
    the children of ``SeedSequence(seed)``, so that no two populations or
    seeds share a stream."""
    return np.random.SeedSequence(seed).spawn(count)


def empirical_response(
    env, p: float, samples: int, seed: int | np.random.SeedSequence
) -> tuple[float, float]:
    """Monte Carlo estimate of the sampling response at opposing share p.

    Draws ``samples`` independent agents: a sample size from theta, then
    that many i.i.d. Bernoulli(p) opponent actions, then the threshold
    rule.  Returns the fraction choosing the first action and its
    binomial standard error.

    The samples are drawn in ``DRAW_CHUNKS`` chunks, each on its own
    thread from its own child of the seed's ``SeedSequence`` (see the
    module docstring), holding at most ``DRAW_BLOCK`` samples in all.
    ``seed`` is an int, or a ``numpy.random.SeedSequence`` whose next
    children the chunks take, as ``SeedSequence.spawn`` gives them (so a
    sequence passed twice gives two independent estimates).  An
    exception in any chunk re-raises here, after every thread has ended.
    """
    samples = _count(samples, "samples", 1)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    (response,) = System.of(env, 1).responses
    table = _draw_table(response)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = root.spawn(DRAW_CHUNKS)
    base, extra = divmod(samples, DRAW_CHUNKS)
    # each chunk's count, or the exception that ended it
    outcomes: list = [None] * DRAW_CHUNKS

    def draw(i: int) -> None:
        try:
            outcomes[i] = _first_action_choices(
                np.random.default_rng(streams[i]), table, base + (i < extra), p,
                block=DRAW_BLOCK // DRAW_CHUNKS)
        except BaseException as exc:  # re-raised in the caller
            outcomes[i] = exc

    workers = [threading.Thread(target=draw, args=(i,)) for i in range(1, DRAW_CHUNKS)]
    for worker in workers:
        worker.start()
    draw(0)
    for worker in workers:
        worker.join()
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    chosen = sum(outcomes)
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
    n = _count(n, "population size n", 100)
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
