"""Finite-population Monte Carlo oracle for the mean-field dynamics.

Agents hold actions; each step, every agent independently dies with
probability dt and is replaced by a newcomer who samples (with
replacement) from the opposing population's current actions and best
responds.  Sampling with replacement makes the observed count exactly
binomial in the opposing share, which is what the mean-field response
assumes.  All draws come from one seeded generator, so runs are
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Environment, SamplingResponse
from .flow import System, _step_count


def _threshold_arrays(response: SamplingResponse):
    support = np.array(response.theta.support, dtype=np.int64)
    masses = np.array([w for _, w in response.theta.atoms], dtype=float)
    thresholds = np.array([m for _, _, m, _ in response._atoms], dtype=np.int64)
    return support, masses, thresholds


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
    response = env.single_response() if isinstance(env, Environment) else env
    support, masses, thresholds = _threshold_arrays(response)
    rng = np.random.default_rng(seed)
    k_idx = rng.choice(len(support), size=samples, p=masses)
    counts = rng.binomial(support[k_idx], p)
    choices = counts >= thresholds[k_idx]
    estimate = float(np.mean(choices))
    stderr = float(np.sqrt(estimate * (1.0 - estimate) / samples))
    return estimate, stderr


@dataclass
class EmpiricalTrajectory:
    """Share trajectory of a finite-population run."""

    times: np.ndarray
    states: np.ndarray  # (steps+1,) one population, (steps+1, 2) two
    n: int
    seed: int
    dt: float

    @property
    def final_state(self):
        last = self.states[-1]
        return float(last) if np.ndim(last) == 0 else tuple(last)


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
    ``flow.System`` picks the form and every population starts at one
    half.  Agents are dealt deterministically to match the starting
    share(s) of first-action players as closely as n allows.
    """
    if n < 100:
        raise ValueError(f"population size must be at least 100, got {n!r}")
    n_steps = _step_count(t_max, dt)
    if dt > 1.0:
        raise ValueError(f"dt is a replacement probability per step, at most 1; got {dt!r}")
    system = System.of(env, None if initial is None else np.size(initial))
    if initial is None:
        initial = (0.5,) * system.dim
    tables = [_threshold_arrays(w) for w in system.responses]
    # population i samples population opponent[i]
    opponent = (0,) if system.dim == 1 else (1, 0)

    rng = np.random.default_rng(seed)
    times = np.arange(n_steps + 1) * dt

    def deal(share: float) -> np.ndarray:
        count = int(round(share * n))
        actions = np.zeros(n, dtype=bool)
        actions[:count] = True
        return actions

    pops = [deal(share) for share in np.reshape(initial, system.dim)]
    shares = np.empty((n_steps + 1, system.dim))
    shares[0] = [pop.mean() for pop in pops]
    for step in range(1, n_steps + 1):
        p_now = shares[step - 1]
        for i, (support, masses, thresholds) in enumerate(tables):
            dies = rng.random(n) < dt
            d = int(dies.sum())
            if d:
                k_idx = rng.choice(len(support), size=d, p=masses)
                counts = rng.binomial(support[k_idx], p_now[opponent[i]])
                pops[i][dies] = counts >= thresholds[k_idx]
        shares[step] = [pop.mean() for pop in pops]
    states = shares[:, 0] if system.dim == 1 else shares
    return EmpiricalTrajectory(times, states, n=n, seed=seed, dt=dt)
