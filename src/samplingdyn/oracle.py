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
from .flow import _step_count


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

    One-population (symmetric) environments sample from their own
    population; otherwise each population samples the other.  ``initial``
    gives the starting share(s) of first-action players; agents are dealt
    deterministically to match it as closely as n allows.
    """
    if n < 100:
        raise ValueError(f"population size must be at least 100, got {n!r}")
    n_steps = _step_count(t_max, dt)
    if dt > 1.0:
        raise ValueError(f"dt is a replacement probability per step, at most 1; got {dt!r}")
    if initial is None:
        initial = 0.5 if env.is_symmetric else (0.5, 0.5)
    one_pop = np.ndim(initial) == 0
    if one_pop and not env.is_symmetric:
        raise ValueError("scalar initial share needs a symmetric environment")

    rng = np.random.default_rng(seed)
    times = np.arange(n_steps + 1) * dt

    def deal(share: float) -> np.ndarray:
        count = int(round(share * n))
        actions = np.zeros(n, dtype=bool)
        actions[:count] = True
        return actions

    if one_pop:
        response = env.single_response()
        support, masses, thresholds = _threshold_arrays(response)
        actions = deal(float(initial))
        shares = np.empty(n_steps + 1)
        shares[0] = actions.mean()
        for step in range(1, n_steps + 1):
            p = actions.mean()
            dies = rng.random(n) < dt
            d = int(dies.sum())
            if d:
                k_idx = rng.choice(len(support), size=d, p=masses)
                counts = rng.binomial(support[k_idx], p)
                actions[dies] = counts >= thresholds[k_idx]
            shares[step] = actions.mean()
        return EmpiricalTrajectory(times, shares, n=n, seed=seed, dt=dt)

    r1, r2 = env.response(1), env.response(2)
    tables = [_threshold_arrays(r1), _threshold_arrays(r2)]
    init = np.asarray(initial, dtype=float).reshape(2)
    pops = [deal(init[0]), deal(init[1])]
    shares = np.empty((n_steps + 1, 2))
    shares[0] = [pops[0].mean(), pops[1].mean()]
    for step in range(1, n_steps + 1):
        p_now = (pops[0].mean(), pops[1].mean())
        for i in (0, 1):
            support, masses, thresholds = tables[i]
            p_opp = p_now[1 - i]
            dies = rng.random(n) < dt
            d = int(dies.sum())
            if d:
                k_idx = rng.choice(len(support), size=d, p=masses)
                counts = rng.binomial(support[k_idx], p_opp)
                pops[i][dies] = counts >= thresholds[k_idx]
        shares[step] = [pops[0].mean(), pops[1].mean()]
    return EmpiricalTrajectory(times, shares, n=n, seed=seed, dt=dt)
