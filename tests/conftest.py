import math
from fractions import Fraction

import numpy as np
import pytest

from samplingdyn import CoordinationGame, Environment, SampleSizeDistribution


def polynomial_coefficients(w) -> tuple[Fraction, ...]:
    """Exact power-basis coefficients of a sampling response w as Fractions:
    the reference for identity checks at desk scale.  The coefficients of a
    degree-k tail grow like C(k, k/2), so they are kept exact."""
    coeffs = [Fraction(0)] * (w.degree + 1)
    for k, mass, m in w._atoms:
        if m > k:
            continue
        wf = Fraction(mass)
        for l in range(m, k + 1):
            c_kl = math.comb(k, l)
            for i in range(0, k - l + 1):
                coeffs[l + i] += wf * c_kl * math.comb(k - l, i) * (-1) ** i
    return tuple(coeffs)


def random_theta(rng, max_k=12, max_atoms=4, big_k=None):
    """Random finite-support sample size distribution with bounded masses."""
    n_atoms = int(rng.integers(1, max_atoms + 1))
    ks = rng.choice(np.arange(1, max_k + 1), size=n_atoms, replace=False)
    raw = rng.random(n_atoms) + 0.15
    if big_k is not None:
        ks = np.append(ks, big_k)
        raw = np.append(raw, rng.random() + 0.15)
    masses = raw / raw.sum()
    return SampleSizeDistribution.of(
        {int(k): float(w) for k, w in zip(ks, masses)}
    )


def random_game(rng, lo=0.15, hi=8.0):
    return CoordinationGame(float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)))


def random_env(rng, **theta_kw):
    return Environment.of(
        random_game(rng), random_theta(rng, **theta_kw), random_theta(rng, **theta_kw)
    )


def random_symmetric_env(rng, **theta_kw):
    u = float(rng.uniform(0.15, 8.0))
    return Environment.symmetric(u, random_theta(rng, **theta_kw))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
