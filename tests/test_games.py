import numpy as np
import pytest

from samplingdyn.games import (
    CoordinationGame,
    DominanceProfile,
    HawkDoveGame,
    NormalizationError,
    OriginalGameMatrix,
    canonicalize,
    normalize_general,
    normalize_hawk_dove,
    normalize_symmetric,
    to_dominance,
)


def test_normalize_symmetric_standard_form_passthrough():
    for u in (0.3, 1.0, 1.2, 7.5):
        g = normalize_symmetric(OriginalGameMatrix(u, 0.0, 0.0, 1.0))
        assert g.u1 == g.u2 == pytest.approx(u, abs=1e-15)


def test_normalize_symmetric_hand_example():
    g = normalize_symmetric(OriginalGameMatrix(3.0, 1.0, 1.0, 2.0))
    assert g.u1 == g.u2 == pytest.approx(2.0, abs=1e-15)


def test_normalize_symmetric_rejects_bad_matrix():
    with pytest.raises(NormalizationError, match="u22 > u12"):
        normalize_symmetric(OriginalGameMatrix(1.0, 2.0, 0.0, 1.0))


def test_normalize_symmetric_rejects_degenerate():
    with pytest.raises(NormalizationError, match="degenerate"):
        normalize_symmetric(OriginalGameMatrix(1.0 + 5e-13, 0.0, 1.0, 1.0))


def test_normalize_general_standard_form_passthrough():
    m = OriginalGameMatrix(
        u11=2.0, u12=0.0, u21=0.0, u22=1.0, v11=1.5, v12=0.0, v21=0.0, v22=1.0
    )
    g = normalize_general(m)
    assert (g.u1, g.u2) == pytest.approx((2.0, 1.5))


def test_normalize_general_hand_example():
    m = OriginalGameMatrix(3.0, 1.0, 1.0, 2.0, v11=2.0, v12=0.0, v21=1.0, v22=3.0)
    g = normalize_general(m)
    assert (g.u1, g.u2) == pytest.approx((2.0, 1.0))


def test_normalize_general_canonicalizes_label_swap():
    # the reduction keeps the matrix's labels, (0.5, 4); canonicalize swaps
    # them to (2, 0.25)
    m = OriginalGameMatrix(1.0, 0.0, 0.0, 2.0, v11=4.0, v12=0.0, v21=0.0, v22=1.0)
    raw = normalize_general(m)
    assert (raw.u1, raw.u2) == pytest.approx((0.5, 4.0))
    g, swapped = canonicalize(normalize_general(m))
    assert (g.u1, g.u2) == pytest.approx((2.0, 0.25)) and swapped


def test_normalize_general_antidiagonal_equilibria_match_hawk_dove():
    g_, l_ = 0.3, 0.45
    m = OriginalGameMatrix(
        u11=0.0, u12=1.0 + g_, u21=1.0 - l_, u22=1.0,
        v11=0.0, v12=1.0 - l_, v21=1.0 + g_, v22=1.0,
    )
    via_general = normalize_general(m)
    via_hd = normalize_hawk_dove(HawkDoveGame(g_, l_))
    assert via_general.u1 == pytest.approx(via_hd.u1, rel=1e-12)
    assert via_general.u2 == pytest.approx(via_hd.u2, rel=1e-12)


def test_normalize_general_rejects_no_equilibria():
    # dominant-strategy game: no pair of strict equilibria in any labeling
    m = OriginalGameMatrix(2.0, 2.0, 1.0, 1.0, v11=2.0, v12=1.0, v21=2.0, v22=1.0)
    with pytest.raises(NormalizationError, match="no pair of strict"):
        normalize_general(m)


def test_affine_invariance_of_normalization(rng):
    # adding per-column constants and scaling each player's payoffs leaves
    # the reduced game unchanged
    for _ in range(50):
        u1, u2 = rng.uniform(0.2, 6.0, size=2)
        base = OriginalGameMatrix(
            u11=u1, u12=0.0, u21=0.0, u22=1.0, v11=u2, v12=0.0, v21=0.0, v22=1.0
        )
        c1, c2, d1, d2 = rng.uniform(-4.0, 4.0, size=4)
        s1, s2 = rng.uniform(0.1, 5.0, size=2)
        # player 1: per-column constants; player 2: per-row constants
        shifted = OriginalGameMatrix(
            u11=s1 * (u1 + c1), u12=s1 * (0.0 + c2),
            u21=s1 * (0.0 + c1), u22=s1 * (1.0 + c2),
            v11=s2 * (u2 + d1), v12=s2 * (0.0 + d1),
            v21=s2 * (0.0 + d2), v22=s2 * (1.0 + d2),
        )
        got = normalize_general(shifted)
        assert got.u1 == pytest.approx(u1, rel=1e-12, abs=1e-12)
        assert got.u2 == pytest.approx(u2, rel=1e-12, abs=1e-12)


def test_hawk_dove_examples():
    assert normalize_hawk_dove(HawkDoveGame(0.5, 0.5)).u1 == pytest.approx(1.0)
    g = normalize_hawk_dove(HawkDoveGame(0.04, 0.2))
    assert (g.u1, g.u2) == pytest.approx((20.0, 0.05))
    with pytest.raises(ValueError):
        HawkDoveGame(1.2, 0.5)


def test_hawk_dove_antisymmetry(rng):
    for _ in range(100):
        hd = HawkDoveGame(float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 0.99)))
        g = normalize_hawk_dove(hd)
        assert abs(g.u1 * g.u2 - 1.0) < 1e-12


def _from_dominance(d: DominanceProfile) -> CoordinationGame:
    """The inverse of ``to_dominance``: u_i = (1 - q_i) / q_i."""
    return CoordinationGame((1.0 - d.q1) / d.q1, (1.0 - d.q2) / d.q2)


def test_dominance_examples():
    assert to_dominance(CoordinationGame(1.0, 1.0)).q1 == pytest.approx(0.5)
    assert to_dominance(CoordinationGame(20.0, 1.0)).q1 == pytest.approx(1.0 / 21.0)
    assert to_dominance(CoordinationGame(3.0, 1.0)).q1 == pytest.approx(0.25)


def test_dominance_round_trip(rng):
    for _ in range(200):
        q1, q2 = rng.uniform(0.01, 0.99, size=2)
        d = to_dominance(_from_dominance(DominanceProfile(q1, q2)))
        assert d.q1 == pytest.approx(q1, rel=1e-12)
        assert d.q2 == pytest.approx(q2, rel=1e-12)
    for _ in range(200):
        u1, u2 = rng.uniform(0.02, 50.0, size=2)
        g = _from_dominance(to_dominance(CoordinationGame(u1, u2)))
        assert g.u1 == pytest.approx(u1, rel=1e-12)
        assert g.u2 == pytest.approx(u2, rel=1e-12)


def test_mixed_nash():
    assert CoordinationGame(1.0, 1.0).mixed_nash() == pytest.approx((0.5, 0.5))
    p1, p2 = CoordinationGame(20.0, 0.05).mixed_nash()
    # the antisymmetric bargaining game has its mixed equilibrium near (0.95, 0.05)
    assert p1 == pytest.approx(1.0 / 1.05, abs=1e-12)
    assert p2 == pytest.approx(1.0 / 21.0, abs=1e-12)
    assert CoordinationGame.symmetric(1.2).mixed_nash() == pytest.approx((1 / 2.2, 1 / 2.2))


def test_canonicalize_flag():
    g, swapped = canonicalize(CoordinationGame(0.5, 4.0))
    assert swapped and (g.u1, g.u2) == pytest.approx((2.0, 0.25))
    g2, swapped2 = canonicalize(g)
    assert not swapped2 and g2 == g


def test_game_validation():
    with pytest.raises(ValueError):
        CoordinationGame(-1.0, 2.0)
    with pytest.raises(ValueError):
        CoordinationGame(1.0, 0.0)
