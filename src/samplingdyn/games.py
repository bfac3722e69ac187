"""Two-action coordination games and payoff normalization.

Every two-action game with two strict equilibria reduces to a standard
two-parameter form: miscoordination pays 0, coordinating on the second
action pays 1, and coordinating on the first action pays ``u_i > 0`` to
player ``i``.  The reduction only uses payoff transformations that leave
best responses (and hence the learning dynamics) unchanged: adding a
constant to a player's payoffs within an opponent action, and scaling a
player's payoffs by a positive constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEGENERACY_TOL = 1e-12


class NormalizationError(ValueError):
    """Input matrix does not have the required pair of strict equilibria."""


def _require_payoff(name: str, value: float) -> None:
    # the corner conditions compare sample sizes with 1/u + 1
    if not (math.isfinite(value) and value > 0.0 and math.isfinite(1.0 / value)):
        raise ValueError(
            f"{name} must be a positive finite number with a finite reciprocal, got {value!r}"
        )


@dataclass(frozen=True)
class CoordinationGame:
    """Standard two-parameter coordination game.

    ``u1`` and ``u2`` are the players' payoffs for coordinating on the
    first action; coordinating on the second action pays 1 to both, and
    miscoordination pays 0.  One-population (symmetric) games are
    represented with ``u1 == u2``.  Both payoffs are positive and finite,
    and so are their reciprocals.
    """

    u1: float
    u2: float

    def __post_init__(self) -> None:
        _require_payoff("u1", self.u1)
        _require_payoff("u2", self.u2)

    @classmethod
    def symmetric(cls, u: float) -> "CoordinationGame":
        _require_payoff("u", u)
        return cls(u, u)

    @property
    def is_symmetric(self) -> bool:
        return self.u1 == self.u2

    def mixed_nash(self) -> tuple[float, float]:
        """Interior Nash equilibrium (p1, p2) = (1/(1+u2), 1/(1+u1))."""
        return (1.0 / (1.0 + self.u2), 1.0 / (1.0 + self.u1))


@dataclass(frozen=True)
class OriginalGameMatrix:
    """Raw payoff matrix, row player u's and (optionally) column player v's.

    Entry ``u11`` is the row player's payoff when both choose their first
    action, ``u12`` when row plays first against column's second, and so
    on.  Symmetric games supply only the four u's.
    """

    u11: float
    u12: float
    u21: float
    u22: float
    v11: float | None = None
    v12: float | None = None
    v21: float | None = None
    v22: float | None = None

    @property
    def has_column_player(self) -> bool:
        return None not in (self.v11, self.v12, self.v21, self.v22)


@dataclass(frozen=True)
class HawkDoveGame:
    """Hawk-dove bargaining game: hawk gains ``g`` against a dove, the dove
    loses ``l``; two hawks get 0, two doves get 1 each."""

    g: float
    l: float

    def __post_init__(self) -> None:
        for name, value in (("g", self.g), ("l", self.l)):
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")


@dataclass(frozen=True)
class DominanceProfile:
    """Tight q-dominance levels (q1, q2) of the first-action equilibrium."""

    q1: float
    q2: float

    def __post_init__(self) -> None:
        for name, value in (("q1", self.q1), ("q2", self.q2)):
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")


def _strict_gap(name: str, hi: float, lo: float) -> float:
    """Difference hi - lo, rejecting non-strict or near-degenerate orderings."""
    gap = hi - lo
    if gap <= DEGENERACY_TOL:
        if gap > 0:
            raise NormalizationError(
                f"degenerate game: {name} holds only within {DEGENERACY_TOL:g} "
                f"(difference {gap:g})"
            )
        raise NormalizationError(f"{name} violated (difference {gap:g})")
    return gap


def normalize_symmetric(m: OriginalGameMatrix) -> CoordinationGame:
    """Reduce a symmetric two-action coordination game to its single parameter.

    Requires strict diagonal equilibria (u11 > u21 and u22 > u12).  The
    result is u = (u11 - u21) / (u22 - u12), stored as u1 = u2 = u.
    """
    num = _strict_gap("u11 > u21", m.u11, m.u21)
    den = _strict_gap("u22 > u12", m.u22, m.u12)
    u = num / den
    return CoordinationGame(u, u)


def canonicalize(game: CoordinationGame) -> tuple[CoordinationGame, bool]:
    """Relabel actions so that u1 >= 1.

    Swapping the action labels for both players maps (u1, u2) to
    (1/u1, 1/u2).  Returns the canonical game and a flag recording whether
    the labels were swapped, so callers can translate reports back to the
    original action names.
    """
    if game.u1 >= 1.0:
        return game, False
    return CoordinationGame(1.0 / game.u1, 1.0 / game.u2), True


def _relabel_player1(m: OriginalGameMatrix) -> OriginalGameMatrix:
    # Swap player 1's actions (rows); both players' payoffs move with the row.
    return OriginalGameMatrix(
        u11=m.u21, u12=m.u22, u21=m.u11, u22=m.u12,
        v11=m.v21, v12=m.v22, v21=m.v11, v22=m.v12,
    )


def normalize_general(m: OriginalGameMatrix) -> CoordinationGame:
    """Reduce a general two-action game with two strict equilibria.

    If the strict equilibria sit on the anti-diagonal, player 1's actions
    are relabeled first.  The reduced payoffs are
    u1 = (u11 - u21)/(u22 - u12) and u2 = (v11 - v12)/(v22 - v21), in the
    matrix's own labels, also when u1 < 1 (``canonicalize`` relabels).
    """
    if not m.has_column_player:
        raise NormalizationError("general normalization requires both players' payoffs")

    def diagonal_gaps(mat: OriginalGameMatrix) -> tuple[float, float, float, float]:
        g1 = _strict_gap("u11 > u21", mat.u11, mat.u21)
        g2 = _strict_gap("u22 > u12", mat.u22, mat.u12)
        g3 = _strict_gap("v11 > v12", mat.v11, mat.v12)
        g4 = _strict_gap("v22 > v21", mat.v22, mat.v21)
        return g1, g2, g3, g4

    try:
        g1, g2, g3, g4 = diagonal_gaps(m)
    except NormalizationError as primary:
        try:
            g1, g2, g3, g4 = diagonal_gaps(_relabel_player1(m))
        except NormalizationError:
            raise NormalizationError(
                f"no pair of strict diagonal or anti-diagonal equilibria: {primary}"
            ) from primary

    return CoordinationGame(g1 / g2, g3 / g4)


def normalize_hawk_dove(h: HawkDoveGame) -> CoordinationGame:
    """Reduce a hawk-dove game to its antisymmetric standard form.

    The first action is "dove" for player 1 and "hawk" for player 2, which
    puts the strict equilibria on the diagonal.  The result satisfies
    u1 = (1 - l)/g = 1/u2, so u1 * u2 = 1.
    """
    u1 = (1.0 - h.l) / h.g
    return CoordinationGame(u1, 1.0 / u1)


def to_dominance(game: CoordinationGame) -> DominanceProfile:
    """Tight q-dominance levels of the first-action equilibrium: q_i = 1/(1+u_i)."""
    return DominanceProfile(1.0 / (1.0 + game.u1), 1.0 / (1.0 + game.u2))
