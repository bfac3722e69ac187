"""Hand-emitted SVG phase plots with byte-stable output.

No plotting library: output must be byte identical across runs for
golden-file tests, so every coordinate is formatted to six decimals and
elements are emitted in a fixed order.  The dot convention follows the
phase-plot figures: solid dots are asymptotically stable states, hollow
dots unstable ones, gray dots marginal.  Each phase function takes
anything ``System.of`` resolves in its arity.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import Stability, StationaryAnalysis, System
from .config import fmt

VIEW = 600
MARGIN = 60
SPAN = VIEW - 2 * MARGIN


def _x(p: float) -> str:
    return f"{MARGIN + SPAN * p:.6f}"


def _y(v: float) -> str:
    return f"{VIEW - MARGIN - SPAN * v:.6f}"


def _polyline(xs, ys, style: str) -> str:
    pts = " ".join(f"{MARGIN + SPAN * x:.6f},{VIEW - MARGIN - SPAN * y:.6f}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" {style} points="{pts}"/>'


def _dot(p1: float, p2: float, stability: Stability) -> str:
    if stability == Stability.STABLE:
        fill, stroke = "#000000", "#000000"
    elif stability == Stability.UNSTABLE:
        fill, stroke = "#ffffff", "#000000"
    else:
        fill, stroke = "#999999", "#000000"
    return (
        f'<circle cx="{_x(p1)}" cy="{_y(p2)}" r="6" '
        f'fill="{fill}" stroke="{stroke}" stroke-width="1.5"/>'
    )


def _frame(x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<rect width="{VIEW}" height="{VIEW}" fill="#ffffff"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{SPAN}" height="{SPAN}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        label = f"{tick:g}"
        parts.append(
            f'<text x="{_x(tick)}" y="{VIEW - MARGIN + 24}" font-family="monospace" '
            f'font-size="12" text-anchor="middle">{label}</text>'
        )
        parts.append(
            f'<text x="{MARGIN - 10}" y="{_y(tick)}" font-family="monospace" '
            f'font-size="12" text-anchor="end" dominant-baseline="middle">{label}</text>'
        )
    parts.append(
        f'<text x="{_x(0.5)}" y="{VIEW - 12}" font-family="monospace" font-size="14" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_y(0.5)}" font-family="monospace" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 16 {_y(0.5)})">{y_label}</text>'
    )
    return parts


def _document(parts: list[str]) -> str:
    body = "\n".join(parts)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW} {VIEW}" '
        f'width="{VIEW}" height="{VIEW}">\n{body}\n</svg>\n'
    )


def phase_svg_one_pop(
    system, stationary: StationaryAnalysis, samples: int = 601
) -> str:
    """Response curve against the diagonal, stationary states marked."""
    (response,) = System.of(system, 1).responses
    ps = np.linspace(0.0, 1.0, samples)
    ws = np.asarray(response(ps), dtype=float)
    parts = _frame("p", "w(p)")
    parts.append(_polyline(ps, ps, 'stroke="#888888" stroke-width="1" stroke-dasharray="6,4"'))
    parts.append(_polyline(ps, ws, 'stroke="#5b3a8e" stroke-width="2"'))
    for s in stationary.states:
        parts.append(_dot(s.p1, s.p1, s.stability))
    return _document(parts)


def _quiver(w1, w2, per_axis: int) -> list[str]:
    parts = []
    centers = (np.arange(per_axis) + 0.5) / per_axis
    max_len = 0.8 * SPAN / per_axis
    for p1 in centers:
        for p2 in centers:
            v1 = float(w1(p2)) - p1
            v2 = float(w2(p1)) - p2
            norm = math.hypot(v1, v2)
            if norm < 1e-12:
                continue
            scale = max_len * min(1.0, norm / 0.5) / norm
            x0 = MARGIN + SPAN * p1
            y0 = VIEW - MARGIN - SPAN * p2
            dx, dy = v1 * scale, -v2 * scale
            x1, y1 = x0 + dx, y0 + dy
            # short stem plus a two-stroke arrowhead
            ang = math.atan2(dy, dx)
            a1 = ang + math.radians(150.0)
            a2 = ang - math.radians(150.0)
            head = 4.0
            parts.append(
                f'<line x1="{x0:.6f}" y1="{y0:.6f}" x2="{x1:.6f}" y2="{y1:.6f}" '
                'stroke="#bbbbbb" stroke-width="1"/>'
            )
            parts.append(
                f'<line x1="{x1:.6f}" y1="{y1:.6f}" '
                f'x2="{x1 + head * math.cos(a1):.6f}" y2="{y1 + head * math.sin(a1):.6f}" '
                'stroke="#bbbbbb" stroke-width="1"/>'
            )
            parts.append(
                f'<line x1="{x1:.6f}" y1="{y1:.6f}" '
                f'x2="{x1 + head * math.cos(a2):.6f}" y2="{y1 + head * math.sin(a2):.6f}" '
                'stroke="#bbbbbb" stroke-width="1"/>'
            )
    return parts


def phase_svg_two_pop(
    system,
    stationary: StationaryAnalysis,
    samples: int = 601,
    quiver: int = 15,
) -> str:
    """Null-cline curves w2(p1) and the preimage curve of w1, plus a quiver.

    The second curve is drawn parametrically as (w1(t), t), which is the
    same point set as p2 = w1^{-1}(p1) without inverting.
    """
    w1, w2 = System.of(system, 2).responses
    ts = np.linspace(0.0, 1.0, samples)
    w2_vals = np.asarray(w2(ts), dtype=float)
    w1_vals = np.asarray(w1(ts), dtype=float)
    parts = _frame("p1", "p2")
    if quiver > 0:
        parts.extend(_quiver(w1, w2, quiver))
    parts.append(
        _polyline(ts, w2_vals, 'stroke="#e08214" stroke-width="2" stroke-dasharray="5,3"')
    )
    parts.append(_polyline(w1_vals, ts, 'stroke="#5b3a8e" stroke-width="2"'))
    for s in stationary.states:
        parts.append(_dot(s.p1, s.p2, s.stability))
    return _document(parts)


def phase_curves_csv_one_pop(system, samples: int = 601) -> str:
    (response,) = System.of(system, 1).responses
    ps = np.linspace(0.0, 1.0, samples)
    ws = np.asarray(response(ps), dtype=float)
    lines = ["p,w_of_p"]
    lines.extend(f"{fmt(p)},{fmt(w)}" for p, w in zip(ps, ws))
    return "\n".join(lines) + "\n"


def phase_curves_csv_two_pop(system, samples: int = 601) -> str:
    w1, w2 = System.of(system, 2).responses
    ts = np.linspace(0.0, 1.0, samples)
    w2_vals = np.asarray(w2(ts), dtype=float)
    w1_vals = np.asarray(w1(ts), dtype=float)
    lines = ["t,w2_of_t,w1_of_t"]
    lines.extend(
        f"{fmt(t)},{fmt(a)},{fmt(b)}" for t, a, b in zip(ts, w2_vals, w1_vals)
    )
    return "\n".join(lines) + "\n"
