"""JSON wire formats and CSV/JSON writers used by the command line.

Environment objects:
    two-population sampling: {"u1": 5, "u2": 0.2, "theta1": {"1": 0.5, "5": 0.5},
                              "theta2": {"1": 0.5, "5": 0.5}}
    one-population sampling: {"u": 1.2, "theta": {"3": 1.0}}
    original matrix:         {"matrix": {"u11": 3, "u12": 1, "u21": 1, "u22": 2,
                              ["v11": ..., ...]}, ...}
    hawk-dove:               {"hawk_dove": {"g": 0.04, "l": 0.2}, ...}
    logit:                   {"u1": 2.5, "u2": 2.5,
                              "logit1": [{"mass": 0.55, "eta": 0.55}, ...],
                              "logit2": [...]}
    contracting:             {"contracting": {"M": 3, "diag1": [...], "diag2": [...]},
                              "theta1": ..., "theta2": ...}
    minimum effort:          {"mineffort": {"N": 4, "c": 0.5,
                              "observation": "minimum-effort"}, "theta": ...}

An environment sets its game in one form (a second is an error), and
names only keys that its model reads (``_MODEL_KEYS``); so does each
object nested in it, as every config object does (``_closed``).  A matrix is
read in its own labels, as "u1"/"u2" with its reduced payoffs; only
normalize relabels it to the canonical u1 >= 1, reporting "labels_swapped".
Sample size distributions use string keys ({"1": 0.5}); tie_break is
"favor-a" or "favor-b".  CSVs are comma separated with "." decimals, a
header row, and LF line endings; floats print with 12 significant
digits so reruns are byte identical.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .analysis import StationaryAnalysis, TheoremReport
from .dynamics import (
    Environment,
    ResponsePair,
    SampleSizeDistribution,
    TieBreak,
)
from .extensions import (
    ContractingGame,
    MinEffortGame,
    MinEffortResponse,
    Observation,
)
from .flow import BasinGrid
from .games import (
    CoordinationGame,
    HawkDoveGame,
    NormalizationError,
    OriginalGameMatrix,
    normalize_general,
    normalize_hawk_dove,
    normalize_symmetric,
)


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _unique_keys(pairs: list) -> dict:
    """``json.load``'s object hook: an object that repeats a key is an error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"key {key!r} appears more than once in one object")
        obj[key] = value
    return obj


def load_config(path: str | Path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        with open(p, "r", encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8, nesting or a repeated key
        raise ConfigError(f"invalid JSON in {p}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc.strerror}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config root must be an object, got {type(obj).__name__}")
    return obj


def _require(obj: Mapping, key: str, context: str):
    if key not in obj:
        raise ConfigError(f"missing field '{key}' in {context}")
    return obj[key]


def _closed(obj: Any, known, context: str) -> Mapping:
    """``obj``, an object that names only the ``known`` keys its reader reads;
    an error names each other key, and the nearest known key to each."""
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{context} must be an object, got {obj!r}")
    if unread := sorted(set(obj) - set(known)):
        near = [m for key in unread for m in difflib.get_close_matches(key, known, n=1)]
        hint = f"; did you mean {', '.join(near)}?" if near else ""
        raise ConfigError(f"{context} does not read {', '.join(unread)}{hint}")
    return obj


def _is_number(value: Any) -> bool:
    # an int past the float range is no number: converting it overflows
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                        and abs(value) <= float(np.finfo(float).max))


def _number(obj: Mapping, key: str, context: str) -> float:
    value = _require(obj, key, context)
    if not _is_number(value):
        raise ConfigError(f"field '{key}' in {context} must be a number")
    return float(value)


def _numbers(obj: Mapping, key: str, context: str) -> tuple[float, ...]:
    value = _require(obj, key, context)
    if not (isinstance(value, list) and all(_is_number(v) for v in value)):
        raise ConfigError(f"field '{key}' in {context} must be a list of numbers, got {value!r}")
    return tuple(float(v) for v in value)


def _integer(obj: Mapping, key: str, context: str) -> int:
    value = _number(obj, key, context)
    if not value.is_integer():
        raise ConfigError(f"field '{key}' in {context} must be an integer, got {value!r}")
    return int(value)


def parse_theta(obj: Any, context: str = "theta") -> SampleSizeDistribution:
    if not isinstance(obj, Mapping) or not obj:
        raise ConfigError(f"{context} must be a non-empty object of masses")
    masses: dict[int, float] = {}
    keys: dict[int, str] = {}
    for key, value in obj.items():
        try:
            k = int(key)
        except (TypeError, ValueError):
            raise ConfigError(f"{context} keys must be integer strings, got {key!r}")
        if k in keys:
            raise ConfigError(f"{context} keys {keys[k]!r} and {key!r} name one sample size {k}")
        if not _is_number(value):
            raise ConfigError(f"{context}[{key}] must be a number")
        masses[k], keys[k] = float(value), key
    try:
        return SampleSizeDistribution.of(masses)
    except ValueError as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


def parse_logit_groups(obj: Any, context: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{context} must be a non-empty list of groups")
    groups = []
    for i, entry in enumerate(obj):
        _closed(entry, ("mass", "eta"), f"{context}[{i}]")
        groups.append(
            (_number(entry, "mass", f"{context}[{i}]"), _number(entry, "eta", f"{context}[{i}]"))
        )
    return tuple(groups)


def parse_game(obj: Mapping, context: str = "environment") -> CoordinationGame:
    forms = [key for key in ("matrix", "hawk_dove", "u") if key in obj]
    forms += ["u1/u2"] if "u1" in obj or "u2" in obj else []
    if len(forms) > 1:
        raise ConfigError(f"'{context}' sets the game in more than one form: {', '.join(forms)}")
    try:
        if "matrix" in obj:
            m = _closed(obj["matrix"], _MATRIX_KEYS, "'matrix'")
            us = {k: _number(m, k, "matrix") for k in _MATRIX_KEYS[:4]}
            if any(k in m for k in _MATRIX_KEYS[4:]):
                vs = {k: _number(m, k, "matrix") for k in _MATRIX_KEYS[4:]}
                return normalize_general(OriginalGameMatrix(**us, **vs))
            return normalize_symmetric(OriginalGameMatrix(**us))
        if "hawk_dove" in obj:
            hd = _closed(obj["hawk_dove"], ("g", "l"), "'hawk_dove'")
            return normalize_hawk_dove(
                HawkDoveGame(_number(hd, "g", "hawk_dove"), _number(hd, "l", "hawk_dove"))
            )
        if "u" in obj:
            u = _number(obj, "u", context)
            return CoordinationGame.symmetric(u)
        u1 = _number(obj, "u1", context)
        u2 = _number(obj, "u2", context)
        return CoordinationGame(u1, u2)
    except (NormalizationError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid game in {context}: {exc}") from exc


@dataclass
class EnvSpec:
    """Parsed environment: which model family and its constructed objects."""

    kind: str  # "sampling" | "logit" | "contracting" | "mineffort"
    one_population: bool
    environment: Environment | None = None
    pair: ResponsePair | None = None
    contracting: ContractingGame | None = None
    mineffort: MinEffortGame | None = None
    thetas: tuple[SampleSizeDistribution, ...] = ()

    def response_system(self):
        """Object driving the flow module: response, pair, or environment."""
        if self.kind == "sampling":
            return self.environment
        if self.kind == "logit":
            return self.pair
        if self.kind == "mineffort":
            return MinEffortResponse(self.mineffort, self.thetas[0])
        raise ConfigError(f"{self.kind} environments do not define scalar/pair dynamics")


_GAME_FORMS, _LOGIT = ("matrix", "hawk_dove", "u", "u1", "u2"), ("logit", "logit1", "logit2")
_MATRIX_KEYS = ("u11", "u12", "u21", "u22", "v11", "v12", "v21", "v22")
_MODEL_KEYS = {  # the environment keys each model reads
    "contracting": ("contracting", "theta1", "theta2"), "mineffort": ("mineffort", "theta"),
    "logit": _GAME_FORMS + _LOGIT,
    "sampling": _GAME_FORMS + ("theta", "theta1", "theta2", "tie_break"),
}


def parse_environment(obj: Any) -> EnvSpec:
    if not isinstance(obj, Mapping):
        raise ConfigError("'environment' must be an object")
    context = "environment"
    kind = next((k for k in ("contracting", "mineffort") if k in obj),
                "logit" if any(k in obj for k in _LOGIT) else "sampling")
    _closed(obj, _MODEL_KEYS[kind], f"a {kind} environment")
    if "theta" in obj and ("theta1" in obj or "theta2" in obj):
        raise ConfigError("'theta' (one population) cannot be combined with 'theta1'/'theta2'")
    if "logit" in obj and ("logit1" in obj or "logit2" in obj):
        raise ConfigError("'logit' (both populations) cannot be combined with 'logit1'/'logit2'")

    if kind == "contracting":
        c = _closed(obj["contracting"], ("M", "diag1", "diag2"), "'contracting'")
        diag1 = _numbers(c, "diag1", "contracting")
        diag2 = _numbers(c, "diag2", "contracting")
        try:
            game = ContractingGame(diag1, diag2)
        except ValueError as exc:
            raise ConfigError(f"invalid contracting game: {exc}") from exc
        if not game.is_generic():
            raise ConfigError("invalid contracting game: two equilibria share a payoff profile")
        if "M" in c and _integer(c, "M", "contracting") != game.M:
            raise ConfigError(f"'M' = {c['M']} does not match diagonal length {game.M}")
        theta1 = parse_theta(_require(obj, "theta1", context), "theta1")
        theta2 = parse_theta(_require(obj, "theta2", context), "theta2")
        return EnvSpec(
            kind="contracting",
            one_population=False,
            contracting=game,
            thetas=(theta1, theta2),
        )

    if kind == "mineffort":
        me = _closed(obj["mineffort"], ("N", "c", "observation"), "'mineffort'")
        try:
            game = MinEffortGame(
                n_players=_integer(me, "N", "mineffort"),
                cost=_number(me, "c", "mineffort"),
                observation=Observation(me.get("observation", "minimum-effort")),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid minimum-effort game: {exc}") from exc
        theta = parse_theta(_require(obj, "theta", context), "theta")
        return EnvSpec(
            kind="mineffort", one_population=True, mineffort=game, thetas=(theta,)
        )

    game = parse_game(obj, context)

    if kind == "logit":
        if "logit" in obj:
            groups1 = groups2 = parse_logit_groups(obj["logit"], "logit")
        else:
            groups1 = parse_logit_groups(_require(obj, "logit1", context), "logit1")
            groups2 = parse_logit_groups(_require(obj, "logit2", context), "logit2")
        try:
            pair = ResponsePair.logit(game, groups1, groups2)
        except ValueError as exc:
            raise ConfigError(f"invalid logit groups: {exc}") from exc
        return EnvSpec(kind="logit", one_population=False, pair=pair)

    try:
        tie = TieBreak(obj.get("tie_break", TieBreak.FAVOR_A))
    except ValueError as exc:
        raise ConfigError(f"invalid tie_break: {obj['tie_break']!r}") from exc
    one = "theta" in obj
    if one and not game.is_symmetric:
        raise ConfigError("one-population environments need a symmetric game")
    keys = ("theta",) if one else ("theta1", "theta2")
    thetas = tuple(parse_theta(_require(obj, key, context), key) for key in keys)
    env = Environment(game, thetas[0], thetas[-1], tie)
    return EnvSpec(kind="sampling", one_population=one, environment=env, thetas=thetas)


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def stationary_csv(analysis: StationaryAnalysis) -> str:
    lines = ["p1,p2,stability,slope_product,leading_eigenvalue,residual"]
    for s in analysis.states:
        p2 = fmt(s.p2) if s.is_pair else ""
        lines.append(
            ",".join(
                [
                    fmt(s.p1),
                    p2,
                    s.stability.value,
                    fmt(s.slope_product),
                    fmt(s.leading_eigenvalue),
                    fmt(s.residual),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_stationary_csv(path: str | Path, analysis: StationaryAnalysis) -> None:
    _write_text(Path(path), stationary_csv(analysis))


def theorem_report_json(report: TheoremReport) -> dict:
    out: dict[str, Any] = {
        "theorem": report.theorem,
        "conditions": {k: float(v) for k, v in report.conditions.items()},
        "verdict": report.verdict.value,
    }
    if report.parts:
        out["parts"] = {k: v.value for k, v in report.parts.items()}
    return out


def write_json(path: str | Path, obj: Any) -> None:
    _write_text(Path(path), json.dumps(obj, indent=2, sort_keys=True) + "\n")


def trajectory_csv(times, states, comments: tuple[str, ...] = ()) -> str:
    states = np.asarray(states)
    two = states.ndim == 2
    lines = [f"# {c}" for c in comments]
    lines.append("t,p1,p2" if two else "t,p1")
    # one format operation on the Python floats of every row gives ``fmt``'s text
    values = np.column_stack([times, states]).ravel().tolist()
    row = "%.12g,%.12g,%.12g\n" if two else "%.12g,%.12g\n"
    return "\n".join(lines) + "\n" + (row * len(times)) % tuple(values)


def write_trajectory_csv(path, times, states, comments: tuple[str, ...] = ()) -> None:
    _write_text(Path(path), trajectory_csv(times, states, comments))


def basins_csv(grid: BasinGrid) -> str:
    cells = grid.cells
    res = grid.resolution
    lines = ["cell_p1,cell_p2,attractor_index"]
    if cells.ndim == 1:
        for i in range(res):
            center = (i + 0.5) / res
            lines.append(f"{fmt(center)},,{int(cells[i])}")
    else:
        for i in range(res):
            c1 = (i + 0.5) / res
            for j in range(res):
                c2 = (j + 0.5) / res
                lines.append(f"{fmt(c1)},{fmt(c2)},{int(cells[i, j])}")
    return "\n".join(lines) + "\n"


def write_basins_csv(path, grid: BasinGrid) -> None:
    _write_text(Path(path), basins_csv(grid))


def basin_legend_json(grid: BasinGrid) -> dict:
    attractors = []
    for i, s in enumerate(grid.attractors):
        entry = {
            "index": i,
            "p1": s.p1,
            "stability": s.stability.value,
            "share": grid.shares.get(i, 0.0),
        }
        if s.is_pair:
            entry["p2"] = s.p2
        attractors.append(entry)
    return {
        "attractors": attractors,
        "flagged_cells": grid.flagged,
        "integrated_cells": grid.integrated,
        "resolution": grid.resolution,
    }
