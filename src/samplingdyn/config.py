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
names only keys that its model reads (``_MODEL_KEYS``); normalize's
"game" names only game forms (``_GAME_FORMS``).  ``read`` reads every
other config object from its table of fields: the object names only the
table's keys, each parsed by its field's parser, such as ``number``,
which keeps an integer exact.  A matrix is read in its own labels, as
"u1"/"u2" with its reduced payoffs; only normalize relabels it to the
canonical u1 >= 1, reporting "labels_swapped".  Sample size
distributions use string keys ({"1": 0.5}); tie_break is "favor-a" or
"favor-b".  CSVs are comma separated with "." decimals, a header row,
and LF line endings; floats print with 12 significant digits so reruns
are byte identical.
"""

from __future__ import annotations

import difflib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from .analysis import StationaryAnalysis, System, TheoremReport
from .dynamics import (
    Environment,
    LogitResponse,
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
        raise ConfigError(f"missing '{key}' in {context}")
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


class Field(NamedTuple):
    """One field of a config object's table, which ``read`` reads."""

    parse: Callable  # (value, key) -> the checked, typed value
    default: Any = ...  # ... when the config must set the field
    flag: tuple[type, str] | None = None  # a run flag's type and help


def read(obj: Any, fields: Mapping[str, Field], context: str) -> dict:
    """The ``fields`` of the config object ``obj``: each parsed, or its
    default where ``obj`` does not name it.  ``obj`` names only the keys of
    ``fields``, and every field that has no default."""
    _closed(obj, fields, context)
    if missing := [key for key, field in fields.items() if field.default is ... and key not in obj]:
        raise ConfigError(f"missing '{missing[0]}' in {context}")
    return {key: field.parse(obj[key], key) if key in obj else field.default
            for key, field in fields.items()}


def number(kind: type, least: float = -math.inf, most: float = math.inf):
    """The parser of finite numbers of ``kind``, int or float, in [least,
    most]: an int that is not a bool, or a float, integral if ``kind`` is
    int.  An int keeps its exact value; one past the float range is no
    number."""
    what = "an integer" if kind is int else "a finite number"
    bounds = f" in [{least}, {most}]" if (least, most) != (-math.inf, math.inf) else ""

    def parse(value, key: str):
        integral = kind is int and isinstance(value, float) and value.is_integer()
        number = int(value) if integral else value
        if not (isinstance(number, (kind, int)) and not isinstance(number, bool)
                and abs(number) <= _LARGEST and least <= number <= most):
            raise ConfigError(f"'{key}' must be {what}{bounds}, got {value!r}")
        return kind(number)
    return parse


def choice(options: Mapping[str, Any], what: str):
    """The parser of a string that names one of ``options``: the option."""
    def parse(value, key: str):
        if not (isinstance(value, str) and value in options):
            raise ConfigError(f"invalid {what} {value!r}: not one of {', '.join(options)}")
        return options[value]
    return parse


_LARGEST, _REAL = float(np.finfo(float).max), number(float)


def _reals(value, key: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"'{key}' must be a list of numbers, got {value!r}")
    return tuple(_REAL(v, key) for v in value)


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
        masses[k], keys[k] = _REAL(value, f"{context}[{key}]"), key
    try:
        return SampleSizeDistribution.of(masses)
    except ValueError as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


# The fields of each object nested in an environment.  A matrix names the
# column player's payoffs, v11 to v22, all four or none.
_MATRIX = {key: Field(_REAL, None if key[0] == "v" else ...)
           for key in ("u11", "u12", "u21", "u22", "v11", "v12", "v21", "v22")}
_HAWK_DOVE = {"g": Field(_REAL), "l": Field(_REAL)}
_LOGIT_GROUP = {"mass": Field(_REAL), "eta": Field(_REAL)}
_CONTRACTING = {"M": Field(number(int), None), "diag1": Field(_reals), "diag2": Field(_reals)}
_MINEFFORT = {"N": Field(number(int)), "c": Field(_REAL),
              "observation": Field(choice({o.value: o for o in Observation}, "observation"),
                                   Observation.MINIMUM_EFFORT)}


def parse_logit_groups(obj: Any, context: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{context} must be a non-empty list of groups")
    return tuple(tuple(read(entry, _LOGIT_GROUP, f"{context}[{i}]").values())
                 for i, entry in enumerate(obj))


def parse_game(obj: Mapping, context: str = "environment") -> CoordinationGame:
    forms = [key for key in ("matrix", "hawk_dove", "u") if key in obj]
    forms += ["u1/u2"] if "u1" in obj or "u2" in obj else []
    if len(forms) > 1:
        raise ConfigError(f"'{context}' sets the game in more than one form: {', '.join(forms)}")
    try:
        if "matrix" in obj:
            m = read(obj["matrix"], _MATRIX, "'matrix'")
            if unset := [key for key, value in m.items() if value is None]:
                if len(unset) < 4:
                    raise ConfigError(f"missing '{unset[0]}' in 'matrix'")
                return normalize_symmetric(OriginalGameMatrix(**m))
            return normalize_general(OriginalGameMatrix(**m))
        if "hawk_dove" in obj:
            return normalize_hawk_dove(HawkDoveGame(**read(obj["hawk_dove"], _HAWK_DOVE,
                                                           "'hawk_dove'")))
        if "u" in obj:
            return CoordinationGame.symmetric(_REAL(obj["u"], "u"))
        u1, u2 = (_REAL(_require(obj, key, f"'{context}'"), key) for key in ("u1", "u2"))
        return CoordinationGame(u1, u2)
    except (NormalizationError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid game in '{context}': {exc}") from exc


@dataclass
class EnvSpec:
    """Parsed environment: which model family and its constructed objects."""

    kind: str  # "sampling" | "logit" | "contracting" | "mineffort"
    one_population: bool
    environment: Environment | None = None
    system: System | None = None  # None for a contracting environment
    contracting: ContractingGame | None = None
    mineffort: MinEffortGame | None = None
    thetas: tuple[SampleSizeDistribution, ...] = ()

    def response_system(self) -> System:
        """The System of the config's dynamics, which every command runs."""
        if self.system is None:
            raise ConfigError(f"{self.kind} environments do not define scalar/pair dynamics")
        return self.system


# An environment's keys come in one-of groups (the game form, "theta" or
# "theta1"/"theta2", "logit" or "logit1"/"logit2"), so it is closed on the
# keys of its model and read by hand.
_GAME_FORMS, _LOGIT = ("matrix", "hawk_dove", "u", "u1", "u2"), ("logit", "logit1", "logit2")
_MODEL_KEYS = {  # the environment keys each model reads
    "contracting": ("contracting", "theta1", "theta2"), "mineffort": ("mineffort", "theta"),
    "logit": _GAME_FORMS + _LOGIT,
    "sampling": _GAME_FORMS + ("theta", "theta1", "theta2", "tie_break"),
}
_TIE_BREAK = choice({rule.value: rule for rule in TieBreak}, "tie_break")


def _thetas(obj: Mapping, keys: tuple[str, ...]) -> tuple[SampleSizeDistribution, ...]:
    return tuple(parse_theta(_require(obj, key, "'environment'"), key) for key in keys)


def parse_environment(obj: Any) -> EnvSpec:
    if not isinstance(obj, Mapping):
        raise ConfigError("'environment' must be an object")
    kind = next((k for k in ("contracting", "mineffort") if k in obj),
                "logit" if any(k in obj for k in _LOGIT) else "sampling")
    _closed(obj, _MODEL_KEYS[kind], f"a {kind} environment")
    if "theta" in obj and ("theta1" in obj or "theta2" in obj):
        raise ConfigError("'theta' (one population) cannot be combined with 'theta1'/'theta2'")
    if "logit" in obj and ("logit1" in obj or "logit2" in obj):
        raise ConfigError("'logit' (both populations) cannot be combined with 'logit1'/'logit2'")

    if kind == "contracting":
        c = read(obj["contracting"], _CONTRACTING, "'contracting'")
        try:
            game = ContractingGame(c["diag1"], c["diag2"])
        except ValueError as exc:
            raise ConfigError(f"invalid contracting game: {exc}") from exc
        if not game.is_generic():
            raise ConfigError("invalid contracting game: two equilibria share a payoff profile")
        if c["M"] not in (None, game.M):
            raise ConfigError(f"'M' = {c['M']} does not match diagonal length {game.M}")
        return EnvSpec(kind="contracting", one_population=False, contracting=game,
                       thetas=_thetas(obj, ("theta1", "theta2")))

    if kind == "mineffort":
        me = read(obj["mineffort"], _MINEFFORT, "'mineffort'")
        try:
            game = MinEffortGame(me["N"], me["c"], me["observation"])
        except ValueError as exc:
            raise ConfigError(f"invalid minimum-effort game: {exc}") from exc
        (theta,) = _thetas(obj, ("theta",))
        return EnvSpec(kind="mineffort", one_population=True, mineffort=game, thetas=(theta,),
                       system=System((MinEffortResponse(game, theta),)))

    game = parse_game(obj)

    if kind == "logit":
        if "logit" in obj:
            groups1 = groups2 = parse_logit_groups(obj["logit"], "logit")
        else:
            groups1, groups2 = (parse_logit_groups(_require(obj, key, "'environment'"), key)
                                for key in ("logit1", "logit2"))
        try:
            system = System((LogitResponse(game.u1, groups1), LogitResponse(game.u2, groups2)))
        except ValueError as exc:
            raise ConfigError(f"invalid logit groups: {exc}") from exc
        return EnvSpec(kind="logit", one_population=False, system=system)

    tie = _TIE_BREAK(obj.get("tie_break", TieBreak.FAVOR_A.value), "tie_break")
    one = "theta" in obj
    if one and not game.is_symmetric:
        raise ConfigError("one-population environments need a symmetric game")
    thetas = _thetas(obj, ("theta",) if one else ("theta1", "theta2"))
    env = Environment(game, thetas[0], thetas[-1], tie)
    # the config's form sets the arity: "theta" is one population, "theta1"/"theta2" two
    return EnvSpec(kind="sampling", one_population=one, environment=env, thetas=thetas,
                   system=System.of(env, 1 if one else 2))


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
