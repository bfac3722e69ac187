"""Command line front end.

Subcommands: analyze, phase, trajectory, basins, oracle, sweep,
normalize.  Runs are driven by a JSON config (--config) with a top-level
"command" discriminator.  Every subcommand takes --config and --out, and
only the flags of the config fields it reads, each overriding its field:
    trajectory   --tmax --dt
    basins       --resolution --tmax --dt
    oracle       --seed --tmax --dt
analyze, phase, sweep and normalize take no other flag; a flag that a
subcommand does not take exits 2.  ``_FIELDS`` is the one table of each
command's fields, their parsers and defaults and the run flags' types
and help; the oracle reads those of its "mode", and a sweep those of its
"type" (``_SWEEPS``).  ``config.read`` reads each config object from its
table, so an object names only keys its reader reads (the top level,
flags included: its command's fields, "command" and "out"); any other
key exits 2, naming the nearest known key, so --tmax or --dt on a
response-mode oracle run exits 2.  Exit codes: 0 success, 2
configuration error, 3 numeric failure: a non-finite state, or a
stationary state whose residual does not fit the bisection at its slope
(``analysis._stationary_search``), as a logit response too steep for
floats gives (eta 1e-8), where sweep flags the row "numeric-failure"
instead.  A command makes the output directory and writes its files
only after it has run, so a run that exits 2 or 3 leaves neither; an
--out that names a file, or a path under one, exits 2 before the
command runs.

basins labels each cell with the stationary state its center converges
to, a limit of the dynamics read off the stationary analysis (see
``flow.label_basins``); --tmax and --dt bound the separatrix traces and
the RK4 steps of the cells that cannot be labelled at their start, whose
number the legend records as integrated_cells.  A config whose every
state is stationary has no basins (exit 2).  analyze's search_alpha_step
lies in [0.01, 0.5]: the mixture search scans the shares i * step < 1 of
a "theta" config and the pairs of them, up to (1/step)^2, of a
"theta1"/"theta2" config; theorems.json lists the hit's shares, one per
population, as "alpha".  Theorem 4 concerns two populations, so only
"theta1"/"theta2" configs report it.  analyze reports the pure states of
a sampling config as Proposition 4, with sides a and b, and of a
minimum-effort config as Proposition 7 (minimum-effort observation) or 8
(action observation), with sides safe (all low) and efficient (all
high): theorems.json holds "state_<side>" with "theorem"
("proposition-<n>-<side>"), "conditions" ("product",
"leading_eigenvalue") and "stability", the corner call of the
stationary search.  A contracting config reports Proposition 5 for each
equilibrium.  Every command runs the one System that the config builds
(``EnvSpec.response_system``): "theta" and minimum-effort configs are one
population, "theta1"/"theta2" and logit configs two.  analyze and sweep
run every check on it, and each mixture is one of its responses'
``mix_with``, so a sampling environment's tie_break reaches them all.

sweep needs an "environment" and parses it as every command does, with
the swept "u", or "theta" as {k: 1}, in place of its own; a theta-mass
sweep mixes {k: 1} with big_k as an alpha sweep mixes theta.  Keys of
another model (mineffort, logit, contracting) exit 2, and so does a u
sweep of a game set in another form, as any second game form does.

sweep.csv has one row per swept value with the columns
    value            the swept theta mass, alpha or u
    n_stationary     number of stationary states
    n_interior       number of interior stationary states
    stable_interior  1 if some interior state is asymptotically stable, else 0
    thm4_part1       Theorem 4 part 1 verdict (holds/fails/boundary)
    thm4_part2       Theorem 4 part 2 verdict
    flag             empty, "continuum" or "numeric-failure"
Theorem 4 concerns two populations with u1 >= 1, so its columns read
"n/a" on one-population rows and rows with u1 < 1.  A flagged row leaves
every column but value and flag empty.  A sweep has at most
MAX_SWEEP_VALUES (10,000) values, each rounded to 12 significant digits
and larger than the one before.

oracle.csv in response mode has one row per population, in population
order, under the header p,estimate,standard_error; population i draws
its agents with seed + i - 1.  The oracle's population size n and its
response-mode samples are at most MAX_ORACLE_DRAWS (10**8); larger
values are a configuration error (exit 2).  So is a step count
round(tmax / dt) of 0 or above MAX_STEPS (10**6) for trajectory, basins
and the oracle's population mode (the defaults tmax 200, 200 and 50 with
dt 0.01 take 20,000, 20,000 and 5,000 steps).  phase draws at most
MAX_PHASE_SAMPLES (10**6) curve samples and a quiver of at most 1,000
arrows per axis.  A basin grid has at most MAX_BASIN_CELLS (10**6)
cells: resolution of them in one population, resolution**2 in two.
Sample sizes, whether theta keys, analyze's big_k or a sweep's k and
big_k, are at most MAX_SAMPLE_SIZE (10**6).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from . import analysis as an
from . import config as cfg
from . import svg as svgmod
from .analysis import System
from .config import ConfigError, Field
from .dynamics import MAX_SAMPLE_SIZE
from .extensions import Observation, contracting_pure_stability
# estimate_basins, the every-cell reference of label_basins, is not called
# here; perfbench's tracer test checks that it wraps this binding too.
from .flow import NumericError, estimate_basins, integrate, label_basins
from .games import canonicalize, to_dominance
from .oracle import empirical_response, simulate_population


MAX_PHASE_SAMPLES = 10**6

# Largest number of fixed steps, round(tmax / dt), of a run.
MAX_STEPS = 10**6

# Largest basin grid, resolution ** (number of populations) cells.
MAX_BASIN_CELLS = 10**6

# Largest oracle population size and response-mode sample count.
MAX_ORACLE_DRAWS = 10**8


def _shares(value, key: str):
    """A share, or a tuple of them from a list."""
    return tuple(_share(v, key) for v in value) if isinstance(value, list) else _share(value, key)


def _path(value, key: str) -> str:
    """A directory path that no file is at or above."""
    if not isinstance(value, str) or "\0" in value:
        raise ConfigError(f"'{key}' must be a directory path, got {value!r}")
    # _out_dir reports what only making the directory tells, such as permissions
    with contextlib.suppress(OSError):
        nearest = next((p for p in (Path(value), *Path(value).parents) if p.exists()), None)
        if not (nearest is None or nearest.is_dir()):
            raise ConfigError(f"'{key}' {value!r} cannot be a directory: {str(nearest)!r} is a file")
    return value


def _object(value, key: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigError(f"'{key}' must be an object, got {value!r}")
    return value


def _sweep(value, key: str) -> dict:
    """The sweep, read from the table of its "type"."""
    sweep_type = _object(value, key).get("type")
    return cfg.read(value, _sweep_type(sweep_type, "type"), f"a {sweep_type} sweep")


def _as_is(value, key: str):
    """A value checked before its object is read: the command, and the oracle
    mode and sweep type, which pick their object's table."""
    return value


# perfbench's tracer wraps config's functions in the module, so the parsers
# call them through it at run time rather than hold them in the table
_ENVIRONMENT = Field(lambda value, key: cfg.parse_environment(value))
_share, _INITIAL = cfg.number(float, 0.0, 1.0), Field(_shares, None)
_TMAX, _DT = (float, "integration horizon"), (float, "integration step size")
_TIME = cfg.number(float, 0.0)  # _horizon keeps tmax and dt positive
_SIZE = Field(cfg.number(int, 1, MAX_SAMPLE_SIZE))  # a sample size
_ORACLE = {"environment": _ENVIRONMENT, "seed": Field(cfg.number(int, 0), 0, (int, "random seed")),
           "mode": Field(_as_is, "population")}

# Each command's fields: the keys its config may name besides "command" and
# "out", and the flags its subcommand takes besides --config and --out.
_FIELDS = {
    "analyze": {"environment": _ENVIRONMENT,
                "big_k": _SIZE._replace(default=1000),
                "search_alpha_step": Field(cfg.number(float, an.ALPHA_STEP, 0.5), 0.1)},
    "phase": {"environment": _ENVIRONMENT,
              "samples": Field(cfg.number(int, 2, MAX_PHASE_SAMPLES), 601),
              "quiver": Field(cfg.number(int, 0, math.isqrt(MAX_PHASE_SAMPLES)), 15)},
    "trajectory": {"environment": _ENVIRONMENT, "initial": _INITIAL,
                   "tmax": Field(_TIME, 200.0, _TMAX), "dt": Field(_TIME, 0.01, _DT)},
    "basins": {"environment": _ENVIRONMENT,
               "resolution": Field(cfg.number(int, 2), 101, (int, "grid resolution per axis")),
               "tmax": Field(_TIME, 200.0, _TMAX), "dt": Field(_TIME, 0.01, _DT)},
    # the oracle's dt is a replacement probability per step
    "oracle": {**_ORACLE, "tmax": Field(_TIME, 50.0, _TMAX), "dt": Field(_share, 0.01, _DT),
               "initial": _INITIAL, "n": Field(cfg.number(int, 100, MAX_ORACLE_DRAWS), 10**5)},
    "sweep": {"environment": Field(_object), "sweep": Field(_sweep)},
    "normalize": {"game": Field(lambda value, key: cfg.parse_game(
        cfg._closed(value, cfg._GAME_FORMS, f"'{key}'"), key))},
}
# The oracle reads the fields of its mode; its flags are population mode's.
_ORACLE_MODES = {"population": _FIELDS["oracle"],
                 "response": {**_ORACLE, "p": Field(_share, 0.5),
                              "samples": Field(cfg.number(int, 1, MAX_ORACLE_DRAWS), 10**5)}}
# The fields of each sweep type.
_RANGE = {"type": Field(_as_is),
          **dict.fromkeys(("start", "stop", "step"), Field(cfg.number(float)))}
_SWEEPS = {"u": _RANGE, "alpha": {**_RANGE, "big_k": _SIZE},
           "theta-mass": {**_RANGE, "k": _SIZE, "big_k": _SIZE}}
# the oracle's mode and a sweep's type each pick the table of their object
_oracle_mode = cfg.choice(_ORACLE_MODES, "oracle mode")
_sweep_type = cfg.choice(_SWEEPS, "sweep type")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samplingdyn",
        description="Sampling best-response dynamics for coordination games",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc) in _COMMANDS.items():
        command = sub.add_parser(name, help=desc)
        command.add_argument("--config", help="JSON run configuration")
        command.add_argument("--out", help="output directory (default '.')")
        for key, field in _FIELDS[name].items():
            if field.flag is not None:
                command.add_argument(f"--{key}", type=field.flag[0], help=field.flag[1])
    return parser


def _merged_config(args: argparse.Namespace) -> dict:
    """The command's fields, checked and typed, from flag, config or default; and "out"."""
    flags = {key: value for key, value in vars(args).items() if value is not None}
    command, path = flags.pop("command"), flags.pop("config", None)
    conf = cfg.load_config(path) if path else {}
    if "command" in conf and conf["command"] != command:
        raise ConfigError(
            f"config is for command {conf['command']!r}, invoked as {command!r}"
        )
    fields = _FIELDS[command]
    if command == "oracle":
        fields = _oracle_mode(conf.get("mode", "population"), "mode")
    conf.update(flags)  # a flag of population mode is a key that response mode does not read
    return cfg.read(conf, {"command": Field(_as_is, None), "out": Field(_path, None), **fields},
                    f"the {command} config")


def _out_dir(conf: dict) -> Path:
    """The output directory, made with its parents when missing."""
    out = Path(conf["out"] or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"'out' {str(out)!r} cannot be a directory: {exc.strerror}") from None
    return out


def _state_str(s: an.StationaryState) -> str:
    if s.is_pair:
        return f"({s.p1:.4f}, {s.p2:.4f})"
    return f"{s.p1:.4f}"


def cmd_analyze(conf: dict) -> Callable[[Path], None]:
    spec, big_k, step = conf["environment"], conf["big_k"], conf["search_alpha_step"]
    reports: dict[str, dict] = {}

    if spec.kind == "contracting":
        eq_reports = contracting_pure_stability(spec.contracting, *spec.thetas)
        for r in eq_reports:
            print(
                f"Proposition 5, equilibrium {r.action}: {r.label} "
                f"(part1 {r.part1_products[0]:.6g}/{r.part1_products[1]:.6g}, "
                f"part2 {r.part2_products[0]:.6g}/{r.part2_products[1]:.6g})"
            )
        reports["proposition-5"] = {"equilibria": [dataclasses.asdict(r) for r in eq_reports]}
        return lambda out: cfg.write_json(out / "theorems.json", reports)

    system = spec.response_system()
    stationary = system.stationary()
    if stationary.continuum:
        print(f"continuum: {stationary.note}")
    else:
        for s in stationary.states:
            print(
                f"stationary {_state_str(s)}: {s.stability.value} "
                f"(slope product {s.slope_product:.6g}, residual {s.residual:.2e})"
            )

    if spec.kind in ("sampling", "mineffort"):
        # low effort is the first action: all low (safe) is state a
        number, sides = 4, ("a", "b")
        if spec.kind == "mineffort":
            minimum = spec.mineffort.observation == Observation.MINIMUM_EFFORT
            number, sides = 7 if minimum else 8, ("safe", "efficient")
        pure = an.classify_pure_states(system)
        corners = tuple(zip(sides, (pure.state_a, pure.state_b)))
        reports[f"proposition-{number}"] = {
            f"state_{side}": {
                "theorem": f"proposition-{number}-{side}",
                "conditions": {
                    "product": s.slope_product,
                    "leading_eigenvalue": s.leading_eigenvalue,
                },
                "stability": s.stability.value,
            }
            for side, s in corners
        }
        print(f"Proposition {number}: " + ", ".join(
            f"state {side} {s.stability.value} (product {s.slope_product:.6g})"
            for side, s in corners))

    if spec.kind == "sampling":
        game, thetas = spec.environment.game, [w.theta for w in system.responses]

        if all((t.degenerate_k or 0) > 1 for t in thetas):
            rep = an.check_homogeneous_uniqueness(system)
            reports["theorem-1"] = cfg.theorem_report_json(rep)
            print(f"Theorem 1/1': {rep.verdict.value}")

        if system.dim == 2 and game.u1 >= 1.0:
            rep = an.check_theorem4(system)
            reports["theorem-4"] = cfg.theorem_report_json(rep)
            print(f"Theorem 4 part 1: {rep.parts['part1'].value}")
            print(f"Theorem 4 part 2: {rep.parts['part2'].value}")

        largest = max(t.max_support for t in thetas)
        opposed = game.u2 < 1.0 < game.u1
        if big_k <= largest:
            # both checks move mass onto sample size big_k, which must be new
            note = f"big_k={big_k} is not above the largest sample size {largest}"
            skipped = {"applicable": False, "note": note}
            if opposed:
                reports["theorem-3"] = skipped
            reports["theorem-2-search"] = skipped
            print(f"mixture checks not applicable: {note}")
        else:
            if opposed:
                rep = an.check_theorem3(system, big_k)
                reports["theorem-3"] = cfg.theorem_report_json(rep)
                print(f"Theorem 3: {rep.verdict.value}")

            search = an.stable_interior_search(system, big_k=big_k, alpha_step=step)
            entry = {"found": search.found, "in_scope": search.in_scope, "alpha_step": step,
                     "alpha": None if search.alpha is None else np.ravel(search.alpha).tolist()}
            if search.state is not None:
                entry["state"] = np.ravel(search.state.state).tolist()
            reports["theorem-2-search"] = entry
            found = f"alpha={search.alpha}" if search.found else "none"
            scope = "" if search.in_scope else " [outside theorem scope]"
            print(f"Theorem 2/2' mixture search: {found}{scope}")

        stable_int = stationary.stable_interior()
        for s in stable_int:
            if s.is_pair:
                print(
                    f"miscoordination at {_state_str(s)}: "
                    f"{an.miscoordination_probability(s.state):.4f}"
                )

    def write(out: Path) -> None:
        cfg.write_stationary_csv(out / "stationary.csv", stationary)
        if reports:
            cfg.write_json(out / "theorems.json", reports)

    return write


def cmd_phase(conf: dict) -> Callable[[Path], None]:
    samples, quiver = conf["samples"], conf["quiver"]
    system = conf["environment"].response_system()
    stationary = system.stationary()
    if system.dim == 1:
        svg_text = svgmod.phase_svg_one_pop(system, stationary, samples)
        csv_text = svgmod.phase_curves_csv_one_pop(system, samples)
    else:
        svg_text = svgmod.phase_svg_two_pop(system, stationary, samples, quiver=quiver)
        csv_text = svgmod.phase_curves_csv_two_pop(system, samples)

    def write(out: Path) -> None:
        (out / "phase.svg").write_bytes(svg_text.encode("utf-8"))
        cfg._write_text(out / "phase.csv", csv_text)
        print(f"wrote {out / 'phase.svg'} and {out / 'phase.csv'}")

    return write


def _initial(conf: dict, one_population: bool):
    """The initial share, or pair of shares, in the config's form."""
    default, form = (0.5, "a share") if one_population else ((0.5, 0.5), "a pair of shares")
    shares = default if conf["initial"] is None else conf["initial"]
    if np.shape(shares) != np.shape(default):
        raise ConfigError(f"'initial' must be {form} in [0, 1], got {shares!r}")
    return shares


def _horizon(conf: dict) -> tuple[float, float]:
    """The config's tmax and dt, which take from 1 to MAX_STEPS steps."""
    t_max, dt = conf["tmax"], conf["dt"]
    # round(tmax / dt) steps; so dt and tmax are positive, and infinite ones fail
    if not (dt > 0.0 and 0.5 < t_max / dt <= MAX_STEPS + 0.5):
        raise ConfigError(f"'tmax' / 'dt' must be 1 to {MAX_STEPS} steps, got {t_max!r} / {dt!r}")
    return t_max, dt


def cmd_trajectory(conf: dict) -> Callable[[Path], None]:
    system = conf["environment"].response_system()
    initial = _initial(conf, system.dim == 1)
    t_max, dt = _horizon(conf)
    traj = integrate(system, initial, t_max=t_max, dt=dt)
    print(f"verdict: {traj.verdict}")
    return lambda out: cfg.write_trajectory_csv(out / "trajectory.csv", traj.times, traj.states)


def cmd_basins(conf: dict) -> Callable[[Path], None]:
    t_max, dt = _horizon(conf)
    system = conf["environment"].response_system()
    resolution = conf["resolution"]
    if resolution**system.dim > MAX_BASIN_CELLS:
        raise ConfigError(f"'resolution' {resolution} makes over {MAX_BASIN_CELLS} basin cells")
    try:
        grid = label_basins(
            system,
            resolution=resolution,
            t_max=t_max,
            dt=dt,
        )
    except an.ContinuumError as exc:
        raise ConfigError(f"'environment': {exc}") from None
    for i, s in enumerate(grid.attractors):
        share = grid.shares.get(i, 0.0)
        print(f"attractor {i} {_state_str(s)} [{s.stability.value}]: share {share:.4f}")
    if grid.flagged:
        print(f"flagged cells: {grid.flagged}")
    if grid.integrated:
        print(f"integrated cells: {grid.integrated}")

    def write(out: Path) -> None:
        cfg.write_basins_csv(out / "basins.csv", grid)
        cfg.write_json(out / "basins_legend.json", cfg.basin_legend_json(grid))

    return write


def cmd_oracle(conf: dict) -> Callable[[Path], None]:
    spec, seed = conf["environment"], conf["seed"]
    if spec.kind != "sampling":
        raise ConfigError("the oracle simulates sampling environments only")
    if conf["mode"] == "response":
        p, samples = conf["p"], conf["samples"]
        lines = [f"# seed={seed} samples={samples}", "p,estimate,standard_error"]
        responses = spec.response_system().responses
        for i, response in enumerate(responses):
            est, se = empirical_response(response, p, samples, seed + i)
            lines.append(f"{cfg.fmt(p)},{cfg.fmt(est)},{cfg.fmt(se)}")
            who = f" of population {i + 1}" if len(responses) > 1 else ""
            print(f"empirical response{who} at p={p}: {est:.6f} +- {se:.2e}")
        return lambda out: cfg._write_text(out / "oracle.csv", "\n".join(lines) + "\n")
    n = conf["n"]
    t_max, dt = _horizon(conf)
    initial = _initial(conf, spec.one_population)
    traj = simulate_population(
        spec.response_system(),
        n=n,
        t_max=t_max,
        dt=dt,
        seed=seed,
        initial=initial,
    )
    print(f"final state: {traj.final_state}")
    return lambda out: cfg.write_trajectory_csv(
        out / "oracle.csv", traj.times, traj.states, comments=(f"seed={seed} n={n}",)
    )


MAX_SWEEP_VALUES = 10_000


def _sweep_values(spec: dict) -> list[float]:
    start, stop, step = spec["start"], spec["stop"], spec["step"]
    if step <= 0 or stop < start:
        raise ConfigError("sweep needs step > 0 and stop >= start")
    values = []
    i = 0
    while True:
        # rounded, as stop is, to the 12 significant digits that sweep.csv writes
        v = float(cfg.fmt(start + i * step))
        if v > float(cfg.fmt(stop)):
            break
        if values and not v > values[-1]:
            raise ConfigError(f"sweep step {step!r} does not advance past {values[-1]!r}")
        if len(values) == MAX_SWEEP_VALUES:
            raise ConfigError(f"sweep has more than {MAX_SWEEP_VALUES} values")
        values.append(v)
        i += 1
    return values


def cmd_sweep(conf: dict) -> Callable[[Path], None]:
    spec = conf["sweep"]
    rows = []

    def swept_system(swept: dict) -> System:
        """The environment, a sampling one, with the ``swept`` fields in place of its own."""
        spec = cfg.parse_environment({**conf["environment"], **swept})
        if spec.kind != "sampling":
            raise ConfigError(f"sweeps need a sampling environment, got a {spec.kind} one")
        return spec.response_system()

    def analyze_env(system: System, value: float):
        try:
            res = system.stationary()
        except ArithmeticError:
            return [cfg.fmt(value), "", "", "", "", "", "numeric-failure"]
        if res.continuum:
            return [cfg.fmt(value), "", "", "", "", "", "continuum"]
        interior = res.interior()
        stable_int = res.stable_interior()
        if system.dim == 1 or system.responses[0].u < 1.0:
            t4p1 = t4p2 = "n/a"
        else:
            rep = an.check_theorem4(system)
            t4p1 = rep.parts["part1"].value
            t4p2 = rep.parts["part2"].value
        return [
            cfg.fmt(value),
            str(len(res.states)),
            str(len(interior)),
            "1" if stable_int else "0",
            t4p1,
            t4p2,
            "",
        ]

    if spec["type"] == "u":
        for u in _sweep_values(spec):  # the game rejects a u that is not positive
            rows.append(analyze_env(swept_system({"u": u}), u))
    else:
        big_k = spec["big_k"]
        # theta mass beta on k is the alpha sweep of theta {k: 1}
        swept = {"theta": {str(spec["k"]): 1.0}} if spec["type"] == "theta-mass" else {}
        base = swept_system(swept)
        if any(big_k in w.theta.support for w in base.responses):
            raise ConfigError(f"sweep 'big_k' must lie outside theta's support, got {big_k!r}")
        for alpha in _sweep_values(spec):
            try:  # alpha in (0, 1), and no mass it scales rounds to 0
                mixed = System(tuple(w.mix_with(alpha, big_k) for w in base.responses))
            except ValueError as exc:
                raise ConfigError(f"{spec['type']} {alpha}: {exc}") from None
            rows.append(analyze_env(mixed, alpha))

    header = "value,n_stationary,n_interior,stable_interior,thm4_part1,thm4_part2,flag"
    text = header + "\n" + "\n".join(",".join(r) for r in rows) + "\n"

    def write(out: Path) -> None:
        cfg._write_text(out / "sweep.csv", text)
        print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")

    return write


def cmd_normalize(conf: dict) -> Callable[[Path], None] | None:
    canonical, swapped = canonicalize(conf["game"])
    dom = to_dominance(canonical)
    out_obj = {
        "u1": canonical.u1,
        "u2": canonical.u2,
        "labels_swapped": swapped,
        "dominance": {"q1": dom.q1, "q2": dom.q2},
        "mixed_nash": list(canonical.mixed_nash()),
    }
    print(json.dumps(out_obj, indent=2, sort_keys=True))
    if conf["out"] is None:
        return None
    return lambda out: cfg.write_json(out / "normalized.json", out_obj)


_COMMANDS = {  # each command's function and help
    "analyze": (cmd_analyze, "stationary states, stability, and theorem reports"),
    "phase": (cmd_phase, "deterministic SVG phase plot plus curve CSV"),
    "trajectory": (cmd_trajectory, "integrate one trajectory to CSV"),
    "basins": (cmd_basins, "basin-of-attraction grid to CSV"),
    "oracle": (cmd_oracle, "finite-population Monte Carlo run to CSV"),
    "sweep": (cmd_sweep, "parameter sweep with per-point verdicts"),
    "normalize": (cmd_normalize, "reduce a game to the standard representation"),
}
# parse_args keeps no state between calls, so one parser serves every main()
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        conf = _merged_config(args)
        # a command returns the function that writes its files, so that the
        # output directory is made only once the command has checked and run
        write = _COMMANDS[args.command][0](conf)
        if write is not None:
            write(_out_dir(conf))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
