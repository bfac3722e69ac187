"""Command line front end.

Subcommands: analyze, phase, trajectory, basins, oracle, sweep,
normalize.  Runs are driven by a JSON config (--config) with a top-level
"command" discriminator.  Every subcommand takes --config and --out, and
only the flags of the config fields it reads, each overriding its field:
    trajectory   --tmax --dt
    basins       --resolution --tmax --dt
    oracle       --seed --tmax --dt
analyze, phase, sweep and normalize take no other flag; a flag that a
subcommand does not take exits 2.  Exit codes: 0 success, 2
configuration error, 3 internal numeric failure.  A command makes the
output directory and writes its files only after it has run, so a run
that exits 2 or 3 leaves neither; an --out that names a file, or a path
under one, exits 2 before the command runs.

basins labels each cell with the stationary state its center converges
to, a limit of the dynamics read off the stationary analysis (see
``flow.label_basins``); --tmax and --dt bound the separatrix traces and
the integration of the cells that cannot be labelled that way, whose
number the legend records as integrated_cells.  A config whose every
state is stationary has no basins (exit 2).  analyze's search_alpha_step
lies in [0.01, 0.5]: the mixture search scans the shares i * step < 1 of
a "theta" config and the pairs of them, up to (1/step)^2, of a
"theta1"/"theta2" config; theorems.json lists the hit's shares, one per
population, as "alpha".  Theorem 4 concerns two populations, so only
"theta1"/"theta2" configs report it.  analyze and sweep run every check
on the one System they build from the config's form, and each mixture is
one of its responses' ``mix_with``, so a sampling environment's tie_break
reaches them all.

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
MAX_SWEEP_VALUES (10,000) values, each rounded to 12 digits and larger
than the one before.

oracle.csv in response mode has one row per population, in population
order, under the header p,estimate,standard_error; population i draws
its agents with seed + i - 1.  The oracle's population size n and its
response-mode samples are at most MAX_ORACLE_DRAWS (10**8); larger
values are a configuration error (exit 2).  So is a step count
round(tmax / dt) above MAX_STEPS (10**6) for trajectory, basins and the
oracle's population mode (the defaults tmax 200, 200 and 50 with dt
0.01 take 20,000, 20,000 and 5,000 steps).  phase draws at most
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
from typing import Callable

import numpy as np

from . import analysis as an
from . import config as cfg
from . import svg as svgmod
from .analysis import System
from .config import ConfigError
from .dynamics import MAX_SAMPLE_SIZE
from .extensions import (
    Observation,
    contracting_pure_stability,
    mineffort_pure_stability,
)
# estimate_basins, the every-cell reference of label_basins, is not called
# here; perfbench's tracer test checks that it wraps this binding too.
from .flow import NumericError, estimate_basins, integrate, label_basins
from .games import canonicalize, to_dominance
from .oracle import empirical_response, simulate_population


# each flag's type and help; a subcommand takes the flags of the fields it reads
_FLAGS = {
    "config": (str, "JSON run configuration"),
    "out": (str, "output directory (default '.')"),
    "seed": (int, "random seed"),
    "resolution": (int, "grid resolution per axis"),
    "tmax": (float, "integration horizon"),
    "dt": (float, "integration step size"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samplingdyn",
        description="Sampling best-response dynamics for coordination games",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc, flags in [
        ("analyze", "stationary states, stability, and theorem reports", ()),
        ("phase", "deterministic SVG phase plot plus curve CSV", ()),
        ("trajectory", "integrate one trajectory to CSV", ("tmax", "dt")),
        ("basins", "basin-of-attraction grid to CSV", ("resolution", "tmax", "dt")),
        ("oracle", "finite-population Monte Carlo run to CSV", ("seed", "tmax", "dt")),
        ("sweep", "parameter sweep with per-point verdicts", ()),
        ("normalize", "reduce a game to the standard representation", ()),
    ]:
        command = sub.add_parser(name, help=desc)
        for flag in ("config", "out", *flags):
            kind, text = _FLAGS[flag]
            command.add_argument(f"--{flag}", type=kind, help=text)
    return parser


# parse_args keeps no state between calls, so one parser serves every main()
_PARSER = _build_parser()


def _merged_config(args: argparse.Namespace) -> dict:
    flags = {key: value for key, value in vars(args).items() if value is not None}
    command, path = flags.pop("command"), flags.pop("config", None)
    conf = cfg.load_config(path) if path else {}
    if "command" in conf and conf["command"] != command:
        raise ConfigError(
            f"config is for command {conf['command']!r}, invoked as {command!r}"
        )
    conf.update(flags)
    out = conf.get("out", ".")
    if not isinstance(out, str) or "\0" in out:
        raise ConfigError(f"'out' must be a directory path, got {out!r}")
    # an 'out' at or under a file fails before the run; _out_dir reports
    # what only making the directory tells, such as permissions
    with contextlib.suppress(OSError):
        nearest = next((p for p in (Path(out), *Path(out).parents) if p.exists()), None)
        if not (nearest is None or nearest.is_dir()):
            raise ConfigError(f"'out' {out!r} cannot be a directory: {str(nearest)!r} is a file")
    for key in ("tmax", "dt"):
        if key in conf and not 0.0 < cfg._number(conf, key, "config") < math.inf:
            raise ConfigError(f"'{key}' must be a positive finite number, got {conf[key]!r}")
    if command == "oracle" and conf.get("dt", 0.0) > 1.0:
        raise ConfigError(f"oracle 'dt' is a replacement probability per step, got {conf['dt']!r}")
    _integer_field(conf, "resolution", 2, least=2)
    _integer_field(conf, "seed", 0, least=0)
    return conf


def _integer_field(conf: dict, key: str, default: int, least: int, most: int | None = None) -> int:
    """Config field ``key`` (``default`` when absent), an integer of at
    least ``least`` and, when given, at most ``most``."""
    value = cfg._integer(conf, key, "config") if key in conf else default
    if value < least:
        raise ConfigError(f"'{key}' must be an integer of at least {least}, got {conf[key]!r}")
    if most is not None and value > most:
        raise ConfigError(f"'{key}' must be an integer of at most {most}, got {conf[key]!r}")
    return value


def _out_dir(conf: dict) -> Path:
    """The output directory, made with its parents when missing."""
    out = Path(conf.get("out", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"'out' {str(out)!r} cannot be a directory: {exc.strerror}") from None
    return out


def _env_spec(conf: dict, swept: dict | None = None) -> cfg.EnvSpec:
    """The config's environment; for a sweep, a sampling one with the
    ``swept`` fields in place of its own."""
    if "environment" not in conf:
        raise ConfigError("missing 'environment' in config")
    obj = conf["environment"]
    if swept and isinstance(obj, dict):
        obj = {**obj, **swept}
    spec = cfg.parse_environment(obj)
    if swept is not None and spec.kind != "sampling":
        raise ConfigError(f"sweeps need a sampling environment, got a {spec.kind} one")
    return spec


def _system(spec: cfg.EnvSpec) -> System:
    """The config's form sets the arity: "theta" and minimum-effort
    configs are one population, "theta1"/"theta2" and logit configs two."""
    return System.of(spec.response_system(), 1 if spec.one_population else 2)


def _state_str(s: an.StationaryState) -> str:
    if s.is_pair:
        return f"({s.p1:.4f}, {s.p2:.4f})"
    return f"{s.p1:.4f}"


def cmd_analyze(conf: dict) -> Callable[[Path], None]:
    spec = _env_spec(conf)
    big_k = _integer_field(conf, "big_k", 1000, least=1, most=MAX_SAMPLE_SIZE)
    step = conf.get("search_alpha_step", 0.1)
    if not (cfg._is_number(step) and an.ALPHA_STEP <= step <= 0.5):
        raise ConfigError(
            f"'search_alpha_step' must lie in [{an.ALPHA_STEP}, 0.5], got {step!r}"
        )
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

    system = _system(spec)
    stationary = system.stationary()
    if stationary.continuum:
        print(f"continuum: {stationary.note}")
    else:
        for s in stationary.states:
            print(
                f"stationary {_state_str(s)}: {s.stability.value} "
                f"(slope product {s.slope_product:.6g}, residual {s.residual:.2e})"
            )

    if spec.kind == "mineffort":
        rep = mineffort_pure_stability(spec.mineffort, spec.thetas[0])
        minimum = spec.mineffort.observation == Observation.MINIMUM_EFFORT
        name = "proposition-7" if minimum else "proposition-8"
        reports[name] = {
            "safe": rep.safe_label.value,
            "efficient": rep.efficient_label.value,
            "conditions": rep.conditions,
            "note": rep.note,
        }
        print(f"{name}: safe {rep.safe_label.value}, efficient {rep.efficient_label.value}")

    if spec.kind == "sampling":
        game, thetas = spec.environment.game, [w.theta for w in system.responses]
        pure = an.classify_pure_states(system)
        reports["proposition-4"] = {
            f"state_{side}": {
                "theorem": f"proposition-4-{side}",
                "conditions": {
                    "product": s.slope_product,
                    "leading_eigenvalue": s.leading_eigenvalue,
                },
                "stability": s.stability.value,
            }
            for side, s in (("a", pure.state_a), ("b", pure.state_b))
        }
        print(
            f"Proposition 4: state a {pure.state_a.stability.value} "
            f"(product {pure.state_a.slope_product:.6g}), "
            f"state b {pure.state_b.stability.value} "
            f"(product {pure.state_b.slope_product:.6g})"
        )

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


MAX_PHASE_SAMPLES = 10**6


def cmd_phase(conf: dict) -> Callable[[Path], None]:
    spec = _env_spec(conf)
    samples = _integer_field(conf, "samples", 601, least=2, most=MAX_PHASE_SAMPLES)
    quiver = _integer_field(conf, "quiver", 15, least=0, most=math.isqrt(MAX_PHASE_SAMPLES))
    system = _system(spec)
    stationary = system.stationary()
    if system.dim == 1:
        (response,) = system.responses
        svg_text = svgmod.phase_svg_one_pop(response, stationary, samples)
        csv_text = svgmod.phase_curves_csv_one_pop(response, samples)
    else:
        pair = system.pair
        svg_text = svgmod.phase_svg_two_pop(pair, stationary, samples, quiver=quiver)
        csv_text = svgmod.phase_curves_csv_two_pop(pair, samples)

    def write(out: Path) -> None:
        (out / "phase.svg").write_bytes(svg_text.encode("utf-8"))
        cfg._write_text(out / "phase.csv", csv_text)
        print(f"wrote {out / 'phase.svg'} and {out / 'phase.csv'}")

    return write


def _parse_initial(conf: dict, one_population: bool):
    """The initial share, or pair of shares, in the config's form."""
    if "initial" not in conf:
        return 0.5 if one_population else (0.5, 0.5)
    raw = conf["initial"]
    shares = [raw] if one_population else raw
    if not (
        isinstance(shares, list)
        and len(shares) == (1 if one_population else 2)
        and all(cfg._is_number(v) and 0.0 <= v <= 1.0 for v in shares)
    ):
        form = "a share" if one_population else "a pair of shares"
        raise ConfigError(f"'initial' must be {form} in [0, 1], got {raw!r}")
    return float(raw) if one_population else (float(raw[0]), float(raw[1]))


# Largest number of fixed steps, round(tmax / dt), of a run.
MAX_STEPS = 10**6

# Largest basin grid, resolution ** (number of populations) cells.
MAX_BASIN_CELLS = 10**6


def _horizon(conf: dict, t_max: float) -> tuple[float, float]:
    """The config's tmax (default ``t_max``) and dt (default 0.01), which
    take at most MAX_STEPS steps."""
    t_max, dt = float(conf.get("tmax", t_max)), float(conf.get("dt", 0.01))
    if t_max / dt > MAX_STEPS + 0.5:  # round(tmax / dt) steps; inf fails here too
        raise ConfigError(
            f"'tmax' / 'dt' must be at most {MAX_STEPS} steps, got {t_max!r} / {dt!r}"
        )
    return t_max, dt


def cmd_trajectory(conf: dict) -> Callable[[Path], None]:
    spec = _env_spec(conf)
    system = _system(spec)
    initial = _parse_initial(conf, system.dim == 1)
    t_max, dt = _horizon(conf, 200.0)
    traj = integrate(system, initial, t_max=t_max, dt=dt)
    print(f"verdict: {traj.verdict}")
    return lambda out: cfg.write_trajectory_csv(out / "trajectory.csv", traj.times, traj.states)


def cmd_basins(conf: dict) -> Callable[[Path], None]:
    spec = _env_spec(conf)
    t_max, dt = _horizon(conf, 200.0)
    system = _system(spec)
    resolution = _integer_field(conf, "resolution", 101, least=2)
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


# Largest oracle population size and response-mode sample count.
MAX_ORACLE_DRAWS = 10**8


def cmd_oracle(conf: dict) -> Callable[[Path], None]:
    spec = _env_spec(conf)
    if spec.kind != "sampling":
        raise ConfigError("the oracle simulates sampling environments only")
    seed = int(conf.get("seed", 0))
    mode = conf.get("mode", "population")
    if mode == "response":
        p = conf.get("p", 0.5)
        if not (cfg._is_number(p) and 0.0 <= p <= 1.0):
            raise ConfigError(f"'p' must lie in [0, 1], got {p!r}")
        p = float(p)
        samples = _integer_field(conf, "samples", 10**5, least=1, most=MAX_ORACLE_DRAWS)
        lines = [f"# seed={seed} samples={samples}", "p,estimate,standard_error"]
        responses = _system(spec).responses
        for i, response in enumerate(responses):
            est, se = empirical_response(response, p, samples, seed + i)
            lines.append(f"{cfg.fmt(p)},{cfg.fmt(est)},{cfg.fmt(se)}")
            who = f" of population {i + 1}" if len(responses) > 1 else ""
            print(f"empirical response{who} at p={p}: {est:.6f} +- {se:.2e}")
        return lambda out: cfg._write_text(out / "oracle.csv", "\n".join(lines) + "\n")
    if mode != "population":
        raise ConfigError(f"unknown oracle mode {mode!r}")
    n = _integer_field(conf, "n", 10**5, least=100, most=MAX_ORACLE_DRAWS)
    t_max, dt = _horizon(conf, 50.0)
    initial = _parse_initial(conf, spec.one_population)
    traj = simulate_population(
        spec.environment,
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
    start = cfg._number(spec, "start", "sweep")
    stop = cfg._number(spec, "stop", "sweep")
    step = cfg._number(spec, "step", "sweep")
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ConfigError(f"sweep start, stop and step must be finite, got {start}, {stop}, {step}")
    if step <= 0 or stop < start:
        raise ConfigError("sweep needs step > 0 and stop >= start")
    values = []
    i = 0
    while True:
        v = round(start + i * step, 12)
        if v > stop + 1e-12:
            break
        if values and not v > values[-1]:
            raise ConfigError(f"sweep step {step!r} does not advance past {values[-1]!r}")
        if len(values) == MAX_SWEEP_VALUES:
            raise ConfigError(f"sweep has more than {MAX_SWEEP_VALUES} values")
        values.append(v)
        i += 1
    return values


def cmd_sweep(conf: dict) -> Callable[[Path], None]:
    if "sweep" not in conf:
        raise ConfigError("missing 'sweep' in config")
    spec = conf["sweep"]
    if not isinstance(spec, dict):
        raise ConfigError(f"'sweep' must be an object, got {spec!r}")
    sweep_type = spec.get("type")
    rows = []

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

    if sweep_type == "u":
        for u in _sweep_values(spec):
            if u <= 0:
                raise ConfigError(f"u {u} must be positive")
            rows.append(analyze_env(_system(_env_spec(conf, {"u": u})), u))
    elif sweep_type in ("theta-mass", "alpha"):
        big_k, swept = cfg._integer(spec, "big_k", "sweep"), {}
        if sweep_type == "theta-mass":
            k = cfg._integer(spec, "k", "sweep")
            if min(k, big_k) < 1 or max(k, big_k) > MAX_SAMPLE_SIZE or k == big_k:
                raise ConfigError("sweep 'k' and 'big_k' must be distinct positive integers "
                                  f"of at most {MAX_SAMPLE_SIZE}")
            # theta mass beta on k is the alpha sweep of theta {k: 1}
            swept = {"theta": {str(k): 1.0}}
        base = _system(_env_spec(conf, swept))
        if not 1 <= big_k <= MAX_SAMPLE_SIZE or any(big_k in w.theta.support
                                                     for w in base.responses):
            raise ConfigError(f"sweep 'big_k' must lie in [1, {MAX_SAMPLE_SIZE}] and outside "
                              f"theta's support, got {spec['big_k']!r}")
        for alpha in _sweep_values(spec):
            if not (0.0 < alpha < 1.0):
                raise ConfigError(f"{sweep_type} {alpha} outside (0, 1)")
            mixed = System(tuple(w.mix_with(alpha, big_k) for w in base.responses))
            rows.append(analyze_env(mixed, alpha))
    else:
        raise ConfigError(f"unknown sweep type {sweep_type!r}")

    header = "value,n_stationary,n_interior,stable_interior,thm4_part1,thm4_part2,flag"
    text = header + "\n" + "\n".join(",".join(r) for r in rows) + "\n"

    def write(out: Path) -> None:
        cfg._write_text(out / "sweep.csv", text)
        print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")

    return write


def cmd_normalize(conf: dict) -> Callable[[Path], None] | None:
    game_obj = conf.get("game", conf.get("environment"))
    if game_obj is None:
        raise ConfigError("missing 'game' in config")
    game = cfg.parse_game(game_obj, "game")
    canonical, swapped = canonicalize(game)
    dom = to_dominance(canonical)
    out_obj = {
        "u1": canonical.u1,
        "u2": canonical.u2,
        "labels_swapped": swapped,
        "dominance": {"q1": dom.q1, "q2": dom.q2},
        "mixed_nash": list(canonical.mixed_nash()),
    }
    print(json.dumps(out_obj, indent=2, sort_keys=True))
    if "out" not in conf:
        return None
    return lambda out: cfg.write_json(out / "normalized.json", out_obj)


_COMMANDS = {
    "analyze": cmd_analyze,
    "phase": cmd_phase,
    "trajectory": cmd_trajectory,
    "basins": cmd_basins,
    "oracle": cmd_oracle,
    "sweep": cmd_sweep,
    "normalize": cmd_normalize,
}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        conf = _merged_config(args)
        # a command returns the function that writes its files, so that the
        # output directory is made only once the command has checked and run
        write = _COMMANDS[args.command](conf)
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
