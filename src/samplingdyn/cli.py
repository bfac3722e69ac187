"""Command line front end.

Subcommands: analyze, phase, trajectory, basins, oracle, sweep,
normalize.  Runs are driven by a JSON config (--config) with a top-level
"command" discriminator; the flags --out, --seed, --resolution, --tmax,
--dt override the matching config fields.  Exit codes: 0 success, 2
configuration error, 3 internal numeric failure.

basins labels each cell with the stationary state its center converges
to, a limit of the dynamics read off the stationary analysis (see
``flow.label_basins``); --tmax and --dt bound the separatrix traces and
the integration of the cells that cannot be labelled that way, whose
number the legend records as integrated_cells.  A config whose every
state is stationary has no basins (exit 2).  analyze's search_alpha_step
lies in [0.01, 0.5]: the mixture search runs one stationary search per
alpha pair, up to (1/step - 1)^2 of them.

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
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis as an
from . import config as cfg
from . import svg as svgmod
from .analysis import System
from .config import ConfigError
from .dynamics import MAX_SAMPLE_SIZE, Environment, SampleSizeDistribution
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


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", type=str, help="JSON run configuration")
    shared.add_argument("--out", type=str, help="output directory (default '.')")
    shared.add_argument("--seed", type=int, help="random seed")
    shared.add_argument("--resolution", type=int, help="grid resolution per axis")
    shared.add_argument("--tmax", type=float, help="integration horizon")
    shared.add_argument("--dt", type=float, help="integration step size")
    parser = argparse.ArgumentParser(
        prog="samplingdyn",
        description="Sampling best-response dynamics for coordination games",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("analyze", "stationary states, stability, and theorem reports"),
        ("phase", "deterministic SVG phase plot plus curve CSV"),
        ("trajectory", "integrate one trajectory to CSV"),
        ("basins", "basin-of-attraction grid to CSV"),
        ("oracle", "finite-population Monte Carlo run to CSV"),
        ("sweep", "parameter sweep with per-point verdicts"),
        ("normalize", "reduce a game to the standard representation"),
    ]:
        sub.add_parser(name, help=desc, parents=[shared])
    return parser


# parse_args keeps no state between calls, so one parser serves every main()
_PARSER = _build_parser()


def _merged_config(args: argparse.Namespace) -> dict:
    conf = cfg.load_config(args.config) if args.config else {}
    if "command" in conf and conf["command"] != args.command:
        raise ConfigError(
            f"config is for command {conf['command']!r}, invoked as {args.command!r}"
        )
    for key, value in [
        ("out", args.out),
        ("seed", args.seed),
        ("resolution", args.resolution),
        ("tmax", args.tmax),
        ("dt", args.dt),
    ]:
        if value is not None:
            conf[key] = value
    if not isinstance(conf.get("out", "."), str):
        raise ConfigError(f"'out' must be a directory path, got {conf['out']!r}")
    for key in ("tmax", "dt"):
        if key in conf and not 0.0 < cfg._number(conf, key, "config") < math.inf:
            raise ConfigError(f"'{key}' must be a positive finite number, got {conf[key]!r}")
    if args.command == "oracle" and conf.get("dt", 0.0) > 1.0:
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
    out = Path(conf.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _env_spec(conf: dict) -> cfg.EnvSpec:
    if "environment" not in conf:
        raise ConfigError("missing 'environment' in config")
    return cfg.parse_environment(conf["environment"])


def _system(spec: cfg.EnvSpec) -> System:
    """The config's form sets the arity: "theta" and minimum-effort
    configs are one population, "theta1"/"theta2" and logit configs two."""
    return System.of(spec.response_system(), 1 if spec.one_population else 2)


def _state_str(s: an.StationaryState) -> str:
    if s.is_pair:
        return f"({s.p1:.4f}, {s.p2:.4f})"
    return f"{s.p1:.4f}"


def cmd_analyze(conf: dict) -> int:
    spec = _env_spec(conf)
    big_k = _integer_field(conf, "big_k", 1000, least=1, most=MAX_SAMPLE_SIZE)
    step = conf.get("search_alpha_step", 0.1)
    if not (cfg._is_number(step) and an.ALPHA_STEP <= step <= 0.5):
        raise ConfigError(
            f"'search_alpha_step' must lie in [{an.ALPHA_STEP}, 0.5], got {step!r}"
        )
    out = _out_dir(conf)
    reports: dict[str, dict] = {}

    if spec.kind == "contracting":
        eq_reports = contracting_pure_stability(spec.contracting, *spec.thetas)
        entries = []
        for r in eq_reports:
            entries.append(
                {
                    "action": r.action,
                    "pareto_efficient": r.pareto_efficient,
                    "part1_products": list(r.part1_products),
                    "part2_products": list(r.part2_products),
                    "label": r.label,
                }
            )
            print(
                f"Proposition 5, equilibrium {r.action}: {r.label} "
                f"(part1 {r.part1_products[0]:.6g}/{r.part1_products[1]:.6g}, "
                f"part2 {r.part2_products[0]:.6g}/{r.part2_products[1]:.6g})"
            )
        reports["proposition-5"] = {"equilibria": entries}
        cfg.write_json(out / "theorems.json", reports)
        return 0

    system = _system(spec)
    stationary = system.stationary()
    cfg.write_stationary_csv(out / "stationary.csv", stationary)
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
        name = (
            "proposition-7"
            if spec.mineffort.observation == Observation.MINIMUM_EFFORT
            else "proposition-8"
        )
        reports[name] = {
            "safe": rep.safe_label.value,
            "efficient": rep.efficient_label.value,
            "conditions": rep.conditions,
            "note": rep.note,
        }
        print(f"{name}: safe {rep.safe_label.value}, efficient {rep.efficient_label.value}")

    if spec.kind == "sampling":
        env = spec.environment
        pure = an.classify_pure_states(env, one_population=system.dim == 1)
        reports["proposition-4"] = {
            "state_a": cfg.theorem_report_json(
                an.TheoremReport(
                    "proposition-4-a",
                    {
                        "product": pure.state_a.slope_product,
                        "leading_eigenvalue": pure.state_a.leading_eigenvalue,
                    },
                    an.Verdict.HOLDS,
                )
            ),
            "state_b": cfg.theorem_report_json(
                an.TheoremReport(
                    "proposition-4-b",
                    {
                        "product": pure.state_b.slope_product,
                        "leading_eigenvalue": pure.state_b.leading_eigenvalue,
                    },
                    an.Verdict.HOLDS,
                )
            ),
        }
        print(
            f"Proposition 4: state a {pure.state_a.stability.value} "
            f"(product {pure.state_a.slope_product:.6g}), "
            f"state b {pure.state_b.stability.value} "
            f"(product {pure.state_b.slope_product:.6g})"
        )

        if env.theta1.degenerate_k and env.theta2.degenerate_k:
            if env.theta1.degenerate_k > 1 and env.theta2.degenerate_k > 1:
                rep = an.check_homogeneous_uniqueness(env)
                reports["theorem-1"] = cfg.theorem_report_json(rep)
                print(f"Theorem 1/1': {rep.verdict.value}")

        if env.game.u1 >= 1.0:
            rep = an.check_theorem4(env)
            reports["theorem-4"] = cfg.theorem_report_json(rep)
            print(f"Theorem 4 part 1: {rep.parts['part1'].value}")
            print(f"Theorem 4 part 2: {rep.parts['part2'].value}")

        largest = max(env.theta1.max_support, env.theta2.max_support)
        opposed = env.game.u2 < 1.0 < env.game.u1
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
                rep = an.check_theorem3(env.game, (env.theta1, env.theta2), big_k)
                reports["theorem-3"] = cfg.theorem_report_json(rep)
                print(f"Theorem 3: {rep.verdict.value}")

            search = an.stable_interior_search(
                env.game, (env.theta1, env.theta2), big_k=big_k, alpha_step=step
            )
            entry = {
                "found": search.found,
                "in_scope": search.in_scope,
                "alpha": list(search.alpha) if search.alpha else None,
                "alpha_step": step,
            }
            if search.state is not None:
                entry["state"] = [search.state.p1, search.state.p2]
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

    if reports:
        cfg.write_json(out / "theorems.json", reports)
    return 0


MAX_PHASE_SAMPLES = 10**6


def cmd_phase(conf: dict) -> int:
    spec = _env_spec(conf)
    out = _out_dir(conf)
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
        svg_text = svgmod.phase_svg_two_pop(
            pair, stationary, samples, quiver=quiver
        )
        csv_text = svgmod.phase_curves_csv_two_pop(pair, samples)
    (out / "phase.svg").write_bytes(svg_text.encode("utf-8"))
    with open(out / "phase.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text)
    print(f"wrote {out / 'phase.svg'} and {out / 'phase.csv'}")
    return 0


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


def cmd_trajectory(conf: dict) -> int:
    spec = _env_spec(conf)
    out = _out_dir(conf)
    initial = _parse_initial(conf, spec.one_population)
    t_max, dt = _horizon(conf, 200.0)
    traj = integrate(_system(spec), initial, t_max=t_max, dt=dt)
    cfg.write_trajectory_csv(out / "trajectory.csv", traj.times, traj.states)
    print(f"verdict: {traj.verdict}")
    return 0


def cmd_basins(conf: dict) -> int:
    spec = _env_spec(conf)
    out = _out_dir(conf)
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
    cfg.write_basins_csv(out / "basins.csv", grid)
    cfg.write_json(out / "basins_legend.json", cfg.basin_legend_json(grid))
    for i, s in enumerate(grid.attractors):
        share = grid.shares.get(i, 0.0)
        print(f"attractor {i} {_state_str(s)} [{s.stability.value}]: share {share:.4f}")
    if grid.flagged:
        print(f"flagged cells: {grid.flagged}")
    if grid.integrated:
        print(f"integrated cells: {grid.integrated}")
    return 0


# Largest oracle population size and response-mode sample count.
MAX_ORACLE_DRAWS = 10**8


def cmd_oracle(conf: dict) -> int:
    spec = _env_spec(conf)
    out = _out_dir(conf)
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
        with open(out / "oracle.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        return 0
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
    cfg.write_trajectory_csv(
        out / "oracle.csv", traj.times, traj.states, comments=(f"seed={seed} n={n}",)
    )
    print(f"final state: {traj.final_state}")
    return 0


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


def cmd_sweep(conf: dict) -> int:
    if "sweep" not in conf:
        raise ConfigError("missing 'sweep' in config")
    spec = conf["sweep"]
    if not isinstance(spec, dict):
        raise ConfigError(f"'sweep' must be an object, got {spec!r}")
    sweep_type = spec.get("type")
    out = _out_dir(conf)
    rows = []

    def analyze_env(env: Environment, one_pop: bool, value: float):
        try:
            res = System.of(env, 1 if one_pop else 2).stationary()
        except ArithmeticError:
            return [cfg.fmt(value), "", "", "", "", "", "numeric-failure"]
        if res.continuum:
            return [cfg.fmt(value), "", "", "", "", "", "continuum"]
        interior = res.interior()
        stable_int = res.stable_interior()
        if one_pop or env.game.u1 < 1.0:
            t4p1 = t4p2 = "n/a"
        else:
            rep = an.check_theorem4(env)
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

    if sweep_type == "theta-mass":
        game = cfg.parse_game(conf.get("environment", conf), "sweep environment")
        if not game.is_symmetric:
            raise ConfigError("theta-mass sweeps use a symmetric game")
        k = cfg._integer(spec, "k", "sweep")
        big_k = cfg._integer(spec, "big_k", "sweep")
        if min(k, big_k) < 1 or max(k, big_k) > MAX_SAMPLE_SIZE or k == big_k:
            raise ConfigError("sweep 'k' and 'big_k' must be distinct positive integers "
                              f"of at most {MAX_SAMPLE_SIZE}")
        for beta in _sweep_values(spec):
            if not (0.0 < beta < 1.0):
                raise ConfigError(f"theta mass {beta} outside (0, 1)")
            theta = SampleSizeDistribution.of({k: beta, big_k: 1.0 - beta})
            env = Environment.symmetric(game.u, theta)
            rows.append(analyze_env(env, True, beta))
    elif sweep_type == "alpha":
        env_spec = _env_spec(conf)
        if env_spec.kind != "sampling":
            raise ConfigError("alpha sweeps need a sampling environment")
        env = env_spec.environment
        big_k = cfg._integer(spec, "big_k", "sweep")
        if not 1 <= big_k <= MAX_SAMPLE_SIZE or big_k in env.theta1.support + env.theta2.support:
            raise ConfigError(f"sweep 'big_k' must lie in [1, {MAX_SAMPLE_SIZE}] and outside "
                              f"theta's support, got {spec['big_k']!r}")
        for alpha in _sweep_values(spec):
            if not (0.0 < alpha < 1.0):
                raise ConfigError(f"alpha {alpha} outside (0, 1)")
            mixed = Environment(
                env.game,
                env.theta1.mix_with(alpha, big_k),
                env.theta2.mix_with(alpha, big_k),
                env.tie_break,
            )
            rows.append(analyze_env(mixed, env_spec.one_population, alpha))
    elif sweep_type == "u":
        theta = cfg.parse_theta(
            cfg._require(conf.get("environment", {}), "theta", "environment"), "theta"
        )
        for u in _sweep_values(spec):
            if u <= 0:
                raise ConfigError(f"u {u} must be positive")
            rows.append(analyze_env(Environment.symmetric(u, theta), True, u))
    else:
        raise ConfigError(f"unknown sweep type {sweep_type!r}")

    header = "value,n_stationary,n_interior,stable_interior,thm4_part1,thm4_part2,flag"
    text = header + "\n" + "\n".join(",".join(r) for r in rows) + "\n"
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return 0


def cmd_normalize(conf: dict) -> int:
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
    if "out" in conf:
        cfg.write_json(_out_dir(conf) / "normalized.json", out_obj)
    return 0


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
        return _COMMANDS[args.command](conf)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
