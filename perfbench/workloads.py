"""Seeded workloads: job lists, output checks and output units.

A workload is a list of jobs run back to back by one client.  A job is
one ``samplingdyn.cli.main(argv)`` invocation on a generated config, or
one call of a public library function.  The benchmark seed generates
every config and start; the program only sees the generated inputs.

How much work a run does is fixed by the seed and ``--seconds`` alone
(never by a clock), so two runs of one seed do the same jobs and a
faster program finishes them sooner.

Each run makes ``repeats`` passes over its distinct jobs, one pass after
the other, and a job's time is the best of its passes.  On a shared
machine whose speed swings by up to 2x, the best of passes spread over
the run is far steadier than any single timing.  The number of passes
fills ``--seconds``: ``NOMINAL_S`` holds the measured seconds of one
pass on a 2-core x86-64 sandbox at the seed commit.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from samplingdyn import SampleSizeDistribution, analysis, cli, config, extensions

FIG3_LEFT = {"u1": 20.0, "u2": 0.05,
             "theta1": {"3": 0.5, "1000": 0.5}, "theta2": {"3": 0.5, "1000": 0.5}}
FIG3_RIGHT = {"u1": 5.0, "u2": 0.2,
              "theta1": {"1": 0.5, "5": 0.5}, "theta2": {"1": 0.5, "5": 0.5}}
RIGHT_STABLE = (0.6328, 0.3672)
BASIN_RESOLUTION = 7
BASIN_TMAX = 260.0  # the right panel's cells converge near t = 217
# dt 0.05 gives the same labels as the CLI default 0.01 on both panels in
# a fifth of the steps; 1 s jobs let a run take the best of 10 passes.
BASIN_DT = 0.05
ORACLE_N = 100_000
ORACLE_TMAX = 2.0
ORACLE_GAP = 0.03
RESPONSE_SAMPLES = 100_000
TRAJECTORY_TMAX = 10.0
CONTRACTING_TMAX = 2.0
MATCH_TOL = 1e-6

# Known defects at the seed commit: (command, part of the failure detail).
# A job that fails with one of these still counts as failed.
KNOWN_FAILURES = [
    # check_theorem3 runs with the default big_k=1000, already in the left
    # panel's theta
    ("analyze", "ValueError: big_k=1000 already in the support"),
    # response mode needs a one-population environment
    ("oracle", "ValueError: one-population analysis needs a symmetric environment"),
    # scan_fixed_points: when the array and scalar paths disagree on the sign
    # of g at an exact grid root, _bisect_root walks to the far bracket end
    ("analyze", "reports a non-stationary state"),
]


@dataclass
class Outcome:
    result: object  # main()'s exit code, or the library function's return value
    stdout: str
    out: Path


@dataclass
class Job:
    jid: str
    command: str
    run: Callable[[], object]
    out: Path
    units: Callable[[Outcome], float] = lambda o: 0.0
    check: Callable[[Outcome], str | None] = lambda o: None
    digest_arrays: Callable[[Outcome], list] | None = None
    cli: bool = True
    part: str = ""  # the name of the throughput its units count toward


@dataclass
class Workload:
    name: str
    jobs: list[Job] = field(default_factory=list)
    configs: list[Path] = field(default_factory=list)
    repeats: int = 3
    diagnostics: dict = field(default_factory=dict)


def _cli_job(wl: Workload, work: Path, jid: str, conf: dict, **kw) -> Job:
    d = work / jid
    d.mkdir(parents=True, exist_ok=True)
    path = d / "config.json"
    path.write_text(json.dumps(conf, sort_keys=True) + "\n", encoding="utf-8")
    wl.configs.append(path)
    out = d / "out"
    argv = [conf["command"], "--config", str(path), "--out", str(out)]
    # cli.main is looked up at call time, so the tracer's wrapper is seen
    return Job(jid, conf["command"], lambda: cli.main(argv), out, **kw)


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [r for r in csv.reader(fh) if r and not r[0].startswith("#")]


def _float_rows(path: Path) -> np.ndarray:
    rows = _rows(path)[1:]
    return np.array([[float(x) for x in r] for r in rows])


def _theta(rng, max_k: int = 12, big: tuple[int, int] | None = None) -> dict[str, float]:
    n_atoms = int(rng.integers(1, 4))
    ks = [int(k) for k in rng.choice(np.arange(1, max_k + 1), size=n_atoms, replace=False)]
    if big is not None:
        ks.append(int(rng.integers(big[0], big[1] + 1)))
    raw = rng.random(len(ks)) + 0.15
    raw = raw / raw.sum()
    return {str(k): float(w) for k, w in zip(ks, raw)}


def _u(rng) -> float:
    return float(rng.uniform(0.15, 8.0))


def _stationary_points(env_obj: dict) -> np.ndarray | None:
    """Stationary states of a config's system, from the library, as rows;
    None when every state is stationary."""
    spec = config.parse_environment(env_obj)
    system = spec.response_system()
    if spec.one_population:
        res = analysis.find_stationary_one_pop(system)
    else:
        res = analysis.find_stationary_two_pop(system)
    if res.continuum:
        return None
    return np.array([np.atleast_1d(np.asarray(s.state, dtype=float)) for s in res.states])


# ---------------------------------------------------------------- basins-fig3
def _basin_grid(out: Path) -> tuple[np.ndarray, dict]:
    legend = json.loads((out / "basins_legend.json").read_text(encoding="utf-8"))
    res = legend["resolution"]
    cells = np.array([int(r[2]) for r in _rows(out / "basins.csv")[1:]]).reshape(res, res)
    return cells, legend


def _check_left(o: Outcome) -> str | None:
    cells, legend = _basin_grid(o.out)
    if legend["flagged_cells"] or (cells < 0).any():
        return f"left panel: {legend['flagged_cells']} flagged cells"
    # cooperative system: attractor labels (ordered by p1) never decrease
    if (np.diff(cells, axis=0) < 0).any() or (np.diff(cells, axis=1) < 0).any():
        return "left panel: basin labels decrease along a row or column"
    return None


def _check_right(o: Outcome) -> str | None:
    cells, legend = _basin_grid(o.out)
    interior = [a["index"] for a in legend["attractors"]
                if 0.0 < a["p1"] < 1.0 and 0.0 < a["p2"] < 1.0]
    if legend["flagged_cells"]:
        return f"right panel: {legend['flagged_cells']} flagged cells"
    if len(interior) != 1 or not (cells == interior[0]).all():
        return "right panel: not every cell is labelled the interior attractor"
    return None


def basins_fig3(wl: Workload, rng, work: Path) -> list[Job]:
    panels = [("left", FIG3_LEFT, _check_left), ("right", FIG3_RIGHT, _check_right)]
    # the inputs are the paper's panels; the seed only orders them
    order = [panels[i] for i in rng.permutation(2)]
    jobs = [
        _cli_job(wl, work, f"basins-{name}", {
            "command": "basins", "environment": env,
            "resolution": BASIN_RESOLUTION, "tmax": BASIN_TMAX, "dt": BASIN_DT,
        }, units=lambda o: float(BASIN_RESOLUTION ** 2), check=check)
        for name, env, check in order
    ]
    return jobs


# -------------------------------------------------------------- analyze-sweep
def _check_stationary(o: Outcome) -> str | None:
    for r in _rows(o.out / "stationary.csv")[1:]:
        p = [float(x) for x in r[:2] if x]
        if any(not (0.0 <= x <= 1.0) for x in p):
            return f"stationary state outside the unit square: {r}"
        if float(r[5]) > 1e-8:
            return f"reports a non-stationary state (residual above 1e-8): {r}"
    return None


def _check_right_analyze(o: Outcome) -> str | None:
    msg = _check_stationary(o)
    if msg:
        return msg
    for r in _rows(o.out / "stationary.csv")[1:]:
        if r[2] == "asymptotically-stable" and r[1] and all(
            abs(float(a) - b) <= 5e-5 for a, b in zip(r[:2], RIGHT_STABLE)
        ):
            return None
    return f"right panel: no stable state at {RIGHT_STABLE}"


def _check_phase(o: Outcome) -> str | None:
    svg = (o.out / "phase.svg").read_text(encoding="utf-8")
    rows = _rows(o.out / "phase.csv")
    if not svg.startswith("<?xml") or not svg.rstrip().endswith("</svg>"):
        return "phase.svg is not a complete SVG document"
    if len(rows) != 602:
        return f"phase.csv has {len(rows) - 1} rows, expected 601"
    return None


def _sweep_rows(o: Outcome) -> list[list[str]]:
    return _rows(o.out / "sweep.csv")[1:]


def _check_sweep(n_rows: int) -> Callable[[Outcome], str | None]:
    def check(o: Outcome) -> str | None:
        rows = _sweep_rows(o)
        if len(rows) != n_rows:
            return f"sweep has {len(rows)} rows, expected {n_rows}"
        bad = [r for r in rows if r[6]]
        return f"sweep rows flagged: {bad}" if bad else None

    return check


def _check_oyama(o: Outcome) -> str | None:
    got = {float(r[0]): int(r[3]) for r in _sweep_rows(o)}
    want = {0.45: 0, 0.55: 1, 0.65: 0}
    return None if got == want else f"theta-mass sweep gives {got}, expected {want}"


def _random_analyze_env(rng, kind: str) -> dict:
    big = (61, 600) if kind.endswith("-big") else None
    if kind.startswith("one"):
        return {"u": _u(rng), "theta": _theta(rng, big=big)}
    if kind == "logit":
        def groups():
            n = int(rng.integers(1, 3))
            mass = rng.random(n) + 0.2
            mass = mass / mass.sum()
            return [{"mass": float(m), "eta": float(rng.uniform(0.05, 1.0))} for m in mass]
        return {"u1": _u(rng), "u2": _u(rng), "logit1": groups(), "logit2": groups()}
    return {"u1": _u(rng), "u2": _u(rng),
            "theta1": _theta(rng, big=big), "theta2": _theta(rng, big=big)}


# The Theorem-2 mixture search costs one two-population stationary search
# per alpha pair: 81 pairs (0.4 s) at the CLI default step 0.1, 9 pairs at
# 0.25, which keeps 100 analyze jobs inside one run.
SEARCH_ALPHA_STEP = 0.25

# random analyze environments (100 jobs): mostly exact-path
# (k <= 12) sampling environments, some with an atom above
# EXACT_TAIL_MAX_K = 60, and a few logit pairs
ANALYZE_MIX = [("one", 40), ("two", 40), ("one-big", 6), ("two-big", 6), ("logit", 6)]


def analyze_sweep(wl: Workload, rng, work: Path) -> list[Job]:
    one_env = lambda o: 1.0
    jobs = [
        _cli_job(wl, work, "analyze-left", {"command": "analyze", "environment": FIG3_LEFT,
                                            "search_alpha_step": SEARCH_ALPHA_STEP},
                 units=one_env, check=_check_stationary),
        _cli_job(wl, work, "analyze-right", {"command": "analyze", "environment": FIG3_RIGHT,
                                             "search_alpha_step": SEARCH_ALPHA_STEP},
                 units=one_env, check=_check_right_analyze),
        _cli_job(wl, work, "phase-left", {"command": "phase", "environment": FIG3_LEFT},
                 check=_check_phase),
        _cli_job(wl, work, "phase-right", {"command": "phase", "environment": FIG3_RIGHT},
                 check=_check_phase),
        _cli_job(wl, work, "sweep-oyama", {
            "command": "sweep", "environment": {"u": 1.5},
            "sweep": {"type": "theta-mass", "k": 2, "big_k": 1000,
                      "start": 0.45, "stop": 0.65, "step": 0.1},
        }, units=lambda o: 3.0, check=_check_oyama),
    ]
    kinds = [k for k, n in ANALYZE_MIX for _ in range(n)]
    for i in rng.permutation(len(kinds)):
        env = _random_analyze_env(rng, kinds[i])
        jobs.append(_cli_job(wl, work, f"analyze-{len(jobs)}",
                             {"command": "analyze", "environment": env,
                              "search_alpha_step": SEARCH_ALPHA_STEP},
                             units=one_env, check=_check_stationary))
    u0 = round(float(rng.uniform(0.2, 4.0)), 2)
    jobs.append(_cli_job(wl, work, "sweep-u", {
        "command": "sweep", "environment": {"theta": _theta(rng)},
        "sweep": {"type": "u", "start": u0, "stop": u0 + 3.8, "step": 0.2},
    }, units=lambda o: float(len(_sweep_rows(o))), check=_check_sweep(20)))
    jobs.append(_cli_job(wl, work, "sweep-alpha", {
        "command": "sweep",
        "environment": {"u1": _u(rng), "u2": _u(rng),
                        "theta1": _theta(rng), "theta2": _theta(rng)},
        "sweep": {"type": "alpha", "big_k": 1000, "start": 0.1, "stop": 0.9, "step": 0.1},
    }, units=lambda o: float(len(_sweep_rows(o))), check=_check_sweep(9)))
    return jobs


# ------------------------------------------------------------ oracle-meanfield
def _gap_check(wl: Workload, oracle_out: Path) -> Callable[[Outcome], str | None]:
    def check(o: Outcome) -> str | None:
        sim = _float_rows(oracle_out / "oracle.csv")[:, 1:]
        ref = _float_rows(o.out / "trajectory.csv")[:, 1:]
        m = min(len(sim), len(ref))
        gap = float(np.max(np.abs(sim[:m] - ref[:m])))
        wl.diagnostics["meanfield_gap"] = max(wl.diagnostics.get("meanfield_gap", 0.0), gap)
        return None if gap < ORACLE_GAP else f"oracle gap to the mean field {gap:.4f}"

    return check


def _response_check(env_obj: dict, p: float) -> Callable[[Outcome], str | None]:
    truth = float(config.parse_environment(env_obj).environment.single_response()(p))

    def check(o: Outcome) -> str | None:
        est, se = (float(x) for x in _rows(o.out / "oracle.csv")[1][1:])
        scale = max(se, math.sqrt(max(truth * (1.0 - truth), 0.0) / RESPONSE_SAMPLES))
        if abs(est - truth) > 4.0 * scale + 1e-12:
            return f"empirical response {est} is more than 4 SE from w(p) = {truth}"
        return None

    return check


RESPONSE_PS = (0.1, 0.3, 0.5, 0.7, 0.9)


def oracle_meanfield(wl: Workload, rng, work: Path) -> list[Job]:
    cycle = []
    for name, env, start in (("left", FIG3_LEFT, [0.6, 0.4]), ("right", FIG3_RIGHT, [0.5, 0.5])):
        oracle = _cli_job(wl, work, f"oracle-{name}", {
            "command": "oracle", "environment": env, "mode": "population",
            "n": ORACLE_N, "tmax": ORACLE_TMAX, "dt": 0.01, "initial": start,
            "seed": int(rng.integers(2**31)),
        }, units=lambda o: float(ORACLE_N * round(ORACLE_TMAX / 0.01) * 2))
        cycle.append(oracle)
        cycle.append(_cli_job(wl, work, f"meanfield-{name}", {
            "command": "trajectory", "environment": env, "initial": start,
            "tmax": ORACLE_TMAX, "dt": 0.01,
        }, check=_gap_check(wl, oracle.out)))
        cycle.append(_cli_job(wl, work, f"response-{name}", {
            "command": "oracle", "environment": env, "mode": "response",
            "p": 0.5, "samples": RESPONSE_SAMPLES, "seed": int(rng.integers(2**31)),
        }))
    # criterion 10's empirical-response half on seeded one-population environments
    for i in range(2):
        env = {"u": _u(rng), "theta": _theta(rng)}
        for p in RESPONSE_PS:
            cycle.append(_cli_job(wl, work, f"response-{i}-{p}", {
                "command": "oracle", "environment": env, "mode": "response",
                "p": p, "samples": RESPONSE_SAMPLES, "seed": int(rng.integers(2**31)),
            }, check=_response_check(env, p)))
    return cycle


# ---------------------------------------------------------------- trajectories
def _csv_rows(name: str) -> Callable[[Outcome], float]:
    """Output units of a job that records one CSV row per time step."""
    return lambda o: float(len(_rows(o.out / name)) - 1)


def _trajectory_check(points: np.ndarray | None) -> Callable[[Outcome], str | None]:
    def check(o: Outcome) -> str | None:
        rows = _float_rows(o.out / "trajectory.csv")[:, 1:]
        if (rows < 0.0).any() or (rows > 1.0).any():
            return "trajectory leaves the unit square"
        if "verdict: converged" in o.stdout and points is not None:
            dist = np.max(np.abs(points - rows[-1]), axis=1) if len(points) else [np.inf]
            if np.min(dist) > MATCH_TOL:
                return f"converged trajectory ends at {rows[-1]}, not at a stationary state"
        return None

    return check


def _random_trajectory_env(rng, kind: str) -> dict:
    if kind == "one":
        return {"u": _u(rng), "theta": _theta(rng)}
    if kind == "fig3":
        return FIG3_LEFT if rng.random() < 0.5 else FIG3_RIGHT
    if kind == "logit":
        return _random_analyze_env(rng, "logit")
    return {"mineffort": {"N": int(rng.integers(2, 6)), "c": float(rng.uniform(0.1, 0.9)),
                          "observation": ["minimum-effort", "opponent-action"][int(rng.integers(2))]},
            "theta": _theta(rng, max_k=8)}


def _simplex(rng, m: int) -> list[float]:
    x = rng.random(m) + 0.05
    return [float(v) for v in x / x.sum()]


def _contracting_job(work: Path, jid: str, rng) -> Job:
    diag1 = [float(x) for x in rng.uniform(0.5, 4.0, 3)]
    diag2 = [float(x) for x in rng.uniform(0.5, 4.0, 3)]
    thetas = [SampleSizeDistribution.of({int(k): float(v) for k, v in _theta(rng, 4).items()})
              for _ in range(2)]
    initial = (_simplex(rng, 3), _simplex(rng, 3))

    def run():
        game = extensions.ContractingGame(tuple(diag1), tuple(diag2))
        return extensions.integrate_contracting(game, thetas[0], thetas[1], initial,
                                                t_max=CONTRACTING_TMAX, dt=0.01)

    def check(o: Outcome) -> str | None:
        path = o.result[1]
        sums = np.stack([path[:, :3].sum(axis=1), path[:, 3:].sum(axis=1)])
        if (path < -1e-12).any() or np.max(np.abs(sums - 1.0)) > 1e-9:
            return "contracting path leaves the simplex"
        return None

    return Job(jid, "integrate_contracting", run, work / jid, cli=False,
               units=lambda o: float(len(o.result[0])), check=check,
               digest_arrays=lambda o: list(o.result))


# trajectories: one-population sampling, the figure-3 panels,
# logit pairs and minimum-effort systems, plus library contracting runs
TRAJECTORY_MIX = [("one", 40), ("fig3", 30), ("logit", 15), ("mineffort", 15)]
CONTRACTING_JOBS = 2


def trajectories(wl: Workload, rng, work: Path) -> list[Job]:
    stationary_cache: dict[str, np.ndarray | None] = {}
    jobs = []
    kinds = [k for k, n in TRAJECTORY_MIX for _ in range(n)]
    for i in rng.permutation(len(kinds)):
        env = _random_trajectory_env(rng, kinds[i])
        key = json.dumps(env, sort_keys=True)
        if key not in stationary_cache:
            stationary_cache[key] = _stationary_points(env)
        one_pop = kinds[i] in ("one", "mineffort")
        start = (float(rng.uniform(0.02, 0.98)) if one_pop
                 else [float(rng.uniform(0.02, 0.98)), float(rng.uniform(0.02, 0.98))])
        jobs.append(_cli_job(wl, work, f"trajectory-{len(jobs)}", {
            "command": "trajectory", "environment": env, "initial": start,
            "tmax": TRAJECTORY_TMAX, "dt": 0.01,
        }, units=_csv_rows("trajectory.csv"), check=_trajectory_check(stationary_cache[key])))
    for _ in range(CONTRACTING_JOBS):
        jobs.append(_contracting_job(work, f"contracting-{len(jobs)}", rng))
    return jobs


# Two workloads of two parts each; a part is a job builder with the name
# and unit of its throughput.  basins-oracle is the batched numpy work
# (basin grids, the O(n) oracle), analyze-trajectories the work on one
# state at a time (stationary search, recorded trajectories), so each
# later speed-up item is exercised by one and bypassed by the other.
WORKLOADS = {
    "basins-oracle": (
        (basins_fig3, "basin_cells_per_s", "cells/s"),
        (oracle_meanfield, "agent_steps_per_s", "agent-steps/s"),
    ),
    "analyze-trajectories": (
        (analyze_sweep, "envs_per_s", "envs/s"),
        (trajectories, "trajectory_steps_per_s", "steps/s"),
    ),
}

# seconds of one pass over a workload's jobs
NOMINAL_S = {
    "basins-oracle": 3.3,
    "analyze-trajectories": 8.5,
}


def build(name: str, seed: int, seconds: float, work: Path) -> Workload:
    """The workload's jobs from ``seed``, and the passes that fill ``seconds``."""
    wl = Workload(name)
    for builder, metric, _ in WORKLOADS[name]:
        jobs = builder(wl, np.random.default_rng(seed), work)
        for job in jobs:
            job.part = metric
        wl.jobs += jobs
    wl.repeats = max(2, int(round(seconds / NOMINAL_S[name])))
    return wl
