"""Tests of the benchmark's span tracer and the counts derived from it."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (str(HERE), str(HERE.parent / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import samplingdyn  # noqa: E402
from samplingdyn import (  # noqa: E402
    CoordinationGame,
    Environment,
    SampleSizeDistribution,
    cli,
    flow,
    oracle,
)
from tracer import Span, Tracer, layer_metrics, self_times  # noqa: E402

FIG3_RIGHT = Environment.of(
    CoordinationGame(5.0, 0.2), SampleSizeDistribution.of({1: 0.5, 5: 0.5})
)


def _snapshot():
    """Every attribute of every samplingdyn module and response class."""
    from samplingdyn import dynamics, extensions

    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "samplingdyn"]
    owners += [dynamics.SamplingResponse, dynamics.LogitResponse,
               extensions.MinEffortResponse]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_self_time_on_synthetic_span_tree():
    spans = [
        Span(0, "job", None, 0, 0.0, 10.0, leaves={"array:X": [3, 2.0, 30]}),
        Span(1, "a", 0, 0, 1.0, 4.0, leaves={"scalar:X": [5, 1.0, 5]}),
        Span(2, "b", 0, 0, 5.0, 9.0),
        Span(3, "c", 2, 0, 6.0, 7.0),
    ]
    # job: 10 - leaves 2 - a 3 - b 4; a: 3 - leaves 1; b: 4 - c 1
    assert self_times(spans) == pytest.approx([1.0, 2.0, 3.0, 1.0])


def test_wrappers_reach_every_binding_and_are_restored(tmp_path):
    before = _snapshot()
    original = flow.estimate_basins
    tr = Tracer()
    tr.install()
    try:
        assert cli.estimate_basins is flow.estimate_basins is samplingdyn.estimate_basins
        assert cli.estimate_basins is not original
        # outside a job the wrappers record nothing
        FIG3_RIGHT.pair().w1(0.5)
        assert tr.spans == []
        code = tr.run_job(0, "job.analyze", lambda: cli.main([
            "analyze", "--config", str(_right_panel_config(tmp_path)),
            "--out", str(tmp_path / "out")]))
        assert code == 0
    finally:
        tr.uninstall()
    assert _snapshot() == before
    names = {s.name for s in tr.spans}
    assert {"cli.main", "config.parse", "analysis.stationary", "analysis.theorem",
            "config.write"} <= names
    assert all(s.job == 0 and s.end >= s.start for s in tr.spans)
    main_span = next(s for s in tr.spans if s.name == "cli.main")
    assert main_span.parent == 0
    metrics = layer_metrics(tr.spans)
    assert metrics["dynamics.array_calls"] > 0 and metrics["analysis.roots"] >= 3


def _right_panel_config(tmp_path):
    path = tmp_path / "right.json"
    path.write_text(
        '{"command": "analyze", "environment": {"u1": 5, "u2": 0.2, '
        '"theta1": {"1": 0.5, "5": 0.5}, "theta2": {"1": 0.5, "5": 0.5}}}'
    )
    return path


@pytest.mark.parametrize("resolution", [2, 3])
def test_basin_step_counts_match_per_cell_integration(resolution):
    tr = Tracer()
    tr.install()
    try:
        grid = tr.run_job(0, "job.basins", lambda: flow.estimate_basins(
            FIG3_RIGHT, resolution=resolution, t_max=260.0, dt=0.01))
    finally:
        tr.uninstall()
    m = layer_metrics(tr.spans)
    assert grid.flagged == 0
    assert m["flow.basin_cells"] == resolution**2
    assert m["analysis.stationary_calls"] == 1  # one stationary search per grid

    # independent count: integrate every cell centre on its own
    centers = [(i + 0.5) / resolution for i in range(resolution)]
    steps = [len(flow.integrate(FIG3_RIGHT, (a, b), t_max=260.0, dt=0.01).times) - 1
             for a in centers for b in centers]
    # a cell that converges after S steps also takes the field once more
    per_cell = (sum(steps) + len(steps) / 4.0) / len(steps)
    assert m["flow.cell_steps_per_cell"] == pytest.approx(per_cell, rel=1e-3)
    assert m["flow.rk4_steps"] == pytest.approx(max(steps) + 0.25, rel=1e-3)
    # the slow eigenvalue -0.099 keeps the last cell running close to t = 217
    assert 19_000 < m["flow.rk4_steps"] < 21_800


@pytest.mark.parametrize("env, initial, pops", [
    (FIG3_RIGHT, (0.5, 0.5), 2),
    (Environment.symmetric(1.2, SampleSizeDistribution.of({3: 1.0})), 0.4, 1),
])
def test_oracle_agent_steps_are_n_steps_populations(env, initial, pops):
    tr = Tracer()
    tr.install()
    try:
        tr.run_job(0, "job.oracle", lambda: oracle.simulate_population(
            env, n=1000, t_max=1.0, dt=0.01, seed=3, initial=initial))
    finally:
        tr.uninstall()
    assert layer_metrics(tr.spans)["oracle.agent_steps"] == 1000 * 100 * pops
