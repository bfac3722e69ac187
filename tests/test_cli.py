import copy
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NanPastResponse
from samplingdyn import cli
from samplingdyn import config as cfg
from samplingdyn.analysis import System
from samplingdyn.cli import main

FIG3_RIGHT = {
    "u1": 5.0,
    "u2": 0.2,
    "theta1": {"1": 0.5, "5": 0.5},
    "theta2": {"1": 0.5, "5": 0.5},
}
FIG3_LEFT = {
    "u1": 20.0,
    "u2": 0.05,
    "theta1": {"3": 0.5, "1000": 0.5},
    "theta2": {"3": 0.5, "1000": 0.5},
}
# a symmetric game with equal thetas, written in the two-population form
SYMMETRIC_PAIR = {
    "u1": 2.0,
    "u2": 2.0,
    "theta1": {"1": 0.5, "5": 0.5},
    "theta2": {"1": 0.5, "5": 0.5},
}
ONE_POP = {"u": 1.2, "theta": {"2": 1.0}}
# a payoff where the two-population search on the symmetric pair finds the
# asymmetric state (0.0480, 0.0686) at the shares (0.25, 0.5)
U_K3 = 4.765685148304299


# a general matrix whose reduction, (0.5, 4), has u1 < 1
SWAPPED_MATRIX = {"matrix": {"u11": 1, "u12": 0, "u21": 0, "u22": 2,
                             "v11": 4, "v12": 0, "v21": 0, "v22": 1}}


def write_config(tmp_path: Path, obj: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _contracting(diag1):
    return {
        "contracting": {"diag1": diag1, "diag2": [1, 2, 4]},
        "theta1": {"1": 1.0},
        "theta2": {"1": 1.0},
    }


def _logit(mass=1.0, eta=0.5):
    return {"u1": 2.0, "u2": 2.0, "logit": [{"mass": mass, "eta": eta}]}


class TestAnalyze:
    def test_matrix_is_read_in_its_own_labels(self, tmp_path, capsys):
        # relabelled to (2, 0.25), the matrix read (0, 0) stable, an unstable
        # state at (0.5706, 0.4294) and Theorem 4; in its own labels it is
        # the u1/u2 game (0.5, 4), with (0, 0) unstable and no Theorem 4
        thetas = {"theta1": {"1": 0.5, "5": 0.5}, "theta2": {"1": 0.5, "5": 0.5}}
        seen = []
        for name, game in [("matrix", SWAPPED_MATRIX), ("u1u2", {"u1": 0.5, "u2": 4.0})]:
            out = tmp_path / name
            conf = write_config(tmp_path, {"command": "analyze", "environment": {**game, **thetas},
                                           "big_k": 50, "search_alpha_step": 0.25})
            assert main(["analyze", "--config", conf, "--out", str(out)]) == 0
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            seen.append((capsys.readouterr().out, files))
        assert seen[0] == seen[1]
        stdout, files = seen[1]
        assert "stationary (0.0000, 0.0000): unstable (slope product 1.5," in stdout
        assert "stationary (1.0000, 1.0000): asymptotically-stable" in stdout
        assert "Theorem 4" not in stdout and sorted(files) == ["stationary.csv", "theorems.json"]

    def test_fig3_right_summary_and_files(self, tmp_path, capsys):
        conf = write_config(
            tmp_path, {"command": "analyze", "environment": FIG3_RIGHT, "out": str(tmp_path)}
        )
        assert main(["analyze", "--config", conf]) == 0
        out = capsys.readouterr().out
        assert "(0.6328, 0.3672): asymptotically-stable" in out
        assert "Theorem 4 part 1: holds" in out
        csv_text = (tmp_path / "stationary.csv").read_text()
        assert csv_text.startswith("p1,p2,stability,slope_product,leading_eigenvalue,residual")
        reports = json.loads((tmp_path / "theorems.json").read_text())
        assert reports["theorem-4"]["parts"]["part1"] == "holds"
        assert reports["proposition-4"]["state_a"]["conditions"]["product"] == 1.5

    @pytest.mark.parametrize("environment", [FIG3_RIGHT, ONE_POP, SYMMETRIC_PAIR])
    def test_pure_state_stability_in_json_matches_stdout(self, tmp_path, capsys, environment):
        conf = write_config(tmp_path, {"command": "analyze", "environment": environment,
                                       "big_k": 50, "search_alpha_step": 0.25,
                                       "out": str(tmp_path)})
        assert main(["analyze", "--config", conf]) == 0
        (line,) = [s for s in capsys.readouterr().out.splitlines() if s.startswith("Proposition 4")]
        reports = json.loads((tmp_path / "theorems.json").read_text())["proposition-4"]
        a, b = (reports[f"state_{side}"]["stability"] for side in "ab")
        assert line.startswith(f"Proposition 4: state a {a} (product ")
        assert f", state b {b} (product " in line
        assert "verdict" not in reports["state_a"] and "verdict" not in reports["state_b"]

    @pytest.mark.parametrize("environment, step, found, alpha", [
        ({"u": U_K3, "theta": {"3": 1}}, 0.25, "none", None),
        ({"u": 1.5, "theta": {"2": 1}}, 0.05, "alpha=0.55", [0.55]),
        ({"u1": U_K3, "u2": U_K3, "theta1": {"3": 1}, "theta2": {"3": 1}}, 0.25,
         "alpha=(0.25, 0.5)", [0.25, 0.5]),
        (SYMMETRIC_PAIR, 0.25, "none [outside theorem scope]", None),
    ], ids=["one-pop-none", "one-pop-share", "two-pop-pair", "symmetric-pair"])
    def test_search_has_one_share_per_population(self, tmp_path, capsys, environment, step,
                                                 found, alpha):
        # the config's form sets the arity of the search, and Theorem 4 is a
        # statement about two populations
        conf = write_config(tmp_path, {"command": "analyze", "environment": environment,
                                       "search_alpha_step": step, "out": str(tmp_path)})
        assert main(["analyze", "--config", conf]) == 0
        out, two = capsys.readouterr().out, "theta1" in environment
        assert f"Theorem 2/2' mixture search: {found}\n" in out
        assert ("Theorem 4 part 1" in out) == two
        reports = json.loads((tmp_path / "theorems.json").read_text())
        assert reports["theorem-2-search"]["alpha"] == alpha
        assert ("theorem-4" in reports) == two
        if alpha is not None:
            assert len(reports["theorem-2-search"]["state"]) == len(alpha)

    def test_fig3_left_big_k_in_support_is_not_applicable(self, tmp_path, capsys):
        conf = write_config(
            tmp_path,
            {
                "command": "analyze",
                "environment": FIG3_LEFT,
                "search_alpha_step": 0.25,
                "out": str(tmp_path),
            },
        )
        assert main(["analyze", "--config", conf]) == 0
        assert "not applicable" in capsys.readouterr().out
        reports = json.loads((tmp_path / "theorems.json").read_text())
        for name in ("theorem-3", "theorem-2-search"):
            assert reports[name]["applicable"] is False
            assert "big_k=1000" in reports[name]["note"]
        assert "theorem-4" in reports

    def test_continuum_sentinel(self, tmp_path, capsys):
        env = {"u1": 1.2, "u2": 1.2, "theta1": {"1": 1.0}, "theta2": {"1": 1.0}}
        conf = write_config(
            tmp_path, {"command": "analyze", "environment": env, "out": str(tmp_path)}
        )
        assert main(["analyze", "--config", conf]) == 0
        out = capsys.readouterr().out
        assert "a state is stationary iff it is symmetric" in out

    @pytest.mark.parametrize("u", [1e11, 1e13])
    def test_one_sample_at_a_huge_payoff_is_a_continuum(self, tmp_path, capsys, u):
        # k/(u + 1) lies below the snap at u = 1e13, yet one observation
        # still decides, so w(p) = p
        conf = write_config(tmp_path, {"command": "analyze", "out": str(tmp_path),
                                       "environment": {"u": u, "theta": {"1": 1}}})
        assert main(["analyze", "--config", conf]) == 0
        assert "continuum: every state is stationary" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "env, message",
        [
            ({"u1": 5.0, "theta1": {"1": 1.0}, "theta2": {"1": 1.0}}, "u2"),
            ({"mineffort": {"N": 2.5, "c": 0.5}, "theta": {"1": 1.0}}, "'N'"),
            (
                {
                    "contracting": {"M": "x", "diag1": [4, 2, 1], "diag2": [1, 2, 4]},
                    "theta1": {"1": 1.0},
                    "theta2": {"1": 1.0},
                },
                "'M'",
            ),
            ({**ONE_POP, "theta1": {"2": 1.0}}, "'theta'"),
            ({**FIG3_RIGHT, "theta": {"2": 1.0}}, "'theta'"),
            ({"contracting": 5, "theta1": {"1": 1.0}, "theta2": {"1": 1.0}}, "'contracting'"),
            ({"hawk_dove": [0.04, 0.2], "theta": {"2": 1.0}}, "'hawk_dove'"),
            (_contracting([math.nan, 2, 1]), "finite and positive"),
            (_contracting([math.inf, 2, 1]), "finite and positive"),
            (_contracting([4, 2, -1]), "finite and positive"),
            (_contracting("421"), "'diag1'"),
            (_contracting([True, 2, 1]), "'diag1'"),
            # 1/u overflows, and the corner conditions compare with 1/u + 1
            ({**FIG3_RIGHT, "u1": 1e-320}, "finite reciprocal"),
            # ubar/u overflows in the pure-state conditions
            (_contracting([4, 5e-324, 1]), "ratios must be finite"),
            (_logit(eta=math.nan), "noise level"),
            (_logit(eta=math.inf), "noise level"),
            (_logit(mass=math.nan), "group mass"),
            # scipy's incomplete beta is NaN at sizes near 1e18
            ({"u": 1.2, "theta": {"1000000000000000000000": 1.0}}, "at most 1000000"),
            ({**FIG3_RIGHT, "theta2": {"1": 0.5, "1000001": 0.5}}, "at most 1000000"),
            ({**FIG3_RIGHT, "u": 2}, "more than one form: u, u1/u2"),
            ({"contracting": {"diag1": [1, 1, 4], "diag2": [2, 2, 4]}, "theta1": {"1": 1},
              "theta2": {"1": 1}}, "share a payoff profile"),
            # each key below is one that only another model reads
            ({"u1": 2, "u2": 0.5, "logit1": [{"mass": 1, "eta": 0.3}],
              "logit2": [{"mass": 1, "eta": 0.3}], "theta1": {"1": 1}, "theta2": {"1": 1}},
             "a logit environment does not read theta1, theta2"),
            ({"u": 2, "theta": {"2": 1}, "logit": [{"mass": 1, "eta": 0.3}]},
             "a logit environment does not read theta"),
            ({"mineffort": {"N": 3, "c": 0.5}, "theta": {"2": 1}, "u": 5},
             "a mineffort environment does not read u"),
            ({"contracting": {"diag1": [1, 2], "diag2": [2, 1]}, "theta1": {"1": 1},
              "theta2": {"1": 1}, "u1": 3, "u2": 0.2},
             "a contracting environment does not read u1, u2"),
            # one logit form at a time, as for theta
            ({**_logit(eta=0.3), "logit1": [{"mass": 1, "eta": 5.0}], "logit2": "junk"},
             "'logit' (both populations) cannot be combined with 'logit1'/'logit2'"),
            ({**_logit(eta=0.3), "logit2": [{"mass": 1, "eta": 5.0}]},
             "'logit' (both populations) cannot be combined with 'logit1'/'logit2'"),
            # int() reads both keys as 1; the last mass used to win silently
            ({"u": 1.5, "theta": {"1": 0.5, "01": 0.5, "2": 0.5}},
             "theta keys '1' and '01' name one sample size 1"),
        ],
        ids=["missing-u2", "fractional-N", "non-numeric-M", "theta-and-theta1",
             "theta-and-theta2", "contracting-not-object", "hawk-dove-not-object",
             "nan-payoff", "infinite-payoff", "negative-payoff", "string-payoffs",
             "bool-payoff", "subnormal-payoff", "subnormal-contracting-payoff",
             "nan-logit-eta", "infinite-logit-eta", "nan-logit-mass", "huge-theta-key",
             "theta-key-past-max-sample-size", "two-game-forms", "tied-contracting-game",
             "logit-with-thetas", "logit-with-theta", "mineffort-with-u",
             "contracting-with-u1-u2", "logit-with-logit1-logit2", "logit-with-logit2",
             "theta-keys-naming-one-size"],
    )
    def test_bad_environment_exits_2(self, tmp_path, capsys, env, message):
        conf = write_config(tmp_path, {"command": "analyze", "environment": env})
        assert main(["analyze", "--config", conf]) == 2
        assert message in capsys.readouterr().err

    def test_command_mismatch_exits_2(self, tmp_path, capsys):
        conf = write_config(tmp_path, {"command": "analyze", "environment": FIG3_RIGHT})
        assert main(["phase", "--config", conf]) == 2

    def test_mineffort_report(self, tmp_path, capsys):
        env = {
            "mineffort": {"N": 2, "c": 0.5, "observation": "minimum-effort"},
            "theta": {"1": 1.0},
        }
        conf = write_config(
            tmp_path, {"command": "analyze", "environment": env, "out": str(tmp_path)}
        )
        assert main(["analyze", "--config", conf]) == 0
        out = capsys.readouterr().out
        assert "proposition-7: safe asymptotically-stable, efficient unstable" in out

    def test_contracting_report(self, tmp_path, capsys):
        env = {
            "contracting": {"M": 3, "diag1": [4, 2, 1], "diag2": [1, 2, 4]},
            "theta1": {"1": 0.6, "4": 0.4},
            "theta2": {"1": 0.6, "4": 0.4},
        }
        conf = write_config(
            tmp_path, {"command": "analyze", "environment": env, "out": str(tmp_path)}
        )
        assert main(["analyze", "--config", conf]) == 0
        reports = json.loads((tmp_path / "theorems.json").read_text())
        labels = [e["label"] for e in reports["proposition-5"]["equilibria"]]
        assert labels == ["unstable", "asymptotically-stable", "unstable"]


class TestPhase:
    def test_byte_identical_reruns(self, tmp_path):
        conf = write_config(
            tmp_path, {"command": "phase", "environment": FIG3_RIGHT, "out": str(tmp_path)}
        )
        assert main(["phase", "--config", conf]) == 0
        first = (tmp_path / "phase.svg").read_bytes()
        assert main(["phase", "--config", conf]) == 0
        assert (tmp_path / "phase.svg").read_bytes() == first
        assert first.startswith(b"<?xml")

    def test_one_pop_dot_convention(self, tmp_path):
        env = {"u": 1.2, "theta": {"3": 1.0}}
        conf = write_config(
            tmp_path, {"command": "phase", "environment": env, "out": str(tmp_path)}
        )
        assert main(["phase", "--config", conf]) == 0
        svg = (tmp_path / "phase.svg").read_text()
        # hollow dot at the interior state, filled at the two corners
        assert svg.count('fill="#ffffff" stroke="#000000"') == 1
        assert svg.count('fill="#000000" stroke="#000000"') == 2

    def test_logit_environment(self, tmp_path):
        env = {
            "u1": 2.5,
            "u2": 2.5,
            "logit": [{"mass": 0.55, "eta": 0.55}, {"mass": 0.45, "eta": 0.01}],
        }
        conf = write_config(
            tmp_path, {"command": "phase", "environment": env, "out": str(tmp_path)}
        )
        assert main(["phase", "--config", conf]) == 0
        assert (tmp_path / "phase.csv").read_text().startswith("t,w2_of_t,w1_of_t")


def _fmt_per_value_csv(times, states, two):
    """The trajectory CSV as written with one ``fmt`` call per value, the
    reference for the one format operation a row."""

    def fmt(x):
        return f"{float(x):.12g}"

    lines = ["t,p1,p2" if two else "t,p1"]
    for t, x in zip(times, states):
        lines.append(f"{fmt(t)},{fmt(x[0])},{fmt(x[1])}" if two else f"{fmt(t)},{fmt(x)}")
    return "\n".join(lines) + "\n"


_CSV_FLOATS = st.floats(0.0, 1.0) | st.floats() | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e-17, 0.1 + 0.2, 1.0, 1e16, 123456789012.5]
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    rows=st.lists(st.tuples(_CSV_FLOATS, _CSV_FLOATS, _CSV_FLOATS), max_size=12),
    two=st.booleans(),
)
def test_trajectory_csv_rows_match_per_value_formatting(rows, two):
    times = [t for t, _, _ in rows]
    states = [(a, b) for _, a, b in rows] if two else [a for _, a, _ in rows]
    array = np.reshape(np.asarray(states, dtype=float), (-1, 2) if two else (-1,))
    assert cfg.trajectory_csv(np.asarray(times, dtype=float), array) == _fmt_per_value_csv(
        times, states, two
    )


class TestTrajectoryAndBasins:
    def test_trajectory_csv(self, tmp_path, capsys):
        conf = write_config(
            tmp_path,
            {
                "command": "trajectory",
                "environment": {"u": 1.2, "theta": {"2": 1.0}},
                "initial": 0.01,
                "tmax": 60.0,
                "out": str(tmp_path),
            },
        )
        assert main(["trajectory", "--config", conf]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,p1"
        assert "converged-to" in capsys.readouterr().out

    @pytest.mark.parametrize("initial, responses", [
        (0.0, (NanPastResponse(0.8),)),
        ([0.0, 0.0], (NanPastResponse(2.0), NanPastResponse(0.8))),
    ], ids=["one-population", "two-populations"])
    def test_non_finite_state_exits_3(self, tmp_path, capsys, monkeypatch, initial, responses):
        # a response that turns NaN from 0.8 on stands in for the config's
        conf = write_config(tmp_path, {"command": "trajectory", "environment": ONE_POP,
                                       "initial": initial, "tmax": 10.0, "dt": 1.0,
                                       "out": str(tmp_path)})
        monkeypatch.setattr(cli, "_system", lambda spec: System(responses))
        assert main(["trajectory", "--config", conf]) == 3
        assert "numeric failure: non-finite state at step 2" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_basins_outputs(self, tmp_path):
        conf = write_config(
            tmp_path,
            {
                "command": "basins",
                "environment": {"u": 1.2, "theta": {"3": 1.0}},
                "resolution": 21,
                "tmax": 60.0,
                "out": str(tmp_path),
            },
        )
        assert main(["basins", "--config", conf]) == 0
        legend = json.loads((tmp_path / "basins_legend.json").read_text())
        assert legend["resolution"] == 21
        assert legend["integrated_cells"] == 0
        rows = (tmp_path / "basins.csv").read_text().splitlines()
        assert rows[0] == "cell_p1,cell_p2,attractor_index"
        assert len(rows) == 22

    def test_basins_reports_integrated_cells(self, tmp_path, capsys):
        # the saddle (1/2, 1/2) has the anti-diagonal as its stable manifold,
        # so the 5 cells on it are integrated
        env = {"u1": 1.0, "u2": 1.0, "theta1": {"3": 1.0}, "theta2": {"3": 1.0}}
        conf = write_config(
            tmp_path,
            {"command": "basins", "environment": env, "resolution": 5, "dt": 0.05},
        )
        assert main(["basins", "--config", conf, "--out", str(tmp_path)]) == 0
        assert "integrated cells: 5" in capsys.readouterr().out
        legend = json.loads((tmp_path / "basins_legend.json").read_text())
        assert legend["integrated_cells"] == 5


    def test_two_population_form_keeps_two_populations(self, tmp_path):
        # the config's form, not the game's symmetry, sets the arity
        basins_dir, analyze_dir = tmp_path / "basins", tmp_path / "analyze"
        conf = write_config(
            tmp_path,
            {"command": "basins", "environment": SYMMETRIC_PAIR, "resolution": 5, "tmax": 200.0,
             "dt": 0.05},
        )
        assert main(["basins", "--config", conf, "--out", str(basins_dir)]) == 0
        conf = write_config(tmp_path, {"command": "analyze", "environment": SYMMETRIC_PAIR,
                                       "search_alpha_step": 0.5})
        assert main(["analyze", "--config", conf, "--out", str(analyze_dir)]) == 0

        rows = (basins_dir / "basins.csv").read_text().splitlines()[1:]
        assert len(rows) == 25 and all(r.split(",")[1] for r in rows)
        legend = json.loads((basins_dir / "basins_legend.json").read_text())
        attractors = [x for a in legend["attractors"] for x in (a["p1"], a["p2"])]
        stationary = [
            float(x)
            for r in (analyze_dir / "stationary.csv").read_text().splitlines()[1:]
            for x in r.split(",")[:2]
        ]
        assert len(attractors) == len(stationary) == 6
        assert attractors == pytest.approx(stationary, abs=1e-11)

    def test_initial_in_the_wrong_form_exits_2(self, tmp_path, capsys):
        conf = write_config(
            tmp_path,
            {"command": "trajectory", "environment": ONE_POP, "initial": [0.2, 0.3]},
        )
        assert main(["trajectory", "--config", conf, "--out", str(tmp_path)]) == 2
        assert "'initial'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("trajectory", ["--tmax", "nan"]),
        ("trajectory", ["--dt", "0"]),
        ("trajectory", ["--dt", "-1"]),
        ("basins", ["--dt", "0"]),
        ("basins", ["--dt", "-0.01"]),
        ("basins", ["--tmax", "-1"]),
        ("basins", ["--resolution", "1"]),
        ("oracle", ["--dt", "1.5"]),
        ("oracle", ["--seed", "-1"]),
        *(
            pytest.param(command, flags, id=f"{command}-{name}")
            for command in ("trajectory", "basins")
            for name, flags in [
                ("huge-step-count", ["--tmax", "1e9", "--dt", "0.01"]),
                ("infinite-step-count", ["--tmax", "1e10", "--dt", "1e-300"]),
            ]
        ),
        # round(tmax / dt) = 0 steps used to run nothing and exit 0
        *(
            pytest.param(command, ["--tmax", "0.001", "--dt", "1"], id=f"{command}-no-step")
            for command in ("trajectory", "basins", "oracle")
        ),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_invalid_run_numbers_exit_2(tmp_path, capsys, command, flags):
    # the oracle's n keeps a run cheap, should a check be missing
    n = {"n": 1000} if command == "oracle" else {}
    conf = write_config(tmp_path, {"command": command, "environment": ONE_POP, **n})
    assert main([command, "--config", conf, "--out", str(tmp_path), *flags]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"'{flags[0][2:]}'" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "command, fields",
    [
        ("analyze", {"big_k": 1000.5}),
        ("analyze", {"big_k": "1000"}),
        # 1e308 used to exit 0 with Theorem 3 reported as failing
        ("analyze", {"big_k": 1e308}),
        ("analyze", {"big_k": 10**6 + 1}),
        # float() of an int past the float range overflowed: exit 3
        ("analyze", {"big_k": 10**400}),
        ("analyze", {"search_alpha_step": 0}),
        ("analyze", {"search_alpha_step": -0.1}),
        ("analyze", {"search_alpha_step": 1.0}),
        ("analyze", {"search_alpha_step": 0.005}),
        ("basins", {"environment": {"u": 1.2, "theta": {"1": 1}}}),
        ("basins", {"environment": {"u1": 1.2, "u2": 0.5, "theta1": {"1": 1}, "theta2": {"1": 1}}}),
        ("phase", {"samples": 100.5}),
        ("phase", {"samples": 1}),
        ("phase", {"quiver": -1}),
        ("phase", {"quiver": 2.5}),
        ("phase", {"samples": 1e308}),
        ("phase", {"quiver": 1e308}),
        # one cell past the bound, so a missing check would stay cheap
        ("basins", {"resolution": 10**6 + 1, "environment": ONE_POP}),
        ("basins", {"resolution": 1001}),
        ("normalize", {"game": -1}),
        ("normalize", {"game": False}),
        ("trajectory", {"out": 5}),
        ("normalize", {"out": None}),
        ("normalize", {"out": "a\0b"}),
    ],
    ids=["fractional-big_k", "string-big_k", "huge-big_k", "big_k-past-max-sample-size",
         "overflowing-big_k",
         "zero-alpha-step", "negative-alpha-step",
         "unit-alpha-step", "alpha-step-below-0.01", "continuum-basins-theta",
         "continuum-basins-theta1-theta2", "fractional-samples", "one-sample", "negative-quiver",
         "fractional-quiver", "huge-samples", "huge-quiver", "one-population-huge-resolution",
         "two-population-huge-resolution", "number-game", "bool-game", "number-out",
         "null-out", "nul-byte-out"],
)
def test_bad_analysis_numbers_exit_2(tmp_path, capsys, command, fields):
    base = {"game": {"u": 2}} if command == "normalize" else {"environment": FIG3_RIGHT}
    conf = {"command": command, **base, "out": str(tmp_path), **fields}
    assert main([command, "--config", write_config(tmp_path, conf)]) == 2
    assert f"'{next(iter(fields))}'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


class TestOracleCommand:
    def test_deterministic_reruns(self, tmp_path):
        conf = write_config(
            tmp_path,
            {
                "command": "oracle",
                "environment": {"u": 1.2, "theta": {"2": 1.0}},
                "n": 1000,
                "initial": 0.3,
                "tmax": 2.0,
                "seed": 42,
                "out": str(tmp_path),
            },
        )
        assert main(["oracle", "--config", conf]) == 0
        first = (tmp_path / "oracle.csv").read_bytes()
        assert main(["oracle", "--config", conf]) == 0
        assert (tmp_path / "oracle.csv").read_bytes() == first
        assert first.startswith(b"# seed=42 n=1000\n")

    def test_population_final_state_prints_plain_floats(self, tmp_path, capsys):
        conf = write_config(
            tmp_path,
            {
                "command": "oracle",
                "environment": FIG3_RIGHT,
                "n": 1000,
                "tmax": 2.0,
                "seed": 3,
                "out": str(tmp_path),
            },
        )
        assert main(["oracle", "--config", conf]) == 0
        assert capsys.readouterr().out == "final state: (0.617, 0.368)\n"

    def test_response_mode(self, tmp_path):
        conf = write_config(
            tmp_path,
            {
                "command": "oracle",
                "environment": {"u": 1.2, "theta": {"2": 1.0}},
                "mode": "response",
                "p": 0.5,
                "samples": 20000,
                "seed": 7,
                "out": str(tmp_path),
            },
        )
        assert main(["oracle", "--config", conf]) == 0
        lines = (tmp_path / "oracle.csv").read_text().splitlines()
        assert lines[1] == "p,estimate,standard_error"

    @pytest.mark.parametrize(
        "fields",
        [
            {"n": 99},
            {"n": 1000.5},
            {"seed": -3},
            {"seed": 1.5},
            {"mode": "response", "p": 1.5},
            {"mode": "response", "p": -0.1},
            {"mode": "response", "p": "0.5"},
            {"mode": "response", "samples": 0},
            {"mode": "response", "samples": 2.5},
            {"mode": "response", "samples": 1e12},
            {"n": 1e12},
            {"tmax": 1e9, "dt": 0.01},
            {"tmax": 1e10, "dt": 1e-300},
            {"environment": {"u": 1.2, "theta": {"1000000000000000000000": 1.0}}},
        ],
        ids=["n-below-100", "fractional-n", "negative-seed", "fractional-seed", "p-above-1",
             "negative-p", "string-p", "zero-samples", "fractional-samples", "huge-samples",
             "huge-n", "huge-step-count", "infinite-step-count", "huge-theta-key"],
    )
    def test_bad_numbers_exit_2(self, tmp_path, capsys, fields):
        conf = {"command": "oracle", "environment": ONE_POP, "n": 1000, "tmax": 0.1,
                "out": str(tmp_path), **fields}
        assert main(["oracle", "--config", write_config(tmp_path, conf)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "oracle.csv").exists()

    def test_response_mode_two_populations(self, tmp_path, capsys):
        conf = {
            "command": "oracle",
            "environment": FIG3_RIGHT,
            "mode": "response",
            "p": 0.5,
            "samples": 20000,
            "seed": 7,
            "out": str(tmp_path),
        }
        assert main(["oracle", "--config", write_config(tmp_path, conf)]) == 0
        lines = (tmp_path / "oracle.csv").read_text().splitlines()
        assert lines[:2] == ["# seed=7 samples=20000", "p,estimate,standard_error"]
        # at p = 1/2 both sample sizes 1 and 5 have mass 1/2; population 1
        # (u1 = 5) needs one first action in five, population 2 all five
        exact = (0.25 + 0.5 * (1 - 0.5**5), 0.25 + 0.5 * 0.5**5)
        rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
        assert len(rows) == 2
        for (p, est, se), w in zip(rows, exact):
            assert p == 0.5 and abs(est - w) < 4 * se
        # population 1 keeps the one-population seed
        conf["environment"] = {"u": 5.0, "theta": FIG3_RIGHT["theta1"]}
        (tmp_path / "one").mkdir()
        conf["out"] = str(tmp_path / "one")
        assert main(["oracle", "--config", write_config(tmp_path, conf)]) == 0
        one = (tmp_path / "one" / "oracle.csv").read_text().splitlines()
        assert one == lines[:3]


class TestSweep:
    def test_theta_mass_indicator(self, tmp_path):
        conf = write_config(
            tmp_path,
            {
                "command": "sweep",
                "environment": {"u": 1.5},
                "sweep": {
                    "type": "theta-mass",
                    "k": 2,
                    "big_k": 1000,
                    "start": 0.45,
                    "stop": 0.65,
                    "step": 0.1,
                },
                "out": str(tmp_path),
            },
        )
        assert main(["sweep", "--config", conf]) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[0].startswith("value,n_stationary,n_interior,stable_interior")
        got = {r.split(",")[0]: r.split(",")[3] for r in rows[1:]}
        assert got == {"0.45": "0", "0.55": "1", "0.65": "0"}
        # Theorem 4 is a two-population statement
        assert all(r.split(",")[4:6] == ["n/a", "n/a"] for r in rows[1:])

    @pytest.mark.parametrize("u1, u2, applicable", [(5.0, 0.2, True), (0.5, 2.0, False)])
    def test_alpha_theorem4_columns(self, tmp_path, u1, u2, applicable):
        env = {**FIG3_RIGHT, "u1": u1, "u2": u2}
        conf = write_config(
            tmp_path,
            {
                "command": "sweep",
                "environment": env,
                "sweep": {"type": "alpha", "big_k": 1000, "start": 0.5, "stop": 0.5,
                          "step": 0.1},
                "out": str(tmp_path),
            },
        )
        assert main(["sweep", "--config", conf]) == 0
        (row,) = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        cols = row.split(",")[4:6]
        if applicable:
            assert all(c in ("holds", "fails", "boundary") for c in cols)
        else:
            assert cols == ["n/a", "n/a"]

    @pytest.mark.parametrize("tie, want", [("favor-a", "0.2,2,0,0,n/a,n/a,"),
                                           ("favor-b", "0.2,3,1,0,n/a,n/a,")])
    @pytest.mark.parametrize("sweep_type", ["theta-mass", "u"])
    def test_one_population_sweeps_keep_the_tie_rule(self, tmp_path, sweep_type, tie, want):
        # u = 3 and the sizes 2 and 4 tie at 2/(u + 1) and 4/(u + 1)
        if sweep_type == "theta-mass":
            env = {"u": 3, "tie_break": tie}
            sweep = {"type": "theta-mass", "k": 2, "big_k": 4, "start": 0.2, "stop": 0.2,
                     "step": 0.1}
        else:
            env = {"theta": {"2": 0.2, "4": 0.8}, "tie_break": tie}
            sweep = {"type": "u", "start": 3, "stop": 3, "step": 1}
            want = "3" + want[3:]
        conf = write_config(tmp_path, {"command": "sweep", "environment": env, "sweep": sweep,
                                       "out": str(tmp_path)})
        assert main(["sweep", "--config", conf]) == 0
        assert (tmp_path / "sweep.csv").read_text().splitlines()[1:] == [want]

    @pytest.mark.parametrize("environment, sweep", [
        ({"u": 3, "tie_break": "favor-c"},
         {"type": "theta-mass", "k": 2, "big_k": 4, "start": 0.2, "stop": 0.2, "step": 0.1}),
        ({"theta": {"2": 1.0}, "tie_break": 1},
         {"type": "u", "start": 3, "stop": 3, "step": 1}),
    ], ids=["theta-mass", "u"])
    def test_bad_tie_rule_exits_2(self, tmp_path, capsys, environment, sweep):
        conf = write_config(tmp_path, {"command": "sweep", "environment": environment,
                                       "sweep": sweep, "out": str(tmp_path)})
        assert main(["sweep", "--config", conf]) == 2
        assert "invalid tie_break" in capsys.readouterr().err

    @pytest.mark.parametrize("conf, message", [
        ({"environment": {"u": 1.5, "mineffort": {"N": 3, "c": 0.5}},
          "sweep": {"type": "theta-mass", "k": 2, "big_k": 4, "start": 0.2, "stop": 0.2,
                    "step": 0.1}}, "a mineffort environment does not read u"),
        ({"environment": {"theta": {"3": 1}, "logit": [{"mass": 1, "eta": 0.5}]},
          "sweep": {"type": "u", "start": 3, "stop": 3, "step": 1}},
         "a logit environment does not read theta"),
        ({"environment": {"mineffort": {"N": 3, "c": 0.5}, "theta": {"3": 1}},
          "sweep": {"type": "alpha", "big_k": 50, "start": 0.5, "stop": 0.5, "step": 0.1}},
         "need a sampling environment"),
        ({"sweep": {"type": "theta-mass", "k": 2, "big_k": 4, "start": 0.2, "stop": 0.2,
                    "step": 0.1}}, "missing 'environment'"),
        ({"environment": {"matrix": {"u11": 3, "u12": 1, "u21": 1, "u22": 2}, "theta": {"3": 1}},
          "sweep": {"type": "u", "start": 3, "stop": 3, "step": 1}}, "more than one form"),
        ({"environment": FIG3_RIGHT, "sweep": {"type": "u", "start": 3, "stop": 3, "step": 1}},
         "more than one form"),
    ], ids=["theta-mass-mineffort", "u-logit", "alpha-mineffort", "theta-mass-no-environment",
            "u-matrix", "u-u1-u2"])
    def test_environment_the_sweep_cannot_read_exits_2(self, tmp_path, capsys, conf, message):
        # every swept environment is parsed whole, so no key goes unread
        path = write_config(tmp_path, {"command": "sweep", "out": str(tmp_path), **conf})
        assert main(["sweep", "--config", path]) == 2
        assert message in capsys.readouterr().err

    def test_non_object_sweep_exits_2(self, tmp_path, capsys):
        conf = write_config(
            tmp_path, {"command": "sweep", "environment": {"u": 1.5}, "sweep": [0.1, 0.9]}
        )
        assert main(["sweep", "--config", conf]) == 2
        assert "'sweep' must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "environment, fields, message",
        [
            ({"u": 1.5}, {"step": 1e-300}, "does not advance"),
            ({"u": 1.5}, {"step": 1e-13}, "does not advance"),
            ({"u": 1.5}, {"step": 1e-5}, "more than 10000 values"),
            ({"u": 1.5}, {"step": math.inf}, "must be finite"),
            ({"u": 1.5}, {"start": math.nan}, "must be finite"),
            ({"u": 1.5}, {"stop": -math.inf}, "must be finite"),
            (ONE_POP, {"type": "u", "step": math.inf}, "must be finite"),
            (3, {}, "must be an object"),
            (1e300, {}, "must be an object"),
            (True, {}, "must be an object"),
            ({"u": 1.5}, {"k": 0}, "distinct positive integers"),
            ({"u": 1.5}, {"k": -1}, "distinct positive integers"),
            ({"u": 1.5}, {"big_k": -5}, "distinct positive integers"),
            # the masses' dict would collapse onto one key
            ({"u": 1.5}, {"k": 5}, "distinct positive integers"),
            (FIG3_RIGHT, {"type": "alpha"}, "outside theta's support"),
            ({"u": 1.5}, {"big_k": 1e308}, "of at most 1000000"),
            ({"u": 1.5}, {"k": 10**6 + 1}, "of at most 1000000"),
            (FIG3_RIGHT, {"type": "alpha", "big_k": 1e308}, "in [1, 1000000]"),
            (FIG3_RIGHT, {"type": "alpha", "big_k": 10**6 + 1}, "in [1, 1000000]"),
        ],
        ids=["step-1e-300", "step-1e-13", "99999-values", "infinite-step", "nan-start",
             "minus-infinite-stop", "u-infinite-step", "number-environment",
             "huge-environment", "bool-environment", "zero-k", "negative-k",
             "negative-big_k", "k-equals-big_k", "alpha-big_k-in-support", "huge-big_k",
             "k-past-max-sample-size", "alpha-huge-big_k", "alpha-big_k-past-max-sample-size"],
    )
    def test_sweep_that_cannot_end_exits_2(self, tmp_path, capsys, environment, fields, message):
        sweep = {"type": "theta-mass", "k": 1, "big_k": 5, "start": 0.1, "stop": 0.9,
                 "step": 0.1, **fields}
        # each sweep type names only the fields it reads
        for key in {"u": ("k", "big_k"), "alpha": ("k",)}.get(sweep["type"], ()):
            del sweep[key]
        conf = write_config(
            tmp_path,
            {"command": "sweep", "environment": environment, "sweep": sweep,
             "out": str(tmp_path)},
        )
        assert main(["sweep", "--config", conf]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    def test_unknown_type_exits_2(self, tmp_path):
        conf = write_config(
            tmp_path,
            {"command": "sweep", "environment": {"u": 1.5}, "sweep": {"type": "bogus"}},
        )
        assert main(["sweep", "--config", conf]) == 2


class TestNormalize:
    def test_hawk_dove(self, tmp_path, capsys):
        conf = write_config(
            tmp_path,
            {"command": "normalize", "game": {"hawk_dove": {"g": 0.04, "l": 0.2}}},
        )
        assert main(["normalize", "--config", conf]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["u1"] == pytest.approx(20.0)
        assert obj["u2"] == pytest.approx(0.05)
        assert obj["dominance"]["q1"] == pytest.approx(1 / 21)

    def test_matrix_with_swap(self, tmp_path, capsys):
        # the matrix reduces to (0.5, 4) in its own labels
        conf = write_config(tmp_path, {"command": "normalize", "game": SWAPPED_MATRIX})
        assert main(["normalize", "--config", conf]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["u1"], obj["u2"], obj["labels_swapped"]) == (2.0, 0.25, True)

    def test_degenerate_matrix_exits_2(self, tmp_path, capsys):
        game = {"matrix": {"u11": 1.0, "u12": 2.0, "u21": 0.0, "u22": 1.0}}
        conf = write_config(tmp_path, {"command": "normalize", "game": game})
        assert main(["normalize", "--config", conf]) == 2

    def test_two_game_forms_exit_2(self, tmp_path, capsys):
        # the parser read the first form, u = 2, and dropped u1 and u2
        conf = write_config(tmp_path, {"command": "normalize",
                                       "game": {"u1": 5, "u2": 0.2, "u": 2}})
        assert main(["normalize", "--config", conf]) == 2
        assert "'game' sets the game in more than one form: u, u1/u2" in capsys.readouterr().err


# Fixture configs whose every field keeps the run cheap: resolution <= 7,
# tmax <= 5, n <= 500, samples <= 100, big_k <= 50.
FUZZ_CONFIGS = [
    {"command": "analyze", "environment": FIG3_RIGHT, "big_k": 50, "search_alpha_step": 0.25},
    {"command": "analyze", "environment": ONE_POP, "big_k": 50, "search_alpha_step": 0.25},
    {"command": "analyze", "environment": _contracting([4, 2, 1]), "big_k": 50,
     "search_alpha_step": 0.25},
    {"command": "analyze", "environment": {"mineffort": {"N": 3, "c": 0.5}, "theta": {"2": 1.0}},
     "big_k": 50, "search_alpha_step": 0.25},
    {"command": "phase", "environment": _logit(), "samples": 50, "quiver": 3},
    {"command": "phase", "environment": ONE_POP, "samples": 50},
    {"command": "trajectory", "environment": FIG3_RIGHT, "initial": [0.2, 0.7], "tmax": 5,
     "dt": 0.1},
    {"command": "basins", "environment": FIG3_RIGHT, "resolution": 7, "tmax": 5, "dt": 0.1},
    {"command": "basins", "environment": ONE_POP, "resolution": 7, "tmax": 5, "dt": 0.1},
    {"command": "oracle", "environment": ONE_POP, "n": 500, "tmax": 5, "dt": 0.1,
     "initial": 0.3, "seed": 1},
    {"command": "oracle", "environment": FIG3_RIGHT, "mode": "response", "p": 0.4,
     "samples": 100},
    {"command": "sweep", "environment": {"u": 1.5},
     "sweep": {"type": "theta-mass", "k": 2, "big_k": 50, "start": 0.45, "stop": 0.55,
               "step": 0.1}},
    {"command": "sweep", "environment": FIG3_RIGHT,
     "sweep": {"type": "alpha", "big_k": 50, "start": 0.5, "stop": 0.5, "step": 0.1}},
    {"command": "sweep", "environment": ONE_POP,
     "sweep": {"type": "u", "start": 1.0, "stop": 1.5, "step": 0.5}},
    {"command": "normalize", "game": {"hawk_dove": {"g": 0.04, "l": 0.2}}},
    {"command": "normalize",
     "game": {"matrix": {"u11": 3, "u12": 1, "u21": 1, "u22": 2}}},
]
# Fields whose defaults cost far more than the fixtures' values.
_COSTLY_DEFAULTS = {"resolution", "tmax", "n", "samples", "big_k", "search_alpha_step"}
_BAD_VALUES = [math.nan, math.inf, -math.inf, 5e-324, 1e308, 10**6 + 1, 0, -1, -0.5, "x", "",
               None, True, False, [], [0.5, 0.5], {}]
# keys that no reader reads, in any object of any config
_UNREAD_KEYS = ["tmaxx", "thetaa", "etaa"]
_NEW_KEYS = ["u", "u1", "theta", "theta1", "logit", "matrix", "hawk_dove", "contracting",
             "mineffort", "k", "big_k", "initial", "mode", "p", "type", "1", "1000",
             *_UNREAD_KEYS]


def _paths(node, path=()):
    """Every path from the root of a JSON value to one of its parts."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def _mutated_configs(draw):
    conf = copy.deepcopy(draw(st.sampled_from(FUZZ_CONFIGS)))
    command = conf["command"]
    bad_values = st.sampled_from(_BAD_VALUES).map(copy.deepcopy)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(conf))[1:]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = conf
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        node = parent[key]
        op = draw(st.sampled_from(["replace", "drop", "add"]))
        if op == "drop" and isinstance(parent, dict) and key not in _COSTLY_DEFAULTS:
            del parent[key]
        elif op == "add" and isinstance(node, dict):
            # one added key in about two names no reader
            new = draw(st.sampled_from(_NEW_KEYS) | st.sampled_from(_UNREAD_KEYS))
            node[new] = draw(bad_values)
        elif key != "command":
            parent[key] = draw(bad_values)
    return command, conf


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command_conf=_mutated_configs())
def test_mutated_configs_exit_0_or_2(command_conf):
    # a bad field must end as a config error, never a traceback or exit 3,
    # and a config error writes nothing
    command, conf = command_conf
    unread = any(path and path[-1] in _UNREAD_KEYS for path in _paths(conf))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(conf))
        code = main([command, "--config", str(path), "--out", str(out)])
        assert code == 2 if unread else code in (0, 2)
        assert code == 0 or not out.exists()


@pytest.mark.parametrize("conf, named", [
    ({"command": "trajectory", "environment": ONE_POP, "tmaxx": 1, "dtt": 0.5},
     "does not read dtt, tmaxx; did you mean dt, tmax?"),
    ({"command": "analyze", "environment": {**ONE_POP, "thetaa": {"2": 1.0}}},
     "does not read thetaa; did you mean theta?"),
    ({"command": "analyze", "environment": {
        "mineffort": {"N": 3, "c": 0.5, "observaton": "opponent-action"}, "theta": {"2": 1.0}}},
     "'mineffort' does not read observaton; did you mean observation?"),
    ({"command": "analyze", "environment": {
        "matrix": {"u11": 3, "u12": 1, "u21": 1, "u22": 2, "w11": 4}, "theta": {"2": 1.0}}},
     "'matrix' does not read w11; did you mean"),
    ({"command": "analyze", "environment": {
        **_contracting([4, 2, 1]), "contracting": {"diag1": [4, 2, 1], "diag2": [1, 2, 4],
                                                   "diag3": [1, 1, 1]}}},
     "'contracting' does not read diag3; did you mean"),
    ({"command": "phase", "environment": {
        "u1": 2.0, "u2": 2.0, "logit": [{"mass": 1.0, "eta": 0.5, "etaa": 0.1}]}},
     "logit[0] does not read etaa; did you mean eta?"),
    ({"command": "sweep", "environment": ONE_POP,
      "sweep": {"type": "u", "big_k": 50, "start": 1.0, "stop": 1.5, "step": 0.5}},
     "a u sweep does not read big_k"),
    ({"command": "oracle", "environment": ONE_POP, "mode": "response", "samples": 100,
      "initial": 0.3}, "the oracle config does not read initial"),
    ({"command": "normalize", "game": {"u": 2}, "environment": ONE_POP},
     "the normalize config does not read environment"),
    # these exited 2 for a range error on a field that the command never reads
    ({"command": "analyze", "environment": ONE_POP, "tmax": -1},
     "the analyze config does not read tmax"),
    ({"command": "phase", "environment": ONE_POP, "resolution": 1},
     "the phase config does not read resolution"),
    ({"command": "basins", "environment": ONE_POP, "seed": -1},
     "the basins config does not read seed"),
], ids=["top-level", "environment", "mineffort", "matrix", "contracting", "logit-group",
        "u-sweep-big_k", "response-oracle-initial", "normalize-environment", "analyze-tmax",
        "phase-resolution", "basins-seed"])
def test_key_that_the_reader_does_not_read_exits_2(tmp_path, capsys, conf, named):
    out = tmp_path / "out"
    assert main([conf["command"], "--config", write_config(tmp_path, conf),
                 "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("config error") and named in err
    assert not out.exists()


class TestOutputDirectory:
    @pytest.mark.parametrize("conf", [
        {"command": "oracle", "environment": ONE_POP, "mode": "bogus"},
        {"command": "sweep", "environment": ONE_POP, "sweep": {"type": "bogus"}},
        {"command": "trajectory", "environment": ONE_POP, "tmax": 1e5, "dt": 0.01},
        {"command": "phase", "environment": ONE_POP, "samples": 2.5},
        {"command": "oracle", "environment": ONE_POP, "mode": "response", "p": True},
        {"command": "oracle", "environment": ONE_POP, "mode": "response", "samples": 0},
    ], ids=["oracle-mode", "sweep-type", "trajectory-steps", "phase-samples", "oracle-p",
            "oracle-samples"])
    def test_config_error_makes_no_directory(self, tmp_path, capsys, conf):
        # each of these fields is checked after the command starts
        out = tmp_path / "out" / "nested"
        path = write_config(tmp_path, conf)
        assert main([conf["command"], "--config", path, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("conf", list({c["command"]: c for c in FUZZ_CONFIGS}.values()),
                             ids=lambda c: c["command"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "path-under-a-file"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, conf, under):
        existing = tmp_path / "existing"
        existing.write_text("keep\n")
        out = existing / "sub" if under else existing
        path = write_config(tmp_path, conf)
        assert main([conf["command"], "--config", path, "--out", str(out)]) == 2
        # the run stops before the command prints anything
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("config error: 'out'") and repr(str(out)) in err
        assert existing.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "existing"]


# the subcommands that read each run flag, and a cheap value of it
_FLAG_READERS = {"seed": {"oracle"}, "resolution": {"basins"},
                 "tmax": {"trajectory", "basins", "oracle"},
                 "dt": {"trajectory", "basins", "oracle"}}
_FLAG_VALUES = {"seed": "2", "resolution": "3", "tmax": "1", "dt": "0.5"}


class TestRunFlags:
    @pytest.mark.parametrize("conf", list({c["command"]: c for c in FUZZ_CONFIGS}.values()),
                             ids=lambda c: c["command"])
    @pytest.mark.parametrize("flag", sorted(_FLAG_READERS))
    def test_a_subcommand_takes_only_the_flags_it_reads(self, tmp_path, capsys, conf, flag):
        out = tmp_path / "out"
        argv = [conf["command"], "--config", write_config(tmp_path, conf), "--out", str(out),
                f"--{flag}", _FLAG_VALUES[flag]]
        if conf["command"] in _FLAG_READERS[flag]:
            assert main(argv) == 0
            assert any(out.iterdir())
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            stdout, err = capsys.readouterr()
            assert stdout == "" and f"unrecognized arguments: --{flag}" in err
            assert not out.exists()

    def test_resolution_overrides_the_config(self, tmp_path):
        conf = write_config(tmp_path, {"command": "basins", "environment": ONE_POP,
                                       "resolution": 7, "tmax": 5, "dt": 0.1})
        assert main(["basins", "--config", conf, "--out", str(tmp_path), "--resolution", "3"]) == 0
        assert json.loads((tmp_path / "basins_legend.json").read_text())["resolution"] == 3

    def test_tmax_and_dt_override_the_config(self, tmp_path):
        conf = write_config(tmp_path, {"command": "trajectory", "environment": FIG3_RIGHT,
                                       "initial": [0.2, 0.7], "tmax": 5, "dt": 0.1})
        assert main(["trajectory", "--config", conf, "--out", str(tmp_path),
                     "--tmax", "1", "--dt", "0.5"]) == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["0", "0.5", "1"]

    def test_seed_overrides_the_config(self, tmp_path):
        conf = write_config(tmp_path, {"command": "oracle", "environment": ONE_POP, "n": 500,
                                       "tmax": 1, "dt": 0.1, "seed": 1})
        assert main(["oracle", "--config", conf, "--out", str(tmp_path), "--seed", "5"]) == 0
        assert (tmp_path / "oracle.csv").read_text().startswith("# seed=5 n=500\n")


class TestConfigFile:
    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                             ids=["directory", "not-utf-8", "nested-too-deeply"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content):
        # each of these used to end in a traceback
        path = tmp_path / "config.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not (tmp_path / "out").exists()

    def test_repeated_key_exits_2(self, tmp_path, capsys):
        # json.load kept the last copy, so this ran u = 1.5
        path = tmp_path / "config.json"
        path.write_text('{"command": "analyze", "environment": '
                        '{"u": 1.2, "u": 1.5, "theta": {"2": 1.0}}}')
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "key 'u' appears more than once" in err
        assert not (tmp_path / "out").exists()
