"""Checked-in outputs of every command.

Each case runs one command on a small config and compares every file it
writes, and its standard output, with the copies under
``tests/golden/<case>/``.  The cases are the ``FUZZ_CONFIGS`` fixtures of
``test_cli.py`` plus a few that put the minimum-effort, logit and
large-sample responses, the favor-b tie rule, Propositions 7 and 8 and the
separatrix traces of two-population basins into the bytes.  ``tests/golden/regen.py`` rewrites
the copies after a deliberate change of output; this test never calls it.

Float bits depend on the numpy and scipy build.  On the versions recorded
in ``tests/golden/versions.json`` the bytes must match; on others the text
must match exactly and every number within ``REL_TOL`` relative.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import scipy

from samplingdyn.cli import main
from test_cli import FIG3_LEFT, FIG3_RIGHT, FUZZ_CONFIGS, _logit

GOLDEN = Path(__file__).parent / "golden"
OUT = "<out>"  # stands for the output directory in standard output
STDOUT = "stdout.txt"
REL_TOL = 1e-12


def _mineffort(observation: str) -> dict:
    return {"mineffort": {"N": 3, "c": 0.5, "observation": observation},
            "theta": {"1": 0.4, "10": 0.6}}


CASES = {f"fuzz{i:02d}-{conf['command']}": conf for i, conf in enumerate(FUZZ_CONFIGS)}
for _obs in ("minimum-effort", "opponent-action"):
    _env = _mineffort(_obs)
    CASES.update({
        f"{_obs}-trajectory": {"command": "trajectory", "environment": _env, "initial": 0.3,
                               "tmax": 5, "dt": 0.1},
        f"{_obs}-phase": {"command": "phase", "environment": _env, "samples": 50},
        f"{_obs}-basins": {"command": "basins", "environment": _env, "resolution": 9,
                           "tmax": 5, "dt": 0.1},
    })
CASES["logit-trajectory"] = {"command": "trajectory", "environment": _logit(),
                             "initial": [0.2, 0.7], "tmax": 5, "dt": 0.1}
CASES["fig3-right-analyze"] = {"command": "analyze", "environment": FIG3_RIGHT,
                               "search_alpha_step": 0.25}
# favor-b examples whose ties move the pure states' calls and the mixtures'
# thresholds: big_k / (u + 1) is integral too
CASES["favor-b-one-pop-analyze"] = {
    "command": "analyze", "big_k": 48, "search_alpha_step": 0.25,
    "environment": {"u": 1, "tie_break": "favor-b", "theta": {"2": 0.5, "4": 0.5}}}
CASES["favor-b-two-pop-analyze"] = {
    "command": "analyze", "big_k": 48, "search_alpha_step": 0.25,
    "environment": {"u1": 3, "u2": 1 / 3, "tie_break": "favor-b",
                    "theta1": {"1": 0.5, "4": 0.5}, "theta2": {"1": 0.5, "4": 0.5}}}
CASES["favor-b-theta-mass-sweep"] = {
    "command": "sweep", "environment": {"u": 3, "tie_break": "favor-b"},
    "sweep": {"type": "theta-mass", "k": 2, "big_k": 4, "start": 0.2, "stop": 0.2, "step": 0.1}}
for _obs in ("minimum-effort", "opponent-action"):
    CASES[f"{_obs}-analyze"] = {"command": "analyze", "environment": _mineffort(_obs)}
# one-population mixture searches: no share of u = 4.77, k = 3 at step 0.25,
# and the share 0.55 of the Oyama example at step 0.05
CASES["one-pop-k3-analyze"] = {"command": "analyze", "search_alpha_step": 0.25,
                               "environment": {"u": 4.765685148304299, "theta": {"3": 1}}}
CASES["one-pop-k2-analyze"] = {"command": "analyze", "search_alpha_step": 0.05,
                               "environment": {"u": 1.5, "theta": {"2": 1}}}
# the figure-3 left basins label their cells from separatrix traces, and a
# three-atom one-population trajectory converges (to 1.0 at t = 32.9)
CASES["fig3-left-basins"] = {"command": "basins", "environment": FIG3_LEFT, "resolution": 7,
                             "tmax": 260, "dt": 0.05}
CASES["one-pop-three-atom-trajectory"] = {
    "command": "trajectory", "initial": 0.3, "tmax": 40, "dt": 0.05,
    "environment": {"u": 2.0, "theta": {"1": 0.3, "4": 0.3, "9": 0.4}}}


def run_case(conf: dict, work: Path) -> dict[str, bytes]:
    """Run one case's command in ``work``: each written file's bytes by name,
    and standard output under ``STDOUT`` with the output directory masked."""
    out = work / "out"
    path = work / "config.json"
    path.write_text(json.dumps(conf), encoding="utf-8")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([conf["command"], "--config", str(path), "--out", str(out)])
    assert code == 0, (conf, buf.getvalue())
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    files[STDOUT] = buf.getvalue().replace(str(out), OUT).encode("utf-8")
    return files


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def _text_mismatch(got: str, want: str) -> str | None:
    """Where ``got`` differs from ``want`` in its text or, beyond ``REL_TOL``
    relative, in a number; None if nowhere."""
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return "the text has a different number of numbers"
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2 == 0:
            if g != w:
                return f"text {g!r} where {w!r} was recorded"
        elif not math.isclose(float(g), float(w), rel_tol=REL_TOL) and g != w:
            return f"number {g} where {w} was recorded"
    return None


def test_every_case_has_golden_files_and_no_other():
    folders = [p.name for p in GOLDEN.iterdir() if p.is_dir() and p.name != "__pycache__"]
    assert sorted(folders) == sorted(CASES)


def test_text_mode_allows_rounding_and_nothing_else():
    want = "p,w\n0.25,0.1234567890123\n"
    assert _text_mismatch("p,w\n0.25,0.1234567890124\n", want) is None
    assert "number" in _text_mismatch("p,w\n0.25,0.12345679\n", want)
    assert "text" in _text_mismatch("p;w\n0.25,0.1234567890123\n", want)


@pytest.mark.parametrize("case", sorted(case for case, conf in CASES.items()
                                         if conf["command"] == "analyze"
                                         and "mineffort" in conf["environment"]))
def test_minimum_effort_propositions_are_the_stationary_corners(case):
    # Propositions 7 and 8 call the corners that the stationary search reports
    rows = csv.DictReader(io.StringIO((GOLDEN / case / "stationary.csv").read_text()))
    corners = {row["p1"]: row["stability"] for row in rows if row["p1"] in ("0", "1")}
    (report,) = json.loads((GOLDEN / case / "theorems.json").read_text()).values()
    assert report["state_safe"]["stability"] == corners["1"]
    assert report["state_efficient"]["stability"] == corners["0"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_files(case, tmp_path):
    got = run_case(CASES[case], tmp_path)
    folder = GOLDEN / case
    want = {p.name: p.read_bytes() for p in sorted(folder.iterdir())}
    assert sorted(got) == sorted(want), f"{case}: the command wrote other files"
    recorded = json.loads((GOLDEN / "versions.json").read_text(encoding="utf-8"))
    exact = versions() == recorded
    mode = (f"bytes compared (numpy and scipy as recorded: {recorded})" if exact else
            f"text compared exactly and numbers within {REL_TOL:g} relative "
            f"(running {versions()}, recorded {recorded})")
    for name in sorted(want):
        if exact:
            assert got[name] == want[name], f"{case}/{name} differs; {mode}"
        else:
            why = _text_mismatch(got[name].decode("utf-8"), want[name].decode("utf-8"))
            assert why is None, f"{case}/{name}: {why}; {mode}"
