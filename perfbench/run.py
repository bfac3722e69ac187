"""samplingdyn benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload basins-fig3 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``.
With ``--trace 0`` the jobs run untraced and the end-to-end metrics are
printed; with ``--trace 1`` the jobs run once untraced and once under the
span tracer, and the per-layer metrics are printed.  Every job's outputs
are checked and hashed.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # BLAS threads are pinned before numpy loads
    os.environ[_var] = "1"

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 6


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "samplingdyn" / "__init__.py").is_file():
    _fail("src/samplingdyn not found; run from the repository root")
sys.path.insert(0, str(ROOT / "src"))
import samplingdyn  # noqa: E402

if Path(samplingdyn.__file__).resolve().parent != (ROOT / "src" / "samplingdyn").resolve():
    _fail(f"imported samplingdyn from {samplingdyn.__file__}, not from src/")

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Record:
    job: workloads.Job
    seconds: float
    units: float = 0.0
    status: str = "ok"  # "ok" | "known" | "failed"
    detail: str = ""


def _code_digest() -> str:
    """Digest of the program and the benchmark: outputs are compared only
    between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _output_digest(job: workloads.Job, outcome: workloads.Outcome) -> dict[str, str]:
    if job.digest_arrays is not None:
        return {f"array{i}": hashlib.sha256(a.tobytes()).hexdigest()
                for i, a in enumerate(job.digest_arrays(outcome))}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(job.out.iterdir()) if p.is_file()}


class HashStore:
    """Output hashes per job, compared within a run and across runs of one code."""

    def __init__(self, path: Path, key: str) -> None:
        self.path = path
        self.key = key
        self.all = json.loads(path.read_text()) if path.is_file() else {}
        self.known = self.all.setdefault(key, {})

    def compare(self, jid: str, digest: dict[str, str]) -> str | None:
        old = self.known.setdefault(jid, digest)
        if old != digest:
            changed = sorted(k for k in set(old) | set(digest) if old.get(k) != digest.get(k))
            return f"output differs from an earlier run of the same code: {changed}"
        return None

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.all, sort_keys=True))
        os.replace(tmp, self.path)


def _known_failure(command: str, detail: str) -> bool:
    return any(command == cmd and part in detail for cmd, part in workloads.KNOWN_FAILURES)


def run_job(job: workloads.Job, store: HashStore, tracer=None, index: int = 0) -> Record:
    """Run one job, time it, then check and hash its outputs outside the timing."""
    if job.out.exists():
        shutil.rmtree(job.out)
    buf = io.StringIO()
    result = error = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            if tracer is None:
                result = job.run()
            else:
                result = tracer.run_job(index, f"job.{job.command}", job.run)
    except SystemExit as exc:  # argparse rejects a command line
        result = exc.code
    except Exception as exc:  # a job's exception is a measured outcome
        error = exc
    rec = Record(job, time.perf_counter() - t0)
    msg = None
    if error is not None:
        msg = f"{type(error).__name__}: {error}"
    elif job.cli and result != 0:
        msg = f"exit code {result}"
    else:
        outcome = workloads.Outcome(result, buf.getvalue(), job.out)
        try:
            msg = job.check(outcome) or store.compare(job.jid, _output_digest(job, outcome))
            rec.units = job.units(outcome)
        except Exception as exc:  # a missing or malformed output fails the job
            msg = f"output check raised {type(exc).__name__}: {exc}"
    if msg:
        rec.detail = f"{job.command}: {msg}"
        rec.status = "known" if _known_failure(job.command, rec.detail) else "failed"
    return rec


def run_passes(wl: workloads.Workload, store: HashStore, probe=None, tracer=None):
    """``wl.repeats`` passes over the jobs.  ``probe()`` runs SETUP_REPEATS
    times, spread from before the first pass to after the last.  With a
    tracer each job runs untraced and then traced, so both runs see the
    same machine speed."""
    plain, traced = [], []
    at = [round(i * wl.repeats / (SETUP_REPEATS - 1)) for i in range(SETUP_REPEATS)]
    for p in range(wl.repeats + 1):
        if probe is not None:
            for _ in range(at.count(p)):
                probe()
        if p == wl.repeats:
            break
        for job in wl.jobs:
            plain.append(run_job(job, store))
            if tracer is not None:
                traced.append(run_job(job, store, tracer, len(traced)))
    return plain, traced


def best_of_passes(records: list[Record]) -> list[Record]:
    """Per distinct job: its fastest pass, failed if any pass failed."""
    best: dict[str, Record] = {}
    for r in records:
        b = best.get(r.job.jid)
        if b is None:
            best[r.job.jid] = Record(r.job, r.seconds, r.units, r.status, r.detail)
            continue
        b.seconds = min(b.seconds, r.seconds)
        if r.status != "ok" and b.status == "ok":
            b.status, b.detail, b.units = r.status, r.detail, 0.0
    return list(best.values())


class SetupProbe:
    """Times a fresh process that imports samplingdyn, loads every config
    of the run and builds its environments and responses."""

    def __init__(self, wl: workloads.Workload, work: Path) -> None:
        listing = work / "configs.txt"
        listing.write_text("\n".join(str(p) for p in wl.configs) + "\n", encoding="utf-8")
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), str(listing)]
        self.seconds: list[float] = []
        self()  # the first process may compile bytecode
        self.seconds.clear()

    def __call__(self) -> None:
        t0 = time.perf_counter()
        subprocess.run(self.cmd, cwd=ROOT, check=True, timeout=120)
        self.seconds.append(time.perf_counter() - t0)


def _summary(records: list[Record]) -> tuple[int, int, bool]:
    """(attempted, failed, correct): correct unless a failure is not a known defect."""
    counts: dict[tuple[str, str], int] = {}
    for r in records:
        if r.status != "ok":
            key = (r.status, r.detail)
            counts[key] = counts.get(key, 0) + 1
    for (status, detail), n in sorted(counts.items()):
        label = "known defect" if status == "known" else "FAILED"
        print(f"  {label} x{n}: {detail}")
    failed = sum(counts.values())
    return len(records), failed, all(status == "known" for status, _ in counts)


def _line(name: str, value, unit: str, note: str = "") -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<34} {shown:>14} {unit:<14} {note}".rstrip())


def end_to_end(wl, records, setups) -> dict[str, tuple[float, str]]:
    best = best_of_passes(records)
    ok = [r.seconds * 1e3 for r in best if r.status == "ok"]
    wall = sum(r.seconds for r in best)
    p50 = statistics.median(ok) if ok else math.nan
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "job_ms_p50": (p50, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    _line("setup_s", metrics["setup_s"][0], "s", f"median of {len(setups)} set-ups across the run")
    _line("wall_s", wall, "s", f"{len(best)} jobs, best of {wl.repeats} passes")
    _line("job_ms_p50", p50, "ms", f"n={len(ok)} successful jobs")
    if len(ok) >= 100:
        _line("job_ms_p90", statistics.quantiles(ok, n=10)[8], "ms", f"n={len(ok)}")
    else:
        _line("job_ms_p90", "-", "ms", f"not reported: n={len(ok)} < 100")
    for _, name, unit in workloads.WORKLOADS[wl.name]:
        part = [r for r in best if r.job.part == name]
        units = sum(r.units for r in part)
        seconds = sum(r.seconds for r in part)
        _line(name, units / seconds, unit, f"{units:.4g} over {seconds:.4g} s of {len(part)} jobs")
    failed = sum(r.status != "ok" for r in records)
    _line("failed_ratio", failed / len(records), "1", f"{failed}/{len(records)} runs of jobs")
    _line("peak_rss_mb", metrics["peak_rss_mb"][0], "MB")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        _fail("--seconds must be positive")

    base = HERE / ".work"
    work = base / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    wl = workloads.build(args.workload, args.seed, args.seconds, work)
    store = HashStore(base / "hashes.json", ":".join(
        [_code_digest(), args.workload, str(args.seed), f"{args.seconds:g}"]))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {len(wl.jobs)} jobs x {wl.repeats} passes, "
          "closed loop, 1 client, BLAS threads 1")

    if args.trace:
        # each pass runs twice, so half the passes keep the run as long
        wl.repeats = max(2, wl.repeats // 2)
        tr = tracing.Tracer()
        tr.install()
        try:
            plain, traced = run_passes(wl, store, tracer=tr)
        finally:
            tr.uninstall()
        tr.write(base / f"trace-{args.workload}-{args.seed}.json")
        records = plain + traced
        values = tracing.layer_metrics(tr.spans)
        values["oracle.meanfield_gap"] = wl.diagnostics.get("meanfield_gap", 0.0)
        values["trace.overhead_ratio"] = (
            sum(r.seconds for r in best_of_passes(traced))
            / sum(r.seconds for r in best_of_passes(plain)) - 1.0)
        metrics = {k: (v, tracing.UNITS[k]) for k, v in values.items()}
        print(f"  per-layer metrics over {wl.repeats} traced passes")
        for name, (value, unit) in metrics.items():
            _line(name, float(value), unit)
    else:
        probe = SetupProbe(wl, work)
        records, _ = run_passes(wl, store, probe)
        metrics = end_to_end(wl, records, probe.seconds)
    store.save()

    attempted, failed, correct = _summary(records)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
