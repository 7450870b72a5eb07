"""End-to-end benchmark of real ``repro`` CLI commands.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/repro`` must exist).  Every
workload is one fixed CLI command, started in a fresh interpreter per
execution so no process-level cache carries over.  With ``--trace 0`` the
command is executed back to back for ``--seconds`` seconds and the
medians of its end-to-end metrics are reported; with ``--trace 1`` it is
executed once untraced and twice with the layer wrappers of
``tracing.py``, and the per-layer metrics of the first traced execution
are reported.  Every execution's saved suite is checked against the
digest pinned in ``expected.json``; a mismatch, crash or timeout counts
as a failed operation.  The last line of standard output is the result
as one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import accounting
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNNER = HERE / "runner.py"

#: The fuzz seed is fixed: across fuzz seeds 0-7 this command's wall time
#: ranged 2.2-5.1 s, so a seed-dependent input would swamp any change.
FUZZ_SEED = 0

#: name -> (CLI argv, exit code that means success).  ``diff`` and
#: ``fuzz`` exit 1 when they find something, and both always do here.
WORKLOADS = {
    "synth-b8-scpl": (["synthesize", "--bound", "8", "--axiom", "sc_per_loc"], 0),
    "synth-b7-j2": (["synthesize", "--bound", "7", "--jobs", "2"], 0),
    "diff-sat-b7": (
        [
            "diff", "--reference", "x86t_elt", "--subject", "x86t_amd_bug",
            "--bound", "7", "--witness-backend", "sat",
        ],
        1,
    ),
    "fuzz-b10": (
        ["fuzz", "--seed", str(FUZZ_SEED), "--bound", "10", "--rounds", "4"],
        1,
    ),
}

#: Set-up probes (``runner.py setup``) are added until a run holds this
#: many set-up samples.
MIN_SETUP_SAMPLES = 9
#: One execution may take this long before it is killed and counted failed.
EXECUTION_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer count metrics that must repeat exactly from run to run.
#: ``sat.propagations`` is left out: it varies with the hash seed.
EXACT_COUNTS = (
    "skeletons.programs", "witnesses.executions", "models.checks",
    "relax.calls", "relax.relaxations", "symmetry.orbit_pruned",
    "relational.translations", "sat.solves", "sat.conflicts",
    "fuzz.attempts", "orchestrate.task_bytes", "orchestrate.result_bytes",
    "orchestrate.shards", "resilience.retries",
)


@dataclass
class Execution:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    error: Optional[str] = None
    info: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def become_subreaper() -> None:
    """Adopt orphaned descendants (such as multiprocessing's resource
    tracker) so each can be waited for."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _children() -> list[int]:
    pids = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path) as handle:
            pids.extend(int(pid) for pid in handle.read().split())
    return pids


def reap_all(timeout: float = 10.0) -> None:
    """Wait for every remaining child; kill those still alive at ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        time.sleep(0.01)


def launch(mode: str, argv: list, work: Path, env: dict) -> Execution:
    """One fresh interpreter running ``runner.py``; times it from just
    before the spawn to the moment it is reaped."""
    info_path = work / "info.json"
    stdout = open(work / "stdout.txt", "wb")
    stderr = open(work / "stderr.txt", "wb")
    try:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(RUNNER), mode, str(info_path), *argv],
            stdout=stdout, stderr=stderr, env=env, cwd=work,
            start_new_session=True,
        )
        killer = threading.Timer(
            EXECUTION_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL)
        )
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        ended = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        stdout.close()
        stderr.close()
    reap_all()
    result = Execution(
        wall_s=ended - started,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    result.info = {"returncode": proc.returncode}
    try:
        with open(info_path) as handle:
            result.info.update(json.load(handle))
        result.setup_s = result.info["setup_end"] - started
        info_path.unlink()
    except (OSError, ValueError, KeyError):
        result.error = f"exit {proc.returncode}, no set-up record"
    if proc.returncode < 0:
        result.error = f"killed by signal {-proc.returncode}"
    return result


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def load_expected() -> dict:
    with open(HERE / "expected.json") as handle:
        return json.load(handle)


def check_output(name: str, returncode: int, suite: Path, expected: dict) -> Optional[str]:
    """None when the saved suite is the pinned one, else what is wrong."""
    want_code = WORKLOADS[name][1]
    if returncode != want_code:
        return f"exit code {returncode}, expected {want_code}"
    try:
        data = suite.read_bytes()
    except OSError:
        return "no suite file written"
    digest = hashlib.sha256(data).hexdigest()
    if digest != expected[name]["sha256"]:
        return f"suite digest {digest[:16]} != pinned {expected[name]['sha256'][:16]}"
    if name.startswith("fuzz"):
        for line in data.decode().splitlines():
            fields = dict(f.split("=", 1) for f in line.split()[1:] if "=" in f)
            if line.startswith("meta ") and fields.get("violates") != "invlpg":
                return f"finding does not violate only invlpg: {line}"
    return None


def execute(name: str, work: Path, env: dict, expected: dict) -> Execution:
    suite = work / "suite.elts"
    if suite.exists():
        suite.unlink()
    argv = WORKLOADS[name][0] + ["--save", str(suite)]
    result = launch("run", argv, work, env)
    if result.error is None:
        result.error = check_output(name, result.info["returncode"], suite, expected)
    if result.error is not None:
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"{name}: failed: {result.error}\n{tail}", file=sys.stderr)
    return result


def probe_setup(name: str, work: Path, env: dict) -> Execution:
    return launch("setup", WORKLOADS[name][0], work, env)


# ----------------------------------------------------------------------
# Per-layer metrics from one traced execution
# ----------------------------------------------------------------------
def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(snapshots: list, traced_wall: float) -> dict:
    main = next(s for s in snapshots if s["role"] == "main")
    workers = [s for s in snapshots if s["role"] == "worker"]
    times = accounting.attribute(main["spans"], [w["spans"] for w in workers])
    layers = accounting.by_layer(times)
    calls: dict = {}
    counts: dict = {}
    for snap in snapshots:
        for key, value in snap["calls"].items():
            calls[key] = calls.get(key, 0) + value
        for key, value in snap["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def keyed(*keys):
        return sum(times.get(key, 0.0) for key in keys)

    def durations(snap, key):
        return sum(end - start for start, end, k in snap["spans"] if k == key)

    cached = calls.get("relax:cached_is_minimal", 0)
    misses = counts.get("relax.cache_misses", 0)
    uncached = calls.get("relax:is_minimal", 0)
    classify = calls.get("fuzz:DifferentialOracle.classify", 0)

    setup = busy = life = 0.0
    first_shards = []
    for worker in workers:
        began = main["process_starts"].get(worker["pid"], worker["end"])
        shards = [s for s in worker["spans"] if s[2] == "orchestrate:run_shard"]
        first = min((s[0] for s in shards), default=worker["end"])
        if shards:
            first_shards.append(first)
        setup += first - began
        busy += sum(end - start for start, end, _ in shards)
        life += worker["end"] - began
    starts = main["process_starts"].values()
    pool_start = min(first_shards) - min(starts) if first_shards and starts else 0.0

    metric = {
        "traced_wall_s": traced_wall,
        "cli.import_s": layers.get("cli", 0.0),
        "skeletons.self_s": layers.get("skeletons", 0.0),
        "skeletons.programs": counts.get(
            "skeletons:enumerate_programs_with_order#items", 0
        ),
        "witnesses.self_s": layers.get("witnesses", 0.0),
        "witnesses.executions": counts.get(
            "witnesses:enumerate_witnesses_constrained#items", 0
        ),
        "models.self_s": layers.get("models", 0.0),
        "models.checks": calls.get("models:Axiom.holds", 0),
        "relax.self_s": layers.get("relax", 0.0),
        "relax.total_s": sum(
            accounting.covered(s for s in snap["spans"] if s[2].startswith("relax:"))
            for snap in snapshots
        ),
        "relax.calls": cached + uncached - misses,
        "relax.cache_hit_ratio": _ratio(cached - misses, cached),
        "relax.relaxations": calls.get("relax:relaxation_becomes_permitted", 0),
        "relax.minimal_ratio": _ratio(counts.get("relax.minimal", 0), uncached),
        "symmetry.self_s": layers.get("symmetry", 0.0),
        "canon.self_s": layers.get("canon", 0.0),
        "symmetry.orbit_pruned": counts.get("symmetry.orbit_pruned", 0),
        "sat_backend.self_s": layers.get("sat_backend", 0.0),
        "relational.self_s": layers.get("relational", 0.0),
        "sat.self_s": layers.get("sat", 0.0),
        "sat_backend.session_hit_ratio": _ratio(
            counts.get("sat_backend.session_hits", 0),
            calls.get("sat_backend:WitnessSessionCache.get", 0),
        ),
        "relational.translations": calls.get("relational:Problem.session", 0),
        "sat.solves": calls.get("sat:CdclCore.solve", 0)
        + calls.get("sat:CdclCore.iter_solutions", 0),
        "sat.conflicts": counts.get("sat.conflicts", 0),
        "sat.propagations": counts.get("sat.propagations", 0),
        "conformance.self_s": layers.get("conformance", 0.0),
        "fuzz.self_s": layers.get("fuzz", 0.0),
        "fuzz.generate_s": keyed("fuzz:build_program", "fuzz:random_program"),
        "fuzz.oracle_s": keyed(
            "fuzz:DifferentialOracle.classify", "fuzz:DifferentialOracle.judge"
        ),
        "fuzz.shrink_s": keyed("fuzz:shrink"),
        "fuzz.attempts": calls.get("fuzz:build_program", 0),
        "fuzz.memo_hit_ratio": _ratio(counts.get("fuzz.memo_hits", 0), classify),
        "fuzz.discriminating_ratio": _ratio(
            counts.get("fuzz.discriminating", 0), classify
        ),
        "orchestrate.self_s": layers.get("orchestrate", 0.0),
        "orchestrate.pool_start_s": pool_start,
        "orchestrate.worker_setup_s": setup,
        "orchestrate.worker_busy_s": busy,
        "orchestrate.worker_idle_s": life - setup - busy,
        "orchestrate.task_bytes": counts.get("orchestrate.task_bytes", 0),
        "orchestrate.result_bytes": counts.get("orchestrate.result_bytes", 0),
        "orchestrate.merge_s": sum(
            durations(s, "orchestrate:merge_shards") for s in snapshots
        ),
        "orchestrate.shards": calls.get("orchestrate:run_shard", 0),
        "orchestrate.workers": len(workers),
        "resilience.self_s": layers.get("resilience", 0.0),
        "resilience.retries": counts.get("resilience.retries", 0),
        "litmus.self_s": layers.get("litmus", 0.0),
        "residual_s": traced_wall - sum(layers.values()),
    }
    return metric


def accounting_error(metric: dict) -> Optional[str]:
    """The invariants every traced execution must satisfy."""
    if metric["residual_s"] < 0:
        return f"layers exceed wall clock by {-metric['residual_s']:.6f} s"
    workers = max(1, metric["orchestrate.workers"])
    if metric["orchestrate.worker_busy_s"] > metric["traced_wall_s"] * workers:
        return "summed worker time exceeds wall clock x workers"
    return None


LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "_bytes": "bytes"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def traced_execution(name: str, work: Path, env: dict, expected: dict):
    trace_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=work))
    result = execute(name, work, dict(env, **{"E2EBENCH_TRACE_DIR": str(trace_dir)}), expected)
    snapshots = [tracing.load(str(p)) for p in sorted(trace_dir.glob("*.pickle"))]
    shutil.rmtree(trace_dir)
    if result.error is not None:
        return result, None
    if not any(s["role"] == "main" for s in snapshots):
        result.error = "traced run wrote no main-process spans"
        return result, None
    metric = layer_metrics(snapshots, result.wall_s)
    result.error = accounting_error(metric)
    return result, metric


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def measure(name: str, seconds: float, work: Path, env: dict, expected: dict):
    """Executions, each followed by a set-up probe, for ``seconds``: the
    next one starts only if it should end in time (the first always
    runs).  Medians of each metric."""
    started = time.perf_counter()
    runs, setups = [], []
    while True:
        began = time.perf_counter()
        runs.append(execute(name, work, env, expected))
        setups.append(probe_setup(name, work, env))
        now = time.perf_counter()
        if now + (now - began) > started + seconds:
            break
    while len(runs) + len(setups) < MIN_SETUP_SAMPLES:
        setups.append(probe_setup(name, work, env))
    good = [r for r in runs if r.error is None]
    setup_samples = [r.setup_s for r in good + setups if r.error is None]
    meta = {
        "wall_s_samples": [round(r.wall_s, 4) for r in runs],
        "setup_s_samples": [round(s, 4) for s in setup_samples],
    }
    if not good:
        return runs, {}, meta
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in good),
        "cpu_s": statistics.median(r.cpu_s for r in good),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in good),
    }
    units = END_TO_END_UNITS
    return runs, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, meta


def measure_traced(name: str, work: Path, env: dict, expected: dict):
    """Traced, untraced, traced: per-layer metrics of the first traced
    execution, with the counts of the second checked against it."""
    first, metric = traced_execution(name, work, env, expected)
    plain = execute(name, work, env, expected)
    second, again = traced_execution(name, work, env, expected)
    runs = [first, plain, second]
    if any(r.error is not None for r in runs):
        return runs, {}, {}
    changed = [k for k in EXACT_COUNTS if metric[k] != again[k]]
    if changed:
        second.error = f"counts differ between traced runs: {changed}"
        print(f"{name}: failed: {second.error}", file=sys.stderr)
    propagations = (metric["sat.propagations"], again["sat.propagations"])
    metric["sat.propagations"] = min(propagations)
    metric["sat.propagations_max"] = max(propagations)
    metric["trace_overhead_s"] = (first.wall_s + second.wall_s) / 2 - plain.wall_s
    values = {k: {"value": v, "unit": layer_unit(k)} for k, v in metric.items()}
    return runs, values, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = load_expected()
    compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1)
    become_subreaper()

    scratch = ROOT / ".e2ebench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work))
    try:
        accel = probe_setup(args.workload, work, env).info.get("accel_status")
        if args.trace:
            runs, metrics, meta = measure_traced(args.workload, work, env, expected)
        else:
            runs, metrics, meta = measure(
                args.workload, args.seconds, work, env, expected
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        reap_all()
        try:
            scratch.rmdir()
        except OSError:
            pass
    failed = sum(1 for r in runs if r.error is not None)
    meta.update(
        accel_status=accel,
        workload=args.workload,
        seed=args.seed,
        fuzz_seed=FUZZ_SEED,
        python=platform.python_version(),
        nproc=os.cpu_count(),
    )
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(metrics),
                "attempted": len(runs),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
