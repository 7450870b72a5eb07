"""Pin the expected output of every workload into ``expected.json``.

    python3 e2ebench/pin.py

Each workload's saved suite is pinned by its SHA-256 only after it agrees
with an independent run of the same question:

* ``synth-b8-scpl`` with ``--no-symmetry`` (the oracle path);
* ``synth-b7-j2`` with the serial ``synthesize --bound 7``;
* ``diff-sat-b7`` with the explicit witness backend;
* ``fuzz-b10``: every finding violates only ``invlpg``.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import run

CROSS_CHECKS = {
    "synth-b8-scpl": ["synthesize", "--bound", "8", "--axiom", "sc_per_loc", "--no-symmetry"],
    "synth-b7-j2": ["synthesize", "--bound", "7"],
    "diff-sat-b7": [
        "diff", "--reference", "x86t_elt", "--subject", "x86t_amd_bug",
        "--bound", "7", "--witness-backend", "explicit",
    ],
}


def saved_suite(argv, work: Path, env: dict) -> bytes:
    suite = work / "suite.elts"
    if suite.exists():
        suite.unlink()
    result = run.launch("run", argv + ["--save", str(suite)], work, env)
    if result.error is not None:
        raise SystemExit(f"{' '.join(argv)}: {result.error}")
    return suite.read_bytes()


def main() -> int:
    run.become_subreaper()
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    pinned = {}
    scratch = run.ROOT / ".e2ebench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        work = Path(tmp)
        for name, (argv, _code) in run.WORKLOADS.items():
            data = saved_suite(argv, work, env)
            if name in CROSS_CHECKS and saved_suite(CROSS_CHECKS[name], work, env) != data:
                raise SystemExit(f"{name}: suite differs from its cross-check")
            tests = sum(1 for line in data.decode().splitlines() if line.startswith("test "))
            pinned[name] = {"sha256": hashlib.sha256(data).hexdigest(), "tests": tests}
            suite = work / "suite.elts"
            problem = run.check_output(name, run.WORKLOADS[name][1], suite, pinned)
            if problem is not None:
                raise SystemExit(f"{name}: {problem}")
            print(f"{name}: {tests} tests, sha256 {pinned[name]['sha256']}", file=sys.stderr)
    with open(run.HERE / "expected.json", "w") as handle:
        json.dump(pinned, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
