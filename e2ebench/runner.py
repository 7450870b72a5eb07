"""Run one ``repro`` CLI command the way ``python -m repro.cli`` does, and
mark the end of set-up.

    python e2ebench/runner.py run|setup INFO_PATH ARGV...

``run`` imports ``repro.cli``, parses ``ARGV``, notes the clock, then
runs the parsed subcommand; ``setup`` stops after parsing.  The moment
set-up ended is written to ``INFO_PATH`` as JSON when the process ends.
With ``E2EBENCH_TRACE_DIR`` set, the layer wrappers of ``tracing`` are
installed after set-up and every process's spans are written into that
directory as it exits.

Spawned pool workers import this file as ``__mp_main__``; like the
workers of the real CLI they import ``repro.cli``, and under tracing
they install the same wrappers.
"""

import json
import os
import sys
import time

TRACE_ENV = "E2EBENCH_TRACE_DIR"


def main() -> int:
    mode, info_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    started = time.perf_counter()
    import repro.cli

    args = repro.cli.build_parser().parse_args(argv)
    info = {"setup_end": time.perf_counter()}
    trace_dir = os.environ.get(TRACE_ENV)
    try:
        if mode == "setup":
            import repro.sat

            info["accel_status"] = repro.sat.accel_status()
            return 0
        if not trace_dir:
            return args.func(args)
        import tracing

        rec = tracing.Recorder("main")
        rec.record(tracing.CLI_KEY, started, info["setup_end"])
        tracing.install(rec)
        tracing.track_process_starts(rec)
        try:
            return args.func(args)
        finally:
            rec.dump(trace_dir)
    finally:
        with open(info_path, "w") as handle:
            json.dump(info, handle)


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__":
    import repro.cli  # noqa: F401  (what the real CLI's workers import)

    if os.environ.get(TRACE_ENV):
        import tracing

        tracing.install_worker(os.environ[TRACE_ENV])
