"""Run one ewverify CLI invocation in this fresh process and record it.

Usage: python3 child.py RECORD_FD {run|trace|ready} [CLI ARGUMENTS...]

``ready`` exits as soon as ``ewverify.cli`` is imported, ``run`` runs the
CLI, and ``trace`` runs it with the layer tracer installed.  The CLI writes
to this process's stdout and stderr as it does for a user.  The JSON record
written to the inherited file descriptor RECORD_FD holds the monotonic time
at which the CLI was ready, the exit code (null if an exception escaped), the
peak RSS and, when traced, the tracer's summary.
"""

import json
import resource
import sys
import time


def main() -> int:
    record_fd, mode, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    import ewverify.cli as cli

    record = {"t_ready": time.monotonic(), "rc": None}
    tracer = None
    try:
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer().install()
        if mode == "ready":
            record["rc"] = 0
        else:
            try:
                record["rc"] = cli.run(argv)
            except SystemExit as exc:  # argparse reports usage errors this way
                record["rc"] = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            record["trace"] = tracer.summary()
        with open(record_fd, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main())
