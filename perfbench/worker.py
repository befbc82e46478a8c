"""One benchmark worker: a fresh interpreter that imports qtors, writes the
pass's input files and runs its commands one at a time through
`qtors.cli.main(argv)` in process, with stdout and stderr captured.

    python3 worker.py RUN_DIR TAG [--setup-only] [--trace]

It reads RUN_DIR/spec.json and appends one JSON line per event to
RUN_DIR/TAG.jsonl: "ready" just before the first command, one "command"
line per command, "done" at the end.  Lines are flushed as they are
written, so a worker killed by the wall-clock guard still leaves the
commands it finished.  With --trace the qtors boundaries are wrapped and
the spans are written to RUN_DIR/TAG.spans.npz when the pass ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

MEMORY_LIMIT_BYTES = 4 << 30
COMMAND_TIMEOUT_S = 120


class CommandTimeout(BaseException):
    """Raised by the alarm; a BaseException so that no handler inside the
    program mistakes it for one of its own errors."""


def _on_alarm(signum, frame):
    raise CommandTimeout()


def _rss_mb() -> float:
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def main(argv: list[str]) -> int:
    run_dir, tag = Path(argv[0]), argv[1]
    setup_only, trace = "--setup-only" in argv, "--trace" in argv
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    import qtors.cli

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    spec = json.loads((run_dir / "spec.json").read_text())
    for rel, text in spec["files"].items():
        path = run_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    os.chdir(run_dir)
    log = open(f"{tag}.jsonl", "w")

    def emit(record: dict) -> None:
        log.write(json.dumps(record) + "\n")
        log.flush()

    emit({"event": "ready", "t": time.monotonic()})
    if not setup_only:
        signal.signal(signal.SIGALRM, _on_alarm)
        for i, command in enumerate(spec["commands"]):
            if tracer is not None:
                tracer.command = i
            out, err = io.StringIO(), io.StringIO()
            rc, error = None, None
            t0 = time.perf_counter()
            signal.alarm(COMMAND_TIMEOUT_S)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = qtors.cli.main(command["argv"])
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except CommandTimeout:
                error = f"timed out after {COMMAND_TIMEOUT_S} s"
            except Exception as e:  # a raising command is a failed command
                error = f"{type(e).__name__}: {e}"
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - t0
            emit({"event": "command", "index": i, "rc": rc, "error": error, "wall_s": wall,
                  "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
                  "rss_mb": _rss_mb()})
    done = {"event": "done", "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.save(f"{tag}.spans.npz")
        done["trace"] = tracer.summary()
    emit(done)
    log.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
