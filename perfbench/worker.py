"""Run one batch of maghom CLI calls in this (fresh) interpreter.

    python3 perfbench/worker.py BATCH.json TRACE

Imports maghom from ``src/`` and reads the batch; the set-up ends
there, at a time on the monotonic clock that the parent compares with
its own reading taken before the spawn.  Then runs each call through
``maghom.cli.main`` with stdout and stderr captured, and prints one JSON
line with the set-up end, per-call wall times, exit codes and outputs,
the peak RSS and, with TRACE = 1, the tracer's report.  Each stdout line
of a call is time-stamped, so a ``classify`` call yields one latency per
record.

Before the first call and after each call the worker times a fixed
pure-Python loop (``calibrate``).  Each call reports ``speed``: the loop's
time on the reference machine, ``CAL_REF_S``, over the mean of the two
loop times around the call.  It is the host's speed while the call ran,
relative to the reference machine.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

CAL_ROUNDS = 60_000
CAL_REF_S = 0.0275    # calibrate() on the reference machine, median over five minutes


class StampedWriter(io.StringIO):
    """Captures output and notes the time at which each line ends."""

    def __init__(self):
        super().__init__()
        self.stamps: list[float] = []

    def write(self, s: str) -> int:
        n = super().write(s)
        if "\n" in s:
            self.stamps.extend([perf_counter()] * s.count("\n"))
        return n


def calibrate() -> float:
    """Seconds taken by a fixed loop of integer, tuple and dict work."""
    start = perf_counter()
    acc, table = 0, {}
    for i in range(CAL_ROUNDS):
        acc = (acc * 31 + i) % 1000003
        key = (i % 97, acc % 89)
        table[key] = table.get(key, 0) + 1
    return perf_counter() - start


def run_call(cli, argv: list[str], tracer) -> dict:
    out, err = StampedWriter(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = tracer.span("cli.self", cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the item failed; the batch goes on
            rc = type(exc).__name__
            err.write(traceback.format_exc())
    end = perf_counter()
    marks = [start] + out.stamps
    return {
        "rc": rc,
        "s": end - start,
        "line_ms": [(b - a) * 1e3 for a, b in zip(marks, marks[1:])],
        "out": out.getvalue(),
        "err": err.getvalue()[-500:],
    }


def main() -> int:
    batch_path, trace = sys.argv[1], sys.argv[2] == "1"
    from maghom import cli
    calls = json.loads(Path(batch_path).read_text())
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ready = monotonic()
    results, before = [], calibrate()
    for argv in calls:
        res = run_call(cli, argv, tracer)
        after = calibrate()
        res["speed"] = CAL_REF_S / ((before + after) / 2)
        results.append(res)
        before = after
    report = {
        "ready": ready,
        "calls": results,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.report() if tracer else None,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
