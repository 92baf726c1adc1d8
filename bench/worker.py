"""One benchmark session: a fresh process that answers one request list.

Reads {"src", "requests", "trace", "trace_out", "timeout_s"} as JSON on
stdin.  Prints one "R <json>" line per request as soon as it has a verdict,
then one "S <json>" line with the session totals.  Requests share the
process, as in a library session; nothing is shared between sessions.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter, process_time

FAMILY_KINDS = {"families_cli", "eval_cold_api", "rescaling_cli"}

# Times are CPU seconds of the session process at a fixed reference speed.
# CPU time leaves out the time the process waits while other processes hold
# the CPU.  The speed of the CPU itself drifts on a shared host: one request
# list answered twelve times in a row on a 2-vCPU host took from 2.0 to 3.3 s
# CPU time, and a fixed computation 2.3 to 4.5 ms.  So a time is scaled by
# REFERENCE_S over the CPU time a reference computation took right before
# and right after it.  REFERENCE_S is about the median time of that
# computation on the 2-vCPU host (Python 3.11) where the benchmark was written.
REFERENCE_S = 0.0035


def reference_s() -> float:
    """CPU time of a fixed computation in exact arithmetic that calls no
    program code (the family recurrence in plain Fractions).  The cyclic
    collector is off while it runs, so the size of the program's heap does
    not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = process_time()
    c, m = Fraction(2, 3), Fraction(7, 3)
    vals = {-4: Fraction(0), -3: Fraction(0), -2: Fraction(0), -1: Fraction(1)}
    for k in range(0, 280, 2):
        vals[k] = (2 * c * (m * k + 2) * vals[k - 2] - m * k * vals[k - 4]) / (m * k + 4)
    t = process_time() - t0
    if enabled:
        gc.enable()
    return t


class RequestTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the
    program swallows it."""


class Capture:
    """A write-only text sink that keeps the written strings as they are
    (StringIO would hold them in a wider buffer and inflate peak memory)."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def getvalue(self) -> str:
        return "".join(self.parts)


class Session:
    def __init__(self, tracer, timeout_s: float):
        self.tracer = tracer
        self.timeout_s = timeout_s
        self.armed = False

    def cli(self, argv: list[str]) -> tuple[int, str]:
        from secalg import cli

        out = Capture()
        with redirect_stdout(out), redirect_stderr(Capture()):
            rc = cli.main(argv)
        text = out.getvalue()
        del out
        if self.tracer.on:
            self.tracer.bump("cli.output_bytes", len(text.encode()))
        return rc, text

    def _alarm(self, _signum, _frame):
        if self.armed:
            raise RequestTimeout()

    def run(self, index: int, req: dict, verdicts) -> dict:
        kind = req["kind"]
        run = getattr(verdicts, "run_" + kind)
        check = getattr(verdicts, "check_" + kind)
        before = cache_state()
        error = out = None
        pre = reference_s()
        self.tracer.request = index
        self.tracer.on = self.tracer.installed
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.timeout_s)
        t0, c0 = perf_counter(), process_time()
        try:
            out = run(req, self)
        except RequestTimeout:
            error = "timeout"
        except (Exception, SystemExit) as exc:  # a raising request is a failed request
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            t1, c1 = perf_counter(), process_time()
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.tracer.on = False
        post = reference_s()
        if error is None:
            try:
                check(req, out)
            except verdicts.WrongVerdict as exc:
                error = f"wrong: {exc}"
            except Exception as exc:  # an unreadable answer is a wrong answer
                error = f"wrong: unreadable answer ({type(exc).__name__}: {exc})"
        del out
        return {"i": index, "kind": kind, "raw_s": t1 - t0,
                "latency_s": (c1 - c0) * REFERENCE_S / ((pre + post) / 2),
                "error": error and error[:300],
                "known_defect": req.get("known_defect"),
                "reuse": reuse(kind, before, cache_state())}


def cache_state():
    """(reduction-table lookups, misses, family memos), None where unavailable."""
    from secalg import families, kahler

    info = getattr(getattr(kahler, "_table", None), "cache_info", None)
    t = info() if info else None
    memos = getattr(families, "_memos", None)
    return (t.hits + t.misses if t else None, t.misses if t else None,
            len(memos) if memos is not None else None)


def reuse(kind: str, before, after):
    """True when the request used only tables or family memos built earlier
    in the session, False when it built one, None when it used neither."""
    used, built = False, False
    if before[0] is not None and after[0] != before[0]:
        used, built = True, after[1] != before[1]
    if kind in FAMILY_KINDS and before[2] is not None:
        used, built = True, built or after[2] != before[2]
    return (not built) if used else None


def main() -> int:
    cfg = json.loads(sys.stdin.read())
    src = os.path.abspath(cfg["src"])
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import secalg
    import secalg.cli  # the in-process CLI is part of set-up, not of the first request

    if not os.path.abspath(secalg.__file__).startswith(src + os.sep):
        print(f"error: imported secalg from {secalg.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing
    import verdicts

    tracer = tracing.Tracer()
    if cfg["trace"]:
        tracer.install()
    session = Session(tracer, cfg["timeout_s"])
    signal.signal(signal.SIGALRM, session._alarm)
    ready, ready_cpu = time.monotonic(), process_time()
    # the median of five, as the first run of the computation is the slowest
    setup_s = ready_cpu * REFERENCE_S / statistics.median(reference_s() for _ in range(5))

    wall = raw_wall = 0.0
    for i, req in enumerate(cfg["requests"]):
        res = session.run(i, req, verdicts)
        wall += res["latency_s"]
        raw_wall += res["raw_s"]
        print("R " + json.dumps(res), flush=True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = {"ready": ready, "setup_s": setup_s, "wall_s": wall,
               "raw_wall_s": raw_wall, "peak_rss_mb": peak_kb / 1024.0}
    if tracer.installed:
        summary["layers"] = tracer.metrics()
        summary["window_width_max"] = tracer.maxima.get("kahler.window_width_max")
        if cfg.get("trace_out"):
            tracer.dump(cfg["trace_out"])
    print("S " + json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
