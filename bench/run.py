"""Time-to-verdict benchmark for secalg.

    python3 bench/run.py --workload bracket --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (it imports ``src/secalg``).  A run
measures for ``--seconds`` (longer if it has fewer than 100 latency samples
by then): it answers seeded request lists in a series of sessions, each a
fresh process (so no session inherits another's reduction tables or family
memos), one client, closed loop.  Every verdict is checked
against an independent answer.  ``--workload all`` runs the three workloads
in turn.

With ``--trace 0`` the last line of output is the end-to-end result:
setup_s, wall_s, latency_p50_s, latency_p90_s and peak_rss_mb (medians over
sessions; latencies pooled over all requests).  Times are CPU times at a
fixed reference speed, so that the load and drift of a shared host cancel
(see ``worker.REFERENCE_S``); the wall-clock figures are printed beside
them.  With ``--trace 1`` every
request list is answered twice, untraced and then traced, and the last line
holds the per-layer metrics of the traced sessions plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import METRICS  # noqa: E402
from workloads import WORKLOADS, properties, session_requests  # noqa: E402

OUT_DIR = ".bench_out"
REQUEST_TIMEOUT_S = 30.0
RUN_CAP_S = 165.0  # every run ends well within the 180 s a run may take
MIN_SAMPLES = 100  # so that at least ten latencies lie above p90

END_TO_END = {"setup_s": "s", "wall_s": "s", "latency_p50_s": "s",
              "latency_p90_s": "s", "peak_rss_mb": "MB"}


def run_session(requests: list[dict], trace: bool, trace_out, budget_s: float) -> dict:
    """Answer one request list in a fresh worker process."""
    cfg = {"src": "src", "requests": requests, "trace": trace, "trace_out": trace_out,
           "timeout_s": REQUEST_TIMEOUT_S}
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(json.dumps(cfg), timeout=max(budget_s, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    results, summary = [], None
    for line in out.splitlines():
        if line.startswith("R "):
            results.append(json.loads(line[2:]))
        elif line.startswith("S "):
            summary = json.loads(line[2:])
    if proc.returncode != 0 or summary is None:
        if not results and proc.returncode not in (0, -9):
            raise SystemExit(f"error: session worker exited with status {proc.returncode}")
        # killed at the run cap: unanswered requests count as failed
        for i in range(len(results), len(requests)):
            results.append({"i": i, "kind": requests[i]["kind"], "latency_s": None,
                            "raw_s": None,
                            "error": "no verdict: session stopped at the run cap",
                            "known_defect": requests[i].get("known_defect"), "reuse": None})
        return {"setup_s": None, "raw_setup_s": None, "results": results, "summary": None}
    return {"setup_s": summary["setup_s"], "raw_setup_s": summary["ready"] - t0,
            "results": results, "summary": summary}


def tally(results: list[dict]) -> dict:
    """Attempted and failed requests; a failure outside the documented
    defects means a wrong program, so it makes the run incorrect."""
    failed = [r for r in results if r["error"]]
    return {"attempted": len(results), "failed": len(failed),
            "failed_share": len(failed) / len(results),
            "correct": all(r["known_defect"] for r in failed),
            "failures": [{k: r[k] for k in ("kind", "error", "known_defect")} for r in failed]}


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def percentiles(values) -> tuple[float, float]:
    """Median and 90th percentile."""
    values = sorted(values)
    p90 = statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]
    return statistics.median(values), p90


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.monotonic()
    plain, traced, props = [], [], []
    index = samples = 0
    while True:
        reqs = session_requests(workload, seed, index)
        props.append(properties(reqs))
        left = RUN_CAP_S - (time.monotonic() - start)
        plain.append(run_session(reqs, False, None, left))
        if trace:
            left = RUN_CAP_S - (time.monotonic() - start)
            traced.append(run_session(reqs, True, os.path.join(OUT_DIR, f"{workload}.trace.json"),
                                      left))
        index += 1
        samples += len(reqs)
        elapsed = time.monotonic() - start
        if elapsed >= RUN_CAP_S or (elapsed >= seconds and samples >= MIN_SAMPLES):
            break

    results = [r for s in plain for r in s["results"]]
    latencies = sorted(r["latency_s"] for r in results if r["latency_s"] is not None)
    summaries = [s["summary"] for s in plain if s["summary"]]
    if not summaries:
        raise SystemExit(f"error: no {workload} session finished within {RUN_CAP_S:.0f} s")
    p50, p90 = percentiles(latencies)
    e2e = {
        "setup_s": _median(s["setup_s"] for s in plain),
        "wall_s": _median(s["wall_s"] for s in summaries),
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "peak_rss_mb": _median(s["peak_rss_mb"] for s in summaries),
    }
    raw_p50, raw_p90 = percentiles(r["raw_s"] for r in results if r["raw_s"] is not None)
    raw = {"setup_s": _median(s["raw_setup_s"] for s in plain),
           "wall_s": _median(s["raw_wall_s"] for s in summaries),
           "latency_p50_s": raw_p50, "latency_p90_s": raw_p90}
    reuse = [r["reuse"] for r in results if r["reuse"] is not None]
    out = {
        "workload": workload, "seed": seed, "sessions": len(plain), **tally(results),
        "latency_samples": len(latencies),
        "samples_above_p90": sum(1 for v in latencies if v > e2e["latency_p90_s"]),
        "end_to_end": e2e,
        "wall_clock": raw,
        "properties": {
            "mr": sorted({tuple(p) for ps in props for p in ps["mr"]}, key=str),
            "exponent_abs_max": max((p.get("exponent_abs_max", 0) for p in props), default=0),
            "family_index_max": max((p.get("family_index_max", 0) for p in props), default=0),
            "ope_factor_counts": sorted({n for p in props for n in p.get("ope_factor_counts", [])}),
            "known_defect_requests": sum(p["known_defect_requests"] for p in props),
            "reuse_share": sum(reuse) / len(reuse) if reuse else None,
        },
    }
    if trace:
        tsum = [s["summary"] for s in traced if s["summary"]]
        layers = {name: _median(s["layers"][name] for s in tsum) for name in METRICS}
        pairs = [t["summary"]["wall_s"] - p["summary"]["wall_s"]
                 for p, t in zip(plain, traced) if p["summary"] and t["summary"]]
        layers["trace.overhead_s"] = _median(pairs)
        out["per_layer"] = layers
        out["traced_sessions"] = len(tsum)
        out["properties"]["window_width_max"] = max(
            (s.get("window_width_max") or 0 for s in tsum), default=0)
    with open(os.path.join(OUT_DIR, f"{workload}.result.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return out


def report(res: dict, trace: bool) -> None:
    w = res["workload"]
    print(f"[{w}] seed {res['seed']}: {res['sessions']} sessions, {res['attempted']} requests, "
          f"{res['failed']} failed (failed_share {res['failed_share']:.4f}), "
          f"correct={res['correct']}")
    for name, unit in END_TO_END.items():
        clock = res["wall_clock"].get(name)
        clock = f"  (wall clock {clock:.6g} {unit})" if clock is not None else ""
        print(f"[{w}]   {name:<15} {res['end_to_end'][name]:.6g} {unit}{clock}")
    print(f"[{w}]   latency samples {res['latency_samples']}, "
          f"{res['samples_above_p90']} above p90")
    for f in res["failures"]:
        tag = f" [known defect: {f['known_defect']}]" if f["known_defect"] else ""
        print(f"[{w}]   failed {f['kind']}: {f['error']}{tag}")
    print(f"[{w}]   properties {json.dumps(res['properties'], sort_keys=True)}")
    if trace:
        for name, value in res["per_layer"].items():
            unit = METRICS.get(name, "s")
            print(f"[{w}]   {name:<28} {value:.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "secalg", "__init__.py")):
        print("error: run from the root of a secalg checkout (src/secalg not found)",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    last = None
    for name in names:
        last = run_workload(name, args.seed, args.seconds, trace)
        report(last, trace)
    if args.workload == "all":
        return 0
    if trace:
        metrics = {k: {"value": v, "unit": METRICS.get(k, "s")}
                   for k, v in last["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in last["end_to_end"].items()}
    print(json.dumps({"correct": last["correct"], "attempted": last["attempted"],
                      "failed": last["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
