"""Per-kind CPU medians of a benchmark workload, in one or more source trees.

    python3 tools/kind_times.py --workload structconst --sessions 20 --tree ../parent --tree .

Each tree holds ``src/`` and ``bench/``, as a checkout or a ``git archive``
export does.  Session i of the seed gets its request list from the tree's
own ``bench/workloads.py`` and is answered by the tree's own
``bench/worker.py`` in a fresh process, through ``bench/verdicts.py``'s
handlers and checks, as one benchmark session is.  Sessions alternate
between the trees, so drift of the host's speed falls on each alike.

For every request kind the script prints, per tree, the median over all its
requests of the CPU time the worker reports for it (``latency_s``: scaled to
the benchmark's reference speed), the number of requests and of failed ones,
and each tree's median relative to the first tree's.  The benchmark pools
every kind into one ``latency_p50_s``; this table shows which kinds a change
moves.  Nothing under ``bench/`` is changed or written.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys


def load_workloads(tree: str, tag: int):
    """The tree's ``bench/workloads.py``, loaded under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"_workloads_{tag}",
                                                  os.path.join(tree, "bench", "workloads.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run_session(tree: str, requests: list[dict]) -> list[dict]:
    """The worker's result lines for one request list, answered in a fresh process."""
    cfg = {"src": os.path.join(tree, "src"), "requests": requests, "trace": False,
           "trace_out": None, "timeout_s": 30.0}
    proc = subprocess.run([sys.executable, os.path.join(tree, "bench", "worker.py")],
                          input=json.dumps(cfg), capture_output=True, text=True, cwd=tree,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode != 0:
        raise SystemExit(f"error: worker in {tree} exited {proc.returncode}: {proc.stderr[-300:]}")
    return [json.loads(ln[2:]) for ln in proc.stdout.splitlines() if ln.startswith("R ")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("bracket", "structconst", "ope"))
    ap.add_argument("--tree", action="append", required=True,
                    help="a source tree; give it more than once to compare trees")
    ap.add_argument("--sessions", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)

    trees = [os.path.abspath(t) for t in args.tree]
    builders = [load_workloads(t, i) for i, t in enumerate(trees)]
    times: list[dict[str, list[float]]] = [{} for _ in trees]
    failed: list[dict[str, int]] = [{} for _ in trees]
    for session in range(args.sessions):
        order = range(len(trees)) if session % 2 == 0 else reversed(range(len(trees)))
        for i in order:
            reqs = builders[i].session_requests(args.workload, args.seed, session)
            for res in run_session(trees[i], reqs):
                times[i].setdefault(res["kind"], []).append(res["latency_s"])
                failed[i][res["kind"]] = failed[i].get(res["kind"], 0) + bool(res["error"])

    kinds = sorted(set().union(*times))
    head = f"{'kind':<20} {'n':>5}" + "".join(f" {'tree ' + str(i) + ' ms':>12}" for i in range(len(trees)))
    print(head + "".join(f" {'t' + str(i) + '/t0':>8}" for i in range(1, len(trees))) + "  failed")
    for kind in kinds:
        meds = [statistics.median(t[kind]) if t.get(kind) else None for t in times]
        row = f"{kind:<20} {len(times[0].get(kind, [])):>5}"
        row += "".join(f" {1000 * m:>12.3f}" if m is not None else f" {'-':>12}" for m in meds)
        row += "".join(f" {m / meds[0]:>8.3f}" if m and meds[0] else f" {'-':>8}" for m in meds[1:])
        print(row + "  " + "/".join(str(f.get(kind, 0)) for f in failed))
    for i, t in enumerate(trees):
        print(f"tree {i}: {t}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
