"""Run the benchmark on a parent commit and a change in alternating pairs; write JSON.

    python3 tools/bench_pairs.py --parent a14fa1d --change HEAD --out BENCH_26.json

Run from the root of a git checkout of secalg.  Each commit is exported by
``git archive`` into a fresh temporary directory, so neither side holds what
building or testing leaves behind.  A tree that holds any ``__pycache__``
directory is refused, before and after every run: compiling the modules is
part of ``setup_s``, and a stray bytecode cache moves it by itself.  Runs set
PYTHONDONTWRITEBYTECODE=1 for the same reason.

For each workload of the change's BENCHMARK.json, ten pairs of

    bench/run.py --workload <workload> --seed 7 --seconds <its run_seconds>

run in the two trees, parent first in even pairs and change first in odd ones.
The output records both commits with their ``src/`` and ``bench/`` trees, the
Python version and the host, each run's sessions, requests, failures and
end-to-end metrics, and per metric each side's median and quartiles and the
number of pairs in which the change reads strictly lower.  The progress line
of each workload prints those medians and each side's failed/attempted
requests, the share the acceptance gate counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10
SEED = 7
END_TO_END = ("setup_s", "wall_s", "latency_p50_s", "latency_p90_s", "peak_rss_mb")
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def describe(rev: str) -> dict:
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    return {"rev": rev, "commit": commit, "src_tree": git("rev-parse", f"{commit}:src"),
            "bench_tree": git("rev-parse", f"{commit}:bench")}


def export(commit: str, dest: str) -> None:
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", commit], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def refuse_bytecode(tree: str) -> None:
    for root, dirs, _files in os.walk(tree):
        if "__pycache__" in dirs:
            raise SystemExit(f"error: {os.path.join(root, '__pycache__')} exists; "
                             "a bytecode cache moves setup_s by itself")


def run(tree: str, workload: str, seconds: float) -> dict:
    refuse_bytecode(tree)
    subprocess.run([sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
                    "--seed", str(SEED), "--seconds", str(seconds)],
                   cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                   check=True, stdout=subprocess.DEVNULL)
    refuse_bytecode(tree)
    with open(os.path.join(tree, ".bench_out", f"{workload}.result.json")) as fh:
        res = json.load(fh)
    return {"sessions": res["sessions"], "requests": res["attempted"], "failed": res["failed"],
            "correct": res["correct"], **res["end_to_end"]}


def summarize(pairs: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the change reads lower."""
    out = {}
    for metric in END_TO_END:
        vals = {s: [p[s][metric] for p in pairs] for s in SIDES}
        row = {}
        for s in SIDES:
            q1, _q2, q3 = statistics.quantiles(vals[s], n=4)
            row[s] = {"median": statistics.median(vals[s]), "quartiles": [q1, q3]}
        row["change_pct"] = 100 * (row["change"]["median"] / row["parent"]["median"] - 1)
        row["change_lower_in_pairs"] = sum(c < p for p, c in zip(vals["parent"], vals["change"]))
        out[metric] = row
    for s in SIDES:
        out[f"{s}_failed_of_requests"] = [sum(p[s]["failed"] for p in pairs),
                                          sum(p[s]["requests"] for p in pairs)]
    out["all_correct"] = all(p[s]["correct"] for p in pairs for s in SIDES)
    return out


def host() -> str:
    model = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, {model}".rstrip(", ")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sides = {"parent": describe(args.parent), "change": describe(args.change)}
    bench = json.loads(git("show", f"{sides['change']['commit']}:BENCHMARK.json"))
    seconds = bench["run_seconds"]
    doc = {
        "writer": "tools/bench_pairs.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "command": f"bench/run.py --workload <workload> --seed {SEED} --seconds {seconds}, "
                   "from the root of each exported tree",
        "python": platform.python_version(),
        "host": host(),
        "bytecode_cache": "none: both trees come from git archive, runs set "
                          "PYTHONDONTWRITEBYTECODE=1, and a tree holding __pycache__ is refused",
        "order": "parent first in even pairs, change first in odd pairs",
        **sides,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {s: os.path.join(tmp, s) for s in SIDES}
        for s in SIDES:
            export(sides[s]["commit"], trees[s])
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = [{s: run(trees[s], workload, seconds)
                      for s in (SIDES if i % 2 == 0 else SIDES[::-1])} for i in range(PAIRS)]
            doc["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs)}
            summary = doc["workloads"][workload]["summary"]
            failed = {s: "{}/{}".format(*summary[f"{s}_failed_of_requests"]) for s in SIDES}
            print(f"[{workload}] median parent -> change (pairs lower of {PAIRS}): " + "; ".join(
                f"{m} {summary[m]['parent']['median']:.6g} -> {summary[m]['change']['median']:.6g} "
                f"({summary[m]['change_lower_in_pairs']})" for m in END_TO_END)
                + f"; failed/attempted {failed['parent']} -> {failed['change']}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
