"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS, serialize, session_requests  # noqa: E402

# per-layer metrics that must read nonzero on the workload whose row names them
MOVES = {
    "bracket": ["coeffs.coeffk_built", "coeffs.den1_share", "ring.mul_calls", "ring.mul_s",
                "uce.bracket_calls", "uce.bracket_s", "uce.formula_s", "uce.lie_check_s",
                "uce.tau_monomial_calls", "uce.tau_memo_hit_ratio", "uce.tau_s",
                "cli.parse_s", "cli.emit_s", "cli.output_bytes"],
    "structconst": ["coeffs.coeffk_built", "coeffs.den1_share", "coeffs.polyc_ops",
                    "kahler.reduce_calls", "kahler.reduce_s", "kahler.table_builds",
                    "kahler.table_build_s", "kahler.table_cols_max", "kahler.monomials_reduced",
                    "families.eval_calls", "families.eval_s", "families.rescaling_s",
                    "families.k_max", "cli.parse_s", "cli.emit_s", "cli.output_bytes"],
    "ope": ["coeffs.gcd_calls", "coeffs.gcd_nontrivial_share", "ope.wick_calls", "ope.wick_s",
            "ope.contract_calls", "ope.taylor_shift_calls", "ope.taylor_shift_s",
            "ope.laurent_calls", "wakimoto.calibrations", "wakimoto.calibrate_s",
            "wakimoto.obstruction_s", "wakimoto.cells", "cli.parse_s", "cli.emit_s"],
}


def tiny(workload: str) -> list[dict]:
    """The first request of each kind in session 0 of seed 0."""
    seen, out = set(), []
    for req in session_requests(workload, 0, 0):
        if req["kind"] not in seen:
            seen.add(req["kind"])
            out.append(req)
    return out


def run_worker(requests, trace, tmp_path, name="s"):
    dump = str(tmp_path / f"{name}.trace.json") if trace else None
    cfg = {"src": os.path.join(ROOT, "src"), "requests": requests, "trace": trace,
           "trace_out": dump, "timeout_s": 60}
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          input=json.dumps(cfg), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    results = [json.loads(x[2:]) for x in lines if x.startswith("R ")]
    summary = json.loads(next(x[2:] for x in lines if x.startswith("S ")))
    return results, summary, dump


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_requests(workload):
    for index in (0, 3):
        a = serialize(session_requests(workload, 7, index))
        assert a == serialize(session_requests(workload, 7, index))
        assert a != serialize(session_requests(workload, 8, index))


def test_corrupted_verdict_is_a_failure():
    import signal

    import verdicts
    from run import tally
    from worker import Session

    class Corrupt:
        WrongVerdict = verdicts.WrongVerdict
        check_dim_cli = staticmethod(verdicts.check_dim_cli)

        @staticmethod
        def run_dim_cli(req, ctx):
            rc, doc = verdicts.run_dim_cli(req, ctx)
            doc["dim"] += 1
            return rc, doc

    session = Session(tracing.Tracer(), 60)
    old = signal.signal(signal.SIGALRM, session._alarm)
    try:
        req = {"kind": "dim_cli", "m": 3, "r": 2}
        good = session.run(0, req, verdicts)
        bad = session.run(1, req, Corrupt)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert good["error"] is None and bad["error"].startswith("wrong")
    t = tally([good, bad])
    assert (t["attempted"], t["failed"], t["correct"]) == (2, 1, False)
    # a documented defect still counts as failed, without making the run incorrect
    t = tally([good, dict(bad, known_defect="documented")])
    assert (t["attempted"], t["failed"], t["correct"]) == (2, 1, True)


def test_every_wrapper_fires(tmp_path):
    fired: set[str] = set()
    for workload in WORKLOADS:
        results, summary, dump = run_worker(tiny(workload), True, tmp_path, workload)
        assert [r["error"] for r in results if r["error"] and not r["known_defect"]] == []
        for metric in MOVES[workload]:
            assert summary["layers"][metric] > 0, (workload, metric)
        with open(dump) as fh:
            data = json.load(fh)
        fired |= {s[0] for s in data["spans"]} | set(data["counts"])
    assert set(tracing.SPANS) <= fired
    assert set(tracing.COUNTS) <= fired
