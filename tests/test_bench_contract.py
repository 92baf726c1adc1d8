"""What the benchmark's tracer reads from the package, checked in well under a second.

``bench/tracing.py`` wraps functions by name from outside the package and reads two
attributes of every new ``ReductionTable``.  A cleanup of ``src/`` that renames or drops
one of them fails here, naming it, before ``bench/test_bench.py`` runs the workloads in a
worker.  When the tracer reads counters instead of wrapping functions, this guard goes.
"""

import importlib.util
import os

from secalg.kahler import ReductionTable
from secalg.ring import RingParams

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    missing = []
    for table in (tracing.SPANS, tracing.COUNTS):
        for targets in table.values():
            for target in targets:
                try:
                    tracing._resolve(target)  # as ``Tracer.install`` finds it
                except (ImportError, AttributeError, KeyError) as exc:
                    missing.append(f"{target}: {exc!r}")
    assert missing == []


def test_fresh_reduction_table_has_what_the_tracer_reads():
    table = ReductionTable(RingParams(3, 2))
    assert (table.window.lo, table.window.hi) == (-4, -1)
    assert table.n_cols == table.n_basis == 9
