"""What the benchmark's tracer reads from the package, checked in well under a second.

``bench/tracing.py`` wraps functions by name from outside the package and reads two
attributes of every new ``ReductionTable``.  A cleanup of ``src/`` that renames or drops
one of them fails here, naming it, before ``bench/test_bench.py`` runs the workloads in a
worker.  When the tracer reads counters instead of wrapping functions, this guard goes.
"""

import contextlib
import importlib.util
import os
from unittest import mock

from secalg import kahler
from secalg.coeffs import PolyC
from secalg.kahler import DiffForm, ReductionTable, ReductionWindow
from secalg.ring import RingElem, RingParams

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


def test_reduction_goes_through_the_traced_kahler_names():
    """One ``reduce_oracle`` call and one ``basis_dim`` call on a fresh ring table pass through
    the three kahler names the tracer wraps, so a reducer that bypasses one fails here."""
    params = RingParams(3, 2)
    names = {"ReductionTable.__init__": (ReductionTable, "__init__"),
             "ReductionTable.reduce_monomial": (ReductionTable, "reduce_monomial"),
             "ReductionWindow.enlarged": (ReductionWindow, "enlarged")}
    form = DiffForm(RingElem.monomial(params, PolyC.const(1), 5, 1), RingElem.zero(params))
    for call, want in ((lambda: kahler.reduce_oracle(form), {"ReductionTable.__init__",
                                                             "ReductionTable.reduce_monomial"}),
                       (lambda: kahler.basis_dim(params), {"ReductionTable.__init__",
                                                           "ReductionWindow.enlarged"})):
        with mock.patch.dict(kahler._TABLES, clear=True), contextlib.ExitStack() as stack:
            mocks = {name: stack.enter_context(mock.patch.object(
                owner, attr, autospec=True, side_effect=getattr(owner, attr)))
                for name, (owner, attr) in names.items()}
            call()
        assert {name for name, m in mocks.items() if m.call_count} >= want
