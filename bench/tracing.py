"""Spans and counters around the public functions of every layer.

The benchmark installs these wrappers from outside the package.  A wrapped
function is replaced on every ``secalg`` module that binds it, because
``from .x import f`` copies the binding (``secalg.uce.ring_mul`` is wrapped
as well as ``secalg.ring.ring_mul``); a method is replaced on its class.

A span is [name, start, end, parent, request].  Spans stay in memory and are
written out when the session ends.  A ``_s`` metric is self time: a span's
duration minus the time its child spans cover.  The coefficient layer is
counted, not spanned, so its arithmetic is charged to the layer that asked
for it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# span name -> wrapped functions ("module:qualname").  The "*.other" spans
# only keep their callers' self time honest (cli.run would otherwise absorb
# the bracket audit, for instance).
SPANS = {
    "ring.mul": ["secalg.ring:ring_mul"],
    "kahler.reduce": ["secalg.kahler:reduce_oracle"],
    "kahler.table_build": ["secalg.kahler:ReductionTable.__init__"],
    "kahler.other": ["secalg.kahler:basis_dim", "secalg.kahler:structure_constants"],
    "families.eval": ["secalg.families:eval_family"],
    "families.rescaling": ["secalg.families:rescaling_check"],
    "families.other": ["secalg.families:family_table"],
    "uce.bracket": ["secalg.uce:uce_bracket_oracle"],
    "uce.formula": ["secalg.uce:uce_bracket_formula"],
    "uce.lie_check": ["secalg.uce:lie_axiom_check"],
    "uce.tau": ["secalg.uce:TauCache.tau", "secalg.uce:tau_oracle"],
    "uce.other": ["secalg.uce:formula_vs_oracle"],
    "ope.wick": ["secalg.ope:wick_ope"],
    "ope.taylor_shift": ["secalg.ope:taylor_shift"],
    "wakimoto.calibrate": ["secalg.wakimoto:calibrate_conventions"],
    "wakimoto.obstruction": ["secalg.wakimoto:obstruction_report"],
    "wakimoto.other": ["secalg.wakimoto:build_operators",
                       "secalg.wakimoto:verify_charge_relations"],
    "cli.main": ["secalg.cli:main"],
    "cli.parse": ["secalg.cli:parse_ring_elem", "secalg.cli:parse_field_expr",
                  "secalg.cli:parse_coef"],
    "cli.run": ["secalg.cli:run_command"],
    "cli.emit": ["secalg.cli:emit_report"],
}

# counter name -> counted functions (no span)
COUNTS = {
    "coeffs.coeffk_built": ["secalg.coeffs:CoeffK.__init__"],
    "coeffs.gcd_calls": ["secalg.coeffs:Poly2.gcd"],
    "coeffs.polyc_ops": ["secalg.coeffs:PolyC." + op for op in (
        "__add__", "__sub__", "__mul__", "__neg__", "scale", "divmod", "divexact")],
    "kahler.monomials_reduced": ["secalg.kahler:ReductionTable.reduce_monomial"],
    "kahler.enlarged": ["secalg.kahler:ReductionWindow.enlarged"],
    "uce.tau_monomial_calls": ["secalg.uce:TauCache.tau_monomial"],
    "ope.contract_calls": ["secalg.ope:contract_pair", "secalg.ope:contract_exp"],
    "ope.laurent_calls": ["secalg.ope:is_laurent"],
}

# per-layer metric -> unit
METRICS = {
    "coeffs.coeffk_built": "count",
    "coeffs.den1_share": "share",
    "coeffs.polyc_ops": "count",
    "coeffs.gcd_calls": "count",
    "coeffs.gcd_nontrivial_share": "share",
    "ring.mul_calls": "count",
    "ring.mul_s": "s",
    "kahler.reduce_calls": "count",
    "kahler.reduce_s": "s",
    "kahler.table_builds": "count",
    "kahler.table_build_s": "s",
    "kahler.table_cols_max": "count",
    "kahler.monomials_reduced": "count",
    "kahler.window_retries": "count",
    "families.eval_calls": "count",
    "families.eval_s": "s",
    "families.rescaling_s": "s",
    "families.k_max": "index",
    "uce.bracket_calls": "count",
    "uce.bracket_s": "s",
    "uce.formula_s": "s",
    "uce.lie_check_s": "s",
    "uce.tau_monomial_calls": "count",
    "uce.tau_memo_hit_ratio": "share",
    "uce.tau_s": "s",
    "ope.wick_calls": "count",
    "ope.wick_s": "s",
    "ope.contract_calls": "count",
    "ope.taylor_shift_calls": "count",
    "ope.taylor_shift_s": "s",
    "ope.laurent_calls": "count",
    "wakimoto.calibrations": "count",
    "wakimoto.calibrate_s": "s",
    "wakimoto.obstruction_s": "s",
    "wakimoto.cells": "count",
    "cli.parse_s": "s",
    "cli.emit_s": "s",
    "cli.output_bytes": "bytes",
}

# metric -> the spans whose self time it sums
_SELF = {
    "ring.mul_s": ("ring.mul",),
    "kahler.reduce_s": ("kahler.reduce",),
    "kahler.table_build_s": ("kahler.table_build",),
    "families.eval_s": ("families.eval",),
    "families.rescaling_s": ("families.rescaling",),
    "uce.bracket_s": ("uce.bracket",),
    "uce.formula_s": ("uce.formula",),
    "uce.lie_check_s": ("uce.lie_check",),
    "uce.tau_s": ("uce.tau",),
    "ope.wick_s": ("ope.wick",),
    "ope.taylor_shift_s": ("ope.taylor_shift",),
    "wakimoto.calibrate_s": ("wakimoto.calibrate",),
    "wakimoto.obstruction_s": ("wakimoto.obstruction",),
    "cli.parse_s": ("cli.main", "cli.parse"),
    "cli.emit_s": ("cli.run", "cli.emit"),
}
# metric -> the span it counts
_CALLS = {
    "ring.mul_calls": "ring.mul",
    "kahler.reduce_calls": "kahler.reduce",
    "kahler.table_builds": "kahler.table_build",
    "families.eval_calls": "families.eval",
    "uce.bracket_calls": "uce.bracket",
    "ope.wick_calls": "ope.wick",
    "ope.taylor_shift_calls": "ope.taylor_shift",
    "wakimoto.calibrations": "wakimoto.calibrate",
}


def _resolve(target: str):
    """(owner, attribute, stored object) for 'module:Class.attr' or 'module:func'."""
    modname, qual = target.split(":")
    owner = importlib.import_module(modname)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


class Tracer:
    """In-memory spans and counters for one session; off until ``on`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.request = -1
        self.on = False
        self.installed = False

    def bump(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def high(self, name: str, value) -> None:
        if value is not None and value > self.maxima.get(name, -1):
            self.maxima[name] = value

    def _wrap(self, fn, span=None, count=None, before=None, after=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if count is not None:
                counts[count] = counts.get(count, 0) + 1
            token = before(args, kwargs) if before is not None else None
            if span is None:
                out = fn(*args, **kwargs)
            else:
                rec = [span, 0.0, 0.0, stack[-1] if stack else -1, self.request]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[2] = perf_counter()
                    stack.pop()
            if after is not None:
                after(token, args, kwargs, out)
            return out

        return wrapper

    def _hooks(self) -> dict:
        """target -> (before, after) for values read from arguments or results."""

        def den1(_t, args, _kw, _out):
            den = args[0].den
            if den.is_const() and den.const_value() == 1:
                self.bump("coeffs.den1")

        def gcd(_t, _args, _kw, g):
            if not g.is_const():
                self.bump("coeffs.gcd_nontrivial")

        def table(_t, args, kwargs, _out):
            tab = args[0]
            self.high("kahler.table_cols_max", tab.n_cols)
            self.high("kahler.window_width_max", tab.window.hi - tab.window.lo + 1)

        def in_reduce(_args, _kw):
            if any(self.spans[i][0] == "kahler.reduce" for i in self.stack):
                self.bump("kahler.enlarged_in_reduce")

        def tau_hit(args, _kw):
            memo = getattr(args[0], "_memo", None)
            if memo is not None and tuple(args[1:5]) in memo:
                self.bump("uce.tau_memo_hits")

        def kmax(pos, name):
            return lambda _t, args, kwargs, _out: self.high(
                "families.k_max", _arg(args, kwargs, pos, name))

        def cells(_t, _args, _kw, rep):
            self.bump("wakimoto.cells", len(rep.cells))

        return {
            "secalg.coeffs:CoeffK.__init__": (None, den1),
            "secalg.coeffs:Poly2.gcd": (None, gcd),
            "secalg.kahler:ReductionTable.__init__": (None, table),
            "secalg.kahler:ReductionWindow.enlarged": (in_reduce, None),
            "secalg.uce:TauCache.tau_monomial": (tau_hit, None),
            "secalg.families:eval_family": (None, kmax(1, "k")),
            "secalg.families:family_table": (None, kmax(1, "k_max")),
            "secalg.families:rescaling_check": (None, kmax(4, "k_max")),
            "secalg.wakimoto:obstruction_report": (None, cells),
        }

    def install(self) -> None:
        """Wrap every target on every secalg module or class that binds it."""
        self.installed = True
        hooks = self._hooks()
        plan: dict[str, dict] = {}
        for name, targets in SPANS.items():
            for t in targets:
                plan.setdefault(t, {})["span"] = name
        for name, targets in COUNTS.items():
            for t in targets:
                plan.setdefault(t, {})["count"] = name
        for target, opts in plan.items():
            before, after = hooks.get(target, (None, None))
            owner, attr, raw = _resolve(target)
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = self._wrap(fn, opts.get("span"), opts.get("count"), before, after)
            if isinstance(owner, type):
                setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
                continue
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("secalg")
                        and getattr(mod, attr, None) is fn):
                    setattr(mod, attr, wrapped)

    # -- results ------------------------------------------------------------
    def span_totals(self) -> tuple[dict, dict]:
        """Self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _req in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, start, end, _parent, _req) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def metrics(self) -> dict[str, float]:
        self_s, calls = self.span_totals()
        c, mx = self.counts, self.maxima
        out: dict[str, float] = {}
        for metric, names in _SELF.items():
            out[metric] = sum(self_s.get(n, 0.0) for n in names)
        for metric, name in _CALLS.items():
            out[metric] = calls.get(name, 0)
        for metric in ("coeffs.coeffk_built", "coeffs.gcd_calls", "coeffs.polyc_ops",
                       "kahler.monomials_reduced", "uce.tau_monomial_calls",
                       "ope.contract_calls", "ope.laurent_calls", "wakimoto.cells",
                       "cli.output_bytes"):
            out[metric] = c.get(metric, 0)

        def share(num, den):
            return c.get(num, 0) / c[den] if c.get(den) else 0.0

        out["coeffs.den1_share"] = share("coeffs.den1", "coeffs.coeffk_built")
        out["coeffs.gcd_nontrivial_share"] = share("coeffs.gcd_nontrivial", "coeffs.gcd_calls")
        out["uce.tau_memo_hit_ratio"] = share("uce.tau_memo_hits", "uce.tau_monomial_calls")
        out["kahler.window_retries"] = max(
            0, c.get("kahler.enlarged_in_reduce", 0) - out["kahler.reduce_calls"])
        out["kahler.table_cols_max"] = mx.get("kahler.table_cols_max", 0)
        out["families.k_max"] = mx.get("families.k_max", 0)
        return out

    def dump(self, path) -> None:
        """Write the spans and counters of the session as JSON."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans, "counts": self.counts,
                       "maxima": self.maxima}, fh, separators=(",", ":"))
