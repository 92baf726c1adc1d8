import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.parsing.sympy_parser import parse_expr

from secalg import cli, families
from secalg.cli import (
    MAX_DERIV_ORDER,
    MAX_INT_DIGITS,
    MAX_NESTING,
    MAX_POWER_SPAN,
    MAX_SUM_SPAN,
    Command,
    ParseError,
    emit_report,
    main,
    parse_argv,
    parse_coef,
    parse_field_expr,
    parse_ring_elem,
    parse_ring_terms,
    run_command,
)
from secalg.coeffs import CoeffK, Poly2, PolyC, sparse_add
from secalg.ope import KINDS, ConventionConfig, FieldExpr, FieldGen, wick_ope
from secalg.ring import RingElem, RingParams
from secalg.wakimoto import build_operators

CONV = ConventionConfig(sigma_rev=-1, nesting="right")


def run(name, **params):
    buf = io.StringIO()
    status = run_command(Command(name, params), out=buf)
    return status, buf.getvalue()


def test_parse_field_expr_examples():
    e0 = parse_field_expr("beta[0]", 3)
    assert e0 == FieldExpr.generator("beta", 0)
    h0 = parse_field_expr("-2*no(beta[0]*gamma[0]) + s*b[0]", 3)
    ops = build_operators(3, CONV)
    assert h0 == ops.op("h", 0)
    e1 = parse_field_expr("beta[1]*exp(1/s, phi0)", 3)
    assert e1 == ops.op("e", 1)
    with pytest.raises(ParseError):
        parse_field_expr("beta[5]", 3)
    try:
        parse_field_expr("beta[0] + ??", 3)
    except ParseError as exc:
        assert exc.pos == 10
    else:
        raise AssertionError("expected a syntax error with byte offset")


def test_round_trip_operators():
    # canonical rendering of every stated operator parses back to itself
    for m in (2, 3):
        ops = build_operators(m, CONV)
        for (name, l), expr in ops.operators.items():
            back = parse_field_expr(expr.render(), m)
            assert back == expr, (name, l, expr.render())


def test_round_trip_coefficients():
    for text in ["(s^2 + 2)/s^2", "1/s", "-2*c", "3/4", "c*s - 1/2"]:
        val = parse_coef(text)
        assert parse_coef(val.render()) == val


_rats = st.sampled_from([F(n, d) for n in range(-5, 6) for d in (1, 2, 3)])
_polycs = st.lists(st.tuples(st.integers(0, 3), _rats), max_size=3).map(lambda ts: PolyC(dict(ts)))
_poly2s = st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), _rats),
                   max_size=3).map(lambda ts: Poly2(dict(ts)))
_coeffks = st.builds(CoeffK, _poly2s, _poly2s.filter(lambda p: not p.is_zero()))


@st.composite
def _ring_elems(draw):
    m, r = draw(st.sampled_from([(2, 2), (3, 2), (4, 3)]))
    sectors: dict = {}
    for _ in range(draw(st.integers(0, 4))):
        sparse_add(sectors.setdefault(draw(st.integers(0, m - 1)), {}), draw(st.integers(-6, 6)),
                   draw(_polycs))
    return RingElem(RingParams(m, r), sectors)


_field_exprs = st.lists(st.builds(
    FieldExpr.term, _coeffks.filter(lambda x: not x.is_zero()),
    st.lists(st.builds(FieldGen, st.sampled_from(KINDS), st.integers(0, 2), st.integers(0, 2)),
             max_size=3),
    st.just(CoeffK.zero()) | _coeffks), max_size=4).map(lambda ts: sum(ts, FieldExpr()))
_NEG = PolyC({2: F(-3, 2), 1: F(-1, 2)})  # -3/2*c^2 - 1/2*c: several terms, all negative


@settings(derandomize=True, max_examples=200, deadline=None)
@given(x=_ring_elems())
@example(x=RingElem(RingParams(3, 2), {0: {5: _NEG, 1: PolyC.const(1)}}))
@example(x=RingElem(RingParams(3, 2), {2: {-1: -_NEG, 0: PolyC.const(-1)}, 1: {0: _NEG}}))
def test_ring_render_parses_back(x):
    """A printed ring element reads as itself: a coefficient of more than one term is
    parenthesized, whatever its sign."""
    assert parse_ring_elem(x.render(), x.params) == x


@settings(derandomize=True, max_examples=200, deadline=None)
@given(x=_coeffks)
@example(x=parse_coef("-3/2*c^2 - 1/2*c"))
@example(x=parse_coef("-(1+s)/(c-1)"))
def test_coefficient_render_parses_back(x):
    assert parse_coef(x.render()) == x
    assert parse_coef(x.render(k_style=True)) == x


@settings(derandomize=True, max_examples=200, deadline=None)
@given(x=_field_exprs)
@example(x=parse_field_expr("(-1-c)*no(b[0]*exp(1/s,phi0)) + (c-1/s)*gamma[1]", 3))
@example(x=parse_field_expr("-(1+s)*exp(-1/(c-1),phi0) - c - 1 + (-c/s - 2)*D(beta[2],2)", 3))
def test_field_render_parses_back(x):
    assert parse_field_expr(x.render(), 3) == x


def test_printed_ope_witnesses_parse_back():
    """Every pole field and exponent an OPE of the Wakimoto operators prints, as
    ``ope``, ``calibrate`` and ``obstructions`` do, reads as itself."""
    ops = build_operators(3, CONV)
    # the operators, and each monomial of each f^(l) alone
    fields = list(ops.operators.values()) + [FieldExpr({key: v}) for (name, _l), f in
                                             ops.operators.items() if name == "f"
                                             for key, v in f.terms.items()]
    for E in fields:
        for Fx in fields:
            for sec in wick_ope(E, Fx, CONV, extra_orders=1).sectors.values():
                assert parse_coef(sec.epsilon.render()) == sec.epsilon
                for fe in sec.poles.values():
                    assert parse_field_expr(fe.render(), 3) == fe, fe.render()


def test_parse_ring_elem():
    P = RingParams(3, 2)
    a = parse_ring_elem("3/2 * t^-4 * u^2", P)
    assert a.render() == "3/2*t^-4*u^2"
    b = parse_ring_elem("t^-1*u + u^2", P)
    assert [l for l, _ in b.sectors.items()] == [1, 2]
    c = parse_ring_elem("u^3", P)  # reduces to p(t)
    assert list(c.sectors) == [0]
    with pytest.raises(ParseError):
        parse_ring_elem("t^", P)


# -- the coefficient grammar against sympy; Q[c] values build no CoeffK ------------

_c, _s = sympy.symbols("c s")
_SYMBOLS = {"c": _c, "s": _s, "k": _s ** 2}


def _compound(texts):
    """Sums, differences, products, quotients, powers and negations of texts, each operand
    of a binary operator in parentheses or not, the base of a power always in parentheses."""
    operand = st.tuples(texts, st.booleans()).map(lambda x: f"({x[0]})" if x[1] else x[0])
    return (st.tuples(operand, st.sampled_from("+-*/"), operand).map("".join)
            | st.tuples(texts, st.integers(-2, 3)).map(lambda x: f"({x[0]})^{x[1]}")
            | operand.map("-".__add__))


_coef_texts = st.recursive(st.sampled_from(["0", "1", "2", "3", "c", "s", "k", "c^2", "c^-1",
                                            "2^-1", "(c-1)", "(c^2-1)", "(c-c)"]),
                           _compound, max_leaves=8)


def _sympy_value(e):
    """The value of a tree that sympy parsed unevaluated, or None where a negative power (a
    quotient is one) has a base equal to zero."""
    if e.is_Atom:
        return e
    args = [_sympy_value(a) for a in e.args]
    if None in args or e.is_Pow and args[1] < 0 and sympy.cancel(args[0]) == 0:
        return None
    return sympy.cancel(e.func(*args))


def _as_sympy(x) -> sympy.Expr:
    return sympy.sympify(x.render().replace("^", "**"), locals=_SYMBOLS)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(text=_coef_texts)
@example(text="(c^2-1)/(c-1)")
@example(text="1/(c-1)*(c-1)")
@example(text="-(c-1)^-2*k/2--3")
@example(text="(c-c)^0/(2-2)")
def test_coefficient_grammar_matches_sympy(text):
    """parse_coef reads a text as sympy reads it (with ** for ^), and a ring term with that
    coefficient is accepted exactly when the value is a polynomial in c, as that polynomial.
    A zero divisor or a zero base of a negative power refuses both, as a ParseError or a
    ZeroDivisionError."""
    value = _sympy_value(parse_expr(text.replace("^", "**"), local_dict=_SYMBOLS, evaluate=False))
    ring = f"({text})*t"
    if value is None:
        for parse, src in ((parse_coef, text), (parse_ring_terms, ring)):
            with pytest.raises((ParseError, ZeroDivisionError)):
                parse(src)
        return
    assert sympy.cancel(_as_sympy(parse_coef(text)) - value) == 0
    if value.has(_s) or not value.is_polynomial(_c):
        with pytest.raises(ValueError, match="is not a polynomial in c$"):
            parse_ring_terms(ring)
        return
    terms = parse_ring_terms(ring)
    assert set(terms) == ({(1, 0)} if value != 0 else set())
    assert all(sympy.expand(_as_sympy(p) - value) == 0 for p in terms.values())


def test_ring_coefficient_refusals_pinned():
    for text, kind, message in (
            ("s*t", ValueError, "ring coefficient s is not a polynomial in c"),
            ("1/c*t", ValueError, "ring coefficient 1/c is not a polynomial in c"),
            ("c^100001*t", ValueError, "ring coefficient of c degree 100001 above 100000"),
            ("1/(c-c)*t", ParseError, "division by zero (at byte offset 7)"),
            ("(c-c)^-1*t", ZeroDivisionError, "inverting zero CoeffK")):
        with pytest.raises(kind) as info:
            parse_ring_terms(text)
        assert str(info.value) == message


def test_q_c_ring_terms_build_no_field_value(monkeypatch):
    """A ring text whose coefficients stay in Q[c] is read in PolyC arithmetic alone; one
    that leaves Q[c] on the way (a quotient by c - 1) goes through the field and back."""
    built = []
    init = CoeffK.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CoeffK, "__init__", counted)
    terms = parse_ring_terms("(-1/2 + (3/2)*c)*t^2*u^3 + (1 + (0)*c)*u")
    assert terms == {(2, 3): PolyC({0: F(-1, 2), 1: F(3, 2)}), (0, 1): PolyC.const(1)}
    assert built == []
    assert parse_ring_terms("(c^2-1)/(c-1)*t") == {(1, 0): PolyC({0: 1, 1: 1})}
    assert built
    assert parse_ring_terms("1/(c-1)*(c-1)*u") == {(0, 1): PolyC.const(1)}


def test_families_command_and_determinism():
    s1, out1 = run("families", m=3, r=2, j=2, kmax=4)
    s2, out2 = run("families", m=3, r=2, j=2, kmax=4)
    assert s1 == 0 and out1 == out2
    doc = json.loads(out1)
    assert {"k": 2, "poly": "8/5*c^2 - 3/5"} in doc["values"]
    assert "note" in doc


def test_dim_command():
    status, out = run("dim", m=3, r=2)
    assert status == 0
    assert json.loads(out)["dim"] == 9


def test_rescaling_command():
    status, out = run("rescaling", m=3, r=2, kmax=8)
    assert status == 0
    assert json.loads(out)["failures"] == []


@pytest.mark.parametrize("argv,digest", [
    (["families", "--m", "3", "--r", "3", "--j", "1", "--l", "1", "--kmax", "600"],
     "59a17549349e8fd8c9d4b749fe648b40190daa46605e6b4fda82a168fbec71d6"),
    (["rescaling", "--m", "3", "--r", "2", "--kmax", "120"],
     "b9d9ec30cfcffb97d2ca57d24a40bd4f3c6bfd7300006ad543a0aa71b120d731"),
    (["rescaling", "--m", "5", "--r", "3", "--kmax", "40"],
     "92b0727891797ebbb119974c33166766d64f960e141cb42063d741389e1681bb"),
], ids=["families-3-3-j1-l1-600", "rescaling-3-2-120", "rescaling-5-3-40"])
def test_family_commands_pinned(argv, digest, capsys):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("r", [1, 0, -1, -2])
def test_rescaling_refuses_r_below_2(r, capsys):
    """No family exists below r = 2: one line and exit 2, not an empty check reported
    as a pass (r <= 0) nor a k_max message (r = -2, k_max 3)."""
    assert main(["rescaling", "--m", "3", "--r", str(r), "--kmax", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: r {r} below 2: p(t) = 1 - 2c t^r + t^(2r) needs r >= 2"]


def test_rescaling_failures_match_the_check(monkeypatch):
    """A wrong sector lead for l = 1: the CLI prints exactly the certificates that fail, and
    counts the entries that the holding ones cover."""
    pairs = families._sector_pairs

    def wrong(m, r, l):
        right = pairs(m, r, l)
        if l == 1:
            right[0][1] += 1
        return right

    monkeypatch.setattr(families, "_sector_pairs", wrong)
    status, out = run("rescaling", m=3, r=2, kmax=12)
    rep = families.rescaling_check(3, 2, k_max=12)
    doc = json.loads(out)
    assert status == 1
    assert doc["failures"] == [c for c in rep if not c["holds"]] != []
    assert doc["checked"] == sum(c["covers"] for c in rep if c["holds"]) == 68


@pytest.mark.parametrize("m, r, kmax", [(3, 2, 100000), (3, 1000, 1)])
def test_rescaling_cost_is_free_of_kmax_and_r(m, r, kmax, capsys):
    """The certificates are exact in k, so neither --kmax nor r is walked: both took seconds
    or ended in a MemoryError while each (l, j, k) was walked and rendered."""
    start = _cpu_s()
    assert main(["rescaling", "--m", str(m), "--r", str(r), "--kmax", str(kmax)]) == 0
    assert _cpu_s() - start < 0.2
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == [] and doc["checked"] == (m - 1) * 2 * r * (kmax + 2 * r + 1)


def test_kahler_reduce_command():
    status, out = run("kahler-reduce", m=3, r=2, dt="t^-1")
    assert status == 0
    assert json.loads(out)["omega0"] == "1"


def test_bracket_command():
    status, out = run("bracket", m=3, r=2, x="e", a="t", y="f", b="t^-1")
    doc = json.loads(out)
    assert doc["oracle"]["central"]["omega0"] == "-1"


def test_ope_command_round_trip():
    status, out = run(
        "ope", m=3, e="beta[0]", f="gamma[0]",
    )
    doc = json.loads(out)
    assert doc["poles"] == [{"order": 1, "field": "1"}]
    assert doc["classification"] == "laurent"


def test_calibrate_command_exit_code():
    status, out = run("calibrate")
    # no configuration fully calibrates; the command reports and signals it
    assert status == 1
    doc = json.loads(out)
    assert doc["passing"] == []
    assert doc["chosen"] == {"sigma_rev": -1, "nesting": "right"}


def test_critical_levels_command():
    status, out = run("critical-levels", mmax=5)
    assert status == 0
    doc = json.loads(out)
    assert {"m": 3, "l": 1, "k_crit": "3/5", "symmetry": True,
            "exponent_identity": True} in doc["rows"]


class _Int(int):
    pass


class _Str(str):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


_texts = st.text(max_size=6) | st.sampled_from(['"', "\\", "\n\t\x00", "\u00e9", "\u2028", "\U0001f600",
                                                 "\ud800", "a\\\"b", ""])
_scalars = (st.integers(-10**30, 10**30) | st.booleans() | st.none() | st.floats() | _texts
            | st.integers().map(_Int) | _texts.map(_Str))
# every key of one dict is a str, or every key a number (json sorts each kind, not mixed)
_str_keys = _texts | _texts.map(_Str)
_num_keys = st.integers(-5, 5) | st.booleans() | st.floats(allow_nan=False)


def _containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.lists(children, max_size=3).map(_List)
            | st.dictionaries(_str_keys, children, max_size=4)
            | st.dictionaries(_str_keys, children, max_size=3).map(_Dict)
            | st.dictionaries(_num_keys, children, max_size=3)
            | st.dictionaries(st.none(), children, max_size=1))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(doc=st.recursive(_scalars, _containers, max_leaves=25))
@example(doc={})
@example(doc={"a": [], "b": {}, "c": (), "d": [[{}]], "": {"\u00e9\n": [True, None, 1.5, -0.0]}})
@example(doc={1: "x", 2.5: [1], True: {}})
def test_emit_report_matches_json(doc):
    """The one-pass emitter writes json.dumps(indent=2, sort_keys=True) byte for byte,
    also for the values and keys it hands to json: bools, None, floats, non-str keys and
    subclasses of dict, list, str and int.  Streamed to an output, with the chunk bound
    set low, the writes join to that text and a newline, each joins at most the bound's
    chunks, whole ones, and a doc of two or more containers takes more than one write
    before the newline."""
    ref = json.dumps(doc, indent=2, sort_keys=True)
    assert emit_report(doc) == ref
    assert emit_report(doc, "md") == "```json\n" + ref + "\n```"
    for fmt, head, text in (("json", [], ref), ("md", ["```json\n"], "```json\n" + ref + "\n```")):
        chunks = list(head)
        cli._emit(doc, "\n", chunks, None)
        sink = _Sink()
        with mock.patch.object(cli, "EMIT_CHUNKS", 2):
            assert emit_report(doc, fmt, sink) is None
        assert "".join(sink.writes) == text + "\n"
        *body, end = sink.writes
        assert end == text[len("".join(chunks)):] + "\n"
        sizes = _chunks_per_write(body, chunks)
        assert max(sizes, default=0) <= 2
        if _containers_in(doc) > 1:
            assert len(body) > 1


class _Sink:
    """An output that records each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def _chunks_per_write(writes, chunks):
    """How many of the chunks each write joins, in order, all of them used, none cut."""
    sizes, i = [], 0
    for w in writes:
        j, text = i, ""
        while len(text) < len(w) and j < len(chunks):
            text += chunks[j]
            j += 1
        assert text == w, (w, chunks[i:j])
        sizes.append(j - i)
        i = j
    assert i == len(chunks)
    return sizes


def _containers_in(x):
    if type(x) in (list, tuple) or type(x) is dict and all(type(k) is str for k in x):
        return 1 + sum(map(_containers_in, x.values() if type(x) is dict else x))
    return 0


def test_emit_report_writes_while_it_encodes(monkeypatch):
    """A long list is written in pieces as it is encoded: the first writes come before its
    last item is encoded, not after the whole text is built."""
    sink, seen, emit = _Sink(), [], cli._emit

    def spy(x, *args):
        seen.append(len(sink.writes))
        emit(x, *args)

    monkeypatch.setattr(cli, "EMIT_CHUNKS", 4)
    monkeypatch.setattr(cli, "_emit", spy)
    emit_report([[i] for i in range(20)], out=sink)
    assert seen[0] == 0 and seen[-1] >= 8
    assert "".join(sink.writes) == json.dumps([[i] for i in range(20)], indent=2) + "\n"


def test_emit_report_refuses_what_json_refuses():
    for doc in ({"a": 1, 2: 3}, [{"a": 1, None: 2}], {"a": object()}):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            emit_report(doc)


@pytest.mark.parametrize("argv", [
    ["families", "--m", "3", "--r", "2", "--j", "1", "--kmax", "6"],
    ["rescaling", "--m", "3", "--r", "2", "--kmax", "6"],
    ["rescaling", "--m", "3", "--r", "2", "--kmax", "6", "--format", "md"],
    ["kahler-reduce", "--m", "3", "--r", "2", "--dt", "(1-c)*t^5*u"],
    ["dim", "--m", "3", "--r", "2", "--format", "md"],
    ["bracket", "--m", "3", "--r", "2", "--x", "e", "--a", "t*u", "--y", "f", "--b", "c*t^-2*u^2"],
    ["bracket-audit", "--m", "2", "--r", "2", "--expbound", "1"],
    ["calibrate"],
    ["ope", "--m", "3", "--e", "no(b[0]*beta[1]*exp(1/s,phi0))", "--f", "no(gamma[1]*b[0])",
     "--extra-orders", "1"],
    ["charges", "--m", "3"],
    ["obstructions", "--m", "4", "--k", "1/2"],
    ["critical-levels", "--mmax", "5"],
])
def test_every_command_report_matches_json(argv, monkeypatch, capsys):
    """Each command's document, as emitted, is what json.dumps writes for it."""
    seen = []

    def checked(report, fmt="json", out=None):
        streamed = io.StringIO()
        emit_report(report, fmt, streamed)
        ref = json.dumps(report, indent=2, sort_keys=True)
        assert streamed.getvalue() == (ref if fmt == "json" else "```json\n" + ref + "\n```") + "\n"
        seen.append(fmt)
        out.write(streamed.getvalue())

    monkeypatch.setattr(cli, "emit_report", checked)
    assert main(argv) in (0, 1)
    fmt = argv[-1] if "--format" in argv else "json"
    assert seen == [fmt]
    assert capsys.readouterr().out.endswith("}\n" if fmt == "json" else "```\n")


def test_power_of_a_sum_bounded(monkeypatch, capsys):
    """A power of a coefficient of more than one term is refused, in one line and before
    it is expanded, once its exponent span times the power is above MAX_POWER_SPAN; so is a
    product or quotient of two such coefficients once their spans add up above it.  s
    exponents count three times, and a one-term base or factor is exempt."""
    assert MAX_POWER_SPAN == 2000
    monkeypatch.setattr(cli, "MAX_POWER_SPAN", 12)
    c, s, one = CoeffK.c(), CoeffK.s(), CoeffK.one()
    for text, value in (("(c+1)^12", (c + one) ** 12), ("(c+1)^-12", ((c + one) ** 12).inv()),
                        ("(s+1)^4", (s + one) ** 4), ("(c+s)^3", (c + s) ** 3),
                        ("(1/(c-1))^12", ((c - one) ** 12).inv()), ("(c^2+1)^6", (c * c + one) ** 6),
                        ("c^1000000*s^7", c ** 1000000 * s ** 7),
                        ("(2*c^3/s)^100000", (c ** 3 * 2 / s) ** 100000),
                        ("((c+1)^6)^2", (c + one) ** 12), ("(c+1)^6*(c+1)^6", (c + one) ** 12)):
        assert parse_coef(text) == value
    for text, pos in (("(c+1)^13", 6), ("(s+1)^5", 6), ("(c+s)^4", 6), ("(1/(c-1))^-13", 11),
                      ("(c^2+1)^7", 8), ("((c+1)^6)^3", 10), ("(c+s/2)^4", 8),
                      ("(c+1)^7*(c+1)^6", 8), ("(c+1)^7/(c-1)^6", 8)):
        with pytest.raises(ParseError, match=f"spans above 12 \\(at byte offset {pos}\\)"):
            parse_coef(text)
    ope = ["ope", "--m", "3", "--e", "exp((c+1)^13,phi0)", "--f", "exp(1,phi0)"]
    assert main(ope) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: power 13 of a coefficient of exponent span 1 spans above 12")
    assert err.count("\n") == 1
    ring = ["kahler-reduce", "--m", "3", "--r", "2", "--dt", "(c-1)^13*t"]
    assert main(ring) == 2 and "spans above 12" in capsys.readouterr().err
    ope[4] = "exp((c+1)^7*(c+1)^6,phi0)"
    for argv, what in ((ope, "product"), (ring[:-1] + ["(c+1)^7*t*(c-1)^6"], "product"),
                       (ring[:-1] + ["(c+1)^7/(c-1)^6*t"], "quotient")):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what} of coefficients of exponent spans 7 and 6 spans above 12")
        assert err.count("\n") == 1


def test_field_term_coefficient_products_bounded(monkeypatch, capsys):
    """A field term multiplies its factors' coefficients under the same bound as a ring
    term, in either order and through no(...), before the product is expanded."""
    monkeypatch.setattr(cli, "MAX_POWER_SPAN", 12)
    for e, pos in (("(c+1)^7*(c+1)^6*beta[0]", 8), ("beta[0]*(c+1)^7*(c+1)^6", 16),
                   ("no((c+1)^7*beta[0])*(c-1)^6", 20)):
        assert main(["ope", "--m", "3", "--e", e, "--f", "gamma[0]"]) == 2
        assert capsys.readouterr().err == ("error: product of coefficients of exponent spans "
                                           f"7 and 6 spans above 12 (at byte offset {pos})\n")
    assert main(["ope", "--m", "3", "--e", "(c+1)^6*(c+1)^6*beta[0]", "--f", "gamma[0]"]) == 0


def test_field_term_coefficient_product_at_the_bound_pinned(capsys):
    """Spans 1000 and 1000 add up to MAX_POWER_SPAN: the product still answers, as before."""
    assert main(["ope", "--m", "3", "--e", "(c+1)^1000*(c+1)^1000*beta[0]", "--f", "gamma[0]"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "ef5a29d7cde6fb6b496278c626fd76c03385544e464979252b049e886ad52eb7")


def test_sum_of_dense_fractions_bounded(capsys):
    """A sum or difference of two fractions whose denominators both have more than one term is
    refused, in one line and before its gcd runs, once the spans of the two denominators add
    up above MAX_SUM_SPAN, s exponents three times: in a coefficient and in a like-term merge
    of a field expression.  Spans adding up to the bound answer, and so does a sum whose other
    denominator is a monomial."""
    assert MAX_SUM_SPAN == 128
    c, one = CoeffK.c(), CoeffK.one()
    assert parse_coef("1/(c+1)^64+1/(c-1)^64") == ((c + one) ** 64).inv() + ((c - one) ** 64).inv()
    assert parse_coef("1/(c+1)^200-1/c^9+c") == ((c + one) ** 200).inv() - (c ** 9).inv() + c
    for text, what, spans, pos in (("1/(c+1)^64+1/(c-1)^65", "sum", "64 and 65", 11),
                                   ("1/(c+1)^64-1/(c-1)^65", "difference", "64 and 65", 11),
                                   ("1/(s+1)^21+1/(s-1)^22", "sum", "63 and 66", 11),
                                   ("c+1/(c+1)^64+1/(c^2-1)^33", "sum", "64 and 66", 13)):
        with pytest.raises(ParseError, match=f"^{what} of coefficients of denominator spans "
                                             f"{spans} spans above 128 \\(at byte offset {pos}\\)$"):
            parse_coef(text)
    assert parse_field_expr("(1/(c+1)^200)*beta[0] + (1/(c-1)^200)*gamma[0]", 2)
    merge = "(1/(c+1)^200)*beta[0] + (1/(c-1)^200)*beta[0]"
    with pytest.raises(ParseError, match="^sum of coefficients of denominator spans 200 and 200"):
        parse_field_expr(merge, 2)
    for argv, pos in ((["ope", "--m", "3", "--e", merge, "--f", "gamma[0]"], 24),
                      (["kahler-reduce", "--m", "3", "--r", "2", "--dt", "(1/(c+1)^64-1/(c-1)^65)*t"],
                       12)):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"spans above 128 (at byte offset {pos})\n")
        assert err.count("\n") == 1


def test_quotient_with_a_steep_gcd_bounded(capsys):
    """A product or quotient whose numerator and denominator both have more than one term is
    refused, in one line and before its gcd runs, once numerator span x denominator span x the
    bits of the operands' widest integers add up above MAX_GCD_SIZE: at 10^6 it answers, one
    more span is refused, and so is the dense-numerator gcd cliff."""
    assert cli.MAX_GCD_SIZE == 10**6
    c, one = CoeffK.c(), CoeffK.one()
    assert parse_coef("(c^100+1)/(c^100+2^98)") == (c ** 100 + one) / (c ** 100 + one * 2 ** 98)
    for text, spans, bits in (("(c^101+1)/(c^100+2^98)", "101, denominator span 100", 100),
                              ("(c^100+1)*(1/(c^101+2^98))", "100, denominator span 101", 100),
                              ("(c^200+1)/(c+2)^120", "200, denominator span 120", 188)):
        with pytest.raises(ParseError, match=f"^(quotient|product) of numerator span {spans} and "
                                             f"{bits}-bit coefficients is above 1000000 in their "
                                             "product \\(at byte offset [0-9]+\\)$"):
            parse_coef(text)
    assert main(["kahler-reduce", "--m", "3", "--r", "2", "--dt", "(c^200+1)/(c+2)^120*t"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: quotient of numerator span 200") and err.count("\n") == 1


def _cpu_s() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


@pytest.mark.parametrize("e, message", [
    # a sum of two dense fractions whose cross-multiplied numerator is steep: MAX_GCD_SIZE
    ("((c^200+1)/(c+2)^50+1/(c-1)^70)*beta[0]",
     "sum of numerator span 270, denominator span 120 and 144-bit coefficients is above 1000000 "
     "in their product (at byte offset 20)"),
    ("((c^199+1)/(c+2)^30+1/(c-1)^30)*beta[0]",
     "sum of numerator span 229, denominator span 60 and 73-bit coefficients is above 1000000 "
     "in their product (at byte offset 20)"),
    # a product of exponentials adds their momenta: MAX_SUM_SPAN, as in a coefficient
    ("exp(1/(c+2)^60,phi0)*exp(1/(c-1)^100,phi0)*beta[0]",
     "sum of coefficients of denominator spans 60 and 100 spans above 128 (at byte offset 21)"),
    ("exp(1/(c+1)^64,phi0)*exp(1/(c-1)^65,phi0)*beta[0]",
     "sum of coefficients of denominator spans 64 and 65 spans above 128 (at byte offset 21)"),
])
def test_steep_sums_refused_before_their_gcd(e, message, capsys):
    """A sum whose gcd is steep exits 2 in one line, before the gcd runs: each took 1 to 20 s
    CPU to answer before these bounds."""
    start = _cpu_s()
    assert main(["ope", "--m", "2", "--e", e, "--f", "gamma[0]"]) == 2
    assert _cpu_s() - start < 0.2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and not captured.out


def test_power_bounded_by_exponent_times_bits(capsys):
    """A power whose exponent times the bits of its base's widest integer is above MAX_GCD_SIZE
    is refused in one line, naming the exponent's offset, before it is worked out: a base of one
    term has no span, and (2/3)^1000000 took a second to end in the int-to-str limit."""
    message = ("power 1000000 of a coefficient of 2-bit integers is above 1000000 in exponent x "
               "bits (at byte offset 6)")
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_coef("(2/3)^1000000")
    start = _cpu_s()
    assert main(["bracket", "--m", "3", "--r", "2", "--x", "e", "--y", "f",
                 "--a", "(2/3)^1000000*u", "--b", "u"]) == 2
    assert _cpu_s() - start < 0.2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and not captured.out
    with pytest.raises(ParseError, match="^power 500001 of a coefficient of 2-bit integers .* "
                                         "offset 4[)]$"):
        parse_coef("c*2^500001")
    assert parse_coef("c*2^500000") == CoeffK.c() * 2 ** 500000  # 2 bits x 500000: at the bound


def test_steep_sums_just_inside_their_bounds_answer(capsys):
    """One span less than the refusals above, each still answers as before the bounds."""
    value = parse_coef("(c^198+1)/(c+2)^30+1/(c-1)^30")  # 228 x 60 x 73 bits = 998,640
    assert hashlib.sha256(value.render().encode()).hexdigest() == (
        "1ac0eaf8ab99ea87a79d5e825ec56b0f5379a57af93b3d00896928d092cc506b")
    assert main(["ope", "--m", "2", "--e", "exp(1/(c+1)^64,phi0)*exp(1/(c-1)^64,phi0)*beta[0]",
                 "--f", "gamma[0]"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "176f598cb0850fe14f03c17bdc30bf79bba94e690a82353466ad559ab640c7dd")


def test_main_entry():
    assert main(["dim", "--m", "2", "--r", "2"]) == 0


@pytest.mark.parametrize("argv", [
    ["dim", "--m", "3", "--r", "1"],
    ["families", "--m", "3", "--r", "2", "--j", "0"],
    ["obstructions", "--m", "3", "--k", "1/0"],
    ["obstructions", "--m", "3", "--k", "abc"],
    ["kahler-reduce", "--m", "3", "--r", "2", "--dt", "s*t^2*u"],
    ["kahler-reduce", "--m", "3", "--r", "2", "--dt", "(1/(c-1))*t^2*u"],
    ["bracket", "--m", "3", "--r", "2", "--x", "e", "--a", "k*u", "--y", "f", "--b", "t^2*u"],
    ["kahler-reduce", "--m", "2", "--r", "2", "--dt", "c^1000000000*t^-1"],
    ["ope", "--m", "2", "--e", "beta[0]", "--f", "gamma[0]", "--extra-orders", "-1"],
    # refused before any expansion: neither value is ever run
    ["ope", "--m", "2", "--e", "beta[0]", "--f", "gamma[0]", "--extra-orders", "21"],
    ["ope", "--m", "3", "--e", "exp(1/s,phi0)", "--f", "exp(1/s,phi0)",
     "--extra-orders", "100000000"],
    ["families", "--m", "3", "--r", "2", "--j", "1", "--l", "0"],
    ["families", "--m", "3", "--r", "2", "--j", "1", "--l", "5"],
    ["families", "--m", "3", "--r", "2", "--j", "1", "--kmax", "-5"],
    ["rescaling", "--m", "3", "--r", "2", "--kmax", "-5"],
    ["bracket-audit", "--m", "3", "--r", "2", "--expbound", "-1"],
    ["critical-levels", "--mmax", "1"],
    ["rescaling", "--m", "1", "--r", "2"],
    ["rescaling", "--m", "0", "--r", "2"],
    ["ope", "--m", "3", "--e", "beta[1]*exp(1/s,phi0)", "--f", "gamma[1]", "--k", "0"],
    ["obstructions", "--m", "3", "--k", "0"],
    ["kahler-reduce", "--m", "3", "--r", "2", "--dt", "(" * 300 + "t" + ")" * 300],
    ["ope", "--m", "3", "--e", "exp(" + "-" * 2000 + "1/s,phi0)", "--f", "gamma[1]"],
    ["ope", "--m", "3", "--e", "no(" * 300 + "beta[1]" + ")" * 300, "--f", "gamma[1]"],
    # derivative orders above MAX_DERIV_ORDER, nested ones added up: refused before any work
    ["ope", "--m", "3", "--e", "D(beta[1],2000)", "--f", "gamma[1]"],
    ["ope", "--m", "3", "--e", "D(beta[1],100000000)", "--f", "gamma[1]"],
    ["ope", "--m", "3", "--e", "no(D(b[0],200)*exp(1,phi0))", "--f", "exp(1,phi0)"],
    ["ope", "--m", "3", "--e", "D(no(D(beta[1],15)*b[0]),6)", "--f", "gamma[1]"],
    # Taylor shifts above ope.MAX_SHIFT_ORDER: the pole orders of two contractions
    # add up (shift 41), and extra orders add to one (shift 25)
    ["ope", "--m", "3", "--e", "no(D(b[0],20)*D(b[0],20)*exp(1,phi0))", "--f", "exp(1,phi0)"],
    ["ope", "--m", "3", "--e", "no(D(b[0],20)*exp(1,phi0))", "--f", "exp(1,phi0)",
     "--extra-orders", "5"],
    # a coefficient whose powers of c span more than MAX_C_DEGREE
    ["ope", "--m", "3", "--e", "exp(c^200000+1,phi0)", "--f", "exp(1,phi0)"],
    # t exponents beyond kahler.MAX_REACH: refused before the table grows
    ["kahler-reduce", "--m", "3", "--r", "2", "--dt", "t^99999999999*u"],
    ["kahler-reduce", "--m", "3", "--r", "2", "--du", "t^-99999999999*u^2"],
])
def test_main_invalid_parameters_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# argv of each command with its flags small, and a flag whose range hangs on another's
SMALL = {"families": {"--m": 3, "--r": 2, "--j": 1}, "rescaling": {"--m": 3, "--r": 2},
         "kahler-reduce": {"--m": 3, "--r": 2, "--dt": "t*u"}, "dim": {"--m": 3, "--r": 2},
         "bracket": {"--m": 3, "--r": 2, "--x": "e", "--y": "f", "--a": "t*u", "--b": "u"},
         "bracket-audit": {"--m": 2, "--r": 2, "--expbound": 1},
         "ope": {"--m": 2, "--e": "beta[1]", "--f": "gamma[1]"}, "charges": {"--m": 3},
         "obstructions": {"--m": 3}, "critical-levels": {}, "calibrate": {}}
COMPANION = {("families", "--l"): "--m", ("families", "--j"): "--r"}
FINDINGS = {"charges", "calibrate"}  # exit 1 on the findings 07b and 06
CASE_CPU_S = 3.0  # a bound is sized to about 1 s CPU with the command's other flags at theirs
# (command, flag, bound) for every bound of every int flag in the table, upper and lower
EDGES = [(name, flag, b) for name, flags in cli.COMMANDS.items()
         for flag, (_kind, _default, *bounds) in flags.items() for b in (bounds[:1] + bounds[2:3])]


def edge_argv(name, flag, value):
    """argv of the command with its flags small but flag at value, and the flag that flag's
    range hangs on, if any, at its upper bound."""
    flags = dict(SMALL[name])
    if (name, flag) in COMPANION:
        other = COMPANION[name, flag]
        flags[other] = cli.COMMANDS[name][other][2]
    flags[flag] = value
    return [name] + [str(x) for item in flags.items() for x in item]


def test_every_int_flag_has_a_range_holding_its_default():
    assert {(name, flag) for name, flag, _b in EDGES} == {
        (name, flag) for name, flags in cli.COMMANDS.items()
        for flag, (kind, *_rest) in flags.items() if kind is int}
    for name, flags in cli.COMMANDS.items():
        for flag, (kind, default, *bounds) in flags.items():
            assert kind is not int or default == "required" or (
                (bounds[2:3] or [default])[0] <= default <= bounds[0])
    assert cli.COMMANDS["critical-levels"]["--mmax"][:3] == (int, 12, 400)
    assert cli.COMMANDS["obstructions"]["--m"][:3] == (int, "required", 200)


@pytest.mark.parametrize("name, flag, bound", EDGES)
def test_flag_bounds_from_the_table(name, flag, bound, capsys):
    """Each bound of an int flag in cli.COMMANDS answers, with the command's other flags small,
    within CASE_CPU_S; one past it is refused in one line naming the bound and its cost,
    before any work."""
    _kind, _default, hi, cost, *low = cli.COMMANDS[name][flag]
    past, why = ((hi + 1, f"above {hi}: {cost}") if bound == hi
                 else (bound - 1, f"below {bound}: {low[1]}"))
    start = _cpu_s()
    with open(os.devnull, "w") as null, redirect_stdout(null):
        assert main(edge_argv(name, flag, bound)) == (1 if name in FINDINGS else 0)
    assert _cpu_s() - start < CASE_CPU_S
    capsys.readouterr()
    with mock.patch.object(cli, "run_command", side_effect=AssertionError("work done past a bound")):
        assert main(edge_argv(name, flag, past)) == 2
    assert capsys.readouterr().err == f"error: {flag} {past} {why}\n"


def test_derivative_order_bound():
    """Orders up to MAX_DERIV_ORDER parse, nested ones added up; one more is a ParseError."""
    assert MAX_DERIV_ORDER == 20
    assert main(["ope", "--m", "3", "--e", "D(beta[1],20)", "--f", "gamma[1]"]) == 0
    # pole order 21 at four extra orders is a shift to MAX_SHIFT_ORDER (24); five is refused
    ope = ["ope", "--m", "3", "--e", "D(beta[1],20)", "--f", "gamma[1]", "--extra-orders"]
    assert main(ope + ["4"]) == 0 and main(ope + ["5"]) == 2
    assert parse_field_expr("D(D(beta[1],15),5)", 2) == parse_field_expr("D(beta[1],20)", 2)
    assert not parse_field_expr("no(D(beta[1],20)*D(b[0],20))", 2).is_zero()
    with pytest.raises(ParseError, match=f"derivative order 21 above {MAX_DERIV_ORDER}"):
        parse_field_expr("D(no(b[0]*D(D(beta[1],15),5)),1)", 2)


def test_parser_nesting_bound():
    """MAX_NESTING wrappers around an atom parse; one more is a ParseError."""
    n = MAX_NESTING
    assert parse_coef("(" * n + "1" + ")" * n) == CoeffK.one()
    assert parse_coef("-" * n + "1") == CoeffK.from_int((-1) ** n)
    assert parse_field_expr("D(" * n + "beta[1]" + ",0)" * n, 2) == FieldExpr.generator("beta", 1)
    n += 1
    for deeper in ("(" * n + "1" + ")" * n, "-" * n + "1"):
        with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING}"):
            parse_coef(deeper)
    with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING}"):
        parse_field_expr("no(" * n + "beta[1]" + ")" * n, 2)


def test_long_integer_literal_refused(capsys):
    """A literal longer than MAX_INT_DIGITS is refused in one line, with the
    bound and its position, before any work; so is a --k in exponent form."""
    assert MAX_INT_DIGITS == 4300
    big = "7" * 5000
    for argv, pos in ((["ope", "--m", "3", "--e", f"exp({big},phi0)", "--f", "exp(1,phi0)"], 4),
                      (["bracket", "--m", "3", "--r", "2", "--x", "e", "--a", f"{big}*t",
                        "--y", "f", "--b", "1"], 0)):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (f"error: integer literal of 5000 digits above {MAX_INT_DIGITS} "
                       f"(at byte offset {pos})\n")
    for k in (big, "1e5000"):
        assert main(["obstructions", "--m", "3", "--k", k]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: level --k ") and str(MAX_INT_DIGITS) in err
        assert err.count("\n") == 1


# The argparse parser the CLI had: the reference that parse_argv is checked against.  It
# also gives the defaults that the CLI applied after parsing, --l 1 and a symbolic --k.
_INT = {"type": int, "required": True}
_GEN = {"choices": ("e", "h", "f"), "required": True}
_TEXT = {"type": str, "required": True}
_SYMBOLIC = {"type": str, "default": "symbolic"}
REFERENCE_FLAGS = {
    "families": (("--m", _INT), ("--r", _INT), ("--j", _INT), ("--l", {"type": int, "default": 1}),
                 ("--kmax", {"type": int, "default": 4})),
    "rescaling": (("--m", _INT), ("--r", _INT), ("--kmax", {"type": int, "default": 20})),
    "kahler-reduce": (("--m", _INT), ("--r", _INT), ("--dt", {"type": str}),
                      ("--du", {"type": str})),
    "dim": (("--m", _INT), ("--r", _INT)),
    "bracket": (("--m", _INT), ("--r", _INT), ("--x", _GEN), ("--a", _TEXT), ("--y", _GEN),
                ("--b", _TEXT)),
    "bracket-audit": (("--m", _INT), ("--r", _INT), ("--expbound", {"type": int, "default": 3})),
    "ope": (("--m", _INT), ("--e", _TEXT), ("--f", _TEXT), ("--k", _SYMBOLIC),
            ("--extra-orders", {"type": int, "default": 0, "dest": "extra_orders"})),
    "charges": (("--m", _INT),),
    "obstructions": (("--m", _INT), ("--k", _SYMBOLIC)),
    "critical-levels": (("--mmax", {"type": int, "default": 12}),),
    "calibrate": (),
}


@functools.cache
def reference_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="secalg")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, flags in REFERENCE_FLAGS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--format", choices=("json", "md"), default="json")
        for flag, kw in flags:
            sp.add_argument(flag, **kw)
    return ap


def reference_parse(argv):
    """(command, params) as the reference reads argv, or None where it refuses it."""
    try:
        with redirect_stderr(io.StringIO()):
            ns = reference_parser().parse_args(argv)
    except SystemExit:
        return None
    return ns.command, {k: v for k, v in vars(ns).items() if k != "command" and v is not None}


def reference_flags(name):
    return {"--format"} | {flag for flag, _ in REFERENCE_FLAGS[name]}


def in_ranges(name, params):
    """Whether each int param given lies in its flag's range in cli.COMMANDS."""
    for flag, (_kind, _default, *bounds) in cli.COMMANDS[name].items():
        v = params.get(flag[2:].replace("-", "_"))
        if bounds and v is not None:
            hi, _cost, *low = bounds
            if v > hi or low and v < low[0]:
                return False
    return True


def joined(argv):
    """argv with each flag spelled out in full and the item after it joined into one
    "--flag=value": the reference reads that value as it is, whatever it starts with."""
    flags, out, i = reference_flags(argv[0]), argv[:1], 1
    while i < len(argv):
        if argv[i] in flags and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def is_prefix_flag(name, item):
    """Whether item stands for a flag by a prefix of its name, as argparse allowed."""
    flag = item.partition("=")[0]
    return (flag.startswith("--") and flag not in reference_flags(name)
            and any(f.startswith(flag) for f in reference_flags(name)))


# values a flag takes, and values it refuses, by kind
_VALUES = {int: (["0", "3", "-1", "+2", " 5 ", "1_0", "-0"], ["x", "", "1.5", "-t", "--m"]),
           str: (["t", "-t", "-t^2", "u + 1", "", "-", "-1", "--m", "e", "=", "a=b"], [])}
_JUNK = ["x", "-1", "-m", "--zz", "--zz=1", "--m3"]


@st.composite
def argvs(draw):
    """A command of the table with its flags in any order, each spelled "--flag value" or
    "--flag=value", dropped or repeated, with values of every kind and stray items."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    flags = cli.COMMANDS[name]
    items = []
    for flag, (kind, default, *_bounds) in flags.items():
        good, bad = _VALUES.get(kind) or (list(kind), ["q", "", "-e", "E"])
        for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2] if default == "required"
                                            else [0, 0, 1, 2]))):
            value = draw(st.sampled_from(good if not bad or draw(st.integers(0, 4)) else bad))
            items.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    argv = [name] + [x for item in draw(st.permutations(items)) for x in item]
    prefixes = [flag[:n] for flag in flags for n in range(3, len(flag)) if flag[:n] not in flags]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(_JUNK + prefixes + [p + "=1" for p in prefixes])))
    return argv


@settings(derandomize=True, max_examples=600, deadline=None)
@given(argv=argvs())
@example(argv=["bracket", "--m", "3", "--r", "2", "--x", "e", "--a", "-t", "--y", "f", "--b", "u"])
@example(argv=["dim", "--m", "-1", "--r=2", "--m", "4", "--format=md"])
@example(argv=["dim", "--m", "3", "--r", "2", "--kma", "4"])
@example(argv=["families", "--m=3", "--r", "2", "--j", " 1 ", "--kmax", "+5", "--l", "1_0"])
@example(argv=["ope", "--m", "3", "--e", "--f", "--f", "-"])
def test_parse_argv_matches_the_reference(argv):
    """Where the reference accepts argv, parse_argv gives its command and params; where it
    refuses the argv with each flag and its value joined, so does main, in one line, before
    any work.  Of the deliberate differences, three change what is accepted: a flag's value
    may start with "-" (the joined form), a flag named by a prefix is refused, and so is an
    int outside its flag's range in cli.COMMANDS, which the reference does not have."""
    prefixed = any(is_prefix_flag(argv[0], item) for item in joined(argv)[1:])
    want = None if prefixed else reference_parse(joined(argv))
    if not prefixed:
        direct = reference_parse(argv)
        assert direct is None or direct == want
    if want is not None and in_ranges(*want):
        cmd = parse_argv(argv)
        assert (cmd.name, cmd.params) == want
        return
    with pytest.raises(ValueError):
        parse_argv(argv)
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(argv) == 2
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# operands for the str flags, each small; a drawn one may still be refused (a sector past m)
OPERANDS = {"--dt": ["t*u", "-t^2", "c*t^-3*u^2"], "--du": ["u", "t^2*u"],
            "--a": ["t*u", "u", "1", "-t^2*u^2"], "--b": ["u", "t^-1", "c*u^2"],
            "--e": ["beta[1]", "no(beta[1]*gamma[1])", "exp(1/s,phi0)"],
            "--f": ["gamma[1]", "gamma[0]", "exp(-1/s,phi0)"], "--k": ["symbolic", "1/2", "-1"]}


@st.composite
def bounded_argvs(draw):
    """A command of the table with its flags drawn small, and at most one int flag one below,
    at or one above one of its bounds."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    argv = {}
    for flag, (kind, default, *_bounds) in cli.COMMANDS[name].items():
        pool = (["-1", "0", "1", "2", "3"] if kind is int else list(kind) if type(kind) is tuple
                else OPERANDS[flag])
        if default == "required" or draw(st.booleans()):
            argv[flag] = draw(st.sampled_from(pool))
    edges = [(flag, b) for n, flag, b in EDGES if n == name]
    if edges and not draw(st.integers(0, 2)):
        flag, bound = draw(st.sampled_from(edges))
        argv[flag] = str(bound + draw(st.sampled_from([-1, 0, 1])))
    return [name] + [x for item in argv.items() for x in item]


def with_edge_examples(test):
    """test with an example of every int flag one below, at and one above each of its bounds,
    the other flags small, and of u^q at coeffs.MAX_EXPANSION_BITS: p^k with k = 512 answers."""
    for name, flag, bound in EDGES:
        for value in (bound - 1, bound, bound + 1):
            test = example(argv=edge_argv(name, flag, value))(test)
    for k in (511, 512, 513):
        test = example(argv=["bracket", "--m", "3", "--r", "2", "--x", "e", "--y", "e",
                             "--a", f"u^{3 * k}", "--b", "1"])(test)
    return test


@settings(derandomize=True, max_examples=60, deadline=None)
@given(argv=bounded_argvs())
@with_edge_examples
def test_argv_at_the_bounds_answers_or_refuses(argv):
    """Every command, with every int flag one below, at and one above its bounds: exit 0, 1 only
    where an asserted finding fails, or 2 in one line, never a traceback, each within
    CASE_CPU_S; an int outside its range is refused before any work."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    outside = not in_ranges(argv[0], {f[2:].replace("-", "_"): int(v) for f, v in flags.items()
                                      if cli.COMMANDS[argv[0]][f][0] is int})
    err = io.StringIO()
    start = _cpu_s()
    with (redirect_stderr(err), open(os.devnull, "w") as null, redirect_stdout(null),
          mock.patch.object(cli, "run_command", side_effect=AssertionError("work done past a bound"))
          if outside else contextlib.nullcontext()):
        status = main(argv)
    assert _cpu_s() - start < CASE_CPU_S, argv
    assert status in (0, 2) or status == 1 and argv[0] in FINDINGS, (argv, status)
    assert "Traceback" not in err.getvalue()
    assert status != 2 or err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert not outside or status == 2


@pytest.mark.parametrize("name", [None, *cli.COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_flag(name, flag, capsys):
    """-h or --help after a command and its flags prints its usage to stdout, listing every
    flag of the table and of the reference, and exits 0; alone, the usage of every command."""
    argv = [flag] if name is None else [name, "--format", "md", flag]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: secalg ")
    for cmd in cli.COMMANDS if name is None else [name]:
        line = next(x for x in out.splitlines() if x.startswith(f"usage: secalg {cmd} "))
        for f in set(cli.COMMANDS[cmd]) | reference_flags(cmd):
            assert f" {f} " in line


@pytest.mark.parametrize("argv", [[], ["--format", "md"], ["frobnicate"], ["dim", "--km", "3"],
                                  ["rescaling", "--m", "3", "--r", "2", "--km", "3"],
                                  ["dim", "--m", "3", "--r"], ["dim", "--m", "3"],
                                  ["bracket", "--m", "3", "--r", "2", "--x", "g", "--a", "t",
                                   "--y", "f", "--b", "u"]])
def test_bad_argv_one_error_line(argv, capsys):
    """A bare secalg, an unknown command, a flag named by a prefix, a flag without its value,
    a missing flag and a value outside the choices each get one error line and exit 2."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,digest", [
    (["bracket", "--m", "3", "--r", "2", "--x", "e", "--a", "-t", "--y", "f", "--b", "u"],
     "fc8832b08bc79fe6f3c4644d66410ab88c4df58a2abadd6160ac30d88561789b"),
    (["kahler-reduce", "--m", "3", "--r", "2", "--dt", "-t^2"],
     "05558d1eb2e4525b4ef27a356927f9d773b61264966b6d8779e4f5fe329e406e"),
    (["obstructions", "--m", "3", "--k", "-1"],
     "32db10d5d61da2251a2768c984c5163006189d6e41a1a9c068dcdbce326c6e8f"),
], ids=["bracket-a-minus-t", "kahler-dt-minus-t2", "obstructions-k-minus-1"])
def test_value_may_start_with_minus(argv, digest, capsys):
    """A value after its flag may start with "-": the answer is that of "--flag=value"."""
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,lines", [(["obstructions", "--m", "20"], 1), (["-h"], 0)])
def test_closed_pipe_ends_quietly(argv, lines):
    """A reader that leaves early, after one line of a report larger than a pipe holds or
    before the usage is written: exit 0, the command's own status, and no traceback."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = f"import sys; sys.path.insert(0, {src!r}); from secalg.cli import main; sys.exit(main())"
    proc = subprocess.Popen([sys.executable, "-c", code, *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines):
        assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0 and err == "", err


_PEAKS = r"""
import resource, subprocess, sys
src, path = sys.argv[1:3]
pre = f"import sys; sys.path.insert(0, {src!r}); from secalg import cli"
for code in (pre, pre + "; sys.exit(cli.main(['obstructions', '--m', '120']))"):
    with open(path, "w") as fh:
        subprocess.run([sys.executable, "-c", code], stdout=fh, check=True)
    print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's")
def test_obstructions_peak_memory_follows_its_output(tmp_path):
    """The report is written as it is encoded, so the peak RSS of `obstructions --m 120`
    (8.5 MB of output) grows over that of a process that only imports secalg.cli by less
    than 4 times its output.  Measured (Linux x86_64, Python 3.11): joining the whole text
    before writing it grew the peak 7.0 times the output, at m = 120 and at m = 200;
    streaming it grows the peak 2.6 times.  Both commands run as children of a small Python
    process, which reads its RUSAGE_CHILDREN after each: a child's ru_maxrss starts from the
    peak of the process it was forked from, here the test run's own."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = tmp_path / "out.json"
    proc = subprocess.run([sys.executable, "-c", _PEAKS, src, str(path)],
                          capture_output=True, text=True, check=True, timeout=60)
    base, peak = (1024 * int(line) for line in proc.stdout.split())
    size = path.stat().st_size
    assert size > 8_000_000
    assert peak - base < 4 * size, (base, peak, size)
