"""Command-line surface: expression parsers, subcommands, report emitters.

Subcommands wrap the verification operations one-to-one; every command takes
its parameters explicitly (no config files), output is deterministic, and
the exit status is nonzero exactly when an asserted check fails.

Grammar (shared tokens; byte offsets reported on error):

    coefficient := rational | "c" | "s" | "k" | "(" coef ")"
                   combined with "+", "-", "*", "/", and "^" int; a sum,
                   product, quotient or power whose size passes its bound
                   (coeffs.MAX_C_DEGREE, MAX_POWER_SPAN, MAX_SUM_SPAN and
                   MAX_GCD_SIZE, each stated where it is set) exits 2 first;
                   evaluated in Q[c] (PolyC) until s, k, a division by a
                   non-constant or a negative power of one lifts both
                   operands to CoeffK
    ring elem   := term ("+"|"-" term)*,
                   term := item ("*" item)*, item := coefficient | "t"["^"int]
                   | "u"["^"int]; a term's coefficient and its expansion
                   u^q = p^k u^j lie in Q[c] (no s, no k, no denominator in c)
                   within coeffs.MAX_C_DEGREE and coeffs.MAX_EXPANSION_BITS, and
                   a reduction reaches no t exponent beyond kahler.MAX_REACH
                   (checked before any u^q is expanded: check_form_reach), else exit 2
    field expr  := term ("+"|"-" term)*,
                   term := item ("*" item)*,
                   item := coefficient | gen | "no(" term ")"
                   | "exp(" coef "," "phi0" ")" | "D(" factor "," int ")",
                   gen := ("beta"|"gamma"|"b") "[" int "]"; the orders of
                   nested D( add up to at most MAX_DERIV_ORDER (20), and a
                   term's coefficient products are bounded as a ring
                   term's and its momentum sums as a coefficient's, else exit 2
    int         := at most MAX_INT_DIGITS (4300) digits, else exit 2

An int flag outside its range in COMMANDS, which ``secalg --help`` prints, exits 2 before any work.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from typing import NamedTuple, Optional

from .coeffs import CoeffK, PolyC, as_coeffk, as_polyc, sparse_add
from .families import (
    INDEX_RECONCILIATION_NOTE,
    FamilySpec,
    family_table,
    rescaling_check,
)
from .kahler import (DiffForm, RingParams, basis_dim, check_cocycle_reach, check_form_reach,
                     reduce_oracle)
from .ope import GEN_NAMES, MAX_EXTRA_ORDERS, FieldExpr, classification_text, is_laurent, wick_ope
from .ring import RingElem
from .uce import (GENS, CurrentElem, UCEElem, formula_vs_oracle, killing,
                  uce_bracket_formula, uce_bracket_oracle)
from . import wakimoto


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at byte offset {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

MAX_NESTING = 100  # parentheses, signs, D( and no( around an atom, counted together
MAX_DERIV_ORDER = 20  # D( orders around an atom, added up: Taylor shifts grow like partition numbers
MAX_INT_DIGITS = 4300  # digits of one integer literal (also a --k), as many as int() reads by default
MAX_POWER_SPAN = 2000  # _span times the power of a coefficient of more than one term, or the
# two spans of a product or quotient of two such coefficients added up: products are quadratic
MAX_SUM_SPAN = 128  # two denominator spans of a sum added up: 1/(c+2)^a + 1/(c-1)^b is under 1 s
MAX_GCD_SIZE = 10**6  # span x span x bits of a product, quotient or sum; exponent x bits of a power
EMIT_CHUNKS = 1024  # the chunks of a report that one write joins, at most
_C, _ONE = PolyC.c(), PolyC.const(1)
_TOKEN = re.compile(r"[0-9]+|[A-Za-z]\w*|[-+*/^()\[\],]")  # an int, a name or a punctuation mark


def _classed(src: str) -> str:
    """src with each non-ASCII character replaced by an ASCII one of its class: a space, a digit,
    a letter, "_" (another alphanumeric, which only continues a name) or "?" (none)."""
    return src if src.isascii() else "".join(
        ch if ch.isascii() else " " if ch.isspace() else "0" if ch.isdigit() else "a"
        if ch.isalpha() else "_" if ch.isalnum() else "?" for ch in src)


def _tokenize(src: str) -> list[str]:
    """The tokens of src, left to right: an int (digits), a name (a letter, then letters, digits
    and "_") or a punctuation mark, as ``str.isdigit``, ``isalpha``, ``isalnum`` and
    ``isspace`` class the characters.  An unexpected character or an int of more than
    MAX_INT_DIGITS digits, whichever comes first, is a ParseError."""
    text = _classed(src)
    toks = _TOKEN.findall(text)
    if "".join(toks) != "".join(text.split()) or len(src) > MAX_INT_DIGITS:
        end = 0
        for mt in (*_TOKEN.finditer(text), None):
            gap = text[end:mt.start() if mt else len(text)]
            if gap.strip():
                i = end + len(gap) - len(gap.lstrip())
                raise ParseError(f"unexpected character {src[i]!r}", i)
            if mt and text[mt.start()].isdigit() and mt.end() - mt.start() > MAX_INT_DIGITS:
                raise ParseError(f"integer literal of {mt.end() - mt.start()} digits above "
                                 f"{MAX_INT_DIGITS}", mt.start())
            end = mt and mt.end()
    return toks if text is src else [src[mt.start():mt.end()] for mt in _TOKEN.finditer(text)]


class _Refused(Exception):
    """``_Refused(message, left)``: a ParseError at the token that has ``left`` tokens, itself
    and the end included, from it to the end; ``_parse`` gives it its byte offset."""


def _parse(src: str, rule, *args):
    """rule(parser, *args) over the whole of src."""
    p = _Parser(src)
    try:
        val = rule(p, *args)
        if p.toks[-1]:
            raise _Refused(f"trailing input {p.toks[-1]!r}", len(p.toks))
    except _Refused as exc:
        msg, left = exc.args
        starts = [mt.start() for mt in _TOKEN.finditer(_classed(src))] + [len(src)]
        raise ParseError(msg, starts[-left]) from None
    return val


class _Parser:
    """A descent over src's tokens, held reversed above the end token "": the next token is
    ``toks[-1]`` and ``toks.pop()`` takes it."""

    def __init__(self, src: str):
        self.toks = [""] + _tokenize(src)[::-1]
        self.depth = 0
        self.order = 0  # the largest D( order sum inside the item being parsed

    def expect(self, kind: str) -> str:
        """The next token, taken: kind itself, or of kind "int" or "name"."""
        t = self.toks.pop()
        if not (t.isdigit() if kind == "int" else t[:1].isalpha() if kind == "name" else t == kind):
            raise _Refused(f"expected {kind!r}, found {t!r}", len(self.toks) + 1)
        return t

    def deeper(self) -> None:
        """One nesting level more, up to MAX_NESTING; the caller ends it by ``depth -= 1``."""
        if self.depth == MAX_NESTING:
            raise _Refused(f"input nests deeper than {MAX_NESTING} levels, found {self.toks[-1]!r}",
                           len(self.toks))
        self.depth += 1

    def exponent(self) -> tuple[int, int]:
        """"^", an optional "-" and an int: the signed int and the int's ``left``."""
        toks = self.toks
        toks.pop()
        t = toks.pop()
        sign = 1
        if t == "-":
            sign, t = -1, toks.pop()
        if not t.isdigit():
            raise _Refused(f"expected 'int', found {t!r}", len(toks) + 1)
        return sign * int(t), len(toks) + 1

    # -- coefficient expressions (a PolyC while in Q[c], see the grammar) ------
    def coef_expr(self) -> PolyC | CoeffK:
        toks = self.toks
        val = self.coef_term()
        while toks[-1] in ("+", "-"):
            op = toks.pop()
            pos = len(toks)
            rhs = self.coef_term()
            _bound_pair(val, op, rhs, pos)
            val, rhs = _lifted(val, rhs)
            val = val + rhs if op == "+" else val - rhs
        return val

    def coef_term(self, ops: tuple = ("*", "/")) -> PolyC | CoeffK:
        """A chain of coefficient powers joined by the operators in ops.  A power is an atom, its
        "^" exponents and the unary minus signs before it, each sign one nesting level."""
        toks = self.toks
        op = None
        while True:
            depth = self.depth
            t = toks.pop()
            while t == "-":
                self.deeper()
                t = toks.pop()
            if t == "c":
                rhs = _C
            elif t.isdigit():
                rhs = PolyC.const(int(t))
            elif t == "(":
                self.deeper()
                rhs = self.coef_expr()
                self.depth -= 1
                self.expect(")")
            elif t == "s" or t == "k":
                rhs = CoeffK.s() if t == "s" else CoeffK.k()
            else:
                raise _Refused(f"expected a coefficient, found {t!r}", len(toks) + 1)
            while toks[-1] == "^":
                e, epos = self.exponent()
                if _dense(rhs) and _span(rhs) * abs(e) > MAX_POWER_SPAN:
                    raise _Refused(f"power {abs(e)} of a coefficient of exponent span {_span(rhs)} "
                                   f"spans above {MAX_POWER_SPAN}", epos)
                if abs(e) * (bits := _widest(rhs)) > MAX_GCD_SIZE:
                    raise _Refused(f"power {abs(e)} of a coefficient of {bits}-bit integers is "
                                   f"above {MAX_GCD_SIZE} in exponent x bits", epos)
                if e < 0 and type(rhs) is PolyC:
                    rhs, e = (PolyC.const(1 / rhs.cont), -e) if rhs.degree() == 0 else (as_coeffk(rhs), e)
                rhs = rhs ** e
            if (self.depth - depth) & 1:
                rhs = -rhs
            self.depth = depth
            if op is None:
                val = rhs
            else:
                _bound_pair(val, op, rhs, pos)
                if op == "*":
                    val, rhs = _lifted(val, rhs)
                    val = val * rhs
                else:
                    if rhs.is_zero():
                        raise _Refused("division by zero", len(toks))
                    val, rhs = _lifted(val, rhs, type(rhs) is PolyC and rhs.degree() > 0)
                    val = val / rhs if type(val) is CoeffK else val * Fraction(rhs.den, rhs.num)
            if toks[-1] not in ops:
                return val
            op = toks.pop()
            pos = len(toks)

    # -- ring elements -----------------------------------------------------
    def ring_expr(self) -> dict[tuple[int, int], PolyC]:
        toks = self.toks
        terms: dict[tuple[int, int], PolyC] = {}
        op = "+"
        while True:
            key, v = self.ring_term()
            sparse_add(terms, key, v if op == "+" else -v)
            if toks[-1] not in ("+", "-"):
                return terms
            op = toks.pop()

    def ring_term(self) -> tuple[tuple[int, int], PolyC]:
        toks = self.toks
        coef = _ONE
        t_exp = 0
        u_exp = 0
        neg = toks[-1] == "-" and toks.pop()
        while True:
            t = toks[-1]
            if t == "t" or t == "u":
                toks.pop()
                pos = len(toks) + 1
                e = self.exponent()[0] if toks[-1] == "^" else 1
                if t == "t":
                    t_exp += e
                else:
                    if e < 0:
                        raise _Refused("u exponent must be non-negative", pos)
                    u_exp += e
            else:
                pos = len(toks)
                rhs = self.coef_term(("/",))
                if coef is _ONE:  # the first factor: 1 * rhs is rhs
                    coef = rhs
                else:
                    _bound_pair(coef, "*", rhs, pos)
                    coef, rhs = _lifted(coef, rhs)
                    coef = coef * rhs
            if toks[-1] != "*":
                break
            toks.pop()
        if neg:
            coef = -coef
        return (t_exp, u_exp), as_polyc(coef)

    # -- field expressions ---------------------------------------------------
    def field_expr(self, m: int) -> FieldExpr:
        toks = self.toks
        val = self.field_term(m)
        while toks[-1] in ("+", "-"):
            op = toks.pop()
            pos = len(toks)
            rhs = self.field_term(m)
            for key in val.terms.keys() & rhs.terms.keys():  # each like-term merge
                _bound_pair(val.terms[key], op, rhs.terms[key], pos)
            val = val + rhs if op == "+" else val - rhs
        return val

    def field_term(self, m: int) -> FieldExpr:
        toks = self.toks
        neg = toks[-1] == "-" and toks.pop()
        val = self.field_item(m)
        while toks[-1] == "*":
            toks.pop()
            pos = len(toks)
            rhs = self.field_item(m)
            for a in val.terms.values():  # each coefficient product, as in ring_term
                for b in rhs.terms.values():
                    _bound_pair(a, "*", b, pos)
            fractions = [mb for _, mb in rhs.terms if not mb.den.is_const()]
            for _, ma in val.terms if fractions else ():  # each momentum sum, as in coef_expr
                for mb in fractions:
                    _bound_pair(ma, "+", mb, pos)
            val = val * rhs
        return val.scale(CoeffK.from_int(-1)) if neg else val

    def field_item(self, m: int) -> FieldExpr:
        toks = self.toks
        t = toks[-1]
        if t in GEN_NAMES:
            toks.pop()
            self.expect("[")
            sector = int(self.expect("int"))
            pos = len(toks) + 1
            self.expect("]")
            if not 0 <= sector < m:
                raise _Refused(f"sector {sector} out of range for m={m}", pos)
            return FieldExpr.generator(GEN_NAMES[t], sector)
        if t == "no":
            toks.pop()
            self.expect("(")
            self.deeper()
            inner = self.field_term(m)
            self.depth -= 1
            self.expect(")")
            return inner
        if t == "exp":
            toks.pop()
            self.expect("(")
            mom = self.coef_expr()
            self.expect(",")
            if self.expect("name") != "phi0":
                raise _Refused("only the sector-0 scalar 'phi0' is supported", len(toks) + 1)
            self.expect(")")
            return FieldExpr.exponential(as_coeffk(mom))
        if t == "D":
            toks.pop()
            self.expect("(")
            outer, self.order = self.order, 0
            self.deeper()
            inner = self.field_item(m)
            self.depth -= 1
            self.expect(",")
            order = int(self.expect("int"))
            pos = len(toks) + 1
            if self.order + order > MAX_DERIV_ORDER:
                raise _Refused(f"derivative order {self.order + order} above {MAX_DERIV_ORDER}", pos)
            self.expect(")")
            self.order = max(outer, self.order + order)
            for _ in range(order):
                inner = inner.derivative()
            return inner
        # otherwise a coefficient item: power/division chains bind here,
        # "*" returns to the enclosing field term
        return FieldExpr.const(as_coeffk(self.coef_term(("/",))))


def _lifted(a: PolyC | CoeffK, b: PolyC | CoeffK, leave: bool = False) -> tuple:
    """(a, b) while both are PolyC values and the operation stays in Q[c], else both lifted."""
    return (a, b) if type(a) is type(b) is PolyC and not leave else (as_coeffk(a), as_coeffk(b))


def _span(x: PolyC | CoeffK, den: bool = False) -> int:
    """The span of x's c exponents plus three times that of its s exponents, numerator and
    denominator added up, or the denominator's alone: a product spends about three times as
    long per s exponent (a PolyC)."""
    if type(x) is PolyC:
        return 0 if den else x.degree() - x.val
    return sum(max(map(PolyC.degree, p.by_s.values())) - min(q.val for q in p.by_s.values())
               + 3 * (max(p.by_s) - min(p.by_s)) for p in ((x.den,) if den else (x.num, x.den)))


def _fraction(x: PolyC | CoeffK) -> tuple[int, int, int]:
    """x's numerator and denominator spans, as ``_span`` counts them, and widest integer's bits."""
    parts = (x,) if type(x) is PolyC else (*x.num.by_s.values(), *x.den.by_s.values())
    bits = max(abs(v).bit_length() for p in parts for v in p.ints)
    return _span(x) - _span(x, True), _span(x, True), bits


def _widest(x: PolyC | CoeffK) -> int:
    """The bits of x's widest integer, contents included; 0 for 1, whose powers do not grow."""
    parts = (x,) if type(x) is PolyC else (*x.num.by_s.values(), *x.den.by_s.values())
    w = max(max(abs(p.num) * max(map(abs, p.ints), default=0), p.den) for p in parts)
    return w.bit_length() if w > 1 else 0


def _dense(x: PolyC | CoeffK) -> bool:
    """Whether x has more than one term, numerator and denominator together."""
    return x.n_terms() > 1 if type(x) is PolyC else x.num.n_terms() * x.den.n_terms() > 1


def _bound_pair(a: PolyC | CoeffK, op: str, b: PolyC | CoeffK, pos: int) -> None:
    """Refuse a op b before it is worked out: a product or quotient of two coefficients of more
    than one term each above MAX_POWER_SPAN, and a sum or difference of two fractions whose
    denominators have nonzero span above MAX_SUM_SPAN, as its gcd is steep; and either above
    MAX_GCD_SIZE, a sum's numerator spanning as its two cross products."""
    sums = op in "+-"
    if not (type(a) is type(b) is CoeffK if sums else _dense(a) and _dense(b)):
        return
    sa, sb, bound = _span(a, sums), _span(b, sums), MAX_SUM_SPAN if sums else MAX_POWER_SPAN
    if sums and not (sa and sb):
        return
    what = {"*": "product", "/": "quotient", "+": "sum", "-": "difference"}[op]
    if sa and sb and sa + sb > bound:
        raise _Refused(f"{what} of coefficients of {'denominator' if sums else 'exponent'} "
                       f"spans {sa} and {sb} spans above {bound}", pos)
    (an, ad, ab), (bn, bd, bb) = _fraction(a), _fraction(b)
    num, den = {"*": (an + bn, ad + bd), "/": (an + bd, ad + bn)}.get(op, (max(an + bd, bn + ad), ad + bd))
    if num * den * (ab + bb) > MAX_GCD_SIZE:
        raise _Refused(f"{what} of numerator span {num}, denominator span {den} and {ab + bb}"
                       f"-bit coefficients is above {MAX_GCD_SIZE} in their product", pos)


def parse_coef(src: str) -> CoeffK:
    return as_coeffk(_parse(src, _Parser.coef_expr))


def parse_ring_terms(src: str) -> dict[tuple[int, int], PolyC]:
    """The terms {(t exponent, u exponent): coefficient in Q[c]}, like terms merged, u^q unexpanded."""
    return _parse(src, _Parser.ring_expr)


def ring_from_terms(params: RingParams, terms: dict[tuple[int, int], PolyC]) -> RingElem:
    """The sum of the terms: one with u < m written straight into its sector, and each u^q with
    q >= m expanded by ``RingElem.monomial``."""
    sectors: dict[int, dict[int, PolyC]] = {}
    for (t, u), v in terms.items():
        for l, lt in ({u: {t: v}} if u < params.m else RingElem.monomial(params, v, t, u).sectors).items():
            acc = sectors.setdefault(l, {})
            for e, w in lt.items():
                sparse_add(acc, e, w)
    return RingElem._of(params, {l: lt for l, lt in sectors.items() if lt})


def parse_ring_elem(src: str, params: RingParams) -> RingElem:
    return ring_from_terms(params, parse_ring_terms(src))


def parse_field_expr(src: str, m: int) -> FieldExpr:
    """Parse the field-expression grammar; sector indices range-checked."""
    return _parse(src, _Parser.field_expr, m)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

class Command(NamedTuple):
    name: str
    params: dict


def emit_report(report, fmt: str = "json", out=None) -> Optional[str]:
    """``json.dumps(report, indent=2, sort_keys=True)`` byte for byte, in one pass; fenced for md.
    Returned, or written to out with a newline as it is encoded (see _write_report)."""
    chunks, end = (["```json\n"], "\n```") if fmt == "md" else ([], "")
    if out is None:
        _emit(report, "\n", chunks, None)
        return "".join(chunks) + end
    _write_report(out, chunks, lambda: _emit(report, "\n", chunks, out), end + "\n")


def _write_report(out, chunks: list, emit=lambda: None, end: str = "\n") -> None:
    """Write the chunks, those that emit() adds as it goes and end to out, so that no whole text
    is joined.  A reader that leaves early (a closed pipe) ends the output quietly: out is
    pointed at the null device, so that no later flush raises."""
    try:
        emit()
        _flush(chunks, out, 1)
        out.write(end)
        out.flush()
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, out.fileno())
        os.close(null)


def _flush(chunks: list, out, least: int) -> None:
    """While at least ``least`` chunks wait, write the first EMIT_CHUNKS in one piece to out."""
    while len(chunks) >= least:
        out.write("".join(chunks[:EMIT_CHUNKS]))
        del chunks[:EMIT_CHUNKS]


def _emit(x, nl: str, chunks: list, sink) -> None:
    """Append the text of x, its lines indented after ``nl``, to ``chunks``: exact dicts with str
    keys, lists, tuples, strs, ints, bools and None here, each scalar in one chunk with the
    separator and key before it; any other value through ``json.dumps`` itself.  Each item of
    a list (a report's long containers; a dict is a record) first flushes to the sink, if any,
    once EMIT_CHUNKS chunks wait."""
    t = type(x)
    enc = _SCALARS.get(t)
    if enc:
        chunks.append(enc(x))
    elif t is dict and all(type(k) is str for k in x):
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(x):
            v = x[k]
            enc = _SCALARS.get(type(v))
            head = sep + _encode_str(k) + ": "
            if enc:
                chunks.append(head + enc(v))
            else:
                chunks.append(head)
                _emit(v, inner, chunks, sink)
            sep = "," + inner
        chunks.append(nl + "}" if x else "{}")
    elif t is list or t is tuple:
        inner = nl + "  "
        head = "[" + inner
        for v in x:
            if len(chunks) >= EMIT_CHUNKS and sink is not None:
                _flush(chunks, sink, EMIT_CHUNKS)
            enc = _SCALARS.get(type(v))
            if enc:
                chunks.append(head + enc(v))
            else:
                chunks.append(head)
                _emit(v, inner, chunks, sink)
            head = "," + inner
        chunks.append(nl + "]" if x else "[]")
    else:
        chunks.append(json.dumps(x, indent=2, sort_keys=True).replace("\n", nl))


_SCALARS = {str: _encode_str, int: int.__repr__, bool: ("false", "true").__getitem__,
            type(None): {None: "null"}.__getitem__}


def _parse_k(text: str) -> Optional[Fraction]:
    if text == "symbolic":
        return None
    if len(text) > MAX_INT_DIGITS or "e" in text.lower():  # Fraction reads 1e9 as 10**9
        raise ValueError(f"level --k {text[:20]}: not a rational of at most {MAX_INT_DIGITS} "
                         "characters without an exponent")
    try:
        k = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"level --k {text} has a zero denominator") from None
    if k == 0:
        raise ValueError("level --k 0: the operators divide by k")
    return k


def run_command(cmd: Command, out=None) -> int:
    """Dispatch a validated command; returns the exit status."""
    out = out if out is not None else sys.stdout
    p = {**_defaults(COMMANDS.get(cmd.name, {})), **cmd.params}
    fmt = p["format"]

    if cmd.name == "families":
        m, r, j, l = p["m"], p["r"], p["j"], p["l"]
        if not 1 <= l <= m - 1:
            raise ValueError(f"sector --l {l} outside 1..m-1 = 1..{m - 1}")
        spec = FamilySpec(l=l, j=j, m_prime=Fraction(m, l), r=r)
        table = family_table(spec, p["kmax"])
        if fmt == "md":
            _write_report(out, [table.to_markdown()], end=f"\n\nnote: {INDEX_RECONCILIATION_NOTE}\n")
        else:
            emit_report({**table.to_json_dict(), "note": INDEX_RECONCILIATION_NOTE}, out=out)
        return 0

    if cmd.name == "rescaling":
        certs = rescaling_check(p["m"], p["r"], k_max=p["kmax"])
        failures = [c for c in certs if not c["holds"]]
        doc = {
            "m": p["m"], "r": p["r"], "k_max": p["kmax"],
            "checked": sum(c["covers"] for c in certs if c["holds"]), "failures": failures,
        }
        emit_report(doc, fmt, out)
        return 0 if not failures else 1

    if cmd.name == "kahler-reduce":
        params = RingParams(p["m"], p["r"])
        dt, du = (parse_ring_terms(p[k]) if p.get(k) else {} for k in ("dt", "du"))
        check_form_reach(params, dt, du)  # before any u^q is expanded
        cls = reduce_oracle(DiffForm(ring_from_terms(params, dt), ring_from_terms(params, du)))
        emit_report(cls.to_json_dict(), fmt, out)
        return 0

    if cmd.name == "dim":
        params = RingParams(p["m"], p["r"])
        d = basis_dim(params)
        expected = 2 * p["r"] * (p["m"] - 1) + 1
        emit_report({"m": p["m"], "r": p["r"], "dim": d, "expected": expected,
                     "ok": d == expected}, fmt, out)
        return 0 if d == expected else 1

    if cmd.name == "bracket":
        params = RingParams(p["m"], p["r"])
        ta, tb = parse_ring_terms(p["a"]), parse_ring_terms(p["b"])
        if killing(p["x"], p["y"]):
            check_cocycle_reach(params, ta, tb)  # before any u^q is expanded
        fa, fb = ring_from_terms(params, ta), ring_from_terms(params, tb)
        A = UCEElem(CurrentElem(params, {p["x"]: fa}))
        B = UCEElem(CurrentElem(params, {p["y"]: fb}))
        oracle = uce_bracket_oracle(A, B)
        formula = uce_bracket_formula(A, B)
        doc = {
            "oracle": {"current": oracle.current.render(),
                       "central": oracle.central.to_json_dict()},
            "formula": {"current": formula.current.render(),
                        "central": formula.central.to_json_dict()},
            "match": oracle == formula,
        }
        emit_report(doc, fmt, out)
        return 0

    if cmd.name == "bracket-audit":
        params = RingParams(p["m"], p["r"])
        rep = formula_vs_oracle(params, exp_bound=p["expbound"])
        summary: dict = {}
        for e in rep:
            st = summary.setdefault(e["type"], {"pass": 0, "fail": 0})
            st["pass" if e["match"] else "fail"] += 1
        doc = {"summary": summary, "pairs": rep}
        emit_report(doc, fmt, out)
        return 0

    if cmd.name == "calibrate":
        res = wakimoto.calibrate_conventions()
        emit_report(res.to_json_dict(), fmt, out)
        return 0 if len(res.passing) == 1 else 1

    if cmd.name == "ope":
        m = p["m"]
        conv, status = wakimoto.working_config()
        E = parse_field_expr(p["e"], m)
        Fx = parse_field_expr(p["f"], m)
        res = wick_ope(E, Fx, conv, extra_orders=p["extra_orders"])
        doc = res.to_json_dict()
        doc["classification"] = classification_text(is_laurent(res, _parse_k(p["k"])))
        doc["conventions"] = status
        emit_report(doc, fmt, out)
        return 0

    if cmd.name == "charges":
        conv, status = wakimoto.working_config()
        ops = wakimoto.build_operators(p["m"], conv)
        rep = wakimoto.verify_charge_relations(ops)
        rep["calibration"] = status
        emit_report(rep, fmt, out)
        return 0 if rep["ok"] else 1

    if cmd.name == "obstructions":
        rep = wakimoto.obstruction_report(p["m"], _parse_k(p["k"]))
        if fmt == "md":
            _write_report(out, [rep.to_markdown()])
        else:
            emit_report(rep.to_json_dict(), out=out)
        return 0

    if cmd.name == "critical-levels":
        rows = []
        ok = True
        for m in range(2, p["mmax"] + 1):
            for l in range(1, m):
                kc = wakimoto.critical_level(l, m)
                sym = kc == wakimoto.critical_level(m - l, m)
                expq = wakimoto.critical_level_exponent_check(l, m)
                ok = ok and sym and expq
                rows.append({"m": m, "l": l, "k_crit": str(kc),
                             "symmetry": sym, "exponent_identity": expq})
        emit_report({"rows": rows, "ok": ok}, fmt, out)
        return 0 if ok else 1

    raise ValueError(f"unknown command {cmd.name!r}")


_RING = dict.fromkeys(["--m", "--r"], (int, "required", 10**5,
                                       "the table has m - 1 sectors, each memo 2r seeds"))
# command -> {flag: (kind, default[, upper bound, cost[, lower bound, reason]])}: kind int, str or
# choices; default "required", a value or None.  An int's upper bound costs about 1 s CPU with the
# other flags at theirs; a range hanging on another flag (families --l, --j) is the command's.
COMMANDS = {name: {"--format": (("json", "md"), "json"), **flags} for name, flags in {
    "families": {"--m": (int, "required", 1000, "m' = m/l widens the values' integers"),
                 "--r": (int, "required", 10**5, "the table has kmax + 2r + 1 values"),
                 "--j": (int, "required", 2 * 10**5, "j lies in 1..2r"),
                 "--l": (int, 1, 999, "l lies in 1..m-1"),
                 "--kmax": (int, 4, 700, "the table grows about as kmax^3 at r = 2")},
    "rescaling": {"--m": (int, "required", 10**5, "one certificate per sector, m - 1 in all"),
                  "--r": (int, "required", 10**6, "a certificate costs the same at any r"),
                  "--kmax": (int, 20, 10**6, "a certificate costs the same at any kmax")},
    "kahler-reduce": {**_RING, "--dt": (str, None), "--du": (str, None)},
    "dim": dict.fromkeys(["--m", "--r"], (int, "required", 1000, "4r(m-1) window columns to solve")),
    "bracket": {**_RING, "--x": (GENS, "required"), "--a": (str, "required"),
                "--y": (GENS, "required"), "--b": (str, "required")},
    "bracket-audit": {"--m": (int, "required", 10, "the audit has (m(2 expbound + 1))^2 pairs"),
                      "--r": (int, "required", 400, "a pair's cocycle reaches about t^(2r)"),
                      "--expbound": (int, 3, 6, "the audit has (m(2 expbound + 1))^2 pairs")},
    "ope": {"--m": (int, "required", 10**6, "m only names the sectors an operand may use"),
            "--e": (str, "required"), "--f": (str, "required"), "--k": (str, "symbolic"),
            "--extra-orders": (int, 0, MAX_EXTRA_ORDERS, "Taylor shifts grow like partitions")},
    "charges": {"--m": (int, "required", 20000, "the report has m - 1 entries, one per sector")},
    "obstructions": {"--m": (int, "required", 200, "the matrix has m^2 cells"),
                     "--k": (str, "symbolic")},
    "critical-levels": {"--mmax": (int, 12, 400, "the table has about mmax^2/2 rows",
                                   2, "there is no sector to check")},
    "calibrate": {},
}.items()}


def _defaults(flags: dict) -> dict:
    """The params that a command's flags in COMMANDS give by default, keyed as in parse_argv."""
    return {f[2:].replace("-", "_"): s[1] for f, s in flags.items() if s[1] not in (None, "required")}


def usage(name: Optional[str] = None) -> str:
    """A line for the command named, or for each command, giving every flag's type, an int's
    range ("in lo..hi", lo left out where there is none), and "required" or its default."""
    return "\n".join(f"usage: secalg {cmd}" + "".join(
        f" {flag} {'|'.join(kind) if type(kind) is tuple else kind.__name__}"
        + (f" in {''.join(map(str, bounds[2:3]))}..{bounds[0]}" if bounds else "")
        + ("" if default is None else f" ({default})")
        for flag, (kind, default, *bounds) in COMMANDS[cmd].items())
        for cmd in ([name] if name else COMMANDS))


def parse_argv(argv: list[str]) -> Command:
    """The command argv names and its params, checked against COMMANDS, else a ValueError.
    Each flag is spelled out in full, as "--flag value" or "--flag=value", and the item after
    a flag is always its value; the params hold every default but None.  "-h" or "--help"
    gives Command("help", {"text": usage})."""
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        return Command("help", {"text": usage()})
    if name not in COMMANDS:
        raise ValueError(f"expected a command, one of {', '.join(COMMANDS)}"
                         + (f"; found {name!r}" if argv else ""))
    flags = COMMANDS[name]
    params = _defaults(flags)
    items = iter(argv[1:])
    for item in items:
        if item in ("-h", "--help"):
            return Command("help", {"text": usage(name)})
        flag, eq, value = item.partition("=")
        if flag not in flags:
            raise ValueError(f"{name}: unknown argument {item!r}; flags: {', '.join(flags)}")
        value = value if eq else next(items, None)
        if value is None:
            raise ValueError(f"{name}: {flag} expects a value")
        kind = flags[flag][0]
        if type(kind) is tuple and value not in kind:
            raise ValueError(f"{name}: {flag} takes one of {', '.join(kind)}, found {value!r}")
        try:
            params[flag[2:].replace("-", "_")] = int(value) if kind is int else value
        except ValueError:
            raise ValueError(f"{name}: {flag} takes an int, found {value!r}") from None
    missing = [f for f, spec in flags.items() if spec[1] == "required" and f[2:] not in params]
    if missing:
        raise ValueError(f"{name}: missing {', '.join(missing)}")
    for flag, spec in flags.items():  # an int's (int, default, hi, its cost[, lo, its reason])
        for past, bound, why in zip(("above", "below"), spec[2::2], spec[3::2]):
            v = params[flag[2:].replace("-", "_")]
            if v > bound if past == "above" else v < bound:
                raise ValueError(f"{flag} {v} {past} {bound}: {why}")
    return Command(name, params)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        cmd = parse_argv(sys.argv[1:] if argv is None else argv)
        if cmd.name == "help":
            _write_report(sys.stdout, [cmd.params["text"]])
            return 0
        return run_command(cmd)
    except (ValueError, ZeroDivisionError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
