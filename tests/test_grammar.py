"""The operand parser against the character loop and method-per-rule descent it replaced.

``reference_tokenize`` and ``ReferenceParser`` are ``cli._tokenize`` and ``cli._Parser`` as
they were before the tokenizer became one regular expression and the descent a flat one:
every token a (kind, text, byte offset) triple, every rule one method.  They share the
coefficient bounds of ``cli._bound_pair`` (a refusal there is raised at the reference's own
offset) and check every momentum sum of a field product.  Over grammar-shaped strings,
arbitrary text with non-ASCII spaces, digits and letters, and each bound's boundary, the
tokenizer must find the same tokens and the three parsers the same values, or raise the
same exception with the same text, byte offset included.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secalg import cli
from secalg.cli import (MAX_DERIV_ORDER, MAX_INT_DIGITS, MAX_NESTING, MAX_POWER_SPAN, ParseError,
                        _dense, _lifted, _span, parse_coef, parse_field_expr, parse_ring_terms)
from secalg.coeffs import CoeffK, PolyC, as_coeffk, as_polyc, sparse_add
from secalg.ope import GEN_NAMES, FieldExpr

_PUNCT = ("+", "-", "*", "/", "^", "(", ")", "[", "]", ",")
_C = PolyC.c()


def _bound_pair(a, op, b, pos):
    try:
        cli._bound_pair(a, op, b, 0)
    except cli._Refused as exc:
        raise ParseError(exc.args[0], pos) from None


def reference_tokenize(src: str):
    toks = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j - i > MAX_INT_DIGITS:
                raise ParseError(f"integer literal of {j - i} digits above {MAX_INT_DIGITS}", i)
            toks.append(("int", src[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("name", src[i:j], i))
            i = j
            continue
        if ch in _PUNCT:
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", n))
    return toks


class ReferenceParser:
    def __init__(self, src: str):
        self.src = src
        self.toks = reference_tokenize(src)
        self.pos = 0
        self.depth = 0
        self.order = 0  # the largest D( order sum inside the item being parsed

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def accept(self, kind: str) -> bool:
        """Whether the next token is of kind; it is consumed if so."""
        found = self.toks[self.pos][0] == kind
        self.pos += found
        return found

    def expect(self, kind: str):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[1]!r}", t[2])
        return t

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg + f", found {t[1]!r}", t[2])

    def nested(self, rule, *args):
        """rule(*args) one nesting level deeper; a ParseError ends the parse."""
        if self.depth == MAX_NESTING:
            self.fail(f"input nests deeper than {MAX_NESTING} levels")
        self.depth += 1
        val = rule(*args)
        self.depth -= 1
        return val

    # -- coefficient expressions (a PolyC while in Q[c], see the grammar) ------
    def coef_expr(self) -> PolyC | CoeffK:
        val = self.coef_term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            pos, rhs = self.peek()[2], self.coef_term()
            _bound_pair(val, op, rhs, pos)
            val, rhs = _lifted(val, rhs)
            val = val + rhs if op == "+" else val - rhs
        return val

    def coef_term(self, ops: tuple = ("*", "/")) -> PolyC | CoeffK:
        """A chain of coefficient powers joined by the operators in ops."""
        val = self.coef_power()
        while self.peek()[0] in ops:
            op = self.next()[0]
            pos = self.peek()[2]
            rhs = self.coef_power()
            _bound_pair(val, op, rhs, pos)
            if op == "*":
                val, rhs = _lifted(val, rhs)
                val = val * rhs
            else:
                if rhs.is_zero():
                    raise ParseError("division by zero", self.peek()[2])
                val, rhs = _lifted(val, rhs, type(rhs) is PolyC and rhs.degree() > 0)
                val = val / rhs if type(val) is CoeffK else val * Fraction(rhs.den, rhs.num)
        return val

    def coef_power(self) -> PolyC | CoeffK:
        val = self.coef_atom()
        while self.peek()[0] == "^":
            e, t = self.exponent()
            if _dense(val) and _span(val) * abs(e) > MAX_POWER_SPAN:
                raise ParseError(f"power {abs(e)} of a coefficient of exponent span {_span(val)} "
                                 f"spans above {MAX_POWER_SPAN}", t[2])
            if e < 0 and type(val) is PolyC:
                val, e = (PolyC.const(1 / val.cont), -e) if val.degree() == 0 else (as_coeffk(val), e)
            val = val ** e
        return val

    def exponent(self) -> tuple[int, tuple]:
        """"^", an optional "-" and an int: the signed int and the int's token."""
        self.expect("^")
        sign = -1 if self.accept("-") else 1
        t = self.expect("int")
        return sign * int(t[1]), t

    def coef_atom(self) -> PolyC | CoeffK:
        t = self.peek()
        if t[0] == "-":
            self.next()
            return -self.nested(self.coef_power)
        if t[0] == "int":
            self.next()
            return PolyC.const(int(t[1]))
        if t[0] == "(":
            self.next()
            val = self.nested(self.coef_expr)
            self.expect(")")
            return val
        if t[0] == "name":
            if t[1] == "c":
                self.next()
                return _C
            if t[1] == "s":
                self.next()
                return CoeffK.s()
            if t[1] == "k":
                self.next()
                return CoeffK.k()
        self.fail("expected a coefficient")

    # -- ring elements -----------------------------------------------------
    def ring_expr(self) -> dict[tuple[int, int], PolyC]:
        terms: dict[tuple[int, int], PolyC] = {}
        op = "+"
        while True:
            key, v = self.ring_term()
            sparse_add(terms, key, v if op == "+" else -v)
            if self.peek()[0] not in ("+", "-"):
                return terms
            op = self.next()[0]

    def ring_term(self) -> tuple[tuple[int, int], PolyC]:
        coef = PolyC.const(1)
        t_exp = 0
        u_exp = 0
        neg = self.accept("-")
        while True:
            t = self.peek()
            if t[0] == "name" and t[1] in ("t", "u"):
                self.next()
                e = self.exponent()[0] if self.peek()[0] == "^" else 1
                if t[1] == "t":
                    t_exp += e
                else:
                    if e < 0:
                        raise ParseError("u exponent must be non-negative", t[2])
                    u_exp += e
            else:
                rhs = self.coef_term(("/",))
                _bound_pair(coef, "*", rhs, t[2])
                coef, rhs = _lifted(coef, rhs)
                coef = coef * rhs
            if not self.accept("*"):
                break
        if neg:
            coef = -coef
        return (t_exp, u_exp), as_polyc(coef)

    # -- field expressions ---------------------------------------------------
    def field_expr(self, m: int) -> FieldExpr:
        val = self.field_term(m)
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            pos, rhs = self.peek()[2], self.field_term(m)
            for key in val.terms.keys() & rhs.terms.keys():  # each like-term merge
                _bound_pair(val.terms[key], op, rhs.terms[key], pos)
            val = val + rhs if op == "+" else val - rhs
        return val

    def field_term(self, m: int) -> FieldExpr:
        neg = self.accept("-")
        val = self.field_item(m)
        while self.accept("*"):
            pos, rhs = self.peek()[2], self.field_item(m)
            for a in val.terms.values():  # each coefficient product, as in ring_term
                for b in rhs.terms.values():
                    _bound_pair(a, "*", b, pos)
            for _, ma in val.terms:  # each momentum sum
                for _, mb in rhs.terms:
                    _bound_pair(ma, "+", mb, pos)
            val = val * rhs
        return val.scale(CoeffK.from_int(-1)) if neg else val

    def field_item(self, m: int) -> FieldExpr:
        t = self.peek()
        if t[0] == "name" and t[1] in GEN_NAMES:
            return self.field_gen(m)
        if t[0] == "name" and t[1] == "no":
            self.next()
            self.expect("(")
            inner = self.nested(self.field_term, m)
            self.expect(")")
            return inner
        if t[0] == "name" and t[1] == "exp":
            self.next()
            self.expect("(")
            mom = self.coef_expr()
            self.expect(",")
            nm = self.expect("name")
            if nm[1] != "phi0":
                raise ParseError("only the sector-0 scalar 'phi0' is supported", nm[2])
            self.expect(")")
            return FieldExpr.exponential(as_coeffk(mom))
        if t[0] == "name" and t[1] == "D":
            self.next()
            self.expect("(")
            outer, self.order = self.order, 0
            inner = self.nested(self.field_item, m)
            self.expect(",")
            ot = self.expect("int")
            order = int(ot[1])
            if self.order + order > MAX_DERIV_ORDER:
                raise ParseError(f"derivative order {self.order + order} above {MAX_DERIV_ORDER}", ot[2])
            self.expect(")")
            self.order = max(outer, self.order + order)
            for _ in range(order):
                inner = inner.derivative()
            return inner
        # otherwise a coefficient item: power/division chains bind here,
        # "*" returns to the enclosing field term
        return FieldExpr.const(as_coeffk(self.coef_term(("/",))))

    def field_gen(self, m: int) -> FieldExpr:
        t = self.expect("name")
        kind = GEN_NAMES[t[1]]
        self.expect("[")
        st = self.expect("int")
        sector = int(st[1])
        self.expect("]")
        if not 0 <= sector < m:
            raise ParseError(f"sector {sector} out of range for m={m}", st[2])
        return FieldExpr.generator(kind, sector)

    def done(self):
        t = self.peek()
        if t[0] != "end":
            raise ParseError(f"trailing input {t[1]!r}", t[2])




def reference_parse(src: str, rule: str, *args):
    p = ReferenceParser(src)
    val = getattr(p, rule)(*args)
    p.done()
    return as_coeffk(val) if rule == "coef_expr" else val


def _outcome(fn, *args):
    """fn(*args), or the type and text of the exception it raises."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def check_same(src: str) -> None:
    want = _outcome(lambda: [t[1] for t in reference_tokenize(src)[:-1]])
    assert _outcome(cli._tokenize, src) == want
    for got, rule, args in ((parse_coef, "coef_expr", ()), (parse_ring_terms, "ring_expr", ()),
                            (parse_field_expr, "field_expr", (3,))):
        assert _outcome(got, src, *args) == _outcome(reference_parse, src, rule, *args), rule


# tokens of the three grammars, a few near misses, and characters of each class outside ASCII:
# a no-break space, an em space, an Arabic-Indic three, a superscript two (a digit that int()
# refuses), a vulgar half (numeric, not a digit), an accented letter and a file separator
# (ASCII whitespace to str.isspace)
_WORDS = ("0", "1", "2", "3", "12", "c", "s", "k", "t", "u", "beta", "gamma", "b", "no", "exp",
          "D", "phi0", "phi1", "x1_", "+", "-", "*", "/", "^", "(", ")", "[", "]", ",", "_", "$",
          ".", "\xa0", " ", "٣", "\xb2", "\xbd", "\xe9", "\x1c", "c٣", "2\xb2")
_SEPS = ("", " ", "  ", "\t", "\xa0")


@st.composite
def grammar_text(draw):
    """Words joined by separators, a space after a digit so that no long literal forms."""
    words = draw(st.lists(st.sampled_from(_WORDS), max_size=24))
    return "".join(w + (" " if w[-1].isdigit() else draw(st.sampled_from(_SEPS))) for w in words)


_OPERANDS = st.sampled_from(("1", "2", "c", "(c+1)", "(c-1)", "(c^2-1)", "s", "k", "t", "u^2",
                             "t^-1", "beta[0]", "gamma[2]", "b[0]", "D(beta[1],2)", "exp(1/2,phi0)",
                             "exp(1/(c+1),phi0)", "no(beta[1]*gamma[1])", "(1/(c+2))"))


@st.composite
def expression(draw):
    """A well-formed expression of the three grammars, most of it."""
    parts = [draw(_OPERANDS)]
    for _ in range(draw(st.integers(0, 5))):
        op = draw(st.sampled_from(("+", "-", "*", "/", "^")))
        parts.append(op + (draw(st.sampled_from(("2", "-1", "3", "0"))) if op == "^"
                           else draw(_OPERANDS)))
    text = "".join(parts)
    return draw(st.sampled_from(("{}", "-{}", "({})", "no({})", "D({},1)", "exp({},phi0)"))).format(text)


def _boundary_cases():
    """Texts at each parser bound, one below, at and one above it."""
    cases = []
    for n in (MAX_INT_DIGITS - 1, MAX_INT_DIGITS, MAX_INT_DIGITS + 1):
        d = "7" * n
        cases += [d, f"{d}*t", f"t^{d}*u", f"exp({d},phi0)", f"1 + 2{d} $", f"$ {d}{d}",
                  "٣" * n + "*t", f"beta[{d}]"]
    for n in (MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1):
        cases += ["(" * n + "1" + ")" * n, "-" * n + "1", "(-" * (n // 2) + "c" + ")" * (n // 2),
                  "(" * n + "t" + ")" * n, "no(" * n + "beta[1]" + ")" * n,
                  "D(" * n + "beta[1]" + ",0)" * n, "-(" * n + "1" + ")" * n + "^2",
                  "exp(" + "-" * n + "1/s,phi0)", "(" * n + "1" + ")" * (n - 1)]
    for o in (MAX_DERIV_ORDER - 1, MAX_DERIV_ORDER, MAX_DERIV_ORDER + 1):
        cases += [f"D(beta[1],{o})", f"D(D(beta[1],15),{o - 15})", f"no(D(b[0],{o})*gamma[0])",
                  f"D(no(b[0]*D(beta[1],{o - 1})),1)", f"D(D(beta[1],{o}),0)*D(b[0],{o})"]
    return cases


@pytest.mark.parametrize("src", _boundary_cases())
def test_bounds_match_the_reference(src):
    check_same(src)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(grammar_text())
@example("(-1/2 + (3/2)*c)*t^2*u^3 + (1 + (0)*c)*u")
@example("no(D(gamma[1],2)*b[0]*beta[1]*exp(2/3,phi0))")
@example("1/(c-c)")
@example("\xb2")
@example("t^٣ + ٣*u")
@example("exp(1/(c+2)^60,phi0)*exp(1/(c-1)^100,phi0)*beta[0]")
def test_grammar_text_matches_the_reference(src):
    check_same(src)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(expression())
def test_expressions_match_the_reference(src):
    check_same(src)


# at most 8 characters, so that no power of a constant has an exponent of more than 6 digits
@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.text(st.sampled_from("0123c tu+-*/^()[],_$\xa0 ٣\xb2\xbd\xe9\x1c\n"),
               max_size=8) | st.text(max_size=8))
def test_arbitrary_text_matches_the_reference(src):
    check_same(src)
