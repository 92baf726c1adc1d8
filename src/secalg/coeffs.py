"""Exact coefficient arithmetic.

Three layers, all exact over Q (Python integers and ``fractions.Fraction``):

* ``PolyC``   -- univariate polynomials in the curve parameter ``c``, each a
  rational content times a primitive integer polynomial (von zur Gathen and
  Gerhard, *Modern Computer Algebra*, ch. 6).  The content is a reduced pair
  of Python ints, so content arithmetic builds no ``Fraction``, and a product
  of two integer contents (denominator 1) takes no gcd.  By Gauss's lemma a
  product of primitive polynomials is primitive, so a product convolves
  integers with no gcd, and a sum takes one integer gcd rather than one per
  coefficient; ``c_lincomb`` takes a step of the family recurrence in one
  such pass.  The algebra side (ring, Kahler reduction, cocycle, bracket,
  families) lives in Q[c]: p(t) is in Z[c][t] and every relation pivot is a
  nonzero rational.
* ``Poly2``   -- sparse bivariate polynomials in ``c`` and ``s`` with
  ``Fraction`` coefficients.
* ``CoeffK``  -- the coefficient field Frac(Q[c, s]), stored as a canonical
  reduced fraction of two ``Poly2`` values.  It serves the free-field side
  (OPEs, Wakimoto operators) and the CLI coefficient parser; ``as_polyc`` is
  the one way from it into the algebra side.

``s`` is the primitive level variable; the level itself is ``k = s**2`` and
is rewritten into ``s`` on input and out of ``s`` only for display or
specialization.  Canonical form: gcd-reduced fraction whose denominator has
leading coefficient 1 under graded-lex order with ``c < s``.  Equality of
canonical forms is structural, so it is decidable and unique.

Every denominator the free-field side builds is a monomial ``c^a s^b``.  A
gcd with a one-term argument is the monomial of the least exponents, and
division by one term shifts exponents, so those skip the primitive PRS; only
other denominators (the parser accepts e.g. ``1/(c-1)``) run it.

All values are immutable after construction and every operation is a pure
function, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional


class SpecializationError(ValueError):
    """Raised when a substitution would leave the rational field."""


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def rat_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a rational, or None if irrational/negative."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


# ---------------------------------------------------------------------------
# Univariate polynomials in c
# ---------------------------------------------------------------------------

#: PolyC stores every coefficient up to its degree, so outside input is held to this degree.
MAX_C_DEGREE = 100_000


def _ratio_mul(pa: int, qa: int, pb: int, qb: int) -> tuple[int, int]:
    """``pa/qa * pb/qb`` in lowest terms, for reduced inputs with positive denominators."""
    if qa == qb == 1:
        return pa * pb, 1
    g, h = math.gcd(pa, qb), math.gcd(pb, qa)
    return (pa // g) * (pb // h), (qa // h) * (qb // g)


def _over_lcm(pa: int, qa: int, pb: int, qb: int) -> tuple[int, int, int]:
    """``(fa, fb, d)`` with ``pa/qa = fa/d``, ``pb/qb = fb/d`` and ``d = lcm(qa, qb)``."""
    g = math.gcd(qa, qb)
    return pa * (qb // g), pb * (qa // g), qa // g * qb


def _primitive(ints: list[int], num: int, den: int) -> tuple[tuple[int, ...], int, int]:
    """``num/den * ints`` as (primitive part, content numerator, content denominator).

    ``num/den`` must be in lowest terms.  Trailing zeros are dropped, and the
    gcd of the integers and the sign of the last one move into the content, so
    the integer tuple is primitive.
    """
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return (), 1, 1
    # leading coefficient first: low-order ones (of family values) share large factors
    g = math.gcd(ints[-1], *ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [x // g for x in ints]
        num, den = _ratio_mul(num, den, g, 1)
    return tuple(ints), num, den


class PolyC:
    """Polynomial in ``c`` over Q, stored as ``num/den * sum(ints[e] * c^e)``.

    ``ints`` is a dense tuple of integers, lowest degree first, that is
    primitive: their gcd is 1, the last entry is positive and there are no
    trailing zeros.  The content ``num/den`` is a pair of coprime Python ints
    with ``den > 0``; ``num`` is nonzero and carries the sign.  The zero
    polynomial is ``ints == ()`` with content 1/1.  The form is unique, so
    equality and hashing are structural.
    """

    __slots__ = ("ints", "num", "den")

    def __init__(self, coeffs: Optional[dict[int, Fraction]] = None):
        fracs: dict[int, Fraction] = {}
        for e, v in (coeffs or {}).items():
            v = Fraction(v)
            if v:
                if not 0 <= e <= MAX_C_DEGREE:
                    raise ValueError(f"c exponent {e} outside 0..{MAX_C_DEGREE}")
                fracs[e] = v
        den = math.lcm(*(v.denominator for v in fracs.values()))
        ints = [0] * (max(fracs, default=-1) + 1)
        for e, v in fracs.items():
            ints[e] = v.numerator * (den // v.denominator)
        self.ints, self.num, self.den = _primitive(ints, 1, den)

    @staticmethod
    def _of(ints: tuple[int, ...], num: int, den: int) -> "PolyC":
        """Wrap an already-canonical (primitive tuple, reduced nonzero content) unchecked."""
        p = object.__new__(PolyC)
        p.ints, p.num, p.den = ints, num, den
        return p

    @property
    def cont(self) -> Fraction:
        """The content ``num/den`` as a Fraction."""
        return Fraction(self.num, self.den)

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """The nonzero rational coefficients ``{exponent: value}``, as a fresh dict."""
        return {e: Fraction(self.num * x, self.den) for e, x in enumerate(self.ints) if x}

    # -- constructors
    @staticmethod
    def zero() -> "PolyC":
        return _ZERO

    @staticmethod
    def const(v) -> "PolyC":
        num, den = (v, 1) if isinstance(v, int) else Fraction(v).as_integer_ratio()
        return PolyC._of((1,), num, den) if num else _ZERO

    @staticmethod
    def c(power: int = 1) -> "PolyC":
        return PolyC({power: 1})

    # -- queries
    def is_zero(self) -> bool:
        return not self.ints

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.ints) - 1

    def leading(self) -> Fraction:
        return Fraction(self.num * self.ints[-1], self.den) if self.ints else Fraction(0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyC) and self.ints == other.ints
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.ints, self.num, self.den))

    # -- arithmetic
    def __add__(self, other: "PolyC") -> "PolyC":
        a, b = self.ints, other.ints
        if not b:
            return self
        if not a:
            return other
        # over the common denominator lcm(qa, qb), with the multipliers' gcd h factored out;
        # h is coprime to the lcm, as _primitive requires
        fa, fb, den = _over_lcm(self.num, self.den, other.num, other.den)
        h = math.gcd(fa, fb)
        fa, fb = fa // h, fb // h
        if len(a) < len(b):
            a, b, fa, fb = b, a, fb, fa
        ints = [fa * x for x in a]
        for i, y in enumerate(b):
            ints[i] += fb * y
        return PolyC._of(*_primitive(ints, h, den))

    def c_lincomb(self, s: int, other: "PolyC", t: int, lead: int) -> "PolyC":
        """``(s * c * self + t * other) / lead`` for integers s, t and lead > 0: one integer
        pass over both primitive tuples and one canonical form, with no intermediate PolyC."""
        fa, fb, den = _over_lcm(self.num, self.den, other.num, other.den)
        fa, fb, a, b = s * fa, t * fb, self.ints, other.ints
        ints = [0] + [fa * x for x in a] + [0] * (len(b) - len(a) - 1)
        for i, y in enumerate(b):
            ints[i] += fb * y
        return PolyC._of(*_primitive(ints, 1, den * lead))

    def __neg__(self) -> "PolyC":
        return PolyC._of(self.ints, -self.num, self.den) if self.ints else self

    def __sub__(self, other: "PolyC") -> "PolyC":
        return self + (-other)

    def __mul__(self, other) -> "PolyC":
        if isinstance(other, (int, Fraction)):
            if not other or not self.ints:
                return _ZERO
            return PolyC._of(self.ints, *_ratio_mul(self.num, self.den, *other.as_integer_ratio()))
        a, b = self.ints, other.ints
        if not a or not b:
            return _ZERO
        num, den = _ratio_mul(self.num, self.den, other.num, other.den)
        if len(a) < len(b):
            a, b = b, a
        if b[-1] == 1 and not any(b[:-1]):
            # a one-term factor c^e shifts exponents
            return PolyC._of((0,) * (len(b) - 1) + a, num, den)
        # Gauss's lemma: a product of primitive polynomials is primitive
        out = [0] * (len(a) + len(b) - 1)
        for i, y in enumerate(b):
            if y:
                for j, x in enumerate(a, i):
                    out[j] += x * y
        return PolyC._of(tuple(out), num, den)

    __rmul__ = __mul__

    def scale(self, q) -> "PolyC":
        return self * Fraction(q)

    def divmod(self, other: "PolyC") -> tuple["PolyC", "PolyC"]:
        if other.is_zero():
            raise ZeroDivisionError("PolyC division by zero")
        rem = self.coeffs
        quo: dict[int, Fraction] = {}
        dob, lob, ocoeffs = other.degree(), other.leading(), other.coeffs
        while rem and max(rem) >= dob:
            e = max(rem)
            f = rem[e] / lob
            quo[e - dob] = f
            for eo, vo in ocoeffs.items():
                ee = e - dob + eo
                w = rem.get(ee, Fraction(0)) - f * vo
                if w:
                    rem[ee] = w
                else:
                    rem.pop(ee, None)
        return PolyC(quo), PolyC(rem)

    def divexact(self, other: "PolyC") -> "PolyC":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("inexact PolyC division")
        return q

    def monic(self) -> "PolyC":
        if self.is_zero():
            return self
        return self * (1 / self.leading())

    @staticmethod
    def gcd(a: "PolyC", b: "PolyC") -> "PolyC":
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    # -- rendering
    def render(self) -> str:
        """Canonical text, e.g. ``8/5*c^2 - 3/5``; each coefficient is ``num/den * ints[e]``."""
        if not self.ints:
            return "0"
        p, q = self.num, self.den
        terms = []
        for e in range(len(self.ints) - 1, -1, -1):
            x = self.ints[e]
            if not x:
                continue
            g = math.gcd(x, q)  # = gcd(p * x, q), as p and q are coprime
            n = p * (x // g)
            mag = f"{abs(n)}" if g == q else f"{abs(n)}/{q // g}"
            if e:
                var = "c" if e == 1 else f"c^{e}"
                mag = var if mag == "1" else f"{mag}*{var}"
            terms.append(f"{'-' if n < 0 else '+'} {mag}")
        text = " ".join(terms)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def render_ratio(self) -> str:
        """Common-denominator display, e.g. ``(8*c^2 - 3)/5``.

        The integers are coprime, so ``den`` is the lcm of the coefficients'
        denominators.
        """
        den = self.den
        text = PolyC._of(self.ints, self.num, 1).render()
        if den == 1:
            return text
        if len(self.ints) - self.ints.count(0) > 1:
            text = f"({text})"
        return f"{text}/{den}"

    def __repr__(self) -> str:
        return f"PolyC({self.render()})"


_ZERO = PolyC._of((), 1, 1)


# ---------------------------------------------------------------------------
# Bivariate polynomials in c and s
# ---------------------------------------------------------------------------


def _grlex_key(mono: tuple[int, int]) -> tuple[int, int]:
    ec, es = mono
    return (ec + es, es)  # total degree, then s-exponent (c < s)


class Poly2:
    """Sparse polynomial in ``c`` and ``s``; monomials keyed ``(ec, es)``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[dict[tuple[int, int], Fraction]] = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if coeffs:
            for m, v in coeffs.items():
                v = Fraction(v)
                if v != 0:
                    if m[0] < 0 or m[1] < 0:
                        raise ValueError("Poly2 exponents must be non-negative")
                    clean[m] = v
        self.coeffs = clean

    @staticmethod
    def _of(clean: dict[tuple[int, int], Fraction]) -> "Poly2":
        """Wrap an already-clean dict (nonzero Fractions, exponents >= 0) unchecked."""
        p = object.__new__(Poly2)
        p.coeffs = clean
        return p

    @staticmethod
    def zero() -> "Poly2":
        return Poly2()

    @staticmethod
    def const(v) -> "Poly2":
        return Poly2({(0, 0): Fraction(v)})

    @staticmethod
    def var_c() -> "Poly2":
        return Poly2({(1, 0): Fraction(1)})

    @staticmethod
    def var_s(power: int = 1) -> "Poly2":
        return Poly2({(0, power): Fraction(1)})

    @staticmethod
    def from_polyc(p: PolyC) -> "Poly2":
        return Poly2({(e, 0): v for e, v in p.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_const(self) -> bool:
        return not self.coeffs or set(self.coeffs) == {(0, 0)}

    def const_value(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return self.coeffs[(0, 0)]

    def leading_mono(self) -> tuple[int, int]:
        return max(self.coeffs, key=_grlex_key)

    def leading_coeff(self) -> Fraction:
        return self.coeffs[self.leading_mono()] if self.coeffs else Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.coeffs)
        for m, v in other.coeffs.items():
            w = out.get(m, Fraction(0)) + v
            if w:
                out[m] = w
            else:
                out.pop(m, None)
        return Poly2._of(out)

    def __neg__(self) -> "Poly2":
        return Poly2._of({m: -v for m, v in self.coeffs.items()})

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __mul__(self, other) -> "Poly2":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Poly2._of({m: v * q for m, v in self.coeffs.items()} if q else {})
        out: dict[tuple[int, int], Fraction] = {}
        for (c1, s1), v1 in self.coeffs.items():
            for (c2, s2), v2 in other.coeffs.items():
                m = (c1 + c2, s1 + s2)
                w = out.get(m, Fraction(0)) + v1 * v2
                if w:
                    out[m] = w
                else:
                    out.pop(m, None)
        return Poly2._of(out)

    __rmul__ = __mul__

    def scale(self, q) -> "Poly2":
        return self * Fraction(q)

    # -- structure as a polynomial in s over Q[c]
    def s_coeffs(self) -> dict[int, PolyC]:
        tmp: dict[int, dict[int, Fraction]] = {}
        for (ec, es), v in self.coeffs.items():
            tmp.setdefault(es, {})[ec] = v
        return {es: PolyC(d) for es, d in tmp.items()}

    @staticmethod
    def from_s_coeffs(sc: dict[int, PolyC]) -> "Poly2":
        out: dict[tuple[int, int], Fraction] = {}
        for es, p in sc.items():
            for ec, v in p.coeffs.items():
                out[(ec, es)] = v
        return Poly2(out)

    def divexact_polyc(self, d: PolyC) -> "Poly2":
        sc = self.s_coeffs()
        return Poly2.from_s_coeffs({es: p.divexact(d) for es, p in sc.items()})

    def divexact(self, other: "Poly2") -> "Poly2":
        """Exact multivariate division (raises if not divisible)."""
        if other.is_zero():
            raise ZeroDivisionError("Poly2 division by zero")
        if len(other.coeffs) == 1:
            # a monomial divisor: shift exponents, no remainder loop
            [((dc, ds), dv)] = other.coeffs.items()
            quo = {}
            for (ec, es), v in self.coeffs.items():
                if ec < dc or es < ds:
                    raise ArithmeticError("inexact Poly2 division")
                quo[(ec - dc, es - ds)] = v / dv
            return Poly2._of(quo)
        rem = Poly2(dict(self.coeffs))
        quo: dict[tuple[int, int], Fraction] = {}
        lm, lc = other.leading_mono(), other.leading_coeff()
        while not rem.is_zero():
            rm, rv = rem.leading_mono(), rem.leading_coeff()
            dm = (rm[0] - lm[0], rm[1] - lm[1])
            if dm[0] < 0 or dm[1] < 0:
                raise ArithmeticError("inexact Poly2 division")
            f = rv / lc
            quo[dm] = f
            rem = rem - Poly2({dm: f}) * other
        return Poly2(quo)

    def content_c(self) -> PolyC:
        """Monic gcd in Q[c] of the s-coefficients (1 for the zero poly)."""
        g = PolyC()
        for p in self.s_coeffs().values():
            g = PolyC.gcd(g, p)
            if g.degree() == 0:
                break
        return g if not g.is_zero() else PolyC.const(1)

    @staticmethod
    def gcd(a: "Poly2", b: "Poly2") -> "Poly2":
        """gcd in Q[c, s], unit-normalized monic.

        If either argument is a single term ``v c^i s^j`` the gcd is the
        monomial ``c^min(ec) s^min(es)`` over the terms of both (the divisors
        of a monomial in the UFD Q[c, s] are monomials); otherwise a
        primitive-PRS on s over Q[c].
        """
        if a.is_zero():
            return b * (1 / b.leading_coeff()) if not b.is_zero() else Poly2()
        if b.is_zero():
            return a * (1 / a.leading_coeff())
        if len(a.coeffs) == 1 or len(b.coeffs) == 1:
            monos = [*a.coeffs, *b.coeffs]
            return Poly2._of({(min(ec for ec, _ in monos), min(es for _, es in monos)):
                              Fraction(1)})
        ca, cb = a.content_c(), b.content_c()
        pa, pb = a.divexact_polyc(ca), b.divexact_polyc(cb)
        cg = PolyC.gcd(ca, cb)
        A, B = pa.s_coeffs(), pb.s_coeffs()

        def sdeg(P):
            return max(P, default=-1)

        if sdeg(A) < sdeg(B):
            A, B = B, A
        while True:
            if not B:
                G = Poly2.from_s_coeffs(A)
                gc = G.content_c()
                G = G.divexact_polyc(gc)
                break
            da, db = sdeg(A), sdeg(B)
            if db == 0:
                # primitive degree-0 in s: gcd of primitive parts is a unit
                G = Poly2.const(1)
                break
            # pseudo-remainder of A by B in (Q[c])[s]
            lb = B[db]
            R = dict(A)
            for _ in range(da - db + 1):
                dr = sdeg(R)
                if dr < db:
                    break
                lr = R[dr]
                R = {e: p * lb for e, p in R.items()}
                for eb, pb2 in B.items():
                    ee = dr - db + eb
                    q = R.get(ee, PolyC()) - lr * pb2
                    if q.is_zero():
                        R.pop(ee, None)
                    else:
                        R[ee] = q
                R = {e: p for e, p in R.items() if not p.is_zero()}
            if sdeg(R) >= db:
                raise ArithmeticError("pseudo-division failed to reduce degree")
            Rp = Poly2.from_s_coeffs(R)
            if Rp.is_zero():
                A, B = B, {}
            else:
                Rp = Rp.divexact_polyc(Rp.content_c())
                A, B = B, Rp.s_coeffs()
        G = G * Poly2.from_polyc(cg)
        if G.is_zero():
            return Poly2.const(1)
        return G * (1 / G.leading_coeff())

    # -- rendering
    @staticmethod
    def _mono_text(ec: int, es: int, coef: Fraction, k_style: bool) -> str:
        factors = []
        mag = abs(coef)
        if ec:
            factors.append("c" if ec == 1 else f"c^{ec}")
        if es:
            if k_style:
                kk, rr = divmod(es, 2)
                if kk:
                    factors.append("k" if kk == 1 else f"k^{kk}")
                if rr:
                    factors.append("s")
            else:
                factors.append("s" if es == 1 else f"s^{es}")
        if not factors:
            return _frac_str(mag)
        body = "*".join(factors)
        return body if mag == 1 else f"{_frac_str(mag)}*{body}"

    def render(self, k_style: bool = False) -> str:
        if not self.coeffs:
            return "0"
        monos = sorted(self.coeffs, key=_grlex_key, reverse=True)
        first = monos[0]
        v0 = self.coeffs[first]
        text = ("-" if v0 < 0 else "") + self._mono_text(first[0], first[1], v0, k_style)
        for m in monos[1:]:
            v = self.coeffs[m]
            text += f" {'-' if v < 0 else '+'} {self._mono_text(m[0], m[1], v, k_style)}"
        return text

    def __repr__(self) -> str:
        return f"Poly2({self.render()})"


_P2_ONE = Poly2.const(1)


# ---------------------------------------------------------------------------
# The coefficient field Frac(Q[c, s])
# ---------------------------------------------------------------------------


class CoeffK:
    """Element of Frac(Q[c, s]) in canonical reduced form.

    Canonicalization: numerator and denominator coprime in Q[c, s], the
    denominator's graded-lex leading coefficient equal to 1.  Structural
    equality of canonical forms decides equality in the field.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly2, den: Poly2 = _P2_ONE, _canonical: bool = False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in CoeffK")
        if _canonical:
            self.num, self.den = num, den
            return
        if num.is_zero():
            self.num, self.den = Poly2.zero(), _P2_ONE
            return
        if den == _P2_ONE:
            self.num, self.den = num, den
            return
        if den.is_const():
            self.num, self.den = num * (1 / den.const_value()), _P2_ONE
            return
        g = Poly2.gcd(num, den)
        if not (g.is_const() and g.const_value() == 1):
            num, den = num.divexact(g), den.divexact(g)
        lc = den.leading_coeff()
        if lc != 1:
            num, den = num * (1 / lc), den * (1 / lc)
        self.num, self.den = num, den

    # -- constructors
    @staticmethod
    def zero() -> "CoeffK":
        return CoeffK(Poly2.zero(), _P2_ONE, _canonical=True)

    @staticmethod
    def one() -> "CoeffK":
        return CoeffK(_P2_ONE, _P2_ONE, _canonical=True)

    @staticmethod
    def from_int(n: int) -> "CoeffK":
        return CoeffK(Poly2.const(n))

    @staticmethod
    def from_rat(q) -> "CoeffK":
        return CoeffK(Poly2.const(Fraction(q)))

    @staticmethod
    def c() -> "CoeffK":
        return CoeffK(Poly2.var_c())

    @staticmethod
    def s(power: int = 1) -> "CoeffK":
        if power >= 0:
            return CoeffK(Poly2.var_s(power))
        return CoeffK(_P2_ONE, Poly2.var_s(-power))

    @staticmethod
    def k() -> "CoeffK":
        return CoeffK.s(2)

    @staticmethod
    def alpha() -> "CoeffK":
        """The charge-normalizing momentum 1/s."""
        return CoeffK.s(-1)

    # -- queries
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == _P2_ONE and self.den == _P2_ONE

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CoeffK.from_int(other)
        return isinstance(other, CoeffK) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(self.key())

    def key(self):
        """Hashable canonical key (usable as a dict key for like-term merging)."""
        return (frozenset(self.num.coeffs.items()), frozenset(self.den.coeffs.items()))

    # -- field arithmetic
    def __add__(self, other: "CoeffK") -> "CoeffK":
        if isinstance(other, int):
            other = CoeffK.from_int(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return CoeffK(self.num + other.num, self.den)
        return CoeffK(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "CoeffK":
        return CoeffK(-self.num, self.den, _canonical=True)

    def __sub__(self, other: "CoeffK") -> "CoeffK":
        if isinstance(other, int):
            other = CoeffK.from_int(other)
        return self + (-other)

    def __rsub__(self, other) -> "CoeffK":
        return (-self) + other

    def __mul__(self, other) -> "CoeffK":
        if isinstance(other, (int, Fraction)):
            # a nonzero rational keeps num/den coprime and den monic
            q = Fraction(other)
            return CoeffK(self.num * q, self.den, _canonical=True) if q else CoeffK.zero()
        if self.is_zero() or other.is_zero():
            return CoeffK.zero()
        return CoeffK(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "CoeffK":
        if self.is_zero():
            raise ZeroDivisionError("inverting zero CoeffK")
        return CoeffK(self.den, self.num)

    def __truediv__(self, other) -> "CoeffK":
        if isinstance(other, (int, Fraction)):
            other = CoeffK.from_rat(other)
        return self * other.inv()

    def __pow__(self, n: int) -> "CoeffK":
        if n < 0:
            return self.inv() ** (-n)
        out = CoeffK.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- constants
    def as_rational(self) -> Optional[Fraction]:
        """The value as a rational constant, or None."""
        if self.num.is_const() and self.den == _P2_ONE:
            return self.num.const_value()
        return None

    def render(self, k_style: bool = False) -> str:
        if self.den == _P2_ONE:
            return self.num.render(k_style)
        ns = self.num.render(k_style)
        ds = self.den.render(k_style)
        if len(self.num.coeffs) > 1:
            ns = f"({ns})"
        if len(self.den.coeffs) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"CoeffK({self.render()})"


def as_polyc(x: PolyC | CoeffK) -> PolyC:
    """A ring coefficient in Q[c]: a PolyC as is, or a CoeffK with no s and denominator 1."""
    if isinstance(x, PolyC):
        return x
    if x.den == _P2_ONE and not any(es for (_ec, es) in x.num.coeffs):
        return PolyC({ec: v for (ec, _es), v in x.num.coeffs.items()})
    raise ValueError(f"ring coefficient {x.render(k_style=True)} is not a polynomial in c")


def sparse_add(acc: dict, key, v) -> None:
    """acc[key] += v in a sparse dict of PolyC or CoeffK values; cancelled entries are dropped."""
    w = acc.get(key)
    w = v if w is None else w + v
    if w.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = w


# ---------------------------------------------------------------------------
# Spec operations
# ---------------------------------------------------------------------------


def field_ops(a: CoeffK, b: CoeffK, op: str) -> CoeffK:
    """Field arithmetic dispatch; op in {add, sub, mul, div}."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b.is_zero():
            raise ZeroDivisionError("field_ops: division by zero")
        return a / b
    raise ValueError(f"unknown field op {op!r}")


def specialize(
    x: CoeffK, c_val: Optional[Fraction] = None, k_val: Optional[Fraction] = None
) -> CoeffK:
    """Substitute c -> c_val and/or k = s**2 -> k_val.

    Odd powers of s require k_val to be the square of a rational; otherwise
    the specialization is refused (the result would be irrational).
    """
    s_sqrt: Optional[Fraction] = None
    if k_val is not None:
        k_val = Fraction(k_val)
        has_odd = any(
            es % 2 for (_ec, es) in list(x.num.coeffs) + list(x.den.coeffs)
        )
        if has_odd:
            s_sqrt = rat_sqrt(k_val)
            if s_sqrt is None:
                raise SpecializationError(
                    f"irrational specialization: sqrt({k_val}) is not rational "
                    "and odd powers of s are present"
                )
    if c_val is not None:
        c_val = Fraction(c_val)

    def sub_poly(p: Poly2) -> Poly2:
        out = Poly2.zero()
        for (ec, es), v in p.coeffs.items():
            term = Poly2.const(v)
            if c_val is None:
                if ec:
                    term = term * Poly2({(ec, 0): Fraction(1)})
            else:
                term = term * (c_val**ec)
            if k_val is None:
                if es:
                    term = term * Poly2({(0, es): Fraction(1)})
            else:
                q, rem = divmod(es, 2)
                factor = k_val**q
                if rem:
                    factor *= s_sqrt
                term = term * factor
            out = out + term
        return out

    den = sub_poly(x.den)
    if den.is_zero():
        raise ZeroDivisionError("specialization makes the denominator vanish")
    return CoeffK(sub_poly(x.num), den)


def is_integer_constant(x: CoeffK) -> Optional[int]:
    """The value as a plain integer if x is a constant integer, else None."""
    q = x.as_rational()
    if q is not None and q.denominator == 1:
        return int(q)
    return None
