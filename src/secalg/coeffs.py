"""Exact coefficient arithmetic.

Three layers, all exact over Q (Python integers; ``fractions.Fraction`` only
at the edges, for scalars and for reading coefficients out):

* ``PolyC``   -- univariate polynomials in the curve parameter ``c``, each a
  rational content times a power of ``c`` (one integer, at any exponent)
  times a primitive integer polynomial with nonzero constant term (von zur
  Gathen and Gerhard, *Modern Computer Algebra*, ch. 6).  The content is a
  reduced pair of Python ints, so content arithmetic builds no ``Fraction``,
  and a product of two integer contents (denominator 1) takes no gcd.  By
  Gauss's lemma a product of primitive polynomials is primitive, so a
  product convolves integers with no gcd, and a sum takes one integer gcd
  rather than one per coefficient; ``c_lincomb`` takes a step of the family
  recurrence in one such pass.  Division, exact division and the gcd share
  one integer pseudo-division on the primitive tuples, which scales the
  remainder only when the divisor's leading coefficient does not divide it;
  the gcd is a primitive PRS (Collins 1967; Brown and Traub 1971).  The
  algebra side (ring, Kahler reduction, cocycle, bracket, families) lives in
  Q[c]: p(t) is in Z[c][t] and every relation pivot is a nonzero rational.
* ``Poly2``   -- polynomials in ``c`` and ``s``, stored as ``{s exponent:
  PolyC}``, so that every polynomial in ``c`` has the one representation and
  all their arithmetic is ``PolyC``'s integer arithmetic.
* ``CoeffK``  -- the coefficient field Frac(Q[c, s]), stored as a canonical
  reduced fraction of two ``Poly2`` values.  It serves the free-field side
  (OPEs, Wakimoto operators) and the CLI coefficient parser; ``as_polyc`` is
  the one way from it into the algebra side.

``s`` is the primitive level variable; the level itself is ``k = s**2`` and
is rewritten into ``s`` on input and out of ``s`` only for display or
specialization.  Canonical form: gcd-reduced fraction whose denominator has
leading coefficient 1 under graded-lex order with ``c < s``.  Equality of
canonical forms is structural, so it is decidable and unique.

The gcd of two ``Poly2`` values is the gcd of their contents in ``c`` (the
``PolyC`` gcd of their s-coefficients) times a primitive PRS in ``s`` over
Q[c].  Every denominator the free-field side builds is a monomial
``c^a s^b``, and the parser's (e.g. ``1/(c-1)``) are free of ``s``: with one
s-exponent on either side the PRS is skipped, and division by such a divisor
is one exact ``PolyC`` division per s-coefficient, which for a monomial only
subtracts exponents.

All values are immutable after construction and every operation is a pure
function, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional


class SpecializationError(ValueError):
    """Raised when a substitution would leave the rational field."""


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

#: PolyC stores every coefficient from its lowest power of c to its highest: that span is bounded.
MAX_C_DEGREE = 100_000


def _reduced(num: int, den: int) -> tuple[int, int]:
    """``num/den`` (den nonzero) in lowest terms with a positive denominator."""
    g = math.gcd(num, den)
    return (num // g, den // g) if den > 0 else (-num // g, -den // g)


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


def _primitive(ints: list[int], num: int, den: int, val: int = 0) -> tuple[tuple[int, ...], int, int, int]:
    """``num/den * c^val * ints`` as (primitive part, content numerator, content denominator, valuation).

    ``num/den`` must be in lowest terms.  Trailing zeros are dropped, leading
    ones move into the valuation, and the gcd of the integers and the sign of
    the last one move into the content, so the integer tuple is primitive.
    """
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return (), 1, 1, 0
    if not ints[0]:
        z = next(i for i, x in enumerate(ints) if x)
        ints, val = ints[z:], val + z
    # leading coefficient first: low-order ones (of family values) share large factors
    g = math.gcd(ints[-1], *ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [x // g for x in ints]
        num, den = _ratio_mul(num, den, g, 1)
    return tuple(ints), num, den, val


def _axpy(fa: int, a: tuple, va: int, fb: int, b: tuple, vb: int, num: int, den: int) -> "PolyC":
    """``num/den * (fa * c^va * a + fb * c^vb * b)`` made canonical: one integer pass."""
    if va > vb:
        fa, a, va, fb, b, vb = fb, b, vb, fa, a, va
    n = max(len(a), vb - va + len(b))
    if n > MAX_C_DEGREE + 1:
        raise ValueError(f"c degree span {n - 1} above {MAX_C_DEGREE}")
    ints = [fa * x for x in a] + [0] * (n - len(a))
    for i, y in enumerate(b, vb - va):
        ints[i] += fb * y
    return PolyC._of(*_primitive(ints, num, den, va))


def _pdiv(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division of tuples (lowest degree first, ``b`` nonempty with ``b[-1] > 0``).

    Returns lists ``q``, ``r`` and an integer ``f > 0`` with ``f * a == q * b + r``
    and ``len(r) < len(b)``.  The remainder is scaled only when ``b[-1]`` does not
    divide its leading coefficient, so ``r`` is zero with ``f == 1`` whenever
    ``b`` divides ``a`` over Z -- and, by Gauss's lemma, whenever primitive ``b``
    divides primitive ``a`` over Q.
    """
    if b == (1,):
        return list(a), [], 1
    m, lb = len(b) - 1, b[-1]
    r, q, f = list(a), [0] * max(len(a) - m, 0), 1
    for i in range(len(a) - 1, m - 1, -1):
        x = r[i]
        if not x:
            continue
        h = lb // math.gcd(x, lb)
        if h != 1:
            r = [y * h for y in r[:i + 1]]
            q = [y * h for y in q]
            f, x = f * h, x * h
        t = x // lb
        q[i - m] = t
        for j in range(m):
            r[i - m + j] -= t * b[j]
    return q, r[:m], f


class PolyC:
    """Polynomial in ``c`` over Q, stored as ``num/den * c^val * sum(ints[i] * c^i)``.

    ``ints`` is a dense tuple of integers, lowest degree first, that is
    primitive: their gcd is 1, the first entry is nonzero, the last is
    positive.  ``val`` is the lowest power of c, so ``c^e`` is ``ints == (1,)``
    at any e.  The content ``num/den`` is a pair of coprime Python ints with
    ``den > 0``; ``num`` is nonzero and carries the sign.  Zero is ``ints ==
    ()`` with ``val`` 0 and content 1/1.  The form is unique, so equality and
    hashing are structural.
    """

    __slots__ = ("ints", "num", "den", "val")

    def __init__(self, coeffs: Optional[dict[int, Fraction]] = None):
        fracs = {e: Fraction(v) for e, v in (coeffs or {}).items() if v}
        lo, hi = min(fracs, default=0), max(fracs, default=-1)
        if lo < 0 or hi - lo > MAX_C_DEGREE:
            raise ValueError(f"c exponents {lo}..{hi}: negative, or spanning more than {MAX_C_DEGREE}")
        den = math.lcm(*(v.denominator for v in fracs.values()))
        ints = [0] * (hi - lo + 1)
        for e, v in fracs.items():
            ints[e - lo] = v.numerator * (den // v.denominator)
        self.ints, self.num, self.den, self.val = _primitive(ints, 1, den, lo)

    @staticmethod
    def _of(ints: tuple[int, ...], num: int, den: int, val: int = 0) -> "PolyC":
        """Wrap an already-canonical (primitive tuple, reduced nonzero content, valuation) unchecked."""
        p = object.__new__(PolyC)
        p.ints, p.num, p.den, p.val = ints, num, den, val
        return p

    @property
    def cont(self) -> Fraction:
        """The content ``num/den`` as a Fraction."""
        return Fraction(self.num, self.den)

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """The nonzero rational coefficients ``{exponent: value}``, as a fresh dict."""
        return {e: Fraction(self.num * x, self.den) for e, x in enumerate(self.ints, self.val) if x}

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
        return len(self.ints) - 1 + self.val

    def leading(self) -> Fraction:
        return Fraction(self.num * self.ints[-1], self.den) if self.ints else Fraction(0)

    def at(self, x: Fraction) -> Fraction:
        """The value at ``c = x``, by an integer Horner pass over ``x``'s numerator and denominator."""
        n, d = x.numerator, x.denominator
        acc, dp = 0, 1
        for a in reversed(self.ints):
            acc, dp = acc * n + a * dp, dp * d
        return Fraction(self.num * acc, self.den * (dp // d)) * x ** self.val if acc else Fraction(0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyC) and self.ints == other.ints and self.val == other.val
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.ints, self.val, self.num, self.den))

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
        return _axpy(fa // h, a, self.val, fb // h, b, other.val, h, den)

    def c_lincomb(self, s: int, other: "PolyC", t: int, lead: int) -> "PolyC":
        """``(s * c * self + t * other) / lead`` for integers s, t and lead > 0: one integer
        pass over both primitive tuples and one canonical form, with no intermediate PolyC."""
        fa, fb, den = _over_lcm(self.num, self.den, other.num, other.den)
        return _axpy(s * fa, self.ints, self.val + 1, t * fb, other.ints, other.val, 1, den * lead)

    def __neg__(self) -> "PolyC":
        return PolyC._of(self.ints, -self.num, self.den, self.val) if self.ints else self

    def __sub__(self, other: "PolyC") -> "PolyC":
        return self + (-other)

    def __mul__(self, other) -> "PolyC":
        if isinstance(other, (int, Fraction)):
            if not other or not self.ints:
                return _ZERO
            return PolyC._of(self.ints, *_ratio_mul(self.num, self.den, *other.as_integer_ratio()), self.val)
        a, b = self.ints, other.ints
        if not a or not b:
            return _ZERO
        if len(a) + len(b) - 2 > MAX_C_DEGREE:
            raise ValueError(f"c degree span {len(a) + len(b) - 2} above {MAX_C_DEGREE}")
        num, den = _ratio_mul(self.num, self.den, other.num, other.den)
        val = self.val + other.val
        if len(a) < len(b):
            a, b = b, a
        if b == (1,):
            return PolyC._of(a, num, den, val)  # a one-term factor c^e only adds to the valuation
        # Gauss's lemma: a product of primitive polynomials is primitive, with first entry a[0] * b[0]
        out = [0] * (len(a) + len(b) - 1)
        for i, y in enumerate(b):
            if y:
                for j, x in enumerate(a, i):
                    out[j] += x * y
        return PolyC._of(tuple(out), num, den, val)

    __rmul__ = __mul__

    def scale(self, q) -> "PolyC":
        return self * Fraction(q)

    def divmod(self, other: "PolyC") -> tuple["PolyC", "PolyC"]:
        if not other.ints:
            raise ZeroDivisionError("PolyC division by zero")
        if max(self.degree(), other.degree()) > MAX_C_DEGREE:
            raise ValueError(f"c degree above {MAX_C_DEGREE} in PolyC.divmod")
        q, r, f = _pdiv((0,) * self.val + self.ints, (0,) * other.val + other.ints)
        # self = num/den * a and other = onum/oden * b, with f * a = q * b + r
        quo = _primitive(q, *_reduced(self.num * other.den, self.den * other.num * f))
        return PolyC._of(*quo), PolyC._of(*_primitive(r, *_reduced(self.num, self.den * f)))

    def divexact(self, other: "PolyC") -> "PolyC":
        if not other.ints:
            raise ZeroDivisionError("PolyC division by zero")
        if not self.ints:
            return _ZERO
        # c^v b with b(0) nonzero divides c^u a when v <= u and b divides a; by Gauss's lemma
        # the quotient of primitive tuples is a primitive tuple
        q, r, _f = _pdiv(self.ints, other.ints)
        if any(r) or self.val < other.val:
            raise ArithmeticError("inexact PolyC division")
        return PolyC._of(tuple(q), *_reduced(self.num * other.den, self.den * other.num), self.val - other.val)

    @staticmethod
    def gcd(a: "PolyC", b: "PolyC") -> "PolyC":
        """Monic gcd (zero for two zeros): the lower power of c times a primitive PRS on the
        integer tuples, whose constant terms are nonzero, so its remainders drop powers of c."""
        x, y = a.ints, b.ints
        val = min((p.val for p in (a, b) if p.ints), default=0)
        if len(x) < len(y):
            x, y = y, x
        while y:
            x, y = y, _primitive(_pdiv(x, y)[1], 1, 1)[0]
        return PolyC._of(x, 1, x[-1], val) if x else _ZERO

    # -- rendering
    def render(self) -> str:
        """Canonical text, e.g. ``8/5*c^2 - 3/5``; each coefficient is ``num/den * ints[e]``."""
        if not self.ints:
            return "0"
        p, q = self.num, self.den
        terms = []
        for i in range(len(self.ints) - 1, -1, -1):
            x, e = self.ints[i], i + self.val
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
        text = PolyC._of(self.ints, self.num, 1, self.val).render()
        if den == 1:
            return text
        if len(self.ints) - self.ints.count(0) > 1:
            text = f"({text})"
        return f"{text}/{den}"

    def __repr__(self) -> str:
        return f"PolyC({self.render()})"


_ZERO = PolyC._of((), 1, 1)
_ONE = PolyC._of((1,), 1, 1)


# ---------------------------------------------------------------------------
# Bivariate polynomials in c and s
# ---------------------------------------------------------------------------


def _content(polys) -> PolyC:
    """The monic gcd of the PolyC values ``polys``, lowest degree first; it stops at a constant."""
    g = _ZERO
    for p in sorted(polys, key=PolyC.degree):
        g = PolyC.gcd(g, p)
        if not g.degree():
            break
    return g


class Poly2:
    """Polynomial in ``c`` and ``s``, stored as ``by_s = {s exponent: PolyC}`` with no zero value."""

    __slots__ = ("by_s",)

    def __init__(self, coeffs: Optional[dict[tuple[int, int], Fraction]] = None):
        """From rational coefficients ``{(ec, es): value}``; exponents must not be negative."""
        groups: dict[int, dict[int, Fraction]] = {}
        for (ec, es), v in (coeffs or {}).items():
            if es < 0:
                raise ValueError("Poly2 exponents must be non-negative")
            groups.setdefault(es, {})[ec] = v  # PolyC drops zeros and refuses ec < 0
        self.by_s = {es: p for es, d in groups.items() if (p := PolyC(d)).ints}

    @staticmethod
    def _of(by_s: dict[int, PolyC]) -> "Poly2":
        """Wrap an already-clean dict (nonzero PolyC values, exponents >= 0) unchecked."""
        p = object.__new__(Poly2)
        p.by_s = by_s
        return p

    @property
    def coeffs(self) -> dict[tuple[int, int], Fraction]:
        """The nonzero rational coefficients ``{(ec, es): value}``, as a fresh dict in (es, ec) order."""
        return {(ec, es): v for es in sorted(self.by_s) for ec, v in self.by_s[es].coeffs.items()}

    @staticmethod
    def zero() -> "Poly2":
        return Poly2._of({})

    @staticmethod
    def const(v) -> "Poly2":
        p = PolyC.const(v)
        return Poly2._of({0: p} if p.ints else {})

    @staticmethod
    def var_c() -> "Poly2":
        return Poly2._of({0: PolyC.c()})

    @staticmethod
    def var_s(power: int = 1) -> "Poly2":
        return Poly2({(0, power): 1})

    def is_zero(self) -> bool:
        return not self.by_s

    def is_const(self) -> bool:
        return not self.by_s or (len(self.by_s) == 1 and not self.by_s.get(0, _ZERO).degree())

    def const_value(self) -> Fraction:
        if not self.by_s:
            return Fraction(0)
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return self.by_s[0].cont

    def leading_coeff(self) -> Fraction:
        """The coefficient of the leading monomial in graded-lex order with c < s (0 for zero)."""
        top = max(((p.degree() + es, es, p) for es, p in self.by_s.items()), default=(0, 0, _ZERO))
        return top[2].leading()

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.by_s == other.by_s

    def __hash__(self) -> int:
        return hash(frozenset(self.by_s.items()))

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.by_s)
        for es, p in other.by_s.items():
            sparse_add(out, es, p)
        return Poly2._of(out)

    def __neg__(self) -> "Poly2":
        return Poly2._of({es: -p for es, p in self.by_s.items()})

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __mul__(self, other) -> "Poly2":
        if isinstance(other, (int, Fraction)):
            return Poly2._of({es: p * other for es, p in self.by_s.items()} if other else {})
        out: dict[int, PolyC] = {}
        for e1, p1 in self.by_s.items():
            for e2, p2 in other.by_s.items():
                sparse_add(out, e1 + e2, p1 * p2)
        return Poly2._of(out)

    __rmul__ = __mul__

    def divexact(self, other: "Poly2") -> "Poly2":
        """Exact division (raises ArithmeticError if ``other`` does not divide ``self``).

        Long division in ``s``: each quotient coefficient is an exact PolyC
        division by ``other``'s leading s-coefficient.
        """
        if not other.by_s:
            raise ZeroDivisionError("Poly2 division by zero")
        ds = max(other.by_s)
        lead = other.by_s[ds]
        if len(other.by_s) == 1:
            if self.by_s and min(self.by_s) < ds:
                raise ArithmeticError("inexact Poly2 division")
            return Poly2._of({es - ds: p.divexact(lead) for es, p in self.by_s.items()})
        rem, quo = dict(self.by_s), {}
        while rem:
            es = max(rem)
            if es < ds:
                raise ArithmeticError("inexact Poly2 division")
            q = quo[es - ds] = rem[es].divexact(lead)
            for eo, p in other.by_s.items():
                sparse_add(rem, es - ds + eo, -(q * p))
        return Poly2._of(quo)

    @staticmethod
    def gcd(a: "Poly2", b: "Poly2") -> "Poly2":
        """gcd in Q[c, s], normalized to graded-lex leading coefficient 1.

        If either argument has a single s-exponent, ``s^j p(c)`` is a product
        of coprime factors, so the gcd is a power of s times the gcd of the
        contents in c.  Otherwise it is the gcd of the contents in c times that
        of the primitive parts, found by a primitive PRS in s over Q[c] whose
        pseudo-remainders drop their content in c.
        """
        if not a.by_s or not b.by_s:
            g = a if a.by_s else b
            return g * (1 / g.leading_coeff()) if g.by_s else g
        if len(a.by_s) == 1 or len(b.by_s) == 1:
            return Poly2._of({min(*a.by_s, *b.by_s): _content([*a.by_s.values(), *b.by_s.values()])})
        ca, cb = _content(a.by_s.values()), _content(b.by_s.values())
        A = {es: p.divexact(ca) for es, p in a.by_s.items()}
        B = {es: p.divexact(cb) for es, p in b.by_s.items()}
        if max(A) < max(B):
            A, B = B, A
        while B and max(B):
            R = _prem_s(A, B)
            if R:
                # drop the content in c, and the rational scale with it, so that neither grows
                g = _content(R.values()) * R[max(R)].leading()
                R = {es: p.divexact(g) for es, p in R.items()}
            A, B = B, R
        G = Poly2._of(A if not B else {0: _ONE}) * Poly2._of({0: PolyC.gcd(ca, cb)})
        return G * (1 / G.leading_coeff())

    # -- rendering
    def n_terms(self) -> int:
        return sum(len(p.ints) - p.ints.count(0) for p in self.by_s.values())

    def render(self, k_style: bool = False) -> str:
        """Terms in descending graded-lex order, e.g. ``2/3*c*s - s^2 + 1`` (``k*s`` for s^3 in k style)."""
        terms = sorted(((ec + es, es, ec, p.num * x, p.den) for es, p in self.by_s.items()
                        for ec, x in enumerate(p.ints, p.val) if x), reverse=True)
        if not terms:
            return "0"
        parts = []
        for _deg, es, ec, n, d in terms:
            g = math.gcd(n, d)
            mag = f"{abs(n) // g}" if d == g else f"{abs(n) // g}/{d // g}"
            factors = ["c" if ec == 1 else f"c^{ec}"] if ec else []
            if es and k_style:
                kk, rr = divmod(es, 2)
                factors += (["k" if kk == 1 else f"k^{kk}"] if kk else []) + (["s"] if rr else [])
            elif es:
                factors.append("s" if es == 1 else f"s^{es}")
            if factors:
                mag = "*".join(factors) if mag == "1" else "*".join([mag, *factors])
            parts.append(f"{'-' if n < 0 else '+'} {mag}")
        text = " ".join(parts)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"Poly2({self.render()})"


def _prem_s(A: dict[int, PolyC], B: dict[int, PolyC]) -> dict[int, PolyC]:
    """The pseudo-remainder in s of ``A`` by ``B`` over Q[c], as ``{s exponent: PolyC}``."""
    db = max(B)
    lb = B[db]
    R = dict(A)
    while R and (dr := max(R)) >= db:
        lr = R.pop(dr)
        R = {es: p * lb for es, p in R.items()}
        for eb, p in B.items():
            if eb != db:
                sparse_add(R, dr - db + eb, -(lr * p))
    return R


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
        if g != _P2_ONE:
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
        return hash((self.num, self.den))

    def key_order(self):
        """A total order on values: the terms ``((ec, es), value)`` sorted, numerator first."""
        return sorted(self.num.coeffs.items()), sorted(self.den.coeffs.items())

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
            n >>= 1
            if n:
                base = base * base
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
        if self.num.n_terms() > 1:
            ns = f"({ns})"
        if self.den.n_terms() > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"CoeffK({self.render()})"


def as_polyc(x: PolyC | CoeffK) -> PolyC:
    """A ring coefficient in Q[c]: a PolyC as is, or a CoeffK with no s, denominator 1 and
    c-degree at most MAX_C_DEGREE."""
    if isinstance(x, PolyC):
        return x
    if x.den == _P2_ONE and set(x.num.by_s) <= {0}:
        p = x.num.by_s.get(0, _ZERO)
        if p.degree() > MAX_C_DEGREE:
            raise ValueError(f"ring coefficient of c degree {p.degree()} above {MAX_C_DEGREE}")
        return p
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
        if any(es % 2 for es in (*x.num.by_s, *x.den.by_s)):
            s_sqrt = rat_sqrt(k_val)
            if s_sqrt is None:
                raise SpecializationError(
                    f"irrational specialization: sqrt({k_val}) is not rational "
                    "and odd powers of s are present"
                )
    if c_val is not None:
        c_val = Fraction(c_val)

    def sub_poly(p: Poly2) -> Poly2:
        out: dict[int, PolyC] = {}
        for es, q in p.by_s.items():
            if c_val is not None:
                q = PolyC.const(q.at(c_val))
            if k_val is None:
                sparse_add(out, es, q)
            else:
                sparse_add(out, 0, q * (k_val ** (es // 2) * (s_sqrt if es % 2 else 1)))
        return Poly2._of(out)

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
