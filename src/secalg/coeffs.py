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
  rather than one per coefficient.  Division, exact division and the gcd share
  one integer pseudo-division on the primitive tuples, which scales the
  remainder only when the divisor's leading coefficient does not divide it;
  the gcd is a primitive PRS (Collins 1967; Brown and Traub 1971).  The
  algebra side (ring, Kahler reduction, cocycle, bracket, families) lives in
  Q[c]: p(t) is in Z[c][t] and every relation pivot is a nonzero rational.
  Its three-term recurrences have one walker, ``walk_recurrence``, fraction-free
  (Bareiss 1968): on raw chains, each made canonical when first read.  p^k, of
  integer coefficients where a long raw chain grows like n!, steps index by index.
* ``Poly2``   -- polynomials in ``c`` and ``s``, stored as ``{s exponent:
  PolyC}``, so that every polynomial in ``c`` has the one representation and
  all their arithmetic is ``PolyC``'s integer arithmetic.
* ``CoeffK``  -- the coefficient field Frac(Q[c, s]), stored as a canonical
  reduced fraction of two ``Poly2`` values.  It serves the free-field side
  (OPEs, Wakimoto operators) and the CLI coefficient parser, which reads in
  Q[c] until s, k, a division by a non-constant or a negative power of one
  lifts it here (``as_coeffk``); ``as_polyc`` is the one way back.

``s`` is the primitive level variable; the level itself is ``k = s**2`` and
is rewritten into ``s`` on input and out of ``s`` only for display or
specialization.  Canonical form: gcd-reduced fraction whose denominator has
leading coefficient 1 under graded-lex order with ``c < s``.  Equality of
canonical forms is structural, so it is decidable and unique.

``Poly2.gcd`` skips its PRS in ``s`` when either side has one s-exponent, as
every denominator of the free-field side (a monomial ``c^a s^b``) and of the
parser (e.g. ``1/(c-1)``) has; division by one is an exact ``PolyC`` division
per s-coefficient, which for a monomial only subtracts exponents.

All values are immutable after construction and every operation is a pure
function, so values can be shared freely across threads, and ``Poly2`` and
``CoeffK`` keep their hash once computed.
"""

from __future__ import annotations

import math
from collections import namedtuple
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
MAX_EXPANSION_BITS = 1 << 27  # u^q = p^k u^j: about k^2/2 terms of at most 2k bits, k^3 <= 512^3


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


def _axpy(fa: int, a, va: int, fb: int, b, vb: int, num: int, den: int) -> tuple:
    """``num/den * (fa c^va a + fb c^vb b)`` as a raw chain, whose ints ``_primitive`` keeps."""
    if va > vb:
        fa, a, va, fb, b, vb = fb, b, vb, fa, a, va
    n = max(len(a), vb - va + len(b))
    if n > MAX_C_DEGREE + 1:
        raise ValueError(f"c degree span {n - 1} above {MAX_C_DEGREE}")
    ints = [fa * x for x in a] + [0] * (n - len(a))
    for i, y in enumerate(b, vb - va):
        ints[i] += fb * y
    while ints and not ints[-1]:  # so that _primitive never pops from a list in a shared memo
        ints.pop()
    return ints, num, den, va


def _power(x, n: int, out):
    """out * x**n for n >= 0, x a PolyC or a CoeffK, by square-and-multiply."""
    if n < 0:
        raise ValueError(f"negative power {n} of a polynomial")
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


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
    hashing are structural.  A product by one (the ``PolyC`` one or the int 1)
    returns the other operand itself, and a sum of two multiples of one power of
    c adds their contents, with no gcd when both are integers.
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
        return PolyC._of((1,), 1, 1, power) if power >= 0 else PolyC({power: 1})  # which refuses it

    # -- queries
    def is_zero(self) -> bool:
        return not self.ints

    def n_terms(self) -> int:
        return len(self.ints) - self.ints.count(0)

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
        if a == b == (1,) and self.val == other.val:  # two multiples of one power of c: add the contents
            p, q, pb, qb = self.num, self.den, other.num, other.den
            num, den = (p + pb, 1) if q == qb == 1 else _reduced(p * qb + pb * q, q * qb)
            return PolyC._of(a, num, den, self.val) if num else _ZERO
        # over the common denominator lcm(qa, qb), with the multipliers' gcd h factored out;
        # h is coprime to the lcm, as _primitive requires
        fa, fb, den = _over_lcm(self.num, self.den, other.num, other.den)
        h = math.gcd(fa, fb)
        return PolyC._of(*_primitive(*_axpy(fa // h, a, self.val, fb // h, b, other.val, h, den)))

    def __neg__(self) -> "PolyC":
        return PolyC._of(self.ints, -self.num, self.den, self.val) if self.ints else self

    def __sub__(self, other: "PolyC") -> "PolyC":
        return self + (-other)

    def __mul__(self, other) -> "PolyC":
        if not isinstance(other, PolyC):  # an int or Fraction; isinstance on Fraction's ABC is slow
            if type(other) is int and other == 1:  # no Fraction.__eq__ for a Fraction operand
                return self
            if not other or not self.ints:
                return _ZERO
            return PolyC._of(self.ints, *_ratio_mul(self.num, self.den, *other.as_integer_ratio()), self.val)
        a, b = self.ints, other.ints
        if b == (1,) and not other.val and other.num == other.den:  # a unit: reduced num == den is 1/1
            return self
        if a == (1,) and not self.val and self.num == self.den:
            return other
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

    def __pow__(self, n: int) -> "PolyC":
        return _power(self, n, _ONE)

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
        return text if den == 1 else f"{as_factor(self, text)}/{den}"

    def __repr__(self) -> str:
        return f"PolyC({self.render()})"


_ZERO = PolyC._of((), 1, 1)
_ONE = PolyC._of((1,), 1, 1)
_Raw = namedtuple("_Raw", "ints num den val")  # a raw chain in a memo: _axpy, no content taken out


def walk_recurrence(values: dict, k: int, step: int, triple) -> PolyC:
    """The value at k from the memo ``values``, walked along k's residue class mod |step| from
    the seeds by lead * P_kk = 2c * mid * P_(kk-step) - low * P_(kk-2step), (lead > 0, mid, low)
    = ``triple(kk)``; two zeros in a row end it, and an index behind the seeds is refused."""
    if (value := values.get(k)) is None:
        top = k - step
        if top not in values and (k - (min(values) if step > 0 else max(values))) * step < 0:
            raise ValueError(f"index {k} lies behind the seeds of a walk by {step}")
        while top not in values:
            top -= step
        prev, cur = values[top - step], values[top]
        for kk in range(top + step, k + step, step):
            if not prev.ints and not cur.ints:
                return _ZERO
            lead, mid, low = triple(kk)
            assert lead > 0
            fa, fb, den = _over_lcm(cur.num, cur.den, prev.num, prev.den)
            value = _axpy(2 * mid * fa, cur.ints, cur.val + 1, -low * fb, prev.ints, prev.val, 1, den * lead)
            if kk != k:
                prev, cur = cur, tuple.__new__(_Raw, value) if value[0] else _ZERO
                values[kk] = cur
    if type(value) is not PolyC:  # a raw chain, settled in place: idempotent, so memos may be shared
        value = values[k] = PolyC._of(*_primitive(*value))
    return value


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

    __slots__ = ("by_s", "_hash")

    def __init__(self, coeffs: Optional[dict[tuple[int, int], Fraction]] = None):
        """From rational coefficients ``{(ec, es): value}``; exponents must not be negative."""
        groups: dict[int, dict[int, Fraction]] = {}
        for (ec, es), v in (coeffs or {}).items():
            if es < 0:
                raise ValueError("Poly2 exponents must be non-negative")
            groups.setdefault(es, {})[ec] = v  # PolyC drops zeros and refuses ec < 0
        self.by_s, self._hash = {es: p for es, d in groups.items() if (p := PolyC(d)).ints}, None

    @staticmethod
    def _of(by_s: dict[int, PolyC]) -> "Poly2":
        """Wrap an already-clean dict (nonzero PolyC values, exponents >= 0) unchecked."""
        p = object.__new__(Poly2)
        p.by_s, p._hash = by_s, None
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
        return Poly2._of({power: _ONE}) if power >= 0 else Poly2({(0, power): 1})  # which refuses it

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
        if self._hash is None:
            self._hash = hash(frozenset(self.by_s.items()))
        return self._hash

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
        if not isinstance(other, Poly2):  # an int or Fraction; isinstance on Fraction's ABC is slow
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
        return sum(p.n_terms() for p in self.by_s.values())

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

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly2, den: Poly2 = _P2_ONE, _canonical: bool = False):
        self._hash = None
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
        return CoeffK(Poly2.var_c(), _P2_ONE, _canonical=True)

    @staticmethod
    def s(power: int = 1) -> "CoeffK":
        if power >= 0:
            return CoeffK(Poly2.var_s(power), _P2_ONE, _canonical=True)
        return CoeffK(_P2_ONE, Poly2.var_s(-power), _canonical=True)

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
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

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
        if not isinstance(other, CoeffK):  # an int or Fraction: if nonzero, num/den stays canonical
            return CoeffK(self.num * other, self.den, _canonical=True) if other else CoeffK.zero()
        if self.is_zero() or other.is_zero():
            return CoeffK.zero()
        return CoeffK(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "CoeffK":
        if self.is_zero():
            raise ZeroDivisionError("inverting zero CoeffK")
        return CoeffK(self.den, self.num)

    def __truediv__(self, other) -> "CoeffK":
        if not isinstance(other, CoeffK):  # an int or Fraction
            other = CoeffK.from_rat(other)
        return self * other.inv()

    def __pow__(self, n: int) -> "CoeffK":
        return _power(self, n, CoeffK.one()) if n >= 0 else self.inv() ** -n

    # -- constants
    def as_rational(self) -> Optional[Fraction]:
        """The value as a rational constant, or None."""
        if self.num.is_const() and self.den == _P2_ONE:
            return self.num.const_value()
        return None

    def render(self, k_style: bool = False) -> str:
        if self.den == _P2_ONE:
            return self.num.render(k_style)
        ds = self.den.render(k_style)  # a product such as c*s is one divisor too
        ds = f"({ds})" if "*" in ds else as_factor(self.den, ds)
        return as_factor(self.num, self.num.render(k_style)) + "/" + ds

    def __repr__(self) -> str:
        return f"CoeffK({self.render()})"


def as_factor(x: PolyC | Poly2, text: str) -> str:
    """``text``, the rendering of x, in parentheses when x has more than one term, so that
    it reads back as one factor of a product."""
    return f"({text})" if x.n_terms() > 1 else text


def as_polyc(x: PolyC | CoeffK) -> PolyC:
    """A ring coefficient in Q[c] of c-degree at most MAX_C_DEGREE: a PolyC, or a CoeffK with
    no s and denominator 1."""
    if isinstance(x, CoeffK):
        if x.den != _P2_ONE or not set(x.num.by_s) <= {0}:
            raise ValueError(f"ring coefficient {x.render(k_style=True)} is not a polynomial in c")
        x = x.num.by_s.get(0, _ZERO)
    if x.degree() > MAX_C_DEGREE:
        raise ValueError(f"ring coefficient of c degree {x.degree()} above {MAX_C_DEGREE}")
    return x


def as_coeffk(x: PolyC | CoeffK) -> CoeffK:
    """x in the field: a CoeffK as is, or a PolyC over 1 (no gcd: it is canonical)."""
    return x if type(x) is CoeffK else CoeffK(Poly2._of({0: x} if x.ints else {}), _canonical=True)


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
