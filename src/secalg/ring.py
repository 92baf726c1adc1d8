"""The superelliptic ring A = C[t, t^-1, u] / (u^m - p(t)).

Here p(t) = 1 - 2c*t^r + t^(2r) with m >= 2 and r >= 2.  Elements are graded
by u-degree mod m: one Laurent polynomial in t per sector l in {0, .., m-1}.
Multiplication eagerly rewrites u^m -> p(t), so every element has a unique
normal form and equality is structural.  Coefficients are ``PolyC`` values in
Q[c]; ``RingElem.monomial`` is the one way in, and it takes a Frac(Q[c, s])
coefficient from the parser only when that lies in Q[c].

``RingElem.monomial`` writes u^q as p^k u^j, (k, j) = divmod(q, m), and p^k as
sum_n G_n(c) x^n, x = t^r, G_n the Gegenbauer polynomial C_n^(-k) (Szego, *Orthogonal
Polynomials*, 4.7): (1 - 2cx + x^2) G' = 2k(x - c) G gives n G_n = 2c(n-k-1)
G_(n-1) - (n-2k-2) G_(n-2), G_0 = 1, G_(-1) = 0, stepped index by index to n = k by
``coeffs.walk_recurrence``, and G_(2k-n) = G_n.  For n <= k, G_n has the nonzero terms
c^(n-2i), 0 <= i <= n/2, so all 2k+1 positions of p^k are nonzero and G_k
spans k - k mod 2 c degrees: a term over ``coeffs.MAX_C_DEGREE`` is refused
before any walk, as the repeated product would refuse it, and so is a p^k of about
k^2/2 terms of at most 2k bits, k^3 above ``coeffs.MAX_EXPANSION_BITS``.

Values are immutable; all operations return fresh elements.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from . import coeffs
from .coeffs import PolyC, as_factor, as_polyc, sparse_add, walk_recurrence


class RingParams:
    __slots__ = ("m", "r", "_hash")

    def __init__(self, m: int, r: int):
        if m < 2 or r < 2:
            raise ValueError("superelliptic parameters require m >= 2 and r >= 2")
        self.m, self.r, self._hash = m, r, hash((m, r))

    def __eq__(self, other):
        if type(other) is not RingParams:
            return NotImplemented
        return self is other or (self.m == other.m and self.r == other.r)

    def __hash__(self):
        return self._hash


# p and p' are built once per RingParams and shared: callers must not mutate them.
@lru_cache(maxsize=None)
def p_laurent(params: RingParams) -> dict[int, PolyC]:
    """p(t) = 1 - 2c t^r + t^(2r) as a Laurent polynomial."""
    one = PolyC.const(1)
    return {0: one, params.r: PolyC({1: -2}), 2 * params.r: one}

@lru_cache(maxsize=None)
def dp_laurent(params: RingParams) -> dict[int, PolyC]:
    """p'(t) = -2cr t^(r-1) + 2r t^(2r-1)."""
    r = params.r
    return {r - 1: PolyC({1: -2 * r}), 2 * r - 1: PolyC.const(2 * r)}


class RingElem:
    """Graded element of A: map sector l -> Laurent polynomial in t."""

    __slots__ = ("params", "sectors")

    def __init__(self, params: RingParams, sectors: dict[int, dict[int, PolyC]] | None = None):
        self.params = params
        clean: dict[int, dict[int, PolyC]] = {}
        if sectors:
            for l, lt in sectors.items():
                if not 0 <= l < params.m:
                    raise ValueError(f"sector {l} out of range for m={params.m}")
                lt = {e: v for e, v in lt.items() if not v.is_zero()}
                if lt:
                    clean[l] = lt
        self.sectors = clean

    @staticmethod
    def _of(params: RingParams, sectors: dict[int, dict[int, PolyC]]) -> "RingElem":
        """Wrap a clean map {sector: {t exponent: nonzero PolyC}}, no empty sector, unchecked."""
        elem = object.__new__(RingElem)
        elem.params, elem.sectors = params, sectors
        return elem

    # -- constructors
    @staticmethod
    def zero(params: RingParams) -> "RingElem":
        return RingElem(params)

    @staticmethod
    def monomial(params: RingParams, coef: PolyC, t_exp: int, u_exp: int) -> "RingElem":
        """coef * t^t_exp * u^u_exp, u_exp >= 0 reduced; coef goes through ``as_polyc``."""
        if u_exp < 0:
            raise ValueError("u exponent must be non-negative")
        coef = as_polyc(coef)
        if u_exp < params.m or coef.is_zero():  # no walk: the cost of every engine call
            return RingElem(params, {u_exp % params.m: {t_exp: coef}})
        k, j = divmod(u_exp, params.m)
        span = len(coef.ints) - 1 + k - k % 2
        if span > coeffs.MAX_C_DEGREE:
            raise ValueError(f"u^{u_exp} expands to c degree span {span} above {coeffs.MAX_C_DEGREE}")
        if k ** 3 > coeffs.MAX_EXPANSION_BITS:
            raise ValueError(f"u^{u_exp} expands p^{k} to about {k**3} bits above {coeffs.MAX_EXPANSION_BITS}")
        g = {-1: PolyC.zero(), 0: PolyC.const(1)}
        half = [walk_recurrence(g, n, 1, lambda i: (i, i - k - 1, i - 2 * k - 2)) for n in range(k + 1)]
        lt = {t_exp + params.r * n: coef * half[min(n, 2 * k - n)] for n in range(2 * k + 1)}
        return RingElem._of(params, {j: lt})

    def is_zero(self) -> bool:
        return not self.sectors

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElem)
            and self.params == other.params
            and self.sectors == other.sectors
        )

    def __hash__(self):
        return hash(
            (
                self.params,
                frozenset((l, frozenset(lt.items())) for l, lt in self.sectors.items()),
            )
        )

    def __add__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        out = {l: dict(lt) for l, lt in self.sectors.items()}
        for l, lt in other.sectors.items():
            for e, v in lt.items():
                sparse_add(out.setdefault(l, {}), e, v)
        return RingElem(self.params, out)

    def __neg__(self) -> "RingElem":
        return RingElem(
            self.params, {l: {e: -v for e, v in lt.items()} for l, lt in self.sectors.items()}
        )

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def _check(self, other: "RingElem"):
        if self.params != other.params:
            raise ValueError("ring parameter mismatch")

    def monomials(self) -> Iterable[tuple[int, int, PolyC]]:
        """Yield (t_exp, sector, coef) over all stored monomials."""
        for l in sorted(self.sectors):
            for e in sorted(self.sectors[l]):
                yield e, l, self.sectors[l][e]

    def render(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, l, v in self.monomials():
            coef = as_factor(v, v.render())
            factors = []
            if e:
                factors.append("t" if e == 1 else f"t^{e}")
            if l:
                factors.append("u" if l == 1 else f"u^{l}")
            body = "*".join(factors) if factors else "1"
            parts.append(body if coef == "1" and factors else
                         coef if not factors else f"{coef}*{body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"RingElem({self.render()})"


def ring_mul(a: RingElem, b: RingElem) -> RingElem:
    """Graded product in A with eager reduction u^m -> p(t): each coefficient
    product goes straight into its sector's term map by ``sparse_add``, times
    the three terms of p(t) in the same pass when l1 + l2 >= m, and the maps
    are wrapped once, unchecked (no intermediate Laurent map or RingElem)."""
    if a.params is not b.params:
        a._check(b)
    m = a.params.m
    p = p_laurent(a.params).items()
    out: dict[int, dict[int, PolyC]] = {}
    for l1, lt1 in a.sectors.items():
        for l2, lt2 in b.sectors.items():
            l = l1 + l2
            acc = out.setdefault(l % m, {})
            for e1, v1 in lt1.items():
                for e2, v2 in lt2.items():
                    if l < m:
                        sparse_add(acc, e1 + e2, v1 * v2)
                    else:
                        v = v1 * v2
                        for pe, pv in p:
                            sparse_add(acc, e1 + e2 + pe, v * pv)
    return RingElem._of(a.params, {l: lt for l, lt in out.items() if lt})

