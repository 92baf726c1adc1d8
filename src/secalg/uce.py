"""The universal central extension (sl2 tensor A) + Omega^1/dA.

Two bracket implementations:

* ``uce_bracket_oracle`` -- first principles: [x (x) f, y (x) g] =
  [x,y] (x) fg + <x,y> * class(f dg), with the class reduced by the Kahler
  oracle.  No case split.  This bracket is normative.

* ``uce_bracket_formula`` -- the printed Type I/II/III case formulas,
  with Type I/III central monomial classes expanded in the basis by the
  oracle and the Type II central term taken literally as printed.

``formula_vs_oracle`` compares the two pairwise and never asserts equality
a priori.  ``lie_axiom_check`` verifies antisymmetry and the Jacobi identity
of the oracle bracket: directly on a subgrid, and on the full requested grid
through an exact bilinear factorization (sl2 Jacobi + Killing invariance +
ring associativity + the cocycle identity on monomial triples), which is an
algebraic regrouping of the same computation, not a sampling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .coeffs import PolyC
from .kahler import (
    DiffClass,
    DiffForm,
    ReductionTable,
    differential,
    eliminate_du,
    reduce_oracle,
    ring_table,
)
from .ring import RingElem, RingParams, p_laurent, ring_mul

GENS = ("e", "h", "f")

# Chevalley bracket table: (x, y) -> list of (generator, integer coefficient)
_BRACKET = {
    ("e", "f"): (("h", 1),),
    ("f", "e"): (("h", -1),),
    ("h", "e"): (("e", 2),),
    ("e", "h"): (("e", -2),),
    ("h", "f"): (("f", -2),),
    ("f", "h"): (("f", 2),),
    ("e", "e"): (),
    ("f", "f"): (),
    ("h", "h"): (),
}

# Killing pairing normalized with <e, f> = 1, <h, h> = 2.
_KILLING = {("e", "f"): 1, ("f", "e"): 1, ("h", "h"): 2}


@dataclass(frozen=True)
class SL2Elem:
    e_coef: PolyC
    h_coef: PolyC
    f_coef: PolyC

    @staticmethod
    def gen(name: str) -> "SL2Elem":
        one, zero = PolyC.const(1), PolyC.zero()
        if name == "e":
            return SL2Elem(one, zero, zero)
        if name == "h":
            return SL2Elem(zero, one, zero)
        if name == "f":
            return SL2Elem(zero, zero, one)
        raise ValueError(f"unknown sl2 generator {name!r}")

    def coeff(self, name: str) -> PolyC:
        return {"e": self.e_coef, "h": self.h_coef, "f": self.f_coef}[name]


def sl2_bracket(x: SL2Elem, y: SL2Elem) -> SL2Elem:
    """Bilinear extension of [e,f]=h, [h,e]=2e, [h,f]=-2f."""
    return SL2Elem(
        e_coef=(x.h_coef * y.e_coef - x.e_coef * y.h_coef) * 2,
        h_coef=x.e_coef * y.f_coef - x.f_coef * y.e_coef,
        f_coef=(x.f_coef * y.h_coef - x.h_coef * y.f_coef) * 2,
    )


def killing(x: SL2Elem, y: SL2Elem) -> PolyC:
    return (
        x.e_coef * y.f_coef
        + x.f_coef * y.e_coef
        + x.h_coef * y.h_coef * 2
    )


class CurrentElem:
    """Element of sl2 (x) A, normalized as one ring element per generator."""

    __slots__ = ("params", "parts")

    def __init__(self, params: RingParams, parts: Optional[dict[str, RingElem]] = None):
        self.params = params
        clean = {}
        if parts:
            for g, a in parts.items():
                if g not in GENS:
                    raise ValueError(f"unknown generator {g!r}")
                if not a.is_zero():
                    clean[g] = a
        self.parts = clean

    @staticmethod
    def zero(params: RingParams) -> "CurrentElem":
        return CurrentElem(params)

    @staticmethod
    def monomial(params: RingParams, gen: str, t_exp: int, sector: int,
                 coef: Optional[PolyC] = None) -> "CurrentElem":
        coef = coef if coef is not None else PolyC.const(1)
        return CurrentElem(
            params, {gen: RingElem.monomial(params, coef, t_exp, sector)}
        )

    def is_zero(self) -> bool:
        return not self.parts

    def __add__(self, other: "CurrentElem") -> "CurrentElem":
        parts = dict(self.parts)
        for g, a in other.parts.items():
            parts[g] = parts[g] + a if g in parts else a
        return CurrentElem(self.params, parts)

    def scale(self, q: PolyC) -> "CurrentElem":
        return CurrentElem(self.params, {g: a.scale(q) for g, a in self.parts.items()})

    def __neg__(self) -> "CurrentElem":
        return self.scale(PolyC.const(-1))

    def __sub__(self, other: "CurrentElem") -> "CurrentElem":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CurrentElem)
            and self.params == other.params
            and self.parts == other.parts
        )

    def render(self) -> str:
        if not self.parts:
            return "0"
        return " + ".join(f"{g}(x)[{self.parts[g].render()}]" for g in GENS if g in self.parts)


class UCEElem:
    """Current part plus central part."""

    __slots__ = ("current", "central")

    def __init__(self, current: CurrentElem, central: Optional[DiffClass] = None):
        self.current = current
        self.central = central if central is not None else DiffClass.zero(current.params)
        if self.central.params != current.params:
            raise ValueError("central part parameter mismatch")

    @property
    def params(self) -> RingParams:
        return self.current.params

    def is_zero(self) -> bool:
        return self.current.is_zero() and self.central.is_zero()

    def __add__(self, other: "UCEElem") -> "UCEElem":
        return UCEElem(self.current + other.current, self.central + other.central)

    def scale(self, q: PolyC) -> "UCEElem":
        return UCEElem(self.current.scale(q), self.central.scale(q))

    def __neg__(self) -> "UCEElem":
        return self.scale(PolyC.const(-1))

    def __sub__(self, other: "UCEElem") -> "UCEElem":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UCEElem)
            and self.current == other.current
            and self.central == other.central
        )

    def render(self) -> str:
        cur = self.current.render()
        if self.central.is_zero():
            return cur
        return f"{cur} + central[{self.central.render()}]"

    def __repr__(self):
        return f"UCEElem({self.render()})"


# ---------------------------------------------------------------------------
# The cocycle tau(f, g) = class(f dg), with a monomial-pair cache
# ---------------------------------------------------------------------------


def _cocycle_form(f: RingElem, g: RingElem) -> DiffForm:
    """The form f dg, whose class is tau(f, g)."""
    dg = differential(g)
    return DiffForm(ring_mul(f, dg.dt_part), ring_mul(f, dg.du_part))


class TauCache:
    """Memoized cocycle values on ring monomial pairs over one reduction table."""

    def __init__(self, table: ReductionTable):
        self.table = table
        self.params = table.params
        self._memo: dict[tuple[int, int, int, int], DiffClass] = {}

    def tau_monomial(self, a_exp: int, a_sec: int, b_exp: int, b_sec: int) -> DiffClass:
        key = (a_exp, a_sec, b_exp, b_sec)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        one = PolyC.const(1)
        form = _cocycle_form(RingElem.monomial(self.params, one, a_exp, a_sec),
                             RingElem.monomial(self.params, one, b_exp, b_sec))
        out = self.table.reduce_terms(eliminate_du(form))
        self._memo[key] = out
        return out

    def tau(self, f: RingElem, g: RingElem) -> DiffClass:
        out = DiffClass.zero(self.params)
        for ae, asec, av in f.monomials():
            for be, bsec, bv in g.monomials():
                out = out + self.tau_monomial(ae, asec, be, bsec).scale(av * bv)
        return out


def tau_oracle(f: RingElem, g: RingElem) -> DiffClass:
    """class(f dg) by du-elimination and oracle reduction (no case split)."""
    return reduce_oracle(_cocycle_form(f, g))


# ---------------------------------------------------------------------------
# Brackets
# ---------------------------------------------------------------------------


def uce_bracket_oracle(
    a: UCEElem, b: UCEElem, cache: Optional[TauCache] = None
) -> UCEElem:
    """First-principles bracket; central parts of the inputs bracket to zero."""
    params = a.params
    if params != b.params:
        raise ValueError("parameter mismatch")
    current = CurrentElem.zero(params)
    central = DiffClass.zero(params)
    for ga, fa in a.current.parts.items():
        for gb, gbelem in b.current.parts.items():
            for gen, coef in _BRACKET[(ga, gb)]:
                prod = ring_mul(fa, gbelem).scale(PolyC.const(coef))
                current = current + CurrentElem(params, {gen: prod})
            kap = _KILLING.get((ga, gb))
            if kap:
                t = (
                    cache.tau(fa, gbelem)
                    if cache is not None
                    else tau_oracle(fa, gbelem)
                )
                central = central + t.scale(PolyC.const(kap))
    return UCEElem(current, central)


def uce_bracket_formula(a: UCEElem, b: UCEElem) -> UCEElem:
    """The printed Type I/II/III bracket formulas, per monomial pair.

    Central terms of Types I and III are monomial classes expanded in the
    basis by the oracle table; the Type II central term is the literal
    j * <x,y> * (i+j) * w0 as printed.
    """
    params = a.params
    if params != b.params:
        raise ValueError("parameter mismatch")
    m = params.m
    table = ring_table(params)
    current = CurrentElem.zero(params)
    central = DiffClass.zero(params)
    p = p_laurent(params)

    def expand_class(t_exp: int, sector: int, coef: PolyC) -> DiffClass:
        if sector >= m:
            out = DiffClass.zero(params)
            for pe, pv in p.items():
                out = out + table.reduce_monomial(t_exp + pe, sector - m).scale(coef * pv)
            return out
        return table.reduce_monomial(t_exp, sector).scale(coef)

    for ga, fa in a.current.parts.items():
        for gb, gbelem in b.current.parts.items():
            kap = _KILLING.get((ga, gb), 0)
            for i, l1, va in fa.monomials():
                for j, l2, vb in gbelem.monomials():
                    v = va * vb
                    L = l1 + l2
                    # current part
                    for gen, coef in _BRACKET[(ga, gb)]:
                        cur = RingElem.monomial(
                            params, v * coef, i + j, 0
                        )
                        if L:
                            # multiply in u^L with reduction
                            cur = ring_mul(
                                cur, RingElem.monomial(params, PolyC.const(1), 0, L)
                            )
                        current = current + CurrentElem(params, {gen: cur})
                    if not kap:
                        continue
                    kv = v * kap
                    if L == m:
                        # Type II, literal as printed: j <x,y> (i+j) w0
                        central = central + DiffClass(
                            params, omega0=kv * Fraction(j * (i + j))
                        )
                    else:
                        # Type I (L < m) / Type III (L > m): j <x,y> class(...)
                        central = central + expand_class(
                            i + j - 1, L, kv * Fraction(j)
                        )
    return UCEElem(current, central)


# ---------------------------------------------------------------------------
# Verification: Lie axioms and formula audit
# ---------------------------------------------------------------------------


def _grid_elements(params: RingParams, exp_bound: int):
    for g in GENS:
        for l in range(params.m):
            for i in range(-exp_bound, exp_bound + 1):
                yield (g, i, l)


def lie_axiom_check(
    params: RingParams,
    exp_bound: int = 4,
    direct_exp_bound: int = 1,
) -> dict:
    """Antisymmetry and Jacobi for the oracle bracket; exact, no tolerance.

    Antisymmetry is checked directly on all unordered element pairs of the
    grid.  The Jacobi identity is checked directly on the subgrid with
    |exponents| <= direct_exp_bound, and on the full grid through the exact
    bilinear factorization: the current part of the Jacobi sum vanishes by
    the sl2 Jacobi identity plus ring associativity/commutativity, and the
    central part equals kappa([x,y],z) times the cyclic cocycle sum
    tau(fg,h) + tau(gh,f) + tau(hf,g); all four ingredients are verified
    exhaustively over the grid.  Each grid element is built once, and the
    bracket of each ordered grid pair is computed once and reused as the
    inner bracket of the direct Jacobi sums.
    """
    if exp_bound < 0 or direct_exp_bound < 0:
        raise ValueError("exponent bounds must be >= 0")
    cache = TauCache(ring_table(params))
    report = {
        "antisymmetry_failures": [],
        "jacobi_direct_failures": [],
        "sl2_jacobi_failures": [],
        "killing_invariance_failures": [],
        "ring_assoc_failures": [],
        "cocycle_failures": [],
        "counts": {},
    }

    elems = list(_grid_elements(params, exp_bound))
    grid = {e: UCEElem(CurrentElem.monomial(params, *e)) for e in elems}
    brackets: dict[tuple, UCEElem] = {}  # (a, b) -> [a, b] over grid pairs

    # antisymmetry on unordered pairs (includes (a, a))
    n_pairs = 0
    for idx, ea in enumerate(elems):
        for eb in elems[idx:]:
            n_pairs += 1
            ab = brackets[ea, eb] = uce_bracket_oracle(grid[ea], grid[eb], cache)
            ba = brackets[eb, ea] = (
                ab if ea == eb else uce_bracket_oracle(grid[eb], grid[ea], cache)
            )
            if not (ab + ba).is_zero():
                report["antisymmetry_failures"].append({"a": ea, "b": eb})
    report["counts"]["antisymmetry_pairs"] = n_pairs

    # direct Jacobi on the subgrid; every outer bracket is computed
    sub = [e for e in elems if abs(e[1]) <= direct_exp_bound]
    n_direct = 0
    for a, b, c in itertools.combinations_with_replacement(sub, 3):
        n_direct += 1
        s = uce_bracket_oracle(brackets[a, b], grid[c], cache)
        s = s + uce_bracket_oracle(brackets[b, c], grid[a], cache)
        s = s + uce_bracket_oracle(brackets[c, a], grid[b], cache)
        if not s.is_zero():
            report["jacobi_direct_failures"].append({"a": a, "b": b, "c": c})
    report["counts"]["jacobi_direct_triples"] = n_direct

    # sl2 Jacobi and Killing invariance over all generator triples
    for gx, gy, gz in itertools.product(GENS, repeat=3):
        X, Y, Z = (SL2Elem.gen(g) for g in (gx, gy, gz))
        s = sl2_bracket(sl2_bracket(X, Y), Z)
        for t in (
            sl2_bracket(sl2_bracket(Y, Z), X),
            sl2_bracket(sl2_bracket(Z, X), Y),
        ):
            s = SL2Elem(
                s.e_coef + t.e_coef, s.h_coef + t.h_coef, s.f_coef + t.f_coef
            )
        if not (s.e_coef.is_zero() and s.h_coef.is_zero() and s.f_coef.is_zero()):
            report["sl2_jacobi_failures"].append((gx, gy, gz))
        if killing(sl2_bracket(X, Y), Z) != killing(X, sl2_bracket(Y, Z)):
            report["killing_invariance_failures"].append((gx, gy, gz))

    # ring associativity/commutativity and the cocycle identity
    # tau(fg,h) + tau(gh,f) + tau(hf,g) = 0 over monomial triples (exponent grid)
    n_triples = 0
    monos = [(i, l) for l in range(params.m) for i in range(-exp_bound, exp_bound + 1)]
    for ta, tb, tc in itertools.combinations_with_replacement(monos, 3):
        n_triples += 1
        fa, fb, fc = (RingElem.monomial(params, PolyC.const(1), *t) for t in (ta, tb, tc))
        ab, bc, ca = ring_mul(fa, fb), ring_mul(fb, fc), ring_mul(fc, fa)
        if ring_mul(ab, fc) != ring_mul(fa, bc) or ab != ring_mul(fb, fa):
            report["ring_assoc_failures"].append((ta, tb, tc))
        if not (cache.tau(ab, fc) + cache.tau(bc, fa) + cache.tau(ca, fb)).is_zero():
            report["cocycle_failures"].append((ta, tb, tc))
    report["counts"]["ring_triples"] = report["counts"]["cocycle_triples"] = n_triples

    report["ok"] = not any(
        report[k]
        for k in (
            "antisymmetry_failures",
            "jacobi_direct_failures",
            "sl2_jacobi_failures",
            "killing_invariance_failures",
            "ring_assoc_failures",
            "cocycle_failures",
        )
    )
    return report


def formula_vs_oracle(params: RingParams, exp_bound: int = 3) -> list[dict]:
    """Per-pair comparison of the printed bracket formulas with the oracle.

    Runs x = e, y = f (Killing value 1, the discriminating pairing) over all
    monomial pairs t^i u^l1, t^j u^l2 with |i|, |j| <= exp_bound and
    (l1, l2) != (0, 0).  Emits both central vectors; asserts nothing.
    """
    if exp_bound < 0:
        raise ValueError("exponent bound must be >= 0")
    cache = TauCache(ring_table(params))
    out = []
    m = params.m
    for l1 in range(m):
        for l2 in range(m):
            if (l1, l2) == (0, 0):
                continue
            btype = "I" if l1 + l2 < m else ("II" if l1 + l2 == m else "III")
            for i in range(-exp_bound, exp_bound + 1):
                for j in range(-exp_bound, exp_bound + 1):
                    A = UCEElem(CurrentElem.monomial(params, "e", i, l1))
                    B = UCEElem(CurrentElem.monomial(params, "f", j, l2))
                    formula = uce_bracket_formula(A, B)
                    oracle = uce_bracket_oracle(A, B, cache)
                    out.append(
                        {
                            "pair": {"i": i, "l1": l1, "j": j, "l2": l2},
                            "type": btype,
                            "formula_central": formula.central.to_json_dict(),
                            "oracle_central": oracle.central.to_json_dict(),
                            "central_match": formula.central == oracle.central,
                            "current_match": formula.current == oracle.current,
                            "match": formula == oracle,
                        }
                    )
    return out
