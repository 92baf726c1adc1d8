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

sl2 is its two generator tables, ``_BRACKET`` and ``_KILLING``: the brackets
read them, and the sl2 checks of ``lie_axiom_check`` verify them by bilinear
extension, so what is checked is what is used.

A bracket adds its terms into a current term map {(gen, sector, t): PolyC} and
a central one (``DiffClass.terms``) by ``sparse_add`` and wraps them once; the
formula sums its central terms as monomial classes and reduces them once.  A direct
Jacobi triple sums its three outer brackets in one pair of maps.  tau comes from
one ``TauCache`` per ring (``tau_cache``), kept for the process like the ring's
reduction table, and the ring-free sl2 pass runs once per process.  tau(t^i u^a, t^j u^b)
is ((j*a - i*b)/(a+b)) class(t^(i+j-1) u^(a+b) dt), as d(t^(i+j) u^(a+b)) is exact
(``kahler.cocycle_terms``); ``tau_oracle`` reduces the form f dg instead.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Optional

from .coeffs import PolyC, sparse_add
from .kahler import (
    DiffClass,
    ReductionTable,
    class_terms,
    cocycle_form,
    cocycle_terms,
    reduce_oracle,
    ring_table,
)
from .ring import RingElem, RingParams, p_laurent, ring_mul

GENS = ("e", "h", "f")


# sl2 on its generators, the one source of its structure: (x, y) -> [x, y] as
# ((generator, integer coefficient), ...), and (x, y) -> a nonzero Killing pairing
# <x, y>, normalized with <e, f> = 1, <h, h> = 2.
_BRACKET = {
    ("e", "e"): (), ("e", "h"): (("e", -2),), ("e", "f"): (("h", 1),),
    ("h", "e"): (("e", 2),), ("h", "h"): (), ("h", "f"): (("f", -2),),
    ("f", "e"): (("h", -1),), ("f", "h"): (("f", 2),), ("f", "f"): (),
}
_KILLING = {("e", "f"): 1, ("h", "h"): 2, ("f", "e"): 1}


def killing(x: str, y: str) -> int:
    """The Killing pairing <x, y> of two generators."""
    return _KILLING.get((x, y), 0)


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


class TauCache:
    """Memoized cocycle values on ring monomial pairs, from ``kahler.cocycle_terms``."""

    def __init__(self, table: ReductionTable):
        self.table = table
        self.params = table.params
        self._memo: dict[tuple[int, int, int, int], DiffClass] = {}

    def tau_monomial(self, a_exp: int, a_sec: int, b_exp: int, b_sec: int) -> DiffClass:
        key = (a_exp, a_sec, b_exp, b_sec)
        if key not in self._memo:
            self._memo[key] = self.table.reduce_terms(cocycle_terms(self.params, *key))
        return self._memo[key]

    def tau(self, f: RingElem, g: RingElem, central: Optional[dict] = None,
            k: int = 1) -> Optional[DiffClass]:
        """tau(f, g) over the memoized monomial pairs; given a central term map
        (keyed as ``DiffClass.terms``), k * tau(f, g) is added into it instead."""
        out = {} if central is None else central
        for asec, alt in f.sectors.items():
            for ae, av in alt.items():
                for bsec, blt in g.sectors.items():
                    for be, bv in blt.items():
                        self.tau_monomial(ae, asec, be, bsec).add_into(out, av * bv * k)
        return DiffClass._of(self.params, out) if central is None else None


@functools.cache
def tau_cache(params: RingParams) -> TauCache:
    """The one cocycle memo of the ring, over ``ring_table``, kept for the process."""
    return TauCache(ring_table(params))


def tau_oracle(f: RingElem, g: RingElem) -> DiffClass:
    """class(f dg) by du-elimination and oracle reduction (no case split)."""
    return reduce_oracle(cocycle_form(f, g))


# ---------------------------------------------------------------------------
# Brackets, summed in a current and a central term map and wrapped once
# ---------------------------------------------------------------------------


def _wrap(params: RingParams, current: dict, central: dict) -> UCEElem:
    """The element whose current and central term maps are given (the maps are taken over)."""
    parts: dict[str, dict[int, dict[int, PolyC]]] = {}
    for (g, l, e), v in current.items():
        parts.setdefault(g, {}).setdefault(l, {})[e] = v
    return UCEElem(CurrentElem(params, {g: RingElem._of(params, s) for g, s in parts.items()}),
                   DiffClass._of(params, central))


def _bracket_into(maps: tuple[dict, dict], a: UCEElem, b: UCEElem) -> tuple[dict, dict]:
    """Add the oracle bracket [a, b] into the (current, central) term maps and return them;
    central parts of the inputs bracket to zero."""
    current, central = maps
    taus = tau_cache(a.params)
    for ga, fa in a.current.parts.items():
        for gb, fb in b.current.parts.items():
            gens = _BRACKET[(ga, gb)]
            if gens:
                for l, lt in ring_mul(fa, fb).sectors.items():
                    for e, v in lt.items():
                        for gen, coef in gens:
                            sparse_add(current, (gen, l, e), v * coef)
            kap = _KILLING.get((ga, gb))
            if kap:
                taus.tau(fa, fb, central, kap)
    return maps


def uce_bracket_oracle(a: UCEElem, b: UCEElem) -> UCEElem:
    """First-principles bracket; central parts of the inputs bracket to zero."""
    if a.params != b.params:
        raise ValueError("parameter mismatch")
    return _wrap(a.params, *_bracket_into(({}, {}), a, b))


def uce_bracket_formula(a: UCEElem, b: UCEElem) -> UCEElem:
    """The printed Type I/II/III bracket formulas, per monomial pair.

    Their central terms are summed as monomial classes (``kahler.class_terms``) and expanded
    in the basis by the oracle table at once; the Type II term is the literal
    j <x,y> (i+j) w0 as printed, and w0 = class(t^-1 dt).
    """
    params = a.params
    if params != b.params:
        raise ValueError("parameter mismatch")
    m = params.m
    current, terms = {}, {}
    p = p_laurent(params).items()
    unwrapped = ((0, PolyC.const(1)),)

    for ga, fa in a.current.parts.items():
        for gb, gbelem in b.current.parts.items():
            kap = _KILLING.get((ga, gb), 0)
            for i, l1, va in fa.monomials():
                for j, l2, vb in gbelem.monomials():
                    v = va * vb
                    L = l1 + l2
                    # t^(i+j) u^L, with u^m -> p(t) when L >= m
                    wrap = p if L >= m else unwrapped
                    for gen, coef in _BRACKET[(ga, gb)]:
                        for pe, pv in wrap:
                            sparse_add(current, (gen, L % m, i + j + pe), v * coef * pv)
                    if not kap:
                        continue
                    if L == m:  # Type II, literal as printed: j <x,y> (i+j) class(t^-1 dt)
                        sparse_add(terms, (-1, 0), v * kap * Fraction(j * (i + j)))
                    else:  # Types I and III: j <x,y> class(t^(i+j-1) u^L dt)
                        class_terms(params, i + j - 1, L, v * kap * j, terms)
    return _wrap(params, current, ring_table(params).reduce_terms(terms).terms)


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
    taus = tau_cache(params)
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

    # antisymmetry on unordered pairs (includes (a, a)): [a, b] and [b, a] in
    # term maps, opposite term by term
    n_pairs = 0
    for idx, ea in enumerate(elems):
        for eb in elems[idx:]:
            n_pairs += 1
            ab = _bracket_into(({}, {}), grid[ea], grid[eb])
            ba = ab if ea == eb else _bracket_into(({}, {}), grid[eb], grid[ea])
            if not all(x.keys() == y.keys() and all(v == -y[k] for k, v in x.items())
                       for x, y in zip(ab, ba)):
                report["antisymmetry_failures"].append({"a": ea, "b": eb})
            brackets[ea, eb] = _wrap(params, *ab)
            brackets[eb, ea] = brackets[ea, eb] if ea == eb else _wrap(params, *ba)
    report["counts"]["antisymmetry_pairs"] = n_pairs

    # direct Jacobi on the subgrid; the three outer brackets of a triple are
    # added into one pair of term maps, which must end empty
    sub = [e for e in elems if abs(e[1]) <= direct_exp_bound]
    n_direct = 0
    for a, b, c in itertools.combinations_with_replacement(sub, 3):
        n_direct += 1
        s: tuple[dict, dict] = ({}, {})
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            _bracket_into(s, brackets[x, y], grid[z])
        if any(s):
            report["jacobi_direct_failures"].append({"a": a, "b": b, "c": c})
    report["counts"]["jacobi_direct_triples"] = n_direct

    jac, inv = _sl2_failures()
    report["sl2_jacobi_failures"], report["killing_invariance_failures"] = list(jac), list(inv)

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
        cyclic: dict = {}
        for f, g in ((ab, fc), (bc, fa), (ca, fb)):
            taus.tau(f, g, cyclic)
        if cyclic:
            report["cocycle_failures"].append((ta, tb, tc))
    report["counts"]["ring_triples"] = report["counts"]["cocycle_triples"] = n_triples

    report["ok"] = not any(v for k, v in report.items() if k.endswith("_failures"))
    return report


@functools.cache
def _sl2_failures() -> tuple[tuple, tuple]:
    """(sl2 Jacobi failures, Killing invariance failures) over all generator
    triples, by bilinear extension of ``_BRACKET`` and ``_KILLING``, the tables
    the brackets read; the pass reads no ring, so it runs once per process."""
    jac, inv = [], []
    for gx, gy, gz in itertools.product(GENS, repeat=3):
        cyclic: dict[str, int] = {}  # [[x, y], z] + [[y, z], x] + [[z, x], y]
        for a, b, c in ((gx, gy, gz), (gy, gz, gx), (gz, gx, gy)):
            for g, u in _BRACKET[a, b]:
                for gen, v in _BRACKET[g, c]:
                    cyclic[gen] = cyclic.get(gen, 0) + u * v
        if any(cyclic.values()):
            jac.append((gx, gy, gz))
        if (sum(u * killing(g, gz) for g, u in _BRACKET[gx, gy])
                != sum(v * killing(gx, g) for g, v in _BRACKET[gy, gz])):
            inv.append((gx, gy, gz))
    return tuple(jac), tuple(inv)


def formula_vs_oracle(params: RingParams, exp_bound: int = 3) -> list[dict]:
    """Per-pair comparison of the printed bracket formulas with the oracle.

    Runs x = e, y = f (Killing value 1, the discriminating pairing) over all
    monomial pairs t^i u^l1, t^j u^l2 with |i|, |j| <= exp_bound and
    (l1, l2) != (0, 0).  Emits both central vectors; asserts nothing.
    """
    if exp_bound < 0:
        raise ValueError("exponent bound must be >= 0")
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
                    oracle = uce_bracket_oracle(A, B)
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
