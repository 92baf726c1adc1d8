"""Symbolic free-field OPE engine.

Fields: one bosonic beta/gamma ghost pair and one Heisenberg field b per
sector, plus a single sector-0 exponential exp(a*phi0) carrying momentum a
(phi0 is the scalar with b0 = 2*d(phi0)).  A field expression is one term
map: a canonically sorted factor tuple and one momentum (a ``CoeffK``;
momentum 0 means no exponential) map to a nonzero ``CoeffK`` coefficient.
Every sum, product, derivative and Taylor order writes into such a map
through ``coeffs.sparse_add``; a ``NOMono`` is the one-term value that
``FieldExpr`` takes and ``FieldExpr.monomials`` returns.

Contraction rules (z first, w second):

    beta_l(z)  gamma_l(w)   ->  1/(z-w)
    gamma_l(z) beta_l(w)    ->  sigma_rev/(z-w)        (convention parameter)
    b_l(z)     b_l(w)       ->  2/(z-w)^2
    b_0(z or w) vs exp(a*phi0) at the other point -> 2a/(z-w), exp survives
    exp(a, z) exp(b, w)     ->  (z-w)^(a*b) * exp(a+b) at w

Derivatives dress propagators with the exact d/dz, d/dw factors.  A nested
normal ordering written :(AB)C: differs from the flat Fock ordering by
derivative corrections; the ``nesting`` convention parameter selects how
displayed triple products are read (see ``nested_product``).

``wick_ope`` sums over the cross contractions (no self contractions) in one
walk over the factors that merges like partial contractions, Taylor-shifts
each surviving z-content to w once, to the order needed for every kept
singular coefficient, and returns a generalized Laurent result: finitely
many sectors, each a fractional prefactor exponent epsilon with an integer
pole-order map (coefficient of (z-w)^(epsilon - d) at order d).  Ordinary
OPEs have the single sector epsilon = 0.  A Taylor shift is
A(z) = sum_n (z-w)^n/n! * d^n A(w), with every d^n/n! taken through
``FieldExpr.derivative``, the one place that knows the derivative rule.

Everything is immutable and pure; conventions are explicit arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .coeffs import CoeffK, is_integer_constant, sparse_add, specialize

KINDS = ("beta", "gamma", "heis")
MAX_EXTRA_ORDERS = 20  # wick_ope refuses more orders below the poles than this
MAX_SHIFT_ORDER = 24  # and a Taylor shift above this order: its terms grow like partition numbers
_KIND_RANK = {"beta": 0, "gamma": 1, "heis": 2}


@dataclass(frozen=True)
class ConventionConfig:
    """The two undetermined engine conventions."""

    sigma_rev: int = -1  # sign of gamma(z) beta(w)
    nesting: str = "right"  # reading of displayed triple products

    def __post_init__(self):
        if self.sigma_rev not in (1, -1):
            raise ValueError("sigma_rev must be +1 or -1")
        if self.nesting not in ("left", "right"):
            raise ValueError("nesting must be 'left' or 'right'")


ALL_CONFIGS = tuple(
    ConventionConfig(sigma_rev=s, nesting=n)
    for s in (1, -1)
    for n in ("left", "right")
)


@dataclass(frozen=True)
class FieldGen:
    kind: str
    sector: int
    deriv: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.sector < 0 or self.deriv < 0:
            raise ValueError("sector and derivative order must be non-negative")

    def dz(self) -> "FieldGen":
        return FieldGen(self.kind, self.sector, self.deriv + 1)

    def sort_key(self):
        return (self.sector, _KIND_RANK[self.kind], self.deriv)

    def render(self) -> str:
        name = {"beta": "beta", "gamma": "gamma", "heis": "b"}[self.kind]
        body = f"{name}[{self.sector}]"
        return body if self.deriv == 0 else f"D({body},{self.deriv})"


def _canon(factors: Iterable[FieldGen]) -> tuple:
    return tuple(sorted(factors, key=FieldGen.sort_key))


_B0 = FieldGen("heis", 0)


class NOMono:
    """coef * :factors... exp(momentum*phi0):, factors canonically sorted."""

    __slots__ = ("coef", "factors", "momentum")

    def __init__(self, coef: CoeffK, factors: Iterable[FieldGen] = (),
                 momentum: Optional[CoeffK] = None):
        self.coef = coef
        self.factors = _canon(factors)
        self.momentum = momentum if momentum is not None else CoeffK.zero()

    def render(self) -> str:
        parts = [g.render() for g in self.factors]
        if not self.momentum.is_zero():
            parts.append(f"exp({self.momentum.render()}, phi0)")
        if not parts:
            return self.coef.render()
        body = "*".join(parts)
        body = f"no({body})" if len(parts) > 1 else body
        cs = self.coef.render()
        if cs == "1":
            return body
        if cs == "-1":
            return f"-{body}"
        if "+" in cs or (cs.count("-") and not cs.startswith("-")) or "/" in cs:
            cs = f"({cs})"
        return f"{cs}*{body}"


class FieldExpr:
    """Finite sum of normally ordered monomials: ``terms`` maps
    (sorted factor tuple, momentum) to a nonzero coefficient."""

    __slots__ = ("terms",)

    def __init__(self, monos: Iterable[NOMono] = ()):
        terms: dict = {}
        for mo in monos:
            sparse_add(terms, (mo.factors, mo.momentum), mo.coef)
        self.terms = terms

    @staticmethod
    def _of(terms: dict) -> "FieldExpr":
        """Wrap a term map that is already clean (sorted factors, no zero coefficient)."""
        fe = FieldExpr.__new__(FieldExpr)
        fe.terms = terms
        return fe

    # -- constructors
    @staticmethod
    def zero() -> "FieldExpr":
        return FieldExpr()

    @staticmethod
    def generator(kind: str, sector: int, deriv: int = 0) -> "FieldExpr":
        return FieldExpr([NOMono(CoeffK.one(), [FieldGen(kind, sector, deriv)])])

    @staticmethod
    def exponential(momentum: CoeffK) -> "FieldExpr":
        return FieldExpr([NOMono(CoeffK.one(), [], momentum)])

    @staticmethod
    def const(q: CoeffK) -> "FieldExpr":
        return FieldExpr([NOMono(q, [])])

    # -- queries
    def is_zero(self) -> bool:
        return not self.terms

    def monomials(self) -> list[NOMono]:
        return [NOMono(self.terms[k], *k) for k in sorted(self.terms, key=_term_sort_key)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms))

    # -- algebra
    def __add__(self, other: "FieldExpr") -> "FieldExpr":
        terms = dict(self.terms)
        for k, v in other.terms.items():
            sparse_add(terms, k, v)
        return FieldExpr._of(terms)

    def scale(self, q: CoeffK) -> "FieldExpr":
        if q.is_zero():
            return FieldExpr()
        return FieldExpr._of({k: v * q for k, v in self.terms.items()})

    def __neg__(self) -> "FieldExpr":
        return FieldExpr._of({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "FieldExpr") -> "FieldExpr":
        return self + (-other)

    def __mul__(self, other: "FieldExpr") -> "FieldExpr":
        """Same-point normally ordered product (no contractions)."""
        terms: dict = {}
        for (fa, ma), a in self.terms.items():
            for (fb, mb), b in other.terms.items():
                sparse_add(terms, (_canon(fa + fb), ma + mb), a * b)
        return FieldExpr._of(terms)

    def derivative(self) -> "FieldExpr":
        """Formal d/dz by the Leibniz rule; d(exp) = momentum * d(phi0) * exp."""
        terms: dict = {}
        for (factors, mom), coef in self.terms.items():
            for idx, g in enumerate(factors):
                sparse_add(terms, (_canon(factors[:idx] + (g.dz(),) + factors[idx + 1:]), mom),
                           coef)
            if not mom.is_zero():
                # d exp(a phi) = a * dphi * exp = (a/2) * b0 * exp
                sparse_add(terms, (_canon(factors + (_B0,)), mom), coef * mom * Fraction(1, 2))
        return FieldExpr._of(terms)

    def renamed(self, sigma: dict) -> "FieldExpr":
        """The same sum with every generator of sector l moved to sigma[l]."""
        # sigma is injective: no terms meet
        return FieldExpr._of({
            (_canon(FieldGen(g.kind, sigma[g.sector], g.deriv) for g in factors), mom): coef
            for (factors, mom), coef in self.terms.items()
        })

    def sectors(self) -> set:
        return {g.sector for factors, _mom in self.terms for g in factors}

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = [mo.render() for mo in self.monomials()]
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text

    def __repr__(self):
        return f"FieldExpr({self.render()})"


def canonical_sectors(*sector_sets: set) -> dict:
    """The monotone map of the nonzero sectors in sector_sets onto 1..n,
    fixing 0.

    Contractions compare sectors only with each other and with 0, so
    ``wick_ope`` commutes with this renaming of the sectors of its fields,
    which also keeps sort orders.
    """
    nonzero = sorted(set().union(*sector_sets) - {0})
    return {0: 0, **{l: i for i, l in enumerate(nonzero, 1)}}


def _term_sort_key(key):
    factors, mom = key
    return (len(factors), tuple(g.sort_key() for g in factors), mom.key_order())


def nested_product(factors: list[FieldGen], conv: ConventionConfig) -> FieldExpr:
    """Read a displayed multi-factor normal product under the nesting convention.

    ``right`` nests from the right, :A(:B C:):, which for these free fields
    coincides with the flat Fock ordering.  ``left`` nests from the left,
    :(:A B:)C:, which picks up derivative corrections: contracting inside the
    point-split pair :A B:(x) against C(w) leaves a field at x whose Taylor
    coefficient at first order survives the x -> w limit.
    """
    if conv.nesting == "right" or len(factors) < 3:
        return FieldExpr([NOMono(CoeffK.one(), factors)])
    # Left nesting: fold from the left.  Appending C(w) to the point-split
    # composite :A1..An:(x) adds, per inner factor Ai contracting C with
    # propagator coef/(x-w)^q, the (x-w)^0 coefficient of
    # coef/(x-w)^q * (product of the other inner factors)(x), i.e. coef
    # times the q-th Taylor coefficient of the surviving inner product.
    acc = FieldExpr([NOMono(CoeffK.one(), factors[:1])])
    for g in factors[1:]:
        flat: dict = {}
        for (fs, mom), coef in acc.terms.items():
            sparse_add(flat, (_canon(fs + (g,)), mom), coef)
            for idx, inner in enumerate(fs):
                pr = contract_pair(inner, g, conv)
                if pr is None:
                    continue
                q, pc = pr
                shifted = taylor_shift(NOMono(coef * pc, fs[:idx] + fs[idx + 1:], mom), q)
                for k, v in shifted[q].terms.items():
                    sparse_add(flat, k, v)
        acc = FieldExpr._of(flat)
    return acc


# ---------------------------------------------------------------------------
# Propagators
# ---------------------------------------------------------------------------


def _pair_base(a: FieldGen, b: FieldGen, conv: ConventionConfig):
    """Base propagator <a(z) b(w)> ignoring derivatives: (order, coef) or None."""
    if a.sector != b.sector:
        return None
    ka, kb = a.kind, b.kind
    if ka == "beta" and kb == "gamma":
        return (1, CoeffK.one())
    if ka == "gamma" and kb == "beta":
        return (1, CoeffK.from_int(conv.sigma_rev))
    if ka == "heis" and kb == "heis":
        return (2, CoeffK.from_int(2))
    return None


def _dress(order: int, coef: CoeffK, dz: int, dw: int) -> tuple[int, CoeffK]:
    """Apply d/dw^dw then d/dz^dz to C/(z-w)^order."""
    q = order
    for _ in range(dw):
        coef = coef * q
        q += 1
    for _ in range(dz):
        coef = coef * (-q)
        q += 1
    return q, coef


def contract_pair(a: FieldGen, b: FieldGen, conv: ConventionConfig):
    """Full propagator <a(z) b(w)> with derivative dressing, or None."""
    base = _pair_base(a, b, conv)
    if base is None:
        return None
    order, coef = _dress(base[0], base[1], a.deriv, b.deriv)
    return order, coef


def contract_exp(g: FieldGen, momentum: CoeffK, heis_at: str = "z"):
    """Sector-0 Heisenberg against exp(momentum*phi0): 2a/(z-w), either order.

    The exponential survives the contraction (it is an eigen-operator of the
    Heisenberg current); only the b-generator is consumed.  Momentum 0 means
    there is no exponential.
    """
    if g.kind != "heis" or g.sector != 0 or momentum.is_zero():
        return None
    two_a = CoeffK.from_int(2) * momentum
    if heis_at == "z":
        return _dress(1, two_a, g.deriv, 0)
    return _dress(1, two_a, 0, g.deriv)


# ---------------------------------------------------------------------------
# Taylor re-expansion at the second point
# ---------------------------------------------------------------------------


def taylor_shift(mono: NOMono, order: int) -> dict[int, FieldExpr]:
    """Re-expand a z-located monomial at w, graded by the displacement power.

    Returns {n: d^n(mono)/n!}, the coefficient of (z-w)^n, for n = 0..order.
    Each step is one ``FieldExpr.derivative``, so the exponential's
    corrections come from its rule d exp(a phi0) = (a/2) b0 exp.
    """
    if order < 0:
        raise ValueError("Taylor order must be non-negative")
    shifted = {0: FieldExpr([mono])}
    for n in range(1, order + 1):
        shifted[n] = shifted[n - 1].derivative().scale(CoeffK.from_rat(Fraction(1, n)))
    return shifted


# ---------------------------------------------------------------------------
# Generalized Laurent result
# ---------------------------------------------------------------------------


@dataclass
class OPESector:
    epsilon: CoeffK
    poles: dict  # order d (int; d >= 1 singular, d <= 0 optional) -> FieldExpr

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon.render(),
            "poles": [
                {"order": d, "field": self.poles[d].render()}
                for d in sorted(self.poles, reverse=True)
            ],
        }


def _sector_sort_key(sec: OPESector) -> str:
    """Sectors are listed in the order of the text of their exponents' term sets."""
    eps = sec.epsilon
    return repr((frozenset(eps.num.coeffs.items()), frozenset(eps.den.coeffs.items())))


class OPEResult:
    """Finitely many epsilon-sectors, each with an integer pole-order map.

    Pole order d holds the coefficient of (z-w)^(epsilon - d).  For ordinary
    OPEs there is a single sector with epsilon = 0.  Mixed sums of
    exponential-bearing and exponential-free monomials produce one sector
    per distinct pairwise exponent.
    """

    def __init__(self, sectors: Iterable[OPESector] = ()):
        """One sector per epsilon; zero poles and empty sectors are dropped."""
        self.sectors: dict = {}
        seen = set()
        for sec in sectors:
            if sec.epsilon in seen:
                raise ValueError(f"two sectors with epsilon {sec.epsilon.render()}")
            seen.add(sec.epsilon)
            poles = {d: fe for d, fe in sec.poles.items() if not fe.is_zero()}
            if poles:
                self.sectors[sec.epsilon] = OPESector(sec.epsilon, poles)

    def sector_list(self) -> list[OPESector]:
        return sorted(self.sectors.values(), key=_sector_sort_key)

    def is_trivial(self) -> bool:
        return not self.sectors

    @property
    def laurent(self) -> bool:
        return all(
            is_integer_constant(sec.epsilon) is not None
            for sec in self.sectors.values()
        )

    def single(self) -> OPESector:
        if len(self.sectors) != 1:
            raise ValueError(
                f"result has {len(self.sectors)} epsilon-sectors, not 1"
            )
        return next(iter(self.sectors.values()))

    def zero_sector_pole(self, d: int) -> FieldExpr:
        """Pole coefficient at order d in the epsilon = 0 sector."""
        sec = self.sectors.get(CoeffK.zero())
        if sec is None:
            return FieldExpr.zero()
        return sec.poles.get(d, FieldExpr.zero())

    def fractional_sectors(self) -> list[OPESector]:
        return [
            sec
            for sec in self.sector_list()
            if not sec.epsilon.is_zero()
        ]

    def to_json_dict(self) -> dict:
        secs = [sec.to_json_dict() for sec in self.sector_list()]
        out: dict = {"laurent": self.laurent}
        if len(secs) == 1:
            out.update(secs[0])
        else:
            out["sectors"] = secs
        return out


def wick_ope(
    E: FieldExpr,
    F: FieldExpr,
    conv: ConventionConfig,
    extra_orders: int = 0,
) -> OPEResult:
    """Generalized Wick OPE of E(z) F(w).

    Per pair of monomials, one walk over the factors builds the partial
    contractions, like ones merged: a state is (free w-factors, surviving
    z-factors, pole order D) with a summed coefficient.  Each w-factor
    stays free or meets the z-exponential; then each z-factor survives,
    meets the w-exponential or takes one free w-factor.  Exponentials have
    unlimited capacity and always survive.  The w-factors go first so that
    a repeated factor is not counted twice against the z-exponential.  Each
    final state's z-content is Taylor-shifted to w once, so that every kept
    order is exact, and each shifted term is added straight into the term
    map of its pole.  Orders d >= 1 - extra_orders are kept per sector; the
    default keeps exactly the singular orders.  A ValueError refuses
    extra_orders above ``MAX_EXTRA_ORDERS`` and a state whose shift order
    D - (1 - extra_orders) is above ``MAX_SHIFT_ORDER``.
    """
    if extra_orders < 0:
        raise ValueError("extra_orders must be non-negative")
    if extra_orders > MAX_EXTRA_ORDERS:
        raise ValueError(f"extra_orders {extra_orders} above the bound {MAX_EXTRA_ORDERS}")
    sectors: dict = {}  # epsilon -> {d: term map of that pole}
    d_min = 1 - extra_orders
    for (fE, a), cE in E.terms.items():
        for (fF, b), cF in F.terms.items():
            eps = a * b  # the prefactor (z-w)^(a*b)
            poles = sectors.setdefault(eps, {})
            merged = a + b  # the momentum at w
            # (free w-factors, surviving z-factors, D) -> coefficient; both
            # tuples are subsequences of sorted factor lists, so like states meet
            states = {((), (), 0): cE * cF}
            for h in fF:
                pe = contract_exp(h, a, heis_at="w")
                nxt: dict = {}
                for (wf, zf, D), coef in states.items():
                    sparse_add(nxt, (wf + (h,), zf, D), coef)
                    if pe is not None:
                        sparse_add(nxt, (wf, zf, D + pe[0]), coef * pe[1])
                states = nxt
            for g in fE:
                pe = contract_exp(g, b, heis_at="z")
                pairs = {h: contract_pair(g, h, conv) for h in fF}
                nxt = {}
                for (wf, zf, D), coef in states.items():
                    sparse_add(nxt, (wf, zf + (g,), D), coef)
                    if pe is not None:
                        sparse_add(nxt, (wf, zf, D + pe[0]), coef * pe[1])
                    for j, h in enumerate(wf):
                        pr = pairs[h]
                        if pr is not None:
                            sparse_add(nxt, (wf[:j] + wf[j + 1:], zf, D + pr[0]), coef * pr[1])
                states = nxt
            n_top = max((D for _wf, _zf, D in states), default=0) - d_min
            if n_top > MAX_SHIFT_ORDER:
                raise ValueError(f"Taylor shift to order {n_top} above the bound {MAX_SHIFT_ORDER}")
            for (wf, zf, D), coef in states.items():
                n_max = D - d_min
                if n_max < 0:
                    continue
                for n, fe in taylor_shift(NOMono(coef, zf, a), n_max).items():
                    pole = poles.setdefault(D - n, {})
                    for (fs, _a), v in fe.terms.items():
                        sparse_add(pole, (_canon(fs + wf), merged), v)

    return OPEResult(
        OPESector(eps, {d: FieldExpr._of(terms) for d, terms in poles.items()})
        for eps, poles in sectors.items()
    )


# ---------------------------------------------------------------------------
# Charges and Laurent classification
# ---------------------------------------------------------------------------


def charge_of(
    probe: FieldExpr, F: FieldExpr, conv: ConventionConfig
) -> Optional[CoeffK]:
    """The scalar lam with first-order pole of probe(z) F(w) = lam * F(w).

    Returns None if the first-order pole is not a scalar multiple of F.
    Prerequisite: the probe carries no exponential, so the OPE stays in the
    epsilon = 0 sector.
    """
    return scalar_ratio(wick_ope(probe, F, conv).zero_sector_pole(1), F)


def scalar_ratio(pole1: FieldExpr, F: FieldExpr) -> Optional[CoeffK]:
    """The scalar lam with pole1 = lam * F, or None if there is none."""
    if F.is_zero():
        return None
    if pole1.is_zero():
        return CoeffK.zero()
    # candidate scalar from any shared monomial of F
    lam = None
    for k, v in F.terms.items():
        other = pole1.terms.get(k)
        if other is not None:
            lam = other / v
            break
    if lam is None:
        return None
    return lam if pole1 == F.scale(lam) else None


def is_laurent(result: OPEResult, k_val: Optional[Fraction] = None):
    """Classify the singular structure (generalized Laurent arithmetic).

    Returns one of: ("laurent",), ("branch_cut",), ("integer_pole", n),
    ("regular",).  A result with a fractional sector is classified by the
    exponent of its first one through ``exponent_class``, optionally after
    specializing k; poles from other contractions, if any, are reported by
    the callers alongside, not folded into this arithmetic classification.
    A result whose sectors all carry integer-zero exponents is an ordinary
    Laurent series.
    """
    fracs = result.fractional_sectors()
    if not fracs:
        has_pole = any(
            d >= 1 for sec in result.sector_list() for d in sec.poles
        )
        return ("laurent",) if has_pole else ("regular",)
    # classify by the first fractional exponent: unique for the built
    # operators, not for all CLI input (two sectors misread, ROADMAP item 1)
    return exponent_class(integer_exponent(fracs[0].epsilon, k_val))


def integer_exponent(eps: CoeffK, k_val: Optional[Fraction] = None) -> Optional[int]:
    """The exponent eps, at k = k_val when given, as an integer; None if it is not one."""
    return is_integer_constant(eps if k_val is None else specialize(eps, None, Fraction(k_val)))


def exponent_class(n: Optional[int]) -> tuple:
    """The classification of a prefactor (z-w)^eps from n = ``integer_exponent(eps)``.

    A non-integer exponent (n None) is a branch cut; exponent -n with n >= 1
    guarantees an integer-order pole of order at least n; a non-negative
    integer exponent makes the prefactor regular.
    """
    if n is None:
        return ("branch_cut",)
    return ("integer_pole", -n) if n <= -1 else ("regular",)


def classification_text(cls: tuple) -> str:
    """``is_laurent``'s classification as printed: its name, then any pole order in parentheses."""
    return cls[0] + (f"({cls[1]})" if len(cls) > 1 else "")
