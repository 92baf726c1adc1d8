"""Kahler differentials of A and the quotient Omega^1 / dA.

The quotient has the basis

    w0 = class(t^-1 dt),    w(l, -j) = class(t^-j u^l dt),
    l = 1..m-1, j = 1..2r,

of dimension 2r(m-1) + 1.  A class is one term map over that basis
(``DiffClass.terms``: w0 under ``W0``, w(l, -j) under (l, j)), and a sum of
monomial classes is one map {(t exponent e, sector l): coef}, meaning the sum
of coef * class(t^e u^l dt): ``eliminate_du``, ``class_terms`` and
``cocycle_terms`` write it, ``ReductionTable.reduce_terms`` expands it.

One walker, ``coeffs.walk_recurrence``, reduces a class, with one of two shifts of one
three-term relation (``_relation``).  In a sector l >= 1 the classes cl(e) = class(t^e u^l dt)
obey, at every n,

    mn cl(n-1) - 2c(mn + r*shift) cl(n+r-1) + (mn + 2r*shift) cl(n+2r-1) = 0.

Solved for its column farthest from the basis block -2r..-1 (``_solved_for``), it walks a
class out of the block along its residue class mod r (step r above it, -r below): a column
there is a w(l, -j) + b w(l, -j-r), two scalar walks from the seeds (1, 0) and (0, 1).

* Shift m + l, the corrected relation: ``reduce_oracle``, the normative reducer.  It is -l
  times the image of t^n u^l (m u^(m-1) du - p'(t) dt) = 0 under du-elimination; its pivot
  is mn + 2r(m+l) > 0 above the block and mn != 0 below it, so every class walks to the
  block exactly over Q[c].  Sector 0 is trivial: t^e dt is exact unless e = -1.

* Shift l, the stated recurrence, which has l where the derivative of u^(m+l) gives m + l:
  ``reduce_recurrence``, reproduced for audit and cross-checked against the oracle; nothing
  else reduces through it.  Every instance it solves is logged with a validity flag;
  ``verify_recurrence`` evaluates both relations on oracle-reduced classes and reports which
  ones actually hold.

Values are immutable.  Each ring has one reduction table (``ring_table``), kept for the
process, which holds every coordinate a walk has passed.  A coordinate is a pure function of
the ring and (e, l, j), stored after its two inward neighbours, so the table takes no lock:
two threads can at worst walk one coordinate twice and store equal values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .coeffs import PolyC, sparse_add, walk_recurrence
from .families import seeds
from .ring import RingElem, RingParams, dp_laurent, p_laurent, ring_mul


MAX_REACH = 1000  # farthest t exponent, either sign, a walk reaches: its cost grows about as e^3
W0 = (0, 0)  # the key of w0 in ``DiffClass.terms``, beside the odd keys (l, j) with l, j >= 1


class PivotError(ValueError):
    """Raised on a degenerate pivot of a three-term relation."""


class ReductionWindow:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise ValueError("empty reduction window")
        self.lo, self.hi = lo, hi

    def __eq__(self, other):
        if type(other) is not ReductionWindow:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def enlarged(self, amount: int) -> "ReductionWindow":
        return ReductionWindow(self.lo - amount, self.hi + amount)


class DiffForm:
    """a*dt + b*du with a, b in A."""

    __slots__ = ("dt_part", "du_part")

    def __init__(self, dt_part: RingElem, du_part: RingElem):
        if dt_part.params != du_part.params:
            raise ValueError("dt and du parts disagree on ring parameters")
        self.dt_part, self.du_part = dt_part, du_part

    @property
    def params(self) -> RingParams:
        return self.dt_part.params


class DiffClass:
    """Coordinates over the basis {w0; w(l)_(-j)} of Omega^1/dA, as one term map
    {basis key: nonzero PolyC}: w0 under ``W0``, w(l)_(-j) under (l, j)."""

    __slots__ = ("params", "terms")

    def __init__(self, params: RingParams, omega0: PolyC | None = None,
                 odd: dict[tuple[int, int], PolyC] | None = None):
        terms: dict[tuple[int, int], PolyC] = {}
        if omega0 is not None and not omega0.is_zero():
            terms[W0] = omega0
        for (l, j), v in (odd or {}).items():
            if not (1 <= l <= params.m - 1 and 1 <= j <= 2 * params.r):
                raise ValueError(f"basis label (l={l}, j={j}) out of range")
            if not v.is_zero():
                terms[(l, j)] = v
        self.params, self.terms = params, terms

    @staticmethod
    def _of(params: RingParams, terms: dict[tuple[int, int], PolyC]) -> "DiffClass":
        """Take over a clean term map {basis key: nonzero PolyC}, w0 under ``W0``."""
        cls = object.__new__(DiffClass)
        cls.params, cls.terms = params, terms
        return cls

    @property
    def omega0(self) -> PolyC:
        return self.terms.get(W0, PolyC.zero())

    @property
    def odd(self) -> dict[tuple[int, int], PolyC]:
        return {key: v for key, v in self.terms.items() if key != W0}

    def add_into(self, terms: dict[tuple[int, int], PolyC], q: PolyC) -> None:
        """terms += q * self, over a term map keyed as ``self.terms``."""
        for key, v in self.terms.items():
            sparse_add(terms, key, v * q)

    @staticmethod
    def zero(params: RingParams) -> "DiffClass":
        return DiffClass._of(params, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiffClass) and self.params == other.params
                and self.terms == other.terms)

    def __add__(self, other: "DiffClass") -> "DiffClass":
        if self.params != other.params:
            raise ValueError("parameter mismatch")
        terms = dict(self.terms)
        other.add_into(terms, PolyC.const(1))
        return DiffClass._of(self.params, terms)

    def scale(self, q: PolyC) -> "DiffClass":
        if q.is_zero():
            return DiffClass.zero(self.params)
        return DiffClass._of(self.params, {key: v * q for key, v in self.terms.items()})

    def coeff(self, l: int, j: int) -> PolyC:
        return self.terms.get((l, j), PolyC.zero())

    def to_json_dict(self) -> dict:
        return {
            "omega0": self.omega0.render(),
            "odd": [{"l": l, "j": j, "coef": self.terms[(l, j)].render()}
                    for (l, j) in sorted(self.terms) if l],
        }

    def render(self) -> str:
        parts = [f"({self.terms[(l, j)].render()})*" + (f"w({l},-{j})" if l else "w0")
                 for (l, j) in sorted(self.terms)]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"DiffClass({self.render()})"


# ---------------------------------------------------------------------------
# Differential and du-elimination
# ---------------------------------------------------------------------------


def differential(a: RingElem) -> DiffForm:
    """Leibniz differential: d(t^n u^l) = n t^(n-1) u^l dt + l t^n u^(l-1) du."""
    dt: dict[int, dict[int, PolyC]] = {}
    du: dict[int, dict[int, PolyC]] = {}
    for e, l, v in a.monomials():  # distinct monomials give distinct terms
        if e:
            dt.setdefault(l, {})[e - 1] = v * e
        if l:
            du.setdefault(l - 1, {})[e] = v * l
    return DiffForm(RingElem._of(a.params, dt), RingElem._of(a.params, du))


def _du_monomial_classes(n: int, j: int, params: RingParams, coef: PolyC, out: dict) -> None:
    """Add coef * t^n u^j du, mod dA, into the monomial classes ``out`` (``eliminate_du``).

    j <= m-2 uses exactness of d(t^n u^(j+1)) (nothing at n = 0); j = m-1 uses the module
    relation m u^(m-1) du = p'(t) dt, which is exact in Omega^1 itself.
    """
    m = params.m
    if j <= m - 2:
        sparse_add(out, (n - 1, j + 1), coef * Fraction(-n, j + 1))
    else:
        for e, a in dp_laurent(params).items():
            sparse_add(out, (n + e, 0), coef * a * Fraction(1, m))


def eliminate_du(f: DiffForm) -> dict[tuple[int, int], PolyC]:
    """Rewrite f mod dA as monomial classes {(t exponent e, sector l): coef}, meaning the sum
    of coef * class(t^e u^l dt)."""
    acc: dict[tuple[int, int], PolyC] = {}
    for e, l, v in f.dt_part.monomials():
        sparse_add(acc, (e, l), v)
    for e, j, v in f.du_part.monomials():
        _du_monomial_classes(e, j, f.params, v, acc)
    return acc


def cocycle_form(f: RingElem, g: RingElem) -> DiffForm:
    """The form f dg, whose class is the cocycle tau(f, g)."""
    dg = differential(g)
    return DiffForm(ring_mul(f, dg.dt_part), ring_mul(f, dg.du_part))


def class_terms(params: RingParams, e: int, L: int, q, terms: dict) -> dict:
    """Add q * class(t^e u^L dt), 0 <= L < 2m, into the monomial classes ``terms`` (keyed as
    by ``eliminate_du``) and return them, with u^L = p(t) u^(L-m) when L >= m."""
    wrap = p_laurent(params).items() if L >= params.m else ((0, PolyC.const(1)),)
    for pe, pv in wrap:
        sparse_add(terms, (e + pe, L % params.m), pv * q)
    return terms


def cocycle_terms(params: RingParams, i: int, a: int, j: int, b: int) -> dict:
    """tau(t^i u^a, t^j u^b), 0 <= a, b < m, as monomial classes (``eliminate_du``): f dg =
    j t^(i+j-1) u^L dt + b t^(i+j) u^(L-1) du, L = a + b, and d(t^(i+j) u^L) is exact, so tau
    is ((j*a - i*b)/L) class(t^(i+j-1) u^L dt), j class(t^(i+j-1) dt) at L = 0.  A zero
    coefficient gives no terms."""
    return class_terms(params, i + j - 1, a + b, Fraction(j * a - i * b, a + b) if a + b else j, {})


# ---------------------------------------------------------------------------
# The relation, its walker triple, and the oracle table
# ---------------------------------------------------------------------------


def _relation(params: RingParams, n: int, shift: int) -> tuple[int, int, int]:
    """(mn, mn + r*shift, mn + 2r*shift) at instance n of the three-term relation
    mn cl(n-1) - 2c(mn + r*shift) cl(n+r-1) + (mn + 2r*shift) cl(n+2r-1) = 0 in one sector:
    shift m + l is the corrected relation of sector l, shift l the stated one."""
    mn = params.m * n
    return mn, mn + params.r * shift, mn + 2 * params.r * shift


def _solved_for(params: RingParams, l: int, shift: int, log: list | None = None):
    """The ``coeffs.walk_recurrence`` triple e -> (lead > 0, mid, low) of sector l under the
    relation with ``shift``.  Above the block cl(e) is the top column of instance n = e+1-2r,
    walked at step r; below it, the bottom one of n = e+1, at step -r.  ``_relation`` is read
    at each call, a zero pivot raises ``PivotError``, and each n solved goes into ``log``."""
    def triple(e: int) -> tuple[int, int, int]:
        n = e + 1 - 2 * params.r if e >= 0 else e + 1
        low, mid, top = _relation(params, n, shift)
        if e < 0:
            low, top = top, low
        if not top:
            raise PivotError(f"zero pivot of column (e={e}, l={l})")
        if log is not None:
            log.append(n)
        return (top, mid, low) if top > 0 else (-top, -mid, -low)
    return triple


def _column(params: RingParams, l: int, e: int, memos: dict, triples) -> DiffClass:
    """cl(e) in sector l >= 1: a w(l, -j) + b w(l, -j-r), e's block columns mod r, with a and b
    walked by ``triples`` from ``memos[l, j]`` and ``memos[l, j + r]``, each seeded by
    ``families.seeds`` when first read (setdefault is atomic: one memo wins)."""
    r, j, step = params.r, -e % params.r or params.r, params.r if e >= 0 else -params.r
    held = [memos.get((l, i)) or memos.setdefault((l, i), seeds(r, i)) for i in (j, j + r)]
    return DiffClass._of(params, {(l, i): v for i, t, memo in zip((j, j + r), triples, held)
                                  if (v := walk_recurrence(memo, e, step, t)).ints})


def _check_reach(t_exp: int) -> None:
    if abs(t_exp) > MAX_REACH:
        raise ValueError(f"t exponent {t_exp} is beyond kahler.MAX_REACH ({MAX_REACH})")


def _runs(params: RingParams, dt: dict[tuple[int, int], PolyC],
          du: dict[tuple[int, int], PolyC]) -> list[tuple[int, int, int]]:
    """The runs (l, lo, hi) of classes t^e u^l dt, e = lo, lo + r, .., hi, that exactly one
    term of the form reaches (see ``check_form_reach``)."""
    m, r = params.m, params.r
    events: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for is_du, terms in ((False, dt), (True, du)):
        for a, q in terms:
            k, j = divmod(q, m)
            l, lo, hi = ((j, a, a) if not is_du else (j + 1, a - 1, a - 1) if j < m - 1
                         else (0, a + r - 1, a + 2 * r - 1))
            events.setdefault((l, lo % r), []).extend(((lo, 1), (hi + 2 * r * k + r, -1)))
    runs = []
    for (l, _res), ev in events.items():
        ev.sort()
        count = 0
        for (e, step), (nxt, _) in zip(ev, ev[1:]):
            count += step
            if count == 1 and nxt > e:
                runs.append((l, e, nxt - r))
    return runs


def check_form_reach(params: RingParams, dt: dict[tuple[int, int], PolyC],
                     du: dict[tuple[int, int], PolyC]) -> None:
    """Refuse a form whose class ``reduce_terms`` would refuse, before any u^q is expanded.

    dt and du map (t exponent, u exponent) to nonzero coefficients.  t^a u^q is t^a p^k u^j,
    (k, j) = divmod(q, m), with all 2k+1 terms of p^k nonzero (``ring``), so after
    du-elimination a term reaches every class t^e u^l dt of one progression with a nonzero
    coefficient: t^(a+rn) u^j for dt; t^(a+rn-1) u^(j+1), times -(a+rn)/(j+1), for du with
    j < m-1, but at e = -1, in reach; t^(a+rn-1), n = 1..2k+2, for du with j = m-1, as
    t^a p^k p' = t^a (p^(k+1))'/(k+1).  Terms meet only within a group (l, e mod r), so a
    class that one term of its group alone reaches keeps its coefficient in the sum, and
    ``reduce_terms`` refuses it beyond MAX_REACH.  The message names the least end beyond
    MAX_REACH of a run of such classes; a far end that one term alone reaches is one.
    """
    far = [e for _l, lo, hi in _runs(params, dt, du) for e in (lo, hi) if abs(e) > MAX_REACH]
    if far:
        _check_reach(min(far))


def check_cocycle_reach(params: RingParams, f: dict[tuple[int, int], PolyC],
                        g: dict[tuple[int, int], PolyC]) -> None:
    """Refuse tau(f, g) for ring terms keyed as in ``check_form_reach``, before any u^q is
    expanded.  tau reduces the ``cocycle_terms`` of each monomial pair t^e1 u^l1, t^e2 u^l2 on
    its own, t^(e1+e2-1) to t^(e1+e2+2r-1), and a run that one term alone reaches holds monomials
    of the sum: the runs' end pairs are checked, and their neighbours one step r inward, where
    a coefficient (e2*l1 - e1*l2)/L of 0 moves by r*l2 or -r*l1 (by r in e2 at L = 0)."""
    r, runs_g = params.r, _runs(params, g, {})
    for l1, lo1, hi1 in _runs(params, f, {}):
        for l2, lo2, hi2 in runs_g:
            for e1, e2, s in ((lo1, lo2, r), (hi1, hi2, -r)):
                if not -MAX_REACH <= e1 + e2 - 1 <= e1 + e2 + 2 * r - 1 <= MAX_REACH:
                    for n1, n2 in ((e1, e2), (e1 + s, e2), (e1, e2 + s)):
                        if lo1 <= n1 <= hi1 and lo2 <= n2 <= hi2:
                            for e, _l in cocycle_terms(params, n1, l1, n2, l2):
                                _check_reach(e)


class ReductionTable:
    """The classes of monomials t^e u^l dt over the basis, each walked down its residue class.

    ``window`` is the basis block -2r..-1 every walk starts from.  A sector l >= 1 holds the
    classes read and one coordinate memo per basis column w(l, -j) read, walked by the triple
    (``_solved_for``, shift m + l); ``n_cols`` counts w0 and every column a walk has passed,
    each stored after its two inward neighbours, so those between it and the block are too.
    """

    def __init__(self, params: RingParams):
        self.params = params
        self.window = ReductionWindow(-2 * params.r, -1)
        self._columns = [{-1: DiffClass._of(params, {W0: PolyC.const(1)})}]
        self._columns += ({} for _ in range(1, params.m))  # basis columns too, made when read
        self._coords: dict[tuple[int, int], dict] = {}  # (l, j) -> w(l, -j)'s memo, made when read
        self._triples = [None] + [_solved_for(params, l, params.m + l) for l in range(1, params.m)]
        self.n_basis = 1 + (params.m - 1) * 2 * params.r

    @property
    def n_cols(self) -> int:
        return self.n_basis + len({(l, e) for (l, _j), memo in list(self._coords.items())
                                   for e in list(memo) if not -2 * self.params.r <= e < 0})

    def reduce_terms(self, terms: dict[tuple[int, int], PolyC]) -> DiffClass:
        """Expand the monomial classes {(e, l): coef}, the sum of coef * class(t^e u^l dt)."""
        far = [e for e, _l in terms if abs(e) > MAX_REACH]
        if far:  # refuse before any work, naming the least far exponent
            _check_reach(min(far))
        out: dict[tuple[int, int], PolyC] = {}
        for (e, l), v in terms.items():
            self.reduce_monomial(e, l).add_into(out, v)
        return DiffClass._of(self.params, out)

    def reduce_monomial(self, t_exp: int, sector: int) -> DiffClass:
        """Expand class(t^t_exp u^sector dt) over the basis: two walks of its coordinates by
        the corrected relation, each from the held value nearest it."""
        params = self.params
        if not 0 <= sector < params.m:
            raise ValueError(f"sector {sector} is outside 0..{params.m - 1}")
        column = self._columns[sector]
        if (cls := column.get(t_exp)) is not None:
            return cls
        if sector and -2 * params.r <= t_exp < 0:  # a basis column w(l, -e), made when first read
            return column.setdefault(t_exp, DiffClass._of(params, {(sector, -t_exp): PolyC.const(1)}))
        _check_reach(t_exp)
        if sector == 0:  # t^e dt = d(t^(e+1))/(e+1)
            return DiffClass.zero(params)
        triples = (self._triples[sector],) * 2
        cls = column[t_exp] = _column(params, sector, t_exp, self._coords, triples)
        return cls


_TABLES: dict[RingParams, ReductionTable] = {}


def ring_table(params: RingParams) -> ReductionTable:
    """The one reduction table of the ring, shared by every caller in the process."""
    table = _TABLES.get(params)
    if table is None:  # two threads may build it twice, and keep one
        table = _TABLES.setdefault(params, ReductionTable(params))
    return table


def reduce_oracle(f: DiffForm) -> DiffClass:
    """Reduce the class of f to the basis by the corrected relation."""
    return ring_table(f.params).reduce_terms(eliminate_du(f))


def reduce_monomial_class(params: RingParams, t_exp: int, sector: int) -> DiffClass:
    """Oracle reduction of the single class t^t_exp u^sector dt."""
    form = DiffForm(
        RingElem.monomial(params, PolyC.const(1), t_exp, sector), RingElem.zero(params)
    )
    return reduce_oracle(form)


def basis_dim(params: RingParams) -> int:
    """Dimension of the quotient over the basis block enlarged by 2r.

    Every column of the window outside the block is solved by a relation of its own:
    t^e dt, e != -1, by d(t^(e+1)), and a sector-l column by the corrected relation, whose
    pivot must be nonzero.  So the dimension is the number of basis columns.
    """
    table = ring_table(params)
    block = table.window
    window = block.enlarged(2 * params.r)
    for l in range(1, params.m):
        for e in range(window.lo, window.hi + 1):
            if not block.lo <= e <= block.hi:
                table._triples[l](e)
    return table.n_basis


# ---------------------------------------------------------------------------
# The stated recurrence, reproduced for audit (logged and cross-checked)
# ---------------------------------------------------------------------------


class RecurrenceInstance(NamedTuple):
    """One application of the stated three-term recurrence at index n."""
    n: int
    sector: int
    within_stated_range: bool  # stated validity range: n >= 1


class RecurrenceReduction(NamedTuple):
    cls: DiffClass
    instances: list[RecurrenceInstance]


def reduce_recurrence(n: int, l: int, params: RingParams) -> RecurrenceReduction:
    """Reduce class(t^(n-1) u^l dt) using the stated recurrence only: two coordinate walks
    with shift l, from the basis.

    Every instance solved is logged; instances with index < 1 fall outside the stated
    validity range, and are still applied but flagged, so callers can audit the reachability
    of the result.  Degenerate pivots raise ``PivotError``.
    """
    if not 1 <= l < params.m:
        raise ValueError(f"recurrence applies to sectors 1..{params.m - 1}")
    _check_reach(n - 1)
    logs = ([], [])  # of the two coordinate walks' logs, the longer is one walk of the class's
    cls = _column(params, l, n - 1, {}, [_solved_for(params, l, l, log) for log in logs])
    return RecurrenceReduction(cls, [RecurrenceInstance(k, l, k >= 1) for k in max(logs, key=len)])


def verify_recurrence(params: RingParams, l: int, n_range: range) -> list[dict]:
    """Evaluate recurrence candidates on oracle-reduced classes.

    For each instance n, reports whether (a) the stated coefficients
    (mn, 2c(mn+rl), mn+2rl) and (b) the corrected coefficients
    (mn, 2c(mn+r(m+l)), mn+2r(m+l)) annihilate the oracle classes.  (a) is a
    check against first principles; (b) holds by construction, as the walk
    solves every column by that very relation, and its independent evidence is
    the relation-row tests of tests/test_kahler.py.
    """
    m, r = params.m, params.r
    table = ring_table(params)
    out = []
    for n in n_range:

        def residual(shift: int) -> DiffClass:
            low, mid, top = _relation(params, n, shift)
            return table.reduce_terms({(n - 1, l): PolyC.const(low),
                                       (n + r - 1, l): PolyC({1: -2 * mid}),
                                       (n + 2 * r - 1, l): PolyC.const(top)})

        out.append(
            {
                "n": n,
                "sector": l,
                "stated_holds": residual(l).is_zero(),
                "corrected_holds": residual(m + l).is_zero(),
            }
        )
    return out


# ---------------------------------------------------------------------------
# Structure constants
# ---------------------------------------------------------------------------


def structure_constants(l: int, k: int, params: RingParams) -> dict[int, PolyC]:
    """Oracle coordinates of class(t^(k-1) u^l dt) in the w(l)_(-j) basis, 1 <= l <= m-1: a
    sector-l class stays in sector l, while u^m = p(t) would move it to sector l - m."""
    if not 1 <= l < params.m or k < 1:
        raise ValueError(f"structure constants need 1 <= l <= {params.m - 1} and k >= 1")
    cls = reduce_monomial_class(params, k - 1, l)
    return {j: cls.coeff(l, j) for j in range(1, 2 * params.r + 1)}
