"""Kahler differentials of A and the quotient Omega^1 / dA.

The quotient has the basis

    w0 = class(t^-1 dt),    w(l, -j) = class(t^-j u^l dt),
    l = 1..m-1, j = 1..2r,

of dimension 2r(m-1) + 1.  Two reducers are provided:

* ``reduce_oracle`` -- the normative reducer.  It expresses any class in the
  basis through the ring's reduction table: the relations among monomial
  classes ``t^n u^l dt`` (images of exact forms and of the module relation
  ``m u^(m-1) du = p' dt`` under du-elimination), solved exactly over Q[c],
  each relation row for its outermost column.  Every pivot is a nonzero
  rational, so no denominator in c arises.  The system is triangular in the
  distance from the basis block, so a column's class does not depend on the
  window it was solved over, and the table grows outward on demand.

* ``reduce_recurrence`` -- the stated three-term recurrence, reproduced
  for audit and cross-checked against the oracle; nothing else reduces
  through it.  Every applied instance is logged with a validity flag;
  ``verify_recurrence`` evaluates candidate recurrences on oracle-reduced
  classes and reports which ones actually hold.

Values are immutable.  Each ring has one reduction table (``ring_table``),
kept for the process: it only grows (to ``MAX_REACH``), a solved column never
changes, and growth holds the table's lock, so it is safe to share across threads.
"""

from __future__ import annotations

import threading
from collections import ChainMap
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .coeffs import PolyC, sparse_add
from .ring import RingElem, RingParams, dp_laurent, p_laurent


MAX_REACH = 1000  # farthest t exponent, either sign, a table grows to: growth is superlinear


class WindowError(ValueError):
    """Raised when a window does not cover what it must, or a column stays unresolved."""


class PivotError(ValueError):
    """Raised on a degenerate pivot of the stated recurrence."""


@dataclass(frozen=True)
class ReductionWindow:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty reduction window")

    def enlarged(self, amount: int) -> "ReductionWindow":
        return ReductionWindow(self.lo - amount, self.hi + amount)


@dataclass(frozen=True)
class DiffForm:
    """a*dt + b*du with a, b in A."""

    dt_part: RingElem
    du_part: RingElem

    def __post_init__(self):
        if self.dt_part.params != self.du_part.params:
            raise ValueError("dt and du parts disagree on ring parameters")

    @property
    def params(self) -> RingParams:
        return self.dt_part.params


class DiffClass:
    """Coordinates over the basis {w0; w(l)_(-j)} of Omega^1/dA."""

    __slots__ = ("params", "omega0", "odd")

    def __init__(self, params: RingParams, omega0: PolyC | None = None,
                 odd: dict[tuple[int, int], PolyC] | None = None):
        self.params = params
        self.omega0 = omega0 if omega0 is not None else PolyC.zero()
        clean: dict[tuple[int, int], PolyC] = {}
        if odd:
            for (l, j), v in odd.items():
                if not (1 <= l <= params.m - 1 and 1 <= j <= 2 * params.r):
                    raise ValueError(f"basis label (l={l}, j={j}) out of range")
                if not v.is_zero():
                    clean[(l, j)] = v
        self.odd = clean

    @staticmethod
    def zero(params: RingParams) -> "DiffClass":
        return DiffClass(params)

    def is_zero(self) -> bool:
        return self.omega0.is_zero() and not self.odd

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiffClass)
            and self.params == other.params
            and self.omega0 == other.omega0
            and self.odd == other.odd
        )

    def __add__(self, other: "DiffClass") -> "DiffClass":
        if self.params != other.params:
            raise ValueError("parameter mismatch")
        odd = dict(self.odd)
        for key, v in other.odd.items():
            sparse_add(odd, key, v)
        return DiffClass(self.params, self.omega0 + other.omega0, odd)

    def scale(self, q: PolyC) -> "DiffClass":
        if q.is_zero():
            return DiffClass.zero(self.params)
        return DiffClass(
            self.params, self.omega0 * q, {key: v * q for key, v in self.odd.items()}
        )

    def __neg__(self) -> "DiffClass":
        return DiffClass(self.params, -self.omega0, {key: -v for key, v in self.odd.items()})

    def __sub__(self, other: "DiffClass") -> "DiffClass":
        return self + (-other)

    def coeff(self, l: int, j: int) -> PolyC:
        return self.odd.get((l, j), PolyC.zero())

    def to_json_dict(self) -> dict:
        return {
            "omega0": self.omega0.render(),
            "odd": [
                {"l": l, "j": j, "coef": self.odd[(l, j)].render()}
                for (l, j) in sorted(self.odd)
            ],
        }

    def render(self) -> str:
        parts = []
        if not self.omega0.is_zero():
            parts.append(f"({self.omega0.render()})*w0")
        for (l, j) in sorted(self.odd):
            parts.append(f"({self.odd[(l, j)].render()})*w({l},-{j})")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"DiffClass({self.render()})"


# ---------------------------------------------------------------------------
# Differential and du-elimination
# ---------------------------------------------------------------------------


def differential(a: RingElem) -> DiffForm:
    """Leibniz differential: d(t^n u^l) = n t^(n-1) u^l dt + l t^n u^(l-1) du."""
    params = a.params
    dt = RingElem.zero(params)
    du = RingElem.zero(params)
    for e, l, v in a.monomials():
        if e:
            dt = dt + RingElem.monomial(params, v * e, e - 1, l)
        if l:
            du = du + RingElem.monomial(params, v * l, e, l - 1)
    return DiffForm(dt, du)


def _du_monomial_classes(
    n: int, j: int, params: RingParams, coef: PolyC
) -> dict[tuple[int, int], PolyC]:
    """coef * t^n u^j du as dt-monomial classes {(t_exp, sector): coef}, mod dA.

    j <= m-2 uses exactness of d(t^n u^(j+1)); j = m-1 uses the module
    relation m u^(m-1) du = p'(t) dt, which is exact in Omega^1 itself.
    """
    m = params.m
    out: dict[tuple[int, int], PolyC] = {}
    if j <= m - 2:
        if n != 0:
            out[(n - 1, j + 1)] = coef * Fraction(-n, j + 1)
    else:
        for e, a in dp_laurent(params).items():
            sparse_add(out, (n + e, 0), coef * a * Fraction(1, m))
    return out


def eliminate_du(f: DiffForm) -> list[tuple[int, int, PolyC]]:
    """Rewrite f as a combination of monomial classes t^(n-1) u^l dt mod dA.

    Returns triples (n, l, coef) meaning coef * class(t^(n-1) u^l dt).
    """
    params = f.params
    acc: dict[tuple[int, int], PolyC] = {}
    for e, l, v in f.dt_part.monomials():
        sparse_add(acc, (e, l), v)
    for e, j, v in f.du_part.monomials():
        for key, w in _du_monomial_classes(e, j, params, v).items():
            sparse_add(acc, key, w)
    return [(e + 1, l, acc[(e, l)]) for (e, l) in sorted(acc)]


# ---------------------------------------------------------------------------
# The oracle: relation rows, elimination, reduction table
# ---------------------------------------------------------------------------


def _relation_rows(params: RingParams, lo: int, hi: int) -> list[dict]:
    """All relation rows among monomial classes with exponents inside [lo, hi].

    Sector 0: images of d(t^n) kill every class(t^j dt) with j != -1.
    Sector l >= 1: images of the module-relation generators
    t^n u^l (m u^(m-1) du - p'(t) dt), which touch exponents n-1, n+r-1 and
    n+2r-1; images of d(t^n u^l) vanish identically because du-elimination
    is built from exactly those forms.
    """
    m, r = params.m, params.r
    rows: list[dict] = []
    p = p_laurent(params)
    dp = dp_laurent(params)

    for n in range(lo + 1, hi + 2):
        if n != 0:
            rows.append({(n - 1, 0): PolyC.const(n)})

    for l in range(1, m):
        for n in range(lo + 1, hi - 2 * r + 2):
            row: dict[tuple[int, int], PolyC] = {}
            # m * t^n * p(t) * u^(l-1) du, eliminated
            for e, a in p.items():
                for key, w in _du_monomial_classes(n + e, l - 1, params, a * m).items():
                    sparse_add(row, key, w)
            # - t^n p'(t) u^l dt
            for e, a in dp.items():
                sparse_add(row, (n + e, l), -a)
            if not all(lo <= e <= hi for (e, _l) in row):
                raise AssertionError(f"relation row (n={n}, l={l}) leaves [{lo}, {hi}]")
            rows.append(row)
    return rows


def _check_reach(t_exp: int) -> None:
    if abs(t_exp) > MAX_REACH:
        raise ValueError(f"t exponent {t_exp} is beyond kahler.MAX_REACH ({MAX_REACH})")


class ReductionTable:
    """Relation system solved column by column; maps monomial classes to basis.

    Each relation row is solved for its column farthest from the basis block.
    The system is triangular in that distance: a sector-l row touches
    exponents n-1, n+r-1, n+2r-1, and either its top exponent is >= 0 (pivot
    mn + 2r(m+l) > 0) or its bottom exponent is < -2r (pivot mn != 0), never
    both and never neither.  So, taken in order of distance, every row's other
    columns are basis columns or columns solved by an earlier row.  Every pivot
    (n, mn or mn + 2r(m+l)) is a nonzero rational, so the table stays in Q[c].

    The table starts over ``window`` and grows when ``reduce_monomial`` meets
    a column outside it.  Growth solves only the new columns, from the rows of
    the strip next to them, so it gives the classes a table built over the
    larger window at once would give.
    """

    def __init__(self, params: RingParams, window: ReductionWindow):
        self.params = params
        m, r = params.m, params.r
        one = PolyC.const(1)
        basis = {(-1, 0): DiffClass(params, omega0=one)}
        for l in range(1, m):
            for j in range(1, 2 * r + 1):
                basis[(-j, l)] = DiffClass(params, odd={(l, j): one})
        if not all(window.lo <= e <= window.hi for (e, _l) in basis):
            raise WindowError("window does not cover the basis exponents")
        self.n_basis = len(basis)
        self._classes = basis
        self._lock = threading.Lock()
        self.rank = 0
        self._solve(_relation_rows(params, window.lo, window.hi), window, None)

    def _solve(self, rows: list[dict], window: ReductionWindow,
               old: Optional[ReductionWindow]) -> None:
        """Solve the rows nearest first, then publish the classes and ``window``.

        Rows that pivot inside ``old`` were solved when ``old`` was built.
        """
        r = self.params.r

        def distance(col: tuple[int, int]) -> int:
            e, l = col
            return abs(e + 1) if l == 0 else max(e + 1, -2 * r - e, 0)

        pivoted = [(max(row, key=distance), row) for row in rows]
        if old is not None:
            pivoted = [(col, row) for col, row in pivoted if not old.lo <= col[0] <= old.hi]
        pivoted.sort(key=lambda pr: distance(pr[0]))
        new: dict[tuple[int, int], DiffClass] = {}
        solved = ChainMap(new, self._classes)
        for col, row in pivoted:
            if col in solved or any(k != col and k not in solved for k in row):
                raise AssertionError(
                    f"relation row for {col} is not triangular over window {window}"
                )
            pivot = row[col]
            if pivot.degree() != 0:
                raise AssertionError(f"pivot {pivot.render()} of {col} is not a nonzero constant")
            inv = -1 / pivot.leading()
            cls = DiffClass.zero(self.params)
            for k, v in row.items():
                if k != col:
                    cls = cls + solved[k].scale(v * inv)
            new[col] = cls

        self._classes.update(new)
        self.rank += len(pivoted)
        self.window = window
        self.n_cols = self.params.m * (window.hi - window.lo + 1)

    def cover(self, window: ReductionWindow) -> None:
        """Grow the table to cover ``window``, solving only the new columns."""
        with self._lock:
            old = self.window
            lo, hi = min(window.lo, old.lo), max(window.hi, old.hi)
            if (lo, hi) == (old.lo, old.hi):
                return
            # a new column's row reaches 2r exponents back toward the basis
            reach = 2 * self.params.r
            rows = []
            if lo < old.lo:
                rows += _relation_rows(self.params, lo, old.lo - 1 + reach)
            if hi > old.hi:
                rows += _relation_rows(self.params, old.hi + 1 - reach, hi)
            self._solve(rows, ReductionWindow(lo, hi), old)

    @property
    def dim(self) -> int:
        with self._lock:
            return self.n_cols - self.rank

    def reduce_terms(self, terms: list[tuple[int, int, PolyC]]) -> DiffClass:
        """Expand the sum of coef * class(t^(n-1) u^l dt) over (n, l, coef) terms."""
        for n, _l, _v in terms:  # refuse a far term before any work
            _check_reach(n - 1)
        out = DiffClass.zero(self.params)
        for n, l, v in terms:
            out = out + self.reduce_monomial(n - 1, l).scale(v)
        return out

    def reduce_monomial(self, t_exp: int, sector: int) -> DiffClass:
        """Expand class(t^t_exp u^sector dt) over the basis, growing the table to reach it."""
        cls = self._classes.get((t_exp, sector))
        if cls is None:
            if not 0 <= sector < self.params.m:
                raise ValueError(f"sector {sector} is outside 0..{self.params.m - 1}")
            _check_reach(t_exp)
            self.cover(ReductionWindow(t_exp, t_exp))
            cls = self._classes.get((t_exp, sector))
            if cls is None:
                raise WindowError(
                    f"monomial {(t_exp, sector)} is unresolved over window {self.window}"
                )
        return cls


_TABLES: dict[RingParams, ReductionTable] = {}
_TABLES_LOCK = threading.Lock()


def ring_table(params: RingParams) -> ReductionTable:
    """The one reduction table of the ring, shared by every caller in the process."""
    with _TABLES_LOCK:
        table = _TABLES.get(params)
        if table is None:
            table = _TABLES[params] = ReductionTable(params, ReductionWindow(-2 * params.r, -1))
        return table


def reduce_oracle(f: DiffForm) -> DiffClass:
    """Reduce the class of f to the basis by exact elimination."""
    return ring_table(f.params).reduce_terms(eliminate_du(f))


def reduce_monomial_class(params: RingParams, t_exp: int, sector: int) -> DiffClass:
    """Oracle reduction of the single class t^t_exp u^sector dt."""
    form = DiffForm(
        RingElem.monomial(params, PolyC.const(1), t_exp, sector), RingElem.zero(params)
    )
    return reduce_oracle(form)


def basis_dim(params: RingParams) -> int:
    """Dimension of the quotient over the basis block enlarged by 2r.

    Over the block itself the dimension is the number of basis columns; the
    rows of the enlarged window must pivot on every other column.
    """
    table = ring_table(params)
    table.cover(ReductionWindow(-2 * params.r, -1).enlarged(2 * params.r))
    d = table.dim
    if d != table.n_basis:
        raise WindowError(f"dimension {d} over {table.window} differs from the basis block's")
    return d


# ---------------------------------------------------------------------------
# The stated recurrence, reproduced for audit (logged and cross-checked)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceInstance:
    """One application of the stated three-term recurrence at index n."""

    n: int
    sector: int
    within_stated_range: bool  # stated validity range: n >= 1


@dataclass
class RecurrenceReduction:
    cls: DiffClass
    instances: list


def _paper_coeffs(n: int, l: int, params: RingParams) -> tuple[Fraction, PolyC, Fraction]:
    """Stated coefficients: (mn, 2c(mn+rl), mn+2rl) at instance n, sector l."""
    m, r = params.m, params.r
    return (
        Fraction(m * n),
        PolyC({1: 2 * (m * n + r * l)}),
        Fraction(m * n + 2 * r * l),
    )


def reduce_recurrence(n: int, l: int, params: RingParams) -> RecurrenceReduction:
    """Reduce class(t^(n-1) u^l dt) using the stated recurrence only.

    Instances with index < 1 fall outside the stated validity range; they
    are still applied but flagged, so callers can audit the reachability of
    the result.  Degenerate pivots raise ``PivotError``.
    """
    if l < 1:
        raise ValueError("recurrence applies to sectors l >= 1")
    r = params.r
    instances: list[RecurrenceInstance] = []
    # work vector over monomial exponents, then fold into basis coordinates
    vec: dict[int, PolyC] = {n - 1: PolyC.const(1)}
    guard = 0
    while vec and (max(vec) > -1 or min(vec) < -2 * r):
        guard += 1
        if guard > 10_000:
            raise PivotError("recurrence reduction did not terminate")
        if max(vec) > -1:
            j = max(vec)
            inst = j + 1 - 2 * r  # solve the instance whose top term is X_j
            c_bot, c_mid, c_top = _paper_coeffs(inst, l, params)
            if c_top == 0:
                raise PivotError(
                    f"recurrence pivot degenerate: m*n+2rl = 0 at (n={inst}, l={l})"
                )
            instances.append(RecurrenceInstance(inst, l, inst >= 1))
            coef = vec.pop(j)
            # X_j = [2c(mn+rl) X_{j-r} - mn X_{j-2r}] / (mn+2rl)
            sparse_add(vec, j - r, coef * (c_mid * (1 / Fraction(c_top))))
            sparse_add(vec, j - 2 * r, coef * Fraction(-c_bot, c_top))
        else:
            j = min(vec)
            inst = j + 1  # solve the instance whose bottom term is X_j
            c_bot, c_mid, c_top = _paper_coeffs(inst, l, params)
            if c_bot == 0:
                raise PivotError(
                    f"recurrence pivot degenerate: m*n = 0 at (n={inst}, l={l})"
                )
            instances.append(RecurrenceInstance(inst, l, inst >= 1))
            coef = vec.pop(j)
            # X_j = [2c(mn+rl) X_{j+r} - (mn+2rl) X_{j+2r}] / (mn)
            sparse_add(vec, j + r, coef * c_mid * (1 / Fraction(c_bot)))
            sparse_add(vec, j + 2 * r, coef * Fraction(-c_top, c_bot))

    odd = {(l, -e): v for e, v in vec.items()}
    return RecurrenceReduction(DiffClass(params, odd=odd), instances)


def verify_recurrence(params: RingParams, l: int, n_range: range) -> list[dict]:
    """Evaluate recurrence candidates on oracle-reduced classes.

    For each instance n, reports whether (a) the stated coefficients
    (mn, 2c(mn+rl), mn+2rl) and (b) the corrected coefficients
    (mn, 2c(mn+r(m+l)), mn+2r(m+l)) annihilate the oracle classes.  This is
    a theorem check run against first principles, not an assumption.
    """
    m, r = params.m, params.r
    table = ring_table(params)
    out = []
    for n in n_range:
        X = {
            d: table.reduce_monomial(n + d - 1, l)
            for d in (0, r, 2 * r)
        }

        def residual(mid_shift: int) -> DiffClass:
            acc = X[0].scale(PolyC.const(m * n))
            acc = acc + X[r].scale(PolyC({1: -2 * (m * n + r * mid_shift)}))
            acc = acc + X[2 * r].scale(PolyC.const(m * n + 2 * r * mid_shift))
            return acc

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
    """Oracle coordinates of class(t^(k-1) u^l dt) in the w(l)_(-j) basis."""
    if l < 1 or k < 1:
        raise ValueError("structure constants need l >= 1 and k >= 1")
    cls = reduce_monomial_class(params, k - 1, l)
    if not cls.omega0.is_zero():
        raise AssertionError("sector-l class acquired an omega0 component")
    bad = [key for key in cls.odd if key[0] != l]
    if bad:
        raise AssertionError(f"sector-l class leaked into sectors {bad}")
    return {j: cls.coeff(l, j) for j in range(1, 2 * params.r + 1)}
