import functools
import hashlib
import json
import random
import sys
import threading
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secalg import kahler
from secalg.cli import main
from secalg.coeffs import PolyC, sparse_add
from secalg.kahler import (
    W0,
    DiffClass,
    DiffForm,
    PivotError,
    ReductionTable,
    basis_dim,
    check_cocycle_reach,
    check_form_reach,
    differential,
    eliminate_du,
    reduce_monomial_class,
    reduce_oracle,
    reduce_recurrence,
    ring_table,
    structure_constants,
    verify_recurrence,
)
from secalg.ring import RingElem, RingParams, dp_laurent, p_laurent
from secalg.uce import TauCache

P32 = RingParams(3, 2)
P22 = RingParams(2, 2)


def mono(params, coef, t, u):
    return RingElem.monomial(params, PolyC.const(coef), t, u)


def dt_form(params, elem):
    return DiffForm(elem, RingElem.zero(params))


def test_differential_examples():
    d = differential(mono(P32, 1, 3, 0))
    assert d.dt_part == mono(P32, 3, 2, 0) and d.du_part.is_zero()
    d = differential(mono(P32, 1, 0, 1))
    assert d.dt_part.is_zero() and d.du_part == mono(P32, 1, 0, 0)
    d = differential(mono(P32, 1, 2, 1))
    assert d.dt_part == mono(P32, 2, 1, 1)
    assert d.du_part == mono(P32, 1, 2, 0)


def test_eliminate_du_defining_relation():
    # u^2 du -> (1/3) p'(t) dt in sector 0
    form = DiffForm(RingElem.zero(P32), mono(P32, 1, 0, 2))
    got = eliminate_du(form)
    for e, a in dp_laurent(P32).items():
        assert got[(e, 0)] == a * F(1, 3)


def test_eliminate_du_exactness_rule():
    # t^2 u^0 du == -2 t u dt (mod dA)
    form = DiffForm(RingElem.zero(P32), mono(P32, 1, 2, 0))
    assert eliminate_du(form) == {(1, 1): PolyC.const(-2)}
    # u^0 du = d(u) is exact
    form = DiffForm(RingElem.zero(P32), mono(P32, 1, 0, 0))
    assert eliminate_du(form) == {}


def test_reduce_basis_elements():
    # t^-1 dt is w0
    cls = reduce_oracle(dt_form(P32, mono(P32, 1, -1, 0)))
    assert cls.omega0 == PolyC.const(1) and not cls.odd
    # t^(n-1) dt for n != 0 is exact
    for n in (3, -2, 5):
        cls = reduce_oracle(dt_form(P32, mono(P32, 1, n - 1, 0)))
        assert cls.is_zero()
    # basis monomials map to unit vectors (idempotence)
    for l in (1, 2):
        for j in range(1, 5):
            cls = reduce_monomial_class(P32, -j, l)
            assert cls.omega0.is_zero()
            assert cls.odd == {(l, j): PolyC.const(1)}


def test_reduce_linearity_randomized():
    rng = random.Random(5)
    for _ in range(6):
        a = mono(P32, F(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-4, 4),
                 rng.randint(0, 2))
        b = mono(P32, F(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-4, 4),
                 rng.randint(0, 2))
        fa, fb = dt_form(P32, a), dt_form(P32, b)
        fab = dt_form(P32, a + b)
        assert reduce_oracle(fab) == reduce_oracle(fa) + reduce_oracle(fb)


def test_reduce_exactness():
    rng = random.Random(6)
    for _ in range(8):
        elem = mono(P32, F(rng.randint(-4, 4), rng.randint(1, 3)),
                    rng.randint(-4, 4), rng.randint(0, 2))
        cls = reduce_oracle(differential(elem))
        assert cls.is_zero()


def test_basis_dims():
    assert basis_dim(P32) == 9
    assert basis_dim(P22) == 5
    assert basis_dim(RingParams(2, 3)) == 7
    assert basis_dim(RingParams(3, 3)) == 13


def test_stated_recurrence_vs_oracle():
    """Theorem check: the stated three-term recurrence coefficients
    (mn, 2c(mn+rl), mn+2rl) annihilate oracle classes only at n = 0; the
    corrected coefficients (mn, 2c(mn+r(m+l)), mn+2r(m+l)) hold for all n.
    This is the documented verification finding, pinned here.  The corrected
    half holds by construction, since the fold solves every column by that
    relation; the independent evidence for it is the relation-row tests below
    (test_reduction_table_matches_sympy_rref,
    test_every_relation_row_is_the_corrected_relation,
    test_fold_matches_triangular_solve_of_relation_rows and
    test_fold_with_the_stated_shift_disagrees_with_the_rows)."""
    for params in (P32, P22):
        for l in range(1, params.m):
            rep = verify_recurrence(params, l, range(-2, 6))
            for row in rep:
                assert row["corrected_holds"], row
                assert row["stated_holds"] == (row["n"] == 0), row


def test_reduce_recurrence_basis_and_flags():
    red = reduce_recurrence(-1, 1, P32)  # class t^-2 u dt, already basis
    assert red.cls == DiffClass(P32, odd={(1, 2): PolyC.const(1)})
    assert red.instances == []
    # reducing t^0 u dt requires instances outside the stated range n >= 1
    red = reduce_recurrence(1, 1, P32)
    assert any(not inst.within_stated_range for inst in red.instances)


def test_reduce_recurrence_cross_check_disagrees():
    """The stated recurrence disagrees with the oracle on
    positive-exponent classes (documented discrepancy; the oracle is
    normative)."""
    red = reduce_recurrence(2, 1, P32)
    oracle = reduce_monomial_class(P32, 1, 1)
    assert red.cls != oracle


def test_reduce_recurrence_degenerate_pivot():
    # m=2, r=2, l=1: pivot mn + 2rl = 2n + 4 vanishes at instance n = -2
    with pytest.raises(PivotError):
        reduce_recurrence(2, 1, P22)


def _push_down(n, l, params):
    """class(t^(n-1) u^l dt) by the stated recurrence, as one work vector over t exponents
    pushed down to the block: the farthest exponent solved first, by its own instance, with
    the coefficients written out here.  The independent reference of ``reduce_recurrence``,
    which walks the column out from the block instead; returns (class, instances)."""
    m, r = params.m, params.r
    instances, vec = [], {n - 1: PolyC.const(1)}
    while vec and (max(vec) > -1 or min(vec) < -2 * r):
        e = max(vec) if max(vec) > -1 else min(vec)
        k = e + 1 - 2 * r if e >= 0 else e + 1
        low, mid, top = m * k, m * k + r * l, m * k + 2 * r * l
        pivot, far, step = (top, low, -r) if e >= 0 else (low, top, r)
        if not pivot:
            raise PivotError(f"zero pivot of column (e={e}, l={l})")
        instances.append(k)
        coef = vec.pop(e)
        sparse_add(vec, e + step, coef * PolyC({1: F(2 * mid, pivot)}))
        sparse_add(vec, e + 2 * step, coef * F(-far, pivot))
    return DiffClass(params, odd={(l, -e): v for e, v in vec.items()}), instances


def _outcome(reduce, *args):
    try:
        return reduce(*args)
    except PivotError as exc:
        return str(exc)


def test_stated_walk_matches_the_push_down():
    """Over m 2..6, r 2..4, every l and n -30..30 (2,745 cases) the walk and the push-down
    give the same class or the same ``PivotError``.  The walk solves every column between the
    block and cl(n-1), the push-down only those it reaches: their instance sets differ in 12
    cases, each where a pushed instance k has middle coefficient mk + rl = 0, so that the
    push-down passes a column by, as at (m, r, l, n) = (2, 2, 1, 3), whose walk logs [-3, -1]
    and whose push-down logs [-1]."""
    cases = differ = 0
    for m in range(2, 7):
        for r in range(2, 5):
            params = RingParams(m, r)
            for l in range(1, m):
                for n in range(-30, 31):
                    cases += 1
                    walk = _outcome(reduce_recurrence, n, l, params)
                    push = _outcome(_push_down, n, l, params)
                    if isinstance(push, str):
                        assert walk == push, (m, r, l, n)
                        continue
                    walked = [inst.n for inst in walk.instances]
                    assert walk.cls == push[0], (m, r, l, n)
                    assert all(inst.sector == l and inst.within_stated_range == (inst.n >= 1)
                               for inst in walk.instances)
                    assert set(push[1]) <= set(walked), (m, r, l, n)
                    if set(push[1]) != set(walked):
                        assert any(m * k + r * l == 0 for k in push[1]), (m, r, l, n)
                        differ += 1
    assert (cases, differ) == (2745, 12)
    assert [inst.n for inst in reduce_recurrence(3, 1, P22).instances] == [-3, -1]
    assert _push_down(3, 1, P22)[1] == [-1]


def test_structure_constants_refuse_a_sector_outside_1_to_m_minus_1():
    """u^m = p(t) moves a sector-m class to sector 0, and u^(m+1) to sector 1: neither has
    structure constants in the w(l)_(-j) basis."""
    for l, k in ((3, 2), (4, 2), (0, 2), (1, 0)):
        with pytest.raises(ValueError, match=r"structure constants need 1 <= l <= 2 and k >= 1"):
            structure_constants(l, k, P32)


def test_structure_constants_parity():
    # contract requires k >= 1; basis unit-vector behavior is covered via
    # reduce_monomial_class above (t^(k-1) = t^(-j) needs k = 1 - j < 1)
    vec = structure_constants(1, 2, P32)
    assert set(vec) == {1, 2, 3, 4}
    # parity: class(t^1 u dt) expands over odd exponents only (j in {1, 3})
    assert vec[2].is_zero() and vec[4].is_zero()
    assert not vec[1].is_zero() and not vec[3].is_zero()


def test_structure_constants_djkm_row():
    vec = structure_constants(1, 1, P22)
    assert set(vec) == {1, 2, 3, 4}
    assert not all(v.is_zero() for v in vec.values())


def test_basis_dim_stabilizes_wider_grid():
    for m in (2, 3, 4):
        for r in (2, 3, 4):
            assert basis_dim(RingParams(m, r)) == 2 * r * (m - 1) + 1


def _relation_rows(params, lo, hi):
    """All relation rows among monomial classes with exponents inside [lo, hi]: the
    independent oracle of the fold.

    Sector 0: images of d(t^n) kill every class(t^j dt) with j != -1.
    Sector l >= 1: images under du-elimination of the module-relation generators
    t^n u^l (m u^(m-1) du - p'(t) dt), which touch exponents n-1, n+r-1 and
    n+2r-1; images of d(t^n u^l) vanish identically because du-elimination
    is built from exactly those forms.
    """
    m, r = params.m, params.r
    rows = [{(n - 1, 0): PolyC.const(n)} for n in range(lo + 1, hi + 2) if n]
    for l in range(1, m):
        for n in range(lo + 1, hi - 2 * r + 2):
            dt = du = RingElem.zero(params)
            for e, a in dp_laurent(params).items():
                dt = dt + RingElem.monomial(params, -a, n + e, l)
            for e, a in p_laurent(params).items():
                du = du + RingElem.monomial(params, a * m, n + e, l - 1)
            row = eliminate_du(DiffForm(dt, du))
            assert all(lo <= e <= hi for e, _l in row), (n, l, lo, hi)
            rows.append(row)
    return rows


@functools.cache
def _triangular_solve(params, lo, hi):
    """Every column of [lo, hi] over the basis, from the relation rows: each row solved for
    its column farthest from the basis block, nearest rows first.  The system is triangular
    in that distance: a row's other columns are basis columns or solved by an earlier row."""
    r, one = params.r, PolyC.const(1)

    def distance(col):
        e, l = col
        return abs(e + 1) if l == 0 else max(e + 1, -2 * r - e, 0)

    solved = {(-1, 0): DiffClass._of(params, {W0: one})}
    for l in range(1, params.m):
        for j in range(1, 2 * r + 1):
            solved[(-j, l)] = DiffClass._of(params, {(l, j): one})
    pivoted = sorted(((max(row, key=distance), row) for row in _relation_rows(params, lo, hi)),
                     key=lambda pr: distance(pr[0]))
    for col, row in pivoted:
        assert col not in solved and all(k in solved for k in row if k != col), col
        assert row[col].degree() == 0, (col, row[col].render())
        inv = -1 / row[col].leading()
        terms = {}
        for k, v in row.items():
            if k != col:
                solved[k].add_into(terms, v * inv)
        solved[col] = DiffClass._of(params, terms)
    return solved


@pytest.mark.parametrize("m, r", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
def test_reduction_table_matches_sympy_rref(m, r):
    """Independent oracle: sympy's rref over QQ(c) of the relation rows.

    Basis columns go last, so every pivot is a non-basis column and its rref
    row expresses that column's class in the basis.  The window contains
    sector-l rows whose top coefficient mn + 2r(m+l) vanishes (m | 2rl).
    """
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    params = RingParams(m, r)
    lo, hi = -4 * r - 2, 2 * r + 2
    c = sympy.symbols("c")
    K = sympy.QQ.frac_field(c)

    def to_k(v: PolyC):
        return K.from_sympy(sympy.Add(*(sympy.Rational(q) * c**e for e, q in v.coeffs.items())))

    basis = [(-1, 0)] + [(-j, l) for l in range(1, m) for j in range(1, 2 * r + 1)]
    cols = [(e, l) for l in range(m) for e in range(lo, hi + 1) if (e, l) not in basis]
    cols += basis
    index = {col: i for i, col in enumerate(cols)}
    rows = _relation_rows(params, lo, hi)
    dense = [[K.zero] * len(cols) for _ in rows]
    for i, row in enumerate(rows):
        for col, v in row.items():
            dense[i][index[col]] = to_k(v)
    rref, pivots = DomainMatrix(dense, (len(rows), len(cols)), K).rref()
    rref = rref.to_Matrix()

    table = ReductionTable(params)
    assert len(cols) - len(pivots) == len(basis) == table.n_basis
    for i, p in enumerate(pivots):
        cls = table.reduce_monomial(*cols[p])
        for (e, l) in basis:
            want = -rref[i, index[(e, l)]]
            got = cls.omega0 if l == 0 else cls.coeff(l, -e)
            assert K.from_sympy(want) == to_k(got), (cols[p], (e, l))


@pytest.mark.parametrize("m, r", [(2, 2), (3, 2), (4, 3), (5, 2)])
def test_every_relation_row_is_the_corrected_relation(m, r):
    """-l times the sector-l row at instance n is the corrected relation the fold solves."""
    params = RingParams(m, r)
    rows = iter(row for row in _relation_rows(params, -20, 20) if any(l for _e, l in row))
    for l in range(1, m):
        for n in range(-19, 22 - 2 * r):
            low, mid, top = kahler._relation(params, n, m + l)
            want = {(n - 1, l): PolyC.const(low), (n + r - 1, l): PolyC({1: -2 * mid}),
                    (n + 2 * r - 1, l): PolyC.const(top)}
            assert {k: v * -l for k, v in next(rows).items()} == {
                k: v for k, v in want.items() if not v.is_zero()}, (l, n)
    assert next(rows, None) is None


@pytest.mark.parametrize("m, r", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (5, 2)])
@settings(derandomize=True, max_examples=4, deadline=None)
@given(data=st.data())
def test_fold_matches_triangular_solve_of_relation_rows(m, r, data):
    """Every sector and every e in -6r..4r, requested in any order of a fresh table: the
    fold by the corrected relation equals the triangular solve of the relation rows."""
    params = RingParams(m, r)
    solved = _triangular_solve(params, -6 * r, 4 * r)
    table = ReductionTable(params)
    cols = [(e, l) for l in range(m) for e in range(-6 * r, 4 * r + 1)]
    for col in data.draw(st.permutations(cols)):
        assert table.reduce_monomial(*col) == solved[col], col


def test_fold_with_the_stated_shift_disagrees_with_the_rows(monkeypatch):
    """The stated recurrence has l where the derivative of u^(m+l) gives m + l.  A fold by it
    keeps sector 0 and the basis block, and disagrees with the relation rows on every other
    column: the rows are the corrected relation, not the stated one."""
    solved = _triangular_solve(P32, -12, 8)
    relation = kahler._relation
    monkeypatch.setattr(kahler, "_relation",
                        lambda params, n, shift: relation(params, n, shift - params.m))
    table = ReductionTable(P32)
    for (e, l), cls in solved.items():
        agrees = table.reduce_monomial(e, l) == cls
        assert agrees == (l == 0 or -4 <= e <= -1), (e, l)


def test_basis_dim_checks_every_pivot(monkeypatch):
    """The dimension is computed: a relation whose pivot vanishes in the enlarged window
    (here the top one, at e = 3) stops it."""
    relation = kahler._relation
    monkeypatch.setattr(kahler, "_relation", lambda params, n, shift: (
        relation(params, n, shift)[:2] + (0,) if n == 0 else relation(params, n, shift)))
    with pytest.raises(PivotError, match=r"\(e=3, l=1\)"):
        basis_dim(P32)


_GRID = [RingParams(m, r) for m in (2, 3, 4) for r in (2, 3)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_grown_table_matches_whole_window_table(data):
    """Classes do not depend on the order in which columns are first requested, a table
    holds only the columns its folds passed, and the oracle over a fresh ring table is
    linear."""
    params = data.draw(st.sampled_from(_GRID))
    lo, hi = -5 * params.r - 3, 3 * params.r + 3
    whole = _triangular_solve(params, lo, hi)
    cols = [(e, l) for l in range(params.m) for e in range(lo, hi + 1)]
    table = ReductionTable(params)
    for col in data.draw(st.permutations(cols)):
        assert table.reduce_monomial(*col) == whole[col], col
    assert table.n_cols == (params.m - 1) * (hi - lo + 1) + 1

    span = 3 * params.r
    term = st.tuples(st.integers(-5, 5), st.integers(-span, span),
                     st.integers(0, params.m - 1), st.booleans())

    def form(terms):
        dt = du = RingElem.zero(params)
        for coef, e, l, is_du in terms:
            elem = RingElem.monomial(params, PolyC({0: coef, 1: 1}), e, l)
            dt, du = (dt, du + elem) if is_du else (dt + elem, du)
        return DiffForm(dt, du)

    a, b = data.draw(term), data.draw(term)
    with mock.patch.dict(kahler._TABLES, clear=True):
        assert reduce_oracle(form([a, b])) == reduce_oracle(form([a])) + reduce_oracle(form([b]))


def test_growth_is_linear_in_the_final_width():
    """e = 0..200 in sector 1 adds one column per request, in either order of request,
    and both orders give the same classes."""
    tables = []
    for order in (range(0, 201), range(200, -1, -1)):
        table = ReductionTable(P32)
        for e in order:
            table.reduce_monomial(e, 1)
        assert table.n_cols - table.n_basis == 201
        tables.append(table)
    up, down = tables
    for e in range(-4, 201):
        assert up.reduce_monomial(e, 1) == down.reduce_monomial(e, 1), e


def test_sector_out_of_range_does_not_grow():
    table = ReductionTable(P32)
    before = table.n_cols
    for sector in (-1, 3, 7):
        with pytest.raises(ValueError, match="sector"):
            table.reduce_monomial(50, sector)
    assert table.n_cols == before


def test_far_term_refused_before_nearer_terms_grow_the_table(capsys):
    """A form with one term beyond MAX_REACH is refused before any term is reduced."""
    with mock.patch.dict(kahler._TABLES, clear=True):
        before = ring_table(P32).n_cols
        assert main(["kahler-reduce", "--m", "3", "--r", "2", "--dt", "t^1000*u + t^1001*u"]) == 2
        assert capsys.readouterr().err == (
            "error: t exponent 1001 is beyond kahler.MAX_REACH (1000)\n")
        assert ring_table(P32).n_cols == before


def test_ring_table_grows_safely_across_threads():
    params = RingParams(3, 3)
    jobs = [[(120, 1), (-110, 2)], [(-130, 1), (90, 2)], [(100, 0), (140, 2)],
            [(-90, 2), (130, 1)]]
    with mock.patch.dict(kahler._TABLES, clear=True):
        serial = {col: ring_table(params).reduce_monomial(*col) for job in jobs for col in job}
        n_cols = ring_table(params).n_cols
    results: dict = {}
    errors: list = []
    barrier = threading.Barrier(len(jobs))

    def work(job):
        try:
            barrier.wait(timeout=60)
            for col in job:
                results[col] = ring_table(params).reduce_monomial(*col)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.dict(kahler._TABLES, clear=True):
            threads = [threading.Thread(target=work, args=(job,)) for job in jobs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert results == serial
            assert ring_table(params).n_cols == n_cols
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("dt, digest", [
    ("t^150*u", "e16099667fcc154ebf496af4f881ae6571c5ded703861278a36ab24aed152a8c"),
    ("t^-120*u^2", "082a373d42db851cec7fcea15a2c94bc7e6a1b7884dac2dd8545e07883aeccc5"),
])
def test_far_reduction_pinned(dt, digest, capsys):
    assert main(["kahler-reduce", "--m", "3", "--r", "2", "--dt", dt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_fresh_table_holds_no_basis_column():
    """A fresh table at r = 20000 holds w0 alone: each basis column w(l, -j) is made when first
    read, walking nothing, and is held from then on."""
    params = RingParams(3, 20000)
    table = ReductionTable(params)
    assert table._columns[1:] == [{}, {}] and list(table._columns[0]) == [-1]
    assert table.n_cols == table.n_basis == 80001
    for j in (1, 20000, 20001, 40000):
        col = table.reduce_monomial(-j, 2)
        assert col == DiffClass._of(params, {(2, j): PolyC.const(1)})
        assert table.reduce_monomial(-j, 2) is col
    assert table._coords == {} and table.n_cols == table.n_basis and table._columns[1] == {}


def test_far_r_reads_only_the_memos_it_walks(capsys):
    """A class at r = 1000 makes the coordinate memos of its two columns, 2r seeds each, not
    all 2r of its sector (4r^2 seeds and 280 MB), and prints what it printed then."""
    table = ReductionTable(RingParams(3, 1000))
    table.reduce_monomial(1, 1)
    assert sorted(table._coords) == [(1, 999), (1, 1999)]
    assert sum(map(len, table._coords.values())) == 2 * (2 * 1000 + 1)
    assert table.n_cols == table.n_basis + 1
    start = time.process_time()
    assert main(["kahler-reduce", "--m", "3", "--r", "1000", "--dt", "t*u"]) == 0
    assert time.process_time() - start < 0.2
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "b407412ce3a213dc9e0aef455fb449557a41ee2e4601196cf3a5b55ada864cfd")


@pytest.mark.parametrize("argv, digest", [
    (["bracket", "--m", "3", "--r", "2", "--x", "h", "--a", "(1/2+c)*t^3*u^2 - t^-2",
      "--y", "h", "--b", "(3-c)*t*u + 2*t^5*u^2"],
     "a27a8f2d4a0f02815fbe47c70e302f6dc8f9e52cace22fe81fe515f474ecadd2"),
    (["bracket-audit", "--m", "3", "--r", "2", "--expbound", "2"],
     "397620857a0fc35fabd5dc13280c6ce21f92c6be0a54cf506010483567219f2e"),
    (["kahler-reduce", "--m", "3", "--r", "2",
      "--dt", "(2/3 - 5/7*c)*t^9*u^2 + c^2*t^-11*u", "--du", "(1+c)*t^4*u^2"],
     "e1e86082b8abe2ca84831fe2a47718ef8d3d07504d61762d6df3b2388ac13e35"),
])
def test_q_c_coefficient_rendering_pinned(argv, digest, capsys):
    """Rational and c-dependent coefficients render as they did over Frac(Q[c, s])."""
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["families", "--m", "3", "--r", "3", "--j", "1", "--l", "1", "--kmax", "300",
      "--format", "md"],
     "12b615e8ea95f373a38b66dda18aacd14a5d2a0e630cab8fb29b54b197abb73e"),
    (["families", "--m", "4", "--r", "2", "--j", "2", "--l", "3", "--kmax", "200"],
     "885afbf403814e0288504a60c632431c53da6e45285079f614a373d032190c81"),
    (["kahler-reduce", "--m", "4", "--r", "3", "--dt", "(1/3 - c)*t^-90*u^3",
      "--format", "md"],
     "c7b540f8e78f8f18c894fc29a470e21b93756b011d48ea881351dbe82bba32cb"),
])
def test_large_coefficient_rendering_pinned(argv, digest, capsys):
    """Far family values and classes: large contents through render and render_ratio."""
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_far_u_power_refused_before_expansion(capsys):
    """u^1000 reaches t^1334: refused from the term's ends, before p^333 is expanded."""
    start = time.process_time()
    assert main(["kahler-reduce", "--m", "3", "--r", "2", "--dt", "t^2*u^1000"]) == 2
    assert time.process_time() - start < 1.0
    assert capsys.readouterr().err == (
        "error: t exponent 1334 is beyond kahler.MAX_REACH (1000)\n")


def test_near_u_power_answer_pinned(capsys):
    """u^600 reaches t^802 and answers as before the reach check on terms; p^200
    comes from its recurrence, so the reduction table is most of the cost."""
    start = time.process_time()
    assert main(["kahler-reduce", "--m", "3", "--r", "2", "--dt", "t^2*u^600"]) == 0
    assert time.process_time() - start < 1.2
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "05558d1eb2e4525b4ef27a356927f9d773b61264966b6d8779e4f5fe329e406e")


def _refusal(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _with_far_part_cancelled(data, params, terms, beyond):
    """The ring terms, and maybe minus every monomial of one of them beyond t^beyond on
    either side, so that terms cover that one's far positions and cancel it there."""
    if not terms or not data.draw(st.booleans()):
        return terms
    key = data.draw(st.sampled_from(sorted(terms)))
    out = dict(terms)
    for e, l, v in RingElem.monomial(params, terms[key], *key).monomials():
        if abs(e) > beyond:
            sparse_add(out, (e, l), -v)
    return out


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_form_reach_check_refuses_only_what_reduction_refuses(data):
    """Under a small MAX_REACH, a form the term check refuses is refused by the
    reduction too.  Small exponents and unit coefficients make the terms'
    ends meet and cancel across terms and across the dt and du parts, u powers
    up to 6m make terms with p^k, k >= 1, cover each other, and a far part may
    be cancelled outright."""
    params = data.draw(st.sampled_from([RingParams(m, r) for m in (2, 3) for r in (2, 3)]))
    key = st.tuples(st.integers(-16, 16), st.integers(0, 6 * params.m))
    coef = st.sampled_from([PolyC.const(1), PolyC.const(-1), PolyC.const(2), PolyC.c()])
    dt, du = (data.draw(st.dictionaries(key, coef, max_size=3)) for _ in range(2))
    dt = _with_far_part_cancelled(data, params, dt, 12)
    dt_elem, du_elem = (sum((RingElem.monomial(params, v, *k) for k, v in terms.items()),
                            RingElem.zero(params)) for terms in (dt, du))
    with mock.patch.object(kahler, "MAX_REACH", 12):
        early = _refusal(check_form_reach, params, dt, du)
        full = _refusal(reduce_oracle, DiffForm(dt_elem, du_elem))
    assert early is None or full is not None, (dt, du, early)


def test_cancelled_far_ends_still_answer(capsys):
    """t^-13 u^3 - t^-13 is -2c t^-11 + t^-9: its far ends cancel, so the term
    check leaves it to the reduction, which answers."""
    with mock.patch.object(kahler, "MAX_REACH", 12):
        assert main(["kahler-reduce", "--m", "3", "--r", "2", "--dt", "t^-13*u^3"]) == 2
        assert main(["kahler-reduce", "--m", "3", "--r", "2", "--dt", "t^-13*u^3 - t^-13"]) == 0


@pytest.mark.parametrize("dt, far", [
    ("t^2*u^1000 + t^1334*u", 1332),
    ("t^2*u^9000 + t^12002", 12000),
    ("t^2*u^3000000000 + t^4000000002", 4000000000),
])
def test_tied_far_end_refused_before_expansion(dt, far, capsys):
    """A far end that another term also reaches leaves the positions inside it to
    one term alone: refused from there, with no walk and no table growth."""
    start = time.process_time()
    with mock.patch.dict(kahler._TABLES, clear=True):
        assert main(["kahler-reduce", "--m", "3", "--r", "2", "--dt", dt]) == 2
        assert kahler._TABLES == {}
    assert time.process_time() - start < 1.0
    assert capsys.readouterr().err == f"error: t exponent {far} is beyond kahler.MAX_REACH (1000)\n"


def test_covered_positions_are_left_to_the_reduction():
    """Every far position that two terms of one group reach is left to the reduction;
    a position only one reaches is refused, naming the least far end of its run."""
    one = PolyC.const(1)
    with mock.patch.object(kahler, "MAX_REACH", 12):
        # p^4 reaches t^2 .. t^18 in sector 0, and t^14 p covers t^14 .. t^18
        check_form_reach(P32, {(2, 12): one, (14, 3): PolyC.c()}, {})
        with pytest.raises(ValueError, match="t exponent 14 is beyond"):
            check_form_reach(P32, {(2, 12): one, (16, 3): PolyC.c()}, {})
        # a du term of sector m-1 reaches t^(a+r-1) .. t^(a+2r(k+1)-1) in sector 0
        with pytest.raises(ValueError, match="t exponent 17 is beyond"):
            check_form_reach(P32, {}, {(10, 5): one})
        check_form_reach(P32, {(13, 0): one, (15, 0): one, (17, 0): one}, {(10, 5): one})


def test_far_bracket_operand_refused_before_expansion(capsys):
    """bracket checks the cocycle of its operands' outer monomials before expanding
    u^q: p^(10^9) is refused at once, and a Killing-free pair is not checked.  u^20001
    against itself at m = 2 has end pairs of coefficient 0, (40000 - 40000)/2 at the top:
    it is refused from their neighbours, t^39998 u against t^40000 u."""
    bracket = ["bracket", "--m", "3", "--r", "2", "--x", "e", "--b", "u"]
    start = time.process_time()
    with mock.patch.dict(kahler._TABLES, clear=True):
        assert main(bracket + ["--y", "f", "--a", "u^3000000000"]) == 2
        assert main(bracket + ["--y", "f", "--a", "u^1200"]) == 2
        assert main(["bracket", "--m", "2", "--r", "2", "--x", "e", "--y", "f",
                     "--a", "u^20001", "--b", "u^20001"]) == 2
        assert kahler._TABLES == {}
    assert time.process_time() - start < 1.0
    assert capsys.readouterr().err == (
        "error: t exponent 3999999999 is beyond kahler.MAX_REACH (1000)\n"
        "error: t exponent 1599 is beyond kahler.MAX_REACH (1000)\n"
        "error: t exponent 79997 is beyond kahler.MAX_REACH (1000)\n")
    assert main(bracket + ["--y", "e", "--a", "t^1200"]) == 0  # <e, e> = 0: no cocycle


def test_far_pair_with_zero_cocycle_answers(capsys):
    """t^600 u against itself at m = 2 reaches t^1199 in the form f dg, but its closed-form
    coefficient (600 - 600)/2 is 0: no class is far, and the bracket answers with central
    part 0 beside the printed formula's literal Type II term."""
    assert main(["bracket", "--m", "2", "--r", "2", "--x", "e", "--y", "f",
                 "--a", "t^600*u", "--b", "t^600*u"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle"]["central"] == {"odd": [], "omega0": "0"}
    assert doc["formula"]["central"] == {"odd": [], "omega0": "720000"}


def test_far_type_I_pair_with_zero_j_answers(capsys):
    """t^1500 u against 1: the printed Type I term j cl(t^1499 u dt) has j = 0, so the formula
    builds no far class, and it agrees with the oracle, whose cocycle is 0 too."""
    assert main(["bracket", "--m", "3", "--r", "2", "--x", "e", "--y", "f",
                 "--a", "t^1500*u", "--b", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["match"] is True
    assert doc["oracle"]["central"] == doc["formula"]["central"] == {"odd": [], "omega0": "0"}


def test_near_bracket_operand_answer_pinned(capsys):
    """u^600 against u answers as it did when p^200 was a repeated product."""
    assert main(["bracket", "--m", "3", "--r", "2", "--x", "e", "--y", "f", "--b", "u",
                 "--a", "u^600"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "83c9c9cec1c8a0759a625a6f45db14c71bee901c1c30ef9613360979b500b2e6")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_cocycle_reach_check_refuses_only_what_tau_refuses(data):
    """Under a small MAX_REACH, ring terms the cocycle check refuses make tau refuse too,
    also when the terms of one operand cancel each other's monomials; with one term each,
    whose runs hold every monomial, the check refuses exactly what tau refuses."""
    params = data.draw(st.sampled_from([RingParams(m, r) for m in (2, 3) for r in (2, 3)]))
    key = st.tuples(st.integers(-14, 14), st.integers(0, 4 * params.m))
    coef = st.sampled_from([PolyC.const(1), PolyC.const(-1), PolyC.c()])
    f, g = (_with_far_part_cancelled(data, params, data.draw(
        st.dictionaries(key, coef, min_size=1, max_size=3)), 6) for _ in range(2))
    fe, ge = (sum((RingElem.monomial(params, v, *k) for k, v in terms.items()),
                  RingElem.zero(params)) for terms in (f, g))
    with mock.patch.object(kahler, "MAX_REACH", 12), mock.patch.dict(kahler._TABLES, clear=True):
        early = _refusal(check_cocycle_reach, params, f, g)
        full = _refusal(TauCache(ring_table(params)).tau, fe, ge)
    assert early is None or full is not None, (f, g, early)
    if len(f) == len(g) == 1:
        assert (early is None) == (full is None), (f, g, full)
