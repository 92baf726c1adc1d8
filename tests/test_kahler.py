import hashlib
import random
import sys
import threading
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secalg import kahler
from secalg.cli import main
from secalg.coeffs import PolyC
from secalg.kahler import (
    DiffClass,
    DiffForm,
    PivotError,
    ReductionTable,
    ReductionWindow,
    basis_dim,
    differential,
    eliminate_du,
    reduce_monomial_class,
    reduce_oracle,
    reduce_recurrence,
    ring_table,
    structure_constants,
    verify_recurrence,
)
from secalg.ring import RingElem, RingParams, dp_laurent

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
    terms = eliminate_du(form)
    got = {(n, l): v for n, l, v in terms}
    for e, a in dp_laurent(P32).items():
        assert got[(e + 1, 0)] == a * F(1, 3)


def test_eliminate_du_exactness_rule():
    # t^2 u^0 du == -2 t u dt (mod dA)
    form = DiffForm(RingElem.zero(P32), mono(P32, 1, 2, 0))
    assert eliminate_du(form) == [(2, 1, PolyC.const(-2))]
    # u^0 du = d(u) is exact
    form = DiffForm(RingElem.zero(P32), mono(P32, 1, 0, 0))
    assert eliminate_du(form) == []


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
    This is the documented verification finding, pinned here."""
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


@pytest.mark.parametrize("m, r", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
def test_reduction_table_matches_sympy_rref(m, r):
    """Independent oracle: sympy's rref over QQ(c) of the same relation rows.

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
    rows = kahler._relation_rows(params, lo, hi)
    dense = [[K.zero] * len(cols) for _ in rows]
    for i, row in enumerate(rows):
        for col, v in row.items():
            dense[i][index[col]] = to_k(v)
    rref, pivots = DomainMatrix(dense, (len(rows), len(cols)), K).rref()
    rref = rref.to_Matrix()

    table = ReductionTable(params, ReductionWindow(lo, hi))
    assert table.dim == len(cols) - len(pivots) == len(basis)
    for i, p in enumerate(pivots):
        cls = table.reduce_monomial(*cols[p])
        for (e, l) in basis:
            want = -rref[i, index[(e, l)]]
            got = cls.omega0 if l == 0 else cls.coeff(l, -e)
            assert K.from_sympy(want) == to_k(got), (cols[p], (e, l))


def test_reduction_table_rejects_a_row_solved_twice(monkeypatch):
    relation_rows = kahler._relation_rows
    monkeypatch.setattr(kahler, "_relation_rows",
                        lambda params, lo, hi: relation_rows(params, lo, hi)[:1] * 2)
    with pytest.raises(AssertionError, match="not triangular"):
        ReductionTable(P32, ReductionWindow(-9, 9))


def fresh_table(params):
    return ReductionTable(params, ReductionWindow(-2 * params.r, -1))


_WHOLE: dict = {}


def whole_table(params):
    """One table built over [-5r-3, 3r+3] at once, the reference for grown tables."""
    if params not in _WHOLE:
        _WHOLE[params] = ReductionTable(params, ReductionWindow(-5 * params.r - 3, 3 * params.r + 3))
    return _WHOLE[params]


_GRID = [RingParams(m, r) for m in (2, 3, 4) for r in (2, 3)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_grown_table_matches_whole_window_table(data):
    """Classes do not depend on the order in which columns are first requested,
    and the oracle over a fresh ring table is linear."""
    params = data.draw(st.sampled_from(_GRID))
    whole = whole_table(params)
    cols = [(e, l) for l in range(params.m)
            for e in range(whole.window.lo, whole.window.hi + 1)]
    table = fresh_table(params)
    for col in data.draw(st.permutations(cols)):
        assert table.reduce_monomial(*col) == whole.reduce_monomial(*col), col
    assert table.window == whole.window and table.dim == whole.dim == table.n_basis

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


def test_growth_is_linear_in_the_final_width(monkeypatch):
    relation_rows = kahler._relation_rows
    count = [0]

    def counted(params, lo, hi):
        rows = relation_rows(params, lo, hi)
        count[0] += len(rows)
        return rows

    monkeypatch.setattr(kahler, "_relation_rows", counted)
    table = fresh_table(P32)
    for e in range(0, 201):
        table.reduce_monomial(e, 1)
    assert table.window == ReductionWindow(-4, 200)
    assert count[0] <= 3 * table.n_cols, (count[0], table.n_cols)
    assert table.dim == table.n_basis
    once = ReductionTable(P32, table.window)
    for e in range(-4, 201):
        for l in range(3):
            assert table.reduce_monomial(e, l) == once.reduce_monomial(e, l), (e, l)


def test_sector_out_of_range_does_not_grow():
    table = fresh_table(P32)
    before = (table.window, table.n_cols, table.rank)
    for sector in (-1, 3, 7):
        with pytest.raises(ValueError, match="sector"):
            table.reduce_monomial(50, sector)
    assert (table.window, table.n_cols, table.rank) == before


def test_far_term_refused_before_nearer_terms_grow_the_table(capsys):
    """A form with one term beyond MAX_REACH is refused before any term is reduced."""
    with mock.patch.dict(kahler._TABLES, clear=True):
        before = ring_table(P32).window
        assert main(["kahler-reduce", "--m", "3", "--r", "2", "--dt", "t^1000*u + t^1001*u"]) == 2
        assert capsys.readouterr().err == (
            "error: t exponent 1001 is beyond kahler.MAX_REACH (1000)\n")
        assert ring_table(P32).window == before


def test_ring_table_grows_safely_across_threads():
    params = RingParams(3, 3)
    jobs = [[(120, 1), (-110, 2)], [(-130, 1), (90, 2)], [(100, 0), (140, 2)],
            [(-90, 2), (130, 1)]]
    with mock.patch.dict(kahler._TABLES, clear=True):
        serial = {col: ring_table(params).reduce_monomial(*col) for job in jobs for col in job}
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
            table = ring_table(params)
            assert errors == []
            assert results == serial
            assert table.window == ReductionWindow(-130, 140)
            assert table.dim == table.n_basis
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("dt, digest", [
    ("t^150*u", "e16099667fcc154ebf496af4f881ae6571c5ded703861278a36ab24aed152a8c"),
    ("t^-120*u^2", "082a373d42db851cec7fcea15a2c94bc7e6a1b7884dac2dd8545e07883aeccc5"),
])
def test_far_reduction_pinned(dt, digest, capsys):
    assert main(["kahler-reduce", "--m", "3", "--r", "2", "--dt", dt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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
