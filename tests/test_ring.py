import random
from unittest import mock
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from secalg import coeffs
from secalg.coeffs import CoeffK, PolyC, as_polyc, sparse_add
from secalg.ring import RingElem, RingParams, p_laurent, ring_mul

P32 = RingParams(3, 2)


def laurent_mul(a: dict[int, PolyC], b: dict[int, PolyC]) -> dict[int, PolyC]:
    """The product of two Laurent polynomials in t, term by term: the reference product."""
    out: dict[int, PolyC] = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            sparse_add(out, e1 + e2, v1 * v2)
    return out


def monomial_reference(params, coef, t_exp, u_exp):
    """coef * t^t_exp * u^u_exp with p^k expanded by k repeated Laurent products."""
    lt = {t_exp: as_polyc(coef)}
    for _ in range(u_exp // params.m):
        lt = laurent_mul(lt, p_laurent(params))
    return RingElem(params, {u_exp % params.m: lt})


def mono(params, coef, t, u):
    return RingElem.monomial(params, PolyC.const(coef), t, u)


def rand_elem(rng, params, n_terms=3, exp_bound=4):
    out = RingElem.zero(params)
    for _ in range(n_terms):
        out = out + mono(
            params,
            F(rng.randint(-5, 5), rng.randint(1, 4)),
            rng.randint(-exp_bound, exp_bound),
            rng.randint(0, params.m - 1),
        )
    return out


def test_u_times_u2_reduces_to_p():
    u = mono(P32, 1, 0, 1)
    u2 = mono(P32, 1, 0, 2)
    prod = ring_mul(u, u2)
    expected = RingElem(P32, {0: p_laurent(P32)})
    assert prod == expected
    assert list(prod.sectors) == [0]


def test_no_reduction_needed():
    a = mono(P32, 1, 1, 1)
    b = mono(P32, 1, 2, 1)
    assert ring_mul(a, b) == mono(P32, 1, 3, 2)


def test_u2_times_u2_is_u_times_p():
    prod = ring_mul(mono(P32, 1, 0, 2), mono(P32, 1, 0, 2))
    expected = ring_mul(mono(P32, 1, 0, 1), RingElem(P32, {0: p_laurent(P32)}))
    assert prod == expected
    assert list(prod.sectors) == [1]


def test_decompose_examples():
    p_elem = RingElem(P32, {0: p_laurent(P32)})
    [(l, lt)] = p_elem.sectors.items()
    assert l == 0 and set(lt) == {0, 2, 4}
    two = mono(P32, 1, -1, 1) + mono(P32, 1, 0, 2)
    assert sorted(two.sectors) == [1, 2]
    assert RingElem.zero(P32).sectors == {}


def test_parameter_mismatch():
    with pytest.raises(ValueError):
        ring_mul(mono(P32, 1, 0, 0), mono(RingParams(2, 2), 1, 0, 0))


def test_mul_associative_commutative_randomized():
    rng = random.Random(2024)
    for params in (P32, RingParams(2, 2)):
        for _ in range(12):
            a, b, c = (rand_elem(rng, params) for _ in range(3))
            assert ring_mul(a, b) == ring_mul(b, a)
            assert ring_mul(ring_mul(a, b), c) == ring_mul(a, ring_mul(b, c))


def test_sector_additivity():
    rng = random.Random(77)
    for _ in range(20):
        l1, l2 = rng.randint(0, 2), rng.randint(0, 2)
        a = mono(P32, 1, rng.randint(-3, 3), l1)
        b = mono(P32, 1, rng.randint(-3, 3), l2)
        prod = ring_mul(a, b)
        assert set(prod.sectors) <= {(l1 + l2) % 3}


def test_monomial_takes_q_c_field_coefficients_only():
    field = CoeffK.from_rat(F(1, 2)) + CoeffK.c() * CoeffK.from_rat(F(-3, 5))
    poly = PolyC({0: F(1, 2), 1: F(-3, 5)})
    assert RingElem.monomial(P32, field, 3, 4) == RingElem.monomial(P32, poly, 3, 4)
    with pytest.raises(ValueError, match="ring coefficient s is not a polynomial in c"):
        RingElem.monomial(P32, CoeffK.s(), 0, 1)


def test_u_to_m_equals_p():
    um = RingElem.monomial(P32, PolyC.const(1), 0, 3)
    assert um == RingElem(P32, {0: p_laurent(P32)})
    rng = random.Random(4)
    for _ in range(8):
        x = rand_elem(rng, P32)
        assert ring_mul(x, um) == ring_mul(x, RingElem(P32, {0: p_laurent(P32)}))


def _ring_mul_reference(a, b):
    """The product summed as objects: one Laurent product per pair of sectors,
    times p(t) as a second Laurent product when the sectors wrap, added into a
    fresh map per pair and validated by ``RingElem``."""
    m = a.params.m
    out = {}
    for l1, lt1 in a.sectors.items():
        for l2, lt2 in b.sectors.items():
            prod = laurent_mul(lt1, lt2)
            l = l1 + l2
            if l >= m:
                l -= m
                prod = laurent_mul(prod, p_laurent(a.params))
            acc = dict(out.get(l, {}))
            for e, v in prod.items():
                sparse_add(acc, e, v)
            out[l] = acc
    return RingElem(a.params, out)


GRID = [RingParams(m, r) for m in (2, 3, 4) for r in (2, 3)]
Q_C = st.builds(lambda a0, a1: PolyC({0: a0, 1: a1}),
                st.fractions(-3, 3, max_denominator=4), st.fractions(-2, 2, max_denominator=3))


def ring_elems(params, sectors, max_terms=4):
    """Sums of (a0 + a1*c) t^i u^l with l drawn from ``sectors``; zero when all cancel."""
    term = st.tuples(Q_C, st.integers(-3, 3), sectors)
    return st.lists(term, min_size=1, max_size=max_terms).map(
        lambda terms: sum((RingElem.monomial(params, v, t, u) for v, t, u in terms),
                          RingElem.zero(params)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_ring_mul_matches_object_reference(data):
    """One term-map pass equals the object-summing product; every draw has a
    term in a nonzero sector and one in sector m - 1, so sectors wrap."""
    params = data.draw(st.sampled_from(GRID))
    m = params.m
    a = data.draw(ring_elems(params, st.integers(0, m - 1))) + data.draw(
        ring_elems(params, st.integers(1, m - 1), 1))
    b = data.draw(ring_elems(params, st.integers(0, m - 1))) + data.draw(
        ring_elems(params, st.just(m - 1), 1))
    assert ring_mul(a, b) == _ring_mul_reference(a, b)
    assert ring_mul(b, a) == _ring_mul_reference(b, a)


C_COEF = st.builds(lambda a0, a1, e: PolyC({e: a0, e + 1: a1}), st.fractions(-3, 3, max_denominator=4),
                   st.fractions(-2, 2, max_denominator=3), st.integers(0, 3))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.sampled_from(GRID), C_COEF, st.integers(-5, 5), st.integers(0, 40), st.data())
def test_monomial_matches_repeated_product(params, coef, t_exp, k, data):
    """p^k from the Gegenbauer recurrence equals k repeated Laurent products, term
    for term and in the same ascending order, for k up to 40."""
    u_exp = params.m * k + data.draw(st.integers(0, params.m - 1))
    got = RingElem.monomial(params, coef, t_exp, u_exp)
    want = monomial_reference(params, coef, t_exp, u_exp)
    assert got == want
    assert [list(lt.items()) for lt in got.sectors.values()] == [
        list(lt.items()) for lt in want.sectors.values()]


@pytest.mark.parametrize("k", range(9))
def test_p_power_matches_sympy(k):
    """The coefficients of (1 - 2cx + x^2)^k, x = t^r, expanded by sympy."""
    c, x = sympy.symbols("c x")
    poly = sympy.Poly(sympy.expand((1 - 2 * c * x + x ** 2) ** k), x)
    for params in (RingParams(2, 2), RingParams(3, 3)):
        got = RingElem.monomial(params, PolyC.const(1), 0, params.m * k).sectors[0]
        want = {params.r * n: sympy.Poly(v, c).all_coeffs()[::-1]
                for (n,), v in poly.terms()}
        assert {e: [v.coeffs.get(i, 0) for i in range(v.degree() + 1)]
                for e, v in got.items()} == want


@pytest.mark.parametrize("k", [50, 200])
def test_p_power_matches_the_multinomial_formula(k):
    """p^k at (3, 2), far beyond the other ranges: the coefficient of (-2c t^r)^a (t^(2r))^b is
    k!/(a! b! (k-a-b)!), summed over a + 2b = n at t^(rn)."""
    params, fact = RingParams(3, 2), [1]
    for i in range(1, k + 1):
        fact.append(fact[-1] * i)
    want: dict[int, PolyC] = {}
    for a in range(k + 1):
        for b in range(k - a + 1):
            coef = fact[k] // (fact[a] * fact[b] * fact[k - a - b]) * (-2) ** a
            sparse_add(want, params.r * (a + 2 * b), PolyC({a: coef}))
    assert RingElem.monomial(params, PolyC.const(1), 0, params.m * k).sectors == {0: want}


def _refusal(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_c_degree_refusal_matches_repeated_product():
    """Under a small MAX_C_DEGREE a term is refused before any walk exactly where the
    repeated product raises: G_k spans k - k mod 2 c degrees, the coefficient adds its own."""
    coefs = [PolyC.const(3), PolyC.c(4), PolyC({0: 1, 1: -2}), PolyC({1: 1, 3: 5}),
             PolyC({0: 1, 5: 1}), PolyC.zero()]
    refused = set()
    with mock.patch.object(coeffs, "MAX_C_DEGREE", 6):
        for params in (RingParams(2, 2), RingParams(3, 2)):
            for coef in coefs:
                for k in range(11):
                    u_exp = params.m * k + 1
                    got = _refusal(RingElem.monomial, params, coef, 0, u_exp)
                    want = _refusal(monomial_reference, params, coef, 0, u_exp)
                    assert (got is None) == (want is None), (coef, k, got, want)
                    span = len(coef.ints) - 1 + k - k % 2
                    assert got in (None, f"u^{u_exp} expands to c degree span {span} above 6")
                    refused.add(got is not None)
    assert refused == {False, True}


def test_expansion_budget_boundary_is_a_refusal(capsys):
    """p^k holds about k^2/2 terms of at most 2k bits: k = 512 is the last k whose k^3 is
    within coeffs.MAX_EXPANSION_BITS, and u^(513 m) is refused before any walk, also by a
    bracket whose generators pair to zero and so check no reach."""
    from secalg import ring
    from secalg.cli import main

    assert 512 ** 3 <= coeffs.MAX_EXPANSION_BITS < 513 ** 3
    with mock.patch.object(ring, "walk_recurrence", side_effect=AssertionError("walked")):
        for params in (RingParams(2, 2), RingParams(3, 2)):
            for u_exp in (513 * params.m, 514 * params.m - 1):
                assert _refusal(RingElem.monomial, params, PolyC.const(1), 0, u_exp) == (
                    f"u^{u_exp} expands p^513 to about 135005697 bits above 134217728")
        assert main(["bracket", "--m", "3", "--r", "2", "--x", "e", "--y", "e",
                     "--a", "u^1539", "--b", "u"]) == 2
    assert capsys.readouterr().err == (
        "error: u^1539 expands p^513 to about 135005697 bits above 134217728\n")
    top = RingElem.monomial(RingParams(2, 2), PolyC.const(1), 0, 1025).sectors[1]
    assert len(top) == 2 * 512 + 1 and top[0] == top[4 * 512] == PolyC.const(1)
