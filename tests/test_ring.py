import random
from fractions import Fraction as F

import pytest

from secalg.coeffs import CoeffK, PolyC
from secalg.ring import RingElem, RingParams, decompose_sectors, p_laurent, ring_mul

P32 = RingParams(3, 2)


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
    assert decompose_sectors(prod)[0][0] == 0


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
    [(l, lt)] = decompose_sectors(p_elem)
    assert l == 0 and set(lt) == {0, 2, 4}
    two = mono(P32, 1, -1, 1) + mono(P32, 1, 0, 2)
    comps = decompose_sectors(two)
    assert [c[0] for c in comps] == [1, 2]
    assert decompose_sectors(RingElem.zero(P32)) == []


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
