import math
import operator
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secalg.cli import parse_coef
from secalg.coeffs import (
    MAX_C_DEGREE,
    CoeffK,
    PolyC,
    Poly2,
    SpecializationError,
    is_integer_constant,
    specialize,
    walk_recurrence,
)
from secalg.ope import FieldExpr

FIELD_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
             "div": operator.truediv}


def rand_coeff(rng, depth=2):
    """Random small rational function in c and s."""
    atoms = [
        CoeffK.from_rat(F(rng.randint(-6, 6), rng.randint(1, 5))),
        CoeffK.c(),
        CoeffK.s(),
        CoeffK.k(),
    ]
    val = rng.choice(atoms)
    for _ in range(depth):
        other = rng.choice(atoms)
        op = rng.choice(["add", "sub", "mul", "mul", "div"])
        if op == "div" and other.is_zero():
            continue
        val = FIELD_OPS[op](val, other)
    return val


def test_inverse_pairs():
    assert (CoeffK.alpha() * CoeffK.s()).is_one()
    half_s = CoeffK.s() * F(1, 2)
    assert (half_s * (CoeffK.from_int(2) / CoeffK.s())).is_one()


def test_k_substitution_face_value():
    val = (CoeffK.k() + CoeffK.from_int(2)) / CoeffK.k()
    assert val.render() == "(s^2 + 2)/s^2"
    assert val.render(k_style=True) == "(k + 2)/k"


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CoeffK.one() / CoeffK.zero()


def test_field_axioms_randomized():
    rng = random.Random(9130)
    for _ in range(40):
        a, b, c = (rand_coeff(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert (a * a.inv()).is_one()


def test_canonical_uniqueness():
    rng = random.Random(417)
    for _ in range(40):
        a, b = rand_coeff(rng), rand_coeff(rng)
        diff = a - b
        assert diff.is_zero() == (a == b)
        # canonical structural equality matches semantic equality at samples
        if not diff.is_zero():
            sampled_nonzero = False
            for cv, kv in [(F(1, 3), F(4)), (F(2), F(9)), (F(5, 7), F(1, 4))]:
                try:
                    v = specialize(diff, cv, kv).as_rational()
                except ZeroDivisionError:
                    continue
                if v != 0:
                    sampled_nonzero = True
                    break
            assert sampled_nonzero


def test_denominator_normalization():
    # denominator's graded-lex leading coefficient is 1 after construction
    x = CoeffK(Poly2.var_c() * 6, Poly2.var_s() * 3)
    assert x.den.leading_coeff() == 1
    assert x == CoeffK(Poly2.var_c() * 2, Poly2.var_s())


def test_specialize_examples():
    val = (CoeffK.k() + CoeffK.from_int(2)) / CoeffK.k()
    assert specialize(val, None, F(1, 4)).as_rational() == 9
    assert specialize(CoeffK.alpha(), None, F(1, 4)).as_rational() == 2
    with pytest.raises(SpecializationError):
        specialize(CoeffK.alpha(), None, F(3))


def test_specialize_commutes_with_field_ops():
    rng = random.Random(5150)
    cv, kv = F(3, 5), F(9, 4)
    for _ in range(30):
        a, b = rand_coeff(rng), rand_coeff(rng)
        for op in ("add", "sub", "mul", "div"):
            if op == "div" and b.is_zero():
                continue
            try:
                lhs = specialize(FIELD_OPS[op](a, b), cv, kv)
                rhs = FIELD_OPS[op](specialize(a, cv, kv), specialize(b, cv, kv))
            except ZeroDivisionError:
                continue
            assert lhs == rhs


def test_is_integer_constant():
    assert is_integer_constant(CoeffK.from_int(-2)) == -2
    eps = CoeffK.zero() - CoeffK.one() / CoeffK.k()
    assert is_integer_constant(eps) is None
    assert is_integer_constant(specialize(eps, None, F(1, 3))) == -3
    assert is_integer_constant(CoeffK.from_rat(F(1, 2))) is None


def test_polyc_arithmetic_and_render():
    p = PolyC({2: F(8, 5), 0: F(-3, 5)})
    assert p.render() == "8/5*c^2 - 3/5"
    assert p.render_ratio() == "(8*c^2 - 3)/5"
    q = PolyC.c() * PolyC.c()
    assert (q * F(8, 5) - PolyC.const(F(3, 5))) == p
    quo, rem = (p * PolyC.c()).divmod(p)
    assert quo == PolyC.c() and rem.is_zero()


def test_poly2_gcd_reduction():
    # (c*s + s) / (s^2 + s) reduces to (c + 1)/(s + 1)
    num = Poly2({(1, 1): F(1), (0, 1): F(1)})
    den = Poly2({(0, 2): F(1), (0, 1): F(1)})
    x = CoeffK(num, den)
    assert x.num == Poly2({(1, 0): F(1), (0, 0): F(1)})
    assert x.den == Poly2({(0, 1): F(1), (0, 0): F(1)})


# -- independent oracle: canonical forms and gcds against sympy ---------------

_S, _C = sympy.symbols("s c")
_monos = st.sampled_from([(ec, es) for ec in range(4) for es in range(4)])
_rats = st.sampled_from([F(n, d) for n in range(-6, 7) if n for d in range(1, 5)])


def _poly2s(min_size, max_size):
    terms = st.lists(st.tuples(_monos, _rats), min_size=min_size, max_size=max_size)
    return terms.map(lambda ts: Poly2(dict(ts)))


def _sym(p):
    """The same polynomial as a sympy Poly over QQ in gens (s, c)."""
    return sympy.Poly.from_dict({(es, ec): v for (ec, es), v in p.coeffs.items()},
                                _S, _C, domain=sympy.QQ)


_CS = Poly2({(1, 0): 1, (0, 1): 1})  # c + s
_CM1 = Poly2({(1, 0): 1, (0, 0): -1})  # c - 1
_S2P1 = Poly2({(0, 2): 1, (0, 0): 1})  # s^2 + 1


@settings(derandomize=True, max_examples=200, deadline=None)
@given(num=_poly2s(0, 4), den=_poly2s(1, 3))
@example(num=_CS * _CM1, den=_CS * _S2P1)
@example(num=_CS * _CM1 * F(10**30, 7), den=_CS * _S2P1 * F(3, 2 * 10**25))
@example(num=_CS * _CS * _CM1 * F(-5, 12), den=_CS * _CM1 * _CM1 * _S2P1 * F(9, 4))
def test_canonical_form_matches_sympy(num, den):
    """Monomial (one-term) and non-monomial denominators alike; the examples share
    a factor in both c and s, so the PRS path must find a non-unit gcd."""
    x = CoeffK(num, den)
    n, d, n_out, d_out = _sym(num), _sym(den), _sym(x.num), _sym(x.den)
    assert n_out * d == n * d_out
    assert n_out.gcd(d_out).is_ground
    assert d_out.LC(order="grlex") == 1


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mono=_poly2s(1, 1), p=_poly2s(0, 4))
def test_monomial_gcd_and_divexact_match_sympy(mono, p):
    g = Poly2.gcd(p, mono)
    assert g == Poly2.gcd(mono, p)
    assert _sym(g) == _sym(mono).gcd(_sym(p)).monic()
    assert (p * mono).divexact(mono) == p
    [(dc, ds)] = mono.coeffs
    if all(ec >= dc and es >= ds for ec, es in p.coeffs):
        assert p.divexact(mono) * mono == p
    else:
        with pytest.raises(ArithmeticError):
            p.divexact(mono)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(a=_poly2s(0, 3), b=_poly2s(1, 3), d=_poly2s(1, 2))
@example(a=_CS * _CM1, b=_S2P1, d=_CS)
def test_cached_hashes_agree_across_routes(a, b, d):
    """Poly2 and CoeffK keep their hash once computed: equal values built by a sum, a
    product, exact division, the parser and ``specialize`` hash equal and find each
    other as dict keys and as term-map keys, also after the originals took part in
    arithmetic."""
    x, y = CoeffK(a, d), CoeffK(b, d)
    keys = {x: "x", a: "a"}  # hashed before any arithmetic below
    polys = [a, (a * b).divexact(b), (a + b) - b, Poly2(a.coeffs), specialize(CoeffK(a)).num]
    routes = [x, CoeffK(a * b, d * b), (x + y) - y, x * y / y, parse_coef(x.render()),
              specialize(x), CoeffK((a * d).divexact(d), d)]
    for _ in range(2):  # the second pass reads the hashes kept by the first
        assert all(p == a and hash(p) == hash(a) and keys[p] == "a" for p in polys)
        assert all(z == x and hash(z) == hash(x) and keys[z] == "x" for z in routes)
        _ = x * x + y, a * a - b  # arithmetic on the originals leaves them as they were
    if not x.is_zero():
        c_val = F(7, 3)
        assert {specialize(z, c_val): 0 for z in routes}.keys() == {specialize(x, c_val)}
    terms = sum((FieldExpr.exponential(z) for z in routes), FieldExpr.zero()).terms
    assert terms == {((), x): CoeffK.from_int(len(routes))}


# -- independent oracle: PolyC against sympy over QQ and the Fraction-dict renderer

_c = sympy.symbols("c")
_qs = st.sampled_from([F(n, d) for n in range(-40, 41) for d in (1, 2, 3, 4, 6, 9, 14)])
_polycs = st.lists(st.tuples(st.integers(0, 6), _qs), max_size=5).map(lambda ts: PolyC(dict(ts)))


def _symc(p):
    return sympy.Poly.from_dict({(e,): v for e, v in p.coeffs.items()} or {(0,): 0},
                                _c, domain=sympy.QQ)


def _assert_canonical(p):
    assert type(p.ints) is tuple and all(type(x) is int for x in p.ints)
    assert type(p.num) is int and type(p.den) is int
    assert p.den > 0 and math.gcd(p.num, p.den) == 1 and p.num != 0
    assert isinstance(p.cont, F) and p.cont == F(p.num, p.den)
    assert type(p.val) is int and p.val >= 0
    if p.ints:
        assert math.gcd(*p.ints) == 1 and p.ints[-1] > 0 and p.ints[0] != 0
    else:
        assert (p.num, p.den, p.val) == (1, 1, 0)


def _fraction_dict_render(coeffs):
    """PolyC's renderer from when it stored a dict of reduced Fractions."""
    if not coeffs:
        return "0"
    parts = []
    for e in sorted(coeffs, reverse=True):
        v = coeffs[e]
        mag = abs(v)
        if e == 0:
            body = str(mag)
        elif mag == 1:
            body = "c" if e == 1 else f"c^{e}"
        else:
            body = f"{mag}*c" + (f"^{e}" if e > 1 else "")
        parts.append(("-" if v < 0 else "+", body))
    sign0, body0 = parts[0]
    text = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _fraction_dict_render_ratio(coeffs):
    if not coeffs:
        return "0"
    den = 1
    for v in coeffs.values():
        den = den * v.denominator // math.gcd(den, v.denominator)
    text = _fraction_dict_render({e: v * den for e, v in coeffs.items()})
    if den == 1:
        return text
    if len(coeffs) > 1:
        text = f"({text})"
    return f"{text}/{den}"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(a=_polycs, b=_polycs, q=_qs, n=st.integers(-12, 12))
@example(a=PolyC({0: F(5, 6)}), b=PolyC(), q=F(1), n=0)
@example(a=PolyC({2: F(1, 4), 0: F(5, 6)}), b=PolyC.c(), q=F(-2, 3), n=-12)
@example(a=PolyC({1: F(7, 9)}), b=PolyC({0: F(1, 3)}), q=F(9, 14), n=6)
# (c - 1)(c + 2) * 5/6 and (c - 1)(3c + 1) * -7/4: a common factor and non-primitive contents
@example(a=PolyC({2: F(5, 6), 1: F(5, 6), 0: F(-5, 3)}),
         b=PolyC({2: F(-21, 4), 1: F(7, 2), 0: F(7, 4)}), q=F(9, 14), n=4)
# c^3 (c - 1) and c^5 (c + 1)^2 (c - 1): valuations, which the gcd and the quotient keep
@example(a=PolyC({4: F(2, 3), 3: F(-2, 3)}), b=PolyC({8: 1, 7: 1, 6: -1, 5: -1}), q=F(1), n=-3)
def test_polyc_matches_sympy(a, b, q, n):
    """Zero, constants, one-term values and negative leading coefficients alike.

    The integer scalar ``n`` is often 0 or shares factors with the content's
    denominator, so the content must be reduced after scaling.
    """
    sa, sb = _symc(a), _symc(b)
    results = {"add": (a + b, sa + sb), "sub": (a - b, sa - sb), "mul": (a * b, sa * sb),
               "scale": (a.scale(q), sa * q), "neg": (-a, -sa),
               "mul_int": (a * n, sa * n), "rmul_int": (n * a, sa * n),
               "gcd": (PolyC.gcd(a, b), sa.gcd(sb).monic()),
               "walk_step": (walk_recurrence({0: b, 1: a}, 2, 1, lambda _k: (abs(n) + 1, n, n - 3)),
                             (sa * _symc(PolyC.c()) * 2 * n + sb * (3 - n)) * F(1, abs(n) + 1))}
    if not b.is_zero():
        (quo, rem), (squo, srem) = a.divmod(b), sa.div(sb)
        results.update(quo=(quo, squo), rem=(rem, srem))
    for name, (got, want) in results.items():
        _assert_canonical(got)
        assert _symc(got) == want, name
    # structural equality and hashing agree with value equality
    assert (a == b) == (sa == sb)
    again = (a + b) - b
    assert again == a and hash(again) == hash(a) and PolyC(a.coeffs) == a
    assert a.render() == _fraction_dict_render(a.coeffs)
    assert a.render_ratio() == _fraction_dict_render_ratio(a.coeffs)


# operands of the scalar fast paths: zero, the unit, constants with and without
# denominator 1, one-term multiples of c^e at a few shared valuations, general values
_units = st.sampled_from([PolyC.const(1), PolyC({0: 1}), PolyC.const(F(2)) * F(1, 2)])
_small_qs = st.sampled_from([F(n, d) for n in range(-4, 5) for d in (1, 1, 2, 3)])
_monos = st.builds(lambda q, e: PolyC({e: q}), _small_qs, st.integers(0, 2))
_fast = st.one_of(st.just(PolyC()), _units, _monos, _polycs)


def _fraction_dict_mul(x, y):
    out = {}
    for i, u in x.items():
        for j, v in y.items():
            out[i + j] = out.get(i + j, 0) + u * v
    return {e: v for e, v in out.items() if v}


def _fraction_dict_add(x, y):
    out = dict(x)
    for j, v in y.items():
        out[j] = out.get(j, 0) + v
    return {e: v for e, v in out.items() if v}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=_fast, b=_fast, n=st.sampled_from([1, 0, -1, 2, F(1), F(3, 2), F(-1, 2)]))
@example(a=PolyC.const(F(3, 2)), b=PolyC.const(F(-3, 2)), n=1)  # constants that cancel
@example(a=PolyC({2: F(5, 6)}), b=PolyC({2: F(1, 6)}), n=1)  # c^2 multiples summing to 1*c^2
@example(a=PolyC({1: 3}), b=PolyC({1: -3}), n=F(1))  # integer multiples of c that cancel
def test_polyc_fast_paths_match_fraction_dicts(a, b, n):
    """Products by one, sums of two multiples of one power of c, and sums that
    cancel, against plain Fraction dicts; every result is canonical and a
    product by the unit (a PolyC or the int 1) is its other operand itself."""
    x, y = a.coeffs, b.coeffs
    results = [(a * b, _fraction_dict_mul(x, y)), (b * a, _fraction_dict_mul(x, y)),
               (a + b, _fraction_dict_add(x, y)), (b + a, _fraction_dict_add(x, y)),
               (a - b, _fraction_dict_add(x, {e: -v for e, v in y.items()})),
               (a * n, _fraction_dict_mul(x, {0: F(n)})), (n * a, _fraction_dict_mul(x, {0: F(n)})),
               (a + (-a), {}), (a * -2 + a * 2, {})]
    for got, want in results:
        _assert_canonical(got)
        assert got.coeffs == want
        if not want:
            assert (got.ints, got.num, got.den, got.val) == ((), 1, 1, 0)
    one = PolyC.const(1)
    assert a * one is a and a * 1 is a and 1 * a is a and one * a == a


def test_polyc_high_powers_of_c():
    """A power of c is one exponent at any degree; only a span above MAX_C_DEGREE is refused."""
    n = 10**9
    x = PolyC({n: F(3, 2), n + 1: 1})  # c^n (c + 3/2)
    _assert_canonical(x)
    assert (x.ints, x.val, x.cont) == ((3, 2), n, F(1, 2))
    assert (x * x).degree() == 2 * n + 2 and (x * x).divexact(x) == x
    assert PolyC.gcd(x * PolyC.c(5), PolyC.c(n + 7)) == PolyC.c(n + 5)
    assert x.render() == f"c^{n + 1} + 3/2*c^{n}"
    assert x.at(F(1)) == F(5, 2) and x.at(F(0)) == 0
    with pytest.raises(ArithmeticError):
        PolyC.c(n).divexact(x)
    with pytest.raises(ValueError, match="span"):
        x + PolyC.const(1)
    with pytest.raises(ValueError, match="span"):
        PolyC({0: 1, MAX_C_DEGREE + 1: 1})
    assert PolyC({0: 1, MAX_C_DEGREE: 1}).degree() == MAX_C_DEGREE
