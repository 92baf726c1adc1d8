import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secalg.coeffs import CoeffK
from secalg.ope import (
    ALL_CONFIGS,
    KINDS,
    ConventionConfig,
    FieldExpr,
    FieldGen,
    OPEResult,
    OPESector,
    charge_of,
    contract_exp,
    contract_pair,
    is_laurent,
    nested_product,
    taylor_shift,
    wick_ope,
)

CONV = ConventionConfig(sigma_rev=-1, nesting="right")
ALPHA = CoeffK.alpha()


def gen(kind, sector, deriv=0):
    return FieldGen(kind, sector, deriv)


def fe(kind, sector, deriv=0):
    return FieldExpr.generator(kind, sector, deriv)


def test_contract_pair_examples():
    assert contract_pair(gen("beta", 0), gen("gamma", 0), CONV) == (1, CoeffK.one())
    assert contract_pair(gen("beta", 0), gen("gamma", 0, 1), CONV) == (2, CoeffK.one())
    assert contract_pair(gen("beta", 1), gen("gamma", 2), CONV) is None
    assert contract_pair(gen("heis", 1), gen("heis", 1), CONV) == (2, CoeffK.from_int(2))
    assert contract_pair(gen("gamma", 0), gen("beta", 0), CONV) == (1, CoeffK.from_int(-1))
    plus = ConventionConfig(sigma_rev=1, nesting="right")
    assert contract_pair(gen("gamma", 0), gen("beta", 0), plus) == (1, CoeffK.one())


def test_contract_exp_examples():
    assert contract_exp(gen("heis", 0), ALPHA, "z") == (1, CoeffK.from_int(2) * ALPHA)
    assert contract_exp(gen("heis", 0), ALPHA, "w") == (1, CoeffK.from_int(2) * ALPHA)
    assert contract_exp(gen("heis", 1), ALPHA, "z") is None
    assert contract_exp(gen("beta", 0), ALPHA, "z") is None
    assert contract_exp(gen("heis", 0), CoeffK.zero(), "z") is None


@pytest.mark.parametrize("b, eps", [
    pytest.param(CoeffK.zero() - ALPHA, CoeffK.zero() - CoeffK.one() / CoeffK.k(),
                 id="minus_alpha"),
    pytest.param(CoeffK.zero(), CoeffK.zero(), id="zero"),
    pytest.param(ALPHA, CoeffK.one() / CoeffK.k(), id="alpha"),
])
def test_wick_exponential_pair(b, eps):
    """exp(a, z) exp(b, w) = (z-w)^(a*b) exp(a+b, w), with no pole beyond it."""
    res = wick_ope(FieldExpr.exponential(ALPHA), FieldExpr.exponential(b), CONV,
                   extra_orders=1)
    assert res.single().epsilon == eps == ALPHA * b
    assert res.single().poles == {0: FieldExpr.exponential(ALPHA + b)}


def test_taylor_shift_examples():
    sh = taylor_shift(FieldExpr.term(CoeffK.one(), [gen("beta", 1)]), 1)
    assert sh[0] == fe("beta", 1)
    assert sh[1] == fe("beta", 1, 1)
    sh = taylor_shift(FieldExpr.term(CoeffK.c(), []), 2)
    assert sh[0] == FieldExpr.const(CoeffK.c())
    assert sh[1].is_zero() and sh[2].is_zero()
    sh = taylor_shift(FieldExpr.term(CoeffK.one(), [gen("gamma", 0)]), 2)
    assert sh[2] == fe("gamma", 0, 2).scale(CoeffK.from_rat(F(1, 2)))


def test_taylor_shift_repeated_factor():
    sh = taylor_shift(FieldExpr.term(CoeffK.one(), [gen("beta", 1), gen("beta", 1)]), 2)
    assert sh[2] == fe("beta", 1, 1) * fe("beta", 1, 1) + fe("beta", 1) * fe("beta", 1, 2)


def test_taylor_shift_exponential_matches_sympy_series():
    """exp(a phi0(z)) = exp(a sum_p (z-w)^p/p! d^p phi0(w)) exp(a phi0(w)).

    sympy expands the series in x = z-w with y_p standing for d^p phi0 =
    (1/2) D(b[0], p-1); every coefficient must match the Taylor shift.
    """
    sp = pytest.importorskip("sympy")
    order = 6
    x, A = sp.symbols("x A")
    ys = sp.symbols(f"y1:{order + 1}")
    series = sp.exp(A * sum(y * x**p / sp.factorial(p) for p, y in enumerate(ys, 1)))
    series = sp.expand(sp.series(series, x, 0, order + 1).removeO())
    a = CoeffK.from_rat(F(3, 2)) / CoeffK.s() + CoeffK.c()
    shifted = taylor_shift(FieldExpr.term(CoeffK.one(), [], a), order)
    for n in range(order + 1):
        monos = []
        for powers, q in sp.Poly(series.coeff(x, n), A, *ys).terms():
            coef = CoeffK.from_rat(F(int(q.p), int(q.q)))
            for _ in range(powers[0]):
                coef = coef * a
            factors = []
            for p, e in enumerate(powers[1:], 1):
                coef = coef * CoeffK.from_rat(F(1, 2**e))
                factors += [gen("heis", 0, p - 1)] * e
            monos.append(FieldExpr.term(coef, factors, a))
        assert shifted[n] == sum(monos, FieldExpr()), n


def test_wick_basic_and_sector_locality():
    res = wick_ope(fe("beta", 0), fe("gamma", 0), CONV)
    sec = res.single()
    assert sec.epsilon.is_zero()
    assert sec.poles == {1: FieldExpr.const(CoeffK.one())}
    assert wick_ope(fe("heis", 1), fe("heis", 2), CONV).is_trivial()
    res = wick_ope(fe("heis", 1), fe("heis", 1), CONV)
    sec = res.single()
    assert sec.poles.keys() == {2}
    assert sec.poles[2] == FieldExpr.const(CoeffK.from_int(2))


def test_wick_worked_residue():
    # e1(z) f0(w) with the printed operators: single pole
    # 2 beta1 exp(alpha phi0) gamma0
    e1 = fe("beta", 1) * FieldExpr.exponential(ALPHA)
    f0 = (
        nested_product([gen("beta", 0), gen("gamma", 0), gen("gamma", 0)], CONV)
        .scale(CoeffK.from_int(-1))
        + fe("gamma", 0, 1).scale(CoeffK.k() + CoeffK.from_int(2))
        + (fe("heis", 0) * fe("gamma", 0)).scale(CoeffK.s())
    )
    res = wick_ope(e1, f0, CONV)
    sec = res.single()
    assert sec.epsilon.is_zero()
    expected = (
        fe("beta", 1) * FieldExpr.exponential(ALPHA) * fe("gamma", 0)
    ).scale(CoeffK.from_int(2))
    assert sec.poles == {1: expected}


def test_wick_bilinearity_randomized():
    rng = random.Random(808)

    def rand_expr():
        monos = []
        for _ in range(rng.randint(1, 2)):
            factors = [
                gen(rng.choice(("beta", "gamma", "heis")), rng.randint(0, 1),
                    rng.randint(0, 1))
                for _ in range(rng.randint(0, 2))
            ]
            mom = rng.choice([CoeffK.zero(), ALPHA, CoeffK.zero() - ALPHA])
            coef = CoeffK.from_rat(F(rng.randint(-3, 3), rng.randint(1, 2)))
            if coef.is_zero():
                coef = CoeffK.one()
            monos.append(FieldExpr.term(coef, factors, mom))
        return sum(monos, FieldExpr())

    def eq(r1, r2):
        if set(r1.sectors) != set(r2.sectors):
            return False
        return all(r1.sectors[k].poles == r2.sectors[k].poles for k in r1.sectors)

    lam = CoeffK.from_rat(F(3, 2))
    for _ in range(10):
        A, B, C = rand_expr(), rand_expr(), rand_expr()
        left = wick_ope(A + B.scale(lam), C, CONV)
        right_parts = wick_ope(A, C, CONV)
        right_scaled = wick_ope(B, C, CONV)
        combo = {}
        for res, scale in ((right_parts, CoeffK.one()), (right_scaled, lam)):
            for key, sec in res.sectors.items():
                tgt = combo.setdefault(key, {})
                for d, fld in sec.poles.items():
                    tgt[d] = tgt.get(d, FieldExpr.zero()) + fld.scale(scale)
        for key in set(combo) | set(left.sectors):
            got = left.sectors.get(key)
            want = {d: f for d, f in combo.get(key, {}).items() if not f.is_zero()}
            assert (got.poles if got else {}) == want


def test_wick_derivative_consistency():
    rng = random.Random(321)
    for _ in range(10):
        factors = [
            gen(rng.choice(("beta", "gamma", "heis")), rng.randint(0, 1))
            for _ in range(rng.randint(1, 2))
        ]
        mom = rng.choice([CoeffK.zero(), ALPHA])
        E = FieldExpr.term(CoeffK.one(), factors, mom)
        factors2 = [
            gen(rng.choice(("beta", "gamma", "heis")), rng.randint(0, 1))
            for _ in range(rng.randint(1, 2))
        ]
        mom2 = rng.choice([CoeffK.zero(), CoeffK.zero() - ALPHA])
        Fx = FieldExpr.term(CoeffK.one(), factors2, mom2)

        lhs = wick_ope(E.derivative(), Fx, CONV)
        base = wick_ope(E, Fx, CONV, extra_orders=1)
        expected: dict = {}
        for key, sec in base.sectors.items():
            for d, fld in sec.poles.items():
                scaled = fld.scale(sec.epsilon - CoeffK.from_int(d))
                if scaled.is_zero():
                    continue
                expected.setdefault(key, (sec.epsilon, {}))[1].setdefault(
                    d + 1, FieldExpr.zero()
                )
                expected[key][1][d + 1] = expected[key][1][d + 1] + scaled
        for key in set(expected) | set(lhs.sectors):
            want = {
                d: f
                for d, f in (expected.get(key, (None, {}))[1]).items()
                if d >= 1 and not f.is_zero()
            }
            got = lhs.sectors.get(key)
            assert (got.poles if got else {}) == want


def test_exponent_additivity():
    a1 = ALPHA
    a2 = CoeffK.from_int(2) * ALPHA
    b = CoeffK.zero() - ALPHA
    E = FieldExpr.exponential(a1) * FieldExpr.exponential(a2)
    res = wick_ope(E, FieldExpr.exponential(b), CONV, extra_orders=1)
    sec = res.single()
    assert sec.epsilon == (a1 + a2) * b
    assert sec.epsilon == a1 * b + a2 * b


def test_heisenberg_double_pole_shape():
    for l in (0, 1):
        res = wick_ope(fe("heis", l), fe("heis", l), CONV)
        sec = res.single()
        assert set(sec.poles) == {2}


def test_charge_of_examples():
    s = CoeffK.s()
    h0 = (
        nested_product([gen("beta", 0), gen("gamma", 0)], CONV).scale(CoeffK.from_int(-2))
        + fe("heis", 0).scale(s)
    )
    e1 = fe("beta", 1) * FieldExpr.exponential(ALPHA)
    assert charge_of(h0, e1, CONV) == CoeffK.from_int(2)
    assert charge_of(h0, fe("heis", 1), CONV) == CoeffK.zero()
    # not an eigenfield: mixed charges
    mixed = e1 + fe("beta", 1)
    assert charge_of(h0, mixed, CONV) is None


def test_is_laurent_cases():
    from secalg.ope import OPEResult, OPESector

    eps = CoeffK.zero() - CoeffK.one() / CoeffK.k()
    res = OPEResult([OPESector(eps, {0: FieldExpr.const(CoeffK.one())})])
    assert is_laurent(res) == ("branch_cut",)
    assert is_laurent(res, F(1, 2)) == ("integer_pole", 2)
    assert is_laurent(res, F(-1)) == ("regular",)
    plain = OPEResult([OPESector(CoeffK.zero(), {1: FieldExpr.const(CoeffK.one())})])
    assert is_laurent(plain) == ("laurent",)


def test_ope_result_refuses_repeated_epsilon():
    from secalg.ope import OPEResult, OPESector

    one = {1: FieldExpr.const(CoeffK.one())}
    with pytest.raises(ValueError, match="two sectors"):
        OPEResult([OPESector(CoeffK.zero(), one), OPESector(CoeffK.zero(), one)])


def test_sector_locality():
    # disjoint sectors, no exponential crossing sector-0 content: regular
    E = fe("beta", 1) * fe("gamma", 1)
    Fx = fe("beta", 2) * fe("heis", 2)
    assert wick_ope(E, Fx, CONV).is_trivial()
    # an exponential on one side against sector-0 content on the other is
    # exactly the crossing the locality statement excludes
    across = wick_ope(FieldExpr.exponential(ALPHA), fe("heis", 0), CONV)
    assert not across.is_trivial()


def test_negative_extra_orders_rejected():
    with pytest.raises(ValueError):
        wick_ope(fe("beta", 0), fe("gamma", 0), CONV, extra_orders=-1)


_gens = st.builds(gen, st.sampled_from(("beta", "gamma", "heis")),
                  st.integers(0, 3), st.integers(0, 2))
_monos = st.builds(
    FieldExpr.term,
    st.builds(lambda n, d: CoeffK.from_rat(F(n, d)),
              st.integers(-3, 3).filter(bool), st.integers(1, 3)),
    st.lists(_gens, max_size=2),
    st.sampled_from((CoeffK.zero(), ALPHA, CoeffK.zero() - ALPHA)),
)
_exprs = st.lists(_monos, min_size=1, max_size=3).map(lambda ts: sum(ts, FieldExpr()))
# injective renamings of the nonzero sectors 1..3, monotone or not; 0 fixed
_renamings = st.permutations(range(1, 7)).map(
    lambda p: {0: 0, 1: p[0], 2: p[1], 3: p[2]})


def _sectors(fe_):
    return {g.sector for factors, _mom in fe_.terms for g in factors}


def _poles(res, sigma=None):
    """Every nonzero (epsilon, order) coefficient, for exact comparison; with
    sigma, each field renamed by it."""
    return {(k, d): fld if sigma is None else fld.renamed(sigma)
            for k, sec in res.sectors.items() for d, fld in sec.poles.items()}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(E=_exprs, Fx=_exprs, sigma=_renamings)
def test_wick_commutes_with_sector_renaming(E, Fx, sigma):
    sE, sF = E.renamed(sigma), Fx.renamed(sigma)
    assert _sectors(sE) == {sigma[l] for l in _sectors(E)}
    for conv in ALL_CONFIGS:
        for extra in (0, 1):
            want = wick_ope(E, Fx, conv, extra)
            assert _poles(wick_ope(sE, sF, conv, extra)) == _poles(want, sigma)


def _clean(fe_):
    """Every coefficient of the term map nonzero, every factor tuple sorted."""
    return all(not v.is_zero() and list(fs) == sorted(fs, key=FieldGen.sort_key)
               for (fs, _mom), v in fe_.terms.items())


# coefficient 0 included, so that zero terms and cancellations are drawn
_any_monos = st.tuples(
    st.builds(CoeffK.from_int, st.integers(-2, 2)),
    st.lists(_gens, max_size=3).map(lambda fs: tuple(sorted(fs, key=FieldGen.sort_key))),
    st.sampled_from((CoeffK.zero(), ALPHA, CoeffK.zero() - ALPHA)),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(monos=st.lists(_any_monos, max_size=5), Fx=_exprs)
def test_term_map_invariants(monos, Fx):
    E = sum((FieldExpr.term(*t) for t in monos), FieldExpr())
    assert E == sum((FieldExpr.term(*t) for t in reversed(monos)), FieldExpr())
    assert (E + Fx) - Fx == E
    left = ConventionConfig(nesting="left")
    results = [E, E + Fx, E - E, -E, E * Fx, E.derivative(), E.scale(ALPHA),
               nested_product([g for _c, fs, _m in monos[:2] for g in fs], left)]
    results += [fld for t in monos for fld in taylor_shift(FieldExpr.term(*t), 2).values()]
    results += [fld for sec in wick_ope(E, Fx, CONV, 1).sectors.values()
                for fld in sec.poles.values()]
    assert all(_clean(x) for x in results)


def _wick_reference(E, Fx, conv, extra_orders=0):
    """The Wick sum by brute force: every assignment of each z-factor (left
    alone, one contractible w-factor or the w-exponential), those reusing a
    w-factor rejected, then every subset of the free w-factors that can meet
    the z-exponential; each survivor is Taylor-shifted on its own."""
    sectors = {}
    d_min = 1 - extra_orders
    for fE, a, cE in E.monomials():
        for fF, b, cF in Fx.monomials():
            eps = a * b
            poles = sectors.setdefault(eps, (eps, {}))[1]
            merged = a + b
            zf, wf = list(fE), list(fF)
            z_opts = []
            for g in zf:
                opts = [None]
                for jdx, h in enumerate(wf):
                    pr = contract_pair(g, h, conv)
                    if pr is not None:
                        opts.append(("w", jdx, pr))
                pe = contract_exp(g, b, heis_at="z")
                if pe is not None:
                    opts.append(("exp", None, pe))
                z_opts.append(opts)
            w_exp = [(j, contract_exp(h, a, heis_at="w")) for j, h in enumerate(wf)]
            w_exp = [(j, pr) for j, pr in w_exp if pr is not None]
            for choice in itertools.product(*z_opts):
                used_w = [opt[1] for opt in choice if opt is not None and opt[0] == "w"]
                if len(set(used_w)) < len(used_w):
                    continue
                order = sum(opt[2][0] for opt in choice if opt is not None)
                coef = cE * cF
                for opt in choice:
                    if opt is not None:
                        coef = coef * opt[2][1]
                surv_z = [g for g, opt in zip(zf, choice) if opt is None]
                free = [(j, pr) for j, pr in w_exp if j not in used_w]
                for subset in itertools.chain.from_iterable(
                        itertools.combinations(free, r) for r in range(len(free) + 1)):
                    D, c = order, coef
                    used = set(used_w)
                    for j, (q, pc) in subset:
                        used.add(j)
                        D, c = D + q, c * pc
                    if D < d_min:
                        continue
                    surv_w = tuple(h for j, h in enumerate(wf) if j not in used)
                    for n, fld in taylor_shift(FieldExpr.term(c, surv_z, a), D - d_min).items():
                        poles.setdefault(D - n, []).extend(
                            FieldExpr.term(v, fs + surv_w, merged)
                            for fs, _m, v in fld.monomials())
    return OPEResult(
        OPESector(eps, {d: sum(monos, FieldExpr()) for d, monos in poles.items()})
        for eps, poles in sectors.values())


_ref_monos = st.builds(
    FieldExpr.term,
    st.builds(lambda n, d: CoeffK.from_rat(F(n, d)),
              st.integers(-3, 3).filter(bool), st.integers(1, 3)),
    st.lists(st.builds(gen, st.sampled_from(("beta", "gamma", "heis")),
                       st.integers(0, 1), st.integers(0, 1)), max_size=3),
    st.sampled_from((CoeffK.zero(), ALPHA, CoeffK.zero() - ALPHA, CoeffK.c())),
)
_ref_exprs = st.lists(_ref_monos, min_size=1, max_size=2).map(lambda ts: sum(ts, FieldExpr()))
_B0 = gen("heis", 0)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(E=_ref_exprs, Fx=_ref_exprs)
# repeated b[0] factors on both sides, each side carrying an exponential
@example(E=FieldExpr.term(CoeffK.one(), [_B0, _B0, gen("beta", 1)], ALPHA),
         Fx=FieldExpr.term(CoeffK.one(), [_B0, _B0, gen("gamma", 1)], CoeffK.c()))
def test_wick_matches_reference_enumeration(E, Fx):
    for conv in ALL_CONFIGS:
        for extra in (0, 1):
            assert _poles(wick_ope(E, Fx, conv, extra)) == _poles(
                _wick_reference(E, Fx, conv, extra))


def _left_nested_reference(factors, conv):
    """The left-nested product by a direct fold: appending C(w) to the
    point-split composite :A1..An:(x) adds, per inner factor Ai contracting
    C with propagator coef/(x-w)^q, coef times the q-th Taylor coefficient
    of the product of the other inner factors."""
    if conv.nesting == "right" or len(factors) < 3:
        return FieldExpr.term(CoeffK.one(), factors)
    acc = FieldExpr.term(CoeffK.one(), factors[:1])
    for g in factors[1:]:
        flat = FieldExpr()
        for fs, mom, coef in acc.monomials():
            flat = flat + FieldExpr.term(coef, fs + (g,), mom)
            for idx, inner in enumerate(fs):
                pr = contract_pair(inner, g, conv)
                if pr is not None:
                    q, pc = pr
                    rest = FieldExpr.term(coef * pc, fs[:idx] + fs[idx + 1:], mom)
                    flat = flat + taylor_shift(rest, q)[q]
        acc = flat
    return acc


_nest_gens = st.builds(gen, st.sampled_from(KINDS), st.integers(0, 2), st.integers(0, 2))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(factors=st.lists(_nest_gens, min_size=3, max_size=4))
@example(factors=[gen("beta", 0), gen("gamma", 0), gen("gamma", 0)])
@example(factors=[gen("heis", 1, 2), gen("beta", 1), gen("heis", 1, 1), gen("gamma", 1, 2)])
def test_nested_product_matches_left_nested_reference(factors):
    for conv in ALL_CONFIGS:
        assert nested_product(factors, conv) == _left_nested_reference(factors, conv)
