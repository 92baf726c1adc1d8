import hashlib
import itertools
import json

import pytest

from secalg import uce
from secalg.coeffs import PolyC
from secalg.kahler import DiffClass, ring_table
from secalg.ring import RingElem, RingParams, p_laurent
from secalg.uce import (
    CurrentElem,
    SL2Elem,
    TauCache,
    UCEElem,
    formula_vs_oracle,
    killing,
    lie_axiom_check,
    sl2_bracket,
    tau_oracle,
    uce_bracket_formula,
    uce_bracket_oracle,
)

P32 = RingParams(3, 2)


def cur(gen, t, l, params=P32):
    return UCEElem(CurrentElem.monomial(params, gen, t, l))


def test_sl2_bracket_and_killing():
    e, h, f = (SL2Elem.gen(g) for g in "ehf")
    assert sl2_bracket(e, f) == h
    assert sl2_bracket(h, e).e_coef == PolyC.const(2)
    assert sl2_bracket(h, f).f_coef == PolyC.const(-2)
    assert sl2_bracket(h, h) == SL2Elem(PolyC.zero(), PolyC.zero(), PolyC.zero())
    assert sl2_bracket(e, e).h_coef.is_zero()
    assert killing(e, f) == PolyC.const(1) and killing(f, e) == PolyC.const(1)
    assert killing(h, h) == PolyC.const(2)
    assert killing(e, h).is_zero()


def test_oracle_bracket_loop_cocycle():
    # [e (x) t, f (x) t^-1] = h (x) 1 - w0
    b = uce_bracket_oracle(cur("e", 1, 0), cur("f", -1, 0))
    assert b.current == CurrentElem.monomial(P32, "h", 0, 0)
    assert b.central == DiffClass(P32, omega0=PolyC.const(-1))
    # [e (x) 1, f (x) 1] = h (x) 1
    b = uce_bracket_oracle(cur("e", 0, 0), cur("f", 0, 0))
    assert b.current == CurrentElem.monomial(P32, "h", 0, 0)
    assert b.central.is_zero()
    # sector-0 restriction: central of [e x t^i, f x t^j] = j delta_{i+j,0} w0
    for i in range(-3, 4):
        for j in range(-3, 4):
            b = uce_bracket_oracle(cur("e", i, 0), cur("f", j, 0))
            expected = (
                DiffClass(P32, omega0=PolyC.const(j)) if i + j == 0
                else DiffClass.zero(P32)
            )
            assert b.central == expected


def test_oracle_bracket_type_ii_pair():
    # [e (x) u, f (x) u^2] = h (x) p(t); the central class (2/3) d(p) is exact
    b = uce_bracket_oracle(cur("e", 0, 1), cur("f", 0, 2))
    assert b.current == CurrentElem(P32, {"h": RingElem(P32, {0: p_laurent(P32)})})
    assert b.central.is_zero()


def test_central_elements_are_central():
    center = UCEElem(
        CurrentElem.zero(P32), DiffClass(P32, omega0=PolyC.const(1),
                                         odd={(1, 2): PolyC.c()})
    )
    x = cur("e", 2, 1)
    assert uce_bracket_oracle(x, center).is_zero()
    assert uce_bracket_oracle(center, x).is_zero()


def test_formula_type_i_example_pair():
    """The printed Type I central coefficient j disagrees with the oracle
    on the worked pair i=0, l1=l2=1, j=2: the formula yields twice the
    oracle class (documented audit finding)."""
    A, B = cur("e", 0, 1), cur("f", 2, 1)
    formula = uce_bracket_formula(A, B)
    oracle = uce_bracket_oracle(A, B)
    assert formula.current == oracle.current
    assert formula.central == oracle.central.scale(PolyC.const(2))
    assert formula.central != oracle.central


def test_formula_type_ii_example_pair():
    # [e x t u, f x t u^2]: printed central j(i+j) w0 = 2 w0; oracle gives 0
    A, B = cur("e", 1, 1), cur("f", 1, 2)
    formula = uce_bracket_formula(A, B)
    oracle = uce_bracket_oracle(A, B)
    assert formula.central == DiffClass(P32, omega0=PolyC.const(2))
    assert oracle.central.is_zero()
    assert formula.current == oracle.current


def test_formula_vs_oracle_pass_pattern():
    rep = formula_vs_oracle(P32, exp_bound=2)
    assert all(e["current_match"] for e in rep)
    for e in rep:
        p = e["pair"]
        if e["type"] == "I" and p["l2"] * (p["i"] + p["j"]) == 0:
            assert e["central_match"], e


def test_lie_axioms_small_grid():
    rep = lie_axiom_check(P32, exp_bound=2, direct_exp_bound=1)
    assert rep["ok"], {k: v for k, v in rep.items() if v and k != "counts"}
    assert rep["counts"]["antisymmetry_pairs"] > 0
    assert rep["counts"]["jacobi_direct_triples"] > 0


def _naive_pair_checks(params, exp_bound, direct_exp_bound):
    """Antisymmetry and direct Jacobi witnesses with every bracket built afresh."""
    elems = [(g, i, l) for g in ("e", "h", "f") for l in range(params.m)
             for i in range(-exp_bound, exp_bound + 1)]
    anti = [{"a": a, "b": b} for ia, a in enumerate(elems) for b in elems[ia:]
            if not (uce_bracket_oracle(cur(*a, params), cur(*b, params))
                    + uce_bracket_oracle(cur(*b, params), cur(*a, params))).is_zero()]
    sub = [e for e in elems if abs(e[1]) <= direct_exp_bound]
    jac = []
    for a, b, c in itertools.combinations_with_replacement(sub, 3):
        A, B, C = cur(*a, params), cur(*b, params), cur(*c, params)
        s = uce_bracket_oracle(uce_bracket_oracle(A, B), C)
        s = s + uce_bracket_oracle(uce_bracket_oracle(B, C), A)
        s = s + uce_bracket_oracle(uce_bracket_oracle(C, A), B)
        if not s.is_zero():
            jac.append({"a": a, "b": b, "c": c})
    return anti, jac


def _digest(rep):
    return hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()


def test_lie_check_bracket_reuse_hides_no_failure(monkeypatch):
    """A wrong [h, e] shows up in full, though inner brackets are reused."""
    monkeypatch.setitem(uce._BRACKET, ("h", "e"), (("e", 3),))
    rep = lie_axiom_check(P32, exp_bound=1, direct_exp_bound=1)
    assert not rep["ok"]
    assert len(rep["antisymmetry_failures"]) == 81
    assert len(rep["jacobi_direct_failures"]) == 405
    anti, jac = _naive_pair_checks(P32, 1, 1)
    assert rep["antisymmetry_failures"] == anti and rep["jacobi_direct_failures"] == jac
    # the report of the version that built every bracket afresh
    assert _digest(rep) == "2c3587120cc8b50795a047ebb63c5d4f559956047d0593abff3b938053d2c015"


@pytest.mark.parametrize("m,r,digest", [
    (2, 2, "a7bf8505163abe09c4535dfcf3efcf00b1fb4499b2246a6cc4c4812e59282778"),
    (3, 3, "ccf704efb33ca317134cb798eeed63788841e1b00fc7657e1980d9390542dcb0"),
])
def test_lie_check_report_unchanged(m, r, digest):
    rep = lie_axiom_check(RingParams(m, r), exp_bound=1, direct_exp_bound=1)
    assert rep["ok"] and _digest(rep) == digest


@pytest.mark.parametrize("check,kw", [
    (lie_axiom_check, {"exp_bound": -1}),
    (lie_axiom_check, {"exp_bound": 1, "direct_exp_bound": -1}),
    (formula_vs_oracle, {"exp_bound": -1}),
])
def test_empty_grids_are_rejected(check, kw):
    """An empty grid checks nothing, so it must not report success."""
    with pytest.raises(ValueError):
        check(P32, **kw)


@pytest.mark.parametrize("m,r", [(2, 2), (3, 2), (3, 3)])
def test_tau_cache_matches_tau_oracle(m, r):
    """The memoized cocycle over the ring table equals the oracle."""
    params = RingParams(m, r)
    cache = TauCache(ring_table(params))
    monos = [RingElem.monomial(params, PolyC.const(1), i, l)
             for l in range(m) for i in range(-2, 3)]
    for f in monos:
        for g in monos:
            assert cache.tau(f, g) == tau_oracle(f, g), (f, g)
