import hashlib
import itertools
import json
import sys
import threading
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secalg import kahler, uce
from secalg.cli import main
from secalg.coeffs import PolyC
from secalg.kahler import DiffClass, cocycle_terms, reduce_monomial_class, ring_table
from secalg.ring import RingElem, RingParams, p_laurent, ring_mul
from secalg.uce import (
    CurrentElem,
    TauCache,
    UCEElem,
    formula_vs_oracle,
    killing,
    lie_axiom_check,
    tau_oracle,
    uce_bracket_formula,
    uce_bracket_oracle,
)

P32 = RingParams(3, 2)


def cur(gen, t, l, params=P32):
    return UCEElem(CurrentElem.monomial(params, gen, t, l))


def test_sl2_bracket_and_killing():
    """The generator tables are sl2 in the basis e, h, f, with <e, f> = 1, <h, h> = 2."""
    assert uce._BRACKET["e", "f"] == (("h", 1),)
    assert uce._BRACKET["h", "e"] == (("e", 2),)
    assert uce._BRACKET["h", "f"] == (("f", -2),)
    for x, y in itertools.product("ehf", repeat=2):
        assert uce._BRACKET[y, x] == tuple((g, -c) for g, c in uce._BRACKET[x, y])
        assert killing(x, y) == killing(y, x)
    assert all(uce._BRACKET[g, g] == () for g in "ehf")
    assert killing("e", "f") == 1 and killing("h", "h") == 2
    assert killing("e", "h") == killing("e", "e") == 0
    assert uce._sl2_failures() == ((), ())


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


def _closed_form(params, i, q1, j, q2):
    """((j*q1 - i*q2)/(q1+q2)) class(t^(i+j-1) u^(q1+q2) dt), j class(t^(i+j-1) dt) at
    q1 = q2 = 0, by the oracle reduction of the expanded monomial."""
    coef = Fraction(j * q1 - i * q2, q1 + q2) if q1 + q2 else j
    return reduce_monomial_class(params, i + j - 1, q1 + q2).scale(PolyC.const(coef))


def test_formula_vs_oracle_pass_pattern():
    """A Type I pair matches exactly when l2*(i+j) = 0, and every oracle central part
    is the closed form."""
    rep = formula_vs_oracle(P32, exp_bound=2)
    assert all(e["current_match"] for e in rep)
    for e in rep:
        i, l1, j, l2 = (e["pair"][k] for k in ("i", "l1", "j", "l2"))
        if e["type"] == "I":
            assert e["central_match"] == (l2 * (i + j) == 0), e
        assert e["oracle_central"] == _closed_form(P32, i, l1, j, l2).to_json_dict(), e


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


@pytest.fixture
def fresh_sl2_pass():
    """The once-per-process sl2 pass is cleared before and after the test, so a
    test that patches the tables reads its own pass and leaves none behind."""
    uce._sl2_failures.cache_clear()
    yield
    uce._sl2_failures.cache_clear()


def test_lie_check_bracket_reuse_hides_no_failure(monkeypatch, fresh_sl2_pass):
    """A wrong [h, e] shows up in full, though inner brackets are reused, and in
    the sl2 checks, which read the same table."""
    monkeypatch.setitem(uce._BRACKET, ("h", "e"), (("e", 3),))
    rep = lie_axiom_check(P32, exp_bound=1, direct_exp_bound=1)
    assert not rep["ok"]
    assert len(rep["antisymmetry_failures"]) == 81
    assert len(rep["jacobi_direct_failures"]) == 405
    assert len(rep["sl2_jacobi_failures"]) == 6
    assert len(rep["killing_invariance_failures"]) == 2
    anti, jac = _naive_pair_checks(P32, 1, 1)
    assert rep["antisymmetry_failures"] == anti and rep["jacobi_direct_failures"] == jac
    # the report of the version that built every bracket afresh
    assert _digest(rep) == "769f9a021754b0dfc720855518984f92a0bcc10813ccf6f5dea591ef10e287fb"


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


def _bracket_reference(a, b):
    """The oracle bracket summed as objects: a fresh CurrentElem and a fresh
    DiffClass per generator pair, tau from the independent ``tau_oracle``."""
    params = a.params
    current, central = CurrentElem.zero(params), DiffClass.zero(params)
    for ga, fa in a.current.parts.items():
        for gb, fb in b.current.parts.items():
            for gen, coef in uce._BRACKET[(ga, gb)]:
                prod = ring_mul(fa, fb)
                scaled = {l: {e: v * coef for e, v in lt.items()} for l, lt in prod.sectors.items()}
                current = current + CurrentElem(params, {gen: RingElem(params, scaled)})
            kap = uce._KILLING.get((ga, gb))
            if kap:
                central = central + tau_oracle(fa, fb).scale(PolyC.const(kap))
    return UCEElem(current, central)


GRID = [RingParams(m, r) for m in (2, 3, 4) for r in (2, 3)]
Q_C = st.builds(lambda a0, a1: PolyC({0: a0, 1: a1}),
                st.fractions(-3, 3, max_denominator=4), st.fractions(-2, 2, max_denominator=3))


def ring_elems(params):
    """Sums of two to four (a0 + a1*c) t^i u^l, one of them in sector m - 1."""
    m = params.m
    term = st.tuples(Q_C, st.integers(-2, 2), st.integers(0, m - 1))
    return st.tuples(st.lists(term, min_size=1, max_size=3), term.map(lambda x: (*x[:2], m - 1))).map(
        lambda tt: sum((RingElem.monomial(params, v, t, u) for v, t, u in tt[0] + [tt[1]]),
                       RingElem.zero(params)))


def uce_elems(params):
    """Elements on one to three generators, with a central part that must not matter."""
    central = st.builds(lambda w, v: DiffClass(params, omega0=w, odd={(params.m - 1, 1): v}), Q_C, Q_C)
    gens = st.lists(st.sampled_from(uce.GENS), min_size=1, max_size=3, unique=True)
    return st.builds(
        lambda parts, cen: UCEElem(CurrentElem(params, parts), cen),
        gens.flatmap(lambda gs: st.fixed_dictionaries({g: ring_elems(params) for g in gs})),
        central)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_bracket_matches_object_reference(data):
    """The term-map bracket equals the object-summing one with tau from
    ``tau_oracle``, and the per-ring tau memo equals ``tau_oracle``."""
    params = data.draw(st.sampled_from(GRID))
    a, b = data.draw(uce_elems(params)), data.draw(uce_elems(params))
    assert uce_bracket_oracle(a, b) == _bracket_reference(a, b)
    assert uce_bracket_oracle(b, a) == _bracket_reference(b, a)
    for f in a.current.parts.values():
        for g in b.current.parts.values():
            assert uce.tau_cache(params).tau(f, g) == tau_oracle(f, g)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_tau_closed_form_matches_oracle(data):
    """``tau_oracle`` on t^i u^q1, t^j u^q2 is the closed form, also for unexpanded u^q
    with q >= m; below m the tau memo over ``cocycle_terms`` gives it too."""
    params = data.draw(st.sampled_from(GRID))
    m = params.m
    i, j = data.draw(st.integers(-6, 6)), data.draw(st.integers(-6, 6))
    q1, q2 = (data.draw(st.integers(0, m - 1) | st.integers(m, 3 * m)) for _ in range(2))
    one = PolyC.const(1)
    expected = _closed_form(params, i, q1, j, q2)
    assert tau_oracle(RingElem.monomial(params, one, i, q1),
                      RingElem.monomial(params, one, j, q2)) == expected
    if q1 < m and q2 < m:
        assert ring_table(params).reduce_terms(cocycle_terms(params, i, q1, j, q2)) == expected
        assert TauCache(ring_table(params)).tau_monomial(i, q1, j, q2) == expected


def test_tau_and_reach_check_build_no_form(monkeypatch, capsys):
    """A deterministic guard on the closed form: with ``cocycle_form`` and ``eliminate_du``
    raising as bound in ``uce`` and ``kahler``, a cold tau memo answers over a monomial
    grid, as ``tau_oracle`` did beforehand, and far bracket operands are refused with
    the same messages."""
    monos = [RingElem.monomial(P32, PolyC.const(1), i, l) for l in range(3) for i in range(-3, 4)]
    expected = [tau_oracle(f, g) for f in monos for g in monos]

    def no_form(*_args):
        raise AssertionError("a form was built")

    for mod, name in ((uce, "cocycle_form"), (kahler, "cocycle_form"), (kahler, "eliminate_du")):
        monkeypatch.setattr(mod, name, no_form)
    cold = TauCache(ring_table(P32))
    assert [cold.tau(f, g) for f in monos for g in monos] == expected
    bracket = ["bracket", "--m", "3", "--r", "2", "--x", "e", "--y", "f", "--b", "u", "--a"]
    assert main(bracket + ["u^3000000000"]) == 2
    assert main(bracket + ["u^1200"]) == 2
    assert capsys.readouterr().err == (
        "error: t exponent 3999999999 is beyond kahler.MAX_REACH (1000)\n"
        "error: t exponent 1599 is beyond kahler.MAX_REACH (1000)\n")


@pytest.mark.parametrize("r", [2, 3])
def test_lie_check_benchmark_size_pinned(r):
    """The reports at the benchmark's size, pinned before the term-map pass."""
    rep = lie_axiom_check(RingParams(3, r), exp_bound=0, direct_exp_bound=0)
    assert rep["ok"]
    assert _digest(rep) == "884f6725099dde5930ed91f9253f8baed3be5df66c07b5064f8e8617eb1821a8"


@pytest.mark.parametrize("argv, digest", [
    (["bracket-audit", "--m", "3", "--r", "2", "--expbound", "1"],
     "dec4dfbe51f569b8346be6a9105d32544a8c6e574ed6e703eb42401f462c5db8"),
    (["bracket-audit", "--m", "2", "--r", "3", "--expbound", "2"],
     "60c6176c2c86928f93b113cc95e387e9f45c91f3c49a092716e27e8fbba3b7a6"),
    # sectors that wrap (l1 + l2 >= m) and coefficients in c
    (["bracket", "--m", "3", "--r", "2", "--x", "e", "--a", "(2-c)*t^-1*u^2 + 3/4*t^2*u",
      "--y", "f", "--b", "(1/3+c)*t*u^2 - 5*t^-3*u^2 + c*u"],
     "b5e650e808c98df13e5a78f807c4dcc1958e56b2deac0d535785ff143dd328f4"),
    (["bracket", "--m", "4", "--r", "3", "--x", "h", "--a", "(c-1/2)*t^-2*u^3 + 7/5*t*u^2",
      "--y", "h", "--b", "(2+3*c)*t^4*u^3 - c*t^-1*u"],
     "e0a6fd5eaeae6181f611fba64059d649c27158cc02b08e798a07be80d3d93473"),
])
def test_bracket_outputs_pinned(argv, digest, capsys):
    """CLI outputs pinned before the term-map pass."""
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_warm_lie_check_wraps_few_polyc(monkeypatch):
    """A deterministic guard on the scalar fast paths of ``PolyC``: count the
    ``PolyC._of`` wraps of one warm ``lie_axiom_check(RingParams(3, 2), 0, 0)``
    (a first call fills the tau memo and the table; the second is counted).
    Measured this way, the products by one and the sums of constants made 2,298
    wraps before the fast paths and make 809 with them; the bound leaves a
    margin of about a quarter above 809 and fails the slow paths by far."""
    lie_axiom_check(P32, exp_bound=0, direct_exp_bound=0)
    wraps, of = [0], PolyC._of

    def counted(*args):
        wraps[0] += 1
        return of(*args)

    monkeypatch.setattr(PolyC, "_of", staticmethod(counted))
    assert lie_axiom_check(P32, exp_bound=0, direct_exp_bound=0)["ok"]
    assert wraps[0] <= 1000


def test_lie_check_stable_across_calls():
    """The per-process memos (tau per ring, the sl2 pass) change no report:
    the first call fills them, the second reads them."""
    uce.tau_cache.cache_clear()
    uce._sl2_failures.cache_clear()
    params = RingParams(3, 3)
    first = lie_axiom_check(params, exp_bound=1, direct_exp_bound=1)
    assert first["ok"] and lie_axiom_check(params, exp_bound=1, direct_exp_bound=1) == first


def test_tau_memo_shared_safely_across_threads():
    """Threads filling one ring's tau memo (and growing its table) at once get
    the brackets a single thread gets."""
    params = RingParams(3, 3)
    pairs = [(cur("e", i, l1, params), cur("f", j, l2, params))
             for i in (-5, 0, 4) for j in (-3, 6) for l1 in range(3) for l2 in range(3)]
    serial = [uce_bracket_oracle(a, b) for a, b in pairs]
    results: dict = {}
    errors: list = []
    barrier = threading.Barrier(4)

    def work(k):
        try:
            barrier.wait(timeout=60)
            for idx in (range(len(pairs)) if k % 2 else reversed(range(len(pairs)))):
                results[k, idx] = uce_bracket_oracle(*pairs[idx])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.dict(kahler._TABLES, clear=True):
            uce.tau_cache.cache_clear()
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert all(results[k, idx] == serial[idx] for k in range(4) for idx in range(len(pairs)))
    finally:
        sys.setswitchinterval(interval)
        uce.tau_cache.cache_clear()
