"""Acceptance suite: one test per criterion, every check exact (tolerance 0).

Each test prints one ``ACCEPTANCE <nn> <name>: PASS/FAIL`` line.  Criteria
whose of the stated identities fail exact verification are implemented verbatim
anyway; their tests fail with the computed witnesses attached.  The
documented findings behind those failures are pinned (and kept green) in the
module test files.
"""

import random
from fractions import Fraction as F

import pytest

from secalg.cli import parse_field_expr
from secalg.coeffs import CoeffK, PolyC
from secalg.families import (
    INDEX_RECONCILIATION_NOTE,
    FamilySpec,
    eval_family,
    rescaling_check,
)
from secalg.kahler import DiffForm, basis_dim, differential, reduce_oracle
from secalg.ring import RingElem, RingParams, ring_mul
from secalg.uce import formula_vs_oracle, lie_axiom_check
from secalg.wakimoto import (
    branch_cut_check,
    build_operators,
    calibrate_conventions,
    charge_residue_check,
    critical_level,
    critical_level_exponent_check,
    verify_charge_relations,
    working_config,
)

P32 = RingParams(3, 2)


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    return ok


@pytest.fixture(scope="module")
def conv():
    config, _status = working_config()
    return config


@pytest.fixture(scope="module")
def ops_by_m(conv):
    return {m: build_operators(m, conv) for m in (2, 3, 4)}


def test_criterion_01_table_reproduction():
    def poly(d):
        return PolyC({e: F(*v) if isinstance(v, tuple) else F(v) for e, v in d.items()})

    s12 = FamilySpec(l=1, j=2, m_prime=F(3), r=2)
    s22 = FamilySpec(l=2, j=2, m_prime=F(3, 2), r=2)
    s11 = FamilySpec(l=1, j=1, m_prime=F(3), r=2)
    s13 = FamilySpec(l=1, j=3, m_prime=F(3), r=2)
    even_ok = (
        eval_family(s12, 0) == poly({1: 1})
        and eval_family(s12, 2) == poly({2: (8, 5), 0: (-3, 5)})
        and eval_family(s12, 4) == poly({3: (14, 5), 1: (-9, 5)})
        and eval_family(s22, 2) == poly({2: (10, 7), 0: (-3, 7)})
    )
    odd_ok = (
        eval_family(s11, 1) == poly({1: (10, 7)})
        and eval_family(s11, 3) == poly({2: (220, 91), 0: (-63, 91)})
        and eval_family(s13, 1) == poly({0: (-3, 7)})
        and eval_family(s13, 3) == poly({1: (-66, 91)})
    )
    note_ok = "odd-j" in INDEX_RECONCILIATION_NOTE
    assert report(
        1,
        "table reproduction",
        even_ok and odd_ok and note_ok,
        f"even-j at printed indices: {even_ok}; odd-j at k=1,3: {odd_ok}; "
        f"reconciliation note emitted: {note_ok}",
    )


def test_criterion_02_rescaling():
    failures = []
    checked = 0
    for r in (2, 3):
        for m in range(2, 7):
            rep = rescaling_check(m, r, k_max=40)
            checked += len(rep)
            failures.extend(e for e in rep if not e["equal"])
    assert report(
        2, "rescaling identity", not failures,
        f"{checked} (l, j, k) triples checked exactly; failures: {len(failures)}",
    )


def test_criterion_03_basis_dimension():
    dims = {
        (2, 2): basis_dim(RingParams(2, 2)),
        (3, 2): basis_dim(RingParams(3, 2)),
        (2, 3): basis_dim(RingParams(2, 3)),
        (3, 3): basis_dim(RingParams(3, 3)),
    }
    ok = all(d == 2 * r * (m - 1) + 1 for (m, r), d in dims.items())
    assert report(3, "basis dimension", ok, f"computed {dims}")


def test_criterion_04_lie_axioms():
    rep = lie_axiom_check(P32, exp_bound=4, direct_exp_bound=1)
    failures = {
        k: v for k, v in rep.items() if k.endswith("failures") and v
    }
    assert report(
        4, "Lie axioms (exhaustive grid)", rep["ok"],
        f"counts {rep['counts']}; failures {failures or 'none'}",
    )


@pytest.fixture(scope="module")
def bracket_audit():
    return formula_vs_oracle(P32, exp_bound=3)


def test_criterion_05a_bracket_audit_completes(bracket_audit):
    by_type = {}
    for e in bracket_audit:
        st = by_type.setdefault(e["type"], {"pass": 0, "fail": 0})
        st["pass" if e["match"] else "fail"] += 1
    type_ii_reported = all(
        ("formula_central" in e and "oracle_central" in e)
        for e in bracket_audit
        if e["type"] == "II" and not e["match"]
    )
    ok = len(bracket_audit) == 392 and type_ii_reported
    assert report(
        5, "bracket audit completes (matrix emitted)", ok,
        f"pairs: {len(bracket_audit)}; per-type: {by_type}; "
        "Type II discrepancies carry both central vectors",
    )


def test_criterion_05b_type_I_pairs_pass(bracket_audit):
    fails = [
        e["pair"] for e in bracket_audit if e["type"] == "I" and not e["match"]
    ]
    ok = not fails
    assert report(
        5, "Type I formula matches oracle", ok,
        f"{len(fails)} of "
        f"{sum(1 for e in bracket_audit if e['type'] == 'I')} Type I pairs "
        f"disagree with the first-principles bracket; the stated central "
        f"coefficient j differs from the computed (j*l1 - i*l2)/(l1+l2); "
        f"first failures: {fails[:3]}",
    )


def test_criterion_06_calibration():
    res = calibrate_conventions()
    ok = len(res.passing) == 1
    anomalies = {
        (d["config"]["sigma_rev"], d["config"]["nesting"]): [
            name for name, good in d["checks"].items() if not good
        ]
        for d in res.per_config
    }
    assert report(
        6, "unique convention satisfies the even-sector identities", ok,
        f"fully passing configs: {len(res.passing)}; per-config failing "
        f"checks: {anomalies}; residue-level identities hold uniquely under "
        f"sigma_rev=-1 (both nestings), but e0 f0 has double pole k+2 (not k) "
        f"and h0 f0 has a spurious double pole",
    )


def test_criterion_07a_e_charges(ops_by_m, conv):
    bad = []
    for m, ops in ops_by_m.items():
        rep = verify_charge_relations(ops)
        for entry in rep["entries"]:
            if not entry["e_ok"]:
                bad.append((m, entry["l"], entry["e_charge"]))
    assert report(
        7, "raising-operator charges are 2 (m in {2,3,4})", not bad,
        f"failures: {bad or 'none'}",
    )


def test_criterion_07b_f_charges(ops_by_m, conv):
    bad = []
    for m, ops in ops_by_m.items():
        rep = verify_charge_relations(ops)
        for entry in rep["entries"]:
            if not entry["f_ok"]:
                bad.append(
                    (m, entry["l"], entry["f_charge"],
                     "first-order pole = -2*(exponential terms); the "
                     "zero-charge b0*gamma(l) term drops out")
                )
    assert report(
        7, "lowering-operator charges are -2 (m in {2,3,4})", not bad,
        f"failures: {bad or 'none'}",
    )


def test_criterion_08_worked_residue(ops_by_m):
    rep = charge_residue_check(ops_by_m[3], 1)
    ok = (
        rep["el_f0_residue_matches_expected"]
        and rep["el_f0_residue_differs_from_h_l"]
    )
    assert report(
        8, "worked e(1) f(0) residue", ok,
        f"residue = {rep['residue_el_f0']}; matches the worked value and "
        f"differs from h(1) with witnesses (extraneous exponential; missing "
        f"{rep['missing_terms']})",
    )


def test_criterion_09_charge_residue_mechanism(ops_by_m):
    ok = True
    details = []
    for l in (1, 2):
        rep = charge_residue_check(ops_by_m[3], l)
        good = (
            rep["residue_differs_from_h_l"]
            and bool(rep["exponential_momentum_witnesses"])
            and rep["h_l_bilinear_audit_ok"]
        )
        ok = ok and good
        details.append(f"l={l}: residue != h({l}) with exponential witness")
    assert report(9, "charge-residue obstruction (concrete)", ok, "; ".join(details))


def test_criterion_10a_epsilon_universality(ops_by_m):
    minus_alpha_sq = CoeffK.zero() - CoeffK.one() / CoeffK.k()
    offenders = []
    for l1 in (1, 2):
        for l2 in (1, 2):
            chk = branch_cut_check(ops_by_m[3], l1, l2)
            if chk["zero_charge_tail_singular_terms"]:
                offenders.append(
                    ((l1, l2), chk["zero_charge_tail_singular_terms"][0])
                )
            if not chk["exponential_terms_all_minus_alpha_sq"]:
                offenders.append(((l1, l2), "exponential term with wrong epsilon"))
    assert report(
        10, "every singular term carries epsilon = -1/s^2", not offenders,
        f"singular terms at epsilon = 0 produced by the zero-charge tail "
        f"(its b0 contracts the raising operator's exponential): "
        f"{offenders[:2]}",
    )


def test_criterion_10b_classification(ops_by_m):
    ok = True
    got = {}
    for l1 in (1, 2):
        for l2 in (1, 2):
            sym = branch_cut_check(ops_by_m[3], l1, l2)["classification"]
            half = branch_cut_check(ops_by_m[3], l1, l2, F(1, 2))["classification"]
            neg = branch_cut_check(ops_by_m[3], l1, l2, F(-1))["classification"]
            got[(l1, l2)] = (sym, half, neg)
            ok = ok and (sym, half, neg) == ("branch_cut", "integer_pole(2)", "regular")
    assert report(
        10, "arithmetic classification (a)/(b)/(c)", ok, f"{got}",
    )


def test_criterion_11_critical_levels():
    table = {(3, 1): F(3, 5), (3, 2): F(3, 5), (4, 1): F(4, 7), (4, 2): F(1, 2),
             (4, 3): F(4, 7), (5, 1): F(5, 9), (5, 2): F(5, 11)}
    ok = all(critical_level(l, m) == want for (m, l), want in table.items())
    for m in range(2, 13):
        for l in range(1, m):
            ok = ok and critical_level(l, m) == critical_level(m - l, m)
            ok = ok and critical_level_exponent_check(l, m)
    assert report(
        11, "critical levels", ok,
        "printed rows, symmetry for m <= 12, and the exponent identity",
    )


def test_criterion_12_property_suites(conv):
    rng = random.Random(20240)
    ok = True

    # exactalg field axioms
    from test_coeffs import rand_coeff

    for _ in range(10):
        a, b, c = (rand_coeff(rng) for _ in range(3))
        ok = ok and (a + b) * c == a * c + b * c
        ok = ok and (a * b) * c == a * (b * c)

    # ring associativity
    from test_ring import rand_elem

    for _ in range(6):
        x, y, z = (rand_elem(rng, P32) for _ in range(3))
        ok = ok and ring_mul(ring_mul(x, y), z) == ring_mul(x, ring_mul(y, z))

    # kahler linearity / exactness / idempotence
    from secalg.kahler import reduce_monomial_class

    for _ in range(4):
        a = RingElem.monomial(
            P32, PolyC.const(F(rng.randint(1, 5), rng.randint(1, 3))),
            rng.randint(-3, 3), rng.randint(0, 2),
        )
        b = RingElem.monomial(
            P32, PolyC.const(F(rng.randint(-5, -1), rng.randint(1, 3))),
            rng.randint(-3, 3), rng.randint(0, 2),
        )
        fa = DiffForm(a, RingElem.zero(P32))
        fb = DiffForm(b, RingElem.zero(P32))
        fab = DiffForm(a + b, RingElem.zero(P32))
        ok = ok and reduce_oracle(fab) == reduce_oracle(fa) + reduce_oracle(fb)
        ok = ok and reduce_oracle(differential(ring_mul(a, b))).is_zero()
    for j in (1, 3):
        ok = ok and reduce_monomial_class(P32, -j, 1).odd == {(1, j): PolyC.const(1)}

    # ope bilinearity and derivative consistency (compact seeded rerun)
    from test_ope import (
        test_wick_bilinearity_randomized,
        test_wick_derivative_consistency,
    )

    test_wick_bilinearity_randomized()
    test_wick_derivative_consistency()

    # CLI parse/render round-trip on the full operator inventory
    for m in (2, 3):
        opset = build_operators(m, conv)
        for expr in opset.operators.values():
            ok = ok and parse_field_expr(expr.render(), m) == expr

    assert report(
        12, "property suites (fixed seeds, exact)", ok,
        "field axioms, ring associativity, reduction linearity/exactness/"
        "idempotence, OPE bilinearity + derivative consistency, CLI round-trip",
    )
