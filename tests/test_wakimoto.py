import copy
import hashlib
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import pytest

import secalg.ope as ope
import secalg.wakimoto as wakimoto
from secalg.cli import main
from secalg.coeffs import CoeffK
from secalg.ope import ALL_CONFIGS, ConventionConfig, FieldExpr, FieldGen, is_laurent, wick_ope
from secalg.wakimoto import (
    _config_diagnostics,
    branch_cut_check,
    build_operators,
    calibrate_conventions,
    charge_residue_check,
    check_wakimoto_type,
    critical_level,
    critical_level_exponent_check,
    obstruction_report,
    verify_charge_relations,
    working_config,
)

CONV = ConventionConfig(sigma_rev=-1, nesting="right")


def fe(kind, sector, deriv=0):
    return FieldExpr.generator(kind, sector, deriv)


def test_build_operators_anchors():
    ops = build_operators(3, CONV)
    assert ops.op("e", 0) == fe("beta", 0)
    s = CoeffK.s()
    expected_h1 = (
        (fe("beta", 1) * fe("gamma", 0)).scale(CoeffK.from_int(-1))
        + (fe("beta", 0) * fe("gamma", 1)).scale(CoeffK.from_int(-1))
        + fe("heis", 1).scale(s * F(1, 2))
    )
    assert ops.op("h", 1) == expected_h1
    ops2 = build_operators(2, CONV)
    assert ops2.op("e", 1) == fe("beta", 1) * FieldExpr.exponential(CoeffK.alpha())
    # the printed coefficients appear exactly: (k+2)/k on the derivative term
    # D(gamma[1],1) of f^(1), which carries exp(-alpha phi0)
    [(mom, coef)] = [(mom, coef) for factors, mom, coef in ops.op("f", 1).monomials()
                     if factors == (FieldGen("gamma", 1, 1),)]
    assert mom == CoeffK.zero() - CoeffK.alpha()
    assert coef == (CoeffK.k() + CoeffK.from_int(2)) / CoeffK.k()


def test_calibration_diagnostics():
    """No configuration satisfies all three even-sector identities exactly
    (the residues match under sigma_rev = -1, but the double poles are
    anomalous: k+2 instead of k in e0 f0, and a spurious double pole in
    h0 f0).  Pinned as the documented verification finding."""
    res = calibrate_conventions()
    assert res.passing == []
    assert {(c.sigma_rev, c.nesting) for c in res.residue_passing} == {
        (-1, "left"),
        (-1, "right"),
    }
    for diag in res.per_config:
        assert diag["checks"]["ef_double_is_k"] is False
        if diag["config"]["sigma_rev"] == -1:
            assert diag["checks"]["he_residue_is_2e0"] is True
            assert diag["checks"]["hf_no_double"] is False


def test_working_config_choice():
    conv, status = working_config()
    assert (conv.sigma_rev, conv.nesting) == (-1, "right")
    assert status["mode"] == "residue"


def test_calibration_cache_is_isolated():
    first = calibrate_conventions()
    want = copy.deepcopy(first.to_json_dict())
    first.per_config[0]["checks"]["ef_double_is_k"] = True
    first.per_config[0]["config"]["nesting"] = "left"
    first.per_config[0]["opes"].clear()
    first.passing.append(first.chosen)
    first.to_json_dict()["chosen"]["nesting"] = "left"
    _conv, status = working_config()
    status["chosen"]["sigma_rev"] = 1
    status["residue_calibration"].clear()
    assert calibrate_conventions().to_json_dict() == want
    assert _config_diagnostics.cache_info().currsize <= 4


def test_working_config_copies_no_diagnostics(monkeypatch):
    first = working_config()
    deepcopy = copy.deepcopy

    def no_dicts(x, memo=None):
        # the status dicts of the configurations are built afresh (to_json_dict), so a deep
        # copy of a dict here could only be of the shared diagnostics
        if isinstance(x, dict):
            raise AssertionError("working_config deep-copied the diagnostics")
        return deepcopy(x, memo)

    monkeypatch.setattr(wakimoto.copy, "deepcopy", no_dicts)
    assert working_config() == first


def test_charge_relations_e_side_and_t4_dropout():
    for m in (2, 3, 4):
        ops = build_operators(m, CONV)
        rep = verify_charge_relations(ops)
        for entry in rep["entries"]:
            assert entry["e_ok"], entry
            assert entry["ghost_part_orthogonal"], entry
            # the zero-charge tail drops out of the first-order pole, so the
            # lowering operator has no definite charge as printed
            assert entry["f_charge"] is None
            assert entry["f_pole_equals_minus2_exponential_terms"], entry


def test_charge_residue_witnesses():
    ops = build_operators(3, CONV)
    for l in (1, 2):
        rep = charge_residue_check(ops, l)
        assert rep["residue_differs_from_h_l"]
        assert rep["exponential_momentum_witnesses"]
        assert set(rep["missing_terms"]) == {"-beta(l)gamma0", "(s/2)b(l)"}
        assert rep["el_f0_residue_matches_expected"]
        assert rep["el_f0_residue_differs_from_h_l"]
        assert rep["h_l_bilinear_audit_ok"]


def test_branch_cut_classifications():
    ops = build_operators(3, CONV)
    for (l1, l2) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        chk = branch_cut_check(ops, l1, l2)
        assert chk["exponential_terms_all_minus_alpha_sq"]
        assert chk["classification"] == "branch_cut"
        assert branch_cut_check(ops, l1, l2, F(1, 2))["classification"] == "integer_pole(2)"
        assert branch_cut_check(ops, l1, l2, F(-1))["classification"] == "regular"
        # the zero-charge tail does contribute a singular term through the
        # Heisenberg-exponential contraction (documented finding)
        assert not chk["zero_charge_tail_contributes_no_singularity"]


def test_case_b_leading_residue_reported():
    ops = build_operators(3, CONV)
    chk = branch_cut_check(ops, 1, 2, F(1, 2))
    assert chk["leading"]["total_pole_order"] == 2
    assert chk["leading"]["equals_h0"] is False
    assert "beta[1]" in chk["leading"]["field"]


def test_check_wakimoto_type():
    ops = build_operators(3, CONV)
    rep = check_wakimoto_type(ops.op("e", 1), ops.op("f", 2), 3)
    assert rep["w1"]["ok"]
    assert rep["w3"] == "satisfied (engine axiom)"
    # the printed lowering operator violates the printed remainder
    # restriction: its zero-charge tail carries the sector-0 Heisenberg field
    assert not rep["w2"]["ok"]
    assert any(
        "sector-0 Heisenberg" in v["why"] for v in rep["w2"]["violations"]
    )
    # a bare ghost with no exponential fails W1
    rep = check_wakimoto_type(fe("beta", 1), ops.op("f", 2), 3)
    assert not rep["w1"]["ok"]


def classify_type_II(ops, l, k_val=None):
    """Arithmetic classification of the sector-pair (l, m-l) OPE.

    Case (a): branch cut for 1/k not an integer; case (b): integer pole of
    order at least n = 1/k >= 1, with the leading residue reported (not
    asserted) against h0; case (c): regular for 1/k a non-positive integer.
    """
    check = branch_cut_check(ops, l, ops.m - l, k_val)
    cls = check["classification"]
    case = "a" if cls == "branch_cut" else "b" if cls.startswith("integer_pole") else "c"
    return {"l": l, "m": ops.m, "k": check["k"], "case": case, "detail": check}


def test_classify_type_II_cases():
    ops = build_operators(3, CONV)
    assert classify_type_II(ops, 1)["case"] == "a"
    assert classify_type_II(ops, 1, F(1, 3))["case"] == "b"
    assert classify_type_II(ops, 1, F(-1))["case"] == "c"


def test_critical_levels():
    table = {(3, 1): F(3, 5), (3, 2): F(3, 5), (4, 1): F(4, 7), (4, 2): F(1, 2),
             (4, 3): F(4, 7), (5, 1): F(5, 9), (5, 2): F(5, 11)}
    for (m, l), want in table.items():
        assert critical_level(l, m) == want
    for m in range(2, 13):
        for l in range(1, m):
            assert critical_level(l, m) == critical_level(m - l, m)
            assert critical_level_exponent_check(l, m)


def test_obstruction_report_matrix():
    rep = obstruction_report(3)
    statuses = {cell: rep.cells[cell]["status"] for cell in rep.cells}
    assert statuses[(0, 0)] == "realized"
    for l in (1, 2):
        assert statuses[(0, l)] == "charge_residue_obstructed"
        assert statuses[(l, 0)] == "charge_residue_obstructed"
    for pair in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        assert statuses[pair] == "branch_cut"
    assert rep.cells[(2, 2)]["bracket_type"] == "III"
    assert "wraps to sector 1" in rep.cells[(2, 2)]["note"]
    assert rep.cells[(1, 2)]["bracket_type"] == "II"
    # markdown emitter is deterministic and mirrors the sector structure
    md1, md2 = rep.to_markdown(), obstruction_report(3).to_markdown()
    assert md1 == md2
    # anomalies of the (0,0) cell are recorded for audit
    assert "ef_double_is_k" in rep.cells[(0, 0)]["witness"]["anomalies"]


def test_obstruction_report_specialized():
    rep = obstruction_report(2, F(1))
    assert rep.cells[(1, 1)]["status"] == "integer_pole(1)"
    rep = obstruction_report(3, F(-1))
    for pair in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        assert rep.cells[pair]["status"] == "regular"


@pytest.mark.parametrize("argv, status, digest", [
    (["obstructions", "--m", "7"], 0,
     "89d795f3d54b95297988fc0fe04ba3a37a0a1ad2fc3cd7245428f4ba36009a70"),
    (["obstructions", "--m", "9", "--k", "3/5"], 0,
     "8aea102756682cb19730868d4e6f64d08217383906db5efae996eefd31992e87"),
    (["calibrate"], 1,
     "dcfec67b3906d1f841ee9dd9323de585abda3f332459e956e71c778a0a3317db"),
    (["charges", "--m", "5"], 1,
     "ddc3e47a55ef973b8c1fbd836f240285b6aab03a6eb39393677adcd90aa3524b"),
    # a non-monomial denominator, 1/(c-1), keeps the gcd on its general path
    (["ope", "--m", "3", "--e", "no(b[0]*exp((1+c)/(s*c^2),phi0))",
      "--f", "no(gamma[1]*exp(1/(c-1),phi0))"], 0,
     "389687507176ff780331bd098a73e7e84d9570c37005d6ce53aead715a17e7c6"),
    (["obstructions", "--m", "4"], 0,
     "40cb94acd2ad2692d2b4655558a69650015b1eda22108475d2db4c60ba5bb8f8"),
    (["obstructions", "--m", "12", "--k", "2/3"], 0,
     "1a2e4c41d0f86740d73ff9c4798546faaa2ebfa885ee920159d028420f74dda8"),
    (["charges", "--m", "8"], 1,
     "18e2abef10ff9b0afed673fc51b93d246bba5aae1e9fdf0e2e569c2c873779a5"),
    # Taylor shifts at high order: eleven factors shifted to the third order,
    # and exponentials on both sides at three extra orders
    (["ope", "--m", "3", "--e", "no(gamma[2]*gamma[2]*gamma[2]*gamma[2]*gamma[2]*beta[0]*"
      "beta[0]*beta[0]*beta[0]*beta[0]*b[1])", "--f", "D(b[1],3)"], 0,
     "d95d0d9f586a0366548786d684dbe3bd0568c7d33351c81feb23141f04c4072c"),
    (["ope", "--m", "3", "--e", "no(D(beta[1],2)*exp(2/s,phi0)*b[0])",
      "--f", "no(gamma[1]*D(b[0],1)*exp(-1/s,phi0))", "--extra-orders", "3"], 0,
     "b0bd85730dd95a4f6b5dda96230144ee748c277c5f691c9a1ccfb3f9155968b5"),
    # many contractions: six beta against six gamma, and repeated b[0]
    # factors on both sides meeting both exponentials
    (["ope", "--m", "2", "--e", "no(beta[1]*beta[1]*beta[1]*beta[1]*beta[1]*beta[1])",
      "--f", "no(gamma[1]*gamma[1]*gamma[1]*gamma[1]*gamma[1]*gamma[1])"], 0,
     "04f1bbfc458f9e70b6ec2d03d82f3b4ca1260d08e017cb7190c732aa96b6cbb2"),
    (["ope", "--m", "3", "--e", "no(b[0]*b[0]*beta[2]*exp(1/s,phi0))",
      "--f", "no(b[0]*gamma[2]*gamma[2]*b[0]*exp(c,phi0))", "--extra-orders", "2"], 0,
     "cbed78a643a00e06b4f81848a0007dd95dc318439484a0aad62d49497c9ec3fa"),
    # a general denominator on both sides of the merges: momenta 1/(c-1) and s
    (["ope", "--m", "3", "--e", "no(D(b[0],2)*b[1]*gamma[2]*exp(1/(c-1),phi0))",
      "--f", "no(b[0]*b[1]*beta[2]*exp(s,phi0))", "--extra-orders", "1"], 0,
     "ec842424b27f64da82ba1749e2a06b99e17e8f34997839bb2e447610ce61455f"),
    # high powers of c: one exponent each, however large, and a sum of two
    (["ope", "--m", "3", "--e", "exp(c^1000000000,phi0)", "--f", "exp(c^1000000000,phi0)",
      "--extra-orders", "1"], 0,
     "071bf54f31fe48bca6b91302aa40eb5081633fcd58b683c1fde61427e93d1e02"),
    (["ope", "--m", "3", "--e", "no(beta[1]*exp(c^70000/(s+c^50000),phi0))",
      "--f", "no(gamma[1]*exp(s*c^40000,phi0))", "--extra-orders", "2"], 0,
     "f0f7d50b8a77031894d4f9d616b2db72d93d29334ae46470988c701afbf646a9"),
    # two fractional sectors, 1/(s^2 + c*s + s + c) listed before 1/(s + c)
    (["ope", "--m", "2", "--e", "exp(1/(s+1),phi0)+no(D(b[1],1)*b[0]*beta[1]*exp(1,phi0))",
      "--f", "(2/s)*no(beta[0]*exp(1/(c+s),phi0))", "--extra-orders", "1"], 0,
     "82de71cb6afcb002a21d42664cd08f37e7c47f1acf7c3ea72bc2bbf2c3f76e8b"),
])
def test_free_field_output_pinned(argv, status, digest, capsys):
    assert main(argv) == status
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.fixture
def wick_calls(monkeypatch):
    """Count the Wick expansions the obstruction program runs, from an empty
    process memo of orbit reports.

    Both bindings are counted: the program calls ``wick_ope`` directly and
    through ``charge_of``.
    """
    working_config()  # the calibration OPEs are computed once per process
    wakimoto.orbit_report.cache_clear()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return wick_ope(*args, **kwargs)

    monkeypatch.setattr(wakimoto, "wick_ope", counted)
    monkeypatch.setattr(ope, "wick_ope", counted)
    return calls


def test_obstruction_report_one_expansion_per_orbit(wick_calls):
    rep = obstruction_report(4)
    # e0 f(l), e(l) f0, and e(l1) f(l2) for l1 < l2, l1 = l2, l1 > l2
    assert len(wick_calls) == 5
    for m in (9, 12):
        for k_val in (F(1, 2), F(2, 3)):
            wick_calls.clear()
            obstruction_report(m, k_val)
            # the orbits are expanded once per process, whatever m and k are
            assert len(wick_calls) == 0
    for m in (4, 9):
        rep = obstruction_report(m)
        ops = build_operators(m, CONV)
        for l in range(1, m):
            for cell, E, Fx in (((0, l), ops.op("e", 0), ops.op("f", l)),
                                ((l, 0), ops.op("e", l), ops.op("f", 0))):
                obstructed = wick_ope(E, Fx, CONV).zero_sector_pole(1) != ops.op("h", l)
                assert (rep.cells[cell]["status"] == "charge_residue_obstructed") == obstructed
            for l2 in range(1, m):
                res = wick_ope(ops.op("e", l), ops.op("f", l2), CONV, extra_orders=1)
                assert rep.cells[(l, l2)]["status"] == is_laurent(res)[0]


def test_charge_relations_one_expansion_per_orbit(wick_calls):
    for i, m in enumerate((5, 2, 8, 5)):
        wick_calls.clear()
        verify_charge_relations(build_operators(m, CONV))
        # h0 e(l), h0 f(l), and the ghost bilinear against beta, gamma, b of l,
        # once per process, whatever m is
        assert len(wick_calls) == (5 if i == 0 else 0)


def test_branch_cut_check_shared_across_threads():
    pairs = [(l1, l2) for l1 in range(1, 6) for l2 in range(1, 6)]
    direct = build_operators(6, CONV)
    want = {p: wakimoto._branch_cut_report(direct, *p, F(1, 2)) for p in pairs}
    shared = build_operators(6, CONV)
    wakimoto.orbit_report.cache_clear()  # the threads race to fill the memo

    def run(seed):
        order = random.Random(seed).sample(pairs, len(pairs))
        got = {p: branch_cut_check(shared, *p, F(1, 2)) for p in order}
        return got, obstruction_report(6, F(1, 2), CONV)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, seed) for seed in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(got == want for got, _ in results)
    for _, rep in results:
        _assert_matrix_matches(rep, 6, F(1, 2), lambda build, *labels: build(direct, *labels))


def _direct(m, conv=CONV):
    """An operator set for the unmemoized report builders, run on it at the
    cell's own sector labels."""
    return build_operators(m, conv)


def _assert_matrix_matches(rep, m, k_val, direct):
    """Every cell of rep against direct(build, *labels), the report builder
    run at the cell's own labels."""
    for l in range(1, m):
        want = direct(wakimoto._charge_residue_report, l)
        assert rep.cells[(0, l)]["witness"] == {
            "residue": want["residue_e0_fl"],
            "exponential_momentum_witnesses": want["exponential_momentum_witnesses"],
            "missing_terms": want["missing_terms"],
        }
        assert rep.cells[(l, 0)]["witness"] == {
            "residue": want["residue_el_f0"],
            "expected_worked_example": want["expected_el_f0"],
            "matches_worked_example": want["el_f0_residue_matches_expected"],
        }
        assert [rep.cells[c]["status"] == "charge_residue_obstructed"
                for c in ((0, l), (l, 0))] == [want["residue_differs_from_h_l"],
                                               want["el_f0_residue_differs_from_h_l"]]
        for l2 in range(1, m):
            want = direct(wakimoto._branch_cut_report, l, l2, k_val)
            assert rep.cells[(l, l2)]["status"] == want["classification"]
            assert rep.cells[(l, l2)]["witness"] == {
                key: want[key] for key in
                ("epsilon_values", "zero_charge_tail_singular_terms", "leading")
            }


def test_sector_operators_hold_sectors_0_and_l():
    """Premise (a) of the orbit form, which ``_orbit`` reads in place of the
    operators: under every configuration, each sector-l operator holds sectors
    within {0, l}, and f^(l) holds both."""
    for conv in ALL_CONFIGS:
        for m in range(2, 13):
            ops = build_operators(m, conv)
            for l in range(1, m):
                for name in ("e", "h", "f"):
                    assert ops.op(name, l).sectors() <= {0, l}, (conv, m, l, name)
                assert ops.op("f", l).sectors() == {0, l}, (conv, m, l)


@pytest.mark.parametrize("m", range(2, 8))
def test_orbit_reports_match_direct_computation(m):
    ops, direct = build_operators(m, CONV), _direct(m)  # ops is shared by all k
    entries = verify_charge_relations(ops)["entries"]
    assert entries == [wakimoto._charge_entry(direct, l) for l in range(1, m)]
    for k_val in (None, F(1, 2), F(2, 3), F(-1)):
        rep = obstruction_report(m, k_val)
        _assert_matrix_matches(rep, m, k_val, lambda build, *labels: build(direct, *labels))
        for l in range(1, m):
            assert charge_residue_check(ops, l) == wakimoto._charge_residue_report(direct, l)
            for l2 in range(1, m):
                assert (branch_cut_check(ops, l, l2, k_val)
                        == wakimoto._branch_cut_report(direct, l, l2, k_val))
    # an equal level of another type is another report: its "k" reads as given
    assert branch_cut_check(ops, 1, 1, 0.5)["k"] == "0.5"


def test_memo_keeps_configurations_and_levels_apart():
    """Calls in a shuffled order from an empty memo: each answer is the
    direct builders' at its own configuration, level and labels, so the memo
    keys by configuration and every call classifies at its own k (0.5 and
    1/2 compare equal, and each reports its own "k")."""
    default = working_config()[0]
    other = next(c for c in ALL_CONFIGS if c.nesting != default.nesting)
    levels = (None, F(1, 2), 0.5, -1)
    calls = [(kind, conv, m, k_val) for kind in ("obstructions", "branch_cut")
             for conv in (default, other) for m in range(2, 8) for k_val in levels]
    calls += [(kind, conv, m, None) for kind in ("charge_residue", "charges")
              for conv in (default, other) for m in range(2, 8)]
    random.Random(17).shuffle(calls)
    wakimoto.orbit_report.cache_clear()
    wants: dict = {}

    def direct(conv):
        def run(build, *labels):
            key = (build, conv, repr(labels))  # a dict key would merge 0.5 and 1/2
            if key not in wants:
                wants[key] = build(_direct(8, conv), *labels)
            return wants[key]
        return run

    for kind, conv, m, k_val in calls:
        ops, want = build_operators(m, conv), direct(conv)
        if kind == "obstructions":
            rep = obstruction_report(m, k_val, conventions=conv)
            assert rep.k == ("symbolic" if k_val is None else str(k_val))
            _assert_matrix_matches(rep, m, k_val, want)
        elif kind == "branch_cut":
            for l1 in range(1, m):
                for l2 in range(1, m):
                    got = branch_cut_check(ops, l1, l2, k_val)
                    assert got == want(wakimoto._branch_cut_report, l1, l2, k_val)
        elif kind == "charge_residue":
            for l in range(1, m):
                assert charge_residue_check(ops, l) == want(wakimoto._charge_residue_report, l)
        else:
            entries = verify_charge_relations(ops)["entries"]
            assert entries == [want(wakimoto._charge_entry, l) for l in range(1, m)]


def test_memo_does_not_grow_with_levels():
    """A sweep of levels adds no report: the memo holds the five orbit
    reports of the configuration at most, whatever k is asked for."""
    wakimoto.orbit_report.cache_clear()
    for n in range(1, 201):
        rep = obstruction_report(3, F(1, n))
        assert rep.k == str(F(1, n))
        # the exponent -1/k is -n at k = 1/n
        assert {rep.cells[c]["status"] for c in ((1, 1), (1, 2), (2, 1))} == {f"integer_pole({n})"}
    assert wakimoto.orbit_report.cache_info().currsize <= 5


def test_returned_reports_do_not_alter_the_memo():
    ops = build_operators(5, CONV)
    for check in (lambda: branch_cut_check(ops, 2, 4, F(1, 2)),
                  lambda: charge_residue_check(ops, 3),
                  lambda: verify_charge_relations(ops),
                  lambda: obstruction_report(4).to_json_dict()):
        first = check()
        want = copy.deepcopy(first)
        stack = [first]
        while stack:  # empty every container of the returned report
            x = stack.pop()
            if isinstance(x, (dict, list)):
                stack.extend(x.values() if isinstance(x, dict) else x)
                x.clear()
        assert check() == want

    def fields(ops):
        return list(ops.operators.values())

    want = [fe.render() for fe in fields(build_operators(4, CONV))]
    for fe in fields(build_operators(4, CONV)):
        fe.terms.clear()
    assert [fe.render() for fe in fields(build_operators(4, CONV))] == want
