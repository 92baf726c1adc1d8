"""Vertex operators for all sectors, convention calibration, and the
obstruction program.

``build_operators`` transcribes the printed operators exactly (momentum
alpha = 1/s, coefficients k+2, (k+2)/k, s/2, 1/s as printed), reading the
displayed triple products under the configured nesting convention.

The obstruction program runs in orbit form.  Each check depends on its
sectors only through their orbit under ``canonical_sectors``, so every cell
of ``obstruction_report(m)`` is a relabeled copy of one of five orbit
reports, none of which depends on m:

    charge-residue (0, l) and (l, 0)           from m >= 2
    branch cut l1 = l2                         from m >= 2
    branch cut l1 < l2, branch cut l1 > l2     from m >= 3

Apart from its labels, a cell depends on m only through its bracket type
(I, II or III, from l1 + l2 against m) and the wrap note of type III.  Two
premises make the relabeled orbit report the report of the cell:

(a) each sector-l operator, l >= 1, is the sector-1 template renamed by
    {0: 0, 1: l}; this holds by construction in ``build_operators``;
(b) ``wick_ope`` commutes with injective renamings of the nonzero sectors;
    this is a property of the code, not checked at run time, and
    ``test_wick_commutes_with_sector_renaming`` tests it.

``orbit_report`` memoizes the five orbit reports once per process and
configuration, in rendered data and whatever the level; each call
classifies a branch-cut orbit at its own level by ``exponent_class``, the
rule ``is_laurent`` applies, and hands out a copy relabeled to its sectors.

``calibrate_conventions`` enumerates the four convention configurations and
tests the three even-sector OPE identities

    e0 f0 ~ h0/(z-w) + k/(z-w)^2,   h0 e0 ~ 2 e0/(z-w),   h0 f0 ~ -2 f0/(z-w)

as exact identities of canonical field expressions.  The full diagnostics
(every pole of every OPE under every configuration, plus which identities
hold at first order) are always produced, once per process and
configuration, and handed out as copies; downstream verifications require
an explicitly selected configuration and stamp it, together with its
calibration status, into every report.

All checks derive their verdicts from computed OPE results; expected target
fields are attached so each claim can be replayed from the witnesses.
"""

from __future__ import annotations

import copy
import functools
import re
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .coeffs import CoeffK
from .ope import (
    ALL_CONFIGS,
    ConventionConfig,
    FieldExpr,
    FieldGen,
    NOMono,
    canonical_sectors,
    charge_of,
    classification_text,
    exponent_class,
    integer_exponent,
    is_laurent,
    nested_product,
    scalar_ratio,
    wick_ope,
)


class CalibrationError(RuntimeError):
    def __init__(self, message: str, result: "CalibrationResult"):
        super().__init__(message)
        self.result = result


@dataclass
class OperatorSet:
    m: int
    conventions: ConventionConfig
    operators: dict  # (name, sector) -> FieldExpr
    alpha: CoeffK
    f_parts: dict  # sector -> {part name -> FieldExpr}, for witness reports

    def op(self, name: str, sector: int) -> FieldExpr:
        return self.operators[(name, sector)]

    def orbit(self, *sectors: int) -> tuple[tuple, tuple]:
        """The canonical labels of sectors (each in 1..m-1), and the sector of
        each label."""
        if not all(1 <= l <= self.m - 1 for l in sectors):
            raise ValueError(f"sectors {sectors} outside 1..m-1 = 1..{self.m - 1}")
        return _orbit(sectors, {l: self.op("f", l).sectors() for l in sectors})


def _orbit(sectors: tuple, f_sectors: dict) -> tuple[tuple, tuple]:
    """The labels ``canonical_sectors`` gives sectors by the sectors
    f_sectors[l] of their f operators, and the sector of each label 0..n."""
    sigma = canonical_sectors(*(f_sectors[l] for l in sectors))
    return tuple(sigma[l] for l in sectors), tuple(sorted(sigma))


@functools.cache
def orbit_report(build, conventions: ConventionConfig, canon: tuple) -> dict:
    """``build(ops, *canon)`` on operators that hold the canonical sectors
    canon, made once per process and shared by every m and every level.

    One report per orbit: charge-residue (0, l) and (l, 0) together (from
    m >= 2), branch cut l1 = l2 (from m >= 2), l1 < l2 and l1 > l2 (from
    m >= 3).  It stands for every cell of its orbit by premise (a), true by
    construction in ``build_operators``, and premise (b), a property of
    ``wick_ope`` that ``test_wick_commutes_with_sector_renaming`` tests.  No
    builder takes a level, so the memo holds at most five reports per
    configuration; ``_at_level`` classifies a branch-cut report per call.
    The report holds rendered data and exponents, no fields or OPE results,
    and is shared: callers hand out copies that ``_relabeled`` makes.
    """
    return build(build_operators(max(canon) + 1, conventions), *canon)


def _relabeled(x, labels: tuple):
    """A fresh copy of report x with each canonical label i, under the keys
    l, l1, l2 and sectors and in the [i] of each rendered generator, mapped to
    labels[i].  The canonical renaming is monotone and fixes 0, so rendered
    orders hold."""
    t = type(x)
    if t is str:
        return _label_template(x).format(*labels) if "[" in x else x
    if t is dict:
        return {key: _relabeled(v, labels) if key not in ("l", "l1", "l2", "sectors")
                else [labels[l] for l in v] if key == "sectors" else labels[v]
                for key, v in x.items()}
    if t is list or t is tuple:
        return t(_relabeled(v, labels) for v in x)
    return x


@functools.cache
def _label_template(text: str) -> str:
    """text as a format string whose fields are the sectors of its generators."""
    text = text.replace("{", "{{").replace("}", "}}")
    return re.sub(r"\b(beta|gamma|b)\[(\d+)\]", r"\1[{\2}]", text)


def _gen(kind: str, sector: int, deriv: int = 0) -> FieldExpr:
    return FieldExpr.generator(kind, sector, deriv)


@functools.cache
def _sector_templates(conventions: ConventionConfig) -> tuple[dict, dict]:
    """The operators and parts of f in sectors 0 and 1, built once per process
    and configuration; ``build_operators`` hands out renamed copies."""
    s = CoeffK.s()
    k = CoeffK.k()
    alpha = CoeffK.alpha()  # 1/s
    ops: dict = {}
    f_parts: dict = {}

    # even sector
    ops[("e", 0)] = _gen("beta", 0)
    ops[("h", 0)] = nested_product(
        [FieldGen("beta", 0), FieldGen("gamma", 0)], conventions
    ).scale(CoeffK.from_int(-2)) + _gen("heis", 0).scale(s)
    cubic0 = nested_product(
        [FieldGen("beta", 0), FieldGen("gamma", 0), FieldGen("gamma", 0)], conventions
    ).scale(CoeffK.from_int(-1))
    dgamma0 = _gen("gamma", 0, deriv=1).scale(k + CoeffK.from_int(2))
    bgamma0 = (FieldExpr.generator("heis", 0) * FieldExpr.generator("gamma", 0)).scale(s)
    ops[("f", 0)] = cubic0 + dgamma0 + bgamma0
    f_parts[0] = {"cubic": cubic0, "dgamma": dgamma0, "bgamma": bgamma0}

    # sector 1
    exp_minus = FieldExpr.exponential(CoeffK.zero() - alpha)
    ops[("e", 1)] = FieldExpr.generator("beta", 1) * FieldExpr.exponential(alpha)
    ops[("h", 1)] = (
        nested_product([FieldGen("beta", 1), FieldGen("gamma", 0)], conventions)
        .scale(CoeffK.from_int(-1))
        + nested_product([FieldGen("beta", 0), FieldGen("gamma", 1)], conventions)
        .scale(CoeffK.from_int(-1))
        + _gen("heis", 1).scale(s * Fraction(1, 2))
    )
    t1 = nested_product(
        [FieldGen("beta", 0), FieldGen("gamma", 1), FieldGen("gamma", 0)],
        conventions,
    ).scale(CoeffK.from_int(-1)) * exp_minus
    t2 = _gen("gamma", 1, deriv=1).scale((k + CoeffK.from_int(2)) / k) * exp_minus
    t3 = (
        FieldExpr.generator("heis", 1) * FieldExpr.generator("gamma", 1)
    ).scale(s * Fraction(1, 2)) * exp_minus
    t4 = (FieldExpr.generator("heis", 0) * FieldExpr.generator("gamma", 1)).scale(alpha)
    ops[("f", 1)] = t1 + t2 + t3 + t4
    f_parts[1] = {"T1": t1, "T2": t2, "T3": t3, "T4": t4}
    return ops, f_parts


def build_operators(m: int, conventions: ConventionConfig) -> OperatorSet:
    """The printed operators for all sectors of the given m: fresh copies of
    the sector templates, with sector 1 renamed to each l >= 1 (premise (a)
    of the orbit form, by construction)."""
    if m < 2:
        raise ValueError("m must be >= 2")
    ops, parts = _sector_templates(conventions)  # {0: 0, 1: 0} copies sector 0
    return OperatorSet(
        m=m, conventions=conventions, alpha=CoeffK.alpha(),
        operators={(name, l): ops[name, min(l, 1)].renamed({0: 0, 1: l})
                   for l in range(m) for name in ("e", "h", "f")},
        f_parts={l: {part: fe.renamed({0: 0, 1: l}) for part, fe in parts[min(l, 1)].items()}
                 for l in range(m)})


# ---------------------------------------------------------------------------
# Calibration against the even-sector OPE identities
# ---------------------------------------------------------------------------


@dataclass
class CalibrationResult:
    per_config: list  # one diagnostics dict per configuration
    passing: list  # configs satisfying all three identities exactly
    residue_passing: list  # configs whose first-order (residue) parts all match
    chosen: Optional[ConventionConfig]

    def to_json_dict(self) -> dict:
        return {
            "per_config": self.per_config,
            "passing": [asdict(c) for c in self.passing],
            "residue_passing": [asdict(c) for c in self.residue_passing],
            "chosen": asdict(self.chosen) if self.chosen else None,
        }


@functools.cache
def _config_diagnostics(conv: ConventionConfig) -> dict:
    """The calibration OPEs of one configuration; computed once per process.

    The result depends on constants only.  The cached dict is shared, so
    callers that hand it on give out a deep copy.
    """
    ops = build_operators(2, conv)
    e0, h0, f0 = ops.op("e", 0), ops.op("h", 0), ops.op("f", 0)
    k = CoeffK.k()
    two = CoeffK.from_int(2)

    ef = wick_ope(e0, f0, conv)
    he = wick_ope(h0, e0, conv)
    hf = wick_ope(h0, f0, conv)
    hh = wick_ope(h0, h0, conv)

    ef_p1, ef_p2 = ef.zero_sector_pole(1), ef.zero_sector_pole(2)
    he_p1, he_p2 = he.zero_sector_pole(1), he.zero_sector_pole(2)
    hf_p1, hf_p2 = hf.zero_sector_pole(1), hf.zero_sector_pole(2)

    checks = {
        "ef_residue_is_h0": ef_p1 == h0,
        "ef_double_is_k": ef_p2 == FieldExpr.const(k),
        "he_residue_is_2e0": he_p1 == e0.scale(two),
        "he_no_double": he_p2.is_zero(),
        "hf_residue_is_minus_2f0": hf_p1 == f0.scale(CoeffK.zero() - two),
        "hf_no_double": hf_p2.is_zero(),
    }
    return {
        "config": asdict(conv),
        "checks": checks,
        "full_match": all(checks.values()),
        "residue_match": checks["ef_residue_is_h0"]
        and checks["he_residue_is_2e0"]
        and checks["hf_residue_is_minus_2f0"],
        "opes": {
            "e0f0": ef.to_json_dict(),
            "h0e0": he.to_json_dict(),
            "h0f0": hf.to_json_dict(),
            # delegated normalization: computed and reported, no target
            "h0h0": hh.to_json_dict(),
        },
    }


@functools.cache
def _calibration_choice() -> tuple[tuple, tuple, Optional[ConventionConfig]]:
    """(passing, residue_passing, chosen) read off the shared diagnostics; once per process."""
    diags = [_config_diagnostics(conv) for conv in ALL_CONFIGS]
    passing = tuple(conv for conv, d in zip(ALL_CONFIGS, diags) if d["full_match"])
    residue_passing = tuple(conv for conv, d in zip(ALL_CONFIGS, diags) if d["residue_match"])
    chosen: Optional[ConventionConfig] = None
    if len(passing) == 1:
        chosen = passing[0]
    elif not passing and residue_passing:
        if len(residue_passing) == 1:
            chosen = residue_passing[0]
        else:
            # the flat reading of displayed products (right nesting) is the
            # documented default when residues alone cannot discriminate
            flat = [c for c in residue_passing if c.nesting == "right"]
            if len(flat) == 1:
                chosen = flat[0]
    return passing, residue_passing, chosen


def calibrate_conventions(strict: bool = True) -> CalibrationResult:
    """Test all four configurations against the even-sector identities.

    With ``strict`` (the default) a unique fully-passing
    configuration is required: zero passing configurations raise
    ``CalibrationError('no calibration')`` and several raise
    ``CalibrationError('ambiguous calibration')``, both carrying the full
    diagnostics.  ``strict=False`` returns the diagnostics unconditionally,
    choosing the unique full match if one exists, else the unique
    residue-level match (each identity holding at first order).
    """
    passing, residue_passing, chosen = _calibration_choice()
    result = CalibrationResult(
        per_config=[copy.deepcopy(_config_diagnostics(conv)) for conv in ALL_CONFIGS],
        passing=list(passing),
        residue_passing=list(residue_passing),
        chosen=chosen,
    )
    if strict:
        if not passing:
            raise CalibrationError("no calibration", result)
        if len(passing) > 1:
            raise CalibrationError("ambiguous calibration", result)
    return result


def working_config() -> tuple[ConventionConfig, dict]:
    """The configuration downstream verifications run under, plus its status.

    Prefers a unique fully-calibrated configuration; otherwise falls back to
    the unique configuration satisfying all three identities at first order
    (residues), recording that calibration status.  Raises if neither is
    unique -- downstream checks never run against an unselected convention.
    """
    passing, residue_passing, chosen = _calibration_choice()
    if chosen is None:
        raise CalibrationError("no usable convention configuration",
                               calibrate_conventions(strict=False))
    status = {
        "full_calibration": [asdict(c) for c in passing],
        "residue_calibration": [asdict(c) for c in residue_passing],
        "chosen": asdict(chosen),
        "mode": "full" if passing else "residue",
    }
    return chosen, status


# ---------------------------------------------------------------------------
# Charge relations (probe h0)
# ---------------------------------------------------------------------------


def _monomial_h0_ghost_charge(mono: NOMono) -> int:
    q = 0
    for g in mono.factors:
        if g.sector == 0 and g.kind == "beta":
            q += 2
        elif g.sector == 0 and g.kind == "gamma":
            q -= 2
    return q


def verify_charge_relations(ops: OperatorSet) -> dict:
    """Charge 2 for e^(l) and -2 for f^(l) via exact first-order OPE.

    Also checks sector orthogonality: the ghost part of h0 produces no pole
    against pure sector-l generators.  Failures are report entries carrying
    the computed first-order pole and the exact defect.  Entries are made
    once per sector orbit.
    """
    report = {"m": ops.m, "conventions": asdict(ops.conventions), "entries": [], "ok": True}
    for l in range(1, ops.m):
        canon, labels = ops.orbit(l)
        entry = _relabeled(orbit_report(_charge_entry, ops.conventions, canon), labels)
        report["entries"].append(entry)
        if not (entry["e_ok"] and entry["f_ok"] and entry["ghost_part_orthogonal"]):
            report["ok"] = False
    return report


def _charge_entry(ops: OperatorSet, l: int) -> dict:
    conv = ops.conventions
    h0 = ops.op("h", 0)
    ghost_part = nested_product(
        [FieldGen("beta", 0), FieldGen("gamma", 0)], conv
    ).scale(CoeffK.from_int(-2))
    two = CoeffK.from_int(2)
    e_l, f_l = ops.op("e", l), ops.op("f", l)
    ce = charge_of(h0, e_l, conv)
    pole1 = wick_ope(h0, f_l, conv).zero_sector_pole(1)
    cf = scalar_ratio(pole1, f_l)
    charged_parts = (
        ops.f_parts[l]["T1"] + ops.f_parts[l]["T2"] + ops.f_parts[l]["T3"]
    )
    entry = {
        "l": l,
        "e_charge": ce.render() if ce is not None else None,
        "f_charge": cf.render() if cf is not None else None,
        "e_ok": ce == two,
        "f_ok": cf == CoeffK.from_int(-2),
        "f_first_order_pole": pole1.render(),
        "f_pole_equals_minus2_exponential_terms": pole1
        == charged_parts.scale(CoeffK.from_int(-2)),
        "f_zero_charge_term_dropped": (pole1 - charged_parts.scale(
            CoeffK.from_int(-2))).is_zero()
        and not ops.f_parts[l]["T4"].is_zero(),
    }
    # orthogonality of the h0 ghost bilinear against sector-l generators
    orth = []
    for kind in ("beta", "gamma", "heis"):
        res = wick_ope(ghost_part, FieldExpr.generator(kind, l), conv)
        orth.append(res.is_trivial())
    entry["ghost_part_orthogonal"] = all(orth)
    return entry


# ---------------------------------------------------------------------------
# Charge-residue obstruction on the concrete operators
# ---------------------------------------------------------------------------


def charge_residue_check(ops: OperatorSet, l: int) -> dict:
    """Residue of e0(z) f^(l)(w) against h^(l)(w), with witnesses.

    Also computes the reversed pair e^(l)(z) f0(w), whose residue must be
    the single exponential-bearing term reported in the worked example, and
    audits the ghost-degree combinatorics: every zero-exponential monomial
    of f^(l) with ghost charge -2 must contain one more gamma0 than beta0.
    The report is made once per sector orbit.
    """
    canon, labels = ops.orbit(l)
    return _relabeled(orbit_report(_charge_residue_report, ops.conventions, canon), labels)


def _charge_residue_report(ops: OperatorSet, l: int) -> dict:
    conv = ops.conventions
    e0 = ops.op("e", 0)
    f_l = ops.op("f", l)
    h_l = ops.op("h", l)

    res_0l = wick_ope(e0, f_l, conv)
    residue_0l = res_0l.zero_sector_pole(1)
    exp_witnesses = [
        mo.render() for mo in residue_0l.monomials() if not mo.momentum.is_zero()
    ]
    missing = []
    for name, target in (
        ("-beta(l)gamma0", nested_product(
            [FieldGen("beta", l), FieldGen("gamma", 0)], conv
        ).scale(CoeffK.from_int(-1))),
        ("(s/2)b(l)", FieldExpr.generator("heis", l).scale(
            CoeffK.s() * Fraction(1, 2))),
    ):
        if not any(k in residue_0l.terms for k in target.terms):
            missing.append(name)

    # reversed pair: e^(l)(z) f0(w)
    res_l0 = wick_ope(ops.op("e", l), ops.op("f", 0), conv)
    residue_l0 = res_l0.zero_sector_pole(1)
    expected_l0 = (
        FieldExpr.generator("beta", l)
        * FieldExpr.exponential(ops.alpha)
        * FieldExpr.generator("gamma", 0)
    ).scale(CoeffK.from_int(2))

    # ghost-degree audit (zero-exponential monomials of f^(l) at charge -2)
    audited = []
    for mo in f_l.monomials():
        if not mo.momentum.is_zero():
            continue
        charge = _monomial_h0_ghost_charge(mo)
        if charge != -2:
            continue
        p = sum(1 for g in mo.factors if g.sector == 0 and g.kind == "beta")
        q = sum(1 for g in mo.factors if g.sector == 0 and g.kind == "gamma")
        audited.append({"monomial": mo.render(), "p": p, "q": q, "q_eq_p_plus_1": q == p + 1})

    # h^(l) bilinear structure: one sector-0 and one sector-l generator each
    bilinear_audit = []
    for mo in h_l.monomials():
        if len(mo.factors) == 2:
            sec = sorted(g.sector for g in mo.factors)
            bilinear_audit.append(
                {"monomial": mo.render(), "sectors": sec, "ok": sec == [0, l]}
            )

    return {
        "l": l,
        "conventions": asdict(conv),
        "residue_e0_fl": residue_0l.render(),
        "h_l": h_l.render(),
        "residue_differs_from_h_l": residue_0l != h_l,
        "exponential_momentum_witnesses": exp_witnesses,
        "missing_terms": missing,
        "residue_el_f0": residue_l0.render(),
        "expected_el_f0": expected_l0.render(),
        "el_f0_residue_matches_expected": residue_l0 == expected_l0,
        "el_f0_residue_differs_from_h_l": residue_l0 != h_l,
        "ghost_charge_audit": audited,
        "ghost_charge_audit_ok": all(a["q_eq_p_plus_1"] for a in audited),
        "h_l_bilinear_audit": bilinear_audit,
        "h_l_bilinear_audit_ok": all(b["ok"] for b in bilinear_audit),
    }


# ---------------------------------------------------------------------------
# Heisenberg branch cuts
# ---------------------------------------------------------------------------


def branch_cut_check(
    ops: OperatorSet, l1: int, l2: int, k_val: Optional[Fraction] = None
) -> dict:
    """The OPE e^(l1)(z) f^(l2)(w): universal fractional exponent and its
    arithmetic classification.

    Asserts the exponent -1/s^2 on every exponential-bearing contribution;
    records whether the zero-charge tail of f^(l2) contributes singular
    terms (the stated argument claims it does not; the computed result
    decides).  Classification is by ``exponent_class``, the rule of
    ``is_laurent``, optionally at k = k_val.  The expansion is made once per
    sector orbit and classified per call.
    """
    canon, labels = ops.orbit(l1, l2)
    x = orbit_report(_branch_cut_expansion, ops.conventions, canon)
    return _relabeled(_at_level(x, k_val), labels)


def _branch_cut_report(
    ops: OperatorSet, l1: int, l2: int, k_val: Optional[Fraction]
) -> dict:
    """The report of ``branch_cut_check`` made directly, with no memo."""
    return _at_level(_branch_cut_expansion(ops, l1, l2), k_val)


def _branch_cut_expansion(ops: OperatorSet, l1: int, l2: int) -> dict:
    """The part of the branch-cut report that no level changes, in rendered
    data, plus the leading fractional exponent ("exponent") to classify."""
    conv = ops.conventions
    minus_alpha_sq = CoeffK.zero() - (CoeffK.one() / CoeffK.k())
    res = wick_ope(ops.op("e", l1), ops.op("f", l2), conv, extra_orders=1)
    secs = res.sector_list()
    fracs = [sec for sec in secs if not sec.epsilon.is_zero()]
    zero_sector_singular = [
        (d, fe.render())
        for sec in secs
        if sec.epsilon.is_zero()
        for d, fe in sorted(sec.poles.items(), reverse=True)
        if d >= 1
    ]
    leading = lead_is_h0 = None
    if fracs:
        dmax = max(fracs[0].poles)
        leading = {"order_within_sector": dmax, "field": fracs[0].poles[dmax].render()}
        lead_is_h0 = fracs[0].poles[dmax] == ops.op("h", 0)
    return {
        "l1": l1,
        "l2": l2,
        "conventions": asdict(conv),
        "epsilon_values": [sec.epsilon.render() for sec in secs],
        "exponential_terms_all_minus_alpha_sq": all(
            sec.epsilon == minus_alpha_sq for sec in fracs
        ),
        "zero_charge_tail_singular_terms": zero_sector_singular,
        "zero_charge_tail_contributes_no_singularity": not zero_sector_singular,
        "exponent": fracs[0].epsilon if fracs else None,
        "laurent": None if fracs else is_laurent(res),
        "leading": leading,
        "leading_equals_h0": lead_is_h0,
    }


def _at_level(x: dict, k_val: Optional[Fraction]) -> dict:
    """The branch-cut report at k = k_val from the expansion x."""
    eps = x["exponent"]
    n = None if eps is None else integer_exponent(eps, k_val)
    leading = x["leading"] and dict(x["leading"])
    if leading and k_val is not None and n is not None:
        leading["total_pole_order"] = leading["order_within_sector"] - n
        leading["equals_h0"] = x["leading_equals_h0"]
    out = {key: v for key, v in x.items()
           if key not in ("exponent", "laurent", "leading_equals_h0")}
    out.update(k=str(k_val) if k_val is not None else "symbolic",
               classification=classification_text(x["laurent"] or exponent_class(n)),
               leading=leading)
    return out


def check_wakimoto_type(E: FieldExpr, F: FieldExpr, m: int) -> dict:
    """Structural membership in the raising/lowering operator class.

    (W1) E = :X e^(alpha phi0): with alpha != 0 and X a monomial in the
    ghosts of a single sector; (W2) F = :Y e^(-alpha phi0): + Z with Y, Z
    confined to ghost sectors {0, l'} and Heisenberg fields of nonzero
    sector; (W3) ghost-sector independence, axiomatic in this engine.
    """
    report: dict = {"w3": "satisfied (engine axiom)"}
    momenta = {mom for _factors, mom in E.terms}
    w1_ok = len(momenta) == 1
    alpha = None
    if w1_ok:
        alpha = next(iter(momenta))
        w1_ok = not alpha.is_zero()
    ghost_sectors = {
        g.sector for factors, _mom in E.terms for g in factors if g.kind != "heis"
    }
    heis_present = any(
        g.kind == "heis" for factors, _mom in E.terms for g in factors
    )
    w1_ok = w1_ok and len(ghost_sectors) <= 1 and not heis_present
    report["w1"] = {
        "ok": bool(w1_ok),
        "alpha": alpha.render() if alpha is not None else None,
        "ghost_sectors": sorted(ghost_sectors),
    }
    if alpha is None or alpha.is_zero():
        report["w2"] = {"ok": False, "reason": "no nonzero exponential on E"}
        report["ok"] = False
        return report

    minus_alpha = CoeffK.zero() - alpha
    violations = []
    f_ghost_sectors = set()
    for (factors, mom), coef in F.terms.items():  # violations in insertion order
        mo = NOMono(coef, factors, mom)
        if not (mo.momentum == minus_alpha or mo.momentum.is_zero()):
            violations.append({"monomial": mo.render(), "why": "momentum not in {-alpha, 0}"})
            continue
        for g in mo.factors:
            if g.kind == "heis":
                if g.sector == 0:
                    violations.append(
                        {"monomial": mo.render(),
                         "why": "sector-0 Heisenberg field in the ghost/remainder part"}
                    )
            else:
                f_ghost_sectors.add(g.sector)
    allowed = f_ghost_sectors <= {0} or len(f_ghost_sectors - {0}) == 1
    if not allowed:
        violations.append(
            {"monomial": None, "why": f"ghost sectors {sorted(f_ghost_sectors)} not of the form {{0, l'}}"}
        )
    report["w2"] = {"ok": not violations, "violations": violations,
                    "ghost_sectors": sorted(f_ghost_sectors)}
    report["ok"] = bool(report["w1"]["ok"] and report["w2"]["ok"])
    return report


def classify_type_II(
    ops: OperatorSet, l: int, k_val: Optional[Fraction] = None
) -> dict:
    """Arithmetic classification of the sector-pair (l, m-l) OPE.

    Case (a): branch cut for 1/k not an integer; case (b): integer pole of
    order at least n = 1/k >= 1, with the leading residue reported (not
    asserted) against h0; case (c): regular for 1/k a non-positive integer.
    """
    check = branch_cut_check(ops, l, ops.m - l, k_val)
    cls = check["classification"]
    if cls == "branch_cut":
        case = "a"
    elif cls.startswith("integer_pole"):
        case = "b"
    else:
        case = "c"
    return {"l": l, "m": ops.m, "k": check["k"], "case": case, "detail": check}


def critical_level(l: int, m: int) -> Fraction:
    """The level m/(l(m-l)+m) at which a simple pole would be restored."""
    if not 1 <= l <= m - 1:
        raise ValueError("l must lie in 1..m-1")
    return Fraction(m, l * (m - l) + m)


def critical_level_exponent_check(l: int, m: int) -> bool:
    """l(m-l)/m - 1/k_crit == -1, exactly."""
    k = critical_level(l, m)
    return Fraction(l * (m - l), m) - 1 / k == Fraction(-1)


# ---------------------------------------------------------------------------
# Full obstruction matrix
# ---------------------------------------------------------------------------


@dataclass
class ObstructionReport:
    m: int
    k: str
    conventions: dict
    calibration: dict
    cells: dict  # (l1, l2) -> {"status": ..., "witness": ...}

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "conventions": self.conventions,
            "calibration": self.calibration,
            "cells": [
                {"l1": l1, "l2": l2, **self.cells[(l1, l2)]}
                for (l1, l2) in sorted(self.cells)
            ],
        }

    def to_markdown(self) -> str:
        lines = [
            f"# obstruction matrix (m={self.m}, k={self.k})",
            "",
            "| l1 \\ l2 |" + "".join(f" {l2} |" for l2 in range(self.m)),
            "|" + " --- |" * (self.m + 1),
        ]
        for l1 in range(self.m):
            row = f"| {l1} |"
            for l2 in range(self.m):
                row += f" {self.cells[(l1, l2)]['status']} |"
            lines.append(row)
        return "\n".join(lines)


def obstruction_report(
    m: int,
    k_val: Optional[Fraction] = None,
    conventions: Optional[ConventionConfig] = None,
) -> ObstructionReport:
    """Status of every sector pair (l1, l2), derived from computed OPEs.

    Each cell relabels the witness fields it keeps from its orbit report;
    of the sector-l operators only f^(l) is built, for the canonical labels.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if conventions is None:
        conventions, calib = working_config()
    else:
        calib = {"chosen": asdict(conventions), "mode": "explicit"}
    f1 = _sector_templates(conventions)[0]["f", 1]
    f_sectors = {l: f1.renamed({0: 0, 1: l}).sectors() for l in range(1, m)}
    cells: dict = {}
    # each branch-cut orbit is classified once per call, not once per cell
    classified = functools.cache(
        lambda canon: _at_level(orbit_report(_branch_cut_expansion, conventions, canon), k_val))

    diag = _config_diagnostics(conventions)
    anomalies = [name for name, ok in diag["checks"].items() if not ok]
    cells[(0, 0)] = {
        "status": "realized" if diag["residue_match"] else "not_realized",
        "witness": {
            "first_order_identities_hold": diag["residue_match"],
            "anomalies": anomalies,
        },
    }
    for l in range(1, m):
        canon, labels = _orbit((l,), f_sectors)
        crc = orbit_report(_charge_residue_report, conventions, canon)
        cells[(0, l)] = {
            "status": "charge_residue_obstructed"
            if crc["residue_differs_from_h_l"]
            else "realized",
            "witness": _relabeled({
                "residue": crc["residue_e0_fl"],
                "exponential_momentum_witnesses": crc["exponential_momentum_witnesses"],
                "missing_terms": crc["missing_terms"],
            }, labels),
        }
        cells[(l, 0)] = {
            "status": "charge_residue_obstructed"
            if crc["el_f0_residue_differs_from_h_l"]
            else "realized",
            "witness": _relabeled({
                "residue": crc["residue_el_f0"],
                "expected_worked_example": crc["expected_el_f0"],
                "matches_worked_example": crc["el_f0_residue_matches_expected"],
            }, labels),
        }
    for l1 in range(1, m):
        for l2 in range(1, m):
            canon, labels = _orbit((l1, l2), f_sectors)
            chk = classified(canon)
            total = l1 + l2
            btype = "I" if total < m else ("II" if total == m else "III")
            note = None
            if btype == "III":
                note = "wraps to sector {} via u^m = p(t)".format(total - m)
            cells[(l1, l2)] = {
                "status": chk["classification"],
                "bracket_type": btype,
                **({"note": note} if note else {}),
                "witness": _relabeled({
                    "epsilon_values": chk["epsilon_values"],
                    "zero_charge_tail_singular_terms": chk[
                        "zero_charge_tail_singular_terms"
                    ],
                    "leading": chk["leading"],
                }, labels),
            }
    return ObstructionReport(
        m=m,
        k=str(k_val) if k_val is not None else "symbolic",
        conventions=asdict(conventions),
        calibration=calib,
        cells=cells,
    )
