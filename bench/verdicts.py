"""Request handlers and verdict checks.

``run_<kind>(req, ctx)`` is the timed part: it calls the public API or the
in-process CLI (``secalg.cli.main``) and returns what the program answered.
``check_<kind>(req, out)`` runs untimed and untraced afterwards and raises
``WrongVerdict`` when the answer disagrees with one the program does not
itself assert: a closed formula, a Lie-algebra axiom, exactness of d(b), an
independent recurrence in plain ``Fraction`` arithmetic, or one of the four
documented findings (05b, 06, 07b, 10a) keeping its failing verdict and
witness.

Program functions are looked up on their modules at call time, so the
wrappers of a traced run see every call.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from secalg import families, kahler, uce
from secalg.coeffs import CoeffK
from secalg.kahler import DiffForm
from secalg.ring import RingElem, RingParams
from secalg.uce import CurrentElem, UCEElem


class WrongVerdict(AssertionError):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongVerdict(what)


# ---------------------------------------------------------------------------
# Independent readers and formulas (plain Python, no engine code)
# ---------------------------------------------------------------------------


def parse_qc(text: str) -> dict[int, Fraction]:
    """A rendered polynomial in c over Q, e.g. '8/11*c^4 - 18/55*c^2'."""
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    parts = re.split(r" ([+-]) ", text)
    signed = [(sign, parts[0])] + [
        (1 if op == "+" else -1, term) for op, term in zip(parts[1::2], parts[2::2])
    ]
    out: dict[int, Fraction] = {}
    for sgn, term in signed:
        if term.startswith("c"):
            coef, var = "1", term
        elif "*" in term:
            coef, var = term.split("*", 1)
        else:
            coef, var = term, ""
        if var == "":
            e = 0
        elif var == "c":
            e = 1
        elif var.startswith("c^"):
            e = int(var[2:])
        else:
            raise WrongVerdict(f"not a polynomial in c: {text!r}")
        out[e] = out.get(e, Fraction(0)) + sgn * Fraction(coef)
    return {e: v for e, v in out.items() if v}


def qc_add(a: dict, b: dict, lam: Fraction = Fraction(1)) -> dict:
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, Fraction(0)) + lam * v
    return {e: v for e, v in out.items() if v}


def qc_eval(p: dict, c0: Fraction) -> Fraction:
    return sum((v * c0**e for e, v in p.items()), Fraction(0))


def class_json(doc: dict) -> dict:
    """A DiffClass JSON dict as {'w0' or (l, j): Q[c] polynomial}."""
    out = {"w0": parse_qc(doc["omega0"])}
    for ent in doc["odd"]:
        out[(ent["l"], ent["j"])] = parse_qc(ent["coef"])
    return {key: v for key, v in out.items() if v}


def class_obj(cls) -> dict:
    return class_json(cls.to_json_dict())


def class_comb(a: dict, b: dict, lam: Fraction = Fraction(1)) -> dict:
    out = dict(a)
    for key, v in b.items():
        out[key] = qc_add(out.get(key, {}), v, lam)
    return {key: v for key, v in out.items() if v}


def family_at(m_prime: Fraction, r: int, j: int, k: int, c0: Fraction) -> Fraction:
    """P^(j)_k(c0) from (m'k+2r) P_k = 2c(m'k+r) P_{k-r} - m'k P_{k-2r}."""
    vals = {-s: Fraction(int(s == j)) for s in range(1, 2 * r + 1)}
    start = k % r
    for kk in range(start, k + 1, r):
        vals[kk] = (2 * c0 * (m_prime * kk + r) * vals[kk - r]
                    - m_prime * kk * vals[kk - 2 * r]) / (m_prime * kk + 2 * r)
    return vals[k]


def split_top(expr: str) -> list[str]:
    """Top-level summands of a rendered field expression."""
    out, depth, cur, i = [], 0, "", 0
    while i < len(expr):
        ch = expr[i]
        if depth == 0 and expr[i:i + 3] in (" + ", " - "):
            out.append(cur)
            cur = ""
            i += 3
            continue
        depth += (ch == "(") - (ch == ")")
        cur += ch
        i += 1
    out.append(cur)
    return [t for t in out if t]


_GHOST = re.compile(r"(beta|gamma)\[(\d+)\]")
_EXP = re.compile(r"exp\(([^,]+), phi0\)")
_EPS_S = re.compile(r"^(-?\d+(?:/\d+)?)/s\^2$")


def laurent_class(eps: Fraction | None) -> str:
    """Arithmetic classification of (z-w)^eps: the generalized-Laurent rule."""
    if eps is None or eps.denominator != 1:
        return "branch_cut"
    return f"integer_pole({-eps.numerator})" if eps <= -1 else "regular"


def ope_sectors(doc: dict) -> list[dict]:
    if "sectors" in doc:
        return doc["sectors"]
    return [doc] if "epsilon" in doc else []


def epsilon_at(text: str, k: Fraction | None) -> Fraction | None:
    """A rendered prefactor exponent, at level k (None when it stays symbolic)."""
    m = _EPS_S.match(text)
    if m:
        return None if k is None else Fraction(m.group(1)) / k
    return Fraction(text)


# ---------------------------------------------------------------------------
# Input builders
# ---------------------------------------------------------------------------


def qc_text(a0: str, a1: str) -> str:
    return f"({a0} + ({a1})*c)"


def ring_text(terms) -> str:
    return " + ".join(f"{qc_text(a0, a1)}*t^{t}*u^{u}" for a0, a1, t, u in terms)


def ring_obj(params: RingParams, terms) -> RingElem:
    out = RingElem.zero(params)
    for a0, a1, t, u in terms:
        coef = CoeffK.from_rat(Fraction(a0)) + CoeffK.c() * CoeffK.from_rat(Fraction(a1))
        out = out + RingElem.monomial(params, coef, t, u)
    return out


def uce_obj(params: RingParams, parts: dict) -> UCEElem:
    return UCEElem(CurrentElem(params, {g: ring_obj(params, t) for g, t in parts.items()}))


def mono_text(coef, t: int, u: int) -> str:
    return f"({coef})*t^{t}*u^{u}"


def cli_json(ctx, argv: list[str]) -> tuple[int, dict]:
    rc, text = ctx.cli(argv)
    return rc, json.loads(text)


# ---------------------------------------------------------------------------
# bracket workload
# ---------------------------------------------------------------------------


def _mr(req) -> list[str]:
    return ["--m", str(req["m"]), "--r", str(req["r"])]


def run_bracket_cli(req, ctx):
    a, b = ring_text(req["a"]), ring_text(req["b"])
    ab = cli_json(ctx, ["bracket", *_mr(req), "--x", req["x"], "--a", a, "--y", req["y"], "--b", b])
    ba = cli_json(ctx, ["bracket", *_mr(req), "--x", req["y"], "--a", b, "--y", req["x"], "--b", a])
    return ab, ba


_KILLING_ZERO = {("e", "e"), ("f", "f"), ("e", "h"), ("h", "e"), ("f", "h"), ("h", "f")}


def check_bracket_cli(req, out):
    (rc1, ab), (rc2, ba) = out
    expect(rc1 == 0 and rc2 == 0, "nonzero exit status")
    cab, cba = class_json(ab["oracle"]["central"]), class_json(ba["oracle"]["central"])
    expect(not class_comb(cab, cba), "central part not antisymmetric")
    if (req["x"], req["y"]) in _KILLING_ZERO:
        expect(not cab, "central part nonzero although <x, y> = 0")


def run_antisym_api(req, ctx):
    params = RingParams(req["m"], req["r"])
    a, b = uce_obj(params, req["a"]), uce_obj(params, req["b"])
    return uce.uce_bracket_oracle(a, b), uce.uce_bracket_oracle(b, a)


def check_antisym_api(req, out):
    ab, ba = out
    expect((ab + ba).is_zero(), "[a, b] + [b, a] != 0")


def run_jacobi_api(req, ctx):
    params = RingParams(req["m"], req["r"])
    a, b, c = (uce_obj(params, req[x]) for x in "abc")
    br = uce.uce_bracket_oracle
    return br(br(a, b), c), br(br(b, c), a), br(br(c, a), b)


def check_jacobi_api(req, out):
    expect((out[0] + out[1] + out[2]).is_zero(), "Jacobi sum != 0")


def run_audit_cli(req, ctx):
    return cli_json(ctx, ["bracket-audit", *_mr(req), "--expbound", str(req["expbound"])])


def check_audit_cli(req, out):
    rc, doc = out
    m, e = req["m"], req["expbound"]
    expect(rc == 0, "nonzero exit status")
    expect(len(doc["pairs"]) == (m * m - 1) * (2 * e + 1) ** 2, "wrong number of pairs")
    fails = 0
    for ent in doc["pairs"]:
        if ent["type"] == "I":
            p = ent["pair"]
            # finding 05b: the printed Type I coefficient holds iff l2*(i+j) = 0
            expect(ent["match"] == (p["l2"] * (p["i"] + p["j"]) == 0), f"Type I pair {p}")
            fails += not ent["match"]
    expect(fails > 0, "finding 05b lost its failing Type I pairs")


def run_lie_api(req, ctx):
    return uce.lie_axiom_check(RingParams(req["m"], req["r"]), exp_bound=req["expbound"],
                               direct_exp_bound=req["expbound"])


def check_lie_api(req, rep):
    expect(rep["ok"] is True, "lie_axiom_check reports failures")
    expect(all(not v for k, v in rep.items() if k.endswith("_failures")), "failure lists")
    expect(all(n > 0 for n in rep["counts"].values()), "empty check")


def run_dim_cli(req, ctx):
    return cli_json(ctx, ["dim", *_mr(req)])


def check_dim_cli(req, out):
    rc, doc = out
    expect(rc == 0 and doc["dim"] == 2 * req["r"] * (req["m"] - 1) + 1, "basis dimension")


# ---------------------------------------------------------------------------
# structconst workload
# ---------------------------------------------------------------------------


def run_reduce_linear_cli(req, ctx):
    (qf, ef, lf), (qg, eg, lg) = req["f"], req["g"]
    lam = Fraction(req["lam"])
    f, g = mono_text(qf, ef, lf), mono_text(qg, eg, lg)
    h = f + " + " + mono_text(lam * Fraction(qg), eg, lg)
    return [cli_json(ctx, ["kahler-reduce", *_mr(req), "--dt", x]) for x in (f, g, h)]


def check_reduce_linear_cli(req, out):
    expect(all(rc == 0 for rc, _ in out), "nonzero exit status")
    rf, rg, rh = (class_json(doc) for _, doc in out)
    expect(rh == class_comb(rf, rg, Fraction(req["lam"])), "reduction is not linear")


def run_exact_cli(req, ctx):
    dt, du = [], []
    for q, t, u in req["b"]:
        q = Fraction(q)
        if t:
            dt.append(mono_text(q * t, t - 1, u))
        if u:
            du.append(mono_text(q * u, t, u - 1))
    argv = ["kahler-reduce", *_mr(req), "--dt", " + ".join(dt) or "0"]
    if du:
        argv += ["--du", " + ".join(du)]
    return cli_json(ctx, argv)


def check_exact_cli(req, out):
    rc, doc = out
    expect(rc == 0 and not class_json(doc), "exact form d(b) does not reduce to zero")


def run_structconst_api(req, ctx):
    params = RingParams(req["m"], req["r"])
    l, k = req["l"], req["k"]
    sc = kahler.structure_constants(l, k, params)
    form = DiffForm(RingElem.zero(params), RingElem.monomial(params, CoeffK.one(), k, l - 1))
    return sc, kahler.reduce_oracle(form)


def check_structconst_api(req, out):
    # d(t^k u^l) = k t^(k-1) u^l dt + l t^k u^(l-1) du is exact, so the
    # coordinates of t^(k-1) u^l dt are -(l/k) times those of t^k u^(l-1) du.
    sc, du = out
    l, k = req["l"], req["k"]
    want = class_comb({}, class_obj(du), Fraction(-l, k))
    got = {(l, j): parse_qc(v.render()) for j, v in sc.items()}
    expect({key: v for key, v in got.items() if v} == want, "structure constants")


def run_rescaling_cli(req, ctx):
    return cli_json(ctx, ["rescaling", *_mr(req), "--kmax", str(req["kmax"])])


def check_rescaling_cli(req, out):
    rc, doc = out
    m, r, kmax = req["m"], req["r"], req["kmax"]
    expect(rc == 0 and doc["failures"] == [], "rescaling reports failures")
    expect(doc["checked"] == (m - 1) * 2 * r * (kmax + 2 * r + 1), "rescaling count")


def run_families_cli(req, ctx):
    return cli_json(ctx, ["families", *_mr(req), "--j", str(req["j"]), "--l", str(req["l"]),
                          "--kmax", str(req["kmax"])])


def check_families_cli(req, out):
    rc, doc = out
    m, r, j, l, kmax = req["m"], req["r"], req["j"], req["l"], req["kmax"]
    expect(rc == 0 and len(doc["values"]) == kmax + 2 * r + 1, "family table size")
    c0, mp = Fraction(req["c0"]), Fraction(m, l)
    sample = [v for v in doc["values"] if v["k"] % 37 == 0 or v["k"] > kmax - 3]
    for ent in sample:
        want = family_at(mp, r, j, ent["k"], c0) if ent["k"] >= 0 else Fraction(int(ent["k"] == -j))
        expect(qc_eval(parse_qc(ent["poly"]), c0) == want, f"family value at k={ent['k']}")


def run_eval_cold_api(req, ctx):
    spec = families.FamilySpec(l=1, j=req["j"], m_prime=Fraction(req["m_prime"]), r=req["r"])
    return families.eval_family(spec, req["k"])


def check_eval_cold_api(req, poly):
    want = family_at(Fraction(req["m_prime"]), req["r"], req["j"], req["k"], Fraction(req["c0"]))
    expect(qc_eval(parse_qc(poly.render()), Fraction(req["c0"])) == want, "family value")


# ---------------------------------------------------------------------------
# ope workload
# ---------------------------------------------------------------------------


def _k_args(k):
    return [] if k is None else ["--k", k]


def run_obstructions_cli(req, ctx):
    return cli_json(ctx, ["obstructions", "--m", str(req["m"]), *_k_args(req["k"])])


def check_obstructions_cli(req, out):
    rc, doc = out
    m = req["m"]
    k = None if req["k"] is None else Fraction(req["k"])
    expect(rc == 0 and len(doc["cells"]) == m * m, "obstruction matrix size")
    want = laurent_class(None if k is None else -1 / k)
    for cell in doc["cells"]:
        l1, l2 = cell["l1"], cell["l2"]
        if l1 and l2:
            expect(cell["status"] == want, f"cell ({l1},{l2}) {cell['status']} != {want}")
            # finding 10a: the zero-charge tail keeps contributing at epsilon 0
            expect(bool(cell["witness"]["zero_charge_tail_singular_terms"]), "10a witness")
        elif l1 or l2:
            expect(cell["status"] == "charge_residue_obstructed", f"cell ({l1},{l2})")
        else:
            expect(cell["status"] == "realized", "cell (0,0)")


def run_charges_cli(req, ctx):
    return cli_json(ctx, ["charges", "--m", str(req["m"])])


def check_charges_cli(req, out):
    rc, doc = out
    ents = doc["entries"]
    expect(rc == 1 and len(ents) == req["m"] - 1, "charges exit status / size")
    for ent in ents:
        expect(ent["e_ok"] and ent["e_charge"] == "2", "raising charge != 2")
        # finding 07b: f-charge fails, first-order pole = -2*(exponential terms)
        expect(not ent["f_ok"] and ent["f_pole_equals_minus2_exponential_terms"]
               and ent["f_first_order_pole"], "07b witness")


def run_calibrate_cli(req, ctx):
    return cli_json(ctx, ["calibrate"])


_RESIDUE = [{"nesting": "left", "sigma_rev": -1}, {"nesting": "right", "sigma_rev": -1}]


def check_calibrate_cli(req, out):
    rc, doc = out
    # finding 06: no configuration passes fully; residues select sigma_rev = -1
    expect(rc == 1 and doc["passing"] == [] and doc["residue_passing"] == _RESIDUE, "06 verdict")
    for d in doc["per_config"]:
        if d["config"]["sigma_rev"] == -1:
            expect(not d["checks"]["ef_double_is_k"] and not d["checks"]["hf_no_double"],
                   "06 witness")


def run_critical_cli(req, ctx):
    return cli_json(ctx, ["critical-levels", "--mmax", str(req["mmax"])])


def check_critical_cli(req, out):
    rc, doc = out
    rows = doc["rows"]
    mmax = req["mmax"]
    expect(rc == 0 and len(rows) == sum(m - 1 for m in range(2, mmax + 1)), "row count")
    for row in rows:
        m, l = row["m"], row["l"]
        expect(Fraction(row["k_crit"]) == Fraction(m, l * (m - l) + m), f"k_crit({l},{m})")
        expect(row["symmetry"] and row["exponent_identity"], "critical-level identities")


def run_ope_cli(req, ctx):
    argv = ["ope", "--m", str(req["m"]), "--e", req["e"], "--f", req["f"], *_k_args(req["k"])]
    return cli_json(ctx, argv)


def check_ope_cli(req, out):
    rc, doc = out
    expect(rc == 0, "nonzero exit status")
    sectors = ope_sectors(doc)
    momentum = Fraction(req["momentum"])
    want_ghosts = {int(s): n for s, n in req["ghosts"].items()}
    has_pole = False
    for sec in sectors:
        # one exponential only, so the prefactor exponent a*b is 0
        expect(sec["epsilon"] == "0", "nonzero prefactor exponent")
        for pole in sec["poles"]:
            has_pole |= pole["order"] >= 1
            for mono in split_top(pole["field"]):
                ghosts = {s: 0 for s in want_ghosts}
                for kind, s in _GHOST.findall(mono):
                    ghosts[int(s)] += 1 if kind == "beta" else -1
                expect(ghosts == want_ghosts, f"ghost number not conserved in {mono}")
                exps = [Fraction(x) for x in _EXP.findall(mono)]
                expect(exps == [momentum], f"momentum not conserved in {mono}")
    expect(doc["classification"] == ("laurent" if has_pole else "regular"), "classification")


def run_exp_pair_cli(req, ctx):
    argv = ["ope", "--m", str(req["m"]), "--e", f"exp({req['p']}/s,phi0)",
            "--f", f"exp({req['q']}/s,phi0)", "--k", req["k"]]
    if req["extra"]:
        argv += ["--extra-orders", str(req["extra"])]
    return cli_json(ctx, argv)


def check_exp_pair_cli(req, out):
    rc, doc = out
    k = Fraction(req["k"])
    eps = Fraction(req["p"] * req["q"]) / k  # a*b with a = p/s, b = q/s, s^2 = k
    sectors = ope_sectors(doc)
    expect(rc == 0 and sectors, "leading term (z-w)^(ab) missing")
    expect(all(epsilon_at(sec["epsilon"], k) == eps for sec in sectors), "leading exponent != ab")
    expect(doc["classification"] == laurent_class(eps), "classification")
