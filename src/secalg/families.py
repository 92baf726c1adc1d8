"""Structure-constant polynomial families defined by a three-term recurrence.

For a positive rational step parameter m' and r >= 2, the family P^(l,j)_k
is the unique sequence of polynomials in c with

    (m'k + 2r) P_k = 2c (m'k + r) P_{k-r} - m'k P_{k-2r},      k >= 0,
    P_{-j} = 1,   P_{-s} = 0  for s in {1..2r}, s != j.

The sequence exists and is unique because the recurrence couples only one
residue class of k mod r at a time and the leading coefficient m'k + 2r is
positive for every k >= 0.  The recurrence is homogeneous in its three
coefficients, so for m' = p/q it runs on the integer triple
(pk + 2rq, pk + rq, pk), the rational one times q.  The sector-l families at
integer m coincide with the sector-1 families at the rational parameter m/l
(rescaling identity), which ``rescaling_check`` proves for every k: the sector
triple (mk + 2rl, mk + rl, mk) is gcd(m, l) times the one at m/l on the pairs both
walks read, and both walks start from ``seeds(r, j)`` (Petkovsek, Wilf and
Zeilberger, *A = B*, 1996).

Two classical facts place the families.  For 1 <= j <= r, the class of -j
holds the associated ultraspherical polynomials (Bustoz and Ismail,
*Trans. AMS* 272, 1982):

    P^(l,j)_(rn-j)(c) = C_n(c; lam, a),   lam = 1 - 1/m',   a = 2/m' - j/r,
    (N+a) C_N = 2c (N+a+lam-1) C_(N-1) - (N+a+2lam-2) C_(N-2),
    C_(-1) = 0,   C_0 = 1.

Families j and j + r solve the same recurrence in that class, so their
Casoratian P^(j)_k P^(j+r)_(k-r) - P^(j)_(k-r) P^(j+r)_k is free of c: the
product of m'i/(m'i + 2r) over the class up to k (Abel's identity; Elaydi,
*An Introduction to Difference Equations*, section 2.2).
``test_casoratian_is_free_of_c`` checks it on the walk's values.

The recurrence (not any closed form, and not the Kahler oracle) is the
normative definition here; how the families compare with oracle-reduced
classes is checked in ``tests/test_families.py``
(``test_reconcile_with_kahler_reports_no_verbatim_match``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .coeffs import PolyC, walk_recurrence

#: Documented indexing note for stated-table comparisons: families whose
#: nonzero initial condition sits at an odd offset -j have their nonzero
#: values at odd recurrence indices k (for r = 2), while the printed table
#: lists them under even column labels.  Reproduction tests therefore read
#: odd-j table entries at recurrence indices k = 1, 3, ...
INDEX_RECONCILIATION_NOTE = (
    "index reconciliation: odd-j families vanish at even k under the defining "
    "recurrence; printed even-indexed column labels for odd-j rows "
    "correspond to recurrence indices k = 1, 3, ... (reported, not guessed)"
)


class FamilySpec:
    """Family label: sector label l, initial-condition slot j, parameter m', r."""

    __slots__ = ("l", "j", "m_prime", "r", "_hash")

    def __init__(self, l: int, j: int, m_prime: Fraction, r: int):
        m_prime = Fraction(m_prime)
        if l < 1:
            raise ValueError("sector label l must be >= 1")
        if not 1 <= j <= 2 * r:
            raise ValueError(f"j must lie in 1..{2*r}")
        if m_prime <= 0:
            raise ValueError("m' must be positive")
        if r < 2:
            raise ValueError("r must be >= 2")
        self.l, self.j, self.m_prime, self.r = l, j, m_prime, r
        self._hash = hash((l, j, m_prime, r))

    def __eq__(self, other):
        if type(other) is not FamilySpec:
            return NotImplemented
        return self is other or (self.l == other.l and self.j == other.j
                                 and self.m_prime == other.m_prime and self.r == other.r)

    def __hash__(self):
        return self._hash


def _linear(pairs):
    """The walker triple k -> (a0 k + b0, a1 k + b1, a2 k + b2) of the pairs [a, b]."""
    (a0, b0), (a1, b1), (a2, b2) = pairs
    return lambda k: (a0 * k + b0, a1 * k + b1, a2 * k + b2)


def _family_pairs(m_prime: Fraction, r: int) -> list[list[int]]:
    """(pk + 2rq, pk + rq, pk) for m' = p/q, the rational triple times q, as pairs [a, b]."""
    p, q = m_prime.numerator, m_prime.denominator
    return [[p, 2 * r * q], [p, r * q], [p, 0]]


def seeds(r: int, j: int) -> dict[int, PolyC]:
    """P_{-j} = 1 and P_{-s} = 0 for the other s in 1..2r (also a Kahler coordinate's seeds)."""
    return {-s: PolyC.const(1) if s == j else PolyC.zero() for s in range(1, 2 * r + 1)}


#: Per-spec memos of family values (confined; no cross-spec sharing).
_memos: dict[FamilySpec, dict[int, PolyC]] = {}


def eval_family(spec: FamilySpec, k: int) -> PolyC:
    """The unique family value P^(l,j)_k as a polynomial in c."""
    if k < -2 * spec.r:
        raise ValueError(f"family index {k} below -2r")
    values = _memos.get(spec)
    if values is None:
        values = _memos[spec] = seeds(spec.r, spec.j)
    return walk_recurrence(values, k, spec.r, _linear(_family_pairs(spec.m_prime, spec.r)))


def eval_family_chain(spec: FamilySpec, k: int) -> PolyC:
    """P_k walked from the initial values on a fresh memo.

    Confirms that extending the shared memo of ``eval_family`` gives the
    same values as a walk from scratch.
    """
    return walk_recurrence(seeds(spec.r, spec.j), k, spec.r,
                           _linear(_family_pairs(spec.m_prime, spec.r)))


def _sector_pairs(m: int, r: int, l: int) -> list[list[int]]:
    """Sector-l (mk + 2rl, mk + rl, mk), not divided through by l, as pairs [a, b]."""
    return [[m, 2 * r * l], [m, r * l], [m, 0]]


def rescaling_check(m: int, r: int, k_max: int = 20) -> list[dict]:
    """One certificate per sector l that P^(l,j)_k = P^(1,j)_k at m' = m/l, for every j and
    k >= -2r: it holds when the sector pairs are g times the family pairs, entry by entry, and
    the family lead is positive.  ``covers`` counts its (j, k) with k <= k_max."""
    if r < 2:
        raise ValueError(f"r {r} below 2: p(t) = 1 - 2c t^r + t^(2r) needs r >= 2")
    if k_max < -2 * r:
        raise ValueError(f"k_max {k_max} below -2r = {-2 * r}")
    if m < 2:
        raise ValueError(f"m {m} below 2: there is no sector to check")
    out = []
    for l in range(1, m):
        g, m_prime = gcd(m, l), Fraction(m, l)
        sector, family = _sector_pairs(m, r, l), _family_pairs(m_prime, r)
        out.append({"l": l, "g": g, "m_prime": str(m_prime), "sector": sector, "family": family,
                    "premises": ["shared seed window: both sides start from seeds(r, j)",
                                 "positive lead: pk + 2rq > 0 for k >= 0, one solution a side"],
                    "holds": all(s == [g * a, g * b] for s, (a, b) in zip(sector, family))
                    and min(family[0]) > 0, "covers": 2 * r * (k_max + 2 * r + 1)})
    return out


class FamilyTable:
    __slots__ = ("spec", "values")

    def __init__(self, spec: FamilySpec, values: dict[int, PolyC] | None = None):
        self.spec, self.values = spec, {} if values is None else values

    def to_json_dict(self) -> dict:
        return {
            "spec": {
                "l": self.spec.l,
                "j": self.spec.j,
                "m_prime": str(self.spec.m_prime),
                "r": self.spec.r,
            },
            "values": [
                {"k": k, "poly": self.values[k].render()} for k in sorted(self.values)
            ],
        }

    def to_markdown(self) -> str:
        spec = self.spec
        ks = sorted(self.values)
        head = f"| family (l={spec.l}, j={spec.j}, m'={spec.m_prime}, r={spec.r}) |"
        head += "".join(f" P_{k} |" for k in ks)
        sep = "|" + " --- |" * (len(ks) + 1)
        row = "| values |" + "".join(
            f" {self.values[k].render_ratio()} |" for k in ks
        )
        return "\n".join([head, sep, row])


def family_table(spec: FamilySpec, k_max: int) -> FamilyTable:
    """All family values for -2r <= k <= k_max."""
    if k_max < -2 * spec.r:
        raise ValueError(f"k_max {k_max} below -2r = {-2 * spec.r}")
    return FamilyTable(
        spec, {k: eval_family(spec, k) for k in range(-2 * spec.r, k_max + 1)}
    )
