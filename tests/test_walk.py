"""The fraction-free walker against the canonical loop it replaced.

``reference_walk`` is ``coeffs.walk_recurrence`` as it was before raw chains:
every step is one canonical value, built by public arithmetic.  Family values
and Kahler columns are asked in ascending, descending and shuffled order, each
order on fresh memos, and must equal the reference; every value returned must
be a canonical ``PolyC``; and a descending order must make no more calls of
the triple than an ascending one, so a far request first leaves nothing to
walk again.
"""

import random
from fractions import Fraction as F
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from secalg import families, kahler
from secalg.coeffs import PolyC, walk_recurrence
from secalg.kahler import W0, DiffClass, ReductionTable
from secalg.ring import RingParams

C = PolyC.c()


def reference_walk(values: dict, k: int, step: int, triple, scale):
    """The value at k by lead * P_kk = 2c * mid * P_(kk-step) - low * P_(kk-2step), canonical at
    every step (``scale(v, q)`` is v times the PolyC q); two zeros in a row end the walk."""
    if k in values:
        return values[k]
    top = k - step
    while top not in values:
        top -= step
    older, newer = values[top - step], values[top]
    for kk in range(top + step, k + step, step):
        if older.is_zero() and newer.is_zero():
            return newer
        lead, mid, low = triple(kk)
        assert lead > 0
        older, newer = newer, (scale(newer, C * F(2 * mid, lead))
                               + scale(older, PolyC.const(F(-low, lead))))
        values[kk] = newer
    return newer


def _counted(triple, counter):
    def wrapped(kk):
        counter[0] += 1
        return triple(kk)
    return wrapped


def _orders(items, seed):
    shuffled = list(items)
    random.Random(seed).shuffle(shuffled)
    return {"ascending": sorted(items), "descending": sorted(items, reverse=True),
            "shuffled": shuffled}


def _assert_canonical(v: PolyC):
    assert type(v) is PolyC and type(v.ints) is tuple
    assert PolyC(v.coeffs) == v  # the unique form: rebuilt from its coefficients, equal


@settings(derandomize=True, max_examples=40, deadline=None)
@given(p=st.integers(1, 12), q=st.integers(1, 4), r=st.sampled_from([2, 3]),
       j=st.integers(1, 6), ks=st.lists(st.integers(-4, 90), min_size=1, max_size=12),
       seed=st.integers(0, 99))
def test_family_walk_matches_the_canonical_loop(p, q, r, j, ks, seed):
    spec = families.FamilySpec(l=1, j=min(j, 2 * r), m_prime=F(p, q), r=r)
    triple = families._linear(families._family_pairs(spec.m_prime, r))
    want = {}
    ref = families.seeds(r, spec.j)
    for k in sorted(set(ks)):
        want[k] = reference_walk(ref, k, r, triple, PolyC.__mul__)
    calls = {}
    for name, order in _orders(set(ks), seed).items():
        memo, counter = families.seeds(r, spec.j), [0]
        for k in order:
            got = walk_recurrence(memo, k, r, _counted(triple, counter))
            _assert_canonical(got)
            assert got == want[k], (name, k)
        # a second read settles a raw entry in place, to the same value
        assert all(walk_recurrence(memo, k, r, triple) == want[k] for k in order)
        calls[name] = counter[0]
    assert calls["descending"] <= calls["ascending"]
    assert calls["shuffled"] == calls["ascending"]


_RINGS = [RingParams(m, r) for m in (2, 3, 4) for r in (2, 3)]


def _reference_column(params: RingParams, e: int, l: int) -> DiffClass:
    """cl(e) in sector l >= 1 by the canonical DiffClass loop, from the basis block."""
    one = PolyC.const(1)
    seeds = {-j: DiffClass._of(params, {(l, j): one}) for j in range(1, 2 * params.r + 1)}
    return reference_walk(seeds, e, params.r if e >= 0 else -params.r,
                          kahler._solved_for(params, l, params.m + l), DiffClass.scale)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(params=st.sampled_from(_RINGS), data=st.data(), seed=st.integers(0, 99))
def test_kahler_columns_match_the_canonical_loop(params, data, seed):
    span = 12 * params.r
    cols = data.draw(st.lists(st.tuples(st.integers(-span, span), st.integers(0, params.m - 1)),
                              min_size=1, max_size=10, unique=True))
    want = {(e, l): _reference_column(params, e, l) if l else
            DiffClass._of(params, {W0: PolyC.const(1)} if e == -1 else {}) for e, l in cols}
    calls = {}
    for name, order in _orders(cols, seed).items():
        table = ReductionTable(params)
        with mock.patch.object(kahler, "_relation", wraps=kahler._relation) as relation:
            for col in order:
                got = table.reduce_monomial(*col)
                assert got == want[col], (name, col)
                for v in got.terms.values():
                    _assert_canonical(v)
        calls[name] = relation.call_count
    assert calls["descending"] <= calls["ascending"]
    assert calls["shuffled"] == calls["ascending"]


def test_zero_class_index_is_held_once_read():
    """A read in a residue class whose two seeds are zero ends at the two-zeros stop and holds
    the index read and the one before it, so a later read of the class stops there instead of
    scanning down to the seeds again."""
    r, zero = 3, PolyC.zero()
    memo = families.seeds(r, 1)  # the class of -1 is walked; those of -2 and -3 are zero
    triple = families._linear(families._family_pairs(F(3), r))
    for k in (601, 1201, 600):
        before = len(memo)
        assert walk_recurrence(memo, k, r, triple) == zero
        assert memo[k] == memo[k - r] == zero and len(memo) == before + 2
        assert walk_recurrence(memo, k, r, mock.Mock(side_effect=AssertionError)) == zero
