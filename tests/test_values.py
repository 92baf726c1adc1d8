"""The plain value types: equality, hashing, checks on construction, and what importing
the package loads."""

import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from secalg.families import FamilySpec
from secalg.kahler import DiffForm, ReductionWindow
from secalg.ope import ConventionConfig, FieldGen
from secalg.ring import RingElem, RingParams

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
P32 = RingParams(3, 2)


def test_import_loads_no_dataclasses():
    """A bare interpreter that imports the package and its CLI loads neither
    ``dataclasses`` nor the ``inspect`` it pulls in, nor ``argparse`` and its ``gettext``."""
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import secalg, secalg.cli; "
            "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert out.stdout.strip() == "[]"


def test_import_loads_no_submodule():
    """A bare ``import secalg`` loads none of the package's modules: it re-exports nothing."""
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import secalg; "
            "print(sorted(name for name in sys.modules if name.startswith('secalg.')))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert out.stdout.strip() == "[]"


# kind, type, fields, each field changed in turn, fields the constructor refuses; "key"
# types are equal and hashed by value, "value" types equal by value, a "record" neither
VALUE_TYPES = [
    ("key", RingParams, (3, 2), [(2, 2), (3, 3)], [(1, 2), (3, 1)]),
    ("key", FamilySpec, (1, 2, F(3), 2),
     [(2, 2, F(3), 2), (1, 1, F(3), 2), (1, 2, F(3, 2), 2), (1, 2, F(3), 3)],
     [(0, 2, F(3), 2), (1, 0, F(3), 2), (1, 5, F(3), 2), (1, 2, F(0), 2), (1, 2, F(-1), 2),
      (1, 1, F(3), 1)]),
    ("key", FieldGen, ("beta", 1, 2), [("gamma", 1, 2), ("beta", 0, 2), ("beta", 1, 0)],
     [("phi", 1, 2), ("beta", -1, 2), ("beta", 1, -1)]),
    ("key", ConventionConfig, (-1, "right"), [(1, "right"), (-1, "left")],
     [(0, "right"), (1, "up")]),
    ("value", ReductionWindow, (-2, 3), [(-1, 3), (-2, 4)], [(4, 3)]),
    ("record", DiffForm, (RingElem.zero(P32), RingElem.zero(P32)), [],
     [(RingElem.zero(P32), RingElem.zero(RingParams(2, 2)))]),
]


@pytest.mark.parametrize("kind, cls, fields, changed, refused", VALUE_TYPES,
                         ids=[row[1].__name__ for row in VALUE_TYPES])
def test_value_types(kind, cls, fields, changed, refused):
    a, b = cls(*fields), cls(*fields)
    if kind != "record":
        assert a == b and not a != b
        assert a != fields  # never equal to a plain tuple, nor merged with one as a key
        for other in changed:
            assert a != cls(*other) and not a == cls(*other), other
    if kind == "key":
        assert hash(a) == hash(b) and {a: 1}[b] == 1
    for bad in refused:
        with pytest.raises(ValueError):
            cls(*bad)


def test_family_spec_reads_m_prime_as_a_fraction():
    spec = FamilySpec(l=1, j=2, m_prime=3, r=2)
    assert type(spec.m_prime) is F and spec == FamilySpec(1, 2, F(3), 2)
    assert FamilySpec(1, 2, "3/2", 2).m_prime == F(3, 2)
