"""Exact-arithmetic verification engine for superelliptic current algebras.

Computes Kahler-differential reductions, structure-constant polynomial
families, centrally extended brackets, and symbolic free-field operator
products, entirely in exact rational-function arithmetic, and mechanically
confirms or flags each identity it checks.
"""

from .coeffs import CoeffK, PolyC, field_ops, is_integer_constant, specialize
from .families import FamilySpec, FamilyTable, eval_family, family_table, rescaling_check
from .kahler import (
    DiffClass,
    DiffForm,
    ReductionWindow,
    basis_dim,
    differential,
    eliminate_du,
    reduce_oracle,
    reduce_recurrence,
    structure_constants,
)
from .ope import (
    ConventionConfig,
    FieldExpr,
    FieldGen,
    NOMono,
    OPEResult,
    charge_of,
    contract_exp,
    contract_pair,
    is_laurent,
    taylor_shift,
    wick_ope,
)
from .ring import RingElem, RingParams, decompose_sectors, ring_mul
from .uce import (
    CurrentElem,
    SL2Elem,
    UCEElem,
    formula_vs_oracle,
    killing,
    lie_axiom_check,
    sl2_bracket,
    uce_bracket_formula,
    uce_bracket_oracle,
)
from .wakimoto import (
    CalibrationError,
    ObstructionReport,
    OperatorSet,
    branch_cut_check,
    build_operators,
    calibrate_conventions,
    charge_residue_check,
    check_wakimoto_type,
    classify_type_II,
    critical_level,
    obstruction_report,
    verify_charge_relations,
    working_config,
)

__version__ = "0.1.0"
