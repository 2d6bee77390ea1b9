"""Cohen-Macaulay analysis of two-dimensional affine semigroup rings.

Rings R = k[x^a, x^p1 y^q1, ..., x^pt y^qt, y^b]: decide the Cohen-Macaulay
property, compute the Hilbert polynomial and multiplicity of the parameter
ideal (x^a, y^b), and produce the monomial basis of R/(x^a, y^b).  Every
fast path is validated against a brute-force oracle.
"""

from .core import DEFAULT_BUDGET, RingSpec, Work, class_of, order_of, subgroup_classes
from .curve import CurveConstants, CurveSpec, batch_classify, special_case_cm
from .curve import basis as curve_basis
from .curve import constants as curve_constants
from .curve import determinant_identities
from .curve import is_cm as is_cm_curve
from .errors import (
    BudgetExceeded,
    DisagreementError,
    InfeasibleHilbertData,
    InvalidCurve,
    InvalidDN,
    NegativeExponent,
    NonPositiveAB,
    NonTermination,
    NotFourGen,
    RingSpecError,
    SgringError,
    TrivialSubgroup,
    ZeroGenerator,
    ZeroGeneratorPair,
)
from .fourgen import BasisResult, FourGenConstants, TraceStep, length_bound, monomial_basis
from .fourgen import constants as fourgen_constants
from .fourgen import is_cm as is_cm_fourgen
from .hilbert import HilbertData, construct_ring, hilbert_data
from .hilbert import is_cm as is_cm_general
from .oracle import (
    CornerSet,
    corners,
    fourgen_constants_bruteforce,
    gsw_cm_check,
    hilbert_function,
    semigroup_contains,
)

__version__ = "0.1.0"

__all__ = [
    "BasisResult",
    "BudgetExceeded",
    "CornerSet",
    "CurveConstants",
    "CurveSpec",
    "DEFAULT_BUDGET",
    "DisagreementError",
    "FourGenConstants",
    "HilbertData",
    "InfeasibleHilbertData",
    "InvalidCurve",
    "InvalidDN",
    "NegativeExponent",
    "NonPositiveAB",
    "NonTermination",
    "NotFourGen",
    "RingSpec",
    "RingSpecError",
    "SgringError",
    "TraceStep",
    "TrivialSubgroup",
    "Work",
    "ZeroGenerator",
    "ZeroGeneratorPair",
    "batch_classify",
    "class_of",
    "construct_ring",
    "corners",
    "curve_basis",
    "curve_constants",
    "determinant_identities",
    "fourgen_constants",
    "fourgen_constants_bruteforce",
    "gsw_cm_check",
    "hilbert_data",
    "hilbert_function",
    "is_cm_curve",
    "is_cm_fourgen",
    "is_cm_general",
    "length_bound",
    "monomial_basis",
    "order_of",
    "semigroup_contains",
    "special_case_cm",
    "subgroup_classes",
]
