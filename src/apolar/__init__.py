"""Exact computations for artinian Gorenstein algebras via Macaulay duality.

Hilbert functions through catalecticant ranks, weak/strong Lefschetz checks
through multiplication-map and Hessian ranks, Macaulay/Green/Gotzmann growth
bounds, and a verified catalog of quadric webs and trivial-extension
examples.  All arithmetic is exact: arbitrary-precision rationals, or a big
prime field for randomized genericity arguments.
"""

from .bounds import (
    BinomialExpansion,
    binom_expansion,
    gotzmann_values,
    green_bound,
    is_o_sequence,
    macaulay_bound,
    shift,
)
from .catalog import (
    CATALOG_LABELS,
    EXPECTED_WEB_HF,
    GENERIC_GIN2,
    HF_FAST,
    HF_FLAT,
    HF_SLOW,
    SPECIAL_GIN2,
    OrbitLabel,
    QuadricWeb,
    classify_web,
    classify_web_report,
    exceptional_hvector_examples,
    gin2,
    inverse_system_sample,
    orbit_representative,
    parametric_family_form,
    parametric_quintic,
    perazzo_dual_form,
    quadric_ideal_hf,
)
from .duality import (
    DualForm,
    HVector,
    ann_degree,
    catalecticant,
    contract,
    hf_modulo_linear,
    hilbert_function,
    quotient_basis,
)
from .errors import HypothesisViolationError, InternalInconsistencyError
from .fields import DEFAULT_PRIME, GF, QQ, PrimeField, RationalField, field_from_description
from .grammar import ParseError, format_poly, parse_poly
from .lefschetz import (
    DegreeRecord,
    HessianMatrix,
    SlpReport,
    SnakeLedger,
    Verdict,
    WlpReport,
    hessian,
    hessian_det_at,
    hessian_rank_at,
    is_wl_element,
    mult_map_rank,
    slp_check,
    snake_consistency,
    wlp_check,
)
from .linalg import ExactMatrix
from .poly import (
    LinearChange,
    Poly,
    diff_action,
    monomials_of_degree,
    random_linear_form,
)

__version__ = "0.1.0"
