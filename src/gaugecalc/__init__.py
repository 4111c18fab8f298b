"""Finite-dimensional toolkit for gauge-relative Lipschitz analysis and
Clarke-style subdifferential calculus."""

from .errors import (
    AsymmetricSetError,
    ConditionViolationError,
    ConvexityFlagError,
    DegenerateGaugeError,
    DimensionMismatchError,
    EmptySublevelError,
    ExprDomainError,
    ExprError,
    ExprSyntaxError,
    GaugeCalcError,
    KernelViolationError,
    LpInfeasibleError,
    NoBracketError,
    NoFeasibleStepError,
    NonFiniteInputError,
    NotInSetError,
    SetFormatError,
    SupportMismatchError,
    UnboundedFunctionError,
    UsageError,
)
from .expr import evaluate, make_callable, parse, to_source
from .functions import (
    ScalarFunction,
    max_of,
    product_of,
    sum_of,
)
from .geometry import (
    ConvexSet,
    Gauge,
    Halfspaces,
    Oracle,
    Sublevel,
    Subspace,
    Vertices,
    box,
    check_symmetry,
    in_icr,
    interval,
    kernel_of_gauge,
    minkowski_gauge,
    set_from_json,
    set_to_json,
    span_of_difference,
    spot_check_convexity,
)
from .lipschitz import (
    LipschitzCertificate,
    LocalWitness,
    counterexample_suite,
    empirical_constant,
    local_witness,
    scale_about,
    theoretical_constant,
)
from .rules import (
    InnerMap,
    RuleReport,
    check_domination,
    verify_chain_rule_1,
    verify_chain_rule_2,
    verify_max_rule,
    verify_partial_rule,
    verify_product_rule,
    verify_sum_rule,
)
from .subdiff import (
    MeanValuePoint,
    SupportSet,
    dir_deriv,
    extract_subgradient,
    fermat_check,
    gen_dir_deriv,
    is_subgradient,
    lebourg_point,
    subdifferential_hull,
)
from .symmetrize import (
    SublevelCore,
    build_core,
    core_is_symmetric,
    literal_ca_member,
    sublevel_set,
    symmetric_core,
    verify_icr_membership,
    verify_span_equality,
)
from .weighted_l2 import (
    EXAMPLES,
    WeightedGrid,
    make_function,
    make_gauge,
    mu_l2,
    phi_l2,
    run_all,
    run_example,
    subdiff_l2,
)

__version__ = "0.1.0"
