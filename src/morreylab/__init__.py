"""Dyadic-grid workbench for one-weight norm inequalities on Morrey spaces."""

from .grid import (
    Cube,
    DomainError,
    Grid,
    GridFunction,
    average,
    dilate,
    dyadic_cubes,
    function_from_doc,
    function_from_spec,
    function_to_doc,
    integrate,
)
from .norms import (
    ExponentSet,
    dyadic_weighted_morrey_norm,
    holder_morrey_check,
    morrey_norm,
    morrey_norm_lambda,
    morrey_norms,
    restricted_norm_table,
    weighted_morrey_norm,
)
from .content import (
    BlockCertificate,
    block_norm_dual,
    block_norm_upper,
    choquet_integral,
    default_blocks,
    hausdorff_content,
    make_block,
    morrey_norm_via_blocks,
)
from .weights import (
    PowerWeightSpec,
    ap_constant,
    apq_constant,
    measure_comparison_check,
    power_weight,
    weight_constants,
)
from .operators import (
    centered_weighted_maximal,
    dyadic_weighted_maximal,
    fractional_integral,
    fractional_maximal,
    local_dyadic_maximal,
    sparse_integral_form,
    sparse_maximal_form,
)
from .sparse import (
    SparseFamily,
    SparseResult,
    audit_proof_inequalities,
    build_sparse_integral,
    build_sparse_maximal,
    check_stopping_bounds,
    family_from_doc,
    family_to_doc,
    stopping_ratio,
    verify_domination_integral,
    verify_domination_maximal,
    verify_sparse,
)
from .conditions import (
    TestCorpus,
    annular_bump,
    annular_bump_growth,
    balance_product,
    balance_upper_supremum,
    classify_trend,
    doubling_search,
    local_block_condition,
    make_corpus,
    norm_attainment_ratio,
    norm_doubling,
    operator_norm_lower_bound,
    power_admissible_integral,
    power_admissible_maximal,
)

__version__ = "0.1.0"
