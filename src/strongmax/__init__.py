"""strongmax: discrete-grid strong maximal operators, Orlicz calculus,
rectangle Muckenhoupt weight classes, covering selection, and a theorem
verification harness."""

from .corpus import make_corpus
from .covering import RectFamily, SelectionResult, cf_select, scattered_select
from .grid import (
    Basis,
    GridError,
    GridFunction,
    PrefixSum,
    Rect,
    build_prefix_sum,
    enumerate_basis,
    read_grid,
    rect_average,
    rect_cell_sum,
    rect_integral,
    write_grid,
)
from .maximal import (
    MaximalQuery,
    level_set_measure,
    lp_norm,
    maximal_reference_scan,
    multilinear_fractional_maximal,
    orlicz_maximal,
    strong_maximal,
)
from .orlicz import (
    CellSet,
    CheckReport,
    generalized_holder_check,
    luxemburg_norm,
    mean_phi_over,
    product_norm_lemma_check,
)
from .verify import (
    VerificationReport,
    endpoint_check,
    one_weight_equivalence_check,
    prop35_counterexample,
    run_all,
    two_weight_power_bump_check,
    vector_valued_check,
    weight_theory_suite,
)
from .weights import (
    WeightVector,
    a_infty_classify,
    ap_constant,
    multi_weight_constant_ap,
    multi_weight_constant_apq,
    power_bump_check,
    power_weight_classify,
    power_weight_grid,
    reverse_doubling_constant,
    tauberian_constant_estimate,
)
from .young import (
    YoungFunction,
    bp_star_classify,
    complementary,
    identity,
    in_bp_star,
    inverse,
    l_log_l,
    oneil_triple_check,
    phi_n,
    phi_n_iter,
    power,
    psi_n,
)

__version__ = "0.1.0"
