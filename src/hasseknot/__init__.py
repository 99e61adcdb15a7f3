"""Norm-group membership for number fields over Q, knot groups of bicyclic
extensions, and exact counting of everywhere-local-but-not-global norms."""

from .arith import (
    Factorization,
    INFINITE_PLACE,
    Place,
    factorize,
    hilbert,
    is_square_local,
    kronecker,
    spf_table,
    squarefree_kernel,
    table_factorize,
)
from .bicyclic import BicyclicGroup, DecompositionSpec, knot_bicyclic, knot_bicyclic_report
from .biquad import (
    BiquadField,
    GlobalDecision,
    LocalType,
    NormCertificate,
    SearchConfig,
    certificate_search,
    decide_global,
    defining_quartic,
    is_everywhere_local_norm,
    is_local_norm,
    knot_order,
    local_type,
    negative_norm_witness,
    norm_form_eval,
    override_table_for,
    splitting_pairs,
)
from .count import (
    CountSeries,
    FitResult,
    count_integer_norms_local,
    count_series,
    enumerate_heights,
    fit_counts,
    fit_exponent,
    n_loc_series,
    series_to_csv,
    series_to_json,
)
from .errors import (
    ConfigError,
    DegenerateFieldError,
    DomainError,
    InternalConsistencyError,
    UnsupportedPrimeError,
)
from .numfield import (
    NumberField,
    SplittingData,
    count_ideal_norms,
    delta_K_estimate,
    in_P_K,
    is_ideal_norm,
    parse_override_table,
    splitting_data,
)

__version__ = "0.1.0"
