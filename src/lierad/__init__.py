"""Exact-arithmetic radical and Frattini theory for rational Lie algebras."""

from .liealg import (
    LieAlgebra,
    QuotientData,
    SeriesResult,
    abelian,
    bracket,
    bracket_spaces,
    center,
    centralizer,
    derivation_algebra,
    derived_series,
    direct_product,
    ideal_closure,
    ideal_closure_series,
    is_characteristic,
    is_ideal,
    is_subalgebra,
    killing_form,
    lower_central_series,
    operator_semidirect,
    quotient,
    semidirect_product,
    stable_derived_term,
    stable_lower_central_term,
    subalgebra_closure,
    validate,
)
from .linalg import (
    Matrix,
    Subspace,
    complement_codim,
    nullspace,
    rref,
    span_intersect,
    span_sum,
)
from .frattini import (
    FrattiniFreeDecomposition,
    IdealEstimate,
    IndexEstimate,
    SubsimpleClass,
    classify_subsimple,
    frattini_free_decomposition,
    frattini_ideal,
    frattini_index,
    index_class,
    is_frattini_free,
    is_jacobson_free,
    jacobson_ideal,
    jacobson_index,
    largest_abelian_ideal_frattini_free,
    subdirect_components,
    verify_subdirect,
)
from .radicals import (
    LeviDecomposition,
    PreradicalSpec,
    REGISTRY,
    convolution,
    convolution_closure,
    decompose_semisimple,
    is_absorbing,
    largest_semisimple_ideal,
    levi_radical,
    levi_subalgebra,
    nilradical,
    solvable_radical,
    superposition_closure,
    vasilescu_radical,
)
from .modules import (
    Action,
    Envelope,
    associative_envelope,
    decompose_module,
    find_proper_submodule,
    is_completely_reducible,
    split_over_abelian_ideal,
    trace_radical,
)
from .polys import factor_rational_poly
from .corpus import corpus, corpus_expr, suite_corpus
from .reports import analyze

__version__ = "0.1.0"
