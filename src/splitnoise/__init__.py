"""Numerical laboratory for white-noise exponential vectors, CCR sign
norms, and the splitting-noise obstruction pipeline."""

__version__ = "0.1.0"

from .gaussian_algebra import (  # noqa: F401
    AutomorphismParams,
    ExpSpan,
    StepFunction,
    apply_automorphism,
    ccr_phase_residual,
    exponential,
    relation_suite,
    rotation,
    shift,
    span_inner,
    step_inner,
    unit,
)
from .ccr_matrix import (  # noqa: F401
    CcrTriple,
    build_pair,
    coherent_vector,
    convergence_study,
    lemma23_value,
    sgn_expectation,
    sgn_op,
    sign_sum_extremes,
    sign_sum_norm,
    symmetric_triple,
    write_norm_study_csv,
)
from .warren_sim import (  # noqa: F401
    McEstimate,
    PsiSpec,
    SuperchaosVector,
    WarrenPath,
    chaos_eval,
    lemma43_table,
    local_minima,
    obstruction_report,
    quad_form_C,
    sample_path,
    write_lemma43_csv,
    write_obstruction_json,
)
