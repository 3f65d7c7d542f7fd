"""Joint power and admission control via non-convex lq approximation deflation."""

from .network import (
    NetworkInstance,
    NormalizedProblem,
    normalize,
    restrict,
    select_alpha,
    sinr,
)
from .scenario import ScenarioConfig, generate
from .kernel import (
    AugmentedProblem,
    KktCertificate,
    MultistartResult,
    SolverConfig,
    augment,
    interior_point_default,
    interior_point_random,
    multistart_solve,
    round_to_power,
    solve_potential_reduction,
)
from .admission import (
    AdmissionResult,
    admissible,
    postprocess,
    preprocess,
    removal_candidate,
    run_lqmd,
    run_nlpd,
)
from .oracle import EnumerationResult, enumerate_l0, estimate_qbar

__all__ = [
    "NetworkInstance", "NormalizedProblem", "normalize", "restrict",
    "select_alpha", "sinr",
    "ScenarioConfig", "generate",
    "AugmentedProblem", "KktCertificate", "MultistartResult", "SolverConfig",
    "augment", "interior_point_default", "interior_point_random",
    "multistart_solve", "round_to_power", "solve_potential_reduction",
    "AdmissionResult", "admissible", "postprocess", "preprocess",
    "removal_candidate", "run_lqmd", "run_nlpd",
    "EnumerationResult", "enumerate_l0", "estimate_qbar",
]
