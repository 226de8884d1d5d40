"""Universal N→M qubit cloning and optimal state estimation, with exact
closed-form cross-checks. See README for the CLI and verification grid."""

from .linalg import (
    DegenerateInputError,
    bloch_of,
    haar_random_pure,
    partial_trace,
    pure_fidelity,
    rng_from_seed,
    tensor_product,
)
from .symspace import (
    PseudoMixture,
    dicke_basis,
    embed_dicke,
    is_symmetric_support,
    project_dicke,
    pseudo_mixture_decompose,
    random_symmetric_density,
    symmetrizer,
)
from .cloner import (
    CloneChannel,
    CloneReport,
    apply_cloner,
    apply_cloner_dicke,
    certify_universality,
    measure_shrinking,
)
from .estimator import (
    EstimationReport,
    estimate_monte_carlo,
    estimation_fidelity_exact,
    measure_and_prepare_channel,
    verify_statement_b,
)
from .bounds import (
    check_identities,
    eta_meas_opt,
    eta_opt,
    fidelity_meas_opt,
    fidelity_opt,
)

__all__ = [
    "DegenerateInputError", "bloch_of", "haar_random_pure", "partial_trace",
    "pure_fidelity", "rng_from_seed", "tensor_product",
    "PseudoMixture", "dicke_basis", "embed_dicke", "is_symmetric_support",
    "project_dicke", "pseudo_mixture_decompose", "random_symmetric_density",
    "symmetrizer",
    "CloneChannel", "CloneReport", "apply_cloner", "apply_cloner_dicke",
    "certify_universality", "measure_shrinking",
    "EstimationReport", "estimate_monte_carlo", "estimation_fidelity_exact",
    "measure_and_prepare_channel", "verify_statement_b",
    "check_identities", "eta_meas_opt", "eta_opt",
    "fidelity_meas_opt", "fidelity_opt",
]

__version__ = "0.1.0"
