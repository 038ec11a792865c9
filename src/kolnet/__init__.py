"""Numerical solver for linear Kolmogorov PDEs with affine coefficients.

Solves the terminal-value problem on a hypercube by empirical risk
minimization over clipped ReLU networks, and provides the exact network
constructions, SDE representations, and generalization certificates as
verifiable operations.
"""

from .nets import (
    Architecture,
    ClippedNetwork,
    Parametrization,
    clip_network,
    clipped_as_standard,
    compose_average,
    evaluate,
    load_network,
    put_payoff_network,
    realize,
    save_network,
)
from .sde import (
    AffineCoefficients,
    KolmogorovProblem,
    extract_affine_batch,
    gbm_coefficients,
    load_problem,
    mc_feynman_kac,
    mc_reference_grid,
    terminal_values,
)
from .learning import (
    Dataset,
    FitReport,
    TrainConfig,
    bias_variance_report,
    empirical_risk,
    generate_dataset,
    l2_error,
    noise_floor,
    train_erm,
)
from .bounds import (
    ApproximationFamily,
    Certificate,
    ClassSpec,
    ball_covering_log,
    generalization_failure_log,
    kolmogorov_certificate,
    lipschitz_bound,
    network_covering_log,
    put_family,
    required_samples,
    sample_complexity_h,
    scaling_audit,
)
from .constructive import BuildSpec, build_mc_network, verify_construction_bounds

__version__ = "0.1.0"
