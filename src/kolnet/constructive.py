"""Monte-Carlo network builder: one ReLU network approximating F(T, .).

The terminal map of an affine SDE is pathwise affine, so averaging the
payoff network composed with n sampled terminal affine maps yields a single
network whose realization is a Monte-Carlo estimate of the Feynman-Kac
expectation at every input simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .learning import l2_error
from .nets import ClippedNetwork, Parametrization, compose_average
from .sde import KolmogorovProblem, extract_affine_batch, mc_reference_grid

__all__ = ["BuildSpec", "BuildReport", "BoundsReport", "build_mc_network", "verify_construction_bounds"]


@dataclass(frozen=True)
class BuildSpec:
    """Inputs for the averaged-composition build.

    n is the Monte-Carlo width (number of sampled affine maps); the
    theoretical guidance is n growing like d^tau / eps.  The best of
    ``retries`` independent draws is kept, selected by estimated L2 error
    against an internal Monte-Carlo reference grid.
    """

    n: int
    payoff: Parametrization
    retries: int = 1
    grid_size: int = 64
    ref_paths: int = 4000
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.retries < 1:
            raise ValueError("retries must be >= 1")


@dataclass(frozen=True)
class BoundsReport:
    """Both sides of each construction cap, with per-bound verdicts."""

    param_count: int
    param_cap: int
    theta_norm: float
    theta_cap: float
    max_width: int
    width_expected: int
    depth: int
    depth_expected: int

    @property
    def param_ok(self) -> bool:
        return self.param_count <= self.param_cap

    @property
    def theta_ok(self) -> bool:
        return self.theta_norm <= self.theta_cap + 1e-12

    @property
    def width_ok(self) -> bool:
        return self.max_width == self.width_expected

    @property
    def depth_ok(self) -> bool:
        return self.depth == self.depth_expected

    @property
    def all_ok(self) -> bool:
        return self.param_ok and self.theta_ok and self.width_ok and self.depth_ok


def verify_construction_bounds(
    built: Parametrization, eta: Parametrization, M: np.ndarray, N: np.ndarray
) -> BoundsReport:
    """Recompute the construction caps from eta and the (n, d, d), (n, d) map stacks.

    Caps: P(a) <= n^2 P(b); max-norm <= sqrt(d) ||eta||_inf
    max_j(||M_j||_F + ||N_j||_2 + 1); depth preserved; max width n*||b||_inf
    (equality requires the payoff's max width to sit on a hidden layer,
    which holds for every build this module produces with n >= input and
    output widths).
    """
    n = len(M)
    b = eta.architecture
    a = built.architecture
    d = b.input_width
    max_map = float(np.max(np.linalg.norm(M, axis=(1, 2)) + np.linalg.norm(N, axis=1))) + 1.0
    return BoundsReport(
        param_count=a.param_count,
        param_cap=n**2 * b.param_count,
        theta_norm=built.max_norm(),
        theta_cap=float(np.sqrt(d)) * eta.max_norm() * max_map,
        max_width=a.max_width,
        width_expected=n * b.max_width,
        depth=a.depth,
        depth_expected=b.depth,
    )


@dataclass
class BuildReport:
    retry_errors: list  # estimated L2 error per retry
    chosen_retry: int
    bounds: BoundsReport  # size and magnitude of the chosen network, with their caps

    def save_csv(self, path) -> None:
        b = self.bounds
        with open(path, "w") as fh:
            fh.write("retry,l2_error_estimate,theta_norm,param_count\n")
            for r, err in enumerate(self.retry_errors):
                fh.write(f"{r},{err:.17g},{b.theta_norm:.17g},{b.param_count}\n")


def build_mc_network(problem: KolmogorovProblem, spec: BuildSpec):
    """Assemble the averaged-composition network; returns (params, report).

    Each retry draws n independent terminal affine maps with substream
    drivers, composes them with the payoff network, and estimates the L2
    error on a shared seeded Monte-Carlo reference grid; the best retry
    wins.  Construction size caps are hard-checked on the winner; a
    violated cap raises RuntimeError.
    """
    if spec.payoff.architecture.input_width != problem.dim:
        raise ValueError("payoff input width does not match problem dimension")
    d = problem.dim
    grid_key = rng.stream_key(rng.child_seeds(spec.seed, 0xD1CE))
    U = rng.uniforms(grid_key, np.arange(spec.grid_size * d)).reshape(spec.grid_size, d)
    grid = problem.u + (problem.v - problem.u) * U
    ref_seed = rng.child_seed(spec.seed, 0xEF)
    ref_vals, _ = mc_reference_grid(problem, grid, spec.ref_paths, ref_seed)

    best = None
    best_err = np.inf
    best_maps = None
    errors = []
    for retry in range(spec.retries):
        map_seeds = rng.child_seeds(rng.child_seed(spec.seed, retry + 1), np.arange(spec.n))
        M, N = extract_affine_batch(problem, map_seeds)
        candidate = compose_average(spec.payoff, M, N)
        err = l2_error(ClippedNetwork(candidate, problem.clip_amplitude), grid, ref_vals)
        errors.append(err)
        if err < best_err:
            best_err = err
            best = candidate
            best_maps = M, N
    bounds = verify_construction_bounds(best, spec.payoff, *best_maps)
    if not (bounds.param_ok and bounds.theta_ok and bounds.depth_ok):
        raise RuntimeError(f"construction bounds violated: {bounds}")
    if bounds.max_width > bounds.width_expected:
        raise RuntimeError(f"width exceeds construction value: {bounds}")
    report = BuildReport(
        retry_errors=errors,
        chosen_retry=int(np.argmin(errors)),
        bounds=bounds,
    )
    return best, report
