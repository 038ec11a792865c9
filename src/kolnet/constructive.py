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
from .learning import grid_points, l2_error, noise_floor, reference
from .nets import ClippedNetwork, Parametrization, compose_average
from .sde import KolmogorovProblem, extract_affine_batch

__all__ = ["BuildReport", "BoundsReport", "build_mc_network", "verify_construction_bounds"]


@dataclass(frozen=True)
class BoundsReport:
    """Both sides of each construction cap, with per-bound verdicts."""

    param_count: int
    param_cap: int
    theta_norm: float
    theta_cap: float
    max_width: int
    width_cap: int
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
        return self.max_width <= self.width_cap

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
    max_j(||M_j||_F + ||N_j||_2 + 1); depth preserved; max width <=
    n*||b||_inf (below it when b's widest layer is its input or output).
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
        width_cap=n * b.max_width,
        depth=a.depth,
        depth_expected=b.depth,
    )


@dataclass
class BuildReport:
    retry_errors: list  # estimated L2 error per retry
    chosen_retry: int
    bounds: BoundsReport  # size and magnitude of the chosen network, with their caps
    reference: str  # "closed_form" or "monte_carlo", as learning.reference chose
    noise_floor: float  # of that reference; 0.0 for the closed form


def build_mc_network(problem: KolmogorovProblem, n, retries=1, grid_size=64, ref_paths=4000, seed=0):
    """Assemble the averaged-composition network; returns (params, report).

    n is the Monte-Carlo width, the number of sampled affine maps (guidance:
    n growing like d^tau / eps).  Each of ``retries`` draws n independent
    terminal affine maps with substream drivers, composes them with the
    payoff network, and estimates the L2 error on a shared seeded grid of
    ``grid_size`` points (``learning.grid_points``) against
    ``learning.reference`` at ``ref_paths`` paths each; the best retry
    wins.  Each retry's caps are checked as it is built: RuntimeError unless
    ``verify_construction_bounds`` reports the winner's ``all_ok``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if retries < 1:
        raise ValueError("retries must be >= 1")
    errors, chosen = [], None  # chosen: (retry, network, bounds) of the least error so far
    for retry in range(retries):
        map_seeds = rng.child_seeds(rng.child_seed(seed, retry + 1), np.arange(n))
        M, N = extract_affine_batch(problem, map_seeds)
        candidate = compose_average(problem.payoff, M, N)
        bounds = verify_construction_bounds(candidate, problem.payoff, M, N)
        del M, N  # the maps are not needed to score, so one retry's are held at a time
        if retry == 0:
            # Made only now: freeing the maps raises glibc's adaptive mmap threshold
            # past the reference's per-point arrays, so they are reused from the heap
            # instead of faulted in afresh at each point.  No value moves.
            grid = grid_points(problem, grid_size, rng.child_seeds(seed, 0xD1CE))
            ref_vals, std_errors, kind = reference(problem, grid, ref_paths,
                                                   rng.child_seed(seed, 0xEF))
        errors.append(l2_error(ClippedNetwork(candidate, problem.clip_amplitude), grid, ref_vals))
        if chosen is None or errors[-1] < errors[chosen[0]]:  # a tie keeps the first
            chosen = retry, candidate, bounds
    retry, built, bounds = chosen
    if not bounds.all_ok:
        raise RuntimeError(f"construction bounds violated: {bounds}")
    return built, BuildReport(retry_errors=errors, chosen_retry=retry, bounds=bounds,
                              reference=kind, noise_floor=noise_floor(std_errors))
