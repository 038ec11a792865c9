"""Problem builders and map stacks shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from kolnet.nets import put_payoff_network
from kolnet.sde import AffineCoefficients, KolmogorovProblem, gbm_coefficients

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def fresh_process(probe):
    """Run ``probe`` in a new interpreter on the checkout's src/; its stdout, split."""
    env = {**os.environ, "PYTHONPATH": str(PROBLEMS.parent / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def zero_coeffs(d):
    Z = np.zeros((d, d))
    return AffineCoefficients(Z, np.zeros(d), tuple(Z.copy() for _ in range(d + 1)))


def put_problem(d=1, mu=0.0, sigma=0.2, T=1.0, D=1.0, u=0.5, v=1.5, steps=128, c=None):
    if c is None:
        c = np.full(d, 1.0 / d)
    payoff = put_payoff_network(np.asarray(c, dtype=float), D)
    return KolmogorovProblem(
        coeffs=gbm_coefficients(d, mu, sigma),
        horizon=T,
        payoff=payoff,
        clip_amplitude=D,
        u=u,
        v=v,
        steps=steps,
    )


def random_maps(rs, n, d):
    """(n, d, d) and (n, d) stacks of n maps, each drawn as M_j then N_j."""
    pairs = [(rs.randn(d, d), rs.randn(d)) for _ in range(n)]
    return np.array([M for M, _ in pairs]), np.array([N for _, N in pairs])
