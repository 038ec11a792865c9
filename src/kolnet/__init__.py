"""Numerical solver for linear Kolmogorov PDEs with affine coefficients.

Solves the terminal-value problem on a hypercube by empirical risk
minimization over clipped ReLU networks, and provides the exact network
constructions, SDE representations, and generalization certificates as
verifiable operations.  The package re-exports nothing: import each name from
its module, kolnet.nets, sde, learning, bounds, constructive, rng, analytic or cli.
"""

__version__ = "0.1.0"
