"""Closed-form reference values for the exactly solvable special cases."""

from __future__ import annotations

import numpy as np

from ._special import ndtr

__all__ = ["lognormal_capped_put", "capped_put_variance_uniform"]


def lognormal_capped_put(x0, c, D, mu_rate, sigma_rate, T):
    """E[min{max{D - c*S_T, 0}, D}] for one-dimensional GBM, undiscounted.

    S_T = x0 * exp((mu - s^2/2) T + s sqrt(T) Z).  For x0 > 0 and c > 0 the
    price path stays positive so the cap at D never binds and the value is
    c times a standard undiscounted put with strike D/c:

        E[(K - S_T)^+] = K Phi(-d2) - x0 e^{mu T} Phi(-d1).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if np.any(x0 <= 0) or c <= 0 or D <= 0:
        raise ValueError("requires x0 > 0, c > 0, D > 0")
    K = D / c
    if sigma_rate == 0:
        fwd = x0 * np.exp(mu_rate * T)
        return c * np.maximum(K - fwd, 0.0)
    s = sigma_rate * np.sqrt(T)
    d1 = (np.log(x0 / K) + (mu_rate + 0.5 * sigma_rate**2) * T) / s
    d2 = d1 - s
    return c * (K * ndtr(-d2) - x0 * np.exp(mu_rate * T) * ndtr(-d1))


def capped_put_variance_uniform(c, D, u, v, quad_points=200001):
    """Variance of min{max{D - c*x, 0}, D} for x uniform on [u, v] (d = 1).

    Evaluated by composite-trapezoid quadrature; the integrand is piecewise
    quadratic so the result is accurate to roundoff at this resolution.
    """
    x = np.linspace(u, v, quad_points)
    y = np.clip(D - c * x, 0.0, D)
    mean = np.trapezoid(y, x) / (v - u)
    second = np.trapezoid(y**2, x) / (v - u)
    return second - mean**2
