"""Asymptotic scaling laws for the training length.

For K users at density delta with sparsification radius
r = sqrt(rho * ln(K) / delta), the expected Chebyshev-ball occupancy is
rho * ln(K) / 4, and Chernoff-style concentration drives both the chromatic
number and the maximum degree of the conflict graph to Theta(ln K). The
constants involve the inverse of the unit-rate Poisson rate function
f(x) = 1 - x + x*ln(x) on [1, inf).
"""

import math

from .errors import ParameterError

_F_TOL = 1e-12


def poisson_rate_function(x: float) -> float:
    """f(x) = 1 - x + x*ln(x), increasing from f(1) = 0 on [1, inf)."""
    if x < 1:
        raise ParameterError(f"argument must be >= 1, got {x}")
    return 1.0 - x + x * math.log(x)


def poisson_rate_inverse(y: float) -> float:
    """The unique x >= 1 with f(x) = y, by bisection to |f(x) - y| <= 1e-12."""
    if y < 0:
        raise ParameterError(f"argument must be >= 0, got {y}")
    # f(y + 2) - y is least at y = e - 2, where it is 3 - e > 0, and f(e) = 1:
    # so f(hi) >= y and [1, hi] brackets the root for every y >= 0
    lo, hi = 1.0, max(math.e, y + 2.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = poisson_rate_function(mid)
        if abs(fm - y) <= _F_TOL:
            return mid
        if fm < y:
            lo = mid
        else:
            hi = mid
    return mid


def chromatic_scaling_bound(rho: float) -> float:
    """Asymptotic a.s. bound on colors(G) / (delta r^2): 4 * f^-1(1/(4 rho))."""
    if not rho > 0:
        raise ParameterError(f"rho must be positive, got {rho}")
    return 4.0 * poisson_rate_inverse(1.0 / (4.0 * rho))


def degree_scaling_bound(rho: float) -> float:
    """Asymptotic a.s. bound on (max_degree(G) + 1) / (delta r^2) via the
    proximity supergraph: 16 * f^-1(1/(16 rho))."""
    if not rho > 0:
        raise ParameterError(f"rho must be positive, got {rho}")
    return 16.0 * poisson_rate_inverse(1.0 / (16.0 * rho))


def radius_for_rho(k: int, delta: float, rho: float) -> float:
    """Sparsification radius sqrt(rho * ln(k) / delta) for k users at
    density delta."""
    if k < 2:
        raise ParameterError(f"k must be at least 2, got {k}")
    if not delta > 0 or not rho > 0:
        raise ParameterError("delta and rho must be positive")
    return math.sqrt(rho * math.log(k) / delta)
