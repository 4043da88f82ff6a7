"""Scaling-law helpers: the rate function, its inverse, and the bounds.

Frozen expected values were computed independently at 40-digit precision
before the implementation existed.
"""

import math

import numpy as np
import pytest

from lotrain import (
    ParameterError,
    chromatic_scaling_bound,
    degree_scaling_bound,
    poisson_rate_function,
    poisson_rate_inverse,
    radius_for_rho,
)

F_AT_2 = 0.38629436111989061883
FINV_HALF = 2.1555352035005025175
CHROM_BOUND_HALF = 8.6221408140020100701
CHROM_BOUND_QUARTER = 10.873127313836180941  # 4e
DEG_BOUND_SIXTEENTH = 43.492509255344723766  # 16e
DEG_BOUND_HALF = 24.642040784271348288
RADIUS_1000 = 5.8769700011919988822


def test_rate_function_values():
    assert poisson_rate_function(1.0) == 0.0
    assert poisson_rate_function(2.0) == pytest.approx(F_AT_2, abs=1e-15)
    assert poisson_rate_function(math.e) == pytest.approx(1.0, abs=1e-15)


def test_rate_function_domain():
    with pytest.raises(ParameterError):
        poisson_rate_function(0.999)


def test_rate_function_increasing():
    xs = np.linspace(1.0, 300.0, 4000)
    ys = [poisson_rate_function(x) for x in xs]
    assert all(b > a for a, b in zip(ys, ys[1:]))


def test_inverse_values():
    assert poisson_rate_inverse(0.0) == pytest.approx(1.0, abs=1e-6)
    assert poisson_rate_inverse(1.0) == pytest.approx(math.e, abs=1e-9)
    assert poisson_rate_inverse(0.5) == pytest.approx(FINV_HALF, abs=1e-9)


def test_inverse_domain():
    with pytest.raises(ParameterError):
        poisson_rate_inverse(-1e-9)


def test_inverse_roundtrip():
    for y in np.concatenate([np.linspace(0.0, 10.0, 200), np.linspace(10.0, 1000.0, 100)]):
        x = poisson_rate_inverse(float(y))
        assert x >= 1.0
        assert poisson_rate_function(x) == pytest.approx(float(y), abs=1e-10)


def test_inverse_increasing():
    ys = np.linspace(0.0, 50.0, 500)
    xs = [poisson_rate_inverse(float(y)) for y in ys]
    assert all(b >= a for a, b in zip(xs, xs[1:]))


def test_bound_values():
    assert chromatic_scaling_bound(0.5) == pytest.approx(CHROM_BOUND_HALF, abs=1e-9)
    assert chromatic_scaling_bound(0.25) == pytest.approx(CHROM_BOUND_QUARTER, abs=1e-9)
    assert degree_scaling_bound(1.0 / 16.0) == pytest.approx(DEG_BOUND_SIXTEENTH, abs=1e-9)
    assert degree_scaling_bound(0.5) == pytest.approx(DEG_BOUND_HALF, abs=1e-9)


def test_bound_domains():
    for fn in (chromatic_scaling_bound, degree_scaling_bound):
        with pytest.raises(ParameterError):
            fn(0.0)


def test_bounds_decrease_with_rho_and_chromatic_below_degree():
    rhos = np.logspace(-2, 2, 60)
    prev_c = prev_d = None
    for rho in rhos:
        c, d = chromatic_scaling_bound(float(rho)), degree_scaling_bound(float(rho))
        assert c < d
        if prev_c is not None:
            assert c <= prev_c + 1e-12 and d <= prev_d + 1e-12
        prev_c, prev_d = c, d


def test_radius_for_rho():
    assert radius_for_rho(1000, 0.1, 0.5) == pytest.approx(RADIUS_1000, abs=1e-12)
    for bad in [(1, 0.1, 0.5), (10, 0.0, 0.5), (10, 0.1, 0.0)]:
        with pytest.raises(ParameterError):
            radius_for_rho(*bad)
