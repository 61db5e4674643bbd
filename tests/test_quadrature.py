import math

import numpy as np
import pytest

from zmeasures.quadrature import adaptive_gauss_legendre


def test_polynomial_exact():
    v, e = adaptive_gauss_legendre(lambda x: x**7 - 3 * x**2, 0.0, 2.0, 1e-12)
    assert v == pytest.approx(2**8 / 8 - 8.0, abs=1e-12)
    assert e < 1e-12


def test_exponential():
    v, _ = adaptive_gauss_legendre(math.exp, 0.0, 1.0, 1e-12)
    assert v == pytest.approx(math.e - 1.0, rel=1e-13)


def test_breakpoint_kink():
    f = lambda x: abs(x - 0.3)  # noqa: E731
    exact = 0.3**2 / 2 + 0.7**2 / 2
    v, e = adaptive_gauss_legendre(f, 0.0, 1.0, 1e-12, breakpoints=[0.3])
    assert v == pytest.approx(exact, abs=1e-13)
    assert e < 1e-12


def test_error_estimate_is_bound():
    v, e = adaptive_gauss_legendre(lambda x: math.sin(40 * x), 0.0, 1.0, 1e-10)
    exact = (1 - math.cos(40.0)) / 40.0
    assert abs(v - exact) <= max(e, 1e-13)


def test_abs_floor_accepts_tiny_panels():
    f = lambda x: 1e-30 * math.sin(x)  # noqa: E731
    v, _ = adaptive_gauss_legendre(f, 0.0, 1.0, 1e-40, abs_floor=1e-25)
    assert abs(v) < 1e-29


def test_vectorized_integrand_matches_scalar():
    calls = []

    def f(x):
        calls.append(np.size(x))
        return np.sin(40 * x) * np.exp(-x)

    scalar = adaptive_gauss_legendre(
        lambda x: math.sin(40 * x) * math.exp(-x), 0.0, 2.0, 1e-10, [0.5]
    )
    vector = adaptive_gauss_legendre(f, 0.0, 2.0, 1e-10, [0.5], vectorized=True)
    assert vector[0] == pytest.approx(scalar[0], rel=1e-13)
    assert vector[1] == pytest.approx(scalar[1], rel=1e-3, abs=1e-15)
    assert set(calls) == {30}
