import math
import time
from functools import lru_cache

import numpy as np
import pytest

from zmeasures import kernels, specfun
from zmeasures.correlations import continuum_correlation
from zmeasures.errors import DomainError, ParameterError, UnvalidatedDomainError
from zmeasures.kernels import (
    KernelContext,
    KernelParams,
    S,
    S_partials,
    matrix_kernel,
    scalar_whittaker_kernel,
    w_a,
)
from zmeasures.pfaffian import assemble, pfaffian

P_COMPLEX = KernelParams(0.3 + 0.4j)
P_DEGENERATE = KernelParams(0.5)
P_REAL = KernelParams(0.3)


def test_params_validation():
    with pytest.raises(ParameterError):
        KernelParams(0)
    with pytest.raises(UnvalidatedDomainError):
        KernelParams(-0.5)
    with pytest.raises(UnvalidatedDomainError):
        KernelParams(3.0)
    with pytest.raises(UnvalidatedDomainError):
        KernelParams(0.5 + 4j)


def test_degenerate_prefactors_vanish():
    # z = 0.5: both gamma arguments -1 and 0 sit at poles
    assert P_DEGENERATE.prefactor(-0.5) == 0.0
    assert P_DEGENERATE.prefactor(0.5) == 0.0
    assert P_DEGENERATE.identically_zero
    assert not P_COMPLEX.identically_zero
    assert w_a("-1/2", 1.0, P_DEGENERATE) == 0.0


def test_w_a_validation():
    with pytest.raises(DomainError):
        w_a(0.3, 1.0, P_COMPLEX)
    with pytest.raises(DomainError):
        w_a("1/2", -1.0, P_COMPLEX)
    with pytest.raises(UnvalidatedDomainError):
        w_a("1/2", 1e-6, P_COMPLEX)


def test_w_a_matches_direct_whittaker():
    from zmeasures.specfun import whittaker_W

    for a in (-0.5, 0.5):
        for x in (0.4, 2.0, 15.0):
            k = P_COMPLEX.whittaker_k(a)
            m = P_COMPLEX.whittaker_m
            expected = P_COMPLEX.prefactor(a) * x**-0.5 * whittaker_W(k, m, x)
            assert w_a(a, x, P_COMPLEX) == pytest.approx(expected, rel=1e-12)


def test_w_a_large_x_asymptotics():
    # w_a(x) ~ prefactor * e^{-x/2} x^{k - 1/2} within 10% at x = 60
    x = 60.0
    for a in (-0.5, 0.5):
        val = w_a(a, x, P_REAL)
        k = P_REAL.whittaker_k(a)
        envelope = P_REAL.prefactor(a) * math.exp(-x / 2) * x ** (k - 0.5)
        assert val == pytest.approx(envelope, rel=0.1)


def test_scalar_kernel_symmetry():
    for x, y in [(0.5, 1.7), (2.0, 3.5), (1.0, 1.0 + 1e-8)]:
        for p in (P_COMPLEX, P_REAL):
            assert scalar_whittaker_kernel(x, y, p) == pytest.approx(
                scalar_whittaker_kernel(y, x, p), rel=1e-9
            )


def test_scalar_kernel_diagonal_taylor_consistency():
    for p in (P_COMPLEX, P_REAL):
        on = scalar_whittaker_kernel(1.0, 1.0, p)
        off = scalar_whittaker_kernel(1.0 + 2e-6, 1.0, p)
        assert on == pytest.approx(off, rel=1e-4)


def test_S_antisymmetry_grid():
    grid = [0.4, 1.5, 4.0]
    for p in (P_COMPLEX, P_DEGENERATE):
        for x in grid:
            for y in grid:
                assert abs(S(x, y, p) + S(y, x, p)) < 1e-8


def test_S_diagonal_zero():
    for x in (0.3, 1.0, 2.7):
        assert abs(S(x, x, P_COMPLEX)) < 1e-8


def test_S_partials_diagonal_identities():
    for x in (0.7, 1.5, 3.0):
        sx, sy, sxy = S_partials(x, x, P_COMPLEX)
        assert abs(sy + sx) < 1e-6
        assert abs(sxy) < 1e-6


def test_S_partials_match_finite_differences():
    x, y = 1.2, 2.3
    h = 1e-4
    sx, sy, sxy = S_partials(x, y, P_COMPLEX)
    fdx = (S(x + h, y, P_COMPLEX) - S(x - h, y, P_COMPLEX)) / (2 * h)
    fdy = (S(x, y + h, P_COMPLEX) - S(x, y - h, P_COMPLEX)) / (2 * h)
    fdxy = (
        S(x + h, y + h, P_COMPLEX)
        - S(x + h, y - h, P_COMPLEX)
        - S(x - h, y + h, P_COMPLEX)
        + S(x - h, y - h, P_COMPLEX)
    ) / (4 * h * h)
    assert sx == pytest.approx(fdx, rel=1e-5)
    assert sy == pytest.approx(fdy, rel=1e-5)
    assert sxy == pytest.approx(fdxy, rel=1e-4)


def test_kernel_decay():
    v = matrix_kernel(60.0, 62.0, P_COMPLEX)
    for entry in (v.s, v.s_x, v.s_y, v.s_xy):
        assert abs(entry) < 1e-6


def test_matrix_block_antisymmetry():
    a = matrix_kernel(1.2, 2.3, P_COMPLEX).as_array()
    b = matrix_kernel(2.3, 1.2, P_COMPLEX).as_array()
    assert np.abs(b + a.T).max() < 1e-8


def test_entries_finite_and_error_reported():
    v = matrix_kernel(0.9, 1.4, P_COMPLEX)
    assert all(map(math.isfinite, (v.s, v.s_x, v.s_y, v.s_xy)))
    assert v.error >= 0.0
    assert v.error < 1e-7


@pytest.fixture
def mpmath_everywhere(monkeypatch):
    """whittaker_W through mpmath for every x in the kernel range, not the
    Poincare series above ASYMPTOTIC_X; the tables keep their seeds at
    x = 200 from the series.  The value caches of the mpmath route are
    swapped for empty ones for the test, so no value of either route leaks
    into another test."""
    for mod, name in (
        (specfun, "_direct"),
        (kernels, "_w0"),
        (kernels, "_w_bundle"),
        (kernels, "_edge_integral"),
        (kernels, "_kernel_integrals"),
    ):
        monkeypatch.setattr(mod, name, lru_cache(maxsize=None)(getattr(mod, name).__wrapped__))
    monkeypatch.setattr(specfun, "ASYMPTOTIC_X", kernels.KERNEL_X_MAX)


def test_context_tables_match_whittaker(mpmath_everywhere):
    rng = np.random.default_rng(2012)
    for _ in range(6):
        z = complex(rng.uniform(0.0, 2.25), rng.uniform(-3.0, 3.0))
        p = KernelParams(z)
        xs = np.exp(rng.uniform(math.log(1e-3), math.log(190.0), 8))
        w, dw = KernelContext(p).whittaker(xs)
        for row, a in enumerate((-0.5, 0.5)):
            k, m = p.whittaker_k(a), p.whittaker_m
            for x, v, dv in zip(xs, w[row], dw[row]):
                ref = specfun.whittaker_W(k, m, x)
                dref = specfun.whittaker_W_deriv(k, m, x)
                # local scale of an oscillating solution: |W| + x |W'|
                assert abs(v - ref) <= 1e-11 * (abs(ref) + x * abs(dref)), (z, a, x)
                assert abs(dv - dref) <= 1e-11 * (abs(dref) + abs(ref) / x), (z, a, x)


@pytest.mark.parametrize("z", [0.3 + 0.4j, 0.3, 0.9 - 1.3j])
def test_context_blocks_match_matrix_kernel(z):
    p = KernelParams(z)
    ctx = KernelContext(p)
    y = 0.6
    for gap in (0.0, 1e-9, 1e-3, y / 2):
        ref = matrix_kernel(y + gap, y, p).as_array()
        got = ctx.block(y + gap, y).as_array()
        assert np.abs(got - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max()), gap


@pytest.mark.parametrize("y", [0.05, 1.3, 20.0])
def test_context_kernel_continuous_across_window_edge(y):
    ctx = KernelContext(P_COMPLEX)
    window = ctx._series(y).window
    assert window == min(y / 2, 4.0)
    for edge in (y - window, y + window):
        inside = ctx.kernel(edge + (1e-12 if edge < y else -1e-12), y)
        outside = ctx.kernel(edge + (-1e-12 if edge < y else 1e-12), y)
        for a, b in zip(inside, outside):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_context_pool_op_c005_matches_mpmath_route(mpmath_everywhere):
    # the unforced mpmath route refuses this op: the Poincare series stalls at x = 41.3
    z, u = 1.5427 + 2.355j, [0.314]
    got = continuum_correlation(u, z)
    ref = pfaffian(assemble(u, KernelParams(z)))
    assert got == pytest.approx(ref, rel=1e-10)


def test_context_pool_op_c061_is_fast():
    # three close points; the mpmath route runs past 30 s
    t = time.perf_counter()
    value = continuum_correlation([2.575, 2.605, 2.723], 0.0336 - 1.0604j)
    assert time.perf_counter() - t < 1.0
    assert math.isfinite(value)


@pytest.mark.parametrize("z", [2.25, 1.0 + 0.1j, 1.7 - 0.2j])
def test_context_points_near_domain_edge_finish(z):
    # dK/dy reaches ~4e4 near x = 1e-3, where the width-scaled quadrature
    # tolerance asks for more than the tables' relative accuracy
    t = time.perf_counter()
    for u in (1e-3, 1.3e-3, 2e-3):
        assert math.isfinite(continuum_correlation([u], z))
    assert time.perf_counter() - t < 3.0
