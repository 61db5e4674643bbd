import math
import signal
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from zmeasures import correlations, measures
from zmeasures.correlations import (
    continuum_correlation,
    lattice_point_for,
    verify_limit,
)
from zmeasures.errors import DomainError, ParameterError, ResourceCapError
from zmeasures.kernels import KernelContext, KernelParams, S_partials, scalar_whittaker_kernel
from zmeasures.measures import ZParams, lattice_correlation, schur_correlation


def test_lattice_point_examples():
    assert lattice_point_for(1.0, 0.9) == Fraction(19, 2)  # tie at 10 -> down
    assert lattice_point_for(0.5, 0.5) == Fraction(1, 2)
    assert lattice_point_for(1.0, 0.8) == Fraction(9, 2)  # tie at 5 -> down
    assert lattice_point_for(0.26, 0.9) == Fraction(5, 2)
    assert lattice_point_for(0.01, 0.5) == Fraction(1, 2)  # clamped at 1/2


def test_lattice_point_monotone_in_u():
    prev = Fraction(0)
    for u in (0.1, 0.5, 1.0, 1.7, 2.4, 5.0):
        pt = lattice_point_for(u, 0.85)
        assert pt >= prev
        prev = pt


def test_lattice_point_validation():
    with pytest.raises(ParameterError):
        lattice_point_for(1.0, 1.0)
    with pytest.raises(ParameterError):
        lattice_point_for(1.0, -0.2)
    with pytest.raises(DomainError):
        lattice_point_for(-1.0, 0.5)


def test_continuum_single_point_equals_kernel_entry():
    z = 0.3 + 0.4j
    for x in (0.8, 2.4):
        _, sy, _ = S_partials(x, x, KernelParams(z))
        assert continuum_correlation([x], z) == pytest.approx(sy, abs=1e-8)


def test_continuum_permutation_invariance():
    z = 0.3 + 0.4j
    a = continuum_correlation([1.0, 2.0, 3.5], z)
    b = continuum_correlation([3.5, 1.0, 2.0], z)
    assert b == pytest.approx(a, rel=1e-10, abs=1e-24)


def test_continuum_degenerate_z_is_zero():
    for u in (0.2, 1.0, 5.0):
        assert continuum_correlation([u], 0.5) == 0.0


def test_one_point_nonnegative_degenerate_grid():
    for u in (0.2, 0.7, 1.6, 3.0, 5.0):
        assert continuum_correlation([u], 0.5) >= -1e-8


def test_one_point_positive_generic_z():
    # sign convention check: densities must be nonnegative
    for u in (0.5, 1.0, 2.5):
        assert continuum_correlation([u], 0.3 + 0.4j) > 0


def test_two_point_factorization_at_large_separation():
    z = 0.3 + 0.4j
    u1, u2 = 0.8, 30.8
    rho2 = continuum_correlation([u1, u2], z)
    rho11 = continuum_correlation([u1], z) * continuum_correlation([u2], z)
    assert rho2 == pytest.approx(rho11, rel=0.05)


def test_verify_limit_degenerate_xi_zero():
    rep = verify_limit([1.6], 0.5, ["0.0"], n_max=5)
    assert rep.rescaled_lattice == (0.0,)
    assert rep.lattice_points[0][0] >= Fraction(3, 2)


def test_verify_limit_degenerate_ladder():
    # z = 0.5 kills every lattice point except 3/2, and the continuum
    # kernel identically: both sides of the comparison vanish
    rep = verify_limit([1.0], 0.5, ["0.7", "0.8"], n_max=30)
    assert rep.continuum == 0.0
    assert rep.rescaled_lattice == (0.0, 0.0)
    assert rep.relative_deviations == (0.0, 0.0)


def test_verify_limit_validation():
    with pytest.raises(DomainError):
        verify_limit([1.0, 1.0], 0.5, ["0.5"], n_max=10)
    with pytest.raises(ResourceCapError):
        verify_limit([1.0], 0.5, ["0.5"], n_max=10**6)
    with pytest.raises(DomainError):
        # 0.6 and 0.61 collide on the lattice at xi = 0.5
        verify_limit([0.6, 0.61], 0.5, ["0.5"], n_max=10)


def test_verify_limit_refuses_bad_ladder_before_continuum(monkeypatch):
    def no_continuum(points, z):
        raise AssertionError("continuum evaluated for a ladder that is refused")

    monkeypatch.setattr(correlations, "continuum_correlation", no_continuum)
    for ladder in ([float("nan")], ["0.8", "abc"], [float("inf")], ["0.8", ""], ["0.8", "1.2"]):
        with pytest.raises(ParameterError):
            verify_limit([1.0], 0.3 + 0.4j, ladder, n_max=10)
    with pytest.raises(ParameterError, match="u must be a finite number"):
        verify_limit([float("nan")], 0.3 + 0.4j, ["0.8"], n_max=10)


@contextmanager
def _fails_after(seconds: float):
    """Raise in the test, rather than hang, when the body runs too long."""
    def fire(signum, frame):
        raise AssertionError(f"still running after {seconds:g} s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


_NMAX_ENTRY_POINTS = {
    "lattice_correlation": lambda n_max: lattice_correlation(
        [Fraction(3, 2)], ZParams(0.3 + 0.4j, 0.5, 0.5), n_max
    ),
    "verify_limit": lambda n_max: verify_limit([1.0], 0.3 + 0.4j, ["0.5", "0.6"], n_max=n_max),
}


@pytest.mark.parametrize("entry", list(_NMAX_ENTRY_POINTS))
@pytest.mark.parametrize("n_max", [float("nan"), 30.0, 30.5, "30"], ids=repr)
def test_non_integral_n_max_refused_before_any_work(entry, n_max, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work done before n_max was checked")

    monkeypatch.setattr(correlations, "continuum_correlation", no_work)
    monkeypatch.setattr(correlations, "lattice_correlation", no_work)
    monkeypatch.setattr(measures, "negative_binomial_tail", no_work)
    with _fails_after(10.0), pytest.raises(ParameterError, match="n_max must be an integer"):
        _NMAX_ENTRY_POINTS[entry](n_max)


@pytest.mark.parametrize("entry", list(_NMAX_ENTRY_POINTS))
def test_numpy_integer_n_max_accepted(entry):
    run = _NMAX_ENTRY_POINTS[entry]
    got, ref = run(np.int64(12)), run(12)
    assert got == ref
    assert type(got.n_max_used) is int


@pytest.mark.parametrize("z", [0.3 + 0.4j, 0.6 - 0.5j])
def test_theta_one_scaling_limit(z):
    # At theta = 1 the rescaled one-point function of ZParams(2z, 1, xi) at
    # the half-integer x nearest 1/(1 - xi) tends to K(u, u), u = x (1 - xi),
    # with a first-order error in 1 - xi.
    params = KernelParams(z)
    ctx = KernelContext(params)
    ratios = {}
    for xi in (0.98, 0.99, 0.995):
        x = lattice_point_for(1, xi)
        u = float(x) * (1 - xi)
        k_uu = ctx.kernel(u, u)[0]
        if not ratios:
            assert k_uu == pytest.approx(scalar_whittaker_kernel(u, u, params), rel=1e-9)
        ratios[xi] = schur_correlation([x], ZParams(2 * z, 1, xi)) / (1 - xi) / k_uu
    assert all(abs(r - 1) <= 5 * (1 - xi) for xi, r in ratios.items()), ratios


def _neville_at_zero(hs, values):
    """Value at h = 0 of the polynomial through (hs[i], values[i])."""
    p = list(values)
    for k in range(1, len(hs)):
        for i in range(len(hs) - k):
            p[i] = (hs[i + k] * p[i] - hs[i] * p[i + 1]) / (hs[i + k] - hs[i])
    return p[0]


@pytest.mark.parametrize("z", [0.3 + 0.4j, 0.6 - 0.5j, 1 + 0.2j])
def test_theta_one_scaling_limit_extrapolated(z):
    # On the exact rungs x = 25/2, ..., 201/2 with xi = 1 - 1/x, so that
    # u = x (1 - xi) = 1, the rescaled theta = 1 one-point function over K(1, 1)
    # is extrapolated to h = 1/x -> 0 by a cubic through all four rungs.
    k11 = KernelContext(KernelParams(z)).kernel(1.0, 1.0)[0]
    xs = [Fraction(25, 2), Fraction(51, 2), Fraction(101, 2), Fraction(201, 2)]
    ratios = []
    for x in xs:
        xi = float(1 - 1 / x)
        ratios.append(schur_correlation([x], ZParams(2 * z, 1, xi)) / (1 - xi) / k11)
    cubic = _neville_at_zero([float(1 / x) for x in xs], ratios)
    assert abs(cubic - 1) <= 1e-2, (cubic, ratios)
    assert abs(cubic - 1) <= abs(ratios[-1] - 1) / 10, (cubic, ratios)


@pytest.mark.parametrize("z", [0.3 + 0.4j, 0.6 - 0.5j, 1 + 0.2j])
def test_theta_one_two_point_scaling_limit_extrapolated(z):
    # The two-point version on the same exact rungs: lattice points (x, 3x)
    # with xi = 1 - 1/x sit at u = (1, 3), and the rescaled theta = 1
    # two-point function over det[K(u_i, u_j)] is extrapolated to h = 1/x -> 0
    # by a cubic through all four rungs.
    ctx = KernelContext(KernelParams(z))
    k11, k13, k31, k33 = (ctx.kernel(a, b)[0] for a in (1.0, 3.0) for b in (1.0, 3.0))
    det = k11 * k33 - k13 * k31
    xs = [Fraction(25, 2), Fraction(51, 2), Fraction(101, 2), Fraction(201, 2)]
    ratios = []
    for x in xs:
        xi = float(1 - 1 / x)
        rho = schur_correlation([x, 3 * x], ZParams(2 * z, 1, xi))
        ratios.append(rho / (1 - xi) ** 2 / det)
    cubic = _neville_at_zero([float(1 / x) for x in xs], ratios)
    assert abs(cubic - 1) <= 2e-2, (cubic, ratios)
    assert abs(cubic - 1) <= abs(ratios[-1] - 1) / 10, (cubic, ratios)


def test_continuum_correlation_refuses_non_finite_points():
    for pts in ([math.nan], [1.0, math.inf]):
        with pytest.raises(DomainError, match="points must be positive and finite"):
            continuum_correlation(pts, 0.3 + 0.4j)
