"""The matrix-valued Whittaker kernel of the continuum point process.

Building blocks:

* ``w_a(x)`` for half-integer a, built from W_{k,m}(x) with k = -2 Re z - a
  and m = -2i Im z.  The gamma prefactor couples the conjugate pair
  (-2z, -2 zbar), so Gamma(z1-a+1/2) Gamma(z2-a+1/2) = |Gamma|^2 >= 0 and
  the inverse square root extends continuously by 0 across gamma poles.
* the scalar kernel K(x,y) = 2|z| (w_-(x)w_+(y) - w_+(x)w_-(y))/(x-y),
* the antisymmetric function

      S(x,y) = (1/2) sqrt(y) int_x^inf K(s,y) ds/sqrt(s)
               - (|z|/2) A(x) B(y),

  with A(x) = int_x^inf w_-(s) ds/sqrt(s), B(y) = int_y^inf w_+(t) dt/sqrt(t),
  and its partial derivatives S_x, S_y, S_xy, assembled into the 2x2 matrix
  kernel [[S, S_y], [S_x, S_xy]].

S_x and S_xy are closed forms (the x-dependence sits in integral lower
limits); S_y differentiates under the integral sign.  Near-diagonal
evaluations of K and dK/dy switch to Taylor expansions in which the
1/(s-y) singular parts cancel exactly.  Semi-infinite tails are truncated
at T inside the validated Whittaker domain with an exponential-envelope
bound carried in the reported error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import special as sp

from .errors import DomainError, ParameterError, UnvalidatedDomainError, validate_z
from .quadrature import adaptive_gauss_legendre
from .specfun import (
    ASYMPTOTIC_X,
    X_MAX,
    is_gamma_pole,
    whittaker_W,
    whittaker_W_deriv,
    whittaker_W_second,
    whittaker_W_third,
)

KERNEL_X_MIN = 1e-3
KERNEL_X_MAX = 190.0
_DIAG_EPS_SCALE = 1e-6
_QUAD_ABS_FLOOR = 1e-20


@dataclass(frozen=True)
class KernelParams:
    """Parameter z of the continuum kernel; the scalar kernel inside is
    taken at the conjugate pair (z1, z2) = (-2z, -2 zbar)."""

    z: complex
    tol: float = 1e-10

    def __post_init__(self):
        z = validate_z(self.z)
        if z.real < 0:
            raise UnvalidatedDomainError(
                f"validated kernel domain requires Re z >= 0, got z = {z}"
            )
        if z.real > 2.25 or abs(z.imag) > 3.0:
            raise UnvalidatedDomainError(
                f"z = {z} pushes Whittaker indices outside the validated box"
            )
        if not 0 < self.tol <= 1e-6:
            raise ParameterError(f"tol must lie in (0, 1e-6], got {self.tol}")

    @property
    def c(self) -> float:
        """sqrt(z zbar), read as the positive root |z|."""
        return abs(complex(self.z))

    @property
    def big_c(self) -> float:
        """sqrt(z1 z2) = sqrt(4 z zbar), read as 2|z|."""
        return 2.0 * abs(complex(self.z))

    def whittaker_k(self, a: float) -> float:
        """(z1 + z2)/2 - a = -2 Re z - a."""
        return -2.0 * complex(self.z).real - a

    @property
    def whittaker_m(self) -> complex:
        """(z1 - z2)/2 = -2i Im z, purely imaginary."""
        return complex(0.0, -2.0 * complex(self.z).imag)

    def prefactor(self, a: float) -> float:
        """(Gamma(z1-a+1/2) Gamma(z2-a+1/2))^{-1/2} = 1/|Gamma(z1-a+1/2)|,
        extended by continuity to exact 0 at gamma poles."""
        w = -2.0 * complex(self.z) - a + 0.5
        if is_gamma_pole(w):
            return 0.0
        return math.exp(-complex(sp.loggamma(w)).real)

    @property
    def identically_zero(self) -> bool:
        """True when both w_{-1/2} and w_{1/2} vanish identically."""
        return self.prefactor(-0.5) == 0.0 and self.prefactor(0.5) == 0.0


def _validate_half_integer(a) -> float:
    f = Fraction(a)
    if f.denominator != 2:
        raise DomainError(f"a must be a half-integer, got {a}")
    return float(f)


def _validate_x(x: float, what: str = "x") -> float:
    x = float(x)
    if not x > 0:
        raise DomainError(f"{what} must be positive, got {x}")
    if not (KERNEL_X_MIN <= x <= KERNEL_X_MAX):
        raise UnvalidatedDomainError(
            f"{what} = {x} outside validated kernel range [{KERNEL_X_MIN}, {KERNEL_X_MAX}]"
        )
    return x


@lru_cache(maxsize=500_000)
def _w0(z: complex, a: float, x: float) -> float:
    """w_a(x) for the conjugate-pair parameters derived from z."""
    p = KernelParams(z)
    pref = p.prefactor(a)
    if pref == 0.0:
        return 0.0
    return pref * x ** (-0.5) * whittaker_W(p.whittaker_k(a), p.whittaker_m, x)


@lru_cache(maxsize=50_000)
def _w_bundle(z: complex, a: float, x: float) -> tuple[float, float, float, float]:
    """(w_a, w_a', w_a'', w_a''') at x, by the product rule on
    x^{-1/2} W_{k,m}(x) with W-derivatives from the Whittaker equation."""
    p = KernelParams(z)
    pref = p.prefactor(a)
    if pref == 0.0:
        return (0.0, 0.0, 0.0, 0.0)
    k, m = p.whittaker_k(a), p.whittaker_m
    W0 = whittaker_W(k, m, x)
    W1 = whittaker_W_deriv(k, m, x)
    W2 = whittaker_W_second(k, m, x)
    W3 = whittaker_W_third(k, m, x)
    f0 = x**-0.5
    f1 = -0.5 * x**-1.5
    f2 = 0.75 * x**-2.5
    f3 = -1.875 * x**-3.5
    return (
        pref * f0 * W0,
        pref * (f1 * W0 + f0 * W1),
        pref * (f2 * W0 + 2.0 * f1 * W1 + f0 * W2),
        pref * (f3 * W0 + 3.0 * f2 * W1 + 3.0 * f1 * W2 + f0 * W3),
    )


def w_a(a, x: float, params: KernelParams) -> float:
    """w_a(x; -2z, -2 zbar): real by the conjugate-pair construction."""
    a = _validate_half_integer(a)
    x = _validate_x(x)
    return _w0(complex(params.z), a, x)


class _Scalar:
    """Scalar kernel K(s, y) and dK/dy at fixed y, with the removable
    diagonal singularity handled by Taylor expansion."""

    def __init__(self, params: KernelParams, y: float):
        self.params = params
        self.y = y
        self.eps = _DIAG_EPS_SCALE * max(1.0, y)
        z = complex(params.z)
        self.wm = _w_bundle(z, -0.5, y)
        self.wp = _w_bundle(z, 0.5, y)
        self.z = z

    def _values(self, s: float) -> tuple[float, float]:
        z = self.z
        return _w0(z, -0.5, s), _w0(z, 0.5, s)

    def kernel(self, s: float) -> float:
        C = self.params.big_c
        wm, wp = self.wm, self.wp
        d = s - self.y
        if abs(d) >= self.eps:
            wms, wps = self._values(s)
            return C * (wms * wp[0] - wps * wm[0]) / d
        w10 = wm[1] * wp[0] - wp[1] * wm[0]
        w20 = wm[2] * wp[0] - wp[2] * wm[0]
        w30 = wm[3] * wp[0] - wp[3] * wm[0]
        return C * (w10 + 0.5 * d * w20 + d * d * w30 / 6.0)

    def kernel_dy(self, s: float) -> float:
        C = self.params.big_c
        wm, wp = self.wm, self.wp
        d = s - self.y
        if abs(d) >= self.eps:
            wms, wps = self._values(s)
            num_y = wms * wp[1] - wps * wm[1]
            num = wms * wp[0] - wps * wm[0]
            return C * (num_y / d + num / (d * d))
        w20 = wm[2] * wp[0] - wp[2] * wm[0]
        w30 = wm[3] * wp[0] - wp[3] * wm[0]
        w21 = wm[2] * wp[1] - wp[2] * wm[1]
        return C * (0.5 * w20 + d * (w30 / 6.0 + 0.5 * w21))


def scalar_whittaker_kernel(x: float, y: float, params: KernelParams) -> float:
    """K(x,y) at the conjugate pair (-2z, -2 zbar); symmetric and real."""
    x = _validate_x(x)
    y = _validate_x(y, "y")
    return _Scalar(params, y).kernel(x)


def _tail_T(lo: float) -> float:
    return min(max(lo, ASYMPTOTIC_X) + 100.0, min(X_MAX, 200.0))


def _integrate_from(f, lo: float, T: float, tol: float, inner_breaks=()) -> tuple[float, float]:
    """int_lo^T f(s) ds with a sqrt substitution near a small lower
    endpoint and the asymptotic-switch point as a forced panel edge."""
    if T <= lo:
        return 0.0, 0.0
    breaks = set(b for b in inner_breaks if lo < b < T)
    breaks.add(ASYMPTOTIC_X)
    total = 0.0
    err = 0.0
    start = lo
    if lo < 1.0:
        b = min(1.0, T)
        u_hi = math.sqrt(b - lo)
        u_breaks = [math.sqrt(p - lo) for p in breaks if p < b]
        v, e = adaptive_gauss_legendre(
            lambda u: 2.0 * u * f(lo + u * u),
            0.0,
            u_hi,
            tol,
            u_breaks,
            abs_floor=_QUAD_ABS_FLOOR,
        )
        total += v
        err += e
        start = b
    if T > start:
        v, e = adaptive_gauss_legendre(
            f,
            start,
            T,
            tol,
            sorted(b for b in breaks if start < b < T),
            abs_floor=_QUAD_ABS_FLOOR,
        )
        total += v
        err += e
    # exponential-envelope tail bound beyond T
    err += 4.0 * abs(f(T))
    return total, err


@lru_cache(maxsize=20_000)
def _edge_integral(z: complex, tol: float, a: float, lo: float) -> tuple[float, float]:
    """int_lo^inf w_a(s) ds/sqrt(s) with its error estimate."""
    T = _tail_T(lo)
    return _integrate_from(
        lambda s: _w0(z, a, s) / math.sqrt(s), lo, T, tol
    )


@lru_cache(maxsize=20_000)
def _kernel_integrals(z: complex, tol: float, x: float, y: float) -> tuple[float, float, float]:
    """(I0, I1, err): int_x^inf K(s,y)/sqrt(s) ds and the same with dK/dy."""
    params = KernelParams(z, tol)
    sc = _Scalar(params, y)
    T = _tail_T(max(x, y))
    i0, e0 = _integrate_from(
        lambda s: sc.kernel(s) / math.sqrt(s), x, T, tol, inner_breaks=(y,)
    )
    i1, e1 = _integrate_from(
        lambda s: sc.kernel_dy(s) / math.sqrt(s), x, T, tol, inner_breaks=(y,)
    )
    return i0, i1, e0 + e1


@dataclass(frozen=True)
class MatrixKernelValue:
    """Entries [[S, S_y], [S_x, S_xy]] of the 2x2 kernel block at (x, y),
    with the propagated quadrature/tail error estimate."""

    s: float
    s_y: float
    s_x: float
    s_xy: float
    error: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.s, self.s_y], [self.s_x, self.s_xy]])


def _full(params: KernelParams, x: float, y: float) -> MatrixKernelValue:
    z = complex(params.z)
    if params.identically_zero:
        return MatrixKernelValue(0.0, 0.0, 0.0, 0.0, 0.0)
    tol = params.tol
    i0, i1, e_i = _kernel_integrals(z, tol, x, y)
    a_x, e_a = _edge_integral(z, tol, -0.5, x)
    b_y, e_b = _edge_integral(z, tol, 0.5, y)
    sc = _Scalar(params, y)
    k_xy = sc.kernel(x)
    ky_xy = sc.kernel_dy(x)
    wm_x = _w0(z, -0.5, x)
    wp_y = sc.wp[0]
    # the rank-one term carries |sqrt(z1 z2)|/4 = |z|/2: the magnitude that
    # makes S antisymmetric (verified numerically across z).  The overall
    # sign corresponds to the branch sqrt(z1 z2) = -2|z|; it is fixed by
    # positivity of the one-point function, cross-checked against rescaled
    # lattice correlation probabilities.
    c4 = params.big_c / 4.0
    sx, sy = math.sqrt(x), math.sqrt(y)

    s_val = 0.5 * sy * i0 - c4 * a_x * b_y
    s_x = -0.5 * sy * k_xy / sx + c4 * (wm_x / sx) * b_y
    s_y = i0 / (4.0 * sy) + 0.5 * sy * i1 + c4 * a_x * wp_y / sy
    s_xy = -(
        k_xy / (4.0 * sy * sx)
        + 0.5 * sy * ky_xy / sx
        + c4 * (wm_x / sx) * (wp_y / sy)
    )
    err = e_i + e_a + e_b
    return MatrixKernelValue(s=s_val, s_y=s_y, s_x=s_x, s_xy=s_xy, error=err)


def S(x: float, y: float, params: KernelParams) -> float:
    """The antisymmetric function S(x, y)."""
    x = _validate_x(x)
    y = _validate_x(y, "y")
    return _full(params, x, y).s


def S_partials(x: float, y: float, params: KernelParams) -> tuple[float, float, float]:
    """(S_x, S_y, S_xy) at (x, y), by analytic differentiation."""
    x = _validate_x(x)
    y = _validate_x(y, "y")
    v = _full(params, x, y)
    return v.s_x, v.s_y, v.s_xy


def matrix_kernel(x: float, y: float, params: KernelParams) -> MatrixKernelValue:
    """The 2x2 kernel block [[S, S_y], [S_x, S_xy]] at (x, y)."""
    x = _validate_x(x)
    y = _validate_x(y, "y")
    return _full(params, x, y)
