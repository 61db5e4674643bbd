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
limits); S_y differentiates under the integral sign.  Semi-infinite tails
are truncated at T inside the validated Whittaker domain with an
exponential-envelope bound carried in the reported error estimate.

Two routes compute the blocks with the same adaptive quadrature, tail
bound and S formulas:

* ``matrix_kernel`` (with ``S``, ``S_partials``, ``w_a`` and
  ``scalar_whittaker_kernel``) evaluates every w_a(s) through
  ``specfun.whittaker_W`` (mpmath below x = 40) and takes K and dK/dy from
  third-order Taylor expansions for |s - y| < 1e-6 max(1, y), quotients
  elsewhere.  It is the test oracle, and the CLI ``kernel`` and ``corr``
  commands print its values.
* ``KernelContext`` builds, once per z, Taylor tables of W_{k,m} on
  [1e-3, 200] for the two index pairs, seeded from ``whittaker_W`` and
  ``whittaker_W_deriv`` at x = 200, and takes K and dK/dy from series
  re-centred at y for |s - y| <= min(y/2, 4).
  ``correlations.continuum_correlation`` and ``verify_limit`` assemble
  through it.
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


def _integrate_from(
    f, lo: float, T: float, tol: float, inner_breaks=(), table: bool = False
) -> tuple[float, float]:
    """int_lo^T f(s) ds with a sqrt substitution near a small lower
    endpoint and the asymptotic-switch point as a forced panel edge.
    A ``table`` integrand (from KernelContext) maps an array of nodes to an
    array of values and is accurate to _TABLE_REL_FLOOR, not to rounding."""
    quad = {"vectorized": True, "rel_floor": _TABLE_REL_FLOOR} if table else {}
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
            **quad,
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
            **quad,
        )
        total += v
        err += e
    # exponential-envelope tail bound beyond T
    f_T = float(f(np.array([T]))[0]) if table else f(T)
    err += 4.0 * abs(f_T)
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


def _s_block(
    params: KernelParams,
    x: float,
    y: float,
    i0: float,
    i1: float,
    a_x: float,
    b_y: float,
    k_xy: float,
    ky_xy: float,
    wm_x: float,
    wp_y: float,
    err: float,
) -> MatrixKernelValue:
    """[[S, S_y], [S_x, S_xy]] at (x, y) from the kernel integrals
    i0 = int_x^inf K(s,y) ds/sqrt(s) and i1 (the same with dK/dy), the edge
    integrals A(x), B(y), and K, dK/dy, w_-(x), w_+(y)."""
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
    return MatrixKernelValue(s=s_val, s_y=s_y, s_x=s_x, s_xy=s_xy, error=err)


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
    err = e_i + e_a + e_b
    return _s_block(params, x, y, i0, i1, a_x, b_y, k_xy, ky_xy, wm_x, wp_y, err)


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


# Taylor tables of the context: centres step inward from X_MAX by
# h = min(_STEP_FRAC * c, _STEP_MAX), each carrying _TAYLOR_TERMS terms.
_TAYLOR_TERMS = 60
_STEP_FRAC = 0.4
_STEP_MAX = 4.0
# relative accuracy of the table integrands: K and dK/dy near the window edge
# lose up to two digits to cancellation in w_-(s) w_+(y) - w_+(s) w_-(y)
_TABLE_REL_FLOOR = 1e-12
_HALF_INTEGERS = (-0.5, 0.5)


def _taylor_basis(centres, ks, m2: float, nterms: int = _TAYLOR_TERMS) -> np.ndarray:
    """Scaled Taylor coefficients alpha_n = c^n W^(n)(c)/n! of the two
    solutions of x^2 W'' = (x^2/4 - k x + m^2 - 1/4) W with
    (alpha_0, alpha_1) = (1, 0) and (0, 1), for every k in ``ks`` and every
    centre c; shape (nterms, 2, len(ks), len(centres)).

    With x = c (1 + tau), the equation gives
    (n+1)(n+2) alpha_{n+2} = (q0 - n(n-1)) alpha_n - 2n(n+1) alpha_{n+1}
                             + q1 alpha_{n-1} + q2 alpha_{n-2},
    q0 = c^2/4 - k c + m^2 - 1/4, q1 = c^2/2 - k c, q2 = c^2/4.
    """
    c = np.asarray(centres, dtype=float)[None, :]
    k = np.asarray(ks, dtype=float)[:, None]
    q0 = 0.25 * c * c - k * c + (m2 - 0.25)
    q1 = 0.5 * c * c - k * c
    q2 = 0.25 * c * c
    al = np.zeros((nterms, 2) + q0.shape)
    al[0, 0] = 1.0
    al[1, 1] = 1.0
    for n in range(nterms - 2):
        acc = (q0 - n * (n - 1)) * al[n] - (2.0 * n * (n + 1)) * al[n + 1]
        if n >= 1:
            acc += q1 * al[n - 1]
        if n >= 2:
            acc += q2 * al[n - 2]
        al[n + 2] = acc / ((n + 1) * (n + 2))
    return al


def _powers(tau: np.ndarray, nterms: int = _TAYLOR_TERMS) -> np.ndarray:
    """tau^n for n < nterms, shape (len(tau), nterms)."""
    return tau[:, None] ** np.arange(nterms)


@dataclass(frozen=True)
class _DiagonalSeries:
    """K(s, y) and dK/dy at fixed y as power series in tau = (s - y)/y,
    used for |s - y| <= window, with w_-(y), w_+(y) and their derivatives
    for the quotient outside it."""

    window: float
    k_coef: np.ndarray
    ky_coef: np.ndarray
    wm: float
    wp: float
    dwm: float
    dwp: float


class KernelContext:
    """The 2x2 kernel blocks at one z, from Taylor tables of W_{k,m}.

    For the two index pairs k = -2 Re z -+ 1/2, m = -2i Im z (so m^2 is
    real) the context seeds W and W' at x = X_MAX from ``whittaker_W`` and
    ``whittaker_W_deriv`` (the Poincare series, accurate to about 1e-15
    there) and continues inward down to X_MIN with the power-series
    recurrence of x^2 W'' = (x^2/4 - k x + m^2 - 1/4) W, in steps
    h = -min(0.4 x, 4) with 60 terms per centre.  W is recessive at
    infinity, so the inward continuation is stable.  Every later value of
    w_{-+1/2} comes from these tables; building them costs four Whittaker
    calls per z and no mpmath call.

    Near the diagonal, |s - y| <= min(y/2, 4), K(s, y) and dK/dy are summed
    from the series of w_-+ re-centred at y, in which the 1/(s - y) cancels
    term by term; outside that window they are the plain quotients.  The
    blocks use the same adaptive quadrature, tail bound and S formulas as
    ``matrix_kernel``, on integrands evaluated on arrays of nodes.
    """

    def __init__(self, params: KernelParams):
        self.params = params
        self.zero = params.identically_zero
        self._series_cache: dict[float, _DiagonalSeries] = {}
        self._edges: dict[tuple[int, float], tuple[float, float]] = {}
        self._integrals: dict[tuple[float, float], tuple[float, float, float]] = {}
        if self.zero:
            return
        self._ks = np.array([params.whittaker_k(a) for a in _HALF_INTEGERS])
        m = params.whittaker_m
        self._m2 = (m * m).real
        self._pref = np.array([params.prefactor(a) for a in _HALF_INTEGERS])
        self._build_tables()

    def _build_tables(self):
        cs = [X_MAX]
        while cs[-1] > KERNEL_X_MIN:
            cs.append(cs[-1] - min(_STEP_FRAC * cs[-1], _STEP_MAX))
        cs = np.array(cs)
        al = _taylor_basis(cs, self._ks, self._m2)
        # each basis solution at the inner end of its step, and its d/dtau
        tau = cs[1:] / cs[:-1] - 1.0
        n = np.arange(_TAYLOR_TERMS)[:, None]
        pw = tau[None, :] ** n
        dpw = n * tau[None, :] ** np.maximum(n - 1, 0)
        val = np.einsum("nbpj,nj->bpj", al[..., :-1], pw)
        der = np.einsum("nbpj,nj->bpj", al[..., :-1], dpw)
        npairs = len(self._ks)
        w = np.zeros((npairs, len(cs)))
        cw1 = np.zeros((npairs, len(cs)))  # c W'(c)
        m = self.params.whittaker_m
        for p, k in enumerate(self._ks):
            w[p, 0] = whittaker_W(k, m, X_MAX)
            cw1[p, 0] = X_MAX * whittaker_W_deriv(k, m, X_MAX)
        for j in range(len(cs) - 1):
            w[:, j + 1] = w[:, j] * val[0, :, j] + cw1[:, j] * val[1, :, j]
            dw_dtau = w[:, j] * der[0, :, j] + cw1[:, j] * der[1, :, j]
            cw1[:, j + 1] = dw_dtau * cs[j + 1] / cs[j]
        coef = w[None] * al[:, 0] + cw1[None] * al[:, 1]
        # centres ascending; coefficients (pair, centre, n)
        self._centres = cs[::-1].copy()
        self._coef = np.ascontiguousarray(coef[..., ::-1].transpose(1, 2, 0))
        self._dcoef = self._coef[..., 1:] * np.arange(1, _TAYLOR_TERMS)

    def _locate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index of the nearest centre at or above each x, and tau."""
        i = np.minimum(np.searchsorted(self._centres, x), len(self._centres) - 1)
        c = self._centres[i]
        return i, x / c - 1.0

    def whittaker(self, x) -> tuple[np.ndarray, np.ndarray]:
        """W_{k,m}(x) and W'_{k,m}(x) from the tables, shape (2, len(x)),
        for a = -1/2 (row 0) and a = +1/2 (row 1)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        i, tau = self._locate(x)
        pw = _powers(tau)
        w = np.einsum("psn,sn->ps", self._coef[:, i, :], pw)
        dw = np.einsum("psn,sn->ps", self._dcoef[:, i, :], pw[:, :-1])
        return w, dw / self._centres[i]

    def _w(self, x: np.ndarray) -> np.ndarray:
        """(w_-(x), w_+(x)) as rows of a (2, len(x)) array."""
        i, tau = self._locate(x)
        w = np.einsum("psn,sn->ps", self._coef[:, i, :], _powers(tau))
        return w * (self._pref[:, None] / np.sqrt(x))

    def _series(self, y: float) -> _DiagonalSeries:
        ser = self._series_cache.get(y)
        if ser is not None:
            return ser
        w, dw = self.whittaker([y])
        al = _taylor_basis([y], self._ks, self._m2)[..., 0]
        coef_W = w[:, 0] * al[:, 0] + (y * dw[:, 0]) * al[:, 1]  # (n, pair)
        # (y (1 + tau))^{-1/2} = y^{-1/2} sum_n binom(-1/2, n) tau^n
        n = np.arange(1, _TAYLOR_TERMS)
        g = np.cumprod(np.r_[1.0, (0.5 - n) / n]) / math.sqrt(y)
        bm, bp = (
            self._pref[p] * np.convolve(coef_W[:, p], g)[:_TAYLOR_TERMS]
            for p in range(2)
        )
        # w_-(s) w_+(y) - w_+(s) w_-(y) = sum_n d_n tau^n with d_0 = 0, and
        # w_-(s) w_+'(y) - w_+(s) w_-'(y) = sum_n e_n tau^n / y with e_1 = 0
        d = bm * bp[0] - bp * bm[0]
        e = bm * bp[1] - bp * bm[1]
        C = self.params.big_c
        ser = _DiagonalSeries(
            window=min(0.5 * y, _STEP_MAX),
            k_coef=(C / y) * d[1:],
            ky_coef=(C / (y * y)) * (d[2:] + e[1:-1]),
            wm=float(bm[0]),
            wp=float(bp[0]),
            dwm=float(bm[1] / y),
            dwp=float(bp[1] / y),
        )
        self._series_cache[y] = ser
        return ser

    def _kernels(self, s: np.ndarray, y: float, dy: bool) -> np.ndarray:
        """K(s, y), or dK/dy when ``dy``, on an array of s."""
        ser = self._series(y)
        d = s - y
        near = np.abs(d) <= ser.window
        out = np.empty_like(d)
        if near.any():
            coef = ser.ky_coef if dy else ser.k_coef
            out[near] = _powers(d[near] / y, len(coef)) @ coef
        far = ~near
        if far.any():
            df = d[far]
            wm, wp = self._w(s[far])
            num = wm * ser.wp - wp * ser.wm
            if dy:
                num_y = wm * ser.dwp - wp * ser.dwm
                out[far] = self.params.big_c * (num_y / df + num / (df * df))
            else:
                out[far] = self.params.big_c * num / df
        return out

    def _edge(self, p: int, lo: float) -> tuple[float, float]:
        """int_lo^inf w_a(s) ds/sqrt(s), a = (-1/2, +1/2)[p], with its error."""
        key = (p, lo)
        if key not in self._edges:
            self._edges[key] = _integrate_from(
                lambda s: self._w(s)[p] / np.sqrt(s),
                lo, _tail_T(lo), self.params.tol, table=True,
            )
        return self._edges[key]

    def _kernel_integrals(self, x: float, y: float) -> tuple[float, float, float]:
        key = (x, y)
        if key not in self._integrals:
            win = self._series(y).window
            T = _tail_T(max(x, y))
            tol = self.params.tol
            breaks = (y - win, y + win)
            i0, e0 = _integrate_from(
                lambda s: self._kernels(s, y, False) / np.sqrt(s),
                x, T, tol, breaks, table=True,
            )
            i1, e1 = _integrate_from(
                lambda s: self._kernels(s, y, True) / np.sqrt(s),
                x, T, tol, breaks, table=True,
            )
            self._integrals[key] = (i0, i1, e0 + e1)
        return self._integrals[key]

    def kernel(self, x: float, y: float) -> tuple[float, float]:
        """(K(x, y), dK/dy(x, y)) from the tables."""
        x = _validate_x(x)
        y = _validate_x(y, "y")
        if self.zero:
            return 0.0, 0.0
        s = np.array([x])
        return float(self._kernels(s, y, False)[0]), float(self._kernels(s, y, True)[0])

    def block(self, x: float, y: float) -> MatrixKernelValue:
        """The 2x2 kernel block [[S, S_y], [S_x, S_xy]] at (x, y); agrees
        with ``matrix_kernel`` to the quadrature tolerance."""
        x = _validate_x(x)
        y = _validate_x(y, "y")
        if self.zero:
            return MatrixKernelValue(0.0, 0.0, 0.0, 0.0, 0.0)
        i0, i1, e_i = self._kernel_integrals(x, y)
        a_x, e_a = self._edge(0, x)
        b_y, e_b = self._edge(1, y)
        k_xy, ky_xy = self.kernel(x, y)
        wm_x = float(self._w(np.array([x]))[0, 0])
        wp_y = self._series(y).wp
        err = e_i + e_a + e_b
        return _s_block(self.params, x, y, i0, i1, a_x, b_y, k_xy, ky_xy, wm_x, wp_y, err)
