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

One block pipeline (``_BlockPipeline``) owns, per z, the edge integrals A,
B and the kernel integrals, and turns them into blocks by the S formulas
with one adaptive quadrature, at the fixed tolerance ``_QUAD_TOL`` = 1e-10,
and one tail bound, and takes K and dK/dy away from the diagonal from one
quotient (``_quotient``).  Integrals over the same nodes are the
components of one integrand: (K, dK/dy)/sqrt(s) at one (x, y), and, for
the points of an assembly (``KernelContext.prepare``), (w_-, w_+)/sqrt(s)
at one lower limit.  Each component keeps its own panel tree, so its
value and error are the floats it gets when integrated alone.  Two
sources of W feed the pipeline, each with its quadrature settings
(``_VECTORIZED``, ``_REL_FLOOR``) as class constants:

* ``_MpmathKernel`` evaluates every w_a(s) through ``specfun.whittaker_W``
  (mpmath below x = 40), one node at a time, and takes K and dK/dy from
  third-order Taylor expansions for |s - y| < 1e-6 max(1, y), quotients
  elsewhere.  ``matrix_kernel``, ``S``, ``S_partials``, ``w_a`` and
  ``scalar_whittaker_kernel`` read from it, through ``_mpmath_kernel``,
  which keeps the objects of the two most recent z.  It is the test
  oracle, and the CLI ``kernel`` and ``corr`` commands print its values.
* ``KernelContext`` builds Taylor tables of W_{k,m} on [1e-3, 200] for the
  two index pairs, seeded from ``whittaker_W`` and ``whittaker_W_deriv``
  at x = 200, evaluates them on arrays of nodes, and takes K and dK/dy
  from series re-centred at y for |s - y| <= min(y/2, 4).
  ``correlations.continuum_correlation`` and ``verify_limit`` assemble
  through ``_context``, which keeps the contexts of the two most recent z,
  with their tables and blocks.  Every power table tau^n it sums against
  is a running product along n (``_powers``), not ``np.power``: in float
  at each quadrature node, in long double for the per-z step tables.  A
  context keeps the table values (w_-, w_+) at every array of nodes it has
  evaluated, so the integrals of an assembly that visit one panel sum the
  tables there once, and it builds the diagonal series of all the points
  of an assembly in one batch.  These memos live and die with the context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, UnvalidatedDomainError, validate_z
from .partitions import half_integer
from .quadrature import adaptive_gauss_legendre
from .specfun import (
    ASYMPTOTIC_X,
    X_MAX,
    is_gamma_pole,
    log_gamma,
    whittaker_W,
    whittaker_W_deriv,
    whittaker_W_second,
    whittaker_W_third,
)

KERNEL_X_MIN = 1e-3
KERNEL_X_MAX = 190.0
_DIAG_EPS_SCALE = 1e-6
_QUAD_TOL = 1e-10
# relative accuracy of the table integrands: K and dK/dy near the window edge
# lose up to two digits to cancellation in w_-(s) w_+(y) - w_+(s) w_-(y)
_TABLE_REL_FLOOR = 1e-12
_HALF_INTEGERS = (-0.5, 0.5)


@dataclass(frozen=True)
class KernelParams:
    """Parameter z of the continuum kernel; the scalar kernel inside is
    taken at the conjugate pair (z1, z2) = (-2z, -2 zbar)."""

    z: complex

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

    def _gamma_arg(self, a: float) -> complex:
        """z1 - a + 1/2 = -2z - a + 1/2."""
        return -2.0 * complex(self.z) - a + 0.5

    def prefactor(self, a: float) -> float:
        """(Gamma(z1-a+1/2) Gamma(z2-a+1/2))^{-1/2} = 1/|Gamma(z1-a+1/2)|,
        extended by continuity to exact 0 at gamma poles."""
        w = self._gamma_arg(a)
        if is_gamma_pole(w):
            return 0.0
        return math.exp(-log_gamma(w).real)

    @property
    def identically_zero(self) -> bool:
        """True when both w_{-1/2} and w_{1/2} vanish identically, i.e. both
        gamma arguments are poles: away from them 1/|Gamma(w)| stays far
        from underflow for |w| <= 8, which the validated box keeps."""
        return all(is_gamma_pole(self._gamma_arg(a)) for a in _HALF_INTEGERS)


def _validate_x(x: float, what: str = "x") -> float:
    x = float(x)
    if not x > 0:
        raise DomainError(f"{what} must be positive, got {x}")
    if not (KERNEL_X_MIN <= x <= KERNEL_X_MAX):
        raise UnvalidatedDomainError(
            f"{what} = {x} outside validated kernel range [{KERNEL_X_MIN}, {KERNEL_X_MAX}]"
        )
    return x


def _in_range(points) -> list[float]:
    """The distinct points inside the validated kernel range, as floats."""
    return [x for x in dict.fromkeys(map(float, points)) if KERNEL_X_MIN <= x <= KERNEL_X_MAX]


def _tail_T(lo: float) -> float:
    return min(max(lo, ASYMPTOTIC_X) + 100.0, min(X_MAX, 200.0))


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


class _BlockPipeline:
    """The 2x2 kernel blocks at one z, from a subclass's source of W.

    A source supplies w_a(s) for a = (-1/2, +1/2)[p] (``_wa``) and the pair
    (K(s, y), dK/dy(s, y)) (``_kernels``) on quadrature nodes, the inner
    panel edges of the kernel integrals at y (``_breaks``) and
    (K, dK/dy, w_-(x), w_+(y)) at one point (``_point``), and states its
    quadrature settings as class constants: ``_VECTORIZED`` says whether
    its integrands map an array of nodes to an array of values, and
    ``_REL_FLOOR`` is their relative accuracy.  Integrals that need the
    same nodes are the components of one integrand (``quadrature``), so
    they share their evaluations while each keeps its own panel tree and
    value: I0 and I1 at one (x, y) always, and A(lo) and B(lo) at one lower
    limit when ``KernelContext.prepare`` is told that both are needed.  The
    pipeline keeps the edge and kernel integrals of its z and turns them
    into blocks by the S formulas.
    """

    def __init__(self, params: KernelParams):
        self.params = params
        self.zero = params.identically_zero
        self._edges: dict[tuple[int, float], tuple[float, float]] = {}
        self._integrals: dict[tuple[float, float], tuple[float, float, float]] = {}

    def _integrate(self, f, k: int, lo: float, T: float, inner_breaks=()) -> list[tuple[float, float]]:
        """int_lo^T f(s) ds of each of the k components of f, with a sqrt
        substitution near a small lower endpoint and the asymptotic-switch
        point as a forced panel edge.  Callers pass
        T = _tail_T(v >= lo) > max(lo, 1)."""
        breaks = set(b for b in inner_breaks if lo < b < T)
        breaks.add(ASYMPTOTIC_X)
        parts = []
        start = lo
        if lo < 1.0:
            u_hi = math.sqrt(1.0 - lo)
            u_breaks = [math.sqrt(p - lo) for p in breaks if p < 1.0]
            parts.append(adaptive_gauss_legendre(
                lambda u: 2.0 * u * f(lo + u * u),
                0.0,
                u_hi,
                _QUAD_TOL,
                u_breaks,
                vectorized=self._VECTORIZED,
                rel_floor=self._REL_FLOOR,
                components=k,
            ))
            start = 1.0
        parts.append(adaptive_gauss_legendre(
            f,
            start,
            T,
            _QUAD_TOL,
            sorted(b for b in breaks if start < b < T),
            vectorized=self._VECTORIZED,
            rel_floor=self._REL_FLOOR,
            components=k,
        ))
        f_T = [float(v) for v in f(np.array([T]))[:, 0]] if self._VECTORIZED else f(T)
        out = []
        for c in range(k):
            total = 0.0
            err = 0.0
            for part in parts:
                total += part[c][0]
                err += part[c][1]
            # exponential-envelope tail bound beyond T
            err += 4.0 * abs(f_T[c])
            out.append((total, err))
        return out

    def _integrate_edges(self, ps: tuple[int, ...], lo: float) -> None:
        """int_lo^inf w_a(s) ds/sqrt(s), a = (-1/2, +1/2)[p], with its error,
        for every p in ``ps`` as the components of one integral."""
        out = self._integrate(
            lambda s: np.array([self._wa(p, s) for p in ps]) / np.sqrt(s),
            len(ps),
            lo,
            _tail_T(lo),
        )
        self._edges.update(((p, lo), v) for p, v in zip(ps, out))

    def _edge(self, p: int, lo: float) -> tuple[float, float]:
        """A(lo) (p = 0) or B(lo) (p = 1), with its error."""
        if (p, lo) not in self._edges:
            self._integrate_edges((p,), lo)
        return self._edges[(p, lo)]

    def _kernel_integrals(self, x: float, y: float) -> tuple[float, float, float]:
        """(I0, I1, err): int_x^inf K(s,y)/sqrt(s) ds and the same with dK/dy,
        integrated as one pair."""
        key = (x, y)
        if key not in self._integrals:
            (i0, e0), (i1, e1) = self._integrate(
                lambda s: np.asarray(self._kernels(s, y)) / np.sqrt(s),
                2,
                x,
                _tail_T(max(x, y)),
                self._breaks(y),
            )
            self._integrals[key] = (i0, i1, e0 + e1)
        return self._integrals[key]

    def _quotient(self, wm_s, wp_s, d, wm_y, wp_y, dwm_y, dwp_y):
        """C (w_-(s) w_+(y) - w_+(s) w_-(y)) / d and its y-derivative, with
        d = s - y, for a float s or an array of nodes."""
        C = self.params.big_c
        num = wm_s * wp_y - wp_s * wm_y
        num_y = wm_s * dwp_y - wp_s * dwm_y
        return C * num / d, C * (num_y / d + num / (d * d))

    def kernel(self, x: float, y: float) -> tuple[float, float]:
        """(K(x, y), dK/dy(x, y))."""
        x = _validate_x(x)
        y = _validate_x(y, "y")
        if self.zero:
            return 0.0, 0.0
        return self._point(x, y)[:2]

    def block(self, x: float, y: float) -> MatrixKernelValue:
        """The 2x2 kernel block [[S, S_y], [S_x, S_xy]] at (x, y)."""
        x = _validate_x(x)
        y = _validate_x(y, "y")
        if self.zero:
            return MatrixKernelValue(0.0, 0.0, 0.0, 0.0, 0.0)
        i0, i1, e_i = self._kernel_integrals(x, y)
        a_x, e_a = self._edge(0, x)
        b_y, e_b = self._edge(1, y)
        k_xy, ky_xy, wm_x, wp_y = self._point(x, y)
        # the rank-one term carries |sqrt(z1 z2)|/4 = |z|/2: the magnitude that
        # makes S antisymmetric (verified numerically across z).  The overall
        # sign corresponds to the branch sqrt(z1 z2) = -2|z|; it is fixed by
        # positivity of the one-point function, cross-checked against rescaled
        # lattice correlation probabilities.
        c4 = self.params.big_c / 4.0
        sx, sy = math.sqrt(x), math.sqrt(y)
        return MatrixKernelValue(
            s=0.5 * sy * i0 - c4 * a_x * b_y,
            s_y=i0 / (4.0 * sy) + 0.5 * sy * i1 + c4 * a_x * wp_y / sy,
            s_x=-0.5 * sy * k_xy / sx + c4 * (wm_x / sx) * b_y,
            s_xy=-(
                k_xy / (4.0 * sy * sx)
                + 0.5 * sy * ky_xy / sx
                + c4 * (wm_x / sx) * (wp_y / sy)
            ),
            error=e_i + e_a + e_b,
        )


class _MpmathKernel(_BlockPipeline):
    """The blocks at one z with every w_a(s) from ``specfun.whittaker_W``
    (mpmath below x = 40), one node at a time.  K and dK/dy come from
    third-order Taylor expansions for |s - y| < 1e-6 max(1, y), quotients
    elsewhere."""

    _VECTORIZED = False
    _REL_FLOOR = 1e-15

    def __init__(self, params: KernelParams):
        super().__init__(params)
        self._prefs = {a: params.prefactor(a) for a in _HALF_INTEGERS}
        self._derivs: dict[float, tuple[tuple[float, ...], ...]] = {}

    def w(self, a: float, x: float) -> float:
        """w_a(x) for any half-integer a."""
        if a not in self._prefs:
            self._prefs[a] = self.params.prefactor(a)
        pref = self._prefs[a]
        if pref == 0.0:
            return 0.0
        p = self.params
        return pref * x ** (-0.5) * whittaker_W(p.whittaker_k(a), p.whittaker_m, x)

    def _wa(self, p: int, s: float) -> float:
        return self.w(_HALF_INTEGERS[p], s)

    def _at(self, y: float) -> tuple[tuple[float, ...], ...]:
        """w_a and its first three derivatives at y, for a = -1/2 and +1/2,
        by the product rule on y^{-1/2} W_{k,m}(y) with W-derivatives from
        the Whittaker equation."""
        if y not in self._derivs:
            f0 = y**-0.5
            f1 = -0.5 * y**-1.5
            f2 = 0.75 * y**-2.5
            f3 = -1.875 * y**-3.5
            m = self.params.whittaker_m
            rows = []
            for a in _HALF_INTEGERS:
                pref = self._prefs[a]
                if pref == 0.0:
                    rows.append((0.0, 0.0, 0.0, 0.0))
                    continue
                k = self.params.whittaker_k(a)
                W0 = whittaker_W(k, m, y)
                W1 = whittaker_W_deriv(k, m, y)
                W2 = whittaker_W_second(k, m, y)
                W3 = whittaker_W_third(k, m, y)
                rows.append((
                    pref * f0 * W0,
                    pref * (f1 * W0 + f0 * W1),
                    pref * (f2 * W0 + 2.0 * f1 * W1 + f0 * W2),
                    pref * (f3 * W0 + 3.0 * f2 * W1 + 3.0 * f1 * W2 + f0 * W3),
                ))
            self._derivs[y] = tuple(rows)
        return self._derivs[y]

    def _kernels(self, s: float, y: float) -> tuple[float, float]:
        """(K(s, y), dK/dy(s, y)) at one node s."""
        wm, wp = self._at(y)
        d = s - y
        if abs(d) >= _DIAG_EPS_SCALE * max(1.0, y):
            return self._quotient(self._wa(0, s), self._wa(1, s), d, wm[0], wp[0], wm[1], wp[1])
        C = self.params.big_c
        w10 = wm[1] * wp[0] - wp[1] * wm[0]
        w20 = wm[2] * wp[0] - wp[2] * wm[0]
        w30 = wm[3] * wp[0] - wp[3] * wm[0]
        w21 = wm[2] * wp[1] - wp[2] * wm[1]
        return (
            C * (w10 + 0.5 * d * w20 + d * d * w30 / 6.0),
            C * (0.5 * w20 + d * (w30 / 6.0 + 0.5 * w21)),
        )

    def _breaks(self, y: float) -> tuple[float, ...]:
        return (y,)

    def _point(self, x: float, y: float) -> tuple[float, float, float, float]:
        return (*self._kernels(x, y), self._wa(0, x), self._at(y)[1][0])


# the mpmath route at the two most recent z, like ``measures._engine``
_mpmath_kernel = lru_cache(maxsize=2)(_MpmathKernel)


def w_a(a, x: float, params: KernelParams) -> float:
    """w_a(x; -2z, -2 zbar): real by the conjugate-pair construction."""
    a = float(half_integer(a))
    x = _validate_x(x)
    return _mpmath_kernel(params).w(a, x)


def scalar_whittaker_kernel(x: float, y: float, params: KernelParams) -> float:
    """K(x,y) at the conjugate pair (-2z, -2 zbar); symmetric and real."""
    return _mpmath_kernel(params).kernel(x, y)[0]


def S(x: float, y: float, params: KernelParams) -> float:
    """The antisymmetric function S(x, y)."""
    return _mpmath_kernel(params).block(x, y).s


def S_partials(x: float, y: float, params: KernelParams) -> tuple[float, float, float]:
    """(S_x, S_y, S_xy) at (x, y), by analytic differentiation."""
    v = _mpmath_kernel(params).block(x, y)
    return v.s_x, v.s_y, v.s_xy


def matrix_kernel(x: float, y: float, params: KernelParams) -> MatrixKernelValue:
    """The 2x2 kernel block [[S, S_y], [S_x, S_xy]] at (x, y)."""
    return _mpmath_kernel(params).block(x, y)


# Taylor tables of the context: centres step inward from X_MAX by
# h = min(_STEP_FRAC * c, _STEP_MAX), each carrying _TAYLOR_TERMS terms.
_TAYLOR_TERMS = 60
_STEP_FRAC = 0.4
_STEP_MAX = 4.0


def _taylor_basis(centres, ks, m2: float) -> np.ndarray:
    """Scaled Taylor coefficients alpha_n = c^n W^(n)(c)/n! of the two
    solutions of x^2 W'' = (x^2/4 - k x + m^2 - 1/4) W with
    (alpha_0, alpha_1) = (1, 0) and (0, 1), for every k in ``ks`` and every
    centre c; shape (_TAYLOR_TERMS, 2, len(ks), len(centres)).

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
    al = np.zeros((_TAYLOR_TERMS, 2) + q0.shape)
    al[0, 0] = 1.0
    al[1, 1] = 1.0
    for n in range(_TAYLOR_TERMS - 2):
        acc = (q0 - n * (n - 1)) * al[n] - (2.0 * n * (n + 1)) * al[n + 1]
        if n >= 1:
            acc += q1 * al[n - 1]
        if n >= 2:
            acc += q2 * al[n - 2]
        al[n + 2] = acc / ((n + 1) * (n + 2))
    return al


def _powers(tau: np.ndarray, nterms: int = _TAYLOR_TERMS, dtype=float) -> np.ndarray:
    """tau^n for n < nterms, shape (len(tau), nterms), as the running
    product 1, tau, tau*tau, ... along n, formed in ``dtype`` and returned
    as float.  In float each entry is within n - 1 roundings of tau^n; the
    product costs one multiplication per entry where ``np.power`` calls
    libm ``pow``, about 15 times slower on these arrays."""
    pw = np.empty((len(tau), nterms), dtype=dtype)
    pw[:, 0] = 1.0
    pw[:, 1:] = tau[:, None]
    return np.multiply.accumulate(pw, axis=1).astype(float, copy=False)


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


class KernelContext(_BlockPipeline):
    """The 2x2 kernel blocks at one z, from Taylor tables of W_{k,m}.

    For the two index pairs k = -2 Re z -+ 1/2, m = -2i Im z (so m^2 is
    real) the context seeds W and W' at x = X_MAX from ``whittaker_W`` and
    ``whittaker_W_deriv`` (the Poincare series, accurate to about 1e-15
    there) and continues inward down to X_MIN with the power-series
    recurrence of x^2 W'' = (x^2/4 - k x + m^2 - 1/4) W, in steps
    h = -min(0.4 x, 4) with 60 terms per centre.  W is recessive at
    infinity, so the inward continuation is stable.  Every later value of
    w_{-+1/2} comes from these tables; building them costs four Whittaker
    calls per z and no mpmath call.  The powers tau^n of each step, and
    those of every node evaluation, are running products 1, tau, tau^2, ...
    (``_powers``); the step tables form them in long double, so the
    continuation collects one rounding per power, as with ``pow``.

    The table values (w_-, w_+) at each array of quadrature nodes are kept
    for the life of the context: the integrals of an assembly visit many
    panels more than once (every integral from below 40 walks the same tree
    on [40, 140]), and read them back instead of summing the tables again.

    Near the diagonal, |s - y| <= min(y/2, 4), K(s, y) and dK/dy are summed
    from the series of w_-+ re-centred at y, in which the 1/(s - y) cancels
    term by term; outside that window they are the plain quotients.
    ``prepare`` builds the series of several y with one ``_taylor_basis``
    call.  Its integrands take arrays of nodes.
    """

    _VECTORIZED = True
    _REL_FLOOR = _TABLE_REL_FLOOR

    def __init__(self, params: KernelParams):
        super().__init__(params)
        self._series_cache: dict[float, _DiagonalSeries] = {}
        self._w_memo: dict[bytes, np.ndarray] = {}
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
        # W is continued through every step in turn, so its relative error
        # collects each step's; a long-double product rounds tau^n once, as
        # pow does (it is plain float where long double is float)
        pw = _powers(tau, dtype=np.longdouble)
        # d/dtau tau^n = n tau^(n-1): the table shifted one term, times n
        dpw = np.zeros_like(pw)
        dpw[:, 1:] = pw[:, :-1] * np.arange(1, _TAYLOR_TERMS)
        val = np.einsum("nbpj,jn->bpj", al[..., :-1], pw).tolist()
        der = np.einsum("nbpj,jn->bpj", al[..., :-1], dpw).tolist()
        c = cs.tolist()
        m = self.params.whittaker_m
        w = []  # W(c) along the centres, per pair
        cw1 = []  # c W'(c)
        for p, k in enumerate(self._ks):
            wj = whittaker_W(k, m, X_MAX)
            cwj = X_MAX * whittaker_W_deriv(k, m, X_MAX)
            wp, cwp = [wj], [cwj]
            for j in range(len(c) - 1):
                wj, cwj = (
                    wj * val[0][p][j] + cwj * val[1][p][j],
                    (wj * der[0][p][j] + cwj * der[1][p][j]) * c[j + 1] / c[j],
                )
                wp.append(wj)
                cwp.append(cwj)
            w.append(wp)
            cw1.append(cwp)
        coef = np.array(w)[None] * al[:, 0] + np.array(cw1)[None] * al[:, 1]
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
        """(w_-(x), w_+(x)) as rows of a (2, len(x)) array, kept by the
        nodes' bytes; callers must not write to it."""
        key = x.tobytes()
        w = self._w_memo.get(key)
        if w is None:
            i, tau = self._locate(x)
            w = np.einsum("psn,sn->ps", self._coef[:, i, :], _powers(tau))
            w = self._w_memo[key] = w * (self._pref[:, None] / np.sqrt(x))
        return w

    def prepare(self, points) -> None:
        """Build the diagonal series of every point not built yet, with one
        ``whittaker`` and one ``_taylor_basis`` call for all of them, then
        integrate A and B at every point as one pair, as the blocks of an
        assembly need; a lone ``block(x, y)`` integrates only A(x) and B(y).
        Each column of those calls is independent, so every series is the
        one a lone y gets.  Points outside the range are left to ``block``."""
        if self.zero:
            return
        los = _in_range(points)
        ys = [y for y in los if y not in self._series_cache]
        if ys:
            self._series_batch(ys)
        for lo in los:
            if (0, lo) not in self._edges or (1, lo) not in self._edges:
                self._integrate_edges((0, 1), lo)

    def _series_batch(self, ys: list[float]) -> None:
        w, dw = self.whittaker(ys)
        al = _taylor_basis(ys, self._ks, self._m2)
        # (y (1 + tau))^{-1/2} = y^{-1/2} sum_n binom(-1/2, n) tau^n
        n = np.arange(1, _TAYLOR_TERMS)
        binom = np.cumprod(np.r_[1.0, (0.5 - n) / n])
        C = self.params.big_c
        for j, y in enumerate(ys):
            coef_W = w[:, j] * al[:, 0, :, j] + (y * dw[:, j]) * al[:, 1, :, j]  # (n, pair)
            g = binom / math.sqrt(y)
            bm, bp = (
                self._pref[p] * np.convolve(coef_W[:, p], g)[:_TAYLOR_TERMS]
                for p in range(2)
            )
            # w_-(s) w_+(y) - w_+(s) w_-(y) = sum_n d_n tau^n with d_0 = 0, and
            # w_-(s) w_+'(y) - w_+(s) w_-'(y) = sum_n e_n tau^n / y with e_1 = 0
            d = bm * bp[0] - bp * bm[0]
            e = bm * bp[1] - bp * bm[1]
            self._series_cache[y] = _DiagonalSeries(
                window=min(0.5 * y, _STEP_MAX),
                k_coef=(C / y) * d[1:],
                ky_coef=(C / (y * y)) * (d[2:] + e[1:-1]),
                wm=float(bm[0]),
                wp=float(bp[0]),
                dwm=float(bm[1] / y),
                dwp=float(bp[1] / y),
            )

    def _series(self, y: float) -> _DiagonalSeries:
        if y not in self._series_cache:
            self._series_batch([y])
        return self._series_cache[y]

    def _kernels(self, s: np.ndarray, y: float) -> np.ndarray:
        """(K(s, y), dK/dy(s, y)) as rows of a (2, len(s)) array."""
        ser = self._series(y)
        d = s - y
        near = np.abs(d) <= ser.window
        out = np.empty((2,) + d.shape)
        if near.any():
            tau = d[near] / y
            out[0, near] = _powers(tau, len(ser.k_coef)) @ ser.k_coef
            out[1, near] = _powers(tau, len(ser.ky_coef)) @ ser.ky_coef
        far = ~near
        if far.any():
            wm, wp = self._w(s)[:, far]
            out[:, far] = self._quotient(wm, wp, d[far], ser.wm, ser.wp, ser.dwm, ser.dwp)
        return out

    def _wa(self, p: int, s: np.ndarray) -> np.ndarray:
        return self._w(s)[p]

    def _breaks(self, y: float) -> tuple[float, float]:
        win = self._series(y).window
        return (y - win, y + win)

    def _point(self, x: float, y: float) -> tuple[float, float, float, float]:
        s = np.array([x])
        k, ky = self._kernels(s, y)[:, 0]
        return float(k), float(ky), float(self._w(s)[0, 0]), self._series(y).wp


# the tables at the two most recent z, like ``_mpmath_kernel``: a context's
# blocks are pure functions of (z, x, y), so calls at one z share them
_context = lru_cache(maxsize=2)(KernelContext)
