"""Complex log-gamma and the classical Whittaker function W_{k,m}(x).

Two evaluation routes are available:

* ``direct``  - mpmath's ``whitw`` at 25 digits for x <= ASYMPTOTIC_X
  (scipy's hyperu loses digits there), and the Poincare asymptotic
  series above it.  Where that series stalls before reaching its
  accuracy target the call is refused with NumericalError.
* ``integral`` - the real-integral representation of the Tricomi
  function, admissible for Re(m - k + 1/2) > 0 after exploiting the
  m -> -m symmetry; kept fully independent of the direct route so the
  two can be cross-checked.

Arguments outside the validated accuracy box (x in [1e-3, 200],
|k| <= 6, |m| <= 6 componentwise) raise UnvalidatedDomainError rather
than returning a silently degraded value.

These functions are the reference: ``kernels.matrix_kernel`` and the CLI
``whittaker``, ``kernel`` and ``corr`` commands evaluate through them.
``continuum_correlation`` and ``verify_limit`` call them only to seed the
Taylor tables of ``kernels.KernelContext``: W and W' at x = X_MAX = 200,
where the Poincare series is accurate to about 1e-15, four calls per z.
The stall refusal above ASYMPTOTIC_X therefore no longer reaches
continuum correlations.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import mpmath as mp
from scipy import special as sp

from .errors import DomainError, NumericalError, PoleError, UnvalidatedDomainError
from .quadrature import adaptive_gauss_legendre

_QUAD_ABS_FLOOR = 1e-20

X_MIN = 1e-3
X_MAX = 200.0
INDEX_MAX = 6.0
ASYMPTOTIC_X = 40.0


def log_gamma(w) -> complex:
    """Principal-branch log-gamma; poles raise PoleError."""
    wc = complex(w)
    if wc.imag == 0 and wc.real <= 0 and wc.real == round(wc.real):
        raise PoleError(f"log_gamma pole at {w}")
    return complex(sp.loggamma(wc))


def is_gamma_pole(w) -> bool:
    wc = complex(w)
    return wc.imag == 0 and wc.real <= 0 and wc.real == round(wc.real)


def _validate(k: complex, m: complex, x: float):
    if not (cmath.isfinite(k) and cmath.isfinite(m)):
        raise DomainError(f"Whittaker indices must be finite, got k={k}, m={m}")
    if not x > 0:
        raise DomainError(f"Whittaker argument must be positive, got {x}")
    if not (X_MIN <= x <= X_MAX):
        raise UnvalidatedDomainError(
            f"x = {x} outside validated range [{X_MIN}, {X_MAX}]"
        )
    if abs(k) > INDEX_MAX or abs(m.real) > INDEX_MAX or abs(m.imag) > INDEX_MAX:
        raise UnvalidatedDomainError(
            f"index (k={k}, m={m}) outside validated box |k|,|Re m|,|Im m| <= {INDEX_MAX}"
        )


def _asymptotic(k: complex, m: complex, x: float) -> complex:
    """Poincare expansion W ~ e^{-x/2} x^k 2F0(1/2+m-k, 1/2-m-k; ; -1/x)."""
    a = 0.5 + m - k
    b = 0.5 - m - k
    term = complex(1.0)
    total = complex(1.0)
    smallest = abs(term)
    for s in range(0, 200):
        term *= (a + s) * (b + s) / ((s + 1) * (-x))
        at = abs(term)
        if at < 1e-17 * abs(total):
            smallest = at
            break
        if at > smallest:
            # divergent tail reached; the optimal truncation error is the
            # size of the smallest term, checked against the target below
            break
        smallest = at
        total += term
    if smallest > 1e-9 * abs(total):
        raise NumericalError(
            f"asymptotic series for W_{{{k},{m}}}({x}) stalls at rel {smallest / abs(total):.2e}"
        )
    return cmath.exp(-x / 2 + k * math.log(x)) * total


@lru_cache(maxsize=200_000)
def _direct(k: complex, m: complex, x: float) -> complex:
    if x > ASYMPTOTIC_X:
        return _asymptotic(k, m, x)
    # scipy's hyperu drops to ~5 correct digits for moderate x and small
    # indices, so arbitrary precision is used below the asymptotic cutoff
    with mp.workdps(25):
        v = mp.whitw(mp.mpc(k), mp.mpc(m), mp.mpf(x))
        return complex(v)


@lru_cache(maxsize=50_000)
def _integral(k: complex, m: complex, x: float) -> complex:
    """Tricomi integral: U(a,b,x) = Gamma(a)^{-1} int_0^inf e^{-xt}
    t^{a-1} (1+t)^{b-a-1} dt, with the m -> -m symmetry used to get the
    admissible sign and a power substitution taming the endpoint."""
    candidates = [m, -m]
    candidates.sort(key=lambda mm: -(mm - k + 0.5).real)
    mu = candidates[0]
    a = mu - k + 0.5
    if a.real <= 0.05:
        raise DomainError(
            f"integral representation inadmissible: Re(m - k + 1/2) = {a.real:.3f}"
        )
    b = 1.0 + 2.0 * mu
    q = max(1, math.ceil(2.0 / a.real))
    qa = q * a

    def near(v: float) -> complex:
        # t = v^q on t in [0, 1]
        if v == 0.0:
            return 0.0
        t = v**q
        return q * cmath.exp(-x * t + (qa - 1) * math.log(v) + (b - a - 1) * math.log1p(t))

    def far(t: float) -> complex:
        return cmath.exp(-x * t + (a - 1) * math.log(t) + (b - a - 1) * math.log1p(t))

    # crude scale from the t <= 1 piece for tail cutoff control
    p = max((a - 1).real + (b - a - 1).real, 0.0)
    T = 2.0
    while x * T - p * math.log(T) < 45.0 and T < 1e8:
        T *= 2.0
    breaks = []
    s = 2.0
    while s < T:
        breaks.append(s)
        s *= 2.0

    tol = 1e-13
    v1 = _quad_complex(near, 0.0, 1.0, tol)
    v2 = _quad_complex(far, 1.0, T, tol, breaks)
    u = (v1 + v2) * cmath.exp(-complex(sp.loggamma(complex(a))))
    return cmath.exp(-x / 2 + (mu + 0.5) * cmath.log(x)) * u


def _quad_complex(f, lo, hi, tol, breaks=()) -> complex:
    re, _ = adaptive_gauss_legendre(
        lambda t: f(t).real, lo, hi, tol, breaks, abs_floor=_QUAD_ABS_FLOOR
    )
    im, _ = adaptive_gauss_legendre(
        lambda t: f(t).imag, lo, hi, tol, breaks, abs_floor=_QUAD_ABS_FLOOR
    )
    return complex(re, im)


def _realify(v: complex, k: complex, m: complex) -> float:
    if abs(v.imag) > 1e-10 * max(abs(v), 1e-300):
        raise NumericalError(
            f"Whittaker value expected real, got imaginary residue {v.imag:.3e}"
        )
    return v.real


def whittaker_W(k, m, x: float, method: str = "direct") -> float:
    """W_{k,m}(x) for k real and m real or purely imaginary."""
    kc, mc = complex(k), complex(m)
    if not (kc.imag == 0 and (mc.imag == 0 or mc.real == 0)):
        raise DomainError(
            f"need k real and m real or purely imaginary, got k={k}, m={m}"
        )
    _validate(kc, mc, x)
    if method == "direct":
        return _realify(_direct(kc, mc, float(x)), kc, mc)
    if method == "integral":
        return _realify(_integral(kc, mc, float(x)), kc, mc)
    raise DomainError(f"unknown method {method!r}")


def whittaker_W_deriv(k, m, x: float, method: str = "direct") -> float:
    """dW_{k,m}/dx via the contiguous relation
    x W' = (k - x/2) W - (m^2 - (k - 1/2)^2) W_{k-1,m}."""
    kc, mc = complex(k), complex(m)
    _validate(kc - 1.0, mc, x)
    w0 = whittaker_W(kc, mc, x, method)
    coeff = mc * mc - (kc - 0.5) ** 2
    if coeff == 0:
        w1 = 0.0
    else:
        w1 = whittaker_W(kc - 1.0, mc, x, method)
    val = ((kc - x / 2.0) * w0 - coeff * w1) / x
    return _realify(complex(val), kc, mc)


def whittaker_W_second(k, m, x: float, method: str = "direct") -> float:
    """d2W/dx2 from the Whittaker equation
    W'' = (1/4 - k/x + (m^2 - 1/4)/x^2) W."""
    kc, mc = complex(k), complex(m)
    q = 0.25 - kc / x + (mc * mc - 0.25) / (x * x)
    return _realify(q * whittaker_W(kc, mc, x, method), kc, mc)


def whittaker_W_third(k, m, x: float, method: str = "direct") -> float:
    """d3W/dx3 by differentiating the Whittaker equation."""
    kc, mc = complex(k), complex(m)
    q = 0.25 - kc / x + (mc * mc - 0.25) / (x * x)
    qp = kc / (x * x) - 2.0 * (mc * mc - 0.25) / (x * x * x)
    w = whittaker_W(kc, mc, x, method)
    wp = whittaker_W_deriv(kc, mc, x, method)
    return _realify(qp * w + q * wp, kc, mc)
