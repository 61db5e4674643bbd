"""Complex log-gamma and the classical Whittaker function W_{k,m}(x).

``log_gamma`` is the principal branch of log Gamma by Hare's algorithm
("Computing the principal branch of log-Gamma", J. Algorithms 1997), in a
pure-Python port of the complex ``loggamma`` of scipy 1.17.1 (its xsf
library) that returns the same doubles bit for bit.  It carries the
prefactor 1/|Gamma(-2z - a + 1/2)| of the continuum kernel, so the kernel
values do not depend on whether scipy is installed: the package needs
only numpy and mpmath.

W is evaluated one way: by mpmath's ``whitw`` at 25 digits for
x <= ASYMPTOTIC_X (scipy's hyperu loses digits there), and by the
Poincare asymptotic series above it.  Where that series stalls before
reaching its accuracy target the call is refused with NumericalError,
and so is a call where mpmath's hypergeometric sums fail to converge (at
an exact zero such as W_{2,1/2}(2), for instance).  whitw runs in a
private mpmath context that memoizes 1/Gamma and sin(pi .): hyperu
takes them at parameters fixed by (k, m), the same at every quadrature
node, and they cost a third of a call.  The values are bit for bit those
of plain ``mpmath.whitw``, and the global ``mpmath.mp`` is left alone.
The context is built, and mpmath imported, at the first call below
ASYMPTOTIC_X (``_mp_context``).  Lattice correlations and the continuum
tables make no such call, so a process that computes only those never
imports mpmath.  The tests check this route against an independent one,
the Tricomi integral of ``tests/oracles.py``.

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
import sys
from functools import lru_cache

from .errors import DomainError, NumericalError, PoleError, UnvalidatedDomainError
from .quadrature import adaptive_gauss_legendre  # noqa: F401 (perfbench/tracing.py wraps it here)

X_MIN = 1e-3
X_MAX = 200.0
INDEX_MAX = 6.0
ASYMPTOTIC_X = 40.0


def is_gamma_pole(w) -> bool:
    """True at the poles w = 0, -1, -2, ... of Gamma; a non-finite w is
    refused with DomainError."""
    wc = complex(w)
    if not cmath.isfinite(wc):
        raise DomainError(f"log_gamma needs a finite argument, got {w}")
    return wc.imag == 0 and wc.real <= 0 and wc.real.is_integer()


def log_gamma(w) -> complex:
    """Principal-branch log-gamma, equal bit for bit to scipy's
    ``special.loggamma``; poles raise PoleError."""
    wc = complex(w)
    if is_gamma_pole(wc):
        raise PoleError(f"log_gamma pole at {w}")
    return _loggamma(wc)


# The port follows scipy's C++ source (xsf's loggamma.h and the helpers it
# calls) and glibc's clog operation by operation.  Python's complex * and
# / round like the C runtime's __muldc3 and __divdc3, and abs(complex)
# calls libm hypot.  Mixed real-complex operations, which C++ performs on
# the components alone, are written out on the components so that the signs
# of zeros come out the same.  Every argument is finite, so no NaN branch
# is needed.

_EPS = sys.float_info.epsilon
_LG_HLOG2PI = 0.918938533204672742  # log(2 pi) / 2
_LG_LOGPI = 1.1447298858494001741434262  # log(pi)
# B_2n / (2n (2n - 1)) and (-1)^n zeta(n) / n, highest degree first, as
# printed to 20 digits by scipy/special/_precompute/loggamma.py
_LG_STIRLING = tuple(map(float, """
    -2.955065359477124183e-2 6.4102564102564102564e-3 -1.9175269175269175269e-3
    8.4175084175084175084e-4 -5.952380952380952381e-4 7.9365079365079365079e-4
    -2.7777777777777777778e-3 8.3333333333333333333e-2""".split()))
_LG_TAYLOR = tuple(map(float, """
    -4.3478266053040259361e-2 4.5454556293204669442e-2 -4.7619070330142227991e-2
    5.000004769810169364e-2 -5.2631679379616660734e-2 5.5555767627403611102e-2
    -5.8823978658684582339e-2 6.2500955141213040742e-2 -6.6668705882420468033e-2
    7.1432946295361336059e-2 -7.6932516411352191473e-2 8.3353840546109004025e-2
    -9.0954017145829042233e-2 1.0009945751278180853e-1 -1.1133426586956469049e-1
    1.2550966952474304242e-1 -1.4404989676884611812e-1 1.6955717699740818995e-1
    -2.0738555102867398527e-1 2.7058080842778454788e-1 -4.0068563438653142847e-1
    8.2246703342411321824e-1 -5.7721566490153286061e-1""".split()))


def _loggamma(z: complex) -> complex:
    x, y = z.real, z.imag
    if x > 7.0 or abs(y) > 7.0:
        return _lg_stirling(z)
    if abs(complex(x - 1.0, y)) < 0.2:
        return _lg_taylor(z)
    if abs(complex(x - 2.0, y)) < 0.2:
        zm1 = complex(x - 1.0, y)
        return _zlog1(zm1) + _lg_taylor(zm1)
    if x < 0.1:
        # reflection (Hare, Proposition 3.1); |y| <= 7 keeps cosh(pi y) finite
        tmp = math.copysign(2 * math.pi, y) * math.floor(0.5 * x + 0.25)
        piy = math.pi * y
        sin_pz = complex(_sinpi(x) * math.cosh(piy), _cospi(x) * math.sinh(piy))
        return complex(_LG_LOGPI, tmp) - _clog(sin_pz) - _loggamma(complex(1.0 - x, -y))
    if math.copysign(1.0, y) > 0:
        return _lg_recurrence(z)
    return _lg_recurrence(z.conjugate()).conjugate()


def _lg_stirling(z: complex) -> complex:
    rz = 1.0 / z
    rzz = rz / z
    t = complex(z.real - 0.5, z.imag) * _clog(z) - z
    return complex(t.real + _LG_HLOG2PI, t.imag) + rz * _cevalpoly(_LG_STIRLING, rzz)


def _lg_taylor(z: complex) -> complex:
    """log Gamma(z) from its Taylor series about z = 1."""
    z = complex(z.real - 1.0, z.imag)
    return z * _cevalpoly(_LG_TAYLOR, z)


def _lg_recurrence(z: complex) -> complex:
    """Shift up to Re z > 7, counting the times the running product crosses
    into the lower half-plane (Hare, Proposition 2.2)."""
    signflips = 0
    sb = False
    shiftprod = z
    z = complex(z.real + 1.0, z.imag)
    while z.real <= 7.0:
        shiftprod *= z
        nsb = math.copysign(1.0, shiftprod.imag) < 0
        signflips += nsb and not sb
        sb = nsb
        z = complex(z.real + 1.0, z.imag)
    v = _lg_stirling(z) - _clog(shiftprod)
    return complex(v.real, v.imag - signflips * 2 * math.pi)


def _zlog1(z: complex) -> complex:
    """log z, by its series about 1 for |z - 1| <= 0.1."""
    zm1 = complex(z.real - 1.0, z.imag)
    if abs(zm1) > 0.1:
        return _clog(z)
    coeff = complex(-1.0, 0.0)
    res = complex(0.0, 0.0)
    for n in range(1, 17):
        coeff *= -zm1
        res += complex(coeff.real / n, coeff.imag / n)
        # C divides 0/0 to NaN here, and a NaN test is false
        if coeff and abs(res / coeff) < _EPS:
            break
    return res


def _sinpi(x: float) -> float:
    s = 1.0
    if x < 0.0:
        x, s = -x, -1.0
    r = math.fmod(x, 2.0)
    if r < 0.5:
        return s * math.sin(math.pi * r)
    if r > 1.5:
        return s * math.sin(math.pi * (r - 2.0))
    return -s * math.sin(math.pi * (r - 1.0))


def _cospi(x: float) -> float:
    r = math.fmod(abs(x), 2.0)
    if r == 0.5:
        return 0.0
    if r < 1.0:
        return -math.sin(math.pi * (r - 0.5))
    return math.sin(math.pi * (r - 1.5))


def _cevalpoly(coeffs: tuple[float, ...], z: complex) -> complex:
    """A real polynomial, highest coefficient first, at complex z (Knuth,
    TAOCP 4.6.4, eq. 3)."""
    a, b = coeffs[0], coeffs[1]
    r = 2.0 * z.real
    s = z.real * z.real + z.imag * z.imag
    for c in coeffs[2:]:
        a, b = _fma(r, a, b), _fma(-s, a, c)
    return complex(z.real * a + b, z.imag * a)


def _fma(x: float, y: float, z: float) -> float:
    """x * y + z rounded once, as C's fma: int / int division rounds
    correctly."""
    a, b = x.as_integer_ratio()
    c, d = y.as_integer_ratio()
    e, f = z.as_integer_ratio()
    num = a * c * f + e * b * d
    if num == 0:
        # the exact product is -z, or zero; float arithmetic signs the zero
        return x * y + z
    return num / (b * d * f)


def _clog(z: complex) -> complex:
    """glibc's clog at a finite nonzero z: log1p of |z|^2 - 1 near the unit
    circle, log(hypot) elsewhere."""
    absx, absy = abs(z.real), abs(z.imag)
    if absx < absy:
        absx, absy = absy, absx
    scale = 0
    if absx > sys.float_info.max / 2:
        scale = -1
        absx = math.ldexp(absx, -1)
        absy = math.ldexp(absy, -1) if absy >= 2 * sys.float_info.min else 0.0
    elif absx < sys.float_info.min and absy < sys.float_info.min:
        scale = sys.float_info.mant_dig
        absx = math.ldexp(absx, scale)
        absy = math.ldexp(absy, scale)
    if scale == 0 and absx == 1.0:
        re = math.log1p(absy * absy) / 2
    elif scale == 0 and 1.0 < absx < 2.0 and absy < 1.0:
        d2m1 = (absx - 1.0) * (absx + 1.0)
        if absy >= _EPS:
            d2m1 += absy * absy
        re = math.log1p(d2m1) / 2
    elif scale == 0 and 0.5 <= absx < 1.0 and absy < _EPS / 2:
        re = math.log1p((absx - 1.0) * (absx + 1.0)) / 2
    elif scale == 0 and 0.5 <= absx < 1.0 and absx * absx + absy * absy >= 0.5:
        re = math.log1p(_x2y2m1(absx, absy)) / 2
    else:
        re = math.log(abs(complex(absx, absy))) - scale * 0.69314718055994530942
    return complex(re, math.atan2(z.imag, z.real))


def _x2y2m1(x: float, y: float) -> float:
    """x^2 + y^2 - 1 for 1 > x >= y, from the exact products summed
    smallest first with Fast2Sum renormalisation."""
    xx, yy = x * x, y * y
    vals = sorted((_fma(x, x, -xx), xx, _fma(y, y, -yy), yy, -1.0), key=abs)
    for i in range(4):
        hi = vals[i + 1] + vals[i]
        vals[i] = (vals[i + 1] - hi) + vals[i]
        vals[i + 1] = hi
        vals[i + 1:] = sorted(vals[i + 1:], key=abs)
    return vals[4] + vals[3] + vals[2] + vals[1] + vals[0]


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


@lru_cache(maxsize=None)
def _mp_context():
    """A private mpmath context whose 1/Gamma and sin(pi .) remember their
    results, and those four memoized libmp functions, built at the first
    call: importing mpmath adds about 4 MB and 50 ms to a process, and only
    W below ASYMPTOTIC_X needs it.

    whitw calls hyperu, and hyperu's hypercomb takes 1/Gamma and sin(pi .)
    at a, b, a - b + 1 and 2 - b, which depend on (k, m) alone, so every
    quadrature node after the first at the same indices finds them cached.
    They come at real arguments where m is real, as at a real z, and at
    complex ones otherwise.  hyperu forms no Gamma factor, so Gamma is
    mpmath's own.  The libmp functions are pure in (value, prec,
    rounding), so W comes out bit for bit as from mpmath.whitw, and the
    global mpmath.mp is left alone."""
    import mpmath
    from mpmath import libmp

    ctx = mpmath.MPContext()
    memos = tuple(
        lru_cache(maxsize=1024)(f)
        for f in (libmp.mpf_rgamma, libmp.mpc_rgamma, libmp.mpf_sin_pi, libmp.mpc_sin_pi)
    )
    ctx.rgamma, ctx.sinpi = (ctx._wrap_libmp_function(*memos[i:i + 2]) for i in (0, 2))
    return ctx, memos


@lru_cache(maxsize=200_000)
def _direct(k: complex, m: complex, x: float) -> complex:
    if x > ASYMPTOTIC_X:
        return _asymptotic(k, m, x)
    # scipy's hyperu drops to ~5 correct digits for moderate x and small
    # indices, so arbitrary precision is used below the asymptotic cutoff
    ctx = _mp_context()[0]
    try:
        with ctx.workdps(25):
            return complex(ctx.whitw(ctx.mpc(k), ctx.mpc(m), ctx.mpf(x)))
    except (ValueError, ctx.NoConvergence) as e:
        # hypsum and hypercomb give up with a bare ValueError, for instance
        # where W vanishes exactly: W_{2,1/2}(2) = 0 because U(-1, 2, 2) = 0
        reason = str(e).partition("\n")[0]
        raise NumericalError(f"mpmath did not converge for W_{{{k},{m}}}({x}): {reason}") from e


def _realify(v: complex) -> float:
    if abs(v.imag) > 1e-10 * max(abs(v), 1e-300):
        raise NumericalError(
            f"Whittaker value expected real, got imaginary residue {v.imag:.3e}"
        )
    return v.real


def whittaker_W(k, m, x: float) -> float:
    """W_{k,m}(x) for k real and m real or purely imaginary."""
    kc, mc = complex(k), complex(m)
    if not (kc.imag == 0 and (mc.imag == 0 or mc.real == 0)):
        raise DomainError(
            f"need k real and m real or purely imaginary, got k={k}, m={m}"
        )
    _validate(kc, mc, x)
    return _realify(_direct(kc, mc, float(x)))


def whittaker_W_deriv(k, m, x: float) -> float:
    """dW_{k,m}/dx via the contiguous relation
    x W' = (k - x/2) W - (m^2 - (k - 1/2)^2) W_{k-1,m}."""
    kc, mc = complex(k), complex(m)
    _validate(kc - 1.0, mc, x)
    w0 = whittaker_W(kc, mc, x)
    coeff = mc * mc - (kc - 0.5) ** 2
    if coeff == 0:
        w1 = 0.0
    else:
        w1 = whittaker_W(kc - 1.0, mc, x)
    val = ((kc - x / 2.0) * w0 - coeff * w1) / x
    return _realify(complex(val))


def whittaker_W_second(k, m, x: float) -> float:
    """d2W/dx2 from the Whittaker equation
    W'' = (1/4 - k/x + (m^2 - 1/4)/x^2) W."""
    kc, mc = complex(k), complex(m)
    q = 0.25 - kc / x + (mc * mc - 0.25) / (x * x)
    return _realify(q * whittaker_W(kc, mc, x))


def whittaker_W_third(k, m, x: float) -> float:
    """d3W/dx3 by differentiating the Whittaker equation."""
    kc, mc = complex(k), complex(m)
    q = 0.25 - kc / x + (mc * mc - 0.25) / (x * x)
    qp = kc / (x * x) - 2.0 * (mc * mc - 0.25) / (x * x * x)
    w = whittaker_W(kc, mc, x)
    wp = whittaker_W_deriv(kc, mc, x)
    return _realify(qp * w + q * wp)
