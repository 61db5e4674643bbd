"""specfun.log_gamma: a pure-Python port of scipy's complex loggamma that
returns the same doubles bit for bit."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zmeasures.errors import DomainError, PoleError
from zmeasures.specfun import _fma, is_gamma_pole, log_gamma

# (Re w, Im w, Re log Gamma(w), Im log Gamma(w)) as float.hex, recorded from
# scipy.special.loggamma 1.17.1: one or more w in each branch of the
# algorithm, signed zeros on the real axis included.
GOLDEN = [
    ('0x1.0000000000000p+0', '0x0.0p+0', '-0x0.0p+0', '0x0.0p+0'),  # (1+0j)
    ('0x1.0000000000000p+1', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),  # (2+0j)
    ('0x1.8000000000000p+1', '0x0.0p+0', '0x1.62e42fefa39e0p-1', '0x0.0p+0'),  # (3+0j)
    ('0x1.c000000000000p+2', '0x0.0p+0', '0x1.a51273acf01c8p+2', '0x0.0p+0'),  # (7+0j)
    ('0x1.9000000000000p+3', '0x0.0p+0', '0x1.2bbfe32d3aa80p+4', '0x0.0p+0'),  # (12.5+0j)
    ('-0x1.0000000000000p-1', '0x0.0p+0', '0x1.43f89a3f0edddp+0', '-0x1.921fb54442d18p+1'),  # (-0.5+0j)
    ('0x1.0000000000000p-1', '0x0.0p+0', '0x1.250d048e7a1b0p-1', '0x0.0p+0'),  # (0.5+0j)
    ('0x1.0000000000000p-1', '-0x0.0p+0', '0x1.250d048e7a1b0p-1', '-0x0.0p+0'),  # (0.5-0j)
    ('-0x1.0cccccccccccdp+2', '-0x0.0p+0', '-0x1.ceb96973c55d8p+0', '0x1.f6a7a2955385ep+3'),  # (-4.2-0j)
    ('0x1.0000000000000p+3', '0x1.8000000000000p+1', '0x1.fc39030b1606dp+2', '0x1.87e0068a757c8p+2'),  # (8+3j)
    ('-0x1.8000000000000p+1', '0x1.2000000000000p+3', '-0x1.4fdce68681129p+4', '0x1.277b32029c105p+2'),  # (-3+9j)
    ('0x1.0000000000000p+0', '-0x1.e000000000000p+2', '-0x1.3b58bd347c728p+3', '-0x1.0c5a8c017b9c8p+3'),  # (1-7.5j)
    ('0x1.199999999999ap+0', '0x1.999999999999ap-5', '-0x1.a738efa9381b1p-5', '-0x1.5a815d9d49d80p-6'),  # (1.1+0.05j)
    ('0x1.e666666666666p-1', '-0x1.999999999999ap-4', '0x1.6a9e4bdf8a231p-6', '0x1.0d879e9400b2ep-4'),  # (0.95-0.1j)
    ('0x1.0666666666666p+1', '0x1.999999999999ap-4', '0x1.3438a56c4e7e6p-6', '0x1.74dff35d21022p-5'),  # (2.05+0.1j)
    ('0x1.e666666666666p+0', '-0x1.47ae147ae147bp-6', '-0x1.407c8014633fap-5', '-0x1.d2e5d2ed35ea4p-8'),  # (1.9-0.02j)
    ('0x1.1333333333333p+1', '0x1.999999999999ap-5', '0x1.1d91bc931bffdp-4', '0x1.a632f69905908p-6'),  # (2.15+0.05j)
    ('-0x1.d99999999999ap+1', '0x1.3333333333333p+0', '-0x1.2002caa9e60aap+2', '-0x1.6e83693e51b2bp+3'),  # (-3.7+1.2j)
    ('-0x1.3333333333333p-2', '-0x1.0666666666666p+2', '-0x1.a9ce224460100p+2', '-0x1.7152a0ba3c348p-2'),  # (-0.3-4.1j)
    ('0x1.999999999999ap-5', '0x1.0000000000000p-1', '0x1.edad12032e212p-2', '-0x1.ae38898d4b2d0p+0'),  # (0.05+0.5j)
    ('0x1.3333333333333p-2', '0x1.0000000000000p+1', '-0x1.2e026fbe28f9cp+1', '-0x1.d574ea2b083d8p-1'),  # (0.3+2j)
    ('0x1.2000000000000p+2', '-0x1.8000000000000p+2', '-0x1.141bb68392678p+0', '-0x1.3945530f461fdp+3'),  # (4.5-6j)
    ('-0x1.2000000000000p+2', '0x1.8000000000000p+2', '-0x1.1f2b25b5b1ab4p+4', '-0x1.3f6bd10157558p+2'),  # (-4.5+6j)
    ('0x1.999999999999ap-4', '0x0.0p+0', '0x1.2058e35f3def0p+1', '0x0.0p+0'),  # (0.1+0j)
    ('-0x1.7ffffffffffffp+1', '0x0.0p+0', '0x1.0c785035e152bp+5', '-0x1.2d97c7f3321d2p+3'),  # (-2.9999999999999996+0j)
]


def _bits(v: complex) -> tuple[str, str]:
    return v.real.hex(), v.imag.hex()


@pytest.mark.parametrize("row", GOLDEN, ids=lambda r: str(complex(float.fromhex(r[0]), float.fromhex(r[1]))))
def test_log_gamma_golden(row):
    w = complex(float.fromhex(row[0]), float.fromhex(row[1]))
    assert _bits(log_gamma(w)) == (row[2], row[3])


def _oracle_points() -> np.ndarray:
    """Seeded w: the box Re w in [-4.5, 13], |Im w| <= 13, which holds every
    argument KernelParams reaches, and the seams between the branches."""
    rng = np.random.default_rng(20250612)
    n = 200_000
    box = rng.uniform(-4.5, 13.0, n) + 1j * rng.uniform(-13.0, 13.0, n)
    t = rng.uniform(0.0, 2 * np.pi, 4000)
    # just inside and outside the Taylor discs about 1 and 2, and the circle
    # |w - 2| = 0.1 where zlog1 switches from its series to clog
    r = 0.2 * (1.0 + rng.choice([-1.0, 1.0], t.size) * rng.uniform(0.0, 1e-15, t.size))
    rings = np.concatenate([1.0 + r * np.exp(1j * t), 2.0 + r * np.exp(1j * t), 2.0 + 0.1 * np.exp(1j * t)])
    discs = np.concatenate([c + rng.uniform(-0.2, 0.2, 4000) + 1j * rng.uniform(-0.2, 0.2, 4000) for c in (1.0, 2.0)])
    # the reflection seam Re w = 0.1 and the Stirling seams Re w = 7, |Im w| = 7
    seams = np.concatenate([
        np.nextafter(0.1, rng.choice([-1.0, 1.0], 2000)) + 1j * rng.uniform(-7.0, 7.0, 2000),
        rng.choice([np.nextafter(7.0, 0.0), 7.0, np.nextafter(7.0, 8.0)], 2000) + 1j * rng.uniform(-7.5, 7.5, 2000),
        rng.uniform(-4.5, 13.0, 2000) + 1j * rng.choice([-7.0, 7.0, np.nextafter(7.0, 8.0), -np.nextafter(7.0, 0.0)], 2000),
    ])
    # next to the poles 0, -1, ..., -4
    poles = -rng.integers(0, 5, 4000) + rng.uniform(-1e-6, 1e-6, 4000) + 1j * rng.uniform(-1e-6, 1e-6, 4000)
    return np.concatenate([box, rings, discs, seams, poles])


def _real_axis_points() -> list[complex]:
    """The real axis with +0.0 and -0.0 imaginary parts, integers and
    half-integers included."""
    rng = np.random.default_rng(7)
    xs = list(rng.uniform(-4.5, 13.0, 2000)) + [1.0, 2.0, 3.0, 7.0, 12.5, -0.5, -2.5, 0.1, 0.5, 1.5]
    return [complex(x, s) for x in xs for s in (0.0, -0.0) if not is_gamma_pole(x)]


def test_log_gamma_matches_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    ws = _oracle_points()
    mine = np.array([log_gamma(w) for w in ws.tolist()])
    theirs = special.loggamma(ws)
    # equal bit patterns: == on both parts and equal sign bits
    assert np.array_equal(mine.real.view(np.uint64), theirs.real.view(np.uint64))
    assert np.array_equal(mine.imag.view(np.uint64), theirs.imag.view(np.uint64))
    for w in _real_axis_points():
        assert _bits(log_gamma(w)) == _bits(complex(special.loggamma(w))), w


@pytest.mark.parametrize(
    "w",
    [-math.inf, math.inf, math.nan, complex(1.0, math.inf), complex(math.nan, 0.0), complex(0.0, -math.inf)],
    ids=repr,
)
def test_non_finite_arguments_refused(w):
    with pytest.raises(DomainError):
        log_gamma(w)
    with pytest.raises(DomainError):
        is_gamma_pole(w)


def test_poles_refused_not_domain():
    for w in (0, -1.0, complex(-4.0, -0.0)):
        with pytest.raises(PoleError):
            log_gamma(w)
    assert cmath.isfinite(log_gamma(-4.000000000000001))


_finite = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


@given(_finite, _finite, st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))
def test_fma_rounds_once(x, y, z):
    exact = Fraction(x) * Fraction(y) + Fraction(z)
    got = _fma(x, y, z)
    if exact == 0:
        # the exact product is -z or a signed zero, so x*y + z is exact
        assert got == 0 and math.copysign(1.0, got) == math.copysign(1.0, x * y + z)
    else:
        assert got == float(exact)
