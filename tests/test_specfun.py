import math
import random

import mpmath
import pytest

from zmeasures import specfun
from zmeasures.errors import (
    DomainError,
    NumericalError,
    PoleError,
    UnvalidatedDomainError,
)
from zmeasures.specfun import (
    ASYMPTOTIC_X,
    INDEX_MAX,
    X_MIN,
    is_gamma_pole,
    log_gamma,
    whittaker_W,
    whittaker_W_deriv,
    whittaker_W_second,
    whittaker_W_third,
)

from oracles import whittaker_integral


def test_log_gamma_poles():
    with pytest.raises(PoleError):
        log_gamma(0)
    with pytest.raises(PoleError):
        log_gamma(-3)
    assert is_gamma_pole(-2.0)
    assert not is_gamma_pole(-2.5)
    assert not is_gamma_pole(-2 + 1j)
    assert log_gamma(0.5).real == pytest.approx(0.5 * math.log(math.pi))


def test_kernel_admissibility():
    # k real and m real or purely imaginary: a real value for x > 0
    assert math.isfinite(whittaker_W(1.0, 0.5, 2.0))
    assert math.isfinite(whittaker_W(-0.5, 0.8j, 2.0))
    with pytest.raises(DomainError):
        whittaker_W(1j, 0.5, 2.0)
    with pytest.raises(DomainError):
        whittaker_W(1.0, 0.3 + 0.3j, 2.0)


def test_closed_form_branch():
    for m in (0.0, 0.5, 1.3):
        for x in (0.01, 0.5, 1.0, 7.0, 45.0):
            ref = x ** (m + 0.5) * math.exp(-x / 2)
            assert whittaker_W(m + 0.5, m, x) == pytest.approx(ref, rel=1e-10)


def test_m_symmetry():
    for x in (0.5, 5.0, 50.0):
        a = whittaker_W(-1.2, 0.7, x)
        assert whittaker_W(-1.2, -0.7, x) == pytest.approx(a, rel=1e-12)
        b = whittaker_W(-1.2, 0.5j, x)
        assert whittaker_W(-1.2, -0.5j, x) == pytest.approx(b, rel=1e-12)


def test_cross_method_agreement_real_m():
    for k in (-3.0, -0.4, 1.2):
        for m in (0.0, 0.25, 2.5):
            for x in (0.01, 1.0, 20.0, 60.0, 150.0):
                if (abs(m) - k + 0.5) <= 0.05:
                    continue
                d = whittaker_W(k, m, x)
                i = whittaker_integral(k, m, x)
                assert abs(d - i) <= 1e-8 * max(abs(d), 1e-300), (k, m, x)


def test_cross_method_agreement_imaginary_m():
    for k in (-1.6, 0.4):
        for mi in (0.4, 0.8, 2.0):
            for x in (0.05, 1.0, 10.0, 50.0):
                m = complex(0, mi)
                d = whittaker_W(k, m, x)
                i = whittaker_integral(k, m, x)
                assert abs(d - i) <= 1e-8 * max(abs(d), 1e-300), (k, mi, x)


def test_derivative_against_richardson():
    for k, m, x in [(-1.5, 0.0, 2.0), (0.5, 0.25, 1.0), (-0.6, 0.8j, 3.0), (-2.0, 1.0, 50.0)]:
        h = 1e-4 * max(1.0, x)

        def fd(hh):
            return (whittaker_W(k, m, x + hh) - whittaker_W(k, m, x - hh)) / (2 * hh)

        rich = (4 * fd(h / 2) - fd(h)) / 3
        assert whittaker_W_deriv(k, m, x) == pytest.approx(rich, rel=1e-5)


def test_higher_derivatives_consistent():
    for k, m, x in [(-1.5, 0.0, 2.0), (-0.6, 0.8j, 3.0)]:
        h = 1e-4 * max(1.0, x)
        fd2 = (whittaker_W_deriv(k, m, x + h) - whittaker_W_deriv(k, m, x - h)) / (2 * h)
        assert whittaker_W_second(k, m, x) == pytest.approx(fd2, rel=1e-5)
        fd3 = (whittaker_W_second(k, m, x + h) - whittaker_W_second(k, m, x - h)) / (2 * h)
        assert whittaker_W_third(k, m, x) == pytest.approx(fd3, rel=1e-5)


def test_domain_validation():
    with pytest.raises(DomainError):
        whittaker_W(0.5, 0.0, -1.0)
    with pytest.raises(UnvalidatedDomainError):
        whittaker_W(0.5, 0.0, 1e-6)
    with pytest.raises(UnvalidatedDomainError):
        whittaker_W(0.5, 0.0, 500.0)
    with pytest.raises(UnvalidatedDomainError):
        whittaker_W(8.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        whittaker_W(0.5j, 0.0, 1.0)


def test_integral_route_inadmissibility():
    # Re(m - k + 1/2) <= 0 on both sign choices of m
    with pytest.raises(DomainError):
        whittaker_integral(3.0, 0.5, 1.0)


def test_asymptotic_seam_values_agree_with_integral():
    # just above the switch point the asymptotic route must stay accurate
    for k, m in ((-1.5, 0.0), (-0.6, 0.8j)):
        d = whittaker_W(k, m, 41.0)
        i = whittaker_integral(k, m, 41.0)
        assert d == pytest.approx(i, rel=1e-8)


# k, m and x where the hypergeometric parameters of W are integers or
# half-integers: 2F0 terminates, hypercomb perturbs, or W vanishes exactly
_DEGENERATE = [
    (k / 2, m, x)
    for k in range(-2, 7)
    for m in (0.0, 0.5, 1.0, 1.5, 2j)
    for x in (0.5, 1.0, 2.0, 4.0, 6.0)
]


def _global_whitw(k: complex, m: complex, x: float) -> complex:
    with mpmath.workdps(25):
        return complex(mpmath.whitw(mpmath.mpc(k), mpmath.mpc(m), mpmath.mpf(x)))


def _hex(v: complex) -> tuple[str, str]:
    return v.real.hex(), v.imag.hex()


def test_private_context_is_bit_identical_to_global_whitw():
    # the memoized Gamma, 1/Gamma and sin(pi .) must not move a single bit;
    # the order is shuffled so that the memos hold values of other indices
    rng = random.Random(2012)
    # the kernel's indices: k = -2 Re z - a and k - 1 for a = +-1/2, m = -2i Im z
    cases = [
        (rng.uniform(-INDEX_MAX, 0.5), 1j * rng.uniform(-INDEX_MAX, INDEX_MAX),
         math.exp(rng.uniform(math.log(X_MIN), math.log(ASYMPTOTIC_X))))
        for _ in range(300)
    ] + _DEGENERATE
    rng.shuffle(cases)
    raised = 0
    for k, m, x in cases:
        k, m = complex(k), complex(m)
        try:
            ref = _global_whitw(k, m, x)
        except (ValueError, mpmath.libmp.NoConvergence):
            raised += 1
            with pytest.raises(NumericalError):
                specfun._direct.__wrapped__(k, m, x)
            continue
        assert _hex(specfun._direct.__wrapped__(k, m, x)) == _hex(ref), (k, m, x)
    # W_{2,1/2}(2) = 0: the terminating 2F0 sums to exactly zero
    assert raised >= 1


@pytest.mark.parametrize("error", [mpmath.libmp.NoConvergence(), ValueError("hypsum() failed\nto converge")])
def test_mpmath_convergence_failure_is_numerical_error(monkeypatch, error):
    def fail(*args):
        raise error

    monkeypatch.setattr(specfun._mp_context()[0], "whitw", fail)
    with pytest.raises(NumericalError, match="mpmath did not converge") as info:
        specfun._direct.__wrapped__(-0.5 + 0j, 0.5j, 1.0)
    assert "\n" not in str(info.value)


def test_memo_caches_bounded_and_global_mpmath_untouched():
    context, memos = specfun._mp_context()
    hits = sum(memo.cache_info().hits for memo in memos)
    for i in range(40):
        z = complex(0.05 * i, 0.1 * i - 2.0)
        for x in (1.0 + 0.01 * i, 2.0 + 0.01 * i):
            whittaker_W(-2.0 * z.real - 0.5, complex(0.0, -2.0 * z.imag), x)
    # the second x at each index pair reuses the factors of the first
    assert sum(memo.cache_info().hits for memo in memos) > hits
    for memo in memos:
        info = memo.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        # a memo that no call reaches is dead code
        assert info.hits > 0, memo
    assert mpmath.mp.prec == 53
    for name in ("gamma", "rgamma", "sinpi"):
        assert getattr(mpmath.mp, name) is not getattr(context, name)
