import gc
import math
import time
import weakref
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize(
    "z", [0.5, 1.0, 1.5, 2.0, 0.5 + 1.25j, 1.0 - 0.5j, 0.3 + 0.4j, 0.25, 0.75, 2.25 + 3j, 1e-9, 5e-324j]
)
def test_identically_zero_is_both_prefactors_zero(z):
    # the pole test stands in for evaluating the two prefactors
    p = KernelParams(z)
    assert p.identically_zero == (p.prefactor(-0.5) == 0.0 and p.prefactor(0.5) == 0.0)


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


def test_mpmath_kernel_cache_is_bounded():
    # per-z objects of the mpmath route are evicted as z changes, without
    # changing values
    first = scalar_whittaker_kernel(1.0, 2.0, P_COMPLEX)
    for z in (0.3, 0.9 - 1.3j, 2.0 + 0.5j):
        scalar_whittaker_kernel(1.0, 2.0, KernelParams(z))
    assert kernels._mpmath_kernel.cache_info().currsize == 2
    assert scalar_whittaker_kernel(1.0, 2.0, P_COMPLEX) == first


def test_context_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(kernels, "_context", lru_cache(maxsize=2)(KernelContext))
    for z in (0.3 + 0.4j, 1.0 + 0.2j, 0.6 - 0.5j):
        continuum_correlation([1.0], z)
    assert kernels._context.cache_info().currsize == 2


def test_continuum_correlation_warm_or_cold_matches_fresh_context(monkeypatch):
    # complex(0.3, 0.0) and complex(0.3, -0.0) are one key, so the second is
    # served by the context the first built
    monkeypatch.setattr(kernels, "_context", lru_cache(maxsize=2)(KernelContext))
    calls = [
        ([0.7, 1.9], 0.3 + 0.4j),
        ([0.7, 1.9], 0.3 + 0.4j),
        ([1.9, 3.1, 0.7], 0.3 + 0.4j),
        ([0.7], complex(0.3, 0.0)),
        ([0.7, 1.9], complex(0.3, -0.0)),
        ([0.7], complex(0.3, -0.0)),
        ([2.2, 0.4], 0.9 - 1.3j),
        ([0.7, 1.9], 0.3 + 0.4j),
        ([0.7, 1.9], 0.3 + 0.4j),
    ]
    for points, z in calls:
        fresh = pfaffian(assemble(points, KernelContext(KernelParams(z))))
        assert continuum_correlation(points, z).hex() == fresh.hex(), (points, z)
    info = kernels._context.cache_info()
    assert (info.hits, info.misses) == (5, 4)
    built = kernels._context(KernelParams(complex(0.3, 0.0)))
    assert kernels._context(KernelParams(complex(0.3, -0.0))) is built


@pytest.fixture
def mpmath_everywhere(monkeypatch):
    """whittaker_W through mpmath for every x in the kernel range, not the
    Poincare series above ASYMPTOTIC_X; the tables keep their seeds at
    x = 200 from the series.  The Whittaker value cache, the per-z objects
    of the mpmath route and the per-z contexts are swapped for empty ones
    for the test, so no value leaks into another test."""
    monkeypatch.setattr(specfun, "_direct", lru_cache(maxsize=None)(specfun._direct.__wrapped__))
    monkeypatch.setattr(kernels, "_mpmath_kernel", lru_cache(maxsize=2)(kernels._MpmathKernel))
    monkeypatch.setattr(kernels, "_context", lru_cache(maxsize=2)(kernels.KernelContext))
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
    # three close points; the mpmath route runs past 30 s.  Timed with a
    # cold context, whose tables are built inside the call
    kernels._context.cache_clear()
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


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-0.4, 0.4), min_size=1, max_size=6),
    st.sampled_from([2, 59, 60]),
    st.sampled_from([float, np.longdouble]),
)
def test_powers_match_exact_powers(taus, nterms, dtype):
    # each entry within 4 n ulp of the correctly rounded tau^n
    taus = [0.0, -0.4, 0.4, -0.123] + taus
    pw = kernels._powers(np.array(taus), nterms, dtype)
    assert pw.shape == (len(taus), nterms)
    assert pw.dtype == np.float64
    for tau, row in zip(taus, pw):
        exact = Fraction(1)
        for n, got in enumerate(row):
            ref = float(exact)
            assert abs(got - ref) <= 4 * n * math.ulp(ref), (tau, n, got, ref)
            exact *= Fraction(tau)


# continuum_correlation values, as float.hex, from the np.power tables that
# preceded the running-product power tables
_CONTINUUM_GOLDENS = [
    ([1.0], 0.3 + 0.4j, "0x1.23363eb38cba4p-7"),
    ([0.5, 2.0], 0.3 + 0.4j, "0x1.ceafb2e9002ddp-23"),
    ([0.8], 0.9 - 1.3j, "0x1.004231564af24p-1"),
    ([0.7, 1.9, 3.2], 0.9 - 1.3j, "0x1.de0917baaad24p-36"),
    ([0.4], 2.0 + 0.5j, "0x1.56eeb2fb5ae50p-7"),
    ([1.5, 2.5], 2.0 + 0.5j, "0x1.f25d67d137ab3p-50"),
]


@pytest.mark.parametrize("points, z, golden", _CONTINUUM_GOLDENS)
def test_continuum_correlation_pinned_values(points, z, golden):
    assert continuum_correlation(points, z) == pytest.approx(float.fromhex(golden), rel=1e-10)


# continuum_correlation values, as float.hex, recorded before the integrals of
# a pair shared their evaluations and a context kept its table values per
# panel: one to three points, a point below 1 (sqrt substitution), points
# above 40 (another tail cut-off), a pair 1e-3 apart, the three close points
# of pool op c061 and an identically zero z
_CONTINUUM_HEX = [
    ([1.0], 0.3 + 0.4j, "0x1.23363eb38cba4p-7"),
    ([0.35], 1 + 0.2j, "0x1.e1113ae95ddfep-9"),
    ([45.0], 0.3 + 0.4j, "0x1.6486b3c705800p-88"),
    ([0.5, 2.0], 0.3 + 0.4j, "0x1.ceafb2e9002ddp-23"),
    ([0.6, 0.601], 0.3 + 0.4j, "0x1.e6fd708f34554p-56"),
    ([41.0, 44.0], 0.3 + 0.4j, "-0x1.e5acb799b23e2p-200"),
    ([1.5, 2.5], 2 + 0.5j, "0x1.f25d67d1129d3p-50"),
    ([0.7, 1.9, 3.2], 0.9 - 1.3j, "0x1.de0917baeb1b2p-36"),
    ([0.004, 0.9, 12.0], 0.3 + 0.4j, "0x1.ac59c0f42e72dp-41"),
    ([0.9, 1.1, 2.0], 0.6 - 0.5j, "0x1.017d7f49128dbp-66"),
    ([2.575, 2.605, 2.723], 0.0336 - 1.0604j, "0x0.0p+0"),
    ([1.0, 2.0], 1.5, "0x0.0p+0"),
]


def test_continuum_correlation_bit_identical(monkeypatch):
    # in one context per z, as the cases share z, and in a fresh one per case
    monkeypatch.setattr(kernels, "_context", lru_cache(maxsize=2)(KernelContext))
    for points, z, golden in _CONTINUUM_HEX:
        assert continuum_correlation(points, z).hex() == golden, (points, z)
        fresh = pfaffian(assemble(points, KernelContext(KernelParams(z))))
        assert fresh.hex() == golden, (points, z)


def test_context_reads_table_values_back():
    # the tables are summed once per array of nodes, and once more for the
    # series of the points; the integrals of an assembly ask for many of
    # those arrays more than once
    ctx = KernelContext(P_COMPLEX)
    points = [0.7, 1.9, 3.2]
    sums, calls = [], []
    locate, w = ctx._locate, ctx._w

    def counted_locate(x):
        sums.append(x.tobytes())
        return locate(x)

    def counted_w(x):
        calls.append(x.tobytes())
        return w(x)

    ctx._locate, ctx._w = counted_locate, counted_w
    value = pfaffian(assemble(points, ctx))
    assert len(set(sums)) == len(sums) == len(ctx._w_memo) + 1
    assert set(calls) == set(ctx._w_memo)
    assert len(calls) > 1.5 * len(ctx._w_memo)
    assert value.hex() == pfaffian(assemble(points, KernelContext(P_COMPLEX))).hex()


def test_context_memo_dropped_with_its_context(monkeypatch):
    monkeypatch.setattr(kernels, "_context", lru_cache(maxsize=2)(KernelContext))
    first = continuum_correlation([0.7, 1.9], 0.3 + 0.4j)
    ctx = kernels._context(P_COMPLEX)
    assert ctx._w_memo and ctx._series_cache
    memo = weakref.ref(next(iter(ctx._w_memo.values())))
    ctx = weakref.ref(ctx)
    for z in (1.0 + 0.2j, 0.6 - 0.5j):
        continuum_correlation([0.7, 1.9], z)
    gc.collect()
    assert ctx() is None and memo() is None
    assert continuum_correlation([0.7, 1.9], 0.3 + 0.4j).hex() == first.hex()


# repr of every public kernel value at three z and four (x, y), recorded before
# the mpmath route and the tables shared one block pipeline.  Per point:
# matrix_kernel (s, s_y, s_x, s_xy, error), S, S_partials (s_x, s_y, s_xy),
# scalar_whittaker_kernel, w_a at a = -1/2 and 3/2, KernelContext.block (five
# fields) and KernelContext.kernel (K, dK/dy).  repr pins the np.float64-vs-float
# type that the CLI prints as well as the value.
_ROUTE_ZS = (0.3 + 0.4j, 0.9 - 1.3j, 1.5)
_ROUTE_POINTS = ((1.0, 2.0), (0.6, 0.6), (0.601, 0.6), (2.3, 1.2))
_ROUTE_GOLDENS = {
    (0.3 + 0.4j, 1.0, 2.0): (
        "np.float64(0.002356835009721155)", "np.float64(-0.00036785229026203587)",
        "np.float64(-0.005923980219378912)", "0.003376710012686591",
        "np.float64(3.2867998175463502e-12)", "np.float64(0.002356835009721155)",
        "np.float64(-0.005923980219378912)", "np.float64(-0.00036785229026203587)",
        "0.003376710012686591", "0.015310853246876605",
        "0.45270458405080644", "0.09258820033556828",
        "0.002356835009721208", "-0.00036785229026191704",
        "-0.005923980219379067", "0.0033767100126866735",
        "5.216989158221151e-13", "0.015310853246877011",
        "-0.015929488349508913",
    ),
    (0.3 + 0.4j, 0.6, 0.6): (
        "np.float64(7.632783294297951e-17)", "np.float64(0.03730009182356391)",
        "np.float64(-0.03730009181755605)", "5.551115123125783e-17",
        "np.float64(1.1442981783308669e-11)", "np.float64(7.632783294297951e-17)",
        "np.float64(-0.03730009181755605)", "np.float64(0.03730009182356391)",
        "5.551115123125783e-17", "0.1715876999653964",
        "0.5838310698661886", "0.19020203085670995",
        "-3.469446951953614e-17", "0.03730009181755688",
        "-0.037300091817557085", "-0.0",
        "2.9704464586590687e-13", "0.17158769996540107",
        "-0.3035562924584778",
    ),
    (0.3 + 0.4j, 0.601, 0.6): (
        "np.float64(-3.7222301234714206e-05)", "np.float64(0.03730003201313698)",
        "np.float64(-0.03714462407985543)", "-0.00011949025279366088",
        "np.float64(2.987434733628475e-13)", "np.float64(-3.7222301234714206e-05)",
        "np.float64(-0.03714462407985543)", "np.float64(0.03730003201313698)",
        "-0.00011949025279366088", "0.1712845191313704",
        "0.5835052424194748", "0.18982089274122704",
        "-3.722230123483217e-05", "0.037300032013125796",
        "-0.03714462407986489", "-0.00011949026130379792",
        "2.970116861198633e-13", "0.171284519131392",
        "-0.3029748523713475",
    ),
    (0.3 + 0.4j, 2.3, 1.2): (
        "np.float64(-0.001387251243223264)", "np.float64(0.0031880568489012365)",
        "np.float64(0.000243749257241045)", "-0.0017451325487328204",
        "np.float64(4.017370031249268e-12)", "np.float64(-0.001387251243223264)",
        "np.float64(0.000243749257241045)", "np.float64(0.0031880568489012365)",
        "-0.0017451325487328204", "0.008749754864455119",
        "0.18972465307973865", "0.01602011638191661",
        "-0.0013872512432233038", "0.003188056848901318",
        "0.00024374925724105542", "-0.0017451325487328664",
        "4.017338396232875e-12", "0.008749754864455339",
        "-0.01081781579000518",
    ),
    (0.9 - 1.3j, 1.0, 2.0): (
        "np.float64(0.09601620576881609)", "np.float64(-0.013293335937294329)",
        "np.float64(-0.19307450090910275)", "0.13301151584379706",
        "np.float64(2.6947819879264927e-13)", "np.float64(0.09601620576881609)",
        "np.float64(-0.19307450090910275)", "np.float64(-0.013293335937294329)",
        "0.13301151584379706", "0.30899083756844753",
        "0.13056416023873316", "0.407492693444686",
        "0.0960162057688192", "-0.013293335937273956",
        "-0.19307450090910924", "0.13301151584380166",
        "7.847184920832052e-13", "0.3089908375684579",
        "-0.2974520805440477",
    ),
    (0.9 - 1.3j, 0.6, 0.6): (
        "np.float64(5.551115123125783e-17)", "np.float64(0.7958821485440715)",
        "np.float64(-0.7958821485439148)", "1.474514954580286e-16",
        "np.float64(8.365515552322498e-13)", "np.float64(5.551115123125783e-17)",
        "np.float64(-0.7958821485439148)", "np.float64(0.7958821485440715)",
        "1.474514954580286e-16", "1.2301309177287063",
        "-0.27297291118623357", "0.2232481487259873",
        "2.220446049250313e-16", "0.7958821485439425",
        "-0.7958821485439421", "2.4253602598500734e-16",
        "4.0636951314522596e-13", "1.2301309177287485",
        "-1.0265182099660626",
    ),
    (0.9 - 1.3j, 0.601, 0.6): (
        "np.float64(-0.0007949808550786197)", "np.float64(0.7958803175148427)",
        "np.float64(-0.7940795266999626)", "-0.0036587800073154307",
        "np.float64(4.620403692801409e-13)", "np.float64(-0.0007949808550786197)",
        "np.float64(-0.7940795266999626)", "np.float64(0.7958803175148427)",
        "-0.0036587800073154307", "1.2291025358736907",
        "-0.27202639030001935", "0.22441164778874828",
        "-0.0007949808550784532", "0.795880317514871",
        "-0.7940795266999899", "-0.0036587800075926695",
        "4.062307352671478e-13", "1.2291025358737329",
        "-1.0183326836138242",
    ),
    (0.9 - 1.3j, 2.3, 1.2): (
        "np.float64(-0.06156195090556299)", "np.float64(0.12012091931350702)",
        "np.float64(0.011101497477888175)", "-0.07694958254574388",
        "np.float64(2.574139008295623e-13)", "np.float64(-0.06156195090556299)",
        "np.float64(0.011101497477888175)", "np.float64(0.12012091931350702)",
        "-0.07694958254574388", "0.22524174452543072",
        "0.36569059454650804", "0.16045174290232686",
        "-0.061561950905565085", "0.12012091931351102",
        "0.011101497477888564", "-0.0769495825457464",
        "2.575775613942013e-13", "0.22524174452543827",
        "-0.07310424362991645",
    ),

}
# at z = 1.5 both w vanish and every value is 0.0; the scalar kernel for x < y
# was -0.0 before ``kernel`` short-circuited an identically zero z
for _x, _y in _ROUTE_POINTS:
    _ROUTE_GOLDENS[(1.5, _x, _y)] = ("0.0",) * 19


def _route_values(z, x, y):
    p = KernelParams(z)
    ctx = KernelContext(p)
    v = matrix_kernel(x, y, p)
    b = ctx.block(x, y)
    return (
        v.s, v.s_y, v.s_x, v.s_xy, v.error,
        S(x, y, p), *S_partials(x, y, p),
        scalar_whittaker_kernel(x, y, p),
        w_a("-1/2", x, p), w_a("3/2", x, p),
        b.s, b.s_y, b.s_x, b.s_xy, b.error,
        *ctx.kernel(x, y),
    )


# one case per z: the cold mpmath route takes about 8 s for the four points
@pytest.mark.parametrize("z", _ROUTE_ZS)
def test_kernel_values_pinned(z):
    for x, y in _ROUTE_POINTS:
        got = tuple(repr(v) for v in _route_values(z, x, y))
        assert got == _ROUTE_GOLDENS[(z, x, y)], (z, x, y)
