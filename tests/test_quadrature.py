import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zmeasures.errors import NumericalError
from zmeasures.quadrature import adaptive_gauss_legendre


def _single(f, a, b, *args, vectorized=False, **kw):
    """The (value, error) of f as the one component of an integrand."""
    g = (lambda t: f(t)[None]) if vectorized else (lambda t: (f(t),))
    [pair] = adaptive_gauss_legendre(g, a, b, *args, vectorized=vectorized, **kw)
    return pair


def test_polynomial_exact():
    v, e = _single(lambda x: x**7 - 3 * x**2, 0.0, 2.0, 1e-12)
    assert v == pytest.approx(2**8 / 8 - 8.0, abs=1e-12)
    assert e < 1e-12


def test_exponential():
    v, _ = _single(math.exp, 0.0, 1.0, 1e-12)
    assert v == pytest.approx(math.e - 1.0, rel=1e-13)


def test_breakpoint_kink():
    f = lambda x: abs(x - 0.3)  # noqa: E731
    exact = 0.3**2 / 2 + 0.7**2 / 2
    v, e = _single(f, 0.0, 1.0, 1e-12, breakpoints=[0.3])
    assert v == pytest.approx(exact, abs=1e-13)
    assert e < 1e-12


def test_error_estimate_is_bound():
    v, e = _single(lambda x: math.sin(40 * x), 0.0, 1.0, 1e-10)
    exact = (1 - math.cos(40.0)) / 40.0
    assert abs(v - exact) <= max(e, 1e-13)


def test_abs_floor_accepts_tiny_panels():
    # the first panel's discrepancy is far above the tolerance and the
    # relative floor here, but below the fixed absolute floor 1e-20
    nodes = []

    def f(x):
        nodes.append(x)
        return 1e-30 * math.sin(40 * x)

    v, _ = _single(f, 0.0, 1.0, 1e-40, rel_floor=0.0)
    assert abs(v) < 1e-29
    assert len(nodes) == 30


def test_vectorized_integrand_matches_scalar():
    calls = []

    def f(x):
        calls.append(np.size(x))
        return np.sin(40 * x) * np.exp(-x)

    scalar = _single(lambda x: math.sin(40 * x) * math.exp(-x), 0.0, 2.0, 1e-10, [0.5])
    vector = _single(f, 0.0, 2.0, 1e-10, [0.5], vectorized=True)
    assert vector[0] == pytest.approx(scalar[0], rel=1e-13)
    assert vector[1] == pytest.approx(scalar[1], rel=1e-3, abs=1e-15)
    assert set(calls) == {30}


def _one_component(f, a, b, tol, breakpoints=(), vectorized=False, rel_floor=1e-15):
    """The one-component algorithm as it stood before integrands could
    have several components: the oracle for both call forms below."""
    def rule(n, lo, hi):
        xs, ws = np.polynomial.legendre.leggauss(n)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        if vectorized:
            return half * float(ws @ f(mid + half * xs))
        total = 0.0
        for x, w in zip(xs, ws):
            total += w * f(mid + half * x)
        return half * total

    def panel(lo, hi, tol, depth):
        if vectorized:
            # one call on all 30 nodes, as the library makes it
            x10, w10 = np.polynomial.legendre.leggauss(10)
            x20, w20 = np.polynomial.legendre.leggauss(20)
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            v = f(mid + half * np.concatenate((x10, x20)))
            coarse, fine = half * float(w10 @ v[:10]), half * float(w20 @ v[10:])
        else:
            coarse, fine = rule(10, lo, hi), rule(20, lo, hi)
        e = abs(fine - coarse)
        if e <= max(tol, rel_floor * abs(fine), 1e-20):
            return fine, e
        assert depth < 40
        mid = 0.5 * (lo + hi)
        v1, e1 = panel(lo, mid, 0.5 * tol, depth + 1)
        v2, e2 = panel(mid, hi, 0.5 * tol, depth + 1)
        return v1 + v2, e1 + e2

    pts = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
    total = err = 0.0
    for lo, hi in zip(pts, pts[1:]):
        v, e = panel(lo, hi, tol * (hi - lo) / (b - a), 0)
        total += v
        err += e
    return total, err


def _kind(kind, p, q, vectorized):
    """A smooth, peaked or oscillatory integrand with parameters p, q."""
    xp = np if vectorized else math
    if kind == "smooth":
        return lambda s: xp.exp(-p * s) * (1.0 + q * s * s)
    if kind == "peaked":
        return lambda s: 1.0 / ((s - p) ** 2 + q)
    return lambda s: xp.sin(p * s + q) * xp.exp(-0.1 * s)


_KINDS = st.one_of(
    st.tuples(st.just("smooth"), st.floats(0.0, 3.0), st.floats(-1.0, 1.0)),
    st.tuples(st.just("peaked"), st.floats(0.0, 3.0), st.floats(-6.0, -1.0).map(lambda e: 10.0**e)),
    st.tuples(st.just("oscillatory"), st.floats(1.0, 60.0), st.floats(0.0, 3.0)),
)


def _hex(pair):
    return tuple(float(v).hex() for v in pair)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_KINDS, min_size=2, max_size=3),
    st.booleans(),
    st.floats(-12.0, -6.0).map(lambda e: 10.0**e),
    st.lists(st.floats(0.01, 2.99), max_size=3),
)
def test_components_match_one_component_calls(kinds, vectorized, tol, breaks):
    fs = [_kind(k, p, q, vectorized) for k, p, q in kinds]
    if vectorized:
        def multi(s):
            return np.array([f(s) for f in fs])
    else:
        def multi(s):
            return tuple(f(s) for f in fs)
    kw = {"breakpoints": breaks, "vectorized": vectorized}
    got = adaptive_gauss_legendre(multi, 0.0, 3.0, tol, components=len(fs), **kw)
    assert len(got) == len(fs)
    for f, pair in zip(fs, got):
        single = _single(f, 0.0, 3.0, tol, **kw)
        assert _hex(pair) == _hex(single) == _hex(_one_component(f, 0.0, 3.0, tol, **kw))


@pytest.mark.parametrize("vectorized", [False, True])
def test_components_keep_their_own_panel_trees(vectorized):
    # a quadratic converges on the first panel while a peak of width 1e-4
    # bisects a dozen levels deep; the peak's panels are evaluated once for both
    xp = np if vectorized else math
    flat = lambda s: 1.0 + s * s  # noqa: E731
    peak = lambda s: 1e-4 / ((s - 1.0 / xp.pi) ** 2 + 1e-8)  # noqa: E731
    calls = {"multi": 0, "flat": 0, "peak": 0}

    def counted(name, f):
        def g(s):
            calls[name] += 1
            return f(s)
        return g

    pair = (lambda s: np.array([flat(s), peak(s)])) if vectorized else (lambda s: (flat(s), peak(s)))
    got = adaptive_gauss_legendre(counted("multi", pair), 0.0, 1.0, 1e-10, vectorized=vectorized, components=2)
    singles = [
        _single(counted(name, f), 0.0, 1.0, 1e-10, vectorized=vectorized)
        for name, f in (("flat", flat), ("peak", peak))
    ]
    assert [_hex(p) for p in got] == [_hex(p) for p in singles]
    assert got[0][0] == pytest.approx(4.0 / 3.0, rel=1e-15)
    per_panel = 1 if vectorized else 30
    assert calls["flat"] == per_panel
    assert calls["multi"] == calls["peak"] > 20 * per_panel


@pytest.mark.parametrize("vectorized", [False, True])
@pytest.mark.parametrize("which", [0, 1])
def test_any_component_at_max_depth_raises(vectorized, which):
    # a jump at an irrational point never meets a zero tolerance: at a
    # height of 1e20 the discrepancy of some panel at or beside it stays
    # above the absolute floor 1e-20 down to the maximum depth
    if vectorized:
        step = lambda s: 1e20 * (s > 1.0 / np.pi).astype(float)  # noqa: E731
        smooth = np.exp
    else:
        step = lambda s: 1e20 * float(s > 1.0 / math.pi)  # noqa: E731
        smooth = math.exp
    fs = [smooth, smooth]
    fs[which] = step
    if vectorized:
        def multi(s):
            return np.array([f(s) for f in fs])
    else:
        def multi(s):
            return tuple(f(s) for f in fs)
    with pytest.raises(NumericalError, match="did not converge"):
        adaptive_gauss_legendre(multi, 0.0, 1.0, 0.0, rel_floor=0.0, vectorized=vectorized, components=2)


def test_empty_interval_gives_zero_for_every_component():
    assert adaptive_gauss_legendre(lambda s: (s, s), 1.0, 1.0, components=2) == [(0.0, 0.0)] * 2
