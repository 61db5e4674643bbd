import cmath
import contextlib
import functools
import gc
import math
import sys
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from zmeasures import measures
from zmeasures.errors import DomainError, ParameterError, ResourceCapError
from zmeasures.measures import (
    CorrelationReport,
    ZParams,
    _engine,
    lattice_correlation,
    mixed_z_measure,
    negative_binomial_tail,
    negative_binomial_weight,
    schur_correlation,
    z_measure,
)
from zmeasures.partitions import (
    YoungDiagram,
    column_shifts,
    conjugate_parts,
    frobenius_coordinates,
    iter_partition_tuples,
)

from oracles import _stratum_terms, z_measure_symmetry_check

Z_GRID = (0.5, 1.0, 1 + 1j, 0.3 + 0.7j)


def test_zparams_validation():
    with pytest.raises(ParameterError):
        ZParams(0)
    with pytest.raises(ParameterError):
        ZParams(1, theta=0)
    with pytest.raises(ParameterError):
        ZParams(1, xi=1.0)
    p = ZParams(1 + 1j, 0.5, 0.9)
    assert p.t == pytest.approx(2.0)
    assert p.a == pytest.approx(4.0)


def test_zparams_keeps_theta_exact():
    # theta is converted once, to a Fraction; a string names the same value
    # as the Fraction, so both share one engine and one set of column shifts
    by_string = ZParams(0.3 + 0.4j, "1/3", 0.5)
    by_fraction = ZParams(0.3 + 0.4j, Fraction(1, 3), 0.5)
    assert by_string.theta == by_fraction.theta == Fraction(1, 3)
    assert isinstance(ZParams(1, 0.5).theta, Fraction)
    X = [Fraction(5, 2)]
    got = lattice_correlation(X, by_string, 20)
    want = lattice_correlation(X, by_fraction, 20)
    assert got.value.hex() == want.value.hex()
    assert got.truncation_bound.hex() == want.truncation_bound.hex()
    assert got.terms_summed == want.terms_summed > 0


@pytest.mark.parametrize("theta", [Fraction(10**400), Fraction(1, 10**400), "1e400", "1e-400"])
def test_zparams_refuses_theta_beyond_the_floats(theta):
    with pytest.raises(ParameterError):
        ZParams(1, theta)


@pytest.mark.parametrize(
    "z, theta",
    [
        (complex(math.nan, 0), 0.5),
        (complex(0, math.nan), 0.5),
        (complex(math.inf, 0), 0.5),
        (1, math.inf),
        (1, math.nan),
    ],
)
def test_zparams_rejects_non_finite(z, theta):
    with pytest.raises(ParameterError):
        ZParams(z, theta, 0.5)


# log10 |z| over the whole float range, and again near a = measures.A_MAX
@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.floats(-170.0, 170.0), st.floats(-1.0, 4.0)),
    st.floats(0.0, 2 * math.pi),
    st.sampled_from((1e-3, Fraction(1, 3), 0.5, 1.0, 2.0, 1e3)),
)
@example(2.0, 0.0, 0.5)  # a = 2e4
@example(0.5 * math.log10(0.999 * measures.A_MAX * 0.5), 1.0, 0.5)  # a = 0.999 A_MAX
@example(-160.0, 0.0, 0.5)  # |z|^2 below the normal floats
def test_accepted_z_measure_sums_to_one(log10_abs_z, arg, theta):
    """Where ZParams accepts (z, theta), the z-measure at each size n <= 12
    sums to 1 within 1e-10; it refuses only where |z|^2 or a leaves the
    normal floats or a exceeds A_MAX."""
    z = cmath.rect(10.0**log10_abs_z, arg)
    log10_a = 2 * log10_abs_z - math.log10(theta)
    try:
        p = ZParams(z, theta)
    except ParameterError:
        assert not (-300 < min(2 * log10_abs_z, log10_a) and log10_a < math.log10(measures.A_MAX) - 1e-9)
        return
    for n in range(1, 13):
        total = math.fsum(z_measure(YoungDiagram(parts), p) for parts in iter_partition_tuples(n))
        assert abs(total - 1.0) <= 1e-10, (z, theta, n, total)


def test_single_box_is_certain():
    for z in Z_GRID:
        for th in (0.5, 1.0, 2.0):
            assert z_measure(YoungDiagram((1,)), ZParams(z, th)) == pytest.approx(1.0)


def test_hand_values_n2():
    p = ZParams(1, 0.5)
    assert z_measure(YoungDiagram((2,)), p) == pytest.approx(8 / 9, abs=1e-14)
    assert z_measure(YoungDiagram((1, 1)), p) == pytest.approx(1 / 9, abs=1e-14)
    # transposed counterpart at the dual parameters
    pd = ZParams(-2, 2.0)
    assert z_measure(YoungDiagram((1, 1)), pd) == pytest.approx(8 / 9, abs=1e-14)


def test_normalization_modest():
    for z in Z_GRID:
        for th in (0.5, 1.0, 2.0):
            p = ZParams(z, th)
            for n in (1, 4, 9):
                total = sum(
                    z_measure(YoungDiagram(parts), p)
                    for parts in iter_partition_tuples(n)
                )
                assert total == pytest.approx(1.0, abs=1e-10), (z, th, n)


def test_nonnegativity():
    p = ZParams(0.5, 0.5)
    for parts in iter_partition_tuples(7):
        assert z_measure(YoungDiagram(parts), p) >= 0.0


def test_degenerate_z_support():
    # z = 0.5, theta = 1/2: the factor z - theta kills every second row
    p = ZParams(0.5, 0.5)
    for parts in iter_partition_tuples(6):
        m = z_measure(YoungDiagram(parts), p)
        if len(parts) > 1:
            assert m == 0.0
        else:
            assert m == pytest.approx(1.0)


def test_symmetry_check():
    for z in Z_GRID:
        p = ZParams(z, 0.5)
        for n in (1, 3, 5):
            for parts in iter_partition_tuples(n):
                lhs, rhs = z_measure_symmetry_check(YoungDiagram(parts), p)
                assert abs(lhs - rhs) <= 1e-12 * max(lhs, rhs, 1e-30)


def test_negative_binomial_weights():
    p = ZParams(0.5, 0.5, 0.9)
    assert negative_binomial_weight(0, p) == pytest.approx((1 - 0.9) ** p.a)
    total = sum(negative_binomial_weight(n, p) for n in range(401))
    assert total == pytest.approx(1.0, abs=1e-10)
    p0 = ZParams(0.5, 0.5, 0.0)
    assert negative_binomial_weight(0, p0) == 1.0
    assert negative_binomial_weight(3, p0) == 0.0


def test_negative_binomial_tail_certified():
    p = ZParams(0.5, 0.5, 0.85)
    direct = sum(negative_binomial_weight(n, p) for n in range(41, 4000))
    bound = negative_binomial_tail(40, p)
    assert bound >= direct
    assert bound <= direct * (1 + 1e-9) + 1e-15


def test_mixed_measure_sums_to_one():
    p = ZParams(0.5, 0.5, 0.85)
    total = mixed_z_measure(YoungDiagram(), p)
    for n in range(1, 81):
        for parts in iter_partition_tuples(n, max_rows=1):
            total += mixed_z_measure(YoungDiagram(parts), p)
    # the missing mass is exactly the negative-binomial tail beyond 80
    tail = negative_binomial_tail(80, p)
    assert 0 <= 1.0 - total <= tail
    assert tail < 1e-6


def test_mixed_measure_empty_diagram():
    p = ZParams(0.5, 0.5, 0.5)
    assert mixed_z_measure(YoungDiagram(), p) == pytest.approx(0.5**0.5)


def test_lattice_correlation_half_point_zero():
    p = ZParams(1 + 1j, 0.5, 0.5)
    rep = lattice_correlation([Fraction(1, 2)], p, 20)
    assert rep.value == 0.0
    assert rep.truncation_bound > 0


def test_lattice_correlation_unreachable_point_walks_nothing(monkeypatch):
    # b + 1/2 with b >= 1: no diagram has the positive coordinate 1/2
    def no_walk(*args):
        raise AssertionError("stratum walked for an unreachable point")

    monkeypatch.setattr(measures, "_stratum_sum", no_walk)
    p = ZParams(0.3 + 0.7j, 0.5, 0.6)
    rep = lattice_correlation([Fraction(3, 2), Fraction(1, 2)], p, 40)
    assert rep == CorrelationReport(0.0, negative_binomial_tail(40, p), 40, 0)


def test_lattice_correlation_truncation_consistency():
    p = ZParams(0.5, 0.5, 0.5)
    r40 = lattice_correlation([Fraction(3, 2)], p, 40)
    r60 = lattice_correlation([Fraction(3, 2)], p, 60)
    assert r60.value >= r40.value
    assert r60.value <= r40.value + r40.truncation_bound
    assert r60.truncation_bound <= r40.truncation_bound


def test_lattice_correlation_monotone_in_X():
    p = ZParams(1 + 1j, 0.5, 0.6)
    single = lattice_correlation([Fraction(3, 2)], p, 25).value
    double = lattice_correlation([Fraction(3, 2), Fraction(5, 2)], p, 25).value
    assert double <= single + 1e-15


def test_lattice_correlation_validation():
    p = ZParams(1, 0.5, 0.5)
    with pytest.raises(DomainError):
        lattice_correlation([Fraction(1, 3)], p, 10)
    with pytest.raises(DomainError):
        lattice_correlation([Fraction(-1, 2)], p, 10)
    with pytest.raises(DomainError):
        lattice_correlation([Fraction(3, 2), Fraction(3, 2)], p, 10)
    with pytest.raises(DomainError):
        lattice_correlation([], p, 10)
    with pytest.raises(ResourceCapError):
        lattice_correlation([Fraction(3, 2)], p, 10**6)


def test_engine_cache_is_bounded():
    # cached engines are evicted as z changes, without changing values
    lam = YoungDiagram((4, 2, 1))
    p1 = ZParams(0.3 + 0.7j, 0.5, 0.6)
    first = z_measure(lam, p1)
    for z in (1.5, 2.5, 0.7 - 0.2j):
        p2 = ZParams(z, 0.5, 0.6)
        lattice_correlation([Fraction(3, 2)], p2, 12)
        z_measure(lam, p2)
    assert _engine.cache_info().currsize == 2
    assert z_measure(lam, p1) == first


def _report_hex(rep: CorrelationReport) -> tuple:
    return rep.value.hex(), rep.truncation_bound.hex(), rep.terms_summed


@pytest.fixture
def fresh_engines(monkeypatch):
    """An empty engine cache for the test, and the number of strata walked
    since the test began (through ``walks()``)."""
    monkeypatch.setattr(measures, "_engine", functools.lru_cache(maxsize=2)(measures._MeasureEngine))
    walked = []
    real = measures._stratum_sum

    def counting(n, eng, shifts, target_bs):
        walked.append(n)
        return real(n, eng, shifts, target_bs)

    monkeypatch.setattr(measures, "_stratum_sum", counting)
    return lambda: len(walked)


def _fresh_report(X, p: ZParams, n_max: int) -> CorrelationReport:
    """``lattice_correlation`` on an engine built for this call alone."""
    saved = measures._engine
    measures._engine = functools.lru_cache(maxsize=1)(measures._MeasureEngine)
    try:
        return lattice_correlation(X, p, n_max)
    finally:
        measures._engine = saved


_H = Fraction(1, 2)
# (earlier calls, the call compared with a fresh engine)
_MEMO_CASES = {
    "another xi": (
        [([_H * 3, _H * 7], ZParams(0.3 + 0.7j, 0.5, 0.5), 24)],
        ([_H * 3, _H * 7], ZParams(0.3 + 0.7j, 0.5, 0.8), 24),
    ),
    "larger n_max": (
        [([_H * 5], ZParams(0.6 - 0.5j, 0.5, 0.6), 14)],
        ([_H * 5], ZParams(0.6 - 0.5j, 0.5, 0.6), 26),
    ),
    "smaller n_max": (
        [([_H * 5], ZParams(0.6 - 0.5j, 0.5, 0.6), 26)],
        ([_H * 5], ZParams(0.6 - 0.5j, 0.5, 0.7), 14),
    ),
    "X in another order": (
        [([_H * 3, _H * 9], ZParams(1 + 1j, 0.5, 0.6), 22)],
        ([_H * 9, _H * 3], ZParams(1 + 1j, 0.5, 0.6), 22),
    ),
    "zero cut z = 1.5": (
        [([_H * 3], ZParams(1.5, 0.5, 0.7), 40), ([_H * 5], ZParams(1.5, 0.5, 0.7), 40)],
        ([_H * 3], ZParams(1.5, 0.5, 0.9), 60),
    ),
    "theta = 1/3": (
        [([_H * 3, _H * 5], ZParams(0.3 + 0.7j, Fraction(1, 3), 0.5), 20)],
        ([_H * 5, _H * 3], ZParams(0.3 + 0.7j, Fraction(1, 3), 0.7), 24),
    ),
    "theta = 2": (
        [([_H * 3], ZParams(0.3 + 0.7j, 2.0, 0.5), 20)],
        ([_H * 3], ZParams(0.3 + 0.7j, 2.0, 0.7), 24),
    ),
    # one float, two thetas: the walk reads the column shifts of the exact one
    "theta 1/3 after its float": (
        [([_H * 3], ZParams(0.3 + 0.7j, 1 / 3, 0.5), 20)],
        ([_H * 3], ZParams(0.3 + 0.7j, Fraction(1, 3), 0.5), 20),
    ),
}


@pytest.mark.parametrize("case", list(_MEMO_CASES), ids=list(_MEMO_CASES))
def test_stratum_memo_bit_identical_to_fresh_engine(case, fresh_engines):
    earlier, (X, p, n_max) = _MEMO_CASES[case]
    for args in earlier:
        lattice_correlation(*args)
    got = lattice_correlation(X, p, n_max)
    assert _report_hex(got) == _report_hex(_fresh_report(X, p, n_max))
    assert got.n_max_used == n_max


def test_repeated_call_walks_no_stratum(fresh_engines):
    walks = fresh_engines
    z = 0.3 + 0.7j
    lattice_correlation([_H * 3, _H * 5], ZParams(z, 0.5, 0.5), 20)
    assert walks() == 20
    lattice_correlation([_H * 5, _H * 3], ZParams(z, 0.5, 0.8), 20)
    lattice_correlation([_H * 3, _H * 5], ZParams(z, 0.5, 0.6), 12)
    assert walks() == 20
    # a larger n_max walks only the sizes not summed yet
    lattice_correlation([_H * 3, _H * 5], ZParams(z, 0.5, 0.6), 26)
    assert walks() == 26
    # other points, or another theta, are other strata
    lattice_correlation([_H * 3], ZParams(z, 0.5, 0.6), 10)
    lattice_correlation([_H * 3, _H * 5], ZParams(z, 2.0, 0.6), 10)
    assert walks() == 46


def test_stratum_memo_dropped_with_its_engine(fresh_engines):
    walks = fresh_engines
    p = ZParams(0.3 + 0.7j, 0.5, 0.6)
    first = lattice_correlation([_H * 3], p, 16)
    engine = weakref.ref(measures._engine(p.z, Fraction(1, 2)))
    assert len(engine().stratum_sums) == 16
    for z in (1.5, 0.7 - 0.2j):
        lattice_correlation([_H * 3], ZParams(z, 0.5, 0.6), 16)
    gc.collect()
    assert engine() is None
    before = walks()
    again = lattice_correlation([_H * 3], p, 16)
    assert walks() == before + 16
    assert _report_hex(again) == _report_hex(first)


def test_lattice_correlation_against_direct_enumeration():
    from zmeasures.partitions import frobenius_coordinates

    p = ZParams(0.7 + 0.2j, 0.5, 0.55)
    X = {Fraction(5, 2)}
    n_max = 14
    direct = 0.0
    for n in range(1, n_max + 1):
        for parts in iter_partition_tuples(n):
            lam = YoungDiagram(parts)
            cfg = frobenius_coordinates(lam, Fraction(1, 2))
            if X <= set(cfg.positives):
                direct += mixed_z_measure(lam, p)
    rep = lattice_correlation(sorted(X), p, n_max)
    assert rep.value == pytest.approx(direct, rel=1e-12)


def _reference_measure(parts, z, theta):
    """The z-measure as a plain row-by-row loop: the float operations, in
    their order, that every evaluation of the measure must reproduce."""
    n = sum(parts)
    num = 0.0
    for i, p in enumerate(parts, start=1):
        base = z - (i - 1) * theta
        acc = 0.0
        for j in range(p):
            af = abs(base + j)
            if af < 1e-300:
                return 0.0
            acc += 2.0 * math.log(af)
        num += acc
    conj = conjugate_parts(parts)
    h = 1.0
    hp = 1.0
    hexp = 0.0
    for i, p in enumerate(parts, start=1):
        for j in range(1, p + 1):
            arm = p - j
            leg = conj[j - 1] - i
            h *= arm + leg * theta + 1.0
            hp *= arm + leg * theta + theta
        if h > 1e250 or hp > 1e250 or hp < 1e-250:
            hexp += math.log(h) + math.log(hp)
            h = 1.0
            hp = 1.0
    a = abs(z) ** 2 / theta
    logden = hexp + math.log(h) + math.log(hp)
    logden += math.lgamma(a + n) - math.lgamma(a)
    return math.exp(math.lgamma(n + 1) + num - logden)


@pytest.mark.parametrize(
    "z, theta",
    [(0.3 + 0.7j, 0.5), (1 + 1j, 1.0), (-2.0, 2.0), (1.5, 0.5), (0.7 - 0.2j, 2.0)],
)
def test_enumerator_measures_bit_identical(z, theta):
    p = ZParams(z, theta)
    for n in range(1, 13):
        shifts = column_shifts(Fraction(theta), n)
        terms = _stratum_terms(n, _engine(p.z, theta), shifts, ())
        # every diagram of nonzero measure, in the order iter_partition_tuples
        # yields, each with the measure z_measure and the reference loop give
        expected = [
            parts
            for parts in iter_partition_tuples(n)
            if z_measure(YoungDiagram(parts), p) != 0.0
        ]
        assert [parts for parts, _ in terms] == expected
        for parts, m in terms:
            assert m == z_measure(YoungDiagram(parts), p)
            assert m == _reference_measure(parts, complex(z), theta)


@pytest.mark.parametrize(
    "z, theta",
    [(0.3 + 0.7j, Fraction(1, 3)), (0.3 + 0.7j, Fraction(1, 2)), (1.0, Fraction(1, 2)),
     (1.5, Fraction(1, 2)), (-2.0, Fraction(1)), (1 + 1j, Fraction(1)), (1 + 1j, Fraction(2)),
     (0.7 - 0.2j, Fraction(2))],
)
def test_z_measure_table_matches_the_loop(z, theta):
    # 1 and 1.5 cut rows at theta = 1/2 and -2 cuts columns: the table
    # still lists every partition, the cut ones with measure 0
    p = ZParams(z, theta)
    for n in range(1, 21):
        parts, m = measures.z_measure_table(n, p)
        assert [tuple(v for v in row if v) for row in parts.tolist()] == list(iter_partition_tuples(n))
        assert [v.hex() for v in m.tolist()] == [
            z_measure(YoungDiagram(lam), p).hex() for lam in iter_partition_tuples(n)
        ]


@pytest.mark.parametrize("n, error", [(0, DomainError), (-1, DomainError), (101, ResourceCapError)])
def test_z_measure_table_refuses_sizes_before_walking(n, error, monkeypatch):
    monkeypatch.setattr(measures, "_walk_stratum", None)
    with pytest.raises(error):
        measures.z_measure_table(n, ZParams(0.3 + 0.7j))


THETAS = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2))


@st.composite
def _lattice_cases(draw):
    kind = draw(st.sampled_from(("generic", "row cut", "column cut")))
    if kind == "generic":
        theta = draw(st.sampled_from(THETAS))
        im = draw(st.floats(0.05, 1.5)) * draw(st.sampled_from((1, -1)))
        z = complex(draw(st.floats(-1.5, 1.5)), im)
    elif kind == "row cut":
        # z - (i-1) theta = 0 at i = 4 or 6: at most 3 or 5 rows
        theta = Fraction(1, 2)
        z = complex(draw(st.sampled_from((1.5, 2.5))))
    else:
        # z + (j-1) = 0 at j = 3: at most 2 columns
        theta = draw(st.sampled_from(THETAS))
        z = complex(-2.0)
    xi = draw(st.floats(0.1, 0.9))
    bs = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True))
    n_max = draw(st.integers(1, 12))
    return ZParams(z, theta, xi), [Fraction(2 * b + 1, 2) for b in bs], n_max


@settings(max_examples=60, deadline=None)
@given(_lattice_cases())
def test_lattice_correlation_matches_brute_force(case):
    p, X, n_max = case
    value = 0.0
    terms = 0
    for n in range(1, n_max + 1):
        s = 0.0
        for parts in iter_partition_tuples(n):
            lam = YoungDiagram(parts)
            if set(X) <= set(frobenius_coordinates(lam, p.theta).positives):
                m = z_measure(lam, p)
                if m != 0.0:
                    s += m
                    terms += 1
        value += negative_binomial_weight(n, p) * s
    rep = lattice_correlation(X, p, n_max)
    assert rep.terms_summed == terms
    assert math.isclose(rep.value, value, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("n", [171, 185, 200])
def test_long_row_hook_products_do_not_overflow(n):
    # one row of n >= 171 cells: n! leaves the float range inside the row
    assert z_measure(YoungDiagram((n,)), ZParams(0.5, 0.5)) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize(
    "parts, z, theta, expected",
    [
        ((300,), 0.3 + 0.7j, Fraction(1, 2), "0x1.335de10c5b2f4p-8"),
        ((256, 255, 1), 0.3 + 0.7j, Fraction(1, 2), "0x1.67bd3f188dc1dp-29"),
        ((1,) * 300, 0.3 + 0.7j, Fraction(1, 2), "0x1.0109d2873f47ap-31"),
        # z + 2 = 0 is the third factor of row 1
        ((300,), -2.0, 1, "0x0.0p+0"),
    ],
)
def test_z_measure_rows_beyond_uint8_golden(parts, z, theta, expected):
    # rows and row counts past 255, which a stored stratum's uint8 parts
    # cannot hold; the values of the scalar loop that weighed one diagram
    assert z_measure(YoungDiagram(parts), ZParams(z, theta)).hex() == expected


def test_lattice_correlation_counts_sizes_above_170():
    p = ZParams(0.5, 0.5, 0.97)
    r170 = lattice_correlation([Fraction(3, 2)], p, 170)
    r200 = lattice_correlation([Fraction(3, 2)], p, 200)
    assert r200.terms_summed == 200
    assert r200.value > r170.value
    assert r200.value <= r170.value + r170.truncation_bound


def test_row_end_renormalisation_golden():
    # one-row diagrams with 145 <= n <= 170 renormalise their hook products
    # at the row end; the values are those of the scalar loop
    rep = lattice_correlation([Fraction(3, 2)], ZParams(0.5, 0.5, 0.97), 170)
    assert rep.value.hex() == (0.8255360410357081).hex()
    assert rep.truncation_bound.hex() == (0.0012588782074087958).hex()
    assert rep.terms_summed == 170


def _reference_stratum_sum(n, p, bs, max_rows, max_cols):
    """Sequential sum of _reference_measure over the partitions of n that
    contain the targets, in iter_partition_tuples order, and their count."""
    X = {Fraction(2 * b + 1, 2) for b in bs}
    total = 0.0
    count = 0
    for parts in iter_partition_tuples(n, max_rows=max_rows):
        if max_cols is not None and parts[0] > max_cols:
            continue
        if X <= set(frobenius_coordinates(YoungDiagram(parts), p.theta).positives):
            m = _reference_measure(parts, complex(p.z), float(p.theta))
            total += m
            count += m != 0.0
    return total, count


def _zero_cuts(p, scan=40):
    """(max_rows, max_cols) from the definition: a zero factor
    z - (i-1) theta caps the rows at i - 1, a zero factor z + (j-1) the
    columns at j - 1; None where no factor up to ``scan`` vanishes."""
    z, th = complex(p.z), float(p.theta)
    zero_row = next((i for i in range(1, scan + 1) if abs(z - (i - 1) * th) < 1e-300), None)
    zero_col = next((j for j in range(1, scan + 1) if abs(z + (j - 1)) < 1e-300), None)
    return (None if zero_row is None else zero_row - 1), (None if zero_col is None else zero_col - 1)


@pytest.mark.parametrize(
    "z, theta",
    [(1.5, 0.5), (2.5, 0.5), (0.5, 0.5), (-2.0, 0.5), (-2.0, Fraction(1, 3)), (4.0, 2.0),
     (-3.0, 1.0), (0.3 + 0.7j, 0.5), (1 + 1j, 2.0)],
)
def test_zero_cut_matches_direct_scan(z, theta):
    # a fresh engine, asked in both directions, so no size relies on another
    eng = measures._MeasureEngine(z, float(theta))
    for n in list(range(30, 0, -1)) + list(range(1, 31)):
        max_rows, max_cols = _zero_cuts(ZParams(z, theta), scan=n)
        assert eng.zero_cut(n) == (
            n if max_rows is None else max_rows,
            n if max_cols is None else max_cols,
        ), n


@settings(max_examples=60, deadline=None)
@given(_lattice_cases(), st.integers(1, 14), st.integers(1, 8))
def test_stratum_sum_bit_identical(case, n, per_chunk):
    # chunks of per_chunk diagrams, so that most strata span several chunks
    p, X, _ = case
    bs = tuple(int(x - Fraction(1, 2)) for x in X)
    assume(0 not in bs)
    eng = _engine(p.z, float(p.theta))
    max_rows, max_cols = _zero_cuts(p)
    shifts = column_shifts(Fraction(p.theta), n)
    saved = measures._CHUNK_CELLS
    measures._CHUNK_CELLS = per_chunk * n
    try:
        got = measures._stratum_sum(n, eng, shifts, bs)
    finally:
        measures._CHUNK_CELLS = saved
    total, count = _reference_stratum_sum(n, p, bs, max_rows, max_cols)
    assert got[0].hex() == total.hex()
    assert got[1] == count


# z whose zero cuts are below n: -2 cuts columns; 1.5 and 4 cut rows at
# theta = 1/2 and 2 (and 4 at every theta here); None draws a cut directly
_WALK_Z = (None, None, -2.0, 1.5, 4.0, 0.3 + 0.7j)


@st.composite
def _walk_cases(draw):
    n = draw(st.integers(1, 14))
    theta = draw(st.sampled_from(THETAS))
    bs = tuple(draw(st.lists(st.integers(1, 6), max_size=3, unique=True)))
    z = draw(st.sampled_from(_WALK_Z))
    if z is None:
        cut = (draw(st.integers(0, n)), draw(st.integers(0, n)))
    else:
        cut = measures._MeasureEngine(z, theta).zero_cut(n)
    return n, theta, bs, cut


@settings(max_examples=150, deadline=None)
@given(_walk_cases())
# no targets: the run of single cells (14 = 1 + 13 one-cell columns), a
# run too long for the columns (one row, 13 columns), the tail filter (3
# columns), and no columns at all
@example((14, Fraction(1, 2), (), (14, 14)))
@example((14, Fraction(1, 2), (), (1, 13)))
@example((10, Fraction(1, 3), (), (10, 3)))
@example((14, Fraction(1, 2), (), (14, 0)))
@example((13, Fraction(2), (2,), (13, 13)))
def test_walk_stratum_yields_the_enumerated_diagrams(case):
    # the diagrams themselves, in enumeration order, and their hook logs as
    # _hook_log gives them, bit for bit
    n, theta, bs, cut = case
    th = float(theta)
    parts, hooks = measures._walk_stratum(n, th, column_shifts(theta, n), bs, cut)
    X = {Fraction(2 * b + 1, 2) for b in bs}
    expected = [
        lam for lam in iter_partition_tuples(n, max_rows=cut[0])
        if lam[0] <= cut[1] and X <= set(frobenius_coordinates(YoungDiagram(lam), theta).positives)
    ]
    assert parts.dtype == np.uint8
    assert [tuple(int(v) for v in row if v) for row in parts] == expected
    assert [h.hex() for h in hooks.tolist()] == [measures._hook_log(lam, th).hex() for lam in expected]


def test_stratum_sum_bit_identical_across_default_chunks():
    p = ZParams(0.3 + 0.7j, 0.5, 0.6)
    n = 24
    bs = (1,)
    eng = _engine(p.z, 0.5)
    got = measures._stratum_sum(n, eng, column_shifts(Fraction(1, 2), n), bs)
    total, count = _reference_stratum_sum(n, p, bs, None, None)
    assert count > measures._CHUNK_CELLS // n
    assert got[0].hex() == total.hex()
    assert got[1] == count


def test_schur_correlation_refuses_theta_other_than_one():
    with pytest.raises(ParameterError):
        schur_correlation([Fraction(3, 2)], ZParams(0.6 + 0.8j, 0.5, 0.3))
    assert schur_correlation([Fraction(1, 2), Fraction(3, 2)], ZParams(0.6 + 0.8j, 1.0, 0.3)) == 0.0


def test_schur_correlation_one_point_value():
    p = ZParams(0.6 + 0.8j, 1.0, 0.3)
    assert schur_correlation([Fraction(3, 2)], p) == pytest.approx(0.27737470009654014, rel=1e-14)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from((0.6 + 0.8j, -0.6 - 0.8j, 0.3 - 1.4j, 1.3, -0.7 + 0.2j)),
    st.floats(0.05, 0.5),
    st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True),
)
def test_schur_correlation_matches_lattice_correlation(zeta, xi, bs):
    p = ZParams(zeta, 1.0, xi)
    X = [Fraction(2 * b + 1, 2) for b in bs]
    exact = schur_correlation(X, p)
    rep = lattice_correlation(X, p, 24)
    # the enumeration's value lies in [exact - bound, exact]
    assert rep.value <= exact * (1 + 1e-12) + 1e-300
    assert exact <= (rep.value + rep.truncation_bound) * (1 + 1e-12)


@pytest.mark.parametrize("z, theta", [(1.0, 0.5), (4.0, 2.0), (6.0, 3.0)])
@pytest.mark.parametrize("n", [145, 160])
def test_batch_renormalises_like_the_scalar_loop(z, theta, n):
    # z = 2 theta: at most two rows; a long first row renormalises the hook
    # products (H at theta = 1/2, H' at theta = 2 and 3) before the second starts
    p = ZParams(z, theta)
    shifts = column_shifts(Fraction(theta), n)
    terms = _stratum_terms(n, _engine(p.z, theta), shifts, ())
    assert [parts for parts, _ in terms] == [(n,)] + [(n - k, k) for k in range(1, n // 2 + 1)]
    for parts, m in terms:
        assert m == _reference_measure(parts, complex(z), theta)


@contextlib.contextmanager
def _cold_store():
    """An empty store of walked strata for the block."""
    saved = measures._strata
    measures._strata = measures._StratumStore()
    try:
        yield measures._strata
    finally:
        measures._strata = saved


@pytest.fixture
def cold_store():
    with _cold_store() as store:
        yield store


# generic z, and z on the theta lattice, whose zero cuts differ by theta
_STORE_Z = st.one_of(
    st.sampled_from((1.0, 1.5, 2.5)),
    st.builds(complex, st.floats(-1.5, 1.5), st.floats(0.05, 1.5) | st.floats(-1.5, -0.05)),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(THETAS),
    _STORE_Z,
    _STORE_Z,
    st.lists(st.integers(1, 5), min_size=1, max_size=2, unique=True),
    st.integers(1, 14),
)
def test_stratum_from_store_warmed_at_another_z_bit_identical(theta, z_warm, z, bs, n):
    bs = tuple(sorted(bs))
    shifts = column_shifts(theta, n)
    with _cold_store():
        cold = measures._stratum_sum(n, measures._MeasureEngine(z, theta), shifts, bs)
    with _cold_store() as store:
        warm_eng = measures._MeasureEngine(z_warm, theta)
        measures._stratum_sum(n, warm_eng, shifts, bs)
        eng = measures._MeasureEngine(z, theta)
        warm = measures._stratum_sum(n, eng, shifts, bs)
        # one walk when the two z cut the stratum alike
        assert len(store._entries) == (1 if warm_eng.zero_cut(n) == eng.zero_cut(n) else 2)
    p = ZParams(z, theta)
    total, count = _reference_stratum_sum(n, p, bs, *_zero_cuts(p))
    assert warm[0].hex() == cold[0].hex() == total.hex()
    assert warm[1] == cold[1] == count


def test_new_z_walks_only_strata_it_cuts_otherwise(cold_store, monkeypatch):
    walked = []
    real = measures._walk_stratum

    def counting(n, *args):
        walked.append(n)
        return real(n, *args)

    monkeypatch.setattr(measures, "_walk_stratum", counting)
    X = [_H * 3, _H * 5]
    lattice_correlation(X, ZParams(0.3 + 0.7j, 0.5, 0.6), 20)
    assert len(walked) == 20
    lattice_correlation(X[::-1], ZParams(-0.4 + 0.2j, 0.5, 0.8), 20)
    assert len(walked) == 20
    # z = 1.5 at theta = 1/2 keeps at most 3 rows: sizes 4..20 are cut anew
    lattice_correlation(X, ZParams(1.5, 0.5, 0.6), 20)
    assert walked[20:] == list(range(4, 21))


def test_store_keeps_exact_theta_apart(cold_store):
    # one float, two thetas: 1/3 shifts column j >= 2 by 3(j-1), its float by
    # one more, so only the one-cell stratum, with its one column, is shared
    X = [_H * 3]
    exact = lattice_correlation(X, ZParams(0.3 + 0.7j, Fraction(1, 3), 0.5), 12)
    rounded = lattice_correlation(X, ZParams(0.3 + 0.7j, 1 / 3, 0.5), 12)
    assert len(cold_store._entries) == 1 + 2 * 11
    assert exact.value != rounded.value
    with _cold_store():
        alone = _fresh_report(X, ZParams(0.3 + 0.7j, 1 / 3, 0.5), 12)
    assert _report_hex(rounded) == _report_hex(alone)


def test_store_stays_within_its_budget(cold_store, monkeypatch):
    monkeypatch.setattr(measures, "_STORE_BYTES", 48 << 10)
    first = _fresh_report([_H * 3], ZParams(0.3 + 0.7j, 0.5, 0.6), 22)
    for z in (0.7 - 0.2j, 1.5, 2.5, -1.2 + 0.4j):
        for X in ([_H * 3], [_H * 5], [_H * 3, _H * 7], [_H * 9]):
            for theta in (Fraction(1, 2), Fraction(1, 3)):
                lattice_correlation(X, ZParams(z, theta, 0.6), 22)
                assert cold_store.used <= measures._STORE_BYTES
                assert cold_store.used == sum(map(measures._entry_bytes, cold_store._entries.values()))
    # the strata of the first call left the store long ago, and a stratum
    # larger than the whole budget was never kept
    assert len(cold_store._entries) < 4 * 4 * 2 * 22
    assert _report_hex(_fresh_report([_H * 3], ZParams(0.3 + 0.7j, 0.5, 0.6), 22)) == _report_hex(first)


@settings(max_examples=150, deadline=None)
@given(_walk_cases())
@example((14, Fraction(1, 2), (), (14, 14)))
@example((14, Fraction(1, 2), (), (14, 0)))
@example((12, Fraction(2), (), (3, 5)))
def test_box_count_is_the_size_of_the_whole_walk(case):
    # the count that decides admission before the walk, and the bytes the
    # store then counts for the walked entry
    n, theta, _, cut = case
    entry = measures._walk_stratum(n, float(theta), column_shifts(theta, n), (), cut, True)
    assert measures._box_count(n, *cut) == len(entry[0])
    assert measures._whole_bytes(n, cut) == measures._entry_bytes(entry)


@settings(max_examples=60, deadline=None)
@given(_lattice_cases(), st.integers(1, 14))
def test_stratum_read_from_its_whole_size_matches_the_targeted_walk(case, n):
    p, X, _ = case
    bs = tuple(int(x - _H) for x in X)
    eng = measures._MeasureEngine(p.z, p.theta)
    shifts = column_shifts(p.theta, n)
    walked = []
    real = measures._walk_stratum

    def recording(n, th, shifts, target_bs, *rest):
        walked.append(tuple(target_bs))
        return real(n, th, shifts, target_bs, *rest)

    with mock.patch.object(measures, "_walk_stratum", recording):
        with _cold_store():
            masked = measures._stratum_sum(n, eng, shifts, bs)
            masked_parts = measures._weigh_stratum(n, eng, shifts, bs, eng.zero_cut(n))[0]
        with _cold_store(), mock.patch.object(measures, "_STORE_BYTES", 0):
            targeted = measures._stratum_sum(n, eng, shifts, bs)
    assert walked == [(), tuple(sorted(bs))]
    assert masked[0].hex() == targeted[0].hex()
    assert masked[1] == targeted[1]
    # the masked rows are trimmed to the width the targeted walk pads to
    walked_parts = measures._walk_stratum(n, float(p.theta), shifts, bs, eng.zero_cut(n))[0]
    assert masked_parts.shape == walked_parts.shape
    assert (masked_parts == walked_parts).all()


def test_each_size_is_walked_once_for_every_target_set(cold_store, monkeypatch):
    walked = []
    real = measures._walk_stratum

    def counting(n, *args):
        walked.append(n)
        return real(n, *args)

    monkeypatch.setattr(measures, "_walk_stratum", counting)
    p = ZParams(0.3 + 0.7j, 0.5, 0.6)
    lattice_correlation([_H * 3], p, 20)
    lattice_correlation([_H * 7, _H * 11], p, 20)
    assert walked == list(range(1, 21))


@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(1, 3)])
def test_entry_bytes_cover_an_entry_up_to_size_30(cold_store, theta):
    # the key with its theta, shifts and cut, the entry tuple and the
    # array headers, as sys.getsizeof counts them, at every n <= 30
    lattice_correlation([_H * 3], ZParams(0.3 + 0.7j, theta, 0.5), 30)
    for key, entry in cold_store._entries.items():
        size = sys.getsizeof(key) + sum(map(sys.getsizeof, key)) + sys.getsizeof(entry)
        size += sum(sys.getsizeof(v) for v in key[1] if v > 256)
        size += sum(sys.getsizeof(a) - a.nbytes for a in entry)
        assert size <= measures._ENTRY_BYTES
