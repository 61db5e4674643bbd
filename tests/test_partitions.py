import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zmeasures.errors import DomainError, ParameterError, ResourceCapError
from zmeasures.kernels import KernelParams, w_a
from zmeasures.measures import (
    ZParams,
    _hook_log_sum,
    _MeasureEngine,
    lattice_correlation,
    schur_correlation,
    z_measure_table,
)
from zmeasures.pairings import _matchings, enumerate_matchings
from zmeasures.partitions import (
    HALF,
    LatticeConfig,
    YoungDiagram,
    conjugate_parts,
    frobenius_coordinates,
    half_integer,
    iter_partition_tuples,
)

from oracles import enumerate_partitions, generalized_pochhammer, hook_products

PARTITION_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 10: 42, 20: 627}


def test_diagram_validation():
    with pytest.raises(DomainError):
        YoungDiagram((1, 2))
    with pytest.raises(DomainError):
        YoungDiagram((2, 0))
    assert YoungDiagram((3, 1)).size == 4
    assert YoungDiagram().size == 0


def test_transpose_involution():
    parts = [5, 3, 3, 1]
    assert conjugate_parts(parts) == [4, 3, 3, 1, 1]
    assert conjugate_parts(conjugate_parts(parts)) == parts


def test_enumeration_counts():
    for n, count in PARTITION_COUNTS.items():
        assert len(enumerate_partitions(n)) == count


def test_enumeration_order_reverse_lex():
    tuples = list(iter_partition_tuples(4))
    assert tuples == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumeration_cap():
    with pytest.raises(ResourceCapError):
        list(iter_partition_tuples(101))


def test_enumeration_row_column_constraints():
    rows2 = list(iter_partition_tuples(6, max_rows=2))
    assert all(len(p) <= 2 for p in rows2)
    assert (3, 3) in rows2 and (4, 2) in rows2


def test_hook_products_theta_one_is_hook_length_squared_shifted():
    # at theta = 1 both products equal the classical hook product
    lam = YoungDiagram((3, 1))
    h, hp = hook_products(lam, 1)
    assert h == pytest.approx(hp)
    assert h == pytest.approx(4 * 2 * 1 * 1)


def _engine_pochhammer(z, theta, parts):
    """2 log|(z)_{lam,theta}| summed from the measure engine's row table,
    and whether a row of lam reaches a zero factor there."""
    logs, zero = _MeasureEngine(z, theta).row_log_table(len(parts), max(parts))
    vanishes = any(p >= zero[i] for i, p in enumerate(parts))
    return sum(logs[i][p] for i, p in enumerate(parts)), vanishes


# generic z, and z with a zero factor: in the second row at its first
# column (0.5, 1/2), in the first row at its third (-2), and in the second
# row at its second column only (-2/3, 1/3)
_POCHHAMMER_CASES = [(1.3 + 0.4j, 0.5), (0.3 - 0.7j, 2.0), (-1.5 + 0.2j, 1 / 3), (0.5, 0.5), (-2.0, 1.0),
                     (-2 / 3, 1 / 3)]


def test_generalized_pochhammer_row_factorization():
    lam = YoungDiagram((2, 1))
    z = 1.3 + 0.4j
    th = 0.5
    expected = (z) * (z + 1) * (z - th)
    assert generalized_pochhammer(z, lam, th) == pytest.approx(expected)
    # the engine keeps the same product row by row, as cumulative logs
    for z, th in _POCHHAMMER_CASES:
        for n in range(1, 9):
            for parts in iter_partition_tuples(n):
                g = generalized_pochhammer(z, YoungDiagram(parts), th)
                logs, vanishes = _engine_pochhammer(z, th, parts)
                assert vanishes == (g == 0), (z, th, parts)
                if g:
                    assert math.isclose(logs, 2 * math.log(abs(g)), rel_tol=1e-12, abs_tol=1e-12), (z, th, parts)


def test_generalized_pochhammer_exact_zero():
    # z = theta kills the (2,1) box factor z - theta
    assert generalized_pochhammer(0.5, YoungDiagram((1, 1)), 0.5) == 0
    assert _engine_pochhammer(0.5, 0.5, (1, 1))[1]
    assert not _engine_pochhammer(0.5, 0.5, (2,))[1]
    # z = -2/3 at theta = 1/3 only kills the box (2, 2)
    assert generalized_pochhammer(-2 / 3, YoungDiagram((2, 2)), 1 / 3) == 0
    assert _engine_pochhammer(-2 / 3, 1 / 3, (2, 2))[1]
    assert not _engine_pochhammer(-2 / 3, 1 / 3, (5, 1, 1))[1]


def test_frobenius_coordinates_theta_one():
    # (4, 3, 1) at theta = 1: a_i = lam_i - i, and b_j = lam'_j - j + 1
    # because the zero-content diagonal belongs to the negative part
    cfg = frobenius_coordinates(YoungDiagram((4, 3, 1)), 1)
    assert cfg.negatives == (Fraction(-7, 2), Fraction(-3, 2))
    assert cfg.positives == (Fraction(7, 2), Fraction(3, 2))


def test_frobenius_coordinates_half_theta_repeats():
    # (3,3) at theta = 1/2: both rows cross the diagonal, a = (2, 2)
    cfg = frobenius_coordinates(YoungDiagram((3, 3)), HALF)
    assert cfg.negatives == (Fraction(-5, 2), Fraction(-5, 2))


def test_frobenius_single_box():
    # (1) has one box of content 0, which is negative by convention
    cfg = frobenius_coordinates(YoungDiagram((1,)), HALF)
    assert cfg.negatives == ()
    assert cfg.positives == (Fraction(3, 2),)


def test_frobenius_box_count_matches():
    for parts in iter_partition_tuples(8):
        lam = YoungDiagram(parts)
        for th in (HALF, Fraction(1), Fraction(2)):
            cfg = frobenius_coordinates(lam, th)
            a_sum = sum(-(v + HALF) for v in cfg.negatives)
            b_sum = sum(v - HALF for v in cfg.positives)
            assert a_sum + b_sum == lam.size


def test_lattice_config_validation():
    with pytest.raises(DomainError):
        LatticeConfig((Fraction(-1, 2),), (Fraction(1, 3),))
    with pytest.raises(DomainError):
        LatticeConfig((), (Fraction(1, 2), Fraction(3, 2)))  # must descend


@given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=6))
def test_transpose_preserves_size(parts):
    parts = sorted(parts, reverse=True)
    assert sum(conjugate_parts(parts)) == sum(parts)


@given(st.integers(min_value=1, max_value=12))
def test_enumeration_sizes_consistent(n):
    for parts in iter_partition_tuples(n):
        assert sum(parts) == n
        assert list(parts) == sorted(parts, reverse=True)


def test_enumeration_refuses_negative_row_and_column_caps():
    # a negative max_rows would otherwise recurse without end
    with pytest.raises(DomainError):
        list(iter_partition_tuples(3, max_rows=-1))
    assert list(iter_partition_tuples(3, max_rows=0)) == []


ORACLE_THETAS = (Fraction(1, 3), HALF, Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3))


def _content(i, j, theta):
    return (j - 1) - theta * (i - 1)


def _frobenius_oracle(parts, theta):
    """(A|B)_theta box by box: a_i counts the boxes of row i with positive
    content, b_j the boxes of column j with content <= 0."""
    width = parts[0] if parts else 0
    a = [sum(_content(i, j, theta) > 0 for j in range(1, p + 1)) for i, p in enumerate(parts, 1)]
    b = [
        sum(p >= j and _content(i, j, theta) <= 0 for i, p in enumerate(parts, 1))
        for j in range(1, width + 1)
    ]
    return tuple(-ai - HALF for ai in a if ai), tuple(bj + HALF for bj in b if bj)


def test_frobenius_coordinates_match_box_by_box_oracle():
    for n in range(15):
        for parts in iter_partition_tuples(n):
            for th in ORACLE_THETAS:
                cfg = frobenius_coordinates(YoungDiagram(parts), th)
                assert (cfg.negatives, cfg.positives) == _frobenius_oracle(parts, th), (parts, th)
                assert HALF not in cfg.positives


def _exact_hook_products(parts, theta):
    """H and H' as exact rationals, from arm and leg counted box by box."""
    h = hp = Fraction(1)
    for i, p in enumerate(parts, 1):
        for j in range(1, p + 1):
            arm = p - j
            leg = sum(q >= j for q in parts[i:])
            h *= arm + leg * theta + 1
            hp *= arm + leg * theta + theta
    return h, hp


def _log(f: Fraction) -> float:
    return math.log(f.numerator) - math.log(f.denominator)


@pytest.mark.parametrize("theta", ORACLE_THETAS)
def test_hook_products_match_exact_definition(theta):
    for n in range(11):
        for parts in iter_partition_tuples(n):
            h, hp = hook_products(YoungDiagram(parts), theta)
            eh, ehp = _exact_hook_products(parts, theta)
            assert math.isclose(h, eh, rel_tol=1e-13), (parts, theta)
            assert math.isclose(hp, ehp, rel_tol=1e-13), (parts, theta)
            assert math.isclose(
                _hook_log_sum(parts, float(theta)), _log(eh) + _log(ehp), rel_tol=1e-13, abs_tol=1e-13
            )


def test_half_integer():
    for x in (Fraction(3, 2), "3/2", "1.5", 1.5, -0.5, " 7/2"):
        assert half_integer(x) in (Fraction(3, 2), Fraction(-1, 2), Fraction(7, 2))
    for x in ("1/3", "1/0", "", "abc", "nan", "inf", None, 1, math.nan, math.inf, Fraction(1, 4)):
        with pytest.raises(DomainError):
            half_integer(x)


def test_lattice_config_stores_exact_half_integers():
    cfg = LatticeConfig((-1.5,), ("5/2",))
    assert cfg.negatives + cfg.positives == (Fraction(-3, 2), Fraction(5, 2))


_P = ZParams(0.5, 0.5, 0.5)
_MALFORMED = {
    "lattice nan": (lambda: lattice_correlation([math.nan], _P, 5), DomainError),
    "lattice abc": (lambda: lattice_correlation(["abc"], _P, 5), DomainError),
    "lattice inf": (lambda: lattice_correlation([math.inf], _P, 5), DomainError),
    "schur nan": (lambda: schur_correlation([math.nan], ZParams(0.5, 1.0, 0.3)), DomainError),
    "w_a nan": (lambda: w_a(math.nan, 1.0, KernelParams(0.3 + 0.4j)), DomainError),
    "frobenius inf": (lambda: frobenius_coordinates(YoungDiagram((2, 1)), math.inf), ParameterError),
    "hooks nan": (lambda: hook_products(YoungDiagram((2, 1)), math.nan), ParameterError),
    "config nan": (lambda: LatticeConfig((math.nan,), ()), DomainError),
    "config abc": (lambda: LatticeConfig((), ("abc",)), DomainError),
    "zparams theta abc": (lambda: ZParams(0.5, "abc"), ParameterError),
    "zparams theta nan": (lambda: ZParams(0.5, math.nan), ParameterError),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_points_and_theta_are_refused(name):
    call, error = _MALFORMED[name]
    with pytest.raises(error):
        call()


_SIZED = {
    "iter_partition_tuples": iter_partition_tuples,
    "z_measure_table": lambda n: z_measure_table(n, ZParams(0.5, 0.5)),
    "enumerate_matchings": enumerate_matchings,
    "_matchings": _matchings,
}


@pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
@pytest.mark.parametrize("name", sorted(_SIZED))
def test_sizes_must_be_integers(name, n):
    # refused by the call itself, before a generator yields anything
    with pytest.raises(ParameterError, match="n must be an integer"):
        _SIZED[name](n)


@pytest.mark.parametrize(
    "max_rows, error, message",
    [(v, ParameterError, "max_rows must be an integer") for v in (2.5, 2.0, "2")]
    + [(-1, DomainError, "max_rows must be nonnegative, got -1")],
)
def test_row_counts_must_be_integers(max_rows, error, message):
    # refused by the call itself, like the sizes above
    with pytest.raises(error, match=message):
        iter_partition_tuples(5, max_rows)
