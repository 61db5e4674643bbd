import itertools
import math
from fractions import Fraction

import pytest

from zmeasures.errors import DomainError, ResourceCapError
from zmeasures.gelfand import (
    CosetType,
    ThomaPoint,
    character_S2n,
    compose,
    coset_type,
    cycle_type,
    extreme_character,
    from_cycles,
    hyperoctahedral_group,
    ptilde,
    spherical_restriction,
    zonal_spherical,
)
from zmeasures.measures import ZParams
from zmeasures.partitions import iter_partition_tuples

from oracles import all_permutations, class_size, coset_type_union_find, identity_perm


def test_coset_type_identity():
    for n in (1, 2, 3):
        assert coset_type(identity_perm(2 * n)).parts == (1,) * n


def test_coset_type_worked_example():
    g = from_cycles(8, [(1, 3, 5), (6, 7), (2, 4, 8)])
    assert coset_type(g).parts == (3, 1)


def test_coset_type_hyperoctahedral_trivial():
    for n in (1, 2, 3):
        for h in hyperoctahedral_group(n):
            assert coset_type(h).parts == (1,) * n


def test_coset_type_matches_union_find_on_all_permutations():
    # every g in S(2n) for n <= 4: 2 + 24 + 720 + 40320 = 41,066 permutations
    count = 0
    for n in (1, 2, 3, 4):
        for g in all_permutations(2 * n):
            assert coset_type(g).parts == coset_type_union_find(g), g
            count += 1
    assert count == 41066


@pytest.mark.parametrize("g", [(0, 0, 1, 1), (0, 1, 2, 2), (0, 1, 2, 4), (1, 2, 3)])
def test_coset_type_refuses_non_permutations(g):
    with pytest.raises(DomainError):
        coset_type(g)


def test_coset_type_conjugation_invariance_under_H():
    # coset type is an H(n)-double-coset invariant
    n = 2
    H = hyperoctahedral_group(n)
    for g in itertools.islice(all_permutations(2 * n), 0, None, 3):
        ct = coset_type(g).parts
        for h1 in H[:4]:
            for h2 in H[:4]:
                assert coset_type(compose(h1, compose(g, h2))).parts == ct


def test_characters_trivial_and_sign():
    for parts in iter_partition_tuples(6):
        assert character_S2n((6,), parts) == 1
        parity = (-1) ** (6 - len(parts))
        assert character_S2n((1,) * 6, parts) == parity


def test_character_dimension():
    # chi^mu(e) = dimension: hook length formula oracle for S(6)
    def dim(mu):
        n = sum(mu)
        conj = [sum(1 for p in mu if p > j) for j in range(mu[0])]
        prod = 1
        for i, p in enumerate(mu, start=1):
            for j in range(1, p + 1):
                prod *= (p - j) + (conj[j - 1] - i) + 1
        return math.factorial(n) // prod

    for mu in iter_partition_tuples(6):
        assert character_S2n(mu, (1,) * 6) == dim(mu)


def test_character_orthogonality_S6():
    mus = list(iter_partition_tuples(6))
    classes = list(iter_partition_tuples(6))
    sizes = {c: class_size(c) for c in classes}
    order = math.factorial(6)
    for m1 in mus:
        for m2 in mus:
            inner = sum(
                sizes[c] * character_S2n(m1, c) * character_S2n(m2, c)
                for c in classes
            )
            assert inner == (order if m1 == m2 else 0)


def test_character_cap():
    with pytest.raises(ResourceCapError):
        character_S2n((10,), (10,))


@pytest.mark.parametrize(
    "mu, cls",
    [((2, 4), (1,) * 6), ((3, 0), (1, 1, 1)), ((4, -1), (1, 1, 1)), ((1.0,), (1,)),
     ((2,), (2, 0)), ((3,), (4, -1)), ((2,), (1.0, 1))],
)
def test_character_refuses_non_partitions(mu, cls):
    # (2, 4) read 5 at the identity, where (4, 2) gives the dimension 9
    with pytest.raises(DomainError):
        character_S2n(mu, cls)


def test_character_takes_cycle_type_in_any_order():
    assert character_S2n((4, 2), (1, 5)) == character_S2n((4, 2), (5, 1)) == -1


@pytest.mark.parametrize("lam", [(1, 2), (2, 0, 1), (4, -1), (2.0, 1)])
def test_zonal_refuses_non_partitions(lam):
    # zonal_spherical((1, 2), e) read 0, but every zonal function is 1 at e
    with pytest.raises(DomainError):
        zonal_spherical(lam, identity_perm(2 * 3))


@pytest.mark.parametrize("g", [(0, 0), (1, 1, 2, 3), (0, 1, 2, 4)])
def test_zonal_refuses_non_permutations(g):
    with pytest.raises(DomainError):
        zonal_spherical((len(g) // 2,), g)


def test_zonal_normalization_and_bounds():
    for n in (1, 2, 3):
        for parts in iter_partition_tuples(n):
            w = zonal_spherical(parts, identity_perm(2 * n))
            assert w == 1
    n = 2
    for g in all_permutations(2 * n):
        for parts in iter_partition_tuples(n):
            assert abs(zonal_spherical(parts, g)) <= 1


def test_zonal_trivial_partition_is_one():
    n = 3
    for g in itertools.islice(all_permutations(2 * n), 0, None, 37):
        assert zonal_spherical((n,), g) == 1


def test_zonal_double_coset_constancy():
    n = 2
    H = hyperoctahedral_group(n)
    gs = list(itertools.islice(all_permutations(2 * n), 0, None, 5))
    for parts in iter_partition_tuples(n):
        for g in gs:
            base = zonal_spherical(parts, g)
            for h1 in H[:3]:
                for h2 in H[:3]:
                    assert zonal_spherical(parts, compose(h1, compose(g, h2))) == base


def test_spherical_restriction_identity():
    for z in (0.5, 1 + 1j):
        for n in (1, 2, 3):
            val = spherical_restriction(ZParams(z, 0.5), n, identity_perm(2 * n))
            assert val == pytest.approx(1.0, abs=1e-12)


def test_spherical_restriction_coherence():
    # the same group element evaluated at level n and n+1
    for z in (0.5, 1 + 1j):
        for n in (1, 2, 3):
            for g_small in itertools.islice(all_permutations(2 * n), 0, None, 113):
                g_big = tuple(g_small) + (2 * n, 2 * n + 1)
                a = spherical_restriction(ZParams(z, 0.5), n, g_small)
                b = spherical_restriction(ZParams(z, 0.5), n + 1, g_big)
                assert a == pytest.approx(b, abs=1e-10), (z, n, g_small)


def test_spherical_restriction_depends_on_coset_type_only():
    n = 2
    z = ZParams(0.7 + 0.1j, 0.5)
    by_type = {}
    for g in all_permutations(2 * n):
        ct = coset_type(g).parts
        v = spherical_restriction(z, n, g)
        if ct in by_type:
            assert v == pytest.approx(by_type[ct], abs=1e-12)
        else:
            by_type[ct] = v
    assert len(by_type) == 2  # (1,1) and (2)


def test_thoma_point_validation():
    with pytest.raises(DomainError):
        ThomaPoint(alpha=(0.2, 0.5))
    with pytest.raises(DomainError):
        ThomaPoint(alpha=(0.8,), beta=(0.5,))
    ThomaPoint(alpha=(0.5,), beta=(0.25, 0.25))


def test_ptilde():
    w = ThomaPoint(alpha=(1.0,))
    assert ptilde(1, w, 0.5) == 1.0
    assert ptilde(5, w, 0.5) == 1.0
    wb = ThomaPoint(beta=(1.0,))
    assert ptilde(2, wb, 0.5) == pytest.approx(-0.5)


def test_extreme_character():
    w = ThomaPoint(alpha=(0.5,))
    assert extreme_character(w, CosetType((1, 1, 1))) == 1.0
    assert extreme_character(w, CosetType((2,))) == pytest.approx(0.25)
    assert extreme_character(w, CosetType((2, 2))) == pytest.approx(1 / 16)
    # multiplicativity over disjoint union of coset types
    a = extreme_character(w, (3, 2))
    b = extreme_character(w, (2, 1))
    assert extreme_character(w, (3, 2, 2, 1)) == pytest.approx(a * b)
