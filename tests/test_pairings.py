import itertools
import math

import pytest

from zmeasures.errors import DomainError, ParameterError, ResourceCapError
from zmeasures.pairings import (
    Matching,
    _matchings,
    act,
    cocycle,
    cycle_count,
    enumerate_matchings,
    extend_permutation,
    project,
    symbols,
    t_measure,
)

from oracles import SignedPermutationDomainMap, preimages

FIG1 = Matching.from_pairs(
    [(1, 3), (-2, 5), (2, -1), (-3, -5), (4, -6), (-4, 6)]
)


def double_factorial(n):
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def all_signed_permutations(n):
    """All bijections of {-n..-1,1..n} as dicts."""
    syms = symbols(n)
    for img in itertools.permutations(syms):
        yield dict(zip(syms, img))


def test_enumeration_counts():
    assert len(enumerate_matchings(1)) == 1
    assert len(enumerate_matchings(2)) == 3
    assert len(enumerate_matchings(5)) == 945
    for n in (3, 4):
        assert len(enumerate_matchings(n)) == double_factorial(n)
    with pytest.raises(ResourceCapError):
        enumerate_matchings(9)


def test_walk_yields_each_matching_once_in_increasing_order():
    for n in range(1, 8):
        count, prev = 0, ()
        for x in _matchings(n):
            assert prev < x.pairs
            count, prev = count + 1, x.pairs
        assert count == double_factorial(n)


def test_matching_validation():
    with pytest.raises(DomainError):
        Matching.from_pairs([(1, 2)])  # misses -1, -2
    with pytest.raises(DomainError):
        Matching.from_pairs([(1, 1), (-1, -1)])


def test_cycle_counts():
    assert cycle_count(Matching.from_pairs([(-1, 1)])) == 1
    assert cycle_count(Matching.from_pairs([(-1, 1), (-2, 2)])) == 2
    assert cycle_count(FIG1) == 2
    for n in range(1, 6):
        for x in enumerate_matchings(n):
            assert 1 <= cycle_count(x) <= n


def test_t_measure_probability():
    for n in range(1, 8):
        for t in (0.3, 1.0, 2.0, 5.0):
            total = math.fsum(t_measure(x, t) for x in enumerate_matchings(n))
            assert total == pytest.approx(1.0, abs=1e-12), (n, t)
    with pytest.raises(ParameterError):
        t_measure(FIG1, 0.0)


def test_t_measure_n2_values():
    vals = sorted(t_measure(x, 1.0) for x in enumerate_matchings(2))
    assert vals == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_t_measure_tiny_t_does_not_underflow():
    # t/(t+2) for the two-circle matching of n = 2, where t (t+2) underflowed to 0
    two = Matching.from_pairs([(-1, 1), (-2, 2)])
    assert t_measure(two, 1e-320) == pytest.approx(5e-321, rel=1e-3, abs=0)


def test_t_measure_huge_t_does_not_overflow_the_denominator():
    # 1/((t+2)(t+4)(t+6)) for a one-circle matching of n = 4, where
    # t (t+2)(t+4)(t+6) overflowed to inf
    one = Matching.from_pairs([(1, 2), (-2, 3), (-3, 4), (-4, -1)])
    assert cycle_count(one) == 1
    assert t_measure(one, 1e100) == pytest.approx(1e-300, rel=1e-14, abs=0)


def test_t_measure_refuses_an_overflowing_product():
    one = Matching.from_pairs([(1, 2), (-2, 3), (-3, 4), (-4, -1)])
    with pytest.raises(ParameterError):
        t_measure(one, 1e200)  # (t+2)(t+4)(t+6) overflows
    with pytest.raises(ParameterError):
        t_measure(Matching.from_pairs([(-i, i) for i in range(1, 5)]), 1e200)  # t^3 overflows
    with pytest.raises(ParameterError):
        t_measure(one, math.inf)


def test_project_rules():
    assert project(Matching.from_pairs([(-2, 2), (-1, 1)])) == Matching.from_pairs(
        [(-1, 1)]
    )
    assert project(Matching.from_pairs([(-2, 1), (2, -1)])) == Matching.from_pairs(
        [(-1, 1)]
    )


def _project_by_from_pairs(xp):
    """The projection built through the validated ``Matching.from_pairs``."""
    n1 = xp.n
    partner = {}
    for a, b in xp.pairs:
        partner[a], partner[b] = b, a
    pairs = [p for p in xp.pairs if n1 not in p and -n1 not in p]
    if partner[n1] != -n1:
        pairs.append((partner[-n1], partner[n1]))
    return Matching.from_pairs(pairs)


def test_project_matches_validated_construction():
    for n1 in range(2, 7):
        for xp in enumerate_matchings(n1):
            got = project(xp)
            assert got.pairs == _project_by_from_pairs(xp).pairs
            assert Matching(got.pairs) == got


def test_projection_preserves_measure():
    for n in range(1, 5):
        level_up = enumerate_matchings(n + 1)
        for t in (0.5, 1.0, 3.0):
            for x in enumerate_matchings(n):
                pushed = sum(t_measure(xp, t) for xp in preimages(x, level_up))
                assert pushed == pytest.approx(t_measure(x, t), rel=1e-12)


def test_act_identity_and_composition():
    n = 3
    idg = {s: s for s in symbols(n)}
    for x in enumerate_matchings(n):
        assert act(x, idg) == x
    import random

    rng = random.Random(11)
    syms = symbols(3)
    for _ in range(25):
        img1 = rng.sample(syms, len(syms))
        img2 = rng.sample(syms, len(syms))
        g1 = dict(zip(syms, img1))
        g2 = dict(zip(syms, img2))
        g12 = {s: g2[g1[s]] for s in syms}
        x = rng.choice(enumerate_matchings(3))
        assert act(act(x, g1), g2) == act(x, g12)


def test_projection_equivariance():
    import random

    rng = random.Random(5)
    for n in (2, 3):
        syms_small = symbols(n)
        for _ in range(10):
            img = rng.sample(syms_small, len(syms_small))
            g = dict(zip(syms_small, img))
            gg = extend_permutation(g, n + 1)
            for xp in rng.sample(enumerate_matchings(n + 1), 8):
                assert project(act(xp, gg)) == act(project(xp), g)


def test_cocycle_identity_exhaustive_small():
    # c(x; g1 g2) = c(x . g1; g2) + c(x; g1), exhaustively for n = 2
    n = 2
    syms = symbols(n)
    perms = [dict(zip(syms, img)) for img in itertools.permutations(syms)]
    xs = enumerate_matchings(n)
    for g1 in perms:
        for g2 in perms:
            g12 = {s: g2[g1[s]] for s in syms}
            for x in xs:
                lhs = cocycle(x, g12, support=n)
                rhs = cocycle(act(x, g1), g2, support=n) + cocycle(x, g1, support=n)
                assert lhs == rhs


def test_cocycle_level_stability():
    # value at level m equals value at any preimage level m+1, n <= 3
    for n in (1, 2, 3):
        syms = symbols(n)
        perm_sample = list(itertools.permutations(syms))[:40]
        level_up = enumerate_matchings(n + 1)
        for img in perm_sample:
            g = dict(zip(syms, img))
            for x in enumerate_matchings(n):
                base = cocycle(x, g, support=n)
                for xp in preimages(x, level_up):
                    assert cocycle(xp, g, support=n) == base


def test_cocycle_support_validation():
    g = {1: -1, -1: 1, 2: 2, -2: -2}
    x = enumerate_matchings(1)[0]
    with pytest.raises(DomainError):
        cocycle(x, {1: 2, 2: 1, -1: -2, -2: -1}, support=1)


def test_quasi_invariance():
    # sum over x of mu_t(x . g) = 1: the action permutes X(n)
    import random

    rng = random.Random(3)
    for n in (2, 3, 4):
        syms = symbols(n)
        img = rng.sample(syms, len(syms))
        g = dict(zip(syms, img))
        for t in (0.7, 2.0):
            total = sum(t_measure(act(x, g), t) for x in enumerate_matchings(n))
            assert total == pytest.approx(1.0, abs=1e-12)


def test_hyperoctahedral_invariance():
    # h preserving the base matching {{-i, i}} preserves cycle counts
    from zmeasures.gelfand import hyperoctahedral_group

    n = 3
    base = Matching.from_pairs([(-i, i) for i in range(1, n + 1)])
    for h in hyperoctahedral_group(n):
        hs = SignedPermutationDomainMap.perm_to_signed(h)
        # sanity: h stabilizes the base matching of the {1..2n} labeling,
        # which is (-i, i) under the symbol map
        assert act(base, hs) == base
    for x in enumerate_matchings(n)[:6]:
        assert cycle_count(x) >= 1
