"""The Gelfand pair (S(2n), H(n)) at desk scale.

Permutations of {1..2n} are stored as 0-indexed image tuples.  The base
matching pairs up (2i-1, 2i) in 1-based labels; the hyperoctahedral
group H(n) is its stabilizer.  Irreducible symmetric-group characters
come from the Murnaghan-Nakayama recursion in exact integer arithmetic,
and zonal spherical functions are exact rationals.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .errors import DomainError, ParameterError, ResourceCapError
from .measures import ZParams, z_measure
from .pairings import Matching, circle_lengths
from .partitions import HALF, YoungDiagram, iter_partition_tuples

COSET_TYPE_CAP = 6  # n, i.e. permutations of up to 12 points
CHARACTER_CAP = 8  # 2n
ZONAL_CAP = 4  # n

Perm = tuple[int, ...]


def compose(a: Perm, b: Perm) -> Perm:
    """a after b: (a*b)(i) = a(b(i))."""
    return tuple(a[x] for x in b)


def from_cycles(size: int, cycles: Iterable[tuple[int, ...]]) -> Perm:
    """Permutation from 1-based disjoint cycles."""
    img = list(range(size))
    seen = set()
    for cyc in cycles:
        for v in cyc:
            if not 1 <= v <= size:
                raise DomainError(f"cycle label {v} outside 1..{size}")
            if v in seen:
                raise DomainError(f"cycle label {v} repeats; cycles must be disjoint")
            seen.add(v)
        for i, v in enumerate(cyc):
            img[v - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(img)


def cycle_type(g: Perm) -> tuple[int, ...]:
    seen = [False] * len(g)
    lens = []
    for i in range(len(g)):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = g[j]
            ln += 1
        lens.append(ln)
    return tuple(sorted(lens, reverse=True))


@dataclass(frozen=True)
class CosetType:
    """Partition of n recording half-sizes of the components of Gamma(g)."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts) or list(self.parts) != sorted(
            self.parts, reverse=True
        ):
            raise DomainError(f"coset type must be a partition, got {self.parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)


@dataclass(frozen=True)
class ThomaPoint:
    """Point (alpha, beta) of the Thoma set, finitely supported."""

    alpha: tuple[float, ...] = ()
    beta: tuple[float, ...] = ()

    def __post_init__(self):
        for seq in (self.alpha, self.beta):
            if any(v < 0 for v in seq):
                raise DomainError("Thoma coordinates must be nonnegative")
            if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
                raise DomainError("Thoma coordinates must be weakly decreasing")
        if sum(self.alpha) + sum(self.beta) > 1 + 1e-12:
            raise DomainError("total Thoma mass must be <= 1")


def coset_type(g: Perm) -> CosetType:
    """Half-sizes of the components of the graph with edges (2i-1, 2i)
    and (g(2i-1), g(2i)): the circle lengths of the matching that g makes
    from the base matching.  Labels 2i-1 and 2i become the signed symbols
    -i and i, so the base pairs are the negation steps of the walk in
    ``pairings.circle_lengths``.  DomainError unless g is a permutation
    of an even number of points."""
    size = len(g)
    if size % 2 != 0:
        raise DomainError("permutation must act on an even number of points")
    if size // 2 > COSET_TYPE_CAP:
        raise ResourceCapError(f"coset type capped at n <= {COSET_TYPE_CAP}")
    if sorted(g) != list(range(size)):
        raise DomainError(f"g must be a permutation of 0..{size - 1}, got {g}")
    signed = [v // 2 + 1 if v % 2 else -(v // 2 + 1) for v in g]
    x = Matching.from_pairs(zip(signed[::2], signed[1::2]))
    return CosetType(tuple(sorted(circle_lengths(x), reverse=True)))


@lru_cache(maxsize=None)
def _mn_character(mu: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama recursion over border strips, via beta-sets."""
    if not rho:
        return 1
    r = rho[0]
    rest = rho[1:]
    l = len(mu)
    beta = [mu[i] + (l - 1 - i) for i in range(l)]
    beta_set = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_mu = tuple(new_beta[j] - (l - 1 - j) for j in range(l))
        new_mu = tuple(p for p in new_mu if p > 0)
        total += (-1) ** height * _mn_character(new_mu, rest)
    return total


def character_S2n(mu: tuple[int, ...], cls: tuple[int, ...]) -> int:
    """Irreducible character of S(N) at the class of cycle type ``cls``, a
    partition given in any order; DomainError unless mu is a partition and
    cls holds positive integers."""
    mu = YoungDiagram(tuple(mu)).parts
    cls = YoungDiagram(tuple(sorted(cls, reverse=True))).parts
    n_mu, n_cls = sum(mu), sum(cls)
    if n_mu != n_cls:
        raise DomainError(f"size mismatch: |mu| = {n_mu}, |class| = {n_cls}")
    if n_mu > CHARACTER_CAP:
        raise ResourceCapError(f"characters capped at S({CHARACTER_CAP})")
    return _mn_character(mu, cls)


@lru_cache(maxsize=8)
def hyperoctahedral_group(n: int) -> tuple[Perm, ...]:
    """All 2^n n! permutations preserving the base matching {2i-1, 2i},
    kept for the eight most recent n."""
    out = []
    for pi in itertools.permutations(range(n)):
        for flips in itertools.product((0, 1), repeat=n):
            img = [0] * (2 * n)
            for i in range(n):
                tgt = pi[i]
                img[2 * i] = 2 * tgt + flips[i]
                img[2 * i + 1] = 2 * tgt + 1 - flips[i]
            out.append(tuple(img))
    return tuple(out)


def zonal_spherical(lam: YoungDiagram | tuple[int, ...], g: Perm) -> Fraction:
    """w^lam(g): the H(n)-average of the character chi^{2*lam};
    DomainError unless lam is a partition and g a permutation of
    0..2|lam|-1."""
    parts = lam.parts if isinstance(lam, YoungDiagram) else YoungDiagram(tuple(lam)).parts
    n = sum(parts)
    if n > ZONAL_CAP:
        raise ResourceCapError(f"zonal spherical functions capped at n <= {ZONAL_CAP}")
    if sorted(g) != list(range(2 * n)):
        raise DomainError(f"g must permute {2 * n} points for |lam| = {n}")
    two_lam = tuple(2 * p for p in parts)
    H = hyperoctahedral_group(n)
    # the character is a class function: one call per cycle type met
    classes = Counter(cycle_type(compose(g, h)) for h in H)
    return Fraction(sum(k * character_S2n(two_lam, c) for c, k in classes.items()), len(H))


def spherical_restriction(p: ZParams, n: int, g: Perm) -> float:
    """Restriction of the spherical function to S(2n):
    sum over |lam| = n of M^{(n)}_{z, zbar, 1/2}(lam) w^lam(g)."""
    if p.theta != HALF:
        raise ParameterError("the spherical function lives at theta = 1/2")
    if n > ZONAL_CAP:
        raise ResourceCapError(f"spherical restriction capped at n <= {ZONAL_CAP}")
    if len(g) != 2 * n:
        raise DomainError(f"g must permute {2 * n} points")
    total = 0.0
    for parts in iter_partition_tuples(n):
        lam = YoungDiagram(parts)
        total += z_measure(lam, p) * float(zonal_spherical(lam, g))
    return total


def ptilde(k: int, omega: ThomaPoint, theta: float) -> float:
    """Image of the k-th power sum on the Thoma set: k = 1 maps to 1,
    higher k to sum(alpha^k) + (-theta)^(k-1) sum(beta^k)."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k == 1:
        return 1.0
    th = float(theta)
    return sum(a**k for a in omega.alpha) + (-th) ** (k - 1) * sum(
        b**k for b in omega.beta
    )


def extreme_character(
    omega: ThomaPoint, rho: CosetType | tuple[int, ...], theta: float = 0.5
) -> float:
    """Product of ptilde(k) over the parts k >= 2 of the coset type,
    with multiplicity; parts equal to 1 contribute a factor 1."""
    parts = rho.parts if isinstance(rho, CosetType) else tuple(rho)
    out = 1.0
    for k in parts:
        if k >= 2:
            out *= ptilde(k, omega, theta)
    return out
