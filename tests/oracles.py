"""Reference implementations that the tests compare the package against.

The package's callers use none of these.  Some are independent routes to
a value the package computes another way (the recursive Pfaffian, the
generalized Pochhammer symbol box by box, the preimages of a projection
by search); some restate an identity (the duality of the z-measure);
the rest enumerate test cases or expose intermediate results.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from zmeasures.errors import DomainError
from zmeasures.measures import ZParams, _MeasureEngine, _stratum_measures, z_measure
from zmeasures.pairings import Matching, enumerate_matchings, project
from zmeasures.partitions import YoungDiagram, _as_fraction, conjugate_parts, hook_rows, iter_partition_tuples
from zmeasures.pfaffian import AntisymmetricMatrix

Perm = tuple[int, ...]


def pfaffian_expansion(A: AntisymmetricMatrix | np.ndarray) -> float:
    """Recursive first-row expansion Pf(A) = sum_j (-1)^j a_{0j} Pf(A_{0j});
    exponential cost, limited to dimensions <= 8."""
    if not isinstance(A, AntisymmetricMatrix):
        A = AntisymmetricMatrix.from_array(A)
    m = A.data
    if m.shape[0] > 8:
        raise DomainError("recursive Pfaffian expansion limited to dimension <= 8")

    def rec(idx: tuple[int, ...]) -> float:
        if not idx:
            return 1.0
        i = idx[0]
        total = 0.0
        for pos in range(1, len(idx)):
            j = idx[pos]
            rest = idx[1:pos] + idx[pos + 1 :]
            total += (-1) ** (pos - 1) * m[i, j] * rec(rest)
        return total

    return rec(tuple(range(m.shape[0])))


def enumerate_partitions(n: int) -> list[YoungDiagram]:
    """All partitions of n in reverse lexicographic order."""
    return [YoungDiagram(p) for p in iter_partition_tuples(n)]


def hook_products(lam: YoungDiagram, theta) -> tuple[float, float]:
    """The pair (H, H') of theta-deformed hook products, from ``hook_rows``.

    H multiplies arm + leg*theta + 1 over all boxes, H' the same with a
    trailing +theta.  Empty diagram gives (1, 1).
    """
    th = float(_as_fraction(theta))
    h = 1.0
    hp = 1.0
    for row in hook_rows(lam.parts, th):
        for x in row:
            h *= x + 1.0
            hp *= x + th
    return (h, hp)


def generalized_pochhammer(z: complex, lam: YoungDiagram, theta) -> complex:
    """Product of z + (j-1) - (i-1)*theta over the boxes of lam.

    Equals the row-wise product of ordinary Pochhammer symbols
    (z - (i-1)theta)_{lam_i}.  Returns exactly 0 when any factor has
    modulus below 1e-300.
    """
    th = float(_as_fraction(theta))
    out = complex(1.0)
    for i, p in enumerate(lam.parts, start=1):
        base = z - (i - 1) * th
        for j in range(p):
            f = base + j
            if abs(f) < 1e-300:
                return 0j
            out *= f
    return out


def identity_perm(size: int) -> Perm:
    return tuple(range(size))


def all_permutations(size: int) -> Iterator[Perm]:
    return itertools.permutations(range(size))


class SignedPermutationDomainMap:
    """Fixed bijection between the signed symbols {-n..-1,1..n} and the
    1-based labels {1..2n}: -i <-> 2i-1 and i <-> 2i."""

    @staticmethod
    def to_symbol(label: int) -> int:
        if label < 1:
            raise DomainError(f"labels are 1-based, got {label}")
        return label // 2 if label % 2 == 0 else -(label + 1) // 2

    @classmethod
    def perm_to_signed(cls, g: Perm) -> dict[int, int]:
        return {
            cls.to_symbol(i + 1): cls.to_symbol(g[i] + 1) for i in range(len(g))
        }


def class_size(cls: tuple[int, ...]) -> int:
    """Size of the conjugacy class with cycle type ``cls`` in S(sum)."""
    n = sum(cls)
    mult: dict[int, int] = {}
    for k in cls:
        mult[k] = mult.get(k, 0) + 1
    denom = 1
    for k, m in mult.items():
        denom *= k**m * math.factorial(m)
    return math.factorial(n) // denom


def preimages(x: Matching, level_up: list[Matching] | None = None) -> list[Matching]:
    """All elements of X(n+1) projecting onto x."""
    n = x.n
    if level_up is None:
        level_up = enumerate_matchings(n + 1)
    return [xp for xp in level_up if project(xp) == x]


def _stratum_terms(
    n: int,
    eng: _MeasureEngine,
    shifts: Sequence[int],
    target_bs: tuple[int, ...],
) -> list[tuple[tuple[int, ...], float]]:
    """(parts, measure) for each diagram ``measures._stratum_measures``
    returns, in its order."""
    parts, m = _stratum_measures(n, eng, shifts, target_bs)
    return [(tuple(int(v) for v in row if v), mv) for row, mv in zip(parts, m)]


def z_measure_symmetry_check(lam: YoungDiagram, p: ZParams) -> tuple[float, float]:
    """Both sides of M_{z,theta}(lam) = M_{-z/theta, 1/theta}(lam')."""
    lhs = z_measure(lam, p)
    th = float(p.theta)
    dual = ZParams(-p.z / th, 1.0 / th, p.xi)
    rhs = z_measure(YoungDiagram(tuple(conjugate_parts(lam.parts))), dual)
    return (lhs, rhs)
