"""Young-diagram combinatorics with a Jack deformation parameter.

Diagrams are weakly decreasing tuples of positive integers.  The theta
deformation enters through the content (j-1) - theta*(i-1) of a box,
through the two hook products H and H', and through the half-integer
lattice coordinates obtained by splitting a diagram at the zero-content
diagonal.  Sign comparisons against zero are done in exact rational
arithmetic so the positive/negative split of boxes never depends on
floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .errors import DomainError, ParameterError, ResourceCapError

HALF = Fraction(1, 2)

DEFAULT_ENUMERATION_CAP = 100


def _as_fraction(theta) -> Fraction:
    if isinstance(theta, Fraction):
        f = theta
    else:
        f = Fraction(theta)
    if f <= 0:
        raise ParameterError(f"theta must be positive, got {theta}")
    return f


def conjugate_parts(parts) -> list[int]:
    """Conjugate of a weakly decreasing sequence of positive integers:
    entry i-1 counts the parts >= i."""
    out = []
    k = len(parts)
    for i in range(1, (parts[0] if parts else 0) + 1):
        while parts[k - 1] < i:
            k -= 1
        out.append(k)
    return out


@dataclass(frozen=True, order=True)
class YoungDiagram:
    """An integer partition, stored as a weakly decreasing tuple."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        for i, p in enumerate(self.parts):
            if not isinstance(p, int) or p <= 0:
                raise DomainError(f"parts must be positive integers, got {self.parts}")
            if i > 0 and self.parts[i - 1] < p:
                raise DomainError(f"parts must be weakly decreasing, got {self.parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def boxes(self) -> Iterator[tuple[int, int]]:
        """All boxes (i, j), 1-based."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def contains(self, box: tuple[int, int]) -> bool:
        i, j = box
        return 1 <= i <= len(self.parts) and 1 <= j <= self.parts[i - 1]

    def transpose(self) -> "YoungDiagram":
        return YoungDiagram(tuple(conjugate_parts(self.parts)))

    def __repr__(self):
        return f"YoungDiagram{self.parts}"


@dataclass(frozen=True)
class LatticeConfig:
    """Half-integer point configuration (A|B)_theta of a diagram.

    ``negatives`` are the -a_i - 1/2 (weakly decreasing, all < 0),
    ``positives`` the b_j + 1/2 (weakly decreasing, all > 0).  Repeats
    can occur away from theta = 1 (e.g. (3,3) at theta = 1/2), so the
    entries form a multiset; containment queries read it as a set.
    """

    negatives: tuple[Fraction, ...]
    positives: tuple[Fraction, ...]
    theta: Fraction = field(default=HALF)

    def __post_init__(self):
        for v in self.negatives + self.positives:
            if v.denominator != 2:
                raise DomainError(f"lattice entries must be half-integers, got {v}")
        if any(v >= 0 for v in self.negatives) or any(v <= 0 for v in self.positives):
            raise DomainError("negatives must be < 0 < positives")
        # stored in the paper's order: (-a_1-1/2, ..., ; b_1+1/2, ...),
        # so negatives ascend and positives descend
        if any(self.negatives[i] > self.negatives[i + 1] for i in range(len(self.negatives) - 1)):
            raise DomainError("negative entries must ascend (a_i weakly decreasing)")
        if any(self.positives[i] < self.positives[i + 1] for i in range(len(self.positives) - 1)):
            raise DomainError("positive entries must descend (b_j weakly decreasing)")

    def points(self) -> tuple[Fraction, ...]:
        return self.negatives + self.positives


def enumerate_partitions(
    n: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
    max_rows: int | None = None,
    max_cols: int | None = None,
) -> list[YoungDiagram]:
    """All partitions of n in reverse lexicographic order.

    ``max_rows``/``max_cols`` restrict the enumeration; they exist so
    callers can skip diagrams known in advance to carry zero measure.
    """
    return [YoungDiagram(p) for p in iter_partition_tuples(n, cap, max_rows, max_cols)]


def iter_partition_tuples(
    n: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
    max_rows: int | None = None,
    max_cols: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Reverse-lexicographic partition generator yielding raw tuples."""
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if n > cap:
        raise ResourceCapError(f"partition enumeration capped at n <= {cap}, got {n}")
    for what, bound in (("max_rows", max_rows), ("max_cols", max_cols)):
        if bound is not None and bound < 0:
            raise DomainError(f"{what} must be nonnegative, got {bound}")
    first = n if max_cols is None else min(n, max_cols)
    rows = n if max_rows is None else max_rows

    def rec(remaining: int, largest: int, rows_left: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        if rows_left == 0 or largest == 0:
            return
        # largest part first gives reverse lexicographic order
        lo = -(-remaining // rows_left)  # ceil: smallest feasible next part
        for p in range(min(largest, remaining), lo - 1, -1):
            yield from rec(remaining - p, p, rows_left - 1, prefix + (p,))

    yield from rec(n, first, rows, ())


def theta_content(box: tuple[int, int], theta) -> float:
    """(j-1) - theta*(i-1) for a 1-based box (i, j)."""
    th = _as_fraction(theta)
    i, j = box
    if i < 1 or j < 1:
        raise DomainError(f"box indices are 1-based, got {box}")
    return float((j - 1) - th * (i - 1))


def hook_products(lam: YoungDiagram, theta) -> tuple[float, float]:
    """The pair (H, H') of theta-deformed hook products.

    H multiplies arm + leg*theta + 1 over all boxes, H' the same with a
    trailing +theta.  Empty diagram gives (1, 1).
    """
    th = float(_as_fraction(theta))
    parts = lam.parts
    if not parts:
        return (1.0, 1.0)
    conj = lam.transpose().parts
    h = 1.0
    hp = 1.0
    for i, p in enumerate(parts, start=1):
        for j in range(1, p + 1):
            arm = p - j
            leg = conj[j - 1] - i
            h *= arm + leg * th + 1.0
            hp *= arm + leg * th + th
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


def frobenius_coordinates(lam: YoungDiagram, theta) -> LatticeConfig:
    """Theta-dependent Frobenius-type coordinates (A|B)_theta.

    Boxes with nonpositive theta-content form the negative part; the
    a_i are the row lengths of the positive part and the b_j the column
    lengths of the negative part.  The split is decided in exact
    rational arithmetic.
    """
    th = _as_fraction(theta)
    parts = lam.parts
    if not parts:
        return LatticeConfig((), (), th)
    # row i of the positive part: boxes with (j-1) > theta*(i-1)
    a = []
    for i, p in enumerate(parts, start=1):
        # number of j in 1..p with (j-1) > th*(i-1)
        thresh = th * (i - 1)  # exclude j-1 <= thresh
        # smallest positive content column index: j-1 = floor(thresh)+1
        j_min = int(thresh) + 2 if thresh == int(thresh) else math.floor(thresh) + 2
        count = p - (j_min - 1)
        if count > 0:
            a.append(count)
        else:
            break
    # column j of the negative part: boxes with (j-1) <= theta*(i-1),
    # i.e. i-1 >= (j-1)/theta
    conj = lam.transpose().parts
    b = []
    for j, q in enumerate(conj, start=1):
        ratio = Fraction(j - 1, 1) / th
        i_min = int(ratio) + 1 if ratio == int(ratio) else math.floor(ratio) + 2
        count = q - (i_min - 1)
        if count > 0:
            b.append(count)
        else:
            break
    negatives = tuple(-Fraction(ai) - HALF for ai in a)
    positives = tuple(Fraction(bj) + HALF for bj in b)
    return LatticeConfig(negatives, positives, th)


def transpose(lam: YoungDiagram) -> YoungDiagram:
    return lam.transpose()
