"""Young-diagram combinatorics with a Jack deformation parameter.

Diagrams are weakly decreasing tuples of positive integers.  The theta
deformation enters through the content (j-1) - theta*(i-1) of a box,
through the two hook products H and H', and through the half-integer
lattice coordinates obtained by splitting a diagram at the zero-content
diagonal.  This module is the one partition core of the package; every
other module reads these from here:

- ``hook_rows``: the hook arguments x = arm + leg*theta, row by row, in
  float.  Both scalar evaluators of the z-measure consume it, so they
  round alike.
- ``column_shifts`` and ``frobenius_coordinates``: the coordinates
  (A|B)_theta, with a_i = lam_i - 1 - floor(theta (i-1)) and
  b_j = lam'_j - ceil((j-1)/theta), in integer arithmetic on the
  numerator and denominator of theta, so the split of the boxes never
  depends on floating point.
- ``half_integer``: the check of a lattice point, a point of Z + 1/2.
- ``_as_fraction``: the check of theta, a positive finite rational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .errors import DomainError, ParameterError, ResourceCapError, _as_index

HALF = Fraction(1, 2)

ENUMERATION_CAP = 100


def _as_fraction(theta) -> Fraction:
    """theta as an exact rational; ParameterError unless it is a finite
    positive number (or a string naming one)."""
    try:
        f = theta if isinstance(theta, Fraction) else Fraction(theta)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ParameterError(f"theta must be a positive finite number, got {theta!r}") from None
    if f <= 0:
        raise ParameterError(f"theta must be positive, got {theta}")
    return f


def half_integer(x) -> Fraction:
    """x as an exact point of Z + 1/2, from a Fraction, a number or a string
    such as "3/2" or "1.5"; DomainError when x is malformed, not finite or
    not a half-integer."""
    try:
        f = x if isinstance(x, Fraction) else Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        f = None
    if f is None or f.denominator != 2:
        raise DomainError(f"expected a half-integer, got {x!r}")
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

    def __repr__(self):
        return f"YoungDiagram{self.parts}"


@dataclass(frozen=True)
class LatticeConfig:
    """Half-integer point configuration (A|B)_theta of a diagram.

    ``negatives`` are the -a_i - 1/2 (weakly decreasing, all < 0),
    ``positives`` the b_j + 1/2 (weakly decreasing, all > 0).  Repeats
    can occur away from theta = 1 (e.g. (3,3) at theta = 1/2), so the
    entries form a multiset; containment queries read it as a set.
    Entries are checked and stored by ``half_integer``, as Fractions.
    """

    negatives: tuple[Fraction, ...]
    positives: tuple[Fraction, ...]
    theta: Fraction = field(default=HALF)

    def __post_init__(self):
        object.__setattr__(self, "negatives", tuple(map(half_integer, self.negatives)))
        object.__setattr__(self, "positives", tuple(map(half_integer, self.positives)))
        if any(v >= 0 for v in self.negatives) or any(v <= 0 for v in self.positives):
            raise DomainError("negatives must be < 0 < positives")
        # stored in the paper's order: (-a_1-1/2, ..., ; b_1+1/2, ...),
        # so negatives ascend and positives descend
        if any(self.negatives[i] > self.negatives[i + 1] for i in range(len(self.negatives) - 1)):
            raise DomainError("negative entries must ascend (a_i weakly decreasing)")
        if any(self.positives[i] < self.positives[i + 1] for i in range(len(self.positives) - 1)):
            raise DomainError("positive entries must descend (b_j weakly decreasing)")


def check_enumeration_size(n: int) -> int:
    """n as an int: ParameterError unless it is an integer, DomainError
    for n < 0, ResourceCapError for n > ``ENUMERATION_CAP``."""
    n = _as_index(n, "n")
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if n > ENUMERATION_CAP:
        raise ResourceCapError(f"partition enumeration capped at n <= {ENUMERATION_CAP}, got {n}")
    return n


def iter_partition_tuples(n: int, max_rows: int | None = None) -> Iterator[tuple[int, ...]]:
    """Reverse-lexicographic partition generator yielding raw tuples, with
    at most ``max_rows`` parts when that is given.  Sizes and row counts
    are refused when it is called, before anything is yielded."""
    n = check_enumeration_size(n)
    if max_rows is not None and max_rows < 0:
        raise DomainError(f"max_rows must be nonnegative, got {max_rows}")
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

    return rec(n, n, rows, ())


def hook_rows(parts, theta: float) -> Iterator[list[float]]:
    """Row by row, the hook arguments x = arm + leg*theta of the boxes of the
    diagram ``parts``, left to right, in float.  Box (i, j) contributes the
    factor x + 1 to H and x + theta to H'.  Every scalar evaluation of the
    hook products consumes these, so all of them round alike."""
    conj = conjugate_parts(parts)
    for i, p in enumerate(parts, start=1):
        yield [arm + (c - i) * theta for arm, c in zip(range(p - 1, -1, -1), conj)]


def column_shifts(theta, width: int) -> list[int]:
    """shift[j-1] = ceil((j-1)/theta) for the columns j = 1..``width``: the
    boxes of positive content at the top of column j, so that a column of
    height c has b_j = c - shift[j-1] boxes in the negative part."""
    th = _as_fraction(theta)
    num, den = th.numerator, th.denominator
    return [-(-(j * den) // num) for j in range(width)]


def frobenius_coordinates(lam: YoungDiagram, theta) -> LatticeConfig:
    """Theta-dependent Frobenius-type coordinates (A|B)_theta.

    Boxes of positive theta-content form the row part and the others, the
    zero-content diagonal among them, the column part:

        a_i = lam_i - 1 - floor(theta (i-1)),   b_j = lam'_j - ceil((j-1)/theta),

    each kept while positive (both decrease weakly).  The negatives are
    the -a_i - 1/2 and the positives the b_j + 1/2, so 1/2 is never a
    positive coordinate.  Integer arithmetic throughout.
    """
    th = _as_fraction(theta)
    num, den = th.numerator, th.denominator
    conj = conjugate_parts(lam.parts)
    a = [p - 1 - i * num // den for i, p in enumerate(lam.parts)]
    b = [c - s for c, s in zip(conj, column_shifts(th, len(conj)))]
    return LatticeConfig(
        tuple(-ai - HALF for ai in a if ai > 0),
        tuple(bj + HALF for bj in b if bj > 0),
        th,
    )
