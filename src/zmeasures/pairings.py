"""Perfect matchings of {-n..-1, 1..n}: the coset space of the
hyperoctahedral subgroup, its t-measures, canonical projections, the
right symmetric-group action, and the fundamental cocycle.

A matching decomposes into "circles": starting from a symbol, alternate
a partner step with a negation step until the walk closes.  The number
of circles is the exponent of the t-measure weight, and their lengths
are the coset type of ``gelfand.coset_type``; both come from the one
walk in ``circle_lengths``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import DomainError, ParameterError, ResourceCapError, _as_index

MATCHING_ENUMERATION_CAP = 8


def symbols(n: int) -> list[int]:
    return list(range(-n, 0)) + list(range(1, n + 1))


@dataclass(frozen=True)
class Matching:
    """n unordered pairs partitioning {-n, ..., -1, 1, ..., n}."""

    pairs: tuple[tuple[int, int], ...]

    @staticmethod
    def from_pairs(pairs) -> "Matching":
        canon = tuple(sorted(tuple(sorted(p)) for p in pairs))
        return Matching(canon)

    @staticmethod
    def _canonical(pairs: tuple[tuple[int, int], ...]) -> "Matching":
        """A matching from pairs already known to be canonical and to
        partition the signed symbols, without sorting or validating them."""
        out = Matching.__new__(Matching)
        object.__setattr__(out, "pairs", pairs)
        return out

    def __post_init__(self):
        seen = set()
        for p in self.pairs:
            if len(p) != 2 or p[0] >= p[1]:
                raise DomainError(f"malformed pair {p}")
            seen.update(p)
        n = len(self.pairs)
        if seen != set(symbols(n)):
            raise DomainError(
                f"pairs must partition the signed symbols 1..{n}, got {self.pairs}"
            )
        if list(self.pairs) != sorted(self.pairs):
            raise DomainError("pairs must be in canonical sorted order")

    @property
    def n(self) -> int:
        return len(self.pairs)


def _matchings(n: int) -> Iterator[Matching]:
    """The (2n-1)!! matchings of level n, one at a time, by a depth-first
    walk that pairs the smallest unmatched symbol with each larger one.
    n is refused when this is called, before anything is yielded."""
    n = _as_index(n, "n")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n > MATCHING_ENUMERATION_CAP:
        raise ResourceCapError(
            f"matching enumeration capped at n <= {MATCHING_ENUMERATION_CAP}, got {n}"
        )

    def walk(pairs: tuple[tuple[int, int], ...], rest: tuple[int, ...]) -> Iterator[Matching]:
        if not rest:  # each pair opened with the smallest symbol left, so they are sorted
            yield Matching._canonical(pairs)
        for i in range(1, len(rest)):
            yield from walk(pairs + ((rest[0], rest[i]),), rest[1:i] + rest[i + 1 :])

    return walk((), tuple(symbols(n)))


def enumerate_matchings(n: int) -> list[Matching]:
    """All (2n-1)!! matchings as a list, in the order of ``_matchings``."""
    return list(_matchings(n))


def circle_lengths(x: Matching) -> list[int]:
    """The number of pairs on each circle, by its smallest positive symbol.

    Walks alternate partner and negation steps; the walk from s visits
    partner(s), then -partner(s), and so on.  Each circle is seen once
    when starting points run over unvisited positive symbols.
    """
    n = len(x.pairs)
    # flat lists of length 2n + 1 indexed by the symbol itself: s in 1..n at
    # positions 1..n, -s at position 2n + 1 - s by negative indexing
    partner = [0] * (2 * n + 1)
    for a, b in x.pairs:
        partner[a] = b
        partner[b] = a
    visited = [False] * (2 * n + 1)
    lengths = []
    for start in range(1, n + 1):
        # s -> -partner(s) is a bijection, so the walk closes at start; each
        # step marks s and -s, the other end of the previous pair
        s, length = start, 0
        while not visited[s]:
            visited[s] = visited[-s] = True
            s = -partner[s]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def cycle_count(x: Matching) -> int:
    """Number of circles in the arrow-configuration decomposition."""
    return len(circle_lengths(x))


def t_measure(x: Matching, t: float) -> float:
    """t^{circles} / (t (t+2) ... (t+2n-2)) as t^{circles-1} / ((t+2) ...
    (t+2n-2)), so that neither a tiny t underflows nor a huge t overflows
    the factor they share.  ParameterError unless t > 0 and both parts
    are finite floats."""
    if not t > 0:
        raise ParameterError(f"t must be positive, got {t}")
    den = math.prod(t + 2 * k for k in range(1, x.n))
    try:
        num = t ** (cycle_count(x) - 1)
    except OverflowError:
        num = math.inf
    if num == math.inf or den == math.inf:
        raise ParameterError(f"t = {t} overflows t^(circles-1) or (t+2) ... (t+{2 * x.n - 2})")
    return num / den


def project(xp: Matching) -> Matching:
    """Canonical projection X(n+1) -> X(n): delete the pair {-n-1, n+1},
    or splice the two pairs containing -n-1 and n+1 into one.

    -n-1 is the smallest symbol, so it opens the first pair, and n+1 the
    largest, so it closes its pair.  The other pairs stay canonical, and
    the spliced pair is inserted in its sorted place, so the result needs
    no sorting and no validation."""
    n1 = xp.n
    if n1 < 2:
        raise DomainError("projection needs n+1 >= 2")
    i_m = xp.pairs[0][1]
    pairs = list(xp.pairs[1:])
    if i_m != n1:
        i_k = next(a for a, b in pairs if b == n1)
        pairs.remove((i_k, n1))
        bisect.insort(pairs, (i_m, i_k) if i_m < i_k else (i_k, i_m))
    return Matching._canonical(tuple(pairs))


def act(x: Matching, g: Mapping[int, int]) -> Matching:
    """Right action: apply g inside every pair."""
    n = x.n
    syms = set(symbols(n))
    if set(g.keys()) != syms or set(g.values()) != syms:
        raise DomainError("g must be a bijection of the 2n signed symbols")
    return Matching.from_pairs((g[a], g[b]) for a, b in x.pairs)


def extend_permutation(g: Mapping[int, int], m: int) -> dict[int, int]:
    """Extend g to the 2m signed symbols, fixing the new ones."""
    out = {s: s for s in symbols(m)}
    for k, v in g.items():
        out[k] = v
    return out


def cocycle(x: Matching, g: Mapping[int, int], support: int | None = None) -> int:
    """c(x; g) = [x . g] - [x] for g supported on the first 2n symbols.

    ``support`` is the claimed n; the matching may live at any level
    m >= n and the value does not depend on m.
    """
    m = x.n
    if support is None:
        support = max((abs(s) for s in g if g[s] != s), default=1)
    if support > m:
        raise DomainError(f"matching level {m} below the support {support} of g")
    for s in symbols(m):
        if abs(s) > support and g.get(s, s) != s:
            raise DomainError(f"g moves symbol {s} outside its declared support")
    gm = extend_permutation(g, m)
    return cycle_count(act(x, gm)) - cycle_count(x)
