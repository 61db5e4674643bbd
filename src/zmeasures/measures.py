"""z-measures, mixed z-measures, and lattice correlations.

The z-measure on partitions of n is

    M(lam) = n! |(z)_{lam,theta}|^2 / ((z zbar/theta)_n H(lam) H'(lam)),

evaluated in log-domain with exact-zero short-circuit.  Mixing over n
with negative-binomial weights gives a probability measure on all of Y.
Its lattice correlation functions are sums, size by size, of the
z-measures of the diagrams whose positive coordinates contain the
requested points.  Those diagrams are generated column by column, and a
prefix is pruned once its coordinates have passed a requested point or
its cells cannot reach one, so diagrams that cannot contain the points
are never built.  The truncation bound is certified: the z-measure at
each size sums to exactly 1, so the discarded mass is exactly the
negative-binomial tail.

The measure has one float recipe, ``_weigh``, which weighs diagrams of
one size together in numpy: row Pochhammer logs from the engine's one
table (``_MeasureEngine.row_log_table``), 0 for a diagram with a row
that reaches a zero factor, and exp(lgamma(n + 1) + num - (hook +
gamma)) for the rest.  It weighs whole strata: ``lattice_correlation``
sums them in the order of a full reverse-lexicographic enumeration, and
``z_measure_table`` returns the uncut stratum of a size n, all its
partitions, for the CLI tables and ``spherical_restriction``.
``z_measure`` (so ``mixed_z_measure``) weighs one diagram with it.

The hook term log H + log H' comes from ``_hook_log``, which does not
depend on z.  It renormalises the hook products at row ends; a diagram
whose products leave the float range inside one row, as a row of 171 or
more cells does, has its hook term recomputed as a sum of logs instead,
so sizes up to ``LATTICE_NMAX_CAP`` are evaluated correctly.

A stratum's diagrams and their hook terms depend on theta, n, the
points and the zero cut, but not on z: z enters only through the row
Pochhammer factors and the Gamma normaliser.  So a stratum is walked
once (``_walk_stratum``, one recursion over column heights, which hooks
the diagrams in numpy chunks of ``_CHUNK_CELLS // n`` with
``_hook_log``'s float operations, and packs each diagram's positive
coordinates into bits) and kept by ``_weigh_stratum`` in ``_strata``, a
least-recently-used store of at most ``_STORE_BYTES``.  What it keeps is
the whole size: every diagram of n under the zero cut, with no target
points.  Any set of points reads its stratum from that one entry, as
the diagrams whose coordinate bits hold all the points, so each (theta,
n, cut) is walked once for every point set.  A whole size is admitted
when the bytes it will take, known before the walk from the exact count
of the diagrams in its cut box (``_box_count``), are at most
``_STORE_BYTES // 8``; a larger size falls back to walking only the
diagrams that contain the points, kept under the points.  Each new z
only weighs the kept diagrams, in chunks of ``_CHUNK_CELLS // rows``, so
the float arrays stay near ``_CHUNK_CELLS`` entries whatever a stratum
holds.  A stratum sum (``_stratum_sum``),
the z-measure of the diagrams of one size n that contain the points,
depends on neither xi nor n_max: xi enters only through the
negative-binomial weights.  Each engine, keyed by the exact theta that
``ZParams`` keeps, holds the sums it has computed
(``_MeasureEngine.stratum_sums``), so the rungs of a xi-ladder, and any
later call at the same (z, theta), weigh each (n, points) once.

The partition combinatorics come from ``partitions``: ``_hook_log`` and
the log-sum fallback read their hook arguments from ``hook_rows``, the
walk its column shifts from ``column_shifts``, and lattice points are
checked by ``half_integer``.  The Pochhammer zeros decide which
diagrams vanish, as ``_weigh`` reads them from the engine's row table,
and the rows and columns a stratum's walk may use, as
``_MeasureEngine.zero_cut`` scans the first factors for them.

At theta = 1 the mixed z-measure is a Schur measure, and
``schur_correlation`` computes its lattice correlations exactly as a
determinant, as an independent check on the enumeration.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DomainError,
    NumericalError,
    ParameterError,
    ResourceCapError,
    validate_n_max,
    validate_z,
)
from .partitions import (
    HALF,
    YoungDiagram,
    _as_fraction,
    check_enumeration_size,
    column_shifts,
    half_integer,
    hook_rows,
    iter_partition_tuples,
)

LATTICE_NMAX_CAP = 200

# The largest a = |z|^2/theta accepted.  The normaliser lgamma(a + n) -
# lgamma(a) cancels as a grows: the worst |sum_{|lam|=n} M - 1| over
# n in {3, 10, 12}, theta from 1e-3 to 1e3 and three arguments of z is
# 1.9e-14 at a = 30, 1.1e-12 at 1e3, 1.5e-11 at 1e4 and 3.7e-10 at 1e5,
# whatever theta; below a = 30 it stays under 2e-13 down to a = 1e-300.
A_MAX = 1e4


@dataclass(frozen=True)
class ZParams:
    """Parameters (z, theta, xi) shared by all measures and kernels.

    theta, a number or a string such as "1/3", is kept as its exact value.
    Refused with ParameterError: z zero or not finite, theta not a finite
    positive number, xi outside [0, 1), a = |z|^2/theta above A_MAX, and
    |z|^2 or a below the normal floats, where they carry fewer than 53
    bits (at |z| = 1e-160 the z-measure of one size summed to 1.00001)."""

    z: complex
    theta: Fraction = HALF
    xi: float = 0.0

    def __post_init__(self):
        z = validate_z(self.z)
        object.__setattr__(self, "theta", _as_fraction(self.theta))
        # a product, where abs(z) ** 2 would raise OverflowError; a theta
        # beyond the floats gives a = 0 or inf, which are refused
        t = abs(z) * abs(z)
        th = float(self.theta) if self.theta <= sys.float_info.max else math.inf
        a = t / th if th else math.inf
        if not (sys.float_info.min <= min(t, a) and a <= A_MAX):
            raise ParameterError(
                f"need |z|^2 and a = |z|^2/theta normal floats with a <= {A_MAX:g}, "
                f"got |z|^2 = {t:.3g}, a = {a:.3g}"
            )
        if not (0 <= self.xi < 1):
            raise ParameterError(f"xi must lie in [0, 1), got {self.xi}")

    @property
    def t(self) -> float:
        """|z|^2, the parameter of the underlying t-measures."""
        return abs(self.z) ** 2

    @property
    def a(self) -> float:
        """z zbar / theta, the negative-binomial shape parameter."""
        return self.t / float(self.theta)


@dataclass(frozen=True)
class CorrelationReport:
    """Lattice correlation value with its certified truncation bound.

    The reported value is a lower bound; the true value lies in
    [value, value + truncation_bound].
    """

    value: float
    truncation_bound: float
    n_max_used: int
    terms_summed: int


class _MeasureEngine:
    """Per-(z, theta) row-Pochhammer table (``row_log_table``), and the
    stratum sums ``lattice_correlation`` has computed at this (z, theta),
    by (n, sorted target points)."""

    def __init__(self, z: complex, theta: float | Fraction):
        self.z = complex(z)
        self.theta = float(theta)
        self.a = abs(z) ** 2 / self.theta
        self._logs = np.zeros((0, 1))
        self._zero = np.zeros(0, dtype=np.int64)
        self.stratum_sums: dict[tuple[int, tuple[int, ...]], tuple[float, int]] = {}

    def zero_cut(self, n: int) -> tuple[int, int]:
        """(rows, cols): the most rows and columns a diagram of n cells with
        nonzero measure can have.  A zero first factor z - i theta of row
        i+1 kills every diagram with i+1 rows, and a zero factor z + j of
        row 1 every diagram whose first row reaches j+1 cells.  The factors
        are scanned directly, as the same floats under the same 1e-300 test
        that ``row_log_table`` applies, so the cut builds no table."""
        z, th = self.z, self.theta
        rows = next((i for i in range(n) if abs(z - i * th) < 1e-300), n)
        return rows, next((j for j in range(n) if abs(z + j) < 1e-300), n)

    def row_log_table(self, rows: int, width: int) -> tuple[np.ndarray, np.ndarray]:
        """The table (logs, zero) for at least ``rows`` rows and lengths
        0..``width``, grown by doubling when ``_weigh`` asks for more.
        ``logs[i, p]`` is 2 log |(z - i theta)_p|, row i+1's Pochhammer
        product at length p, summed in order from each factor's
        2.0 * math.log(abs(f)) (numpy's log rounds differently).  A factor
        below 1e-300 is zero: from it on the row holds -inf, and ``zero[i]``
        is its index + 1 (2^60 where the row has none)."""
        have_rows, have_width = self._logs.shape[0], self._logs.shape[1] - 1
        if have_rows < rows or have_width < width:
            rows = have_rows if rows <= have_rows else max(rows, 2 * have_rows)
            width = have_width if width <= have_width else max(width, 2 * have_width)
            self._logs = np.zeros((rows, width + 1))
            self._zero = np.full(rows, 1 << 60, dtype=np.int64)
            for i in range(rows):
                base = self.z - i * self.theta
                terms = [2.0 * math.log(m) if (m := abs(base + j)) >= 1e-300 else -math.inf
                         for j in range(width)]
                self._logs[i, 1:] = np.add.accumulate(terms)
                if -math.inf in terms:
                    self._zero[i] = terms.index(-math.inf) + 1
        return self._logs, self._zero


def _hook_log(parts: Sequence[int], th: float) -> float:
    """log H(lam) + log H'(lam) as the z-measure's denominator takes it: the
    hook products as float products, renormalised at row ends once they
    pass 1e250 (or H' falls below 1e-250), their logs added up.  A
    diagram whose products leave the float range inside one row, as a row
    of 171 or more cells does, gets ``_hook_log_sum`` instead.  The same
    floats in the same order for every caller, so ``z_measure`` and the
    stored strata agree bit for bit."""
    h = 1.0
    hp = 1.0
    hexp = 0.0
    for row in hook_rows(parts, th):
        for x in row:
            h *= x + 1.0
            hp *= x + th
        if h > 1e250 or hp > 1e250 or hp < 1e-250:
            if h == math.inf or hp == math.inf or hp == 0.0:
                # left the float range inside a row
                return _hook_log_sum(parts, th)
            hexp += math.log(h) + math.log(hp)
            h = 1.0
            hp = 1.0
    return hexp + math.log(h) + math.log(hp)


def _hook_log_sum(parts: Sequence[int], th: float) -> float:
    """log H(lam) + log H'(lam) as a correctly rounded sum of the logs of
    the hook factors: the fallback for diagrams whose hook products
    overflow (or underflow) before a row ends, as a row of length
    n >= 171 does."""
    return math.fsum(
        math.log(x + 1.0) + math.log(x + th) for row in hook_rows(parts, th) for x in row
    )


# two entries: callers loop over diagrams at one (z, theta), or at one and
# its dual (-z/theta, 1/theta) when they check the duality of the measure
_engine = functools.lru_cache(maxsize=2)(_MeasureEngine)


def z_measure(lam: YoungDiagram, p: ZParams) -> float:
    """M^{(n)}_{z, zbar, theta}(lam) for n = |lam| >= 1, weighed by
    ``_weigh`` like a stratum's diagrams, so the float a stratum sum adds.
    The parts go in as int64: a row may be longer than uint8 holds."""
    if lam.size == 0:
        raise DomainError("z-measure requires |lam| >= 1")
    eng = _engine(p.z, p.theta)
    parts = np.array([lam.parts], dtype=np.int64)
    return float(_weigh(lam.size, eng, parts, np.array([_hook_log(lam.parts, eng.theta)]))[0])


def negative_binomial_weight(n: int, p: ZParams) -> float:
    """(1-xi)^{z zbar/theta} ((z zbar/theta)_n / n!) xi^n."""
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    xi = p.xi
    if xi == 0.0:
        return 1.0 if n == 0 else 0.0
    a = p.a
    logw = a * math.log1p(-xi)
    if n > 0:
        logw += math.lgamma(a + n) - math.lgamma(a) - math.lgamma(n + 1) + n * math.log(xi)
    return math.exp(logw)


def negative_binomial_tail(n_max: int, p: ZParams) -> float:
    """Certified upper bound on sum of weights for n > n_max."""
    xi = p.xi
    if xi == 0.0:
        return 0.0
    a = p.a
    total = 0.0
    n = n_max + 1
    w = negative_binomial_weight(n, p)
    while True:
        total += w
        q = xi * (a + n) / (n + 1)
        if q < 1.0 and w * q / (1.0 - q) < max(1e-18 * total, 1e-300):
            total += w * q / (1.0 - q)
            return total
        n += 1
        w *= xi * (a + n - 1) / n
        if n > n_max + 100000:
            raise ResourceCapError("negative-binomial tail summation did not close")


def mixed_z_measure(lam: YoungDiagram, p: ZParams) -> float:
    """Mixed z-measure: negative-binomial weight at |lam| times the
    z-measure; the empty diagram carries the n = 0 weight alone."""
    n = lam.size
    w = negative_binomial_weight(n, p)
    if n == 0 or w == 0.0:
        return w
    return w * z_measure(lam, p)


def _validate_lattice_points(X: Iterable) -> list[int]:
    """Convert X in Z_{>=0}+1/2 to the integers b = x - 1/2."""
    bs = []
    seen = set()
    for x in X:
        f = half_integer(x)
        if f < HALF:
            raise DomainError(
                f"lattice points must be half-integers >= 1/2, got {x}"
            )
        if f in seen:
            raise DomainError(f"lattice points must be distinct, got repeated {x}")
        seen.add(f)
        bs.append(int(f - HALF))
    if not bs:
        raise DomainError("X must be nonempty")
    return bs


# completions of at most this many cells are read from a table
_TAIL_CELLS = 12


@functools.lru_cache(maxsize=None)
def _tail_table(cells: int) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """The partitions of ``cells`` in reverse lexicographic order, and
    start[c]: the index of the first one with largest part at most c."""
    tails = tuple(iter_partition_tuples(cells))
    start = [len(tails)] * (cells + 1)
    for i in range(len(tails) - 1, -1, -1):
        start[tails[i][0] if tails[i] else 0] = i
    for c in range(1, cells + 1):
        start[c] = min(start[c], start[c - 1])
    return tails, start


# cells whose float arrays are evaluated together: a stratum of size n is
# walked in chunks of _CHUNK_CELLS // n diagrams, and its diagrams of at most
# r rows are weighed in chunks of _CHUNK_CELLS // r, so the arrays of a chunk
# stay near _CHUNK_CELLS entries whatever the stratum holds
_CHUNK_CELLS = 4096


def _chunk_hooks(n: int, th: float, shifts: np.ndarray, heights: list[int], widths: list[int]):
    """Parts (zero-padded rows), hook logs and positive coordinates of the
    partitions of n whose column heights are ``heights``, diagram after
    diagram, with ``widths`` columns each.

    The hook logs are the floats ``_hook_log`` returns: the same float
    operations in the same order, run across the diagrams at once.  The
    hook factors of each diagram are laid out in row-major cell order
    (every diagram has n cells) and multiplied by the sequential
    ``np.multiply.accumulate``; a diagram whose running product meets the
    renormalisation test at a row end is handed to ``_hook_log`` whole;
    logs are taken per diagram with ``math``, whose rounding numpy's own
    functions do not share.

    The coordinates b = c_j - shifts[j] of the columns where it is
    positive are bits 1..rows of rows + 1, packed little-endian: bit b of
    a diagram is bit b % 8 of its byte b // 8.
    """
    count = len(widths)
    cols = np.fromiter(heights, np.int64, len(heights))
    width = np.array(widths)
    rows = int(cols.max())
    first_col = np.cumsum(width) - width
    # each column's diagram d owns slots d * (rows + 1) .. d * (rows + 1) + rows
    slot = np.repeat(np.arange(0, count * (rows + 1), rows + 1), width)
    # parts[d, i] counts the columns of diagram d taller than i
    tally = np.bincount(slot + cols, minlength=count * (rows + 1))
    parts = np.cumsum(tally.reshape(count, rows + 1)[:, :0:-1], axis=1)[:, ::-1]

    # cell k of the chunk lies in row block r = block[k], row r % rows + 1
    # of diagram r // rows; its arm counts the cells after it in the row
    flat = parts.ravel()
    row_end = np.cumsum(flat) - 1
    block = np.repeat(np.arange(count * rows), flat)
    k = np.arange(count * n)
    arm = row_end[block] - k
    # its column is column k - (row_end - flat + 1)[block] of that diagram
    col_shift = np.repeat(first_col, rows) - (row_end - flat + 1)
    row_number = np.arange(count * rows) % rows + 1
    leg = cols[k + col_shift[block]] - row_number[block]
    x = arm + leg * th
    with np.errstate(over="ignore", under="ignore"):
        h = np.multiply.accumulate((x + 1.0).reshape(count, n), axis=1)[:, -1]
        hp = np.multiply.accumulate((x + th).reshape(count, n), axis=1)
    # the factors of h are >= 1, so h is largest at the last row end
    hp_end = hp.ravel()[row_end].reshape(count, rows)
    renorm = (h > 1e250) | ((hp_end > 1e250) | (hp_end < 1e-250)).any(axis=1)

    hooks = np.empty(count)
    plain = ~renorm
    # log H >= 0 is never -0.0, so _hook_log's 0.0 + log H is log H
    logs = np.array(list(map(math.log, h[plain].tolist())))
    logs += np.array(list(map(math.log, hp[plain, -1].tolist())))
    hooks[plain] = logs
    for d in np.flatnonzero(renorm).tolist():
        hooks[d] = _hook_log(tuple(parts[d][parts[d] > 0].tolist()), th)

    b = cols - shifts[np.arange(len(cols)) - np.repeat(first_col, width)]
    on = np.zeros(count * (rows + 1), dtype=bool)
    on[(slot + b)[b > 0]] = True
    return parts.astype(np.uint8), hooks, np.packbits(on.reshape(count, rows + 1), axis=1, bitorder="little")


def _walk_stratum(
    n: int,
    th: float,
    shifts: Sequence[int],
    target_bs: Sequence[int],
    cut: tuple[int, int],
    coords: bool = False,
) -> tuple[np.ndarray, ...]:
    """Parts (zero-padded rows, uint8) and hook logs of the partitions of n
    with at most ``cut`` = (rows, columns) whose positive coordinates
    contain all target points, in reverse lexicographic order of parts;
    with ``coords``, also those coordinates, as the packed bits that
    ``_chunk_hooks`` forms (uint8, zero-padded to the widest chunk's).

    One recursion, ``walk``, builds the column heights left to right,
    tallest first.  Column j (0-based) of height c carries the positive
    coordinate c - shifts[j], which never increases with j, so the
    targets bs are met largest first and k counts those met.  A prefix is
    cut as soon as its last coordinate lies below bs[k] (or at c -
    shifts[j] <= 0, where no positive coordinate exists), or the cells
    left cannot reach bs[k:].  Once every target is met, completions of
    at most ``_TAIL_CELLS`` cells are read from a table, and a completion
    by columns of height 1 is one run of single cells.  The heights are
    gathered into chunks of ``_CHUNK_CELLS // n`` diagrams, each chunk is
    hooked by ``_chunk_hooks``, and the chunks are copied into one
    array each."""
    bs = sorted(target_bs, reverse=True)
    t = len(bs)
    # need[k][j]: fewest cells that columns j, j+1, ... (0-based) must hold
    # to meet bs[k:], each unmet target taking a later column; more than n
    # when there are too few columns left
    need = [[0] * (n + 1) for _ in range(t + 1)]
    for k in range(t - 1, -1, -1):
        least = max(bs[k], 1)
        row, later = need[k], need[k + 1]
        row[n] = n + 1
        for j in range(n):
            row[j] = least + shifts[j] + later[j + 1]
    chunk = max(1, _CHUNK_CELLS // n)
    shift = np.array(shifts[:n], dtype=np.int64)
    cols: list[int] = []
    heights: list[int] = []
    widths: list[int] = []
    done: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def add(tails):
        for tail in tails:
            heights.extend(cols)
            heights.extend(tail)
            widths.append(len(cols) + len(tail))
            if len(widths) == chunk:
                done.append(_chunk_hooks(n, th, shift, heights, widths))
                heights.clear()
                widths.clear()

    def walk(remaining: int, largest: int, cols_left: int, k: int) -> None:
        # the completions of cols by at most cols_left columns of height at
        # most largest holding remaining cells that meet bs[k:]; column j
        # meets bs[k] at height hit, and no column is 0 high once k == t
        if k == t:
            if remaining <= _TAIL_CELLS:
                tails, start = _tail_table(remaining)
                tails = tails[start[min(largest, remaining)]:]
                add(tails if remaining <= cols_left else [s for s in tails if len(s) <= cols_left])
                return
            if largest == 1:
                if remaining <= cols_left:
                    add(((1,) * remaining,))
                return
            if cols_left == 0:
                return
            lo = -(-remaining // cols_left)
            hit = 0
        else:
            j = len(cols)
            if cols_left < t - k or remaining < need[k][j]:
                return
            hit = bs[k] + shifts[j]
            lo = max(-(-remaining // cols_left), max(bs[k], 1) + shifts[j])
        for c in range(min(largest, remaining), lo - 1, -1):
            cols.append(c)
            walk(remaining - c, c, cols_left - 1, k + (c == hit))
            cols.pop()

    walk(n, *cut, 0)
    if widths:
        done.append(_chunk_hooks(n, th, shift, heights, widths))
    parts, bits = (_stack([d[i] for d in done]) for i in (0, 2))
    hooks = np.concatenate([d[1] for d in done] or [np.zeros(0)])
    # the order iter_partition_tuples yields, so that sums are bit-stable
    order = np.lexsort(parts.T[::-1])[::-1] if done else np.zeros(0, dtype=np.intp)
    return (parts[order], hooks[order], bits[order]) if coords else (parts[order], hooks[order])


def _stack(chunks: list[np.ndarray]) -> np.ndarray:
    """The uint8 rows of ``chunks`` one under another, zero-padded to the
    widest."""
    out = np.zeros((sum(map(len, chunks)), max((c.shape[1] for c in chunks), default=0)), dtype=np.uint8)
    lo = 0
    for c in chunks:
        out[lo:lo + len(c), :c.shape[1]] = c
        lo += len(c)
    return out


# bytes the walked strata may hold, counting each entry's arrays and a
# fixed overhead for its key and bookkeeping
_STORE_BYTES = 2 << 20
# sys.getsizeof of an entry's key with its theta, shifts and cut tuples,
# of its tuple of three arrays and of their headers is 664 B + 8 B per
# shift (904 B at n = 30), and its OrderedDict slot about 80 B more
_ENTRY_BYTES = 1024


def _entry_bytes(entry: tuple[np.ndarray, np.ndarray, np.ndarray]) -> int:
    return sum(a.nbytes for a in entry) + _ENTRY_BYTES


class _StratumStore:
    """Walked strata, least recently used first, holding at most
    ``_STORE_BYTES``.  Each entry is (parts, hook logs, coordinate bits)
    as ``_walk_stratum`` returns them with coordinates, and counts their
    bytes plus ``_ENTRY_BYTES`` for its key, tuple and array headers.  A
    stratum larger than the whole budget is returned, not kept."""

    def __init__(self):
        self.used = 0
        self._entries: OrderedDict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = OrderedDict()

    def get(self, key: tuple, walk) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entry under ``key``, from ``walk()`` when it is not kept."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        entry = walk()
        size = _entry_bytes(entry)
        if size <= _STORE_BYTES:
            self._entries[key] = entry
            self.used += size
            while self.used > _STORE_BYTES:
                self.used -= _entry_bytes(self._entries.popitem(last=False)[1])
        return entry


_strata = _StratumStore()


def _weigh(n: int, eng: _MeasureEngine, parts: np.ndarray, hooks: np.ndarray) -> np.ndarray:
    """The z-measures under ``eng`` of the partitions of n with rows
    ``parts`` (zero-padded, any integer dtype) and hook logs ``hooks``.

    Row Pochhammer logs (num) are gathered from ``eng.row_log_table`` and
    added row by row; a diagram with a row that reaches a zero factor
    weighs 0; the rest take exp((lgamma(n + 1) + num) - (hook log +
    (lgamma(a + n) - lgamma(a)))), per diagram with ``math.exp``.  The
    diagrams are weighed in chunks of ``_CHUNK_CELLS // rows``."""
    count, rows = parts.shape
    m = np.zeros(count)
    if not count:
        return m
    logs, zero_at = eng.row_log_table(rows, int(parts[:, 0].max()))
    offsets = np.arange(0, rows * logs.shape[1], logs.shape[1])
    top = math.lgamma(n + 1)
    gamma = math.lgamma(eng.a + n) - math.lgamma(eng.a)
    step = max(1, _CHUNK_CELLS // rows)
    for lo in range(0, count, step):
        chunk = parts[lo:lo + step]
        live = ~(chunk >= zero_at[:rows]).any(axis=1)
        num = np.add.accumulate(np.take(logs, chunk[live] + offsets), axis=1)[:, -1]
        logden = hooks[lo:lo + step][live] + gamma
        m[lo:lo + step][live] = list(map(math.exp, ((top + num) - logden).tolist()))
    return m


@functools.lru_cache(maxsize=None)
def _box_count(n: int, rows: int, cols: int) -> int:
    """The number of partitions of n with at most ``rows`` rows and
    ``cols`` columns: the q^n coefficient of the Gaussian binomial
    [rows + cols, rows]_q = prod_{i=1..k} (1 - q^(m+i)) / (1 - q^i), with
    k, m the smaller and larger of rows and cols (each capped at n, which
    leaves the count unchanged), in exact integers truncated at q^n."""
    k, m = sorted((min(rows, n), min(cols, n)))
    c = [1] + [0] * n
    for i in range(1, k + 1):
        for d in range(n, m + i - 1, -1):
            c[d] -= c[d - m - i]
        for d in range(i, n + 1):
            c[d] += c[d - i]
    return c[n]


def _whole_bytes(n: int, cut: tuple[int, int]) -> int:
    """The bytes ``_entry_bytes`` counts for the whole size n under ``cut``,
    before it is walked: each of its ``_box_count`` diagrams has uint8 rows
    padded to min(rows, n), the most any of them has, a float hook log and
    rows + 1 coordinate bits in whole bytes."""
    rows = min(cut[0], n)
    return _box_count(n, *cut) * (rows + 8 + (rows + 8) // 8) + _ENTRY_BYTES


def _weigh_stratum(n: int, eng: _MeasureEngine, shifts: Sequence[int], target_bs: Sequence[int],
                   cut: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The parts of ``_walk_stratum(n, eng.theta, shifts, target_bs, cut)``
    and their z-measures.

    Strata are kept in ``_strata`` under all the walk reads (1/3 and the
    float nearest it shift different columns, so they walk apart).  The
    whole size, no targets under ``cut``, is walked and kept once for
    every target set: when ``_whole_bytes`` is at most ``_STORE_BYTES //
    8``, a targeted stratum is read from it, as the diagrams whose
    coordinate bits hold every target, with their rows trimmed to the
    most any of them has.  Masking keeps the walk's order, and the hook
    logs are per-diagram floats, so the sums are those of the targeted
    walk, which a larger size still makes and keeps under its targets."""
    th = eng.theta
    shifts, bs = tuple(shifts[:n]), tuple(sorted(target_bs))
    whole = not bs or _whole_bytes(n, cut) <= _STORE_BYTES // 8
    key = (th, shifts, () if whole else bs, cut)
    parts, hooks, bits = _strata.get(key, lambda: _walk_stratum(n, th, shifts, key[2], cut, True))
    if whole and bs:
        keep = np.ones(len(parts), dtype=bool)
        for b in bs:
            if b >> 3 < bits.shape[1]:
                keep &= bits[:, b >> 3] & (1 << (b & 7)) != 0
            else:  # beyond every diagram's coordinates
                keep[:] = False
        kept = np.flatnonzero(keep)
        # a diagram's largest coordinate is its row count, the height of
        # its first column (shifts[0] = 0): the top bit of them all is the width
        top = int.from_bytes(np.bitwise_or.reduce(bits.take(kept, axis=0), axis=0).tobytes(), "little")
        parts, hooks = parts.take(kept, axis=0)[:, :max(top.bit_length() - 1, 0)], hooks.take(kept)
    return parts, _weigh(n, eng, parts, hooks)


def _stratum_sum(
    n: int,
    eng: _MeasureEngine,
    shifts: Sequence[int],
    target_bs: tuple[int, ...],
) -> tuple[float, int]:
    """Sum of the z-measures under ``eng`` of the partitions of n whose
    positive coordinates contain all target points, in reverse
    lexicographic order of parts, and how many of them are nonzero.
    ``shifts`` is ``column_shifts`` of theta, at least n long.  The walk
    never builds a diagram with more rows or columns than
    ``eng.zero_cut(n)`` allows, and is kept by ``_weigh_stratum``."""
    m = _weigh_stratum(n, eng, shifts, target_bs, eng.zero_cut(n))[1].tolist()
    # the measures are >= 0, so adding a zero leaves the sum unchanged
    total = 0.0
    for v in m:
        total += v
    return total, len(m) - m.count(0.0)


def z_measure_table(n: int, p: ZParams) -> tuple[np.ndarray, np.ndarray]:
    """The partitions of n >= 1, zero-padded uint8 rows in the order of
    ``iter_partition_tuples``, and their z-measures, the floats of
    ``z_measure``: the uncut stratum, walked and weighed once."""
    if n == 0:
        raise DomainError("z-measure requires |lam| >= 1")
    check_enumeration_size(n)
    return _weigh_stratum(n, _engine(p.z, p.theta), column_shifts(p.theta, n), (), (n, n))


def lattice_correlation(
    X: Sequence,
    p: ZParams,
    n_max: int,
) -> CorrelationReport:
    """Probability that (A|B)_theta(lam) contains X, under the mixed
    z-measure truncated at |lam| <= n_max, with the negative-binomial tail
    mass beyond n_max as its truncation bound.

    Each size n adds the stratum sum (``_stratum_sum``) of the partitions
    of n whose positive coordinates contain X, walked, kept and weighed as
    the module docstring says: diagrams that a first-row or first-column
    Pochhammer zero kills are never built, every size up to
    ``LATTICE_NMAX_CAP`` counts, and a size already summed at this (z,
    theta), at any xi, n_max or order of X, is read back with the same
    float.  ``terms_summed`` counts the diagrams with nonzero measure that
    contain X.  The point 1/2 is no positive coordinate of any diagram, so
    an X holding it returns 0 without a walk.  ``n_max`` must be an
    integer (ParameterError otherwise) in [0, ``LATTICE_NMAX_CAP``]
    (ResourceCapError).
    """
    n_max = validate_n_max(n_max, LATTICE_NMAX_CAP)
    target_bs = tuple(sorted(_validate_lattice_points(X)))
    bound = negative_binomial_tail(n_max, p)
    if 0 in target_bs:
        return CorrelationReport(value=0.0, truncation_bound=bound, n_max_used=n_max, terms_summed=0)
    eng = _engine(p.z, p.theta)
    shifts = column_shifts(p.theta, n_max)

    value = 0.0
    terms = 0
    for n in range(1, n_max + 1):
        key = (n, target_bs)
        sum_count = eng.stratum_sums.get(key)
        if sum_count is None:
            sum_count = eng.stratum_sums[key] = _stratum_sum(n, eng, shifts, target_bs)
        s, c = sum_count
        if s:
            value += negative_binomial_weight(n, p) * s
        terms += c
    return CorrelationReport(value=value, truncation_bound=bound, n_max_used=n_max, terms_summed=terms)


def _binomial_series(e: complex, s: np.longdouble, count: int) -> np.ndarray:
    """The first ``count`` Taylor coefficients of (1 - s t)^e in t."""
    k = np.arange(1, count, dtype=np.longdouble)
    out = np.ones(count, dtype=np.clongdouble)
    out[1:] = np.cumprod((k - 1 - e) / k * s)
    return out


def _schur_determinant(bs: Sequence[int], zeta: complex, s: np.longdouble, count: int) -> float:
    """det[K(b_i - 1/2, b_j - 1/2)] from ``count`` coefficients of each
    binomial series, in long double.

    The Laurent coefficients of 1/J are the conjugates of those of J (s
    is real), so K is the Gram matrix of the rows a_i = (J_{b_i+k})_k,
    and its determinant is the product of the squared norms of the rows
    after Gram-Schmidt.  For sparse points the rows are nearly parallel;
    orthogonalising them loses about half the digits that forming K and
    taking its determinant would lose.
    """
    # J(t) = (1 - s t)^zeta (1 - s/t)^(-zbar); j[m] is the coefficient of t^m
    a = _binomial_series(zeta, s, count)
    j = np.convolve(a, _binomial_series(-zeta.conjugate(), s, count)[::-1])[count - 1:]
    terms = count - max(bs)
    det = np.longdouble(1)
    basis: list[np.ndarray] = []
    for b in bs:
        v = j[b:b + terms].copy()
        for _ in range(2):  # twice, so the rounding of the first pass is removed
            for q in basis:
                v -= np.vdot(q, v) * q
        norm2 = np.vdot(v, v).real
        if norm2 == 0:
            return 0.0
        det *= norm2
        basis.append(v / np.sqrt(norm2))
    return float(det)


def schur_correlation(X: Sequence, p: ZParams) -> float:
    """Lattice correlation of X at theta = 1 from Okounkov's Schur-measure
    kernel, with no enumeration and no truncation in |lam|.

    At theta = 1 the mixed z-measure is a Schur measure, so its
    correlation functions are determinants.  With s = sqrt(xi) and
    J(t) = (1 - s t)^z (1 - s/t)^(-zbar), the coefficients J_m and
    (1/J)_m of the Laurent series give the kernel

        K(x, y) = sum_{k >= 0} J_{x+1/2+k} (1/J)_{-y-1/2-k},   x, y in Z + 1/2,

    and ``lattice_correlation(X)`` is det[K(x_i - 1, x_j - 1)]: the
    positive coordinates of this package are the modified Frobenius legs
    plus 1, so 1/2 is never occupied.  The series are cut at
    N = 60/(1 - xi) + 200 terms and at 2N, in long double (a 64-bit
    significand on x86-64); the 2N value is returned, and it is refused
    with ``NumericalError`` when the two differ by more than 1e-10 of its
    size.  The determinant is taken by Gram-Schmidt (see
    ``_schur_determinant``), which keeps sparse points, whose kernel
    rows are nearly parallel, accurate to about 1e-15.
    """
    if p.theta != 1:
        raise ParameterError(f"schur_correlation needs theta = 1, got {p.theta}")
    bs = _validate_lattice_points(X)
    if 0 in bs:
        return 0.0
    s = np.sqrt(np.longdouble(p.xi))
    count = int(60 / (1 - p.xi)) + 200
    short = _schur_determinant(bs, p.z, s, count)
    full = _schur_determinant(bs, p.z, s, 2 * count)
    if abs(full - short) > 1e-10 * abs(full):
        raise NumericalError(
            f"Schur-kernel determinant unstable: {full!r} from {2 * count} "
            f"coefficients, {short!r} from {count}"
        )
    return full
