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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, ParameterError, ResourceCapError, validate_z
from .partitions import (
    HALF,
    YoungDiagram,
    _as_fraction,
    conjugate_parts,
    iter_partition_tuples,  # noqa: F401  (re-exported; callers look it up here)
)

LATTICE_NMAX_CAP = 200


@dataclass(frozen=True)
class ZParams:
    """Parameters (z, theta, xi) shared by all measures and kernels."""

    z: complex
    theta: float = 0.5
    xi: float = 0.0

    def __post_init__(self):
        validate_z(self.z)
        if not (self.theta > 0 and math.isfinite(self.theta)):
            raise ParameterError(f"theta must be positive and finite, got {self.theta}")
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
    """Per-(z, theta) evaluator with cached row-Pochhammer log tables."""

    def __init__(self, z: complex, theta: float):
        self.z = complex(z)
        self.theta = float(theta)
        self.a = abs(z) ** 2 / self.theta
        self._row_logs: list[list[float]] = []  # cumulative 2*log|factor|
        self._row_zero: list[int] = []  # first column count hitting a zero factor

    def _ensure_row(self, i: int, length: int):
        while len(self._row_logs) < i:
            self._row_logs.append([0.0])
            self._row_zero.append(1 << 60)
        row = self._row_logs[i - 1]
        base = self.z - (i - 1) * self.theta
        while len(row) <= length:
            j = len(row) - 1
            f = base + j
            af = abs(f)
            if af < 1e-300:
                self._row_zero[i - 1] = min(self._row_zero[i - 1], j + 1)
                row.append(-math.inf)
            else:
                row.append(row[-1] + 2.0 * math.log(af))

    def first_column_zero_row(self, max_rows_scan: int) -> int | None:
        """Smallest i with z - (i-1)theta = 0, scanned up to max_rows_scan."""
        for i in range(1, max_rows_scan + 1):
            if abs(self.z - (i - 1) * self.theta) < 1e-300:
                return i
        return None

    def first_row_zero_col(self, max_cols_scan: int) -> int | None:
        for j in range(1, max_cols_scan + 1):
            if abs(self.z + (j - 1)) < 1e-300:
                return j
        return None

    def measure(self, parts: tuple[int, ...], conj: Sequence[int] | None = None) -> float:
        """Probability mass of ``parts`` under the z-measure at its size.

        ``conj`` is the conjugate (column heights) when the caller already
        has it; the result is the same float either way.
        """
        n = sum(parts)
        if n == 0:
            raise DomainError("z-measure is defined on partitions of n >= 1")
        logs = self._row_logs
        num = 0.0
        for i, p in enumerate(parts):
            try:
                log_row = logs[i][p]
            except IndexError:  # the table does not reach (i, p) yet
                self._ensure_row(i + 1, p)
                log_row = logs[i][p]
            if p >= self._row_zero[i]:
                return 0.0
            num += log_row
        if conj is None:
            conj = conjugate_parts(parts)
        # hook products as renormalized float products, row by row
        th = self.theta
        h = 1.0
        hp = 1.0
        hexp = 0.0
        for i, p in enumerate(parts, start=1):
            for arm, c in zip(range(p - 1, -1, -1), conj):
                x = arm + (c - i) * th
                h *= x + 1.0
                hp *= x + th
            if h > 1e250 or hp > 1e250 or hp < 1e-250:
                hexp += math.log(h) + math.log(hp)
                h = 1.0
                hp = 1.0
        logden = hexp + math.log(h) + math.log(hp)
        logden += math.lgamma(self.a + n) - math.lgamma(self.a)
        return math.exp(math.lgamma(n + 1) + num - logden)


# two entries: callers loop over diagrams at one (z, theta), or at one and
# its dual (-z/theta, 1/theta) in z_measure_symmetry_check
_engine = functools.lru_cache(maxsize=2)(_MeasureEngine)


def z_measure(lam: YoungDiagram, p: ZParams) -> float:
    """M^{(n)}_{z, zbar, theta}(lam) for n = |lam| >= 1."""
    if lam.size == 0:
        raise DomainError("z-measure requires |lam| >= 1")
    return _engine(p.z, float(p.theta)).measure(lam.parts)


def z_measure_symmetry_check(lam: YoungDiagram, p: ZParams) -> tuple[float, float]:
    """Both sides of M_{z,theta}(lam) = M_{-z/theta, 1/theta}(lam')."""
    lhs = z_measure(lam, p)
    th = float(p.theta)
    dual = ZParams(-p.z / th, 1.0 / th, p.xi)
    rhs = z_measure(lam.transpose(), dual)
    return (lhs, rhs)


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


def _positive_coordinate_shifts(theta: Fraction, width: int) -> list[int]:
    """shift[j-1] = ceil((j-1)/theta): rows excluded from column j of the
    negative part."""
    num, den = theta.numerator, theta.denominator
    return [-(-(j * den) // num) for j in range(width)]


def _validate_lattice_points(X: Iterable) -> list[int]:
    """Convert X in Z_{>=0}+1/2 to the integers b = x - 1/2."""
    bs = []
    seen = set()
    for x in X:
        f = Fraction(x)
        if f.denominator != 2 or f < HALF:
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


def _walk_columns(
    n: int,
    shifts: Sequence[int],
    target_bs: Sequence[int],
    max_height: int,
    max_width: int,
    visit,
) -> None:
    """Call ``visit(cols)`` for each partition of n, given by its column
    heights cols, whose positive coordinates contain every target.

    Columns are built left to right, tallest first.  Column j (1-based)
    of height c carries the positive coordinate v = c - shifts[j-1];
    v never increases with j, so the targets are met largest first and
    a prefix is cut as soon as its last v lies below the largest
    unmet target (or at v <= 0, where no positive coordinate exists),
    or the cells left cannot reach the unmet targets.  Heights are at
    most ``max_height``, and there are at most ``max_width`` columns.
    The list passed to ``visit`` is reused; copy it to keep it.
    """
    bs = sorted(target_bs, reverse=True)
    # need[k][j]: fewest cells that columns j+1, j+2, ... (0-based) must
    # hold to meet bs[k:], each unmet target taking a later column; more
    # than n when there are too few columns left
    need = [[0] * (n + 1) for _ in range(len(bs) + 1)]
    for k in range(len(bs) - 1, -1, -1):
        least = max(bs[k], 1)
        row, later = need[k], need[k + 1]
        row[n] = n + 1
        for j in range(n):
            row[j] = least + shifts[j] + later[j + 1]
    if bs:
        _walk_directed([], n, max_height, max_width, 0, bs, need, shifts, visit)
    else:
        _walk_free([], n, max_height, max_width, visit)


def _walk_free(cols: list[int], remaining: int, largest: int, cols_left: int, visit) -> None:
    """Visit each completion of ``cols`` by at most ``cols_left`` columns
    of height at most ``largest`` holding ``remaining`` cells."""
    if remaining == 0:
        visit(cols)
        return
    if largest == 1:
        # the only completion is a run of single cells
        if remaining <= cols_left:
            cols.extend([1] * remaining)
            visit(cols)
            del cols[-remaining:]
        return
    if cols_left == 0:
        return
    lo = -(-remaining // cols_left)
    for c in range(min(largest, remaining), lo - 1, -1):
        cols.append(c)
        _walk_free(cols, remaining - c, c, cols_left - 1, visit)
        cols.pop()


def _walk_directed(
    cols: list[int],
    remaining: int,
    largest: int,
    cols_left: int,
    k: int,
    bs: list[int],
    need: list[list[int]],
    shifts: Sequence[int],
    visit,
) -> None:
    """As ``_walk_free``, for completions that meet the targets bs[k:],
    where ``cols`` already meets bs[:k]."""
    j = len(cols)
    if cols_left < len(bs) - k or remaining < need[k][j]:
        return
    s = shifts[j]
    b = bs[k]
    lo = max(-(-remaining // cols_left), max(b, 1) + s)
    for c in range(min(largest, remaining), lo - 1, -1):
        cols.append(c)
        if c - s != b:
            _walk_directed(cols, remaining - c, c, cols_left - 1, k, bs, need, shifts, visit)
        elif k + 1 < len(bs):
            _walk_directed(cols, remaining - c, c, cols_left - 1, k + 1, bs, need, shifts, visit)
        else:
            _walk_free(cols, remaining - c, c, cols_left - 1, visit)
        cols.pop()


def _stratum_terms(
    n: int,
    eng: _MeasureEngine,
    shifts: Sequence[int],
    target_bs: tuple[int, ...],
    max_rows: int | None,
    max_cols: int | None,
) -> list[tuple[tuple[int, ...], float]]:
    """(parts, measure) for each partition of n with nonzero measure under
    ``eng`` whose positive coordinates contain all target points, at most
    ``max_rows`` rows and at most ``max_cols`` columns, in reverse
    lexicographic order of parts.  ``shifts`` is
    ``_positive_coordinate_shifts`` of theta, at least n long."""
    if n > LATTICE_NMAX_CAP:
        raise ResourceCapError(
            f"partition enumeration capped at n <= {LATTICE_NMAX_CAP}, got {n}"
        )
    terms = []

    def visit(cols):
        parts = tuple(conjugate_parts(cols))
        m = eng.measure(parts, cols)
        if m != 0.0:
            terms.append((parts, m))

    _walk_columns(
        n,
        shifts,
        target_bs,
        n if max_rows is None else min(n, max_rows),
        n if max_cols is None else min(n, max_cols),
        visit,
    )
    # the order iter_partition_tuples yields, so that sums are bit-stable
    terms.sort(reverse=True)
    return terms


def _stratum_sum(
    n: int,
    eng: _MeasureEngine,
    shifts: Sequence[int],
    target_bs: tuple[int, ...],
    max_rows: int | None,
    max_cols: int | None,
) -> tuple[float, int]:
    """Sum of z-measures over partitions of n whose positive coordinates
    contain all target points.  Returns (sum, matching diagram count)."""
    terms = _stratum_terms(n, eng, shifts, target_bs, max_rows, max_cols)
    total = 0.0
    for _, m in terms:
        total += m
    return total, len(terms)


def lattice_correlation(
    X: Sequence,
    p: ZParams,
    n_max: int,
) -> CorrelationReport:
    """Probability that (A|B)_theta(lam) contains X, under the mixed
    z-measure truncated at |lam| <= n_max.

    The truncation bound is the negative-binomial tail mass beyond
    n_max.  Each size n is summed over the partitions of n whose
    positive coordinates contain X, found by a column-by-column walk that
    cuts every prefix no completion of which can contain X; diagrams
    whose measure vanishes identically because of a first-row or
    first-column Pochhammer zero are never generated.  ``terms_summed``
    counts the diagrams with nonzero measure that contain X.  The point
    1/2 is no positive coordinate of any diagram, so an X holding it
    returns 0 without a walk.
    """
    if n_max < 0 or n_max > LATTICE_NMAX_CAP:
        raise ResourceCapError(
            f"n_max must lie in [0, {LATTICE_NMAX_CAP}], got {n_max}"
        )
    target_bs = tuple(_validate_lattice_points(X))
    bound = negative_binomial_tail(n_max, p)
    if 0 in target_bs:
        return CorrelationReport(value=0.0, truncation_bound=bound, n_max_used=n_max, terms_summed=0)
    eng = _engine(p.z, float(p.theta))
    shifts = _positive_coordinate_shifts(_as_fraction(p.theta), n_max)
    zero_row = eng.first_column_zero_row(n_max + 1)
    zero_col = eng.first_row_zero_col(n_max + 1)
    max_rows = None if zero_row is None else zero_row - 1
    max_cols = None if zero_col is None else zero_col - 1

    value = 0.0
    terms = 0
    for n in range(1, n_max + 1):
        s, c = _stratum_sum(n, eng, shifts, target_bs, max_rows, max_cols)
        if s:
            value += negative_binomial_weight(n, p) * s
        terms += c
    return CorrelationReport(value=value, truncation_bound=bound, n_max_used=n_max, terms_summed=terms)
