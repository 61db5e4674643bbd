"""Reference implementations that the tests compare the package against.

The package's callers use none of these.  Some are independent routes to
a value the package computes another way (the recursive Pfaffian, the
Tricomi integral for W, the generalized Pochhammer symbol box by box,
the preimages of a projection by search); some restate an identity (the
duality of the z-measure); the rest enumerate test cases or expose
intermediate results.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from zmeasures import specfun
from zmeasures.errors import DomainError
from zmeasures.measures import ZParams, _MeasureEngine, _walk_stratum, _weigh, z_measure
from zmeasures.pairings import Matching, enumerate_matchings, project
from zmeasures.partitions import YoungDiagram, _as_fraction, conjugate_parts, hook_rows, iter_partition_tuples
from zmeasures.pfaffian import AntisymmetricMatrix
from zmeasures.quadrature import adaptive_gauss_legendre

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


def whittaker_integral(k, m, x: float) -> float:
    """W_{k,m}(x) from the real-integral representation of the Tricomi
    function, independent of ``specfun.whittaker_W``'s mpmath and
    asymptotic-series route; the same argument checks.  Admissible for
    Re(m - k + 1/2) > 0 after the m -> -m symmetry, DomainError otherwise."""
    kc, mc = complex(k), complex(m)
    if not (kc.imag == 0 and (mc.imag == 0 or mc.real == 0)):
        raise DomainError(
            f"need k real and m real or purely imaginary, got k={k}, m={m}"
        )
    specfun._validate(kc, mc, x)
    return specfun._realify(_tricomi_whittaker(kc, mc, float(x)))


def _tricomi_whittaker(k: complex, m: complex, x: float) -> complex:
    """Tricomi integral: U(a,b,x) = Gamma(a)^{-1} int_0^inf e^{-xt}
    t^{a-1} (1+t)^{b-a-1} dt, with the m -> -m symmetry used to get the
    admissible sign and a power substitution taming the endpoint."""
    candidates = [m, -m]
    candidates.sort(key=lambda mm: -(mm - k + 0.5).real)
    mu = candidates[0]
    a = mu - k + 0.5
    if a.real <= 0.05:
        raise DomainError(
            f"integral representation inadmissible: Re(m - k + 1/2) = {a.real:.3f}"
        )
    b = 1.0 + 2.0 * mu
    q = max(1, math.ceil(2.0 / a.real))
    qa = q * a

    def near(v: float) -> complex:
        # t = v^q on t in [0, 1]
        if v == 0.0:
            return 0.0
        t = v**q
        return q * cmath.exp(-x * t + (qa - 1) * math.log(v) + (b - a - 1) * math.log1p(t))

    def far(t: float) -> complex:
        return cmath.exp(-x * t + (a - 1) * math.log(t) + (b - a - 1) * math.log1p(t))

    # crude scale from the t <= 1 piece for tail cutoff control
    p = max((a - 1).real + (b - a - 1).real, 0.0)
    T = 2.0
    while x * T - p * math.log(T) < 45.0 and T < 1e8:
        T *= 2.0
    breaks = []
    s = 2.0
    while s < T:
        breaks.append(s)
        s *= 2.0

    tol = 1e-13
    v1 = _quad_complex(near, 0.0, 1.0, tol)
    v2 = _quad_complex(far, 1.0, T, tol, breaks)
    u = (v1 + v2) * cmath.exp(-specfun.log_gamma(a))
    return cmath.exp(-x / 2 + (mu + 0.5) * cmath.log(x)) * u


def _quad_complex(f, lo, hi, tol, breaks=()) -> complex:
    """The real and imaginary parts as the two components of one integrand,
    each on its own panel tree, so f is called once per node."""

    def parts(t: float) -> tuple[float, float]:
        v = f(t)
        return v.real, v.imag

    (re, _), (im, _) = adaptive_gauss_legendre(
        parts, lo, hi, tol, breaks, abs_floor=1e-20, components=2
    )
    return complex(re, im)


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


def coset_type_union_find(g: Perm) -> tuple[int, ...]:
    """Half-sizes of the components of the graph on {0..2n-1} with edges
    (2i, 2i+1) and (g(2i), g(2i+1)), by union-find, largest first: the
    coset type by a route independent of the circle walk."""
    size = len(g)
    parent = list(range(size))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(0, size, 2):
        for a, b in ((i, i + 1), (g[i], g[i + 1])):
            parent[find(a)] = find(b)
    sizes: dict[int, int] = {}
    for v in range(size):
        r = find(v)
        sizes[r] = sizes.get(r, 0) + 1
    assert all(s % 2 == 0 for s in sizes.values()), "odd component"
    return tuple(sorted((s // 2 for s in sizes.values()), reverse=True))


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
    """(parts, measure) for each diagram of nonzero measure that
    ``measures._stratum_sum`` adds up, in its order: the stratum walked
    afresh under the engine's zero cut and weighed by ``_weigh``."""
    parts, hooks = _walk_stratum(n, eng.theta, shifts, target_bs, eng.zero_cut(n))
    m = _weigh(n, eng, parts, hooks).tolist()
    return [(tuple(int(v) for v in row if v), mv) for row, mv in zip(parts, m) if mv != 0.0]


def z_measure_symmetry_check(lam: YoungDiagram, p: ZParams) -> tuple[float, float]:
    """Both sides of M_{z,theta}(lam) = M_{-z/theta, 1/theta}(lam')."""
    lhs = z_measure(lam, p)
    th = float(p.theta)
    dual = ZParams(-p.z / th, 1.0 / th, p.xi)
    rhs = z_measure(YoungDiagram(tuple(conjugate_parts(lam.parts))), dual)
    return (lhs, rhs)
