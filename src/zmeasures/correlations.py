"""Continuum correlation functions and the lattice scaling-limit harness.

The continuum n-point function is the Pfaffian of the assembled 2n x 2n
kernel matrix, whose blocks come from one ``kernels.KernelContext`` per
call: Taylor tables of the Whittaker functions, seeded by four
``whittaker_W`` calls at x = 200 and checked against the mpmath route in
the tests, so no mpmath call is made per quadrature node and the
Poincare-series stall above x = 40 no longer refuses a correlation.  The
harness rescales lattice correlation probabilities
by (1-xi)^{-n} along a xi-ladder, with the lattice points chosen as the
half-integers nearest to u/(1-xi) (ties broken downward, computed in
exact rational arithmetic for reproducibility), and compares against the
continuum value, carrying certified truncation bounds throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, ParameterError, ResourceCapError
from .kernels import KernelContext, KernelParams
from .measures import CorrelationReport, ZParams, lattice_correlation
from .pfaffian import assemble, pfaffian

VERIFY_NMAX_CAP = 200
DEFAULT_NMAX = 80


def continuum_correlation(points: Sequence[float], z: complex) -> float:
    """rho_n(x_1, ..., x_n): Pfaffian of the assembled kernel matrix,
    with the blocks taken from one KernelContext built for z."""
    params = KernelParams(complex(z))
    return pfaffian(assemble(points, KernelContext(params)))


def _exact(v) -> Fraction:
    """Exact rational from a float or string via its shortest repr, so
    command-line decimals like 0.9 mean exactly 9/10."""
    if isinstance(v, Fraction):
        return v
    return Fraction(str(v))


def lattice_point_for(u, xi) -> Fraction:
    """The element of Z_{>=0} + 1/2 nearest to u/(1-xi); on ties the
    smaller half-integer wins; clamped below at 1/2."""
    uf = _exact(u)
    xif = _exact(xi)
    if not 0 <= xif < 1:
        raise ParameterError(f"xi must lie in [0, 1), got {xi}")
    if not uf > 0:
        raise DomainError(f"u must be positive, got {u}")
    y = uf / (1 - xif)
    # nearest m + 1/2 with round-half-down: m = ceil(y - 1)
    m = max(math.ceil(y - 1), 0)
    return Fraction(2 * m + 1, 2)


@dataclass(frozen=True)
class LimitReport:
    """Scaling-limit comparison along a xi-ladder."""

    u_points: tuple[float, ...]
    z: complex
    xi_ladder: tuple[float, ...]
    lattice_points: tuple[tuple[Fraction, ...], ...]
    rescaled_lattice: tuple[float, ...]
    rescaled_bounds: tuple[float, ...]
    continuum: float
    deviations: tuple[float, ...]
    relative_deviations: tuple[float, ...]
    n_max_used: int
    inconclusive: tuple[bool, ...]


def verify_limit(
    u_points: Sequence[float],
    z: complex,
    xi_ladder: Sequence,
    n_max: int = DEFAULT_NMAX,
) -> LimitReport:
    """Compare (1-xi)^{-n} * lattice correlation at the nearest lattice
    points against the continuum Pfaffian value, for each xi.

    An entry is flagged inconclusive when its certified truncation bound
    exceeds 10% of the lattice value, so trend assertions downstream can
    distinguish 'failed' from 'not resolvable at this n_max'.
    """
    us = [float(u) for u in u_points]
    if len(set(us)) != len(us):
        raise DomainError(f"u-points must be distinct, got {us}")
    if n_max < 0 or n_max > VERIFY_NMAX_CAP:
        raise ResourceCapError(f"n_max must lie in [0, {VERIFY_NMAX_CAP}]")
    n = len(us)
    cont = continuum_correlation(us, z)

    lattice_pts: list[tuple[Fraction, ...]] = []
    rescaled: list[float] = []
    bounds: list[float] = []
    deviations: list[float] = []
    rel_devs: list[float] = []
    inconclusive: list[bool] = []
    for xi in xi_ladder:
        xif = _exact(xi)
        pts = tuple(lattice_point_for(_exact(u), xif) for u in u_points)
        if len(set(pts)) != len(pts):
            raise DomainError(
                f"u-points collapse to coincident lattice points {pts} at xi={xi}"
            )
        zp = ZParams(complex(z), 0.5, float(xif))
        rep: CorrelationReport = lattice_correlation(pts, zp, n_max)
        scale = float((1 - xif)) ** (-n)
        val = rep.value * scale
        bound = rep.truncation_bound * scale
        dev = abs(val - cont)
        denom = max(abs(val), abs(cont))
        lattice_pts.append(pts)
        rescaled.append(val)
        bounds.append(bound)
        deviations.append(dev)
        rel_devs.append(dev / denom if denom > 0 else 0.0)
        inconclusive.append(bound > 0.1 * abs(val) if val != 0 else bound > 0)
    return LimitReport(
        u_points=tuple(us),
        z=complex(z),
        xi_ladder=tuple(float(_exact(x)) for x in xi_ladder),
        lattice_points=tuple(lattice_pts),
        rescaled_lattice=tuple(rescaled),
        rescaled_bounds=tuple(bounds),
        continuum=cont,
        deviations=tuple(deviations),
        relative_deviations=tuple(rel_devs),
        n_max_used=n_max,
        inconclusive=tuple(inconclusive),
    )
