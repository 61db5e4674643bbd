"""Continuum correlation functions and the lattice scaling-limit harness.

The continuum n-point function is the Pfaffian of the assembled 2n x 2n
kernel matrix, whose blocks come from a ``kernels.KernelContext`` held
across calls for the two most recent z (``kernels._context``): Taylor
tables of the Whittaker functions, seeded by four ``whittaker_W`` calls
at x = 200 and checked against the mpmath route in the tests, so no
mpmath call is made per quadrature node and the Poincare-series stall
above x = 40 no longer refuses a correlation.  A block depends only on
(z, x, y), so repeated calls at one z, such as the ``verify_limit``
ladders over one u-set, reuse the tables and blocks.  The
harness rescales lattice correlation probabilities
by (1-xi)^{-n} along a xi-ladder, with the lattice points chosen as the
half-integers nearest to u/(1-xi) (ties broken downward, computed in
exact rational arithmetic for reproducibility), and compares against the
continuum value, carrying certified truncation bounds throughout.  Its
``n_max`` has the lattice side's cap, ``measures.LATTICE_NMAX_CAP``, and
a refused u or xi is reported as the float nearest it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import kernels
from .errors import DomainError, ParameterError, validate_n_max
from .kernels import KernelParams
from .measures import LATTICE_NMAX_CAP, CorrelationReport, ZParams, lattice_correlation
from .pfaffian import assemble, pfaffian

DEFAULT_NMAX = 80


def continuum_correlation(points: Sequence[float], z: complex) -> float:
    """rho_n(x_1, ..., x_n): Pfaffian of the assembled kernel matrix,
    with the blocks taken from the KernelContext of z, built on the first
    call at z and kept for the two most recent z."""
    params = KernelParams(complex(z))
    return pfaffian(assemble(points, kernels._context(params)))


def _exact(v, what: str = "value") -> Fraction:
    """Exact rational from a float or string via its shortest repr, so
    command-line decimals like 0.9 mean exactly 9/10; malformed and
    non-finite input is refused with ParameterError."""
    if isinstance(v, Fraction):
        return v
    try:
        return Fraction(str(v))
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"{what} must be a finite number, got {v!r}") from None


def _shown(v: Fraction) -> str:
    """v for a message as the float nearest it: 1e+300, not 301 digits."""
    return repr(float(v)) if abs(v) <= sys.float_info.max else ("inf" if v > 0 else "-inf")


def lattice_point_for(u, xi) -> Fraction:
    """The element of Z_{>=0} + 1/2 nearest to u/(1-xi); on ties the
    smaller half-integer wins; clamped below at 1/2."""
    uf = _exact(u, "u")
    xif = _exact(xi, "xi")
    if not 0 <= xif < 1:
        raise ParameterError(f"xi must lie in [0, 1), got {_shown(xif)}")
    if not uf > 0:
        raise DomainError(f"u must be positive, got {_shown(uf)}")
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
    n_max = validate_n_max(n_max, LATTICE_NMAX_CAP)
    n = len(us)
    # the whole ladder is checked before any correlation is computed
    exact_us = [_exact(u, "u") for u in u_points]
    ladder = [_exact(xi, "xi") for xi in xi_ladder]
    rungs = []
    for xi, xif in zip(xi_ladder, ladder):
        pts = tuple(lattice_point_for(u, xif) for u in exact_us)
        if len(set(pts)) != len(pts):
            raise DomainError(
                f"u-points collapse to coincident lattice points {pts} at xi={xi}"
            )
        rungs.append(pts)
    cont = continuum_correlation(us, z)

    rescaled: list[float] = []
    bounds: list[float] = []
    deviations: list[float] = []
    rel_devs: list[float] = []
    inconclusive: list[bool] = []
    for xif, pts in zip(ladder, rungs):
        zp = ZParams(complex(z), 0.5, float(xif))
        rep: CorrelationReport = lattice_correlation(pts, zp, n_max)
        scale = float((1 - xif)) ** (-n)
        val = rep.value * scale
        bound = rep.truncation_bound * scale
        dev = abs(val - cont)
        denom = max(abs(val), abs(cont))
        rescaled.append(val)
        bounds.append(bound)
        deviations.append(dev)
        rel_devs.append(dev / denom if denom > 0 else 0.0)
        inconclusive.append(bound > 0.1 * abs(val) if val != 0 else bound > 0)
    return LimitReport(
        u_points=tuple(us),
        z=complex(z),
        xi_ladder=tuple(float(xif) for xif in ladder),
        lattice_points=tuple(rungs),
        rescaled_lattice=tuple(rescaled),
        rescaled_bounds=tuple(bounds),
        continuum=cont,
        deviations=tuple(deviations),
        relative_deviations=tuple(rel_devs),
        n_max_used=n_max,
        inconclusive=tuple(inconclusive),
    )
