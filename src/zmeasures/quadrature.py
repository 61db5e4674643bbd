"""Adaptive Gauss-Legendre quadrature on finite intervals.

Panels are estimated with embedded 10- and 20-point rules and bisected
until the local discrepancy meets a tolerance budget proportional to
panel width.  Callers supply breakpoints for known awkward interior
points (near-diagonal kernel arguments, substitution seams).  An
integrand that maps an array of nodes to an array of values can be
marked ``vectorized``: it is then called once per panel on all 30 nodes
instead of once per node.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

_MAX_DEPTH = 40

_rule_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    r = _rule_cache.get(n)
    if r is None:
        r = np.polynomial.legendre.leggauss(n)
        _rule_cache[n] = r
    return r


def _fixed(f, lo: float, hi: float, n: int):
    xs, ws = _rule(n)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    total = 0.0
    for x, w in zip(xs, ws):
        total += w * f(mid + half * x)
    return half * total


def _fixed_pair(f, lo: float, hi: float) -> tuple[float, float]:
    """The 10- and 20-point rules from one call of f on all their nodes."""
    x10, w10 = _rule(10)
    x20, w20 = _rule(20)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    v = f(mid + half * np.concatenate((x10, x20)))
    return half * float(w10 @ v[:10]), half * float(w20 @ v[10:])


def adaptive_gauss_legendre(
    f,
    a: float,
    b: float,
    tol: float = 1e-10,
    breakpoints=(),
    abs_floor: float = 0.0,
    vectorized: bool = False,
    rel_floor: float = 1e-15,
) -> tuple[float, float]:
    """Integrate f over [a, b]; returns (value, error_estimate).

    ``abs_floor`` accepts panels whose absolute discrepancy is already
    negligible even when the width-scaled tolerance is tighter, and
    ``rel_floor`` those whose discrepancy is below that fraction of the
    panel's value: the relative accuracy of f itself, below which bisection
    only chases rounding noise.  Accepted discrepancies are still summed
    into the error estimate.  Raises NumericalError when bisection fails to
    converge.
    """
    if not b > a:
        return 0.0, 0.0
    pts = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
    total = 0.0
    err = 0.0
    for lo, hi in zip(pts, pts[1:]):
        v, e = _panel(f, lo, hi, tol * (hi - lo) / (b - a), 0, (abs_floor, rel_floor), vectorized)
        total += v
        err += e
    return total, err


def _panel(f, lo, hi, tol, depth, floors, vectorized):
    if vectorized:
        coarse, fine = _fixed_pair(f, lo, hi)
    else:
        coarse = _fixed(f, lo, hi, 10)
        fine = _fixed(f, lo, hi, 20)
    e = abs(fine - coarse)
    abs_floor, rel_floor = floors
    if e <= max(tol, rel_floor * abs(fine), abs_floor):
        return fine, e
    if depth >= _MAX_DEPTH:
        raise NumericalError(
            f"quadrature did not converge on [{lo}, {hi}]: panel error {e:.3e} > tol {tol:.3e}"
        )
    mid = 0.5 * (lo + hi)
    v1, e1 = _panel(f, lo, mid, 0.5 * tol, depth + 1, floors, vectorized)
    v2, e2 = _panel(f, mid, hi, 0.5 * tol, depth + 1, floors, vectorized)
    return v1 + v2, e1 + e2
