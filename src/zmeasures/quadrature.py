"""Adaptive Gauss-Legendre quadrature on finite intervals.

Panels are estimated with embedded 10- and 20-point rules and bisected
until the local discrepancy meets a tolerance budget proportional to
panel width.  Callers supply breakpoints for known awkward interior
points (near-diagonal kernel arguments, substitution seams).  An
integrand that maps an array of nodes to an array of values can be
marked ``vectorized``: it is then called once per panel on all 30 nodes
instead of once per node.

An integrand has k = ``components`` components, one by default: it
returns k values per node, or a (k, nodes) array when vectorized, and is
called once per panel that any component still refines.  Each component
keeps its own panel tree, tolerance halving, floors and error sum, so its
(value, error) is the same float that a one-component call on that
component alone returns; the components only share the evaluations.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NumericalError

_MAX_DEPTH = 40


@functools.cache
def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _fixed(f, lo: float, hi: float, n: int) -> list:
    """The n-point rule of every component, one call of f per node."""
    xs, ws = _rule(n)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    vals = [f(mid + half * x) for x in xs]
    out = []
    for c in range(len(vals[0])):
        total = 0.0
        for w, v in zip(ws, vals):
            total += w * v[c]
        out.append(half * total)
    return out


def _fixed_pair(f, lo: float, hi: float) -> tuple[list, list]:
    """The 10- and 20-point rules of every component from one call of f on
    all their nodes."""
    x10, w10 = _rule(10)
    x20, w20 = _rule(20)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    v = f(mid + half * np.concatenate((x10, x20)))
    return (
        [half * float(w10 @ row[:10]) for row in v],
        [half * float(w20 @ row[10:]) for row in v],
    )


def adaptive_gauss_legendre(
    f,
    a: float,
    b: float,
    tol: float = 1e-10,
    breakpoints=(),
    abs_floor: float = 0.0,
    vectorized: bool = False,
    rel_floor: float = 1e-15,
    components: int = 1,
) -> list[tuple[float, float]]:
    """Integrate each component of f over [a, b]; returns one
    (value, error_estimate) per component.

    ``abs_floor`` accepts panels whose absolute discrepancy is already
    negligible even when the width-scaled tolerance is tighter, and
    ``rel_floor`` those whose discrepancy is below that fraction of the
    panel's value: the relative accuracy of f itself, below which bisection
    only chases rounding noise.  Accepted discrepancies are still summed
    into the error estimate.  Raises NumericalError when bisection fails to
    converge for any component.
    """
    totals = [(0.0, 0.0)] * components
    if b > a:
        pts = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
        for lo, hi in zip(pts, pts[1:]):
            out = _panel(
                f, lo, hi, tol * (hi - lo) / (b - a), 0, (abs_floor, rel_floor),
                vectorized, range(components),
            )
            totals = [(v + out[c][0], e + out[c][1]) for c, (v, e) in enumerate(totals)]
    return totals


def _panel(f, lo, hi, tol, depth, floors, vectorized, active) -> dict:
    """{component: (value, error)} on [lo, hi] for the components in
    ``active``; the rest bisect further."""
    if vectorized:
        coarse, fine = _fixed_pair(f, lo, hi)
    else:
        coarse = _fixed(f, lo, hi, 10)
        fine = _fixed(f, lo, hi, 20)
    abs_floor, rel_floor = floors
    out = {}
    refine = []
    for c in active:
        e = abs(fine[c] - coarse[c])
        if e <= max(tol, rel_floor * abs(fine[c]), abs_floor):
            out[c] = (fine[c], e)
        else:
            refine.append((c, e))
    if not refine:
        return out
    if depth >= _MAX_DEPTH:
        e = refine[0][1]
        raise NumericalError(
            f"quadrature did not converge on [{lo}, {hi}]: panel error {e:.3e} > tol {tol:.3e}"
        )
    active = [c for c, _ in refine]
    mid = 0.5 * (lo + hi)
    left = _panel(f, lo, mid, 0.5 * tol, depth + 1, floors, vectorized, active)
    right = _panel(f, mid, hi, 0.5 * tol, depth + 1, floors, vectorized, active)
    for c in active:
        out[c] = (left[c][0] + right[c][0], left[c][1] + right[c][1])
    return out
