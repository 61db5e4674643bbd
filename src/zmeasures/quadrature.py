"""Adaptive Gauss-Legendre quadrature on finite intervals.

Panels are estimated with embedded 10- and 20-point rules and bisected
until the local discrepancy meets a tolerance budget proportional to
panel width, or falls below a relative floor or the absolute floor
1e-20.  Callers supply breakpoints for known awkward interior points
(near-diagonal kernel arguments, substitution seams).  One evaluator
(``_rules``) forms a panel's 30 nodes, the 10-point ones first, and
sums both rules from them.  An integrand that maps an array of nodes to
an array of values can be marked ``vectorized``: it is then called once
per panel on all 30 nodes instead of once per node.

An integrand has k = ``components`` components, one by default: it
returns k values per node, or a (k, nodes) array when vectorized, and is
called once per panel that any component still refines.  Each component
keeps its own panel tree, tolerance halving, floors and error sum, so its
(value, error) is the same float that a one-component call on that
component alone returns; the components only share the evaluations.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

_MAX_DEPTH = 40
# a panel whose discrepancy is below this is accepted at any tolerance
_ABS_FLOOR = 1e-20
# the 10-point nodes, then the 20-point ones, on [-1, 1]; a panel's rules
# read the weights of each against its slice of the 30 values
_X10, _W10 = np.polynomial.legendre.leggauss(10)
_X20, _W20 = np.polynomial.legendre.leggauss(20)
_NODES = np.concatenate((_X10, _X20))
_RULES = ((_W10, slice(0, 10)), (_W20, slice(10, 30)))


def _rules(f, lo: float, hi: float, vectorized: bool) -> list[list]:
    """The 10- and 20-point rules of every component on [lo, hi].  A
    vectorized f is called once on all 30 nodes and each rule is a dot
    product; any other f is called once per node, 10-point nodes first, and
    each component is summed in node order from 0.0."""
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (lo + hi) + half * _NODES
    if vectorized:
        v = f(nodes)
        return [[half * float(w @ row[part]) for row in v] for w, part in _RULES]
    vals = [f(x) for x in nodes]
    out = []
    for w, part in _RULES:
        sums = [0.0] * len(vals[0])
        for wi, v in zip(w, vals[part]):
            for c, vc in enumerate(v):
                sums[c] += wi * vc
        out.append([half * total for total in sums])
    return out


def adaptive_gauss_legendre(
    f,
    a: float,
    b: float,
    tol: float = 1e-10,
    breakpoints=(),
    vectorized: bool = False,
    rel_floor: float = 1e-15,
    components: int = 1,
) -> list[tuple[float, float]]:
    """Integrate each component of f over [a, b]; returns one
    (value, error_estimate) per component.

    A panel is accepted when its discrepancy meets the width-scaled
    tolerance, or is below ``rel_floor`` times the panel's value (the
    relative accuracy of f itself, below which bisection only chases
    rounding noise), or below ``_ABS_FLOOR`` = 1e-20.  Accepted
    discrepancies are still summed into the error estimate.  Raises
    NumericalError when bisection fails to converge for any component.
    """
    totals = [(0.0, 0.0)] * components
    if b > a:
        pts = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
        for lo, hi in zip(pts, pts[1:]):
            out = _panel(
                f, lo, hi, tol * (hi - lo) / (b - a), 0, rel_floor, vectorized, range(components),
            )
            totals = [(v + out[c][0], e + out[c][1]) for c, (v, e) in enumerate(totals)]
    return totals


def _panel(f, lo, hi, tol, depth, rel_floor, vectorized, active) -> dict:
    """{component: (value, error)} on [lo, hi] for the components in
    ``active``; the rest bisect further."""
    coarse, fine = _rules(f, lo, hi, vectorized)
    out = {}
    refine = []
    for c in active:
        e = abs(fine[c] - coarse[c])
        if e <= max(tol, rel_floor * abs(fine[c]), _ABS_FLOOR):
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
    left = _panel(f, lo, mid, 0.5 * tol, depth + 1, rel_floor, vectorized, active)
    right = _panel(f, mid, hi, 0.5 * tol, depth + 1, rel_floor, vectorized, active)
    for c in active:
        out[c] = (left[c][0] + right[c][0], left[c][1] + right[c][1])
    return out
