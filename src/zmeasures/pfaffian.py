"""Pfaffians of real antisymmetric matrices and kernel-block assembly.

Pfaffians come from Parlett-Reid skew-symmetric tridiagonalization with
partial pivoting (O(n^3), sign of every row/column swap tracked exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericalError
from .kernels import KernelContext, KernelParams, matrix_kernel

ANTISYMMETRY_BUILD_TOL = 1e-8
ASSEMBLY_TOL = 1e-6
_NEAR_SINGULAR = 1e-14


@dataclass(frozen=True)
class AntisymmetricMatrix:
    """Even-dimensional real antisymmetric matrix with finite entries: A = -A^T
    exactly, or to ANTISYMMETRY_BUILD_TOL through ``from_array``, which antisymmetrizes."""

    data: np.ndarray

    @staticmethod
    def from_array(a) -> "AntisymmetricMatrix":
        m = np.asarray(a, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"matrix must be square, got shape {m.shape}")
        if m.shape[0] % 2 != 0:
            raise DomainError(f"dimension must be even, got {m.shape[0]}")
        if not np.isfinite(m).all():
            raise DomainError("matrix entries must be finite")
        violation = np.abs(m + m.T).max() if m.size else 0.0
        scale = max(1.0, np.abs(m).max()) if m.size else 1.0
        if violation > ANTISYMMETRY_BUILD_TOL * scale:
            raise DomainError(
                f"matrix is not antisymmetric: max |A + A^T| = {violation:.3e}"
            )
        return AntisymmetricMatrix(0.5 * (m - m.T))

    def __post_init__(self):
        m = self.data
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
            raise DomainError(f"need an even-dimensional square matrix, got {m.shape}")
        if not (np.isfinite(m).all() and (m == -m.T).all()):
            raise DomainError("need finite entries and A = -A^T exactly; from_array antisymmetrizes")


def pfaffian(A: AntisymmetricMatrix | np.ndarray) -> float:
    """Pfaffian via Parlett-Reid tridiagonalization with pivoting.

    Near-singular pivots (below 1e-14 times the matrix scale) make the
    Pfaffian numerically zero and 0.0 is returned directly.
    """
    if not isinstance(A, AntisymmetricMatrix):
        A = AntisymmetricMatrix.from_array(A)
    m = A.data.copy()
    n = m.shape[0]
    if n == 0:
        return 1.0
    scale = max(np.abs(m).max(), 1e-300)
    sign = 1.0
    prod = 1.0
    for k in range(0, n - 1, 2):
        # pivot: bring the largest |m[k, j]|, j > k, into position k+1
        col = np.abs(m[k, k + 1 :])
        j = int(np.argmax(col)) + k + 1
        if col[j - k - 1] <= _NEAR_SINGULAR * scale:
            return 0.0
        if j != k + 1:
            m[[k + 1, j], :] = m[[j, k + 1], :]
            m[:, [k + 1, j]] = m[:, [j, k + 1]]
            sign = -sign
        piv = m[k, k + 1]
        prod *= piv
        if k + 2 < n:
            tau = m[k, k + 2 :] / piv
            col = m[k + 2 :, k + 1].copy()
            # eliminate row/column k against the pivot pair (k, k+1)
            m[k + 2 :, k + 2 :] += np.outer(tau, col)
            m[k + 2 :, k + 2 :] -= np.outer(col, tau)
            m[k + 1, k + 2 :] = 0.0
            m[k + 2 :, k + 1] = 0.0
    return sign * prod


def assemble(
    points: Sequence[float], kernel: KernelParams | KernelContext
) -> AntisymmetricMatrix:
    """2n x 2n matrix with 2x2 blocks [[S, S_y], [S_x, S_xy]](x_i, x_j).

    Given ``KernelParams`` the blocks are ``matrix_kernel`` values (the
    mpmath reference route); given a ``KernelContext`` they come from its
    Taylor tables, after ``KernelContext.prepare`` has built the diagonal
    series of all points in one batch and integrated A and B at each point
    as one pair.  Blocks share work but not values: each block's integrals
    are the floats that block alone would get, so the matrix is not made
    antisymmetric by construction.  If it fails antisymmetry beyond
    ASSEMBLY_TOL the kernel values are inconsistent and a NumericalError is
    raised rather than silently repairing them.
    """
    xs = [float(x) for x in points]
    if not all(0 < x < math.inf for x in xs):
        raise DomainError(f"points must be positive and finite, got {xs}")
    if len(set(xs)) != len(xs):
        raise DomainError(f"points must be distinct, got {xs}")
    if isinstance(kernel, KernelContext):
        kernel.prepare(xs)
        block = kernel.block
    else:
        def block(x, y):
            return matrix_kernel(x, y, kernel)
    n = len(xs)
    m = np.zeros((2 * n, 2 * n))
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            m[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = block(x, y).as_array()
    if not np.isfinite(m).all():
        raise NumericalError("assembled kernel matrix has a non-finite entry")
    violation = np.abs(m + m.T).max()
    if violation > ASSEMBLY_TOL * max(1.0, np.abs(m).max()):
        raise NumericalError(
            f"assembled kernel matrix violates antisymmetry: {violation:.3e}"
        )
    # exactly antisymmetric already: m - m.T negates under transposition
    return AntisymmetricMatrix(0.5 * (m - m.T))
