"""Pfaffians of real antisymmetric matrices and kernel-block assembly.

The production path is Parlett-Reid skew-symmetric tridiagonalization
with partial pivoting (O(n^3), sign of every row/column swap tracked
exactly); a recursive first-row expansion is kept as an independent
oracle for small matrices.
"""

from __future__ import annotations

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
    """Even-dimensional real antisymmetric matrix; construction enforces
    A = -A^T to ANTISYMMETRY_BUILD_TOL and then antisymmetrizes exactly."""

    data: np.ndarray

    @staticmethod
    def from_array(a) -> "AntisymmetricMatrix":
        m = np.asarray(a, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"matrix must be square, got shape {m.shape}")
        if m.shape[0] % 2 != 0:
            raise DomainError(f"dimension must be even, got {m.shape[0]}")
        violation = np.abs(m + m.T).max() if m.size else 0.0
        scale = max(1.0, np.abs(m).max()) if m.size else 1.0
        if violation > ANTISYMMETRY_BUILD_TOL * scale:
            raise DomainError(
                f"matrix is not antisymmetric: max |A + A^T| = {violation:.3e}"
            )
        sym = 0.5 * (m - m.T)
        out = AntisymmetricMatrix.__new__(AntisymmetricMatrix)
        object.__setattr__(out, "data", sym)
        return out

    def __post_init__(self):
        m = self.data
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
            raise DomainError(f"need an even-dimensional square matrix, got {m.shape}")
        if m.size and np.abs(m + m.T).max() > 0.0:
            raise DomainError("use AntisymmetricMatrix.from_array to antisymmetrize")

    @property
    def dim(self) -> int:
        return self.data.shape[0]


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


def pfaffian_expansion(A: AntisymmetricMatrix | np.ndarray) -> float:
    """Recursive first-row expansion Pf(A) = sum_j (-1)^j a_{0j} Pf(A_{0j});
    exponential cost, retained as an oracle for dimensions <= 8."""
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


def assemble(
    points: Sequence[float], kernel: KernelParams | KernelContext
) -> AntisymmetricMatrix:
    """2n x 2n matrix with 2x2 blocks [[S, S_y], [S_x, S_xy]](x_i, x_j).

    Given ``KernelParams`` the blocks are ``matrix_kernel`` values (the
    mpmath reference route); given a ``KernelContext`` they come from its
    Taylor tables.  Every block is computed independently; if the result
    fails antisymmetry beyond ASSEMBLY_TOL the kernel values are
    inconsistent and a NumericalError is raised rather than silently
    repairing them.
    """
    xs = [float(x) for x in points]
    if len(set(xs)) != len(xs):
        raise DomainError(f"points must be distinct, got {xs}")
    if any(x <= 0 for x in xs):
        raise DomainError(f"points must be positive, got {xs}")
    if isinstance(kernel, KernelContext):
        block = kernel.block
    else:
        def block(x, y):
            return matrix_kernel(x, y, kernel)
    n = len(xs)
    m = np.zeros((2 * n, 2 * n))
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            m[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = block(x, y).as_array()
    violation = np.abs(m + m.T).max()
    if violation > ASSEMBLY_TOL * max(1.0, np.abs(m).max()):
        raise NumericalError(
            f"assembled kernel matrix violates antisymmetry: {violation:.3e}"
        )
    return AntisymmetricMatrix.from_array(0.5 * (m - m.T))
