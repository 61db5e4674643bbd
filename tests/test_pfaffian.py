import sys

import numpy as np
import pytest

from zmeasures.errors import DomainError, NumericalError
from zmeasures.kernels import KernelParams
from zmeasures.pfaffian import AntisymmetricMatrix, assemble, pfaffian

from oracles import pfaffian_expansion


def random_skew(rng, d):
    a = rng.standard_normal((d, d))
    return a - a.T


def test_construction_validation():
    with pytest.raises(DomainError):
        AntisymmetricMatrix.from_array(np.zeros((3, 3)))
    with pytest.raises(DomainError):
        AntisymmetricMatrix.from_array(np.ones((2, 2)))
    m = AntisymmetricMatrix.from_array([[0, 1.0], [-1.0, 0]])
    assert m.data.shape[0] == 2


@pytest.mark.parametrize("v", [np.nan, np.inf])
def test_non_finite_entries_are_refused(v):
    # every comparison with NaN is false, and inf - (-inf) antisymmetrizes
    # to inf: both used to pass the antisymmetry checks
    with pytest.raises(DomainError, match="finite"):
        pfaffian([[0.0, v], [-v, 0.0]])
    with pytest.raises(DomainError, match="finite"):
        AntisymmetricMatrix(np.array([[0.0, v], [-v, 0.0]]))


def test_constructor_takes_exact_antisymmetry_only():
    a = np.array([[0.0, 2.0], [-2.0, 0.0]])
    assert AntisymmetricMatrix(a).data is a
    with pytest.raises(DomainError, match="from_array"):
        AntisymmetricMatrix(np.array([[0.0, 2.0], [-2.0 + 1e-15, 0.0]]))


def test_assemble_refuses_a_non_finite_block(monkeypatch):
    from zmeasures.kernels import MatrixKernelValue

    # the module, which the package's own name pfaffian shadows
    nan_block = MatrixKernelValue(0.0, np.nan, np.nan, 0.0, 0.0)
    monkeypatch.setattr(sys.modules["zmeasures.pfaffian"], "matrix_kernel", lambda x, y, p: nan_block)
    with pytest.raises(NumericalError, match="non-finite"):
        assemble([1.0, 2.0], KernelParams(0.3 + 0.4j))


def test_two_by_two():
    assert pfaffian(np.array([[0.0, 3.5], [-3.5, 0.0]])) == 3.5


def test_four_by_four_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = random_skew(rng, 4)
        ref = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
        assert pfaffian(a) == pytest.approx(ref, rel=1e-12)


def test_square_is_determinant():
    rng = np.random.default_rng(1)
    for d in range(2, 13, 2):
        for _ in range(5):
            a = random_skew(rng, d)
            pf = pfaffian(a)
            assert pf * pf == pytest.approx(np.linalg.det(a), rel=1e-10)


def test_expansion_oracle():
    rng = np.random.default_rng(2)
    for d in (2, 4, 6, 8):
        a = random_skew(rng, d)
        assert pfaffian(a) == pytest.approx(pfaffian_expansion(a), rel=1e-10)
    with pytest.raises(DomainError):
        pfaffian_expansion(random_skew(rng, 10))


def test_permutation_sign_covariance():
    rng = np.random.default_rng(3)
    for d in (4, 6, 8):
        a = random_skew(rng, d)
        perm = rng.permutation(d)
        P = np.eye(d)[:, perm]
        for i in range(d):
            if rng.random() < 0.5:
                P[:, i] *= -1.0
        det_p = round(np.linalg.det(P))
        assert pfaffian(P.T @ a @ P) == pytest.approx(det_p * pfaffian(a), rel=1e-10)


def test_near_singular_returns_zero():
    a = np.zeros((4, 4))
    a[0, 1], a[1, 0] = 1.0, -1.0
    assert pfaffian(a) == 0.0


def test_assemble_validation():
    p = KernelParams(0.3 + 0.4j)
    with pytest.raises(DomainError):
        assemble([1.0, 1.0], p)
    with pytest.raises(DomainError):
        assemble([1.0, -2.0], p)


def test_assemble_single_point_block():
    from zmeasures.kernels import S_partials

    p = KernelParams(0.3 + 0.4j)
    x = 2.4
    m = assemble([x], p)
    sx, sy, _ = S_partials(x, x, p)
    assert m.data[0, 1] == pytest.approx(sy, abs=1e-10)
    assert m.data[1, 0] == pytest.approx(sx, abs=1e-10)
    assert m.data[0, 0] == pytest.approx(0.0, abs=1e-10)


def test_assemble_block_permutation_invariance():
    p = KernelParams(0.3 + 0.4j)
    pts = [1.0, 2.0, 3.5]
    v1 = pfaffian(assemble(pts, p))
    v2 = pfaffian(assemble([3.5, 1.0, 2.0], p))
    assert v2 == pytest.approx(v1, rel=1e-8, abs=1e-24)
