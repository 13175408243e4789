import math
import re

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from cgmagnus import (
    NonHermitianInput,
    NotUnitary,
    PauliCoeffs,
    Unitary2,
    compose,
    decompose,
    expm_pauli,
    min_fidelity,
)
from cgmagnus.pauli import ID2, SIGMA1, SIGMA2, unitarity_defect

from conftest import random_unitary


def test_compose_sigma3_diagonal():
    eps = 1.7
    m = compose(PauliCoeffs(0, 0, 0, -eps / 2))
    np.testing.assert_allclose(m, np.diag([-eps / 2, eps / 2]), atol=0)


def test_compose_identity_and_sigma1():
    np.testing.assert_array_equal(compose(PauliCoeffs(1, 0, 0, 0)), ID2)
    np.testing.assert_array_equal(compose(PauliCoeffs(0, 1, 0, 0)), SIGMA1)


def test_decompose_trivial_cases():
    assert decompose(np.eye(2)) == PauliCoeffs(1, 0, 0, 0)
    assert decompose(SIGMA2) == PauliCoeffs(0, 0, 1, 0)


def test_decompose_compose_roundtrip(rng):
    for _ in range(200):
        p = PauliCoeffs(*rng.normal(size=4))
        q = decompose(compose(p))
        for a, b in zip((p.c0, p.c1, p.c2, p.c3), (q.c0, q.c1, q.c2, q.c3)):
            assert abs(a - b) < 1e-12


def test_compose_decompose_stacks_roundtrip(rng):
    c = rng.normal(size=(4, 3, 5))
    m = compose(PauliCoeffs(*c))
    assert m.shape == (3, 5, 2, 2)
    for idx in np.ndindex(3, 5):
        np.testing.assert_array_equal(m[idx], compose(PauliCoeffs(*c[(slice(None),) + idx])))
    q = decompose(m)
    np.testing.assert_allclose(np.array([q.c0, q.c1, q.c2, q.c3]), c, atol=1e-15)
    # Fields broadcast: scalar c0 with array c3.
    assert compose(PauliCoeffs(0.5, 0.0, 0.0, c[3, 0])).shape == (5, 2, 2)
    m[1, 2, 0, 1] += 1e-6
    with pytest.raises(NonHermitianInput):
        decompose(m)


def test_compose_decompose_random_hermitian(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = a + a.conj().T
    np.testing.assert_allclose(compose(decompose(h)), h, atol=1e-12)


def test_decompose_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_decompose_rejects_nan():
    with pytest.raises(NonHermitianInput):
        decompose(np.full((2, 2), np.nan))


@pytest.mark.parametrize("shape", [(3, 3), (5, 3, 3), (4, 4), (2,), (2, 3), (3, 2, 1)])
def test_decompose_rejects_shapes_other_than_2x2(shape):
    # np.eye(3) used to give the coefficients of its top-left 2x2 block.
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        decompose(np.ones(shape))


def test_expm_diagonal_generator():
    eps, t = 2.3, 1.4
    u = expm_pauli(PauliCoeffs(0, 0, 0, -eps / 2), t).matrix
    np.testing.assert_allclose(
        u, np.diag([np.exp(1j * eps * t / 2), np.exp(-1j * eps * t / 2)]), atol=1e-15
    )


def test_expm_sigma1_rotation():
    theta, dt = 0.8, 0.25
    u = expm_pauli(PauliCoeffs(0, theta / dt, 0, 0), dt).matrix
    expected = math.cos(theta) * ID2 - 1j * math.sin(theta) * SIGMA1
    np.testing.assert_allclose(u, expected, atol=1e-14)


def test_expm_matches_scaling_and_squaring_oracle(rng):
    worst = 0.0
    for _ in range(300):
        p = PauliCoeffs(*rng.normal(size=4))
        dt = rng.normal() * 3.0
        mine = expm_pauli(p, dt).matrix
        oracle = scipy_expm(-1j * compose(p) * dt)
        worst = max(worst, np.abs(mine - oracle).max())
    assert worst < 1e-12


def test_expm_rejects_non_finite_time():
    with pytest.raises(ValueError):
        expm_pauli(PauliCoeffs(0, 1, 0, 0), math.inf)


def test_expm_small_angle_branch(rng):
    # r*dt below the Taylor threshold, including r = 0 exactly.
    u = expm_pauli(PauliCoeffs(0.5, 0, 0, 0), 2.0).matrix
    np.testing.assert_allclose(u, np.exp(-1j) * ID2, atol=1e-15)
    p = PauliCoeffs(0.3, 1e-10, 2e-10, -1e-10)
    oracle = scipy_expm(-1j * compose(p) * 1.0)
    np.testing.assert_allclose(expm_pauli(p, 1.0).matrix, oracle, atol=1e-15)


def test_expm_unitary_invariants_bulk(rng):
    # 1e4 random samples all satisfy the Unitary2 invariants.
    worst = 0.0
    for _ in range(10_000):
        p = PauliCoeffs(*rng.normal(size=4) * 3.0)
        dt = rng.normal() * 5.0
        worst = max(worst, unitarity_defect(expm_pauli(p, dt).matrix))
    assert worst <= 1e-12


def test_expm_one_parameter_group(rng):
    for _ in range(100):
        p = PauliCoeffs(*rng.normal(size=4))
        dt1, dt2 = rng.normal(size=2) * 2.0
        a = expm_pauli(p, dt1).matrix @ expm_pauli(p, dt2).matrix
        b = expm_pauli(p, dt1 + dt2).matrix
        assert np.abs(a - b).max() < 1e-11


def test_unitary2_accepts_unitary_rejects_other(rng):
    u = Unitary2(random_unitary(rng))
    assert unitarity_defect(u.matrix) <= 1e-12
    with pytest.raises(NotUnitary):
        Unitary2(np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(NotUnitary):
        Unitary2(np.eye(3))


def test_unitary2_rejects_nan():
    with pytest.raises(NotUnitary):
        Unitary2(np.full((2, 2), np.nan))
    assert math.isnan(unitarity_defect(np.full((2, 2), np.nan)))


def _near_unitary_stack(rng, shape):
    """Random unitaries with entry-wise perturbations from 1e-16 to 1e-8."""
    u = np.array([random_unitary(rng) for _ in range(math.prod(shape))]).reshape(shape + (2, 2))
    scale = 10.0 ** rng.uniform(-16, -8, size=shape + (2, 2))
    return u + scale * (rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape))


def test_unitarity_defect_of_a_stack_is_per_matrix(rng):
    m = _near_unitary_stack(rng, (3, 40))
    got = unitarity_defect(m)
    assert got.shape == (3, 40)
    for idx in np.ndindex(3, 40):
        assert got[idx] == unitarity_defect(m[idx])
    # Independent reference: U^dagger U and det from matmul and LU.
    gram = np.abs(m.conj().swapaxes(-1, -2) @ m - ID2).max(axis=(-2, -1))
    det = np.abs(np.abs(np.linalg.det(m)) - 1.0)
    np.testing.assert_allclose(got, np.maximum(gram, det), rtol=0, atol=1e-15)


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("nan", [complex(np.nan, 0.0), complex(0.0, np.nan)])
def test_unitarity_defect_of_a_stack_propagates_nan(rng, entry, nan):
    m = _near_unitary_stack(rng, (2, 5))
    m[1, 3][entry] += nan
    got = unitarity_defect(m)
    assert np.isnan(got[1, 3])
    assert np.isnan(got).sum() == 1


def test_min_fidelity_rejects_one_defective_matrix_in_a_large_stack(rng):
    u = np.array([random_unitary(rng) for _ in range(5000)])
    assert min_fidelity(u, u).min() > 1.0 - 1e-12
    u[2718] *= 1.0 + 5e-12  # |U^dagger U - 1| and ||det U| - 1| both about 1e-11
    assert 0.9e-11 < unitarity_defect(u[2718]) < 1.1e-11
    with pytest.raises(NotUnitary):
        min_fidelity(u, u[::-1])


def test_coeffs_arithmetic():
    a = PauliCoeffs(1, 2, 3, 4)
    b = PauliCoeffs(0.5, -1, 0, 2)
    assert a + b == PauliCoeffs(1.5, 1, 3, 6)
    assert a - b == PauliCoeffs(0.5, 3, 3, 2)
    assert 2 * a == PauliCoeffs(2, 4, 6, 8)
    assert (-a).c3 == -4
    assert a.vector_norm == math.sqrt(4 + 9 + 16)
    assert isinstance(a.vector_norm, float)
    stack = PauliCoeffs(0.0, np.array([3.0, 0.0]), 0.0, np.array([4.0, 2.0]))
    np.testing.assert_array_equal(stack.vector_norm, [5.0, 2.0])
