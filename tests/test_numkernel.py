
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opradius import errors, numkernel as nk

SEEDS = st.integers(min_value=0, max_value=10**6)


def random_hermitian(seed, n=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(1, 7))
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (G + G.conj().T) / 2


def test_eig_identity():
    w, _ = nk.hermitian_eig(np.eye(3))
    assert np.allclose(w, [1, 1, 1])


def test_eig_diagonal_sorted():
    w, _ = nk.hermitian_eig(np.diag([2.0, -5.0]))
    assert np.allclose(w, [-5.0, 2.0])


def test_eig_characteristic_roots():
    # roots of lam^2 - 3 lam + 1
    w, _ = nk.hermitian_eig(np.array([[1, -1], [-1, 2]], float))
    expect = [(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2]
    assert np.allclose(w, expect, atol=1e-12)


def test_eig_rejects_non_square_and_non_hermitian():
    with pytest.raises(errors.NonSquare):
        nk.hermitian_eig(np.ones((2, 3)))
    with pytest.raises(errors.NotHermitian):
        nk.hermitian_eig(np.array([[0, 1], [0, 0]], float))


def test_eig_rejects_non_finite():
    M = np.array([[np.inf, 0], [0, 1]])
    with pytest.raises(ValueError):
        nk.hermitian_eig(M)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEEDS)
def test_eig_reconstruction_and_orthonormality(seed):
    M = random_hermitian(seed)
    w, V = nk.hermitian_eig(M)
    recon = (V * w) @ V.conj().T
    scale = 1e-10 * max(1.0, np.linalg.norm(M)) * np.linalg.norm(M)
    assert np.linalg.norm(recon - M) <= max(scale, 1e-13)
    assert np.linalg.norm(V.conj().T @ V - np.eye(M.shape[0])) <= 1e-10
    assert np.all(np.diff(w) >= -1e-14)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SEEDS)
def test_eig_shift_invariance(seed):
    M = random_hermitian(seed)
    c = 2.75
    w0, _ = nk.hermitian_eig(M)
    w1, _ = nk.hermitian_eig(M + c * np.eye(M.shape[0]))
    assert np.allclose(w1 - w0, c, atol=1e-10)


def test_eig_deterministic():
    M = random_hermitian(1234)
    wa, Va = nk.hermitian_eig(M)
    wb, Vb = nk.hermitian_eig(M.copy())
    assert np.array_equal(wa, wb)
    assert np.array_equal(Va, Vb)


def test_power_identity_exponent():
    M = np.array([[1.0, 2.0], [0.5, 0.3]])
    assert np.allclose(nk.real_spectrum_power(M, 1.0), M, atol=1e-12)


def test_power_signed_branch_cube_root():
    T1 = np.array([[0.0, 0.5], [0.5, 0.0]])
    R = nk.real_spectrum_power(T1, 1 / 3)
    expect = 2 ** (-1 / 3) * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(R, expect, atol=1e-12)


def test_power_composite_reference_value():
    T1 = np.array([[0.0, 0.5], [0.5, 0.0]])
    X1 = np.array([[1.0, 0.0], [1.0, 1.0]])
    S1 = np.diag([0.5, 0.5])
    T2 = np.array([[0.5, 0.5], [0.0, 0.0]])
    X2 = np.array([[1.0, 1.0], [0.0, 1.0]])
    S2 = np.array([[0.0, 0.0], [0.5, 0.5]])
    comp = (nk.real_spectrum_power(T1, 1 / 3) @ X1 @ nk.real_spectrum_power(S1, 2 / 3)
            + nk.real_spectrum_power(T2, 1 / 3) @ X2 @ nk.real_spectrum_power(S2, 2 / 3))
    assert np.allclose(comp, [[1.5, 1.5], [0.5, 0.0]], atol=1e-12)


def test_power_rejects_complex_spectrum():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(errors.ComplexSpectrum):
        nk.real_spectrum_power(rot, 0.5)


def test_power_rejects_jordan_block():
    J = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-14]])
    with pytest.raises(errors.NonDiagonalizable):
        nk.real_spectrum_power(J, 0.5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SEEDS)
def test_power_addition_law(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    # diagonalizable with positive spectrum: similarity of a positive diagonal
    V = rng.standard_normal((n, n))
    while abs(np.linalg.det(V)) < 1e-3:
        V = rng.standard_normal((n, n))
    lam = rng.uniform(0.5, 3.0, n)
    M = V @ np.diag(lam) @ np.linalg.inv(V)
    a, b = 0.7, 0.9
    lhs = nk.real_spectrum_power(M, a) @ nk.real_spectrum_power(M, b)
    rhs = nk.real_spectrum_power(M, a + b)
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))


def test_matrix_json_roundtrip(tmp_path):
    M = np.array([[1 + 2j, 0.25], [-1.5j, 3.0]])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(nk.matrix_to_json(M)))
    back = nk.load_matrix(path)
    assert np.array_equal(back, M)


def test_matrix_json_parse_error_reports_offset(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 1, "cols": 1, "data": [[1, ]]}')
    with pytest.raises(ValueError, match="byte offset"):
        nk.load_matrix(path)


def test_matrix_json_shape_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        nk.matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})


def test_matrix_json_rejects_nan():
    obj = {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]}
    with pytest.raises(ValueError):
        nk.matrix_from_json(obj)
