import numpy as np
import pytest

from opradius import a_numerical_radius, build_space, errors
from opradius.elliptic import dirichlet_laplacian, potential_values, run_case


def test_laplacian_small():
    K = dirichlet_laplacian(3)
    h2 = 9.0
    expect = h2 * np.array([
        [4, -1, -1, 0],
        [-1, 4, 0, -1],
        [-1, 0, 4, -1],
        [0, -1, -1, 4],
    ], dtype=float)
    assert np.allclose(K, expect)
    assert np.linalg.eigvalsh(K)[0] > 0


def test_laplacian_guards():
    with pytest.raises(errors.ConfigError):
        dirichlet_laplacian(2)
    with pytest.raises(errors.ConfigError):
        dirichlet_laplacian(200)  # interior dimension above the cap


def test_zero_potential_trivial():
    row = run_case(6, potential="zero")
    assert row["lhs"] == 0.0 and row["rhs"] == 0.0
    assert row["satisfied"]


def test_minimal_mesh_satisfied():
    row = run_case(3)
    assert row["satisfied"] and row["lhs"] < row["rhs"]


def test_compressed_path_matches_operator_path():
    # the demo builds compressions directly; cross-check against the
    # generic operator-level functionals on a small mesh
    N = 6
    row = run_case(N)
    K = dirichlet_laplacian(N)
    v = potential_values(N)
    T = np.diag(v)
    S = np.linalg.solve(K, T)
    space = build_space(K)
    lhs = a_numerical_radius(space, T @ S + S @ T).value
    w_S = a_numerical_radius(space, S).value
    assert row["lhs"] == pytest.approx(lhs, rel=1e-9)
    assert row["w_S"] == pytest.approx(w_S, rel=1e-9)


def test_bound_holds_n10():
    row = run_case(10)
    assert row["satisfied"]
    # same order of magnitude as the reference table (0.127 / 0.183);
    # exact values depend on unpinned discretization choices
    assert 0.01 < row["lhs"] < 0.5
    assert 0.01 < row["rhs"] < 0.5
