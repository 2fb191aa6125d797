import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opradius import (
    EnsembleConfig,
    a_crawford,
    a_numerical_radius,
    build_space,
    crawford_number,
    errors,
    functionals,
    inequalities,
    numerical_radius,
    operator_a_norm,
    random_a_unitary,
    random_in_BA,
    random_psd,
    random_space,
    sampling_oracle,
    spectral_norm,
)
from opradius.elliptic import dirichlet_laplacian, potential_values

SEEDS = st.integers(min_value=0, max_value=10**6)

A_PD = np.array([[1, -1], [-1, 2]], float)
PHI = (1 + np.sqrt(5)) / 2


def random_space_op(seed, dmax=5):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, dmax + 1))
    r = int(rng.integers(1, d + 1))
    sp = build_space(random_psd(d, r, rng))
    return sp, random_in_BA(sp, rng), rng


# -- seminorm ---------------------------------------------------------------

def test_norm_reference_operator():
    # true value sqrt(2): witness x = (1, 1/2) gives ||Tx||_A / ||x||_A
    sp = build_space(A_PD)
    T = np.array([[1, 0], [1, 0]], float)
    nT = operator_a_norm(sp, T)
    assert nT == pytest.approx(np.sqrt(2), abs=1e-12)
    x = np.array([1.0, 0.5])
    assert sp.a_norm(T @ x) / sp.a_norm(x) == pytest.approx(nT, abs=1e-12)


def test_norm_identity_any_metric():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        sp = build_space(random_psd(4, int(rng.integers(1, 5)), rng))
        assert operator_a_norm(sp, np.eye(4)) == pytest.approx(1.0, abs=1e-10)


def test_norm_strict_mode():
    sp = build_space(np.diag([1.0, 0.0]))
    sx = np.array([[0, 1], [1, 0]], float)
    with pytest.raises(errors.NotInBA):
        operator_a_norm(sp, sx)


def test_norm_anticommutator_reference():
    # ||T#T + TT#||_A = 5 + sqrt5 for the published pair (printed as 10,
    # which is sigma_max(A G), not the seminorm)
    sp = build_space(A_PD)
    T = np.array([[1, 1], [0, 0]], float)
    sharp = sp.sharp_adjoint(T)
    G = sharp @ T + T @ sharp
    assert operator_a_norm(sp, G) == pytest.approx(5 + np.sqrt(5), abs=1e-9)


# -- numerical radius -------------------------------------------------------

def test_radius_reference_values():
    sp = build_space(A_PD)
    S = np.array([[1, 1], [0, 0]], float)
    T = np.array([[1, 0], [1, 0]], float)
    assert a_numerical_radius(sp, S).value == pytest.approx(PHI, abs=1e-9)
    assert a_numerical_radius(sp, T @ S + S @ T).value == pytest.approx(3.5, abs=1e-9)


def test_radius_oracle_agreement():
    sp = build_space(A_PD)
    S = np.array([[1, 1], [0, 0]], float)
    rad = a_numerical_radius(sp, S).value
    orc = sampling_oracle(sp, S, samples=200_000, seed=7)
    assert orc <= rad + 1e-9
    assert rad - orc <= 5e-3 * max(1.0, rad)


def test_radius_identity():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        sp = build_space(random_psd(3, int(rng.integers(1, 4)), rng))
        assert a_numerical_radius(sp, np.eye(3)).value == pytest.approx(1.0, abs=1e-10)


def test_radius_witness_attains_value():
    sp, T, _ = random_space_op(99)
    res = a_numerical_radius(sp, T)
    assert sp.a_norm(res.witness) == pytest.approx(1.0, abs=1e-9)
    form = abs(sp.a_inner(T @ res.witness, res.witness))
    assert form <= res.value + 1e-9 * max(1.0, res.value)
    assert form >= res.value - res.gap - 1e-12
    assert 0.0 <= res.argmax_angle < 2 * np.pi


def test_radius_unbounded_outside_membership():
    sp = build_space(np.diag([1.0, 0.0]))
    with pytest.raises(errors.UnboundedForm, match="nullspace-invariance"):
        a_numerical_radius(sp, np.array([[0, 1], [1, 0]], float))


def test_radius_classical_agreement_identity_metric():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    sp = build_space(np.eye(4))
    rad = a_numerical_radius(sp, M).value
    # independent fine-grid evaluation of the defining formula
    th = np.linspace(0, 2 * np.pi, 20_000, endpoint=False)
    H = (np.exp(1j * th)[:, None, None] * M
         + np.exp(-1j * th)[:, None, None] * M.conj().T) / 2
    grid = np.linalg.eigvalsh(H)[:, -1].max()
    assert abs(rad - grid) <= 1e-7 * rad
    # sampling gives a lower bound that lands in the right neighbourhood
    Z = rng.standard_normal((100_000, 4)) + 1j * rng.standard_normal((100_000, 4))
    Z /= np.linalg.norm(Z, axis=1)[:, None]
    brute = np.abs(np.einsum("si,ij,sj->s", Z.conj(), M, Z)).max()
    assert brute <= rad + 1e-9
    assert rad - brute <= 5e-2 * rad


def test_radius_hermitian_compression_shortcut():
    sp = build_space(np.eye(3))
    H = np.diag([-3.0, 1.0, 2.0])
    res = a_numerical_radius(sp, H)
    assert res.value == pytest.approx(3.0, abs=1e-12)
    assert res.argmax_angle == pytest.approx(np.pi)
    assert res.lo == res.hi == res.value
    # rank one: the compression is the 1x1 matrix <T e, e>
    res = a_numerical_radius(build_space(np.ones((2, 2))), 1j * np.eye(2))
    assert res.lo == res.hi == res.value == pytest.approx(1.0, abs=1e-12)


def test_radius_rank_zero_metric_warns():
    sp = build_space(np.zeros((2, 2)))
    with pytest.warns(errors.DegenerateSpaceWarning):
        res = a_numerical_radius(sp, np.eye(2))
    assert res.value == res.lo == res.hi == 0.0


@pytest.mark.parametrize("M", [[[np.inf, 0], [1, 2]], [[np.nan, 0], [1, 2]],
                               np.full((2, 2), np.inf)])
def test_non_finite_matrix_rejected(M):
    # such a matrix used to give a radius of 0.7071 or -inf and a Crawford
    # number of 0
    for fn in (numerical_radius, crawford_number):
        with pytest.raises(ValueError, match="NaN or Inf"):
            fn(np.array(M, dtype=complex))
    # a stack is converted and tested once, with the same message
    with pytest.raises(ValueError, match="NaN or Inf"):
        functionals._radii([np.eye(2), np.array(M, dtype=complex), np.eye(2)])


@pytest.mark.parametrize("mats, ndim", [([np.ones(3)], 1),
                                        ([np.ones(3), np.ones(3)], 1),
                                        ([np.eye(2), np.ones((1, 2, 2))], 3)])
def test_radii_reject_a_matrix_that_is_not_2d(mats, ndim):
    with pytest.raises(ValueError, match=f"expected a 2-D matrix, got ndim={ndim}$"):
        functionals._radii(mats)


# -- Crawford number --------------------------------------------------------

def test_crawford_examples():
    sp = build_space(np.eye(2))
    assert a_crawford(sp, np.diag([2.0, 3.0])) == pytest.approx(2.0, abs=1e-9)
    shift = np.array([[0, 1], [0, 0]], float)
    assert a_crawford(sp, shift) == pytest.approx(0.0, abs=1e-9)
    assert a_crawford(sp, np.eye(2) + shift) == pytest.approx(0.5, abs=1e-9)


def test_crawford_brute_force_agreement():
    sp, T, rng = random_space_op(1717)
    c = a_crawford(sp, T)
    M = sp.compression(T)
    r = M.shape[0]
    Z = rng.standard_normal((200_000, r)) + 1j * rng.standard_normal((200_000, r))
    Z /= np.linalg.norm(Z, axis=1)[:, None]
    brute = np.abs(np.einsum("si,ij,sj->s", Z.conj(), M, Z)).min()
    assert c <= brute + 1e-6
    assert brute - c <= 5e-2 * max(1.0, brute)


def test_crawford_minimum_at_a_kink_off_the_grid():
    # W(M) is the triangle with vertices e^{0.3i}(1+i), e^{0.3i}(1-i),
    # 3e^{0.3i}; its nearest point to 0 is e^{0.3i} on the edge Re = 1
    # (rotated), so the support function has its minimum -1 at a kink,
    # at an angle that is not a grid angle
    M = np.exp(0.3j) * np.diag([1 + 1j, 1 - 1j, 3])
    assert crawford_number(M) == pytest.approx(1.0, abs=1e-12)


def _strip_diagonal(r):
    # eigenvalues -10..1 alternating +-1e-3 off the real axis, so the hull
    # W(M) contains 0 and the minimum of the support function is +1e-3
    e = np.where(np.arange(r) % 2 == 0, 1e-3, -1e-3)
    return np.diag(np.linspace(-10.0, 1.0, r) + 1j * e)


def test_crawford_origin_inside_range_dense_sweep():
    assert crawford_number(_strip_diagonal(128)) == pytest.approx(0.0, abs=1e-9)


def test_crawford_origin_inside_range_lanczos():
    assert crawford_number(_strip_diagonal(129)) == pytest.approx(0.0, abs=1e-9)


def _mesh_anticommutator(N):
    # M_C of elliptic.run_case: the compression of TS + ST, S = K^{-1} T
    space = build_space(dirichlet_laplacian(N))
    s, Q = np.sqrt(space.lam), space.Q.real
    W = Q.T @ (potential_values(N)[:, None] * Q)
    M_T, M_S = W * (s[:, None] / s[None, :]), W / (s[:, None] * s[None, :])
    return M_T @ M_S + M_S @ M_T


def _ginibre_129():
    rng = np.random.default_rng(5)
    return rng.standard_normal((129, 129)) + 1j * rng.standard_normal((129, 129))


def _large_negative_top(r):
    # 1e7 (U diag(-10..0) U* + i diag(-1..1)): at psi = 0 the top eigenvalue
    # is 0 while the matrix has norm about 1e8
    rng = np.random.default_rng([7, r])
    U, _ = np.linalg.qr(rng.standard_normal((r, r))
                        + 1j * rng.standard_normal((r, r)))
    return 1e7 * (U @ np.diag(np.linspace(-10.0, 0.0, r)) @ U.conj().T
                  + 1j * np.diag(np.linspace(-1.0, 1.0, r)))


@pytest.mark.parametrize("make", [lambda: _mesh_anticommutator(20), _ginibre_129,
                                  lambda: _strip_diagonal(129),
                                  lambda: _large_negative_top(160)],
                         ids=["mesh20", "ginibre129", "strip129",
                              "negtop160"])
def test_lanczos_matches_dense_path(make, monkeypatch):
    # above DENSE_SWEEP_MAX the kernel runs on Lanczos; the dense path,
    # forced by raising the switch, is the reference
    M = make()
    radius, (craw, craw_hi) = functionals._radii([M])[0][0], functionals._crawford(M)
    monkeypatch.setattr(functionals, "DENSE_SWEEP_MAX", 10**6)
    assert abs(radius - functionals._radii([M])[0][0]) <= 1e-9 * radius
    dense = functionals._crawford(M)[0]
    assert abs(craw - dense) <= 1e-9 * dense
    assert craw <= craw_hi


def _rotated(M):
    # the Hermitian stacks of one P, R of M = P + iR, and the bound on the
    # error of a computed f
    P, R = functionals._split(M[None])
    return P, R, functionals._errs(P, R)


def _top(P, R, err, theta):
    # (f, v, f') of f(theta) = lam_max(cos(theta) P + sin(theta) R) of a
    # stack of one, as _extremum evaluates it
    f, V, df = functionals._rows(P, R, err, np.cos([theta]), np.sin([theta]), False)
    return f[0, 0], V[0, 0], df[0, 0]


@pytest.fixture
def eigh_sizes(monkeypatch):
    # orders of the matrices passed to numpy.linalg.eigh; in Lanczos the
    # largest tridiagonal solved is the number of steps taken
    sizes = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return sizes


def test_lanczos_stops_before_spanning_the_space(eigh_sizes):
    # h(0) is 0 against a norm of 1e8: a residual test relative to |h|
    # cannot pass there, the bound err (relative to the norm) can
    r = 160
    P, R, err = _rotated(_large_negative_top(r))
    f, v, _ = _top(P, R, err, 0.0)
    assert max(eigh_sizes) < r
    assert np.linalg.norm(P[0] @ v - f * v) <= err[0]
    assert abs(f - np.linalg.eigvalsh(P[0])[-1]) <= err[0]


def test_lanczos_stops_when_the_krylov_space_closes(eigh_sizes):
    # six distinct eigenvalues: after 6 steps, between two scheduled
    # solves, the Krylov space is invariant up to rounding
    lam = np.arange(1, 7) * np.exp(1j * np.pi / 3 * np.arange(6))
    M = np.diag(np.tile(lam, 22))
    f, _, _ = _top(*_rotated(M), 0.3)
    assert max(eigh_sizes) == 6
    assert f == pytest.approx((np.exp(-0.3j) * lam).real.max(), rel=1e-12)
    assert numerical_radius(M) == pytest.approx(6.0, rel=1e-12)


def test_lanczos_value_depends_on_angle_alone():
    # perfbench's r = 129 template: two evaluations with different earlier
    # angles must agree bit for bit at the same angle
    rng = np.random.default_rng([0, 129])
    space = random_space(129, 129, rng)
    M = space.compression(random_in_BA(space, rng))
    first, second = (_rotated(M) for _ in range(2))
    _top(*first, 0.3), _top(*first, 2.0), _top(*second, 4.0)
    (f1, _, df1), (f2, _, df2) = _top(*first, 1.0), _top(*second, 1.0)
    assert f1 == f2 and df1 == df2


# -- sampling oracle --------------------------------------------------------

def test_oracle_deterministic_and_bounded():
    sp, T, _ = random_space_op(31)
    a = sampling_oracle(sp, T, samples=5000, seed=11)
    b = sampling_oracle(sp, T, samples=5000, seed=11)
    assert a == b
    assert a <= a_numerical_radius(sp, T).value + 1e-9


@pytest.mark.parametrize("r", [1, 3, 129])
def test_oracle_matches_per_sample_loop(r):
    # the same draws as the oracle, one vector at a time
    rng = np.random.default_rng([11, r])
    sp = build_space(random_psd(r, r, rng))
    T = random_in_BA(sp, rng)
    M, samples = sp.compression(T), 300
    draws = np.random.default_rng(3)
    Z = (draws.standard_normal((samples, r))
         + 1j * draws.standard_normal((samples, r)))
    want = max(abs(np.vdot(z, M @ z)) / np.vdot(z, z).real for z in Z)
    got = sampling_oracle(sp, T, samples=samples, seed=3)
    assert abs(got - want) <= 1e-13 * want


def test_oracle_rank_one_exact():
    sp = build_space(np.array([[1, 1], [1, 1]], float))
    T = np.array([[0, 0.5], [0.5, 0]], float)
    assert sampling_oracle(sp, T, samples=1, seed=0) == pytest.approx(0.5, abs=1e-12)


# -- property suites --------------------------------------------------------

@settings(max_examples=50, deadline=None, derandomize=True)
@given(SEEDS)
def test_cstar_identity(seed):
    sp, T, _ = random_space_op(seed)
    sharp = sp.sharp_adjoint(T)
    n = operator_a_norm(sp, T)
    vals = [operator_a_norm(sp, sharp @ T), operator_a_norm(sp, T @ sharp),
            n ** 2, operator_a_norm(sp, sharp) ** 2]
    assert max(vals) - min(vals) <= 1e-8 * max(1.0, max(vals))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(SEEDS)
def test_radius_norm_equivalence(seed):
    sp, T, _ = random_space_op(seed)
    w = a_numerical_radius(sp, T).value
    n = operator_a_norm(sp, T)
    assert n / 2 - 1e-9 <= w <= n + 1e-9 * max(1.0, n)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(SEEDS)
def test_power_inequality(seed):
    sp, T, _ = random_space_op(seed)
    w = a_numerical_radius(sp, T).value
    for n in (2, 3, 4):
        wn = a_numerical_radius(sp, np.linalg.matrix_power(T, n)).value
        assert wn <= w ** n + 1e-9 + 1e-7 * max(1.0, w ** n)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(SEEDS)
def test_unitary_invariance(seed):
    sp, T, rng = random_space_op(seed)
    U = random_a_unitary(sp, rng)
    w = a_numerical_radius(sp, T).value
    w2 = a_numerical_radius(sp, sp.sharp_adjoint(U) @ T @ U).value
    assert abs(w2 - w) <= 1e-8 * max(1.0, w)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SEEDS)
def test_submultiplicative(seed):
    sp, T, rng = random_space_op(seed)
    S = random_in_BA(sp, rng)
    assert operator_a_norm(sp, T @ S) <= \
        operator_a_norm(sp, T) * operator_a_norm(sp, S) + 1e-8
    x = rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
    assert sp.a_norm(T @ x) <= operator_a_norm(sp, T) * sp.a_norm(x) + 1e-8


@settings(max_examples=30, deadline=None, derandomize=True)
@given(SEEDS)
def test_positive_operator_radius_equals_norm(seed):
    from opradius import random_a_positive

    sp, _, rng = random_space_op(seed)
    T = random_a_positive(sp, rng)
    w = a_numerical_radius(sp, T).value
    n = operator_a_norm(sp, T)
    lam_top = float(np.linalg.eigvalsh(sp.compression(T)).max()) if sp.rank else 0.0
    assert w == pytest.approx(n, rel=1e-10, abs=1e-10)
    assert w == pytest.approx(lam_top, rel=1e-10, abs=1e-10)


# exact invariances: a rotation by e^{i phi} moves the extremum off the
# grid, so a refinement that stops early or is skipped errs by ~1e-5

def _ginibre(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 7))
    return rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)), rng


def _complex_scalar(rng):
    return float(np.exp(rng.uniform(-3, 3))) * np.exp(1j * rng.uniform(0, 2 * np.pi))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SEEDS)
def test_radius_rotation_and_scaling(seed):
    M, rng = _ginibre(seed)
    c = _complex_scalar(rng)
    w = numerical_radius(M)
    assert numerical_radius(c * M) == pytest.approx(abs(c) * w, rel=1e-10)


@pytest.mark.parametrize("c", [1e-13, 1.0, 1e13])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(SEEDS)
def test_radius_exact_invariances(c, seed):
    # w(c e^{i phi} U M U*) = |c| w(M): a unitary similarity, a rotation by a
    # unimodular scalar and a scaling; a test that treats every small
    # matrix as Hermitian gets c = 1e-13 wrong
    M = _shifted(seed) if seed % 2 else _ginibre(seed)[0]
    rng = np.random.default_rng(seed + 1)
    r = M.shape[0]
    U, _ = np.linalg.qr(rng.standard_normal((r, r))
                        + 1j * rng.standard_normal((r, r)))
    rot = c * np.exp(1j * rng.uniform(0, 2 * np.pi))
    w = numerical_radius(M)
    assert numerical_radius(rot * (U @ M @ U.conj().T)) == pytest.approx(
        c * w, rel=1e-12, abs=0)


def test_radius_of_a_tiny_matrix_is_not_treated_as_hermitian():
    rng = np.random.default_rng(3)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert numerical_radius(1e-13 * G) / 1e-13 == pytest.approx(
        numerical_radius(G), rel=1e-12)
    assert numerical_radius(G) == pytest.approx(4.494108087, rel=1e-9)


def test_lanczos_radius_of_a_tiny_matrix():
    # Lanczos stops at a residual relative to ||P||_F + ||R||_F; an absolute
    # floor of 1e-10 left the radius of 1e-13 G 93% low
    rng = np.random.default_rng(3)
    G = rng.standard_normal((129, 129)) + 1j * rng.standard_normal((129, 129))
    assert numerical_radius(1e-13 * G) / 1e-13 == pytest.approx(
        numerical_radius(G), rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SEEDS)
def test_crawford_rotation_and_scaling(seed):
    M, rng = _ginibre(seed)
    # shift W(M) away from 0 so the Crawford number is of the size of M
    M = M + rng.uniform(1.5, 3.0) * spectral_norm(M) * np.eye(M.shape[0])
    c = _complex_scalar(rng)
    d = crawford_number(M)
    assert d > 0
    assert crawford_number(c * M) == pytest.approx(abs(c) * d, rel=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SEEDS)
def test_radius_metric_scaling(seed):
    sp, T, rng = random_space_op(seed)
    scaled = build_space(float(np.exp(rng.uniform(-6, 6))) * sp.metric)
    assert a_numerical_radius(scaled, T).value == pytest.approx(
        a_numerical_radius(sp, T).value, rel=1e-10)


def test_compressed_level_helpers():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 3))
    assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2))
    assert numerical_radius(np.zeros((0, 0))) == 0.0
    assert numerical_radius(np.array([[2j]])) == pytest.approx(2.0)


@pytest.mark.parametrize("shape", [(5, 5), (3, 7), (7, 3)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_spectral_norm_is_the_matrix_2_norm(shape, kind):
    # the largest singular value, bit for bit the same LAPACK result
    rng = np.random.default_rng(list(shape))
    M = rng.standard_normal(shape)
    if kind == "complex":
        M = M + 1j * rng.standard_normal(shape)
    assert spectral_norm(M) == np.linalg.norm(M, 2)


def test_radius_and_crawford_number_of_a_huge_matrix():
    # ||Re M||_F squares entries of 1e200: an error scale from it used to
    # overflow, and both functionals raised ValueError on a finite value
    M = np.array([[1e200, 1e200], [1e200j, 1e200]])
    assert numerical_radius(M) == pytest.approx(
        1e200 * numerical_radius(M / 1e200), rel=1e-14)
    assert crawford_number(M) == pytest.approx(
        1e200 * crawford_number(M / 1e200), rel=1e-14)
    assert numerical_radius(M) <= spectral_norm(M)


@pytest.mark.parametrize("scale", [1e170, 1e200, 1e300])
def test_functionals_of_a_huge_member(scale):
    # the lone membership residual squared the entries of the leak: from
    # about 1e170 it overflowed, and each functional raised NotInBA or
    # UnboundedForm for an operator that a stack of operators accepted
    sp = build_space(random_psd(4, 2, 1))
    T = random_in_BA(sp, 2)
    for fn in (operator_a_norm, lambda sp, T: a_numerical_radius(sp, T).value,
               a_crawford):
        with np.errstate(over="ignore"):    # the norms' first sums of squares
            huge = fn(sp, scale * T)
        assert huge == pytest.approx(scale * fn(sp, T), rel=1e-12)


# -- cutting-plane kernel ---------------------------------------------------
# W(M) is moved off-centre by a shift c e^{i phi} with |c| up to 4 ||M||

def _shifted(seed):
    M, rng = _ginibre(seed)
    c = rng.uniform(0.0, 4.0) * spectral_norm(M) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return M + c * np.eye(M.shape[0])


def _support_grid(M, angles):
    H = (M + M.conj().T) / 2
    K = (M - M.conj().T) / 2j
    th = np.linspace(0.0, 2 * np.pi, angles, endpoint=False)
    return th, np.linalg.eigvalsh(np.cos(th)[:, None, None] * H
                                  + np.sin(th)[:, None, None] * K)[:, -1]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SEEDS)
def test_radius_enclosure_off_centre(seed):
    # the sweep value is a supremum, so no grid angle may beat it; a
    # polygon that loses a support line reports a value below the grid
    M = _shifted(seed)
    sp = build_space(np.eye(M.shape[0]))
    res = a_numerical_radius(sp, M)
    grid = _support_grid(M, 4000)[1].max()
    assert res.value >= grid - 1e-12 * max(1.0, res.value)
    assert res.lo <= res.value <= res.hi
    # no sampled unit vector gets above the enclosure
    assert sampling_oracle(sp, M, samples=2000, seed=seed) <= res.hi


def _golden_min(f, a, b, steps=100):
    g = (np.sqrt(5) - 1) / 2
    for _ in range(steps):
        c, d = b - g * (b - a), a + g * (b - a)
        if f(c) < f(d):
            b = d
        else:
            a = c
    return f((a + b) / 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SEEDS)
def test_crawford_enclosure_off_centre(seed):
    # brute force: the least of 20,000 support values, polished inside
    # its grid cell; aiming a cut at a point the outer polygon already
    # bounds stalls well above it
    M = _shifted(seed)
    th, h = _support_grid(M, 20_000)
    k = int(h.argmin())
    H, K = (M + M.conj().T) / 2, (M - M.conj().T) / 2j

    def f(t):
        return np.linalg.eigvalsh(np.cos(t) * H + np.sin(t) * K)[-1]

    brute = max(0.0, -min(h[k], _golden_min(f, th[k] - th[1], th[k] + th[1])))
    value, hi = functionals._crawford(M)
    assert value == pytest.approx(brute, abs=1e-9 * max(1.0, brute))
    assert value <= hi
    assert hi - value <= 1e-10 * hi + 1e-12 * np.linalg.norm(M)
    assert crawford_number(M) == value


def test_enclosure_certified_for_polygonal_range():
    # W(M) is the triangle 3, 3i, -2 rotated by 0.3: the radius sits at
    # the vertex e^{0.3i} 3, which two support lines pin down exactly,
    # and 0 lies on the edge from 3 to -2, which a chord of the support
    # points' polygon certifies to within its rounding
    M = np.exp(0.3j) * np.diag([3, 3j, -2, 1 + 1j])
    res = a_numerical_radius(build_space(np.eye(4)), M)
    assert res.value == pytest.approx(3.0, abs=1e-12)
    assert res.lo <= res.value <= res.hi
    assert res.hi - res.lo <= 1e-10 * res.hi + 1e-12 * np.linalg.norm(M)
    assert functionals._crawford(M) == (0.0, 0.0)


@pytest.mark.parametrize("P", [np.diag([3, 3j, -2, 1 + 1j]), np.diag([1, -1, 2j]),
                               np.diag([2 + 1j, -4 - 2j, 1 - 2j, 0.5j])],
                         ids=["triangle", "line", "quadrilateral"])
def test_crawford_number_of_ranges_with_0_on_an_edge(P):
    # 0 lies on an edge of W(M): the nearest point of a chord through it is
    # 0 only up to rounding, and 0 on a chord used to be certified only
    # when the rounding left q exactly 0 or the chords' turns summed past pi
    for phi in np.arange(60) * (2 * np.pi / 60):
        value, hi = functionals._crawford(np.exp(1j * phi) * P)
        assert value <= hi
        assert (value, hi) == (0.0, 0.0), phi


@pytest.fixture
def evaluations(monkeypatch):
    # values of the support function, seed angles included, counted into
    # the last entry: every value is a seed or a row of _rows
    counts = []
    rows, seeds = functionals._rows, functionals._seeds

    def counted_rows(P, R, err, c, s, both):
        out = rows(P, R, err, c, s, both)
        if not both:            # two-ended rows are read by _seeds alone
            counts[-1] += out[0].size
        return out

    def counted_seeds(P, R, err):
        out = seeds(P, R, err)
        counts[-1] += out[0].size
        return out

    monkeypatch.setattr(functionals, "_rows", counted_rows)
    monkeypatch.setattr(functionals, "_seeds", counted_seeds)
    return counts


def test_radius_evaluation_count(evaluations):
    # a dense angle grid costs hundreds of eigensolves per call; the
    # narrowed seeds and the level-set test need about 22
    for seed in range(200):
        evaluations.append(0)
        numerical_radius(_shifted(seed) if seed % 2 else _ginibre(seed)[0])
    assert max(evaluations) <= 100, sorted(evaluations)[-5:]


def test_illinois_stops_once_the_secant_rounds_onto_an_end(evaluations):
    # the slope is within rounding of 0 after a few Illinois steps, and a
    # step after that could only halve the bracket, never move the value
    evaluations.append(0)
    numerical_radius(_shifted(167))
    assert evaluations[0] <= 25


# -- level-set certificate --------------------------------------------------

def _certified(M):
    """``(value, hi)`` of the radius, asserting the cut loop's stopping rule
    hi - lo <= CUT_RTOL * hi + 4 err."""
    val, _, _, hi = functionals._radii([M])[0]
    err = _rotated(M)[2][0]
    assert val <= hi
    assert hi - val <= functionals.CUT_RTOL * hi + 4 * err
    return val, hi


def _count_crossings(monkeypatch):
    calls = []
    crossings = functionals._crossings

    def counted(M, t):
        calls.append(t)
        return crossings(M, t)

    monkeypatch.setattr(functionals, "_crossings", counted)
    return calls


def _forbid_cuts(monkeypatch):
    def no_cut(*args):
        raise AssertionError("the cut loop ran")

    monkeypatch.setattr(functionals, "_outer_gap", no_cut)


@pytest.mark.parametrize("r, value", [(2, 0.5), (6, np.cos(np.pi / 7))])
def test_disk_ranges_certified(r, value, monkeypatch):
    # W of the r x r shift is the disk of radius cos(pi / (r + 1)): h is
    # constant, so no polygon with few sides is tight, yet one level-set
    # test leaves no crossing
    calls = _count_crossings(monkeypatch)
    _forbid_cuts(monkeypatch)
    val, _ = _certified(np.eye(r, k=1, dtype=complex))
    assert val == pytest.approx(value, rel=1e-14)
    assert len(calls) == 1


def _template(r):
    # the generic r x r operator of the benchmark's one-shot query
    rng = np.random.default_rng([0, r])
    sp = random_space(r, r, rng)
    return sp.compression(random_in_BA(sp, rng))


def test_dense_template_at_the_sweep_limit_certified(monkeypatch):
    M = _template(128)
    calls = _count_crossings(monkeypatch)
    _forbid_cuts(monkeypatch)
    val, _ = _certified(M)
    assert len(calls) == 1
    # the cut loop left this value 8.2e-4 wide
    assert val == pytest.approx(1657.0013766115742, rel=1e-12)


def test_certified_calls_make_no_cuts(monkeypatch):
    _forbid_cuts(monkeypatch)
    for seed in range(40):
        _certified(_shifted(seed) if seed % 2 else _ginibre(seed)[0])


def _criss_cross():
    # W(M) is the triangle 1, (1 + 1e-9) e^{i phi}, 0.3i with phi midway
    # between two seed angles
    phi = 5.5 * 2 * np.pi / functionals.SEED_ANGLES
    rng = np.random.default_rng(4)
    U, _ = np.linalg.qr(rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3)))
    return (U * [1.0, (1 + 1e-9) * np.exp(1j * phi), 0.3j]) @ U.conj().T


def test_criss_cross_finds_the_higher_peak(monkeypatch):
    # the best seed, at angle 0, sits on the lower peak, and the first
    # test crosses near phi
    M = _criss_cross()
    calls = _count_crossings(monkeypatch)
    _forbid_cuts(monkeypatch)
    val, _ = _certified(M)
    assert len(calls) == 2
    assert val == pytest.approx(1 + 1e-9, rel=1e-14)


def test_spurious_crossings_fall_back_to_the_cuts(monkeypatch):
    # every eigenvalue counted as a crossing: the midway evaluations raise
    # nothing, so the cut loop finishes the call with the value and the
    # enclosure that it gave before the level-set test existed
    monkeypatch.setattr(functionals, "LEVEL_TAU", np.inf)
    calls = _count_crossings(monkeypatch)
    rng = np.random.default_rng(3)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    val, hi = _certified(G)
    assert len(calls) == 1
    assert val == pytest.approx(4.494108087178651, rel=1e-14)
    assert hi == pytest.approx(4.494108087568261, rel=1e-14)


# -- two-ended seeds --------------------------------------------------------

def _gaussian(r, real=False):
    rng = np.random.default_rng([2, r])
    G = rng.standard_normal((r, r))
    return G if real else G + 1j * rng.standard_normal((r, r))


def _spurious_crossings(monkeypatch):
    # six crossings, so the criss-cross midpoints are not antipodal pairs
    monkeypatch.setattr(functionals, "LEVEL_TAU", np.inf)
    return _gaussian(3)


@pytest.mark.parametrize("make", [
    *(lambda mp, r=r: _gaussian(r) for r in range(2, 7)),
    lambda mp: _template(128), lambda mp: _ginibre_129(),
    lambda mp: _gaussian(5, real=True),
    lambda mp: _mesh_anticommutator(10),
    lambda mp: _gaussian(129, real=True),
    lambda mp: _criss_cross(), _spurious_crossings,
], ids=[*(f"dense{r}" for r in range(2, 7)), "dense128", "lanczos129", "real5",
        "mesh10", "real129", "criss-cross", "spurious-crossings"])
def test_every_solved_record_matches_a_single_solve(make, monkeypatch):
    # each (f, v, f') read from a seed solve or a row is the one a solve
    # at its own angle gives, to within err: a record read off as the
    # antipode or mirror of an angle that is not one is caught here
    solved = []
    seeds, rows = functionals._seeds, functionals._rows
    theta = np.arange(functionals.SEED_ANGLES) * (2 * np.pi / functionals.SEED_ANGLES)

    def recorded_seeds(P, R, err):
        out = seeds(P, R, err)
        for k, recs in enumerate(zip(*out)):
            solved.extend((P[k], R[k], err[k], np.cos(t), np.sin(t), *rec)
                          for t, *rec in zip(theta, *recs))
        return out

    def recorded_rows(P, R, err, c, s, both):
        out = rows(P, R, err, c, s, both)
        if not both:            # two-ended rows are read by _seeds alone
            cs = (np.broadcast_to(x, out[0].shape) for x in (c, s))
            for k, recs in enumerate(zip(*cs, *out)):
                solved.extend((P[k], R[k], err[k], *rec) for rec in zip(*recs))
        return out

    monkeypatch.setattr(functionals, "_seeds", recorded_seeds)
    monkeypatch.setattr(functionals, "_rows", recorded_rows)
    M = make(monkeypatch)
    functionals._radii([M])
    monkeypatch.setattr(functionals, "_rows", rows)
    assert len(solved) >= functionals.SEED_ANGLES
    for P, R, err, c, s, f, v, df in solved:
        f1, _, df1 = (x[0, 0] for x in rows(P[None], R[None], np.array([err]),
                                             np.array([c]), np.array([s]), False))
        H = c * P + s * R
        assert abs(f - f1) <= err and abs(df - df1) <= err, (c, s)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(H @ v - f * v) <= err, (c, s)


@pytest.mark.parametrize("real, solves", [(False, 8), (True, 5)])
def test_seed_step_solves_half_the_seeds_or_fewer(real, solves, monkeypatch):
    # antipodes halve the 16 seed solves; mirror pairs of a real matrix
    # leave the angles 0, pi/8, ..., pi/2
    shapes = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    P, R, err = _rotated(_gaussian(5, real))
    F, _, _ = functionals._seeds(P, R, err)
    assert shapes == [(solves, 5, 5)]
    # the angles _extremum reads the seeds at
    assert F.shape == (1, functionals.SEED_ANGLES)
    assert functionals._seed_angles(functionals.SEED_ANGLES, False)[0].tolist() == (
        np.arange(functionals.SEED_ANGLES) * (2 * np.pi / functionals.SEED_ANGLES)).tolist()


# -- chords of huge support points ------------------------------------------

@pytest.mark.parametrize("e", [100, 153, 154, 200, 300])
def test_crawford_enclosure_of_a_huge_matrix(e):
    # squares of support points above about 1e154 overflowed: the nearest
    # point of a chord was then taken at its end, and hi/10^e came out
    # 0.76537 (e = 154, 200) and 0.72298 (e = 300) for a value of 0.70711
    M = np.array([[1, 1], [1j, 1]]) * 10.0**e
    with np.errstate(over="ignore"):        # the error scale's first norm
        value, hi = functionals._crawford(M)
        err = _rotated(M)[2][0]
    assert value <= hi
    assert hi - value <= functionals.CUT_RTOL * hi + 4 * err


# -- radii solved together --------------------------------------------------

def _bits(result):
    value, angle, witness, hi = result
    return value, angle, witness.tobytes(), hi


def _assert_stacked_equals_alone(mats):
    # (value, angle, witness, hi) of each matrix of a stack, bit for bit as
    # its solve alone; the stack is also solved in reverse order
    alone = [_bits(functionals._radii([M])[0]) for M in mats]
    assert [_bits(res) for res in functionals._radii(mats)] == alone
    assert [_bits(res) for res in functionals._radii(mats[::-1])] == alone[::-1]


@pytest.fixture(scope="module")
def lattice_stacks():
    # the compressions and products whose radii each trial of one sweep of
    # the (dim, rank) lattice asks for, as the trial sends them to _radii
    from opradius.harness import run_fuzz
    stacks = []
    radii = inequalities._radii

    def collect(mats):
        stacks.append(list(mats))
        return radii(mats)

    inequalities._radii = collect
    try:
        run_fuzz(EnsembleConfig(dims=[2, 3, 4, 5, 6], rank_policy="each",
                                trials=20, master_seed=42))
    finally:
        inequalities._radii = radii
    return stacks


def test_radii_of_each_lattice_kit_do_not_depend_on_the_stack(lattice_stacks):
    assert len(lattice_stacks) == 20
    for mats in lattice_stacks:
        _assert_stacked_equals_alone(mats)


def test_radii_of_mixed_sizes_do_not_depend_on_the_stack(lattice_stacks):
    mats = [M for mats in lattice_stacks for M in mats[::3]]
    assert len({M.shape[0] for M in mats}) == 6
    _assert_stacked_equals_alone(mats + [_gaussian(129)])


def _barely_skew(r):
    # ||K|| just above the Hermitian shortcut's 1e-12 ||M||
    A, B = _gaussian(r), _gaussian(r).T
    H, K = (A + A.conj().T) / 2, (B + B.conj().T) / 2
    M = H + 1.5e-12j * np.linalg.norm(H) / np.linalg.norm(K) * K
    _, K = functionals._split(M)
    assert 1e-12 < np.linalg.norm(K) / np.linalg.norm(M) < 2e-12
    return M


def test_special_radii_do_not_depend_on_the_stack():
    # a real M, a nearly Hermitian one and the criss-cross triangle, which
    # needs a second level-set round, among generic matrices of their size;
    # a 1 x 1, a Hermitian and a huge matrix (its sums of squares overflow)
    # among generic 2 x 2 ones
    G = _gaussian(2)
    huge = np.array([[1e200, 1e200], [1e200j, 1e200]])
    with np.errstate(over="ignore"):        # the error scale's first norm
        _assert_stacked_equals_alone([_gaussian(5), _gaussian(5, real=True),
                                      _barely_skew(5), _gaussian(3),
                                      _criss_cross(), _gaussian(3, real=True),
                                      G, _gaussian(1), G.T, G + G.conj().T,
                                      _gaussian(2, real=True), huge, G.conj()])


def test_dense_radii_continue_exactly_when_their_first_test_crosses(
        lattice_stacks, monkeypatch):
    # each stack's level-set test covers every dense radius in it; only a
    # radius whose test finds a crossing goes on, alone, in _extremum
    tested, crossed, entered = [], [], []
    crossings, extremum = functionals._crossings, functionals._extremum

    def first_tests(M, t):
        out = crossings(M, t)
        if not entered or entered[-1] is not None:     # not within _extremum
            tested.extend(M)
            crossed.extend(M[k].tobytes() for k in out)
        return out

    def continued(P, R, maximize, *args):
        entered.append(None)
        try:
            return extremum(P, R, maximize, *args)
        finally:
            entered[-1] = (P + 1j * R)[0].tobytes()

    monkeypatch.setattr(functionals, "_crossings", first_tests)
    monkeypatch.setattr(functionals, "_extremum", continued)
    dense = 0
    for mats in lattice_stacks:
        functionals._radii(mats)
        dense += sum(np.linalg.norm(M - M.conj().T) > 2e-12 * np.linalg.norm(M)
                     for M in mats if M.shape[0] >= 2)
    assert len(tested) == dense
    assert sorted(entered) == sorted(crossed)


def test_radii_falling_back_to_the_cuts_do_not_depend_on_the_stack(monkeypatch):
    # every eigenvalue counted as a crossing: each call ends in the cut loop
    M = _spurious_crossings(monkeypatch)
    _assert_stacked_equals_alone([_ginibre(s)[0] for s in range(6)] + [M, M.T])


def test_a_singular_pencil_does_not_fail_the_stack(monkeypatch):
    # with LEVEL_BETA = 0, A2 is M*, singular for the shift: the stacked
    # solve fails, and the round is redone one pencil at a time
    monkeypatch.setattr(functionals, "LEVEL_BETA", 0j)
    answers = []
    pencils = functionals._pencils

    def recorded(M, t):
        out = pencils(M, t)
        answers.append(sorted(np.isnan(out[:, 0]).tolist()))
        return out

    monkeypatch.setattr(functionals, "_pencils", recorded)
    mats = [_gaussian(2), np.eye(2, k=1, dtype=complex), _gaussian(2, real=True)]
    _assert_stacked_equals_alone(mats)
    assert [False, False, True] in answers
