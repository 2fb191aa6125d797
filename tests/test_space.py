import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opradius import (
    EnsembleConfig,
    a_numerical_radius,
    build_space,
    errors,
    random_a_positive,
    random_in_BA,
    random_psd,
)
from opradius.harness import build_kit

SEEDS = st.integers(min_value=0, max_value=10**6)

A_PD = np.array([[1, -1], [-1, 2]], float)      # positive definite
A_RANK1 = np.array([[1, 1], [1, 1]], float)     # rank one


def random_space(seed, dmax=6):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, dmax + 1))
    r = int(rng.integers(1, d + 1))
    return build_space(random_psd(d, r, rng)), rng


# every (dim, rank) with 1 <= rank <= dim <= 6
DIM_RANK = [(d, r) for d in range(1, 7) for r in range(1, d + 1)]


def space_of_rank(d, r):
    rng = np.random.default_rng(1000 * d + r)
    return build_space(random_psd(d, r, rng)), rng



def test_build_full_rank():
    sp = build_space(A_PD)
    assert sp.rank == 2 and sp.Qn.shape[1] == 0


def test_build_rank_deficient_nullspace():
    sp = build_space(A_RANK1)
    assert sp.rank == 1
    null = sp.Qn[:, 0]
    expect = np.array([1, -1]) / np.sqrt(2)
    assert min(np.linalg.norm(null - expect), np.linalg.norm(null + expect)) < 1e-12


def test_build_identity_reduces_to_classical():
    sp = build_space(np.eye(3))
    x = np.array([1.0, 2.0, -1.0])
    y = np.array([0.5, 0.0, 1.0])
    assert sp.a_inner(x, y) == pytest.approx(np.vdot(y, x))
    assert sp.a_norm(x) == pytest.approx(np.linalg.norm(x))


def test_build_rejects_bad_metrics():
    with pytest.raises(errors.NotPSD):
        build_space(np.diag([1.0, -1.0]))
    with pytest.raises(errors.NotHermitian):
        build_space(np.array([[0, 1], [0, 0]], float))
    with pytest.raises(errors.NonSquare):
        build_space(np.ones((2, 3)))


def test_build_zero_metric_degenerate():
    sp = build_space(np.zeros((2, 2)))
    assert sp.rank == 0
    assert sp.a_norm(np.array([1.0, 2.0])) == 0.0


@settings(max_examples=50, deadline=None, derandomize=True)
@given(SEEDS)
def test_cached_fields_consistent(seed):
    sp, _ = random_space(seed)
    A = sp.metric
    scale = max(1.0, np.linalg.norm(A))
    assert np.linalg.norm(A @ sp.projector - A) <= 1e-10 * scale
    assert np.linalg.norm((sp.Q * sp.lam) @ sp.Q.conj().T - A) <= 1e-10 * scale
    assert np.linalg.norm(sp.Q.conj().T @ sp.Q - np.eye(sp.rank)) <= 1e-12
    if sp.Qn.size:
        assert np.linalg.norm(sp.Qn.conj().T @ sp.Q) <= 1e-12
    half = (sp.Q * sp._sqrt_lam) @ sp.Q.conj().T
    assert np.linalg.norm(half @ half - A) <= 1e-9 * scale


def test_a_norm_reference_vector():
    # x chosen in the published example; its true norm is sqrt(5-2*sqrt3)/2
    sp = build_space(A_PD)
    x = 0.5 * np.array([2 - np.sqrt(3), 1 - np.sqrt(3)])
    assert sp.a_norm(x) == pytest.approx(np.sqrt(5 - 2 * np.sqrt(3)) / 2, abs=1e-12)


def test_a_norm_nullspace_vector():
    sp = build_space(A_RANK1)
    assert sp.a_norm(np.array([1.0, -1.0])) == pytest.approx(0.0, abs=1e-12)


def test_a_inner_dimension_mismatch():
    sp = build_space(A_PD)
    with pytest.raises(errors.DimensionMismatch):
        sp.a_inner(np.ones(3), np.ones(2))


def test_classify_selfadjoint_counterexample():
    sp = build_space(A_RANK1)
    T = np.array([[2, 2], [0, 0]], float)
    cls = sp.classify(T)
    assert cls.in_BA and cls.a_selfadjoint


def test_classify_membership_failure():
    sp = build_space(np.diag([1.0, 0.0]))
    sx = np.array([[0, 1], [1, 0]], float)
    cls = sp.classify(sx)
    assert not cls.in_BA
    assert not cls.a_normal and not cls.a_unitary


def test_classify_identity_all_flags():
    for A in (A_PD, A_RANK1, np.diag([1.0, 0.0])):
        cls = build_space(A).classify(np.eye(2))
        assert cls.in_BA and cls.a_selfadjoint and cls.a_positive and cls.a_unitary


def test_classify_a_huge_positive_operator():
    # the defects squared entries of up to 1e300 and read the overflow as a
    # failure; once the residual passes, the scale frobenius(M) ** 2 of the
    # normal test raised OverflowError from 1e170.  Above about 1e154
    # M* M itself overflows, so a_normal is not asked there
    sp = build_space(random_psd(4, 2, 1))
    P = random_a_positive(sp, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        assert sp.classify(1e150 * P).a_normal
        for scale in (1e170, 1e300):
            cls = sp.classify(scale * P)
            assert cls.in_BA and cls.a_selfadjoint and cls.a_positive


def test_sharp_adjoint_counterexample():
    sp = build_space(A_RANK1)
    T = np.array([[2, 2], [0, 0]], float)
    assert np.allclose(sp.sharp_adjoint(T), np.ones((2, 2)), atol=1e-12)


def test_sharp_adjoint_identity_metric():
    sp = build_space(np.eye(2))
    T = np.array([[1, 2j], [3, 4]], complex)
    assert np.allclose(sp.sharp_adjoint(T), T.conj().T, atol=1e-12)


def test_sharp_adjoint_md3_example():
    # The published display prints T# = T here, which contradicts the
    # defining identity A T# = T* A; the example's own composite
    # T#T + TT# = [[8,-2],[2,2]] confirms the computed value.
    sp = build_space(A_PD)
    T = np.array([[1, 1], [0, 0]], float)
    sharp = sp.sharp_adjoint(T)
    assert np.allclose(sharp, [[3, -3], [2, -2]], atol=1e-9)
    assert np.allclose(sp.metric @ sharp, T.conj().T @ sp.metric, atol=1e-9)
    assert np.allclose(sharp @ T + T @ sharp, [[8, -2], [2, 2]], atol=1e-9)


def test_sharp_adjoint_raises_outside_membership():
    sp = build_space(np.diag([1.0, 0.0]))
    with pytest.raises(errors.NotInBA, match="nullspace-invariance"):
        sp.sharp_adjoint(np.array([[0, 1], [1, 0]], float))


def test_cartesian_decomposition_reconstructs():
    sp = build_space(A_PD)
    T = 0.5 * np.array([[1, 0], [1, 1]], float)
    re, im = sp.re_a(T), sp.im_a(T)
    assert np.allclose(re + 1j * im, T, atol=1e-12)
    # both parts are metric-selfadjoint
    assert sp.classify(re).a_selfadjoint
    assert sp.classify(im).a_selfadjoint


def test_re_a_identity_metric_hermitian():
    sp = build_space(np.eye(2))
    H = np.array([[1, 2], [2, 5]], float)
    assert np.allclose(sp.re_a(H), H, atol=1e-12)
    assert np.allclose(sp.im_a(H), np.zeros((2, 2)), atol=1e-12)


def test_compress_identity_metric():
    sp = build_space(np.eye(3))
    T = np.arange(9.0).reshape(3, 3)
    assert np.allclose(sp.compression(T), T, atol=1e-12)


def test_compress_rank_one_example():
    sp = build_space(A_RANK1)
    T = np.array([[0, 0.5], [0.5, 0]], float)
    comp = sp.compression(T)
    assert comp.shape == (1, 1)
    assert comp.reshape(()) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEEDS)
def test_adjoint_algebra(seed):
    sp, rng = random_space(seed)
    T = random_in_BA(sp, rng)
    S = random_in_BA(sp, rng)
    sharp_T = sp.sharp_adjoint(T)
    scale = max(1.0, np.linalg.norm(T), np.linalg.norm(S)) ** 2
    # A T# = T* A
    assert np.linalg.norm(sp.metric @ sharp_T - T.conj().T @ sp.metric) \
        <= 1e-9 * scale
    # (T#)# = P T P
    P = sp.projector
    assert np.linalg.norm(sp.sharp_adjoint(sharp_T) - P @ T @ P) <= 1e-8 * scale
    # (TS)# = S# T#
    assert np.linalg.norm(
        sp.sharp_adjoint(T @ S) - sp.sharp_adjoint(S) @ sharp_T
    ) <= 1e-8 * scale
    # compression carries # to the conjugate transpose and is multiplicative
    M_T, M_S = sp.compression(T), sp.compression(S)
    assert np.linalg.norm(sp.compression(sharp_T) - M_T.conj().T) <= 1e-8 * scale
    assert np.linalg.norm(sp.compression(T @ S) - M_T @ M_S) <= 1e-8 * scale


@settings(max_examples=50, deadline=None, derandomize=True)
@given(SEEDS)
def test_expansion_identity(seed):
    # || sum X_k x ||^2 = sum ||X_k x||^2 + sum_{j != k} Re<X_k x, X_j x>
    sp, rng = random_space(seed)
    n = int(rng.integers(2, 5))
    ops = [rng.standard_normal((sp.dim, sp.dim))
           + 1j * rng.standard_normal((sp.dim, sp.dim)) for _ in range(n)]
    x = rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
    vecs = [X @ x for X in ops]
    total = sp.a_norm(sum(vecs)) ** 2
    diag = sum(sp.a_norm(v) ** 2 for v in vecs)
    cross = sum(sp.a_inner(vecs[k], vecs[j]).real
                for k in range(n) for j in range(n) if j != k)
    assert total == pytest.approx(diag + cross, rel=1e-9, abs=1e-9)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(SEEDS)
def test_elementary_re_inner_bound(seed):
    # Re<a,b>_A <= ||a+b||_A^2 / 4
    sp, rng = random_space(seed)
    a = rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
    b = rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
    assert sp.a_inner(a, b).real <= sp.a_norm(a + b) ** 2 / 4 + 1e-9


# -- the space keeps only its factorization ----------------------------------

@pytest.mark.parametrize("d,r", DIM_RANK)
def test_space_stores_only_metric_and_factors(d, r):
    sp, _ = space_of_rank(d, r)
    arrays = {k: v.shape for k, v in vars(sp).items()
              if isinstance(v, np.ndarray)}
    assert arrays == {"metric": (d, d), "Q": (d, r), "lam": (r,),
                      "Qn": (d, d - r), "_sqrt_lam": (r,)}


@pytest.mark.parametrize("d,r", DIM_RANK)
def test_sharp_adjoint_matches_pseudo_inverse(d, r):
    sp, rng = space_of_rank(d, r)
    T = random_in_BA(sp, rng)
    A = sp.metric
    A_pinv = np.linalg.pinv(A, rcond=1e-10)
    expect = A_pinv @ T.conj().T @ A
    scale = np.linalg.norm(A_pinv, 2) * np.linalg.norm(T) \
        * np.linalg.norm(A)
    assert np.linalg.norm(sp.sharp_adjoint(T) - expect) <= 1e-12 * scale


@pytest.mark.parametrize("d,r", DIM_RANK)
def test_membership_residual_equals_half_metric_form(d, r):
    sp, rng = space_of_rank(d, r)
    # generically outside B_A when r < d
    T = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    res, _ = sp.membership_residual(T)
    half = (sp.Q * sp._sqrt_lam) @ sp.Q.conj().T       # PSD square root of A
    old = np.linalg.norm(half @ T @ sp.Qn)
    scale = np.linalg.norm(half) * np.linalg.norm(T)
    assert res == pytest.approx(old, rel=0, abs=1e-13 * scale)


def test_membership_messages_keep_their_wording():
    sp = build_space(np.diag([1.0, 0.0]))
    sx = np.array([[0, 1], [1, 0]], float)
    with pytest.raises(errors.NotInBA, match=r"^operator maps null\(A\) "
                       r"outside null\(A\): nullspace-invariance residual "
                       r"\S+ exceeds \S+$"):
        sp.compression(sx)
    with pytest.raises(errors.NotInBA, match=r"^no metric adjoint: "
                       r"nullspace-invariance residual \S+ exceeds \S+$"):
        sp.sharp_adjoint(sx)
    with pytest.raises(errors.UnboundedForm, match=r"^operator maps null\(A\)"
                       r".* exceeds \S+; the supremum over the A-unit sphere "
                       r"is infinite$"):
        a_numerical_radius(sp, sx)


@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_a_stack_compresses_as_its_operators_alone(scale):
    # the fuzz compresses a kit's operators as one stack, check and replay
    # each alone: both must give the same bits.  Of a real metric, a real
    # operator is compressed in real arithmetic, so the real operators (of
    # the 1 x 1 kit) are stacked apart
    config = EnsembleConfig(dims=list(range(1, 7)), rank_policy="each", master_seed=42)
    for trial, case in enumerate(DIM_RANK):
        kit = build_kit(config, trial)
        sp = kit.space
        assert (sp.dim, sp.rank) == case
        ops = {id(T): T for Ts in kit.operands.values() for T in Ts if T.ndim == 2}
        for real in (False, True):
            Ts = scale * np.array([T for T in ops.values() if T.imag.any() != real])
            if not len(Ts):
                continue
            with np.errstate(over="ignore"):    # the norms' first sums of squares
                Ms = sp.compression(Ts)
                res, thr = np.broadcast_arrays(*sp.membership_residual(Ts))
                for k, T in enumerate(Ts):
                    assert sp.compression(T).tobytes() == Ms[k].tobytes()
                    assert np.array(sp.membership_residual(T)).tobytes() == np.array(
                        [res[k], thr[k]]).tobytes()


def test_the_shape_of_an_array_decides_a_stack():
    sp = build_space(np.diag([1.0, 0.0]))
    sx = np.array([[0, 1], [1, 0]], float)
    Ts = np.stack([np.eye(2), np.diag([2.0, 3.0])])
    assert sp.compression(Ts).shape == (2, 1, 1)
    assert np.shape(sp.membership_residual(Ts)[0]) == (2,)
    assert sp.require_member(Ts).shape == (2, 2, 2)
    with pytest.raises(errors.NotInBA, match=r"residual 1\.000e\+00 exceeds"):
        sp.require_member(np.stack([np.eye(2), sx]))
    for bad in (np.ones(2), np.ones((2, 2, 2, 2))):
        for fn in (sp.compression, sp.membership_residual, sp.require_member):
            with pytest.raises(ValueError, match=f"^expected a 2-D matrix, got ndim={bad.ndim}$"):
                fn(bad)
    # a metric adjoint and a classification are of one operator
    for fn in (sp.classify, sp.sharp_adjoint):
        with pytest.raises(ValueError, match="^expected a 2-D matrix, got ndim=3$"):
            fn(Ts)
