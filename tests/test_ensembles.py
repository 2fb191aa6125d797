import numpy as np
import pytest

from opradius import (
    EnsembleConfig,
    build_space,
    errors,
    random_a_normal,
    random_a_positive,
    random_a_unitary,
    random_commuting_family,
    random_in_BA,
    random_psd,
)


def test_psd_rank_and_determinism():
    A1 = random_psd(4, 2, 123)
    A2 = random_psd(4, 2, 123)
    assert np.array_equal(A1, A2)
    w = np.linalg.eigvalsh(A1)
    assert (w > 1e-10 * w[-1]).sum() == 2
    assert np.linalg.norm(A1 - A1.conj().T) < 1e-14


def test_psd_full_rank_positive_definite():
    w = np.linalg.eigvalsh(random_psd(3, 3, 5))
    assert w[0] > 0


def test_psd_bad_rank():
    with pytest.raises(errors.BadRank):
        random_psd(3, 4, 0)
    with pytest.raises(errors.BadRank):
        random_psd(3, 0, 0)


def test_in_BA_membership_by_construction():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        r = int(rng.integers(1, d + 1))
        sp = build_space(random_psd(d, r, rng))
        T = random_in_BA(sp, rng)
        assert sp.classify(T).in_BA
        sp.sharp_adjoint(T)  # must not raise


def test_in_BA_identity_metric_unconstrained():
    sp = build_space(np.eye(3))
    T = random_in_BA(sp, 7)
    assert T.shape == (3, 3)
    assert sp.classify(T).in_BA


def test_a_selfadjoint_and_positive_flags():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        sp = build_space(random_psd(4, int(rng.integers(1, 5)), rng))
        T = random_in_BA(sp, rng)
        assert sp.classify(sp.re_a(T)).a_selfadjoint
        cls = sp.classify(random_a_positive(sp, rng))
        assert cls.a_positive and cls.a_selfadjoint


def test_a_positive_radius_is_top_eigenvalue():
    from opradius import a_numerical_radius

    rng = np.random.default_rng(11)
    sp = build_space(random_psd(4, 3, rng))
    T = random_a_positive(sp, rng)
    H = sp.compression(T)
    assert a_numerical_radius(sp, T).value == pytest.approx(
        float(np.linalg.eigvalsh(H)[-1]), abs=1e-9)


def test_a_unitary_preserves_norms():
    rng = np.random.default_rng(3)
    sp = build_space(random_psd(5, 3, rng))
    U = random_a_unitary(sp, rng)
    M = sp.compression(U)
    assert np.linalg.norm(M.conj().T @ M - np.eye(sp.rank)) < 1e-10
    for _ in range(10):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        if sp.a_norm(x) > 1e-9:
            assert sp.a_norm(U @ x) == pytest.approx(sp.a_norm(x), rel=1e-9)


def test_a_normal_flag():
    rng = np.random.default_rng(19)
    sp = build_space(random_psd(4, 2, rng))
    assert sp.classify(random_a_normal(sp, rng)).a_normal


def test_commuting_family_properties():
    rng = np.random.default_rng(8)
    sp = build_space(random_psd(4, 3, rng))
    fam = random_commuting_family(sp, 3, rng)
    comps = [sp.compression(T) for T in fam]
    for i in range(3):
        assert sp.classify(fam[i]).a_normal
        for j in range(i + 1, 3):
            assert np.linalg.norm(comps[i] @ comps[j] - comps[j] @ comps[i]) \
                <= 1e-9 * max(1.0, np.linalg.norm(comps[i]) * np.linalg.norm(comps[j]))
    # the family sum commutes with each member's adjoint compression
    S1 = sum(comps)
    for M in comps:
        assert np.linalg.norm(S1 @ M.conj().T - M.conj().T @ S1) \
            <= 1e-9 * max(1.0, np.linalg.norm(S1) * np.linalg.norm(M))


def test_config_lattice_and_rotation():
    cfg = EnsembleConfig(dims=[2, 3], rank_policy="each", trials=10, master_seed=0)
    assert cfg.lattice() == [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
    assert cfg.trial_case(0) == (2, 1)
    assert cfg.trial_case(5) == (2, 1)
    full = EnsembleConfig(dims=[2, 3], rank_policy="full", trials=1, master_seed=0)
    assert full.lattice() == [(2, 2), (3, 3)]


def test_config_validation():
    with pytest.raises(errors.ConfigError):
        EnsembleConfig(dims=[], trials=1)
    with pytest.raises(errors.ConfigError):
        EnsembleConfig(dims=[2], rank_policy="nope", trials=1)
    with pytest.raises(errors.ConfigError):
        EnsembleConfig(dims=[2], trials=-1)


def test_trial_rng_independent_of_order():
    cfg = EnsembleConfig(dims=[3], rank_policy="each", trials=4, master_seed=99)
    a = cfg.trial_rng(2).standard_normal(4)
    _ = cfg.trial_rng(0).standard_normal(10)
    b = cfg.trial_rng(2).standard_normal(4)
    assert np.array_equal(a, b)


def test_coverage_every_rank():
    cfg = EnsembleConfig(dims=[2, 3, 4, 5, 6], rank_policy="each",
                         trials=100, master_seed=0)
    seen = {cfg.trial_case(t) for t in range(100)}
    expect = {(d, r) for d in (2, 3, 4, 5, 6) for r in range(1, d + 1)}
    assert seen == expect
