"""Seeded random generators for metrics and structured operator families.

Structured families are built on the compressed side and lifted through
``x -> Q Lam^{-1/2} x`` so their defining property (metric positivity,
metric unitarity, commutation) holds exactly by construction; nullspace
blocks are zero except for the identity block of unitaries.

Every generator accepts an integer seed or a ``numpy.random.Generator``,
so a harness can hand each trial its own independent stream.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadRank, ConfigError
from .space import SemiHilbertSpace, build_space


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@dataclass
class EnsembleConfig:
    """Fuzz-campaign operand distribution.

    Trials walk the (dim, rank) lattice round-robin; the per-trial
    generator is derived from ``(master_seed, trial)`` so results do not
    depend on execution order or thread count.
    """

    dims: list[int] = field(default_factory=lambda: [2, 3, 4, 5, 6])
    rank_policy: str = "each"  # "each": every rank 1..dim; "full": rank == dim
    trials: int = 1000
    master_seed: int = 0

    def __post_init__(self):
        if not self.dims or any(d < 1 for d in self.dims):
            raise ConfigError(f"bad dims {self.dims}")
        if self.rank_policy not in ("each", "full"):
            raise ConfigError(f"unknown rank policy {self.rank_policy!r}")
        if self.trials < 0:
            raise ConfigError("trials must be >= 0")

    def lattice(self) -> list[tuple[int, int]]:
        if self.rank_policy == "full":
            return [(d, d) for d in self.dims]
        return [(d, r) for d in self.dims for r in range(1, d + 1)]

    def trial_case(self, trial: int) -> tuple[int, int]:
        lat = self.lattice()
        return lat[trial % len(lat)]

    def trial_rng(self, trial: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.master_seed, spawn_key=(trial,))
        )


def random_psd(dim: int, rank: int, seed) -> np.ndarray:
    """Random PSD metric of exact rank: ``G G*`` with Gaussian G."""
    if not 1 <= rank <= dim:
        raise BadRank(f"rank {rank} outside 1..{dim}")
    rng = np.random.default_rng(seed)
    for _ in range(64):
        G = _ginibre(rng, dim, rank)
        A = G @ G.conj().T
        w = np.linalg.eigvalsh(A)
        if int((w > 1e-10 * max(w[-1], 1e-300)).sum()) == rank:
            return A
    raise BadRank(f"could not draw a rank-{rank} PSD matrix")  # pragma: no cover


def random_space(dim: int, rank: int, seed) -> SemiHilbertSpace:
    return build_space(random_psd(dim, rank, seed))


def random_in_BA(space: SemiHilbertSpace, seed) -> np.ndarray:
    """Generic adjointable operator: Gaussian blocks with the
    null(A) -> range(A) block forced to zero."""
    rng = np.random.default_rng(seed)
    Q, Qn, r = space.Q, space.Qn, space.rank
    nn = space.dim - r
    T = Q @ _ginibre(rng, r, r) @ Q.conj().T
    if nn:
        T = T + Qn @ _ginibre(rng, nn, r) @ Q.conj().T
        T = T + Qn @ _ginibre(rng, nn, nn) @ Qn.conj().T
    return T


def _lift(space: SemiHilbertSpace, M: np.ndarray) -> np.ndarray:
    """Operator with compression exactly M and zero nullspace blocks."""
    s = np.sqrt(space.lam)
    core = M * (1.0 / s[:, None] * s[None, :])
    return space.Q @ core @ space.Q.conj().T


def random_a_positive(space: SemiHilbertSpace, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    r = space.rank
    G = _ginibre(rng, r, r)
    return _lift(space, G @ G.conj().T)


def random_a_unitary(space: SemiHilbertSpace, seed) -> np.ndarray:
    """Metric isometry: Haar-ish unitary compression plus the identity
    on the nullspace, so ||Ux||_A = ||x||_A for every x."""
    rng = np.random.default_rng(seed)
    r = space.rank
    Qm, Rm = np.linalg.qr(_ginibre(rng, r, r))
    d = np.diag(Rm).copy()
    d[np.abs(d) == 0] = 1.0
    V = Qm * (d / np.abs(d))
    U = _lift(space, V)
    if space.dim - r:
        U = U + space.Qn @ space.Qn.conj().T
    return U


def random_a_normal(space: SemiHilbertSpace, seed) -> np.ndarray:
    """Operator whose compression is normal (unitary conjugate of a
    random complex diagonal)."""
    rng = np.random.default_rng(seed)
    r = space.rank
    Qm, _ = np.linalg.qr(_ginibre(rng, r, r))
    d = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    return _lift(space, (Qm * d) @ Qm.conj().T)


def random_commuting_family(space: SemiHilbertSpace, n: int, seed) -> list[np.ndarray]:
    """Pairwise commuting adjointable family: complex polynomials of a
    single lifted Hermitian compression.  Each member is metric-normal
    and the family sum commutes with every member's metric adjoint."""
    rng = np.random.default_rng(seed)
    r = space.rank
    G = _ginibre(rng, r, r)
    H = (G + G.conj().T) / 2
    eye = np.eye(r, dtype=complex)
    fam = []
    for _ in range(max(n, 1)):
        coef = rng.standard_normal(r + 1) + 1j * rng.standard_normal(r + 1)
        P = np.zeros((r, r), dtype=complex)
        for c in coef:
            P = P @ H + c * eye
        fam.append(_lift(space, P))
    return fam
