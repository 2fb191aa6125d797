"""Semi-Hilbertian space built from a positive-semidefinite metric.

A metric ``A`` induces the semi-inner product ``<x, y>_A = <Ax, y>``
(linear in the first argument).  All operator functionals reduce to
classical ones on the rank-r compression

    M_r(T) = Lam^{1/2} (Q* T Q) Lam^{-1/2},

where ``A = Q Lam Q*`` is the thin spectral factorization: the map
``x -> Lam^{1/2} Q* x`` sends the A-unit sphere onto the Euclidean unit
sphere of C^r, carries the metric adjoint to the conjugate transpose,
and is multiplicative on operators that admit a metric adjoint.

Membership in that adjointable class is decided by nullspace
invariance, ``T(null A) <= null A``, which in finite dimension is
equivalent to the Douglas range condition ``range(T* A) <= range(A)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionMismatch, NonSquare, NotInBA, NotPSD
from .numkernel import as_matrix, frobenius, hermitian_eig

DEFAULT_TOL = 1e-10


@dataclass
class OperatorClassification:
    in_BA: bool
    a_selfadjoint: bool
    a_positive: bool
    a_normal: bool
    a_unitary: bool


@dataclass
class SemiHilbertSpace:
    """Validated metric and its thin spectral factorization A = Q Lam Q*.

    The only n x n array kept is the metric itself; every other operator
    (the projector, the metric adjoint) is formed from the
    factors ``Q``, ``lam`` and ``Qn`` when it is asked for.  Immutable
    after construction; every method is a pure function of its
    arguments, so instances are safe to share between threads.
    """

    dim: int
    metric: np.ndarray
    rank: int
    Q: np.ndarray           # dim x rank, orthonormal range basis
    lam: np.ndarray         # rank positive eigenvalues, ascending
    Qn: np.ndarray          # dim x (dim - rank), nullspace basis
    tol: float = DEFAULT_TOL
    _sqrt_lam: np.ndarray = field(repr=False, default=None)

    @property
    def projector(self) -> np.ndarray:
        """Orthogonal projector Q Q* onto the range of the metric."""
        return self.Q @ self.Q.conj().T

    # -- vectors -----------------------------------------------------------

    def _check_vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex).reshape(-1)
        if x.shape[0] != self.dim:
            raise DimensionMismatch(f"vector length {x.shape[0]} != dim {self.dim}")
        return x

    def a_inner(self, x, y) -> complex:
        """<x, y>_A = <Ax, y>, linear in the first argument."""
        x, y = self._check_vector(x), self._check_vector(y)
        return complex(np.vdot(y, self.metric @ x))

    def a_norm(self, x) -> float:
        val = self.a_inner(x, x)
        return float(np.sqrt(max(val.real, 0.0)))

    def compress_vector(self, x) -> np.ndarray:
        """Coordinates of x on the range: y = Lam^{1/2} Q* x, with
        ||y|| = ||x||_A."""
        x = self._check_vector(x)
        return self._sqrt_lam * (self.Q.conj().T @ x)

    def lift_vector(self, y) -> np.ndarray:
        """Right inverse of compress_vector: x = Q Lam^{-1/2} y."""
        y = np.asarray(y, dtype=complex).reshape(-1)
        return self.Q @ (y / self._sqrt_lam)

    # -- operators ---------------------------------------------------------

    def _check_operator(self, T) -> np.ndarray:
        # a 3-D array is a stack of operators
        T = as_matrix(T, np.ndim(T) == 3)
        if T.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatch(
                f"operator is {T.shape}, space dim is {self.dim}"
            )
        return T

    def membership_residual(self, T):
        """Residual ||A^{1/2} T Qn|| = ||Lam^{1/2} Q* T Qn|| of the
        nullspace-invariance test, and its threshold; of a stack, the
        arrays of those of its operators.  A lone operator is a stack of
        one, so that it has the bits it has in any stack."""
        T = self._check_operator(T)
        if self.rank in (0, self.dim):
            return np.zeros(T.shape[:-2]) if T.ndim > 2 else 0.0, self.tol
        S = T.reshape(-1, self.dim, self.dim)
        leak = self._sqrt_lam[:, None] * (self.Q.conj().T @ S @ self.Qn)
        res, thr = frobenius(leak), self.tol * (1.0 + frobenius(S) * frobenius(self.metric))
        return (res, thr) if T.ndim > 2 else (float(res[0]), float(thr[0]))

    def require_member(self, T, exc_type=NotInBA,
                       lead: str = "operator maps null(A) outside null(A)",
                       tail: str = "") -> np.ndarray:
        """Return the validated ``T``, or raise ``exc_type`` reading
        ``"<lead>: nullspace-invariance residual R exceeds THR<tail>"``
        (for a stack, of its first operator that fails)."""
        T = self._check_operator(T)
        res, thr = np.broadcast_arrays(*self.membership_residual(T))
        if not np.all(res <= thr):
            k = np.argmin(res <= thr)       # the first that fails; NaN fails
            raise exc_type(
                f"{lead}: nullspace-invariance residual {res.flat[k]:.3e} "
                f"exceeds {thr.flat[k]:.3e}{tail}"
            )
        return T

    def compression(self, T, check: bool = True) -> np.ndarray:
        """The r x r matrix Lam^{1/2} (Q* T Q) Lam^{-1/2}; of a stack, those
        of its operators, each as alone unless real and complex mix."""
        T = self.require_member(T) if check else self._check_operator(T)
        if self.rank == 0:
            return np.zeros(T.shape[:-2] + (0, 0), dtype=complex)
        if not T.imag.any() and not np.iscomplexobj(self.Q):
            T = T.real  # keep real inputs on the fast real BLAS path
        core = self.Q.conj().T @ T @ self.Q
        return core * (self._sqrt_lam[:, None] / self._sqrt_lam[None, :])

    def classify(self, T) -> OperatorClassification:
        T = as_matrix(T)
        res, thr = self.membership_residual(T)
        member = res <= thr
        scale = max(1.0, frobenius(self.metric) * frobenius(T))
        AT = self.metric @ T
        selfadj = frobenius(AT - T.conj().T @ self.metric) <= self.tol * scale
        positive = False
        if selfadj:
            H = (AT + AT.conj().T) / 2
            w = np.linalg.eigvalsh(H)
            top = max(float(w[-1]), 0.0) if w.size else 0.0
            positive = (not w.size) or float(w[0]) >= -self.tol * max(top, 1.0)
        normal = unitary = False
        if member:
            M = self.compression(T, check=False)
            if M.size:
                # above about 1e154, M* M overflows and M reads as not normal
                mm, nM = M.conj().T @ M, frobenius(M)
                bound = self.tol * max(1.0, nM * nM)
                normal = frobenius(mm - M @ M.conj().T) <= bound
                unitary = frobenius(mm - np.eye(self.rank)) <= bound
            else:
                normal = unitary = True
        return OperatorClassification(
            in_BA=member, a_selfadjoint=selfadj, a_positive=positive,
            a_normal=normal, a_unitary=unitary,
        )

    def sharp_adjoint(self, T) -> np.ndarray:
        """The distinguished metric adjoint ``A^+ T* A`` (requires
        membership; satisfies ``A T^sharp = T* A``)."""
        T = self.require_member(as_matrix(T), lead="no metric adjoint")
        return (self.Q / self.lam) @ self.Q.conj().T @ T.conj().T @ self.metric

    def re_a(self, T) -> np.ndarray:
        """Metric-Hermitian part (T + T^sharp) / 2."""
        return (T + self.sharp_adjoint(T)) / 2

    def im_a(self, T) -> np.ndarray:
        """Metric-skew part (T - T^sharp) / 2i."""
        return (self._check_operator(T) - self.sharp_adjoint(T)) / 2j


def build_space(A, tol: float = DEFAULT_TOL) -> SemiHilbertSpace:
    """Validate a Hermitian PSD metric and factor it as A = Q Lam Q*.

    Eigenvalues at most ``tol * lam_max`` count as zero; one below
    ``-tol * lam_max`` makes the metric NotPSD.  ``tol`` must lie in
    [0, 1): a cutoff >= 1 drops every eigenvalue, a negative one calls a
    PSD metric negative, and NaN makes every comparison false.
    """
    if not 0.0 <= tol < 1.0:
        raise ConfigError(f"space tolerance {tol!r} is not in [0, 1)")
    A = as_matrix(A)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise NonSquare(f"metric is {A.shape[0]}x{A.shape[1]}")
    w, V = hermitian_eig(A)
    lam_max = max(float(w[-1]), 0.0) if n else 0.0
    if n and float(w[0]) < -tol * max(lam_max, 1e-300):
        raise NotPSD(f"metric eigenvalue {w[0]:.3e} is negative")
    keep = w > tol * max(lam_max, 1e-300)
    Q, lam, Qn = V[:, keep], w[keep], V[:, ~keep]
    return SemiHilbertSpace(
        dim=n, metric=A, rank=int(lam.shape[0]), Q=Q, lam=lam, Qn=Qn,
        tol=tol, _sqrt_lam=np.sqrt(lam),
    )
