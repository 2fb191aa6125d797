"""Seminorm, numerical radius, Crawford number and range boundary.

Every functional is evaluated on the compression ``M = M_r(T)``: for an
adjointable operator the quadratic form ``<Tx, x>_A`` over the A-unit
sphere equals ``<Mz, z>`` over the Euclidean unit sphere of C^r, so

    ||T||_A = sigma_max(M),
    w_A(T)  = max_theta  lam_max(Re(e^{i theta} M)),
    c_A(T)  = dist(0, W(M)) = max(0, -min_theta lam_max(Re(e^{-i theta} M))).

The rotated-eigenvalue sweeps use a coarse uniform grid followed by
golden-section refinement of the bracketed extrema.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpaceWarning, NotInBA, UnboundedForm
from .space import SemiHilbertSpace

DEFAULT_ANGLES = 720
GOLDEN_WIDTH = 1e-12
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0
# Above this size the per-angle top eigenvalue switches from the batched
# dense path to a warm-started block subspace iteration.
DENSE_SWEEP_MAX = 128


@dataclass
class RadiusResult:
    """Numerical radius value with its maximizing rotation and witness.

    ``witness`` is an A-unit vector x with |<Tx, x>_A| within ``gap`` of
    ``value``; ``argmax_angle`` is the rotation angle attaining the
    supremum, in [0, 2*pi).
    """

    value: float
    argmax_angle: float
    witness: np.ndarray
    gap: float


# ---------------------------------------------------------------------------
# rotated top-eigenvalue sweeps on a compressed matrix
# ---------------------------------------------------------------------------

def _split(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    H = (M + M.conj().T) / 2
    K = (M - M.conj().T) / 2j
    return H, K


def _top_eig_dense(H: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(H)[-1])


class _RotatedTop:
    """f(theta) = lam_max(cos(theta) P + sin(theta) R) for Hermitian P, R.

    Small matrices use batched dense solves; large ones a warm-started
    block subspace iteration (the block is carried between nearby
    angles, so each evaluation needs only a few dense multiplies).
    """

    _BLOCK = 4

    def __init__(self, P: np.ndarray, R: np.ndarray):
        self.P, self.R = P, R
        self.r = P.shape[0]
        self._V = None
        if self.r > DENSE_SWEEP_MAX:
            # static complex copies so the iteration never re-materializes
            # the rotated matrix (memory traffic dominates at this size)
            self._Pc = np.ascontiguousarray(P, dtype=complex)
            self._Rc = np.ascontiguousarray(R, dtype=complex)

    def grid(self, angles: int) -> tuple[np.ndarray, np.ndarray]:
        theta = np.linspace(0.0, 2 * np.pi, angles, endpoint=False)
        if self.r <= DENSE_SWEEP_MAX:
            vals = np.empty(angles)
            block = max(1, 2_000_000 // max(self.r * self.r, 1))
            for i in range(0, angles, block):
                t = theta[i:i + block]
                stack = (np.cos(t)[:, None, None] * self.P
                         + np.sin(t)[:, None, None] * self.R)
                vals[i:i + block] = np.linalg.eigvalsh(stack)[:, -1]
        else:
            vals = np.array([self(t) for t in theta])
        return theta, vals

    def __call__(self, theta: float) -> float:
        if self.r <= DENSE_SWEEP_MAX:
            return _top_eig_dense(np.cos(theta) * self.P
                                  + np.sin(theta) * self.R)
        return self._block_top(theta)

    def _start_block(self) -> np.ndarray:
        b = min(self._BLOCK, self.r)
        rng = np.random.default_rng(0x5EED)
        V = rng.standard_normal((self.r, b)) + 1j * rng.standard_normal((self.r, b))
        return np.linalg.qr(V)[0]

    def _block_top(self, theta: float, tol: float = 1e-10,
                   maxiter: int = 400, want_vector: bool = False):
        c, s = np.cos(theta), np.sin(theta)
        V = self._V
        if V is None:
            V = self._start_block()
        for _ in range(maxiter):
            W = c * (self._Pc @ V) + s * (self._Rc @ V)
            S = V.conj().T @ W
            w, U = np.linalg.eigh((S + S.conj().T) / 2)
            lam = float(w[-1])
            top_vec = V @ U[:, -1]
            res = float(np.linalg.norm(W @ U[:, -1] - lam * top_vec))
            if res <= tol * max(1.0, abs(lam)):
                self._V = V
                return (lam, top_vec) if want_vector else lam
            V = np.linalg.qr(W)[0]
        from scipy.linalg import eigh as dense_eigh  # pragma: no cover

        self._V = V  # pragma: no cover
        H = c * self.P + s * self.R  # pragma: no cover
        w, U = dense_eigh(H, subset_by_index=[self.r - 1, self.r - 1])  # pragma: no cover
        return (float(w[0]), U[:, 0]) if want_vector else float(w[0])  # pragma: no cover

    def eigvec_at(self, theta: float) -> tuple[float, np.ndarray]:
        if self.r > DENSE_SWEEP_MAX:
            return self._block_top(theta, want_vector=True)
        H = np.cos(theta) * self.P + np.sin(theta) * self.R
        w, V = np.linalg.eigh(H)
        return float(w[-1]), V[:, -1]


def _golden(f, a: float, b: float, maximize: bool,
            width: float = GOLDEN_WIDTH) -> tuple[float, float]:
    """Golden-section search on [a, b] down to the given angular width."""
    sign = 1.0 if maximize else -1.0
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = sign * f(c), sign * f(d)
    while b - a > width:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = sign * f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = sign * f(d)
    if fc >= fd:
        return c, sign * fc
    return d, sign * fd


def _local_extrema(vals: np.ndarray, maximize: bool, cap: int = 8) -> np.ndarray:
    left = np.roll(vals, 1)
    right = np.roll(vals, -1)
    if maximize:
        mask = (vals >= left) & (vals >= right)
        order = np.argsort(vals[mask])[::-1]
    else:
        mask = (vals <= left) & (vals <= right)
        order = np.argsort(vals[mask])
    idx = np.flatnonzero(mask)[order]
    return idx[:cap]


def _sweep_extremum(top: _RotatedTop, angles: int, maximize: bool) -> tuple[float, float]:
    theta, vals = top.grid(angles)
    step = 2 * np.pi / angles
    best_t, best_v = None, None
    small = top.r <= DENSE_SWEEP_MAX
    cap = 8 if small else 2
    # past width ~1e-7 the value is converged to the iterative eigensolver
    # resolution, so the large-matrix path stops there
    width = GOLDEN_WIDTH if small else 1e-7
    for i in _local_extrema(vals, maximize, cap=cap):
        t, v = _golden(top, theta[i] - step, theta[i] + step, maximize,
                       width=width)
        if best_v is None or (v > best_v if maximize else v < best_v):
            best_t, best_v = t, v
    if best_v is None:  # constant grid, e.g. all equal values
        best_t, best_v = float(theta[np.argmax(vals) if maximize else np.argmin(vals)]), \
            float(vals.max() if maximize else vals.min())
    grid_v = float(vals.max()) if maximize else float(vals.min())
    best_v = max(best_v, grid_v) if maximize else min(best_v, grid_v)
    return float(best_t) % (2 * np.pi), float(best_v)


# ---------------------------------------------------------------------------
# classical functionals on a compressed matrix
# ---------------------------------------------------------------------------

def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value; 0 for the empty matrix."""
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def numerical_radius(M: np.ndarray, num_angles: int = DEFAULT_ANGLES,
                     want_witness: bool = False):
    """Classical numerical radius of a square matrix via rotation sweep.

    Returns the value, or ``(value, theta, eigvec, gap)`` with
    ``want_witness=True``.
    """
    M = np.asarray(M, dtype=complex)
    r = M.shape[0]
    if r == 0:
        return (0.0, 0.0, np.zeros(0, complex), 0.0) if want_witness else 0.0
    if r == 1:
        m = complex(M[0, 0])
        val = abs(m)
        theta = float(-np.angle(m)) % (2 * np.pi) if val > 0 else 0.0
        if want_witness:
            return val, theta, np.ones(1, dtype=complex), 0.0
        return val
    H, K = _split(M)
    scale = max(1.0, float(np.linalg.norm(M)))
    if np.linalg.norm(K) <= 1e-12 * scale:
        # Hermitian: the sweep peaks exactly at theta = 0 or pi.
        w, V = np.linalg.eigh(H.real if not H.imag.any() else H)
        if abs(w[-1]) >= abs(w[0]):
            val, theta, vec = float(abs(w[-1])), 0.0, V[:, -1]
        else:
            val, theta, vec = float(abs(w[0])), float(np.pi), V[:, 0]
        if want_witness:
            return val, theta, vec, 1e-12 * scale
        return val
    # Re(e^{i theta} M) = cos(theta) H - sin(theta) K
    top = _RotatedTop(H, -K)
    theta, val = _sweep_extremum(top, num_angles, maximize=True)
    if not want_witness:
        return val
    _, vec = top.eigvec_at(theta)
    form = complex(vec.conj() @ (M @ vec))
    gap = abs(val - abs(form)) + 1e-12 * scale
    return val, theta, vec, gap


def crawford_number(M: np.ndarray, num_angles: int = DEFAULT_ANGLES) -> float:
    """Distance from the origin to the (convex) numerical range of M."""
    M = np.asarray(M, dtype=complex)
    r = M.shape[0]
    if r == 0:
        return 0.0
    if r == 1:
        return abs(complex(M[0, 0]))
    H, K = _split(M)
    # support function h(theta) = lam_max(Re(e^{-i theta} M))
    top = _RotatedTop(H, K)
    _, h_min = _sweep_extremum(top, num_angles, maximize=False)
    return max(0.0, -h_min)


# ---------------------------------------------------------------------------
# operator-level API
# ---------------------------------------------------------------------------

def _compression_or_raise(space: SemiHilbertSpace, T, exc_type) -> np.ndarray:
    T = space.require_member(
        T, exc_type, tail="; the supremum over the A-unit sphere is infinite")
    return space.compression(T, check=False)


def operator_a_norm(space: SemiHilbertSpace, T, strict: bool = True) -> float:
    """Operator seminorm sigma_max(M_r(T)).

    With ``strict`` (default) the operator must admit a metric adjoint;
    non-strict mode still returns the seminorm of the range-restricted
    action, which is finite in finite dimension.
    """
    if strict:
        M = _compression_or_raise(space, T, NotInBA)
    else:
        M = space.compression(T, check=False)
    return spectral_norm(M)


def a_numerical_radius(space: SemiHilbertSpace, T,
                       num_angles: int = DEFAULT_ANGLES) -> RadiusResult:
    """Numerical radius w_A(T) with maximizing angle and witness vector."""
    M = _compression_or_raise(space, T, UnboundedForm)
    if space.rank == 0:
        warnings.warn("rank-zero metric: all functionals vanish",
                      DegenerateSpaceWarning, stacklevel=2)
        return RadiusResult(0.0, 0.0, np.zeros(space.dim, complex), 0.0)
    val, theta, vec, gap = numerical_radius(M, num_angles, want_witness=True)
    x = space.lift_vector(vec)
    nx = space.a_norm(x)
    if nx > 0:
        x = x / nx
    return RadiusResult(value=val, argmax_angle=theta, witness=x, gap=gap)


def a_crawford(space: SemiHilbertSpace, T,
               num_angles: int = DEFAULT_ANGLES) -> float:
    """Crawford number: distance from 0 to the compressed numerical range."""
    M = _compression_or_raise(space, T, UnboundedForm)
    if space.rank == 0:
        warnings.warn("rank-zero metric: Crawford number is 0 by convention",
                      DegenerateSpaceWarning, stacklevel=2)
        return 0.0
    return crawford_number(M, num_angles)


def range_boundary(space: SemiHilbertSpace, T,
                   num_angles: int) -> list[tuple[float, float, complex]]:
    """Support values and boundary points of the compressed range.

    For each theta on a uniform grid returns
    ``(theta, h(theta), <M v, v>)`` where ``h`` is the support function
    ``lam_max(Re(e^{-i theta} M))`` and ``v`` its top eigenvector.
    """
    M = _compression_or_raise(space, T, UnboundedForm)
    out: list[tuple[float, float, complex]] = []
    if space.rank == 0:
        return out
    H, K = _split(M)
    for theta in np.linspace(0.0, 2 * np.pi, num_angles, endpoint=False):
        Ht = np.cos(theta) * H + np.sin(theta) * K
        w, V = np.linalg.eigh(Ht)
        v = V[:, -1]
        out.append((float(theta), float(w[-1]), complex(v.conj() @ (M @ v))))
    return out


def sampling_oracle(space: SemiHilbertSpace, T, samples: int, seed) -> float:
    """Brute-force lower bound on w_A(T): the best of ``samples`` uniform
    random unit vectors in the compressed space.  Deterministic per seed
    and independent of every other functional."""
    M = _compression_or_raise(space, T, UnboundedForm)
    r = space.rank
    if r == 0 or samples <= 0:
        return 0.0
    rng = np.random.default_rng(seed)
    best = 0.0
    chunk = max(1, min(samples, 4_000_000 // max(r, 1)))
    left = samples
    while left > 0:
        k = min(chunk, left)
        Z = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
        Z /= np.linalg.norm(Z, axis=1)[:, None]
        vals = np.abs(np.einsum("si,ij,sj->s", Z.conj(), M, Z))
        best = max(best, float(vals.max()))
        left -= k
    return best
