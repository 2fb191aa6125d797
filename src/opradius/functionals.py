"""Seminorm, numerical radius, Crawford number and range boundary.

Every functional is evaluated on the compression ``M = M_r(T)``: for an
adjointable operator the quadratic form ``<Tx, x>_A`` over the A-unit
sphere equals ``<Mz, z>`` over the Euclidean unit sphere of C^r, so

    ||T||_A = sigma_max(M),
    w_A(T)  = max_theta  lam_max(Re(e^{i theta} M)),
    c_A(T)  = dist(0, W(M)) = max(0, -min_theta lam_max(Re(e^{-i theta} M))).

Both sweeps find an extremum of one function, f(theta) = lam_max(cos(theta)
H + sin(theta) K) for the Hermitian parts of M: a uniform grid locates
it, and a bracketed root-finder on the slope f' (Hellmann-Feynman, from
the top eigenvector each evaluation computes) refines it.  The radius's
witness is the top eigenvector at the best angle the sweep evaluated.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpaceWarning, NotInBA, UnboundedForm
from .space import SemiHilbertSpace

DEFAULT_ANGLES = 720
# Refinement of the grid extrema: the best REFINE_PEAKS of them are
# narrowed to angular width REFINE_WIDTH, in at most REFINE_STEPS
# evaluations each.
REFINE_PEAKS = 8
REFINE_WIDTH = 1e-12
REFINE_STEPS = 64
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


class _RotatedTop:
    """f(theta) = lam_max(cos(theta) P + sin(theta) R) for Hermitian P, R.

    A call returns ``(f, v, f')``: the value, its unit top eigenvector and,
    by Hellmann-Feynman, the slope ``f' = v*(cos(theta) R - sin(theta) P) v``.
    Small matrices use dense solves (batched on the grid); large ones a
    warm-started block subspace iteration (the block is carried between
    nearby angles, so each evaluation needs only a few dense multiplies
    and the rotated matrix is never formed: memory traffic dominates at
    that size).
    """

    _BLOCK = 4

    def __init__(self, P: np.ndarray, R: np.ndarray):
        self.P, self.R = P, R
        self.r = P.shape[0]
        self._V = None

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
            vals = np.array([self._block_top(np.cos(t), np.sin(t))[0]
                             for t in theta])
        return theta, vals

    def __call__(self, theta: float) -> tuple[float, np.ndarray, float]:
        c, s = np.cos(theta), np.sin(theta)
        if self.r <= DENSE_SWEEP_MAX:
            w, U = np.linalg.eigh(c * self.P + s * self.R)
            lam, v = float(w[-1]), U[:, -1]
        else:
            lam, v = self._block_top(c, s)
        slope = float(np.vdot(v, c * (self.R @ v) - s * (self.P @ v)).real)
        return lam, v, slope

    def _start_block(self) -> np.ndarray:
        b = min(self._BLOCK, self.r)
        rng = np.random.default_rng(0x5EED)
        V = rng.standard_normal((self.r, b)) + 1j * rng.standard_normal((self.r, b))
        return np.linalg.qr(V)[0]

    def _block_top(self, c: float, s: float, tol: float = 1e-10,
                   maxiter: int = 400) -> tuple[float, np.ndarray]:
        V = self._V
        if V is None:
            V = self._start_block()
        for _ in range(maxiter):
            W = c * (self.P @ V) + s * (self.R @ V)
            S = V.conj().T @ W
            w, U = np.linalg.eigh((S + S.conj().T) / 2)
            lam = float(w[-1])
            top_vec = V @ U[:, -1]
            res = float(np.linalg.norm(W @ U[:, -1] - lam * top_vec))
            if res <= tol * max(1.0, abs(lam)):
                self._V = V
                return lam, top_vec
            V = np.linalg.qr(W)[0]
        from scipy.linalg import eigh as dense_eigh  # pragma: no cover

        self._V = V  # pragma: no cover
        H = c * self.P + s * self.R  # pragma: no cover
        w, U = dense_eigh(H, subset_by_index=[self.r - 1, self.r - 1])  # pragma: no cover
        return float(w[0]), U[:, 0]  # pragma: no cover


def _illinois(g, a: float, ga: float, b: float, gb: float) -> None:
    """Narrow the sign change of ``g`` on [a, b], ``g(a) > 0 > g(b)``, by
    Illinois regula falsi: a kink is bracketed like a smooth root.  The
    caller's ``g`` records the points it evaluates; nothing is returned."""
    kept = 0                    # +1: b was kept by the last step, -1: a
    for _ in range(REFINE_STEPS):
        if b - a <= REFINE_WIDTH:
            return
        t = (a * gb - b * ga) / (gb - ga)
        if not a < t < b:       # rounding at a tiny bracket
            t = 0.5 * (a + b)
        gt = g(t)
        if gt == 0.0:
            return
        if gt > 0:
            a, ga = t, gt
            if kept == 1:
                gb /= 2
            kept = 1
        else:
            b, gb = t, gt
            if kept == -1:
                ga /= 2
            kept = -1


def _sweep_extremum(top: _RotatedTop, angles: int,
                    maximize: bool) -> tuple[float, float, np.ndarray]:
    """Extremum of f over the circle as ``(theta, f, top eigenvector)``.

    The best REFINE_PEAKS local extrema of the uniform grid are refined:
    ``g = sign * f'`` changes sign from + to - at each of them, so the
    extremum lies within one grid step on the side the slope at its grid
    angle points to.  The best point evaluated wins; the best grid angle
    is among them, so refinement never loses to the grid.
    """
    sign = 1.0 if maximize else -1.0
    theta, vals = top.grid(angles)
    g = sign * vals
    peaks = np.flatnonzero((g >= np.roll(g, 1)) & (g >= np.roll(g, -1)))
    peaks = peaks[np.argsort(g[peaks])[::-1][:REFINE_PEAKS]]
    best = (0.0, -np.inf, None)         # (theta, sign * f, v)

    def slope(t: float) -> float:
        nonlocal best
        f, v, df = top(t)
        if sign * f > best[1]:
            best = (t, sign * f, v)
        return sign * df

    step = 2 * np.pi / angles
    for i in peaks:
        t0 = float(theta[i])
        g0 = slope(t0)
        if g0 == 0.0:
            continue
        t1 = t0 + np.copysign(step, g0)
        g1 = slope(t1)
        if g0 * g1 < 0:
            lo, hi = sorted(((t0, g0), (t1, g1)))
            _illinois(slope, *lo, *hi)
    t, f, v = best
    return float(t) % (2 * np.pi), sign * f, v


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
    theta, val, vec = _sweep_extremum(top, num_angles, maximize=True)
    if not want_witness:
        return val
    form = complex(vec.conj() @ (M @ vec))
    gap = abs(val - abs(form)) + 1e-12 * scale
    return val, theta, vec, gap


def crawford_number(M: np.ndarray) -> float:
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
    _, h_min, _ = _sweep_extremum(top, DEFAULT_ANGLES, maximize=False)
    return max(0.0, -h_min)


# ---------------------------------------------------------------------------
# operator-level API
# ---------------------------------------------------------------------------

def _compression_or_raise(space: SemiHilbertSpace, T, exc_type) -> np.ndarray:
    T = space.require_member(
        T, exc_type, tail="; the supremum over the A-unit sphere is infinite")
    return space.compression(T, check=False)


def operator_a_norm(space: SemiHilbertSpace, T) -> float:
    """Operator seminorm sigma_max(M_r(T)); the operator must admit a
    metric adjoint."""
    return spectral_norm(_compression_or_raise(space, T, NotInBA))


def a_numerical_radius(space: SemiHilbertSpace, T) -> RadiusResult:
    """Numerical radius w_A(T) with maximizing angle and witness vector."""
    M = _compression_or_raise(space, T, UnboundedForm)
    if space.rank == 0:
        warnings.warn("rank-zero metric: all functionals vanish",
                      DegenerateSpaceWarning, stacklevel=2)
        return RadiusResult(0.0, 0.0, np.zeros(space.dim, complex), 0.0)
    val, theta, vec, gap = numerical_radius(M, want_witness=True)
    x = space.lift_vector(vec)
    nx = space.a_norm(x)
    if nx > 0:
        x = x / nx
    return RadiusResult(value=val, argmax_angle=theta, witness=x, gap=gap)


def a_crawford(space: SemiHilbertSpace, T) -> float:
    """Crawford number: distance from 0 to the compressed numerical range."""
    M = _compression_or_raise(space, T, UnboundedForm)
    if space.rank == 0:
        warnings.warn("rank-zero metric: Crawford number is 0 by convention",
                      DegenerateSpaceWarning, stacklevel=2)
        return 0.0
    return crawford_number(M)


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
