"""Dense complex matrix primitives.

Everything downstream works on plain ``numpy.ndarray`` matrices with
``complex128`` entries.  This module owns validation, the Hermitian
eigendecomposition with a deterministic ordering/phase convention, the
Moore-Penrose pseudoinverse, PSD square roots, real-spectrum fractional
powers, and the JSON matrix file format used by the CLI.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexSpectrum,
    NegativeBase,
    NonDiagonalizable,
    NonSquare,
    NotHermitian,
    NotPSD,
)

# Relative cutoff below which singular/eigenvalues count as zero.
RANK_CUTOFF = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array and reject non-finite entries."""
    M = np.asarray(a, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains NaN or Inf entries")
    return M


def frobenius(M: np.ndarray) -> float:
    return float(np.linalg.norm(M))


def hermitian_defect(M: np.ndarray) -> float:
    """Frobenius distance to the Hermitian part, relative-scale ready."""
    return float(np.linalg.norm(M - M.conj().T))


@dataclass
class HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real ascending; ``eigenvectors`` holds the
    matching orthonormal columns with a fixed phase convention (first
    significant component real positive) so repeated runs agree.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_phases(V: np.ndarray) -> np.ndarray:
    V = V.copy()
    for j in range(V.shape[1]):
        col = V[:, j]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        k = int(np.argmax(mags > 1e-12 * top))
        phase = col[k] / abs(col[k])
        V[:, j] = col * phase.conjugate()
    return V


def hermitian_eig(M, tol: float = 1e-8) -> HermitianEigen:
    """Eigendecompose a Hermitian matrix.

    Raises NonSquare / NotHermitian when ``M`` is not square or its
    anti-Hermitian part exceeds ``tol * max(1, ||M||_F)``.
    """
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise NonSquare(f"matrix is {M.shape[0]}x{M.shape[1]}")
    scale = max(1.0, frobenius(M))
    if hermitian_defect(M) > tol * scale:
        raise NotHermitian(
            f"anti-Hermitian part {hermitian_defect(M):.3e} exceeds {tol * scale:.3e}"
        )
    H = (M + M.conj().T) / 2
    if not H.imag.any():
        # real symmetric input: the real LAPACK driver is 2-4x faster and
        # keeps downstream algebra in float64
        w, V = np.linalg.eigh(H.real)
    else:
        w, V = np.linalg.eigh(H)
    return HermitianEigen(eigenvalues=w, eigenvectors=_fix_phases(V))


def pseudo_inverse(M, rcond: float = RANK_CUTOFF) -> np.ndarray:
    """Moore-Penrose pseudoinverse with singular values below
    ``rcond * sigma_max`` treated as zero."""
    M = as_matrix(M)
    if M.size == 0:
        return M.conj().T.copy()
    return np.linalg.pinv(M, rcond=rcond)


def psd_sqrt(M, tol: float = RANK_CUTOFF) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues in ``[-tol * lam_max, 0)`` are clamped to zero; anything
    lower raises NotPSD.
    """
    eig = hermitian_eig(M, tol=max(tol, 1e-8))
    w = eig.eigenvalues
    lam_max = max(float(w[-1]), 0.0) if w.size else 0.0
    if w.size and float(w[0]) < -tol * max(lam_max, 1e-300):
        raise NotPSD(f"eigenvalue {w[0]:.3e} below -{tol:.1e} * lam_max")
    w = np.maximum(w, 0.0)
    V = eig.eigenvectors
    return (V * np.sqrt(w)) @ V.conj().T


def real_spectrum_power(M, p: float, signed: bool = True,
                        imag_tol: float = 1e-8, cond_max: float = 1e8) -> np.ndarray:
    """``M ** p`` for a diagonalizable matrix with real spectrum.

    Negative eigenvalues use the signed real branch
    ``sign(lam) * |lam| ** p`` (the only branch consistent with odd
    roots of real matrices); pass ``signed=False`` to forbid them.
    """
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise NonSquare(f"matrix is {M.shape[0]}x{M.shape[1]}")
    w, V = np.linalg.eig(M)
    scale = max(1.0, float(np.abs(w).max()) if w.size else 0.0)
    if np.abs(w.imag).max(initial=0.0) > imag_tol * scale:
        raise ComplexSpectrum(
            f"largest imaginary part {np.abs(w.imag).max():.3e} exceeds tolerance"
        )
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > cond_max:
        raise NonDiagonalizable(f"eigenvector condition number {cond:.3e}")
    lam = w.real
    if signed:
        f = np.sign(lam) * np.abs(lam) ** p
        f = np.where(lam == 0.0, 0.0, f)
    else:
        if np.any(lam < 0):
            raise NegativeBase("negative eigenvalue with signed branch disabled")
        f = lam.astype(float) ** p
    return V @ (f[:, None] * np.linalg.inv(V))


# ---------------------------------------------------------------------------
# JSON matrix file format: {"rows": n, "cols": m, "data": [[re, im], ...]}
# row-major.  Shared by every command of the CLI.
# ---------------------------------------------------------------------------

def matrix_to_json(M) -> dict:
    M = as_matrix(M)
    flat = M.reshape(-1)
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        flat = np.array([complex(re, im) for re, im in obj["data"]], dtype=complex)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc!r}") from exc
    if flat.size != rows * cols:
        raise ValueError(
            f"data length {flat.size} does not match rows*cols={rows * cols}"
        )
    return as_matrix(flat.reshape(rows, cols))


def load_json(path):
    """Parse a JSON file; parse errors become ValueError with the offset."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: JSON parse error at byte offset {exc.pos}: {exc.msg}"
        ) from exc


def load_matrix(path) -> np.ndarray:
    return matrix_from_json(load_json(path))


def dump_matrix(M, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(M), fh)
