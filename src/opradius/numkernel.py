"""Dense complex matrix primitives.

Everything downstream works on plain ``numpy.ndarray`` matrices with
``complex128`` entries.  This module owns validation, the Hermitian
eigendecomposition with a deterministic ordering/phase convention,
real-spectrum fractional powers, and the JSON matrix file format used by
the CLI.
"""
from __future__ import annotations

import json

import numpy as np

from .errors import (
    ComplexSpectrum,
    NonDiagonalizable,
    NonSquare,
    NotHermitian,
)


def as_matrix(a, stack: bool = False) -> np.ndarray:
    """Coerce to a 2-D complex128 array, or with ``stack`` to a stack of
    them, and reject non-finite entries."""
    M = np.asarray(a, dtype=complex)
    if M.ndim != 2 + stack:
        raise ValueError(f"expected a 2-D matrix, got ndim={M.ndim - stack}")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return M


def frobenius(M: np.ndarray):
    """Frobenius norm of a matrix, or an array of that of each matrix of a
    stack (each the same bits in any stack, but summed in another order
    than a lone matrix's); where a sum of squares overflows, that of the
    matrix divided by its largest entry, times that entry."""
    if M.ndim > 2:
        n = np.linalg.norm(M, axis=(-2, -1))
        for k in np.flatnonzero(n == np.inf):
            with np.errstate(over="ignore"):    # the stack's norm warned
                n[k] = frobenius(M[k])
        return n
    n = float(np.linalg.norm(M))
    if n == np.inf:
        m = float(np.abs(M).max())
        n = m * float(np.linalg.norm(M / m))
    return n


def _fix_phases(V: np.ndarray) -> np.ndarray:
    # each column times the conjugate phase of its first entry above
    # 1e-12 of its largest; a zero column stays as it is
    mags = np.abs(V)
    k = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
    top = V[k, np.arange(V.shape[1])]
    size = np.hypot(top.real, top.imag)
    return V * np.where(size == 0, 1, top / np.where(size == 0, 1, size)).conjugate()


def hermitian_eig(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix as ``(w, V)``.

    ``w`` is real ascending; the columns of ``V`` are the matching
    orthonormal eigenvectors with a fixed phase convention (first
    significant component real positive) so repeated runs agree.  Raises
    NonSquare / NotHermitian when ``M`` is not square or its
    anti-Hermitian part exceeds ``1e-8 * max(1, ||M||_F)``.
    """
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise NonSquare(f"matrix is {M.shape[0]}x{M.shape[1]}")
    tol = 1e-8 * max(1.0, frobenius(M))
    defect = frobenius(M - M.conj().T)
    if defect > tol:
        raise NotHermitian(f"anti-Hermitian part {defect:.3e} exceeds {tol:.3e}")
    H = (M + M.conj().T) / 2
    if not H.imag.any():
        # real symmetric input: the real LAPACK driver is 2-4x faster and
        # keeps downstream algebra in float64
        w, V = np.linalg.eigh(H.real)
    else:
        w, V = np.linalg.eigh(H)
    return w, _fix_phases(V)


def real_spectrum_power(M, p: float) -> np.ndarray:
    """``M ** p`` for a diagonalizable matrix with real spectrum.

    Negative eigenvalues use the signed real branch
    ``sign(lam) * |lam| ** p`` (the only branch consistent with odd
    roots of real matrices).  Raises ComplexSpectrum when an eigenvalue's
    imaginary part exceeds 1e-8 of the spectral scale, NonDiagonalizable
    when the eigenvector basis has condition number above 1e8.
    """
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise NonSquare(f"matrix is {M.shape[0]}x{M.shape[1]}")
    w, V = np.linalg.eig(M)
    scale = max(1.0, float(np.abs(w).max()) if w.size else 0.0)
    if np.abs(w.imag).max(initial=0.0) > 1e-8 * scale:
        raise ComplexSpectrum(
            f"largest imaginary part {np.abs(w.imag).max():.3e} exceeds tolerance"
        )
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > 1e8:
        raise NonDiagonalizable(f"eigenvector condition number {cond:.3e}")
    lam = w.real
    f = np.where(lam == 0.0, 0.0, np.sign(lam) * np.abs(lam) ** p)
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
