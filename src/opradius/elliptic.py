"""Discrete energy-space demo on the unit square.

The 5-point Dirichlet Laplacian K at mesh width 1/N serves as the
metric (the discrete energy inner product); T multiplies pointwise by
the potential V(x, y) = sin(pi x) sin(pi y) and S = K^{-1} T.  The demo
checks the anticommutator bound

    w_K(TS + ST) <= 2 sqrt(2) * max|V| * w_K(S)

for a list of mesh resolutions and reports both sides.  The reference
table values for this setup are treated as order-of-magnitude anchors
only: they depend on discretization choices that are not pinned down,
so no exact values are asserted.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .functionals import numerical_radius
from .space import build_space

DIMENSION_CAP = 10_000


def dirichlet_laplacian(N: int) -> np.ndarray:
    """Dense 5-point Laplacian on the (N-1)^2 interior grid, h = 1/N."""
    if N < 3:
        raise ConfigError(f"N must be >= 3, got {N}")
    m = N - 1
    if m * m > DIMENSION_CAP:
        raise ConfigError(
            f"interior dimension {m * m} exceeds the cap {DIMENSION_CAP}"
        )
    h = 1.0 / N
    eye = np.eye(m)
    band = 2 * eye - np.eye(m, k=1) - np.eye(m, k=-1)
    return (np.kron(band, eye) + np.kron(eye, band)) / h**2


def potential_values(N: int, potential: str = "sine") -> np.ndarray:
    xs = np.arange(1, N) / N
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    if potential == "sine":
        return (np.sin(np.pi * X) * np.sin(np.pi * Y)).ravel()
    if potential == "zero":
        return np.zeros((N - 1) ** 2)
    raise ConfigError(f"unknown potential {potential!r}")


def run_case(N: int, potential: str = "sine") -> dict:
    """Evaluate both sides of the bound at one mesh resolution.

    Works on compressions built directly from the metric eigenbasis:
    with W = Q* T Q the multiplication operator compresses to
    Lam^{1/2} W Lam^{-1/2} and S = K^{-1} T to Lam^{-1/2} W Lam^{-1/2},
    which avoids forming the n x n operator products (the compression is
    multiplicative, so the anticommutator compresses to the
    anticommutator of the compressions).
    """
    K = dirichlet_laplacian(N)
    v = potential_values(N, potential)
    space = build_space(K)
    s = np.sqrt(space.lam)
    W = space.Q.T.conj() @ (v[:, None] * space.Q)
    M_T = W * (s[:, None] / s[None, :])
    M_S = W / (s[:, None] * s[None, :])
    M_C = M_T @ M_S + M_S @ M_T
    lhs = numerical_radius(M_C)
    w_S = numerical_radius(M_S)
    vmax = float(np.abs(v).max())
    rhs = 2 * np.sqrt(2.0) * vmax * w_S
    return {
        "N": N,
        "dim": (N - 1) ** 2,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "w_S": float(w_S),
        "potential_max": vmax,
        "satisfied": bool(lhs <= rhs + 1e-9),
    }


def run_demo(ns=(10, 20, 40), potential: str = "sine") -> list[dict]:
    """Run the bound check for each mesh resolution.

    Both radii come from the kernel of ``functionals``: w_K(S) in closed
    form (M_S is symmetric), w_K(TS + ST) from one level-set test up to
    128 rows and from 20 to 24 Lanczos evaluations above.  An empty list
    is a ``ConfigError``: there would be no row to satisfy the bound.
    """
    if not ns:
        raise ConfigError("no mesh resolution given")
    return [run_case(N, potential) for N in ns]
