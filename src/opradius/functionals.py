"""Seminorm, numerical radius and Crawford number.

Every functional is evaluated on the compression ``M = M_r(T)``: for an
adjointable operator the quadratic form ``<Tx, x>_A`` over the A-unit
sphere equals ``<Mz, z>`` over the Euclidean unit sphere of C^r, so

    ||T||_A = sigma_max(M),
    w_A(T)  = max_psi  h(psi),
    c_A(T)  = dist(0, W(M)) = max(0, -min_psi h(psi)),

with the support function h(psi) = lam_max(Re(e^{-i psi} M)) of the
numerical range W(M).  Each evaluation of h at psi gives a support line
{p : Re(e^{-i psi} p) = h(psi)} of W(M) and, from its top eigenvector v,
the support point v*Mv = e^{i psi} (h + i h') on it (Hellmann-Feynman).

One cutting-plane kernel serves both extrema (C. R. Johnson 1978;
F. Uhlig 2009).  The support lines bound an outer polygon that contains
W(M); the support points span an inner polygon that W(M) contains.  The
equally spaced seed angles are read two-ended: the bottom eigenpair at
psi gives h(psi + pi), and for a real M, whose matrix at -psi is the
conjugate of that at psi, h(-psi) = h(psi); so one eigensolve gives two
seeds, or four.  Then each step takes the gap between two adjacent
evaluated angles that gives the worst bound: the farthest point of the
outer polygon from 0 (radius), or the point of the inner polygon nearest
to 0 (Crawford number).  If the slope h' changes sign across that gap, a
bracketed root-finder narrows the extremum inside it (the hybrid of
T. Mitchell 2023); otherwise h is evaluated in the direction of that point.
The steps stop once the enclosure ``[lo, hi]`` is narrower than
``CUT_RTOL * hi`` plus a rounding allowance of ``4 * err`` (``err``
bounds the error of one computed h), and the best angle evaluated is
narrowed once more.

The dense radius (2 <= r <= ``DENSE_SWEEP_MAX``, M not Hermitian) instead
narrows the best seed and runs a level-set test (Mengi and Overton 2005;
see ``LEVEL_TAU``) at the ``hi`` where the cuts would stop: with no
crossing, h < hi at every angle.  Crossings get h evaluated midway
between them (criss-cross) and a new test; crossings that raise nothing
fall back to the cuts.

``_radii`` solves the dense radii of one size as one stack in array
state (``_dense``): the seeds, the Illinois narrowing of every best
seed's bracket (one stacked ``eigh`` per step over the brackets still
open) and the first level-set test (one stacked ``solve`` and
``eigvals``).  A radius whose test finds crossings goes on alone in
``_extremum`` from the records already evaluated, as do the Crawford
number and the radius above ``DENSE_SWEEP_MAX``: a lone matrix is a
stack of one, for ``_extremum`` as for every function of the kernel.
Each operation gives a matrix of a stack the bits it gives it alone, so
a radius solved in a stack is bit-identical to one solved alone.  A
fuzz trial's catalog entries ask for their radii at once, and
``inequalities.EvalContext`` solves them in one ``_radii`` call and its
seminorms in stacked SVDs.

``lo`` is the value itself: the best support line evaluated, attained
by its eigenvector.  ``hi`` is the bound of the worst gap (radius), or
the distance from 0 to the inner polygon (Crawford number; 0 when that
polygon holds 0), each with its rounding allowance.  Where W(M) is
close to a disk about 0 (a nilpotent shift, say), h is nearly constant
and no polygon with few sides is tight: the cuts stop at ``CUT_STEPS``
with a wider enclosure, while the value is still the narrowed maximum.
"""
from __future__ import annotations

import bisect
import cmath
import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpaceWarning, NotInBA, UnboundedForm
from .numkernel import as_matrix, frobenius
from .space import SemiHilbertSpace

# Cutting-plane kernel: SEED_ANGLES equally spaced support lines (even,
# for antipodal pairs, and at least 4: _outer_gap needs gaps of at most
# pi/2), then at most CUT_STEPS cuts until the enclosure is CUT_RTOL wide.
SEED_ANGLES = 16
CUT_RTOL = 1e-10
CUT_STEPS = 64
# A sign change of the slope is narrowed to angular width REFINE_WIDTH,
# in at most REFINE_STEPS evaluations.
REFINE_WIDTH = 1e-12
REFINE_STEPS = 64
# Above this size: Lanczos for the top eigenpair, cuts for the radius;
# Lanczos stops at residuals within _LANCZOS_TOL (||P||_F + ||R||_F).
DENSE_SWEEP_MAX = 128
_LANCZOS_TOL = 1e-10
# Level-set test, at most LEVEL_ROUNDS criss-cross rounds: t is an
# eigenvalue of Re(e^{-i psi} M) exactly when z = e^{i psi} solves
# z^2 M* - 2 t z I + M = 0, here solved in w, z = (w + b) / (1 + conj(b) w),
# b = LEVEL_BETA, which keeps the unit circle and ||w| - 1| >= ||z| - 1|/2.1.
# At a maximum of h, 0 <= -h'' <= h (h is a support function), so at
# t = w(M) (1 + delta) the eigenvalue pair meeting on the circle at t = w(M)
# lies at psi* +- i sqrt(2 w delta / -h''), >= sqrt(2 delta) off it: 6.6e-6
# in w for delta >= CUT_RTOL.  eigvals is backward stable; rounding moves a
# tangent pair by O(sqrt(eps)) = 1.5e-8.  w crosses when ||w| - 1| <=
# LEVEL_TAU = 3.9e-7, the geometric mean of sqrt(eps) and sqrt(CUT_RTOL),
# 26 and 17 times clear; a pair pushed past it peaks O(eps) above t.
LEVEL_ROUNDS = 4
LEVEL_BETA = 0.3 + 0.2j
LEVEL_TAU = (sys.float_info.epsilon * CUT_RTOL) ** 0.25
_TWO_PI = 2 * math.pi


@dataclass
class RadiusResult:
    """Numerical radius value with its maximizing rotation and witness.

    ``witness`` is an A-unit vector x with |<Tx, x>_A| within ``gap`` of
    ``value``; ``argmax_angle`` is the rotation angle attaining the
    supremum, in [0, 2*pi).  ``[lo, hi]`` encloses the supremum: ``lo``
    is the value itself, attained by the witness's support line, and
    ``hi`` bounds it from above.
    """

    value: float
    argmax_angle: float
    witness: np.ndarray
    gap: float
    lo: float
    hi: float


# ---------------------------------------------------------------------------
# the kernel on stacks of compressed matrices
# ---------------------------------------------------------------------------
# Each operation on a stack gives every matrix the bits that a stack of
# one gives it: products by a complex (not real) factor keep one operand
# order, since numpy rounds z * M and M * z differently, and the error
# scales, sums, products and solves are formed per matrix.

def _finite(x):
    if not np.isfinite(x).all():
        raise ValueError(f"{x} is not finite: the matrix overflows")
    return x


def _split(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # halve first: M + M* overflows for entries above half the largest float
    M2, Ms2 = M / 2, M.conj().swapaxes(-1, -2) / 2
    return M2 + Ms2, (M2 - Ms2) / 1j


def _sub(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    # rows k (ascending) of a stack, which is not copied when k takes all
    return x if len(k) == len(x) else x[k]


def _errs(P: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Bound on the error of a computed f (see ``_rows``), per matrix of the
    stacks P, R: a dense solve errs by a small multiple of
    eps * ||cos P + sin R||; Lanczos stops at a residual that bounds its
    error."""
    r = P.shape[-1]
    scale = frobenius(P) + frobenius(R)
    if r <= DENSE_SWEEP_MAX:
        return 8 * r * sys.float_info.epsilon * scale
    return _LANCZOS_TOL * scale


@functools.cache
def _seed_angles(n: int, real: bool) -> tuple:
    # the n seed angles, cos and sin at the solved ones, and for each seed
    # the column of the solves' two-ended rows it is read from and whether
    # as a mirror image; shared read-only
    theta = np.arange(n) * (_TWO_PI / n)
    k = np.arange(n // 4 + 1 if real else n // 2)
    solved = k.tolist() + (k + n // 2).tolist()
    src = {j: (col, False) for col, j in enumerate(solved)}
    for j in solved:
        src.setdefault(-j % n, (src[j][0], True))
    out = (theta, np.cos(theta[k]), np.sin(theta[k]),
           *map(np.array, zip(*(src[j] for j in range(n)))))
    for x in out:
        x.flags.writeable = False
    return out


@functools.cache
def _lanczos_start(r: int) -> np.ndarray:
    rng = np.random.default_rng(0x5EED)
    x = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    x /= np.linalg.norm(x)
    x.flags.writeable = False
    return x


def _lanczos(P: np.ndarray, R: np.ndarray, err: float, c: float, s: float,
             ends: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Ritz values and vectors (columns) of cos P + sin R, as ``eigh``
    gives them, at the ends (0: bottom, -1: top) of the spectrum.

    Lanczos with full reorthogonalization (Parlett, The Symmetric
    Eigenvalue Problem, ch. 13) from one seeded start vector, so that the
    values depend on the angle and the ends alone.  It stops at true Ritz
    residuals within ``err``, tested once the step count has grown by a
    quarter (all tests cost about twice the last) or the next Lanczos
    vector is shorter than ``err``, or after r steps.
    """
    # rows of Qc: the conjugated Lanczos basis, so that Qc @ w holds
    # its inner products with w; rows of W: H applied to the basis; T:
    # the tridiagonal matrix Q* H Q (its lower half)
    r = P.shape[0]
    H = c * P + s * R
    Qc = np.empty((r, r), complex)
    W = np.empty((r, r), complex)
    T = np.zeros((r, r))
    q = _lanczos_start(r)
    check = 1
    for k in range(r):
        Qc[k] = q.conj()
        W[k] = w = H @ q
        T[k, k] = np.vdot(q, w).real
        for _ in range(2):          # full reorthogonalization, twice
            w = w - (np.conj(Qc[:k + 1] @ w) @ Qc[:k + 1]).conj()
        beta = float(np.linalg.norm(w))
        if k + 1 >= check or beta <= err or k == r - 1:
            theta, Y = np.linalg.eigh(T[:k + 1, :k + 1])
            theta, Y = theta[ends], Y[:, ends]
            X = (Qc[:k + 1].T @ Y).conj()
            # stop at true residuals within err, or once Q spans the
            # whole space
            res = np.linalg.norm(W[:k + 1].T @ Y - X * theta, axis=0)
            if k == r - 1 or res.max() <= err:
                return theta, X
            check = math.ceil(1.25 * (k + 1))
        T[k + 1, k] = beta
        q = w / beta


def _rows(P: np.ndarray, R: np.ndarray, err: np.ndarray, c: np.ndarray,
          s: np.ndarray, both: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(f, V, f')`` of f(theta) = lam_max(cos(theta) P + sin(theta) R) for
    each matrix k of the stacks of Hermitian P, R, at the angles
    (c[k, j], s[k, j]) (one row of c, s serves every matrix), then, if
    ``both``, at their antipodes, read from the bottom eigenpairs.

    f and f' have one row per matrix, V the unit top eigenvectors as the
    rows of one block per matrix.  One stacked eigh, or Lanczos at each
    angle above ``DENSE_SWEEP_MAX``; then the slopes f' = v*(cos R -
    sin P) v (Hellmann-Feynman) of all rows from one stacked product.
    """
    n, r = P.shape[:2]
    if r > DENSE_SWEEP_MAX:
        ends = [0, -1] if both else [-1]
        cs = (np.broadcast_to(x, (n, np.shape(x)[-1])) for x in (c, s))
        w, U = map(np.array, zip(*(_lanczos(p, q, e, x, y, ends)
                                   for p, q, e, cx, sx in zip(P, R, err, *cs)
                                   for x, y in zip(cx, sx))))
    else:
        w, U = np.linalg.eigh((c[..., None, None] * P[:, None]
                               + s[..., None, None] * R[:, None]).reshape(-1, r, r))
    w, U = w.reshape(n, np.shape(c)[-1], -1), U.reshape(n, np.shape(c)[-1], r, -1)
    f, V = w[..., -1], U[..., -1]
    if both:    # the bottom eigenpair at theta is the top one at theta + pi
        f, V = np.concatenate((f, -w[..., 0]), 1), np.concatenate((V, U[..., 0]), 1)
        c, s = np.concatenate((c, -c), -1), np.concatenate((s, -s), -1)
    df = np.einsum("gki,gki->gk", V.conj(), c[..., None] * (V @ R.swapaxes(1, 2))
                   - s[..., None] * (V @ P.swapaxes(1, 2))).real
    return f, V, df


def _seeds(P: np.ndarray, R: np.ndarray,
           err: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(f, V, f')``, as ``_rows`` gives them, at the ``SEED_ANGLES``
    angles 2 pi j / n, j = 0..n-1, of each matrix of the stacks, read
    two-ended from solves at j < n/2, or at j <= n/4 where M = P + iR is
    real: its matrix at -psi is the conjugate of that at psi, so
    h(-psi) = h(psi), with the conjugate eigenvector and the negated
    slope."""
    n, r = P.shape[:2]
    F, DF = np.empty((n, SEED_ANGLES)), np.empty((n, SEED_ANGLES))
    V = np.empty((n, SEED_ANGLES, r), complex)
    # M = P + iR is real exactly when P is real and R imaginary
    real = ~(P.imag.any((1, 2)) | R.real.any((1, 2)))
    for flag in (False, True):
        k = np.flatnonzero(real == flag)
        if k.size:
            _, c, s, col, mirror = _seed_angles(SEED_ANGLES, flag)
            f, v, df = _rows(_sub(P, k), _sub(R, k), err[k], c, s, True)
            F[k], DF[k] = f[:, col], np.where(mirror, -df[:, col], df[:, col])
            V[k] = np.where(mirror[:, None], v[:, col].conj(), v[:, col])
    return F, V, DF


def _records(theta: np.ndarray, f: np.ndarray, V: np.ndarray, df: np.ndarray) -> list:
    # the records (theta, f, v, f') of one matrix's rows, as _extremum reads them
    return list(zip(theta.tolist(), f.tolist(), V, df.tolist()))


def _illinois(P: np.ndarray, R: np.ndarray, err: np.ndarray, a: np.ndarray,
              ga: np.ndarray, b: np.ndarray, gb: np.ndarray, sign: float = 1.0) -> list:
    """Narrow the sign change of g = sign * f' on the bracket [a[k], b[k]],
    g(a) > 0 > g(b), of each matrix k of the stacks P, R by Illinois
    regula falsi: a kink is bracketed like a smooth root.

    A bracket stops at width ``REFINE_WIDTH``, at g = 0, or once its
    secant point rounds onto an end, where no later step can move the
    value.  Each step evaluates the open brackets together (``_rows``);
    returns the steps as ``(k, t, f, v, f')``, one row per bracket k
    evaluated.
    """
    k, steps = np.arange(len(a)), []
    # the open brackets' ends, g at them, and +1 where the last step kept
    # b, -1 where it kept a
    X = np.array([a, ga, b, gb, np.zeros(len(a))])
    for _ in range(REFINE_STEPS):
        a, ga, b, gb, kept = X
        t = (a * gb - b * ga) / (gb - ga)
        go = (b - a > REFINE_WIDTH) & (a < t) & (t < b)
        if not go.all():
            k, t, (a, ga, b, gb, kept) = k[go], t[go], X[:, go]
        if not k.size:
            break
        f, V, df = (x[:, 0] for x in _rows(_sub(P, k), _sub(R, k), err[k], np.cos(t)[:, None],
                                            np.sin(t)[:, None], False))
        steps.append((k, t, f, V, df))
        g = sign * df
        up = g > 0
        # the secant point replaces the end whose g has its sign; an end
        # kept twice running has its g halved
        twice = kept == np.where(up, 1.0, -1.0)
        X = np.where(up, [t, g, b, np.where(twice, gb / 2, gb), np.ones(len(t))],
                     [a, np.where(twice, ga / 2, ga), t, g, -np.ones(len(t))])
        if not (g != 0).all():
            k, X = k[g != 0], X[:, g != 0]
    return steps


def _outer_gap(pa: float, ha: float, za: complex, pb: float, hb: float,
               zb: complex, err: float) -> tuple[float, float]:
    """Upper bound on |p| over W(M) between two adjacent support lines, and
    the direction of the point that gives it.

    Line a is {p : Re(e^{-i pa} p) = ha} with the support point za on it;
    line b is turned from it by d <= pi / 2.  They meet at the vertex
    e^{i pa} (ha + i s) of the outer polygon, and between them W(M) lies
    in the triangle that the chord za zb cuts off at that vertex.  That
    bounds |p| twice: by the modulus of the vertex plus its rounding
    allowance, which grows like err / d as the lines turn parallel, and
    by max |z| on the chord plus the apex height, at most
    |zb - za| tan(d/2) / 2.
    """
    d = (pb - pa) % _TWO_PI
    sin_d = math.sin(d)
    s = ((hb - ha) + 2 * ha * math.sin(d / 2) ** 2) / sin_d
    mod = math.hypot(ha, s)
    e = 2 * err / sin_d                 # bound on the rounding of s
    vertex = mod + ((abs(ha) * err + abs(s) * e + (err * err + e * e) / 2)
                    / max(mod, err))
    chord = (max(abs(za), abs(zb)) + abs(zb - za) / 2 * math.tan(d / 2)
             + 2 * err)
    if chord < vertex:
        return chord, cmath.phase(za if abs(za) > abs(zb) else zb)
    return vertex, pa + math.atan2(s, ha)


def _inner_gap(za: complex, zb: complex) -> tuple[float, float, float]:
    """Distance from 0 to the chord za zb of the inner polygon, the
    direction from its nearest point towards 0 (any, if 0 is on the
    chord), and the angle the chord turns about 0."""
    # scaled by the least power of 2 above max(|za|, |zb|): exact, and the
    # squares below cannot overflow
    k = math.frexp(max(abs(za), abs(zb)))[1]
    a, b = (complex(math.ldexp(z.real, -k), math.ldexp(z.imag, -k)) for z in (za, zb))
    e = b - a
    ee = e.real * e.real + e.imag * e.imag
    t = min(1.0, max(0.0, -(e.conjugate() * a).real / ee)) if ee > 0 else 0.0
    q = a + t * e
    # within the rounding of q, 0 is on the chord
    if abs(q) <= 4 * sys.float_info.epsilon * (abs(a) + abs(b)):
        return 0.0, 0.0, 0.0
    return math.ldexp(abs(q), k), cmath.phase(-q), cmath.phase(zb / za)


def _level(lo: np.ndarray, err):
    """The cut loop's stopping rule hi - lo <= CUT_RTOL * hi + 4 * err
    solved for the largest hi (and rounded), for each lo."""
    hi = (lo + 4 * err) / (1 - CUT_RTOL)
    while (over := hi - lo > CUT_RTOL * hi + 4 * err).any():
        hi = np.where(over, np.nextafter(hi, lo), hi)
    return hi


def _pencils(M: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The eigenvalues w of the pencil A2 w^2 + A1 w + A0 of each matrix of
    the stack M at the level t[k], one row per matrix, from one stacked
    solve and eigvals.  A singular A2 fails the stacked solve, so that it
    is redone one pencil at a time, and gives a row of NaN."""
    b, bc = LEVEL_BETA, LEVEL_BETA.conjugate()
    n, r = M.shape[:2]
    Ms, tt, eye = M.conj().swapaxes(1, 2), t[:, None, None], np.eye(r)
    # (1 + bc w)^2 (z^2 M* - 2 t z I + M) = A2 w^2 + A1 w + A0
    A2 = Ms - 2 * tt * bc * eye + bc * bc * M
    A0_A1 = np.concatenate((b * b * Ms - 2 * tt * b * eye + M,
                            2 * b * Ms - 2 * tt * (1 + b * bc) * eye + 2 * bc * M), 2)
    C = np.zeros((n, 2 * r, 2 * r), complex)      # the companion matrices
    C[:, :r, r:] = eye
    try:
        C[:, r:] = -np.linalg.solve(A2, A0_A1)
        return np.linalg.eigvals(C)
    except np.linalg.LinAlgError:
        if n == 1:
            return np.full((1, 2 * r), np.nan, complex)
        return np.concatenate([_pencils(M[k:k + 1], t[k:k + 1]) for k in range(n)])


def _crossings(M: np.ndarray, t: np.ndarray) -> dict:
    """Level-set tests of the stack M at the levels t.  For each matrix k
    that crosses: the angles psi, ascending in [0, 2 pi), at which t[k] is
    an eigenvalue of Re(e^{-i psi} M[k]), or None when its pencil cannot
    be solved in w.  A matrix absent has h < t[k] at every angle."""
    W = _pencils(M, t)
    near = np.abs(np.abs(W) - 1) <= LEVEL_TAU
    b, out = LEVEL_BETA, {}
    for k in np.flatnonzero(near.any(1) | np.isnan(W[:, 0])):
        w = W[k, near[k]]
        out[k] = None if np.isnan(W[k, 0]) else np.sort(
            np.angle((w + b) / (1 + b.conjugate() * w)) % _TWO_PI)
    return out


def _extremum(P: np.ndarray, R: np.ndarray, maximize: bool, evals: list | None = None,
              cross: np.ndarray | None = None) -> tuple:
    """Extremum of f over the circle, for the stacks of one P, R (see
    ``_rows``), as ``(psi, f, top eigenvector, hi)``.

    With f the support function h of W(M), maximizing gives the numerical
    radius and minimizing gives -(the Crawford number) when that is
    positive; ``hi`` bounds the radius, or the Crawford number, from
    above.  ``evals`` are the records ``(psi, f, v, f')`` evaluated so
    far, the seeds by default.  A dense radius comes from ``_dense`` with
    the records it evaluated and the crossings ``cross`` of its first
    level-set test (None if that test failed), and continues at the
    criss-cross step.  See the module docstring for the method.
    """
    sign = 1.0 if maximize else -1.0
    errs = _errs(P, R)
    err = _finite(float(errs[0]))
    # one record (psi, f, f', support point) per evaluated angle, ascending
    # in [0, 2 pi); gap k lies between records k and k+1 (cyclically)
    recs: list[tuple[float, float, float, complex]] = []
    # per gap, kept once the cuts start: the bound it gives, the direction
    # to cut it and (Crawford number) the angle its chord turns about 0
    gaps: list[tuple[float, float, float]] = []
    best = (0.0, -math.inf, None, 0.0)     # (psi, sign * f, v, sign * f')

    def gap(k: int) -> tuple[float, float, float]:
        pa, fa, _, za = recs[k]
        pb, fb, _, zb = recs[(k + 1) % len(recs)]
        if maximize:
            return (*_outer_gap(pa, fa, za, pb, fb, zb, err), 0.0)
        return _inner_gap(za, zb)

    def record(t: float, f: float, v: np.ndarray, df: float) -> None:
        nonlocal best
        t %= _TWO_PI
        j = bisect.bisect_left(recs, (t,))
        if j == len(recs) or recs[j][0] != t:
            recs.insert(j, (t, f, df, cmath.rect(1.0, t) * complex(f, df)))
            if gaps:
                gaps.insert(j, gap(j))
                gaps[j - 1] = gap(j - 1)
        if sign * f > best[1]:
            best = (t, sign * f, v, sign * df)

    def narrow(k: int) -> None:
        # narrow a sign change of the slope across gap k
        a, _, ga, _ = recs[k]
        b, _, gb, _ = recs[(k + 1) % len(recs)]
        if sign * ga > 0 > sign * gb:
            bracket = np.array([[err], [a], [sign * ga], [a + (b - a) % _TWO_PI], [sign * gb]])
            for _, *step in _illinois(P, R, *bracket, sign):
                record(*_records(*step)[0])

    def records_at(theta: np.ndarray) -> list:
        return _records(theta, *(x[0] for x in _rows(P, R, errs, np.cos(theta),
                                                      np.sin(theta), False)))

    def toward_best() -> int:
        # the gap that the best angle's slope points into
        k = bisect.bisect_left(recs, (best[0],))
        return k if best[3] > 0 else k - 1

    if evals is None:
        evals = _records(_seed_angles(SEED_ANGLES, False)[0],
                         *(x[0] for x in _seeds(P, R, errs)))
    for rec in evals:
        record(*rec)
    for rnd in range(1, LEVEL_ROUNDS + 1):
        if cross is None:
            break
        # criss-cross: h midway between the crossings
        lo = best[1]
        mid = cross + np.diff(cross, append=cross[0] + _TWO_PI) / 2
        for rec in records_at(mid):
            record(*rec)
        if best[1] <= lo or rnd == LEVEL_ROUNDS:   # nothing raised, or no test left
            break
        narrow(toward_best())
        hi = _level(np.array([best[1]]), err)
        found = _crossings(P + 1j * R, hi)
        if not found:
            return (*best[:3], float(hi[0]))
        cross = found[0]

    gaps.extend(gap(k) for k in range(len(recs)))
    for step in range(CUT_STEPS + 1):
        bound, aim, turn = zip(*gaps)
        hi = max(bound) if maximize else min(bound)
        k = bound.index(hi)
        lo = best[1]
        if not maximize:
            # with 0 off the chords, the inner polygon holds it exactly when
            # it winds around it
            hi = 0.0 if hi == 0 or sum(turn) > math.pi else hi + 2 * err
            lo = max(0.0, lo)
        if hi - lo <= CUT_RTOL * hi + 4 * err or step == CUT_STEPS:
            break
        # cut the gap that attains the bound: narrow a local extremum
        # inside it, else evaluate towards its aim
        n = len(recs)
        narrow(k)
        if len(recs) == n:
            record(*records_at(np.array([aim[k]]))[0])
        if len(recs) == n:      # every angle tried was evaluated before
            break

    if maximize or best[1] > 0:
        narrow(toward_best())
    t, f, v, _ = best
    return t, sign * f, v, hi


# ---------------------------------------------------------------------------
# classical functionals on a compressed matrix
# ---------------------------------------------------------------------------

def spectral_norm(M: np.ndarray):
    """Largest singular value, 0 for the empty matrix; of a stack, the
    array of those of its matrices, each with the bits it has alone."""
    if M.size == 0:
        return np.zeros(M.shape[:-2]) if M.ndim > 2 else 0.0
    top = np.linalg.svd(M, compute_uv=False)[..., 0]
    return _finite(top if M.ndim > 2 else float(top))


def _dense(P: np.ndarray, R: np.ndarray) -> list:
    """The radius of each matrix of the dense stacks M = P + iR, as
    ``_radii`` gives it, by the level-set phase: the seeds, Illinois
    narrowing of the best seed's bracket and one level-set test, each as
    arrays over the stack.  A radius whose test finds crossings continues
    in ``_extremum``.  The angle theta is -psi: Re(e^{i theta} M) is the
    support function's matrix at psi = -theta."""
    n = len(P)
    err = _finite(_errs(P, R))
    theta = _seed_angles(SEED_ANGLES, False)[0]
    F, V, DF = _seeds(P, R, err)
    # psi, h, v and h' at the best angle, per matrix
    j = F.argmax(1)
    best = [theta[j], *(x[np.arange(n), j] for x in (F, V, DF))]
    # narrow the sign change of the slope across the gap that the best
    # seed's slope points into
    a = np.where(best[3] > 0, j, j - 1) % SEED_ANGLES
    b = (a + 1) % SEED_ANGLES
    ga, gb = DF[np.arange(n), a], DF[np.arange(n), b]
    k = np.flatnonzero((ga > 0) & (gb < 0))
    a, b = theta[a[k]], theta[b[k]]
    steps = [(k[i], *rest) for i, *rest in _illinois(
        _sub(P, k), _sub(R, k), err[k], a, ga[k], a + (b - a) % _TWO_PI, gb[k])]
    for i, t, f, v, df in steps:
        up = f > best[1][i]
        for x, y in zip(best, (t % _TWO_PI, f, v, df)):
            x[i[up]] = y[up]
    hi = _finite(_level(best[1], err))
    out = list(zip(best[1].tolist(), (-best[0] % _TWO_PI).tolist(), best[2], hi.tolist()))
    for i, cross in _crossings(P + 1j * R, hi).items():
        evals = _records(theta, F[i], V[i], DF[i])
        for s, *rows in steps:
            evals += _records(*(x[s == i] for x in rows))
        psi, val, vec, h = _extremum(P[i:i + 1], R[i:i + 1], True, evals, cross)
        out[i] = val, -psi % _TWO_PI, vec, _finite(h)
    return out


def _radii(mats: list) -> list[tuple[float, float, np.ndarray, float]]:
    """Numerical radius of each matrix as ``(value, theta, eigvec, hi)``:
    the supremum is attained by the top eigenvector of Re(e^{i theta} M),
    and ``hi`` bounds it from above.  The matrices of one size are solved
    as one stack, and each result is bit-identical to that of a solve
    alone."""
    out = [None] * len(mats)
    shapes: dict[tuple, list] = {}
    for i, M in enumerate(mats):
        shapes.setdefault(np.shape(M), []).append(i)
    for idx in shapes.values():
        # a lone matrix is not copied: it may be as large as Lanczos takes
        M = (np.asarray(mats[idx[0]])[None] if len(idx) == 1
             else np.stack([mats[i] for i in idx]))
        for i, res in zip(idx, _radii_of_size(as_matrix(M, stack=True))):
            out[i] = res
    return out


def _radii_of_size(M: np.ndarray) -> list:
    """The radius of each matrix of the stack M, as ``_radii`` gives it:
    in closed form up to 1 row, from the spectrum of a Hermitian M, else
    from the support function (``_dense`` up to ``DENSE_SWEEP_MAX``)."""
    n, r = M.shape[:2]
    if r <= 1:
        m = M[:, 0, 0] if r else np.zeros(n, complex)
        val = _finite(np.hypot(m.real, m.imag))
        theta = np.where(val > 0, -np.angle(m) % _TWO_PI, 0.0)
        return [(x, t, np.ones(r, complex), x) for x, t in zip(val.tolist(), theta.tolist())]
    H, K = _split(M)
    nK, nM = frobenius(K), 1e-12 * frobenius(M)
    # an overflowing ||M|| admits no skew part but 0
    herm = (nK == 0) | ((nK <= nM) & (nM < math.inf))
    out = [None] * n
    for i in np.flatnonzero(herm):
        # Hermitian: the support function peaks exactly at theta = 0 or pi
        w, U = np.linalg.eigh(H[i].real if not H[i].imag.any() else H[i])
        if abs(w[-1]) >= abs(w[0]):
            val, theta, vec = float(abs(w[-1])), 0.0, U[:, -1]
        else:
            val, theta, vec = float(abs(w[0])), float(np.pi), U[:, 0]
        out[i] = _finite(val), theta, vec, val
    skew = np.flatnonzero(~herm)
    if skew.size:
        P, R = _sub(H, skew), _sub(K, skew)
        if r <= DENSE_SWEEP_MAX:
            solved = _dense(P, R)
        else:
            solved = [(val, -psi % _TWO_PI, vec, _finite(hi)) for psi, val, vec, hi in
                      (_extremum(P[i:i + 1], R[i:i + 1], True) for i in range(len(P)))]
        for i, res in zip(skew, solved):
            out[i] = res
    return out


def numerical_radius(M: np.ndarray) -> float:
    """Classical numerical radius of a square matrix; ValueError if an
    entry is NaN or Inf or the result overflows."""
    return _radii([M])[0][0]


def _crawford(M: np.ndarray) -> tuple[float, float]:
    """Crawford number as ``(value, hi)``, ``hi`` bounding it from above."""
    M = as_matrix(M)
    r = M.shape[0]
    if r == 0:
        return 0.0, 0.0
    if r == 1:
        val = abs(complex(M[0, 0]))
        return val, val
    _, h_min, _, hi = _extremum(*_split(M[None]), maximize=False)
    return max(0.0, -h_min), hi


def crawford_number(M: np.ndarray) -> float:
    """Distance from the origin to the (convex) numerical range of M;
    ValueError if an entry is NaN or Inf or the result overflows."""
    return _crawford(M)[0]


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
    """Numerical radius w_A(T) with maximizing angle, witness vector and
    enclosure."""
    M = _compression_or_raise(space, T, UnboundedForm)
    if space.rank == 0:
        warnings.warn("rank-zero metric: all functionals vanish",
                      DegenerateSpaceWarning, stacklevel=2)
        return RadiusResult(0.0, 0.0, np.zeros(space.dim, complex), 0.0,
                            0.0, 0.0)
    val, theta, vec, hi = _radii([M])[0]
    form = complex(vec.conj() @ (M @ vec))
    gap = abs(val - abs(form)) + 1e-12 * max(1.0, frobenius(M))
    x = space.lift_vector(vec)
    nx = space.a_norm(x)
    if nx > 0:
        x = x / nx
    return RadiusResult(value=val, argmax_angle=theta, witness=x, gap=gap,
                        lo=val, hi=hi)


def a_crawford(space: SemiHilbertSpace, T) -> float:
    """Crawford number: distance from 0 to the compressed numerical range."""
    M = _compression_or_raise(space, T, UnboundedForm)
    if space.rank == 0:
        warnings.warn("rank-zero metric: Crawford number is 0 by convention",
                      DegenerateSpaceWarning, stacklevel=2)
        return 0.0
    return crawford_number(M)


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
        # row s of Z @ M.T is M z_s, so z_s* M z_s is a row-wise dot
        ZM = Z @ M.T
        np.conjugate(Z, out=Z)
        vals = np.abs(np.einsum("si,si->s", Z, ZM))
        best = max(best, float(vals.max()))
        left -= k
    return best
