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

The dense radius (r <= ``DENSE_SWEEP_MAX``) instead narrows the best seed
and runs a level-set test (Mengi and Overton 2005; see ``LEVEL_TAU``) at
the ``hi`` where the cuts would stop: with no crossing, h < hi at every
angle.  Crossings get h evaluated midway between them (criss-cross) and a
new test; crossings that raise nothing fall back to the cuts.

The kernel runs as steps: generators that yield their eigensolves and
level-set tests as requests and are sent the answers.  ``_drive`` runs
the steps of many matrices in lockstep and answers the requests of each
kind and size together: one stacked ``eigh`` per kind of eigensolve and
round, one stacked ``solve`` and ``eigvals`` per round of level-set
tests.  Each answer
depends on its own request alone, so a radius solved among others
(``_radii``) is bit-identical to one solved alone.  A fuzz trial learns
the radii its catalog entries ask for in a recording pass and solves them
in one such call (``inequalities.EvalContext``).

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
# Above this size: Lanczos for the top eigenpair, cuts for the radius.
DENSE_SWEEP_MAX = 128
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
# the cutting-plane kernel on a compressed matrix
# ---------------------------------------------------------------------------

def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError(f"{x} is not finite: the matrix overflows")
    return x


def _split(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # halve first: M + M* overflows for entries above half the largest float
    M2, Ms2 = M / 2, M.conj().T / 2
    return M2 + Ms2, (M2 - Ms2) / 1j


@functools.cache
def _seed_angles(n: int, real: bool) -> tuple[list, list, np.ndarray, np.ndarray]:
    # the n seed angles, the indices of the solved ones and of their
    # antipodes, and cos and sin at the solved ones, shared read-only
    theta = np.arange(n) * (_TWO_PI / n)
    k = np.arange(n // 4 + 1 if real else n // 2)
    c, s = np.cos(theta[k]), np.sin(theta[k])
    c.flags.writeable = s.flags.writeable = False
    return theta.tolist(), k.tolist() + (k + n // 2).tolist(), c, s


class _RotatedTop:
    """f(theta) = lam_max(cos(theta) P + sin(theta) R) for Hermitian P, R.

    Its methods are kernel steps (see ``_drive``).  A call returns
    ``(f, v, f')``: the value, its unit top eigenvector and, by
    Hellmann-Feynman, the slope ``f' = v*(cos(theta) R - sin(theta) P) v``;
    ``err`` bounds the error of a computed ``f``.  ``seeds`` reads two
    seeds from each solve, four when M = P + iR is real.  Small matrices
    use dense solves; large ones Lanczos with full reorthogonalization
    (Parlett, The Symmetric Eigenvalue Problem, ch. 13) from one seeded
    start vector, so a call's f depends on theta alone, a seed's also on
    the solve it is read from.  Lanczos stops at true Ritz residuals
    within ``err``, tested once the step count has grown by a quarter (all
    tests cost about twice the last) or the next Lanczos vector is shorter
    than ``err``, or after r steps.
    """

    _LANCZOS_TOL = 1e-10

    def __init__(self, P: np.ndarray, R: np.ndarray):
        self.P, self.R = P, R
        self.r = P.shape[0]
        # a dense solve errs by a small multiple of eps * ||cos P + sin R||;
        # Lanczos stops at a residual that bounds its error
        scale = frobenius(P) + frobenius(R)
        if self.r <= DENSE_SWEEP_MAX:
            self.err = 8 * self.r * sys.float_info.epsilon * scale
        else:
            self.err = self._LANCZOS_TOL * scale
            rng = np.random.default_rng(0x5EED)
            x = rng.standard_normal(self.r) + 1j * rng.standard_normal(self.r)
            self._start = x / np.linalg.norm(x)

    def rows(self, c: np.ndarray, s: np.ndarray, both: bool):
        """``(f, V, f')`` at the angles (c[k], s[k]), then, if ``both``, at
        their antipodes, read from the bottom eigenpairs: f and f' as lists,
        the top eigenvectors as the rows of V."""
        return (yield _rows, self.r, (self, c, s, both))

    def batch(self, theta: np.ndarray):
        """``(t, *self(t))`` for t in theta, from one request."""
        f, V, df = yield from self.rows(np.cos(theta), np.sin(theta), False)
        return list(zip(theta.tolist(), f, V, df))

    def seeds(self):
        """``(theta, f, v, f')`` at the ``SEED_ANGLES`` angles 2 pi k / n,
        k = 0..n-1, read from solves at k < n/2, or k <= n/4 when M is real."""
        # M = P + iR is real exactly when P is real and R imaginary
        real = not (self.P.imag.any() or self.R.real.any())
        theta, k, c, s = _seed_angles(SEED_ANGLES, real)
        f, V, df = yield from self.rows(c, s, True)
        recs = dict(zip(k, zip(f, V, df)))
        if real:
            for j, (f, v, df) in list(recs.items()):
                recs.setdefault(-j % len(theta), (f, v.conj(), -df))
        return [(t, *recs[j]) for j, t in enumerate(theta)]

    def __call__(self, theta: float):
        c, s = math.cos(theta), math.sin(theta)
        lam, v, Rv, Pv = yield _angles, self.r, (self, c, s)
        # f = c v*Pv + s v*Rv gives one form from the other, so the slope
        # c v*Rv - s v*Pv needs only the form whose weight is larger
        if abs(c) >= abs(s):
            return lam, v, (float(np.vdot(v, Rv).real) - s * lam) / c
        return lam, v, (c * lam - float(np.vdot(v, Pv).real)) / s

    def _lanczos(self, c: float, s: float,
                 ends: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Ritz values and vectors (columns) of cos P + sin R, as ``eigh``
        gives them, at the ends (0: bottom, -1: top) of the spectrum."""
        # rows of Qc: the conjugated Lanczos basis, so that Qc @ w holds
        # its inner products with w; rows of W: H applied to the basis; T:
        # the tridiagonal matrix Q* H Q (its lower half)
        r = self.r
        H = c * self.P + s * self.R
        Qc = np.empty((r, r), complex)
        W = np.empty((r, r), complex)
        T = np.zeros((r, r))
        q = self._start
        check = 1
        for k in range(r):
            Qc[k] = q.conj()
            W[k] = w = H @ q
            T[k, k] = np.vdot(q, w).real
            for _ in range(2):          # full reorthogonalization, twice
                w = w - (np.conj(Qc[:k + 1] @ w) @ Qc[:k + 1]).conj()
            beta = float(np.linalg.norm(w))
            if k + 1 >= check or beta <= self.err or k == r - 1:
                theta, Y = np.linalg.eigh(T[:k + 1, :k + 1])
                theta, Y = theta[ends], Y[:, ends]
                X = (Qc[:k + 1].T @ Y).conj()
                # stop at true residuals within err, or once Q spans the
                # whole space
                res = np.linalg.norm(W[:k + 1].T @ Y - X * theta, axis=0)
                if k == r - 1 or res.max() <= self.err:
                    return theta, X
                check = math.ceil(1.25 * (k + 1))
            T[k + 1, k] = beta
            q = w / beta


def _illinois(g, a: float, ga: float, b: float, gb: float):
    """Step: narrow the sign change of ``g`` on [a, b], ``g(a) > 0 > g(b)``,
    by Illinois regula falsi: a kink is bracketed like a smooth root.  It
    stops at width ``REFINE_WIDTH`` or once the secant point rounds onto
    an end, where no later step can move the value.  The caller's step
    ``g`` records the points it evaluates; nothing is returned."""
    kept = 0                    # +1: b was kept by the last step, -1: a
    for _ in range(REFINE_STEPS):
        t = (a * gb - b * ga) / (gb - ga)
        if b - a <= REFINE_WIDTH or not a < t < b:
            return
        gt = yield from g(t)
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


def _crossings(M: np.ndarray, t: float):
    """Step: angles psi, ascending in [0, 2 pi), at which t is an eigenvalue
    of Re(e^{-i psi} M); None when the pencil cannot be solved in w."""
    w = yield _pencils, M.shape[0], (M, t)
    if w is None:
        return None
    w, b = w[np.abs(np.abs(w) - 1) <= LEVEL_TAU], LEVEL_BETA
    return np.sort(np.angle((w + b) / (1 + b.conjugate() * w)) % _TWO_PI) if w.size else w


# ---------------------------------------------------------------------------
# the driver: kernel steps in lockstep
# ---------------------------------------------------------------------------
# An answer must not depend on the requests served with it, and must be
# the one a single solve gets: products by a complex (not real) factor
# keep a single solve's operand order, since numpy rounds z * M and M * z
# differently, and each requester forms the cos and sin of its angles.

def _stack(arrays: list) -> np.ndarray:
    # a lone array is not copied: it may be as large as Lanczos takes
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _stacks(tops) -> tuple[np.ndarray, np.ndarray]:
    return _stack([t.P for t in tops]), _stack([t.R for t in tops])


def _rows(requests: list) -> list:
    """Answers to ``_RotatedTop.rows``: one stacked eigh (or Lanczos at
    each angle), and the slopes of the requests with as many rows from one
    stacked product."""
    tops, c, s, both = zip(*requests)
    n = [len(x) for x in c]
    if tops[0].r > DENSE_SWEEP_MAX:
        eig = [tuple(map(np.array, zip(*(top._lanczos(x, y, [0, -1] if two else [-1])
                                         for x, y in zip(cx, sx)))))
               for top, cx, sx, two in requests]
    else:
        P, R = _stacks(tops)
        if len(tops) > 1:
            P, R = np.repeat(P, n, 0), np.repeat(R, n, 0)
        cx, sx = np.concatenate(c)[:, None, None], np.concatenate(s)[:, None, None]
        w, U = np.linalg.eigh(cx * P + sx * R)
        ends = np.cumsum(n).tolist()
        eig = [(w[e - k:e], U[e - k:e]) for k, e in zip(n, ends)]
    out = [None] * len(requests)
    groups: dict[tuple, list] = {}
    for i, key in enumerate(zip(n, both)):
        groups.setdefault(key, []).append(i)
    for (_, two), idx in groups.items():
        w, U, cx, sx = (_stack([x[i] for i in idx]) for x in (*zip(*eig), c, s))
        f, V = w[..., -1], U[..., -1]
        if two:     # the bottom eigenpair at theta is the top one at theta + pi
            f, V = np.concatenate((f, -w[..., 0]), 1), np.concatenate((V, U[..., 0]), 1)
            cx, sx = np.concatenate((cx, -cx), 1), np.concatenate((sx, -sx), 1)
        P, R = _stacks([tops[i] for i in idx])
        df = np.einsum("gki,gki->gk", V.conj(), cx[..., None] * (V @ R.transpose(0, 2, 1))
                       - sx[..., None] * (V @ P.transpose(0, 2, 1))).real
        for i, *answer in zip(idx, f.tolist(), V, df.tolist()):
            out[i] = answer
    return out


def _angles(requests: list) -> list:
    """Answers to ``_RotatedTop.__call__``: ``(f, v, R v, P v)`` at each
    ``(top, c, s)``, from one stacked eigh (or Lanczos at each angle)."""
    tops, c, s = zip(*requests)
    if tops[0].r > DENSE_SWEEP_MAX:
        eig = [top._lanczos(x, y, [-1]) for top, x, y in requests]
        return [(float(w[-1]), U[:, -1], top.R @ U[:, -1], top.P @ U[:, -1])
                for top, (w, U) in zip(tops, eig)]
    P, R = _stacks(tops)
    w, U = np.linalg.eigh(np.array(c)[:, None, None] * P + np.array(s)[:, None, None] * R)
    V = U[:, :, -1][..., None]
    return list(zip(w[:, -1].tolist(), V[..., 0], (R @ V)[..., 0], (P @ V)[..., 0]))


def _pencils(pencils: list) -> list:
    """Answers to ``_crossings``: the eigenvalues w of the pencil
    A2 w^2 + A1 w + A0 at each ``(M, t)``, from one stacked solve and
    eigvals; None where A2 is singular, which fails the whole stack, so
    that it is redone one pencil at a time."""
    b, bc = LEVEL_BETA, LEVEL_BETA.conjugate()
    # (1 + bc w)^2 (z^2 M* - 2 t z I + M) = A2 w^2 + A1 w + A0
    M, Ms, bbMs, bcbcM, bMs2, bcM2 = map(np.stack, zip(*(
        (M, Ms, b * b * Ms, bc * bc * M, 2 * b * Ms, 2 * bc * M)
        for M, Ms in ((M, M.conj().T) for M, _ in pencils))))
    t = np.array([t for _, t in pencils])[:, None, None]
    n, r = M.shape[:2]
    eye = np.eye(r)
    A2 = Ms - 2 * t * bc * eye + bcbcM
    A0_A1 = np.concatenate((bbMs - 2 * t * b * eye + M,
                            bMs2 - 2 * t * (1 + b * bc) * eye + bcM2), 2)
    C = np.zeros((n, 2 * r, 2 * r), complex)      # the companion matrices
    C[:, :r, r:] = eye
    try:
        C[:, r:] = -np.linalg.solve(A2, A0_A1)
        return list(np.linalg.eigvals(C))
    except np.linalg.LinAlgError:
        return [None] if n == 1 else [_pencils([p])[0] for p in pencils]


def _drive(steps: list) -> list:
    """Run kernel steps in lockstep; returns their results in order.

    A step is a generator that yields requests ``(serve, size, payload)``
    and is sent the answer to its payload: ``serve`` answers all pending
    payloads of its size at once.  Pencils wait while an eigensolve is
    pending, which makes their stacks, the costliest, as tall as can be."""
    out, pending, ready = [None] * len(steps), {}, dict.fromkeys(range(len(steps)))
    while ready or pending:
        for i, answer in ready.items():
            try:
                pending[i] = steps[i].send(answer)
            except StopIteration as stop:
                out[i] = stop.value
        served = [i for i in pending if pending[i][0] is not _pencils] or list(pending)
        groups: dict[tuple, list] = {}
        for i in served:
            serve, size, payload = pending.pop(i)
            groups.setdefault((serve, size), []).append((i, payload))
        ready = {}
        for (serve, _), group in groups.items():
            idx, payloads = zip(*group)
            ready.update(zip(idx, serve(list(payloads))))
    return out


def _extremum(top: _RotatedTop, maximize: bool):
    """Step: extremum of f over the circle as ``(psi, f, top eigenvector, hi)``.

    With f the support function h of W(M), maximizing gives the numerical
    radius and minimizing gives -(the Crawford number) when that is
    positive; ``hi`` bounds the radius, or the Crawford number, from
    above.  See the module docstring for the method.
    """
    sign = 1.0 if maximize else -1.0
    err = _finite(top.err)
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

    def record(t: float, f: float, v: np.ndarray, df: float) -> float:
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
        return sign * df

    def slope(t: float):
        return record(t, *(yield from top(t)))

    def narrow(k: int):
        # narrow a sign change of the slope across gap k
        a, _, ga, _ = recs[k]
        b, _, gb, _ = recs[(k + 1) % len(recs)]
        if sign * ga > 0 > sign * gb:
            yield from _illinois(slope, a, sign * ga, a + (b - a) % _TWO_PI, sign * gb)

    def toward_best() -> int:
        # the gap that the best angle's slope points into
        k = bisect.bisect_left(recs, (best[0],))
        return k if best[3] > 0 else k - 1

    seeds = yield from top.seeds()          # ascending in [0, 2 pi)
    recs[:] = [(t, f, df, cmath.rect(1.0, t) * complex(f, df)) for t, f, _, df in seeds]
    best = max([best, *((t, sign * f, v, sign * df) for t, f, v, df in seeds)],
               key=lambda rec: rec[1])

    if maximize and top.r <= DENSE_SWEEP_MAX:
        M = top.P + 1j * top.R
        for _ in range(LEVEL_ROUNDS):
            yield from narrow(toward_best())
            lo = best[1]
            # the cut loop's stopping rule, solved for hi (and rounded)
            hi = (lo + 4 * err) / (1 - CUT_RTOL)
            while hi - lo > CUT_RTOL * hi + 4 * err:
                hi = math.nextafter(hi, lo)
            cross = yield from _crossings(M, hi)
            if cross is None:
                break
            if not cross.size:
                return (*best[:3], hi)
            mid = cross + np.diff(cross, append=cross[0] + _TWO_PI) / 2
            for rec in (yield from top.batch(mid)):
                record(*rec)
            if best[1] <= lo:           # the crossings raised nothing
                break

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
        yield from narrow(k)
        if len(recs) == n:
            yield from slope(aim[k])
        if len(recs) == n:      # every angle tried was evaluated before
            break

    if maximize or best[1] > 0:
        yield from narrow(toward_best())
    t, f, v, _ = best
    return t, sign * f, v, hi


# ---------------------------------------------------------------------------
# classical functionals on a compressed matrix
# ---------------------------------------------------------------------------

def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value; 0 for the empty matrix."""
    if M.size == 0:
        return 0.0
    return _finite(float(np.linalg.svd(M, compute_uv=False)[0]))


def _radius_step(M: np.ndarray):
    """Step: the numerical radius as ``(value, theta, eigvec, hi)``: the
    supremum is attained by the top eigenvector of Re(e^{i theta} M), and
    ``hi`` bounds it from above."""
    M = as_matrix(M)
    r = M.shape[0]
    if r == 0:
        return 0.0, 0.0, np.zeros(0, complex), 0.0
    if r == 1:
        m = complex(M[0, 0])
        val = abs(m)
        theta = float(-np.angle(m)) % (2 * np.pi) if val > 0 else 0.0
        return val, theta, np.ones(1, dtype=complex), val
    H, K = _split(M)
    nK = frobenius(K)
    # an overflowing ||M|| admits no skew part but 0
    if nK == 0 or nK <= 1e-12 * frobenius(M) < math.inf:
        # Hermitian: the support function peaks exactly at theta = 0 or pi.
        w, V = np.linalg.eigh(H.real if not H.imag.any() else H)
        if abs(w[-1]) >= abs(w[0]):
            val, theta, vec = float(abs(w[-1])), 0.0, V[:, -1]
        else:
            val, theta, vec = float(abs(w[0])), float(np.pi), V[:, 0]
        return _finite(val), theta, vec, val
    # Re(e^{i theta} M) is the support function's matrix at psi = -theta
    psi, val, vec, hi = yield from _extremum(_RotatedTop(H, K), maximize=True)
    return val, -psi % (2 * np.pi), vec, _finite(hi)


def _radii(mats: list) -> list[tuple[float, float, np.ndarray, float]]:
    """``_radius`` of each matrix, all solved together: each result is
    bit-identical to that of a solve alone."""
    return _drive([_radius_step(M) for M in mats])


def _radius(M: np.ndarray) -> tuple[float, float, np.ndarray, float]:
    """Numerical radius as ``(value, theta, eigvec, hi)``; see ``_radius_step``."""
    return _radii([M])[0]


def numerical_radius(M: np.ndarray) -> float:
    """Classical numerical radius of a square matrix; ValueError if an
    entry is NaN or Inf or the result overflows."""
    return _radius(M)[0]


def _crawford(M: np.ndarray) -> tuple[float, float]:
    """Crawford number as ``(value, hi)``, ``hi`` bounding it from above."""
    M = as_matrix(M)
    r = M.shape[0]
    if r == 0:
        return 0.0, 0.0
    if r == 1:
        val = abs(complex(M[0, 0]))
        return val, val
    [(_, h_min, _, hi)] = _drive([_extremum(_RotatedTop(*_split(M)), maximize=False)])
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
    val, theta, vec, hi = _radius(M)
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
