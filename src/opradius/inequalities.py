"""Machine-checkable catalog of the operator inequalities.

Each entry pairs an applicability predicate with lhs/rhs evaluators and
is checked at an absolute-plus-relative tolerance.  Three printed
statements (ids ``RA1.stated``, ``TD1.stated``, ``MRQ1.stated``)
disagree with their own derivations; both readings are registered and
the as-printed variants are marked ``flagged`` so a fuzz campaign
records their violations as findings instead of failures.

Evaluators work on compressions, where the metric adjoint is the
conjugate transpose, the seminorm is ``sigma_max`` and powers of
metric-positive operators are ordinary Hermitian PSD powers.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import types
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, Inapplicable, OpRadiusError
from .functionals import _radii, numerical_radius, spectral_norm
from .numkernel import matrix_to_json
from .space import SemiHilbertSpace

TOL_ABS = 1e-9
TOL_REL = 1e-7

SQRT2 = math.sqrt(2.0)

# Default parameter grid walked by the fuzz harness.
PARAM_GRID = [
    {"alpha": a, "r": r, "p": p}
    for a in (0.0, 0.25, 0.5, 0.75, 1.0)
    for r in (1.0, 2.0, 3.0)
    for p in (2.0, 3.0)
]

COMMUTE_TOL = 1e-8


@dataclass
class InequalityCatalogEntry:
    id: str
    statement: str
    operand_kind: str       # a key of OPERAND_KINDS
    evaluator: Callable     # (ctx, ops, params) -> (lhs, rhs, aux)
    params: tuple = ()      # names of parameters consumed
    variant: str = "as-stated"
    flagged: bool = False


# kind -> (min operands, max operands or None, positions of vector operands)
OPERAND_KINDS = {
    "single": (1, 1, ()),               # [T]
    "pair": (2, 2, ()),                 # [T, S]
    "quad": (4, 4, ()),                 # [T, X, Y, S]
    "family": (2, None, ()),            # [X1..Xn], n >= 2
    "commuting_pair": (2, 2, ()),       # [T, S] commuting
    "normal_pair": (2, 2, ()),          # [T, S] metric-normal
    "commuting_family": (2, None, ()),  # [T1..Tn] from a commuting family
    "positive_triples": (3, None, ()),  # [T1, X1, S1, ...], Tj/Sj metric-positive
    "op_vector": (2, 2, (1,)),          # [T, x]
    "vec_pair": (2, 2, (0, 1)),         # [a, b]
    "vec_triple": (3, 3, (0, 1, 2)),    # [x, y, z] / [a, b, e]
    "scalars": (0, 0, ()),              # none; a, b passed as params
}


class EvalContext:
    """Per-trial cache of compressions, radii, seminorms and other results
    of the evaluators.  An evaluator that needs radii or seminorms is a
    generator: it yields all its requests at once, a list of ``("rad", M)``
    and ``("nrm", M)``, and is sent their values in that order."""

    def __init__(self, space: SemiHilbertSpace):
        self.space = space
        # id(T) -> (T, compression): holding T keeps its id from being reused
        self._comp: dict[int, tuple] = {}
        self._rad: dict[bytes, float] = {}
        self._nrm: dict[bytes, float] = {}
        self._memo: dict = {}

    def comp(self, T) -> np.ndarray:
        hit = self._comp.get(id(T))
        if hit is None or hit[0] is not T:
            hit = self._comp[id(T)] = (T, self.space.compression(T))
        return hit[1]

    def compress(self, ops) -> None:
        """Compress the operators among ``ops`` as one stack where the metric
        is complex (of a real one, a real operator is compressed in real
        arithmetic); a stack with a non-member is left to ``comp``."""
        if np.iscomplexobj(self.space.Q):
            Ts = list({id(T): T for T in ops if T.ndim == 2}.values())
            with contextlib.suppress(OpRadiusError, ValueError):
                Ms = self.space.compression(np.stack(Ts))
                self._comp.update((id(T), (T, M)) for T, M in zip(Ts, Ms))

    def rad(self, M: np.ndarray) -> float:
        return numerical_radius(M)      # alone, where a batch raised

    def nrm(self, M: np.ndarray) -> float:
        return spectral_norm(M)

    def answer(self, asked: list) -> list:
        """For each list of requests, its values, or the first exception one
        of them raises alone.  The radii not cached are solved in one
        ``_radii`` call and the seminorms in one stacked ``spectral_norm``
        per shape and dtype; a batch that raises is redone matrix by matrix."""
        caches = {"rad": self._rad, "nrm": self._nrm}
        asked = [[(kind, M, M.tobytes()) for kind, M in reqs] for reqs in asked]
        rads, norms = {}, {}
        for kind, M, key in (req for reqs in asked for req in reqs):
            if key in caches[kind]:
                continue
            if kind == "rad":
                rads[key] = M
            else:
                norms.setdefault((M.shape, M.dtype), {})[key] = M
        if rads:
            with contextlib.suppress(Exception):
                self._rad.update(zip(rads, (
                    res[0] for res in _radii(list(rads.values())))))
        for group in norms.values():
            with contextlib.suppress(Exception):
                self._nrm.update(zip(group, spectral_norm(
                    np.stack(list(group.values()))).tolist()))
        out = []
        for reqs in asked:
            try:
                out.append([caches[kind][key] if key in caches[kind]
                            else getattr(self, kind)(M) for kind, M, key in reqs])
            except Exception as exc:
                out.append(exc)
        return out

    def memo(self, key, make: Callable):
        """``make()``, computed at the first call with ``key`` that returns."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]


def _rad(*mats) -> list:
    return [("rad", M) for M in mats]


def _nrm(*mats) -> list:
    return [("nrm", M) for M in mats]


def _hpow(ctx: EvalContext, H: np.ndarray, p: float) -> np.ndarray:
    """Power of a Hermitian PSD matrix, eigenvalues clamped at zero; the
    result is shared, read-only."""
    def power():
        w, V = ctx.memo(("eigh", key), lambda: np.linalg.eigh((H + H.conj().T) / 2))
        w = np.maximum(w, 0.0)
        out = (V * w**p) @ V.conj().T
        out.flags.writeable = False
        return out
    key = H.tobytes()
    return ctx.memo(("hpow", key, p), power)


def _require_positive_compression(ctx: EvalContext, T, label: str) -> np.ndarray:
    M = ctx.comp(T)
    return ctx.memo(("positive", M.tobytes()), lambda: _positive_part(M, label))


def _positive_part(M: np.ndarray, label: str) -> np.ndarray:
    scale = max(1.0, float(np.linalg.norm(M)))
    if np.linalg.norm(M - M.conj().T) > 1e-8 * scale:
        raise Inapplicable(f"{label} is not metric-positive (compression not Hermitian)")
    if M.size and float(np.linalg.eigvalsh((M + M.conj().T) / 2)[0]) < -1e-8 * scale:
        raise Inapplicable(f"{label} is not metric-positive (negative eigenvalue)")
    return (M + M.conj().T) / 2


# ---------------------------------------------------------------------------
# evaluators; ops is the operand list, params a dict.  An evaluator that
# needs radii or seminorms forms every matrix it asks about, then yields
# its requests in the order its sides read them (see EvalContext).
# ---------------------------------------------------------------------------

def _ev_cstar(ctx, ops, params):
    M = ctx.comp(ops[0])
    a, b, c, d = yield _nrm(M.conj().T @ M, M @ M.conj().T, M, M.conj().T)
    vals = (a, b, c ** 2, d ** 2)
    return max(vals), min(vals), {}


def _ev_norm_equiv(ctx, ops, params):
    M = ctx.comp(ops[0])
    w, n = yield _rad(M) + _nrm(M)
    lower = w - n / 2           # w >= ||T||/2
    upper = n - w               # w <= ||T||
    scale = n if n > 0 else 1.0
    aux = {"lower_margin_normalized": lower / scale,
           "upper_margin_normalized": upper / scale}
    if lower <= upper:
        return n / 2, w, aux    # binding branch: lower
    return w, n, aux            # binding branch: upper


def _ev_power(ctx, ops, params):
    n = params.get("n", 2.0)
    if n < 1 or n != int(n):
        raise Inapplicable("requires an integer n >= 1")
    n = int(n)
    M = ctx.comp(ops[0])
    lhs, w = yield _rad(np.linalg.matrix_power(M, n), M)
    return lhs, w ** n, {}


def _prod(ctx, ops, params, factor: float):
    B, C = ctx.comp(ops[0]), ctx.comp(ops[1])
    lhs, wB, wC = yield _rad(B @ C, B, C)
    return lhs, factor * wB * wC, {}


def _require_commuting(B, C, reason: str = "operands do not commute"):
    scale = max(1.0, float(np.linalg.norm(B)) * float(np.linalg.norm(C)))
    if np.linalg.norm(B @ C - C @ B) > COMMUTE_TOL * scale:
        raise Inapplicable(reason)


def _ev_prod2(ctx, ops, params):
    _require_commuting(ctx.comp(ops[0]), ctx.comp(ops[1]))
    return (yield from _prod(ctx, ops, params, 2))


def _ev_prod1(ctx, ops, params):
    for i, label in ((0, "first"), (1, "second")):
        M = ctx.comp(ops[i])
        _require_commuting(M.conj().T, M, f"{label} operand is not metric-normal")
    return (yield from _prod(ctx, ops, params, 1))


def _family(ctx, ops):
    fb = [ctx.comp(T) for T in ops]
    S1 = sum(fb)
    G = sum(b.conj().T @ b for b in fb)
    return fb, S1, G


def _ra1(ctx, ops, params, stated: bool):
    fb, S1, G = _family(ctx, ops)
    W = (len(fb) - 2) * G + S1.conj().T @ S1
    nG, nS1, nW = yield _nrm(G, S1, W)
    g = nG ** 2 if stated else nG
    return nS1 ** 2, g + 0.5 * nW, {}


def _ev_ran(ctx, ops, params):
    fb, S1, G = _family(ctx, ops)
    nS1, nG = yield _nrm(S1, G)
    return nS1 ** 2, len(fb) * nG, {}


def _ev_ra6(ctx, ops, params):
    B, C = ctx.comp(ops[0]), ctx.comp(ops[1])
    lhs, rhs = yield _nrm((B + C) / 2, (B.conj().T @ B + C.conj().T @ C) / 2)
    return lhs ** 2, rhs, {}


def _ev_ra7(ctx, ops, params):
    B = ctx.comp(ops[0])
    lhs, rhs = yield _nrm((B + B.conj().T) / 2,
                          (B.conj().T @ B + B @ B.conj().T) / 2)
    return lhs ** 2, rhs, {}


def _ev_ra8(ctx, ops, params):
    B = ctx.comp(ops[0])
    lhs, rhs = yield _nrm(B, B.conj().T @ B + B @ B.conj().T)
    return lhs ** 2, rhs, {}


def _ev_rb1(ctx, ops, params):
    fb, S1, G = _family(ctx, ops)
    C = S1.conj().T @ S1 - G  # sum over j != k of Xj* Xk
    nS1, nG, nC = yield _nrm(S1, G, C)
    return nS1 ** 2, nG + 0.5 * nC ** 2 + 0.5, {}


def _ev_rt1(ctx, ops, params):
    B, C = ctx.comp(ops[0]), ctx.comp(ops[1])
    a, b, c = yield _nrm(B + C, B.conj().T @ B + C.conj().T @ C,
                         B.conj().T @ C + C.conj().T @ B)
    return a ** 2, b + 0.5 * c ** 2 + 0.5, {}


def _ev_rt2(ctx, ops, params):
    B = ctx.comp(ops[0])
    Bs = B.conj().T
    a, b, c = yield _nrm(B + Bs, Bs @ B + B @ Bs, Bs @ Bs + B @ B)
    return a ** 2, b + 0.5 * c ** 2 + 0.5, {}


def _ev_rt3(ctx, ops, params):
    B = ctx.comp(ops[0])
    Bs = B.conj().T
    a, b, c = yield _nrm(B, Bs @ B + B @ Bs, Bs @ B - B @ Bs)
    return a ** 2, 0.5 * b + 0.25 * c ** 2 + 0.5, {}


def _ev_ct1(ctx, ops, params):
    fb, S1, G = _family(ctx, ops)
    n = len(fb)
    nS1, *vals = yield _nrm(S1, *fb, G, *(b1 + b2 for b1 in fb for b2 in fb))
    lhs = nS1 ** 2 + sum(x ** 2 for x in vals[:n])
    rhs = vals[n] + 0.25 * sum(x ** 2 for x in vals[n + 1:])
    return lhs, rhs, {}


def _ev_td1_stated(ctx, ops, params):
    fb, S1, G = _family(ctx, ops)
    n = len(fb)
    eye = np.eye(G.shape[0])
    nS1, *nb, nG, nH = yield _nrm(S1, *fb, G, (n - 1) * G + eye)
    lhs = nS1 ** 2 + sum(x ** 2 for x in nb)
    rhs = nG + 0.25 * nH ** 2
    return lhs, rhs, {}


def _ev_td1_proof(ctx, ops, params):
    fb, S1, G = _family(ctx, ops)
    eye = np.eye(G.shape[0])
    C = S1.conj().T @ S1 - G
    nS1, nG, nC = yield _nrm(S1, G, C + eye)
    return nS1 ** 2, nG + 0.25 * nC ** 2, {}


def _ev_tt1(ctx, ops, params):
    B, C = ctx.comp(ops[0]), ctx.comp(ops[1])
    a, b, lhs = yield _nrm(B + C, B - C, B @ B.conj().T + C @ C.conj().T)
    u, v = a ** 2, b ** 2
    return lhs, max(u, v) - abs(u - v) / 2, {}


def _re_im(B) -> list:
    """Requests for the seminorms of the real and imaginary parts of B."""
    return _nrm((B + B.conj().T) / 2, (B - B.conj().T) / 2j)


def _ev_tt2(ctx, ops, params):
    B = ctx.comp(ops[0])
    n_re, n_im, lhs = yield _re_im(B) + _nrm(B @ B.conj().T + B.conj().T @ B)
    re2, im2 = n_re ** 2, n_im ** 2
    return lhs, 4 * max(re2, im2) - 2 * abs(re2 - im2), {}


def _ev_qa1(ctx, ops, params):
    B, C = ctx.comp(ops[0]), ctx.comp(ops[1])
    lhs, nB, wC = yield _rad(B @ C + C @ B) + _nrm(B) + _rad(C)
    rhs = 2 * SQRT2 * nB * wC
    aux = {"ratio": rhs / lhs} if lhs > 0 else {}
    return lhs, rhs, aux


def _ev_qa5(ctx, ops, params):
    B = ctx.comp(ops[0])
    w, = yield _rad(B)
    if w <= 1e-12:
        raise Inapplicable("radius too small to normalize")
    Bh = B / w
    y = ctx.space.compress_vector(ops[1])
    ny = float(np.linalg.norm(y))
    if ny <= 1e-12:
        raise Inapplicable("vector has zero metric norm")
    y = y / ny
    lhs = float(np.linalg.norm(Bh @ y) ** 2 + np.linalg.norm(Bh.conj().T @ y) ** 2)
    n_re, n_im = yield _re_im(Bh)
    re2, im2 = n_re ** 2, n_im ** 2
    return lhs, 4 * (1 - abs(re2 - im2) / 2), {}


def _radicand(n_re, n_im, w):     # the answers to _re_im(B) + _rad(B)
    re2, im2 = n_re ** 2, n_im ** 2
    return max(w ** 2 - abs(re2 - im2) / 2, 0.0)


def _ev_gn(ctx, ops, params):
    B = ctx.comp(ops[0])
    BX, BY = ctx.comp(ops[1]), ctx.comp(ops[2])
    C = ctx.comp(ops[3])
    P, R = B @ BX @ C, C @ BY @ B
    w1, w2, nC, nX, nY, *rad = yield (_rad(P + R, P - R) + _nrm(C, BX, BY)
                                      + _re_im(B) + _rad(B))
    lhs = max(w1, w2)
    rhs = 2 * SQRT2 * nC * max(nX, nY) * math.sqrt(_radicand(*rad))
    return lhs, rhs, {}


def _ev_mm1(ctx, ops, params):
    B, C = ctx.comp(ops[0]), ctx.comp(ops[1])
    P, R = B @ C, C @ B
    w1, w2, nC, *rad = yield _rad(P + R, P - R) + _nrm(C) + _re_im(B) + _rad(B)
    lhs = max(w1, w2)
    rhs = 2 * SQRT2 * nC * math.sqrt(_radicand(*rad))
    return lhs, rhs, {}


def _ev_mm2(ctx, ops, params):
    B = ctx.comp(ops[0])
    lhs, nB, *rad = yield _rad(B @ B) + _nrm(B) + _re_im(B) + _rad(B)
    rhs = SQRT2 * nB * math.sqrt(_radicand(*rad))
    return lhs, rhs, {}


def _ev_xy2(ctx, ops, params):
    fb, S1, _ = _family(ctx, ops)
    nS1, *ws = yield _nrm(S1) + _rad(*(b.conj().T @ S1 for b in fb))
    return nS1 ** 2, sum(ws), {}


def _ev_st1(ctx, ops, params):
    fb, S1, _ = _family(ctx, ops)
    nS1, wS, *ws = yield _nrm(S1) + _rad(S1, *fb)
    return nS1 ** 2, 4 * wS * sum(ws), {}


def _ev_st2(ctx, ops, params):
    fb, S1, _ = _family(ctx, ops)
    for b in fb:
        _require_commuting(S1, b.conj().T,
                           "sum does not commute with a member's adjoint")
    nS1, wS, *ws = yield _nrm(S1) + _rad(S1, *fb)
    return nS1 ** 2, 2 * wS * sum(ws), {}


def _alpha(params) -> float:
    alpha = params.get("alpha", 0.5)
    if not 0 <= alpha <= 1:
        raise Inapplicable("requires alpha in [0, 1]")
    return alpha


def _unit(sp: SemiHilbertSpace, e) -> np.ndarray:
    """``e`` scaled to metric norm 1."""
    ne = sp.a_norm(e)
    if ne <= 1e-12:
        raise Inapplicable("unit vector has zero metric norm")
    return np.asarray(e, dtype=complex).reshape(-1) / ne


def _ev_md1(ctx, ops, params):
    """Also Buzano's inequality, at alpha = 0."""
    sp = ctx.space
    a, b, e = ops
    alpha = _alpha(params)
    e = _unit(sp, e)
    lhs = abs(sp.a_inner(a, e) * sp.a_inner(e, b))
    rhs = ((1 + alpha) / 2 * sp.a_norm(a) * sp.a_norm(b)
           + (1 - alpha) / 2 * abs(sp.a_inner(a, b)))
    return lhs, rhs, {}


def _ev_md2(ctx, ops, params):
    sp = ctx.space
    a, b, e = ops
    alpha = _alpha(params)
    r = params.get("r", 1.0)
    if r < 1:
        raise Inapplicable("exponent r must be >= 1")
    e = _unit(sp, e)
    lhs = abs(sp.a_inner(a, e) * sp.a_inner(e, b)) ** r
    rhs = ((1 + alpha) / 2 * (sp.a_norm(a) * sp.a_norm(b)) ** r
           + (1 - alpha) / 2 * abs(sp.a_inner(a, b)) ** r)
    return lhs, rhs, {}


def _ev_ra2(ctx, ops, params):
    sp = ctx.space
    a, b = ops
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    return sp.a_inner(a, b).real, 0.25 * sp.a_norm(a + b) ** 2, {}


def _ev_md3(ctx, ops, params):
    B = ctx.comp(ops[0])
    alpha = _alpha(params)
    r = params.get("r", 1.0)
    if r < 1:
        raise Inapplicable("exponent r must be >= 1")
    w, nH, wB2 = yield (
        _rad(B) + _nrm(_hpow(ctx, B.conj().T @ B, r) + _hpow(ctx, B @ B.conj().T, r))
        + _rad(B @ B))
    lhs = w ** (2 * r)
    rhs = (1 + alpha) / 4 * nH + (1 - alpha) / 2 * wB2 ** r
    return lhs, rhs, {}


def _ev_ag(ctx, ops, params):
    a = params.get("a", 1.0)
    b = params.get("b", 1.0)
    alpha = params.get("alpha", 0.5)
    r = params.get("r", 1.0)
    p = params.get("p", 2.0)
    if a < 0 or b < 0 or not 0 <= alpha <= 1 or r < 1 or p <= 1:
        raise Inapplicable("need a,b >= 0, alpha in [0,1], r >= 1, p > 1")
    q = p / (p - 1)
    chain = [
        (a**alpha * b ** (1 - alpha), alpha * a + (1 - alpha) * b),
        (alpha * a + (1 - alpha) * b,
         (alpha * a**r + (1 - alpha) * b**r) ** (1 / r)),
        (a * b, a**p / p + b**q / q),
        (a**p / p + b**q / q, (a ** (p * r) / p + b ** (q * r) / q) ** (1 / r)),
    ]
    lhs, rhs = min(chain, key=lambda t: t[1] - t[0])
    return lhs, rhs, {}


def _triples(ctx, ops):
    n = len(ops) // 3
    Ts, Xs, Ss = [], [], []
    for j in range(n):
        Ts.append(_require_positive_compression(ctx, ops[3 * j], f"T_{j + 1}"))
        Xs.append(ctx.comp(ops[3 * j + 1]))
        Ss.append(_require_positive_compression(ctx, ops[3 * j + 2], f"S_{j + 1}"))
    return n, Ts, Xs, Ss


def _mrq1(ctx, ops, params, stated: bool):
    n, Ts, Xs, Ss = _triples(ctx, ops)
    alpha = _alpha(params)
    r = params.get("r", 1.0)
    p = params.get("p", 2.0)
    if p <= 1:
        raise Inapplicable("requires p > 1")
    q = p / (p - 1)
    if p * r < 2 or q * r < 2:
        raise Inapplicable("requires p*r >= 2 and q*r >= 2")
    comb = sum(_hpow(ctx, Ts[j], alpha) @ Xs[j] @ _hpow(ctx, Ss[j], alpha) for j in range(n))
    mul = 2.0 if stated else 1.0
    w, *vals = yield _rad(comb) + _nrm(*Xs, *(
        _hpow(ctx, Ts[j], mul * p * r) / p + _hpow(ctx, Ss[j], mul * q * r) / q
        for j in range(n)))
    lhs = w ** r
    nX = max(vals[:n])
    rhs = n ** (r - 1) * nX**r * sum(x ** alpha for x in vals[n:])
    return lhs, rhs, {}


def _ev_final1(ctx, ops, params):
    n, Ts, Xs, Ss = _triples(ctx, ops)
    alpha = _alpha(params)
    r = params.get("r", 2.0)
    if r < 2:
        raise Inapplicable("requires r >= 2")
    comb = sum(
        _hpow(ctx, Ts[j], alpha) @ Xs[j] @ _hpow(ctx, Ss[j], 1 - alpha) for j in range(n)
    )
    w, *vals = yield _rad(comb) + _nrm(*Xs, *(
        alpha * _hpow(ctx, Ts[j], r) + (1 - alpha) * _hpow(ctx, Ss[j], r)
        for j in range(n)))
    lhs = w ** r
    nX = max(vals[:n])
    rhs = n ** (r - 1) * nX**r * sum(vals[n:])
    return lhs, rhs, {}


def _ev_submult(ctx, ops, params):
    B, C = ctx.comp(ops[0]), ctx.comp(ops[1])
    lhs, nB, nC = yield _nrm(B @ C, B, C)
    return lhs, nB * nC, {}


_CATALOG: list[InequalityCatalogEntry] = [
    InequalityCatalogEntry(
        "CSTAR", "||T#T|| = ||TT#|| = ||T||^2 = ||T#||^2 (checked as max<=min)",
        "single", _ev_cstar),
    InequalityCatalogEntry(
        "NORM-EQUIV", "||T||/2 <= w(T) <= ||T|| (binding branch reported)",
        "single", _ev_norm_equiv),
    InequalityCatalogEntry(
        "POWER", "w(T^n) <= w(T)^n", "single", _ev_power, params=("n",)),
    InequalityCatalogEntry(
        "PROD4", "w(TS) <= 4 w(T) w(S)", "pair", functools.partial(_prod, factor=4)),
    InequalityCatalogEntry(
        "PROD2", "TS = ST implies w(TS) <= 2 w(T) w(S)",
        "commuting_pair", _ev_prod2),
    InequalityCatalogEntry(
        "PROD1", "T, S metric-normal implies w(TS) <= w(T) w(S)",
        "normal_pair", _ev_prod1),
    InequalityCatalogEntry(
        "RA1.stated",
        "||sum X||^2 <= ||sum X#X||^2 + ||(n-2) sum X#X + (sum X#)(sum X)||/2",
        "family", functools.partial(_ra1, stated=True), flagged=True),
    InequalityCatalogEntry(
        "RA1.proof",
        "||sum X||^2 <= ||sum X#X|| + ||(n-2) sum X#X + (sum X#)(sum X)||/2",
        "family", functools.partial(_ra1, stated=False),
        variant="proof-consistent"),
    InequalityCatalogEntry(
        "RAN", "||sum X||^2 <= n ||sum X#X||", "family", _ev_ran),
    InequalityCatalogEntry(
        "RA6", "||(B+C)/2||^2 <= ||(B#B + C#C)/2||", "pair", _ev_ra6),
    InequalityCatalogEntry(
        "RA7", "||(X+X#)/2||^2 <= ||(X#X + XX#)/2||", "single", _ev_ra7),
    InequalityCatalogEntry(
        "RA8", "||T||^2 <= ||T#T + TT#||", "single", _ev_ra8),
    InequalityCatalogEntry(
        "RB1",
        "||sum X||^2 <= ||sum X#X|| + ||sum_{j!=k} Xj# Xk||^2 / 2 + 1/2",
        "family", _ev_rb1),
    InequalityCatalogEntry(
        "RT1", "||T+S||^2 <= ||T#T+S#S|| + ||T#S+S#T||^2/2 + 1/2",
        "pair", _ev_rt1),
    InequalityCatalogEntry(
        "RT2", "||X+X#||^2 <= ||X#X+XX#|| + ||(X#)^2+X^2||^2/2 + 1/2",
        "single", _ev_rt2),
    InequalityCatalogEntry(
        "RT3", "||T||^2 <= ||T#T+TT#||/2 + ||T#T-TT#||^2/4 + 1/2",
        "single", _ev_rt3),
    InequalityCatalogEntry(
        "CT1",
        "||sum X||^2 + sum ||Xk||^2 <= ||sum X#X|| + sum_{j,k} ||Xj+Xk||^2 / 4",
        "family", _ev_ct1),
    InequalityCatalogEntry(
        "TD1.stated",
        "||sum X||^2 + sum ||Xk||^2 <= ||sum X#X|| + ||(n-1) sum X#X + I||^2 / 4",
        "family", _ev_td1_stated, flagged=True),
    InequalityCatalogEntry(
        "TD1.proof",
        "||sum X||^2 <= ||sum X#X|| + ||sum_{j!=k} Xj# Xk + I||^2 / 4",
        "family", _ev_td1_proof, variant="proof-consistent"),
    InequalityCatalogEntry(
        "TT1",
        "||TT#+SS#|| <= max(||T+S||^2, ||T-S||^2) - |...diff...|/2",
        "pair", _ev_tt1),
    InequalityCatalogEntry(
        "TT2",
        "||TT#+T#T|| <= 4 max(||Re T||^2, ||Im T||^2) - 2 |diff|",
        "single", _ev_tt2),
    InequalityCatalogEntry(
        "QA1", "w(TS+ST) <= 2 sqrt2 ||T|| w(S)", "pair", _ev_qa1),
    InequalityCatalogEntry(
        "QA5",
        "w(T) <= 1, ||x||_A = 1: ||Tx||^2 + ||T#x||^2 <= "
        "4 (1 - |  ||Re T||^2 - ||Im T||^2 | / 2)  (T scaled by 1/w(T))",
        "op_vector", _ev_qa5),
    InequalityCatalogEntry(
        "GN",
        "w(TXS +- SYT) <= 2 sqrt2 ||S|| max(||X||, ||Y||) "
        "sqrt(w(T)^2 - |diff|/2)",
        "quad", _ev_gn),
    InequalityCatalogEntry(
        "MM1", "w(TS +- ST) <= 2 sqrt2 ||S|| sqrt(w(T)^2 - |diff|/2)",
        "pair", _ev_mm1),
    InequalityCatalogEntry(
        "MM2", "w(T^2) <= sqrt2 ||T|| sqrt(w(T)^2 - |diff|/2)",
        "single", _ev_mm2),
    InequalityCatalogEntry(
        "XY2", "||sum T||^2 <= sum_j w(Tj# sum T)", "family", _ev_xy2),
    InequalityCatalogEntry(
        "ST1", "||sum T||^2 <= 4 w(sum T) sum_j w(Tj)", "family", _ev_st1),
    InequalityCatalogEntry(
        "ST2", "sum commutes with each Tj#: factor 2 instead of 4",
        "commuting_family", _ev_st2),
    InequalityCatalogEntry(
        "BUZANO", "|<x,z><z,y>| <= (||x|| ||y|| + |<x,y>|)/2, ||z||_A = 1",
        "vec_triple",
        lambda ctx, ops, params: _ev_md1(ctx, ops, {"alpha": 0.0})),
    InequalityCatalogEntry(
        "MD1",
        "|<a,e><e,b>| <= (1+alpha)/2 ||a|| ||b|| + (1-alpha)/2 |<a,b>|",
        "vec_triple", _ev_md1, params=("alpha",)),
    InequalityCatalogEntry(
        "MD2", "r-th power form of MD1", "vec_triple", _ev_md2,
        params=("alpha", "r")),
    InequalityCatalogEntry(
        "RA2", "Re <a,b>_A <= ||a+b||_A^2 / 4", "vec_pair", _ev_ra2),
    InequalityCatalogEntry(
        "MD3",
        "w(T)^{2r} <= (1+alpha)/4 ||(T#T)^r + (TT#)^r|| + (1-alpha)/2 w(T^2)^r",
        "single", _ev_md3, params=("alpha", "r")),
    InequalityCatalogEntry(
        "AG", "scalar Young/power-mean chain (binding link reported)",
        "scalars", _ev_ag, params=("a", "b", "alpha", "r", "p")),
    InequalityCatalogEntry(
        "MRQ1.stated",
        "w(sum Tj^a Xj Sj^a)^r <= n^{r-1} ||X||^r sum ||Tj^{2pr}/p + Sj^{2qr}/q||^a",
        "positive_triples", functools.partial(_mrq1, stated=True), params=("alpha", "r", "p"),
        flagged=True),
    InequalityCatalogEntry(
        "MRQ1.proof",
        "w(sum Tj^a Xj Sj^a)^r <= n^{r-1} ||X||^r sum ||Tj^{pr}/p + Sj^{qr}/q||^a",
        "positive_triples", functools.partial(_mrq1, stated=False), params=("alpha", "r", "p"),
        variant="proof-consistent"),
    InequalityCatalogEntry(
        "FINAL1",
        "w(sum Tj^a Xj Sj^{1-a})^r <= n^{r-1} ||X||^r "
        "sum ||a Tj^r + (1-a) Sj^r||, r >= 2",
        "positive_triples", _ev_final1, params=("alpha", "r")),
    InequalityCatalogEntry(
        "SUBMULT", "||TS|| <= ||T|| ||S||", "pair", _ev_submult),
]

_BY_ID = {e.id: e for e in _CATALOG}


def list_catalog() -> list[InequalityCatalogEntry]:
    return list(_CATALOG)


def get_entry(entry_id: str) -> InequalityCatalogEntry:
    try:
        return _BY_ID[entry_id]
    except KeyError:
        raise KeyError(
            f"unknown inequality id {entry_id!r}; known: {sorted(_BY_ID)}"
        ) from None


# ---------------------------------------------------------------------------
# margin reports
# ---------------------------------------------------------------------------

@dataclass
class MarginReport:
    """Outcome of one evaluation.  ``fingerprint`` and ``operands`` are derived
    on read from ``space`` and ``evaluated_on``, which must not be modified."""

    id: str
    lhs: float | None
    rhs: float | None
    margin: float | None
    status: str                      # Satisfied | Violated | Inapplicable
    tol_abs: float = TOL_ABS
    tol_rel: float = TOL_REL
    params: dict = field(default_factory=dict)
    aux: dict = field(default_factory=dict)
    reason: str = ""
    space: SemiHilbertSpace | None = field(default=None, repr=False, compare=False)
    evaluated_on: list = field(default_factory=list, repr=False, compare=False)

    @functools.cached_property
    def fingerprint(self) -> str:
        return fingerprint_payload(self.id, self.space, self.evaluated_on,
                                   self.params)

    @property
    def operands(self) -> list | None:
        """Serialized operands of a violation; None for other outcomes."""
        if self.status != "Violated":
            return None
        return [_serialize_operand(op) for op in self.evaluated_on]

    def to_json(self) -> dict:
        out = {
            "id": self.id, "lhs": self.lhs, "rhs": self.rhs,
            "margin": self.margin, "status": self.status,
            "tol_abs": self.tol_abs, "tol_rel": self.tol_rel,
            "fingerprint": self.fingerprint,
        }
        if self.params:
            out["params"] = dict(self.params)
        if self.aux:
            out["aux"] = {k: float(v) for k, v in self.aux.items()}
        if (operands := self.operands) is not None:
            out["operands"] = operands
        if self.reason:
            out["reason"] = self.reason
        return out


def is_violation(lhs: float, rhs: float, tol_abs: float = TOL_ABS,
                 tol_rel: float = TOL_REL) -> bool:
    return lhs > rhs + tol_abs + tol_rel * max(abs(lhs), abs(rhs))


def _serialize_operand(op) -> dict:
    arr = np.asarray(op, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return matrix_to_json(arr)


def deserialize_operands(kind: str, mats: list) -> list:
    """Inverse of ``_serialize_operand`` for one operand list: the vector
    slots of ``kind`` are turned from n x 1 matrices back into vectors.  A
    wrong length is left for ``evaluate`` to report, except for ``op_vector``,
    which mixes operators and vectors: its slots are ambiguous then."""
    lo, _, vectors = OPERAND_KINDS[kind]
    if not vectors:
        return list(mats)
    if len(vectors) == lo:      # vectors only, however many were given
        return [m.ravel() for m in mats]
    if len(mats) != lo:
        raise ValueError("entry needs an operator and a vector operand")
    return [m.ravel() if i in vectors else m for i, m in enumerate(mats)]


def fingerprint_payload(entry_id: str, space: SemiHilbertSpace, operands,
                        params: dict) -> str:
    payload = {
        "id": entry_id,
        "metric": matrix_to_json(space.metric),
        "tol": space.tol,
        "operands": [_serialize_operand(op) for op in operands],
        "params": {k: params[k] for k in sorted(params)},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _check_signature(entry: InequalityCatalogEntry, operands) -> None:
    lo, hi, _ = OPERAND_KINDS[entry.operand_kind]
    n = len(operands)
    if n < lo or (hi is not None and n > hi):
        want = f"{lo}" if hi == lo else (f">={lo}" if hi is None else f"{lo}..{hi}")
        raise Inapplicable(
            f"{entry.id} expects {want} operand(s) ({entry.operand_kind}), got {n}"
        )
    if entry.operand_kind == "positive_triples" and n % 3:
        raise Inapplicable(
            f"{entry.id} expects full (T_j, X_j, S_j) triples, got {n} operands"
        )


def float_params(params: dict | None) -> dict:
    """The parameters as floats; ConfigError for one that is not finite."""
    out = {}
    for key, val in (params or {}).items():
        try:
            out[key] = float(val)
        except (TypeError, ValueError):
            out[key] = math.nan
        if not math.isfinite(out[key]):
            raise ConfigError(f"parameter {key}={val!r} is not a finite number")
    return out


def evaluate(entry_id: str, space: SemiHilbertSpace, operands,
             params: dict | None = None, tol_abs: float = TOL_ABS,
             tol_rel: float = TOL_REL, ctx: EvalContext | None = None) -> MarginReport:
    """Evaluate one catalog entry on concrete operands.  The report holds
    ``params`` as floats.  A side that is not finite in double precision
    gives no verdict: it raises ValueError."""
    report, = evaluate_together(ctx or EvalContext(space), [
        (entry_id, space, operands, params, tol_abs, tol_rel)])
    if isinstance(report, Exception):
        raise report
    return report


def evaluate_together(ctx: EvalContext, calls: list) -> list:
    """``evaluate(*call, ctx=ctx)`` of each call, or the exception it raises,
    run together: one ``ctx.answer`` serves each round of requests of the
    evaluators still waiting, and a request that raises raises in its own."""
    runs = [_evaluation(ctx, *call) for call in calls]
    out = [None] * len(runs)
    waiting = [(i, run.send, None) for i, run in enumerate(runs)]
    while True:
        asked = []
        for i, step, arg in waiting:
            try:
                asked.append((i, step(arg)))
            except StopIteration as stop:
                out[i] = stop.value
            except Exception as exc:
                out[i] = exc
        if not asked:
            return out
        answers = ctx.answer([reqs for _, reqs in asked])
        waiting = [(i, runs[i].throw if isinstance(got, Exception)
                    else runs[i].send, got)
                   for (i, _), got in zip(asked, answers)]


def _evaluation(ctx: EvalContext, entry_id: str, space: SemiHilbertSpace,
                operands, params: dict | None = None, tol_abs: float = TOL_ABS,
                tol_rel: float = TOL_REL):
    """``evaluate`` as a generator that passes its evaluator's requests on."""
    if not (math.isfinite(tol_abs) and math.isfinite(tol_rel)):
        raise ConfigError(f"tolerances {tol_abs!r}, {tol_rel!r} are not finite")
    entry = get_entry(entry_id)
    params = float_params(params)
    operands = list(operands)
    common = dict(id=entry_id, tol_abs=tol_abs, tol_rel=tol_rel, params=params,
                  space=space, evaluated_on=operands)
    try:
        _check_signature(entry, operands)
        # the evaluator may be wrapped: a generator is known by what it returns
        sides = entry.evaluator(ctx, operands, params)
        if isinstance(sides, types.GeneratorType):
            sides = yield from sides
        lhs, rhs, aux = sides
    except Inapplicable as exc:
        return MarginReport(lhs=None, rhs=None, margin=None,
                            status="Inapplicable", reason=str(exc), **common)
    except OverflowError as exc:
        raise ValueError(f"{entry_id}: arithmetic overflow ({exc})") from exc
    lhs, rhs = float(lhs), float(rhs)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError(f"{entry_id}: lhs {lhs} or rhs {rhs} is not finite")
    violated = is_violation(lhs, rhs, tol_abs, tol_rel)
    return MarginReport(lhs=lhs, rhs=rhs, margin=rhs - lhs,
                        status="Violated" if violated else "Satisfied",
                        aux=aux, **common)
