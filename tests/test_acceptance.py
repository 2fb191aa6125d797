"""Acceptance criteria, one test per criterion, each printing a summary line.

Every expected value follows from the definitions: the A-norm and the
A-numerical radius of T are the spectral norm and the numerical radius of
its compression, and each value is written as a closed form with a
one-line derivation.  Where a reference value printed with a worked
example does not follow from its definitions, the test checks it as the
quantity it turns out to be (for instance sigma_max(A T) instead of
||T||_A); the repro command prints the same analysis.
"""
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import opradius
from opradius import (
    EnsembleConfig,
    a_numerical_radius,
    build_space,
    errors,
    evaluate,
    operator_a_norm,
    random_a_unitary,
    random_in_BA,
    random_psd,
    replay,
    run_fuzz,
    sampling_oracle,
)
from opradius.repro import run_case

A_PD = np.array([[1, -1], [-1, 2]], float)
SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)
PHI = (1 + SQRT5) / 2


class Checks:
    def __init__(self, name):
        self.name = name
        self.rows = []

    def add(self, label, ok, detail=""):
        self.rows.append((label, bool(ok), detail))

    def approx(self, label, expected, computed, tol):
        ok = abs(computed - expected) <= tol
        self.add(label, ok,
                 f"expected {expected!r}, computed {computed!r}, tol {tol:g}")

    def finish(self):
        failed = [r for r in self.rows if not r[1]]
        status = "PASS" if not failed else "FAIL"
        print(f"[{self.name}] {status} "
              f"({len(self.rows) - len(failed)}/{len(self.rows)} sub-checks)")
        for label, ok, detail in self.rows:
            mark = "ok " if ok else "FAIL"
            print(f"    {mark} {label}" + (f" :: {detail}" if detail else ""))
        assert not failed, (
            f"{self.name}: {len(failed)} sub-check(s) failed: "
            + "; ".join(f"{l} [{d}]" for l, _, d in failed)
        )


@pytest.fixture(scope="module")
def fuzz_report():
    config = EnsembleConfig(dims=[2, 3, 4, 5, 6], rank_policy="each",
                            trials=1000, master_seed=42)
    return run_fuzz(config)


def test_criterion_1_golden_adjoint():
    c = Checks("criterion 1: golden adjoint")
    A = np.array([[1, 1], [1, 1]], float)
    T = np.array([[2, 2], [0, 0]], float)
    space = build_space(A)
    sharp = space.sharp_adjoint(T)
    err = float(np.abs(sharp - np.ones((2, 2))).max())
    c.add("T# = [[1,1],[1,1]] (max-abs <= 1e-12)", err <= 1e-12, f"err {err:.2e}")
    c.add("classify reports metric-selfadjoint",
          space.classify(T).a_selfadjoint)
    best = min(
        _timed(lambda: space.sharp_adjoint(T)) for _ in range(5)
    )
    c.add("runtime < 1 ms", best < 1e-3, f"best of 5: {best * 1e3:.3f} ms")
    c.finish()


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_example_33():
    c = Checks("criterion 2: ex33 case")
    space = build_space(A_PD)
    T = np.array([[1, 0], [1, 0]], float)
    S = np.array([[1, 1], [0, 0]], float)
    # A = L L^T with L = [[1,0],[-1,1]]; X compresses to L^T X L^-T.
    # L^T T L^-T = [[0,0],[1,1]], a rank-one matrix of norm sqrt2.
    c.approx("||T||_A = sqrt2", SQRT2, operator_a_norm(space, T), 1e-6)
    # L^T S L^-T = [[1,2],[0,0]]: elliptical range with foci 0, 1 and minor
    # axis sqrt(5 - 1) = 2, so w = 1/2 + sqrt(1/4 + 1) = (1+sqrt5)/2.
    c.approx("w_A(S) = (1+sqrt5)/2", PHI,
             a_numerical_radius(space, S).value, 1e-6)
    # TS+ST = [[3,1],[1,1]] compresses to [[2,2],[1,2]]: foci 2 +- sqrt2,
    # minor axis sqrt(13 - 12) = 1, so w = 2 + sqrt(2 + 1/4) = 7/2.  (No
    # quantity was found that gives the published (1+sqrt10)/2.)
    c.approx("w_A(TS+ST) = 7/2", 3.5,
             a_numerical_radius(space, T @ S + S @ T).value, 1e-6)
    rep = evaluate("QA1", space, [T, S])
    c.add("QA1 Satisfied", rep.status == "Satisfied")
    # rhs = 2 sqrt2 ||T||_A w_A(S) = 2 sqrt2 * sqrt2 * (1+sqrt5)/2.
    c.approx("QA1 rhs = 2+2 sqrt5", 2 + 2 * SQRT5, rep.rhs, 1e-9)
    # The published 1s: A T = [[0,0],[1,0]] has norm 1, and A S =
    # [[1,1],[-1,-1]] is nilpotent, so its classical radius is ||A S||/2 = 1.
    c.approx("published ||T||_A = 1 is sigma_max(A T)", 1.0,
             float(np.linalg.norm(A_PD @ T, 2)), 1e-6)
    c.approx("published w_A(S) = 1 is the classical w(A S)", 1.0,
             a_numerical_radius(build_space(np.eye(2)), A_PD @ S).value, 1e-6)
    c.finish()


def test_criterion_3_example_qa5():
    c = Checks("criterion 3: refined-bound example")
    space = build_space(A_PD)
    T = 0.5 * np.array([[1, 0], [1, 1]], float)
    x = 0.5 * np.array([2 - SQRT3, 1 - SQRT3])
    sharp = space.sharp_adjoint(T)
    # The published x is normalised in the Euclidean norm of A x:
    # A x = (1, -sqrt3)/2.
    c.approx("published ||x||_A = 1 is ||A x|| = 1", 1.0,
             float(np.linalg.norm(A_PD @ x)), 1e-9)
    # With L = [[1,0],[-1,1]]: y = L^T x = (1, 1-sqrt3)/2, and T compresses
    # to M = [[0,-1],[1,2]]/2, T# to M^T.
    # ||x||_A^2 = ||y||^2 = (1 + (1-sqrt3)^2)/4 = (5-2 sqrt3)/4.
    c.approx("||x||_A = sqrt(5-2 sqrt3)/2", math.sqrt(5 - 2 * SQRT3) / 2,
             space.a_norm(x), 1e-9)
    # M y = (sqrt3-1, 3-2 sqrt3)/4: ((4-2 sqrt3) + (21-12 sqrt3))/16.
    c.approx("||Tx||_A^2 = (25-14 sqrt3)/16", (25 - 14 * SQRT3) / 16,
             space.a_norm(T @ x) ** 2, 1e-3)
    # M^T y = (1-sqrt3, 1-2 sqrt3)/4: ((4-2 sqrt3) + (13-4 sqrt3))/16.
    c.approx("||T#x||_A^2 = (17-6 sqrt3)/16", (17 - 6 * SQRT3) / 16,
             space.a_norm(sharp @ x) ** 2, 1e-3)
    # M has the double eigenvalue 1/2 and minor axis sqrt(3/2 - 1/2) = 1,
    # so w = 1/2 + 1/2.
    c.approx("w_A(T) = 1", 1.0, a_numerical_radius(space, T).value, 1e-6)
    # Re M = diag(0, 1); Im M = [[0,-1],[1,0]]/(2i) has norm 1/2.
    c.approx("||Re_A T||_A^2 = 1", 1.0,
             operator_a_norm(space, space.re_a(T)) ** 2, 1e-6)
    c.approx("||Im_A T||_A^2 = 1/4", 0.25,
             operator_a_norm(space, space.im_a(T)) ** 2, 1e-6)
    rep = evaluate("QA5", space, [T, x])
    c.add("QA5 Satisfied", rep.status == "Satisfied")
    # QA5 divides T by w_A(T) = 1 and x by ||x||_A:
    # lhs = (42-20 sqrt3)/16 / ((5-2 sqrt3)/4) = (45-8 sqrt3)/26.
    c.approx("QA5 lhs = (45-8 sqrt3)/26", (45 - 8 * SQRT3) / 26, rep.lhs, 1e-3)
    # rhs = 4 (1 - |1 - 1/4| / 2) = 5/2.
    c.approx("QA5 rhs = 5/2", 2.5, rep.rhs, 1e-3)
    c.finish()


def test_criterion_4_example_md3():
    c = Checks("criterion 4: interpolated-bound example")
    space = build_space(A_PD)
    T = np.array([[1, 1], [0, 0]], float)
    sharp = space.sharp_adjoint(T)
    G = sharp @ T + T @ sharp
    # T compresses to M = [[1,2],[0,0]] (see criterion 2), so G compresses
    # to M^T M + M M^T = [[6,2],[2,4]] with eigenvalues 5 +- sqrt5.
    c.approx("||T#T+TT#||_A = 5+sqrt5", 5 + SQRT5,
             operator_a_norm(space, G), 1e-6)
    # w(M) = (1+sqrt5)/2 as for S in criterion 2; T^2 = T.
    c.approx("w_A(T) = (1+sqrt5)/2", PHI,
             a_numerical_radius(space, T).value, 1e-6)
    c.approx("w_A(T^2) = (1+sqrt5)/2", PHI,
             a_numerical_radius(space, T @ T).value, 1e-6)
    rep = evaluate("MD3", space, [T], {"alpha": 0.5, "r": 1.0})
    # lhs = w^2 = (3+sqrt5)/2; rhs = 3/8 (5+sqrt5) + 1/4 w = 2 + sqrt5/2,
    # a margin of exactly 1/2.
    c.approx("MD3 lhs = (3+sqrt5)/2", (3 + SQRT5) / 2, rep.lhs, 1e-9)
    c.approx("MD3 rhs = 2+sqrt5/2", 2 + SQRT5 / 2, rep.rhs, 1e-9)
    # The published 10 and 2: A G = [[6,-4],[-4,6]] has eigenvalues 10
    # and 2, and A T = [[1,1],[-1,-1]] = (1,-1)(1,1)^T has norm 2.
    c.approx("published ||T#T+TT#||_A = 10 is sigma_max(A G)", 10.0,
             float(np.linalg.norm(A_PD @ G, 2)), 1e-6)
    c.approx("published w_A(T) = 2 is sigma_max(A T)", 2.0,
             float(np.linalg.norm(A_PD @ T, 2)), 1e-6)
    c.finish()


def test_criterion_5_example_final1():
    c = Checks("criterion 5: composite-power example")
    from opradius.numkernel import real_spectrum_power as rpow

    A = np.array([[1, 1], [1, 1]], float)
    space = build_space(A)
    T1 = np.array([[0, 0.5], [0.5, 0]])
    X1 = np.array([[1.0, 0.0], [1.0, 1.0]])
    S1 = np.diag([0.5, 0.5])
    T2 = np.array([[0.5, 0.5], [0.0, 0.0]])
    X2 = np.array([[1.0, 1.0], [0.0, 1.0]])
    S2 = np.array([[0.0, 0.0], [0.5, 0.5]])
    comp = (rpow(T1, 1 / 3) @ X1 @ rpow(S1, 2 / 3)
            + rpow(T2, 1 / 3) @ X2 @ rpow(S2, 2 / 3))
    err = float(np.abs(comp - np.array([[1.5, 1.5], [0.5, 0.0]])).max())
    c.add("composite = [[3/2,3/2],[1/2,0]] (<= 1e-9/entry)", err <= 1e-9,
          f"err {err:.2e}")
    for j, (Tj, Sj) in enumerate(((T1, S1), (T2, S2)), start=1):
        B = Tj @ Tj / 3 + 2 * (Sj @ Sj) / 3
        # A = 2 e e^T with e = (1,1)/sqrt2, f = (1,-1)/sqrt2; e^T B f = 0,
        # so B acts on range(A) as the scalar e^T B e = 1/4.
        c.approx(f"||B{j}||_A = 1/4", 0.25, operator_a_norm(space, B), 1e-9)
        # The published 0.5: A B = 2 e (e^T B) has the one eigenvalue
        # 2 e^T B e = 1/2.
        c.approx(f"published ||B{j}||_A = 0.5 is lam_max(A B{j})", 0.5,
                 float(np.linalg.eigvals(A @ B).real.max()), 1e-9)
    with pytest.raises(errors.UnboundedForm):
        a_numerical_radius(space, comp)
    c.add("radius of the composite raises UnboundedForm (deviation)", True)
    result = run_case("ex-final1")
    c.add("repro case exits 0 with deviation notes",
          result.ok and len(result.notes) >= 1)
    lam = float(np.linalg.eigvalsh(((A @ comp) + (A @ comp).T) / 2)[-1])
    c.approx("identified alternative quantity lam_max(Re(A G)) = (7+sqrt50)/4",
             (7 + math.sqrt(50)) / 4, lam, 1e-9)
    c.finish()


def test_criterion_6_pauli_case():
    c = Checks("criterion 6: rank-one projector case")
    A = np.diag([1.0, 0.0])
    space = build_space(A)
    sx = np.array([[0, 1], [1, 0]], float)
    sy = np.array([[0, -1j], [1j, 0]])
    comm = sx @ sy - sy @ sx
    c.approx("w_A([sx,sy]) = 2", 2.0,
             a_numerical_radius(space, comm).value, 1e-9)
    try:
        a_numerical_radius(space, sx)
        c.add("w_A(sx) raises UnboundedForm", False)
    except errors.UnboundedForm:
        c.add("w_A(sx) raises UnboundedForm", True)
    result = run_case("pauli")
    c.add("repro records the saturation deviation",
          result.ok and any("saturation" in n for n in result.notes))
    c.finish()


def test_criterion_7_fuzz_suite(fuzz_report):
    c = Checks("criterion 7: fuzz suite")
    rep = fuzz_report
    c.add("1000 trials, dims 2-6, every rank, full catalog",
          rep.config["trials"] == 1000 and rep.config["dims"] == [2, 3, 4, 5, 6])
    c.add("zero violations among non-flagged entries",
          len(rep.violations) == 0, f"{len(rep.violations)} violations")
    flagged_ok = True
    for recording in rep.flagged_findings[:5]:
        back = replay(recording)
        flagged_ok &= (back.status == "Violated"
                       and back.lhs == recording["lhs"]
                       and back.rhs == recording["rhs"])
    c.add("flagged findings persisted and replay bit-for-bit",
          flagged_ok, f"{len(rep.flagged_findings)} findings")
    c.add("runtime <= 5 minutes", rep.duration <= 300.0,
          f"{rep.duration:.1f}s")
    aux = rep.entries["NORM-EQUIV"].aux_min
    c.add("lower-branch margin gets tight (min < 0.05 of scale)",
          aux["lower_margin_normalized"] < 0.05,
          f"min normalized lower margin {aux['lower_margin_normalized']:.4f}")
    ratio = rep.entries["QA1"].aux_min.get("ratio")
    c.add("QA1 empirical min rhs/lhs >= 1 (recorded)",
          ratio is not None and ratio >= 1.0, f"min ratio {ratio:.4f}")
    c.finish()


def test_criterion_8_oracle_equivalence():
    c = Checks("criterion 8: sampling-oracle equivalence")
    lattice = [(d, r) for d in (2, 3, 4) for r in range(1, d + 1)]
    oracle_gaps = {}
    outer_gap = 0.0
    upper_ok = outer_ok = True
    for trial in range(200):
        d, r = lattice[trial % len(lattice)]
        rng = np.random.default_rng(
            np.random.SeedSequence(12345, spawn_key=(trial,)))
        A = random_psd(d, r, rng)
        space = build_space(A)
        T = random_in_BA(space, rng)
        rad = a_numerical_radius(space, T).value
        orc = sampling_oracle(space, T, samples=100_000, seed=rng)
        upper_ok &= orc <= rad + 1e-9
        oracle_gaps.setdefault(space.rank, []).append(
            (rad - orc) / max(1.0, rad))
        outer = _outer_polygon_bound(A, space.rank, T)
        outer_ok &= rad <= outer
        outer_gap = max(outer_gap, (outer - rad) / max(1.0, rad))
    c.add("oracle <= radius + 1e-9 on all 200 operators", upper_ok)
    # The oracle is only a lower bound: the measure of the unit vectors
    # within gap of the maximum shrinks like gap^(rank-1), so 1e5 draws
    # certify 5e-3 at ranks 1 and 2 but not at ranks 3 and 4.
    by_rank = ", ".join(
        f"r={k}: {max(g):.1e} ({sum(x > 5e-3 for x in g)}/{len(g)} over)"
        for k, g in sorted(oracle_gaps.items()))
    low_rank = max(g for k, gs in oracle_gaps.items() if k <= 2 for g in gs)
    c.add("radius - oracle <= 5e-3 * max(1, radius) at ranks <= 2",
          low_rank <= 5e-3, f"worst normalized gap by rank: {by_rank}")
    c.add("radius <= outer-polygon bound on all 200 operators", outer_ok)
    c.add("outer bound - radius <= 5e-3 * max(1, radius) on all 200 operators",
          outer_gap <= 5e-3, f"worst normalized gap {outer_gap:.2e}")
    c.finish()


def _outer_polygon_bound(A, rank, T, m=1000):
    """Upper bound on w_A(T) from m support lines of the numerical range
    (C. R. Johnson, SIAM J. Numer. Anal. 15, 1978).

    W(M) of the compression M lies in the polygon cut out by the support
    lines Re(e^{-i theta_k} z) <= h_k, theta_k = 2 pi k / m.  Every z in the
    polygon is within pi/m of some theta_k, so |z| cos(pi/m) <= max_k h_k.
    """
    lam, Q = np.linalg.eigh(A)
    lam, Q = lam[-rank:], Q[:, -rank:]
    root = np.sqrt(lam)
    M = root[:, None] * (Q.conj().T @ T @ Q) / root[None, :]
    rot = np.exp(-2j * np.pi * np.arange(m) / m)[:, None, None] * M
    h = np.linalg.eigvalsh((rot + rot.conj().transpose(0, 2, 1)) / 2)[:, -1]
    return float(h.max()) / math.cos(math.pi / m)


def test_criterion_9_property_suites():
    c = Checks("criterion 9: property suites")
    ok_cstar = ok_equiv = ok_power = ok_unit = ok_sharp2 = ok_prodsharp = True
    ok_expand = True
    for trial in range(300):
        rng = np.random.default_rng(
            np.random.SeedSequence(777, spawn_key=(trial,)))
        d = int(rng.integers(2, 6))
        r = int(rng.integers(1, d + 1))
        space = build_space(random_psd(d, r, rng))
        T = random_in_BA(space, rng)
        S = random_in_BA(space, rng)
        sharp = space.sharp_adjoint(T)
        n = operator_a_norm(space, T)
        w = a_numerical_radius(space, T).value
        vals = [operator_a_norm(space, sharp @ T),
                operator_a_norm(space, T @ sharp), n**2,
                operator_a_norm(space, sharp) ** 2]
        ok_cstar &= max(vals) - min(vals) <= 1e-8 * max(1.0, max(vals))
        ok_equiv &= n / 2 - 1e-9 <= w <= n + 1e-9 * max(1.0, n)
        for k in (2, 3, 4):
            wk = a_numerical_radius(space, np.linalg.matrix_power(T, k)).value
            ok_power &= wk <= w**k + 1e-9 + 1e-7 * max(1.0, w**k)
        U = random_a_unitary(space, rng)
        wU = a_numerical_radius(space, space.sharp_adjoint(U) @ T @ U).value
        ok_unit &= abs(wU - w) <= 1e-8 * max(1.0, w)
        scale = max(1.0, np.linalg.norm(T), np.linalg.norm(S)) ** 2
        P = space.projector
        ok_sharp2 &= np.linalg.norm(
            space.sharp_adjoint(sharp) - P @ T @ P) <= 1e-8 * scale
        ok_prodsharp &= np.linalg.norm(
            space.sharp_adjoint(T @ S)
            - space.sharp_adjoint(S) @ sharp) <= 1e-8 * scale
        nfam = int(rng.integers(2, 5))
        ops = [random_in_BA(space, rng) for _ in range(nfam)]
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vecs = [X @ x for X in ops]
        total = space.a_norm(sum(vecs)) ** 2
        diag = sum(space.a_norm(v) ** 2 for v in vecs)
        cross = sum(space.a_inner(vecs[k], vecs[j]).real
                    for k in range(nfam) for j in range(nfam) if j != k)
        ok_expand &= abs(total - (diag + cross)) <= 1e-9 * max(1.0, total)
    c.add("C*-identity chain within 1e-8 (300 instances)", ok_cstar)
    c.add("||T||/2 <= w <= ||T|| (300 instances)", ok_equiv)
    c.add("power inequality n in {2,3,4} (300 instances)", ok_power)
    c.add("metric-unitary invariance within 1e-8 (300 instances)", ok_unit)
    c.add("(T#)# = PTP (300 instances)", ok_sharp2)
    c.add("(TS)# = S# T# (300 instances)", ok_prodsharp)
    c.add("expansion identity within 1e-9 (300 instances)", ok_expand)

    ok_vec = True
    for trial in range(10_000):
        rng = np.random.default_rng(
            np.random.SeedSequence(4242, spawn_key=(trial,)))
        d = int(rng.integers(2, 5))
        space = build_space(random_psd(d, int(rng.integers(1, d + 1)), rng))
        vx, vy, vz = (rng.standard_normal(d) + 1j * rng.standard_normal(d)
                      for _ in range(3))
        alpha = float(rng.uniform(0, 1))
        rr = float(rng.uniform(1, 3))
        ok_vec &= space.a_inner(vx, vy).real <= \
            space.a_norm(vx + vy) ** 2 / 4 + 1e-9
        nz = space.a_norm(vz)
        if nz > 1e-8:
            z = vz / nz
            lhs = abs(space.a_inner(vx, z) * space.a_inner(z, vy))
            cs = space.a_norm(vx) * space.a_norm(vy)
            inner = abs(space.a_inner(vx, vy))
            ok_vec &= lhs <= (cs + inner) / 2 + 1e-9
            ok_vec &= lhs <= (1 + alpha) / 2 * cs + (1 - alpha) / 2 * inner + 1e-9
            ok_vec &= lhs**rr <= (1 + alpha) / 2 * cs**rr \
                + (1 - alpha) / 2 * inner**rr + 1e-9 * max(1.0, cs**rr)
    c.add("vector inequalities on 1e4 random tuples", ok_vec)

    ok_ag = True
    rng = np.random.default_rng(31337)
    for _ in range(10_000):
        a, b = rng.exponential(2.0, 2)
        alpha = float(rng.uniform(0, 1))
        rr = float(rng.uniform(1, 4))
        p = float(rng.uniform(1.01, 5))
        q = p / (p - 1)
        tol = 1e-9 * max(1.0, a + b) ** 4
        ok_ag &= a**alpha * b ** (1 - alpha) <= alpha * a + (1 - alpha) * b + tol
        ok_ag &= alpha * a + (1 - alpha) * b <= \
            (alpha * a**rr + (1 - alpha) * b**rr) ** (1 / rr) + tol
        ok_ag &= a * b <= a**p / p + b**q / q + tol
        ok_ag &= a**p / p + b**q / q <= \
            (a ** (p * rr) / p + b ** (q * rr) / q) ** (1 / rr) + tol
    c.add("scalar Young/power-mean chain on 1e4 tuples", ok_ag)
    c.finish()


# run_demo((10, 20, 40)) timed in a child interpreter, which prints the rows
# and the time as JSON
_DEMO = """\
import json, time
from opradius.elliptic import run_demo
t0 = time.perf_counter()
rows = run_demo((10, 20, 40))
print(json.dumps({"rows": rows, "dt": time.perf_counter() - t0}))
"""


def test_criterion_10_elliptic_demo():
    # timed with one BLAS thread, as the benchmark runs it: two threads
    # wait for each other behind any other busy process, which made this
    # call take 25.7 s against 3.1 s on a 2-vCPU host
    c = Checks("criterion 10: energy-space demo")
    env = dict(os.environ)
    src = str(Path(opradius.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run([sys.executable, "-c", _DEMO], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    rows, dt = out["rows"], out["dt"]
    for row in rows:
        c.add(f"N={row['N']}: lhs < rhs",
              row["satisfied"] and row["lhs"] < row["rhs"],
              f"lhs {row['lhs']:.6f}, rhs {row['rhs']:.6f}")
    c.add("table carries both sides",
          all(("lhs" in r and "rhs" in r) for r in rows))
    c.add("runtime <= 30 s", dt <= 30.0, f"{dt:.1f}s")
    c.finish()
