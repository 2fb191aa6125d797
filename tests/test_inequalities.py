import json

import numpy as np
import pytest

from opradius import build_space, evaluate, get_entry, list_catalog, matrix_to_json
from opradius.inequalities import EvalContext, fingerprint_payload, is_violation

A_PD = np.array([[1, -1], [-1, 2]], float)
PHI = (1 + np.sqrt(5)) / 2


def test_catalog_contents():
    ids = [e.id for e in list_catalog()]
    assert "QA1" in ids
    assert "RA1.stated" in ids and "RA1.proof" in ids
    assert "TD1.stated" in ids and "TD1.proof" in ids
    assert "MRQ1.stated" in ids and "MRQ1.proof" in ids
    assert len(ids) >= 28
    assert len(set(ids)) == len(ids)
    flagged = {e.id for e in list_catalog() if e.flagged}
    assert flagged == {"RA1.stated", "TD1.stated", "MRQ1.stated"}


def test_unknown_entry():
    with pytest.raises(KeyError, match="unknown inequality id"):
        get_entry("NOPE")


def test_signature_mismatch_is_inapplicable():
    sp = build_space(A_PD)
    T = np.array([[1, 0], [1, 0]], float)
    rep = evaluate("QA1", sp, [T])          # pair entry, one operand
    assert rep.status == "Inapplicable"
    assert "expects 2 operand" in rep.reason
    rep = evaluate("MRQ1.proof", sp, [T, T, T, T],
                   {"alpha": 0.5, "r": 1.0, "p": 2.0})
    assert rep.status == "Inapplicable"


def test_qa1_reference_pair():
    sp = build_space(A_PD)
    T = np.array([[1, 0], [1, 0]], float)
    S = np.array([[1, 1], [0, 0]], float)
    rep = evaluate("QA1", sp, [T, S])
    assert rep.status == "Satisfied"
    assert rep.lhs == pytest.approx(3.5, abs=1e-9)
    assert rep.rhs == pytest.approx(2 * np.sqrt(2) * np.sqrt(2) * PHI, abs=1e-9)
    assert rep.margin == pytest.approx(rep.rhs - rep.lhs)


def test_md3_reference_margin():
    # the true margin at r=1, alpha=1/2 is exactly 1/2
    sp = build_space(A_PD)
    T = np.array([[1, 1], [0, 0]], float)
    rep = evaluate("MD3", sp, [T], {"alpha": 0.5, "r": 1.0})
    assert rep.status == "Satisfied"
    assert rep.lhs == pytest.approx(PHI**2, abs=1e-9)
    assert rep.margin == pytest.approx(0.5, abs=1e-9)


def test_qa5_reference_saturation():
    # at the witness (1,1) the refined bound is tight: both sides 2.5
    sp = build_space(A_PD)
    T = 0.5 * np.array([[1, 0], [1, 1]], float)
    rep = evaluate("QA5", sp, [T, np.array([1.0, 1.0])])
    assert rep.status == "Satisfied"
    assert rep.lhs == pytest.approx(2.5, abs=1e-9)
    assert rep.rhs == pytest.approx(2.5, abs=1e-9)


def test_qa5_reference_vector():
    sp = build_space(A_PD)
    T = 0.5 * np.array([[1, 0], [1, 1]], float)
    x = 0.5 * np.array([2 - np.sqrt(3), 1 - np.sqrt(3)])
    rep = evaluate("QA5", sp, [T, x])
    assert rep.status == "Satisfied"
    assert rep.lhs == pytest.approx((45 - 8 * np.sqrt(3)) / 26, abs=1e-9)
    assert rep.rhs == pytest.approx(2.5, abs=1e-9)


def test_norm_equiv_identity_upper_branch():
    sp = build_space(A_PD)
    rep = evaluate("NORM-EQUIV", sp, [np.eye(2)])
    assert rep.status == "Satisfied"
    assert rep.lhs == pytest.approx(1.0, abs=1e-10)
    assert rep.rhs == pytest.approx(1.0, abs=1e-10)


def test_prod2_requires_commuting():
    sp = build_space(np.eye(2))
    T = np.array([[0, 1], [0, 0]], float)
    S = np.array([[0, 0], [1, 0]], float)
    rep = evaluate("PROD2", sp, [T, S])
    assert rep.status == "Inapplicable"
    assert "commute" in rep.reason


def test_prod1_requires_normal():
    sp = build_space(np.eye(2))
    T = np.array([[0, 1], [0, 0]], float)
    rep = evaluate("PROD1", sp, [T, np.eye(2)])
    assert rep.status == "Inapplicable"


def test_mrq1_requires_positive_operands():
    sp = build_space(np.eye(2))
    T = np.array([[0, 1], [0, 0]], float)
    rep = evaluate("MRQ1.proof", sp, [T, np.eye(2), np.eye(2)],
                   {"alpha": 0.5, "r": 1.0, "p": 2.0})
    assert rep.status == "Inapplicable"
    assert "metric-positive" in rep.reason


def test_mrq1_stated_counterexample():
    # scalar metric: T = S = 1/2 violates the as-printed exponents
    # (2pr instead of pr), which is why the entry is flagged
    sp = build_space(np.eye(1))
    half = np.array([[0.5]])
    one = np.array([[1.0]])
    stated = evaluate("MRQ1.stated", sp, [half, one, half],
                      {"alpha": 1.0, "r": 1.0, "p": 2.0})
    proof = evaluate("MRQ1.proof", sp, [half, one, half],
                     {"alpha": 1.0, "r": 1.0, "p": 2.0})
    assert stated.status == "Violated"
    assert proof.status == "Satisfied"
    assert proof.margin == pytest.approx(0.0, abs=1e-12)  # Young saturates


def test_ra1_stated_counterexample():
    # equal small scalars: the squared first term shrinks below the sum
    sp = build_space(np.eye(1))
    ops = [np.array([[0.2]]) for _ in range(3)]
    stated = evaluate("RA1.stated", sp, ops)
    proof = evaluate("RA1.proof", sp, ops)
    assert stated.status == "Violated"
    assert proof.status == "Satisfied"
    assert proof.margin == pytest.approx(0.0, abs=1e-12)  # saturates


def test_ag_chain():
    sp = build_space(np.eye(1))
    rep = evaluate("AG", sp, [], {"a": 2.0, "b": 0.5, "alpha": 0.3,
                                  "r": 2.0, "p": 3.0})
    assert rep.status == "Satisfied"
    bad = evaluate("AG", sp, [], {"a": -1.0, "b": 0.5, "alpha": 0.3,
                                  "r": 2.0, "p": 3.0})
    assert bad.status == "Inapplicable"


def test_violation_policy_band():
    assert not is_violation(1.0, 1.0)
    assert not is_violation(1.0 + 5e-10, 1.0)
    assert is_violation(1.0 + 1e-5, 1.0)
    assert not is_violation(1e9 + 50, 1e9)   # inside relative band
    assert is_violation(1e9 + 1000, 1e9)


def test_report_serialization_and_fingerprint():
    sp = build_space(A_PD)
    T = np.array([[1, 0], [1, 0]], float)
    S = np.array([[1, 1], [0, 0]], float)
    rep = evaluate("QA1", sp, [T, S])
    doc = rep.to_json()
    text = json.dumps(doc)
    back = json.loads(text)
    for key in ("id", "lhs", "rhs", "margin", "status",
                "tol_abs", "tol_rel", "fingerprint"):
        assert key in back
    assert len(rep.fingerprint) == 64
    # identical operands give identical fingerprints
    rep2 = evaluate("QA1", sp, [T.copy(), S.copy()])
    assert rep2.fingerprint == rep.fingerprint
    # every outcome hashes the operands it was evaluated on; only a
    # violation carries them serialized
    up = np.array([[0, 1], [0, 0]], float)
    cases = [
        ("Satisfied", "QA1", sp, [T, S], {}),
        ("Violated", "RA1.stated", build_space(np.eye(1)),
         [np.array([[0.2]]) for _ in range(3)], {}),
        ("Inapplicable", "PROD2", build_space(np.eye(2)), [up, up.T], {}),
        ("Inapplicable", "AG", build_space(np.eye(1)), [],
         {"a": -1.0, "b": 0.5, "alpha": 0.3, "r": 2.0, "p": 3.0}),
    ]
    for status, eid, space, ops, params in cases:
        rep = evaluate(eid, space, ops, params)
        assert rep.status == status
        assert rep.fingerprint == fingerprint_payload(eid, space, ops, params)
        assert rep.to_json()["fingerprint"] == rep.fingerprint
        assert (rep.operands is None) == (status != "Violated")


def test_violated_report_carries_operands():
    sp = build_space(np.eye(1))
    ops = [np.array([[0.2]]) for _ in range(3)]
    rep = evaluate("RA1.stated", sp, ops)
    assert rep.status == "Violated"
    assert rep.operands == [matrix_to_json(op) for op in ops]
    assert rep.to_json()["operands"] == rep.operands
    # a vector operand is serialized as an n x 1 matrix; RA2 is tight at
    # a = b, and a negative tolerance turns that into a violation
    e1 = np.array([1.0, 0.0])
    rep = evaluate("RA2", build_space(np.eye(2)), [e1, e1], tol_abs=-0.5)
    assert rep.status == "Violated"
    assert rep.operands[0] == matrix_to_json([[1.0], [0.0]])


def test_shared_context_does_not_reuse_a_freed_operands_compression():
    # the compression cache is keyed by the operand object; a new array
    # can get the id of a freed one and must not be served its compression
    sp = build_space(np.diag([1.0, 2.0, 3.0]))
    ctx = EvalContext(sp)
    rng = np.random.default_rng(0)
    for _ in range(200):
        ops = [rng.standard_normal((3, 3)) for _ in range(2)]
        shared = evaluate("SUBMULT", sp, ops, ctx=ctx)
        fresh = evaluate("SUBMULT", sp, ops)
        assert (shared.lhs, shared.rhs) == (fresh.lhs, fresh.rhs)


def test_requests_fall_back_to_single_solves_when_one_fails():
    # a batch with a matrix whose radius or seminorm raises is redone one
    # matrix at a time: each list of requests gets its values, or the first
    # exception that one of its requests raises alone
    from opradius import numerical_radius, spectral_norm
    ctx = EvalContext(build_space(np.eye(2)))
    good, bad = np.array([[1.0, 2.0], [0.0, 1j]]), np.array([[np.inf, 0.0], [0.0, 1.0]])
    nan = np.array([[np.nan, 0.0], [0.0, 1j]])
    ok, failed, norms, unbounded = ctx.answer([
        [("rad", good)], [("rad", good), ("rad", bad), ("nrm", good)],
        [("nrm", good), ("nrm", good.T)], [("nrm", good), ("nrm", nan)]])
    assert ok == [numerical_radius(good)]
    assert isinstance(failed, ValueError) and isinstance(unbounded, ValueError)
    assert norms == [spectral_norm(good), spectral_norm(good.T)]
    assert ctx.rad(good) == numerical_radius(good)
    with pytest.raises(ValueError):
        ctx.rad(bad)


def test_real_and_complex_requests_asked_together_keep_their_bits():
    # the parts of the repro's QA5 operator scaled by 1/w: the real one
    # solved in complex arithmetic would lose its last bit (QA5's rhs would
    # read 2.5, not 2.5000000000000004), so each dtype is stacked apart
    from opradius import numerical_radius, spectral_norm
    sp = build_space(A_PD)
    B = sp.compression(0.5 * np.array([[1, 0], [1, 1]], dtype=float))
    Bh = B / numerical_radius(B)
    H, K = (Bh + Bh.conj().T) / 2, (Bh - Bh.conj().T) / 2j
    assert H.dtype == float and K.dtype == complex
    assert spectral_norm(H.astype(complex)) != spectral_norm(H)
    [got] = EvalContext(sp).answer([[("nrm", H), ("rad", H), ("nrm", K),
                                     ("rad", K)]])
    assert got == [spectral_norm(H), numerical_radius(H), spectral_norm(K),
                   numerical_radius(K)]
    assert evaluate("QA5", sp, [0.5 * np.array([[1, 0], [1, 1]]),
                                0.5 * np.array([2 - np.sqrt(3), 1 - np.sqrt(3)])]
                    ).rhs == 2.5000000000000004


def test_every_entry_statement_and_kind():
    from opradius.inequalities import OPERAND_KINDS

    for entry in list_catalog():
        assert entry.statement
        assert entry.operand_kind in OPERAND_KINDS
        assert entry.variant in ("as-stated", "proof-consistent")
