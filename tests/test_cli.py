import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opradius
from opradius.cli import main
from opradius.numkernel import load_matrix, matrix_to_json

A_PD = [[1, -1], [-1, 2]]
DATA = Path(__file__).resolve().parents[1] / "data"
# space tolerances outside [0, 1): each must exit 2, not truncate the metric
BAD_TOLS = [float("nan"), float("inf"), float("-inf"), -1.0, 1.0, 1.5]


def write_matrix(path, M, extra=None):
    doc = matrix_to_json(np.array(M, dtype=float))
    doc.update(extra or {})
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "space": write_matrix(tmp_path / "space.json", A_PD),
        "rank1": write_matrix(tmp_path / "rank1.json", [[1, 1], [1, 1]]),
        "diag10": write_matrix(tmp_path / "diag10.json", [[1, 0], [0, 0]]),
        "T": write_matrix(tmp_path / "T.json", [[1, 0], [1, 0]]),
        "S": write_matrix(tmp_path / "S.json", [[1, 1], [0, 0]]),
        "sx": write_matrix(tmp_path / "sx.json", [[0, 1], [1, 0]]),
        "intro_T": write_matrix(tmp_path / "introT.json", [[2, 2], [0, 0]]),
        "tmp": tmp_path,
    }


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_compute_norm(files, capsys):
    code, out = run(capsys, ["compute", "--space", files["space"],
                             "--op", files["T"], "--quantity", "norm"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(np.sqrt(2), abs=1e-9)


def test_compute_adjoint_intro(files, capsys):
    code, out = run(capsys, ["compute", "--space", files["rank1"],
                             "--op", files["intro_T"], "--quantity", "adjoint"])
    assert code == 0
    doc = json.loads(out)
    vals = np.array(doc["data"]).reshape(2, 2, 2)
    assert np.allclose(vals[..., 0], [[1, 1], [1, 1]], atol=1e-12)


def test_compute_radius_includes_witness(files, capsys):
    code, out = run(capsys, ["compute", "--space", files["space"],
                             "--op", files["S"], "--quantity", "radius"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-9)
    assert len(doc["witness"]) == 2 and "argmax_angle" in doc
    assert doc["lo"] <= doc["value"] <= doc["hi"]
    assert doc["hi"] - doc["lo"] <= 1e-9


def test_compute_compress_data_files(capsys):
    space, op = DATA / "space_pd.json", DATA / "op_T.json"
    code, out = run(capsys, ["compute", "--space", str(space), "--op", str(op),
                             "--quantity", "compress"])
    assert code == 0
    doc = json.loads(out)
    assert doc["quantity"] == "compress"
    got = np.array([complex(re, im) for re, im in doc["data"]])
    got = got.reshape(doc["rows"], doc["cols"])
    # Lam^{1/2} Q* T Q Lam^{-1/2} with each column of Q turned so that its
    # first nonzero entry is real positive, the convention of the space
    lam, Q = np.linalg.eigh(load_matrix(space))
    first = Q[np.argmax(np.abs(Q) > 1e-12, axis=0), np.arange(Q.shape[1])]
    Q = Q * (first.conj() / abs(first))
    half = np.sqrt(lam)
    expect = half[:, None] * (Q.conj().T @ load_matrix(op) @ Q) / half[None, :]
    assert got.shape == (2, 2)
    assert np.allclose(got, expect, atol=1e-12)


def test_compute_membership_failure_exit3(files, capsys):
    code = main(["compute", "--space", files["diag10"],
                 "--op", files["sx"], "--quantity", "radius"])
    err = capsys.readouterr().err
    assert code == 3
    assert "nullspace-invariance" in err


def test_compute_classify(files, capsys):
    code, out = run(capsys, ["compute", "--space", files["diag10"],
                             "--op", files["sx"], "--quantity", "classify"])
    assert code == 0
    assert json.loads(out)["in_BA"] is False


def test_compute_bad_file_exit2(files, capsys):
    bad = files["tmp"] / "bad.json"
    bad.write_text("{not json")
    code = main(["compute", "--space", str(bad),
                 "--op", files["T"], "--quantity", "norm"])
    err = capsys.readouterr().err
    assert code == 2
    assert "byte offset" in err
    # valid JSON with the wrong shape or types: not an object, a null tol,
    # data entries that are not [re, im] number pairs, a tol outside [0, 1)
    tmp = files["tmp"]
    array = tmp / "array.json"
    array.write_text("[[1, 0], [0, 1]]")
    null_tol = write_matrix(tmp / "null_tol.json", A_PD, extra={"tol": None})
    flat = tmp / "flat.json"
    flat.write_text(json.dumps({"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}))
    words = tmp / "words.json"
    words.write_text(json.dumps({"rows": 1, "cols": 1, "data": [["a", "b"]]}))
    bad_tols = [write_matrix(tmp / f"tol{k}.json", A_PD, extra={"tol": tol})
                for k, tol in enumerate(BAD_TOLS)]
    for space, op in [(str(array), files["T"]), (null_tol, files["T"]),
                      (str(flat), files["T"]), (files["space"], str(flat)),
                      (files["space"], str(words)),
                      *((path, files["T"]) for path in bad_tols)]:
        code = main(["compute", "--space", space, "--op", op,
                     "--quantity", "norm"])
        err = capsys.readouterr().err
        assert code == 2, (space, op)
        assert err.startswith("error:")


@pytest.mark.parametrize("quantity", ["norm", "radius", "crawford"])
@pytest.mark.parametrize("metric", ["I2", "space_pd"])
def test_compute_overflow_exit2(tmp_path, capsys, metric, quantity):
    # finite entries whose sums overflow used to print Infinity or NaN
    # (not JSON), or a Crawford number of 0, with exit 0
    op = write_matrix(tmp_path / "big.json", np.full((2, 2), 1e308))
    space = (write_matrix(tmp_path / "eye.json", np.eye(2)) if metric == "I2"
             else str(DATA / "space_pd.json"))
    code = main(["compute", "--space", space, "--op", op,
                 "--quantity", quantity])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_check_satisfied_exit0(files, capsys):
    code, out = run(capsys, ["check", "--id", "QA1", "--space", files["space"],
                             "--operands", files["T"], files["S"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Satisfied"
    assert doc["lhs"] == pytest.approx(3.5, abs=1e-9)


def test_check_violated_exit1(tmp_path, capsys):
    space = write_matrix(tmp_path / "one.json", [[1]])
    half = write_matrix(tmp_path / "half.json", [[0.5]])
    code, out = run(capsys, ["check", "--id", "RA1.stated", "--space", space,
                             "--operands", half, half, half])
    assert code == 1
    assert json.loads(out)["status"] == "Violated"
    # a tolerance that is not finite makes every comparison pass
    for flag in ("--tol-abs", "--tol-rel"):
        for tol in ("nan", "inf"):
            code = main(["check", "--id", "RA1.stated", "--space", space,
                         "--operands", half, half, half, flag, tol])
            assert code == 2, (flag, tol)
    # and a parameter that is not finite gives no report (it printed NaN)
    capsys.readouterr()
    for value in ("nan", "inf", "-inf"):
        code = main(["check", "--id", "MD3", "--space", space,
                     "--operands", half, "--params", f"alpha={value}"])
        captured = capsys.readouterr()
        assert code == 2, value
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_check_inapplicable_exit2(tmp_path, capsys):
    space = write_matrix(tmp_path / "eye.json", [[1, 0], [0, 1]])
    up = write_matrix(tmp_path / "up.json", [[0, 1], [0, 0]])
    dn = write_matrix(tmp_path / "dn.json", [[0, 0], [1, 0]])
    code, out = run(capsys, ["check", "--id", "PROD2", "--space", space,
                             "--operands", up, dn])
    assert code == 2
    assert json.loads(out)["status"] == "Inapplicable"
    # parameters outside the range the inequality is proven for
    pd = write_matrix(tmp_path / "pd.json", A_PD)
    T = write_matrix(tmp_path / "T.json", [[1, 0], [1, 0]])
    e = write_matrix(tmp_path / "e.json", [[1], [0]])
    cases = [("MRQ1.proof", [space, T, space], "p=1"),
             ("MRQ1.proof", [space, T, space], "p=0.5"),
             ("MRQ1.stated", [space, T, space], "alpha=2"),
             ("FINAL1", [space, T, space], "alpha=-0.5"),
             ("MD3", [T], "alpha=-1"),
             ("MD3", [T], "alpha=1.5"),
             ("MD2", [e, e, e], "alpha=-1"),
             ("MD1", [e, e, e], "alpha=2"),
             ("POWER", [T], "n=-1"),
             ("POWER", [T], "n=0"),
             ("POWER", [T], "n=2.5")]
    for entry, operands, param in cases:
        code, out = run(capsys, ["check", "--id", entry, "--space", pd,
                                 "--operands", *operands, "--params", param])
        assert code == 2, (entry, param)
        assert json.loads(out)["status"] == "Inapplicable", (entry, param)
    # an integer power whose bound overflows: bad input, not a verdict
    code = main(["check", "--id", "POWER", "--space", str(DATA / "space_pd.json"),
                 "--operands", str(DATA / "op_T.json"), "--params", "n=1e6"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "overflow" in captured.err


def test_check_non_finite_sides_exit2(tmp_path, capsys):
    # products of these operands overflow to Inf; no entry may give a verdict
    space = write_matrix(tmp_path / "eye.json", [[1, 0], [0, 1]])
    big = write_matrix(tmp_path / "big.json", [[1e200, 0], [1, 1e200]])
    for entry in ("SUBMULT", "QA1", "RA6"):
        code = main(["check", "--id", entry, "--space", space,
                     "--operands", big, big])
        captured = capsys.readouterr()
        assert code == 2, entry
        assert captured.out == "" and captured.err.startswith("error:"), entry


def test_check_unknown_id_exit2(files, capsys):
    code = main(["check", "--id", "NOPE", "--space", files["space"]])
    assert code == 2


def test_check_params(tmp_path, capsys):
    space = write_matrix(tmp_path / "one.json", [[1]])
    code, out = run(capsys, ["check", "--id", "AG", "--space", space,
                             "--params", "a=2", "b=0.5", "alpha=0.25",
                             "r=2", "p=2"])
    assert code == 0


def test_fuzz_small_run(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run(capsys, ["fuzz", "--dims", "2..3", "--trials", "10",
                             "--seed", "5", "--out", str(out_path)])
    assert code == 0
    summary = json.loads(out)
    assert summary["trials"] == 10
    report = json.loads(out_path.read_text())
    assert report["config"]["dims"] == [2, 3]
    assert (tmp_path / "report.json.violations.jsonl").exists()


def test_fuzz_zero_trials(capsys):
    code, out = run(capsys, ["fuzz", "--trials", "0", "--dims", "2,3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == []


def test_fuzz_flagged_entry_exits_zero(tmp_path, capsys):
    code, out = run(capsys, ["fuzz", "--dims", "2..4", "--trials", "120",
                             "--seed", "42", "--entries", "TD1.stated",
                             "--out", str(tmp_path / "r.json")])
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["entries"]["TD1.stated"]["violations"] >= 1
    found = (tmp_path / "r.json.violations.jsonl").read_text().splitlines()
    assert len(found) == report["entries"]["TD1.stated"]["violations"]


def test_fuzz_verbose_lines(capsys):
    code, out = run(capsys, ["fuzz", "--dims", "2", "--trials", "2",
                             "--entries", "QA1", "--verbose"])
    assert code == 0
    per_eval = []
    for line in out.strip().splitlines():
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and "trial" in doc:
            per_eval.append(doc)
    assert len(per_eval) == 2
    assert all(d["id"] == "QA1" for d in per_eval)


def test_repro_json_all_cases(capsys):
    for case, expect_ok in [("intro-adjoint", True), ("pauli", True),
                            ("ex-final1", True), ("ex33", False),
                            ("ex-qa5", False), ("ex-md3", False)]:
        code, out = run(capsys, ["repro", "--case", case, "--format", "json"])
        doc = json.loads(out)
        assert doc["ok"] is expect_ok
        assert code == (0 if expect_ok else 1)


def test_repro_table_format(capsys):
    code, out = run(capsys, ["repro", "--case", "intro-adjoint"])
    assert code == 0
    assert "PASS" in out


def test_repro_unknown_case_exit2(capsys):
    assert main(["repro", "--case", "nope"]) == 2


def test_elliptic_table(tmp_path, capsys):
    out_path = tmp_path / "ell.json"
    code, out = run(capsys, ["elliptic", "--n", "4,5", "--out", str(out_path)])
    assert code == 0
    assert "satisfied" in out
    rows = json.loads(out_path.read_text())
    assert [r["N"] for r in rows] == [4, 5]
    assert all(r["satisfied"] for r in rows)


def test_elliptic_zero_potential(capsys):
    code, out = run(capsys, ["elliptic", "--n", "4", "--potential", "zero",
                             "--format", "json"])
    assert code == 0
    row = json.loads(out)[0]
    assert row["lhs"] == 0.0 and row["rhs"] == 0.0


def test_elliptic_too_small_exit2(capsys):
    assert main(["elliptic", "--n", "2"]) == 2


@pytest.mark.parametrize("ns", ["", ","])
def test_elliptic_without_resolutions_exit2(ns, capsys):
    # no rows would leave every row "satisfied"
    assert main(["elliptic", "--n", ns]) == 2
    assert capsys.readouterr().out == ""


def test_catalog_listing(capsys):
    code, out = run(capsys, ["catalog"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc) >= 28


def test_space_file_tol_override(tmp_path, capsys):
    # metric with a tiny eigenvalue: default tol keeps it, a coarse tol
    # in the space file truncates it to rank 1
    M = [[1, 0], [0, 1e-6]]
    space = write_matrix(tmp_path / "s.json", M, extra={"tol": 1e-3})
    op = write_matrix(tmp_path / "op.json", [[0, 0], [0, 1]])
    code, out = run(capsys, ["compute", "--space", space, "--op", op,
                             "--quantity", "norm"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-9)


def test_env_tol_override(tmp_path, capsys, monkeypatch):
    space = write_matrix(tmp_path / "s.json", [[1, 0], [0, 1e-6]])
    op = write_matrix(tmp_path / "op.json", [[0, 0], [0, 1]])
    argv = ["compute", "--space", space, "--op", op, "--quantity", "norm"]
    # a coarse tol truncates the metric to rank 1, tol 0 keeps both
    for tol, norm in [("1e-3", 0.0), ("0", 1.0)]:
        monkeypatch.setenv("OPRADIUS_TOL", tol)
        code, out = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(norm, abs=1e-9)
    for tol in BAD_TOLS:
        monkeypatch.setenv("OPRADIUS_TOL", str(tol))
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, tol
        assert "tolerance" in err


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = str(Path(opradius.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "opradius", "catalog"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert len(json.loads(done.stdout)) == 39
    # the exit code is main's: 2 for an unknown case
    done = subprocess.run([sys.executable, "-m", "opradius", "repro", "--case",
                           "nope"], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 2
