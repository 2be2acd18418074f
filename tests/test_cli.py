import json
import sys

import numpy as np
import pytest

from sdckit.cli import main, run
from sdckit.matcore import f_mat


def write_matrices(path, mats):
    path.write_text(json.dumps({"matrices": [np.asarray(m).tolist() for m in mats]}))


def test_gen_and_check_sdc(tmp_path, capsys):
    out = tmp_path / "a.json"
    assert run(["gen", "--n", "6", "--k", "0", "--m", "40", "--seed", "1",
                "-o", str(out)]) == 0
    assert run(["check-sdc", "-i", str(out)]) == 0
    out2 = tmp_path / "b.json"
    assert run(["gen", "--n", "6", "--k", "1", "--m", "40", "--seed", "1",
                "-o", str(out2)]) == 0
    assert run(["check-sdc", "-i", str(out2)]) == 10


def test_gen_idempotent(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["gen", "--n", "5", "--k", "1", "--m", "30", "--seed", "3", "-o", str(a)])
    run(["gen", "--n", "5", "--k", "1", "--m", "30", "--seed", "3", "-o", str(b)])
    assert a.read_text() == b.read_text()


def test_rsdc_pipeline(tmp_path):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run(["gen", "--n", "8", "--k", "2", "--m", "50", "--seed", "7", "-o", str(inst)])
    assert run(["rsdc1", "-i", str(inst), "-o", str(cert)]) == 0
    data = json.loads(cert.read_text())
    assert data["order_added"] == 1
    assert run(["rsdc2", "-i", str(inst), "-o", str(cert), "--strategy",
                "spread"]) == 0
    assert json.loads(cert.read_text())["order_added"] == 2


def test_canon_dump(tmp_path, capsys):
    path = tmp_path / "pair.json"
    write_matrices(path, [f_mat(2), np.diag([1.0, -1.0])])
    assert run(["canon", "-i", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["r"] == 0 and out["k"] == 1


def test_check_asdc_dispatch(tmp_path, capsys):
    pair = tmp_path / "pair.json"
    write_matrices(pair, [f_mat(2), np.array([[0.0, 1.0], [1.0, 1.0]])])
    assert run(["check-asdc", "-i", str(pair)]) == 0
    assert "ASDC_not_SDC" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    write_matrices(bad, [f_mat(2), np.diag([1.0, -1.0])])
    assert run(["check-asdc", "-i", str(bad)]) == 10


def test_check_asdc_nonsingular_triples(tmp_path, capsys):
    path = tmp_path / "triple.json"
    write_matrices(path, [np.eye(3), np.diag([1.0, 2.0, 3.0]), np.diag([3.0, 1.0, 2.0])])
    assert run(["check-asdc", "-i", str(path)]) == 0
    assert capsys.readouterr().out.startswith("SDC")
    write_matrices(path, [np.eye(2), f_mat(2), np.diag([1.0, -1.0])])
    assert run(["check-asdc", "-i", str(path)]) == 10
    assert "NotASDC  reason=noncommuting" in capsys.readouterr().out


def test_check_asdc_singular_triple(tmp_path, capsys):
    path = tmp_path / "triple.json"
    # the triple verdict needs an invertible element in the span
    write_matrices(path, [np.diag([1.0, 2.0, 0.0]), np.diag([0.0, 1.0, 0.0]),
                          np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])])
    assert run(["check-asdc", "-i", str(path)]) == 2
    assert "NoInvertibleElement" in capsys.readouterr().err
    # singular at RANK_TOL for the verdict's seed-0 search (an element
    # diag(c1, 1e-12 c2) is invertible only when |c2/c1| > 100), which
    # --seed does not change
    write_matrices(path, [np.diag([1.0, 0.0]), np.diag([0.0, 1e-12]), np.zeros((2, 2))])
    assert run(["check-asdc", "-i", str(path), "--seed", "1"]) == 2
    assert "NoInvertibleElement" in capsys.readouterr().err


def test_reformulate_and_verify(tmp_path):
    inst = tmp_path / "inst.json"
    ref = tmp_path / "ref.json"
    run(["gen", "--n", "6", "--k", "1", "--m", "40", "--seed", "2", "-o", str(inst)])
    assert run(["reformulate", "-i", str(inst), "--method", "rsdc2",
                "-o", str(ref)]) == 0
    assert run(["verify", "-i", str(inst), "-r", str(ref), "--samples",
                "30"]) == 0


def test_verify_checks_the_file(tmp_path):
    inst = tmp_path / "inst.json"
    ref = tmp_path / "ref.json"
    run(["gen", "--n", "6", "--k", "1", "--m", "40", "--seed", "2", "-o", str(inst)])
    assert run(["reformulate", "-i", str(inst), "--method", "rsdc2",
                "-o", str(ref)]) == 0
    data = json.loads(ref.read_text())
    data["P"] = (1.5 * np.asarray(data["P"])).tolist()
    data["quad_obj"] = [0.0] * len(data["quad_obj"])
    ref.write_text(json.dumps(data))
    assert run(["verify", "-i", str(inst), "-r", str(ref), "--samples",
                "30"]) == 10


def test_verify_refuses_a_nan_reformulation(tmp_path, capsys):
    # a NaN objective once verified at roundoff and exited 0
    inst = tmp_path / "inst.json"
    ref = tmp_path / "ref.json"
    run(["gen", "--n", "6", "--k", "1", "--m", "40", "--seed", "2", "-o", str(inst)])
    assert run(["reformulate", "-i", str(inst), "--method", "rsdc1", "-o", str(ref)]) == 0
    data = json.loads(ref.read_text())
    data["quad_obj"] = [float("nan")] * len(data["quad_obj"])
    ref.write_text(json.dumps(data))
    assert run(["verify", "-i", str(inst), "-r", str(ref), "--samples", "30"]) == 2
    assert "NonFiniteEntry" in capsys.readouterr().err


def test_verify_refuses_another_order_and_no_samples(tmp_path, capsys):
    # a reformulation of an order-6 instance checked against an order-7
    # one, and a check on no points, once printed a deviation
    inst6, inst7, ref = (tmp_path / name for name in ("inst6.json", "inst7.json", "ref.json"))
    run(["gen", "--n", "6", "--k", "1", "--m", "30", "--seed", "0", "-o", str(inst6)])
    run(["gen", "--n", "7", "--k", "1", "--m", "30", "--seed", "0", "-o", str(inst7)])
    assert run(["reformulate", "-i", str(inst6), "--method", "rsdc1", "-o", str(ref)]) == 0
    assert run(["verify", "-i", str(inst7), "-r", str(ref), "--samples", "30"]) == 2
    assert "OrderMismatch" in capsys.readouterr().err
    assert run(["verify", "-i", str(inst6), "-r", str(ref), "--samples", "0"]) == 1
    assert "ValueError: need samples >= 1" in capsys.readouterr().err
    # a file whose quad_obj is one entry short once exited 1 on a bare
    # ValueError
    data = json.loads(ref.read_text())
    data["quad_obj"].pop()
    ref.write_text(json.dumps(data))
    assert run(["verify", "-i", str(inst6), "-r", str(ref), "--samples", "30"]) == 2
    assert "OrderMismatch: quad_obj has shape (6,), expected (7,)" in capsys.readouterr().err
    # a poly of one entry and no equalities once verified and exited 0
    assert run(["reformulate", "-i", str(inst6), "--method", "rsdc1", "-o", str(ref)]) == 0
    data = json.loads(ref.read_text())
    data.update(poly=[[1.0]], equalities=[])
    ref.write_text(json.dumps(data))
    assert run(["verify", "-i", str(inst6), "-r", str(ref), "--samples", "30"]) == 2
    assert "OrderMismatch: poly has shape (1, 1), expected (m, 7)" in capsys.readouterr().err


@pytest.mark.parametrize("key, index, value", [
    ("b1", (0,), float("nan")), ("L", (3, 2), float("inf")), ("b2", None, None),
    ("A1", None, None)])
def test_verify_refuses_a_bad_instance(tmp_path, capsys, key, index, value):
    # b1, b2, L and the order of A1 once passed unchecked, and a NaN in
    # b1 exited 10; index None drops the last entry along every axis
    inst = tmp_path / "inst.json"
    ref = tmp_path / "ref.json"
    run(["gen", "--n", "6", "--k", "1", "--m", "40", "--seed", "2", "-o", str(inst)])
    assert run(["reformulate", "-i", str(inst), "--method", "rsdc1", "-o", str(ref)]) == 0
    data = json.loads(inst.read_text())
    if index is None:
        a = np.asarray(data[key])
        data[key] = a[(slice(-1),) * a.ndim].tolist()
    else:
        row = data[key][index[0]] if len(index) == 2 else data[key]
        row[index[-1]] = value
    inst.write_text(json.dumps(data))
    assert run(["verify", "-i", str(inst), "-r", str(ref), "--samples", "30"]) == 2
    err = capsys.readouterr().err
    assert ("OrderMismatch" if index is None else "NonFiniteEntry") in err


def test_precondition_exit_code(tmp_path):
    pair = tmp_path / "sing.json"
    write_matrices(pair, [np.diag([1.0, 0.0]), np.eye(2)])
    assert run(["canon", "-i", str(pair)]) == 2


@pytest.mark.parametrize("command", ["canon", "rsdc1", "rsdc2"])
def test_pair_commands_refuse_other_families(tmp_path, capsys, command):
    # rsdc1 and rsdc2 used to die on fam[1] with an IndexError traceback
    out = tmp_path / "out.json"
    output = [] if command == "canon" else ["-o", str(out)]
    for size in (1, 3):
        path = tmp_path / f"fam{size}.json"
        write_matrices(path, [np.diag([1.0, 2.0])] * size)
        assert run([command, "-i", str(path), *output]) == 1
        assert f"ValueError: {command} expects a pair" in capsys.readouterr().err
    assert not out.exists()


def test_asymmetric_or_non_finite_matrices_exit_2(tmp_path, capsys):
    # the input gate names the fault; an asymmetric pair used to get a
    # verdict and a NaN used to leak numpy's LinAlgError (exit 1)
    asym = tmp_path / "asym.json"
    write_matrices(asym, [[[1.0, 2.0], [0.0, 1.0]], np.eye(2)])
    nan = tmp_path / "nan.json"
    write_matrices(nan, [[[float("nan"), 0.0], [0.0, 1.0]], np.eye(2)])
    for path, name in ((asym, "AsymmetricMatrix"), (nan, "NonFiniteEntry")):
        for cmd in ("check-sdc", "check-asdc"):
            assert run([cmd, "-i", str(path)]) == 2
            assert name in capsys.readouterr().err


def test_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["check-sdc", "-i", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert run(["check-sdc", "-i", str(missing)]) == 1
    neither = tmp_path / "neither.json"
    neither.write_text('{"A1": [[1.0]]}')
    capsys.readouterr()
    assert run(["check-sdc", "-i", str(neither)]) == 1
    assert capsys.readouterr().err == "ValueError: expected an instance file or a matrices file\n"


def test_console_script_exits_with_the_code(monkeypatch, capsys):
    for argv, code in ((["--help"], 0), (["check-sdc"], 1)):
        monkeypatch.setattr(sys, "argv", ["sdckit", *argv])
        with pytest.raises(SystemExit) as info:
            main()
        assert info.value.code == code
    assert capsys.readouterr().out.startswith("usage: sdckit")


def test_no_flag_loosens_the_certificates(tmp_path, capsys):
    # k = 1 plants a complex eigenvalue pair, so the verdict is NotSDC;
    # the tolerances are fixed, so no flag can loosen the realness,
    # residual or clustering threshold into an SDC verdict: a tolerance
    # flag is an unknown argument (malformed input)
    inst = tmp_path / "inst.json"
    assert run(["gen", "--n", "6", "--k", "1", "--seed", "3", "-o", str(inst)]) == 0
    assert run(["check-sdc", "-i", str(inst)]) == 10
    assert "non-real-eigenvalue" in capsys.readouterr().out
    assert run(["check-sdc", "-i", str(inst), "--eig-real-tol", "100",
                "--resid-tol", "1e8", "--cluster-tol", "10"]) == 1
    for flag in ("--rank-tol", "--eig-real-tol", "--resid-tol", "--cluster-tol"):
        assert run(["check-sdc", "-i", str(inst), flag, "1e8"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_counterexamples(tmp_path, capsys):
    out = tmp_path / "ce"
    assert run(["counterexamples", "-o", str(out)]) == 0
    assert (out / "seven_tuple.json").exists()
    assert run(["check-asdc", "-i", str(out / "seven_tuple.json")]) == 10


def test_bench(tmp_path):
    rep = tmp_path / "rep.csv"
    assert run(["bench", "--grid", "n=5;k=1", "--seeds", "1", "--m", "30",
                "--methods", "rsdc1,rsdc2", "-o", str(rep)]) == 0
    text = rep.read_text()
    assert text.startswith("n,k,seed,method")
    assert (tmp_path / "rep.json").exists()
