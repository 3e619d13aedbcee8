import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tracesos.cli import main
from tracesos.necklace import BudgetExceeded
from tracesos.poly import Polynomial


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeff_stdout_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "coeff", "--m", "4", "--r", "2", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [["a[1,1]^2*b[1,1]^2", "6"]]
    path = tmp_path / "poly.json"
    code, out, _ = run(capsys, "coeff", "--m", "4", "--r", "2", "--n", "2",
                       "--oracle", "matrix", "--out", str(path))
    assert code == 0
    stored = json.loads(path.read_text())
    p = Polynomial.from_jsonable(stored["terms"])
    assert len(p.terms) > 1


def test_coeff_oracles_write_identical_json(tmp_path, capsys):
    for args in (("--m", "8", "--r", "4", "--n", "4", "--diagonal-a"),
                 ("--m", "6", "--r", "2", "--n", "2")):
        blobs = {}
        for oracle in ("necklace", "matrix"):
            path = tmp_path / f"{oracle}.json"
            code, _, _ = run(capsys, "coeff", *args, "--oracle", oracle,
                             "--out", str(path))
            assert code == 0
            blobs[oracle] = path.read_bytes().replace(
                f'"oracle": "{oracle}"'.encode(), b'"oracle": ""')
        assert blobs["necklace"] == blobs["matrix"], args


def test_emitted_bytes_are_pinned(tmp_path, capsys):
    # size and SHA-256 of files written while monomials were stored as
    # (variable, exponent) pairs: the constraint order, the monomial text
    # and the basis hash must not move with the representation.  The two
    # coefficient files at n above the arc count were written while the
    # necklace oracle still enumerated every cycle at the full n, the
    # next two while certificate vectors held one-term polynomials, the
    # two before the last while Q3 parameters were affine polynomial
    # coefficients.  The first and the last, with their pins and ties,
    # were written without the entry-sum row they used to carry, just
    # before that row was retired.  The three sdp-export pins were retaken
    # when an off-diagonal SDPA body value came to carry half the weight
    # on X_ij, as the standard format reads it.
    path = tmp_path / "out"
    for argv, size, digest in (
            (("sdp-export", "--m", "4", "--r", "2", "--n", "3", "--basis",
              "certificate", "--out"), 3882,
             "839f902f7aaa8628013f1fd19487f35ccbb6ca117338fa50ca1ebf4b5116d715"),
            (("coeff", "--m", "6", "--r", "2", "--n", "2", "--out"), 1859,
             "6813f414cebce4c8a97170f1a16102b16db749123edb749e1534b3e45586346b"),
            (("coeff", "--m", "8", "--r", "4", "--n", "9", "--diagonal-a",
              "--out"), 1426184,
             "20cfb2964dfd096831398a5e2372cb2a17c3ff349390dfcaa39e470225e78400"),
            (("coeff", "--m", "4", "--r", "2", "--n", "6", "--out"), 47085,
             "7bcf1f5f053a13b455405ee9ad46d2fe72185e5c81c9c082561d0812a913f7b1"),
            (("sdp-export", "--m", "8", "--r", "4", "--n", "4", "--diagonal-a",
              "--basis", "certificate", "--out"), 64673,
             "5d4a466eb57248e3e4c61a0d718e03e515583253741fe0094bd5d4404f606593"),
            (("cert42", "--n", "3", "--emit"), 1548,
             "6f9520ec2490b70504415e67d7807f588b2592a434f0bbd5131de5cd4e5ba08f"),
            (("cert84", "--n", "3", "--params", "symbolic", "--emit"), 1653,
             "c5837930b6ba5a761791b3c799d2592433e01f99962b5816edde4cadc175e956"),
            (("paramsys", "--n", "5", "--emit"), 834,
             "8923024f92fc1046f78e1b83f1601257370434c846eca9a9d85cb74f0f491fd1"),
            (("sdp-export", "--m", "8", "--r", "4", "--n", "5", "--diagonal-a",
              "--basis", "certificate", "--out"), 185803,
             "19071882fef7402496a9587ec6b8aa47fcf029f4d1728733ec553ca3469a5526")):
        code, _, _ = run(capsys, *argv, str(path))
        blob = path.read_bytes()
        assert code == 0
        assert (len(blob), hashlib.sha256(blob).hexdigest()) == (size, digest), argv


def test_verify_all_json_is_pinned(capsys):
    # size and SHA-256 of the report written when the Q3 notes came to be
    # decided on the symmetry blocks of Q3
    code, out, _ = run(capsys, "verify-all", "--json")
    blob = out.encode()
    assert code == 0
    assert (len(blob), hashlib.sha256(blob).hexdigest()) == (
        1738, "8e5d52a289ee691f295fe799014075d521d864b785d371075b8d0ab436b5e360")


def test_runtime_imports_only_the_standard_library():
    # absolute imports in the package name stdlib modules only; relative
    # imports stay inside it
    package = Path(__file__).resolve().parents[1] / "src" / "tracesos"
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, (path.name, name)


def test_cli_starts_without_dataclasses():
    # every command pays its start-up imports; dataclasses alone pulls in
    # inspect, ast, dis and tokenize.  -S keeps site's imports out.
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import tracesos.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))", src],
        capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_psd_certificate_bytes_are_pinned(tmp_path, capsys):
    # size and SHA-256 of certificates written while the Gram route still
    # formed scale * U^T U as a matrix
    from tracesos.cert42 import build_certificate42, build_q1_gram_factor
    from tracesos.cert84 import build_q2_84

    path = {}
    for name, mat in (("q1", build_certificate42(4).q1),
                      ("u", build_q1_gram_factor(4)[0]),
                      ("q2", build_q2_84(3)),
                      ("two", build_q2_84(2).submatrix([0, 1]))):
        path[name] = str(tmp_path / f"{name}.json")
        Path(path[name]).write_text(json.dumps(mat.to_jsonable()))
    out = tmp_path / "cert.json"
    for argv, size, digest in (
            (("--in", path["q1"], "--method", "gram", "--factor", path["u"],
              "--scale", "6"), 963,
             "908433a4f82092797bf8140d0677ebda69c03ab1e76610addcd49d674b7dd9f2"),
            (("--in", path["q2"], "--method", "schur", "--split", "6"), 905,
             "6c958b60751ea1fd2097e6ae68c96508253a7faf0f2362f6d79eb977b439b7e9")):
        code, _, _ = run(capsys, "psd", *argv, "--out", str(out))
        blob = out.read_bytes()
        assert code == 0
        assert (len(blob), hashlib.sha256(blob).hexdigest()) == (size, digest), argv
    code, _, err = run(capsys, "psd", "--in", path["two"], "--method", "gram",
                       "--factor", path["u"], "--scale", "6")
    assert (code, err) == (2, "error: shape (10, 10) != (2, 2)\n")
    code, _, err = run(capsys, "psd", "--in", path["q1"], "--method", "gram",
                       "--factor", path["u"], "--scale", "5")
    assert (code, err) == (
        2, "error: entry (0,0): expected 6, factor gives 5\n")


def test_workers_flag_is_gone(capsys):
    # each argv ends in the removed flag, then its value if it took one
    for argv in (["coeff", "--m", "4", "--r", "2", "--n", "1", "--workers", "2"],
                 ["verify-all", "--workers", "2"],
                 ["verify-all", "--max-n-42", "6"],
                 ["verify-all", "--max-n-84", "3"],
                 ["cert42", "--n", "2", "--out", "m.json"],
                 ["cert84", "--n", "2", "--out", "q3.json"],
                 ["paramsys", "--out", "system.json"],
                 ["verify-all", "--big"],
                 ["coeff", "--m", "4", "--r", "2", "--n", "1", "--big"],
                 ["audit42", "--n", "2", "--big"],
                 ["sdp-export", "--m", "4", "--r", "2", "--n", "2",
                  "--out", "p.dat-s", "--big"]):
        flag = next(a for a in reversed(argv) if a.startswith("--"))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_unreadable_input_files_exit_2(tmp_path, capsys):
    from tracesos.cert42 import build_certificate42
    from tracesos.necklace import TraceProblem
    from tracesos.sdpio import (auto_basis, build_sdp, certificate_basis_42,
                                export_sdpa)

    prob = tmp_path / "prob.dat-s"
    p = TraceProblem(4, 0, 1)
    export_sdpa(build_sdp(p, auto_basis(p)), str(prob))
    prob422 = tmp_path / "prob422.dat-s"
    export_sdpa(build_sdp(TraceProblem(4, 2, 2), certificate_basis_42(2)),
                str(prob422))
    cert = build_certificate42(2)
    # the published floats, with a null below Q1's diagonal
    sol422 = {k: [[float(x) for x in row] for row in m.rows]
              for k, m in (("Q1", cert.q1), ("Q2", cert.q2))}
    sol422["Q1"][1][0] = None
    files = {"lowernull.json": json.dumps(sol422),
             "empty.dat-s": "",
             "truncated.dat-s": "".join(prob.read_text().splitlines(True)[:4]),
             "nolabel.dat-s": "* block\n1\n1\n1\n1\n",
             "norows.json": '{"cols": [[1]]}',
             "list.json": "[1, 2]",
             "badblock.json": '{"G": 5}',
             "sol.json": '{"G": [[1]]}',
             "one.json": '{"rows": [[1]]}',
             "nullentry.json": '{"rows": [[null]]}',
             "zeroden.json": '{"rows": [["1/0"]]}',
             "nullparam.json": '{"x1": null}',
             "zeroparam.json": '{"x1": "1/0"}',
             "huge.dat-s": "1\n1\n1\n1e2000000\n1 1 1 1 1\n",
             "deep.json": "[" * 100_000,
             "singular.json": '{"rows": [[1, 1], [1, 1]]}',
             **{f"key{key}.json": json.dumps({key: 1})
                for key in ("x23", "x0", "x-3", "foo", "x01")}}
    path = {"missing.json": str(tmp_path / "missing.json")}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        path[name] = str(tmp_path / name)
    for argv, says in (
            (("psd", "--in", path["missing.json"]), "missing.json"),
            (("cert84", "--n", "2", "--params", path["missing.json"]),
             "missing.json"),
            (("sdp-verify", "--prob", path["missing.json"],
              "--solution", path["missing.json"]), "missing.json"),
            (("sdp-verify", "--prob", path["empty.dat-s"],
              "--solution", path["sol.json"]), "0 of the 4 header lines"),
            (("sdp-verify", "--prob", path["truncated.dat-s"],
              "--solution", path["sol.json"]), "of the 4 header lines"),
            (("sdp-verify", "--prob", path["nolabel.dat-s"],
              "--solution", path["sol.json"]), "no label"),
            (("psd", "--in", path["norows.json"]), "'rows'"),
            (("cert84", "--n", "2", "--params", path["list.json"]),
             "JSON object"),
            (("sdp-verify", "--prob", str(prob),
              "--solution", path["badblock.json"]), "block G"),
            (("psd", "--in", path["nullentry.json"]),
             "matrix entry (0,0): expected a number"),
            (("psd", "--in", path["zeroden.json"]),
             "matrix entry (0,0): zero denominator"),
            (("psd", "--in", path["one.json"], "--method", "gram",
              "--factor", path["one.json"], "--scale", "1/0"),
             "--scale: zero denominator"),
            (("cert84", "--n", "2", "--params", path["nullparam.json"]),
             "x1: expected a number"),
            (("cert84", "--n", "2", "--params", path["zeroparam.json"]),
             "x1: zero denominator"),
            (("sdp-verify", "--prob", path["huge.dat-s"],
              "--solution", path["sol.json"]), "more than"),
            (("sdp-verify", "--prob", str(prob422),
              "--solution", path["lowernull.json"]),
             "block Q1 entry (1,0): expected a number"),
            (("psd", "--in", path["deep.json"]), "deep.json: maximum recursion"),
            (("psd", "--in", path["one.json"], "--method", "gram",
              "--factor", path["deep.json"]), "deep.json: maximum recursion"),
            (("cert84", "--n", "2", "--params", path["deep.json"]),
             "deep.json: maximum recursion"),
            (("sdp-verify", "--prob", str(prob),
              "--solution", path["deep.json"]), "deep.json: maximum recursion"),
            *((("cert84", "--n", "2", "--params", path[f"key{key}.json"]),
               f"key{key}.json: '{key}' is not one of x1..x22")
              for key in ("x23", "x0", "x-3", "foo", "x01")),
            (("psd", "--in", path["one.json"], "--method", "schur"),
             "--split is required"),
            (("psd", "--in", path["one.json"], "--method", "schur",
              "--split", "1"), "a 1x1 matrix has no Schur split"),
            (("psd", "--in", path["one.json"], "--method", "gram"),
             "--factor is required"),
            (("sdp-export", "--m", "6", "--r", "2", "--n", "2", "--basis",
              "certificate", "--out", str(tmp_path / "x.dat-s")),
             "--basis certificate is only available")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert says in err, (argv, err)
    code, out, _ = run(capsys, "sdp-verify", "--prob", str(prob),
                       "--solution", path["sol.json"])
    assert code == 0 and "accepted" in out
    # a singular matrix is a verdict for ldlt, not an input error
    code, out, _ = run(capsys, "psd", "--in", path["singular.json"],
                       "--method", "ldlt")
    assert code == 0 and out == "PSD via ldlt, nullity 1\n"


def test_psd_refuses_labels_that_do_not_match(tmp_path, capsys):
    rows = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    for labels in ({"row_labels": [1]}, {"row_labels": [1, 2, 3, 4]},
                   {"row_labels": [1, 2, 3], "col_labels": [1, 2]}):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": rows, **labels}))
        code, _, err = run(capsys, "psd", "--in", str(path),
                           "--method", "schur", "--split", "2")
        assert code == 2, labels
        assert err == "error: matrix labels do not match its shape\n", err


def test_coeff_budget(capsys):
    code, _, err = run(capsys, "coeff", "--m", "8", "--r", "4", "--n", "2",
                       "--budget", "100")
    assert code == 2
    assert "budget" in err
    # one letter pattern per rotation class: 10 classes * 9^4 arc labelings
    code, _, err = run(capsys, "coeff", "--m", "8", "--r", "4", "--n", "9",
                       "--diagonal-a", "--budget", "1000")
    assert code == 2
    assert err == "error: enumeration needs 65610 visits, budget is 1000\n"
    # the matrix oracle counts every cycle: 70 patterns * 9^4 arc labelings
    code, _, err = run(capsys, "coeff", "--m", "8", "--r", "4", "--n", "9",
                       "--diagonal-a", "--oracle", "matrix", "--budget", "1000")
    assert code == 2
    assert err == "error: enumeration needs 459270 visits, budget is 1000\n"


def test_matrix_oracle_runs_under_the_default_budget(capsys):
    code, out, _ = run(capsys, "coeff", "--m", "8", "--r", "4", "--n", "7",
                       "--diagonal-a", "--oracle", "matrix")
    assert code == 0 and len(json.loads(out)["terms"]) == 7252
    # a general A has 70 * 6^8 cycles, over the default budget of 1e8
    code, _, err = run(capsys, "coeff", "--m", "8", "--r", "4", "--n", "6",
                       "--oracle", "matrix")
    assert code == 2
    assert err == "error: enumeration needs 117573120 visits, budget is 100000000\n"


def test_budget_refuses_before_a_basis_or_certificate_is_built(
        tmp_path, capsys, monkeypatch):
    from tracesos import cert84, sdpio

    def refuse(*args, **kwargs):
        raise AssertionError("built before the budget was checked")

    for name in ("auto_basis", "certificate_basis_84"):
        monkeypatch.setattr(sdpio, name, refuse)
    monkeypatch.setattr(cert84, "build_certificate84", refuse)
    out = str(tmp_path / "p.dat-s")
    # 172186884 = 8 rotation classes of 8 letters with 6 b's * 9^6 labelings
    for argv, planned in [
            (("sdp-export", "--m", "8", "--r", "6", "--n", "9",
              "--basis", "auto", "--out", out), 172186884),
            (("sdp-export", "--m", "8", "--r", "4", "--n", "9",
              "--diagonal-a", "--basis", "certificate", "--budget", "1000",
              "--out", out), 65610),
            (("paramsys", "--n", "100"), 10 * 100 ** 4),
            (("paramsys", "--n", "9", "--budget", "1000"), 65610)]:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        budget = 1000 if "--budget" in argv else 10**8
        assert err == (f"error: enumeration needs {planned} visits, "
                       f"budget is {budget}\n"), argv
    assert not os.path.exists(out)
    with pytest.raises(BudgetExceeded):
        cert84.derive_param_system(100, budget=10**8)


def test_cert_budget_refuses_before_a_certificate_is_built(
        tmp_path, capsys, monkeypatch):
    from tracesos import cert42, cert84

    def refuse(*args, **kwargs):
        raise AssertionError("built before the budget was checked")

    for name in ("build_certificate42", "build_q1", "build_q2"):
        monkeypatch.setattr(cert42, name, refuse)
    for name in ("build_certificate84", "build_q2_84", "q3_grid"):
        monkeypatch.setattr(cert84, name, refuse)
    out = str(tmp_path / "c.json")
    # cert42: (n + C(n,2))^2 + (n + C(n,2)) + (2n)^2 + C(n,2)*2n; cert84:
    # n^2 + n + s^2 + s + (6n-6)^2 + C(n,2)*(6n-6), s = n(n-1) + C(n,2)
    for argv, count in [
            (("cert42", "--n", "400", "--emit", out), 6496600200),
            (("cert84", "--n", "200", "--emit", out), 3589376136),
            (("cert42", "--n", "5", "--budget", "439"), 440),
            (("cert84", "--n", "5", "--budget", "1000", "--params",
              str(tmp_path / "absent.json")), 1776)]:
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == "", argv
        budget = int(argv[argv.index("--budget") + 1]) if "--budget" in argv \
            else 10**8
        assert err == (f"error: certificate needs {count} entries, "
                       f"budget is {budget}\n"), argv
    assert not os.path.exists(out)
    monkeypatch.undo()
    for argv in (("cert42", "--n", "5", "--budget", "440"),
                 ("cert84", "--n", "5", "--budget", "1776")):
        assert run(capsys, *argv)[0] == 0, argv


def test_python_m_tracesos(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "tracesos", "reproduce",
                           "Q1-n1"], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "OK   Q1-n1: Q1(n=1) = [6]\n"
    importlib.import_module("tracesos.__main__")  # importing runs nothing


def test_bad_arguments(capsys):
    code, _, err = run(capsys, "coeff", "--m", "3", "--r", "2", "--n", "1")
    assert code == 2
    assert "even" in err


def test_cert42_emit_and_audit(tmp_path, capsys):
    path = tmp_path / "matrices.json"
    code, _, _ = run(capsys, "cert42", "--n", "3", "--emit", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["q1"]["rows"][0][0] == "6"
    assert payload["entry_sum"] == str(6 * 3**4)
    code, out, _ = run(capsys, "audit42", "--n", "2")
    assert code == 0 and "clean" in out
    code, out, _ = run(capsys, "audit42", "--n", "2", "--json")
    assert code == 0 and json.loads(out)["ok"]


def test_cert84_emit_then_psd(tmp_path, capsys):
    path = tmp_path / "q3.json"
    code, _, _ = run(capsys, "cert84", "--n", "3", "--emit", str(path))
    assert code == 0
    code, out, _ = run(capsys, "psd", "--in", str(path))
    assert code == 0 and out == "PSD via ldlt, nullity 2\n"
    code, out, _ = run(capsys, "psd", "--in", str(path), "--method", "charpoly")
    assert code == 0 and out == "PSD via charpoly_signs, nullity 2\n"
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "psd", "--in", str(path), "--method", "schur",
                       "--split", "2", "--out", str(cert_path))
    assert code == 0
    assert json.loads(cert_path.read_text())["method"] == "schur_complement"


def test_cert84_rejects_general_a(capsys):
    # no flag asks for general A: argparse refuses it, the help says why
    with pytest.raises(SystemExit) as exc:
        main(["cert84", "--n", "3", "--general-a"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --general-a" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["cert84", "--help"])
    assert exc.value.code == 0
    assert "change of basis" in " ".join(capsys.readouterr().out.split())


def test_cert84_params_file(tmp_path, capsys):
    from tracesos.cert84 import published_params

    vals = {f"x{k}": str(v) for k, v in published_params().items()}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(vals))
    out_path = tmp_path / "q3.json"
    code, _, _ = run(capsys, "cert84", "--n", "2", "--params", str(path),
                     "--emit", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["entry_sum"] == "1120"


def test_paramsys_emit(tmp_path, capsys):
    path = tmp_path / "system.json"
    code, _, _ = run(capsys, "paramsys", "--n", "4", "--emit", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert len(payload["equations"]) == 11
    # the text form, pinned by size and SHA-256; n = 4 prints the same
    for n in ("4", "5"):
        code, out, _ = run(capsys, "paramsys", "--n", n)
        blob = out.encode()
        assert code == 0
        assert (len(blob), hashlib.sha256(blob).hexdigest()) == (
            204, "3b7e91c3204b8b7774a121d6b0b3801764d95677a650347d9e0a2da6b8f9a690")
        lines = out.splitlines()
        assert (lines[0], lines[-1]) == ("x1 + x2 = 32",
                                         "rank 11 over 22 parameters")


def test_sdp_export_verify_cycle(tmp_path, capsys):
    prob_path = tmp_path / "prob.dat-s"
    code, _, _ = run(capsys, "sdp-export", "--m", "4", "--r", "2", "--n", "2",
                     "--basis", "certificate", "--out", str(prob_path))
    assert code == 0
    from tracesos.cert42 import build_certificate42

    cert = build_certificate42(2)
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps({
        "Q1": [[float(x) for x in row] for row in cert.q1.rows],
        "Q2": [[float(x) for x in row] for row in cert.q2.rows]}))
    code, out, _ = run(capsys, "sdp-verify", "--prob", str(prob_path),
                       "--solution", str(sol_path), "--den-bound", "1")
    assert code == 0 and "accepted" in out
    bad = json.loads(sol_path.read_text())
    bad["Q2"][0][0] += 0.5
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "sdp-verify", "--prob", str(prob_path),
                       "--solution", str(bad_path), "--den-bound", "2")
    assert code == 1 and "rejected" in out
    int_path = tmp_path / "int.json"
    int_path.write_text(json.dumps({
        "Q1": [[int(x) for x in row] for row in cert.q1.rows],
        "Q2": [[int(x) for x in row] for row in cert.q2.rows]}))
    for path in (sol_path, int_path):
        for bound in ("0", "-3"):
            code, _, err = run(capsys, "sdp-verify", "--prob", str(prob_path),
                               "--solution", str(path), "--den-bound", bound)
            assert code == 2 and err == ("error: denominator bound must be "
                                         f"at least 1, got {bound}\n"), err


def test_sdp_verify_names_the_first_negative_e_k(tmp_path, capsys):
    from tracesos.cert84 import build_certificate84
    from tracesos.psdcert import verify_charpoly_signs

    prob_path = tmp_path / "prob.dat-s"
    code, _, _ = run(capsys, "sdp-export", "--m", "8", "--r", "4", "--n", "6",
                     "--diagonal-a", "--basis", "certificate",
                     "--out", str(prob_path))
    assert code == 0
    cert = build_certificate84(6)
    blocks = {"Q1": cert.q1, "Q2": cert.q2, "Q3": cert.q3_matrix()}
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps({
        label: [[float(x) for x in row] for row in m.rows]
        for label, m in blocks.items()}))
    code, out, _ = run(capsys, "sdp-verify", "--prob", str(prob_path),
                       "--solution", str(sol_path))
    witness = verify_charpoly_signs(blocks["Q3"]).witness
    assert code == 1
    assert out.splitlines() == [
        "rejected: block Q3 is not PSD",
        f"  block Q3: e_{witness['violating_k']} = "
        f"{witness['violating_e']} < 0"]
    assert witness["violating_e"].startswith("-")


def test_sdp_export_auto_basis(tmp_path, capsys):
    path = tmp_path / "auto.dat-s"
    code, out, _ = run(capsys, "sdp-export", "--m", "4", "--r", "0", "--n", "1",
                       "--basis", "auto", "--out", str(path))
    assert code == 0 and "1 constraints" in out


def test_reproduce_named_objects(capsys):
    for obj in ("Q1-n1", "counterexample-ABAB", "Q3-n5-charpoly"):
        code, out, _ = run(capsys, "reproduce", obj)
        assert code == 0 and out.startswith("OK"), obj
    code, out, _ = run(capsys, "reproduce", "Q1-n3", "--json")
    assert code == 0 and json.loads(out)[0]["ok"]


def test_reproduce_unknown_object(capsys):
    code, _, err = run(capsys, "reproduce", "Q9-n9")
    assert code == 2
    assert "unknown object" in err


def test_golden_check_compares_exact_values():
    from fractions import Fraction

    from tracesos.cert84 import build_certificate84
    from tracesos.checks import GoldenMismatch, compare_golden

    rows = [list(row) for row in build_certificate84(5).q3]
    assert rows[0][1] == 24
    compare_golden({"q3_n5_84": {"rows": rows}})
    rows[0][1] = rows[1][0] = Fraction(49, 2)
    with pytest.raises(GoldenMismatch,
                       match=r"q3_n5_84 differs first at \('rows', 0, 1\)"):
        compare_golden({"q3_n5_84": {"rows": rows}})


def test_reproduce_all(capsys):
    code, out, _ = run(capsys, "reproduce", "all")
    assert code == 0
    assert out.count("OK  ") == 14


def test_wrong_certificate_fails_verification(monkeypatch, capsys):
    from tracesos import cert42
    from tracesos.psdcert import RationalMatrix

    build_q1 = cert42.build_q1

    def wrong_q1(n):
        q1 = build_q1(n)
        if n < 2:
            return q1
        rows = [list(row) for row in q1.rows]
        rows[0][0] += 6
        return RationalMatrix(rows, row_labels=q1.row_labels)

    monkeypatch.setattr(cert42, "build_q1", wrong_q1)
    code, out, _ = run(capsys, "reproduce", "U-n3")
    assert code == 1 and out.startswith("FAIL U-n3: Q1 is not 6 U^T U"), out
    code, out, err = run(capsys, "verify-all")
    assert code == 1, err
    lines = [line for line in out.splitlines() if not line.startswith(" ")]
    assert len(lines) == 11, out
    psd = next(line for line in lines if "psd-certificates" in line)
    assert psd.startswith("FAIL") and "gram n=4: entry (0,0)" in psd, psd
    identity = next(line for line in lines if "identity-42" in line)
    assert identity == (
        "FAIL identity-42: identity fails at n=[2, 3, 4]; first "
        "differences at n=2: a[1,1]^2*b[1,1]^2 (squares 12, oracle 6)"), identity


def test_oracle_disagreement_names_monomials(monkeypatch):
    from tracesos import checks, necklace
    from tracesos.poly import MONO_ONE, Polynomial, parse_monomial

    matrix = necklace.trace_coeff_matrix
    extra = Polynomial({MONO_ONE: 1, parse_monomial("a[1,1]"): -2,
                        parse_monomial("b[1,2]^4"): 3, parse_monomial("b[3,3]"): 4})
    monkeypatch.setattr(necklace, "trace_coeff_matrix",
                        lambda p: matrix(p) + extra if p.n >= 3 else matrix(p))
    result = checks.check_dual_oracle()
    assert not result.ok and result.detail == (
        "disagreement at [('(4,2)', 3), ('(8,4) diag', 3), ('(4,2)', 4), "
        "('(8,4) diag', 4), ('(4,2)', 5), ('(8,4) diag', 5)]; first "
        "differences at (4,2) n=3: 1 (necklace 0, matrix 1), "
        "a[1,1] (necklace 0, matrix -2), b[1,2]^4 (necklace 0, matrix 3)")


def test_wrong_q3_constant_fails_verification(monkeypatch, capsys):
    from tracesos import cert84, checks

    monkeypatch.setitem(cert84.Q3_TABLE, (5, 5), 9)
    # the lowest parameter-free monomial in output order is named
    why = ("parameter-free coefficient 2 left at "
           "a[1,1]^4*b[1,2]*b[1,3]*b[2,2]*b[2,3]")
    sums = checks.check_entry_sums()
    assert not sums.ok and sums.detail.startswith(
        "failures: [('(8,4)', 2), ('(8,4)', 3), ('(8,4)', 4), "
        "('symbolic n=5', '25830 + "), sums.detail
    system = checks.check_param_system()
    assert not system.ok and system.detail == f"derived system (n=5): {why}"
    code, out, _ = run(capsys, "paramsys", "--n", "4")
    assert code == 1 and out == f"derived system (n=4): {why}\n", out
    code, out, _ = run(capsys, "verify-all", "--json")
    report = {r["name"]: r for r in json.loads(out)}
    identity = report["identity-84"]
    assert code == 1 and not identity["ok"] and identity["detail"] == (
        "identity fails at n=[2, 3, 4]; first differences at n=2: "
        "a[1,1]^4*b[1,2]^2*b[2,2]^2 (squares 9, oracle 8)"), identity
    # verify-all gives each check's own detail
    assert report["entry-sums"]["detail"] == sums.detail
    assert report["param-system"]["detail"] == system.detail


def _leaf_paths(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


def test_every_golden_file_is_compared(monkeypatch):
    """Changing the first or the last leaf under any top-level key of any
    golden file makes some reproduce object fail."""
    import copy
    import time

    from tracesos import cert84, checks, golden

    table = checks.REPRODUCIBLES
    cost = {}
    for name, row in table.items():
        start = time.perf_counter()
        row()
        cost[name] = time.perf_counter() - start
    cheapest_first = sorted(table, key=cost.get)
    load = golden.load
    for gname in golden.available():
        original = load(gname)
        for key in original:
            paths = list(_leaf_paths(original[key], (key,)))
            for path in dict.fromkeys((paths[0], paths[-1])):
                mutated = copy.deepcopy(original)
                *head, last = path
                parent = mutated
                for step in head:
                    parent = parent[step]
                leaf = parent[last]
                parent[last] = leaf + "0" if isinstance(leaf, str) else leaf + 1

                def patched(name, _mutated=mutated, _gname=gname):
                    return _mutated if name == _gname else load(name)

                monkeypatch.setattr(golden, "load", patched)
                monkeypatch.setattr(cert84, "load_golden", patched)
                failed = None
                for name in cheapest_first:
                    try:
                        table[name]()
                    except checks.GoldenMismatch:
                        failed = name
                        break
                assert failed, f"{gname} {path}: every object still matches"


_ENTRY = st.one_of(
    st.integers(), st.floats(), st.text(max_size=6), st.none(), st.booleans(),
    st.lists(st.integers(), max_size=2),
    st.sampled_from(["1/2", "-3", "1/0", "2.5e-3", "1e3", "1e5000", "nan",
                     "inf", "1_0", " 7 ", "x1"]))
_ROWS = st.lists(st.lists(_ENTRY, max_size=3), max_size=3)
_MATRIX = st.one_of(
    st.fixed_dictionaries({"rows": _ROWS}),
    st.fixed_dictionaries({"rows": st.one_of(_ROWS, _ENTRY)},
                          optional={"row_labels": _ENTRY, "col_labels": _ENTRY}),
    st.lists(_ENTRY, max_size=2), _ENTRY)
_PARAMS = st.tuples(
    st.booleans(),
    st.dictionaries(st.one_of(st.sampled_from([f"x{k}" for k in range(1, 23)]),
                              st.text(max_size=3)),
                    _ENTRY, max_size=4))


_SOLUTION = st.one_of(
    st.dictionaries(st.sampled_from(["G", "Q1", ""]),
                    st.one_of(_ROWS, _ENTRY), max_size=2),
    _ROWS, _ENTRY)


def _fuzz_main(path, text, *argv):
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: "), err.getvalue()
        assert err.getvalue().count("\n") == 1, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_MATRIX)
def test_matrix_json_raises_only_value_error(tmp_path, matrix):
    path = tmp_path / "m.json"
    _fuzz_main(path, json.dumps(matrix), "psd", "--in", str(path))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_PARAMS)
def test_params_file_raises_only_value_error(tmp_path, params):
    from tracesos.cert84 import published_params

    start_published, changes = params
    values = ({f"x{k}": str(v) for k, v in published_params().items()}
              if start_published else {})
    values.update(changes)
    path = tmp_path / "params.json"
    _fuzz_main(path, json.dumps(values),
               "cert84", "--n", "2", "--params", str(path))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_SOLUTION.map(json.dumps))
@example(text="[" * 10_000 + "]" * 10_000)
def test_solution_json_raises_only_value_error(tmp_path, text):
    from tracesos.necklace import TraceProblem
    from tracesos.sdpio import auto_basis, build_sdp, export_sdpa

    prob = tmp_path / "prob.dat-s"
    if not prob.exists():
        p = TraceProblem(4, 0, 1)
        export_sdpa(build_sdp(p, auto_basis(p)), str(prob))
    _fuzz_main(tmp_path / "sol.json", text,
               "sdp-verify", "--prob", str(prob), "--solution",
               str(tmp_path / "sol.json"))
