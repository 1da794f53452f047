import json
import warnings

import numpy as np
import pytest

from gaugekit.cli import dumps, main


P2 = {"dim": 2, "terms": [
    {"component": 0, "exponents": [2, 0], "coeff": 1.0},
    {"component": 0, "exponents": [0, 2], "coeff": -1.0},
    {"component": 1, "exponents": [1, 1], "coeff": 2.0},
]}

EXP_DIAG_CURVE = {"dim": 2, "kind": "exp",
                  "generator": [[1.0, 0.0], [0.0, 2.0]], "sign": -1}

IDENTITY_CURVE = {"dim": 2, "kind": "closed_form",
                  "entries": [["1", "0"], ["0", "1"]]}

QUAD_SYSTEM = {"dim": 2, "terms": [
    {"component": 0, "exponents": [2, 0], "coeff": "exp(t)"},
    {"component": 0, "exponents": [0, 2], "coeff": "-exp(3*t)"},
    {"component": 1, "exponents": [1, 1], "coeff": "2*exp(t)"},
]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, data in [("p2", P2), ("expB", EXP_DIAG_CURVE),
                       ("identity", IDENTITY_CURVE), ("quad", QUAD_SYSTEM)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(data))
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    return paths


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def test_transform_identity_curve(files):
    out = files["tmp"] / "q.json"
    code = main(["transform", "--field", files["p2"], "--curve", files["identity"],
                 "--out", str(out)])
    assert code == 0
    q = json.loads(out.read_text())
    assert q["linear"] == [["0", "0"], ["0", "0"]]
    coeffs = {(t["component"], tuple(t["exponents"])): t["coeff"] for t in q["terms"]}
    assert coeffs == {(0, (2, 0)): "1", (0, (0, 2)): "-1", (1, (1, 1)): "2"}


def test_transform_exponential_fixture(files):
    out = files["tmp"] / "q.json"
    assert main(["transform", "--field", files["p2"], "--curve", files["expB"],
                 "--out", str(out)]) == 0
    q = json.loads(out.read_text())
    coeffs = {(t["component"], tuple(t["exponents"])): t["coeff"] for t in q["terms"]}
    assert coeffs == {(0, (2, 0)): "exp(t)", (0, (0, 2)): "-exp(3*t)",
                      (1, (1, 1)): "2*exp(t)"}
    assert q["linear"] == [["-1", "0"], ["0", "-2"]]


def test_transform_sampled_fallback(files, tmp_path):
    # a 4x4 closed-form curve has no symbolic inverse: sampled output
    curve = {"dim": 4, "kind": "closed_form",
             "entries": [["1", "t", "0", "0"], ["0", "1", "0", "0"],
                         ["0", "0", "1", "0"], ["0", "0", "t^2", "1"]]}
    cpath = tmp_path / "c4.json"
    cpath.write_text(json.dumps(curve))
    field = {"dim": 4, "terms": [{"component": 0, "exponents": [2, 0, 0, 0],
                                  "coeff": 1.0}]}
    fpath = tmp_path / "f4.json"
    fpath.write_text(json.dumps(field))
    out = tmp_path / "q4.json"
    assert main(["transform", "--field", str(fpath), "--curve", str(cpath),
                 "--out", str(out), "--grid", "5"]) == 0
    q = json.loads(out.read_text())
    assert q["kind"] == "sampled"
    assert len(q["samples"]) == 5
    assert q["samples"][0]["t"] == 0.0


def test_transform_malformed_expression_exit_2(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "kind": "closed_form",
                               "entries": [["exp(t", "0"], ["0", "1"]]}))
    code = main(["transform", "--field", files["p2"], "--curve", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and "offset" in err


def test_transform_sampled_text_render(files, tmp_path, capsys):
    curve = {"dim": 4, "kind": "closed_form",
             "entries": [["1", "t", "0", "0"], ["0", "1", "0", "0"],
                         ["0", "0", "1", "0"], ["0", "0", "t^2", "1"]]}
    cpath = tmp_path / "c4.json"
    cpath.write_text(json.dumps(curve))
    fpath = tmp_path / "f4.json"
    fpath.write_text(json.dumps({"dim": 4, "terms": [
        {"component": 0, "exponents": [2, 0, 0, 0], "coeff": 1.0}]}))
    assert main(["transform", "--field", str(fpath), "--curve", str(cpath),
                 "--grid", "3"]) == 0
    out = capsys.readouterr().out
    assert "sampled at 3 grid times" in out


def test_bad_grid_arguments_exit_2(files, capsys):
    assert main(["identify", "--system", files["quad"], "--grid", "1"]) == 2
    assert main(["identify", "--system", files["quad"], "--t1", "-1"]) == 2


def test_transform_missing_file_exit_2(files, capsys):
    assert main(["transform", "--field", files["p2"],
                 "--curve", str(files["tmp"] / "nope.json")]) == 2
    assert "nope.json" in capsys.readouterr().err


def test_transform_dim_mismatch_exit_2(files, tmp_path, capsys):
    f3 = tmp_path / "f3.json"
    f3.write_text(json.dumps({"dim": 3, "terms": []}))
    assert main(["transform", "--field", str(f3), "--curve", files["expB"]]) == 2


def test_transform_numeric_failure_exit_3(files, tmp_path, capsys):
    # curve entries pole inside the sampled span
    curve = {"dim": 4, "kind": "closed_form",
             "entries": [["1/(1-t)", "0", "0", "0"], ["0", "1", "0", "0"],
                         ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}
    cpath = tmp_path / "pole.json"
    cpath.write_text(json.dumps(curve))
    f4 = tmp_path / "f4.json"
    f4.write_text(json.dumps({"dim": 4, "terms": [
        {"component": 0, "exponents": [2, 0, 0, 0], "coeff": 1.0}]}))
    code = main(["transform", "--field", str(f4), "--curve", str(cpath)])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_transform_emits_no_closed_form_validated_against_nan(tmp_path, capsys):
    # exp(1000 t) overflows inside [0, 1]: the closed form
    # y' = 1000 y + exp(-1000 t) y^2 is refused where it is NaN, and the
    # sampled output cannot be written either, so the run is a numeric
    # failure, not exit 0
    f1 = tmp_path / "f1.json"
    f1.write_text(json.dumps({"dim": 1, "terms": [
        {"component": 0, "exponents": [2], "coeff": 1.0}]}))
    cpath = tmp_path / "exp1000.json"
    cpath.write_text(json.dumps({"dim": 1, "kind": "exp", "generator": [[1000]]}))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["transform", "--field", str(f1), "--curve", str(cpath),
                     "--format", "json"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numeric failure: matrix has non-finite entries" in captured.err


@pytest.mark.parametrize("generator", ['[["nan"]]', "[[1e999]]"])
def test_transform_nonfinite_generator_exit_2_names_file(files, tmp_path, capsys,
                                                         generator):
    f1 = tmp_path / "f1.json"
    f1.write_text(json.dumps({"dim": 1, "terms": [
        {"component": 0, "exponents": [2], "coeff": 1.0}]}))
    cpath = tmp_path / "bad-generator.json"
    cpath.write_text('{"dim": 1, "kind": "exp", "generator": %s}' % generator)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["transform", "--field", str(f1), "--curve", str(cpath)]) == 2
    err = capsys.readouterr().err
    assert "bad-generator.json" in err and "bad generator matrix" in err


# ---------------------------------------------------------------------------
# identify
# ---------------------------------------------------------------------------

def test_identify_quadratic_fixture(files, capsys):
    out = files["tmp"] / "report.json"
    code = main(["identify", "--system", files["quad"], "--out", str(out),
                 "--tol", "1e-9"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "gauge"
    assert np.allclose(report["B"], [[1.0, 0.0], [0.0, 2.0]], atol=1e-9)
    assert report["kernel_dim"] == 0


def test_identify_not_gauge_exit_1(files, tmp_path):
    sysf = tmp_path / "c.json"
    sysf.write_text(json.dumps({"dim": 2, "constant": ["t^2", "1"]}))
    assert main(["identify", "--system", str(sysf)]) == 1


def test_identify_long_coefficient(tmp_path, capsys):
    # a 500-term sum: its parsed tree nests 500 deep
    sysf = tmp_path / "long.json"
    sysf.write_text(json.dumps({"dim": 2, "terms": [
        {"component": 0, "exponents": [2, 0], "coeff": "1"},
        {"component": 1, "exponents": [0, 2], "coeff": "+".join(["t"] * 500)}]}))
    assert main(["identify", "--system", str(sysf)]) == 1
    assert "not_gauge" in capsys.readouterr().out


def test_identify_linear_family_exit_0(files, tmp_path, capsys):
    sysf = tmp_path / "lin.json"
    sysf.write_text(json.dumps({"dim": 2, "linear": [["0", "t"], ["0", "0"]]}))
    assert main(["identify", "--system", str(sysf)]) == 0
    text = capsys.readouterr().out
    assert "linear_family" in text


def test_identify_undetermined_exit_4(files, tmp_path, capsys):
    # coefficient pole strictly between grid points: the tables build fine but
    # the verification integration blows up -> undetermined
    sysf = tmp_path / "poley.json"
    sysf.write_text(json.dumps(
        {"dim": 2, "linear": [["0", "1/(t-0.505)"], ["0", "0"]]}))
    code = main(["identify", "--system", str(sysf)])
    assert code == 4
    assert "undetermined" in capsys.readouterr().out


def test_identify_text_report_readable(files, capsys):
    assert main(["identify", "--system", files["quad"], "--format", "text",
                 "--tol", "1e-9"]) == 0
    text = capsys.readouterr().out
    assert "status: gauge" in text
    assert "B:" in text
    assert "x1^2" in text  # reconstructed field in polynomial notation


# ---------------------------------------------------------------------------
# integrate / verify / idempotents
# ---------------------------------------------------------------------------

def test_integrate_trajectory_file(files):
    out = files["tmp"] / "traj.json"
    code = main(["integrate", "--system", files["quad"], "--x0", "0.3,0.4",
                 "--t1", "0.5", "--out", str(out)])
    assert code == 0
    traj = json.loads(out.read_text())
    assert len(traj["t"]) == 200
    assert traj["t"][0] == 0.0 and abs(traj["t"][-1] - 0.5) < 1e-12
    assert len(traj["x"][0]) == 2


def test_system_with_negative_exponent_exit_2_names_file(tmp_path, capsys):
    sysf = tmp_path / "neg.json"
    sysf.write_text(json.dumps({"dim": 2, "terms": [
        {"component": 0, "exponents": [3, -1], "coeff": "1"}]}))
    for argv in (["identify", "--system", str(sysf)],
                 ["integrate", "--system", str(sysf), "--x0", "0.5,0.5", "--t1", "0.1"],
                 ["integrate", "--system", str(sysf), "--x0", "0.5,0", "--t1", "0.1"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "neg.json" in err and "negative exponent" in err


def test_integrate_field_and_arg_validation(files, capsys):
    assert main(["integrate", "--field", files["p2"], "--x0", "0.1,0.2",
                 "--t1", "0.5"]) == 0
    assert main(["integrate", "--x0", "0.1,0.2"]) == 2
    assert main(["integrate", "--field", files["p2"], "--system", files["quad"],
                 "--x0", "0.1,0.2"]) == 2
    assert main(["integrate", "--field", files["p2"], "--x0", "0.1"]) == 2


def test_verify_correspondence_cli(files, capsys):
    code = main(["verify", "--field", files["p2"], "--curve", files["expB"],
                 "--x0", "0.3,0.4", "--t1", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max deviation" in out


def test_verify_fails_above_tolerance(files):
    code = main(["verify", "--field", files["p2"], "--curve", files["expB"],
                 "--x0", "0.3,0.4", "--t1", "0.5", "--tol", "1e-18"])
    assert code == 1


def test_idempotents_cli(files, capsys):
    code = main(["idempotents", "--field", files["p2"], "--starts", "200",
                 "--seed", "42"])
    assert code == 0
    out = capsys.readouterr().out
    assert "3 idempotent(s)" in out
    assert "spanning=true" in out


def test_idempotents_rejects_inhomogeneous(files, tmp_path, capsys):
    f = tmp_path / "mixed.json"
    f.write_text(json.dumps({"dim": 2, "terms": [
        {"component": 0, "exponents": [2, 0], "coeff": 1.0},
        {"component": 0, "exponents": [1, 0], "coeff": 1.0}]}))
    assert main(["idempotents", "--field", str(f)]) == 2


# ---------------------------------------------------------------------------
# determinism and serialization
# ---------------------------------------------------------------------------

def test_reports_byte_identical(files):
    out1 = files["tmp"] / "r1.json"
    out2 = files["tmp"] / "r2.json"
    for out in (out1, out2):
        assert main(["identify", "--system", files["quad"], "--out", str(out),
                     "--seed", "0"]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    t1 = files["tmp"] / "t1.json"
    t2 = files["tmp"] / "t2.json"
    for out in (t1, t2):
        assert main(["integrate", "--system", files["quad"], "--x0", "0.3,0.4",
                     "--t1", "0.5", "--out", str(out)]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_parser_is_built_once_and_reused(files, capsys):
    # built lazily on the first main() call, not at import
    import os
    import subprocess
    import sys
    from pathlib import Path

    from gaugekit import cli
    probe = ("import gaugekit.cli as c; "
             "print(c._build_parser.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env,
                          text=True, check=True).stdout.strip() == "0"
    cli._build_parser.cache_clear()
    out = files["tmp"] / "q.json"
    assert main(["transform", "--field", files["p2"], "--curve", files["expB"],
                 "--out", str(out)]) == 0
    assert main(["identify", "--system", str(out), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "gauge"
    with pytest.raises(SystemExit) as exc:
        main(["identify", "--system", files["quad"], "--grid", "many"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: gaugekit identify")
    assert "argument --grid: invalid int value: 'many'" in err
    assert cli._build_parser.cache_info().misses == 1


def test_format_overrides(files, capsys):
    # json requested on the console
    assert main(["identify", "--system", files["quad"], "--format", "json",
                 "--tol", "1e-9"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["status"] == "gauge"
    # text requested into a file
    target = files["tmp"] / "report.txt"
    assert main(["identify", "--system", files["quad"], "--format", "text",
                 "--out", str(target), "--tol", "1e-9"]) == 0
    assert "status: gauge" in target.read_text()


def test_dumps_17_significant_digits():
    text = dumps({"v": 0.1 + 0.2})
    assert "0.30000000000000004" in text
    assert json.loads(text) == {"v": 0.1 + 0.2}
    assert dumps(1 / 3) == "0.33333333333333331"
    assert dumps(2.0) == "2.0"
    assert json.loads(dumps([1e-5, 1.5e300])) == [1e-5, 1.5e300]
