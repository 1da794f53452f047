import inspect
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from gaugekit.cli import dumps, main
from gaugekit.identify import NonAutoSystem
from gaugekit.matcurve import curve_from_dict, curve_to_dict
from gaugekit.polyfield import PolyField, field_from_dict, field_to_dict
from gaugekit.timexpr import format_expr

from conftest import random_field


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
    # exp(t) is shared, so the file names it; the loader reads it back
    q = NonAutoSystem.from_dict(json.loads(out.read_text()))
    assert {key: format_expr(e) for key, e in q.terms.items()} == {
        (0, (2, 0)): "exp(t)", (0, (0, 2)): "-exp(3*t)", (1, (1, 1)): "2*exp(t)"}
    assert [[format_expr(e) for e in row] for row in q.linear] == [["-1", "0"], ["0", "-2"]]


SHEAR4_CURVE = {"dim": 4, "kind": "closed_form",
                "entries": [["1", "t", "0", "0"], ["0", "1", "0", "0"],
                            ["0", "0", "1", "0"], ["0", "0", "t^2", "1"]]}
F4 = {"dim": 4, "terms": [{"component": 0, "exponents": [2, 0, 0, 0], "coeff": 1.0}]}

NO_CLOSED_FORM_4 = ("no closed form for the closed_form curve on [0, 1]: "
                    "no inverse table for the 4 x 4 curve")


def _write(path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def test_transform_without_inverse_exits_3_and_writes_no_file(tmp_path, capsys):
    # a 4x4 closed-form curve has no symbolic inverse, so no closed form
    cpath, fpath = _write(tmp_path / "c4.json", SHEAR4_CURVE), _write(tmp_path / "f4.json", F4)
    out = tmp_path / "q4.json"
    assert main(["transform", "--field", fpath, "--curve", cpath, "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == f"numeric failure: {cpath}: {NO_CLOSED_FORM_4}\n"


def test_transform_malformed_expression_exit_2(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "kind": "closed_form",
                               "entries": [["exp(t", "0"], ["0", "1"]]}))
    code = main(["transform", "--field", files["p2"], "--curve", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and "offset" in err


def test_transform_without_inverse_exits_3_and_prints_no_text(tmp_path, capsys):
    # the console output is the closed form or nothing
    cpath, fpath = _write(tmp_path / "c4.json", SHEAR4_CURVE), _write(tmp_path / "f4.json", F4)
    assert main(["transform", "--field", fpath, "--curve", cpath,
                 "--format", "text"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numeric failure: {cpath}: {NO_CLOSED_FORM_4}\n"


def test_transform_closed_form_text_render(tmp_path, capsys):
    # the text output lists the constant, each linear row, and each term
    # with its monomial
    curve = {"dim": 2, "kind": "closed_form", "entries": [["1", "0"], ["0", "exp(t)"]]}
    cpath = tmp_path / "d.json"
    cpath.write_text(json.dumps(curve))
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps({"dim": 2, "terms": [
        {"component": 0, "exponents": [0, 0], "coeff": 0.5},
        {"component": 0, "exponents": [0, 1], "coeff": 1.0},
        {"component": 0, "exponents": [2, 0], "coeff": 1.0},
        {"component": 1, "exponents": [1, 1], "coeff": -2.0}]}))
    assert main(["transform", "--field", str(fpath), "--curve", str(cpath),
                 "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        "gauge transform (closed form)\n"
        "constant: [0.5, 0]\n"
        "linear:\n"
        "  [0, 1/exp(t)]\n"
        "  [0, exp(t)*(1/exp(t))]\n"
        "terms:\n"
        "  component 1: (exp(t)/exp(t)*(exp(t)/exp(t))) * x1^2\n"
        "  component 2: (-2*(exp(t)*(exp(t)/exp(t)*(1/exp(t))))) * x1*x2\n")


def test_transform_overflow_prints_no_numpy_warnings(tmp_path, capsys):
    # exp(-1000 t) in the inverse overflows the direct RHS inside [0, 1]:
    # the closed form is refused with one numeric-failure line, and no
    # numpy warning escapes on the way
    fpath, cpath = tmp_path / "f.json", tmp_path / "A.json"
    fpath.write_text(json.dumps({"dim": 2, "terms": [
        {"component": 1, "exponents": [1, 1], "coeff": 1.0}]}))
    cpath.write_text(json.dumps({"dim": 2, "kind": "exp",
                                 "generator": [[1000, 0], [0, 0]], "sign": -1}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["transform", "--field", str(fpath), "--curve", str(cpath)])
    assert code == 3
    assert capsys.readouterr().err == (f"numeric failure: {cpath}: no closed form for the "
                                       f"exp curve on [0, 1]: validation refused at "
                                       f"t = 0.891565: overflow\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_bad_grid_arguments_exit_2(files, capsys):
    assert main(["identify", "--system", files["quad"], "--grid", "1"]) == 2
    assert main(["identify", "--system", files["quad"], "--t1", "-1"]) == 2


# the options each subcommand has, besides its input files and --x0
OPTIONS = {"transform": ("--t0", "--t1", "--out", "--format"),
           "identify": ("--t0", "--t1", "--grid", "--tol", "--out", "--format"),
           "integrate": ("--t0", "--t1", "--tol", "--out", "--format"),
           "verify": ("--t0", "--t1", "--tol", "--out", "--format"),
           "idempotents": ("--starts", "--seed", "--out", "--format")}


def _missing_inputs(files, command) -> list:
    missing = str(files["tmp"] / "missing.json")
    return {"transform": ["--field", missing, "--curve", missing],
            "identify": ["--system", missing],
            "integrate": ["--field", missing, "--x0", "0.1,0.2"],
            "verify": ["--field", missing, "--curve", missing, "--x0", "0.1,0.2"],
            "idempotents": ["--field", missing]}[command]


@pytest.mark.parametrize("command", list(OPTIONS))
@pytest.mark.parametrize("option", ["--t0=nan", "--t0=inf", "--t1=inf", "--t1=-inf",
                                    "--tol=0", "--tol=-1", "--tol=nan", "--tol=inf",
                                    "--starts=0", "--starts=-3", "--seed=-1"])
def test_bad_numeric_options_exit_2_before_any_work(files, capsys, command, option):
    # the input files do not exist: an option check that ran after loading
    # them would name a file, not the option
    name = option.split("=")[0]
    argv = [command, *_missing_inputs(files, command), option]
    if name not in OPTIONS[command]:
        # a subcommand without the option refuses it while parsing
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        return
    assert main(argv) == 2
    err = capsys.readouterr().err
    bound = {"--starts": ">= 1", "--seed": ">= 0"}.get(name, "finite")
    assert err.startswith(f"error: {name} must be {bound}"), err
    assert "missing.json" not in err


REMOVED_OPTIONS = [("transform", "--grid=5"), ("transform", "--tol=1e-6"),
                   ("transform", "--seed=0"), ("identify", "--seed=0"),
                   ("integrate", "--grid=5"), ("integrate", "--seed=0"),
                   ("verify", "--grid=5"), ("verify", "--seed=0"),
                   ("idempotents", "--t0=0"), ("idempotents", "--t1=1"),
                   ("idempotents", "--grid=5"), ("idempotents", "--tol=1e-6")]


@pytest.mark.parametrize("command, option", REMOVED_OPTIONS)
def test_options_a_subcommand_does_not_read_are_refused(files, capsys, command, option):
    assert option.split("=")[0] not in OPTIONS[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *_missing_inputs(files, command), option])
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {option}" in capsys.readouterr().err


def test_each_subcommand_has_exactly_its_options():
    # each subcommand takes only the options it reads: 24 settable options
    # in all, not counting input files and --x0
    from gaugekit.cli import _build_parser
    from gaugekit.identify import DEFAULT_GRID_POINTS, find_idempotents
    inputs = {"--field", "--curve", "--system", "--x0", "-h", "--help"}
    subparsers = _build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(OPTIONS)
    for command, sp in subparsers.items():
        flags = {flag for action in sp._actions for flag in action.option_strings}
        assert flags - inputs == set(OPTIONS[command]), command
    assert sum(map(len, OPTIONS.values())) == 24
    # identify's grid defaults to the library's grid, and idempotents' starts
    # and seed to find_idempotents' own
    assert subparsers["identify"].get_default("grid") == DEFAULT_GRID_POINTS
    defaults = inspect.signature(find_idempotents).parameters
    for option in ("starts", "seed"):
        assert subparsers["idempotents"].get_default(option) == defaults[option].default


def test_transform_missing_file_exit_2(files, capsys):
    assert main(["transform", "--field", files["p2"],
                 "--curve", str(files["tmp"] / "nope.json")]) == 2
    assert "nope.json" in capsys.readouterr().err


def test_transform_dim_mismatch_exit_2(files, tmp_path, capsys):
    f3 = tmp_path / "f3.json"
    f3.write_text(json.dumps({"dim": 3, "terms": []}))
    assert main(["transform", "--field", str(f3), "--curve", files["expB"]]) == 2


def test_transform_numeric_failure_exit_3(files, tmp_path, capsys):
    # a 4x4 curve without an inverse table, with a pole at the span's end:
    # no closed form
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
    # y' = 1000 y + exp(-1000 t) y^2 is refused where it is NaN, so the run
    # is a numeric failure, not exit 0
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
    assert captured.err == (f"numeric failure: {cpath}: no closed form for the "
                            f"exp curve on [0, 1]: validation refused at t = 0.781943: "
                            f"non-finite value\n")


HUGE = "1" + "0" * 400  # an integer beyond the float range


@pytest.mark.parametrize("kind, message", [
    ("system", "bad system term #0: terms[0].coeff: numeric constant out of range"),
    ("field", "bad field term #0: terms[0].coeff: numeric constant out of range"),
    ("closed_form", "numeric constant out of range"),
    ("exp", "bad generator matrix: generator[0][0]: numeric constant out of range")])
def test_huge_json_integers_exit_2_and_name_the_file(tmp_path, capsys, kind, message):
    term = '{"dim": 1, "terms": [{"component": 0, "exponents": [2], "coeff": %s}]}'
    path = tmp_path / f"huge-{kind}.json"
    path.write_text({"system": term, "field": term,
                     "closed_form": '{"dim": 1, "kind": "closed_form", "entries": [[%s]]}',
                     "exp": '{"dim": 1, "kind": "exp", "generator": [[%s]]}'}[kind] % HUGE)
    fpath = _write(tmp_path / "f1.json", {"dim": 1, "terms": [
        {"component": 0, "exponents": [2], "coeff": 1.0}]})
    argv = {"system": ["identify", "--system", str(path)],
            "field": ["integrate", "--field", str(path), "--x0", "0.5"]}.get(
        kind, ["transform", "--field", fpath, "--curve", str(path)])
    assert main(argv) == 2
    where = "entries[0][0]: " if kind == "closed_form" else ""  # the curve entry
    assert capsys.readouterr().err == f"error: {path}: {where}{message}\n"


@pytest.mark.parametrize("kind, message", [
    ("field", "bad field term #0: terms[0].coeff: expected a number"),
    ("exp", "bad generator matrix: generator[0][0]: expected a number")])
def test_json_booleans_are_not_numbers_exit_2_and_name_the_entry(tmp_path, capsys, kind,
                                                                  message):
    path = _write(tmp_path / f"true-{kind}.json", {
        "field": {"dim": 1, "terms": [{"component": 0, "exponents": [2], "coeff": True}]},
        "exp": {"dim": 1, "kind": "exp", "generator": [[True]]}}[kind])
    fpath = _write(tmp_path / "f1.json", {"dim": 1, "terms": [
        {"component": 0, "exponents": [2], "coeff": 1.0}]})
    argv = {"field": ["integrate", "--field", path, "--x0", "0.5"],
            "exp": ["transform", "--field", fpath, "--curve", path]}[kind]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("sign,message", [
    (True, "sign must be an integer, got True"),
    (-1.0, "sign must be an integer, got -1.0")])
def test_exp_curve_sign_must_be_an_integer_exit_2_and_name_it(tmp_path, capsys, sign,
                                                              message):
    # a boolean or a float would pass a membership test in (1, -1)
    path = _write(tmp_path / "sign.json",
                  {"dim": 1, "kind": "exp", "generator": [[1.0]], "sign": sign})
    fpath = _write(tmp_path / "f1.json", {"dim": 1, "terms": [
        {"component": 0, "exponents": [2], "coeff": 1.0}]})
    assert main(["transform", "--field", fpath, "--curve", path]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


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


# format 2 systems: one shared exp(t) and one product of it
_V2 = {"format": 2, "dim": 1, "defs": ["exp(t)", "2*e0"],
       "terms": [{"component": 0, "exponents": [2], "coeff": "e1-e0"}]}


@pytest.mark.parametrize("change,message", [
    ({"defs": ["exp(t)", "2*e1"]}, "defs[1]: no def 'e1' before this expression at offset 2"),
    ({"defs": ["e1", "exp(t)"]}, "defs[0]: no def 'e1' before this expression at offset 0"),
    ({"terms": [{"component": 0, "exponents": [2], "coeff": "e2"}]},
     "bad system term #0: terms[0].coeff: no def 'e2' before this expression at offset 0"),
    ({"format": None}, "'defs' needs \"format\": 2"),
    ({"format": 1}, "'defs' needs \"format\": 2"),
    ({"format": 3}, "'format' is 3; systems have formats 1 and 2"),
    ({"format": "2"}, "format must be an integer, got '2'"),
    ({"format": True}, "format must be an integer, got True"),
    ({"defs": {"e0": "exp(t)"}}, "'defs' must be a list"),
])
def test_system_format_and_defs_errors_exit_2_and_name_them(tmp_path, capsys, change,
                                                            message):
    # a def names only earlier defs; defs need format 2; no other version reads
    data = {**_V2, **change}
    if data["format"] is None:
        del data["format"]
    path = _write(tmp_path / "v.json", data)
    assert main(["integrate", "--system", path, "--x0", "0.1"]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_format_2_and_format_1_files_integrate_alike(tmp_path):
    # the format 1 file writes every coefficient out in full
    v1 = {"dim": 1, "terms": [{"component": 0, "exponents": [2],
                               "coeff": "2*exp(t)-exp(t)"}]}
    outs = []
    for name, data in (("v2", _V2), ("v1", v1)):
        out = tmp_path / f"{name}.traj.json"
        assert main(["integrate", "--system", _write(tmp_path / f"{name}.json", data),
                     "--x0", "0.1", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", [["integrate", "--x0", "0.1"], ["identify"]])
def test_defs_that_double_a_tree_fail_with_a_bounded_message(tmp_path, capsys, command):
    # 61 defs of about 1 KB name a tree of 2^62 nodes; e60 is 0, so the
    # table's denominator guard fires, and its message shows a cut prefix
    data = {"format": 2, "dim": 1,
            "defs": ["t-t"] + [f"e{k}+e{k}" for k in range(60)],
            "terms": [{"component": 0, "exponents": [2], "coeff": "1/e60"}]}
    path = _write(tmp_path / "doubling.json", data)
    assert main([command[0], "--system", path, *command[1:]]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: near-zero denominator at t=")
    assert err.endswith("...\n") and len(err) < 2100


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


def test_any_nesting_depth_loads_and_transforms(files, tmp_path, capsys):
    # the parser keeps its own stack: t in 400 or 100,000 parentheses is t
    outputs = {}
    for depth in (0, 400, 100_000):
        sysf = tmp_path / f"nested-{depth}.json"
        sysf.write_text(json.dumps({"dim": 1, "terms": [
            {"component": 0, "exponents": [2], "coeff": "(" * depth + "t" + ")" * depth}]}))
        for argv in (["identify", "--system", str(sysf)],
                     ["integrate", "--system", str(sysf), "--x0", "0.5"]):
            out = tmp_path / "out.json"
            code = main(argv + ["--out", str(out)])
            outputs.setdefault(argv[0], set()).add((code, out.read_bytes()))
    assert capsys.readouterr().err == ""
    assert [len(v) for v in outputs.values()] == [1, 1]
    # the printer does not recurse either, so a long sum is written and read back
    cpath = tmp_path / "long-curve.json"
    cpath.write_text(json.dumps({"dim": 1, "kind": "closed_form",
                                 "entries": [["+".join(["1"] + ["t"] * 2999)]]}))
    fpath = tmp_path / "f1.json"
    fpath.write_text(json.dumps({"dim": 1, "terms": [
        {"component": 0, "exponents": [2], "coeff": 1.0}]}))
    out = tmp_path / "long-system.json"
    assert main(["transform", "--field", str(fpath), "--curve", str(cpath),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    q = NonAutoSystem.from_dict(json.loads(out.read_text()))
    # y' = 2999/(1 + 2999 t) y + y^2/(1 + 2999 t)
    assert q.linear_at(0.5)[0, 0] == pytest.approx(2999.0 / 1500.5, rel=1e-12)
    assert q.degree_part_at(0.5, 2).terms == {(0, (2,)): pytest.approx(1.0 / 1500.5, rel=1e-12)}
    # the smart constructors walk chains of negations and of literal factors
    # in loops, so a curve entry with a 3,000-link chain transforms to the
    # values of its shallow spelling: the transform multiplies the 1 x 1
    # entries (emul), and adds the off-diagonal entry of the 2 x 2 curve to
    # its own products when it expands (y1 - e y2)^2 (eadd and esub)
    f2 = tmp_path / "f2.json"
    f2.write_text(json.dumps({"dim": 2, "terms": [
        {"component": 0, "exponents": [2, 0], "coeff": 1.0},
        {"component": 1, "exponents": [0, 2], "coeff": 1.0}]}))
    for field, deep, shallow in (
            (fpath, [["-" * 3000 + "(1+t)"]], [["1+t"]]),
            (fpath, [["1*(" * 3000 + "1+t" + ")" * 3000]], [["1+t"]]),
            (fpath, [["t - " + "-(" * 3001 + "1+t" + ")" * 3001]], [["t - -(1+t)"]]),
            (f2, [["1", "-(" * 3000 + "t" + ")" * 3000], ["0", "1"]], [["1", "t"], ["0", "1"]])):
        tables = []
        for entries in (deep, shallow):
            curve = tmp_path / "chain-curve.json"
            curve.write_text(json.dumps({"dim": len(entries), "kind": "closed_form",
                                         "entries": entries}))
            assert main(["transform", "--field", str(field), "--curve", str(curve),
                         "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            q = NonAutoSystem.from_dict(json.loads(out.read_text()))
            tables.append([q._table(t) for t in (-0.75, -0.25, 0.0, 0.3, 0.5, 1.0)])
        assert repr(tables[0]) == repr(tables[1])  # -0.0 stays apart from 0.0
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["integrate", "--field", str(deep), "--x0", "0"]) == 2
    assert "deep.json: JSON nested too deeply" in capsys.readouterr().err


def test_sampled_output_and_misspelled_keys_are_refused(files, tmp_path, capsys):
    # x1^2 e1 + x1 e2 under a shear has no closed form: transform exits 3
    # and writes nothing, and a file of samples is no system
    fpath = tmp_path / "shear-field.json"
    fpath.write_text(json.dumps({"dim": 2, "terms": [
        {"component": 0, "exponents": [2, 0], "coeff": 1.0},
        {"component": 1, "exponents": [1, 0], "coeff": 1.0}]}))
    cpath = tmp_path / "shear.json"
    cpath.write_text(json.dumps({"dim": 2, "kind": "exp",
                                 "generator": [[0.0, 1.0], [0.0, 0.0]]}))
    sampled = tmp_path / "sampled.json"
    assert main(["transform", "--field", str(fpath), "--curve", str(cpath),
                 "--out", str(sampled)]) == 3
    assert not sampled.exists()
    assert capsys.readouterr().err == (f"numeric failure: {cpath}: no closed form "
                                       f"for the exp curve on [0, 1]: defective or "
                                       f"ill-conditioned generator (cond V > 1e8)\n")
    sampled.write_text(json.dumps({"dim": 2, "kind": "sampled", "samples": [
        {"t": 0.0, "field": json.loads(fpath.read_text())}]}))
    misspelled = tmp_path / "term.json"
    misspelled.write_text(json.dumps({"dim": 2, "term": QUAD_SYSTEM["terms"]}))
    for path, key in ((sampled, "kind"), (misspelled, "term")):
        for argv in (["identify", "--system", str(path)],
                     ["integrate", "--system", str(path), "--x0", "0.3,0.4"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"{path.name}: unknown key '{key}'" in err
    coeff = tmp_path / "coef.json"
    coeff.write_text(json.dumps({"dim": 1, "terms": [
        {"component": 0, "exponents": [2], "coef": "exp(t)"}]}))
    assert main(["identify", "--system", str(coeff)]) == 2
    assert "unknown key 'coef' in system term #0" in capsys.readouterr().err


def test_every_writer_output_loads(files, tmp_path):
    # transform's closed form, and the field and curve files, read back
    for curve in ("identity", "expB"):
        out = tmp_path / f"q-{curve}.json"
        assert main(["transform", "--field", files["p2"], "--curve", files[curve],
                     "--out", str(out)]) == 0
        assert main(["identify", "--system", str(out), "--out", str(tmp_path / "r.json")]) == 0
    field_out = tmp_path / "f.json"
    field_out.write_text(dumps(field_to_dict(field_from_dict(P2))))
    for curve in ("identity", "expB"):
        curve_out = tmp_path / f"c-{curve}.json"
        curve_out.write_text(dumps(curve_to_dict(curve_from_dict(
            json.loads(Path(files[curve]).read_text())))))
        assert main(["verify", "--field", str(field_out), "--curve", str(curve_out),
                     "--x0", "0.3,0.4", "--t1", "0.5"]) == 0


@pytest.mark.parametrize("kind", ["field", "system"])
@pytest.mark.parametrize("case", ["repeated", "no-coeff"])
def test_term_lists_refuse_a_repeated_term_and_a_missing_coeff(tmp_path, capsys,
                                                                kind, case):
    # fields and systems read their terms through one reader
    coeff = 1.0 if kind == "field" else "exp(t)"
    second = {"component": 0, "exponents": [2, 0]}
    if case == "repeated":
        second["coeff"] = coeff
    path = _write(tmp_path / f"{kind}.json", {"dim": 2, "terms": [
        {"component": 0, "exponents": [2, 0], "coeff": coeff}, second]})
    argv = (["integrate", "--field", path, "--x0", "0.1,0.2"] if kind == "field"
            else ["identify", "--system", path])
    assert main(argv) == 2
    reason = ("repeats component 0, exponents [2, 0] of an earlier term"
              if case == "repeated" else "missing key 'coeff'")
    assert capsys.readouterr().err == f"error: {path}: bad {kind} term #1: {reason}\n"


# (name, curve, closed form expected)
ROUNDTRIP_CURVES = [
    ("exp-1", {"dim": 1, "kind": "exp", "generator": [[0.7]]}, True),
    ("exp-diag", EXP_DIAG_CURVE, True),
    ("exp-complex-pair", {"dim": 2, "kind": "exp",
                          "generator": [[0.2, -1.0], [1.0, 0.2]]}, True),
    ("exp-3-complex-pair", {"dim": 3, "kind": "exp", "sign": -1, "generator": [
        [0.3, -1.0, 0.0], [1.0, 0.3, 0.0], [0.2, 0.0, -0.5]]}, True),
    ("exp-shear", {"dim": 2, "kind": "exp", "generator": [[0.0, 1.0], [0.0, 0.0]]}, False),
    ("exp-jordan", {"dim": 2, "kind": "exp", "generator": [[1.0, 1.0], [0.0, 1.0]]}, False),
    ("rotation", {"dim": 2, "kind": "closed_form",
                  "entries": [["cos(t)", "-sin(t)"], ["sin(t)", "cos(t)"]]}, True),
    ("rotation-inverse", {"dim": 2, "kind": "closed_form",
                          "entries": [["cos(t)", "-sin(t)"], ["sin(t)", "cos(t)"]],
                          "inverse": [["cos(t)", "sin(t)"], ["-sin(t)", "cos(t)"]]}, True),
    ("rotation-3", {"dim": 3, "kind": "closed_form", "entries": [
        ["1", "0", "0"], ["0", "cos(2*t)", "-sin(2*t)"], ["0", "sin(2*t)", "cos(2*t)"]]},
     True),
    ("shear-3", {"dim": 3, "kind": "closed_form", "entries": [
        ["1", "t", "t^2/2"], ["0", "1", "t"], ["0", "0", "1"]]}, True),
    ("shear-3-inverse", {"dim": 3, "kind": "closed_form",
                         "entries": [["1", "t", "t^2/2"], ["0", "1", "t"], ["0", "0", "1"]],
                         "inverse": [["1", "-t", "t^2/2"], ["0", "1", "-t"],
                                     ["0", "0", "1"]]}, True),
    ("shear-4", SHEAR4_CURVE, False),
]


@pytest.mark.parametrize("name, curve, closed", ROUNDTRIP_CURVES,
                         ids=[c[0] for c in ROUNDTRIP_CURVES])
def test_every_transform_output_loads_back_or_exits_3(tmp_path, capsys, name, curve,
                                                      closed):
    # a seeded field of degrees 2-3 per curve, never without x1^2 e1;
    # transform either writes a system that identify and integrate load,
    # or exits 3 and writes nothing
    n = curve["dim"]
    f = random_field(np.random.default_rng(len(name)), n, [2, 3], scale=0.5, density=0.4) \
        + PolyField(n, {(0, (2,) + (0,) * (n - 1)): 1.0})
    fpath = _write(tmp_path / "f.json", field_to_dict(f))
    cpath = _write(tmp_path / "A.json", curve)
    out = tmp_path / "q.json"
    code = main(["transform", "--field", fpath, "--curve", cpath, "--out", str(out)])
    if not closed:
        assert code == 3 and not out.exists()
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"numeric failure: {cpath}: no closed form for the ")
        return
    assert code == 0
    NonAutoSystem.from_dict(json.loads(out.read_text()))
    assert main(["identify", "--system", str(out), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "gauge"
    x0 = ",".join(["0.1"] * n)
    assert main(["integrate", "--system", str(out), "--x0", x0, "--t1", "0.5"]) == 0


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


def _power_field(k: int) -> dict:
    return {"dim": 1, "terms": [{"component": 0, "exponents": [k], "coeff": 1.0}]}


@pytest.mark.parametrize("field, x0, t1, blowup", [
    (P2, "0.1,0.2", 1.0, False), (P2, "0.1,0.2", -1.0, False),
    # y' = y^2 from y0 blows up at t = 1/y0, forward or backward
    (_power_field(2), "2", 1.0, True), (_power_field(2), "-2", -1.0, True),
], ids=["forward", "backward", "blowup-forward", "blowup-backward"])
def test_integrate_text_prints_the_state_where_it_ended(tmp_path, capsys, field, x0, t1,
                                                        blowup):
    # rows run in increasing time, so a backward span ends at the first
    # row; the text names that time and prints that row
    fpath = _write(tmp_path / "f.json", field)
    argv = ["integrate", "--field", fpath, f"--x0={x0}", "--t1", str(t1)]
    assert main(argv + ["--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert main(argv + ["--format", "text"]) == 0
    text = capsys.readouterr().out
    end = 0 if t1 < 0 else -1
    assert ("blow-up detected" in text) == blowup
    assert (d["t"][end] == t1) != blowup
    state = ", ".join(f"{v:.12g}" for v in d["x"][end])
    assert f"final state at t = {d['t'][end]:g}: [{state}]" in text.splitlines()
    assert d["x"][end] != [float(v) for v in x0.split(",")]


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


@pytest.mark.parametrize("x0", ["nan,0.1", "0.3,inf", "-inf,0.4"])
def test_non_finite_start_exit_2_names_x0(files, capsys, x0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["integrate", "--field", files["p2"]],
                     ["integrate", "--system", files["quad"]],
                     ["verify", "--field", files["p2"], "--curve", files["expB"]]):
            assert main([*argv, f"--x0={x0}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --x0 entries must be finite, got {x0!r}\n"


def test_a_negative_first_start_entry_reads_in_both_spellings(files, capsys):
    # "--x0 -0.3,0.4" is one start, not an option: it reads as --x0=-0.3,0.4
    for argv in (["integrate", "--field", files["p2"]],
                 ["integrate", "--system", files["quad"]],
                 ["verify", "--field", files["p2"], "--curve", files["expB"]]):
        outputs = []
        for x0 in (["--x0", "-0.3,0.4"], ["--x0=-0.3,0.4"]):
            assert main([*argv, *x0, "--t1", "0.5"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1] != ""


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
        assert main(["identify", "--system", files["quad"], "--out", str(out)]) == 0
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
