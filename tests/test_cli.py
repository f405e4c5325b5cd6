"""CLI surface: reports, determinism, exit codes."""

import json

import pytest

from nacap.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestCommands:
    def test_classify_examples(self, capsys):
        expected = {"ex1": "null", "ex2": "positive", "ex3": "divergent", "ex5": "divergent"}
        for name, kind in expected.items():
            report = run_json(capsys, "classify", "--spec", name)
            assert report["outputs"]["verdict"]["kind"] == kind

    def test_classify_positive_limit(self, capsys):
        report = run_json(capsys, "classify", "--spec", "ex2")
        assert report["outputs"]["verdict"]["limit"]["value"] == "1 - 1*e^(1)"

    def test_capacity_null_certificate(self, capsys):
        report = run_json(capsys, "capacity", "--spec", "ex1", "--root", "0", "--horizon", "8")
        outputs = report["outputs"]
        assert outputs["verdict"]["kind"] == "null"
        assert outputs["values"][2]["value"].startswith("1*e^(2)")
        assert report["precision_audit"]["min_guarantee"] == "32"

    def test_solve_dp_unit_path(self, capsys):
        report = run_json(capsys, "solve-dp", "--spec", "ex3", "--root", "0", "--horizon", "4")
        assert report["outputs"]["capacity"]["value"] == "1/4"
        assert report["outputs"]["values"]["2"]["value"] == "1/2"

    def test_transition_one_half(self, capsys):
        report = run_json(
            capsys, "transition", "--spec", "ex4", "--x", "0", "--y", "0", "--n", "2"
        )
        assert report["outputs"]["pn"] == {"guarantee": "inf", "value": "1/2"}

    def test_transition_series_certificate(self, capsys):
        report = run_json(
            capsys,
            "transition", "--spec", "ex4", "--x", "0", "--y", "0", "--n", "2",
            "--series", "6",
        )
        series = report["outputs"]["series"]
        assert series["certificate"]["type"] == "nonvanishing_rational_bound"
        assert series["trend"]["convergent"] is False

    def test_transition_series_certificate_over_rational_functions(self, capsys):
        # P^2(0,0) = 1/(1+r) on ex8: standard part 1, certified bound 1/2.
        report = run_json(
            capsys,
            "transition", "--spec", "ex8", "--x", "0", "--y", "0", "--n", "2",
            "--series", "4",
        )
        assert report["outputs"]["pn"]["value"] == "(1)/(1 + 1*r)"
        assert report["outputs"]["series"]["certificate"]["bound"] == "1/2"

    def test_green_matches_capacity(self, capsys):
        report = run_json(
            capsys, "green", "--spec", "ex2", "--x", "0", "--y", "0", "--horizon", "5"
        )
        value = report["outputs"]["value"]["value"]
        assert value.startswith("1 + 1*e^(1) + 1*e^(2) + 1*e^(3) + 1*e^(4)")

    def test_nash_williams(self, capsys):
        report = run_json(
            capsys, "nash-williams", "--spec", "ex1", "--root", "0", "--horizon", "8"
        )
        assert report["outputs"]["found"] is True
        assert report["outputs"]["certificate"]["provable"] is True
        report = run_json(
            capsys, "nash-williams", "--spec", "ex3", "--root", "0", "--horizon", "8"
        )
        assert report["outputs"]["found"] is False

    def test_harnack(self, capsys):
        report = run_json(capsys, "harnack", "--spec", "ex3", "--set", "0,1,2")
        assert report["outputs"]["constant"]["value"] == "4"

    def test_superharmonic_construct(self, capsys):
        report = run_json(
            capsys,
            "superharmonic", "--spec", "ex6", "--construct",
            "--c", "1", "--tau", "1*e^(1)", "--horizon", "4",
        )
        outputs = report["outputs"]
        assert outputs["formula"] == "1 - |x| * tau"
        assert outputs["values"]["3"]["value"] == "1 - 3*e^(1)"
        assert outputs["check"]["ok"] is True

    def test_superharmonic_literals(self, capsys):
        report = run_json(
            capsys,
            "superharmonic", "--spec", "ex6",
            "--u", "1, 1 - 1*e^(1), 1 - 2*e^(1), 1 - 3*e^(1)",
        )
        assert report["outputs"]["check"]["ok"] is True
        assert report["outputs"]["checked_vertices"] == [0, 1, 2]

    def test_hardy_positive(self, capsys):
        report = run_json(capsys, "hardy", "--spec", "ex2", "--samples", "5")
        outputs = report["outputs"]
        assert outputs["weight"]["provenance"] == "point_mass"
        assert outputs["verification"]["ok"] is True

    def test_real_sweep(self, capsys):
        report = run_json(
            capsys,
            "real-sweep", "--spec", "ex8", "--root", "0",
            "--power", "0", "--r", "1/2", "--horizon", "10",
        )
        rows = report["outputs"]["table"]["rows"]
        assert rows[0]["r"] == "1/2"
        assert abs(rows[0]["capacity_float"] - 0.1353353) < 1e-4


class TestDeterminismAndErrors:
    def test_byte_identical_reports(self, capsys):
        args = ("capacity", "--spec", "ex1", "--root", "0", "--horizon", "6")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_spec_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "path", "weights": {"rule": "no_such_rule"}}')
        code, _, err = run(capsys, "classify", "--spec", str(bad))
        assert code == 2 and "no_such_rule" in err

    def test_unreadable_spec(self, capsys):
        code, _, _ = run(capsys, "classify", "--spec", "/does/not/exist.json")
        assert code == 2

    def test_precondition_exit_code(self, capsys):
        # Null capacity: Hardy construction must refuse with exit code 4.
        code, _, err = run(capsys, "hardy", "--spec", "ex1")
        assert code == 4 and "null" in err

    @pytest.mark.parametrize(
        "command", [("solve-dp", "--renormalized"), ("green", "--x", "0", "--y", "0")]
    )
    def test_empty_boundary_over_rational_functions(self, capsys, tmp_path, command):
        # At horizon 2, K is the ball of radius 1: the whole triangle.  The
        # capacity is an exact Q(r) zero and the charge-normalized problem
        # is refused.
        spec = tmp_path / "triangle.json"
        spec.write_text(json.dumps({
            "field": "rational-function",
            "kind": "explicit",
            "vertices": 3,
            "edges": [[0, 1, "1 + 1*e^(1)"], [1, 2, "2*e^(2)"], [0, 2, "1*e^(-1)"]],
        }))
        code, out, err = run(
            capsys, command[0], "--spec", str(spec), "--horizon", "2", *command[1:]
        )
        assert code == 4 and out == ""
        assert "boundary of K is empty" in err

    def test_precision_exit_code(self, capsys):
        code, out, err = run(
            capsys,
            "capacity", "--spec", "ex1", "--root", "0", "--horizon", "4",
            "--min-guarantee", "1000",
        )
        assert code == 3

    def test_human_rendering(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--spec", "ex2", "--human"
        )
        assert code == 0
        assert "verdict" in out and "{" not in out.splitlines()[0]

    def test_window_override(self, capsys):
        report = run_json(
            capsys,
            "capacity", "--spec", "ex1", "--root", "0", "--horizon", "4",
            "--window", "6",
        )
        assert report["precision"]["window"] == "6"
        assert report["precision_audit"]["min_guarantee"] == "6"


class TestMoreCommands:
    def test_transition_restricted_max_product(self, capsys):
        report = run_json(
            capsys,
            "transition", "--spec", "ex5", "--x", "0", "--y", "0", "--n", "4",
            "--restrict", "1", "--max-product",
            "--window", "2", "--max-terms", "16",
        )
        outputs = report["outputs"]
        assert outputs["restriction"] == [0, 1]
        assert outputs["witness_path"] == [0, 1, 0, 1, 0]
        assert outputs["max_path_product"]["value"].startswith("1*e^(1)")

    def test_solve_dp_renormalized(self, capsys):
        report = run_json(
            capsys,
            "solve-dp", "--spec", "ex3", "--root", "0", "--horizon", "5",
            "--renormalized",
        )
        assert report["outputs"]["values"]["0"]["value"] == "5"
        assert report["outputs"]["normalization"] == "charge"

    def test_hardy_divergent_bounds(self, capsys):
        report = run_json(capsys, "hardy", "--spec", "ex3", "--horizon", "5")
        outputs = report["outputs"]
        assert outputs["weight"]["provenance"] == "spherical_lower_bounds"
        assert outputs["verification"]["ok"] is True

    def test_explicit_spec_via_cli(self, capsys, tmp_path):
        spec = tmp_path / "triangle.json"
        spec.write_text(json.dumps({
            "kind": "explicit",
            "vertices": 3,
            "edges": [[0, 1, "1"], [1, 2, "1"], [0, 2, "1"]],
        }))
        report = run_json(
            capsys, "solve-dp", "--spec", str(spec), "--root", "0", "--horizon", "1"
        )
        assert report["outputs"]["capacity"]["value"] == "2"
