"""CLI surface: reports, determinism, exit codes."""

import argparse
import importlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

import nacap
from nacap import cli, dirichlet
from nacap.cli import main
from nacap.specfile import build_graph, load_spec

import matrix_reference
from capacity_reference import per_r_real_sweep

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import checker  # noqa: E402


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

    @pytest.mark.parametrize(
        "spec",
        [
            {
                "field": "rational-function",
                "kind": "spherical",
                "weights": {"rule": "factorial_eps"},
                "sphere_sizes": {"rule": "pow", "base": 2},
            },
            {
                "field": "rational-function",
                "kind": "explicit",
                "vertices": 4,
                "edges": [[0, 1, "1 + 1*e^(1)"], [1, 2, "2*e^(-1)"], [2, 0, "3"], [2, 3, "1*e^(2)"]],
            },
        ],
        ids=["spherical", "explicit"],
    )
    def test_real_sweep_reports_graphs_that_are_not_paths(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        report = run_json(
            capsys, "real-sweep", "--spec", str(path),
            "--power", "1", "--r", "1/2,1/3", "--horizon", "3",
        )
        graph, _ = build_graph(spec)
        expected = per_r_real_sweep(graph, 0, 1, [Fraction(1, 2), Fraction(1, 3)], 3)
        assert report["outputs"]["table"] == expected.to_json()

    @pytest.mark.parametrize("horizon, capacity", [(3, "6/31"), (4, "0"), (6, "0")])
    def test_real_sweep_stops_at_the_end_of_a_finite_path(
        self, capsys, tmp_path, horizon, capacity
    ):
        # Three edges: from horizon 4 on the ball is the whole graph, whose
        # boundary is empty, so the real capacity is 0 like the Q(r) one,
        # and the capacity sequence stops at the fourth ball.
        spec = tmp_path / "finite.json"
        spec.write_text(json.dumps({
            "field": "rational-function",
            "kind": "path",
            "weights": ["1 + 1*e^(1)", "2", "1*e^(2)"],
        }))
        report = run_json(
            capsys, "real-sweep", "--spec", str(spec), "--r", "1/2", "--horizon", str(horizon)
        )
        assert report["outputs"]["table"]["rows"][0]["capacity"] == capacity
        report = run_json(capsys, "capacity", "--spec", str(spec), "--horizon", str(horizon))
        values = [node["value"] for node in report["outputs"]["values"]]
        assert values[3:] == ([] if horizon == 3 else ["0"])

    @pytest.mark.parametrize(
        "command",
        [
            "capacity --horizon 3",
            "capacity --horizon 6",
            "classify",
            "nash-williams --horizon 6",
            "transition --x 0 --y 0 --n 8",
        ],
    )
    def test_finite_list_tail_ends_the_path(self, capsys, tmp_path, command):
        # A one-entry list with a three-entry list as its tail is the path
        # of three unit edges, not an infinite path that runs out of weights.
        name, *options = command.split()
        tail = {"rule": "custom_list", "values": ["1", "1", "1"]}
        outputs = []
        for weights in ({"rule": "custom_list", "values": ["1"], "tail": tail}, ["1", "1", "1"]):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({"kind": "path", "weights": weights}))
            outputs.append(run_json(capsys, name, "--spec", str(path), *options)["outputs"])
        assert outputs[0] == outputs[1]
        if name == "capacity":
            values = [(node["value"], node["guarantee"]) for node in outputs[0]["values"]]
            expected = [("1", "inf"), ("1/2", "inf"), ("1/3", "inf"), ("0", "inf")]
            assert values == expected[: int(options[-1])]
            assert outputs[0]["verdict"]["kind"] == "null"
            assert outputs[0]["verdict"]["certificate"] == {"type": "saturation", "radius": 4}


    @pytest.mark.parametrize(
        "spec, command",
        [
            ({"weights": {"rule": "eps_pow_neg_k"}}, "transition --x 0 --y 0 --n 2 --series 4"),
            (load_spec("ex8"), "real-sweep --power 3 --r 1/2,1/4 --horizon 6"),
        ],
        ids=["transition", "real-sweep"],
    )
    def test_spherical_spec_with_unit_spheres_is_a_path(self, capsys, tmp_path, spec, command):
        name, *options = command.split()
        outputs = []
        for kind in ("path", "spherical"):
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps({**spec, "kind": kind}))
            outputs.append(run_json(capsys, name, "--spec", str(path), *options)["outputs"])
        assert outputs[0] == outputs[1]


# Every fixture under every subcommand, at small horizons: each run ends with
# a documented exit code, never a traceback, and reproduces its recorded
# exit code, stderr and outputs (tests/matrix_reference.py).  Guarantees may
# rise, and values must agree below the recorded guarantee.
MATRIX_REFERENCE = matrix_reference.load()
MATRIX_CASES = [
    pytest.param(fixture, command, id=matrix_reference.case_id(fixture, command))
    for fixture in matrix_reference.FIXTURES
    for command in matrix_reference.MATRIX_COMMANDS
]


@pytest.mark.parametrize("fixture, command", MATRIX_CASES)
def test_fixture_command_matrix(capsys, fixture, command):
    code, out, err = run(capsys, *matrix_reference.argv(fixture, command))
    assert code in (0, 2, 3, 4)
    reference = MATRIX_REFERENCE[matrix_reference.case_id(fixture, command)]
    assert (code, err) == (reference["exit"], reference["stderr"])
    if code == 0:
        report = json.loads(out)
        series = report["spec"].get("field", "levi-civita") == "levi-civita"
        assert checker.compare_outputs(reference["outputs"], report["outputs"], series) == []


class TestOneClassifier:
    """`classify`, `capacity` and `hardy` read the capacity type from one
    classifier, whatever the root and horizon of the call."""

    @pytest.mark.parametrize("fixture", matrix_reference.FIXTURES)
    def test_classify_and_capacity_report_one_verdict(self, capsys, fixture):
        runs = [
            run(capsys, *matrix_reference.argv(fixture, command))
            for command in ("classify", "capacity --horizon 3")
        ]
        (classify_code, classify_out, classify_err), (code, out, err) = runs
        assert (classify_code, classify_err) == (code, err)
        if code == 0:
            verdict = json.loads(classify_out)["outputs"]["verdict"]
            assert verdict == json.loads(out)["outputs"]["verdict"]

    @pytest.mark.parametrize("fixture", matrix_reference.SPEC_FILES)
    def test_hardy_on_a_finite_graph_refuses_before_any_solve(self, capsys, monkeypatch, fixture):
        solves = []
        solve_dp = dirichlet.solve_dp

        def counted(*args):
            solves.append(args)
            return solve_dp(*args)

        monkeypatch.setattr(dirichlet, "solve_dp", counted)
        monkeypatch.setattr(cli, "solve_dp", counted)
        code, out, err = run(capsys, *matrix_reference.argv(fixture, "hardy --samples 2 --horizon 4"))
        assert (code, out) == (4, "")
        assert "no Hardy weight certificate for verdict kind 'null'" in err
        assert solves == []


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

    @pytest.mark.parametrize(
        "flag, counts",
        [("--n", ("--n", "-1", "--series", "3")), ("--series", ("--n", "2", "--series", "-1"))],
    )
    def test_transition_refuses_a_negative_count(self, capsys, flag, counts):
        with pytest.raises(SystemExit) as exit_info:
            main(["transition", "--spec", "ex6", "--x", "1", "--y", "2", *counts])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        assert f"argument {flag}: must be nonnegative, got -1" in captured.err

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            ("capacity --spec ex1 --horizon 0", "--horizon", 0),
            ("nash-williams --spec ex1 --horizon -1", "--horizon", -1),
            ("solve-dp --spec ex2 --horizon 0", "--horizon", 0),
            ("hardy --spec ex2 --samples -1 --horizon 4", "--samples", -1),
            ("hardy --spec ex2 --samples 0 --horizon 4", "--samples", 0),
        ],
    )
    def test_refuses_a_nonpositive_horizon_or_sample_count(self, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main(argv.split())
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        assert f"argument {flag}: must be positive, got {value}" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("real-sweep --spec ex8 --r 1/0 --horizon 3", "argument --r: invalid list: '1/0'"),
            ("real-sweep --spec ex8 --r 1/2,x --horizon 3", "argument --r: invalid list: '1/2,x'"),
            ("harnack --spec ex3 --set 0,a", "argument --set: invalid list: '0,a'"),
            ("harnack --spec ex3 --set ''", "argument --set: invalid list: ''"),
            ("harnack --spec ex3 --set ,", "argument --set: invalid list: ','"),
            ("real-sweep --spec ex8 --r '' --horizon 3", "argument --r: invalid list: ''"),
            (
                "transition --spec ex4 --x 0 --y 0 --n 2 --restrict -1",
                "argument --restrict: must be nonnegative, got -1",
            ),
            ("harnack --spec ex3 --set 0,0", "argument --set: repeated value in list: '0,0'"),
        ],
    )
    def test_malformed_option_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(shlex.split(argv))
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize(
        "options",
        [(), ("--max-product",), ("--series", "3"), ("--restrict", "2"),
         ("--series", "3", "--restrict", "2"), ("--max-product", "--restrict", "2")],
        ids=lambda options: "_".join(o[2:] for o in options if o.startswith("--")) or "plain",
    )
    @pytest.mark.parametrize("n", ["0", "2"])
    @pytest.mark.parametrize("endpoints", [("-1", "0"), ("0", "-1")], ids=["x", "y"])
    def test_transition_refuses_a_missing_endpoint(self, capsys, endpoints, n, options):
        # With --restrict a missing x is already refused while its ball is
        # built, as "root vertex -1 outside the graph".
        x, y = endpoints
        code, out, err = run(
            capsys, "transition", "--spec", "ex1", "--x", x, "--y", y, "--n", n, *options
        )
        assert code == 4 and out == ""
        assert "vertex -1 outside the graph" in err

    @pytest.mark.parametrize(
        "spec, vertices, missing",
        [("ex1", "-1", -1), ("ex1", "2,-1", -1), ("finite-path", "0,4", 4)],
    )
    def test_harnack_refuses_a_vertex_outside_the_graph(self, capsys, spec, vertices, missing):
        if spec in matrix_reference.SPEC_FILES:
            spec = os.path.join(matrix_reference.SPECS, f"{spec}.json")
        code, out, err = run(capsys, "harnack", "--spec", spec, f"--set={vertices}")
        assert code == 4 and out == ""
        assert f"vertex {missing} outside the graph" in err

    @pytest.mark.parametrize(
        "measure, argv",
        [
            (["0", "1", "1", "1"], ("superharmonic", "--u", "1,1,1")),
            (["0", "1", "1", "1"], ("green", "--x", "0", "--y", "0", "--horizon", "2")),
            ({"rule": "const", "value": -1}, ("green", "--x", "0", "--y", "0", "--horizon", "2")),
        ],
    )
    def test_nonpositive_measure_is_refused(self, capsys, tmp_path, measure, argv):
        spec = tmp_path / "measure.json"
        spec.write_text(
            json.dumps({"kind": "path", "weights": {"rule": "const"}, "measure": measure})
        )
        code, out, err = run(capsys, argv[0], "--spec", str(spec), *argv[1:])
        assert code == 4 and out == ""
        assert "the measure m(0) is nonpositive" in err

    def test_non_decimal_digit_is_a_spec_error(self, capsys, tmp_path):
        # "²" is a digit to str.isdigit but not a decimal digit int can read.
        code, out, err = run(capsys, "superharmonic", "--spec", "ex6", "--construct", "--c", "²")
        assert code == 2 and out == ""
        assert err == "spec error: expected a term (at position 0)\n"
        spec = tmp_path / "digit.json"
        spec.write_text(json.dumps({"kind": "path", "weights": ["1", "1²"]}))
        code, out, err = run(capsys, "classify", "--spec", str(spec))
        assert code == 2 and out == ""
        assert "unexpected character '²' (at position 1)" in err

    def test_precondition_exit_code(self, capsys):
        # Null capacity: Hardy construction must refuse with exit code 4.
        code, _, err = run(capsys, "hardy", "--spec", "ex1")
        assert code == 4 and "null" in err

    def test_hardy_refuses_growing_spheres(self, capsys, tmp_path):
        # b_plus = 1 bounds no edge from below when the spheres double: an
        # edge between S_k and S_{k+1} weighs 2^-(k+1).
        spec = tmp_path / "pow2.json"
        spec.write_text(json.dumps({
            "kind": "spherical",
            "weights": {"rule": "const"},
            "sphere_sizes": {"rule": "pow", "base": 2},
        }))
        code, out, err = run(
            capsys, "hardy", "--spec", str(spec), "--samples", "2", "--horizon", "4"
        )
        assert code == 4 and out == ""
        assert "no Hardy weight certificate" in err

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


# One process, one sequence of calls: each call must print and return what a
# freshly built parser gives, whatever the calls before it parsed.
REUSE_SEQUENCE = (
    "capacity --spec ex1 --horizon 0",
    "classify --spec ex2 --json --human",
    "classify --spec ex2 --human",
    "capacity --spec ex1 --horizon 4 --min-guarantee 1000",
    "hardy --spec ex2 --samples 2 --horizon 4",
    "hardy --spec ex2 --samples 2",
    "classify --spec /does/not/exist.json",
    "transition --spec ex1 --x 0 --y 0 --n 2",
)


def run_sequence(capsys):
    results = []
    for line in REUSE_SEQUENCE:
        try:
            code = main(line.split())
        except SystemExit as exit_info:
            code = exit_info.code
        captured = capsys.readouterr()
        results.append((line, code, captured.out, captured.err))
    return results


class TestParserReuse:
    def test_reused_parser_reports_like_a_fresh_one(self, capsys, monkeypatch):
        reused = run_sequence(capsys)
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = run_sequence(capsys)
        assert reused == fresh
        assert [code for _, code, _, _ in reused] == [2, 2, 0, 3, 0, 0, 2, 0]

    def test_parser_is_built_on_the_first_call_only(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.delitem(sys.modules, "nacap.cli")
        monkeypatch.delattr(nacap, "cli")
        fresh = importlib.import_module("nacap.cli")
        assert built == []
        assert fresh.main(["classify", "--spec", "ex2"]) == 0
        assert "nacap" in built
        count = len(built)
        assert fresh.main(["capacity", "--spec", "ex1", "--horizon", "3"]) == 0
        assert len(built) == count


class TestInvariantExitCode:
    def test_assertion_in_a_handler_exits_5(self, capsys, monkeypatch):
        def violated(graph, args):
            raise AssertionError("maximum principle violated at vertex 3")

        monkeypatch.setitem(cli.HANDLERS, "capacity", violated)
        code, out, err = run(capsys, "capacity", "--spec", "ex1", "--horizon", "2")
        assert code == cli.EXIT_INVARIANT == 5 and out == ""
        assert err == "internal invariant violated: maximum principle violated at vertex 3\n"

    def test_value_error_in_a_handler_exits_5(self, capsys, monkeypatch):
        def violated(graph, args):
            raise ValueError("root 0 not in K")

        monkeypatch.setitem(cli.HANDLERS, "capacity", violated)
        code, out, err = run(capsys, "capacity", "--spec", "ex1", "--horizon", "2")
        assert code == 5 and out == ""
        assert err == "internal invariant violated: root 0 not in K\n"


class TestModuleEntryPoint:
    """`python -m nacap` runs the same `main` as the `nacap` script."""

    def module_command(self, *argv):
        src = os.path.dirname(os.path.dirname(nacap.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        return [sys.executable, "-m", "nacap", *argv], env

    def run_module(self, *argv):
        command, env = self.module_command(*argv)
        return subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)

    def test_report(self):
        done = self.run_module("classify", "--spec", "ex2")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["outputs"]["verdict"]["kind"] == "positive"

    def test_usage_error(self):
        done = self.run_module("capacity", "--spec", "ex1", "--horizon", "0")
        assert done.returncode == 2 and done.stdout == ""
        assert "argument --horizon: must be positive, got 0" in done.stderr

    def test_reader_closing_the_pipe_early(self):
        # The report (about 180 kB) is larger than a pipe's buffer, so the
        # writer is still printing when the reader goes away.
        command, env = self.module_command("nash-williams", "--spec", "ex1", "--horizon", "6000")
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        head = process.stdout.read(4096)
        process.stdout.close()
        _, err = process.communicate(timeout=120)
        assert process.returncode == 0, err
        assert head.startswith(b"{") and b"Traceback" not in err
