"""Spec file parsing: kinds, rules, measures, precision, failure modes."""

import json
from fractions import Fraction

import pytest

from nacap.errors import SpecFileError
from nacap.field import LCElement, PrecisionConfig
from nacap.specfile import build_graph, load_spec


def build(tmp_path, data):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    return build_graph(load_spec(str(path)))


class TestKinds:
    def test_explicit_graph(self, tmp_path):
        graph, _ = build(
            tmp_path,
            {
                "kind": "explicit",
                "vertices": 3,
                "edges": [[0, 1, "1"], [1, 2, "1*e^(1)"]],
                "measure": ["2", "1", "1/3"],
            },
        )
        assert graph.weight(1, 2) == LCElement.monomial(1, 1)
        assert graph.measure(0) == LCElement.rational(2)

    def test_spherical_graph(self, tmp_path):
        graph, _ = build(
            tmp_path,
            {
                "kind": "spherical",
                "weights": {"rule": "const"},
                "sphere_sizes": {"rule": "pow", "base": 2},
            },
        )
        assert len(graph.ball(0, 3)) == 7

    def test_literal_weight_list_is_finite_path(self, tmp_path):
        graph, _ = build(tmp_path, {"kind": "path", "weights": ["1", "1/2"]})
        assert graph.vertex_count == 3

    def test_degree_measure(self, tmp_path):
        graph, _ = build(
            tmp_path, {"kind": "path", "weights": {"rule": "const"}, "measure": "degree"}
        )
        assert graph.measure(1) == LCElement.rational(2)

    def test_precision_block(self, tmp_path):
        _, config = build(
            tmp_path,
            {
                "kind": "path",
                "weights": {"rule": "const"},
                "precision": {"window": "8", "max_terms": 32},
            },
        )
        assert config.window == 8 and config.max_terms == 32

    @pytest.mark.parametrize(
        "block, expected",
        [
            (None, PrecisionConfig(window=32, max_terms=256, geometric_series_depth=64)),
            ({}, PrecisionConfig(window=32, max_terms=256, geometric_series_depth=64)),
            ({"window": "1/2", "geometric_series_depth": "8"},
             PrecisionConfig(window=Fraction(1, 2), max_terms=256, geometric_series_depth=8)),
            ({"window": 0.5, "max_terms": "16"},
             PrecisionConfig(window=Fraction(1, 2), max_terms=16, geometric_series_depth=64)),
        ],
    )
    def test_precision_keys_left_out_keep_the_defaults(self, tmp_path, block, expected):
        data = {"kind": "path", "weights": {"rule": "const"}}
        if block is not None:
            data["precision"] = block
        assert build(tmp_path, data)[1] == expected


class TestErrors:
    def test_unknown_rule(self, tmp_path):
        with pytest.raises(SpecFileError):
            build(tmp_path, {"kind": "path", "weights": {"rule": "mystery"}})

    def test_unknown_field(self, tmp_path):
        with pytest.raises(SpecFileError):
            build(tmp_path, {"field": "surreal", "kind": "path", "weights": ["1"]})

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(SpecFileError):
            build(tmp_path, {"kind": "hypercube", "weights": ["1"]})

    @pytest.mark.parametrize("block", [5, ["window"], {"max_terms": None}, {"window": "x"}])
    def test_malformed_precision_block(self, tmp_path, block):
        with pytest.raises(SpecFileError):
            build(tmp_path, {"kind": "path", "weights": {"rule": "const"}, "precision": block})

    def test_explicit_needs_edges(self, tmp_path):
        with pytest.raises(SpecFileError):
            build(tmp_path, {"kind": "explicit", "vertices": 2})

    def test_non_integer_exponent_rejected_for_rational_functions(self, tmp_path):
        with pytest.raises(SpecFileError):
            graph, _ = build(
                tmp_path,
                {
                    "field": "rational-function",
                    "kind": "path",
                    "weights": ["1*e^(1/2)"],
                },
            )
            graph.neighbors(0)

    def test_fixture_names_resolve(self):
        for i in range(1, 10):
            data = load_spec(f"ex{i}")
            assert data["kind"] == "path"
