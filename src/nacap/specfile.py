"""Graph spec files (JSON) and the bundled example fixtures.

A spec names the scalar field, optionally a precision configuration, and a
graph: a path or layered spherical graph generated by a closed-form weight
rule, or an explicit finite edge list.  Weight literals use the field
element grammar with e as the infinitesimal (read as r for the
rational-function field).
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

from .errors import SpecFileError
from .field import PrecisionConfig
from .graphs import (
    ConstantMeasure,
    ConstantRule,
    ConstantSize,
    DegreeMeasure,
    ExplicitListRule,
    FactorialMonomialRule,
    HalfPowerRule,
    ListMeasure,
    ListSize,
    MonomialRule,
    PeriodicRule,
    PowerSize,
    SphericalProfile,
    FIELDS,
    make_explicit,
    make_path,
    make_spherical,
)

FIXTURE_NAMES = tuple(f"ex{i}" for i in range(1, 10))


def load_spec(source) -> dict:
    """Read a spec from a filesystem path, or by bundled fixture name
    (ex1 .. ex9)."""
    text = None
    if isinstance(source, str) and source in FIXTURE_NAMES:
        text = (
            resources.files("nacap").joinpath(f"fixtures/{source}.json").read_text()
        )
    else:
        try:
            with open(source, "r") as handle:
                text = handle.read()
        except OSError as err:
            raise SpecFileError(f"cannot read spec {source!r}: {err}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise SpecFileError(f"spec is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise SpecFileError("spec must be a JSON object")
    return data


def parse_weight_rule(data):
    if isinstance(data, (list, tuple)):
        return ExplicitListRule(tuple(str(v) for v in data))
    if not isinstance(data, dict) or "rule" not in data:
        raise SpecFileError("weights must be a literal list or a rule object")
    name = data["rule"]
    if name == "eps_pow_k":
        return MonomialRule(
            slope=data.get("slope", 1),
            offset=data.get("offset", 0),
            coeff=data.get("coeff", 1),
        )
    if name == "eps_pow_neg_k":
        return MonomialRule(slope=-1, offset=data.get("offset", 0), coeff=data.get("coeff", 1))
    if name == "const":
        return ConstantRule(data.get("value", 1))
    if name == "factorial_eps":
        return FactorialMonomialRule(
            slope=data.get("slope", 1),
            offset=data.get("offset", 0),
            invert=bool(data.get("invert", False)),
        )
    if name == "eps_pow_half_pow_k":
        return HalfPowerRule()
    if name == "periodic":
        values = data.get("values")
        if not values:
            raise SpecFileError("periodic rule needs nonempty 'values'")
        return PeriodicRule(tuple(str(v) for v in values))
    if name == "custom_list":
        values = data.get("values")
        if values is None:
            raise SpecFileError("custom_list rule needs 'values'")
        tail = data.get("tail")
        return ExplicitListRule(
            tuple(str(v) for v in values),
            tail=parse_weight_rule(tail) if tail is not None else None,
        )
    raise SpecFileError(f"unknown weight rule {name!r}")


def parse_size_rule(data):
    if data is None:
        return ConstantSize(1)
    if isinstance(data, dict) and "rule" in data:
        name = data["rule"]
        if name == "const":
            return ConstantSize(int(data.get("value", 1)))
        if name == "pow":
            return PowerSize(int(data.get("base", 2)))
        if name == "list":
            return ListSize(tuple(int(v) for v in data.get("values", ())))
    raise SpecFileError("sphere_sizes must be a const/pow/list rule object")


def parse_measure(data):
    if data is None:
        return None
    if data == "degree":
        return DegreeMeasure()
    if isinstance(data, (list, tuple)):
        return ListMeasure(tuple(str(v) for v in data))
    if isinstance(data, dict) and data.get("rule") == "const":
        return ConstantMeasure(data.get("value", 1))
    if isinstance(data, dict) and data.get("rule") == "list":
        return ListMeasure(tuple(str(v) for v in data.get("values", ())), str(data.get("default", "1")))
    raise SpecFileError("measure must be 'degree', a literal list or a const rule")


# Readers of a spec's precision keys; a key left out keeps its default.
_PRECISION_READERS = {
    "window": lambda value: Fraction(str(value)),
    "max_terms": int,
    "geometric_series_depth": int,
}


def parse_precision(data) -> PrecisionConfig:
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise SpecFileError("precision must be an object")
    try:
        return PrecisionConfig(
            **{key: read(data[key]) for key, read in _PRECISION_READERS.items() if key in data}
        )
    except (TypeError, ValueError) as err:
        raise SpecFileError(f"bad precision config: {err}") from None


def build_graph(data: dict):
    """(graph, precision) from a parsed spec object."""
    field_name = data.get("field", "levi-civita")
    field = FIELDS.get(field_name)
    if field is None:
        raise SpecFileError(
            f"unknown field {field_name!r} (expected 'levi-civita' or 'rational-function')"
        )
    config = parse_precision(data.get("precision"))
    kind = data.get("kind", "path")
    measure = parse_measure(data.get("measure"))

    if kind == "path":
        rule = parse_weight_rule(data.get("weights"))
        return make_path(rule, measure=measure, field=field), config
    if kind == "spherical":
        profile = SphericalProfile(
            b_plus=parse_weight_rule(data.get("weights")),
            sphere_sizes=parse_size_rule(data.get("sphere_sizes")),
            b_minus=(
                parse_weight_rule(data["b_minus"]) if "b_minus" in data else None
            ),
        )
        return make_spherical(profile, measure=measure, field=field), config
    if kind == "explicit":
        vertices = data.get("vertices")
        edges = data.get("edges")
        if not isinstance(vertices, int) or not isinstance(edges, list):
            raise SpecFileError("explicit graphs need integer 'vertices' and an 'edges' list")
        parsed = []
        for entry in edges:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
                raise SpecFileError(f"bad edge entry {entry!r}")
            x, y, literal = entry
            parsed.append((int(x), int(y), field.from_literal(str(literal))))
        return make_explicit(vertices, parsed, measure=measure, field=field), config
    raise SpecFileError(f"unknown graph kind {kind!r}")
