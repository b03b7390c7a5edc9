"""The CLI's in-package config validator against jsonschema's Draft
2020-12 validator, its reference.

On every input both must report the same errors in the same order, and
`cli._config_error` must pick the error that `jsonschema`'s `best_match`
picks, with the same JSON path and message.  The inputs are the bundled
fixtures, the benchmark's workload configs, the malformed and override
cases of `test_cli` and random mutations of all of these.  The
validator implements exactly the keywords that `CONFIG_SCHEMA` uses.
"""

import copy
import json
import re

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncergodic import cli
from test_cli import FIXTURES, MALFORMED, OVERRIDES, malformed_config

REFERENCE = jsonschema.Draft202012Validator(cli.CONFIG_SCHEMA)
# keywords whose value maps names (of properties or $defs) to subschemas
NAME_MAPS = {"properties", "$defs", "dependentSchemas"}


def assert_agrees(config):
    ours = [(path, message) for path, _, message
            in cli._schema_errors(config, cli.CONFIG_SCHEMA, ())]
    assert ours == [(tuple(error.absolute_path), error.message)
                    for error in REFERENCE.iter_errors(config)]
    best = jsonschema.exceptions.best_match(REFERENCE.iter_errors(config))
    assert cli._config_error(config) == (
        None if best is None else (best.json_path, best.message))


def schema_keywords(schema):
    """(keyword, value) of every keyword in `schema` and its subschemas;
    the names in a properties, $defs or dependentSchemas map are not
    keywords."""
    if not isinstance(schema, dict):
        return
    for keyword, value in schema.items():
        yield keyword, value
        if keyword in NAME_MAPS:
            subschemas = list(value.values())
        elif isinstance(value, list):
            subschemas = value
        else:
            subschemas = [value]
        for sub in subschemas:
            yield from schema_keywords(sub)


def test_schema_keywords_skip_names():
    schema = {"properties": {"type": {"minimum": 1}},
              "allOf": [{"required": ["enum"]}], "if": True}
    assert [k for k, _ in schema_keywords(schema)] == [
        "properties", "minimum", "allOf", "required", "if"]


def test_validator_implements_the_schema_keywords():
    used = {keyword for keyword, _ in schema_keywords(cli.CONFIG_SCHEMA)}
    implemented = (set(cli._ASSERTIONS) | set(cli._APPLICATORS)
                   | cli._READ_BY_OTHERS)
    assert used == implemented
    assert len(used) == 20


def test_property_names_give_dotted_json_paths():
    # the JSON paths are written `$.a.b[0]`, which is jsonschema's form
    # for property names like these
    names = [name for keyword, value in schema_keywords(cli.CONFIG_SCHEMA)
             if keyword == "properties" for name in value]
    assert all(re.fullmatch("[a-zA-Z][a-zA-Z0-9_]*", name) for name in names)


@pytest.mark.parametrize("schema", [{"minProperties": 1},
                                    {"allOf": [{"else": {}}]}])
def test_unimplemented_keyword_raises(schema):
    with pytest.raises(NotImplementedError, match="is not implemented"):
        list(cli._schema_errors({}, schema, ()))


def test_boolean_schemas():
    assert list(cli._schema_errors(3, True, ())) == []
    assert list(cli._schema_errors(3, False, ("seed",))) == [
        (("seed",), True, "False schema does not allow 3")]


def base_configs(workloads):
    """The bundled fixtures and the benchmark's workload configs."""
    configs = [json.loads((FIXTURES / f"{name}.json").read_text())
               for name in sorted(workloads.FIXTURES)]
    return configs + [build() for _, build in workloads.WORKLOADS.values()]


def override_configs():
    """The configs of OVERRIDES, with the override applied as
    `load_config` applies it."""
    for _, fixture, (flag, value), _ in OVERRIDES:
        if fixture is None:
            yield []
        else:
            config = json.loads((FIXTURES / f"{fixture}.json").read_text())
            config[flag.removeprefix("--")] = int(value)
            yield config


# JSON Schema's edge cases: bools are not numbers, 2.0 is an integer and
# const 1 does not match True
EDGE_CONFIGS = [
    {"seed": True}, {"seed": 2.0}, {"seed": 2.5}, {"seed": "3"},
    {"seed": 1, "converge": {"element": {"kind": "random"}, "norms": [
        {"kind": "lorentz", "p": True, "q": 2}]}},
    {"seed": 1, "converge": {"element": {"kind": "random"}, "norms": [
        {"kind": "lorentz", "p": 1.0, "q": 2}]}},
    {"seed": 1, "norms": {"num_operators": 1, "p_grid": [],
                          "pq_grid": [[True, 2], [1, 2], [1.0, 3]]}},
    {"seed": 1, "channel": {"kind": True}},
    {"seed": 1, "boyd": {"targets": [], "s_grid": [1, 1.0]}},
]


def test_agrees_on_fixed_cases(workloads):
    configs = (base_configs(workloads) + list(override_configs())
               + [malformed_config(name)[1] for name in sorted(MALFORMED)]
               + EDGE_CONFIGS)
    assert len(configs) == 7 + len(OVERRIDES) + len(MALFORMED) + 9
    for config in configs:
        assert_agrees(config)


def _bounds(schema):
    """Every number a schema compares with, and every constant it
    lists."""
    numbers, constants = set(), set()
    for keyword, value in schema_keywords(schema):
        if keyword in ("minimum", "maximum", "exclusiveMinimum",
                       "exclusiveMaximum"):
            numbers.add(value)
        elif keyword == "const":
            constants.add(value)
        elif keyword == "enum":
            constants.update(value)
    return numbers, constants


NUMBERS, CONSTANTS = _bounds(cli.CONFIG_SCHEMA)
# a value at each bound and past it on either side, and values of every
# other JSON type, bools and integral floats among them
VALUES = sorted({b + d for b in NUMBERS for d in (-1, -0.5, 0, 0.5, 1)}
                | {float(b) for b in NUMBERS}) + [
    True, False, 2.0, None, "x", [], {}, [[1, 0]], [1, 2], {"kind": "warp"}]
KINDS = sorted(c for c in CONSTANTS if isinstance(c, str)) + ["warp"]


def nest(value, how):
    """`value` as the child, or the only child, of a channel."""
    if how == "child":
        return {"kind": "scaled", "child": value, "factor": [0.5, 0]}
    return {"kind": how, "children": [value], "probabilities": [1.0]}


@st.composite
def mutated(draw, configs):
    """A config with one or two fields mutated: dropped, replaced by a
    value of another type or at or past a bound, its `kind` changed or
    added, or nested inside a channel."""
    config = {"root": copy.deepcopy(draw(st.sampled_from(configs)))}
    for _ in range(draw(st.integers(1, 2))):
        parent, key = config, "root"
        for _ in range(draw(st.integers(0, 7))):
            node = parent[key]
            if not isinstance(node, (dict, list)) or not node:
                break
            parent, key = node, draw(st.sampled_from(
                list(node) if isinstance(node, dict) else range(len(node))))
        how = draw(st.sampled_from(["drop", "replace", "kind", "nest"]))
        if how == "drop" and parent is not config:
            del parent[key]
        elif how == "kind" and isinstance(parent[key], dict):
            parent[key]["kind"] = draw(st.sampled_from(KINDS))
        elif how == "nest":
            parent[key] = nest(parent[key], draw(st.sampled_from(
                ["child", "convex", "compose"])))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    return config["root"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_agrees_on_mutations(workloads, data):
    assert_agrees(data.draw(mutated(base_configs(workloads))))
