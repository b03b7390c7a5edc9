"""Seeded experiment runner: verify channels, certify witnesses, track
convergence, and exercise the norm machinery from JSON configs.

Every run writes one CSV (sweep rows) and one JSON summary embedding the
config hash and seed; identical config and seed produce byte-identical
CSV output, because each cell draws from its own keyed random stream and
rows are written in key order.  Cells run one after another.

Configs are validated in-package against the one `CONFIG_SCHEMA` dict,
by a validator for the JSON Schema (Draft 2020-12) keywords that the
schema uses; it reports the error that `jsonschema`'s `best_match` would.

Exit codes: 0 success (including not-found witness searches, which are
data not errors), 1 invalid configuration (including a channel spec
that cannot be built, an operator whose blocks do not fit the algebra,
a channel that is not DS+ in `certify`, `converge` or `besicovitch`,
and an element that is not positive for `yeadon` or `hopf`, which need
x >= 0; `lp` certifies any other element through its positive parts,
as `weighted` does), 2 checker discrepancy (a witness that is found but
fails the checker, or whose checker verdict contradicts its own
measured trace defect and sup against its budgets; this must never
happen).
"""

from __future__ import annotations

import argparse
import collections
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import AlgebraSpec, Operator
from .convergence import (NormSpec, au_witness, bau_witness,
                          besicovitch_experiment, condition_iii, trajectory)
from .dynamics import CHANNEL_KINDS, channel_from_spec
from .errors import (AlgebraMismatchError, ChannelConstructionError,
                     ConfigError, NotPositiveError)
from .funcspace import (BOYD_LIMIT_SCALES, boyd_estimate,
                        dilation_norm_estimate)
from .maximal import (CheckerStacks, hopf_witness_commutative,
                      one_sided_witness, weighted_witness,
                      yeadon_witness_search)
from .ncnorms import (lorentz_norm, lp_norm, projection_lorentz_norm,
                      singular_function)
from .rng import derive_seed, random_operator, random_projection, stream
from .util import DEFAULT_TOL, fmt_cell, short_hash
from .weights import WEIGHT_KINDS, WeightSequence

SUBCOMMANDS = ("verify-channel", "certify", "converge", "besicovitch",
               "norms", "boyd")

_COMPLEX = {"type": "array", "items": {"type": "number"},
            "minItems": 2, "maxItems": 2}
_COMPLEX_LIST = {"type": "array", "items": _COMPLEX}
_COUNT = {"type": "integer", "minimum": 1}
# an operator's blocks, each a row-major list of [re, im] pairs
_OPERATOR_SCHEMA = {
    "type": "object",
    "required": ["blocks"],
    "properties": {"blocks": {"type": "array", "items": _COMPLEX_LIST}},
}


def _kind_needs(kind, *fields):
    """Schema clause: an object of this kind must carry these fields."""
    return {"if": {"properties": {"kind": {"const": kind}}},
            "then": {"required": list(fields)}}


_CHANNEL_REF = {"$ref": "#/$defs/channel"}
_CHANNEL_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(CHANNEL_KINDS)},
        "seed": {"type": "integer"},
        "child": _CHANNEL_REF,
        "children": {"type": "array", "items": _CHANNEL_REF},
        "operators": {"type": "array", "items": _OPERATOR_SCHEMA},
        "matrices": _OPERATOR_SCHEMA,
        "factor": _COMPLEX,
        "probabilities": {"type": "array", "items": {"type": "number"}},
        "labels": {"type": "array", "items": {"type": "integer"}},
        "num_ops": _COUNT,
        "num": _COUNT,
        "min_gap": {"type": "number"},
        "margin": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
    },
    # the fields `channel_from_spec` reads for each kind
    "allOf": [_kind_needs("pinching", "labels"),
              # `substochastic` reads a real "matrix", `unitary` an operator
              {"if": {"properties": {"kind": {"const": "unitary"}}},
               "then": {"properties": {"matrix": _OPERATOR_SCHEMA}}},
              _kind_needs("schur", "matrices"),
              _kind_needs("substochastic", "matrix"),
              _kind_needs("kraus", "operators"),
              _kind_needs("convex", "children", "probabilities"),
              _kind_needs("compose", "children"),
              _kind_needs("scaled", "child", "factor")],
}

# the random element kinds, each with the kind of operator it draws
_RANDOM_ELEMENTS = {"random": "general", "random-hermitian": "hermitian",
                    "random-positive": "positive"}
_ELEMENT_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": [*_RANDOM_ELEMENTS, "explicit", "diagonal"]},
        "uniform_norm": {"type": "number", "exclusiveMinimum": 0},
        "operator": _OPERATOR_SCHEMA,
        "values": {"type": "array", "items": {"type": "number"}},
    },
    "allOf": [_kind_needs("explicit", "operator"),
              _kind_needs("diagonal", "values")],
    # only a random element is drawn at a norm
    "dependentSchemas": {"uniform_norm": {
        "properties": {"kind": {"enum": list(_RANDOM_ELEMENTS)}}}},
}

_NORM_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["uniform", "lp", "lorentz", "measure"]},
        "p": {"type": "number", "minimum": 1},
        "q": {"type": "number", "minimum": 1},
    },
    "allOf": [
        _kind_needs("lp", "p"),
        _kind_needs("lorentz", "p", "q"),
        # L_{1,q} with q > 1 is outside the supported Lorentz family
        {"if": {"properties": {"kind": {"const": "lorentz"},
                               "p": {"const": 1}}},
         "then": {"properties": {"q": {"maximum": 1}}}},
    ],
}

_EXPONENT = {"type": "number", "minimum": 1}

_WEIGHTS_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(WEIGHT_KINDS)},
        "period": {**_COMPLEX_LIST, "minItems": 1},
        "poly": {"type": "object",
                 "required": ["coefficients", "frequencies"],
                 "properties": {"coefficients": _COMPLEX_LIST,
                                "frequencies": _COMPLEX_LIST}},
        "decay": _COMPLEX,
        "C": {"type": "number"},
    },
    "allOf": [_kind_needs(kind, field)
              for kind, field in WEIGHT_KINDS.items()] + [
        # a constant weight is a period of one entry
        {"if": {"properties": {"kind": {"const": "constant"}}},
         "then": {"properties": {"period": {"maxItems": 1}}}}],
}

_ALGEBRA_SCHEMA = {
    "type": "object",
    "required": ["blocks"],
    "properties": {
        "blocks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "prefixItems": [{"type": "integer", "minimum": 1},
                                {"type": "number", "exclusiveMinimum": 0}],
                "minItems": 2, "maxItems": 2,
            },
        },
    },
}

# Each certify method on (checker, p, eps_grid); lp checks plain averages.
_CERTIFY_BUILDERS = {
    "yeadon": lambda checker, p, grid: yeadon_witness_search(checker, grid),
    "lp": weighted_witness,
    "weighted": weighted_witness,
    "one-sided": one_sided_witness,
    "hopf": lambda checker, p, grid: hopf_witness_commutative(checker, grid),
}
# The methods that draw a `random` element positive and check it unweighted.
_PLAIN_METHODS = ("yeadon", "lp", "hopf")

CONFIG_SCHEMA = {
    "$defs": {"channel": _CHANNEL_SCHEMA},
    "type": "object",
    "required": ["seed"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "horizon": {"type": "integer", "minimum": 1},
        "algebra": _ALGEBRA_SCHEMA,
        "channel": _CHANNEL_REF,
        "certify": {
            "type": "object",
            "required": ["methods", "eps_grid", "p_grid", "element"],
            "properties": {
                "methods": {"type": "array",
                            "items": {"enum": list(_CERTIFY_BUILDERS)}},
                "eps_grid": {"type": "array",
                             "items": {"type": "number",
                                       "exclusiveMinimum": 0}},
                "p_grid": {"type": "array",
                           "items": {"type": "number", "minimum": 1}},
                "num_seeds": {"type": "integer", "minimum": 0},
                "element": _ELEMENT_SCHEMA,
                "weights": _WEIGHTS_SCHEMA,
            },
        },
        "converge": {
            "type": "object",
            "required": ["element", "norms"],
            "properties": {
                "element": _ELEMENT_SCHEMA,
                "norms": {"type": "array", "items": _NORM_SCHEMA},
                "eps": {"type": "number", "exclusiveMinimum": 0},
                "num_seeds": {"type": "integer", "minimum": 0},
            },
        },
        "besicovitch": {
            "type": "object",
            "required": ["element", "weights", "norms"],
            "properties": {
                "element": _ELEMENT_SCHEMA,
                "weights": _WEIGHTS_SCHEMA,
                "norms": {"type": "array", "items": _NORM_SCHEMA},
            },
        },
        "norms": {
            "type": "object",
            "required": ["num_operators", "p_grid", "pq_grid"],
            "properties": {
                "algebras": {"type": "array", "items": _ALGEBRA_SCHEMA},
                "num_operators": {"type": "integer", "minimum": 0},
                "p_grid": {"type": "array", "items": _EXPONENT},
                "pq_grid": {"type": "array", "items": {
                    "type": "array", "prefixItems": [_EXPONENT, _EXPONENT],
                    "minItems": 2, "maxItems": 2,
                    # as for the Lorentz norms: no (1, q) with q > 1
                    "if": {"prefixItems": [{"const": 1}]},
                    "then": {"prefixItems": [True, {"maximum": 1}]}}},
            },
        },
        "boyd": {
            "type": "object",
            "required": ["targets"],
            "properties": {
                # Boyd indices of the L_p and Lorentz norms only
                "targets": {"type": "array", "items": {
                    "allOf": [_NORM_SCHEMA],
                    "properties": {"kind": {"enum": ["lp", "lorentz"]}}}},
                # factors on both sides of 1, unless empty (the default)
                "s_grid": {"type": "array",
                           "items": {"type": "number",
                                     "exclusiveMinimum": 0},
                           "if": {"minItems": 1},
                           "then": {"allOf": [
                               {"contains": {"exclusiveMaximum": 1}},
                               {"contains": {"exclusiveMinimum": 1}}]}},
            },
        },
    },
}


# ---------------------------------------------------------------------
# Validation against CONFIG_SCHEMA: the Draft 2020-12 keywords it uses,
# each as jsonschema implements it, down to the error messages.  The
# tests check the schema against the metaschema and this validator
# against jsonschema's.
# ---------------------------------------------------------------------

_JSON_TYPES = {"object": dict, "array": list, "number": (int, float),
               "integer": int}


def _has_type(instance, name):
    """JSON Schema's types of a JSON value: a bool is neither a number
    nor an integer, and a float with no fraction, such as 2.0, is an
    integer."""
    if name == "integer" and isinstance(instance, float):
        return instance.is_integer()
    return (isinstance(instance, _JSON_TYPES[name])
            and not isinstance(instance, bool))


def _same(value, constant):
    """`const` and `enum` equality of a value and a scalar constant of
    the schema: True is not 1 and False is not 0."""
    return isinstance(value, bool) == isinstance(constant, bool) \
        and value == constant


def _is_valid(instance, schema):
    """Whether `instance` meets `schema` (for `if` and `contains`)."""
    return next(_schema_errors(instance, schema, ()), None) is None


# keyword -> (the type it constrains, None for any; (its value, the
# instance) -> the messages of its errors)
_ASSERTIONS = {
    "type": (None, lambda name, x: [] if _has_type(x, name)
             else [f"{x!r} is not of type {name!r}"]),
    "required": ("object", lambda names, x: [
        f"{name!r} is a required property" for name in names
        if name not in x]),
    "minItems": ("array", lambda low, x: [
        f"{x!r} should be non-empty" if low == 1 else f"{x!r} is too short"]
        if len(x) < low else []),
    "maxItems": ("array", lambda high, x: [
        f"{x!r} is expected to be empty" if high == 0
        else f"{x!r} is too long"] if len(x) > high else []),
    "minimum": ("number", lambda low, x: [
        f"{x!r} is less than the minimum of {low!r}"] if x < low else []),
    "maximum": ("number", lambda high, x: [
        f"{x!r} is greater than the maximum of {high!r}"]
        if x > high else []),
    "exclusiveMinimum": ("number", lambda low, x: [
        f"{x!r} is less than or equal to the minimum of {low!r}"]
        if x <= low else []),
    "exclusiveMaximum": ("number", lambda high, x: [
        f"{x!r} is greater than or equal to the maximum of {high!r}"]
        if x >= high else []),
    "const": (None, lambda constant, x: [] if _same(x, constant)
              else [f"{constant!r} was expected"]),
    "enum": (None, lambda constants, x: [] if any(
        _same(x, constant) for constant in constants)
        else [f"{x!r} is not one of {constants!r}"]),
    "contains": ("array", lambda sub, x: [] if any(
        _is_valid(item, sub) for item in x)
        else [f"{x!r} does not contain items matching the given schema"]),
}

# keyword -> (the type it applies to, None for any; (its value, the
# instance, its schema, the instance's path) -> the (instance, schema,
# path) triples to validate in its place)
_APPLICATORS = {
    "properties": ("object", lambda subs, x, schema, path: [
        (x[name], sub, path + (name,)) for name, sub in subs.items()
        if name in x]),
    "items": ("array", lambda sub, x, schema, path: [
        (x[index], sub, path + (index,))
        for index in range(len(schema.get("prefixItems", ())), len(x))]),
    "prefixItems": ("array", lambda subs, x, schema, path: [
        (item, sub, path + (index,))
        for index, (item, sub) in enumerate(zip(x, subs))]),
    "allOf": (None, lambda subs, x, schema, path: [
        (x, sub, path) for sub in subs]),
    "if": (None, lambda test, x, schema, path: [(x, schema["then"], path)]
           if "then" in schema and _is_valid(x, test) else []),
    "dependentSchemas": ("object", lambda subs, x, schema, path: [
        (x, sub, path) for name, sub in subs.items() if name in x]),
    # only references into CONFIG_SCHEMA's own $defs
    "$ref": (None, lambda ref, x, schema, path: [
        (x, CONFIG_SCHEMA["$defs"][ref.removeprefix("#/$defs/")], path)]),
}
# read by `$ref` and `if`
_READ_BY_OTHERS = {"$defs", "then"}


def _schema_errors(instance, schema, path):
    """Each way `instance`, at `path` in the config, fails `schema`, as
    (path, mismatch, message), in the order of jsonschema's validator:
    keywords in the order the schema lists them, an applicator's
    subschemas validated where it meets them.  `mismatch` is set when
    the instance lacks the type that the failing keyword's own schema
    names.  A keyword not implemented here raises, so that no schema
    edit goes unchecked."""
    if isinstance(schema, bool):
        if not schema:
            yield path, True, f"False schema does not allow {instance!r}"
        return
    mismatch = "type" not in schema or not _has_type(instance,
                                                     schema["type"])
    for keyword, value in schema.items():
        if keyword in _ASSERTIONS:
            kind, check = _ASSERTIONS[keyword]
            if kind is None or _has_type(instance, kind):
                for message in check(value, instance):
                    yield path, mismatch, message
        elif keyword in _APPLICATORS:
            kind, apply = _APPLICATORS[keyword]
            if kind is None or _has_type(instance, kind):
                for sub in apply(value, instance, schema, path):
                    yield from _schema_errors(*sub)
        elif keyword not in _READ_BY_OTHERS:
            raise NotImplementedError(
                f"config schema keyword {keyword!r} is not implemented")


def _config_error(config):
    """(JSON path, message) of the error that `jsonschema`'s `best_match`
    picks for a schema without `anyOf` or `oneOf`, or None for a valid
    config.  Its relevance key prefers the shallowest path, then the
    greatest path, then an error whose schema's type the instance
    lacks; `max` keeps the first of equals, as `best_match` does."""
    error = max(_schema_errors(config, CONFIG_SCHEMA, ()), default=None,
                key=lambda found: (-len(found[0]), found[0], found[1]))
    if error is None:
        return None
    path, _, message = error
    return "$" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                         for key in path), message


_SECTION_NEEDS = {
    "verify-channel": ("algebra", "channel"),
    "certify": ("algebra", "channel", "certify"),
    "converge": ("algebra", "channel", "converge"),
    "besicovitch": ("algebra", "channel", "besicovitch"),
    "norms": ("norms",),
    "boyd": ("boyd",),
}


def _reject_non_finite(name):
    # Python's json reads NaN and +-Infinity, which JSON itself lacks
    raise ConfigError(f"config holds the non-finite number {name}")


def load_config(path, subcommand, seed_override=None, horizon_override=None):
    try:
        with open(path) as fh:
            config = json.load(fh, parse_constant=_reject_non_finite)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    # overrides go through the schema too; a non-object config fails it
    for key, value in (("seed", seed_override), ("horizon", horizon_override)):
        if value is not None and isinstance(config, dict):
            config[key] = value
    error = _config_error(config)
    if error is not None:
        raise ConfigError("config does not validate at %s: %s" % error)
    for section in _SECTION_NEEDS[subcommand]:
        if section not in config:
            raise ConfigError(
                f"subcommand {subcommand!r} needs a {section!r} section")
    if subcommand == "norms" and "algebras" not in config["norms"] \
            and "algebra" not in config:
        raise ConfigError("subcommand 'norms' needs 'norms.algebras' or "
                          "an 'algebra' section")
    # method preconditions that span several fields
    certify = config["certify"] if subcommand == "certify" else None
    if certify and "one-sided" in certify["methods"] \
            and min(certify["p_grid"], default=2) < 2:
        raise ConfigError("method 'one-sided' needs every p in p_grid "
                          "to be >= 2")
    if certify and "hopf" in certify["methods"] \
            and not AlgebraSpec.from_json(config["algebra"]).is_diagonal:
        raise ConfigError("method 'hopf' needs a diagonal algebra")
    config.setdefault("horizon", 512)
    return config


def element_from_spec(algebra: AlgebraSpec, spec, rng) -> Operator:
    kind = spec["kind"]
    if kind == "explicit":
        return Operator.from_json(algebra, spec["operator"])
    if kind == "diagonal":
        return algebra.diagonal(spec["values"])
    return random_operator(algebra, rng, kind=_RANDOM_ELEMENTS[kind],
                           uniform_norm=spec.get("uniform_norm"))


def _norm_specs(items):
    """The gauges of a norms list; a label keys both the residuals and
    the CSV column, so no label may repeat."""
    specs = [NormSpec.from_json(item) for item in items]
    labels = [spec.label for spec in specs]
    for label in labels:
        if labels.count(label) > 1:
            raise ConfigError(f"norms: the label {label!r} is listed twice")
    return specs


def _ds_plus_channel(algebra, spec, run_seed):
    """The channel of `spec`, refused unless `verify_ds` certified it DS+,
    the one class of maps the ergodic theorems cover; every failed
    condition is named with its value."""
    channel = channel_from_spec(algebra, spec, run_seed=run_seed)
    report = channel.verification
    failed = []
    if not report.positive:
        failed.append(f"positive (evidence {report.evidence})")
    if not report.subunital:
        failed.append(f"subunital_value {report.subunital_value:.6g} > 1")
    if not report.trace_nonincreasing:
        failed.append(
            f"adjoint_unit_value {report.adjoint_unit_value:.6g} > 1")
    if failed:
        raise ConfigError(f"channel {channel.kind!r} is not DS+: "
                          + "; ".join(failed))
    return channel


def _weights_from(config_section):
    try:
        return WeightSequence.from_json(config_section)
    except ValueError as exc:  # a WeightBoundError or a bad frequency
        raise ConfigError(f"weights: {exc}") from exc


# ---------------------------------------------------------------------
# Subcommand runners.  Each returns (header, rows, summary).
# ---------------------------------------------------------------------

_BASE_COLUMNS = ["seed", "algebra", "channel", "p", "q", "eps", "horizon"]


def _base(config, algebra, channel_kind, p="", q="", eps=""):
    return [config["seed"], algebra.content_hash() if algebra else "",
            channel_kind, p, q, eps, config["horizon"]]


def run_verify_channel(config):
    algebra = AlgebraSpec.from_json(config["algebra"])
    channel = channel_from_spec(algebra, config["channel"], config["seed"])
    report = channel.verification
    header = _BASE_COLUMNS + ["positive", "positivity_evidence",
                              "subunital_value", "adjoint_unit_value",
                              "subunital", "trace_nonincreasing",
                              "is_ds_plus"]
    row = _base(config, algebra, channel.kind) + [
        report.positive, report.evidence,
        report.subunital_value, report.adjoint_unit_value,
        report.subunital, report.trace_nonincreasing, report.is_ds_plus]
    summary = {"verification": {
        "positive": report.positive,
        "positivity_evidence": report.evidence,
        "choi_min_eigenvalue": report.choi_min_eigenvalue,
        "subunital": report.subunital,
        "subunital_value": report.subunital_value,
        "trace_nonincreasing": report.trace_nonincreasing,
        "adjoint_unit_value": report.adjoint_unit_value,
        "is_ds_plus": report.is_ds_plus,
    }}
    return header, [row], summary, 0


def _certify_task(config, algebra, checker, eps_grid, method, p, seed_idx):
    """One witness search over the whole eps grid for one (method, p,
    seed_idx) on `checker`; returns one (row, discrepancy, won_by) per eps,
    won_by the method label of a found witness and None if none was."""
    try:
        results = _CERTIFY_BUILDERS[method](checker, p, eps_grid)
    except NotPositiveError as exc:
        raise ConfigError(f"method {method!r}: {exc}") from exc
    cells = []
    for eps, report in zip(eps_grid, results):
        # the builders ran the independent checker already; a found witness
        # it rejects, or a verdict its measurements contradict, is wrong
        discrepancy = (report.found and not report.checker_passed
                       or report.checker_passed != report.within_budgets())
        row = _base(config, algebra, checker.channel.kind, p=p, eps=eps) + [
            seed_idx, method, report.found, report.trace_defect,
            report.trace_budget, report.trace_ratio, report.sup_compression,
            report.sup_budget, report.sup_ratio, report.checker_passed,
            report.weight_bound]
        cells.append((row, discrepancy,
                      report.method if report.found else None))
    return cells


def run_certify(config):
    algebra = AlgebraSpec.from_json(config["algebra"])
    section = config["certify"]
    beta = _weights_from(section["weights"]) if "weights" in section else None
    eps_grid = [float(eps) for eps in section["eps_grid"]]
    p_grid = [float(p) for p in section["p_grid"]]
    pairs = [(method, p) for method in section["methods"] for p in p_grid]
    # an empty eps grid has no cells, so nothing to search
    seeds = range(section.get("num_seeds", 1)) if eps_grid and pairs else []
    if not seeds:  # a run without cells still gates the channel of cell 0
        _ds_plus_channel(algebra, config["channel"],
                         derive_seed(config["seed"], "cell", 0))
    # the methods that check one element under one weight share a checker;
    # a group is keyed by the weight its checker holds, so a unit weight
    # at bound 1 checks with the plain methods
    groups = {}  # (element kind, checked weight) -> (weight, methods)
    for method in section["methods"]:
        kind, weight = section["element"]["kind"], beta
        if method in _PLAIN_METHODS:
            weight = None
            if kind == "random":
                kind = "random-positive"  # these constructions need x >= 0
        key = (kind, CheckerStacks.checked_weight(weight))
        groups.setdefault(key, (weight, []))[1].append(method)
    by_task = {}
    for seed_idx in seeds:
        channel = _ds_plus_channel(algebra, config["channel"], derive_seed(
            config["seed"], "cell", seed_idx))
        for (kind, _), (weight, methods) in groups.items():
            x = element_from_spec(algebra, dict(section["element"], kind=kind),
                                  stream(config["seed"], "element", seed_idx))
            # its stacks are freed when the next group's checker replaces it
            checker = CheckerStacks(channel, x, config["horizon"], weight)
            for task in [(m, p, seed_idx) for m in methods for p in p_grid]:
                by_task[task] = _certify_task(config, algebra, checker,
                                              eps_grid, *task)
    # rows in (method, p, eps, seed_idx) order
    results = [by_task[m, p, s][k] for m, p in pairs
               for k in range(len(eps_grid)) for s in seeds]

    header = _BASE_COLUMNS + ["cell", "method", "found", "trace_defect",
                              "trace_budget", "trace_ratio", "sup_value",
                              "sup_budget", "sup_ratio", "checker_passed",
                              "weight_bound"]
    rows = [r for r, _, _ in results]
    discrepancies = sum(1 for _, d, _ in results if d)
    # found cells per winning strategy, e.g. "floor" or "weighted[identity]"
    won_by = collections.Counter(won for _, _, won in results if won)
    found = sum(won_by.values())
    summary = {"cells": len(results), "found": found,
               "not_found": len(results) - found,
               "checker_discrepancies": discrepancies,
               "won_by": dict(won_by)}
    return header, rows, summary, (2 if discrepancies else 0)


def _trajectory_rows(config, algebra, channel, cell, report, norms):
    """One CSV row per scheduled n of a trajectory: the base columns, the
    cell, n and the residual in each norm."""
    return [_base(config, algebra, channel.kind) + [cell, n]
            + [report.residuals[spec.label][i] for spec in norms]
            for i, n in enumerate(report.schedule)]


def _witness_json(witness):
    return {"trace_defect": witness.trace_defect,
            "final_profile": witness.profile[-1],
            "profile": witness.profile}


def run_converge(config):
    algebra = AlgebraSpec.from_json(config["algebra"])
    section = config["converge"]
    norms = _norm_specs(section["norms"])
    eps = section.get("eps", 0.05)
    horizon = config["horizon"]
    seed = config["seed"]
    cells = list(range(section.get("num_seeds", 1)))
    if not cells:  # no cell builds a channel; gate that of cell 0
        _ds_plus_channel(algebra, config["channel"],
                         derive_seed(seed, "cell", 0))

    rows, cell_summaries = [], []
    for seed_idx in cells:
        channel = _ds_plus_channel(algebra, config["channel"],
                                   derive_seed(seed, "cell", seed_idx))
        rng = stream(seed, "element", seed_idx)
        x = element_from_spec(algebra, section["element"], rng)
        report = trajectory(channel, x, horizon, norms)
        au = au_witness(report, eps)
        bau = bau_witness(report, eps)
        rows += _trajectory_rows(config, algebra, channel, seed_idx, report,
                                 norms)
        cell_summaries.append({
            "cell": seed_idx,
            "spectral_gap": channel.spectral_gap(),
            "fixed_space_dim": channel.eigenspace_dim(),
            "spectral_radius_bound": channel.spectral_radius_bound,
            "spectrum": channel.spectrum,
            "mean_convergence": report.verdicts,
            "au": _witness_json(au),
            "bau": _witness_json(bau),
        })

    header = _BASE_COLUMNS + ["cell", "n"] + \
        [f"res_{spec.label}" for spec in norms]
    # condition (iii) depends on the norm only, not on the cell
    reports = {spec.label: condition_iii(spec) for spec in norms}
    summary = {"cells": cell_summaries, "eps": eps,
               "condition_iii": {label: asdict(r) for label, r
                                 in reports.items() if r is not None}}
    return header, rows, summary, 0


def run_besicovitch(config):
    algebra = AlgebraSpec.from_json(config["algebra"])
    section = config["besicovitch"]
    norms = _norm_specs(section["norms"])
    beta = _weights_from(section["weights"])
    horizon = config["horizon"]
    channel = _ds_plus_channel(algebra, config["channel"], config["seed"])
    rng = stream(config["seed"], "element", 0)
    x = element_from_spec(algebra, section["element"], rng)
    report = besicovitch_experiment(channel, x, beta, horizon, norms)

    header = _BASE_COLUMNS + ["cell", "n"] + \
        [f"res_{spec.label}" for spec in norms] + \
        [f"cauchy_{label}" for label in report.cauchy]
    rows = _trajectory_rows(config, algebra, channel, 0, report.trajectory,
                            norms)
    for i, row in enumerate(rows):
        row += [distances[i - 1] if i else ""
                for distances in report.cauchy.values()]
    summary = {
        # the limits are exact Cesaro limits; recorded summaries hold the key
        "limit_exact": True,
        "certificate_ok": report.certificate_ok,
        "weight_bound": beta.bound,
        "witness": _witness_json(report.witness),
        "final_residuals": {label: residuals[-1] for label, residuals
                            in report.trajectory.residuals.items()},
        "mean_convergence": report.trajectory.verdicts,
        "spectrum": channel.spectrum,
    }
    return header, rows, summary, 0


def run_norms(config):
    """Norm identity battery over seeded random operators."""
    section = config["norms"]
    seed = config["seed"]
    algebras = [AlgebraSpec.from_json(a) for a in
                section.get("algebras", [config.get("algebra")])]
    count = section["num_operators"]
    p_grid = [float(p) for p in section["p_grid"]]
    pq_grid = [(float(p), float(q)) for p, q in section["pq_grid"]]

    header = _BASE_COLUMNS + ["cell", "check", "value_a", "value_b",
                              "difference", "passed"]
    rows = []
    all_green = True
    for ai, algebra in enumerate(algebras):
        for j in range(count):
            rng = stream(seed, "norms", ai, j)
            x = random_operator(algebra, rng)
            sf = singular_function(x)
            cell = f"{ai}:{j}"

            def emit(check, a, b, p="", q=""):
                nonlocal all_green
                diff = abs(a - b)
                ok = diff <= 1e-10
                all_green = all_green and ok
                rows.append(_base(config, algebra, "", p=p, q=q)
                            + [cell, check, a, b, diff, ok])

            for p in p_grid:
                emit("lp_trace_vs_mu", lp_norm(x, p), sf.lp_norm(p), p=p)
                emit("lorentz_pp_vs_lp", lorentz_norm(x, p, p),
                     lp_norm(x, p), p=p, q=p)
            for p, q in pq_grid:
                e = random_projection(algebra, rng)
                emit("projection_closed_form",
                     projection_lorentz_norm(e.trace(), p, q),
                     lorentz_norm(e.operator, p, q), p=p, q=q)
            emit("adjoint_invariance", lp_norm(x, 2),
                 lp_norm(x.adjoint(), 2), p=2)
    summary = {"all_green": all_green, "rows": len(rows)}
    return header, rows, summary, 0


def run_boyd(config):
    section = config["boyd"]
    s_grid = section.get("s_grid")
    header = _BASE_COLUMNS + ["target", "s", "dilation_norm",
                              "p_estimate", "q_estimate", "within_5pct"]
    rows = []
    results = []
    for target in section["targets"]:
        spec = NormSpec.from_json(target)
        p, q = spec.p, spec.q
        grid = sorted(float(s) for s in (s_grid or BOYD_LIMIT_SCALES))
        for s in grid:
            rows.append(_base(config, None, "", p=p, q=q or "")
                        + [spec.label, s, dilation_norm_estimate(s, p, q),
                           "", "", ""])
        p_est, q_est = boyd_estimate(p, q, grid)
        ok = abs(p_est - p) <= 0.05 * p and abs(q_est - p) <= 0.05 * p
        rows.append(_base(config, None, "", p=p, q=q or "")
                    + [spec.label, "", "", p_est, q_est, ok])
        results.append({"target": spec.label, "p_estimate": p_est,
                        "q_estimate": q_est, "within_5pct": ok})
    summary = {"targets": results}
    return header, rows, summary, 0


_RUNNERS = {
    "verify-channel": run_verify_channel,
    "certify": run_certify,
    "converge": run_converge,
    "besicovitch": run_besicovitch,
    "norms": run_norms,
    "boyd": run_boyd,
}


def _write_outputs(out_dir, subcommand, config, header, rows, summary):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{subcommand}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_cell(v) for v in row])
    json_path = out_dir / f"{subcommand}.json"
    payload = {
        "subcommand": subcommand,
        "version": __version__,
        "seed": config["seed"],
        "horizon": config.get("horizon"),
        "config_hash": short_hash(config),
        "provenance": {"tol": DEFAULT_TOL, "numpy": np.__version__},
        "summary": summary,
    }
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncergodic",
        description="Ergodic-average experiments on finite tracial algebras")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--horizon", type=int, default=None,
                        help="override the config horizon")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.subcommand,
                             args.seed, args.horizon)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        header, rows, summary, code = _RUNNERS[args.subcommand](config)
    except (ConfigError, ChannelConstructionError,
            AlgebraMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    csv_path, json_path = _write_outputs(args.out, args.subcommand, config,
                                         header, rows, summary)
    print(f"{args.subcommand}: {len(rows)} rows -> {csv_path}")
    print(f"summary -> {json_path}")
    if code == 2:
        print("error: checker discrepancy detected", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
