"""Seeded experiment runner: verify channels, certify witnesses, track
convergence, and exercise the norm machinery from JSON configs.

Every run writes one CSV (sweep rows) and one JSON summary embedding the
config hash and seed; identical config and seed produce byte-identical
CSV output regardless of the --jobs setting, because cells are keyed,
computed independently and written in key order.

Exit codes: 0 success (including not-found witness searches, which are
data not errors), 1 invalid configuration (including a channel spec
that cannot be built), 2 checker discrepancy (a witness whose checker
verdict contradicts its own measured trace defect and sup against its
budgets; this must never happen).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import jsonschema

from . import __version__
from .algebra import AlgebraSpec, Operator
from .convergence import (NormSpec, au_witness, bau_witness,
                          besicovitch_experiment, condition_iii, trajectory)
from .dynamics import CHANNEL_KINDS, channel_from_spec, verify_ds
from .errors import ChannelConstructionError, ConfigError
from .funcspace import boyd_estimate, dilation_norm_estimate
from .maximal import (hopf_witness_commutative, is_found, lp_witness,
                      one_sided_witness, weighted_witness,
                      yeadon_witness_search)
from .ncnorms import (lorentz_norm, lp_norm, projection_lorentz_norm,
                      singular_function, submajorizes)
from .rng import derive_seed, random_operator, random_projection, stream
from .util import fmt_cell, short_hash
from .weights import WEIGHT_KINDS, WeightSequence

SUBCOMMANDS = ("verify-channel", "certify", "converge", "besicovitch",
               "norms", "boyd")

_OPERATOR_SCHEMA = {
    "type": "object",
    "required": ["blocks"],
    "properties": {"blocks": {"type": "array"}},
}

_CHANNEL_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(CHANNEL_KINDS)},
        "seed": {"type": "integer"},
    },
}


def _kind_needs(kind, *fields):
    """Schema clause: an object of this kind must carry these fields."""
    return {"if": {"properties": {"kind": {"const": kind}}},
            "then": {"required": list(fields)}}


_ELEMENT_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["random", "random-hermitian", "random-positive",
                          "explicit", "diagonal"]},
        "uniform_norm": {"type": "number", "exclusiveMinimum": 0},
        "operator": _OPERATOR_SCHEMA,
        "values": {"type": "array", "items": {"type": "number"}},
    },
    "allOf": [_kind_needs("explicit", "operator"),
              _kind_needs("diagonal", "values")],
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

_COMPLEX = {"type": "array", "items": {"type": "number"},
            "minItems": 2, "maxItems": 2}
_COMPLEX_LIST = {"type": "array", "items": _COMPLEX}

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
              for kind, field in WEIGHT_KINDS.items()],
}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["seed"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "horizon": {"type": "integer", "minimum": 1},
        "algebra": {
            "type": "object",
            "required": ["blocks"],
            "properties": {
                "blocks": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "array",
                        "prefixItems": [{"type": "integer", "minimum": 1},
                                        {"type": "number",
                                         "exclusiveMinimum": 0}],
                        "minItems": 2, "maxItems": 2,
                    },
                },
            },
        },
        "channel": _CHANNEL_SCHEMA,
        "certify": {
            "type": "object",
            "required": ["methods", "eps_grid", "p_grid", "element"],
            "properties": {
                "methods": {"type": "array",
                            "items": {"enum": ["yeadon", "lp", "weighted",
                                               "one-sided", "hopf"]}},
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
                "algebras": {"type": "array"},
                "num_operators": {"type": "integer", "minimum": 0},
                "p_grid": {"type": "array"},
                "pq_grid": {"type": "array"},
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
                "s_grid": {"type": "array",
                           "items": {"type": "number",
                                     "exclusiveMinimum": 0}},
            },
        },
    },
}
# The tests check the constant schema; a run validates only the config.
_CONFIG_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)

_SECTION_NEEDS = {
    "verify-channel": ("algebra", "channel"),
    "certify": ("algebra", "channel", "certify"),
    "converge": ("algebra", "channel", "converge"),
    "besicovitch": ("algebra", "channel", "besicovitch"),
    "norms": ("norms",),
    "boyd": ("boyd",),
}


def load_config(path, subcommand, seed_override=None, horizon_override=None):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    error = jsonschema.exceptions.best_match(
        _CONFIG_VALIDATOR.iter_errors(config))
    if error is not None:
        raise ConfigError(f"config does not validate: {error.message}")
    for section in _SECTION_NEEDS[subcommand]:
        if section not in config:
            raise ConfigError(
                f"subcommand {subcommand!r} needs a {section!r} section")
    # method preconditions that span several fields
    certify = config["certify"] if subcommand == "certify" else None
    if certify and "one-sided" in certify["methods"] \
            and min(certify["p_grid"], default=2) < 2:
        raise ConfigError("method 'one-sided' needs every p in p_grid "
                          "to be >= 2")
    if certify and "hopf" in certify["methods"] \
            and not AlgebraSpec.from_json(config["algebra"]).is_diagonal:
        raise ConfigError("method 'hopf' needs a diagonal algebra")
    if seed_override is not None:
        config["seed"] = seed_override
    if horizon_override is not None:
        config["horizon"] = horizon_override
    config.setdefault("horizon", 512)
    return config


def element_from_spec(algebra: AlgebraSpec, spec, rng) -> Operator:
    kind = spec["kind"]
    if kind == "explicit":
        return Operator.from_json(algebra, spec["operator"])
    if kind == "diagonal":
        return algebra.diagonal(spec["values"])
    kinds = {"random": "general", "random-hermitian": "hermitian",
             "random-positive": "positive"}
    if kind not in kinds:
        raise ConfigError(f"unknown element kind {kind!r}")
    return random_operator(algebra, rng, kind=kinds[kind],
                           uniform_norm=spec.get("uniform_norm"))


def _norm_specs(items):
    return [NormSpec.from_json(item) for item in items]


def _weights_from(config_section):
    if config_section is None:
        return WeightSequence.constant(1.0)
    return WeightSequence.from_json(config_section)


# ---------------------------------------------------------------------
# Subcommand runners.  Each returns (header, rows, summary).
# ---------------------------------------------------------------------

_BASE_COLUMNS = ["seed", "algebra", "channel", "p", "q", "eps", "horizon"]


def _base(config, algebra, channel_kind, p="", q="", eps=""):
    return [config["seed"], algebra.content_hash() if algebra else "",
            channel_kind, p, q, eps, config["horizon"]]


def run_verify_channel(config, jobs):
    algebra = AlgebraSpec.from_json(config["algebra"])
    channel = channel_from_spec(algebra, config["channel"], config["seed"])
    report = verify_ds(channel)
    header = _BASE_COLUMNS + ["positive", "positivity_evidence",
                              "subunital_value", "adjoint_unit_value",
                              "subunital", "trace_nonincreasing",
                              "is_ds_plus"]
    row = _base(config, algebra, channel.kind) + [
        report.positive, report.positivity_evidence,
        report.subunital_value, report.adjoint_unit_value,
        report.subunital, report.trace_nonincreasing, report.is_ds_plus]
    summary = {"verification": {
        "positive": report.positive,
        "subunital": report.subunital,
        "subunital_value": report.subunital_value,
        "trace_nonincreasing": report.trace_nonincreasing,
        "adjoint_unit_value": report.adjoint_unit_value,
        "is_ds_plus": report.is_ds_plus,
    }}
    return header, [row], summary, 0


_CERTIFY_BUILDERS = {
    "yeadon": lambda ch, x, p, beta, eps, n: yeadon_witness_search(ch, x, eps, n),
    "hopf": lambda ch, x, p, beta, eps, n: hopf_witness_commutative(ch, x, eps, n),
    "lp": lambda ch, x, p, beta, eps, n: lp_witness(ch, x, p, eps, n),
    "weighted": lambda ch, x, p, beta, eps, n: weighted_witness(ch, x, p, beta, eps, n),
    "one-sided": lambda ch, x, p, beta, eps, n: one_sided_witness(ch, x, p, beta, eps, n),
}


def _certify_cell(config, algebra, channel, cell):
    method, p, eps, seed_idx = cell
    seed = config["seed"]
    horizon = config["horizon"]
    section = config["certify"]
    rng = stream(seed, "element", seed_idx)
    spec = dict(section["element"])
    if method in ("yeadon", "hopf", "lp") and spec["kind"] == "random":
        spec["kind"] = "random-positive"  # these constructions need x >= 0
    x = element_from_spec(algebra, spec, rng)
    beta = _weights_from(section.get("weights"))

    result = _CERTIFY_BUILDERS[method](channel, x, p, beta, eps, horizon)
    found = is_found(result)
    report = result if found else result.best_candidate
    # the builders ran the independent checker already; a verdict that
    # its own measurements contradict is a discrepancy
    discrepancy = (report is not None
                   and report.checker_passed != report.within_budgets())

    row_tail = [method, found]
    if report is not None:
        row_tail += [report.trace_defect, report.trace_budget,
                     report.trace_ratio, report.sup_compression,
                     report.sup_budget, report.sup_ratio,
                     report.checker_passed, report.weight_bound]
    else:
        row_tail += ["", "", "", "", "", "", False, beta.bound]
    row = _base(config, algebra, channel.kind, p=p, q="", eps=eps) + \
        [seed_idx] + row_tail
    return row, discrepancy, found


def run_certify(config, jobs):
    algebra = AlgebraSpec.from_json(config["algebra"])
    section = config["certify"]
    cells = []
    for method in section["methods"]:
        for p in section["p_grid"]:
            for eps in section["eps_grid"]:
                for seed_idx in range(section.get("num_seeds", 1)):
                    cells.append((method, float(p), float(eps), seed_idx))
    # cells that share a seed_idx share the run seed, so the channel;
    # cells only read it
    channels = {seed_idx: channel_from_spec(
                    algebra, config["channel"],
                    run_seed=derive_seed(config["seed"], "cell", seed_idx))
                for seed_idx in {cell[3] for cell in cells}}

    def work(cell):
        return _certify_cell(config, algebra, channels[cell[3]], cell)

    with ThreadPoolExecutor(max_workers=max(jobs, 1)) as pool:
        results = list(pool.map(work, cells))

    header = _BASE_COLUMNS + ["cell", "method", "found", "trace_defect",
                              "trace_budget", "trace_ratio", "sup_value",
                              "sup_budget", "sup_ratio", "checker_passed",
                              "weight_bound"]
    rows = [r for r, _, _ in results]
    discrepancies = sum(1 for _, d, _ in results if d)
    found = sum(1 for _, _, f in results if f)
    summary = {"cells": len(cells), "found": found,
               "not_found": len(cells) - found,
               "checker_discrepancies": discrepancies}
    return header, rows, summary, (2 if discrepancies else 0)


def run_converge(config, jobs):
    algebra = AlgebraSpec.from_json(config["algebra"])
    section = config["converge"]
    norms = _norm_specs(section["norms"])
    eps = section.get("eps", 0.05)
    horizon = config["horizon"]
    seed = config["seed"]
    cells = list(range(section.get("num_seeds", 1)))

    def work(seed_idx):
        channel = channel_from_spec(
            algebra, config["channel"],
            run_seed=derive_seed(seed, "cell", seed_idx))
        rng = stream(seed, "element", seed_idx)
        x = element_from_spec(algebra, section["element"], rng)
        report = trajectory(channel, x, horizon, norms)
        au = au_witness(channel, x, eps, horizon, report=report)
        bau = bau_witness(channel, x, eps, horizon, report=report)
        rows = []
        for i, n in enumerate(report.schedule):
            row = _base(config, algebra, channel.kind) + [seed_idx, n]
            row += [report.residuals[spec.label][i] for spec in norms]
            rows.append(row)
        cell_summary = {
            "cell": seed_idx,
            "spectral_gap": channel.spectral_gap(),
            "fixed_space_dim": channel.eigenspace_dim(),
            "mean_convergence": report.verdicts,
            "au": {"trace_defect": au.trace_defect,
                   "final_profile": au.final_value,
                   "profile": au.profile},
            "bau": {"trace_defect": bau.trace_defect,
                    "final_profile": bau.final_value,
                    "profile": bau.profile},
        }
        return rows, cell_summary

    with ThreadPoolExecutor(max_workers=max(jobs, 1)) as pool:
        results = list(pool.map(work, cells))

    header = _BASE_COLUMNS + ["cell", "n"] + \
        [f"res_{spec.label}" for spec in norms]
    rows = [row for cell_rows, _ in results for row in cell_rows]
    # condition (iii) depends on the norm only, not on the cell
    reports = {spec.label: condition_iii(spec) for spec in norms}
    summary = {"cells": [s for _, s in results], "eps": eps,
               "condition_iii": {label: asdict(r) for label, r
                                 in reports.items() if r is not None}}
    return header, rows, summary, 0


def run_besicovitch(config, jobs):
    algebra = AlgebraSpec.from_json(config["algebra"])
    section = config["besicovitch"]
    norms = _norm_specs(section["norms"])
    beta = _weights_from(section["weights"])
    horizon = config["horizon"]
    channel = channel_from_spec(algebra, config["channel"], config["seed"])
    rng = stream(config["seed"], "element", 0)
    x = element_from_spec(algebra, section["element"], rng)
    report = besicovitch_experiment(channel, x, beta, horizon, norms)

    header = _BASE_COLUMNS + ["cell", "n"] + \
        [f"res_{spec.label}" for spec in norms] + \
        [f"cauchy_{spec.label}" for spec in norms] + ["cauchy_measure"]
    rows = []
    for i, n in enumerate(report.schedule):
        row = _base(config, algebra, channel.kind) + [0, n]
        row += [report.residuals[spec.label][i] for spec in norms]
        for spec in norms:
            row.append(report.cauchy[spec.label][i - 1] if i else "")
        row.append(report.cauchy["measure"][i - 1] if i else "")
        rows.append(row)
    summary = {
        "limit_exact": report.limit_exact,
        "certificate_ok": report.certificate_ok,
        "weight_bound": beta.bound,
        "witness": {"trace_defect": report.witness.trace_defect,
                    "final_profile": report.witness.final_value,
                    "profile": report.witness.profile},
        "final_residuals": {spec.label: report.residuals[spec.label][-1]
                            for spec in norms},
    }
    return header, rows, summary, 0


def run_norms(config, jobs):
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

            def emit(check, a, b, tol=1e-10, p="", q=""):
                nonlocal all_green
                diff = abs(a - b)
                ok = diff <= tol
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
            y = random_operator(algebra, rng)
            emit("adjoint_invariance", lp_norm(x, 2),
                 lp_norm(x.adjoint(), 2), p=2)
            emit("submajorizes_self", 1.0,
                 1.0 if submajorizes(x, x) else 0.0, tol=0.0)
    summary = {"all_green": all_green, "rows": len(rows)}
    return header, rows, summary, 0


def run_boyd(config, jobs):
    section = config["boyd"]
    s_grid = section.get("s_grid")
    header = _BASE_COLUMNS + ["target", "s", "dilation_norm",
                              "p_estimate", "q_estimate", "within_5pct"]
    rows = []
    results = []
    for target in section["targets"]:
        spec = NormSpec.from_json(target)
        p, q = spec.p, spec.q
        grid = sorted(float(s) for s in (s_grid or (2.0 ** -16, 2.0 ** 16)))
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
        sp.add_argument("--jobs", type=int, default=1,
                        help="concurrent cells (output order is unaffected)")
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
        header, rows, summary, code = _RUNNERS[args.subcommand](config,
                                                                args.jobs)
    except (ConfigError, ChannelConstructionError) as exc:
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
