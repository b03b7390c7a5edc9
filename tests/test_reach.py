"""Every function of the package is reached by some CLI run, apart from
a short allow-list.

`cli.main` runs in-process under `sys.setprofile` on small configs that
cover every subcommand, channel kind, weight kind, element kind and
certify method.  Each called code object is mapped to its function by
(file, first line) against an `ast` walk of the package (`co_qualname`
needs Python 3.11).  The same pass sums the certify runs' `won_by`, so
a weak (1,1) strategy that wins no check there fails a test.
"""

import ast
import collections
import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from ncergodic import cli, maximal
from ncergodic.dynamics import CHANNEL_KINDS
from ncergodic.weights import WEIGHT_KINDS
from test_cli import DIAG2, MINIMAL_SPECS

PACKAGE = Path(cli.__file__).parent
FIXTURES = PACKAGE / "fixtures"

# Functions no CLI run calls, each for a stated reason.
NEVER_CALLED = {
    # dunders kept for operator arithmetic and printing
    "algebra.Operator.__neg__", "algebra.Operator.__truediv__",
    "algebra.Operator.__repr__", "dynamics.Channel.__repr__",
    "ncnorms.SingularFunction.__repr__",
    # runs once, at import, to build the schema
    "cli._kind_needs",
    # the error path of a config holding NaN or Infinity
    "cli._reject_non_finite",
    # tests compare operators and write the config format with these
    "algebra.Operator.allclose", "algebra.Operator.to_json",
}

_POLY = {"coefficients": [[0.5, 0], [0.5, 0]],
         "frequencies": [[1, 0], [0, 1]]}
WEIGHTS = {"constant": {"kind": "constant", "period": [[1, 0]]},
           "periodic": {"kind": "periodic",
                        "period": [[1, 0], [0, 1], [-1, 0], [0, -1]]},
           "trig": {"kind": "trig", "poly": _POLY},
           "trig_decay": {"kind": "trig_decay", "poly": _POLY,
                          "decay": [0.5, 0]}}
_NORMS = [{"kind": "uniform"}, {"kind": "lp", "p": 2},
          {"kind": "lorentz", "p": 3, "q": 2}, {"kind": "measure"}]
_MIX2 = {"seed": 5, "algebra": {"blocks": [[2, 1.0]]},
         "channel": {"kind": "unitary-mixture", "num": 2, "seed": 1}}


def runs():
    """(subcommand, config) pairs; a fixture is given by its name."""
    yield "certify", "cycle4"
    yield "certify", "kraus8"
    yield "converge", "m2_unitary"
    for kind in CHANNEL_KINDS:
        yield "verify-channel", {"seed": 3, "algebra": DIAG2.to_json(),
                                 "channel": MINIMAL_SPECS[kind]}
    # an imaginary factor is not a Kraus map, so positivity goes to Choi
    yield "verify-channel", {"seed": 3, "algebra": {"blocks": [[2, 1.0]]},
                             "channel": {"kind": "scaled", "factor": [0, 0.5],
                                         "child": {"kind": "identity"}}}
    yield "converge", {**_MIX2, "channel": {"kind": "random-kraus", "seed": 2},
                       "converge": {"element": {"kind": "random"},
                                    "norms": _NORMS, "num_seeds": 2}}
    # one Kraus operator on a 16x16 block costs 2 * 16^3 multiply-adds
    # and one block's fixed cost against 256^2 for the dense product, so
    # the spectral gap's Arnoldi runs in Kraus form
    yield "converge", {**_MIX2, "algebra": {"blocks": [[16, 1.0]]},
                       "channel": {"kind": "random-kraus", "seed": 2,
                                   "num_ops": 1},
                       "converge": {"element": {"kind": "random"},
                                    "norms": [{"kind": "uniform"}]}}
    assert set(WEIGHTS) == set(WEIGHT_KINDS)
    for weights in WEIGHTS.values():
        yield "besicovitch", {**_MIX2, "besicovitch": {
            "element": {"kind": "random-hermitian"}, "weights": weights,
            "norms": _NORMS}}
        yield "certify", {**_MIX2, "certify": {
            "methods": ["weighted", "one-sided"], "eps_grid": [0.25, 1.0],
            "p_grid": [2], "element": {"kind": "random"},
            "weights": weights}}
    # a weak (1,1) search that the floor bound leaves open, so peel runs
    yield "certify", {"seed": 2, "algebra": {"blocks": [[3, 1.0]]},
                      "channel": {"kind": "random-kraus", "seed": 0,
                                  "num_ops": 2},
                      "certify": {"methods": ["yeadon"], "eps_grid": [0.7],
                                  "p_grid": [1],
                                  "element": {"kind": "random"}}}
    yield "norms", {"seed": 7, "algebra": {"blocks": [[2, 1.0], [1, 0.5]]},
                    "norms": {"num_operators": 1, "p_grid": [1, 2],
                              "pq_grid": [[2, 1], [3, 2]]}}
    for s_grid in ([], [0.5, 2.0]):
        yield "boyd", {"seed": 7, "boyd": {
            "targets": [{"kind": "lp", "p": 2},
                        {"kind": "lorentz", "p": 3, "q": 2}],
            "s_grid": s_grid}}


def defined_functions():
    """(file, first line) -> "module.Class.name" for every function the
    package defines; a decorated function starts at its first
    decorator."""
    functions = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                functions[str(path), first] = prefix + child.name
                visit(path, child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(path, child, prefix + child.name + ".")
            else:
                visit(path, child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path, ast.parse(path.read_text()), path.stem + ".")
    return functions


@pytest.fixture(scope="module")
def cli_pass(tmp_path_factory):
    """One pass of the runs, each at horizon 32: the (file, first line)
    of every code object called, and the found certify cells per
    strategy, a meet label such as "weighted[floor+level-set]" counting
    for each of its names."""
    tmp_path = tmp_path_factory.mktemp("reach")
    called, wins = set(), collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    for k, (subcommand, config) in enumerate(runs()):
        if isinstance(config, str):
            path = FIXTURES / f"{config}.json"
        else:
            path = tmp_path / f"config{k}.json"
            path.write_text(json.dumps(config))
        out = tmp_path / f"out{k}"
        args = [subcommand, "--config", str(path),
                "--out", str(out), "--horizon", "32"]
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(args)
        finally:
            sys.setprofile(None)
        assert code == 0, (subcommand, config)
        if subcommand == "certify":
            summary = json.loads((out / "certify.json").read_text())
            for label, count in summary["summary"]["won_by"].items():
                for name in filter(None, re.split(r"[\[+\]]", label)):
                    wins[name] += count
    return called, wins


def test_every_function_is_called_but_the_allow_list(cli_pass):
    functions = defined_functions()
    called, _ = cli_pass
    never = {name for key, name in functions.items() if key not in called}
    assert never == NEVER_CALLED


def test_every_strategy_wins_a_check(cli_pass):
    # a strategy that wins nothing here is a candidate for deletion
    _, wins = cli_pass
    losers = {name for name in ("floor", *maximal._STRATEGY_TABLE)
              if wins[name] == 0}
    assert not losers, dict(wins)
