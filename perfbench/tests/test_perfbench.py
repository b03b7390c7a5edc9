"""Self-tests of the benchmark: output check, tracer binding and restore,
and self-time accounting.

    python3 -m pytest perfbench/tests
"""

import contextlib
import copy
import csv
import io
import json
import sys

import pytest

from check import compare_csv, compare_summary
from layers import SELF_TIMES, Counters, layer_metrics
from run import REFERENCE, SRC
from tracer import METHODS, Tracer

import ncergodic
from ncergodic import cli, convergence, dynamics
from ncergodic.algebra import AlgebraSpec, Operator

MIX8 = REFERENCE / "certify-mix8" / "seed11.csv"


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _write(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def test_check_accepts_reference_and_roundoff():
    text = MIX8.read_text()
    assert compare_csv(text, text) == []
    rows = _rows(text)
    col = rows[0].index("sup_ratio")
    rows[1][col] = repr(float(rows[1][col]) * (1 + 1e-13))
    assert compare_csv(_write(rows), text) == []


def test_check_rejects_tampered_numeric_cell():
    text = MIX8.read_text()
    rows = _rows(text)
    col = rows[0].index("trace_budget")
    rows[3][col] = repr(float(rows[3][col]) * 1.0001)
    problems = compare_csv(_write(rows), text)
    assert len(problems) == 1 and "trace_budget" in problems[0]


def test_check_rejects_flipped_found():
    text = MIX8.read_text()
    rows = _rows(text)
    col = rows[0].index("found")
    assert rows[2][col] == "true"
    rows[2][col] = "false"
    problems = compare_csv(_write(rows), text)
    assert len(problems) == 1 and "found" in problems[0]


def test_check_rejects_missing_row():
    text = MIX8.read_text()
    assert compare_csv(_write(_rows(text)[:-1]), text)


def test_summary_check_rejects_tampered_profile_and_allows_new_keys():
    reference = json.loads(
        (REFERENCE / "converge-kraus28" / "seed5.json").read_text())
    summary = reference["summary"]
    assert compare_summary(summary, summary) == []
    grown = copy.deepcopy(summary)
    grown["timings"] = {"run": 1.0}
    grown["cells"][0]["au"]["margin"] = 0.5
    assert compare_summary(grown, summary) == []
    tampered = copy.deepcopy(summary)
    tampered["cells"][0]["bau"]["profile"][-1] *= 1.001
    problems = compare_summary(tampered, summary)
    assert len(problems) == 1 and "bau.profile" in problems[0]
    flipped = copy.deepcopy(summary)
    flipped["cells"][0]["spectral_gap"] = str(summary["cells"][0]
                                              ["spectral_gap"])
    assert compare_summary(flipped, summary)


def _small_channel():
    algebra = AlgebraSpec(((2, 1.0),))
    channel = dynamics.channel_from_spec(
        algebra, {"kind": "random-kraus", "num_ops": 2, "seed": 1})
    x = Operator(algebra, [[[1.0, 2.0], [0.5, -1.0]]])
    return channel, x


def test_tracer_counts_call_through_reexported_name():
    channel, x = _small_channel()
    with Tracer() as tracer:
        convergence.fixed_point(channel, x)
        ncergodic.fixed_point(channel, x)
        dynamics.fixed_point(channel, x)
        channel.apply(x)
    names = [s.name for s in tracer.spans]
    assert names.count("dynamics.fixed_point") == 3
    assert names.count("dynamics.Channel.apply") == 1


def _bindings():
    """Every (container, key) -> object reachable the way the tracer
    patches: module namespaces, dicts inside them, and class methods."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "ncergodic"
                                  or name.startswith("ncergodic.")):
            continue
        for key, value in vars(module).items():
            seen[(name, key)] = value
            if isinstance(value, dict) and key != "__builtins__":
                for k, v in value.items():
                    seen[(name, key, repr(k))] = v
    for layer, cls_name, attr in METHODS:
        cls = getattr(sys.modules[f"ncergodic.{layer}"], cls_name)
        seen[(layer, cls_name, attr)] = cls.__dict__[attr]
    return seen


def test_tracer_restores_every_original():
    before = _bindings()
    with Tracer():
        during = _bindings()
    after = _bindings()
    changed = [k for k in before if during.get(k) is not before[k]]
    assert len(changed) > 50  # it did patch, in many places
    assert all(after[k] is before[k] for k in before)
    assert set(after) == set(before)
    assert not hasattr(dynamics.fixed_point, "__traced__")
    assert not hasattr(cli._RUNNERS["certify"], "__traced__")


@pytest.mark.parametrize("fixture, subcommand", [("m2_unitary", "converge"),
                                                 ("cycle4", "certify")])
def test_self_times_nonnegative_and_within_run_s(tmp_path, fixture,
                                                 subcommand):
    config = SRC / "ncergodic" / "fixtures" / f"{fixture}.json"
    counters = Counters()
    with Tracer(counters.hooks()) as tracer:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([subcommand, "--config", str(config),
                             "--out", str(tmp_path)])
    assert code == 0
    metrics = layer_metrics(tracer, counters, cells=1, horizon=8, found=1)
    run_s = metrics["cli.run_s"]
    assert all(t >= -1e-9 for _, t in tracer.self_times())
    assert all(metrics[name] >= -1e-9 for name in SELF_TIMES)
    assert sum(metrics[name] for name in SELF_TIMES) <= run_s + 1e-9
    if subcommand == "converge":
        # trajectory, au and bau each recompute the same limit
        assert metrics["dynamics.fixed_point_calls"] == 3
        assert metrics["dynamics.fixed_point_repeats"] == 3.0
    else:
        assert metrics["maximal.check_calls"] >= 2


def test_metric_names_match_benchmark_json(tmp_path):
    from run import E2E_UNITS, ROOT, per_layer_unit

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(E2E_UNITS)
    config = SRC / "ncergodic" / "fixtures" / "cycle4.json"
    counters = Counters()
    with Tracer(counters.hooks()) as tracer:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["certify", "--config", str(config),
                      "--out", str(tmp_path)])
    names = set(layer_metrics(tracer, counters, 1, 8, 1))
    names |= {"trace.overhead_frac", "bench.ref_kernel_s"}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert all(m["unit"] == per_layer_unit(m["name"])
               for m in spec["per_layer"])
