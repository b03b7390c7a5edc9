import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from ncergodic import cli, convergence
from ncergodic.algebra import AlgebraSpec, Projection
from ncergodic.dynamics import CHANNEL_KINDS, channel_from_spec
from ncergodic.maximal import WitnessReport
from ncergodic.rng import derive_seed

FIXTURES = Path(cli.__file__).parent / "fixtures"
# Outputs of the bundled fixtures recorded for the benchmark's check.
REFERENCE = Path(cli.__file__).parents[2] / "perfbench" / "reference"

# One small spec per channel kind, all on the two-atom diagonal algebra
# (substochastic kinds need a diagonal algebra).
DIAG2 = AlgebraSpec(((1, 1.0), (1, 1.0)))
IDENTITY_2 = {"blocks": [[[1, 0]], [[1, 0]]]}
MINIMAL_SPECS = {
    "identity": {"kind": "identity"},
    "unitary": {"kind": "unitary", "seed": 1},
    "pinching": {"kind": "pinching", "labels": [0, 1]},
    "schur": {"kind": "schur", "matrices": IDENTITY_2},
    "substochastic": {"kind": "substochastic",
                      "matrix": [[0.0, 0.5], [0.5, 0.0]]},
    "kraus": {"kind": "kraus", "operators": [IDENTITY_2]},
    "random-kraus": {"kind": "random-kraus"},
    "unitary-mixture": {"kind": "unitary-mixture"},
    "random-substochastic": {"kind": "random-substochastic"},
    "convex": {"kind": "convex", "children": [{"kind": "identity"}],
               "probabilities": [1.0]},
    "compose": {"kind": "compose",
                "children": [{"kind": "identity"}, {"kind": "identity"}]},
    "scaled": {"kind": "scaled", "child": {"kind": "identity"},
               "factor": [0.5, 0.0]},
}


def run_cli(*args):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(args))


def converge(config_path, out, jobs=1):
    code = run_cli("converge", "--config", str(config_path), "--out",
                   str(out), "--jobs", str(jobs))
    return code, out / "converge.csv", out / "converge.json"


class TestConvergeContract:
    def test_fixture_runs_and_reports_spectrum(self, tmp_path):
        path = FIXTURES / "m2_unitary.json"
        code, _, json_path = converge(path, tmp_path)
        assert code == 0
        cell = json.loads(json_path.read_text())["summary"]["cells"][0]
        config = json.loads(path.read_text())
        channel = channel_from_spec(
            AlgebraSpec.from_json(config["algebra"]), config["channel"],
            run_seed=derive_seed(config["seed"], "cell", 0))
        assert cell["spectral_gap"] == channel.spectral_gap()
        # conjugation by diag(1, -1): the diagonal is fixed
        assert cell["fixed_space_dim"] == channel.eigenspace_dim() == 2

    def test_output_independent_of_jobs(self, tmp_path):
        config = json.loads((FIXTURES / "m2_unitary.json").read_text())
        config["converge"]["num_seeds"] = 2
        path = tmp_path / "two_seeds.json"
        path.write_text(json.dumps(config))
        outputs = []
        for jobs in (1, 2):
            code, csv_path, json_path = converge(path, tmp_path / f"j{jobs}",
                                                 jobs)
            assert code == 0
            outputs.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert outputs[0] == outputs[1]
        rows = outputs[0][0].decode().splitlines()[1:]
        assert {row.split(",")[7] for row in rows} == {"0", "1"}

    def test_fixture_matches_reference(self, tmp_path):
        # a map with a 2-dimensional fixed space, so the limit goes
        # through the projection and not the k = 0 shortcut
        code, csv_path, _ = converge(FIXTURES / "m2_unitary.json", tmp_path)
        assert code == 0
        assert (csv_path.read_bytes()
                == (REFERENCE / "fixtures" / "m2_unitary.csv").read_bytes())

    def test_missing_section_exits_1(self, tmp_path):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code, _, _ = converge(FIXTURES / "cycle4.json", tmp_path)
        assert code == 1
        assert err.getvalue().startswith("error: ")
        assert "'converge' section" in err.getvalue()

    def test_one_limit_per_cell(self, tmp_path, monkeypatch):
        calls = []
        fixed_point = convergence.fixed_point

        def counting_fixed_point(channel, x, *args):
            calls.append(x)
            return fixed_point(channel, x, *args)

        monkeypatch.setattr(convergence, "fixed_point", counting_fixed_point)
        code, _, _ = converge(FIXTURES / "m2_unitary.json", tmp_path)
        assert code == 0
        assert len(calls) == 1


class TestChannelKinds:
    def test_every_kind_builds_and_unknown_kind_exits_1(self, tmp_path):
        assert set(MINIMAL_SPECS) == set(CHANNEL_KINDS)
        for kind in CHANNEL_KINDS:
            channel = channel_from_spec(DIAG2, MINIMAL_SPECS[kind], run_seed=3)
            assert channel.is_ds_plus, kind
        config = json.loads((FIXTURES / "m2_unitary.json").read_text())
        config["channel"] = {"kind": "warp"}
        path = tmp_path / "warp.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code, _, _ = converge(path, tmp_path / "out")
        assert code == 1
        assert "does not validate" in err.getvalue()

    def test_nested_unknown_kind_exits_1(self, tmp_path):
        # the schema checks only the top-level kind; the builder rejects
        # the nested one, and that is a config error, not a traceback
        config = json.loads((FIXTURES / "m2_unitary.json").read_text())
        config["channel"] = {"kind": "convex",
                             "children": [{"kind": "warp"}],
                             "probabilities": [1.0]}
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run_cli("verify-channel", "--config", str(path),
                           "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.getvalue().startswith("error: ")
        assert "'warp'" in err.getvalue()


_CERTIFY = {"methods": ["yeadon"], "eps_grid": [0.5], "p_grid": [1],
            "element": {"kind": "random"}}
_BESICOVITCH = {"element": {"kind": "random"},
                "norms": [{"kind": "uniform"}]}
_CONVERGE = {"element": {"kind": "random"}, "norms": [{"kind": "uniform"}]}

# (subcommand, sections replacing those of the m2_unitary fixture, whose
# algebra is one 2x2 block)
MALFORMED = {
    "constant-weights-no-period-certify": ("certify", {"certify": {
        **_CERTIFY, "weights": {"kind": "constant"}}}),
    "constant-weights-no-period-besicovitch": ("besicovitch", {
        "besicovitch": {**_BESICOVITCH, "weights": {"kind": "constant"}}}),
    "trig-weights-no-poly": ("besicovitch", {
        "besicovitch": {**_BESICOVITCH, "weights": {"kind": "trig"}}}),
    "unknown-weight-kind": ("besicovitch", {
        "besicovitch": {**_BESICOVITCH, "weights": {"kind": "chirp"}}}),
    "lp-norm-no-p": ("converge", {"converge": {
        **_CONVERGE, "norms": [{"kind": "lp"}]}}),
    "lorentz-q-below-1": ("converge", {"converge": {
        **_CONVERGE, "norms": [{"kind": "lorentz", "p": 2, "q": 0.5}]}}),
    "boyd-uniform-target": ("boyd", {"boyd": {
        "targets": [{"kind": "uniform"}]}}),
    "explicit-element-no-operator": ("converge", {"converge": {
        **_CONVERGE, "element": {"kind": "explicit"}}}),
    "one-sided-p-below-2": ("certify", {"certify": {
        **_CERTIFY, "methods": ["one-sided"], "p_grid": [1, 2]}}),
    "hopf-non-diagonal": ("certify", {"certify": {
        **_CERTIFY, "methods": ["hopf"]}}),
}


class TestMalformedConfig:
    def test_schema_is_valid(self):
        # a run skips this check of the constant schema
        jsonschema.Draft202012Validator.check_schema(cli.CONFIG_SCHEMA)

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exits_1_with_one_error_line(self, tmp_path, name):
        subcommand, sections = MALFORMED[name]
        config = json.loads((FIXTURES / "m2_unitary.json").read_text())
        config.update(sections)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run_cli(subcommand, "--config", str(path),
                           "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestCertifyContract:
    @pytest.mark.parametrize("name", ["cycle4", "kraus8"])
    def test_fixture_matches_reference(self, tmp_path, name):
        code = run_cli("certify", "--config", str(FIXTURES / f"{name}.json"),
                       "--out", str(tmp_path))
        assert code == 0
        assert ((tmp_path / "certify.csv").read_bytes()
                == (REFERENCE / "fixtures" / f"{name}.csv").read_bytes())

    def test_one_channel_per_seed(self, tmp_path, monkeypatch):
        calls = []

        def counting_channel_from_spec(*args, **kwargs):
            calls.append(kwargs["run_seed"])
            return channel_from_spec(*args, **kwargs)

        monkeypatch.setattr(cli, "channel_from_spec",
                            counting_channel_from_spec)
        config = json.loads((FIXTURES / "kraus8.json").read_text())
        code = run_cli("certify", "--config", str(FIXTURES / "kraus8.json"),
                       "--out", str(tmp_path))
        assert code == 0
        num_seeds = config["certify"]["num_seeds"]
        assert len(calls) == len(set(calls)) == num_seeds
        rows = (tmp_path / "certify.csv").read_text().splitlines()[1:]
        assert len(rows) > num_seeds

    def test_output_independent_of_jobs(self, tmp_path):
        outputs = []
        for jobs in (1, 2):
            out = tmp_path / f"j{jobs}"
            code = run_cli("certify", "--config",
                           str(FIXTURES / "kraus8.json"), "--out", str(out),
                           "--jobs", str(jobs))
            assert code == 0
            outputs.append(((out / "certify.csv").read_bytes(),
                            (out / "certify.json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_contradicted_verdict_exits_2(self, tmp_path, monkeypatch):
        def overclaiming(ch, x, p, beta, eps, n):
            return WitnessReport(
                projection=Projection.identity(ch.algebra),
                trace_defect=0.0, trace_budget=1.0,
                sup_compression=2.0 * eps, sup_budget=eps, horizon=n,
                method="overclaiming", mode="two_sided",
                checker_passed=True)

        monkeypatch.setitem(cli._CERTIFY_BUILDERS, "yeadon", overclaiming)
        config = json.loads((FIXTURES / "cycle4.json").read_text())
        config["certify"]["methods"] = ["hopf", "yeadon"]
        path = tmp_path / "overclaim.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run_cli("certify", "--config", str(path),
                           "--out", str(tmp_path))
        assert code == 2
        assert "checker discrepancy" in err.getvalue()
        summary = json.loads((tmp_path / "certify.json").read_text())
        assert summary["summary"]["checker_discrepancies"] == 1
        assert summary["summary"]["found"] == 2


class TestRuntimeImports:
    def test_runtime_never_imports_scipy(self):
        # scipy is a test extra only; importing it costs start-up time
        # and resident memory on every CLI run
        code = ("import sys, ncergodic, ncergodic.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        src = Path(cli.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
