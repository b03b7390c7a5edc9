import contextlib
import csv
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from ncergodic import cli, convergence, maximal
from ncergodic.algebra import AlgebraSpec, Operator, Projection
from ncergodic.convergence import NormSpec
from ncergodic.dynamics import (CHANNEL_KINDS, Channel, channel_from_spec,
                                ergodic_averages)
from ncergodic.funcspace import BOYD_LIMIT_SCALES
from ncergodic.maximal import WitnessReport
from ncergodic.ncnorms import singular_function
from ncergodic.rng import derive_seed, stream
from ncergodic.util import DEFAULT_TOL, dyadic_schedule
from ncergodic.weights import WeightSequence

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


def converge(config_path, out):
    code = run_cli("converge", "--config", str(config_path), "--out",
                   str(out))
    return code, out / "converge.csv", out / "converge.json"


def greedy_witness(report, eps, mode):
    """Trace defect and profile of the a.u. ("one_sided") or b.a.u.
    ("two_sided") witness of `report` by a per-operator greedy loop, the
    oracle of `peel`: over the tail deviations x_hat - M_m, m >= horizon/2,
    operators outer and blocks inner with strict >, remove the top right
    singular vector of the worst compression until its norm is at most
    PEEL_FLOOR or the next removal would pass eps.  The profile at n is
    the largest compressed norm over the tail m >= n."""
    algebra = report.limit.algebra
    tail = {m: report.limit - report.averages[m] for m in report.schedule
            if m >= report.horizon // 2}
    bases = [np.eye(d, dtype=complex) for d in algebra.dims]

    def top(op, i):
        c = op.block(i)
        if mode == "two_sided":
            c = bases[i].conj().T @ c
        _, values, vh = np.linalg.svd(c @ bases[i])
        return values[0], vh[0].conj()

    defect = 0.0
    while True:
        worst, removal = -np.inf, None
        for op in tail.values():
            for i in range(algebra.num_blocks):
                if bases[i].shape[1]:
                    value, direction = top(op, i)
                    if value > worst:
                        worst, removal = value, (i, direction)
        if removal is None or worst <= convergence.PEEL_FLOOR:
            break
        i, direction = removal
        if defect + algebra.weights[i] > eps:
            break
        r = bases[i].shape[1]
        complement = np.linalg.eigh(np.eye(r) - np.outer(
            direction, direction.conj()))[1][:, 1:]
        bases[i] = bases[i] @ complement
        defect += algebra.weights[i]
    norms = {m: max([top(op, i)[0] for i in range(algebra.num_blocks)
                     if bases[i].shape[1]], default=0.0)
             for m, op in tail.items()}
    return defect, [max(v for m, v in norms.items() if m >= n)
                    for n in report.schedule]


class TestConvergeContract:
    def test_fixture_runs_and_reports_spectrum(self, tmp_path):
        path = FIXTURES / "m2_unitary.json"
        code, _, json_path = converge(path, tmp_path)
        assert code == 0
        payload = json.loads(json_path.read_text())
        # the summary JSON records what the numbers were computed with
        assert payload["provenance"] == {"tol": DEFAULT_TOL,
                                         "numpy": np.__version__}
        cell = payload["summary"]["cells"][0]
        config = json.loads(path.read_text())
        channel = channel_from_spec(
            AlgebraSpec.from_json(config["algebra"]), config["channel"],
            run_seed=derive_seed(config["seed"], "cell", 0))
        assert cell["spectral_gap"] == channel.spectral_gap()
        # conjugation by diag(1, -1): the diagonal is fixed
        assert cell["fixed_space_dim"] == channel.eigenspace_dim() == 2

    # a unitary (r = 1) and a strict Kraus contraction (r < 1); a map
    # that is not DS+ has no converge run (`test_exits_1_with_one_error_line`)
    @pytest.mark.parametrize("channel,bound,spectrum", [
        (None, 1.0, "dense"),
        ({"kind": "random-kraus", "margin": 0.05}, "below-1",
         "certified-contraction")])
    def test_summary_reports_spectrum_path(self, tmp_path, channel, bound,
                                           spectrum):
        config = json.loads((FIXTURES / "m2_unitary.json").read_text())
        if channel is not None:
            config["channel"] = channel
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, csv_path, json_path = converge(path, tmp_path / "out")
        assert code == 0
        cell = json.loads(json_path.read_text())["summary"]["cells"][0]
        assert cell["spectrum"] == spectrum
        if bound == "below-1":
            assert 0.0 < cell["spectral_radius_bound"] < 1.0
        else:
            assert cell["spectral_radius_bound"] == pytest.approx(bound)
        header = csv_path.read_text().splitlines()[0]
        assert "spectrum" not in header and "spectral" not in header

    def test_fixture_matches_reference(self, tmp_path, bench_check):
        # a map with a 2-dimensional fixed space, so the limit goes
        # through the projection and not the k = 0 shortcut; the summary
        # holds the a.u. and b.a.u. profiles that `peel` writes
        code, csv_path, json_path = converge(FIXTURES / "m2_unitary.json",
                                             tmp_path)
        assert code == 0
        assert (csv_path.read_bytes()
                == (REFERENCE / "fixtures" / "m2_unitary.csv").read_bytes())
        summary = json.loads(json_path.read_text())
        want = json.loads(
            (REFERENCE / "fixtures" / "m2_unitary.json").read_text())
        assert bench_check.compare_summary(summary["summary"],
                                           want["summary"]) == []

    def test_witnesses_that_peel_match_a_greedy_loop(self, tmp_path):
        # block weights below eps, so the a.u. and b.a.u. witnesses
        # remove directions, which no recorded reference run does.  The
        # two tail deviations x_hat - M_32 and x_hat - M_64 of a fast
        # mixing channel are nearly parallel; at this seed their top
        # directions differ enough that a peel removing the other
        # operator's moves a profile by up to 2e-7, while the loop agrees
        # with `peel` to 1e-17
        config = {"seed": 28, "horizon": 64,
                  "algebra": {"blocks": [[3, 0.01], [2, 0.02]]},
                  "channel": {"kind": "random-kraus", "seed": 1},
                  "converge": {"element": {"kind": "random",
                                           "uniform_norm": 1.0},
                               "norms": [{"kind": "uniform"}],
                               "eps": 0.05, "num_seeds": 2}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, _, json_path = converge(path, tmp_path / "out")
        assert code == 0
        cells = json.loads(json_path.read_text())["summary"]["cells"]
        algebra = AlgebraSpec.from_json(config["algebra"])
        section = config["converge"]
        assert len(cells) == 2
        for seed_idx, cell in enumerate(cells):
            channel = channel_from_spec(
                algebra, config["channel"],
                run_seed=derive_seed(config["seed"], "cell", seed_idx))
            x = cli.element_from_spec(
                algebra, section["element"],
                stream(config["seed"], "element", seed_idx))
            report = convergence.trajectory(channel, x, config["horizon"],
                                            [NormSpec("uniform")])
            for key, mode in (("au", "one_sided"), ("bau", "two_sided")):
                defect, profile = greedy_witness(report, section["eps"], mode)
                assert cell[key]["trace_defect"] == defect > 0
                assert cell[key]["profile"] == pytest.approx(
                    profile, rel=0, abs=1e-12)

    def test_missing_section_exits_1(self, tmp_path):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code, _, _ = converge(FIXTURES / "cycle4.json", tmp_path)
        assert code == 1
        assert err.getvalue().startswith("error: ")
        assert "'converge' section" in err.getvalue()

    @pytest.mark.parametrize("num_seeds", [1, 2])
    def test_one_limit_per_cell(self, tmp_path, monkeypatch, num_seeds):
        calls = []
        fixed_point = convergence.fixed_point

        def counting_fixed_point(channel, x, *args):
            calls.append(x)
            return fixed_point(channel, x, *args)

        monkeypatch.setattr(convergence, "fixed_point", counting_fixed_point)
        config = json.loads((FIXTURES / "m2_unitary.json").read_text())
        config["converge"]["num_seeds"] = num_seeds
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, csv_path, _ = converge(path, tmp_path / "out")
        assert code == 0
        assert len(calls) == num_seeds
        # the rows of each cell, in cell order
        cells = [row.split(",")[7]
                 for row in csv_path.read_text().splitlines()[1:]]
        assert cells == sorted(cells)
        assert set(cells) == {str(k) for k in range(num_seeds)}


class TestBesicovitchContract:
    # one 2x2 block, a period-4 weight and a `measure` entry in the norms
    CONFIG = {"seed": 5, "horizon": 32, "algebra": {"blocks": [[2, 1.0]]},
              "channel": {"kind": "unitary-mixture", "num": 2, "seed": 1},
              "besicovitch": {
                  "element": {"kind": "random-hermitian"},
                  "weights": {"kind": "periodic", "period": [
                      [1, 0], [0, 1], [-1, 0], [0, -1]]},
                  "norms": [{"kind": "uniform"}, {"kind": "measure"}]}}

    def test_cauchy_columns_are_consecutive_distances(self, tmp_path):
        path = tmp_path / "besicovitch.json"
        path.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "out"
        assert run_cli("besicovitch", "--config", str(path),
                       "--out", str(out)) == 0
        with open(out / "besicovitch.csv") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(set(header)) == len(header)
        cauchy = [c for c in header if c.startswith("cauchy_")]
        assert cauchy == ["cauchy_inf", "cauchy_measure"]

        # the averages the run sampled, rebuilt as the CLI builds them
        algebra = AlgebraSpec.from_json(self.CONFIG["algebra"])
        channel = channel_from_spec(algebra, self.CONFIG["channel"],
                                    run_seed=self.CONFIG["seed"])
        section = self.CONFIG["besicovitch"]
        x = cli.element_from_spec(algebra, section["element"],
                                  stream(self.CONFIG["seed"], "element", 0))
        beta = WeightSequence.from_json(section["weights"])
        schedule = dyadic_schedule(self.CONFIG["horizon"])
        averages = [Operator.from_vec(algebra, vec) for n, vec
                    in ergodic_averages(channel, x, schedule[-1], beta)
                    if n in schedule]
        assert [int(row[header.index("n")]) for row in rows] == schedule
        for column in cauchy:
            cells = [row[header.index(column)] for row in rows]
            assert cells[0] == ""
            # the uniform norm by its own route, np.linalg.norm(b, 2)
            assert [float(c) for c in cells[1:]] == [
                (a - b).uniform_norm() if column == "cauchy_inf"
                else singular_function(a - b).crossing()
                for a, b in zip(averages, averages[1:])]


class TestChannelKinds:
    def test_every_kind_builds_and_unknown_kind_exits_1(self, tmp_path):
        assert set(MINIMAL_SPECS) == set(CHANNEL_KINDS)
        for kind in CHANNEL_KINDS:
            channel = channel_from_spec(DIAG2, MINIMAL_SPECS[kind], run_seed=3)
            assert channel.verification.is_ds_plus, kind
        config = json.loads((FIXTURES / "m2_unitary.json").read_text())
        config["channel"] = {"kind": "warp"}
        path = tmp_path / "warp.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code, _, _ = converge(path, tmp_path / "out")
        assert code == 1
        assert "does not validate" in err.getvalue()

    @pytest.mark.parametrize("kind,field", [("random-kraus", "num_ops"),
                                            ("unitary-mixture", "num")])
    def test_count_written_as_float_builds(self, kind, field):
        # JSON Schema counts 2.0 as an integer, so the schema lets it in
        config = {"seed": 3, "algebra": DIAG2.to_json(),
                  "channel": {"kind": kind, field: 2.0}}
        assert cli._config_error(config) is None
        as_float = channel_from_spec(DIAG2, config["channel"], run_seed=3)
        as_int = channel_from_spec(DIAG2, {"kind": kind, field: 2},
                                   run_seed=3)
        assert (as_float.superop == as_int.superop).all()

    def test_nested_unknown_kind_exits_1(self, tmp_path):
        # the schema checks nested channels like the top-level one, so a
        # nested unknown kind is a config error, not a traceback
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
        assert "$.channel.children[0].kind: 'warp'" in err.getvalue()

    @pytest.mark.parametrize("algebra,channel,evidence,margin", [
        ({"blocks": [[2, 1.0]]}, {"kind": "unitary", "seed": 1},
         "kraus", None),
        ({"blocks": [[1, 1.0], [1, 1.0]]}, MINIMAL_SPECS["substochastic"],
         "choi", 0.0),
        ({"blocks": [[2, 1.0]]}, {"kind": "scaled", "factor": [-0.5, 0.0],
                                  "child": {"kind": "identity"}},
         "unverified", -1.0),
    ])
    def test_verify_channel_reports_positivity_evidence(
            self, tmp_path, algebra, channel, evidence, margin):
        config = {"seed": 3, "algebra": algebra, "channel": channel}
        path = tmp_path / "verify.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("verify-channel", "--config", str(path),
                       "--out", str(out)) == 0
        report = json.loads((out / "verify-channel.json").read_text())
        verification = report["summary"]["verification"]
        assert verification["positivity_evidence"] == evidence
        assert verification["choi_min_eigenvalue"] == pytest.approx(margin)
        assert verification["positive"] == (evidence != "unverified")
        header, row = (out / "verify-channel.csv").read_text().splitlines()
        assert header.split(",")[7:9] == ["positive", "positivity_evidence"]
        assert row.split(",")[8] == evidence


_CERTIFY = {"methods": ["yeadon"], "eps_grid": [0.5], "p_grid": [1],
            "element": {"kind": "random"}}
_BESICOVITCH = {"element": {"kind": "random"},
                "norms": [{"kind": "uniform"}]}
_CONVERGE = {"element": {"kind": "random"}, "norms": [{"kind": "uniform"}]}
# |beta_k| = 2 from the generator, declared bound 1
_BOUND_TOO_SMALL = {"kind": "constant", "period": [[2, 0]], "C": 1}
# channels outside DS+ on one 3x3 block: 1.5 T for a unitary mixture T is
# completely positive but neither subunital nor trace-nonincreasing, and
# 0.5i id contracts both norms but is not positive
_EXPANDING = {"algebra": {"blocks": [[3, 1.0]]},
              "channel": {"kind": "scaled", "factor": [1.5, 0],
                          "child": {"kind": "unitary-mixture", "num": 2,
                                    "seed": 1}}}
_IMAGINARY = {"algebra": {"blocks": [[3, 1.0]]},
              "channel": {"kind": "scaled", "factor": [0, 0.5],
                          "child": {"kind": "identity"}}}

# (subcommand, sections replacing those of the m2_unitary fixture, whose
# algebra is one 2x2 block; a section given as None is removed)
MALFORMED = {
    "constant-weights-no-period-certify": ("certify", {"certify": {
        **_CERTIFY, "weights": {"kind": "constant"}}}),
    "constant-weights-no-period-besicovitch": ("besicovitch", {
        "besicovitch": {**_BESICOVITCH, "weights": {"kind": "constant"}}}),
    "constant-weights-two-values": ("besicovitch", {"besicovitch": {
        **_BESICOVITCH, "weights": {"kind": "constant",
                                    "period": [[1, 0], [5, 0]]}}}),
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
    "boyd-s-grid-above-1": ("boyd", {"boyd": {
        "targets": [{"kind": "lp", "p": 2}], "s_grid": [2, 4]}}),
    "weights-bound-below-generator-certify": ("certify", {"certify": {
        **_CERTIFY, "methods": ["weighted"], "weights": _BOUND_TOO_SMALL}}),
    "weights-bound-below-generator-besicovitch": ("besicovitch", {
        "besicovitch": {**_BESICOVITCH, "weights": _BOUND_TOO_SMALL}}),
    "trig-frequency-not-unimodular": ("besicovitch", {"besicovitch": {
        **_BESICOVITCH, "weights": {"kind": "trig", "poly": {
            "coefficients": [[1, 0]], "frequencies": [[2, 0]]}}}}),
    "norms-p-below-1": ("norms", {"norms": {
        "num_operators": 1, "p_grid": [0.5], "pq_grid": []}}),
    "norms-pq-q-below-1": ("norms", {"norms": {
        "num_operators": 1, "p_grid": [], "pq_grid": [[2, 0.5]]}}),
    "norms-pq-p-1-q-above-1": ("norms", {"norms": {
        "num_operators": 1, "p_grid": [], "pq_grid": [[1, 2]]}}),
    "norms-no-algebra": ("norms", {"algebra": None, "norms": {
        "num_operators": 1, "p_grid": [2], "pq_grid": []}}),
    "norms-algebras-zero-block": ("norms", {"norms": {
        "algebras": [{"blocks": [[0, 1.0]]}],
        "num_operators": 1, "p_grid": [2], "pq_grid": []}}),
    # the element of cell 0 happens to be positive, that of cell 1 is not
    "yeadon-element-not-positive": ("certify", {"certify": {
        **_CERTIFY, "element": {"kind": "random-hermitian"},
        "num_seeds": 2}}),
    "hopf-element-not-positive": ("certify", {
        "algebra": {"blocks": [[1, 1.0], [1, 1.0]]},
        "channel": {"kind": "identity"},
        "certify": {**_CERTIFY, "methods": ["hopf"],
                    "element": {"kind": "diagonal", "values": [1.0, -2.0]}}}),
    # json.dumps writes Infinity, which Python's json reads back
    "norms-p-infinite": ("norms", {"norms": {
        "num_operators": 1, "p_grid": [float("inf")], "pq_grid": []}}),
    "not-ds-plus-certify": ("certify", {**_EXPANDING, "certify": {
        **_CERTIFY, "methods": ["yeadon", "lp"]}}),
    "not-ds-plus-converge": ("converge", {**_EXPANDING,
                                          "converge": _CONVERGE}),
    "not-ds-plus-besicovitch": ("besicovitch", {**_EXPANDING, "besicovitch": {
        **_BESICOVITCH, "weights": {"kind": "constant", "period": [[1, 0]]}}}),
    "not-positive-converge": ("converge", {**_IMAGINARY,
                                           "converge": _CONVERGE}),
    # runs without cells still gate the channel
    "not-ds-plus-certify-empty-eps-grid": ("certify", {
        **_EXPANDING, "certify": {**_CERTIFY, "eps_grid": []}}),
    "not-ds-plus-certify-no-seeds": ("certify", {**_EXPANDING, "certify": {
        **_CERTIFY, "num_seeds": 0}}),
    "not-ds-plus-converge-no-seeds": ("converge", {**_EXPANDING, "converge": {
        **_CONVERGE, "num_seeds": 0}}),
    # channel specs without a field their kind reads, also when nested
    "scaled-no-factor": ("verify-channel", {"channel": {
        "kind": "scaled", "child": {"kind": "identity"}}}),
    "convex-no-children": ("verify-channel", {"channel": {
        "kind": "convex", "probabilities": [1.0]}}),
    "pinching-no-labels": ("verify-channel", {"channel": {
        "kind": "pinching"}}),
    "convex-scaled-no-factor": ("verify-channel", {"channel": {
        "kind": "convex", "probabilities": [1.0],
        "children": [{"kind": "scaled", "child": {"kind": "identity"}}]}}),
    # operators and matrices that do not fit the algebra
    "kraus-operator-wrong-length": ("verify-channel", {"channel": {
        "kind": "kraus", "operators": [{"blocks": [[[1, 0], [0, 0]]]}]}}),
    "schur-matrix-wrong-length": ("verify-channel", {"channel": {
        "kind": "schur", "matrices": {"blocks": [[[1, 0]] * 5]}}}),
    "explicit-element-wrong-length": ("converge", {"converge": {
        **_CONVERGE, "element": {"kind": "explicit",
                                 "operator": {"blocks": [[[1, 0]]]}}}}),
    "diagonal-element-wrong-length": ("converge", {"converge": {
        **_CONVERGE, "element": {"kind": "diagonal", "values": [1.0]}}}),
    # only a random element is drawn at a norm; the others would ignore it
    "diagonal-element-uniform-norm": ("certify", {
        "algebra": {"blocks": [[1, 1.0], [1, 1.0]]},
        "channel": {"kind": "identity"},
        "certify": {**_CERTIFY, "element": {
            "kind": "diagonal", "values": [4.0, 0.0], "uniform_norm": 0.5}}}),
    "explicit-element-uniform-norm": ("converge", {"converge": {
        **_CONVERGE, "element": {
            "kind": "explicit", "uniform_norm": 0.5, "operator": {
                "blocks": [[[0, 0], [1, 0], [1, 0], [0, 0]]]}}}}),
    "substochastic-ragged-matrix": ("verify-channel", {
        "algebra": {"blocks": [[1, 1.0], [1, 1.0]]},
        "channel": {"kind": "substochastic",
                    "matrix": [[0.5, 0.5], [0.5]]}}),
    # complex values that are not [re, im] pairs
    "scaled-factor-not-complex": ("verify-channel", {"channel": {
        "kind": "scaled", "child": {"kind": "identity"}, "factor": [0.5]}}),
    "kraus-operator-block-not-complex": ("verify-channel", {"channel": {
        "kind": "kraus", "operators": [{"blocks": [[1, 0, 0, 1]]}]}}),
    "unitary-matrix-block-not-complex": ("verify-channel", {"channel": {
        "kind": "unitary", "matrix": {"blocks": [[1, 0, 0, 1]]}}}),
    # channel fields of the wrong type or out of range
    "convex-probability-not-number": ("verify-channel", {"channel": {
        "kind": "convex", "children": [{"kind": "identity"}],
        "probabilities": ["a"]}}),
    "random-kraus-num-ops-zero": ("verify-channel", {"channel": {
        "kind": "random-kraus", "num_ops": 0}}),
    "random-kraus-num-ops-not-integer": ("verify-channel", {"channel": {
        "kind": "random-kraus", "num_ops": "x"}}),
    "unitary-mixture-num-zero": ("verify-channel", {"channel": {
        "kind": "unitary-mixture", "num": 0}}),
    "unitary-mixture-min-gap-not-number": ("verify-channel", {"channel": {
        "kind": "unitary-mixture", "min_gap": "x"}}),
    "random-kraus-margin-above-1": ("verify-channel", {"channel": {
        "kind": "random-kraus", "margin": 2}}),
    "pinching-labels-not-integers": ("verify-channel", {"channel": {
        "kind": "pinching", "labels": [[0], "a"]}}),
    # a label keys both the residuals and the CSV column
    "norms-label-repeated-converge": ("converge", {"converge": {
        **_CONVERGE, "norms": [{"kind": "uniform"}, {"kind": "uniform"}]}}),
    "norms-label-repeated-besicovitch": ("besicovitch", {"besicovitch": {
        **_BESICOVITCH, "weights": {"kind": "constant", "period": [[1, 0]]},
        "norms": [{"kind": "lp", "p": 2}, {"kind": "lp", "p": 2.0}]}}),
}

# what the error line of a malformed config must name
NAMED_IN_ERROR = {"yeadon-element-not-positive": "method 'yeadon'",
                  "constant-weights-two-values":
                      "$.besicovitch.weights.period: ",
                  "hopf-element-not-positive": "method 'hopf'",
                  "not-ds-plus-certify": "subunital_value 1.5",
                  "not-ds-plus-converge": "adjoint_unit_value 1.5",
                  "not-ds-plus-besicovitch": "subunital_value 1.5",
                  "not-positive-converge": "positive (evidence unverified)",
                  "not-ds-plus-certify-empty-eps-grid":
                      "not DS+: subunital_value 1.5",
                  "not-ds-plus-certify-no-seeds":
                      "not DS+: subunital_value 1.5",
                  "not-ds-plus-converge-no-seeds":
                      "not DS+: subunital_value 1.5",
                  "scaled-no-factor": "'factor' is a required property",
                  "convex-no-children":
                      "'children' is a required property",
                  "pinching-no-labels": "'labels' is a required property",
                  "convex-scaled-no-factor":
                      "$.channel.children[0]: 'factor' is a required",
                  "kraus-operator-wrong-length": "block lengths [2]",
                  "schur-matrix-wrong-length": "block lengths [5]",
                  "explicit-element-wrong-length": "block lengths [1]",
                  "diagonal-element-wrong-length": "diagonal length",
                  "diagonal-element-uniform-norm":
                      "$.certify.element.kind: 'diagonal' is not one of",
                  "explicit-element-uniform-norm":
                      "$.converge.element.kind: 'explicit' is not one of",
                  "substochastic-ragged-matrix": "matrix: ",
                  "scaled-factor-not-complex": "$.channel.factor: ",
                  "kraus-operator-block-not-complex":
                      "$.channel.operators[0].blocks[0]",
                  "unitary-matrix-block-not-complex":
                      "$.channel.matrix.blocks[0]",
                  "convex-probability-not-number":
                      "$.channel.probabilities[0]: ",
                  "random-kraus-num-ops-zero": "$.channel.num_ops: ",
                  "random-kraus-num-ops-not-integer": "$.channel.num_ops: ",
                  "unitary-mixture-num-zero": "$.channel.num: ",
                  "unitary-mixture-min-gap-not-number":
                      "$.channel.min_gap: ",
                  "random-kraus-margin-above-1": "$.channel.margin: ",
                  "pinching-labels-not-integers": "$.channel.labels[",
                  "norms-label-repeated-converge":
                      "norms: the label 'inf' is listed twice",
                  "norms-label-repeated-besicovitch":
                      "norms: the label 'L2' is listed twice"}

# Maps that their constructors build and `verify_ds` does not certify DS+:
# (algebra, channel, the failing flags, the gate's reason)
_IDENTITY_M2 = {"blocks": [[[1, 0], [0, 0], [0, 0], [1, 0]]]}
OUTSIDE_DS_PLUS = {
    "kraus-expanding": (
        {"blocks": [[2, 1.0]]},
        {"kind": "kraus", "operators": [_IDENTITY_M2, _IDENTITY_M2]},
        {"subunital", "trace_nonincreasing"},
        "subunital_value 2 > 1; adjoint_unit_value 2 > 1"),
    "substochastic-row-sum": (
        {"blocks": [[1, 1.0], [1, 1.0]]},
        {"kind": "substochastic", "matrix": [[1.0, 0.5], [0.0, 0.5]]},
        {"subunital"}, "subunital_value 1.5 > 1"),
    "schur-diagonal-2": (
        {"blocks": [[2, 1.0]]},
        {"kind": "schur",
         "matrices": {"blocks": [[[2, 0], [0.5, 0], [0.5, 0], [1, 0]]]}},
        {"subunital", "trace_nonincreasing"},
        "subunital_value 2 > 1; adjoint_unit_value 2 > 1"),
}


def malformed_config(name):
    """(subcommand, config) of the MALFORMED case `name`."""
    subcommand, sections = MALFORMED[name]
    config = json.loads((FIXTURES / "m2_unitary.json").read_text())
    for key, section in sections.items():
        if section is None:
            del config[key]
        else:
            config[key] = section
    return subcommand, config


# (subcommand, fixture, override, JSON path of the error): command-line
# overrides are validated with the rest of the config; a config that is
# not an object (fixture None: the config `[]`) fails validation
# whatever they are
OVERRIDES = [
    ("converge", "m2_unitary", ["--horizon", "0"], "$.horizon"),
    ("certify", "kraus8", ["--horizon", "-3"], "$.horizon"),
    ("certify", "kraus8", ["--seed", "-1"], "$.seed"),
    ("certify", None, ["--seed", "3"], "$")]


class TestMalformedConfig:
    def test_schema_is_valid(self):
        # a run skips this check of the constant schema
        jsonschema.Draft202012Validator.check_schema(cli.CONFIG_SCHEMA)

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exits_1_with_one_error_line(self, tmp_path, name):
        subcommand, config = malformed_config(name)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run_cli(subcommand, "--config", str(path),
                           "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        assert NAMED_IN_ERROR.get(name, "") in err.getvalue()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand,config,override,json_path",
                             OVERRIDES)
    def test_invalid_override_exits_1(self, tmp_path, subcommand, config,
                                      override, json_path):
        if config is None:
            path = tmp_path / "list.json"
            path.write_text("[]")
        else:
            path = FIXTURES / f"{config}.json"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run_cli(subcommand, "--config", str(path),
                           "--out", str(tmp_path / "out"), *override)
        assert code == 1
        assert err.getvalue().startswith(
            f"error: config does not validate at {json_path}: ")
        assert err.getvalue().count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_verify_channel_reports_maps_outside_ds_plus(self, tmp_path):
        # the theorem subcommands refuse this map (the not-ds-plus cases
        # above)
        config = json.loads((FIXTURES / "m2_unitary.json").read_text())
        config.update(_EXPANDING)
        path = tmp_path / "verify.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("verify-channel", "--config", str(path),
                       "--out", str(out)) == 0
        report = json.loads((out / "verify-channel.json").read_text())
        verification = report["summary"]["verification"]
        assert verification["positivity_evidence"] == "kraus"
        assert verification["subunital_value"] == pytest.approx(1.5)
        assert verification["adjoint_unit_value"] == pytest.approx(1.5)
        assert verification["is_ds_plus"] is False

    @pytest.mark.parametrize("name", sorted(OUTSIDE_DS_PLUS))
    def test_constructors_build_what_the_gate_refuses(self, tmp_path, name):
        # verify-channel reports the map; certify refuses it
        algebra, channel, failing, reason = OUTSIDE_DS_PLUS[name]
        config = {"seed": 3, "algebra": algebra, "channel": channel,
                  "certify": _CERTIFY}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("verify-channel", "--config", str(path),
                       "--out", str(out)) == 0
        report = json.loads((out / "verify-channel.json").read_text())
        verification = report["summary"]["verification"]
        assert verification["positive"] is True
        for flag in ("subunital", "trace_nonincreasing"):
            assert verification[flag] is (flag not in failing)
        assert verification["is_ds_plus"] is False
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run_cli("certify", "--config", str(path),
                           "--out", str(tmp_path / "certify"))
        assert code == 1
        assert err.getvalue() == (f"error: channel {channel['kind']!r} is "
                                  f"not DS+: {reason}\n")
        assert not (tmp_path / "certify").exists()


# the certify fixtures, and the benchmark's certify workloads at every
# seed class: a full 8x8 block through all four methods on a 4-value eps
# grid, and yeadon next to hopf on 96 atoms
CERTIFY_RUNS = [pytest.param("cycle4", 0, id="cycle4"),
                pytest.param("kraus8", 0, id="kraus8")] + [
    pytest.param(name, seed_class, id=f"{name}-{seed_class}")
    for name in ("certify-mix8", "certify-cycle96")
    for seed_class in range(8)]


class TestCertifyContract:
    def certify_args(self, tmp_path, workloads, name, seed_class):
        """The certify command line of a fixture, or of a workload at one
        seed class, and the reference CSV of that run."""
        if name not in workloads.WORKLOADS:
            return (["--config", str(FIXTURES / f"{name}.json")],
                    REFERENCE / "fixtures" / f"{name}.csv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(workloads.WORKLOADS[name][1]()))
        seed = workloads.cli_seed(name, seed_class)
        return (["--config", str(config), "--seed", str(seed)],
                REFERENCE / name / f"seed{seed}.csv")

    @pytest.mark.parametrize("name,seed_class", CERTIFY_RUNS)
    def test_fixture_matches_reference(self, tmp_path, workloads, name,
                                       seed_class):
        args, reference = self.certify_args(tmp_path, workloads, name,
                                            seed_class)
        code = run_cli("certify", *args, "--out", str(tmp_path))
        assert code == 0
        assert ((tmp_path / "certify.csv").read_bytes()
                == reference.read_bytes())
        # the summary counts the found cells by the strategy that won them
        summary = json.loads((tmp_path / "certify.json").read_text())
        won_by = summary["summary"]["won_by"]
        assert sum(won_by.values()) == summary["summary"]["found"]
        assert won_by.get("floor", 0) == {"certify-mix8": 2}.get(name, 0)

    @staticmethod
    def recurrence_passes(monkeypatch):
        """A list that gains one entry per recurrence pass from now on."""
        calls = []

        def counting_averages(*args, **kwargs):
            calls.append(args)
            return ergodic_averages(*args, **kwargs)

        for module in list(sys.modules.values()):
            if (module.__name__.startswith("ncergodic") and
                    getattr(module, "ergodic_averages", None)
                    is ergodic_averages):
                monkeypatch.setattr(module, "ergodic_averages",
                                    counting_averages)
        return calls

    # recurrence passes of a whole run, the workloads at seed class 0; the
    # methods that check one element under one weight share its checker,
    # and a weak (1,1) search reads the stacks of its checker
    @pytest.mark.parametrize("name,passes", [
        ("certify-mix8", 9), ("kraus8", 15), ("cycle4", 1),
        ("certify-cycle96", 1)])
    def test_recurrence_passes_per_run(self, tmp_path, monkeypatch,
                                       workloads, name, passes):
        calls = self.recurrence_passes(monkeypatch)
        args, reference = self.certify_args(tmp_path, workloads, name, 0)
        code = run_cli("certify", *args, "--out", str(tmp_path))
        assert code == 0
        assert ((tmp_path / "certify.csv").read_bytes()
                == reference.read_bytes())
        assert len(calls) == passes

    # compressed sups of a whole run, the workloads at seed class 0: the
    # strategies measure through the checker, which measures each
    # (projection, mode) of its stacks once
    @pytest.mark.parametrize("name,sups", [
        ("certify-mix8", 49), ("kraus8", 82), ("cycle4", 3),
        ("certify-cycle96", 5)])
    def test_each_sup_measured_once_per_run(self, tmp_path, monkeypatch,
                                            workloads, name, sups):
        measured = []  # holds the stacks and projections, so no id is reused
        sup = maximal.compressed_sup

        def measuring(stacks, e, mode="two_sided", screens=None):
            measured.append((stacks, e, mode))
            return sup(stacks, e, mode, screens)

        monkeypatch.setattr(maximal, "compressed_sup", measuring)
        args, reference = self.certify_args(tmp_path, workloads, name, 0)
        code = run_cli("certify", *args, "--out", str(tmp_path))
        assert code == 0
        assert ((tmp_path / "certify.csv").read_bytes()
                == reference.read_bytes())
        keys = {(id(stacks), id(e), mode) for stacks, e, mode in measured}
        assert len(keys) == len(measured) == sups

    def test_no_full_floor_pass_on_certify_mix8(self, tmp_path, monkeypatch,
                                                workloads):
        # at seed class 0 the last average decides every stop whose trace
        # budget admits e = 0, the floor still closing two of them
        passes = []
        floors = maximal.CheckerStacks.floors.func

        def counting(checker):
            passes.append(checker)
            return floors(checker)

        prop = functools.cached_property(counting)
        prop.__set_name__(maximal.CheckerStacks, "floors")
        monkeypatch.setattr(maximal.CheckerStacks, "floors", prop)
        args, reference = self.certify_args(tmp_path, workloads,
                                            "certify-mix8", 0)
        code = run_cli("certify", *args, "--out", str(tmp_path))
        assert code == 0
        assert ((tmp_path / "certify.csv").read_bytes()
                == reference.read_bytes())
        summary = json.loads((tmp_path / "certify.json").read_text())
        assert summary["summary"]["won_by"]["floor"] == 2
        assert passes == []

    @pytest.mark.parametrize("name,checkers", [("kraus8", 6),
                                               ("certify-mix8", 2)])
    def test_one_checker_per_element_and_weight(self, tmp_path, monkeypatch,
                                                workloads, name, checkers):
        # kraus8: 3 seed classes x (lp, weighted) at p = 1 and 2;
        # certify-mix8: one seed class x (yeadon, lp | weighted, one-sided)
        received = []
        for method, build in list(cli._CERTIFY_BUILDERS.items()):
            def recording(checker, p, eps_grid, method=method, build=build):
                received.append((method, checker))
                return build(checker, p, eps_grid)
            monkeypatch.setitem(cli._CERTIFY_BUILDERS, method, recording)
        run_seeds = {}  # id(channel) -> run seed

        def recording_channel(*args, **kwargs):
            channel = channel_from_spec(*args, **kwargs)
            run_seeds[id(channel)] = kwargs["run_seed"]
            return channel

        monkeypatch.setattr(cli, "channel_from_spec", recording_channel)
        args, reference = self.certify_args(tmp_path, workloads, name, 0)
        code = run_cli("certify", *args, "--out", str(tmp_path))
        assert code == 0
        assert ((tmp_path / "certify.csv").read_bytes()
                == reference.read_bytes())

        config = json.loads(Path(args[1]).read_text())
        if "--seed" in args:
            config["seed"] = int(args[args.index("--seed") + 1])
        section, algebra = config["certify"], AlgebraSpec.from_json(
            config["algebra"])
        beta = WeightSequence.from_json(section["weights"])
        assert len({id(checker) for _, checker in received}) == checkers
        for method, checker in received:
            plain = method in cli._PLAIN_METHODS
            assert (checker.beta is None) == plain
            assert checker.weight_bound == (1.0 if plain else beta.bound)
            if not plain:
                assert checker.beta.period == beta.period
            # the element of one seed class, on that class's channel
            spec = dict(section["element"])
            if plain and spec["kind"] == "random":
                spec["kind"] = "random-positive"
            [seed_idx] = [s for s in range(section["num_seeds"])
                          if np.array_equal(cli.element_from_spec(
                              algebra, spec,
                              stream(config["seed"], "element", s)).vec(),
                              checker.x.vec())]
            assert run_seeds[id(checker.channel)] == derive_seed(
                config["seed"], "cell", seed_idx)

    def test_unit_weight_at_bound_one_checks_with_the_plain_methods(
            self, tmp_path, monkeypatch):
        # weighted under the unit weight checks the plain averages against
        # bound 1, so it shares lp's checker: one pass of x for both, and
        # one of x^2 each, as when the config has no weight at all
        config = json.loads((FIXTURES / "kraus8.json").read_text())
        config["certify"]["num_seeds"] = 1
        del config["certify"]["weights"]
        unit = {"weights": {"kind": "constant", "period": [[1, 0]]}}
        outputs = {}
        for name, weights in [("unit", unit), ("none", {})]:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(
                dict(config, certify={**config["certify"], **weights})))
            with monkeypatch.context() as patch:
                calls = self.recurrence_passes(patch)
                code = run_cli("certify", "--config", str(path),
                               "--out", str(tmp_path / name))
            assert code == 0
            assert len(calls) == 3
            outputs[name] = (tmp_path / name / "certify.csv").read_bytes()
        assert outputs["unit"] == outputs["none"]

    def test_weight_bound_of_a_unit_weight(self, tmp_path):
        # a weight identically one declared with C = 2: weighted checks the
        # plain averages (sup budget 2 eps for one part) and prints C; lp
        # prints 1
        config = json.loads((FIXTURES / "kraus8.json").read_text())
        config["certify"].update(p_grid=[2], weights={
            "kind": "constant", "period": [[1, 0]], "C": 2})
        path = tmp_path / "unit.json"
        path.write_text(json.dumps(config))
        code = run_cli("certify", "--config", str(path),
                       "--out", str(tmp_path))
        assert code == 0
        with open(tmp_path / "certify.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert sorted({row["method"] for row in rows}) == ["lp", "weighted"]
        for row in rows:
            assert float(row["weight_bound"]) == \
                (2.0 if row["method"] == "weighted" else 1.0)
            assert float(row["sup_budget"]) == 2.0 * float(row["eps"])

    # results depend only on the config and the command line, not on a
    # leftover NCERG_TOL in the environment
    @pytest.mark.parametrize("value", ["1e-15", "abc"])
    @pytest.mark.parametrize("name", ["cycle4", "kraus8"])
    def test_environment_tolerance_ignored(self, tmp_path, monkeypatch,
                                           name, value):
        monkeypatch.setenv("NCERG_TOL", value)
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

    def test_contradicted_verdict_exits_2(self, tmp_path, monkeypatch):
        def overclaiming(checker, p, eps_grid):
            return [WitnessReport(
                projection=Projection.identity(checker.channel.algebra),
                trace_defect=0.0, trace_budget=1.0,
                sup_compression=2.0 * eps, sup_budget=eps,
                method="overclaiming", mode="two_sided",
                checker_passed=True) for eps in eps_grid]

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

    def test_found_but_rejected_exits_2(self, tmp_path, monkeypatch):
        # a Hopf cut that keeps every atom: the hopf witness is found, but
        # the checker measures sup 4 against its budget eps = 2
        monkeypatch.setattr(
            maximal, "_strategy_hopf_abelian",
            lambda checker, stops: [
                Projection.identity(checker.channel.algebra) for _ in stops])
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run_cli("certify", "--config", str(FIXTURES / "cycle4.json"),
                           "--out", str(tmp_path))
        assert code == 2
        assert "checker discrepancy" in err.getvalue()
        with open(tmp_path / "certify.csv", newline="") as handle:
            hopf = next(row for row in csv.DictReader(handle)
                        if row["method"] == "hopf")
        assert (hopf["found"], hopf["checker_passed"]) == ("true", "false")
        assert (float(hopf["sup_value"]), float(hopf["sup_budget"])) == \
            (4.0, 2.0)
        summary = json.loads((tmp_path / "certify.json").read_text())
        assert summary["summary"]["checker_discrepancies"] == 1

    def test_lp_certifies_through_positive_parts(self, tmp_path):
        # x = diag(1, -2) has two nonzero positive parts, so both budgets
        # double: 2 (||x||_2 / eps)^2 = 2 * 5 / 0.25 and 2 * 2 eps
        config = {"seed": 1, "horizon": 8,
                  "algebra": {"blocks": [[1, 1.0], [1, 1.0]]},
                  "channel": {"kind": "identity"},
                  "certify": {"methods": ["lp"], "eps_grid": [0.5],
                              "p_grid": [2], "element": {
                                  "kind": "diagonal", "values": [1, -2]}}}
        path = tmp_path / "lp.json"
        path.write_text(json.dumps(config))
        code = run_cli("certify", "--config", str(path),
                       "--out", str(tmp_path))
        assert code == 0
        with open(tmp_path / "certify.csv", newline="") as handle:
            [row] = list(csv.DictReader(handle))
        assert float(row["trace_budget"]) == pytest.approx(40.0)
        assert float(row["sup_budget"]) == pytest.approx(2.0)
        assert row["checker_passed"] == "true"


class TestWorkloadReferences:
    # every seed class of the benchmark workloads outside certify: the
    # exact limits of a 28x28 Kraus channel, and weighted averages with
    # rotated limits on unequal block weights; their summaries hold the
    # a.u. and b.a.u. profiles that `peel` writes
    @pytest.mark.parametrize("name,seed", [
        (name, seed) for name in ("converge-kraus28", "besicovitch-3block")
        for seed in range(8)])
    def test_workload_matches_reference(self, tmp_path, workloads,
                                        bench_check, name, seed):
        subcommand, build = workloads.WORKLOADS[name]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(build()))
        cli_seed = workloads.cli_seed(name, seed)
        reference = REFERENCE / name / f"seed{cli_seed}"
        out = tmp_path / "out"
        code = run_cli(subcommand, "--config", str(config), "--out",
                       str(out), "--seed", str(cli_seed))
        assert code == 0
        assert ((out / f"{subcommand}.csv").read_bytes()
                == reference.with_suffix(".csv").read_bytes())
        # the summary holds what the CSV does not (profiles, spectral
        # gaps), compared by the benchmark's own rule
        summary = json.loads((out / f"{subcommand}.json").read_text())
        want = json.loads(reference.with_suffix(".json").read_text())
        assert bench_check.compare_summary(summary["summary"],
                                           want["summary"]) == []

    @pytest.mark.parametrize("seed", range(8))
    def test_besicovitch_limits_need_no_dense_spectrum(
            self, tmp_path, monkeypatch, workloads, seed):
        # the unitary mixture has r = 1; the period [1, i, -1, -i] has
        # one nonzero coefficient, at i, and the one rotated limit there
        # is 0, proved by the numerical range of each block
        def forbidden(*args, **kwargs):
            raise AssertionError("dense spectrum computed")

        check = Channel._numerical_range_excludes
        phases = []

        def recording(channel, phase):
            phases.append(phase)
            return check(channel, phase)

        monkeypatch.setattr(np.linalg, "eigvals", forbidden)
        monkeypatch.setattr(Channel, "_numerical_range_excludes", recording)
        subcommand, build = workloads.WORKLOADS["besicovitch-3block"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(build()))
        cli_seed = workloads.cli_seed("besicovitch-3block", seed)
        reference = REFERENCE / "besicovitch-3block" / f"seed{cli_seed}"
        out = tmp_path / "out"
        code = run_cli(subcommand, "--config", str(config), "--out",
                       str(out), "--seed", str(cli_seed))
        assert code == 0
        assert ((out / f"{subcommand}.csv").read_bytes()
                == reference.with_suffix(".csv").read_bytes())
        summary = json.loads((out / f"{subcommand}.json").read_text())
        assert summary["summary"]["spectrum"] == "numerical-range"
        assert phases == [pytest.approx(1j)]


class TestNormsAndBoyd:
    TARGETS = [{"kind": "lp", "p": 2}, {"kind": "lp", "p": 1.5},
               {"kind": "lorentz", "p": 3, "q": 2},
               {"kind": "lorentz", "p": 2, "q": 1}]

    def run(self, tmp_path, subcommand, section):
        config = {"seed": 7, "algebra": {"blocks": [[2, 1.0], [3, 0.5]]},
                  subcommand: section}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = run_cli(subcommand, "--config", str(path), "--out", str(out))
        with open(out / f"{subcommand}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads((out / f"{subcommand}.json").read_text())
        return code, rows, summary["summary"]

    @pytest.mark.parametrize("s_grid", [None, [0.01, 0.5, 3.0, 1000.0]])
    def test_boyd_runs(self, tmp_path, s_grid):
        section = {"targets": self.TARGETS}
        if s_grid is not None:
            section["s_grid"] = s_grid
        code, rows, summary = self.run(tmp_path, "boyd", section)
        assert code == 0
        grid = s_grid or BOYD_LIMIT_SCALES
        # one row per (target, s), then one estimate row per target
        assert len(rows) == len(self.TARGETS) * (len(grid) + 1)
        estimates = [row for row in rows if row["s"] == ""]
        assert len(estimates) == len(self.TARGETS)
        assert all(row["within_5pct"] == "true" for row in estimates)
        assert all(t["within_5pct"] for t in summary["targets"])
        for row in rows:
            if row["s"]:
                expected = float(row["s"]) ** (1.0 / float(row["p"]))
                assert float(row["dilation_norm"]) == pytest.approx(
                    expected, rel=1e-12, abs=0.0)

    def test_norms_runs(self, tmp_path):
        section = {"num_operators": 3, "p_grid": [1, 2, 3.5],
                   "pq_grid": [[2, 1], [3, 2], [1, 1]]}
        code, rows, summary = self.run(tmp_path, "norms", section)
        assert code == 0
        assert summary["all_green"] is True
        # per operator: two checks per p, one per (p, q), and one more
        assert len(rows) == summary["rows"] == 3 * (2 * 3 + 3 + 1)
        assert all(row["passed"] == "true" for row in rows)


class TestRuntimeImports:
    # scipy and jsonschema are test extras only; importing them costs
    # start-up time and resident memory on every CLI run

    @staticmethod
    def imported(code, packages):
        """The modules of `packages` loaded after running `code` in a
        fresh interpreter."""
        code += ("; import sys; print(sorted(m for m in sys.modules "
                 f"if m.split('.')[0] in {sorted(packages)!r}))")
        src = Path(cli.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_runtime_never_imports_scipy(self):
        assert self.imported("import ncergodic, ncergodic.cli",
                             {"scipy"}) == "[]"

    def test_config_validation_never_imports_jsonschema(self):
        # the CLI validates configs in-package; jsonschema and the
        # packages it loads stay out of the process
        code = ("from ncergodic import cli; "
                f"cli.load_config({str(FIXTURES / 'm2_unitary.json')!r}, "
                "'converge')")
        assert self.imported(code, {"jsonschema", "referencing", "rpds",
                                    "attrs", "jsonschema_specifications"}) \
            == "[]"
