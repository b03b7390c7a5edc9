"""Per-layer metrics from a traced run.

Times are self times (a span's duration minus its children's) summed
over the spans a metric names, except where marked inclusive.  Counts
repeat exactly from run to run; ``apply_flops`` and ``superop_mb`` are
computed from operand shapes, not measured.
"""

from __future__ import annotations

import hashlib

from tracer import Tracer

FIXED_POINT = ("dynamics.fixed_point", "dynamics.rotated_fixed_point")
APPLY = "dynamics.Channel.apply"
GAP = "dynamics.Channel.spectral_gap"
VERIFY = ("dynamics.verify_ds", "dynamics._positive_test_set")
CHECK = "maximal.check_witness"
RUNNERS = ("cli.run_certify", "cli.run_converge", "cli.run_besicovitch",
           "cli.run_verify_channel", "cli.run_norms", "cli.run_boyd")
TRAJECTORY = ("convergence.trajectory", "convergence.mean_ergodic_check")
WITNESS = ("convergence.au_witness", "convergence.bau_witness",
           "convergence._deviation_witness",
           "convergence._peel_on_deviations",
           "convergence._compressed_value")
BESICOVITCH = ("convergence.besicovitch_experiment",)

# Metrics whose values must repeat exactly across runs of the same code.
EXACT = ("dynamics.fixed_point_calls", "dynamics.fixed_point_repeats",
         "dynamics.apply_calls", "dynamics.apply_flops",
         "dynamics.trajectories_per_cell", "dynamics.superop_mb",
         "algebra.compressed_norm_calls", "algebra.one_sided_norm_calls",
         "maximal.check_calls", "maximal.checks_per_found",
         "ncnorms.norm_calls", "spectral.calls", "rng.calls", "trace.spans")

# Self-time metrics, compared to find a workload's dominant layer.
SELF_TIMES = ("dynamics.fixed_point_s", "dynamics.spectral_gap_s",
              "dynamics.apply_s", "dynamics.build_s", "dynamics.verify_ds_s",
              "algebra.compressed_norm_s", "algebra.one_sided_norm_s",
              "algebra.other_s", "maximal.search_s", "maximal.check_self_s",
              "convergence.trajectory_s", "convergence.witness_s",
              "convergence.besicovitch_s", "ncnorms.norm_s", "spectral.s",
              "weights.certificate_s", "rng.s", "cli.self_s")


class Counters:
    """Call hooks that record what a span's duration cannot: operand
    sizes for apply, and which fixed points were recomputed."""

    def __init__(self):
        self.apply_flops = 0
        self.superop_bytes = 0
        self.fixed_point_keys = {}

    def _apply(self, args, kwargs):
        superop = args[0].superop
        self.apply_flops += 8 * superop.shape[0] * superop.shape[1]
        self.superop_bytes = max(self.superop_bytes, superop.nbytes)

    def _fixed_point(self, args, kwargs):
        channel, x = args[0], args[1]
        phase = complex(args[2]) if len(args) > 2 else kwargs.get("phase", 1)
        # Keyed by superoperator identity; holding the array in the dict
        # keeps that identity from being reused by a later channel.
        superop = channel.superop
        key = (id(superop), hashlib.sha1(x.vec().tobytes()).hexdigest(),
               phase)
        self.fixed_point_keys[key] = superop

    def hooks(self):
        return {APPLY: self._apply,
                "dynamics.fixed_point": self._fixed_point,
                "dynamics.rotated_fixed_point": self._fixed_point}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, counters: Counters, cells: int,
                  horizon: int, found: int):
    """Per-layer metrics of one traced ``cli.main`` call."""
    runner = next(s for s in tracer.spans if s.name in RUNNERS)
    inside = {id(runner)} | {id(s) for s in tracer.descendants_of(runner)}
    selfs = [(s, t) for s, t in tracer.self_times() if id(s) in inside]

    def self_s(pred):
        return sum(t for s, t in selfs if pred(s.name))

    def calls(pred):
        return sum(1 for s, _ in selfs if pred(s.name))

    def inclusive(name):
        return sum(s.duration for s in tracer.spans if s.name == name)

    def layer(prefix):
        return lambda name: name.startswith(prefix + ".")

    dyn_named = set(FIXED_POINT) | {"dynamics._peripheral_projection",
                                    APPLY, GAP} | set(VERIFY)
    maximal = layer("maximal")
    apply_calls = calls(lambda n: n == APPLY)
    check_calls = calls(lambda n: n == CHECK)
    fp_calls = calls(lambda n: n in FIXED_POINT)
    m = {
        "cli.run_s": runner.duration,
        "cli.load_config_s": inclusive("cli.load_config"),
        "cli.write_outputs_s": inclusive("cli._write_outputs"),
        "cli.self_s": self_s(layer("cli")),
        "dynamics.fixed_point_s": self_s(
            lambda n: n in FIXED_POINT
            or n == "dynamics._peripheral_projection"),
        "dynamics.fixed_point_calls": fp_calls,
        "dynamics.fixed_point_repeats": _ratio(
            fp_calls, len(counters.fixed_point_keys)),
        "dynamics.spectral_gap_s": self_s(lambda n: n == GAP),
        "dynamics.apply_calls": apply_calls,
        "dynamics.apply_s": self_s(lambda n: n == APPLY),
        "dynamics.apply_flops": counters.apply_flops,
        "dynamics.trajectories_per_cell": _ratio(apply_calls,
                                                 cells * horizon),
        "dynamics.superop_mb": counters.superop_bytes / 2 ** 20,
        "dynamics.build_s": self_s(
            lambda n: n.startswith("dynamics.") and n not in dyn_named),
        "dynamics.verify_ds_s": self_s(lambda n: n in VERIFY),
        "algebra.compressed_norm_calls": calls(
            lambda n: n == "algebra.compressed_norm"),
        "algebra.compressed_norm_s": self_s(
            lambda n: n == "algebra.compressed_norm"),
        "algebra.one_sided_norm_calls": calls(
            lambda n: n == "algebra.one_sided_norm"),
        "algebra.one_sided_norm_s": self_s(
            lambda n: n == "algebra.one_sided_norm"),
        "algebra.other_s": self_s(
            lambda n: n.startswith("algebra.") and n not in
            ("algebra.compressed_norm", "algebra.one_sided_norm")),
        "maximal.search_s": self_s(
            lambda n: maximal(n) and n not in (CHECK,
                                               "maximal.measure_compressions")),
        "maximal.check_calls": check_calls,
        "maximal.check_s": sum(s.duration for s, _ in selfs
                               if s.name == CHECK),
        "maximal.check_self_s": self_s(
            lambda n: n in (CHECK, "maximal.measure_compressions")),
        "maximal.checks_per_found": _ratio(check_calls, found),
        "convergence.trajectory_s": self_s(lambda n: n in TRAJECTORY),
        "convergence.witness_s": self_s(lambda n: n in WITNESS),
        "convergence.besicovitch_s": self_s(lambda n: n in BESICOVITCH),
        "ncnorms.norm_calls": calls(layer("ncnorms")),
        "ncnorms.norm_s": self_s(layer("ncnorms")),
        "spectral.calls": calls(layer("spectral")),
        "spectral.s": self_s(layer("spectral")),
        "weights.certificate_s": self_s(layer("weights")),
        "rng.calls": calls(layer("rng")),
        "rng.s": self_s(layer("rng")),
        "trace.spans": len(tracer.spans),
    }
    return m


def dominant_layer(metrics):
    return max(SELF_TIMES, key=lambda name: metrics[name])
