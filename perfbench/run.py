"""Benchmark for the ncergodic CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in perfbench/workloads.py, or ``all``.

--trace 0 runs the CLI as a user does, one subprocess per repeat, and
reports end-to-end metrics as medians over the repeats:

  wall_s       launch to exit of one CLI process
  setup_s      launch until ``load_config`` returns (interpreter, imports,
               schema validation)
  run_s        time inside the subcommand runner ``cli.run_<subcommand>``
  peak_rss_mb  peak resident memory of the CLI process

It also prints run_rel: the median run_s over the median time of a
reference kernel timed three times just before and three times just
after every repeat, meant to cancel the machine's drift in speed.

--trace 1 runs the CLI in this process three times (traced, untraced,
traced) with every layer function wrapped (perfbench/tracer.py), and
reports the per-layer metrics of perfbench/layers.py.  The two traced
runs must give identical counts.  It also runs the bundled fixtures.

Every CLI run is checked against a recorded reference CSV
(perfbench/check.py).  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  Spans, samples and
provenance are written under .perfbench/ at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from check import check_run
from workloads import FIXTURES, WORKLOADS, cli_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
WORK = ROOT / ".perfbench"

MIN_REPEATS = 3         # timed CLI repeats, even past --seconds
KERNEL_CALLS = 3        # reference-kernel timings before and after a repeat
CHILD_TIMEOUT = 150.0   # seconds before a CLI process is killed

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}


# ---------------------------------------------------------------------
# Reference kernel: a fixed amount of small-matrix work driven from
# Python, the mix the CLI's hot loops have.  It stays single-threaded:
# on a shared 2-vCPU host a multithreaded BLAS call varies several times
# more than the CLI does, and then the ratio follows the kernel's noise.
# ---------------------------------------------------------------------

_KERNEL_MATRICES = list(np.random.default_rng(0).random((1200, 4, 4)))


def ref_kernel() -> float:
    """Seconds taken by a pure-Python loop of small matmuls and norms."""
    start = time.perf_counter()
    acc = _KERNEL_MATRICES[0]
    for m in _KERNEL_MATRICES:
        acc = acc @ m
        acc /= np.abs(acc).max()
        np.linalg.norm(m, 2)
    return time.perf_counter() - start


# ---------------------------------------------------------------------
# Provenance.
# ---------------------------------------------------------------------

def _blas():
    """(name, thread count) of the BLAS numpy loaded."""
    name = "unknown"
    try:
        name = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        pass
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
        for path in libs:
            lib = ctypes.CDLL(path)
            for fn in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
                if hasattr(lib, fn):
                    get = getattr(lib, fn)
                    get.argtypes, get.restype = [], ctypes.c_int
                    threads = get()
                    break
    except OSError:
        pass
    return name, threads


def provenance(seed, workload=None):
    import scipy

    commit = "unknown"
    try:
        # Only a repository rooted here; not one that merely contains it.
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    blas, threads = _blas()
    prov = {"commit": commit, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": threads, "nproc": os.cpu_count(),
            "seed": seed}
    if workload in WORKLOADS:
        prov["cli_seed"] = cli_seed(workload, seed)
    return prov


# ---------------------------------------------------------------------
# Running the CLI.
# ---------------------------------------------------------------------

def child_env():
    """The caller's environment, minus NCERG_TOL (it changes certificate
    tolerances and CSV output), with the checkout's src first on the
    path.  BLAS threads are left at their default."""
    env = dict(os.environ)
    env.pop("NCERG_TOL", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def launch(cli_args, times_path, setup_only=False):
    """Run the CLI once in a child process; returns its timings."""
    cmd = [sys.executable, str(HERE / "cli_child.py"), str(times_path)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += list(cli_args)
    log = Path(times_path).with_suffix(".log")
    with open(log, "w") as out:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        times = json.loads(Path(times_path).read_text())
    except (OSError, ValueError):
        times = {}
    if proc.returncode != 0:
        tail = log.read_text().strip().splitlines()[-3:]
        print(f"CLI exited with {proc.returncode}: {' | '.join(tail)}")
    loaded = times.get("config_loaded")
    return {"code": proc.returncode,
            "wall_s": end - start,
            "setup_s": loaded - start if loaded is not None else None,
            "run_s": times.get("run_s"),
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def write_config(workdir, workload):
    _, build = WORKLOADS[workload]
    path = Path(workdir) / f"{workload}.json"
    path.write_text(json.dumps(build(), indent=1))
    return path


def cli_args(workload, config_path, out_dir, seed):
    subcommand, _ = WORKLOADS[workload]
    return [subcommand, "--config", str(config_path), "--out", str(out_dir),
            "--seed", str(cli_seed(workload, seed))]


def reference_path(workload, seed):
    """Recorded output of a workload, without the .csv/.json suffix."""
    return REFERENCE / workload / f"seed{cli_seed(workload, seed)}"


def fixture_check(workdir):
    """Run each bundled fixture through the CLI and check its output."""
    checks = {}
    for name, subcommand in FIXTURES.items():
        out = Path(workdir) / f"fixture-{name}"
        config = SRC / "ncergodic" / "fixtures" / f"{name}.json"
        run = launch([subcommand, "--config", str(config), "--out", str(out)],
                     Path(workdir) / f"fixture-{name}.times")
        checks[name] = check_run(out, subcommand, run["code"],
                                 REFERENCE / "fixtures" / name)
    return checks


# ---------------------------------------------------------------------
# End-to-end run (--trace 0).
# ---------------------------------------------------------------------

def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(workload, seed, seconds, workdir):
    subcommand, _ = WORKLOADS[workload]
    config = write_config(workdir, workload)
    args = lambda out: cli_args(workload, config, out, seed)
    reference = reference_path(workload, seed)

    # Untimed warm-up: byte-compiles the package and fills the file cache.
    launch(args(workdir / "warm"), workdir / "warm.times", setup_only=True)

    samples = {name: [] for name in E2E_UNITS}
    kernel = []
    checks = []
    # Repeat while the next round is expected to end within the budget.
    deadline = time.monotonic() + seconds
    i = 0
    round_s = 0.0
    while i < MIN_REPEATS or time.monotonic() + round_s <= deadline:
        round_start = time.monotonic()
        out = workdir / f"run{i}"
        before = [ref_kernel() for _ in range(KERNEL_CALLS)]
        run = launch(args(out), workdir / f"run{i}.times")
        after = [ref_kernel() for _ in range(KERNEL_CALLS)]
        check = check_run(out, subcommand, run["code"], reference)
        checks.append(check)
        shutil.rmtree(out, ignore_errors=True)
        i += 1
        round_s = time.monotonic() - round_start
        if not check.ok or run["run_s"] is None:
            continue
        kernel += before + after
        samples["wall_s"].append(run["wall_s"])
        samples["setup_s"].append(run["setup_s"])
        samples["run_s"].append(run["run_s"])
        samples["peak_rss_mb"].append(run["peak_rss_mb"])

    metrics = {name: {"value": statistics.median(values),
                      "unit": E2E_UNITS[name]}
               for name, values in samples.items() if values}
    cells = sum(c.cells for c in checks)
    return {
        "metrics": metrics,
        "samples": samples,
        "ref_kernel_s": kernel,
        # Pooled over the run: one kernel timing is too short to say how
        # fast the machine was during the repeat it sits next to.
        "run_rel": (statistics.median(samples["run_s"])
                    / statistics.median(kernel) if kernel else None),
        "checks": checks,
        "found_frac": (sum(c.found for c in checks) / cells
                       if subcommand == "certify" and cells else None),
    }


# ---------------------------------------------------------------------
# Traced run (--trace 1).
# ---------------------------------------------------------------------

def _summary_counts(out_dir, subcommand):
    """(cells, found) from a run's summary; (1, 0) when it has none, in
    which case the output check has already failed the run."""
    try:
        summary = json.loads(
            (Path(out_dir) / f"{subcommand}.json").read_text())["summary"]
    except (OSError, ValueError, KeyError):
        return 1, 0
    if subcommand == "certify":
        return summary["cells"], summary["found"]
    if subcommand == "converge":
        return len(summary["cells"]), 0
    return 1, 0


def traced(workload, seed, workdir):
    os.environ.pop("NCERG_TOL", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from ncergodic import cli

    from layers import EXACT, Counters, dominant_layer, layer_metrics
    from tracer import Tracer

    subcommand, build = WORKLOADS[workload]
    config = write_config(workdir, workload)
    reference = reference_path(workload, seed)
    checks = []

    def call(tag):
        out = workdir / tag
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(cli_args(workload, config, out, seed))
        checks.append(check_run(out, subcommand, code, reference))
        return out

    def traced_call(tag):
        counters = Counters()
        with Tracer(counters.hooks()) as tracer:
            out = call(tag)
        cells, found = _summary_counts(out, subcommand)
        return tracer, layer_metrics(tracer, counters, cells,
                                     build()["horizon"], found)

    _, first = traced_call("traced1")

    runner = cli._RUNNERS[subcommand]
    untraced = {}

    def timed_runner(*a, **k):
        start = time.perf_counter()
        try:
            return runner(*a, **k)
        finally:
            untraced["run_s"] = time.perf_counter() - start

    cli._RUNNERS[subcommand] = timed_runner
    try:
        call("untraced")
    finally:
        cli._RUNNERS[subcommand] = runner

    kernel = [ref_kernel() for _ in range(KERNEL_CALLS)]
    tracer, metrics = traced_call("traced2")
    kernel += [ref_kernel() for _ in range(KERNEL_CALLS)]
    metrics["trace.overhead_frac"] = (metrics["cli.run_s"]
                                      / untraced["run_s"] - 1.0)
    metrics["bench.ref_kernel_s"] = statistics.median(kernel)

    unequal = [name for name in EXACT if first[name] != metrics[name]]
    spans_path = WORK / f"trace-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps(tracer.to_json()))
    return {"metrics": metrics, "checks": checks, "unequal_counts": unequal,
            "dominant": dominant_layer(metrics), "spans": spans_path}


# ---------------------------------------------------------------------
# Command line.
# ---------------------------------------------------------------------

PER_LAYER_UNITS = {
    "calls": "count", "spans": "count", "_repeats": "ratio",
    "_per_cell": "ratio", "_per_found": "ratio", "_flops": "flop",
    "_mb": "MiB", "_frac": "ratio",
}


def per_layer_unit(name):
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "s"


def run_workload(workload, seed, seconds, trace):
    """One workload; returns (metrics, checks, correct)."""
    workdir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if trace:
            result = traced(workload, seed, workdir)
            metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                       for name, value in result["metrics"].items()}
        else:
            result = end_to_end(workload, seed, seconds, workdir)
            metrics = result["metrics"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks = result["checks"]
    correct = all(c.ok for c in checks)

    for name, entry in metrics.items():
        line = f"{workload} {name}: {entry['value']:.6g} {entry['unit']}"
        values = result.get("samples", {}).get(name)
        if values:
            lo, hi = _quartiles(values)
            line += f" (median of {len(values)}; quartiles {lo:.6g}..{hi:.6g})"
        print(line)
    if trace:
        print(f"{workload} dominant self-time layer: {result['dominant']}; "
              f"spans -> {result['spans']}")
        if result["unequal_counts"]:
            correct = False
            print(f"{workload} counts differ between traced runs: "
                  f"{', '.join(result['unequal_counts'])}")
    else:
        kernel = result["ref_kernel_s"]
        if kernel:
            print(f"{workload} ref_kernel_s: {statistics.median(kernel):.6g}"
                  f" s (median of {len(kernel)})")
            print(f"{workload} run_rel: {result['run_rel']:.6g} ratio "
                  "(median run_s over median ref_kernel_s)")
        if result["found_frac"] is not None:
            print(f"{workload} found_frac: {result['found_frac']:.6g} ratio")
    _report_checks(workload, checks)

    record = {"workload": workload, "trace": trace,
              "provenance": provenance(seed, workload), "metrics": metrics,
              "attempted": len(checks),
              "failed": sum(1 for c in checks if not c.ok),
              "correct": correct}
    if not trace:
        record["samples"] = result["samples"]
        record["ref_kernel_s"] = result["ref_kernel_s"]
        record["run_rel"] = result["run_rel"]
    (WORK / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
     ).write_text(json.dumps(record, indent=1))
    return metrics, checks, correct


def _report_checks(label, checks):
    failed = sum(1 for c in checks if not c.ok)
    for c in checks:
        for problem in c.problems[:5]:
            print(f"{label} output check: {problem}")
    print(f"{label} failed_frac: {failed / max(len(checks), 1):.6g} ratio "
          f"({failed} of {len(checks)} runs)")
    identical = sum(1 for c in checks if c.byte_identical)
    print(f"{label} byte-identical CSVs: {identical} of {len(checks)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ncergodic" / "cli.py").is_file():
        print(f"error: no ncergodic package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    print("provenance: " + json.dumps(provenance(args.seed, args.workload)))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, checks, correct = {}, [], True
    for name in names:
        m, c, ok = run_workload(name, args.seed, args.seconds,
                                bool(args.trace))
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        checks += c
        correct = correct and ok
    if args.trace or args.workload == "all":
        workdir = WORK / f"fixtures-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            fixtures = fixture_check(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for name, check in fixtures.items():
            _report_checks(f"fixture {name}", [check])
            checks.append(check)
            correct = correct and check.ok
    print(json.dumps({"correct": correct, "attempted": len(checks),
                      "failed": sum(1 for c in checks if not c.ok),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
