"""Record the reference outputs (CSV and JSON summary) that the output
check compares against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs every workload at each of its SEED_CLASSES CLI seeds, and every
bundled fixture at its own seed, and stores the outputs under
perfbench/reference.  Run it only at a commit whose output is trusted:
later commits are checked against what it writes.
"""

import shutil
import sys

from run import (REFERENCE, SRC, WORK, cli_args, launch, reference_path,
                 write_config)
from workloads import FIXTURES, SEED_CLASSES, WORKLOADS


def record(out_dir, subcommand, code, target):
    if code != 0:
        sys.exit(f"error: CLI exited with {code} for {target}")
    target.parent.mkdir(parents=True, exist_ok=True)
    for suffix in (".csv", ".json"):
        shutil.copyfile(out_dir / f"{subcommand}{suffix}",
                        target.with_suffix(suffix))
    print(f"recorded {target.relative_to(REFERENCE)}")


def main(names):
    workdir = WORK / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for workload in names or WORKLOADS:
        subcommand, _ = WORKLOADS[workload]
        config = write_config(workdir, workload)
        for seed in range(SEED_CLASSES):
            out = workdir / f"{workload}-{seed}"
            run = launch(cli_args(workload, config, out, seed),
                         workdir / f"{workload}-{seed}.times")
            record(out, subcommand, run["code"],
                   reference_path(workload, seed))
    if not names:
        for name, subcommand in FIXTURES.items():
            out = workdir / f"fixture-{name}"
            config = SRC / "ncergodic" / "fixtures" / f"{name}.json"
            run = launch([subcommand, "--config", str(config),
                          "--out", str(out)], workdir / f"{name}.times")
            record(out, subcommand, run["code"],
                   REFERENCE / "fixtures" / name)
    shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
