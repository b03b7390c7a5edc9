"""Run the ncergodic CLI the way ``python -m ncergodic.cli`` does, and
record when configuration loading finished and how long the subcommand
runner took.

Usage: python3 perfbench/cli_child.py TIMES_JSON [--setup-only] CLI_ARGS...

TIMES_JSON receives {"config_loaded": <time.monotonic()>, "run_s": ...}.  The monotonic clock is shared by all processes of the
machine, so the parent can subtract its own launch time from
"config_loaded".  With --setup-only the process exits with code 0 as soon
as load_config returns.
"""

import json
import sys
import time


def main():
    times_path, argv = sys.argv[1], sys.argv[2:]
    setup_only = argv[:1] == ["--setup-only"]
    if setup_only:
        argv = argv[1:]

    from ncergodic import cli

    record = {}

    def dump():
        with open(times_path, "w") as fh:
            json.dump(record, fh)

    load_config = cli.load_config

    def timed_load_config(*args, **kwargs):
        config = load_config(*args, **kwargs)
        record["config_loaded"] = time.monotonic()
        if setup_only:
            dump()
            sys.exit(0)
        return config

    def timed(runner):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return runner(*args, **kwargs)
            finally:
                record["run_s"] = time.perf_counter() - start
        return wrapper

    cli.load_config = timed_load_config
    subcommand = argv[0] if argv else ""
    if subcommand in cli._RUNNERS:
        cli._RUNNERS[subcommand] = timed(cli._RUNNERS[subcommand])
    try:
        code = cli.main(argv)
    finally:
        dump()
    sys.exit(code)


if __name__ == "__main__":
    main()
