"""Output check: compare a CLI run's CSV and JSON summary against a
recorded reference.

Discrete cells (method names, flags, labels, integer grid values) must
match exactly; numeric cells must agree within RTOL relative to the
larger magnitude, plus ATOL so that round-off around zero (1e-15 against
0.0) is not a mismatch.  The summary (witness profiles, spectral gaps,
found counts) follows the same rule for numbers; keys the reference lacks
are ignored, so a summary may gain fields (timings, provenance).
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12

# Columns compared as text even when they parse as numbers.
DISCRETE_COLUMNS = frozenset({
    "seed", "algebra", "channel", "p", "q", "eps", "horizon", "cell", "n",
    "method", "found", "checker_passed", "check", "passed", "target",
})


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _cells_agree(a, b):
    if a == b:
        return True
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return False
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return False
    return abs(x - y) <= RTOL * max(abs(x), abs(y)) + ATOL


def compare_summary(actual, reference, where="summary"):
    """Mismatches between two decoded JSON summaries."""
    if isinstance(reference, dict):
        if not isinstance(actual, dict):
            return [f"{where}: not an object"]
        problems = []
        for key, value in reference.items():
            if key not in actual:
                problems.append(f"{where}.{key}: missing")
            else:
                problems += compare_summary(actual[key], value,
                                            f"{where}.{key}")
        return problems
    if isinstance(reference, list):
        if not isinstance(actual, list) or len(actual) != len(reference):
            return [f"{where}: list differs in length"]
        problems = []
        for i, (a, b) in enumerate(zip(actual, reference)):
            problems += compare_summary(a, b, f"{where}[{i}]")
        return problems
    numbers = (int, float)
    if (isinstance(reference, numbers) and isinstance(actual, numbers)
            and not isinstance(reference, bool)
            and not isinstance(actual, bool)):
        same = _cells_agree(repr(float(actual)), repr(float(reference)))
    else:
        same = actual == reference and type(actual) is type(reference)
    return [] if same else [f"{where}: {actual!r} != {reference!r}"]


def compare_csv(actual: str, reference: str):
    """Return a list of mismatch descriptions (empty when they agree)."""
    got = list(csv.reader(io.StringIO(actual)))
    want = list(csv.reader(io.StringIO(reference)))
    if not got or not want:
        return ["empty csv"]
    if got[0] != want[0]:
        return [f"header {got[0]} != {want[0]}"]
    if len(got) != len(want):
        return [f"{len(got) - 1} rows, reference has {len(want) - 1}"]
    header = want[0]
    problems = []
    for r, (row, ref) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(row) != len(ref):
            problems.append(f"row {r}: {len(row)} cells, reference {len(ref)}")
            continue
        for name, a, b in zip(header, row, ref):
            same = a == b if name in DISCRETE_COLUMNS else _cells_agree(a, b)
            if not same:
                problems.append(f"row {r} {name}: {a!r} != {b!r}")
    return problems


class RunCheck:
    """Outcome of checking one CLI run."""

    def __init__(self, problems, byte_identical, found, cells):
        self.problems = problems
        self.byte_identical = byte_identical
        self.found = found
        self.cells = cells

    @property
    def ok(self) -> bool:
        return not self.problems


def check_run(out_dir, subcommand, exit_code, reference) -> RunCheck:
    """Check exit code, checker discrepancies, CSV and summary of one run
    against ``reference`` + ".csv" / ".json"."""
    out_dir = Path(out_dir)
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    found = cells = 0
    try:
        summary = json.loads(
            (out_dir / f"{subcommand}.json").read_text())["summary"]
        if summary.get("checker_discrepancies", 0) != 0:
            problems.append(
                f"{summary['checker_discrepancies']} checker discrepancies")
        if subcommand == "certify":
            found, cells = summary["found"], summary["cells"]
        actual = (out_dir / f"{subcommand}.csv").read_text()
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable output: {exc}")
        return RunCheck(problems, False, found, cells)
    reference = Path(reference)
    try:
        want_csv = reference.with_suffix(".csv").read_text()
        want_summary = json.loads(
            reference.with_suffix(".json").read_text())["summary"]
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable reference: {exc}")
        return RunCheck(problems, False, found, cells)
    problems += compare_csv(actual, want_csv)
    problems += compare_summary(summary, want_summary)
    return RunCheck(problems, actual == want_csv, found, cells)
