"""Shared numeric constants and small helpers.

The tolerances are module constants that no argument, config key or
environment variable changes, so a result depends only on the config
and the command line.
"""

from __future__ import annotations

import hashlib
import json

# Certificate tolerance (idempotency, self-adjointness, positivity, DS
# checks, witness budgets).
DEFAULT_TOL = 1e-9

# Eigenvalues closer than this are merged into one spectral cluster.
EIG_CLUSTER_TOL = 1e-8

# Kernel threshold used when intersecting projection ranges.
MEET_KERNEL_TOL = 1e-8

# Most entries (16 bytes each, complex) that one slice of a sliced pass
# over a superoperator or a stack of averages holds at once.
SLICE_ENTRIES = 2 ** 14


def row_slices(rows, row_size):
    """Slices covering range(rows) in order, each of at least one row
    and, where a row fits, at most SLICE_ENTRIES entries of row_size.
    A pass that works per row, per element or per matrix gives the same
    bits in slices as whole."""
    step = max(1, SLICE_ENTRIES // row_size)
    return [slice(start, start + step) for start in range(0, rows, step)]


def dyadic_schedule(n_max):
    """Evaluation points 1, 2, 4, ... up to and including n_max."""
    if n_max < 1:
        raise ValueError("horizon must be >= 1")
    points = []
    n = 1
    while n < n_max:
        points.append(n)
        n *= 2
    points.append(n_max)
    return points


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def short_hash(obj) -> str:
    """12-hex content hash of a JSON-serializable object."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:12]


def fmt_cell(value) -> str:
    """Deterministic CSV cell formatting (shortest round-trip floats)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)
