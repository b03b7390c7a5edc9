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
