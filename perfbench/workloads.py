"""The benchmark's workloads: CLI configs built in code, plus the bundled
fixtures that the output check also covers.

A workload's CLI seed is its base seed plus ``seed % SEED_CLASSES``, so
every seed the benchmark is given maps onto one of a few recorded
reference outputs (``perfbench/reference``).
"""

from __future__ import annotations

SEED_CLASSES = 8

_PERIOD_4 = {"kind": "periodic", "period": [[1, 0], [0, 1], [-1, 0], [0, -1]]}


def _cycle_matrix(n):
    """Cyclic shift on n atoms: atom j moves to atom j+1."""
    return [[1 if i == (j + 1) % n else 0 for j in range(n)]
            for i in range(n)]


def _certify_mix8():
    return {
        "seed": 11,
        "horizon": 256,
        "algebra": {"blocks": [[8, 1.0]]},
        "channel": {"kind": "unitary-mixture", "num": 3, "seed": 3},
        "certify": {
            "methods": ["yeadon", "lp", "weighted", "one-sided"],
            "p_grid": [2],
            "eps_grid": [0.1, 0.25, 0.5, 1.0],
            "num_seeds": 1,
            "element": {"kind": "random", "uniform_norm": 1.0},
            "weights": _PERIOD_4,
        },
    }


def _converge_kraus28():
    return {
        "seed": 5,
        "horizon": 256,
        "algebra": {"blocks": [[28, 1.0]]},
        "channel": {"kind": "random-kraus", "num_ops": 3, "seed": 2},
        "converge": {
            "element": {"kind": "random", "uniform_norm": 1.0},
            "norms": [{"kind": "uniform"}, {"kind": "lp", "p": 2},
                      {"kind": "lorentz", "p": 3, "q": 2},
                      {"kind": "measure"}],
            "eps": 0.1,
        },
    }


def _certify_cycle96():
    values = [0.0] * 96
    values[0], values[32], values[48] = 96.0, 5.0, 2.0
    return {
        "seed": 404,
        "horizon": 256,
        "algebra": {"blocks": [[1, 1.0]] * 96},
        "channel": {"kind": "substochastic", "matrix": _cycle_matrix(96)},
        "certify": {
            "methods": ["hopf", "yeadon"],
            "eps_grid": [2.0, 4.0],
            "p_grid": [1],
            "num_seeds": 1,
            "element": {"kind": "diagonal", "values": values},
        },
    }


def _besicovitch_3block():
    return {
        "seed": 9,
        "horizon": 2048,
        "algebra": {"blocks": [[16, 1.0], [8, 0.5], [4, 2.0]]},
        "channel": {"kind": "unitary-mixture", "num": 3, "seed": 4},
        "besicovitch": {
            "element": {"kind": "random", "uniform_norm": 1.0},
            "weights": _PERIOD_4,
            "norms": [{"kind": "uniform"}, {"kind": "lp", "p": 2},
                      {"kind": "lorentz", "p": 3, "q": 2}],
        },
    }


# name -> (subcommand, config builder)
WORKLOADS = {
    "certify-mix8": ("certify", _certify_mix8),
    "converge-kraus28": ("converge", _converge_kraus28),
    "certify-cycle96": ("certify", _certify_cycle96),
    "besicovitch-3block": ("besicovitch", _besicovitch_3block),
}

# Bundled fixtures (src/ncergodic/fixtures), run at their own seeds.
FIXTURES = {
    "cycle4": "certify",
    "kraus8": "certify",
    "m2_unitary": "converge",
}


def cli_seed(workload, seed):
    """CLI ``--seed`` for a benchmark seed."""
    _, build = WORKLOADS[workload]
    return build()["seed"] + seed % SEED_CLASSES
