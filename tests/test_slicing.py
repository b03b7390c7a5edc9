"""The package's one memory-slicing rule, `util.row_slices`: every sliced
pass gives the same bits one row at a time as in the slices of the
default `util.SLICE_ENTRIES`."""

import numpy as np
import pytest

from ncergodic import algebra, dynamics, maximal, util
from ncergodic.algebra import AlgebraSpec, sup_screen
from ncergodic.dynamics import (_choi_min_eigenvalue, _hermitian_superop,
                                _kraus_superop, convex_combine,
                                random_kraus_channel, random_unitary_mixture)
from ncergodic.maximal import CheckerStacks
from ncergodic.rng import random_operator, stream

# 85 superoperator rows, one slice at the default; stacks of 81-entry
# averages that take two slices at horizon 256
BIG = AlgebraSpec(((9, 1.0), (2, 0.5)))
HORIZON = 256


def kraus_superop():
    rng = stream(1, "slicing", "kraus")
    ops = [random_operator(BIG, rng) for _ in range(3)]
    return lambda: _kraus_superop(BIG, ops)


def hermitian_superop():
    superop = random_kraus_channel(BIG, 3, stream(2, "slicing")).superop
    return lambda: _hermitian_superop(BIG, superop)


def choi_min_eigenvalue():
    # a map that passes the Hermitian test, and one that fails it in the
    # last row and its mirror only
    superop = random_kraus_channel(BIG, 3, stream(3, "slicing")).superop
    asymmetric = superop.copy()
    asymmetric[-1, 0] += 1e-6
    return lambda: tuple(_choi_min_eigenvalue(BIG, s)
                         for s in (superop, asymmetric))


def convex():
    rng = stream(4, "slicing")
    parts = [random_kraus_channel(BIG, 2, rng),
             random_unitary_mixture(BIG, 2, rng)]
    return lambda: convex_combine(parts, [0.3, 0.7]).superop


def checker_input():
    rng = stream(5, "slicing")
    channel = random_kraus_channel(BIG, 3, rng)
    return channel, random_operator(BIG, rng, kind="positive"), HORIZON


def floors():
    args = checker_input()
    return lambda: CheckerStacks(*args).floors


def screens():
    stacks = CheckerStacks(*checker_input()).stacks
    return lambda: tuple(sup_screen(stack) for stack in stacks)


# pass -> a builder of its inputs, which returns the pass as a closure
PASSES = {"kraus_superop": kraus_superop,
          "hermitian_superop": hermitian_superop,
          "choi_min_eigenvalue": choi_min_eigenvalue,
          "convex_combine": convex, "floors": floors, "sup_screen": screens}


def bits(value):
    """value as nested tuples of dtypes, shapes and bytes: equal exactly
    when the bits are."""
    if isinstance(value, tuple):  # a SupScreen included
        return tuple(bits(v) for v in value)
    if value is None:
        return None
    value = np.asarray(value)
    return value.dtype.str, value.shape, value.tobytes()


def recorded_slices(monkeypatch):
    """The rows of each slice that a sliced pass takes, in order."""
    rows = []

    def recording(count, row_size):
        slices = util.row_slices(count, row_size)
        rows.extend(len(range(count)[s]) for s in slices)
        return slices

    for module in (algebra, dynamics, maximal):
        monkeypatch.setattr(module, "row_slices", recording)
    return rows


def test_row_slices_cover_the_rows_in_order():
    for count, row_size in [(1, 1), (85, 85), (257, 64), (257, 81),
                            (9, 729), (28, 28 ** 3), (3, 2 ** 20)]:
        slices = util.row_slices(count, row_size)
        sizes = [len(range(count)[s]) for s in slices]
        assert [i for s in slices for i in range(count)[s]] == list(
            range(count))
        # at least one row, more only within SLICE_ENTRIES entries, and
        # no slice but the last could take one more row
        assert all(n == 1 or n * row_size <= util.SLICE_ENTRIES
                   for n in sizes)
        assert all((n + 1) * row_size > util.SLICE_ENTRIES
                   for n in sizes[:-1])


@pytest.mark.parametrize("name", sorted(PASSES))
def test_one_row_per_slice_gives_the_same_bits(name, monkeypatch):
    run = PASSES[name]()
    rows = recorded_slices(monkeypatch)
    default = bits(run())
    at_default = list(rows)
    rows.clear()
    monkeypatch.setattr(util, "SLICE_ENTRIES", 1)
    assert bits(run()) == default
    assert rows and set(rows) == {1}
    assert sum(rows) == sum(at_default) and len(rows) > len(at_default)
