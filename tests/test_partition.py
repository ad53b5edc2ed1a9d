import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from debias_lab.errors import DimensionMismatchError, PreconditionError
from debias_lab.grid import Axis
from debias_lab.partition import (
    BumpPartition,
    all_sign_vectors,
    bisect,
    bump,
    bumps,
    equal_blocks,
    iterated_partition,
)

AXIS = Axis("continuous", "z1", 256)


def test_bisect_uniform_weight():
    mem = bisect([np.ones(256)], AXIS)
    assert np.sum(mem) * AXIS.cell_weight == pytest.approx(0.5, abs=1e-12)


def test_bisect_vanishing_second_weight():
    m_hat = np.full(256, 0.5)
    mem = bisect([np.ones(256), 2 * m_hat - 1.0], AXIS)
    assert np.sum(mem) * AXIS.cell_weight == pytest.approx(0.5, abs=1e-12)
    assert abs(np.sum(mem * (2 * m_hat - 1)) * AXIS.cell_weight) <= 1e-12


def test_bisect_linear_weight():
    x = AXIS.coords
    mem = bisect([np.ones(256), x], AXIS)
    assert np.sum(mem) * AXIS.cell_weight == pytest.approx(0.5, abs=1e-6)
    assert np.sum(mem * x) * AXIS.cell_weight == pytest.approx(0.25, abs=1e-6)


def test_iterated_partition_uniform_quarters():
    part = iterated_partition([np.ones(256)], 2, AXIS)
    for j in range(4):
        assert part.block_integral(np.ones(256), j) == pytest.approx(0.25, abs=1e-12)


def test_iterated_partition_vanishing_weight_residuals():
    m_hat = np.full(256, 0.5)
    part = iterated_partition([np.ones(256), 2 * m_hat - 1.0], 4, AXIS)
    assert part.residuals.max() <= 1e-12


def test_iterated_partition_linear_weight():
    x = AXIS.coords
    part = iterated_partition([np.ones(256), x], 2, AXIS)
    for j in range(4):
        assert part.block_integral(np.ones(256), j) == pytest.approx(0.25, abs=1e-6)
        assert part.block_integral(x, j) == pytest.approx(0.125, abs=1e-6)


@pytest.mark.parametrize("block, named", [
    (7, "block 7 is not in [0, 4)"), (4, "block 4 is not in [0, 4)"),
    (-1, "block -1 is not in [0, 4)"), (1.5, "a block index must be an integer, got 1.5"),
])
def test_block_integral_refuses_a_block_off_the_partition(block, named):
    """Block 7, -1 or 1.5 of a 4-block partition integrated to 0.0."""
    part = iterated_partition([np.ones(256)], 2, AXIS)
    with pytest.raises(PreconditionError, match=re.escape(named)):
        part.block_integral(np.ones(256), block)


def test_partition_telescoping():
    x = AXIS.coords
    weights = [np.ones(256), x]
    part = iterated_partition(weights, 4, AXIS)
    for w in weights:
        total = float(np.sum(w) * AXIS.cell_weight)
        blocks = sum(part.block_integral(w, j) for j in range(part.n_blocks))
        assert abs(blocks - total) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_is_a_precondition(bad):
    w = AXIS.coords.copy()
    w[7] = bad
    with pytest.raises(PreconditionError, match="weight 1 is .* at cell 7"):
        bisect([np.ones(256), w], AXIS)
    with pytest.raises(PreconditionError, match="weight 1 is .* at cell 7"):
        iterated_partition([np.ones(256), w], 2, AXIS)


@pytest.mark.parametrize("weight", [np.ones(255), np.ones(257), np.ones((1, 256))])
def test_weight_of_another_length_is_a_dimension_mismatch(weight):
    """A list weight of the wrong length ended in numpy's bare ValueError."""
    named = f"weight 1 has shape {weight.shape}, the axis 256 cells"
    with pytest.raises(DimensionMismatchError, match=re.escape(named)):
        iterated_partition([np.ones(256), weight], 2, AXIS)
    with pytest.raises(DimensionMismatchError, match=re.escape(named)):
        bisect([np.ones(256), weight], AXIS)


def test_scalar_or_length_one_weights_broadcast():
    whole = iterated_partition([np.ones(256), np.full(256, 2.0)], 2, AXIS)
    assert iterated_partition([1.0, np.array([2.0])], 2, AXIS) == whole


def test_partition_rejects_non_power_of_two():
    with pytest.raises(PreconditionError):
        iterated_partition([np.ones(256)], 3, AXIS)


def test_bump_two_halves():
    part = iterated_partition([np.ones(256)], 1, AXIS)
    field = bump(part, [1])
    assert np.all(np.abs(field) == 1.0)
    # one half is +1 and the other -1
    assert np.sum(field) == pytest.approx(0.0, abs=1e-12)


def test_bump_zero_integral_all_lambdas():
    # 2M = 6 is not a power of two: use the direct equal-measure constructor
    part = equal_blocks(AXIS, 6)
    for lam in all_sign_vectors(3):
        field = bump(part, lam)
        assert abs(np.sum(field) * AXIS.cell_weight) <= 1e-12


def test_bump_flip_locality():
    part = iterated_partition([np.ones(256)], 4, AXIS)
    lam = np.array([1.0, 1.0, 1.0, 1.0])
    base = bump(part, lam)
    flipped = bump(part, [1.0, -1.0, 1.0, 1.0])
    pair_support = (part.membership[2] + part.membership[3]) > 0
    assert np.allclose(flipped[pair_support], -base[pair_support])
    assert np.array_equal(flipped[~pair_support], base[~pair_support])


def test_bump_square_integrates_to_one_on_clean_partition():
    x = AXIS.coords
    part = iterated_partition([np.ones(256), x], 4, AXIS)
    field = bump(part, [1, -1, 1, 1])
    assert abs(np.sum(field ** 2) * AXIS.cell_weight - 1.0) <= 1e-6


def test_bump_average_over_lambda_is_zero():
    part = iterated_partition([np.ones(256)], 4, AXIS)
    acc = np.zeros(256)
    for lam in all_sign_vectors(4):
        acc += bump(part, lam)
    assert np.max(np.abs(acc)) == 0.0


def test_bump_balance_50_random_lambdas():
    x = AXIS.coords
    weights = [np.ones(256), x]
    part = iterated_partition(weights, 4, AXIS)
    rng = np.random.default_rng(0)
    for _ in range(50):
        lam = 2 * rng.integers(0, 2, size=4) - 1
        field = bump(part, lam)
        for w in weights:
            scale = 1.0 + float(np.sum(np.abs(w)) * AXIS.cell_weight)
            val = abs(np.sum(field * w) * AXIS.cell_weight)
            assert val <= 2e-6 * scale


def test_fractional_partition_memberships_sum_to_one():
    axis = Axis("continuous", "z1", 12)
    x = axis.coords
    part = iterated_partition([np.ones(12), 0.3 + 0.6 * x], 8, axis)
    col = part.membership.sum(axis=0)
    assert np.max(np.abs(col - 1.0)) <= 1e-12
    scale = 1.0 + float(np.sum(np.abs(0.3 + 0.6 * x)) * axis.cell_weight)
    assert part.residuals.max() <= 1e-6 * scale


def test_partition_json_document():
    part = iterated_partition([np.ones(256)], 2, AXIS)
    doc = json.loads(json.dumps(part.to_json()))
    assert doc["cells"] == 256
    assert len(doc["blocks"]) == 4
    assert len(doc["residuals"]) == 1  # one weight


def test_all_sign_vectors_lists_every_sign_vector():
    assert all_sign_vectors(1).tolist() == [[-1.0], [1.0]]
    assert all_sign_vectors(2).tolist() == [[-1.0, -1.0], [-1.0, 1.0],
                                            [1.0, -1.0], [1.0, 1.0]]


@pytest.mark.parametrize("m", [0, -1, -3])
def test_all_sign_vectors_refuses_fewer_than_one_sign(m):
    with pytest.raises(PreconditionError, match=f"m >= 1 signs, not {m}"):
        all_sign_vectors(m)


@pytest.mark.parametrize("m", [2.5, 2.0, np.float64(2.0), "2", None])
def test_all_sign_vectors_refuses_a_non_integer_count(m):
    with pytest.raises(PreconditionError,
                       match=re.escape(f"sign count m must be an integer, got {m!r}")):
        all_sign_vectors(m)


def test_all_sign_vectors_accepts_numpy_integers():
    assert all_sign_vectors(np.int64(2)).tobytes() == all_sign_vectors(2).tobytes()


@pytest.mark.parametrize("make, named", [
    (lambda: iterated_partition([np.ones(256)], 2.5, AXIS),
     "pair count m_pairs must be an integer, got 2.5"),
    (lambda: iterated_partition([np.ones(256)], 1.9, AXIS),
     "pair count m_pairs must be an integer, got 1.9"),
    (lambda: iterated_partition([np.ones(256)], "2", AXIS),
     "pair count m_pairs must be an integer, got '2'"),
    (lambda: equal_blocks(AXIS, 2.0), "block count must be an integer, got 2.0"),
    (lambda: equal_blocks(AXIS, np.float64(4.0)),
     "block count must be an integer, got np.float64(4.0)"),
])
def test_block_counts_refuse_non_integers(make, named):
    """m_pairs = 2.5 built 2 pairs, 1.9 built 1 and "2" built 2; a float
    block count ended in a bare TypeError."""
    with pytest.raises(PreconditionError, match=re.escape(named)):
        make()


def test_block_counts_accept_numpy_integers():
    assert (iterated_partition([np.ones(256)], np.int64(2), AXIS)
            == iterated_partition([np.ones(256)], 2, AXIS))
    assert equal_blocks(AXIS, np.int32(4)) == equal_blocks(AXIS, 4)


@pytest.mark.parametrize("weights, axis, named", [
    ([], AXIS, "bisect needs at least one weight"),
    ([np.ones(2)], Axis("binary", "z1"), "partitions are built on a continuous Z1 axis"),
])
def test_bisect_refuses_no_weight_or_a_binary_axis(weights, axis, named):
    with pytest.raises(PreconditionError, match=named):
        bisect(weights, axis)


def test_bisect_on_an_empty_block_holds_no_cell():
    inside = bisect([np.ones(256)], AXIS, membership=np.zeros(256))
    assert inside.shape == (256,) and not inside.any()


def test_bisect_halves_a_block_on_which_every_weight_vanishes():
    """Nothing to balance: the set is the first half of the block's measure."""
    block = np.zeros(256)
    block[:64] = 1.0
    w = np.ones(256)
    w[:64] = 0.0
    inside = bisect([w, 2.0 * w], AXIS, membership=block)
    assert inside.tolist() == [1.0] * 32 + [0.0] * 224


CELLS4 = Axis("continuous", "z1", 4)


@pytest.mark.parametrize("labels, shares, named", [
    ([0, 0, 1], np.zeros((2, 0)), "a block label per cell"),
    ([0, 0, 1, 1], np.zeros((3, 0)), "with even 2M"),
    ([0, 0, 1, 1], np.zeros(0), "with even 2M"),
    ([0, 0, 1, 2], np.zeros((2, 0)), "a block label per cell"),
    ([0, -1, 1, 1], np.zeros((2, 0)), "a block label per cell"),
    ([0, -1, 1, 1], [[1.5], [-0.5]], "block memberships must be >= 0 and sum to 1"),
    ([0, -1, 1, 1], [[0.5], [0.4]], "block memberships must be >= 0 and sum to 1"),
])
def test_partition_refuses_malformed_labels_or_shares(labels, shares, named):
    with pytest.raises(PreconditionError, match=named):
        BumpPartition(CELLS4, labels, shares, np.zeros((1, 2)))


# -----------------------------------------------------------------------------
# exactness and split cells
# -----------------------------------------------------------------------------

def scaled_residual(part, weights) -> float:
    w = np.stack(weights)
    cw = part.axis.cell_weight
    blocks = w @ part.membership.T * cw
    target = w.sum(axis=1)[:, None] * cw / part.n_blocks
    return float(np.max(np.abs(blocks - target) / (1.0 + np.abs(w).sum(axis=1)[:, None] * cw)))


def split_cells(membership: np.ndarray) -> int:
    return int(((membership > 1e-12) & (membership < 1.0 - 1e-12)).any(axis=0).sum())


def max_bisection_splits(membership: np.ndarray) -> int:
    """Most cells any one bisection of the recursion split between its halves."""
    worst = 0
    width = membership.shape[0]
    while width > 1:
        for lo in range(0, membership.shape[0], width):
            half = width // 2
            inside = membership[lo:lo + half].sum(axis=0)
            outside = membership[lo + half:lo + width].sum(axis=0)
            worst = max(worst, int(((inside > 0) & (outside > 0)).sum()))
        width //= 2
    return worst


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.integers(8, 256), st.sampled_from([1, 2, 4]),
       st.integers(0, 2 ** 32 - 1))
def test_random_weight_lists_partition_exactly(q, cells, m_pairs, seed):
    axis = Axis("continuous", "z1", cells)
    weights = list(np.random.default_rng(seed).standard_normal((q, cells)))
    part = iterated_partition(weights, m_pairs, axis)
    mem = part.membership
    assert mem.min() >= 0.0 and mem.max() <= 1.0
    assert np.max(np.abs(mem.sum(axis=0) - 1.0)) <= 1e-12
    assert scaled_residual(part, weights) <= 1e-10
    assert max_bisection_splits(mem) <= q


@pytest.mark.parametrize("cells", [64, 256, 1024])
@pytest.mark.parametrize("m_pairs", [2, 4, 8, 16])
def test_polynomial_and_sine_weights_partition(cells, m_pairs):
    # {1, x, x^2, sin 3x} needs the vertex fallback at some block for every M >= 2
    axis = Axis("continuous", "z1", cells)
    x = axis.coords
    weights = [np.ones(cells), x, x ** 2, np.sin(3 * x)]
    part = iterated_partition(weights, m_pairs, axis)
    assert scaled_residual(part, weights) <= 1e-10


@pytest.mark.parametrize("cells", [64, 1024])
@pytest.mark.parametrize("m_pairs", [1, 2, 4, 8])
def test_affine_weights_keep_whole_cells(cells, m_pairs):
    # Delta^2 == 1 needs every block to be a union of whole cells
    axis = Axis("continuous", "z1", cells)
    x = axis.coords
    for m in (None, 0.4 + 0.25 * x, 0.35 + 0.1 * x):
        weights = [np.ones(cells), x if m is None else 2.0 * m - 1.0]
        part = iterated_partition(weights, m_pairs, axis)
        assert split_cells(part.membership) == 0
        assert scaled_residual(part, weights) <= 1e-10


# -----------------------------------------------------------------------------
# the label representation against the dense one
# -----------------------------------------------------------------------------

def dense_bumps(membership: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """sum_i lam_i (mem_{2i} - mem_{2i+1}), added in pair order from 0."""
    values = np.zeros((lams.shape[0], membership.shape[1]))
    for i in range(membership.shape[0] // 2):
        values += lams[:, i, None] * (membership[2 * i] - membership[2 * i + 1])
    return values


def dense_json(membership: np.ndarray, part) -> str:
    blocks = [[[int(a), float(row[a])] for a in np.flatnonzero(row > 0)]
              for row in membership]
    return json.dumps({"cells": membership.shape[1], "blocks": blocks,
                       "residuals": part.residuals.tolist()})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.integers(8, 256), st.sampled_from([1, 2, 4]),
       st.integers(0, 2 ** 32 - 1))
def test_labels_match_the_dense_membership(q, cells, m_pairs, seed):
    axis = Axis("continuous", "z1", cells)
    weights = list(np.random.default_rng(seed).standard_normal((q, cells)))
    part = iterated_partition(weights, m_pairs, axis)
    scatter = np.zeros((part.n_blocks, cells))
    for cell, label in enumerate(part.labels):
        if label >= 0:
            scatter[label, cell] = 1.0
    for column, cell in enumerate(part.split_cells):
        scatter[:, cell] = part.split_shares[:, column]
    assert part.membership.tobytes() == scatter.tobytes()
    lams = all_sign_vectors(m_pairs)
    assert bumps(part, lams).tobytes() == dense_bumps(scatter, lams).tobytes()
    assert json.dumps(part.to_json()) == dense_json(scatter, part)


def test_equal_blocks_split_cells_match_the_dense_formula():
    part = equal_blocks(AXIS, 6)  # edges at 256 j / 6: all but 128 fall inside a cell
    assert part.split_cells.tolist() == [42, 85, 170, 213]
    lams = all_sign_vectors(3)
    assert bumps(part, lams).tobytes() == dense_bumps(part.membership, lams).tobytes()
    assert json.dumps(part.to_json()) == dense_json(part.membership, part)


def test_partition_memory_is_linear_in_cells():
    cells, m_pairs = 4096, 256
    dense = 2 * m_pairs * cells * 8  # bytes of a (2M, cells) membership: 16.8 MB
    axis = Axis("continuous", "z1", cells)
    weights = [np.ones(cells), 2.0 * (0.35 + 0.3 * axis.coords) - 1.0]
    tracemalloc.start()
    try:
        part = iterated_partition(weights, m_pairs, axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part.split_cells.size == 0
    assert peak < dense / 8


def test_partitions_compare_by_value_and_refuse_hashing():
    axis = Axis("continuous", "z1", 16)
    a = equal_blocks(axis, 4)
    b = equal_blocks(axis, 4)
    a.split_cells  # a cached view on one side only is not compared
    assert a is not b and a == b and not a != b
    assert a != equal_blocks(axis, 2)
    assert a != equal_blocks(Axis("continuous", "z1", 16 * 3), 4)
    split = equal_blocks(Axis("continuous", "z1", 6), 4)  # cells 1 and 4 split
    assert split.split_cells.tolist() == [1, 4]
    assert split != BumpPartition(split.axis, split.labels, split.split_shares[::-1],
                                  split.residuals)
    assert split != BumpPartition(split.axis, split.labels, split.split_shares,
                                  split.residuals + 1e-16)
    assert a != "partition"
    with pytest.raises(TypeError):
        hash(a)
