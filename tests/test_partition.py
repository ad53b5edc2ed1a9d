import json

import numpy as np
import pytest

from debias_lab.errors import PreconditionError
from debias_lab.grid import Axis
from debias_lab.partition import (
    BumpPartition,
    all_sign_vectors,
    bisect,
    bump,
    equal_blocks,
    iterated_partition,
    partition_json_dumps,
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


def test_partition_telescoping():
    x = AXIS.coords
    weights = [np.ones(256), x]
    part = iterated_partition(weights, 4, AXIS)
    for w in weights:
        total = float(np.sum(w) * AXIS.cell_weight)
        blocks = sum(part.block_integral(w, j) for j in range(part.n_blocks))
        assert abs(blocks - total) <= 1e-12


def test_partition_rejects_non_power_of_two():
    with pytest.raises(PreconditionError):
        iterated_partition([np.ones(256)], 3, AXIS)


def test_bump_two_halves():
    part = iterated_partition([np.ones(256)], 1, AXIS)
    field = bump(part, [1])
    assert np.all(np.abs(field.values) == 1.0)
    # one half is +1 and the other -1
    assert np.sum(field.values) == pytest.approx(0.0, abs=1e-12)


def test_bump_zero_integral_all_lambdas():
    # 2M = 6 is not a power of two: use the direct equal-measure constructor
    part = equal_blocks(AXIS, 6)
    for lam in all_sign_vectors(3):
        field = bump(part, lam)
        assert abs(np.sum(field.values) * AXIS.cell_weight) <= 1e-12


def test_bump_flip_locality():
    part = iterated_partition([np.ones(256)], 4, AXIS)
    lam = np.array([1.0, 1.0, 1.0, 1.0])
    base = bump(part, lam).values
    flipped = bump(part, [1.0, -1.0, 1.0, 1.0]).values
    pair_support = (part.membership[2] + part.membership[3]) > 0
    assert np.allclose(flipped[pair_support], -base[pair_support])
    assert np.array_equal(flipped[~pair_support], base[~pair_support])


def test_bump_square_integrates_to_one_on_clean_partition():
    x = AXIS.coords
    part = iterated_partition([np.ones(256), x], 4, AXIS)
    field = bump(part, [1, -1, 1, 1])
    assert abs(np.sum(field.values ** 2) * AXIS.cell_weight - 1.0) <= 1e-6


def test_bump_average_over_lambda_is_zero():
    part = iterated_partition([np.ones(256)], 4, AXIS)
    acc = np.zeros(256)
    for lam in all_sign_vectors(4):
        acc += bump(part, lam).values
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
            val = abs(np.sum(field.values * w) * AXIS.cell_weight)
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
    doc = json.loads(partition_json_dumps(part))
    assert doc["cells"] == 256
    assert len(doc["blocks"]) == 4
    assert len(doc["residuals"]) == 1  # one weight
