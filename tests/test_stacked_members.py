"""The stacked family evaluator against one member at a time.

``members(lams)`` evaluates a whole (L, M) stack of sign vectors; every row
must equal ``member(lam).values`` bit for bit, on random anchors and on
partitions with split cells, and the stack must fail with the same typed
errors as a single member.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from debias_lab import adversary as adv, estimands as est
from debias_lab.errors import (
    InfeasibleRadiusError,
    PairingError,
    PreconditionError,
    UncertaintyViolationError,
)
from debias_lab.grid import Density, GridSpace, SignedDensity, continuous, uniform_density
from debias_lab.partition import all_sign_vectors, bump, equal_blocks, iterated_partition
from debias_lab.presets import preset

from kinds import DIRECTION_KINDS, random_anchor

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)


def assert_stack_matches_members(family, lams):
    stack = family.members(lams)
    one_by_one = np.stack([family.member(lam).values for lam in lams])
    assert stack.shape == (len(lams),) + family.anchor.space.shape
    assert stack.tobytes() == one_by_one.tobytes()


def sign_rows(m_pairs: int, seed: int) -> np.ndarray:
    """Every sign vector, then a few repeated in random order."""
    lams = all_sign_vectors(m_pairs)
    picks = np.random.default_rng(seed).integers(0, len(lams), size=5)
    return np.concatenate([lams, lams[picks]])


def ate_family(x_cells: int, m_pairs: int, seed: int, split: bool) -> adv.AteLocalFamily:
    rng = np.random.default_rng(seed)
    space = est.make_space(est.ATE, x_cells=x_cells)
    m_hat = rng.uniform(0.2, 0.8, x_cells)
    g_hat = rng.uniform(0.2, 0.8, (x_cells, 2))
    if split:  # equal blocks that do not tile the cells split some of them
        part = equal_blocks(space.axes[0], 2 * m_pairs)
    else:
        part = iterated_partition([np.ones(x_cells), 2 * m_hat - 1.0], m_pairs,
                                  space.axes[0])
    eps = rng.uniform(0.0, 0.19)
    return adv.AteLocalFamily(space, m_hat, g_hat, eps, rng.uniform(0.0, 0.19), part)


@PROPERTY
@given(st.integers(5, 13), st.sampled_from([1, 2]), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_ate_stack_matches_members(x_cells, m_pairs, seed, split):
    family = ate_family(x_cells, m_pairs, seed, split)
    assert_stack_matches_members(family, sign_rows(m_pairs, seed))


@PROPERTY
@given(st.sampled_from(DIRECTION_KINDS), st.integers(6, 12),
       st.sampled_from([1, 2]), st.integers(0, 2 ** 32 - 1))
def test_direction_stack_matches_members(kind, x_cells, m_pairs, seed):
    # random DS references or WAD weights may leave no run to build a pair on
    spec, anchor = random_anchor(kind, x_cells, 16, seed,
                                 params=preset(kind, x_cells, 16).spec.params)
    pair = adv.direction_pair(spec, anchor, "gamma")
    axis = anchor.space.axes[0]
    # balancing both directions' Z1 profiles makes every bump annihilate
    # them; three weights generally leave split cells
    weights = [np.ones(x_cells)] + [d.values.reshape(x_cells, -1).sum(axis=1)
                                    for d in (pair.first, pair.second)]
    part = iterated_partition(weights, m_pairs, axis)
    family = adv.DirectionFamily(anchor, spec, pair, 0.01, 0.004, part)
    assert_stack_matches_members(family, sign_rows(m_pairs, seed))


@PROPERTY
@given(st.sampled_from([(4, 1), (8, 1), (8, 2), (12, 2)]), st.integers(0, 2 ** 32 - 1))
def test_plm_stack_matches_members(cells_and_pairs, seed):
    x_cells, m_pairs = cells_and_pairs
    _, anchor = random_anchor(est.ECC_PLM, x_cells, 3, seed)
    part = equal_blocks(anchor.space.axes[0], 2 * m_pairs)  # whole cells
    u, v = np.random.default_rng(seed).uniform(-0.05, 0.05, size=2)
    family = adv.PlmFamily(anchor, u, v, part)
    assert_stack_matches_members(family, sign_rows(m_pairs, seed))


# -----------------------------------------------------------------------------
# members against the family formulas evaluated at call time: the tables a
# family builds once must not drift from them
# -----------------------------------------------------------------------------

@PROPERTY
@given(st.integers(5, 13), st.sampled_from([1, 2]), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_ate_member_is_the_documented_formula(x_cells, m_pairs, seed, split):
    family = ate_family(x_cells, m_pairs, seed, split)
    m_hat, g_hat, eps_m, eps_g = family.m_hat, family.g_hat, family.eps_m, family.eps_g
    p_x = 1.0 / (x_cells * family.space.axes[0].cell_weight)  # the uniform X density
    for lam in all_sign_vectors(m_pairs):
        delta = bump(family.partition, lam)
        m_lam = m_hat + eps_m * delta
        g_lam = np.stack([g_hat[:, 0] + eps_g * delta * (1.0 - m_hat + eps_m * delta),
                          g_hat[:, 1] + eps_g * delta * (m_hat - eps_m * delta)], axis=1)
        expected = np.empty(family.space.shape)
        for x, d, y in np.ndindex(expected.shape):
            expected[x, d, y] = (p_x * m_lam[x] ** d * (1.0 - m_lam[x]) ** (1 - d)
                                 * g_lam[x, d] ** y * (1.0 - g_lam[x, d]) ** (1 - y))
        assert family.member(lam).values.tobytes() == expected.tobytes()


@PROPERTY
@given(st.sampled_from([(4, 1), (8, 1), (8, 2), (12, 2), (12, 3)]),
       st.integers(0, 2 ** 32 - 1))
def test_plm_member_is_the_documented_formula(cells_and_pairs, seed):
    x_cells, m_pairs = cells_and_pairs
    spec, anchor = random_anchor(est.ECC_PLM, x_cells, 3, seed)
    u, v = np.random.default_rng(seed).uniform(-0.05, 0.05, size=2)
    family = adv.PlmFamily(anchor, u, v, equal_blocks(anchor.space.axes[0], 2 * m_pairs))
    g, q = est.nuisances_of(anchor, spec)
    theta = adv.plm_slope(anchor)
    s = np.sqrt(g * (1.0 - g))
    for lam in all_sign_vectors(m_pairs):
        shift = adv._plm_shift(g, q, (theta + u * v) / (1.0 - u ** 2), u, v)
        expected = anchor.values + shift * (s * bump(family.partition, lam))[:, None, None]
        assert family.member(lam).values.tobytes() == expected.tobytes()


def sequential_mixture(family) -> Density:
    lams = all_sign_vectors(family.m_pairs)
    acc = np.zeros(family.anchor.space.shape)
    for lam in lams:
        acc += family.member(lam).values
    return Density(family.anchor.space, acc / len(lams))


@pytest.mark.parametrize("make", ["ate", "plm", "direction"])
def test_mixture_over_several_blocks_matches_sequential_loop(make):
    # 2^7 = 128 and 2^8 = 256 sign vectors: several stacks of 32
    if make == "ate":
        family = ate_family(x_cells=20, m_pairs=7, seed=3, split=True)
    elif make == "plm":
        pre = preset(est.ECC_PLM, x_cells=28)
        family = adv.PlmFamily(pre.anchor, 0.1, 0.05,
                               equal_blocks(pre.anchor.space.axes[0], 14))
    else:
        spec, anchor = random_anchor(est.ATE, 48, 3, 5)
        pair = adv.direction_pair(spec, anchor, "gamma")
        weights = [np.ones(48)] + [d.values.reshape(48, -1).sum(axis=1)
                                   for d in (pair.first, pair.second)]
        part = iterated_partition(weights, 8, anchor.space.axes[0])
        family = adv.DirectionFamily(anchor, spec, pair, 0.01, 0.004, part)
    assert 2 ** family.m_pairs > 32
    mix = adv.mixture_density(family)
    assert mix.values.tobytes() == sequential_mixture(family).values.tobytes()


# -----------------------------------------------------------------------------
# typed errors: the stack fails as a single member does
# -----------------------------------------------------------------------------

def assert_same_error(family, error, lams):
    with pytest.raises(error):
        family.members(lams)
    with pytest.raises(error):
        family.member(lams[-1])


def test_stack_pairing_error():
    # a direction whose Z1 profile the partition does not balance
    space = GridSpace((continuous("z1", 8), continuous("w", 2)))
    values = np.zeros((8, 2))
    values[:4] = [1.0, -0.5]
    values[4:] = [-1.0, 0.5]
    direction = SignedDensity(space, values)
    pair = adv.DirectionPair(direction, direction, 0.0)
    family = adv.DirectionFamily(uniform_density(space), est.EstimandSpec(est.ATE),
                                 pair, 0.01, 0.01, equal_blocks(space.axes[0], 2))
    assert_same_error(family, PairingError, all_sign_vectors(1))


def test_stack_infeasible_radius_error():
    spec, anchor = random_anchor(est.ATE, 8, 3, 1)
    pair = adv.direction_pair(spec, anchor, "gamma")
    weights = [np.ones(8), pair.first.values.reshape(8, -1).sum(axis=1)]
    part = iterated_partition(weights, 1, anchor.space.axes[0])
    family = adv.DirectionFamily(anchor, spec, pair, 50.0, 0.0, part)
    assert_same_error(family, InfeasibleRadiusError, all_sign_vectors(1))


def test_stack_uncertainty_violation_error():
    pre = preset(est.ECC_PLM, x_cells=8)
    family = adv.PlmFamily(pre.anchor, 0.9, 5.0, equal_blocks(pre.anchor.space.axes[0], 4))
    assert_same_error(family, UncertaintyViolationError, all_sign_vectors(2))


@pytest.mark.parametrize("bad", [[[1.0, 0.0]], [[1.0, 1.0, 1.0]], [[1.0, np.nan]]],
                         ids=["zero-sign", "wrong-length", "nan-sign"])
@pytest.mark.parametrize("make", ["ate", "plm", "direction"])
def test_stack_rejects_bad_lambda(make, bad):
    if make == "ate":
        family = ate_family(x_cells=8, m_pairs=2, seed=0, split=False)
    elif make == "plm":
        pre = preset(est.ECC_PLM, x_cells=8)
        family = adv.PlmFamily(pre.anchor, 0.1, 0.1, equal_blocks(pre.anchor.space.axes[0], 4))
    else:
        spec, anchor = random_anchor(est.ATE, 8, 3, 2)
        pair = adv.direction_pair(spec, anchor, "gamma")
        family = adv.DirectionFamily(anchor, spec, pair, 0.01, 0.0,
                                     equal_blocks(anchor.space.axes[0], 4))
    assert_same_error(family, PreconditionError, np.array(bad))
