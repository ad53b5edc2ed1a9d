import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from debias_lab import adversary as adv, bounds, estimands as est
from debias_lab.errors import (
    DimensionMismatchError,
    PreconditionError,
    SeparationError,
    SizeLimitError,
)
from debias_lab.grid import hellinger_sq
from debias_lab.partition import equal_blocks, iterated_partition
from debias_lab.presets import preset


def small_ate_family(x_cells=12, m_pairs=4, eps_m=0.1, eps_g=0.1, m_hat=None,
                     g_hat=None):
    pre = preset(est.ATE, x_cells=x_cells)
    m_hat = pre.extras["m_hat"] if m_hat is None else m_hat
    g_hat = pre.extras["g_hat"] if g_hat is None else g_hat
    axis = pre.anchor.space.axes[0]
    part = iterated_partition([np.ones(x_cells), 2 * m_hat - 1.0], m_pairs, axis)
    anchor = est.ate_joint(pre.anchor.space, m_hat, g_hat)
    fam = adv.AteLocalFamily(pre.anchor.space, m_hat, g_hat, eps_m, eps_g, part)
    return pre.spec, anchor, fam, part


def test_instance_size_caps():
    spec, anchor, fam, _ = small_ate_family()
    with pytest.raises(PreconditionError):
        bounds.TestingInstance(anchor, fam, spec, n=5)
    with pytest.raises(SizeLimitError):
        bounds.TestingInstance(anchor, fam, spec, n=4)  # 48^4 > 1e6


def test_instance_refuses_an_anchor_on_another_grid():
    spec, _, fam, part = small_ate_family(x_cells=12)
    _, anchor8, _, part8 = small_ate_family(x_cells=8, m_pairs=2)
    with pytest.raises(DimensionMismatchError):
        bounds.TestingInstance(anchor8, fam, spec, n=2)
    with pytest.raises(DimensionMismatchError):
        bounds.TestingInstance(anchor8, fam, spec, n=2, enumerated=False)
    inst = bounds.TestingInstance(fam.anchor, fam, spec, n=2)
    with pytest.raises(DimensionMismatchError):
        bounds.theorem21_b(inst, part8)
    bounds.theorem21_b(inst, part)


def test_theorem21_b_refuses_a_partition_other_than_the_familys():
    """A 4-block partition of the same 8 cells as a 2-block family gave a
    statistic that belongs to no family."""
    spec, _, fam, part = small_ate_family(x_cells=8, m_pairs=1)
    inst = bounds.TestingInstance(fam.anchor, fam, spec, n=2)
    with pytest.raises(PreconditionError, match="blocks of the family's partition"):
        bounds.theorem21_b(inst, equal_blocks(part.axis, 4))
    assert bounds.theorem21_b(inst, part) == bounds.theorem21_b(inst, fam.partition)


def test_instance_refuses_an_anchor_other_than_the_familys():
    """Another anchor on the family's grid gave an H^2 and a Bayes error
    between it and a mixture built around the family's anchor."""
    spec, anchor, fam, _ = small_ate_family(x_cells=8, m_pairs=1)
    other = est.ate_joint(anchor.space, np.full(8, 0.4), np.full((8, 2), 0.5))
    with pytest.raises(PreconditionError, match="the anchor is not the family's anchor"):
        bounds.TestingInstance(other, fam, spec, n=2)
    assert anchor is not fam.anchor  # an equal anchor built apart passes
    bounds.TestingInstance(anchor, fam, spec, n=2)


def test_theorem21_b_refuses_an_anchor_with_a_zero_atom():
    g_hat = np.stack([np.zeros(8), np.full(8, 0.5)], axis=1)
    spec, _, fam, part = small_ate_family(x_cells=8, m_pairs=1, eps_m=0.0, eps_g=0.0,
                                          g_hat=g_hat)
    inst = bounds.TestingInstance(fam.anchor, fam, spec, n=1)
    with pytest.raises(PreconditionError, match="strictly positive anchor"):
        bounds.theorem21_b(inst, part)


@pytest.mark.parametrize("n", [2.0, 1.5, np.float64(2.0), "2"])
def test_instance_refuses_a_non_integer_n(n):
    """n = 2.0 passed the range check and ended in a bare TypeError."""
    spec, anchor, fam, _ = small_ate_family()
    with pytest.raises(PreconditionError,
                       match=re.escape(f"instance size n must be an integer, got {n!r}")):
        bounds.TestingInstance(anchor, fam, spec, n=n)


def test_instance_accepts_a_numpy_integer_n():
    spec, anchor, fam, _ = small_ate_family()
    inst = bounds.TestingInstance(anchor, fam, spec, n=np.int64(2))
    assert type(inst.n) is int
    assert (bounds.product_mixture_hellinger(inst)
            == bounds.product_mixture_hellinger(bounds.TestingInstance(anchor, fam, spec, n=2)))


def test_instance_caps_its_atoms_and_its_sign_vectors():
    spec, anchor, fam, _ = small_ate_family(x_cells=20, m_pairs=2)
    with pytest.raises(SizeLimitError, match=re.escape("cap |O| at 64 atoms")):
        bounds.TestingInstance(anchor, fam, spec, n=1)
    spec, anchor, fam, _ = small_ate_family()
    many = SimpleNamespace(anchor=fam.anchor, m_pairs=13)  # 2^13 > 4096
    with pytest.raises(SizeLimitError, match=re.escape("2^M exceeds")):
        bounds.TestingInstance(anchor, many, spec, n=1)


def test_exact_bounds_refuse_an_instance_that_is_not_enumerated():
    spec, anchor, fam, _ = small_ate_family()
    inst = bounds.TestingInstance(anchor, fam, spec, n=2, enumerated=False)
    with pytest.raises(PreconditionError, match="need an enumerated instance"):
        bounds.product_mixture_hellinger(inst)


def test_h2_at_n1_matches_mixture_hellinger():
    spec, anchor, fam, _ = small_ate_family()
    inst = bounds.TestingInstance(anchor, fam, spec, n=1)
    h2 = bounds.product_mixture_hellinger(inst)
    mix = adv.mixture_density(fam)
    assert abs(h2 - hellinger_sq(anchor, mix)) <= 1e-12


def test_h2_zero_for_null_family():
    spec, anchor, fam, _ = small_ate_family(eps_m=0.0, eps_g=0.0)
    for n in (1, 2, 3):
        inst = bounds.TestingInstance(anchor, fam, spec, n=n)
        assert bounds.product_mixture_hellinger(inst) <= 1e-28


def test_h2_non_increasing_in_m_random_anchors():
    rng = np.random.default_rng(12)
    for trial in range(10):
        m_hat = np.full(12, rng.uniform(0.4, 0.6))
        g_hat = np.stack([np.full(12, rng.uniform(0.3, 0.45)),
                          np.full(12, rng.uniform(0.55, 0.7))], axis=1)
        h2s = []
        for m_pairs in (2, 4, 8):
            spec, anchor, fam, _ = small_ate_family(
                m_pairs=m_pairs, m_hat=m_hat, g_hat=g_hat)
            inst = bounds.TestingInstance(anchor, fam, spec, n=2)
            h2s.append(bounds.product_mixture_hellinger(inst))
        assert h2s[0] >= h2s[1] >= h2s[2]


def test_optimal_error_dominates_fano_floor():
    rng = np.random.default_rng(3)
    for trial in range(20):
        eps = float(rng.uniform(0.02, 0.12))
        m_pairs = int(rng.choice([2, 4]))
        n = int(rng.choice([1, 2, 3]))
        spec, anchor, fam, _ = small_ate_family(
            m_pairs=m_pairs, eps_m=eps, eps_g=eps)
        inst = bounds.TestingInstance(anchor, fam, spec, n=n)
        h2 = bounds.product_mixture_hellinger(inst)
        assert bounds.optimal_test_error(inst) >= bounds.fano_risk(h2)


def test_fano_risk_values():
    assert bounds.fano_risk(0.0) == 0.5
    assert bounds.fano_risk(1.0) == pytest.approx((1 - np.sqrt(3) / 2) / 2)
    assert bounds.fano_risk(1.0) == pytest.approx(0.066987, abs=1e-6)
    assert bounds.fano_risk(2.0 - 1e-12) <= 1e-6
    with pytest.raises(PreconditionError):
        bounds.fano_risk(2.0)
    with pytest.raises(PreconditionError):
        bounds.fano_risk(-0.1)


def test_bayes_error_degenerate_cases():
    spec, anchor, fam, _ = small_ate_family(eps_m=0.0, eps_g=0.0)
    inst = bounds.TestingInstance(anchor, fam, spec, n=2)
    assert bounds.optimal_test_error(inst) == pytest.approx(0.5)


def test_theorem21_b_zero_at_null_family():
    spec, anchor, fam, part = small_ate_family(eps_m=0.0, eps_g=0.0)
    b, bound = bounds.theorem21_b(bounds.TestingInstance(anchor, fam, spec, n=2),
                                  part)
    assert b <= 1e-30 and bound <= 1e-30


def test_theorem21_b_ceiling_and_scaling():
    m_hat = np.full(12, 0.5)
    g_hat = np.full((12, 2), 0.5)
    bs = []
    for eps in (0.05, 0.1, 0.2):
        spec, anchor, fam, part = small_ate_family(
            eps_m=eps, eps_g=eps, m_hat=m_hat, g_hat=g_hat)
        inst = bounds.TestingInstance(anchor, fam, spec, n=2)
        b, _ = bounds.theorem21_b(inst, part)
        bs.append(b)
        assert b <= 1.0 / 0.25 ** 2  # the c^-2 ceiling at overlap 0.25
    slope = np.polyfit(np.log([0.05, 0.1, 0.2]), np.log(bs), 1)[0]
    assert abs(slope - 2.0) <= 0.1


def test_chunk_restriction_depends_on_lambda_j_only():
    spec, anchor, fam, part = small_ate_family(x_cells=16, m_pairs=2,
                                               m_hat=np.full(16, 0.5),
                                               g_hat=np.full((16, 2), 0.5))
    w = anchor.space.atom_weight
    n1 = anchor.space.shape[0]
    rest = anchor.space.n_atoms // n1
    anchor_flat = anchor.values.ravel()
    for j in range(part.n_pairs):
        chunk = (part.membership[2 * j] + part.membership[2 * j + 1])
        vals = {}
        for lam_j in (1.0, -1.0):
            for others in (1.0, -1.0):
                lam = np.full(part.n_pairs, others)
                lam[j] = lam_j
                q = fam.member(lam).values.ravel()
                integrand = (q - anchor_flat) ** 2 / anchor_flat
                integrand = integrand.reshape(n1, rest)
                mass = float(np.sum(integrand * chunk[:, None]) * w)
                vals.setdefault(lam_j, []).append(mass)
        for lam_j, masses in vals.items():
            assert abs(masses[0] - masses[1]) <= 1e-12


def test_fit_hellinger_constant_reports():
    instances = []
    for m_pairs in (2, 4):
        spec, anchor, fam, part = small_ate_family(m_pairs=m_pairs)
        instances.append((bounds.TestingInstance(anchor, fam, spec, n=2), part))
    c_fit = bounds.fit_hellinger_constant(instances)
    assert c_fit > 0.0


# -----------------------------------------------------------------------------
# the minimax demonstration
# -----------------------------------------------------------------------------

def test_minimax_oracle_has_zero_risk():
    # fractional splits on the 12-cell grid shrink the separation below
    # 2 eps_m eps_g, so ask only for a comfortably smaller s
    spec, anchor, fam, _ = small_ate_family(m_pairs=2)
    inst = bounds.TestingInstance(anchor, fam, spec, n=1)
    worst, _ = bounds.minimax_demo(inst, bounds.oracle_estimator(spec),
                                   s=0.3 * 0.1 * 0.1, n_draw=10,
                                   replications=4)
    assert worst == 0.0


def test_minimax_constant_estimator_hits_separation():
    m_hat = np.full(12, 0.5)
    g_hat = np.full((12, 2), 0.5)
    spec, anchor, fam, _ = small_ate_family(m_pairs=2, eps_m=0.1, eps_g=0.2,
                                            m_hat=m_hat, g_hat=g_hat)
    inst = bounds.TestingInstance(anchor, fam, spec, n=1)
    worst, per = bounds.minimax_demo(inst, bounds.constant_anchor_estimator(
        spec, anchor), s=0.1 * 0.2, n_draw=10, replications=4)
    assert abs(worst - 2 * 0.1 * 0.2) <= 1e-10
    assert per["anchor"] == 0.0


def test_minimax_separation_check_fires():
    spec, anchor, fam, _ = small_ate_family(m_pairs=2, eps_m=0.1, eps_g=0.1)
    inst = bounds.TestingInstance(anchor, fam, spec, n=1)
    with pytest.raises(SeparationError):
        bounds.minimax_demo(inst, bounds.oracle_estimator(spec), s=0.5,
                            n_draw=10, replications=2)


# -----------------------------------------------------------------------------
# product laws at n >= 3: matrix products against the einsum reference
# -----------------------------------------------------------------------------

def einsum_product(prob_rows, n):
    letters = "abcd"[:n]
    spec = ",".join(f"l{c}" for c in letters) + "->" + letters
    return np.einsum(spec, *([prob_rows] * n)).ravel() / prob_rows.shape[0]


@pytest.mark.parametrize("n, atoms", [(3, 48), (3, 5), (4, 31), (4, 12)])
def test_product_tensor_matches_einsum(n, atoms):
    rng = np.random.default_rng(atoms + n)
    rows = rng.uniform(0.1, 1.0, (64, atoms))
    rows /= rows.sum(axis=1, keepdims=True)
    reference = einsum_product(rows, n)
    assert np.all(np.abs(bounds._product_tensor(rows, n) - reference) <= 1e-14 * reference)


@pytest.mark.parametrize("n, x_cells, m_pairs", [(3, 12, 4), (4, 6, 2), (4, 7, 1)])
def test_product_mixture_bounds_match_einsum(n, x_cells, m_pairs):
    spec, anchor, fam, _ = small_ate_family(x_cells=x_cells, m_pairs=m_pairs,
                                            eps_m=0.2, eps_g=0.2)
    inst = bounds.TestingInstance(anchor, fam, spec, n=n)
    anchor_n = einsum_product(anchor.values.ravel()[None] * anchor.space.atom_weight, n)
    mixture_n = einsum_product(bounds.member_probs(inst), n)
    h2 = float(np.sum((np.sqrt(anchor_n) - np.sqrt(mixture_n)) ** 2))
    error = (1.0 - 0.5 * float(np.sum(np.abs(anchor_n - mixture_n)))) / 2.0
    assert h2 > 0.0
    assert abs(bounds.product_mixture_hellinger(inst) - h2) <= 1e-14 * h2
    assert abs(bounds.optimal_test_error(inst) - error) <= 1e-14 * error


def loop_product_tensor(prob_rows, n):
    """``_product_tensor`` as it was before the one-row outer-product chain."""
    if n <= 2:
        letters = "abcd"[:n]
        spec = ",".join(f"l{c}" for c in letters) + "->" + letters
        out = np.einsum(spec, *([prob_rows] * n), optimize=True)
    else:
        atoms = prob_rows.shape[1]
        out = np.empty((atoms,) * n)
        for lead in np.ndindex(*(atoms,) * (n - 2)):
            w = prob_rows[:, lead].prod(axis=1)
            out[lead] = (w[:, None] * prob_rows).T @ prob_rows
    return out.ravel() / prob_rows.shape[0]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4), st.integers(4, 48), st.integers(0, 2 ** 32 - 1))
def test_one_row_product_law_matches_the_loop_bit_for_bit(n, atoms, seed):
    if atoms ** n > 1_000_000:
        atoms = int(1_000_000 ** (1 / n))
    row = np.random.default_rng(seed).uniform(0.0, 1.0, (1, atoms))
    row /= row.sum()
    assert np.array_equal(bounds._product_tensor(row, n), loop_product_tensor(row, n))
