"""Randomized checks of the identity layer across random anchors.

Anchors come from the joint-density factories with random fields on small
grids; nuisance estimates are random fields on the Z grid.  Every identity
is exact on the grid, so each is asserted at 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from debias_lab import estimands as est, estimators as dr
from debias_lab.errors import PreconditionError
from debias_lab.estimands import ApeParams, DsParams, EstimandSpec, WadParams
from debias_lab.grid import Dataset, Density

TOL = 1e-12
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def random_anchor(kind: str, x_cells: int, d_cells: int, seed: int):
    """(spec, anchor) built from random fields bounded away from 0 and 1."""
    rng = np.random.default_rng(seed)
    space = est.make_space(kind, x_cells, d_cells)
    p_x = rng.uniform(0.5, 1.5, x_cells)
    if kind in (est.ATE, est.LOD):
        m = rng.uniform(0.2, 0.8, x_cells)
        g = rng.uniform(0.2, 0.8, (x_cells, 2))
        return EstimandSpec(kind), est.ate_joint(space, m, g, p_x)
    if kind == est.ECC_PLM:
        g = rng.uniform(0.2, 0.8, x_cells)
        theta = rng.uniform(-0.3, 0.3)
        f = rng.uniform(0.35, 0.65, x_cells)
        return EstimandSpec(kind), est.plm_joint(space, g, f + theta * g, theta)
    if kind == est.DS:
        params = DsParams(rng.uniform(0.5, 1.5, x_cells), rng.uniform(0.5, 1.5, x_cells))
        anchor = est.ds_joint(space, rng.uniform(0.2, 0.8, x_cells), p_x)
        return EstimandSpec(kind, params), anchor
    f_d = rng.uniform(0.5, 1.5, (x_cells, d_cells))
    anchor = est.dose_joint(space, f_d, rng.uniform(0.2, 0.8, (x_cells, d_cells)), p_x)
    if kind == est.WAD:
        omega = np.zeros(d_cells)
        omega[1:-1] = rng.uniform(0.5, 1.5, d_cells - 2)
        omega *= d_cells / omega.sum()
        params = WadParams(omega, rng.standard_normal(d_cells))
    else:
        perm = np.arange(d_cells) if rng.integers(2) else np.arange(d_cells)[::-1]
        params = ApeParams(perm.copy())
    return EstimandSpec(kind, params), anchor


anchors = st.builds(random_anchor, st.sampled_from(est.KINDS), st.integers(2, 6),
                    st.integers(3, 5), st.integers(0, 2 ** 32 - 1))
fields = st.integers(0, 2 ** 32 - 1)


@PROPERTY
@given(anchors, fields)
def test_riesz_identity_on_random_anchors(drawn, seed):
    spec, anchor = drawn
    zs = est.z_space(spec.kind, anchor.space)
    h = np.random.default_rng(seed).standard_normal(zs.shape)
    assert abs(est.riesz_identity_residual(anchor, spec, h)) <= TOL


@PROPERTY
@given(anchors)
def test_mixed_bias_on_random_anchors(drawn):
    spec, anchor = drawn
    if not spec.affine:
        with pytest.raises(PreconditionError):
            est.mixed_bias_value(anchor, spec)
        return
    chi = est.functional_value(anchor, spec)
    if spec.kind == est.ECC_PLM:
        chi = est.ecc_offset_population(anchor, spec) - chi
    assert abs(est.mixed_bias_value(anchor, spec) - chi) <= TOL


@PROPERTY
@given(anchors, fields)
def test_atom_weighted_rows_match_population(drawn, seed):
    """Weighted by atom probability, the per-atom plug-in and DML values give
    their population twins; weighted by a count vector, the sampled
    estimators."""
    spec, anchor = drawn
    space = anchor.space
    zs = est.z_space(spec.kind, space)
    rng = np.random.default_rng(seed)
    gamma_hat = rng.uniform(0.2, 0.8, zs.shape)
    if spec.kind == est.LOD:
        gamma_hat = np.log(gamma_hat / (1.0 - gamma_hat))
    alpha_hat = rng.standard_normal(zs.shape)

    rows = np.arange(space.n_atoms)
    weight = anchor.values.ravel() * space.atom_weight
    idx = np.unravel_index(rows, space.shape)
    z_at = tuple(idx[a] for a in est.z_axes(spec.kind))
    m1 = est.m1_rows(spec, space, gamma_hat)
    core = m1 + alpha_hat[z_at] * est.rho_rows(spec, space, gamma_hat)
    if spec.kind == est.ECC_PLM:
        ty = (idx[1] * idx[2]).astype(float)
        m1, core = ty - m1, ty - core

    assert abs(weight @ m1 - dr.population_plugin(anchor, gamma_hat, spec)) <= TOL
    assert abs(weight @ core
               - dr.population_dml(anchor, gamma_hat, alpha_hat, spec)) <= TOL
    # the sampled estimators are the count-weighted means of the same values
    counts = rng.integers(0, 4, space.n_atoms) * (rng.random(space.n_atoms) < 0.5)
    counts[rng.integers(space.n_atoms)] += 1
    data, n = Dataset(space, counts), counts.sum()
    assert abs(dr.plugin_estimate(data, gamma_hat, spec) - counts @ m1 / n) <= TOL
    assert abs(dr.dml_estimate(data, gamma_hat, alpha_hat, spec)
               - counts @ core / n) <= TOL
    if spec.kind == est.ATE:
        # the classic doubly robust score; 0.01 and 0.99 get clipped
        m_hat = rng.permutation(np.linspace(0.01, 0.99, zs.shape[0]))
        m = np.clip(m_hat, 0.05, 0.95)[idx[0]]
        x, d, y = idx[0], idx[1], idx[2].astype(float)
        score = (gamma_hat[x, 1] - gamma_hat[x, 0]
                 + (d - m) / (m * (1.0 - m)) * (y - gamma_hat[x, d]))
        assert abs(dr.dr_ate_estimate(data, gamma_hat, m_hat) - counts @ score / n) <= TOL
        assert abs(dr.population_dr_ate(anchor, gamma_hat, m_hat)
                   - weight @ score) <= TOL


@PROPERTY
@given(anchors, fields)
def test_memoized_anchor_matches_a_cold_copy(drawn, seed):
    """Calls on one density at several fields (its marginals and conditional
    means computed once) equal, bit for bit, the same calls on a fresh copy
    that has computed nothing yet."""
    spec, anchor = drawn
    zs = est.z_space(spec.kind, anchor.space)
    rng = np.random.default_rng(seed)

    def cold():
        return Density(anchor.space, np.array(anchor.values))

    for _ in range(3):
        gamma_hat = rng.uniform(0.2, 0.8, zs.shape)
        if spec.kind == est.LOD:
            gamma_hat = np.log(gamma_hat / (1.0 - gamma_hat))
        alpha_hat = rng.standard_normal(zs.shape)
        assert (dr.population_dml(anchor, gamma_hat, alpha_hat, spec)
                == dr.population_dml(cold(), gamma_hat, alpha_hat, spec))
        assert (dr.population_plugin(anchor, gamma_hat, spec)
                == dr.population_plugin(cold(), gamma_hat, spec))
        assert np.array_equal(est.rho_bar(anchor, spec, gamma_hat),
                              est.rho_bar(cold(), spec, gamma_hat))
        assert est.functional_value(anchor, spec) == est.functional_value(cold(), spec)
        for warm, fresh in zip(est.nuisances_of(anchor, spec),
                               est.nuisances_of(cold(), spec)):
            assert np.array_equal(warm, fresh)
    alpha = est.nuisances_of(anchor, spec)[1]
    assert alpha is est.nuisances_of(anchor, spec)[1] and not alpha.flags.writeable
