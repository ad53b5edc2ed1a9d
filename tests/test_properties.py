"""Randomized checks of the identity layer across random anchors.

Anchors come from the joint-density factories with random fields on small
grids; nuisance estimates are random fields on the Z grid.  Every identity
is exact on the grid, so each is asserted at 1e-12.
"""

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from debias_lab import estimands as est, estimators as dr
from debias_lab.errors import DegenerateNuisanceError, PreconditionError
from debias_lab.grid import (
    Dataset,
    Density,
    binary,
    check_density_rows,
    continuous,
    integrate,
    l2_nuisance_distance,
)

from kinds import FACTS, mixed_bias_target, random_anchor, random_fields

TOL = 1e-12
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


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
    if FACTS[spec.kind].log_odds:
        with pytest.raises(PreconditionError):
            est.mixed_bias_value(anchor, spec)
        return
    chi = mixed_bias_target(spec.kind, anchor, est.functional_value(anchor, spec))
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
    gamma_hat, alpha_hat = random_fields(spec.kind, zs.shape, rng)

    rows = np.arange(space.n_atoms)
    weight = anchor.values.ravel() * space.atom_weight
    idx = np.unravel_index(rows, space.shape)
    z_at = tuple(idx[a] for a in est.z_axes(spec.kind))
    m1 = est.m1_rows(spec, space, gamma_hat)
    core = m1 + alpha_hat[z_at] * est.rho_rows(spec, space, gamma_hat)
    facts = FACTS[spec.kind]
    offset = np.broadcast_to(facts.offset(space), space.shape).ravel()
    m1, core = offset + facts.sign * m1, offset + facts.sign * core

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
    if facts.propensity_alpha and not facts.log_odds:
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
        gamma_hat, alpha_hat = random_fields(spec.kind, zs.shape, rng)
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


# -----------------------------------------------------------------------------
# the member-audit path calls ufunc reductions directly: numpy's wrapper bytes
# -----------------------------------------------------------------------------

@PROPERTY
@given(anchors, fields)
def test_audit_path_gives_the_bytes_of_the_numpy_wrappers(drawn, seed):
    """integrate, l2_nuisance_distance, check_density_rows, bernoulli_law and
    the ATE/LOD alpha equal the np.sum / np.where / np.stack /
    np.broadcast_shapes forms written out here, bit for bit."""
    spec, anchor = drawn
    space = anchor.space
    zs = est.z_space(spec.kind, space)
    rng = np.random.default_rng(seed)
    w = space.atom_weight

    compact = np.expand_dims(rng.standard_normal(zs.shape), est.KIND_TABLE[spec.kind].w_axes)
    for field in (rng.standard_normal(space.shape), compact, 0.7):
        assert integrate(anchor, field) == float(np.sum(anchor.values * field) * w)

    pz = est.z_marginal(anchor, spec)
    for f, g in ((rng.standard_normal(zs.shape), rng.standard_normal(zs.shape)),
                 (rng.standard_normal(zs.shape), 0.3)):
        diff = f - g
        assert (l2_nuisance_distance(f, g, pz)
                == float(np.sqrt(np.sum(diff * diff * pz.values) * zs.atom_weight)))

    values = anchor.values
    i, j = rng.choice(space.n_atoms, 2, replace=False)
    dusty, signed_zero = np.array(values), np.array(values)
    dusty.flat[j] += dusty.flat[i] + 1e-13
    dusty.flat[i] = -1e-13
    signed_zero.flat[j] += signed_zero.flat[i]
    signed_zero.flat[i] = -0.0
    for raw in (values, dusty, signed_zero, np.asfortranarray(signed_zero),
                np.stack([values, dusty, signed_zero])):
        expected = np.where(raw < 0.0, 0.0, raw)
        checked = check_density_rows(space, raw)
        assert checked.tobytes() == expected.tobytes()
        assert checked.strides == expected.strides

    n_x = space.shape[0]
    p_z = rng.uniform(0.1, 1.0, n_x)
    for p, mean in ((p_z, rng.uniform(size=(3, n_x))), (p_z, rng.uniform(size=(n_x, 1))),
                    (rng.uniform(size=(2, 1, n_x)), rng.uniform(size=(3, n_x))),
                    (p_z, np.float64(0.4))):
        expected = np.stack([p * (1.0 - mean), p * mean], axis=-1)
        assert expected.shape == np.broadcast_shapes(np.shape(p), np.shape(mean)) + (2,)
        assert est.bernoulli_law(p, mean).tobytes() == expected.tobytes()

    if FACTS[spec.kind].propensity_alpha:
        pz_atoms = values.sum(axis=-1)
        pi = pz_atoms[:, 1] / pz_atoms.sum(axis=-1)
        expected = np.stack([-1.0 / (1.0 - pi), 1.0 / pi], axis=1)
        assert est.nuisances_of(anchor, spec)[1].tobytes() == expected.tobytes()


EDGE = st.one_of(st.sampled_from([0.0, -0.0, 0.05, np.nan, np.inf, -np.inf]), st.floats())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=4), elements=EDGE),
       st.sampled_from([0.0, 0.05]))
def test_require_positive_refuses_what_an_all_above_test_refuses(arr, strict):
    """The minimum is above ``strict`` exactly when every atom is, NaN
    included; a refusal names the first atom that is not."""
    if (arr > strict).all():
        est._require_positive(arr, "all above", strict)
        return
    with pytest.raises(DegenerateNuisanceError) as err:
        est._require_positive(arr, "an atom is not above", strict)
    assert err.value.atom == int(np.flatnonzero(~(arr.ravel() > strict))[0])


@PROPERTY
@given(st.integers(2, 300))
def test_axis_coords_are_read_only_and_computed_once(cells):
    for axis, expected in ((continuous("z1", cells), (np.arange(cells) + 0.5) / cells),
                           (binary("w"), np.array([0.0, 1.0]))):
        coords = axis.coords
        assert coords is axis.coords and not coords.flags.writeable
        assert coords.tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            coords[0] = 0.25
