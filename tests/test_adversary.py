import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from debias_lab import adversary as adv, estimands as est
from debias_lab.errors import (
    ConstructionPreconditionError,
    DimensionMismatchError,
    InfeasibleRadiusError,
    NondegeneracyError,
    PairingError,
    PreconditionError,
    SizeLimitError,
    UncertaintyViolationError,
)
from debias_lab.estimands import EstimandSpec
from debias_lab.grid import (
    Density,
    GridSpace,
    SignedDensity,
    add_scaled,
    continuous,
    feasible_radius,
)
from debias_lab.partition import all_sign_vectors, bump, equal_blocks, iterated_partition
from debias_lab.presets import preset

DIRECTION_KINDS = (est.ATE, est.WAD, est.DS, est.LOD, est.ECC_PLM)
SLICE_KINDS = (est.ATE, est.WAD, est.DS, est.LOD)  # built by the one slice recipe


@pytest.fixture(scope="module")
def ate_family():
    pre = preset(est.ATE, x_cells=256)
    space = pre.anchor.space
    m_hat = np.full(256, 0.5)
    g_hat = np.full((256, 2), 0.5)
    part = iterated_partition([np.ones(256), 2 * m_hat - 1.0], 4,
                              space.axes[0])
    return adv.AteLocalFamily(space, m_hat, g_hat, 0.1, 0.2, part)


# -----------------------------------------------------------------------------
# direction pairs
# -----------------------------------------------------------------------------

@pytest.mark.parametrize("kind", DIRECTION_KINDS)
@pytest.mark.parametrize("variant", ["gamma", "alpha"])
def test_direction_pair_contract(kind, variant, medium_presets):
    pre = medium_presets[kind]
    pair = adv.direction_pair(pre.spec, pre.anchor, variant)
    # zero total mass is enforced by the SignedDensity type; check radius
    from debias_lab.grid import feasible_radius

    assert feasible_radius(pre.anchor, pair.first) > 0
    assert feasible_radius(pre.anchor, pair.second) > 0
    assert pair.mixed_reference != 0.0


def test_ape_has_no_adversarial_construction(medium_presets):
    pre = medium_presets[est.APE]
    with pytest.raises(PreconditionError):
        adv.direction_pair(pre.spec, pre.anchor, "gamma")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), max_size=24))
def test_sign_runs_are_the_maximal_nonzero_runs(signs):
    """The run finder of the WAD bump and the DS zeta, against groupby."""
    runs, start = [], 0
    for value, group in itertools.groupby(signs):
        stop = start + len(list(group))
        if value != 0:
            runs.append((start, stop))
        start = stop
    assert adv._sign_runs(np.array(signs)) == runs


@pytest.mark.parametrize("variant", ["gamma", "alpha"])
def test_wad_refuses_an_omega_prime_with_no_nonzero_sign(variant):
    """With omega' = 0 on every cell there is no constant-sign run to bump:
    refused, where a bump over the whole interior once gave a mixed
    reference of 0.0."""
    pre = preset(est.WAD, x_cells=16, d_cells=16)
    spec = EstimandSpec(est.WAD, est.WadParams(pre.spec.params.omega, np.zeros(16)))
    with pytest.raises(ConstructionPreconditionError, match="no usable constant-sign run"):
        adv.direction_pair(spec, pre.anchor, variant)


def test_ate_g0_slicewise_mass_cancels(medium_presets):
    pre = medium_presets[est.ATE]
    pair = adv.direction_pair(pre.spec, pre.anchor, "gamma")
    per_x = pair.first.values.sum(axis=(1, 2))
    assert np.max(np.abs(per_x)) <= 1e-14


def test_ds_g1_preserves_x_marginal(medium_presets):
    pre = medium_presets[est.DS]
    pair = adv.direction_pair(pre.spec, pre.anchor, "alpha")
    assert np.max(np.abs(pair.first.values.sum(axis=1))) == 0.0


@pytest.mark.parametrize("kind", DIRECTION_KINDS)
@pytest.mark.parametrize("variant", ["gamma", "alpha"])
def test_exact_invariance(kind, variant, medium_presets):
    pre = medium_presets[kind]
    pair = adv.direction_pair(pre.spec, pre.anchor, variant)
    dev = adv.verify_invariance(pre.anchor, pair.first, pre.spec, variant)
    assert dev <= 1e-12


def test_zero_direction_invariance(medium_presets):
    pre = medium_presets[est.ATE]
    zero = SignedDensity(pre.anchor.space, np.zeros(pre.anchor.space.shape))
    assert adv.verify_invariance(pre.anchor, zero, pre.spec, "gamma") == 0.0


# -----------------------------------------------------------------------------
# derivative probes
# -----------------------------------------------------------------------------

@pytest.mark.parametrize("kind", DIRECTION_KINDS)
def test_mixed_fd_matches_reference(kind, medium_presets):
    pre = medium_presets[kind]
    pair = adv.direction_pair(pre.spec, pre.anchor, "gamma")
    fd = adv.second_derivative_fd(pre.anchor, pair.first, pair.second, pre.spec)
    assert abs(fd - pair.mixed_reference) <= 1e-4 * max(1.0, abs(pair.mixed_reference))


def test_fd_zero_companion_direction(medium_presets):
    pre = medium_presets[est.ATE]
    pair = adv.direction_pair(pre.spec, pre.anchor, "gamma")
    zero = SignedDensity(pre.anchor.space, np.zeros(pre.anchor.space.shape))
    assert adv.second_derivative_fd(pre.anchor, pair.first, zero, pre.spec) == 0.0


def test_affine_curvature_vanishes(medium_presets):
    for kind in (est.ATE, est.DS, est.WAD, est.ECC_PLM):
        pre = medium_presets[kind]
        pair = adv.direction_pair(pre.spec, pre.anchor, "alpha")
        assert adv.closed_form_chi2_H0(pre.anchor, pair.first, pre.spec) == 0.0
        fd = adv.second_derivative_fd(pre.anchor, pair.first, pair.first, pre.spec)
        assert abs(fd) <= 1e-5


def test_lod_curvature_cross_validation(medium_presets):
    pre = medium_presets[est.LOD]
    pair = adv.direction_pair(pre.spec, pre.anchor, "alpha")
    closed = adv.closed_form_chi2_H0(pre.anchor, pair.first, pre.spec)
    display = adv.lod_curvature_reference(pre.anchor, pre.spec)
    fd = adv.second_derivative_fd(pre.anchor, pair.first, pair.first, pre.spec)
    assert abs(closed - display) <= 1e-6 * abs(display)
    assert abs(fd - closed) <= 1e-4 * abs(closed)
    assert closed != 0.0


def test_lod_curvature_magnitude_quarter_region():
    # g(1, x) bounded away from 1/2 on [0, 1/4] only
    space = est.make_space(est.LOD, x_cells=64)
    x = space.coords(0)
    g1 = np.where(x < 0.25, 0.75, 0.5 + 1e-6)
    g = np.stack([np.full(64, 0.5), g1], axis=1)
    anchor = est.ate_joint(space, np.full(64, 0.5), g)
    spec = EstimandSpec(est.LOD, overlap=0.05)
    pair = adv.direction_pair(spec, anchor, "alpha")
    value = adv.closed_form_chi2_H0(anchor, pair.first, spec)
    assert abs(value) >= 1e-3


def test_lod_positive_sign_on_high_region(medium_presets):
    # b = 1 where g(1,.) > 1/2: the curvature has the sign of 2g - 1 there
    pre = medium_presets[est.LOD]
    value = adv.lod_curvature_reference(pre.anchor, pre.spec)
    assert value > 0.0


# -----------------------------------------------------------------------------
# the slice recipe off the presets
# -----------------------------------------------------------------------------

@pytest.mark.parametrize("p_x, expected", [(lambda x: 0.5 + x, -0.139731),
                                           (lambda x: 2.0 - 1.5 * x, -0.0845589)])
def test_ds_mixed_reference_off_a_uniform_x_marginal(p_x, expected):
    pre = preset(est.DS, x_cells=64, d_cells=16)
    x = pre.anchor.space.coords(0)
    anchor = est.ds_joint(pre.anchor.space, 0.3 + 0.4 * x, p_x(x))  # the preset's q
    pair = adv.direction_pair(pre.spec, anchor, "gamma")
    fd = adv.second_derivative_fd(anchor, pair.first, pair.second, pre.spec)
    assert abs(fd - pair.mixed_reference) <= 1e-4 * abs(pair.mixed_reference)
    assert pair.mixed_reference == pytest.approx(expected, rel=1e-5)


def _random_slice_anchor(kind: str, seed: int):
    """(spec, anchor) on an 8 x 16 grid from random fields bounded away from 0
    and 1 and a random non-uniform X marginal; DS and WAD keep the presets'
    reference densities and weight."""
    rng = np.random.default_rng(seed)
    space = est.make_space(kind, 8, 16)
    p_x = rng.uniform(0.5, 2.0, 8)
    if kind in (est.ATE, est.LOD):
        m = rng.uniform(0.2, 0.8, 8)
        return EstimandSpec(kind), est.ate_joint(space, m, rng.uniform(0.2, 0.8, (8, 2)), p_x)
    spec = preset(kind, x_cells=8, d_cells=16).spec
    if kind == est.DS:
        return spec, est.ds_joint(space, rng.uniform(0.2, 0.8, 8), p_x)
    f_d = rng.uniform(0.5, 1.5, (8, 16))
    return spec, est.dose_joint(space, f_d, rng.uniform(0.2, 0.8, (8, 16)), p_x)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SLICE_KINDS), st.integers(0, 2 ** 32 - 1))
def test_slice_recipe_on_random_anchors(kind, seed):
    spec, anchor = _random_slice_anchor(kind, seed)
    for variant in ("gamma", "alpha"):
        pair = adv.direction_pair(spec, anchor, variant)
        assert adv.verify_invariance(anchor, pair.first, spec, variant) <= 1e-12
    fd = adv.second_derivative_fd(anchor, pair.first, pair.second, spec)
    assert abs(fd - pair.mixed_reference) <= 1e-4 * abs(pair.mixed_reference)


def test_verify_invariance_inside_a_small_feasible_radius():
    """DS's companion is not scaled by p, so at this anchor a step of 0.05
    leaves the density cone; the steps shrink to fit and the invariance
    still holds."""
    spec, anchor = _random_slice_anchor(est.DS, 0)
    pair = adv.direction_pair(spec, anchor, "alpha")
    radius = feasible_radius(anchor, pair.first)
    assert 0.03 < radius < 0.05
    with pytest.raises(InfeasibleRadiusError):
        for t in (-0.05, 0.05):
            add_scaled(anchor, t, pair.first)
    assert adv.verify_invariance(anchor, pair.first, spec, "alpha") <= 1e-12


def test_verify_invariance_keeps_its_steps_where_they_fit(medium_presets):
    """On a preset every fixed step fits, so the deviation is the largest
    over anchor + t * direction at t in +-{0.01, 0.05} exactly."""
    pre = medium_presets[est.DS]
    pair = adv.direction_pair(pre.spec, pre.anchor, "alpha")
    assert feasible_radius(pre.anchor, pair.first) >= 0.05
    base = est.nuisances_of(pre.anchor, pre.spec)[1]
    expected = max(float(np.max(np.abs(
        est.nuisances_of(add_scaled(pre.anchor, t, pair.first), pre.spec)[1] - base)))
        for t in (-0.05, -0.01, 0.01, 0.05))
    assert adv.verify_invariance(pre.anchor, pair.first, pre.spec, "alpha") == expected


@pytest.mark.parametrize("spec_kind, anchor_kind", [
    (est.ATE, est.WAD), (est.LOD, est.WAD), (est.ATE, est.DS),
    (est.DS, est.ATE), (est.WAD, est.ATE)])
def test_direction_pair_refuses_another_kinds_grid(spec_kind, anchor_kind, medium_presets):
    spec = medium_presets[spec_kind].spec
    with pytest.raises(DimensionMismatchError):
        adv.direction_pair(spec, medium_presets[anchor_kind].anchor, "gamma")


@pytest.mark.parametrize("kind", SLICE_KINDS)
def test_direction_pair_refuses_an_empty_z_slice(kind):
    pre = preset(kind, x_cells=16, d_cells=16)
    values = pre.anchor.values.copy()
    values[3] = 0.0  # one X cell without mass
    anchor = Density(pre.anchor.space, values / (values.sum() * pre.anchor.space.atom_weight))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(PreconditionError):
            adv.direction_pair(pre.spec, anchor, "gamma")


def test_verify_invariance_refuses_an_unknown_nuisance(medium_presets):
    pre = medium_presets[est.ATE]
    pair = adv.direction_pair(pre.spec, pre.anchor, "gamma")
    with pytest.raises(PreconditionError, match="which"):
        adv.verify_invariance(pre.anchor, pair.first, pre.spec, "beta")


# -----------------------------------------------------------------------------
# bumped directions
# -----------------------------------------------------------------------------

def test_bumped_direction_involution(medium_presets):
    # Delta^2 == 1 on whole-cell partitions: bumping twice recovers the
    # direction, and an all-plus-signs Delta is just a global sign pattern
    pre = medium_presets[est.ATE]
    pair = adv.direction_pair(pre.spec, pre.anchor, "gamma")
    part = equal_blocks(pre.anchor.space.axes[0], 2)
    field = bump(part, [1])
    bumped = adv.bumped_direction(pair.first, field)
    double = adv.bumped_direction(bumped, field)
    assert np.max(np.abs(double.values - pair.first.values)) <= 1e-12


def test_bumped_direction_zero_mass_random_lambda(medium_presets):
    pre = medium_presets[est.ATE]
    pair = adv.direction_pair(pre.spec, pre.anchor, "gamma")
    axis = pre.anchor.space.axes[0]
    part = iterated_partition([np.ones(64)], 4, axis)
    rng = np.random.default_rng(8)
    for _ in range(10):
        lam = 2 * rng.integers(0, 2, size=4) - 1
        bumped = adv.bumped_direction(pair.first, bump(part, lam))
        mass = float(bumped.values.sum() * pre.anchor.space.atom_weight)
        assert abs(mass) <= 1e-10


def test_bumped_direction_pairing_error():
    # a direction whose Z1 marginal the partition does not balance
    space = GridSpace((continuous("z1", 8), continuous("w", 2)))
    values = np.zeros((8, 2))
    values[:4, 0] = 1.0
    values[:4, 1] = -0.5
    values[4:, 0] = -1.0
    values[4:, 1] = 0.5
    direction = SignedDensity(space, values)
    part = equal_blocks(space.axes[0], 2)
    field = bump(part, [1])
    with pytest.raises(PairingError):
        adv.bumped_direction(direction, field)


# -----------------------------------------------------------------------------
# the ATE local family
# -----------------------------------------------------------------------------

def test_family_zero_eps_returns_anchor(ate_family):
    fam = adv.AteLocalFamily(ate_family.space, ate_family.m_hat,
                             ate_family.g_hat, 0.0, 0.0, ate_family.partition)
    member = fam.member(np.ones(4))
    assert np.max(np.abs(member.values - fam.anchor.values)) == 0.0


def test_family_rejects_eps_above_overlap(ate_family):
    with pytest.raises(UncertaintyViolationError):
        adv.AteLocalFamily(ate_family.space, ate_family.m_hat,
                           ate_family.g_hat, 0.6, 0.1, ate_family.partition)


def test_mixture_equals_anchor(ate_family):
    mix = adv.mixture_density(ate_family)
    assert np.max(np.abs(mix.values - ate_family.anchor.values)) <= 1e-12


def test_mixture_two_term_average(ate_family):
    part = equal_blocks(ate_family.space.axes[0], 2)
    fam = adv.AteLocalFamily(ate_family.space, ate_family.m_hat,
                             ate_family.g_hat, 0.1, 0.2, part)
    plus = fam.member([1]).values
    minus = fam.member([-1]).values
    mix = adv.mixture_density(fam)
    assert np.max(np.abs(mix.values - (plus + minus) / 2.0)) <= 1e-15


def test_mixture_size_guard(ate_family):
    class Wide:
        m_pairs = 17
        anchor = ate_family.anchor

    with pytest.raises(SizeLimitError):
        adv.mixture_density(Wide())


def test_nuisance_shift_norms_exact(ate_family):
    for lam in all_sign_vectors(4):
        m_shift, g_shift = ate_family.nuisance_shift_norms(lam)
        assert abs(m_shift - 0.1) <= 1e-12
        assert g_shift <= 0.2 + 1e-12


def test_separation_is_minus_two_eps_eps(ate_family):
    spec = EstimandSpec(est.ATE, overlap=0.25)
    chi0 = est.functional_value(ate_family.anchor, spec)
    for lam in all_sign_vectors(4):
        chi = est.functional_value(ate_family.member(lam), spec)
        assert abs((chi - chi0) + 2 * 0.1 * 0.2) <= 1e-10


def test_uncertainty_membership_reports(ate_family):
    spec = EstimandSpec(est.ATE, overlap=0.25)
    ok, dists = adv.uncertainty_membership(ate_family.anchor, ate_family.anchor,
                                           spec, 0.0, 0.0)
    assert ok and dists == (0.0, 0.0)
    member = ate_family.member(np.ones(4))
    ok, dists = adv.uncertainty_membership(member, ate_family.anchor, spec,
                                           0.2, 1.3)
    assert ok
    ok, dists = adv.uncertainty_membership(member, ate_family.anchor, spec,
                                           dists[0] / 2, 1.3)
    assert not ok


# -----------------------------------------------------------------------------
# generic two-step and PLM families
# -----------------------------------------------------------------------------

def test_direction_family_membership(medium_presets):
    pre = medium_presets[est.DS]
    pair = adv.direction_pair(pre.spec, pre.anchor, "gamma")
    w0 = adv._reduce_to_z1(pre.anchor.space, pair.first.values)
    w1 = adv._reduce_to_z1(pre.anchor.space, pair.second.values)
    part = iterated_partition([np.ones(64), w0, w1], 2,
                              pre.anchor.space.axes[0])
    fam = adv.DirectionFamily(pre.anchor, pre.spec, pair, 0.05, 0.02, part)
    mix = adv.mixture_density(fam)
    assert np.max(np.abs(mix.values - pre.anchor.values)) <= 1e-12
    for lam in all_sign_vectors(2):
        member = fam.member(lam)
        ok, dists = adv.uncertainty_membership(member, pre.anchor, pre.spec,
                                               0.2, 0.2)
        assert ok, dists


def test_plm_family_invariants(medium_presets):
    pre = medium_presets[est.ECC_PLM]
    part = iterated_partition([np.ones(64)], 4, pre.anchor.space.axes[0])
    fam = adv.PlmFamily(pre.anchor, 0.2, 0.15, part)
    for lam in all_sign_vectors(4)[::5]:
        delta = bump(part, lam)
        member = fam.member(lam)
        gam, alp = est.nuisances_of(member, pre.spec)
        g_lam = fam.g_hat + 0.2 * fam.s * delta
        q_lam = fam.q_hat - 0.15 * fam.s * delta
        assert np.max(np.abs(gam - g_lam)) <= 1e-12
        assert np.max(np.abs(alp - q_lam)) <= 1e-12
        recon = g_lam * (q_lam + fam.theta_uv * (1.0 - g_lam))
        assert np.max(np.abs(member.values[:, 1, 1] - recon)) <= 1e-12


def test_plm_cross_derivative(medium_presets):
    pre = medium_presets[est.ECC_PLM]
    part = iterated_partition([np.ones(64)], 4, pre.anchor.space.axes[0])
    lam = all_sign_vectors(4)[3]
    fd = adv.plm_cross_derivative_fd(
        lambda u, v: adv.PlmFamily(pre.anchor, u, v, part).member(lam)
    )
    g = adv.PlmFamily(pre.anchor, 0.0, 0.0, part).g_hat
    ref = -float(np.mean(g * (1.0 - g)))
    assert abs(fd - ref) <= 1e-4


def test_case1_weights_cancel_first_order_terms(medium_presets):
    # balancing the five-function list makes the linear-in-scale terms of
    # the two-step expansion vanish: moving along either bumped direction
    # alone does not move the functional to first order
    pre = medium_presets[est.ATE]
    pair = adv.direction_pair(pre.spec, pre.anchor, "gamma")
    weights = adv.case1_weights(pre.anchor, pre.spec, pair)
    assert len(weights) == 5
    part = iterated_partition(weights, 2, pre.anchor.space.axes[0])
    field = bump(part, [1, -1])
    g0 = adv.bumped_direction(pair.first, field)
    g1 = adv.bumped_direction(pair.second, field)
    chi0 = est.functional_value(pre.anchor, pre.spec)
    from debias_lab.grid import add_scaled

    for t in (1e-3, -1e-3):
        # gamma-invariant direction: chi is exactly flat along it
        chi_t = est.functional_value(add_scaled(pre.anchor, t, g0), pre.spec)
        assert abs(chi_t - chi0) <= 1e-10
        # companion direction: the linear term is balanced away
        chi_s = est.functional_value(add_scaled(pre.anchor, t, g1), pre.spec)
        assert abs(chi_s - chi0) <= 1e-8


@pytest.mark.parametrize("m_pairs", [1, 2, 4])
def test_balanced_ate_family_matches_hand_built(m_pairs):
    pre = preset(est.ATE, x_cells=12)
    space = pre.anchor.space
    m_hat, g_hat = pre.extras["m_hat"], pre.extras["g_hat"]
    fam = adv.AteLocalFamily.balanced(space, m_hat, g_hat, 0.1, 0.2, m_pairs)
    part = iterated_partition([np.ones(12), 2 * m_hat - 1.0], m_pairs, space.axes[0])
    ref = adv.AteLocalFamily(space, m_hat, g_hat, 0.1, 0.2, part)
    for lam in all_sign_vectors(m_pairs):
        assert fam.member(lam).values.tobytes() == ref.member(lam).values.tobytes()


def test_plm_family_needs_whole_cell_partition():
    pre = preset(est.ECC_PLM, x_cells=12)
    part = iterated_partition([np.ones(12)], 8, pre.anchor.space.axes[0])
    from debias_lab.errors import ConstructionPreconditionError

    with pytest.raises(ConstructionPreconditionError):
        adv.PlmFamily(pre.anchor, 0.1, 0.1, part)


# -----------------------------------------------------------------------------
# Gram-Schmidt invariant direction
# -----------------------------------------------------------------------------

def _ratio_space(w_atoms: int):
    space = GridSpace((continuous("z1", 4), continuous("w", w_atoms)))
    vals = np.ones((4, w_atoms))
    vals /= vals.sum() * space.atom_weight
    return space, Density(space, vals)


def test_gram_schmidt_three_point_example():
    space, anchor = _ratio_space(3)
    f0 = np.tile(np.array([0.0, 1.0, 2.0]), (4, 1))
    f1 = np.ones((4, 3))
    g0 = adv.gram_schmidt_invariant_direction(anchor, f0, f1, z_atom=2, seed=0)
    assert np.allclose(g0 / g0[0], [1.0, -2.0, 1.0], atol=1e-10)


def test_gram_schmidt_orthogonality_random_seeds():
    space, anchor = _ratio_space(7)
    rng = np.random.default_rng(4)
    f0 = rng.standard_normal((4, 7))
    f1 = 1.0 + 0.1 * rng.standard_normal((4, 7))
    for seed in range(5):
        g0 = adv.gram_schmidt_invariant_direction(anchor, f0, f1, 1, seed=seed)
        w_w = space.axes[1].cell_weight
        p_slice = anchor.values[1]
        alpha_z = np.sum(f0[1] * p_slice) / np.sum(f1[1] * p_slice)
        f_tilde = f0[1] - alpha_z * f1[1]
        assert abs(np.sum(g0) * w_w) <= 1e-12
        assert abs(np.sum(g0 * f_tilde) * w_w) <= 1e-12


def test_gram_schmidt_induced_alpha_invariance():
    space, anchor = _ratio_space(5)
    rng = np.random.default_rng(11)
    f0 = rng.uniform(0.5, 2.0, size=(4, 5))
    f1 = np.ones((4, 5))
    z = 3
    g0 = adv.gram_schmidt_invariant_direction(anchor, f0, f1, z, seed=1)
    pert = adv.slice_perturbation(anchor, z, g0)
    base = np.sum(f0[z] * anchor.values[z]) / np.sum(f1[z] * anchor.values[z])
    for t in (1e-3, -2e-3, 5e-3):
        q = Density(space, anchor.values + t * pert.values)
        val = np.sum(f0[z] * q.values[z]) / np.sum(f1[z] * q.values[z])
        assert abs(val - base) <= 1e-8


def test_gram_schmidt_binary_w_degenerates():
    space, anchor = _ratio_space(2)
    f0 = np.tile(np.array([0.0, 1.0]), (4, 1))
    f1 = np.ones((4, 2))
    with pytest.raises(NondegeneracyError):
        adv.gram_schmidt_invariant_direction(anchor, f0, f1, 0)


def test_infeasible_family_reports_its_feasible_radius():
    # ds preset, M = 2, t = 50, s = 20: feasible only up to t = 0.557
    pre = preset(est.DS, x_cells=64, d_cells=16)
    pair = adv.direction_pair(pre.spec, pre.anchor, "gamma")
    weights = [np.ones(64)] + [d.values.reshape(64, -1).sum(axis=1)
                               for d in (pair.first, pair.second)]
    part = iterated_partition(weights, 2, pre.anchor.space.axes[0])
    t, s = 50.0, 20.0
    lams = all_sign_vectors(2)
    for evaluate in (lambda fam: fam.member([1, 1]), lambda fam: fam.members(lams)):
        with pytest.raises(InfeasibleRadiusError) as err:
            evaluate(adv.DirectionFamily(pre.anchor, pre.spec, pair, t, s, part))
        assert err.value.t == t
        assert 0.0 < err.value.radius < t
        k = 0.999 * err.value.radius / t
        evaluate(adv.DirectionFamily(pre.anchor, pre.spec, pair, k * t, k * s, part))


def test_infeasible_finite_difference_reports_its_feasible_radius():
    pre = preset(est.DS, x_cells=64, d_cells=16)
    big = SignedDensity(pre.anchor.space,
                        1e3 * adv.direction_pair(pre.spec, pre.anchor, "gamma").first.values)
    with pytest.raises(InfeasibleRadiusError) as err:
        adv.second_derivative_fd(pre.anchor, big, big, pre.spec)
    # the first offset tried is (h, h), the step h along big + big
    h = err.value.t
    assert 0.0 < err.value.radius < h
    scaled = pre.anchor.values + 0.999 * err.value.radius * (big.values + big.values)
    assert scaled.min() >= 0.0
