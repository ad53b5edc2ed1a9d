import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from debias_lab import estimands as est
from debias_lab.errors import (
    ConstructionPreconditionError,
    DegenerateNuisanceError,
    DimensionMismatchError,
    PreconditionError,
)
from debias_lab.estimands import DsParams, EstimandSpec
from debias_lab.presets import preset

from kinds import AFFINE_KINDS, FACTS, TREATMENT_KINDS, mixed_bias_target


def test_ate_alpha_at_half_propensity():
    space = est.make_space(est.ATE, x_cells=8)
    p = est.ate_joint(space, np.full(8, 0.5), np.full((8, 2), 0.4))
    _, alpha = est.nuisances_of(p, EstimandSpec(est.ATE))
    assert np.allclose(alpha[:, 1], 2.0, atol=1e-14)
    assert np.allclose(alpha[:, 0], -2.0, atol=1e-14)


def test_lod_gamma_zero_at_half():
    space = est.make_space(est.LOD, x_cells=8)
    p = est.ate_joint(space, np.full(8, 0.4), np.full((8, 2), 0.5))
    gamma, _ = est.nuisances_of(p, EstimandSpec(est.LOD))
    assert np.max(np.abs(gamma)) < 1e-14


def test_ds_alpha_vanishes_when_references_match():
    space = est.make_space(est.DS, x_cells=8)
    f = np.ones(8)
    spec = EstimandSpec(est.DS, DsParams(f, f.copy()))
    p = est.ds_joint(space, np.full(8, 0.3))
    _, alpha = est.nuisances_of(p, spec)
    assert np.max(np.abs(alpha)) == 0.0


def test_functional_values_closed_forms():
    space = est.make_space(est.ATE, x_cells=8)
    g = np.tile(np.array([0.2, 0.7]), (8, 1))
    p = est.ate_joint(space, np.full(8, 0.4), g)
    assert est.functional_value(p, EstimandSpec(est.ATE)) == pytest.approx(0.5)

    # conditional independence kills the expected conditional covariance
    space = est.make_space(est.ECC_PLM, x_cells=8)
    p = est.plm_joint(space, 0.3 + 0.04 * np.arange(8), np.full(8, 0.5), 0.0)
    assert abs(est.functional_value(p, EstimandSpec(est.ECC_PLM))) < 1e-15

    space = est.make_space(est.LOD, x_cells=8)
    g = np.tile(np.array([0.5, 0.75]), (8, 1))
    p = est.ate_joint(space, np.full(8, 0.5), g)
    assert est.functional_value(p, EstimandSpec(est.LOD)) == pytest.approx(
        np.log(3.0), abs=1e-12
    )


def test_score_rho_values():
    affine = EstimandSpec(est.ATE)
    assert est.score_rho(affine, 1.0, 0.3) == pytest.approx(0.7)
    lod = EstimandSpec(est.LOD)
    assert est.score_rho(lod, 1.0, 0.0) == pytest.approx(2.0)


def test_lod_upsilon_zero_at_half(small_presets):
    space = est.make_space(est.LOD, x_cells=8)
    p = est.ate_joint(space, np.full(8, 0.4), np.full((8, 2), 0.5))
    ups = est.upsilon_rho(EstimandSpec(est.LOD), p)
    assert np.max(np.abs(ups)) < 1e-14


@pytest.mark.parametrize("kind", est.KINDS)
def test_riesz_identity_residual(kind, small_presets):
    pre = small_presets[kind]
    zs = est.z_space(kind, pre.anchor.space)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        h = rng.standard_normal(zs.shape)
        worst = max(worst, abs(est.riesz_identity_residual(pre.anchor, pre.spec, h)))
    assert worst <= 1e-10
    assert est.riesz_identity_residual(pre.anchor, pre.spec, np.zeros(zs.shape)) == 0.0


@pytest.mark.parametrize("kind", est.KINDS)
def test_first_order_optimality(kind, small_presets):
    pre = small_presets[kind]
    resid = est.rho_bar(pre.anchor, pre.spec, pre.gamma)
    assert np.max(np.abs(resid)) <= 1e-12


@pytest.mark.parametrize("kind", est.KINDS)
def test_nu_rho_by_finite_differences(kind, small_presets):
    pre = small_presets[kind]
    h = 1e-4
    up = est.rho_bar(pre.anchor, pre.spec, pre.gamma + h)
    dn = est.rho_bar(pre.anchor, pre.spec, pre.gamma - h)
    nu_fd = (up - dn) / (2 * h)
    assert np.max(np.abs(nu_fd + 1.0)) <= 1e-6


def test_lod_upsilon_by_second_differences(small_presets):
    pre = small_presets[est.LOD]
    h = 1e-4
    mid = est.rho_bar(pre.anchor, pre.spec, pre.gamma)
    up = est.rho_bar(pre.anchor, pre.spec, pre.gamma + h)
    dn = est.rho_bar(pre.anchor, pre.spec, pre.gamma - h)
    ups_fd = (up - 2 * mid + dn) / (h * h)
    ups = est.upsilon_rho(pre.spec, pre.anchor)
    assert np.max(np.abs(ups_fd - ups)) <= 1e-5


@pytest.mark.parametrize("kind", AFFINE_KINDS)
def test_mixed_bias_identity(kind, small_presets):
    # for ecc_plm the m2 representation recovers the auxiliary functional
    # E[Y g(X)], which is E[TY] minus the conditional-covariance target
    pre = small_presets[kind]
    value = est.mixed_bias_value(pre.anchor, pre.spec)
    assert abs(value - mixed_bias_target(kind, pre.anchor, pre.oracle)) <= 1e-10


def test_test_kind_table_has_one_row_per_kind():
    """tests/kinds.py holds what the tests assert about each kind: a kind
    the library defines without a row, or a row for no kind, is named."""
    missing = [k for k in est.KINDS if k not in FACTS]
    extra = [k for k in FACTS if k not in est.KINDS]
    assert not missing, f"kinds without a row in tests/kinds.py: {missing}"
    assert not extra, f"rows in tests/kinds.py for no library kind: {extra}"


def test_mixed_bias_rejects_lod(small_presets):
    pre = small_presets[est.LOD]
    with pytest.raises(PreconditionError):
        est.mixed_bias_value(pre.anchor, pre.spec)


def test_degenerate_nuisance_names_atom():
    space = est.make_space(est.LOD, x_cells=4)
    g = np.full((4, 2), 0.5)
    g[2, 1] = 1.0  # log-odds blows up there
    p = est.ate_joint(space, np.full(4, 0.5), g)
    with pytest.raises(DegenerateNuisanceError) as err:
        est.nuisances_of(p, EstimandSpec(est.LOD))
    assert err.value.atom == 5  # flat index of Z atom (2, 1)


@pytest.mark.parametrize("values, strict, atom", [
    ([[1.0, 2.0], [0.5, 3.0]], 0.5, 2),  # equal to the bound is not above it
    ([[1.0, np.nan], [0.0, 1.0]], 0.0, 1),  # NaN is not positive, and comes first
    ([[1.0, 1.0], [1.0, -0.0]], 0.0, 3),
])
def test_require_positive_names_first_bad_atom(values, strict, atom):
    est._require_positive(np.array([[1.0, 2.0]]), "all positive", strict)
    with pytest.raises(DegenerateNuisanceError) as err:
        est._require_positive(np.array(values), "bad atom", strict)
    assert err.value.atom == atom


def test_spec_params_arrays_are_read_only_copies(small_presets):
    """Caches key a spec's params by identity, so their arrays cannot change:
    each is a read-only copy of what the caller passed."""
    f = np.ones(8)
    params = DsParams(f, f)
    f[0] = 2.0
    assert params.f1[0] == 1.0
    for kind in est.KINDS:
        spec = small_presets[kind].spec
        for name in ("f1", "f2", "omega", "omega_prime", "perm"):
            if hasattr(spec.params, name):
                assert not getattr(spec.params, name).flags.writeable


def test_wad_weight_contract(small_presets):
    pre = small_presets[est.WAD]
    space = pre.anchor.space
    w_d = space.axes[1].cell_weight
    omega = pre.spec.params.omega
    assert abs(np.sum(omega) * w_d - 1.0) <= 1e-10
    assert omega.min() >= 0.0
    assert omega[0] <= 1e-8 and omega[-1] <= 1e-8


def test_ape_perm_is_monotone_bijection(small_presets):
    pre = small_presets[est.APE]
    perm = pre.spec.params.perm
    assert sorted(perm.tolist()) == list(range(perm.size))
    steps = np.diff(perm)
    assert np.all(steps > 0) or np.all(steps < 0)


def test_m1_rows_match_population(small_presets):
    from debias_lab.grid import sample

    rng = np.random.default_rng(23)
    for kind in est.KINDS:
        pre = small_presets[kind]
        zs = est.z_space(kind, pre.anchor.space)
        h = rng.standard_normal(zs.shape)
        data = sample(pre.anchor, 200_000, seed=9)
        atoms = np.flatnonzero(data.counts)
        emp = float(data.counts[atoms]
                    @ est.m1_rows(pre.spec, pre.anchor.space, h)[atoms] / data.n)
        pop = est.m1_population(pre.anchor, pre.spec, h)
        assert abs(emp - pop) < 0.05 * (1.0 + abs(pop))


# -----------------------------------------------------------------------------
# where a spec meets a grid
# -----------------------------------------------------------------------------

@pytest.mark.parametrize("kind", TREATMENT_KINDS)
def test_binary_treatment_kind_refuses_a_continuous_treatment_grid(kind, small_presets):
    wad = small_presets[est.WAD]
    with pytest.raises(DimensionMismatchError, match=kind):
        est.functional_value(wad.anchor, EstimandSpec(kind))


def test_continuous_treatment_kind_refuses_a_binary_treatment_grid(small_presets):
    spec = small_presets[est.WAD].spec
    with pytest.raises(DimensionMismatchError, match="wad"):
        est.functional_value(small_presets[est.ATE].anchor, spec)


@pytest.mark.parametrize("kind, name", [(est.WAD, "omega"), (est.APE, "perm"), (est.DS, "f1")])
def test_params_that_do_not_fit_the_grid_are_refused(kind, name):
    """Params built for 16 cells meet a grid with 8 on their axis."""
    anchor = preset(kind, x_cells=8, d_cells=8).anchor
    params = preset(kind, x_cells=16, d_cells=16).spec.params
    with pytest.raises(DimensionMismatchError) as err:
        est.functional_value(anchor, EstimandSpec(kind, params))
    message = str(err.value)
    for word in (kind, name, "16", "8"):
        assert word in message


ATE8, DS8 = est.make_space(est.ATE, 8), est.make_space(est.DS, 8)
DOSE8, PLM8 = est.make_space(est.WAD, 8, 4), est.make_space(est.ECC_PLM, 8)
M8, G8 = np.full(8, 0.5), np.full((8, 2), 0.5)


@pytest.mark.parametrize("build, given, grid", [
    (lambda: est.ate_joint(ATE8, np.full(9, 0.5), G8), (9,), (8,)),
    (lambda: est.ate_joint(ATE8, M8, np.full((8, 3), 0.5)), (8, 3), (8, 2)),
    (lambda: est.ate_joint(ATE8, M8, G8, p_x=np.ones(7)), (7,), (8,)),
    (lambda: est.ds_joint(DS8, np.full(7, 0.5)), (7,), (8,)),
    (lambda: est.dose_joint(DOSE8, np.ones((8, 5)), np.full((8, 4), 0.5)), (8, 5), (8, 4)),
    (lambda: est.dose_joint(DOSE8, np.ones(4), np.full((9, 4), 0.5)), (9, 4), (8, 4)),
    (lambda: est.plm_joint(PLM8, np.full(9, 0.4), 0.5, 0.1), (9,), (8,)),
    (lambda: est.plm_joint(PLM8, 0.4, np.full(7, 0.5), 0.1), (7,), (8,)),
])
def test_joint_builders_refuse_a_field_off_their_grid(build, given, grid):
    """A typed refusal naming both shapes, not numpy's bare ValueError."""
    with pytest.raises(DimensionMismatchError,
                       match=re.escape(f"shape {given} does not broadcast to grid shape {grid}")):
        build()


@pytest.mark.parametrize("build, error, named", [
    (lambda: est.WadParams([0.0, -1.0, 5.0, 0.0], np.zeros(4)), PreconditionError,
     "omega must be nonnegative"),
    (lambda: est.WadParams([0.0, 1.0, 1.0, 0.0], np.zeros(4)), PreconditionError,
     "omega must integrate to 1"),
    (lambda: est.WadParams(np.ones(4), np.zeros(4)), PreconditionError,
     "omega must vanish at the boundary"),
    (lambda: est.ApeParams([0, 0, 1]), PreconditionError, "tau must be a bijection"),
    (lambda: est.ApeParams([1, 0, 2]), PreconditionError, "tau must be strictly monotone"),
    (lambda: EstimandSpec("bogus"), PreconditionError, "unknown estimand kind 'bogus'"),
    (lambda: EstimandSpec(est.ATE, overlap=0.5), PreconditionError, "overlap constant"),
    (lambda: EstimandSpec(est.ATE, overlap=0.0), PreconditionError, "overlap constant"),
    (lambda: EstimandSpec(est.WAD, DsParams(np.ones(4), np.ones(4))), PreconditionError,
     "wad spec needs WadParams"),
    (lambda: est.NuisanceField(ATE8.subgrid((0,)), np.full(8, 0.99), "propensity",
                               bounds=(0.05, 0.95)),
     PreconditionError, re.escape("propensity field leaves its bounds [0.05, 0.95]")),
    (lambda: est.x_density(ATE8, np.zeros(8)), PreconditionError,
     "nonpositive weight vector"),
    (lambda: est.x_density(ATE8, -1.0), PreconditionError, "nonpositive weight vector"),
    (lambda: est.plm_joint(PLM8, 0.5, 0.9, 0.5), ConstructionPreconditionError,
     "cell probability below zero"),
])
def test_bad_params_and_fields_are_refused(build, error, named):
    with pytest.raises(error, match=named):
        build()


# -----------------------------------------------------------------------------
# the binary-outcome laws against their written-out factorizations
# -----------------------------------------------------------------------------

def bernoulli(mean: float, y: int) -> float:
    return mean ** y * (1.0 - mean) ** (1 - y)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 9), st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
def test_joints_are_their_written_out_factorizations(x_cells, d_cells, seed):
    """ate_joint, ds_joint and dose_joint at a random p_X equal
    p_X(x) [m^d (1-m)^{1-d} | f(d|x)] g^y (1-g)^{1-y}, cell by cell, to the
    byte."""
    rng = np.random.default_rng(seed)
    raw_x = rng.uniform(0.5, 1.5, x_cells)
    m, q = rng.uniform(0.05, 0.95, (2, x_cells))
    g = rng.uniform(0.05, 0.95, (x_cells, 2))
    f_raw, g_d = rng.uniform(0.05, 0.95, (2, x_cells, d_cells))

    space = est.make_space(est.ATE, x_cells=x_cells)
    p_x = raw_x / (raw_x.sum() * space.axes[0].cell_weight)
    expected = np.empty(space.shape)
    for x, d, y in np.ndindex(space.shape):
        expected[x, d, y] = p_x[x] * bernoulli(m[x], d) * bernoulli(g[x, d], y)
    assert est.ate_joint(space, m, g, raw_x).values.tobytes() == expected.tobytes()

    space = est.make_space(est.DS, x_cells=x_cells)
    expected = np.empty(space.shape)
    for x, y in np.ndindex(space.shape):
        expected[x, y] = p_x[x] * bernoulli(q[x], y)
    assert est.ds_joint(space, q, raw_x).values.tobytes() == expected.tobytes()

    space = est.make_space(est.WAD, x_cells=x_cells, d_cells=d_cells)
    f = f_raw / (f_raw.sum(axis=1, keepdims=True) * space.axes[1].cell_weight)
    expected = np.empty(space.shape)
    for x, d, y in np.ndindex(space.shape):
        expected[x, d, y] = p_x[x] * f[x, d] * bernoulli(g_d[x, d], y)
    assert est.dose_joint(space, f_raw, g_d, raw_x).values.tobytes() == expected.tobytes()


def test_bernoulli_law_maps_a_stack_row_by_row():
    rng = np.random.default_rng(3)
    p_z, mean = rng.uniform(0.1, 0.9, (2, 4, 5))
    stack = est.bernoulli_law(p_z, mean)
    assert stack.shape == (4, 5, 2)
    rows = np.stack([est.bernoulli_law(p_z[i], mean[i]) for i in range(4)])
    assert stack.tobytes() == rows.tobytes()
    assert est.bernoulli_law(0.5, 0.25).tolist() == [0.375, 0.125]
