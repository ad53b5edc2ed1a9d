import re

import numpy as np
import pytest

from debias_lab import estimands as est, estimators as dr
from debias_lab.errors import (
    ClippedCorruptionError,
    DimensionMismatchError,
    EmptyDataError,
    PreconditionError,
)
from debias_lab.estimands import NuisanceField
from debias_lab.grid import Dataset, Density, sample
from debias_lab.partition import bump, equal_blocks
from debias_lab.presets import preset

from kinds import AFFINE_KINDS, FACTS, random_fields


# -----------------------------------------------------------------------------
# corruption
# -----------------------------------------------------------------------------

def test_corrupt_zero_eps_is_identity(small_presets):
    pre = small_presets[est.ATE]
    zs = est.z_space(est.ATE, pre.anchor.space)
    pz = est.z_marginal(pre.anchor, pre.spec)
    field = NuisanceField(zs, pre.gamma, "gamma")
    out = dr.corrupt_nuisance(field, dr.CorruptionSpec(0.0, np.ones(zs.shape)), pz)
    assert np.array_equal(out.values, field.values)


def test_corrupt_exact_l2_error_with_bump(small_presets):
    from debias_lab.grid import l2_nuisance_distance

    pre = small_presets[est.ATE]
    zs = est.z_space(est.ATE, pre.anchor.space)
    pz = est.z_marginal(pre.anchor, pre.spec)
    part = equal_blocks(pre.anchor.space.axes[0], 4)
    field = NuisanceField(zs, pre.gamma, "gamma")
    spec = dr.CorruptionSpec(0.13, bump(part, [1, -1])[:, None])
    out = dr.corrupt_nuisance(field, spec, pz)
    assert abs(l2_nuisance_distance(out.values, field.values, pz) - 0.13) <= 1e-10


def test_corrupt_range_violation_reports_achievable():
    from debias_lab.grid import GridSpace, continuous, uniform_density

    zs = GridSpace((continuous("z1", 8),))
    pz = uniform_density(zs)
    field = NuisanceField(zs, np.full(8, 0.95), "propensity", bounds=(0.05, 0.95))
    with pytest.raises(ClippedCorruptionError) as err:
        dr.corrupt_nuisance(field, dr.CorruptionSpec(0.2, np.ones(8)), pz)
    assert err.value.achievable == pytest.approx(0.0, abs=1e-12)


def test_corruption_directions_alignment():
    from debias_lab.grid import GridSpace, continuous

    zs = GridSpace((continuous("z1", 16),))
    g1, a1 = dr.corruption_directions(zs, "adversarial", seed=3)
    assert np.array_equal(g1, a1)
    ref = np.linspace(-1, 1, 16)
    g2, a2 = dr.corruption_directions(zs, "adversarial", seed=3, riesz_weight=ref)
    assert np.array_equal(g2, ref) and np.array_equal(a2, ref)
    g3, a3 = dr.corruption_directions(zs, "random", seed=3)
    assert not np.array_equal(g3, a3)


@pytest.mark.parametrize("make, named", [
    (lambda zs: dr.corruption_directions(zs, "bogus"),
     "alignment must be 'adversarial' or 'random', not 'bogus'"),
    (lambda zs: dr.CorruptionSpec(0.1, np.ones(16), "bogus"),
     "alignment must be 'adversarial' or 'random'"),
    (lambda zs: dr.CorruptionSpec(-0.1, np.ones(16)), "corruption eps must be nonnegative"),
])
def test_corruption_refuses_a_bad_alignment_or_a_negative_eps(make, named):
    """corruption_directions(zs, "bogus") drew two independent random bumps."""
    from debias_lab.grid import GridSpace, continuous

    with pytest.raises(PreconditionError, match=named):
        make(GridSpace((continuous("z1", 16),)))


def test_corrupt_along_a_zero_direction():
    """A zero direction has no unit vector: at eps 0 the field comes back as
    it is, and any eps > 0 is refused."""
    from debias_lab.grid import GridSpace, continuous, uniform_density

    zs = GridSpace((continuous("z1", 8),))
    pz = uniform_density(zs)
    field = NuisanceField(zs, np.full(8, 0.5), "gamma")
    assert dr.corrupt_nuisance(field, dr.CorruptionSpec(0.0, np.zeros(8)), pz) is field
    with pytest.raises(PreconditionError, match="cannot corrupt along a zero direction"):
        dr.corrupt_nuisance(field, dr.CorruptionSpec(0.1, np.zeros(8)), pz)


def _line_field(n=8):
    from debias_lab.grid import GridSpace, continuous, uniform_density

    zs = GridSpace((continuous("z1", n),))
    return NuisanceField(zs, np.full(n, 0.5), "gamma"), uniform_density(zs)


def _with_entry(entry):
    direction = np.ones(8)
    direction[3] = entry
    return direction


@pytest.mark.parametrize("direction, eps", [
    (np.full(8, 1e200), 0.1), (_with_entry(np.nan), 0.1), (_with_entry(np.inf), 0.1),
    (_with_entry(-np.inf), 0.1), (_with_entry(np.nan), 0.0),
], ids=["overflow", "nan-entry", "inf-entry", "minus-inf-entry", "nan-entry-eps-0"])
def test_corrupt_refuses_a_direction_whose_norm_is_not_finite(direction, eps):
    """A 1e200 direction's norm overflowed to inf, so the unit was 0 and the
    truth came back at an asked-for L2 error of 0.1; a NaN or infinite entry
    gave a non-finite field, at eps 0 too."""
    field, pz = _line_field()
    with pytest.raises(PreconditionError, match="norm is (inf|nan), not finite"):
        dr.corrupt_nuisance(field, dr.CorruptionSpec(eps, direction), pz)
    with pytest.raises(PreconditionError, match="norm is (inf|nan), not finite"):
        dr.direction_norm(direction, pz)


def test_corrupt_refuses_a_direction_whose_squares_underflow():
    """A 1e-170 direction is nonzero, but its squares underflow to 0, and it
    was refused as a zero direction."""
    field, pz = _line_field()
    with pytest.raises(PreconditionError, match="squares underflow to 0"):
        dr.corrupt_nuisance(field, dr.CorruptionSpec(0.1, np.full(8, 1e-170)), pz)


@pytest.mark.parametrize("eps", [np.nan, np.inf])
def test_corruption_spec_refuses_a_non_finite_eps(eps):
    """A NaN or infinite eps gave a non-finite field."""
    with pytest.raises(PreconditionError,
                       match=f"corruption eps must be nonnegative and finite, not {eps}"):
        dr.CorruptionSpec(eps, np.ones(8))


@pytest.mark.parametrize("norm", [-1.0, np.nan, np.inf])
def test_corrupt_refuses_a_given_norm_that_is_negative_or_not_finite(norm):
    field, pz = _line_field()
    with pytest.raises(PreconditionError,
                       match=f"a given norm must be finite and >= 0, not {norm}"):
        dr.corrupt_nuisance(field, dr.CorruptionSpec(0.1, np.ones(8)), pz, norm)


def _z_grid(pre):
    zs = est.z_space(pre.spec.kind, pre.anchor.space)
    return zs, est.z_marginal(pre.anchor, pre.spec)


@pytest.mark.parametrize("kind", est.KINDS)
def test_random_bumps_are_compact_read_only_seed_draws(small_presets, kind):
    zs, _ = _z_grid(small_presets[kind])
    n1 = zs.shape[0]
    compact = (n1,) + (1,) * (len(zs.shape) - 1)
    for seed in (0, 3):
        rng = np.random.default_rng(seed)
        draws = [2.0 * rng.integers(0, 2, size=n1) - 1.0 for _ in range(2)]
        g, a = dr.corruption_directions(zs, "random", seed)
        shared, same = dr.corruption_directions(zs, "adversarial", seed)
        assert same is shared
        for direction, draw in ((g, draws[0]), (a, draws[1]), (shared, draws[0])):
            assert direction.shape == compact
            assert not direction.flags.writeable
            assert np.array_equal(direction.ravel(), draw)


@pytest.mark.parametrize("kind", est.KINDS)
def test_corrupt_compact_bump_equals_its_full_grid_copy(small_presets, kind):
    """Bit for bit, against the full-grid copy and the full-grid formula
    truth + eps * (d / sqrt(sum(p_z * d * d) * atom_weight))."""
    pre = small_presets[kind]
    zs, pz = _z_grid(pre)
    bump = dr.corruption_directions(zs, "random", 5)[0]
    full = np.array(np.broadcast_to(bump, zs.shape))
    norm = float(np.sqrt(float(np.sum(pz.values * (full * full)) * zs.atom_weight)))
    for truth, role in ((pre.gamma, "gamma"), (pre.alpha, "alpha")):
        field = NuisanceField(zs, truth, role)
        compact = dr.corrupt_nuisance(field, dr.CorruptionSpec(0.1, bump), pz).values
        expanded = dr.corrupt_nuisance(field, dr.CorruptionSpec(0.1, full), pz).values
        assert compact.shape == zs.shape
        assert np.array_equal(compact, expanded)
        assert np.array_equal(compact, truth + 0.1 * (full / norm))


@pytest.mark.parametrize("kind", est.KINDS)
def test_corrupt_with_a_given_norm_is_bit_equal_to_computing_it(small_presets, kind):
    """A compact random bump and the full-grid Riesz direction, each with its
    direction_norm passed in, corrupt gamma and alpha to the same bits."""
    pre = small_presets[kind]
    zs, pz = _z_grid(pre)
    bump = dr.corruption_directions(zs, "random", 5)[0]
    riesz = dr.corruption_directions(zs, "adversarial", 5, riesz_weight=pre.alpha)[0]
    assert bump.shape == zs.shape[:1] + (1,) * (len(zs.shape) - 1)
    assert riesz.shape == zs.shape
    for direction in (bump, riesz):
        norm = dr.direction_norm(direction, pz)
        for truth, role in ((pre.gamma, "gamma"), (pre.alpha, "alpha")):
            field = NuisanceField(zs, truth, role)
            spec = dr.CorruptionSpec(0.1, direction)
            given = dr.corrupt_nuisance(field, spec, pz, norm=norm).values
            assert np.array_equal(given, dr.corrupt_nuisance(field, spec, pz).values)


def test_corrupt_bounded_propensity_with_a_given_norm_is_bit_equal(small_presets):
    """DR's propensity bump on the X cells: the corrupted field, and the room a
    clipped corruption reports, are the same with the norm passed in."""
    from debias_lab.grid import marginal

    pre = small_presets[est.ATE]
    p_x = marginal(pre.anchor, [0])
    x_grid = est.z_space(est.ATE, pre.anchor.space).subgrid([0])
    direction = dr.corruption_directions(x_grid, "random", 7)[1]
    norm = dr.direction_norm(direction, p_x)
    field = NuisanceField(p_x.space, pre.extras["m_hat"], "propensity", (0.05, 0.95))
    spec = dr.CorruptionSpec(0.05, direction)
    assert np.array_equal(dr.corrupt_nuisance(field, spec, p_x, norm).values,
                          dr.corrupt_nuisance(field, spec, p_x).values)
    rooms = []
    for given in (norm, None):
        with pytest.raises(ClippedCorruptionError) as err:
            dr.corrupt_nuisance(field, dr.CorruptionSpec(1.0, direction), p_x, given)
        rooms.append(err.value.achievable)
    assert rooms[0] == rooms[1]


@pytest.mark.parametrize("kind", est.KINDS)
def test_corrupt_direction_off_the_grid_raises(small_presets, kind):
    from debias_lab.grid import uniform_density

    zs, pz = _z_grid(small_presets[kind])
    field = NuisanceField(zs, small_presets[kind].gamma, "gamma")
    tail = (1,) * (len(zs.shape) - 1)
    for shape in ((zs.shape[0] + 1,) + tail, (2,) + zs.shape):
        with pytest.raises(DimensionMismatchError):
            dr.corrupt_nuisance(field, dr.CorruptionSpec(0.1, np.ones(shape)), pz)
    other = uniform_density(est.z_space(kind, est.make_space(kind, 16, 8)))
    with pytest.raises(DimensionMismatchError):
        dr.corrupt_nuisance(field, dr.CorruptionSpec(0.1, np.ones(zs.shape[0:1] + tail)),
                            other)


@pytest.mark.parametrize("kind", est.KINDS)
def test_corrupt_bounded_compact_bump_reports_the_same_achievable(small_presets, kind):
    pre = small_presets[kind]
    zs, pz = _z_grid(pre)
    bump = dr.corruption_directions(zs, "random", 2)[1]
    full = np.array(np.broadcast_to(bump, zs.shape))
    lo, hi = pre.gamma.min() - 0.01, pre.gamma.max() + 0.01
    field = NuisanceField(zs, pre.gamma, "gamma", bounds=(lo, hi))
    achievable = []
    for direction in (bump, full):
        with pytest.raises(ClippedCorruptionError) as err:
            dr.corrupt_nuisance(field, dr.CorruptionSpec(1.0, direction), pz)
        achievable.append(err.value.achievable)
    unit = full / np.sqrt(np.sum(pz.values * (full * full)) * zs.atom_weight)
    room = np.where(unit > 0, (hi - pre.gamma) / unit, (lo - pre.gamma) / unit)
    assert achievable == [float(room.min())] * 2


# -----------------------------------------------------------------------------
# sampled estimators
# -----------------------------------------------------------------------------

def test_plugin_constant_fields_data_independent(small_presets):
    pre = small_presets[est.ATE]
    gamma_hat = np.tile(np.array([0.2, 0.7]), (32, 1))
    for seed in (0, 1):
        data = sample(pre.anchor, 500, seed)
        assert dr.plugin_estimate(data, gamma_hat, pre.spec) == pytest.approx(0.5)


def test_plugin_ds_is_quadrature_value(small_presets):
    pre = small_presets[est.DS]
    rng = np.random.default_rng(0)
    gamma_hat = rng.uniform(0.2, 0.8, size=32)
    expected = est.m1_population(pre.anchor, pre.spec, gamma_hat)
    for seed in (0, 5):
        data = sample(pre.anchor, 100, seed)
        assert dr.plugin_estimate(data, gamma_hat, pre.spec) == pytest.approx(expected)


def test_plugin_bias_first_order_in_eps(small_presets):
    pre = small_presets[est.ATE]
    zs = est.z_space(est.ATE, pre.anchor.space)
    pz = est.z_marginal(pre.anchor, pre.spec)
    field = NuisanceField(zs, pre.gamma, "gamma")
    direction = np.ones(zs.shape) * np.sign(pre.alpha)
    biases = []
    for eps in (0.05, 0.1):
        gh = dr.corrupt_nuisance(field, dr.CorruptionSpec(eps, direction), pz).values
        biases.append(abs(dr.population_plugin(pre.anchor, gh, pre.spec) - pre.oracle))
    assert biases[1] == pytest.approx(2.0 * biases[0], rel=1e-10)


@pytest.mark.parametrize("kind", est.KINDS)
def test_score_table_is_the_per_atom_score(kind, small_presets):
    """psi = offset + sign * (m1 + alpha * rho) at every atom, bit for bit,
    with the ecc_plm offset t*y and the logistic rho of lod; the plug-in
    table drops the alpha * rho term.  The table is read-only."""
    pre = small_presets[kind]
    spec, space = pre.spec, pre.anchor.space
    gamma_hat, alpha_hat = random_fields(kind, pre.gamma.shape, 11)
    t = est.KIND_TABLE[kind].target_axis
    outcome = space.coords(t).reshape([-1 if a == t else 1 for a in range(len(space.shape))])
    m1 = np.broadcast_to(est.m1_atoms(spec, space, gamma_hat), space.shape)
    rho = est.score_rho(spec, outcome, est.z_to_grid(spec, space, gamma_hat))
    alpha = est.z_to_grid(spec, space, alpha_hat)
    offset, sign = FACTS[kind].offset(space), FACTS[kind].sign
    for fields, expected in (((gamma_hat, alpha_hat), offset + sign * (m1 + alpha * rho)),
                             ((gamma_hat,), offset + sign * m1)):
        table = dr.score_table(spec, space, *fields)
        assert table.shape == (space.n_atoms,)
        assert (table == expected.ravel()).all()
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0


def _cold(fn, monkeypatch):
    """fn() with no kept score table."""
    monkeypatch.setattr(dr, "_last_table", None)
    return fn()


@pytest.mark.parametrize("kind", est.KINDS)
def test_score_table_is_never_stale(kind, small_presets, monkeypatch):
    """Fields edited in place between calls, or two field pairs in turn, give
    the bits of a computation with no kept table."""
    pre = small_presets[kind]
    spec, space = pre.spec, pre.anchor.space
    data = sample(pre.anchor, 3000, seed=4)
    gamma_hat, alpha_hat = random_fields(kind, pre.gamma.shape, 21)
    before = dr.dml_estimate(data, gamma_hat, alpha_hat, spec)
    gamma_hat[0] += 0.01
    after = dr.dml_estimate(data, gamma_hat, alpha_hat, spec)
    assert after != before
    assert after == _cold(lambda: dr.dml_estimate(data, gamma_hat.copy(), alpha_hat, spec),
                          monkeypatch)
    alpha_hat[-1] -= 0.5
    table = dr.score_table(spec, space, gamma_hat, alpha_hat)
    assert (table == _cold(lambda: dr.score_table(spec, space, gamma_hat, alpha_hat.copy()),
                           monkeypatch)).all()

    pairs = [random_fields(kind, pre.gamma.shape, seed) for seed in (31, 32)]
    cold = [_cold(lambda g=g, a=a: dr.dml_estimate(data, g, a, spec), monkeypatch)
            for g, a in pairs]
    cold_plugin = [_cold(lambda g=g: dr.plugin_estimate(data, g, spec), monkeypatch)
                   for g, _ in pairs]
    for turn in range(4):
        g, a = pairs[turn % 2]
        assert dr.dml_estimate(data, g, a, spec) == cold[turn % 2]
        assert dr.plugin_estimate(data, g, spec) == cold_plugin[turn % 2]


def test_score_table_is_shared_by_equal_fields(small_presets):
    """Equal fields in new arrays (DR rebuilds its alpha on every call) reuse
    the kept table; so does a field given as a list."""
    pre = small_presets[est.ATE]
    spec, space = pre.spec, pre.anchor.space
    gamma_hat, alpha_hat = random_fields(est.ATE, pre.gamma.shape, 41)
    table = dr.score_table(spec, space, gamma_hat, alpha_hat)
    assert dr.score_table(spec, space, gamma_hat.copy(), alpha_hat.copy()) is table
    assert dr.score_table(spec, space, gamma_hat.tolist(), alpha_hat) is table
    assert dr.score_table(spec, space, gamma_hat) is not table


def test_empty_dataset_errors(small_presets):
    pre = small_presets[est.ATE]
    empty = Dataset(pre.anchor.space,
                    np.zeros(pre.anchor.space.n_atoms, dtype=np.int64))
    with pytest.raises(EmptyDataError):
        dr.plugin_estimate(empty, pre.gamma, pre.spec)
    with pytest.raises(EmptyDataError):
        dr.dml_estimate(empty, pre.gamma, pre.alpha, pre.spec)
    with pytest.raises(EmptyDataError):
        dr.dr_ate_estimate(empty, pre.extras.get("g_hat", pre.gamma),
                           np.full(32, 0.5))


@pytest.mark.parametrize("clip", [0.6, 0.5, 0.0, -0.1, np.nan])
def test_propensity_clip_outside_the_open_half_interval_is_refused(clip):
    """Clip 0.6 set every propensity to 0.4 (np.clip(m, 0.6, 0.4)), clip 0 gave
    a zero propensity an infinite weight, and a NaN clip a NaN weight."""
    pre = preset(est.ATE, x_cells=8)
    data = sample(pre.anchor, 100, seed=0)
    g_hat, m_hat = pre.extras["g_hat"], pre.extras["m_hat"]
    named = re.escape(f"the propensity clip must lie in (0, 1/2), not {clip!r}")
    for call in (lambda: dr.ate_alpha_from_propensity(m_hat, clip),
                 lambda: dr.dr_ate_estimate(data, g_hat, m_hat, clip),
                 lambda: dr.population_dr_ate(pre.anchor, g_hat, m_hat, clip)):
        with pytest.raises(PreconditionError, match=named):
            call()


def test_dr_concentrates_with_exact_nuisances():
    pre = preset(est.ATE, x_cells=256)
    data = sample(pre.anchor, 100_000, seed=1)
    point = dr.dr_ate_estimate(data, pre.extras["g_hat"], pre.extras["m_hat"])
    assert abs(point - pre.oracle) <= 0.02


def test_dr_equals_dml_on_ate():
    pre = preset(est.ATE, x_cells=64)
    rng = np.random.default_rng(2)
    g_hat = np.clip(pre.extras["g_hat"] + 0.1 * rng.standard_normal((64, 2)),
                    0.05, 0.95)
    m_hat = np.clip(pre.extras["m_hat"] + 0.1 * rng.standard_normal(64),
                    0.05, 0.95)
    alpha_hat = dr.ate_alpha_from_propensity(m_hat, clip=0.05)
    for seed in (0, 1, 2):
        data = sample(pre.anchor, 4000, seed)
        a = dr.dr_ate_estimate(data, g_hat, m_hat, clip=0.05)
        b = dr.dml_estimate(data, g_hat, alpha_hat, pre.spec)
        assert abs(a - b) <= 1e-12


def test_sampled_dml_at_n_1e12():
    """A count vector makes n = 1e12 cheap; the error stays within 5 standard
    errors, the variance taken exactly from the per-atom score table."""
    pre = preset(est.ATE, x_cells=64)
    space, n = pre.anchor.space, 10 ** 12
    data = sample(pre.anchor, n, seed=0)
    assert data.n == n and data.counts.shape == (space.n_atoms,)
    alpha_at = est.z_to_grid(pre.spec, space, pre.alpha).ravel()
    psi = (est.m1_rows(pre.spec, space, pre.gamma)
           + alpha_at * est.rho_rows(pre.spec, space, pre.gamma))
    prob = pre.anchor.values.ravel() * space.atom_weight
    assert abs(prob @ psi - pre.oracle) <= 1e-12
    stderr = np.sqrt(prob @ (psi - pre.oracle) ** 2 / n)
    point = dr.dml_estimate(data, pre.gamma, pre.alpha, pre.spec)
    assert abs(point - pre.oracle) <= 5.0 * stderr


@pytest.mark.parametrize("kind", est.KINDS)
def test_dml_exact_nuisances_unbiased(kind, small_presets):
    pre = small_presets[kind]
    # population version is exactly chi
    assert abs(dr.population_dml(pre.anchor, pre.gamma, pre.alpha, pre.spec)
               - pre.oracle) <= 1e-12
    # sampled version is within a few sigma of chi
    data = sample(pre.anchor, 40_000, seed=8)
    point = dr.dml_estimate(data, pre.gamma, pre.alpha, pre.spec)
    assert abs(point - pre.oracle) <= 0.1


def test_dml_corrupted_bias_bounded_at_large_n():
    pre = preset(est.ATE, x_cells=64)
    zs = est.z_space(est.ATE, pre.anchor.space)
    pz = est.z_marginal(pre.anchor, pre.spec)
    eps_g, eps_a = 0.1, 0.15
    dir_g, dir_a = dr.corruption_directions(zs, "adversarial", 0,
                                            riesz_weight=pre.alpha)
    gh = dr.corrupt_nuisance(NuisanceField(zs, pre.gamma, "gamma"),
                             dr.CorruptionSpec(eps_g, dir_g), pz).values
    ah = dr.corrupt_nuisance(NuisanceField(zs, pre.alpha, "alpha"),
                             dr.CorruptionSpec(eps_a, dir_a), pz).values
    data = sample(pre.anchor, 1_000_000, seed=3)
    point = dr.dml_estimate(data, gh, ah, pre.spec)
    assert abs(point - pre.oracle) <= 2 * eps_g * eps_a + 5e-3


# -----------------------------------------------------------------------------
# population-level identities
# -----------------------------------------------------------------------------

def test_population_double_robustness():
    pre = preset(est.ATE, x_cells=64)
    rng = np.random.default_rng(5)
    wrong_g = np.clip(pre.extras["g_hat"] + 0.2 * rng.standard_normal((64, 2)),
                      0.05, 0.95)
    wrong_m = np.clip(pre.extras["m_hat"] + 0.2 * rng.standard_normal(64),
                      0.05, 0.95)
    assert abs(dr.population_dr_ate(pre.anchor, pre.extras["g_hat"], wrong_m)
               - pre.oracle) <= 1e-10
    assert abs(dr.population_dr_ate(pre.anchor, wrong_g, pre.extras["m_hat"])
               - pre.oracle) <= 1e-10


@pytest.mark.parametrize("kind", AFFINE_KINDS)
def test_population_one_exact_nuisance_kills_dml_bias(kind, small_presets):
    pre = small_presets[kind]
    rng = np.random.default_rng(6)
    zs = est.z_space(kind, pre.anchor.space)
    wrong = 0.3 * rng.standard_normal(zs.shape)
    assert abs(dr.population_dml(pre.anchor, pre.gamma, pre.alpha + wrong,
                                 pre.spec) - pre.oracle) <= 1e-10
    assert abs(dr.population_dml(pre.anchor, pre.gamma + wrong, pre.alpha,
                                 pre.spec) - pre.oracle) <= 1e-10


@pytest.mark.parametrize("kind", AFFINE_KINDS)
def test_population_bias_factorization(kind, small_presets):
    pre = small_presets[kind]
    rng = np.random.default_rng(7)
    zs = est.z_space(kind, pre.anchor.space)
    gh = pre.gamma + 0.15 * rng.standard_normal(zs.shape)
    ah = pre.alpha + 0.2 * rng.standard_normal(zs.shape)
    bias = dr.population_dml(pre.anchor, gh, ah, pre.spec) - pre.oracle
    ref = dr.bias_product_reference(pre.anchor, pre.spec, gh, ah)
    assert abs(bias - ref) <= 1e-10


def test_bias_product_reference_rejects_lod(small_presets):
    pre = small_presets[est.LOD]
    with pytest.raises(PreconditionError):
        dr.bias_product_reference(pre.anchor, pre.spec, pre.gamma, pre.alpha)


def test_lod_curvature_bias_quadratic_floor():
    pre = preset(est.LOD, x_cells=64)
    zs = est.z_space(est.LOD, pre.anchor.space)
    pz = est.z_marginal(pre.anchor, pre.spec)
    # curvature-aligned corruption: a +-1 bump on the treated slice
    direction = np.zeros(zs.shape)
    sign = np.ones(64)
    sign[32:] = -1.0
    direction[:, 1] = sign
    ratios = []
    for eps in (0.02, 0.04, 0.08):
        gh = dr.corrupt_nuisance(NuisanceField(zs, pre.gamma, "gamma"),
                                 dr.CorruptionSpec(eps, direction), pz).values
        bias = dr.population_dml(pre.anchor, gh, pre.alpha, pre.spec) - pre.oracle
        ratios.append(abs(bias) / eps ** 2)
    assert min(ratios) >= 0.1  # bias/eps^2 bounded away from zero


# -----------------------------------------------------------------------------
# the toy learner
# -----------------------------------------------------------------------------

def test_binned_learner_constant_truth():
    pre = preset(est.ATE, x_cells=32)
    space = pre.anchor.space
    anchor = est.ate_joint(space, np.full(32, 0.5), np.full((32, 2), 0.73))
    data = sample(anchor, 40_000, seed=0)
    field = dr.binned_learner(data, pre.spec, bins=4)
    assert field.shape == (32, 2)
    assert np.max(np.abs(field - 0.73)) <= 0.02


def test_binned_learner_empty_bin_falls_back_to_global_mean():
    pre = preset(est.ATE, x_cells=32)
    space = pre.anchor.space
    # all mass on one atom (first X cell): every other bin is empty
    vals = np.zeros(space.shape)
    vals[0, 1, 1] = 1.0 / space.atom_weight
    p = Density(space, vals)
    data = sample(p, 100, seed=0)
    field = dr.binned_learner(data, pre.spec, bins=4)
    assert np.allclose(field[8:], 1.0)  # global mean of Y is 1


def test_binned_learner_error_shrinks_with_n():
    pre = preset(est.ATE, x_cells=32)
    from debias_lab.grid import l2_nuisance_distance

    pz = est.z_marginal(pre.anchor, pre.spec)
    errs = []
    for n in (2_000, 200_000):
        data = sample(pre.anchor, n, seed=1)
        field = dr.binned_learner(data, pre.spec, bins=8)
        errs.append(l2_nuisance_distance(field, pre.gamma, pz))
    assert errs[1] < errs[0]
    # bias floor: the binned model cannot drive the error to zero
    assert errs[1] > 1e-3


def test_binned_learner_bins_must_divide():
    pre = preset(est.ATE, x_cells=32)
    data = sample(pre.anchor, 100, seed=0)
    with pytest.raises(PreconditionError):
        dr.binned_learner(data, pre.spec, bins=5)


@pytest.mark.parametrize("bins", [2.0, 2.5, np.float64(4.0), "4"])
def test_binned_learner_refuses_a_non_integer_bin_count(bins):
    """bins = 2.0 passed the divisibility check and ended in a bare TypeError."""
    pre = preset(est.ATE, x_cells=32)
    data = sample(pre.anchor, 100, seed=0)
    with pytest.raises(PreconditionError,
                       match=re.escape(f"bin count must be an integer, got {bins!r}")):
        dr.binned_learner(data, pre.spec, bins=bins)


def test_binned_learner_accepts_a_numpy_integer_bin_count():
    pre = preset(est.ATE, x_cells=32)
    data = sample(pre.anchor, 1000, seed=0)
    assert (dr.binned_learner(data, pre.spec, np.int64(4)).tobytes()
            == dr.binned_learner(data, pre.spec, 4).tobytes())


@pytest.mark.parametrize("kind", est.KINDS)
def test_binned_learner_is_the_target_mean_on_the_z_grid(kind, small_presets):
    """On counts proportional to an anchor, the learner at one Z1 cell per bin
    is the anchor's regression_target_mean; at any bin count it lives on the Z
    grid.  It used to regress axis 2 whatever the kind: T on (X, Y) for
    ecc_plm, where gamma lives on X alone."""
    spec, space = small_presets[kind].spec, small_presets[kind].anchor.space
    counts = np.random.default_rng(5).integers(1, 20, space.n_atoms)
    anchor = Density(space, counts.reshape(space.shape) / (counts.sum() * space.atom_weight))
    data = Dataset(space, counts)
    zs = est.z_space(kind, space)
    assert dr.binned_learner(data, spec, 4).shape == zs.shape
    field = dr.binned_learner(data, spec, zs.shape[0])
    assert field.shape == zs.shape
    assert np.max(np.abs(field - est.regression_target_mean(anchor, spec))) <= 1e-12


def test_binned_learner_refuses_another_kinds_grid(small_presets):
    data = sample(small_presets[est.ATE].anchor, 100, seed=0)
    with pytest.raises(DimensionMismatchError, match="wad"):
        dr.binned_learner(data, small_presets[est.WAD].spec, 4)
