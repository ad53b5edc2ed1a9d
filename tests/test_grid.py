import re

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from debias_lab.errors import (
    DegenerateSliceError,
    DimensionMismatchError,
    InfeasibleRadiusError,
    PreconditionError,
)
from debias_lab.estimands import make_space
from debias_lab.grid import (
    Axis,
    Dataset,
    Density,
    GridSpace,
    SignedDensity,
    _w_product,
    _w_sum,
    add_scaled,
    binary,
    conditional,
    continuous,
    ess_sup_distance,
    feasible_radius,
    hellinger_sq,
    integrate,
    l2_nuisance_distance,
    marginal,
    point_mass,
    sample,
    uniform_density,
)


def two_point_space():
    return GridSpace((binary("w"),))


def test_atom_weights_product_rule():
    space = GridSpace((continuous("z1", 8), binary("z2"), binary("w")))
    assert space.atom_weight == pytest.approx(1.0 / 8)
    # total base-measure mass is 1 per continuous axis times 2 per binary axis
    assert space.n_atoms * space.atom_weight == pytest.approx(4.0)


def test_integrate_uniform_normalization():
    space = GridSpace((binary("z1"), binary("w")))
    p = uniform_density(space)
    assert integrate(p, np.ones(space.shape)) == pytest.approx(1.0)


def test_integrate_signed_zero_mass():
    h = SignedDensity(two_point_space(), np.array([1.0, -1.0]))
    assert integrate(h, np.ones(2)) == 0.0


def test_integrate_midpoint_quadrature_exact():
    # int_0^1 x dx on 4 cells: (0.125 + 0.375 + 0.625 + 0.875) / 4 exactly
    space = GridSpace((continuous("z1", 4),))
    p = uniform_density(space)
    assert integrate(p, space.coords(0)) == pytest.approx(0.5, abs=0)


def test_integrate_z1_field_matches_its_full_grid_copy():
    space = GridSpace((continuous("z1", 8), binary("z2"), binary("w")))
    rng = np.random.default_rng(4)
    raw = rng.uniform(0.5, 1.5, space.shape)
    p = Density(space, raw / (raw.sum() * space.atom_weight))
    f = rng.standard_normal((8, 1, 1))
    assert integrate(p, f) == integrate(p, np.broadcast_to(f, space.shape).copy())
    assert integrate(p, 2.5) == integrate(p, np.full(space.shape, 2.5))


def test_integrate_dimension_mismatch():
    p = uniform_density(two_point_space())
    with pytest.raises(DimensionMismatchError):
        integrate(p, np.ones(3))


def test_integrate_refuses_a_field_that_broadcasts_the_density_up():
    """A field with more atoms than the grid, such as a stack of two fields,
    is refused rather than summed over both."""
    space = GridSpace((continuous("z1", 4), binary("w")))
    p = uniform_density(space)
    for field in (np.ones((2, *space.shape)), np.ones((2, 4, 1)), np.ones((1, 4, 2))):
        with pytest.raises(DimensionMismatchError, match="does not broadcast"):
            integrate(p, field)


def test_add_scaled_linear_arithmetic():
    p = uniform_density(two_point_space())
    h = SignedDensity(two_point_space(), np.array([0.5, -0.5]))
    out = add_scaled(p, 0.5, h)
    assert np.allclose(out.values, [0.75, 0.25], atol=0)


def test_add_scaled_infeasible_reports_radius():
    p = uniform_density(two_point_space())
    h = SignedDensity(two_point_space(), np.array([0.5, -0.5]))
    with pytest.raises(InfeasibleRadiusError) as err:
        add_scaled(p, 2.0, h)
    assert err.value.radius == pytest.approx(1.0)


def test_add_scaled_identity_at_zero():
    p = uniform_density(two_point_space())
    h = SignedDensity(two_point_space(), np.array([0.5, -0.5]))
    assert np.array_equal(add_scaled(p, 0.0, h).values, p.values)


def test_add_scaled_round_trip_is_stable():
    rng = np.random.default_rng(0)
    space = GridSpace((continuous("z1", 16), binary("w")))
    vals = rng.uniform(0.2, 1.0, size=space.shape)
    vals /= vals.sum() * space.atom_weight
    p = Density(space, vals)
    h_raw = rng.standard_normal(space.shape)
    h_raw -= h_raw.mean()
    h = SignedDensity(space, h_raw)
    t = 0.25 * feasible_radius(p, h)
    back = add_scaled(add_scaled(p, t, h), -t, h)
    assert np.max(np.abs(back.values - p.values)) < 1e-14


def test_feasible_radius_cases():
    p = uniform_density(two_point_space())
    h = SignedDensity(two_point_space(), np.array([0.5, -0.5]))
    assert feasible_radius(p, h) == pytest.approx(1.0)
    zero = SignedDensity(two_point_space(), np.zeros(2))
    assert feasible_radius(p, zero) == np.inf
    boundary = Density(two_point_space(), np.array([0.0, 1.0]))
    assert feasible_radius(boundary, h) == 0.0


def test_marginal_product_factorization():
    space = GridSpace((continuous("z1", 8), binary("w")))
    q = 0.4 + 0.2 * space.coords(0)
    r = np.array([0.3, 0.7])
    q_norm = q / (q.sum() / 8)
    p = Density(space, q_norm[:, None] * r[None, :])
    marg = marginal(p, [0])
    assert np.allclose(marg.values, q_norm, atol=1e-15)


def test_marginal_onto_treatment():
    from debias_lab import estimands as est

    space = est.make_space(est.ATE, x_cells=16)
    p = est.ate_joint(space, np.full(16, 0.3), np.full((16, 2), 0.5))
    marg = marginal(p, [1])
    assert np.allclose(marg.values, [0.7, 0.3], atol=1e-15)


def test_density_values_are_a_read_only_copy():
    raw = np.array([0.25, 0.75])
    p = Density(two_point_space(), raw)
    with pytest.raises(ValueError):
        p.values[0] = 0.5
    raw[0] = 0.5  # the caller's array stays writeable and is not shared
    assert p.values[0] == 0.25


def test_marginal_is_computed_once_per_density():
    space = GridSpace((continuous("z1", 4), binary("w")))
    p = uniform_density(space)
    assert marginal(p, [0]) is marginal(p, (0,))
    assert marginal(p, [1]) is marginal(p, [1])
    assert marginal(p, [1]) is not marginal(p, [0])
    fresh = Density(space, np.array(p.values))
    assert marginal(fresh, [0]) is not marginal(p, [0])
    assert np.array_equal(marginal(fresh, [0]).values, marginal(p, [0]).values)


def test_grid_geometry_is_cached_and_equality_stays_on_axes():
    a = GridSpace((continuous("z1", 4), binary("w")))
    b = GridSpace((continuous("z1", 4), binary("w")))
    assert (a.shape, a.n_atoms, a.atom_weight) == ((4, 2), 8, 0.25)
    assert a.shape is a.shape
    assert a == b and hash(a) == hash(b)  # b has computed no geometry yet


def test_conditional_of_uniform_is_uniform():
    space = GridSpace((continuous("z1", 4), binary("w")))
    p = uniform_density(space)
    cond = conditional(p, {0: 2})
    assert np.allclose(cond.values, uniform_density(cond.space).values)


def test_conditional_times_marginal_reconstructs():
    rng = np.random.default_rng(1)
    space = GridSpace((continuous("z1", 6), binary("z2"), binary("w")))
    vals = rng.uniform(0.1, 1.0, size=space.shape)
    vals /= vals.sum() * space.atom_weight
    p = Density(space, vals)
    marg = marginal(p, [0, 1])
    for i in range(6):
        for d in range(2):
            cond = conditional(p, {0: i, 1: d})
            recon = cond.values * marg.values[i, d]
            assert np.max(np.abs(recon - p.values[i, d, :])) < 1e-12


def test_conditional_zero_mass_slice():
    space = GridSpace((binary("z1"), binary("w")))
    p = Density(space, np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DegenerateSliceError):
        conditional(p, {0: 1})


@pytest.mark.parametrize("cell", [-1, 4, 99])
def test_conditional_refuses_a_cell_outside_the_axis(cell):
    """A negative cell is not read from the end, and a cell past the axis is
    a typed refusal, not numpy's IndexError."""
    p = uniform_density(GridSpace((continuous("z1", 4), binary("w"))))
    with pytest.raises(PreconditionError, match=f"cell {cell} is outside axis 0"):
        conditional(p, {0: cell})


@pytest.mark.parametrize("fixed, named", [
    ({0: 1.5}, "the cell on axis 0 must be an integer, got 1.5"),
    ({0: 1.0}, "the cell on axis 0 must be an integer, got 1.0"),
    ({0: "1"}, "the cell on axis 0 must be an integer, got '1'"),
    ({0.5: 1}, "a conditioning axis must be an integer, got 0.5"),
    ({np.float64(0.0): 1}, "a conditioning axis must be an integer, got np.float64(0.0)"),
])
def test_conditional_refuses_a_non_integer_axis_or_cell(fixed, named):
    """A fractional cell is not truncated to the cell below, and a float
    axis is a typed refusal naming it, not a bare TypeError."""
    p = uniform_density(GridSpace((continuous("z1", 4), binary("w"))))
    with pytest.raises(PreconditionError, match=re.escape(named)):
        conditional(p, fixed)


def test_conditional_accepts_numpy_integers():
    space = GridSpace((continuous("z1", 4), binary("w")))
    vals = np.array([[1.0, 3.0], [0.5, 1.5], [2.0, 2.0], [1.0, 1.0]])
    p = Density(space, vals / (vals.sum() * space.atom_weight))
    expected = conditional(p, {0: 1}).values
    assert conditional(p, {np.int64(0): np.int32(1)}).values.tobytes() == expected.tobytes()


def test_sample_point_mass():
    space = GridSpace((continuous("z1", 4), binary("w")))
    p = point_mass(space, 5)
    data = sample(p, 50, seed=3)
    assert data.counts[5] == data.n == 50


def test_sample_frequency_concentrates():
    p = uniform_density(two_point_space())
    data = sample(p, 1_000_000, seed=0)
    freq = data.counts[0] / data.n
    assert 0.498 <= freq <= 0.502


def test_sample_deterministic_and_empty():
    p = uniform_density(two_point_space())
    a = sample(p, 100, seed=11)
    b = sample(p, 100, seed=11)
    assert np.array_equal(a.counts, b.counts)
    assert sample(p, 0, seed=1).n == 0


def test_sample_rejects_negative_n():
    p = uniform_density(two_point_space())
    with pytest.raises(PreconditionError, match="n must be >= 0"):
        sample(p, -5, seed=0)


def test_sample_rejects_n_beyond_int64():
    p = uniform_density(two_point_space())
    with pytest.raises(PreconditionError, match="int64 limit"):
        sample(p, 2 ** 63, seed=0)
    assert sample(p, 2 ** 63 - 1, seed=0).counts.sum() == 2 ** 63 - 1


@pytest.mark.parametrize("make, named", [
    (lambda: Axis("continuous", "z1", 8.5), "axis cell count must be an integer, got 8.5"),
    (lambda: Axis("binary", "w", 2.0), "axis cell count must be an integer, got 2.0"),
    (lambda: continuous("z1", "8"), "axis cell count must be an integer, got '8'"),
    (lambda: make_space("ate", x_cells=8.0), "axis cell count must be an integer, got 8.0"),
    (lambda: sample(uniform_density(two_point_space()), 10.5, 0),
     "sample size n must be an integer, got 10.5"),
    (lambda: sample(uniform_density(two_point_space()), np.float64(10.0), 0),
     "sample size n must be an integer, got np.float64(10.0)"),
])
def test_counts_refuse_non_integers(make, named):
    """A fractional count is not truncated (8.5 cells made 9 midpoints, and
    n = 10.5 drew 10), and a whole float is refused like any other."""
    with pytest.raises(PreconditionError, match=re.escape(named)):
        make()


def test_counts_accept_numpy_integers():
    axis = continuous("z1", np.int64(8))
    assert type(axis.cells) is int and axis == continuous("z1", 8)
    p = uniform_density(GridSpace((axis, binary("w"))))
    assert sample(p, np.int32(50), 3).counts.tobytes() == sample(p, 50, 3).counts.tobytes()


def test_hellinger_basic_values():
    half = Density(two_point_space(), np.array([0.5, 0.5]))
    sure = Density(two_point_space(), np.array([0.0, 1.0]))
    assert hellinger_sq(half, half) == 0.0
    assert hellinger_sq(half, sure) == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-15)
    other = Density(two_point_space(), np.array([1.0, 0.0]))
    assert hellinger_sq(sure, other) == pytest.approx(2.0)


def test_hellinger_symmetry_and_bounds():
    rng = np.random.default_rng(5)
    space = GridSpace((continuous("z1", 12), binary("w")))
    for _ in range(20):
        a = rng.uniform(0.01, 1.0, size=space.shape)
        b = rng.uniform(0.01, 1.0, size=space.shape)
        a /= a.sum() * space.atom_weight
        b /= b.sum() * space.atom_weight
        pa, pb = Density(space, a), Density(space, b)
        h = hellinger_sq(pa, pb)
        assert h == pytest.approx(hellinger_sq(pb, pa), abs=0)
        assert 0.0 <= h <= 2.0
    assert hellinger_sq(pa, pa) == 0.0


def test_l2_nuisance_distance():
    space = GridSpace((continuous("z1", 8),))
    p_z = uniform_density(space)
    f = np.linspace(0, 1, 8)
    assert l2_nuisance_distance(f, f, p_z) == 0.0
    assert l2_nuisance_distance(f, f - 0.3, p_z) == pytest.approx(0.3)
    delta = np.ones(8)
    delta[4:] = -1.0
    assert l2_nuisance_distance(f + 0.17 * delta, f, p_z) == pytest.approx(0.17)


def test_mass_invariants_enforced():
    space = two_point_space()
    with pytest.raises(PreconditionError):
        Density(space, np.array([0.6, 0.6]))
    with pytest.raises(PreconditionError):
        SignedDensity(space, np.array([0.5, 0.1]))
    with pytest.raises(PreconditionError):
        Density(space, np.array([1.5, -0.5]))


def test_ess_sup_distance():
    a = Density(two_point_space(), np.array([0.5, 0.5]))
    b = Density(two_point_space(), np.array([0.3, 0.7]))
    assert ess_sup_distance(a, b) == pytest.approx(0.2)


def test_array_value_objects_compare_by_value_and_refuse_hashing():
    space = GridSpace((continuous("z1", 4), binary("w")))
    other_space = GridSpace((continuous("z1", 8),))
    p = uniform_density(space)
    q = Density(space, np.array(p.values))
    marginal(p, [0])  # fills p's memo only: the memo is not compared
    bumped = np.array(p.values)
    bumped[0] = [0.25, 0.75]
    assert p == q and not p != q
    assert p != Density(space, bumped)
    assert p != uniform_density(other_space)
    assert p != "density"

    d = SignedDensity(space, np.array([[1.0, -1.0]] * 4))
    assert d == SignedDensity(space, np.array(d.values))
    assert d != SignedDensity(space, -d.values)
    assert d != p  # a signed density never equals a density

    counts = np.arange(8)
    assert Dataset(space, counts) == Dataset(space, counts.copy())
    assert Dataset(space, counts) != Dataset(space, counts[::-1].copy())

    for obj in (p, d, Dataset(space, counts)):
        with pytest.raises(TypeError):
            hash(obj)


# -----------------------------------------------------------------------------
# the W-axis kernels: the bytes numpy gives
# -----------------------------------------------------------------------------

# signed zeros, subnormals and ordinary values of both signs
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308]),
    st.floats(-1e3, 1e3, allow_nan=False))
LEADING = st.lists(st.integers(2, 5), min_size=0, max_size=3).map(tuple)
KERNEL = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def grid_arrays(leading, elements=EDGE_FLOATS):
    return hnp.arrays(np.float64, leading + (2,), elements=elements)


@KERNEL
@given(LEADING.flatmap(grid_arrays))
@example(np.array([[-0.0, -0.0], [-0.0, 5e-324], [0.0, -0.0]]))  # numpy's sum gives +0.0
def test_w_sum_is_numpys_trailing_sum(values):
    assert _w_sum(values).tobytes() == values.sum(axis=-1).tobytes()
    assert _w_sum(values, (values.ndim - 1,)).tobytes() == values.sum(axis=-1).tobytes()
    # a strided view of the same values, as the estimand layer passes them
    view = np.concatenate([values, values], axis=-1)[..., 1:3]
    assert _w_sum(view).tobytes() == view.sum(axis=-1).tobytes()
    if values.ndim > 1:  # any other axis set is numpy's own sum
        assert _w_sum(values, (0,)).tobytes() == values.sum(axis=0).tobytes()


@KERNEL
@given(LEADING.flatmap(lambda leading: st.tuples(
    grid_arrays(leading, st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-310]),
                                   st.floats(0.0, 1e3))),
    hnp.arrays(np.float64, leading + (1,), elements=EDGE_FLOATS),
    grid_arrays(leading))))
def test_integrate_is_the_numpy_quadrature_bit_for_bit(drawn):
    raw, trailing_one, full = drawn
    space = GridSpace(tuple(continuous("z1", n) for n in raw.shape[:-1]) + (binary("w"),))
    assume(raw.sum() >= 1.0)  # a subnormal total times the atom weight is 0
    p = Density(space, raw / (raw.sum() * space.atom_weight))
    for w in (trailing_one, full):
        expected = float(np.sum(p.values * w) * space.atom_weight)
        assert np.float64(integrate(p, w)).tobytes() == np.float64(expected).tobytes()
        assert _w_product(p.values, w).tobytes() == (p.values * w).tobytes()
    assert _w_product(full, trailing_one).tobytes() == (full * trailing_one).tobytes()
    for bad in (np.ones(raw.shape[:-1] + (3,)), np.ones((2,) + raw.shape)):
        with pytest.raises(DimensionMismatchError):
            integrate(p, bad)
