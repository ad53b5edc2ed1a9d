"""The acceptance gate: one test per criterion, at its stated tolerance.

Every test prints one `ACCEPTANCE <k> PASS ...` line (visible under
``pytest -s`` or in the captured output of a failing run) and enforces the
criterion's runtime budget.  Tolerances are pinned here, not configurable.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from debias_lab import adversary as adv, bounds, estimands as est, estimators as dr
from debias_lab.estimands import EstimandSpec, NuisanceField
from debias_lab.grid import Density, sample
from debias_lab.harness import fit_loglog_slope
from debias_lab.partition import all_sign_vectors, bump, iterated_partition
from debias_lab.presets import preset

from kinds import AFFINE_DIRECTION_KINDS, DIRECTION_KINDS, SLICE_KINDS


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {number} overran: {elapsed:.1f}s"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s < {budget_s:g}s): {label}")


def constant_ate_family(x_cells=256, eps_m=0.1, eps_g=0.2, m_pairs=4):
    space = est.make_space(est.ATE, x_cells=x_cells)
    m_hat = np.full(x_cells, 0.5)
    g_hat = np.full((x_cells, 2), 0.5)
    part = iterated_partition([np.ones(x_cells), 2 * m_hat - 1.0], m_pairs,
                              space.axes[0])
    return adv.AteLocalFamily(space, m_hat, g_hat, eps_m, eps_g, part)


def test_criterion_01_mixture_equality():
    with criterion(1, "lambda-average of ATE alternatives equals the anchor "
                      "atom-wise (<= 1e-12)", 1.0):
        pre = preset(est.ATE, x_cells=256, overlap=0.25)
        m_hat, g_hat = pre.extras["m_hat"], pre.extras["g_hat"]
        assert min(m_hat.min(), 1 - m_hat.max(),
                   g_hat.min(), 1 - g_hat.max()) >= 0.25
        part = iterated_partition([np.ones(256), 2 * m_hat - 1.0], 4,
                                  pre.anchor.space.axes[0])
        family = adv.AteLocalFamily(pre.anchor.space, m_hat, g_hat,
                                    0.12, 0.2, part)
        mix = adv.mixture_density(family)
        deviation = float(np.max(np.abs(mix.values - family.anchor.values)))
        assert deviation <= 1e-12


def test_criterion_02_uncertainty_membership():
    with criterion(2, "every alternative sits inside the uncertainty set with "
                      "an exactly-eps_m propensity shift", 1.0):
        eps_m, eps_g = 0.1, 0.2
        family = constant_ate_family(eps_m=eps_m, eps_g=eps_g)
        spec = EstimandSpec(est.ATE, overlap=0.25)
        c_after = 0.5 - eps_m  # worst-case overlap of the alternatives
        alpha_radius = np.sqrt(2.0 / (c_after * 0.5 ** 2)) * eps_m
        for lam in all_sign_vectors(4):
            m_shift, g_shift = family.nuisance_shift_norms(lam)
            assert abs(m_shift - eps_m) <= 1e-12
            assert g_shift <= eps_g + 1e-12
            member = family.member(lam)
            ok, dists = adv.uncertainty_membership(member, family.anchor, spec,
                                                   eps_g, alpha_radius)
            assert ok, f"distances {dists} exceed ({eps_g}, {alpha_radius})"


def test_criterion_03_separation():
    with criterion(3, "ATE separation is exactly -2 eps_m eps_g at constant "
                      "anchors (1e-10)", 1.0):
        family = constant_ate_family(eps_m=0.1, eps_g=0.2)
        spec = EstimandSpec(est.ATE, overlap=0.25)
        chi0 = est.functional_value(family.anchor, spec)
        assert chi0 == pytest.approx(0.0, abs=1e-14)
        for lam in all_sign_vectors(4):
            chi = est.functional_value(family.member(lam), spec)
            assert abs((chi - chi0) - (-0.04)) <= 1e-10


def test_criterion_04_invariances():
    with criterion(4, "exact gamma/alpha invariance along every packaged "
                      "direction (<= 1e-10 over t in +-{0.01, 0.05})", 5.0):
        for kind in DIRECTION_KINDS:
            pre = preset(kind, x_cells=128, d_cells=64)
            for variant in ("gamma", "alpha"):
                pair = adv.direction_pair(pre.spec, pre.anchor, variant)
                dev = adv.verify_invariance(pre.anchor, pair.first, pre.spec,
                                            variant)
                assert dev <= 1e-10, (kind, variant, dev)
        # PLM u = 0 / v = 0 lines at family level (finite scale, not only FD)
        pre = preset(est.ECC_PLM, x_cells=128)
        part = iterated_partition([np.ones(128)], 4, pre.anchor.space.axes[0])
        lam = all_sign_vectors(4)[7]
        base_g, base_q = pre.gamma, pre.alpha
        for v in (0.01, 0.05):
            member = adv.PlmFamily(pre.anchor, 0.0, v, part).member(lam)
            gam, _ = est.nuisances_of(member, pre.spec)
            assert np.max(np.abs(gam - base_g)) <= 1e-10
        for u in (0.01, 0.05):
            member = adv.PlmFamily(pre.anchor, u, 0.0, part).member(lam)
            _, alp = est.nuisances_of(member, pre.spec)
            assert np.max(np.abs(alp - base_q)) <= 1e-10


def test_criterion_05_second_derivatives():
    with criterion(5, "mixed second derivatives match their closed forms "
                      "(ATE = -1; PLM, DS, WAD, LOD vs displayed integrals)",
                   30.0):
        pre = preset(est.ATE, x_cells=128)
        for variant in ("gamma", "alpha"):
            pair = adv.direction_pair(pre.spec, pre.anchor, variant)
            fd = adv.second_derivative_fd(pre.anchor, pair.first, pair.second,
                                          pre.spec)
            assert abs(fd - (-1.0)) <= 1e-4

        pre = preset(est.ECC_PLM, x_cells=128)
        part = iterated_partition([np.ones(128)], 4, pre.anchor.space.axes[0])
        lam = all_sign_vectors(4)[3]
        fd = adv.plm_cross_derivative_fd(
            lambda u, v: adv.PlmFamily(pre.anchor, u, v, part).member(lam))
        fam = adv.PlmFamily(pre.anchor, 0.0, 0.0, part)
        ref = -float(np.mean(fam.g_hat * (1.0 - fam.g_hat)))
        assert abs(fd - ref) <= 1e-4

        for kind in SLICE_KINDS:
            pre = preset(kind, x_cells=128, d_cells=64)
            pair = adv.direction_pair(pre.spec, pre.anchor, "gamma")
            fd = adv.second_derivative_fd(pre.anchor, pair.first, pair.second,
                                          pre.spec)
            assert abs(fd - pair.mixed_reference) <= 1e-4 * abs(pair.mixed_reference)
            assert pair.mixed_reference != 0.0

        pre = preset(est.LOD, x_cells=128)
        pair = adv.direction_pair(pre.spec, pre.anchor, "alpha")
        fd = adv.second_derivative_fd(pre.anchor, pair.first, pair.first,
                                      pre.spec)
        display = adv.lod_curvature_reference(pre.anchor, pre.spec)
        assert display != 0.0
        assert abs(fd - display) <= 1e-4 * abs(display)


def test_criterion_06_affine_curvature_vanishes():
    with criterion(6, "affine kinds have zero curvature along alpha-invariant "
                      "directions (closed form 0, FD <= 1e-5)", 10.0):
        for kind in AFFINE_DIRECTION_KINDS:
            pre = preset(kind, x_cells=128, d_cells=64)
            pair = adv.direction_pair(pre.spec, pre.anchor, "alpha")
            closed = adv.closed_form_chi2_H0(pre.anchor, pair.first, pre.spec)
            assert closed == 0.0
            fd = adv.second_derivative_fd(pre.anchor, pair.first, pair.first,
                                          pre.spec)
            assert abs(fd) <= 1e-5, (kind, fd)


def test_criterion_07_double_robustness_and_bias_factorization():
    with criterion(7, "population bias identities: double robustness at "
                      "1e-10, product factorization, eps-slopes 2.0", 60.0):
        # one exact nuisance kills the bias (DR and generic DML)
        pre = preset(est.ATE, x_cells=128)
        rng = np.random.default_rng(0)
        zs = est.z_space(est.ATE, pre.anchor.space)
        wrong_g = np.clip(pre.extras["g_hat"]
                          + 0.2 * rng.standard_normal((128, 2)), 0.05, 0.95)
        wrong_m = np.clip(pre.extras["m_hat"] + 0.2 * rng.standard_normal(128),
                          0.05, 0.95)
        assert abs(dr.population_dr_ate(pre.anchor, pre.extras["g_hat"],
                                        wrong_m) - pre.oracle) <= 1e-10
        assert abs(dr.population_dr_ate(pre.anchor, wrong_g,
                                        pre.extras["m_hat"]) - pre.oracle) <= 1e-10
        wrong_alpha = pre.alpha + rng.standard_normal(zs.shape)
        assert abs(dr.population_dml(pre.anchor, pre.gamma, wrong_alpha,
                                     pre.spec) - pre.oracle) <= 1e-10

        # both corrupted, aligned: bias == the product-of-errors integral
        pz = est.z_marginal(pre.anchor, pre.spec)
        dir_g, dir_a = dr.corruption_directions(zs, "adversarial", 0,
                                                riesz_weight=pre.alpha)
        epss = [0.05, 0.1, 0.2, 0.4]
        biases = []
        for eps in epss:
            gh = dr.corrupt_nuisance(NuisanceField(zs, pre.gamma, "gamma"),
                                     dr.CorruptionSpec(eps, dir_g), pz).values
            ah = dr.corrupt_nuisance(NuisanceField(zs, pre.alpha, "alpha"),
                                     dr.CorruptionSpec(eps, dir_a), pz).values
            bias = dr.population_dml(pre.anchor, gh, ah, pre.spec) - pre.oracle
            ref = dr.bias_product_reference(pre.anchor, pre.spec, gh, ah)
            assert abs(bias - ref) <= 1e-10
            biases.append(abs(bias))
        slope, _ = fit_loglog_slope(epss, biases)
        assert abs(slope - 2.0) <= 0.05

        # LOD: alpha exact, gamma corrupted -> curvature-driven eps^2 bias
        pre = preset(est.LOD, x_cells=128)
        zs = est.z_space(est.LOD, pre.anchor.space)
        pz = est.z_marginal(pre.anchor, pre.spec)
        direction = np.zeros(zs.shape)
        sign = np.ones(128)
        sign[64:] = -1.0
        direction[:, 1] = sign
        biases = []
        for eps in epss:
            gh = dr.corrupt_nuisance(NuisanceField(zs, pre.gamma, "gamma"),
                                     dr.CorruptionSpec(eps, direction), pz).values
            biases.append(abs(dr.population_dml(pre.anchor, gh, pre.alpha,
                                                pre.spec) - pre.oracle))
        slope, _ = fit_loglog_slope(epss, biases)
        assert abs(slope - 2.0) <= 0.1


def test_criterion_08_sampling_rate():
    with criterion(8, "DR-ATE with exact nuisances: median-|error| slope "
                      "-0.5 +- 0.07 over n in {1e3, 1e4, 1e5}", 180.0):
        pre = preset(est.ATE, x_cells=256)
        medians = []
        ns = (1000, 10_000, 100_000)
        for n in ns:
            errors = []
            for rep in range(64):
                data = sample(pre.anchor, n, seed=0 + rep)
                point = dr.dr_ate_estimate(data, pre.extras["g_hat"],
                                           pre.extras["m_hat"])
                errors.append(abs(point - pre.oracle))
            medians.append(float(np.median(errors)))
        slope, _ = fit_loglog_slope(list(map(float, ns)), medians)
        assert abs(slope + 0.5) <= 0.07, slope


def test_criterion_09_hellinger_machinery():
    with criterion(9, "exact H2 monotone in M, b under the c^-2 ceiling, "
                      "Bayes error >= Fano floor on 20 random instances",
                   120.0):
        pre = preset(est.ATE, x_cells=12)  # |O| = 48
        m_hat, g_hat = pre.extras["m_hat"], pre.extras["g_hat"]
        axis = pre.anchor.space.axes[0]
        h2s = []
        for m_pairs in (2, 4, 8):
            part = iterated_partition([np.ones(12), 2 * m_hat - 1.0], m_pairs,
                                      axis)
            fam = adv.AteLocalFamily(pre.anchor.space, m_hat, g_hat, 0.1, 0.1,
                                     part)
            inst = bounds.TestingInstance(pre.anchor, fam, pre.spec, n=3)
            h2s.append(bounds.product_mixture_hellinger(inst))
            b, _ = bounds.theorem21_b(inst, part)
            assert b <= 1.0 / 0.25 ** 2  # overlap of this anchor is 0.25
        assert h2s[0] >= h2s[1] >= h2s[2]

        rng = np.random.default_rng(9)
        for _ in range(20):
            m_c = np.full(12, rng.uniform(0.4, 0.6))
            g_c = np.stack([np.full(12, rng.uniform(0.3, 0.45)),
                            np.full(12, rng.uniform(0.55, 0.7))], axis=1)
            eps = float(rng.uniform(0.02, 0.1))
            n = int(rng.choice([1, 2, 3]))
            part = iterated_partition([np.ones(12), 2 * m_c - 1.0],
                                      int(rng.choice([2, 4])), axis)
            fam = adv.AteLocalFamily(pre.anchor.space, m_c, g_c, eps, eps, part)
            inst = bounds.TestingInstance(fam.anchor, fam, pre.spec, n=n)
            h2 = bounds.product_mixture_hellinger(inst)
            assert bounds.optimal_test_error(inst) >= bounds.fano_risk(h2)
        assert bounds.fano_risk(0.0) == 0.5


def test_criterion_10_partition_quality():
    with criterion(10, "weights (1, z) at 2M = 8: block residuals <= 1e-6 and "
                       "|int Delta w| <= 2e-6 for 50 random lambda", 30.0):
        space = est.make_space(est.ATE, x_cells=256)
        axis = space.axes[0]
        x = axis.coords
        weights = [np.ones(256), x]
        part = iterated_partition(weights, 4, axis)
        scales = [1.0 + float(np.sum(np.abs(w)) * axis.cell_weight)
                  for w in weights]
        for i, w in enumerate(weights):
            assert part.residuals[i].max() <= 1e-6 * scales[i]
        rng = np.random.default_rng(0)
        for _ in range(50):
            lam = 2 * rng.integers(0, 2, size=4) - 1
            field = bump(part, lam)
            for w, s in zip(weights, scales):
                assert abs(np.sum(field * w) * axis.cell_weight) <= 2e-6 * s


def test_criterion_11_gram_schmidt_direction():
    with criterion(11, "Gram-Schmidt invariant direction: orthogonality "
                       "<= 1e-12, induced alpha-invariance <= 1e-8", 5.0):
        from debias_lab.grid import GridSpace, continuous

        space = GridSpace((continuous("z1", 4), continuous("w", 3)))
        vals = np.ones((4, 3))
        vals /= vals.sum() * space.atom_weight
        anchor = Density(space, vals)
        rng = np.random.default_rng(2)
        f0 = rng.uniform(0.5, 2.0, size=(4, 3))
        f1 = np.ones((4, 3))
        w_w = space.axes[1].cell_weight
        for z in range(4):
            g0 = adv.gram_schmidt_invariant_direction(anchor, f0, f1, z, seed=z)
            p_slice = anchor.values[z]
            alpha_z = np.sum(f0[z] * p_slice) / np.sum(f1[z] * p_slice)
            f_tilde = f0[z] - alpha_z * f1[z]
            assert abs(np.sum(g0) * w_w) <= 1e-12
            assert abs(np.sum(g0 * f_tilde) * w_w) <= 1e-12
            pert = adv.slice_perturbation(anchor, z, g0)
            for t in (1e-3, -1e-3, 5e-3, -5e-3):
                q = Density(space, anchor.values + t * pert.values)
                val = (np.sum(f0[z] * q.values[z])
                       / np.sum(f1[z] * q.values[z]))
                assert abs(val - alpha_z) <= 1e-8


def test_criterion_12_minimax_demo():
    with criterion(12, "constant-anchor risk is exactly 2 eps_m eps_g; the DR "
                       "estimator lands within x4 of eps_m eps_g", 300.0):
        eps_m = eps_g = 0.2
        family = constant_ate_family(x_cells=64, eps_m=eps_m, eps_g=eps_g,
                                     m_pairs=4)
        spec = EstimandSpec(est.ATE, overlap=0.25)
        inst = bounds.TestingInstance(family.anchor, family, spec, n=1,
                                      enumerated=False)
        worst, _ = bounds.minimax_demo(
            inst, bounds.constant_anchor_estimator(spec, family.anchor),
            s=eps_m * eps_g, n_draw=8, replications=4, seed=0)
        assert abs(worst - 2 * eps_m * eps_g) <= 1e-10

        g_hat = np.full((64, 2), 0.5)
        m_hat = np.full(64, 0.5)

        def dr_with_anchor_nuisances(data, hypothesis):
            return dr.dr_ate_estimate(data, g_hat, m_hat, clip=0.05)

        worst, _ = bounds.minimax_demo(inst, dr_with_anchor_nuisances,
                                       s=eps_m * eps_g, n_draw=100_000,
                                       replications=16, seed=1)
        assert eps_m * eps_g / 4.0 <= worst <= 4.0 * eps_m * eps_g, worst
