"""The benchmark's four workloads: their ops, output checks and layer predictions.

A workload is a fixed list of ops built from a seed.  One pass runs the ops
in order, one at a time (a closed loop with one client).  Each op's output
is checked after the pass, outside the timed region, by a check that holds
for every correct implementation: exact identities at their pinned
tolerances, never a hash of seeded records, which change on purpose when
the sampler changes.

Every call into the package goes through a module attribute
(``partition.iterated_partition``, never a name imported from it), so the
layer tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from debias_lab import adversary, bounds, cli, estimands, estimators, grid, partition, presets

KINDS = estimands.KINDS
DIRECTION_KINDS = ("ate", "ecc_plm", "ds", "wad", "lod")  # kinds with a direction pair
N_SWEEP = [1000, 10_000, 100_000]
EPS_SWEEP = [[0.05, 0.05], [0.1, 0.1], [0.2, 0.2], [0.4, 0.4]]
DR_EPS_SWEEP = [[0.05, 0.05], [0.1, 0.1], [0.2, 0.2], [0.3, 0.3]]  # 0.4 clips the propensity
SAMPLED_SLOPE_BAND = (-0.65, -0.35)
# Fixed here, not taken from the library, so the code under test cannot loosen it.
PARTITION_RESIDUAL_TOL = 1e-6

# Layers named in a prediction; "layer" alone means every function of it.
SAMPLED_SCORE_PATH = ("grid.sample", "estimands.m1_rows", "estimands.rho_rows",
                      "estimators.dml_estimate", "estimators.dr_ate_estimate",
                      "estimators.plugin_estimate")
POPULATION_PATH = ("estimands.z_marginal", "estimands.nuisances_of",
                   "estimands.m1_population", "estimands.rho_bar",
                   "estimands.functional_value", "estimators.population_dml",
                   "estimators.population_plugin", "estimators.population_dr_ate",
                   "estimators.corrupt_nuisance", "grid.marginal")
PARTITION_SEARCH = ("partition.iterated_partition", "partition.bisect")
ENUMERATION = ("adversary.mixture_density", "bounds.product_mixture_hellinger",
               "bounds.optimal_test_error", "bounds.theorem21_b")


class OpError(Exception):
    """A command-line op exited with a non-zero code."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    # (output, every output of the pass by op name) -> failure message or None
    check: Callable[[object, dict], str | None]
    # bytes that must not change when tracing is on
    fingerprint: Callable[[object], bytes] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    zero: tuple[str, ...]      # functions with no calls in the timed pass
    nonzero: tuple[str, ...]   # functions the workload exists to exercise
    target: tuple[str, ...]    # functions or layers that do most of the pass
    pass_check: Callable[[dict], str | None] = lambda outputs: None
    # whether run.py scales the timings by the reference op: only where the
    # workload's speed follows the reference's as the machine's speed changes
    scaled: bool = True


# -----------------------------------------------------------------------------
# shared helpers
# -----------------------------------------------------------------------------

def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpError(f"debias-lab {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _scan_op(name: str, config: dict, workdir: Path,
             check: Callable[[object, dict], str | None]) -> Op:
    config_path = workdir / f"{name}.json"
    config_path.write_text(json.dumps(config))
    out_dir = workdir / name

    def run():
        summary = json.loads(_cli(["scan", "--config", str(config_path),
                                   "--out", str(out_dir), "--format", "csv"]))
        return summary, (Path(summary["out"])).read_bytes()

    return Op(name, run, check, fingerprint=lambda out: out[1])


def _rows(csv_bytes: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(csv_bytes.decode())))


def _check_records(rows: list[dict], config: dict, expected_rows: int,
                   oracle: float) -> str | None:
    """Shape and bookkeeping of one scan's records."""
    if len(rows) != expected_rows:
        return f"{len(rows)} records, expected {expected_rows}"
    population = "true" if config.get("population") else "false"
    for r in rows:
        if (r["kind"], r["estimator"], r["population"]) != (
                config["kind"], config["estimator"], population):
            return f"record labels {r['kind']}/{r['estimator']}/{r['population']}"
        if int(r["derived_seed"]) != config["seed"] + int(r["replication"]):
            return "derived seed is not seed + replication"
        point, rec_oracle = float(r["point"]), float(r["oracle"])
        if not math.isfinite(point):
            return f"non-finite point {point}"
        if abs(rec_oracle - oracle) > 1e-12 * max(1.0, abs(oracle)):
            return f"oracle {rec_oracle!r} differs from the preset's {oracle!r}"
        if float(r["abs_error"]) != abs(point - rec_oracle):
            return "abs_error is not |point - oracle|"
    return None


def _check_medians(rows: list[dict], summary: dict) -> str | None:
    sweep = summary["sweep_values"]
    for value, median in zip(sweep, summary["medians"]):
        errs = [float(r["abs_error"]) for r in rows
                if float(r["sweep_value"]) == value]
        if not math.isclose(float(np.median(errs)), median, rel_tol=1e-12):
            return f"printed median at {value} disagrees with the records"
    if not math.isfinite(summary["slope"]):
        return "non-finite slope"
    return None


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2 ** 31, size=count)]


# -----------------------------------------------------------------------------
# sampled_scan
# -----------------------------------------------------------------------------

def build_sampled_scan(seed: int, workdir: Path) -> Workload:
    """Sampled n-sweeps for every kind, plus one minimax demonstration.

    Profiling puts most of the pass in grid.sample and the row-score path
    (m1_rows, rho_rows and the sampled estimators): the layers that
    count-vector datasets would replace.  The minimax op samples 17 distinct
    densities rather than one anchor.
    """
    rng = np.random.default_rng(seed)
    refs = functools.cache(presets.preset)  # reference presets for the checks
    configs = [(kind, "dml") for kind in KINDS] + [("ate", "dr"), ("ecc_plm", "plugin")]
    ops = []
    for (kind, estimator), scan_seed in zip(configs, _seeds(rng, len(configs))):
        config = {"kind": kind, "estimator": estimator, "n_sweep": N_SWEEP,
                  "replications": 16, "seed": scan_seed, "x_cells": 64, "d_cells": 64}

        def check(out, outputs, config=config):
            summary, data = out
            rows = _rows(data)
            oracle = refs(config["kind"], 64, 64).oracle
            return (_check_records(rows, config, 16 * len(N_SWEEP), oracle)
                    or _check_medians(rows, summary))

        ops.append(_scan_op(f"scan-{kind}-{estimator}", config, workdir, check))

    # the criterion-12 instance: constant anchor, M = 4, eps_m = eps_g = 0.2
    eps = 0.2
    space = estimands.make_space("ate", x_cells=64)
    m_hat, g_hat = np.full(64, 0.5), np.full((64, 2), 0.5)
    part = partition.iterated_partition([np.ones(64), 2 * m_hat - 1.0], 4, space.axes[0])
    family = adversary.AteLocalFamily(space, m_hat, g_hat, eps, eps, part)
    spec = estimands.EstimandSpec("ate", overlap=0.25)
    instance = bounds.TestingInstance(family.anchor, family, spec, n=1, enumerated=False)
    demo_seed = _seeds(rng, 1)[0]

    def dr_with_anchor_nuisances(data, hypothesis):
        return estimators.dr_ate_estimate(data, g_hat, m_hat, clip=0.05)

    def run_demo():
        return bounds.minimax_demo(instance, dr_with_anchor_nuisances, s=eps * eps,
                                   n_draw=100_000, replications=4, seed=demo_seed)

    def check_demo(out, outputs):
        worst, per_hypothesis = out
        if len(per_hypothesis) != 1 + 2 ** 4:
            return f"{len(per_hypothesis)} hypotheses played, expected 17"
        if not eps * eps / 4.0 <= worst <= 4.0 * eps * eps:
            return f"worst-case DR risk {worst} outside [eps^2/4, 4 eps^2]"
        return None

    ops.append(Op("minimax_demo-dr", run_demo, check_demo))

    def pass_check(outputs):
        slopes = [outputs[op.name][0]["slope"] for op in ops
                  if op.name.startswith("scan-") and outputs.get(op.name) is not None]
        if len(slopes) != len(configs):
            return None  # a failed scan is already counted
        mean = float(np.mean(slopes))
        lo, hi = SAMPLED_SLOPE_BAND
        return None if lo <= mean <= hi else f"mean n-slope {mean:.3f} outside [{lo}, {hi}]"

    # Mostly large-array sampling and scoring: as the machine's speed changed,
    # this pass changed speed about half as much as the reference op, and
    # scaling widened its run-to-run spread (five seeds: 19% scaled, 13%
    # unscaled), so it is timed unscaled.
    return Workload(
        "sampled_scan", ops, scaled=False,
        zero=("estimators.population_dml", "estimators.population_plugin",
              "estimators.population_dr_ate") + PARTITION_SEARCH + ENUMERATION,
        nonzero=SAMPLED_SCORE_PATH + ("bounds.minimax_demo", "harness.run_rate_scan",
                                      "harness.estimate_once", "harness.emit",
                                      "cli.main", "presets.preset"),
        target=SAMPLED_SCORE_PATH,
        pass_check=pass_check,
    )


# -----------------------------------------------------------------------------
# population_scan
# -----------------------------------------------------------------------------

def _corrupted(pre, alignment: str, eps_pair, seed: int):
    """The corrupted (gamma_hat, alpha_hat) a population DML scan evaluates."""
    zs = estimands.z_space(pre.spec.kind, pre.anchor.space)
    pz = estimands.z_marginal(pre.anchor, pre.spec)
    dir_g, dir_a = estimators.corruption_directions(zs, alignment, seed,
                                                    riesz_weight=pre.alpha)
    fields = []
    for truth, role, direction, eps in ((pre.gamma, "gamma", dir_g, eps_pair[0]),
                                        (pre.alpha, "alpha", dir_a, eps_pair[1])):
        fields.append(estimators.corrupt_nuisance(
            estimands.NuisanceField(zs, truth, role),
            estimators.CorruptionSpec(eps, direction, alignment), pz).values)
    return fields


def _dr_bias(pre, eps_pair, seed: int, clip: float = 0.05) -> float:
    """Exact DR-ATE bias sum_x p_x (m - m_hat)[(g1 - g1_hat)/m_hat
    + (g0 - g0_hat)/(1 - m_hat)] at the fields a DR scan evaluates."""
    anchor = pre.anchor
    zs = estimands.z_space("ate", anchor.space)
    x_grid = zs.subgrid([0])
    g_hat, _ = _corrupted(pre, "adversarial", (eps_pair[0], 0.0), seed)
    dir_m = estimators.corruption_directions(x_grid, "adversarial", seed)[1]
    m_field = estimands.NuisanceField(x_grid, pre.extras["m_hat"], "propensity",
                                      bounds=(clip, 1.0 - clip))
    m_hat = estimators.corrupt_nuisance(
        m_field, estimators.CorruptionSpec(eps_pair[1], dir_m, "adversarial"),
        grid.marginal(anchor, [0])).values
    m_hat = np.clip(m_hat, clip, 1.0 - clip)
    p_xd = anchor.values.sum(axis=2)
    p_x = p_xd.sum(axis=1)
    m = p_xd[:, 1] / p_x
    g = anchor.values[:, :, 1] / p_xd
    per_x = (m - m_hat) * ((g[:, 1] - g_hat[:, 1]) / m_hat
                           + (g[:, 0] - g_hat[:, 0]) / (1.0 - m_hat))
    return float(np.sum(p_x * per_x) * anchor.space.axes[0].cell_weight)


def build_population_scan(seed: int, workdir: Path) -> Workload:
    """Population-exact eps-sweeps for every kind: DML aligned adversarially
    and at random, plug-in aligned adversarially, and DR on ATE.

    Same estimand and estimator layers as sampled_scan, reached through the
    population path with no sampling; z_marginal is recomputed for every
    corruption of a fixed anchor.
    """
    rng = np.random.default_rng(seed)
    refs = functools.cache(presets.preset)  # reference presets for the checks
    bias_refs: dict = {}  # exact reference biases, the same in every pass
    x_cells, d_cells = 512, 64
    configs = [(kind, est_, al, EPS_SWEEP) for kind in KINDS
               for est_, al in (("dml", "adversarial"), ("dml", "random"),
                                ("plugin", "adversarial"))]
    configs.append(("ate", "dr", "adversarial", DR_EPS_SWEEP))
    ops = []
    for (kind, estimator, alignment, sweep), scan_seed in zip(
            configs, _seeds(rng, len(configs))):
        config = {"kind": kind, "estimator": estimator, "alignment": alignment,
                  "population": True, "eps_sweep": sweep, "replications": 16,
                  "seed": scan_seed, "x_cells": x_cells, "d_cells": d_cells}

        def check(out, outputs, config=config):
            summary, data = out
            rows = _rows(data)
            pre = refs(config["kind"], x_cells, d_cells)
            failure = (_check_records(rows, config, 16 * len(config["eps_sweep"]),
                                      pre.oracle)
                       or _check_medians(rows, summary))
            return failure or _check_population_bias(rows, summary, config, pre, bias_refs)

        ops.append(_scan_op(f"scan-{kind}-{estimator}-{alignment}", config,
                            workdir, check))

    return Workload(
        "population_scan", ops,
        zero=SAMPLED_SCORE_PATH + ("bounds.minimax_demo",) + PARTITION_SEARCH + ENUMERATION,
        nonzero=POPULATION_PATH + ("presets.preset", "harness.run_rate_scan",
                                   "harness.estimate_once", "cli.main"),
        target=("estimands", "estimators"),
    )


def _check_population_bias(rows: list[dict], summary: dict, config: dict,
                           pre, bias_refs: dict) -> str | None:
    """Population biases against their exact references, and the eps-slopes.

    ``bias_refs`` caches the references by (kind, estimator, alignment,
    eps pair, derived seed); adversarial DML directions do not depend on the
    seed, so those entries omit it.
    """
    kind, estimator, alignment = config["kind"], config["estimator"], config["alignment"]
    affine = pre.spec.affine
    if estimator == "dr":
        for r in rows:
            eps_pair = (float(r["eps_gamma"]), float(r["eps_alpha"]))
            key = (kind, estimator, alignment, eps_pair, int(r["derived_seed"]))
            if key not in bias_refs:
                bias_refs[key] = _dr_bias(pre, eps_pair, int(r["derived_seed"]))
            bias = float(r["point"]) - float(r["oracle"])
            if abs(bias - bias_refs[key]) > 1e-10:
                return f"DR bias {bias!r} != product formula {bias_refs[key]!r}"
        return None

    target_slope = 2.0 if estimator == "dml" else 1.0
    slope_tol = 1e-9 if affine else (0.1 if estimator == "dml" else 0.05)
    if abs(summary["slope"] - target_slope) > slope_tol:
        return f"eps-slope {summary['slope']!r}, expected {target_slope} +- {slope_tol:g}"
    if not affine:
        return None

    if estimator == "plugin":
        # Riesz representation: the plug-in bias along the Riesz direction is
        # eps * ||alpha||_{P_Z,2} exactly
        pz = estimands.z_marginal(pre.anchor, pre.spec)
        alpha_norm = grid.l2_nuisance_distance(pre.alpha, np.zeros_like(pre.alpha), pz)
        for r in rows:
            ref = float(r["eps_gamma"]) * alpha_norm
            if abs(float(r["abs_error"]) - ref) > 1e-10:
                return f"plug-in |bias| {r['abs_error']} != eps ||alpha|| = {ref!r}"
        return None

    for r in rows:
        eps_pair = (float(r["eps_gamma"]), float(r["eps_alpha"]))
        seed = int(r["derived_seed"])
        key = (kind, estimator, alignment, eps_pair,
               None if alignment == "adversarial" else seed)
        if key not in bias_refs:
            gamma_hat, alpha_hat = _corrupted(pre, alignment, eps_pair, seed)
            bias_refs[key] = estimators.bias_product_reference(
                pre.anchor, pre.spec, gamma_hat, alpha_hat)
        bias = float(r["point"]) - float(r["oracle"])
        if abs(bias - bias_refs[key]) > 1e-10:
            return f"DML bias {bias!r} != product reference {bias_refs[key]!r}"
    return None


# -----------------------------------------------------------------------------
# partitions
# -----------------------------------------------------------------------------

def _check_partition(membership: np.ndarray, weights: list[np.ndarray],
                     m_pairs: int) -> str | None:
    """Blocks cover every cell once and split every weight into 2M equal parts."""
    if membership.shape != (2 * m_pairs, weights[0].size):
        return f"membership shape {membership.shape}"
    if membership.min() < -1e-12 or membership.max() > 1 + 1e-12:
        return "membership outside [0, 1]"
    if np.max(np.abs(membership.sum(axis=0) - 1.0)) > 1e-12:
        return "memberships do not sum to 1 per cell"
    cw = 1.0 / weights[0].size
    for w in weights:
        scale = 1.0 + float(np.sum(np.abs(w)) * cw)
        parts = membership @ w * cw
        worst = float(np.max(np.abs(parts - np.sum(w) * cw / (2 * m_pairs)))) / scale
        if worst > PARTITION_RESIDUAL_TOL:
            return f"scaled block residual {worst:.3e} > {PARTITION_RESIDUAL_TOL:g}"
    return None


def _partition_op(name: str, weights: list[np.ndarray], m_pairs: int) -> Op:
    axis = grid.continuous("z1", weights[0].size)
    return Op(name,
              lambda: partition.iterated_partition(weights, m_pairs, axis),
              lambda out, outputs: _check_partition(out.membership, weights, m_pairs))


def _cli_partition_op(name: str, cells: int, m_pairs: int, names: list[str]) -> Op:
    x = (np.arange(cells) + 0.5) / cells
    named = {"uniform": np.ones(cells), "linear": x, "quadratic": x ** 2}
    weights = [named[n] for n in names]
    argv = ["partition", "--cells", str(cells), "--blocks", str(2 * m_pairs),
            "--weights", *names]

    def check(out, outputs):
        doc = json.loads(out)
        membership = np.zeros((len(doc["blocks"]), cells))
        for j, block in enumerate(doc["blocks"]):
            for atom, share in block:
                membership[j, atom] = share
        return _check_partition(membership, weights, m_pairs)

    return Op(name, lambda: _cli(argv), check, fingerprint=str.encode)


def build_partitions(seed: int, workdir: Path) -> Workload:
    """Balanced partitions alone: library and command-line calls on 64..1024
    cells at M in {1, 2, 4, 8}, including the request known to fail.

    Partition search is most of the adversary and hellinger commands; here it
    is almost all of the work, so a change to it shows undiluted.
    """
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.3, 0.5), rng.uniform(0.1, 0.4)
    ops = []
    m_values = (1, 2, 4, 8)
    for cells in (64, 1024):
        x = (np.arange(cells) + 0.5) / cells
        lists = {"1-x": [np.ones(cells), x],
                 "1-x-x2": [np.ones(cells), x, x ** 2],
                 "1-propensity": [np.ones(cells), 2.0 * (a + b * x) - 1.0]}
        for label, weights in lists.items():
            for m in m_values:
                ops.append(_partition_op(f"partition-{label}-{cells}-M{m}", weights, m))
    for names in (["uniform", "linear"], ["uniform", "linear", "quadratic"]):
        for m in m_values:
            ops.append(_cli_partition_op(f"cli-partition-{len(names)}w-M{m}", 256, m, names))
    for kind in DIRECTION_KINDS:
        pre = presets.preset(kind, x_cells=64, d_cells=32)
        pair = adversary.direction_pair(pre.spec, pre.anchor, "gamma")
        weights = adversary.case1_weights(pre.anchor, pre.spec, pair)
        for m in m_values:
            ops.append(_partition_op(f"partition-case1-{kind}-M{m}", weights, m))
    # known to fail: NoConvergenceError after its restarts are spent
    x = (np.arange(256) + 0.5) / 256
    ops.append(_partition_op("partition-1-x-x2-sin3x-256-M2",
                             [np.ones(256), x, x ** 2, np.sin(3 * x)], 2))
    return Workload(
        "partitions", ops,
        zero=SAMPLED_SCORE_PATH + ("harness.run_rate_scan", "bounds.minimax_demo")
        + ENUMERATION,
        nonzero=PARTITION_SEARCH + ("cli.main",),
        target=("partition",),
    )


# -----------------------------------------------------------------------------
# hard_instances
# -----------------------------------------------------------------------------

def _fano_risk(h2: float) -> float:
    return (1.0 - math.sqrt(h2 * (1.0 - h2 / 4.0))) / 2.0


def _constant_ate_fields(rng: np.random.Generator, cells: int):
    """Constant-propensity anchor fields and a radius, as in criterion 9."""
    m = np.full(cells, rng.uniform(0.4, 0.6))
    g = np.stack([np.full(cells, rng.uniform(0.3, 0.45)),
                  np.full(cells, rng.uniform(0.55, 0.7))], axis=1)
    return m, g, float(rng.uniform(0.02, 0.1))


def _mixture_op(name: str, family) -> Op:
    def check(out, outputs):
        dev = float(np.max(np.abs(out.values - family.anchor.values)))
        return None if dev <= 1e-12 else f"mixture deviates from the anchor by {dev:.3e}"

    return Op(name, lambda: adversary.mixture_density(family), check)


def _audit(family, spec, radii):
    """Per member: separation from the anchor and uncertainty-set distances."""
    chi0 = estimands.functional_value(family.anchor, spec)
    out = []
    for lam in partition.all_sign_vectors(family.m_pairs):
        member = family.member(lam)
        inside, dists = adversary.uncertainty_membership(member, family.anchor, spec, *radii)
        out.append((estimands.functional_value(member, spec) - chi0, inside, dists))
    return out


def _audit_op(name: str, family, spec, radii, check_member) -> Op:
    def check(out, outputs):
        if len(out) != 2 ** family.m_pairs:
            return f"{len(out)} members audited"
        for separation, inside, dists in out:
            failure = check_member(separation, inside, dists)
            if failure:
                return failure
        return None

    return Op(name, lambda: _audit(family, spec, radii), check)


def build_hard_instances(seed: int, workdir: Path) -> Workload:
    """Mixtures, member audits, direction audits and exact testing bounds on
    partitions built in setup.

    With partition search moved out of the timed pass, the 2^M enumeration in
    adversary and bounds is the work; the M = 8 ops set the p90.
    """
    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    ate = estimands.EstimandSpec("ate", overlap=0.25)

    # whole-cell ATE families on 256 cells: mixture == anchor, separation
    # exactly -2 eps_m eps_g, gamma shift inside the eps_g ball
    space = estimands.make_space("ate", x_cells=256)
    for m_pairs in (2, 4, 8):
        m, g, eps = _constant_ate_fields(rng, 256)
        part = partition.iterated_partition([np.ones(256), 2 * m - 1.0], m_pairs,
                                            space.axes[0])
        family = adversary.AteLocalFamily(space, m, g, eps, eps, part)

        def ate_member(separation, inside, dists, eps=eps):
            if abs(separation + 2 * eps * eps) > 1e-10:
                return f"separation {separation!r} != -2 eps_m eps_g = {-2 * eps * eps!r}"
            if not inside or dists[0] > eps + 1e-12:
                return f"member outside the eps_gamma ball: {dists}"
            return None

        ops.append(_mixture_op(f"mixture-ate-M{m_pairs}", family))
        ops.append(_audit_op(f"audit-ate-M{m_pairs}", family, ate, (eps, math.inf),
                             ate_member))

    # generic two-step families per kind, on partitions balancing both directions
    def finite_member(separation, inside, dists):
        ok = inside and math.isfinite(separation) and all(map(math.isfinite, dists))
        return None if ok else f"member audit not finite: {separation}, {dists}"

    direction_presets = {kind: presets.preset(kind, x_cells=64, d_cells=16)
                         for kind in DIRECTION_KINDS}
    for kind, pre in direction_presets.items():
        pair = adversary.direction_pair(pre.spec, pre.anchor, "gamma")
        axis = pre.anchor.space.axes[0]
        # Z1 profiles of both directions; balancing them makes every bump
        # annihilate the directions it multiplies
        weights = [np.ones(axis.size)] + [
            d.values.reshape(axis.size, -1).sum(axis=1) for d in (pair.first, pair.second)]
        t = float(rng.uniform(0.02, 0.05))
        for m_pairs in (2, 4):
            part = partition.iterated_partition(weights, m_pairs, axis)
            family = adversary.DirectionFamily(pre.anchor, pre.spec, pair, t, 0.4 * t, part)
            ops.append(_mixture_op(f"mixture-{kind}-direction-M{m_pairs}", family))
            ops.append(_audit_op(f"audit-{kind}-direction-M{m_pairs}", family, pre.spec,
                                 (math.inf, math.inf), finite_member))

    # PLM families: nuisance shifts of exactly |u| S and |v| S, S = ||sqrt(g(1-g))||
    plm = presets.preset("ecc_plm", x_cells=64)
    for m_pairs in (2, 4, 8):
        part = partition.iterated_partition([np.ones(64)], m_pairs, plm.anchor.space.axes[0])
        u, v = (float(s) for s in rng.uniform(0.05, 0.2, size=2))
        family = adversary.PlmFamily(plm.anchor, u, v, part)
        size = float(np.sqrt(np.mean(family.g_hat * (1.0 - family.g_hat))))

        def plm_member(separation, inside, dists, u=u, v=v, size=size):
            if abs(dists[0] - u * size) > 1e-12 or abs(dists[1] - v * size) > 1e-12:
                return f"PLM shifts {dists} != ({u * size!r}, {v * size!r})"
            return None if inside and math.isfinite(separation) else "PLM audit not finite"

        ops.append(_mixture_op(f"mixture-plm-M{m_pairs}", family))
        ops.append(_audit_op(f"audit-plm-M{m_pairs}", family, plm.spec,
                             (math.inf, math.inf), plm_member))

    # exact testing bounds on 48 atoms
    small = estimands.make_space("ate", x_cells=12)
    for m_pairs in (2, 4, 8):
        m, g, eps = _constant_ate_fields(rng, 12)
        part = partition.iterated_partition([np.ones(12), 2 * m - 1.0], m_pairs,
                                            small.axes[0])
        family = adversary.AteLocalFamily(small, m, g, eps, eps, part)
        for n in (1, 2, 3):
            inst = bounds.TestingInstance(family.anchor, family, ate, n=n)
            tag = f"M{m_pairs}-n{n}"

            def check_h2(out, outputs, n=n):
                if not 0.0 <= out < 2.0:
                    return f"H^2 = {out!r} outside [0, 2)"
                # n = 1: the mixture is the anchor, so H^2 vanishes
                return None if n > 1 or out <= 1e-12 else f"n = 1 H^2 = {out!r} != 0"

            def check_error(out, outputs, tag=tag, n=n):
                if n == 1:
                    # the mixture is the anchor: both the error and the Fano
                    # floor are exactly 1/2, so compare with the exact value
                    # rather than two roundings of it with each other
                    return None if abs(out - 0.5) <= 1e-12 else f"n = 1 error {out!r} != 1/2"
                h2 = outputs.get(f"hellinger-{tag}")
                if h2 is None:
                    return None  # the hellinger op failed and is counted
                if not out >= _fano_risk(h2):
                    return f"optimal test error {out!r} below the Fano floor"
                return None

            def check_b(out, outputs):
                b, bound = out
                ok = math.isfinite(b) and b >= 0.0 and math.isfinite(bound) and bound >= 0.0
                return None if ok else f"chunk statistic {out}"

            ops.append(Op(f"hellinger-{tag}",
                          lambda inst=inst: bounds.product_mixture_hellinger(inst), check_h2))
            ops.append(Op(f"test-error-{tag}",
                          lambda inst=inst: bounds.optimal_test_error(inst), check_error))
            ops.append(Op(f"theorem21-b-{tag}",
                          lambda inst=inst, part=part: bounds.theorem21_b(inst, part), check_b))

    # per-kind direction audits: exact invariance and the mixed second derivative
    for kind, pre in direction_presets.items():
        for variant in ("gamma", "alpha"):
            def run(pre=pre, variant=variant):
                pair = adversary.direction_pair(pre.spec, pre.anchor, variant)
                deviation = adversary.verify_invariance(pre.anchor, pair.first, pre.spec,
                                                        variant)
                fd = adversary.second_derivative_fd(pre.anchor, pair.first, pair.second,
                                                    pre.spec)
                return deviation, fd, pair.mixed_reference

            def check(out, outputs):
                deviation, fd, reference = out
                if deviation > 1e-10:
                    return f"invariance deviation {deviation:.3e} > 1e-10"
                if abs(fd - reference) > 1e-4 * abs(reference):
                    return f"mixed derivative {fd!r} vs closed form {reference!r}"
                return None

            ops.append(Op(f"directions-{kind}-{variant}", run, check))

    return Workload(
        "hard_instances", ops,
        zero=SAMPLED_SCORE_PATH + PARTITION_SEARCH + ("bounds.minimax_demo",
                                                      "harness.run_rate_scan", "cli.main"),
        nonzero=ENUMERATION + ("adversary.member", "adversary.uncertainty_membership",
                               "adversary.direction_pair", "adversary.verify_invariance",
                               "adversary.second_derivative_fd"),
        target=("adversary", "bounds"),
    )


BUILDERS = {
    "sampled_scan": build_sampled_scan,
    "population_scan": build_population_scan,
    "partitions": build_partitions,
    "hard_instances": build_hard_instances,
}
