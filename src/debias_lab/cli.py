"""Command-line front end.

Subcommands:

  scan       run a configured sweep and emit records (csv/json/svg)
  estimate   one seeded estimate against the preset anchor of a kind
  adversary  audit a hard-instance construction (membership, separation,
             invariances, second derivatives vs their closed forms)
  hellinger  exact testing-bound quantities on an enumerated ATE instance
  partition  build a balanced partition and print its JSON audit

Exit codes: 0 success, 2 precondition violations (a malformed scan config
among them), 3 convergence failures.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import adversary, bounds, estimands as est, harness
from .errors import NoConvergenceError, PreconditionError
from .partition import all_sign_vectors, iterated_partition
from .presets import preset

ESTIMATE_CSV_COLUMNS = ("kind", "n", "seed", "eps_gamma", "eps_alpha",
                        "alignment", "point", "oracle", "abs_error")


def _cmd_scan(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    try:
        doc = json.loads(config_path.read_text())
    except OSError as exc:
        raise PreconditionError(
            f"cannot read scan config {config_path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise PreconditionError(
            f"scan config {config_path} is not valid JSON: {exc}") from exc
    config = harness.ExperimentConfig.from_json(doc)
    result = harness.run_rate_scan(config)
    path = harness.emit(result, args.format, args.out)
    print(json.dumps({
        "slope": result.slope,
        "slope_stderr": result.slope_stderr,
        "sweep_values": result.sweep_values,
        "medians": result.medians,
        "out": str(path),
    }, indent=2))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    config = harness.ExperimentConfig(
        kind=args.kind,
        estimator=args.estimator,
        eps_sweep=((args.eps_gamma, args.eps_alpha),),
        replications=16,
        seed=args.seed,
        alignment=args.alignment,
        population=args.population,
        n_fixed=args.n,
        x_cells=args.x_cells,
        d_cells=args.d_cells,
    )
    pre = preset(args.kind, x_cells=args.x_cells, d_cells=args.d_cells)
    point, oracle = harness.estimate_once(
        config, pre, (args.eps_gamma, args.eps_alpha), args.n, args.seed,
        harness.draw_directions(config, pre, args.seed))
    print(json.dumps({"point": point, "n": args.n, "clip_constant": pre.spec.overlap,
                      "seed": args.seed, "oracle": oracle,
                      "abs_error": abs(point - oracle)}, indent=2))
    if args.csv:
        path = Path(args.csv)
        new = not path.exists()
        with path.open("a", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if new:
                writer.writerow(ESTIMATE_CSV_COLUMNS)
            writer.writerow([args.kind, args.n, args.seed, repr(args.eps_gamma),
                             repr(args.eps_alpha), args.alignment, repr(point),
                             repr(oracle), repr(abs(point - oracle))])
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    pre = preset(args.kind, x_cells=args.x_cells, d_cells=args.d_cells)
    spec, anchor = pre.spec, pre.anchor
    report: dict = {"kind": args.kind}

    if args.kind == est.ATE:
        family = adversary.AteLocalFamily.balanced(
            anchor.space, pre.extras["m_hat"], pre.extras["g_hat"],
            eps_m=args.eps_alpha, eps_g=args.eps_gamma, m_pairs=args.m_pairs)
        seps, marg_dev, member_dists = [], 0.0, []
        mix = adversary.mixture_density(family)
        marg_dev = float(np.max(np.abs(mix.values - anchor.values)))
        for lam in all_sign_vectors(family.m_pairs):
            member = family.member(lam)
            seps.append(est.functional_value(member, spec) - pre.oracle)
            _, dists = adversary.uncertainty_membership(
                member, anchor, spec, np.inf, np.inf)
            member_dists.append(dists)
        report["mixture_max_deviation"] = marg_dev
        report["separation"] = {"min": min(seps), "max": max(seps),
                                "reference": -2 * args.eps_gamma * args.eps_alpha}
        report["membership_distances"] = {
            "gamma_max": max(d for d, _ in member_dists),
            "alpha_max": max(d for _, d in member_dists),
        }

    pairs = {}
    for variant in ("gamma", "alpha"):
        try:
            pair = adversary.direction_pair(spec, anchor, variant)
        except PreconditionError as exc:
            pairs[variant] = {"unavailable": str(exc)}
            continue
        deviation = adversary.verify_invariance(anchor, pair.first, spec, variant)
        fd = adversary.second_derivative_fd(anchor, pair.first, pair.second, spec)
        pairs[variant] = {
            "invariance_deviation": deviation,
            "mixed_fd": fd,
            "mixed_reference": pair.mixed_reference,
        }
        if variant == "alpha":
            pairs[variant]["curvature_fd"] = adversary.second_derivative_fd(
                anchor, pair.first, pair.first, spec)
            pairs[variant]["curvature_closed_form"] = adversary.closed_form_chi2_H0(
                anchor, pair.first, spec)
    report["directions"] = pairs
    print(json.dumps(report, indent=2))
    return 0


def _cmd_hellinger(args: argparse.Namespace) -> int:
    pre = preset(args.kind, x_cells=args.x_cells)
    family = adversary.AteLocalFamily.balanced(
        pre.anchor.space, pre.extras["m_hat"], pre.extras["g_hat"],
        eps_m=args.eps_alpha, eps_g=args.eps_gamma, m_pairs=args.m_pairs)
    inst = bounds.TestingInstance(pre.anchor, family, pre.spec, n=args.n)
    h2 = bounds.product_mixture_hellinger(inst)
    b, bound = bounds.theorem21_b(inst, family.partition)
    print(json.dumps({
        "h2": h2,
        "b": b,
        "bound": bound,
        "fano_risk": bounds.fano_risk(min(h2, 2.0 - 1e-15)),
        "optimal_test_error": bounds.optimal_test_error(inst),
    }, indent=2))
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    space = est.make_space(est.ATE, x_cells=args.cells)
    axis = space.axes[0]
    x = axis.coords
    named = {
        "uniform": np.ones(args.cells),
        "linear": x,
        "quadratic": x ** 2,
    }
    try:
        weights = [named[name] for name in args.weights]
    except KeyError as exc:
        raise PreconditionError(f"unknown weight name {exc.args[0]!r}; "
                                f"choose from {sorted(named)}") from exc
    if args.blocks % 2:
        raise PreconditionError(f"--blocks must be even, not {args.blocks}")
    part = iterated_partition(weights, args.blocks // 2, axis)
    print(json.dumps(part.to_json()))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="debias-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="run a configured sweep")
    scan.add_argument("--config", required=True)
    scan.add_argument("--out", default="out")
    scan.add_argument("--format", default="csv", choices=("csv", "json", "svg"))

    estimate = sub.add_parser("estimate", help="one seeded estimate")
    estimate.add_argument("--kind", required=True, choices=est.KINDS)
    estimate.add_argument("--n", type=int, default=10_000)
    estimate.add_argument("--seed", type=int, default=0)
    estimate.add_argument("--eps-gamma", type=float, default=0.0)
    estimate.add_argument("--eps-alpha", type=float, default=0.0)
    estimate.add_argument("--alignment", default="adversarial",
                          choices=("adversarial", "random"))
    estimate.add_argument("--population", action="store_true")
    estimate.add_argument("--estimator", default="dml",
                          choices=("plugin", "dr", "dml"))
    estimate.add_argument("--x-cells", type=int, default=256)
    estimate.add_argument("--d-cells", type=int, default=64)
    estimate.add_argument("--csv", default="estimates.csv")

    adv = sub.add_parser("adversary", help="audit a hard-instance construction")
    adv.add_argument("--kind", required=True, choices=est.KINDS)
    adv.add_argument("--eps-gamma", type=float, default=0.1)
    adv.add_argument("--eps-alpha", type=float, default=0.1)
    adv.add_argument("--m-pairs", type=int, default=4)
    adv.add_argument("--x-cells", type=int, default=64)
    adv.add_argument("--d-cells", type=int, default=64)

    hel = sub.add_parser("hellinger", help="exact testing-bound quantities")
    hel.add_argument("--kind", default=est.ATE, choices=(est.ATE,))
    hel.add_argument("--n", type=int, default=2)
    hel.add_argument("--m-pairs", "--M", dest="m_pairs", type=int, default=4)
    hel.add_argument("--eps-gamma", type=float, default=0.1)
    hel.add_argument("--eps-alpha", type=float, default=0.1)
    hel.add_argument("--x-cells", type=int, default=12)

    part = sub.add_parser("partition", help="build a balanced partition")
    part.add_argument("--cells", type=int, default=256)
    part.add_argument("--blocks", type=int, default=8)
    part.add_argument("--weights", nargs="+", default=["uniform", "linear"])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a rebound _cmd_<command> is the one run
        return globals()[f"_cmd_{args.command}"](args)
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
