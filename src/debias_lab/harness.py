"""Seeded sweep runner: reproduce rate claims as log-log slope fits.

A scan fixes an anchor and an estimator, sweeps one knob (sample size n,
nuisance error eps, or block count M), runs seeded replications at each
sweep point, and fits the slope of log(median |error|) against the log of
the swept variable.  Expected slopes: -1/2 for the sampling noise of any
of the estimators with exact nuisances, +2 for the eps-sweep bias of
population-exact DML on affine kinds (the product-of-errors term) and of
LOD with an exact Riesz weight (the curvature term), +1 for the plug-in's
first-order bias.

Replication r uses derived seed ``seed + r``, so any row of a result file
can be regenerated in isolation.  Records are ordered by (sweep point,
replication) whatever the execution order, and the CSV emitter formats
floats with repr-faithful precision, so identical configs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import adversary, bounds, estimands as est, estimators as dr
from .errors import PreconditionError
from .grid import marginal as grid_marginal, sample
from .partition import iterated_partition
from .presets import Preset, preset

CSV_COLUMNS = (
    "kind", "estimator", "sweep", "sweep_value", "replication", "derived_seed",
    "n", "eps_gamma", "eps_alpha", "alignment", "population",
    "point", "oracle", "abs_error",
)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    estimator: str = "dml"
    n_sweep: tuple[int, ...] | None = None
    eps_sweep: tuple[tuple[float, float], ...] | None = None
    m_sweep: tuple[int, ...] | None = None
    replications: int = 32
    seed: int = 0
    alignment: str = "adversarial"
    population: bool = False
    n_fixed: int = 10_000
    eps_fixed: tuple[float, float] = (0.1, 0.1)
    folds: int = 2
    x_cells: int = 256
    d_cells: int = 64
    overlap: float = 0.05

    def __post_init__(self):
        sweeps = [s for s in (self.n_sweep, self.eps_sweep, self.m_sweep)
                  if s is not None]
        if len(sweeps) != 1:
            raise PreconditionError("exactly one sweep must be configured")
        values = self.sweep_values()
        if any(b <= a for a, b in zip(values, values[1:])):
            raise PreconditionError("sweep values must be strictly increasing")
        if self.replications < 16:
            raise PreconditionError("slope fits need at least 16 replications")
        if self.estimator not in ("plugin", "dr", "dml"):
            raise PreconditionError("estimator must be plugin, dr or dml")

    @property
    def sweep_name(self) -> str:
        if self.n_sweep is not None:
            return "n"
        if self.eps_sweep is not None:
            return "eps"
        return "m"

    def sweep_values(self) -> list[float]:
        if self.n_sweep is not None:
            return [float(v) for v in self.n_sweep]
        if self.eps_sweep is not None:
            return [float(g) for g, _ in self.eps_sweep]
        return [float(v) for v in self.m_sweep]

    def to_json(self) -> dict:
        doc = {
            "kind": self.kind, "estimator": self.estimator,
            "replications": self.replications, "seed": self.seed,
            "alignment": self.alignment, "population": self.population,
            "n_fixed": self.n_fixed, "eps_fixed": list(self.eps_fixed),
            "folds": self.folds, "x_cells": self.x_cells,
            "d_cells": self.d_cells, "overlap": self.overlap,
        }
        if self.n_sweep is not None:
            doc["n_sweep"] = list(self.n_sweep)
        if self.eps_sweep is not None:
            doc["eps_sweep"] = [list(pair) for pair in self.eps_sweep]
        if self.m_sweep is not None:
            doc["m_sweep"] = list(self.m_sweep)
        return doc

    @staticmethod
    def from_json(doc: dict) -> "ExperimentConfig":
        return ExperimentConfig(
            kind=doc["kind"],
            estimator=doc.get("estimator", "dml"),
            n_sweep=tuple(doc["n_sweep"]) if "n_sweep" in doc else None,
            eps_sweep=tuple(tuple(p) for p in doc["eps_sweep"])
            if "eps_sweep" in doc else None,
            m_sweep=tuple(doc["m_sweep"]) if "m_sweep" in doc else None,
            replications=doc.get("replications", 32),
            seed=doc.get("seed", 0),
            alignment=doc.get("alignment", "adversarial"),
            population=doc.get("population", False),
            n_fixed=doc.get("n_fixed", 10_000),
            eps_fixed=tuple(doc.get("eps_fixed", (0.1, 0.1))),
            folds=doc.get("folds", 2),
            x_cells=doc.get("x_cells", 256),
            d_cells=doc.get("d_cells", 64),
            overlap=doc.get("overlap", 0.05),
        )


@dataclass(frozen=True)
class RateScanResult:
    records: list[dict]
    sweep_values: list[float]
    medians: list[float]
    means: list[float]
    slope: float
    slope_stderr: float

    def to_json(self) -> dict:
        return {
            "sweep_values": self.sweep_values,
            "medians": self.medians,
            "means": self.means,
            "slope": self.slope,
            "slope_stderr": self.slope_stderr,
            "records": self.records,
        }


def estimate_once(config: ExperimentConfig, pre: Preset,
                   eps_pair: tuple[float, float], n: int,
                   derived_seed: int) -> tuple[float, float]:
    """One replication: returns (point, oracle)."""
    spec, anchor = pre.spec, pre.anchor
    eps_gamma, eps_alpha = eps_pair
    z_grid = est.z_space(spec.kind, anchor.space)
    pz = est.z_marginal(anchor, spec)

    gamma_hat = pre.gamma
    alpha_hat = pre.alpha
    if eps_gamma or eps_alpha:
        dir_g, dir_a = dr.corruption_directions(z_grid, config.alignment,
                                                derived_seed,
                                                riesz_weight=pre.alpha)
        if eps_gamma:
            gamma_hat = dr.corrupt_nuisance(
                est.NuisanceField(z_grid, pre.gamma, "gamma"),
                dr.CorruptionSpec(eps_gamma, dir_g, config.alignment), pz,
            ).values
        if eps_alpha:
            alpha_hat = dr.corrupt_nuisance(
                est.NuisanceField(z_grid, pre.alpha, "alpha"),
                dr.CorruptionSpec(eps_alpha, dir_a, config.alignment), pz,
            ).values

    if config.estimator == "dr":
        if spec.kind != est.ATE:
            raise PreconditionError("the dr estimator is ATE-specific")
        m_hat = pre.extras["m_hat"]
        g_hat = pre.extras["g_hat"]
        if eps_alpha:
            dir_m = dr.corruption_directions(z_grid.subgrid([0]),
                                             config.alignment, derived_seed)[1]
            m_field = est.NuisanceField(
                z_grid.subgrid([0]), m_hat, "propensity",
                bounds=(config.overlap, 1.0 - config.overlap),
            )
            m_hat = dr.corrupt_nuisance(
                m_field, dr.CorruptionSpec(eps_alpha, dir_m, config.alignment),
                grid_marginal(anchor, [0]),
            ).values
        if eps_gamma:
            g_hat = gamma_hat  # the gamma field of ATE is the outcome regression
        if config.population:
            point = dr.population_dr_ate(anchor, g_hat, m_hat, config.overlap)
        else:
            data = sample(anchor, n, derived_seed)
            point = dr.dr_ate_estimate(data, g_hat, m_hat, config.overlap)
    elif config.estimator == "plugin":
        if config.population:
            point = dr.population_plugin(anchor, gamma_hat, spec)
        else:
            data = sample(anchor, n, derived_seed)
            point = dr.plugin_estimate(data, gamma_hat, spec)
    else:
        if config.population:
            point = dr.population_dml(anchor, gamma_hat, alpha_hat, spec)
        else:
            data = sample(anchor, n, derived_seed)
            point = dr.dml_estimate(data, gamma_hat, alpha_hat, spec,
                                    config.folds)
    return point, pre.oracle


def _hellinger_once(config: ExperimentConfig, pre: Preset, m_pairs: int,
                    derived_seed: int) -> tuple[float, float]:
    if pre.spec.kind != est.ATE:
        raise PreconditionError("the M sweep is defined for the ATE family")
    m_hat, g_hat = pre.extras["m_hat"], pre.extras["g_hat"]
    weights = [np.ones(m_hat.size), 2.0 * m_hat - 1.0]
    part = iterated_partition(weights, m_pairs, pre.anchor.space.axes[0],
                              seed=derived_seed)
    eps_m, eps_g = config.eps_fixed
    family = adversary.AteLocalFamily(pre.anchor.space, m_hat, g_hat,
                                      eps_m, eps_g, part)
    inst = bounds.TestingInstance(pre.anchor, family, pre.spec,
                                  n=min(config.n_fixed, 2))
    return bounds.product_mixture_hellinger(inst), 0.0


def run_rate_scan(config: ExperimentConfig) -> RateScanResult:
    """Run the configured sweep and fit the log-log slope of the median error."""
    pre = preset(config.kind, config.x_cells, config.d_cells, config.overlap)
    jobs: list[tuple[int, int, float, tuple[float, float], int, int]] = []
    for si, value in enumerate(_sweep_points(config)):
        for rep in range(config.replications):
            derived = config.seed + rep
            jobs.append((si, rep, *value, derived))

    def run_job(job):
        si, rep, sweep_value, eps_pair, n, derived = job
        if config.sweep_name == "m":
            point, oracle = _hellinger_once(config, pre, int(sweep_value), derived)
        else:
            point, oracle = estimate_once(config, pre, eps_pair, n, derived)
        return si, rep, sweep_value, eps_pair, n, derived, point, oracle

    threads = int(os.environ.get("DEBIAS_LAB_THREADS", "1"))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outputs = list(pool.map(run_job, jobs))
    else:
        outputs = [run_job(j) for j in jobs]
    outputs.sort(key=lambda row: (row[0], row[1]))

    records = []
    for si, rep, sweep_value, eps_pair, n, derived, point, oracle in outputs:
        records.append({
            "kind": config.kind,
            "estimator": config.estimator,
            "sweep": config.sweep_name,
            "sweep_value": sweep_value,
            "replication": rep,
            "derived_seed": derived,
            "n": n,
            "eps_gamma": eps_pair[0],
            "eps_alpha": eps_pair[1],
            "alignment": config.alignment,
            "population": config.population,
            "point": point,
            "oracle": oracle,
            "abs_error": abs(point - oracle),
        })

    values = config.sweep_values()
    medians, means = [], []
    for si, v in enumerate(values):
        errs = np.array([r["abs_error"] for r in records
                         if r["sweep_value"] == v])
        medians.append(float(np.median(errs)))
        means.append(float(np.mean(errs)))
    slope, stderr = fit_loglog_slope(values, medians)
    return RateScanResult(records, values, medians, means, slope, stderr)


def _sweep_points(config: ExperimentConfig
                  ) -> list[tuple[float, tuple[float, float], int]]:
    """(sweep_value, (eps_gamma, eps_alpha), n) per sweep point."""
    if config.n_sweep is not None:
        return [(float(n), (0.0, 0.0), int(n)) for n in config.n_sweep]
    if config.eps_sweep is not None:
        return [(float(g), (float(g), float(a)), config.n_fixed)
                for g, a in config.eps_sweep]
    return [(float(m), config.eps_fixed, config.n_fixed)
            for m in config.m_sweep]


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]
                     ) -> tuple[float, float]:
    """Least-squares slope of log y on log x with its standard error.

    Every y must be positive: a zero median |error| has no logarithm, so it
    raises rather than bending the fit.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        raise PreconditionError("a slope fit needs at least two sweep points")
    nonpositive = np.flatnonzero(~(ys > 0))
    if nonpositive.size:
        i = int(nonpositive[0])
        raise PreconditionError(
            f"median |error| is {float(ys[i])!r} at sweep value {float(xs[i])!r}; "
            "a log-log slope needs positive medians"
        )
    lx, ly = np.log(xs), np.log(ys)
    design = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, residuals, _, _ = np.linalg.lstsq(design, ly, rcond=None)
    slope = float(coef[0])
    dof = lx.size - 2
    if dof > 0 and residuals.size:
        sigma2 = float(residuals[0]) / dof
        sxx = float(np.sum((lx - lx.mean()) ** 2))
        stderr = math.sqrt(sigma2 / sxx)
    else:
        stderr = 0.0
    return slope, stderr


# -----------------------------------------------------------------------------
# emission
# -----------------------------------------------------------------------------

def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def records_to_csv(records: Sequence[dict]) -> str:
    if not records:
        raise PreconditionError("emit needs at least one record")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow([_format_value(rec[c]) for c in CSV_COLUMNS])
    return buf.getvalue()


def records_from_csv(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    out = []
    for row in reader:
        rec: dict = dict(row)
        for key in ("sweep_value", "eps_gamma", "eps_alpha", "point", "oracle",
                    "abs_error"):
            rec[key] = float(rec[key])
        for key in ("replication", "derived_seed", "n"):
            rec[key] = int(float(rec[key]))
        rec["population"] = rec["population"] == "true"
        out.append(rec)
    return out


def scatter_svg(result: RateScanResult, title: str = "rate scan") -> str:
    """Log-log scatter of per-replication errors with the fitted median line."""
    records = result.records
    if not records:
        raise PreconditionError("emit needs at least one record")
    pts = [(math.log10(r["sweep_value"]), math.log10(max(r["abs_error"], 1e-300)))
           for r in records]
    xs = [p for p, _ in pts]
    ys = [q for _, q in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = 0.05 * max(x_hi - x_lo, 1e-9)
    y_pad = 0.05 * max(y_hi - y_lo, 1e-9)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    width, height, margin = 640, 420, 60

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width/2}" y="24" text-anchor="middle">{title}: slope '
        f'{result.slope:.3f}</text>',
        f'<line x1="{margin}" y1="{height-margin}" x2="{width-margin}" '
        f'y2="{height-margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height-margin}" '
        f'stroke="black"/>',
        f'<text x="{width/2}" y="{height-16}" text-anchor="middle">'
        f'log10 sweep value</text>',
        f'<text x="18" y="{height/2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {height/2})">log10 |error|</text>',
    ]
    for x, y in pts:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" '
                     f'fill="steelblue" fill-opacity="0.6"/>')
    line_pts = [(math.log10(v), math.log10(max(m, 1e-300)))
                for v, m in zip(result.sweep_values, result.medians)]
    path = "M " + " L ".join(f"{sx(x):.2f} {sy(y):.2f}" for x, y in line_pts)
    parts.append(f'<path d="{path}" stroke="crimson" fill="none" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def emit(result: RateScanResult, fmt: str, out_dir: str | Path,
         stem: str = "scan") -> Path:
    """Write the records in the requested format; returns the file path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = out / f"{stem}.csv"
        path.write_text(records_to_csv(result.records))
    elif fmt == "json":
        path = out / f"{stem}.json"
        path.write_text(json.dumps(result.to_json(), indent=2))
    elif fmt == "svg":
        path = out / f"{stem}.svg"
        path.write_text(scatter_svg(result, stem))
    else:
        raise PreconditionError(f"unknown emit format {fmt!r}")
    return path
