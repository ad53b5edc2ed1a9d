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
can be regenerated in isolation.  Replications that draw nothing from their
seeds (every M-sweep one, and some population ones) share one evaluation
(see ``run_rate_scan``); each keeps its own record.  A replication's
corruption directions depend on its seed alone, so a scan draws them once
per replication and corrupts along them at every sweep point.  Sweep
points and their replications run in order on one thread, so records are
ordered by (sweep point, replication), and the CSV emitter formats floats
with repr-faithful precision, so identical configs produce byte-identical
files.
"""

from __future__ import annotations

import contextvars
import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import adversary, bounds, estimands as est, estimators as dr
from .errors import PreconditionError
from .grid import marginal as grid_marginal, sample
from .presets import Preset, preset

CSV_COLUMNS = (
    "kind", "estimator", "sweep", "sweep_value", "replication", "derived_seed",
    "n", "eps_gamma", "eps_alpha", "alignment", "population",
    "point", "oracle", "abs_error",
)


# The Python types a scalar config key accepts from JSON, by its field's
# annotation; matched exactly, so a bool is not an int, while an int is
# accepted as a float.
_SCALAR_TYPES = {"str": (str,), "bool": (bool,), "int": (int,), "float": (int, float)}


def _is_number(value) -> bool:
    """Whether ``value`` is a real number and not a bool (a JSON number)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _nested(value, seq):
    """``value`` with every list or tuple in it rebuilt as ``seq``."""
    if isinstance(value, (list, tuple)):
        return seq(_nested(v, seq) for v in value)
    return value


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
    x_cells: int = 256
    d_cells: int = 64
    overlap: float = 0.05

    def __post_init__(self):
        if [self.n_sweep, self.eps_sweep, self.m_sweep].count(None) != 2:
            raise PreconditionError("exactly one sweep must be configured")
        if np.shape(self.eps_fixed) != (2,):
            raise PreconditionError("eps_fixed must be an [eps_gamma, eps_alpha] pair")
        try:
            values = [value for value, _, _ in self.sweep_points()]
        except (TypeError, ValueError) as exc:
            raise PreconditionError(f"malformed {self.sweep_name}_sweep: {exc}") from exc
        eps_entries = [("eps_fixed", entry) for entry in self.eps_fixed]
        if self.eps_sweep is not None:
            eps_entries += [("eps_sweep", entry)
                            for pair in self.eps_sweep for entry in pair]
        for key, entry in eps_entries:
            if not _is_number(entry):
                raise PreconditionError(f"{key} entries must be numbers, not {entry!r}")
            if not (math.isfinite(entry) and entry >= 0):
                raise PreconditionError(
                    f"{key} entries must be finite and >= 0, not {entry!r}")
        if self.sweep_name in ("n", "m"):
            for entry in getattr(self, f"{self.sweep_name}_sweep"):
                if not (_is_number(entry) and float(entry).is_integer()):
                    raise PreconditionError(
                        f"{self.sweep_name}_sweep entries must be whole numbers, "
                        f"not {entry!r}")
        n_entries = [("n_fixed", self.n_fixed)]
        n_entries += [("n_sweep", n) for n in self.n_sweep or ()]
        for key, n in n_entries:
            if not 0 <= n <= 2 ** 63 - 1:
                raise PreconditionError(f"{key}: sample size n must be >= 0 and at most "
                                        f"the int64 limit 2**63 - 1, not {n!r}")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise PreconditionError("sweep values must be strictly increasing")
        if self.seed < 0:
            raise PreconditionError(f"config key 'seed' must be >= 0, not {self.seed!r}")
        if self.replications < 16:
            raise PreconditionError("slope fits need at least 16 replications")
        if self.estimator not in ("plugin", "dr", "dml"):
            raise PreconditionError("estimator must be plugin, dr or dml")
        if self.alignment not in ("adversarial", "random"):
            raise PreconditionError(f"config key 'alignment' must be 'adversarial' or "
                                    f"'random', not {self.alignment!r}")
        if self.estimator == "dr" and self.kind != est.ATE:
            raise PreconditionError("the dr estimator is ATE-specific")
        if self.m_sweep is not None and self.kind != est.ATE:
            raise PreconditionError("the M sweep is defined for the ATE family")
        if self.population and self.n_sweep is not None:
            raise PreconditionError(
                "a population scan ignores n, so it cannot sweep n"
            )

    @property
    def sweep_name(self) -> str:
        """'n', 'eps' or 'm': the knob this config sweeps."""
        return next(name for name in ("n", "eps", "m")
                    if getattr(self, f"{name}_sweep") is not None)

    def sweep_points(self) -> list[tuple[float, tuple[float, float], int]]:
        """(sweep_value, (eps_gamma, eps_alpha), n) per sweep point."""
        if self.n_sweep is not None:
            return [(float(n), (0.0, 0.0), int(n)) for n in self.n_sweep]
        if self.eps_sweep is not None:
            return [(float(g), (float(g), float(a)), self.n_fixed)
                    for g, a in self.eps_sweep]
        return [(float(m), self.eps_fixed, self.n_fixed) for m in self.m_sweep]

    def to_json(self) -> dict:
        return {f.name: _nested(getattr(self, f.name), list) for f in fields(self)
                if getattr(self, f.name) is not None}

    @staticmethod
    def from_json(doc: dict) -> "ExperimentConfig":
        """The config a JSON object describes: absent keys take the field
        defaults, unknown keys (such as the retired ``folds``) are ignored."""
        if not isinstance(doc, dict):
            raise PreconditionError(
                f"a scan config must be a JSON object, not {type(doc).__name__}")
        if "kind" not in doc:
            raise PreconditionError("a scan config needs a 'kind' key")
        for f in fields(ExperimentConfig):
            accepted = _SCALAR_TYPES.get(f.type)
            if accepted and f.name in doc and type(doc[f.name]) not in accepted:
                raise PreconditionError(
                    f"config key {f.name!r} must be a JSON {f.type}, "
                    f"not {doc[f.name]!r}")
        return ExperimentConfig(**{f.name: _nested(doc[f.name], tuple)
                                   for f in fields(ExperimentConfig) if f.name in doc})


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
    """One replication: returns (point, oracle).

    eps_gamma corrupts gamma; eps_alpha corrupts the other field the
    estimator reads: alpha for DML, the propensity for DR (the plug-in reads
    no other).  Directions are drawn only for a nonzero eps, and inside
    ``run_rate_scan`` once per replication (see ``_drawn``).  Under
    ``adversarial`` alignment DR aligns only its outcome-regression
    corruption (along the Riesz weight); its propensity bump is a seeded
    random pattern on the X cells, so each replication has its own bias.
    """
    spec, anchor = pre.spec, pre.anchor
    eps_gamma, eps_alpha = eps_pair
    pz = est.z_marginal(anchor, spec)

    def corrupt(values, role, eps, direction, p, limits=None):
        """``values`` moved eps along ``direction`` in L2(p); as is at eps 0."""
        if not eps:
            return values
        field = est.NuisanceField(p.space, values, role, limits)
        return dr.corrupt_nuisance(
            field, dr.CorruptionSpec(eps, direction, config.alignment), p).values

    dir_g = dir_a = None
    if eps_gamma or eps_alpha:
        dir_g, dir_a = _drawn(("pair", derived_seed), lambda: dr.corruption_directions(
            pz.space, config.alignment, derived_seed, riesz_weight=pre.alpha))
    gamma_hat = corrupt(pre.gamma, "gamma", eps_gamma, dir_g, pz)
    source = anchor if config.population else sample(anchor, n, derived_seed)

    if config.estimator == "dml":
        alpha_hat = corrupt(pre.alpha, "alpha", eps_alpha, dir_a, pz)
        estimate = dr.population_dml if config.population else dr.dml_estimate
        return estimate(source, gamma_hat, alpha_hat, spec), pre.oracle
    if config.estimator == "plugin":
        estimate = dr.population_plugin if config.population else dr.plugin_estimate
        return estimate(source, gamma_hat, spec), pre.oracle

    # the gamma field of ATE is the outcome regression
    g_hat = gamma_hat if eps_gamma else pre.extras["g_hat"]
    m_hat = pre.extras["m_hat"]
    if eps_alpha:
        p_x = grid_marginal(anchor, [0])
        dir_m = _drawn(("propensity", derived_seed), lambda: dr.corruption_directions(
            p_x.space, config.alignment, derived_seed)[1])
        m_hat = corrupt(m_hat, "propensity", eps_alpha, dir_m, p_x,
                        (config.overlap, 1.0 - config.overlap))
    estimate = dr.population_dr_ate if config.population else dr.dr_ate_estimate
    return estimate(source, g_hat, m_hat, config.overlap), pre.oracle


# The directions drawn so far in the running scan, by (field, derived seed);
# None outside ``run_rate_scan``.  A scan fixes the config and the preset, so
# a replication's directions depend on its seed alone and are drawn once.
_SCAN_DRAWS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "scan_draws", default=None)


def _drawn(key: tuple[str, int], draw):
    """``draw()``, kept under ``key`` for the rest of the running scan."""
    store = _SCAN_DRAWS.get()
    if store is None:
        return draw()
    if key not in store:
        store[key] = draw()
    return store[key]


def _hellinger_once(config: ExperimentConfig, pre: Preset,
                    m_pairs: int) -> tuple[float, float]:
    eps_m, eps_g = config.eps_fixed
    family = adversary.AteLocalFamily.balanced(
        pre.anchor.space, pre.extras["m_hat"], pre.extras["g_hat"],
        eps_m, eps_g, m_pairs)
    inst = bounds.TestingInstance(pre.anchor, family, pre.spec,
                                  n=min(config.n_fixed, 2))
    return bounds.product_mixture_hellinger(inst), 0.0


def run_rate_scan(config: ExperimentConfig) -> RateScanResult:
    """Run the configured sweep and fit the log-log slope of the median error.

    Sampled replications draw from their seeds; M-sweep ones draw nothing,
    since a balanced partition is seed-free.  A population one reads its
    seed only through corruption directions: none at eps (0, 0), seeded
    bumps under random alignment, and under adversarial alignment the
    seed-free Riesz weight but for DR's propensity bump (drawn when
    eps_alpha != 0).  Where the replications draw nothing from their seeds,
    replication 0 is evaluated once and its (point, oracle) goes into every
    record.  Each replication's directions are drawn once per scan, on its
    first evaluation, and every sweep point corrupts along them.  Two
    configs are refused before any preset is built: a sweep value <= 0,
    which has no logarithm (an eps-sweep's value is its eps_gamma), and a
    random-alignment plug-in eps-sweep on a kind with two Z axes (see the
    error for why).
    """
    sweep = config.sweep_name
    points = config.sweep_points()
    if points[0][0] <= 0:  # the sweep values increase, so the first is the least
        raise PreconditionError(
            f"{sweep}_sweep value {points[0][0]:g} is not > 0: a log-log slope "
            "needs positive sweep values, and an eps_sweep's value is its eps_gamma")
    if (sweep == "eps" and config.estimator == "plugin"
            and config.alignment == "random" and len(est.z_axes(config.kind)) > 1):
        raise PreconditionError(
            f"a random-alignment plug-in eps-sweep measures nothing on {config.kind}: "
            "random bumps are constant along the second Z axis, which its m1 cancels")
    pre = preset(config.kind, config.x_cells, config.d_cells, config.overlap)
    records, values, medians, means = [], [], [], []
    draws = _SCAN_DRAWS.set({})
    try:
        for value, eps_pair, n in points:
            errors = []
            seeded = sweep != "m" and (not config.population or (
                any(eps_pair) if config.alignment == "random"
                else config.estimator == "dr" and bool(eps_pair[1])))
            for rep in range(config.replications):
                derived = config.seed + rep
                if seeded or rep == 0:
                    point, oracle = (
                        _hellinger_once(config, pre, int(value)) if sweep == "m"
                        else estimate_once(config, pre, eps_pair, n, derived))
                # else replication 0's (point, oracle) stands for this one
                errors.append(abs(point - oracle))
                records.append({
                    "kind": config.kind,
                    "estimator": config.estimator,
                    "sweep": sweep,
                    "sweep_value": value,
                    "replication": rep,
                    "derived_seed": derived,
                    "n": n,
                    "eps_gamma": eps_pair[0],
                    "eps_alpha": eps_pair[1],
                    "alignment": config.alignment,
                    "population": config.population,
                    "point": point,
                    "oracle": oracle,
                    "abs_error": errors[-1],
                })
            values.append(value)
            medians.append(float(np.median(errors)))
            means.append(float(np.mean(errors)))
    finally:
        _SCAN_DRAWS.reset(draws)
    slope, stderr = fit_loglog_slope(values, medians)
    return RateScanResult(records, values, medians, means, slope, stderr)


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]
                     ) -> tuple[float, float]:
    """Least-squares slope of log y on log x with its standard error.

    Every x and every y must be positive: a zero sweep value or median
    |error| has no logarithm, so it raises rather than bending the fit.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        raise PreconditionError("a slope fit needs at least two sweep points")
    if not np.all(xs > 0):
        raise PreconditionError(
            f"sweep value {float(xs[np.argmin(xs > 0)])!r} is not > 0; "
            "a log-log slope needs positive sweep values")
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


def scatter_svg(result: RateScanResult) -> str:
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
        f'<text x="{width/2}" y="24" text-anchor="middle">scan: slope '
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


def emit(result: RateScanResult, fmt: str, out_dir: str | Path) -> Path:
    """Write the records to scan.<fmt> in ``out_dir``; returns the file path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        text = records_to_csv(result.records)
    elif fmt == "json":
        text = json.dumps(result.to_json(), indent=2)
    elif fmt == "svg":
        text = scatter_svg(result)
    else:
        raise PreconditionError(f"unknown emit format {fmt!r}")
    path = out / f"scan.{fmt}"
    path.write_text(text)
    return path
