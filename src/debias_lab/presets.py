"""Ready-made anchors per estimand, shared by the harness, CLI and demos.

Each preset bundles the observation grid, the estimand spec, the anchor
density, the true nuisance fields at the anchor, and the oracle value of the
functional.  Anchors are smooth, satisfy comfortable overlap, and keep the
X marginal uniform (which the ATE local-alternative construction requires).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimands as est
from .errors import PreconditionError
from .estimands import DsParams, EstimandSpec
from .grid import Density


@dataclass(frozen=True)
class Preset:
    spec: EstimandSpec
    anchor: Density
    gamma: np.ndarray
    alpha: np.ndarray
    oracle: float
    extras: dict


def preset(kind: str, x_cells: int = 256, d_cells: int = 64,
           overlap: float = 0.05) -> Preset:
    space = est.make_space(kind, x_cells, d_cells)
    x = space.coords(0)
    extras: dict = {}
    if kind == est.ATE:
        m_hat = 0.35 + 0.3 * x
        g_hat = np.stack([0.25 + 0.2 * x, 0.45 + 0.3 * x], axis=1)
        anchor = est.ate_joint(space, m_hat, g_hat)
        spec = EstimandSpec(est.ATE, overlap=overlap)
        extras = {"m_hat": m_hat, "g_hat": g_hat}
    elif kind == est.LOD:
        m_hat = np.full(x.size, 0.5)
        g_hat = np.stack([np.full(x.size, 0.45), np.full(x.size, 0.7)], axis=1)
        anchor = est.ate_joint(space, m_hat, g_hat)
        spec = EstimandSpec(est.LOD, overlap=overlap)
        extras = {"m_hat": m_hat, "g_hat": g_hat}
    elif kind == est.ECC_PLM:
        g = 0.4 + 0.2 * x
        theta = 0.15
        q = (0.3 + 0.2 * x) + theta * g
        anchor = est.plm_joint(space, g, q, theta)
        spec = EstimandSpec(est.ECC_PLM, overlap=overlap)
        extras = {"g": g, "q": q, "theta": theta}
    elif kind == est.DS:
        q = 0.3 + 0.4 * x
        f1 = np.ones(x.size)
        f2_raw = 0.6 + 0.8 * x
        f2 = f2_raw / (f2_raw.sum() * space.axes[0].cell_weight)
        spec = EstimandSpec(est.DS, DsParams(f1, f2), overlap=overlap)
        anchor = est.ds_joint(space, q)
    elif kind == est.WAD:
        d = space.coords(1)
        g = 0.3 + 0.2 * d[None, :] + 0.1 * x[:, None]
        anchor = est.dose_joint(space, np.ones((x.size, d.size)), g)
        spec = EstimandSpec(est.WAD, est.wad_weight(space), overlap=overlap)
    elif kind == est.APE:
        d = space.coords(1)
        f_d = 1.0 + 0.5 * np.cos(np.pi * d)
        g = 0.35 + 0.25 * d[None, :] + 0.1 * x[:, None]
        anchor = est.dose_joint(space, np.tile(f_d, (x.size, 1)), g)
        spec = EstimandSpec(est.APE, est.ape_reversal(space), overlap=overlap)
    else:
        raise PreconditionError(f"unknown estimand kind {kind!r}")
    gamma, alpha = est.nuisances_of(anchor, spec)
    oracle = est.functional_value(anchor, spec)
    return Preset(spec, anchor, gamma.values, alpha.values, oracle, extras)
