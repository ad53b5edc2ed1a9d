"""What the tests assert about each estimand kind, one row per kind.

The facts are written out by hand, not read from ``estimands.KIND_TABLE``;
the tests read that table only to build inputs (a kind's grid and axes).  A
new kind needs a row here and no edit to an existing test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from debias_lab import estimands as est
from debias_lab.estimands import ApeParams, DsParams, EstimandSpec, WadParams
from debias_lab.grid import integrate

# Random-anchor recipes (rng, space, p_x) -> anchor, with fields bounded away
# from 0 and 1, and random-params recipes (rng, grid shape) -> params.


def _treatment(rng, space, p_x):
    m = rng.uniform(0.2, 0.8, space.shape[0])
    return est.ate_joint(space, m, rng.uniform(0.2, 0.8, space.shape[:2]), p_x)


def _plm(rng, space, p_x):  # the PLM law keeps X uniform
    n = space.shape[0]
    g = rng.uniform(0.2, 0.8, n)
    theta = rng.uniform(-0.3, 0.3)
    f = rng.uniform(0.35, 0.65, n)
    return est.plm_joint(space, g, f + theta * g, theta)


def _ds(rng, space, p_x):
    return est.ds_joint(space, rng.uniform(0.2, 0.8, space.shape[0]), p_x)


def _dose(rng, space, p_x):
    f_d = rng.uniform(0.5, 1.5, space.shape[:2])
    return est.dose_joint(space, f_d, rng.uniform(0.2, 0.8, space.shape[:2]), p_x)


def _ds_params(rng, shape):
    return DsParams(rng.uniform(0.5, 1.5, shape[0]), rng.uniform(0.5, 1.5, shape[0]))


def _wad_params(rng, shape):
    omega = np.zeros(shape[1])
    omega[1:-1] = rng.uniform(0.5, 1.5, shape[1] - 2)
    omega *= shape[1] / omega.sum()
    return WadParams(omega, rng.standard_normal(shape[1]))


def _ape_params(rng, shape):  # the identity or the reversal of the D cells
    cells = np.arange(shape[1])
    return ApeParams(cells if rng.integers(2) else cells[::-1])


@dataclass(frozen=True)
class Facts:
    anchor: Callable  # the random-anchor recipe
    params: Callable | None = None  # the random-params recipe
    log_odds: bool = False  # gamma is a log-odds: no mixed-bias form
    offset: Callable = lambda space: 0.0  # space -> the offset field
    sign: int = 1  # chi = E[offset] + sign * E[m1]
    propensity_alpha: bool = False  # alpha(x, d) = d/pi - (1-d)/(1-pi)
    directions: str | None = None  # "slice", "plm", or None: no construction
    refuses_random_plugin_sweep: bool = False  # m1 cancels bumps constant along Z2


FACTS = {
    "ate": Facts(_treatment, propensity_alpha=True, directions="slice",
                 refuses_random_plugin_sweep=True),
    "ecc_plm": Facts(_plm, sign=-1, directions="plm",
                     offset=lambda s: s.coords(1)[None, :, None] * s.coords(2)[None, None, :]),
    "ds": Facts(_ds, _ds_params, directions="slice"),
    "wad": Facts(_dose, _wad_params, directions="slice", refuses_random_plugin_sweep=True),
    "ape": Facts(_dose, _ape_params, refuses_random_plugin_sweep=True),
    "lod": Facts(_treatment, log_odds=True, propensity_alpha=True, directions="slice",
                 refuses_random_plugin_sweep=True),
}
AFFINE_KINDS = tuple(k for k, f in FACTS.items() if not f.log_odds)
DIRECTION_KINDS = tuple(k for k, f in FACTS.items() if f.directions)
SLICE_KINDS = tuple(k for k, f in FACTS.items() if f.directions == "slice")
AFFINE_DIRECTION_KINDS = tuple(k for k in DIRECTION_KINDS if k in AFFINE_KINDS)
TREATMENT_KINDS = tuple(k for k, f in FACTS.items() if f.anchor is _treatment)


def random_anchor(kind, x_cells, d_cells, seed, p_x_max=1.5, params=None):
    """(spec, anchor) from random fields and a random X marginal on
    [0.5, p_x_max); the kind's params are drawn unless given."""
    rng = np.random.default_rng(seed)
    space = est.make_space(kind, x_cells, d_cells)
    facts = FACTS[kind]
    anchor = facts.anchor(rng, space, rng.uniform(0.5, p_x_max, x_cells))
    if params is None and facts.params is not None:
        params = facts.params(rng, space.shape)
    return EstimandSpec(kind, params), anchor


def random_fields(kind, z_shape, rng):
    """(gamma_hat, alpha_hat) on a Z grid from a generator or a seed; gamma_hat
    is a mean in (0.2, 0.8), as a log-odds for a log-odds kind."""
    rng = np.random.default_rng(rng)
    gamma_hat = rng.uniform(0.2, 0.8, z_shape)
    if FACTS[kind].log_odds:
        gamma_hat = np.log(gamma_hat / (1.0 - gamma_hat))
    return gamma_hat, rng.standard_normal(z_shape)


def mixed_bias_target(kind, anchor, chi):
    """What ``mixed_bias_value`` equals: sign * (chi - E[offset]), so chi
    itself, or E[offset] - chi."""
    return FACTS[kind].sign * (chi - integrate(anchor, FACTS[kind].offset(anchor.space)))
