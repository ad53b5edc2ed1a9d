import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from debias_lab import estimands as est, harness
from debias_lab.errors import NoConvergenceError, PreconditionError
from debias_lab.harness import (
    ExperimentConfig,
    emit,
    fit_loglog_slope,
    records_to_csv,
    run_rate_scan,
)


def eps_config(**kw):
    base = dict(kind="ate", estimator="dml",
                eps_sweep=((0.05, 0.05), (0.1, 0.1), (0.2, 0.2), (0.4, 0.4)),
                replications=16, seed=0, population=True, x_cells=32)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(PreconditionError):
        ExperimentConfig(kind="ate")  # no sweep
    with pytest.raises(PreconditionError):
        ExperimentConfig(kind="ate", n_sweep=(100, 100))  # not increasing
    with pytest.raises(PreconditionError):
        ExperimentConfig(kind="ate", n_sweep=(10, 100), replications=4)
    with pytest.raises(PreconditionError):
        ExperimentConfig(kind="ate", n_sweep=(10, 100), estimator="magic")
    with pytest.raises(PreconditionError, match="ATE family"):
        ExperimentConfig(kind="wad", m_sweep=(2, 4))  # before any preset is built
    with pytest.raises(PreconditionError):
        ExperimentConfig(kind="ate", n_sweep=(10, 100),
                         eps_sweep=((0.1, 0.1),))  # two sweeps


def test_config_rejects_population_n_sweep():
    # population estimates ignore n: every replication would give error 0
    with pytest.raises(PreconditionError, match="population"):
        ExperimentConfig(kind="ate", population=True, n_sweep=(100, 1000))


@pytest.mark.parametrize("kind", ["lod", "ecc_plm", "ds", "wad", "ape"])
def test_config_rejects_dr_off_ate(kind):
    with pytest.raises(PreconditionError, match="ATE"):
        ExperimentConfig(kind=kind, estimator="dr", n_sweep=(100, 1000))


def test_config_json_round_trip():
    config = eps_config()
    back = ExperimentConfig.from_json(json.loads(json.dumps(config.to_json())))
    assert back == config


def test_config_accepts_whole_float_sweep_entries_and_any_number_eps_fixed():
    config = ExperimentConfig.from_json(
        {"kind": "ate", "n_sweep": [10.0, 100], "eps_fixed": [0.2, 1]})
    assert [n for _, _, n in config.sweep_points()] == [10, 100]
    assert config.eps_fixed == (0.2, 1)


def test_config_json_defaults_and_unknown_keys():
    defaults = ExperimentConfig(kind="ate", n_sweep=(10, 100))
    assert ExperimentConfig.from_json({"kind": "ate", "n_sweep": [10, 100]}) == defaults
    # the retired "folds" and any other unknown key are read and ignored
    doc = {"kind": "ate", "n_sweep": [10, 100], "folds": 5, "colour": "blue"}
    assert ExperimentConfig.from_json(doc) == defaults


def test_population_dml_eps_slope_two():
    result = run_rate_scan(eps_config())
    assert abs(result.slope - 2.0) <= 0.05


def test_population_plugin_eps_slope_one():
    result = run_rate_scan(eps_config(estimator="plugin"))
    assert abs(result.slope - 1.0) <= 0.1


def test_sampled_dr_n_sweep_slope_half():
    config = ExperimentConfig(kind="ate", estimator="dr",
                              n_sweep=(1000, 10_000, 100_000),
                              replications=16, seed=0, x_cells=64)
    result = run_rate_scan(config)
    assert abs(result.slope + 0.5) <= 0.15


def test_m_sweep_h2_decreases():
    config = ExperimentConfig(kind="ate", estimator="dml",
                              m_sweep=(2, 4, 8), replications=16, seed=0,
                              x_cells=12, eps_fixed=(0.1, 0.1), n_fixed=2)
    result = run_rate_scan(config)
    assert result.medians[0] > result.medians[1] > result.medians[2]
    assert result.slope < 0


def test_bit_reproducibility():
    a = records_to_csv(run_rate_scan(eps_config()).records)
    b = records_to_csv(run_rate_scan(eps_config()).records)
    assert a == b


def test_replication_order_invariance():
    result = run_rate_scan(eps_config())
    values = result.sweep_values
    shuffled = list(result.records)
    rng = np.random.default_rng(0)
    rng.shuffle(shuffled)
    medians = [float(np.median([r["abs_error"] for r in shuffled
                                if r["sweep_value"] == v])) for v in values]
    slope, _ = fit_loglog_slope(values, medians)
    assert abs(slope - result.slope) <= 1e-12


@pytest.mark.parametrize("kind, estimator, alignment, grids", [
    ("wad", "dml", "random", 1), ("ate", "dr", "adversarial", 2)])
def test_eps_sweep_draws_directions_once_per_replication(monkeypatch, kind, estimator,
                                                          alignment, grids):
    """A replication's corruption directions depend on its seed alone, so a
    scan draws them once per replication and grid, not at every sweep point;
    each record equals the estimate at fields built on the full grid."""
    from debias_lab import estimators as dr
    from debias_lab.grid import marginal
    from debias_lab.presets import preset

    real = dr.corruption_directions
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dr, "corruption_directions", counted)
    config = eps_config(kind=kind, estimator=estimator, alignment=alignment, d_cells=16,
                        eps_sweep=((0.05, 0.05), (0.1, 0.1), (0.2, 0.2)))
    result = run_rate_scan(config)
    assert len(calls) == grids * config.replications

    def corrupted(truth, direction, eps, p):
        full = np.broadcast_to(direction, p.space.shape)
        norm = np.sqrt(np.sum(p.values * (full * full)) * p.space.atom_weight)
        return truth + eps * (full / norm)

    pre = preset(kind, x_cells=32, d_cells=16)
    pz = est.z_marginal(pre.anchor, pre.spec)
    p_x = marginal(pre.anchor, [0])
    for rec in result.records:
        eps_g, eps_a, seed = rec["eps_gamma"], rec["eps_alpha"], rec["derived_seed"]
        dir_g, dir_a = real(pz.space, alignment, seed, riesz_weight=pre.alpha)
        gamma_hat = corrupted(pre.gamma, dir_g, eps_g, pz)
        if estimator == "dml":
            alpha_hat = corrupted(pre.alpha, dir_a, eps_a, pz)
            expected = dr.population_dml(pre.anchor, gamma_hat, alpha_hat, pre.spec)
        else:
            dir_m = real(p_x.space, alignment, seed)[1]
            m_hat = corrupted(pre.extras["m_hat"], dir_m, eps_a, p_x)
            expected = dr.population_dr_ate(pre.anchor, gamma_hat, m_hat, config.overlap)
        assert rec["point"] == expected


@pytest.mark.parametrize("alignment", ["adversarial", "random"])
@pytest.mark.parametrize("estimator", ["dml", "plugin", "dr"])
def test_population_scan_records_equal_a_loop_of_estimate_once(estimator, alignment):
    """Replications that share one evaluation keep every record field as a
    replication-by-replication loop of estimate_once writes it."""
    from debias_lab.presets import preset

    kind = "ate" if estimator == "dr" else "ds"  # random bumps leave ATE's plug-in exact
    config = eps_config(kind=kind, estimator=estimator, alignment=alignment,
                        eps_sweep=((0.05, 0.05), (0.1, 0.1), (0.2, 0.2)))
    pre = preset(kind, x_cells=32)
    expected = []
    for value, eps_pair, n in config.sweep_points():
        for rep in range(config.replications):
            point, oracle = harness.estimate_once(config, pre, eps_pair, n,
                                                  config.seed + rep)
            expected.append({
                "kind": kind, "estimator": estimator, "sweep": "eps",
                "sweep_value": value, "replication": rep,
                "derived_seed": config.seed + rep, "n": n,
                "eps_gamma": eps_pair[0], "eps_alpha": eps_pair[1],
                "alignment": alignment, "population": True,
                "point": point, "oracle": oracle, "abs_error": abs(point - oracle),
            })
    assert run_rate_scan(config).records == expected
    if (estimator, alignment) == ("dr", "adversarial"):
        # the propensity bump is drawn from the seed, so points differ
        assert len({r["point"] for r in expected[:config.replications]}) > 1


@pytest.mark.parametrize("estimator, alignment, function, per_point", [
    ("dml", "adversarial", "population_dml", 1),
    ("dml", "random", "population_dml", 16),
    ("plugin", "adversarial", "population_plugin", 1),
    ("dr", "adversarial", "population_dr_ate", 16),
])
def test_population_scan_evaluations_per_sweep_point(monkeypatch, estimator, alignment,
                                                     function, per_point):
    """A sweep point whose replications draw nothing from their seeds is
    evaluated once; one that draws directions, once per replication."""
    from debias_lab import estimators

    calls = []
    real = getattr(estimators, function)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(estimators, function, counted)
    config = eps_config(estimator=estimator, alignment=alignment,
                        eps_sweep=((0.05, 0.05), (0.1, 0.1), (0.2, 0.2)))
    run_rate_scan(config)
    assert len(calls) == per_point * len(config.eps_sweep)


@pytest.mark.parametrize("estimator, x_cells", [("dml", 40), ("dr", 44), ("plugin", 52)])
def test_sampled_n_sweep_builds_one_score_table(monkeypatch, estimator, x_cells):
    """Every replication of an n-sweep scores the same fields, so the scan
    builds one per-atom score table and samples once per replication.  The
    grid sizes are used by no other test, so no kept table leaks in."""
    from debias_lab import estimands

    calls = []
    real = estimands.m1_rows

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(estimands, "m1_rows", counted)
    config = ExperimentConfig(kind="ate", estimator=estimator, n_sweep=(1000, 4000, 16000),
                              replications=16, seed=3, x_cells=x_cells)
    records = run_rate_scan(config).records
    assert len(calls) == 1
    assert len({r["point"] for r in records}) == len(records)


def test_m_sweep_evaluates_each_sweep_point_once(monkeypatch):
    """A balanced partition is seed-free, so an M-sweep point's replications
    share one exact-bound evaluation and keep their own records."""
    from debias_lab import bounds

    calls = []
    real = bounds.product_mixture_hellinger

    def counted(inst):
        calls.append(inst)
        return real(inst)

    monkeypatch.setattr(bounds, "product_mixture_hellinger", counted)
    config = ExperimentConfig(kind="ate", m_sweep=(2, 4), replications=16, seed=5,
                              x_cells=12, eps_fixed=(0.1, 0.1), n_fixed=2)
    records = run_rate_scan(config).records
    assert len(calls) == len(config.m_sweep)
    assert [(r["replication"], r["derived_seed"]) for r in records] == [
        (rep, 5 + rep) for _ in config.m_sweep for rep in range(16)]
    for point in (records[:16], records[16:]):
        assert len({r["point"] for r in point}) == 1


@pytest.mark.parametrize("kind, code", [("ate", 2), ("lod", 2), ("wad", 2), ("ape", 2),
                                        ("ds", 0), ("ecc_plm", 0)])
def test_random_plugin_eps_sweep_needs_one_z_axis(tmp_path, capsys, monkeypatch,
                                                  kind, code):
    """Random bumps are constant along the second Z axis, which the m1 of ATE,
    LOD, WAD and APE cancels: those scans exit 2 before building a preset."""
    from debias_lab import cli

    built = []
    real = harness.preset

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "preset", counted)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "kind": kind, "estimator": "plugin", "alignment": "random",
        "population": True, "eps_sweep": [[0.05, 0.05], [0.1, 0.1]],
        "replications": 16, "x_cells": 16, "d_cells": 8}))
    assert cli.main(["scan", "--config", str(path), "--out", str(tmp_path)]) == code
    assert len(built) == (code == 0)
    if code:
        assert "constant along the second Z axis" in capsys.readouterr().err


def test_csv_round_trip():
    """scan.csv read back by csv.DictReader gives every record: each float
    column exactly, the others as their text."""
    result = run_rate_scan(eps_config(replications=16))
    rows = list(csv.DictReader(io.StringIO(records_to_csv(result.records))))
    assert len(rows) == len(result.records)
    for row, rec in zip(rows, result.records):
        assert tuple(row) == harness.CSV_COLUMNS
        for key in harness.CSV_COLUMNS:
            if isinstance(rec[key], bool):
                assert row[key] == str(rec[key]).lower()
            elif isinstance(rec[key], float):
                assert float(row[key]) == rec[key]
            else:
                assert row[key] == str(rec[key])


def test_emit_formats(tmp_path):
    result = run_rate_scan(eps_config())
    csv_path = emit(result, "csv", tmp_path)
    assert csv_path.read_text().startswith(",".join(harness.CSV_COLUMNS[:3]))
    json_path = emit(result, "json", tmp_path)
    doc = json.loads(json_path.read_text())
    assert doc["slope"] == pytest.approx(result.slope)
    svg_path = emit(result, "svg", tmp_path)
    svg = svg_path.read_text()
    assert svg.count("<path") == 1
    assert "log10 sweep value" in svg and "log10 |error|" in svg


def test_emit_rejects_empty():
    with pytest.raises(PreconditionError):
        records_to_csv([])


def test_fit_loglog_slope_exact_line():
    xs = [1.0, 2.0, 4.0, 8.0]
    ys = [3.0 * x ** -0.5 for x in xs]
    slope, stderr = fit_loglog_slope(xs, ys)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert stderr <= 1e-12


def test_fit_loglog_slope_rejects_zero_median():
    with pytest.raises(PreconditionError, match="sweep value 4.0"):
        fit_loglog_slope([1.0, 2.0, 4.0], [0.5, 0.25, 0.0])
    # population DML at the exact nuisances has exactly zero error, but its
    # sweep value eps_gamma = 0 is refused before the scan runs
    config = ExperimentConfig(kind="ate", estimator="dml", population=True,
                              eps_sweep=((0.0, 0.0), (0.1, 0.1)), replications=16,
                              x_cells=8)
    with pytest.raises(PreconditionError, match="eps_sweep value 0 is not > 0"):
        run_rate_scan(config)


@pytest.mark.parametrize("xs", [[0.0, 1.0, 2.0], [-1.0, 1.0, 2.0], [1.0, np.nan, 2.0]])
def test_fit_loglog_slope_rejects_a_nonpositive_sweep_value(xs):
    with pytest.raises(PreconditionError, match="positive sweep values"):
        fit_loglog_slope(xs, [1.0, 0.5, 0.25])


# -----------------------------------------------------------------------------
# CLI
# -----------------------------------------------------------------------------

def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "debias_lab.cli", *args],
                          capture_output=True, text=True)


def test_cli_estimate_json_and_csv(tmp_path):
    csv_path = tmp_path / "est.csv"
    out = run_cli("estimate", "--kind", "ate", "--n", "2000", "--seed", "3",
                  "--x-cells", "32", "--csv", str(csv_path))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["n"] == 2000 and doc["seed"] == 3
    header = csv_path.read_text().splitlines()[0]
    assert header == "kind,n,seed,eps_gamma,eps_alpha,alignment,point,oracle,abs_error"


def test_cli_scan_and_partition(tmp_path):
    config = {"kind": "ate", "estimator": "dml", "population": True,
              "eps_sweep": [[0.1, 0.1], [0.2, 0.2]], "replications": 16,
              "seed": 0, "x_cells": 32}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = run_cli("scan", "--config", str(cfg), "--out", str(tmp_path),
                  "--format", "json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert abs(doc["slope"] - 2.0) <= 0.05

    out = run_cli("partition", "--cells", "64", "--blocks", "8",
                  "--weights", "uniform", "linear")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert len(doc["blocks"]) == 8
    assert all(share == 1.0 for block in doc["blocks"] for _, share in block)

    out = run_cli("partition", "--weights", "bogus")
    assert out.returncode == 2


def test_cli_hellinger_keys():
    out = run_cli("hellinger", "--kind", "ate", "--n", "2", "--m-pairs", "4",
                  "--x-cells", "12")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    for key in ("h2", "b", "bound", "fano_risk", "optimal_test_error"):
        assert key in doc
    assert doc["optimal_test_error"] >= doc["fano_risk"]


@pytest.mark.parametrize("kind", est.KINDS)
def test_cli_adversary_report(kind):
    out = run_cli("adversary", "--kind", kind, "--x-cells", "32", "--d-cells", "16")
    assert out.returncode == 0
    pairs = json.loads(out.stdout)["directions"]
    if kind == est.APE:  # estimation only: no direction pair
        assert "unavailable" in pairs["gamma"] and "unavailable" in pairs["alpha"]
        return
    for pair in pairs.values():
        assert pair["invariance_deviation"] <= 1e-10
        assert abs(pair["mixed_fd"] - pair["mixed_reference"]) \
            <= 1e-4 * abs(pair["mixed_reference"])
    assert "curvature_closed_form" in pairs["alpha"]


def test_population_dr_eps_sweep_bias_is_the_dr_product():
    """A population DR scan corrupts the outcome regression and the
    propensity; each record's bias is the exact DR product
    sum_x p_x (m - m_hat) [(g1 - g1_hat)/m_hat + (g0 - g0_hat)/(1 - m_hat)]."""
    from debias_lab import estimands as est, estimators as dr
    from debias_lab.presets import preset

    config = eps_config(estimator="dr", x_cells=64,
                        eps_sweep=((0.05, 0.05), (0.1, 0.1), (0.2, 0.2), (0.3, 0.3)))
    result = run_rate_scan(config)
    pre = preset("ate", x_cells=64)
    space = pre.anchor.space
    p_xd = pre.anchor.values.sum(axis=2)
    p_x = p_xd.sum(axis=1)
    m = p_xd[:, 1] / p_x
    g = pre.anchor.values[:, :, 1] / p_xd
    w_x = space.axes[0].cell_weight
    x_grid = est.z_space("ate", space).subgrid([0])
    # the adversarial gamma direction is the Riesz weight itself
    alpha_norm = np.sqrt(np.sum(pre.alpha ** 2 * p_xd) * w_x)
    assert len(result.records) == 64
    for rec in result.records:
        eps_g, eps_m, seed = rec["eps_gamma"], rec["eps_alpha"], rec["derived_seed"]
        g_hat = g + eps_g * pre.alpha / alpha_norm
        dir_m = dr.corruption_directions(x_grid, "adversarial", seed)[1]
        m_hat = m + eps_m * dir_m / np.sqrt(np.sum(dir_m ** 2 * p_x) * w_x)
        per_x = (m - m_hat) * ((g[:, 1] - g_hat[:, 1]) / m_hat
                               + (g[:, 0] - g_hat[:, 0]) / (1.0 - m_hat))
        bias = float(np.sum(p_x * per_x) * w_x)
        assert abs(bias) > 1e-4
        assert abs((rec["point"] - rec["oracle"]) - bias) <= 1e-10


@pytest.mark.parametrize("text, message", [
    (None, "cannot read scan config"),
    ('{"kind": "ate",', "not valid JSON"),
    ('[{"kind": "ate", "n_sweep": [10, 100]}]', "JSON object"),
    ('{"n_sweep": [10, 100]}', "'kind'"),
    ('{"kind": "ate", "n_sweep": "abc"}', "n_sweep"),
    ('{"kind": "ate", "population": true, "eps_sweep": [[0.1], [0.2]]}',
     "eps_sweep"),
    ('{"kind": "ate", "m_sweep": [2, 4], "eps_fixed": [0.1]}', "eps_fixed"),
    ('{"kind": "ate", "n_sweep": [10, 100], "replications": "abc"}',
     "'replications'"),
    ('{"kind": "ate", "n_sweep": [10, 100], "replications": 16.5}',
     "'replications'"),
    ('{"kind": "ate", "n_sweep": [10, 100], "x_cells": "8"}', "'x_cells'"),
    ('{"kind": "ate", "eps_sweep": [[0.1, 0.1], [0.2, 0.2]], "population": "no"}',
     "'population'"),
    ('{"kind": "ate", "n_sweep": [-10, 100], "x_cells": 8}', "n must be >= 0"),
    ('{"kind": "ate", "eps_sweep": [[0.1, 0.1], [0.2, 0.2]], "n_fixed": -3,'
     ' "x_cells": 8}', "n must be >= 0"),
    ('{"kind": "ate", "n_sweep": [10.5, 100], "x_cells": 8, "replications": 16}',
     "n_sweep entries must be whole numbers, not 10.5"),
    ('{"kind": "ate", "n_sweep": [10, true], "x_cells": 8, "replications": 16}',
     "n_sweep entries must be whole numbers, not True"),
    ('{"kind": "ate", "m_sweep": [2.5, 4], "x_cells": 8, "n_fixed": 2,'
     ' "replications": 16}', "m_sweep entries must be whole numbers, not 2.5"),
    ('{"kind": "ate", "m_sweep": [2, 4], "eps_fixed": ["a", 1], "x_cells": 8,'
     ' "n_fixed": 2, "replications": 16}', "eps_fixed entries must be numbers, not 'a'"),
    ('{"kind": "ate", "eps_sweep": [[0.1, 0.1], [0.2, 0.2]], "eps_fixed": ["a", 1],'
     ' "x_cells": 8, "replications": 16}', "eps_fixed entries must be numbers, not 'a'"),
    ('{"kind": "ate", "n_sweep": [10, 100], "eps_fixed": [0.1, false], "x_cells": 8,'
     ' "replications": 16}', "eps_fixed entries must be numbers, not False"),
    ('{"kind": "ate", "population": true, "eps_sweep": [[0.1, 0.1], [0.2, 0.2]],'
     ' "seed": -3, "x_cells": 8, "replications": 16}', "'seed' must be >= 0, not -3"),
    ('{"kind": "wad", "m_sweep": [2, 4]}', "the M sweep is defined for the ATE family"),
    ('{"kind": "ate", "population": true, "eps_sweep": [[0.1, 0.1], [Infinity, 0.1]],'
     ' "x_cells": 8, "replications": 16}',
     "eps_sweep entries must be finite and >= 0, not inf"),
    ('{"kind": "ate", "population": true, "eps_sweep": [[0.1, NaN], [0.2, 0.1]],'
     ' "x_cells": 8, "replications": 16}',
     "eps_sweep entries must be finite and >= 0, not nan"),
    ('{"kind": "ate", "population": true, "eps_sweep": [[0.1, -0.1], [0.2, 0.1]],'
     ' "x_cells": 8, "replications": 16}',
     "eps_sweep entries must be finite and >= 0, not -0.1"),
    ('{"kind": "ate", "m_sweep": [2, 4], "eps_fixed": [0.1, -0.05], "x_cells": 8,'
     ' "n_fixed": 2, "replications": 16}',
     "eps_fixed entries must be finite and >= 0, not -0.05"),
    ('{"kind": "ate", "m_sweep": [2, 4], "eps_fixed": [Infinity, 0.1], "x_cells": 8,'
     ' "n_fixed": 2, "replications": 16}',
     "eps_fixed entries must be finite and >= 0, not inf"),
    ('{"kind": "ate", "population": true, "eps_sweep": [[0.1, 0.1], [0.2, 0.2]],'
     ' "alignment": "sideways", "x_cells": 8, "replications": 16}',
     "config key 'alignment' must be 'adversarial' or 'random', not 'sideways'"),
    ('{"kind": "ate", "population": true, "eps_sweep": [["0.1", 0.1], [0.2, 0.2]],'
     ' "x_cells": 8, "replications": 16}',
     "eps_sweep entries must be numbers, not '0.1'"),
    ('{"kind": "ate", "population": true, "eps_sweep": [[0.1, 0.1], [true, 0.2]],'
     ' "x_cells": 8, "replications": 16}', "eps_sweep entries must be numbers, not True"),
    ('{"kind": "ate", "eps_sweep": [[0, 0], [0.1, 0.1]], "replications": 16,'
     ' "n_fixed": 1000, "x_cells": 16, "d_cells": 16}', "eps_sweep value 0 is not > 0"),
    ('{"kind": "ate", "population": true, "eps_sweep": [[0, 0.1], [0.1, 0.1]],'
     ' "x_cells": 8, "replications": 16}', "eps_sweep value 0 is not > 0"),
    ('{"kind": "ate", "n_sweep": [0, 100], "x_cells": 8, "replications": 16}',
     "n_sweep value 0 is not > 0"),
    ('{"kind": "ate", "m_sweep": [0, 2], "x_cells": 8, "n_fixed": 2,'
     ' "replications": 16}', "m_sweep value 0 is not > 0"),
], ids=["missing-file", "invalid-json", "top-level-list", "no-kind",
        "string-sweep", "eps-pair-of-one", "eps-fixed-of-one",
        "string-replications", "float-replications", "string-x-cells",
        "string-population", "negative-n-sweep", "negative-n-fixed",
        "fractional-n-sweep", "bool-n-sweep", "fractional-m-sweep",
        "string-eps-fixed-m-sweep", "string-eps-fixed-eps-sweep", "bool-eps-fixed",
        "negative-seed", "non-ate-m-sweep", "infinite-eps-sweep", "nan-eps-sweep",
        "negative-eps-sweep", "negative-eps-fixed", "infinite-eps-fixed",
        "unknown-alignment", "string-eps-sweep", "bool-eps-sweep", "zero-eps-sweep",
        "zero-population-eps-sweep", "zero-n-sweep", "zero-m-sweep"])
def test_cli_scan_malformed_config_exits_two(tmp_path, capsys, monkeypatch, text,
                                             message):
    from debias_lab import cli

    built = []
    real = harness.preset

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "preset", counted)
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["scan", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert built == []


def test_cli_estimate_negative_seed_exits_two(tmp_path, capsys):
    from debias_lab import cli

    argv = ["estimate", "--kind", "ate", "--seed", "-1", "--x-cells", "8",
            "--csv", str(tmp_path / "est.csv")]
    assert cli.main(argv) == 2
    assert "'seed' must be >= 0, not -1" in capsys.readouterr().err
    assert not (tmp_path / "est.csv").exists()


def test_cli_estimate_validates_before_building_the_preset(tmp_path, capsys, monkeypatch):
    from debias_lab import cli

    built = []
    real = cli.preset

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "preset", counted)
    argv = ["estimate", "--kind", "wad", "--eps-gamma", "inf",
            "--csv", str(tmp_path / "est.csv")]
    assert cli.main(argv) == 2
    assert "eps_sweep entries must be finite and >= 0, not inf" in capsys.readouterr().err
    assert built == []
    assert not (tmp_path / "est.csv").exists()


def test_cli_huge_n_exits_two(tmp_path, capsys):
    from debias_lab import cli

    path = tmp_path / "config.json"
    path.write_text('{"kind": "ate", "n_sweep": [1000, 9223372036854775808],'
                    ' "x_cells": 8, "replications": 16}')
    assert cli.main(["scan", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "int64 limit" in capsys.readouterr().err
    argv = ["estimate", "--kind", "ate", "--n", str(2 ** 63), "--x-cells", "8",
            "--csv", str(tmp_path / "est.csv")]
    assert cli.main(argv) == 2
    assert "int64 limit" in capsys.readouterr().err
    assert not (tmp_path / "est.csv").exists()


def test_cli_hellinger_rejects_non_ate_kind(capsys):
    from debias_lab import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["hellinger", "--kind", "wad"])
    assert exc.value.code == 2
    assert "invalid choice: 'wad'" in capsys.readouterr().err


@pytest.mark.parametrize("blocks", [3, 5, 9])
def test_cli_partition_odd_block_count_exits_two(capsys, blocks):
    from debias_lab import cli

    assert cli.main(["partition", "--cells", "16", "--blocks", str(blocks)]) == 2
    assert f"--blocks must be even, not {blocks}" in capsys.readouterr().err


def test_cli_exit_code_three_on_no_convergence(monkeypatch):
    from debias_lab import cli

    def boom(args):
        raise NoConvergenceError("stuck", 0.5)

    parser_args = ["scan", "--config", "nope.json"]
    monkeypatch.setattr(cli, "_cmd_scan", boom)
    assert cli.main(parser_args) == 3
