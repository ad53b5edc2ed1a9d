import json
import subprocess
import sys

import numpy as np
import pytest

from debias_lab import harness
from debias_lab.errors import NoConvergenceError, PreconditionError
from debias_lab.harness import (
    ExperimentConfig,
    RateScanResult,
    emit,
    fit_loglog_slope,
    records_from_csv,
    records_to_csv,
    run_rate_scan,
    scatter_svg,
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
    with pytest.raises(PreconditionError):
        ExperimentConfig(kind="ate", n_sweep=(10, 100),
                         eps_sweep=((0.1, 0.1),))  # two sweeps


def test_config_json_round_trip():
    config = eps_config()
    back = ExperimentConfig.from_json(json.loads(json.dumps(config.to_json())))
    assert back == config


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


def test_csv_round_trip():
    result = run_rate_scan(eps_config(replications=16))
    text = records_to_csv(result.records)
    back = records_from_csv(text)
    assert len(back) == len(result.records)
    for a, b in zip(back, result.records):
        for key in harness.CSV_COLUMNS:
            if isinstance(b[key], float):
                assert a[key] == pytest.approx(b[key], abs=0)
            else:
                assert str(a[key]) == str(b[key]) or a[key] == b[key]


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
    # population DML at the exact nuisances has exactly zero error
    config = ExperimentConfig(kind="ate", estimator="dml", population=True,
                              n_sweep=(100, 1000), replications=16, x_cells=8)
    with pytest.raises(PreconditionError, match="median"):
        run_rate_scan(config)


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


def test_cli_adversary_report():
    out = run_cli("adversary", "--kind", "lod", "--x-cells", "32")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["directions"]["alpha"]["invariance_deviation"] <= 1e-10
    assert "curvature_closed_form" in doc["directions"]["alpha"]


def test_cli_exit_code_three_on_no_convergence(monkeypatch):
    from debias_lab import cli

    def boom(args):
        raise NoConvergenceError("stuck", 0.5)

    parser_args = ["scan", "--config", "nope.json"]
    monkeypatch.setattr(cli, "_cmd_scan", boom)
    assert cli.main(parser_args) == 3
