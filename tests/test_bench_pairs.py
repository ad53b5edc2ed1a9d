"""The BENCH writer's summary of alternating parent/change runs, on synthetic
run results (no perfbench process is started)."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def fake_run(wall, success=1.0, failed=0, correct=True):
    values = {"wall_s": wall, "op_p50_ms": 10 * wall, "op_p90_ms": 20 * wall,
              "setup_s": 0.15, "peak_rss_mb": 88.0, "success_rate": success}
    return {
        "metadata": {"reference_ms": 1.5,
                     "unscaled": {"wall_s": wall / 2, "op_p50_ms": 5 * wall,
                                  "op_p90_ms": 10 * wall, "setup_s": 0.2}},
        "result": {"correct": correct, "attempted": 100, "failed": failed,
                   "metrics": {name: {"value": v} for name, v in values.items()}},
    }


def fake_pairs(parent_walls, change_walls, **change_kw):
    return [{"seed": 500 + i, "first": "parent" if i % 2 == 0 else "change",
             "parent": fake_run(p), "change": fake_run(c, **change_kw)}
            for i, (p, c) in enumerate(zip(parent_walls, change_walls))]


def test_summary_of_a_clear_gain():
    parent = [0.26, 0.25, 0.27, 0.26, 0.25, 0.26, 0.27, 0.26, 0.25, 0.26]
    change = [0.22, 0.23, 0.22, 0.26, 0.22, 0.23, 0.22, 0.21, 0.22, 0.23]
    summary = bench_pairs.summarize(fake_pairs(parent, change), END_TO_END)
    wall = summary["metrics"]["wall_s"]
    assert summary["seeds"] == list(range(500, 510)) and summary["all_correct"]
    assert wall["parent_median"] == pytest.approx(0.26)
    assert wall["change_median"] == pytest.approx(0.22)
    assert wall["parent_quartiles"] == pytest.approx([0.2525, 0.26])
    assert (wall["change_wins"], wall["ties"], wall["pairs"]) == (9, 1, 10)
    assert wall["worse_by"] == pytest.approx(-0.04 / 0.26)
    assert wall["within_bound"] and wall["medians_differ_by_more_than_parent_iqr"]
    assert wall["first_in_pair"][:3] == ["parent", "change", "parent"]
    assert wall["pairs_parent_change"][3] == [0.26, 0.26]
    assert bench_pairs.claim_met(summary, "wall_s", 0.1)
    assert not bench_pairs.claim_met(summary, "wall_s", 0.2)  # a 15% gain is not a 20% one
    # the other metrics: unchanged reads as all ties, not as wins
    rss = summary["metrics"]["peak_rss_mb"]
    assert (rss["change_wins"], rss["ties"], rss["worse_by"]) == (0, 10, 0.0)
    assert summary["unscaled"]["wall_s"]["change_median"] == pytest.approx(0.11)
    assert summary["reference_ms_pairs"] == [[1.5, 1.5]] * 10


def test_summary_reads_higher_is_better_and_failures():
    parent = [0.25] * 4
    summary = bench_pairs.summarize(fake_pairs(parent, parent, success=0.98, failed=2),
                                    END_TO_END)
    success = summary["metrics"]["success_rate"]
    assert success["worse_by"] == pytest.approx(0.02)
    assert not success["within_bound"]  # the bound is 0.01
    assert summary["failed_ops"] == {"parent": [0] * 4, "change": [2] * 4}
    assert not bench_pairs.claim_met(summary, "wall_s", 0.0)


def test_a_narrow_win_inside_the_parent_spread_is_no_claim():
    parent = [0.20, 0.30, 0.20, 0.30, 0.20, 0.30, 0.20, 0.30, 0.20, 0.30]
    change = [p - 0.001 for p in parent]
    summary = bench_pairs.summarize(fake_pairs(parent, change), END_TO_END)
    wall = summary["metrics"]["wall_s"]
    assert wall["change_wins"] == 10
    assert not wall["medians_differ_by_more_than_parent_iqr"]
    assert not bench_pairs.claim_met(summary, "wall_s", 0.0)


CLEAR_GAIN = ([0.26, 0.25, 0.27, 0.26, 0.25, 0.26, 0.27, 0.26, 0.25, 0.26],
              [0.22, 0.23, 0.22, 0.21, 0.22, 0.23, 0.22, 0.21, 0.22, 0.23])


def test_a_gain_with_more_failed_ops_is_no_claim():
    summary = bench_pairs.summarize(fake_pairs(*CLEAR_GAIN, failed=1), END_TO_END)
    assert summary["metrics"]["wall_s"]["change_wins"] == 10
    assert not bench_pairs.claim_met(summary, "wall_s", 0.0)
    assert bench_pairs.claim_met(bench_pairs.summarize(fake_pairs(*CLEAR_GAIN), END_TO_END),
                                 "wall_s", 0.0)


def test_a_gain_from_an_incorrect_run_is_no_claim():
    summary = bench_pairs.summarize(fake_pairs(*CLEAR_GAIN, correct=False), END_TO_END)
    assert not summary["all_correct"]
    assert not bench_pairs.claim_met(summary, "wall_s", 0.0)


def test_a_gain_over_five_pairs_is_no_claim():
    parent, change = (walls[:5] for walls in CLEAR_GAIN)
    summary = bench_pairs.summarize(fake_pairs(parent, change), END_TO_END)
    wall = summary["metrics"]["wall_s"]
    assert (wall["change_wins"], wall["pairs"]) == (5, 5)
    assert wall["medians_differ_by_more_than_parent_iqr"]
    assert not bench_pairs.claim_met(summary, "wall_s", 0.0)


def test_trace_layers_keep_what_either_side_did():
    def traced(values):
        return {"result": {"metrics": {k: {"value": v} for k, v in values.items()}}}

    layers = bench_pairs.trace_layers(traced({"a.calls": 3, "b.calls": 0, "c.s": 0.0}),
                                      traced({"a.calls": 3, "b.calls": 1, "c.s": 0.0}))
    assert layers == {"a.calls": {"parent": 3, "change": 3},
                      "b.calls": {"parent": 0, "change": 1}}


GOOD_ARGS = ["--parent", "HEAD", "--pr", "1", "--title", "t", "--first-seed", "500"]


@pytest.mark.parametrize("argv, message", [
    (["--claim", "partitions:wall_s", "--workload", "population_scan:10"],
     "not in the --workload plan"),
    (["--claim", "population_scan:wall_ms", "--workload", "population_scan:10"],
     "no end-to-end metric 'wall_ms'"),
    (["--claim", "population_scan:wall_s", "--workload", "population_scan:0"],
     "integer >= 1"),
    (["--claim", "population_scan:wall_s", "--workload", "population_scan:10",
      "--workload", "hard_instances:-1"], "integer >= 1"),
    (["--claim", "population_scan:wall_s", "--workload", "population_scan:ten"],
     "integer >= 1"),
    (["--claim", "population_scan:wall_s", "--workload", "population_scan:10",
      "--workload", "sampled_scans:4"], "no workload 'sampled_scans'"),
    (["--minimum-gain", "0.05", "--workload", "population_scan:10"],
     "--minimum-gain needs a --claim"),
])
def test_bad_input_exits_two_before_any_run(argv, message, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("bad input reached git or a perfbench run")

    for name in ("_git", "extract", "copy_worktree", "run_once"):
        monkeypatch.setattr(bench_pairs, name, refuse)
    with pytest.raises(SystemExit) as exited:
        bench_pairs.main(GOOD_ARGS + argv)
    assert exited.value.code == 2
    assert message in capsys.readouterr().err


def test_good_input_parses_into_a_plan():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = bench_pairs.parse_args(GOOD_ARGS + [
        "--claim", "population_scan:wall_s", "--workload", "population_scan:10",
        "--workload", "partitions:4"], benchmark)
    assert args.plan == [("population_scan", 10), ("partitions", 4)]
    assert (args.claim_workload, args.claim_metric) == ("population_scan", "wall_s")


def test_good_input_without_a_claim_parses_into_a_plan():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = bench_pairs.parse_args(GOOD_ARGS + ["--workload", "partitions:4"], benchmark)
    assert args.plan == [("partitions", 4)]
    assert args.claim is None and args.minimum_gain is None
    summary = bench_pairs.summarize(fake_pairs(*CLEAR_GAIN), END_TO_END)
    assert bench_pairs.claim_record(args, {"partitions": summary}, END_TO_END) is None


def test_a_claim_defaults_to_no_minimum_gain():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = bench_pairs.parse_args(GOOD_ARGS + ["--claim", "partitions:wall_s",
                                               "--workload", "partitions:10"], benchmark)
    summary = bench_pairs.summarize(fake_pairs(*CLEAR_GAIN), END_TO_END)
    claim = bench_pairs.claim_record(args, {"partitions": summary}, END_TO_END)
    assert (claim["workload"], claim["metric"], claim["direction"]) == (
        "partitions", "wall_s", "lower")
    assert claim["minimum_gain"] == 0.0 and claim["met"]


def test_a_run_without_a_claim_writes_a_null_claim(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    walls = iter(w for pair in zip(*CLEAR_GAIN) for w in pair)

    def run_once(tree, workload, seed, seconds, trace=0):
        run = fake_run(next(walls))
        run["metadata"].update(nproc=2, python="3", numpy="2", scipy="1")
        return run

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: b"0123abc\n")
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "copy_worktree", lambda dest: "digest")
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(GOOD_ARGS + ["--workload", "partitions:10"]) == 0
    doc = json.loads((tmp_path / "BENCH_1.json").read_text())
    assert doc["claim"] is None
    assert doc["workloads"]["partitions"]["metrics"]["wall_s"]["pairs"] == 10
    assert capsys.readouterr().err.rstrip().endswith("; no gain is claimed")
