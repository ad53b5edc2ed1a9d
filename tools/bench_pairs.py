"""Alternating parent/change perfbench runs, written up as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent SHA --pr N --title TEXT \\
        [--claim WORKLOAD:METRIC [--minimum-gain G]] \\
        --workload WORKLOAD:PAIRS [--workload ...] --first-seed S \\
        [--trace-seconds 5]

Run from the root of the repository.  The parent commit is extracted with
``git archive`` into a temporary directory, so ``.git`` is only read.  The
change side is a copy of the working tree there: its tracked files and its
untracked, not ignored ones.  Every run is one ``perfbench/run.py --trace 0``
process in its own tree, for BENCHMARK.json's ``run_seconds``; the file is
written to ``BENCH_<pr>.json`` at the root of the repository.

Pair i runs one seed on both sides (seeds count up from ``--first-seed``
across all workloads), the parent first in even pairs.  Per workload and
end-to-end metric the file gives each side's median and quartiles (numpy
linear percentiles), ``change_wins`` (pairs the change wins; ties count for
neither side), and ``worse_by``, the relative change of the medians in the
metric's worse direction, to be read against the bound in BENCHMARK.json.
With ``--trace-seconds`` each workload also gets one ``--trace 1`` run per
side at seed 1, whose per-layer values are recorded when either side's is
non-zero.  Without ``--claim`` the file records ``"claim": null``: the
change claims no gain, and only the bounds are read.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
UNSCALED = ("wall_s", "op_p50_ms", "op_p90_ms", "setup_s")
WIN_SHARE = 0.9  # a claimed gain needs the change to win this share of pairs
MIN_PAIRS = 10  # ... of at least this many pairs


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          check=True).stdout


def extract(rev: str, dest: Path) -> None:
    """The tree of commit ``rev``, written into ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def copy_worktree(dest: Path) -> str:
    """Copy the working tree's tracked and untracked, not ignored files into
    ``dest``; return the sha256 of its src/ files (names and contents)."""
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    digest = hashlib.sha256()
    for name in sorted(set(filter(None, names.decode().split("\0")))):
        source = ROOT / name
        if not source.is_file():  # deleted from the working tree
            continue
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, dest / name)
        if name.startswith("src/"):
            digest.update(name.encode() + b"\0" + source.read_bytes())
    return digest.hexdigest()


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench process: {"metadata": ..., "result": ...}."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return {"metadata": json.loads(lines[-2])["metadata"], "result": json.loads(lines[-1])}


def _compare(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, wins and ties of paired runs of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = float(np.median(parent)), float(np.median(change))
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "ties": sum(c == p for p, c in zip(parent, change)),
        "pairs": len(parent),
        "relative_change": (c_med - p_med) / p_med if p_med else 0.0,
        "worse_by": sign * (c_med - p_med) / p_med if p_med else 0.0,
        "pairs_parent_change": [[p, c] for p, c in zip(parent, change)],
    }


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """One workload's section of the BENCH file.

    ``pairs`` holds, per pair, {"seed", "first": "parent"|"change", "parent":
    run, "change": run} with runs as :func:`run_once` returns them;
    ``end_to_end`` is BENCHMARK.json's list of metrics with their
    direction ("better") and bound.
    """
    sides = ("parent", "change")
    runs = {side: [pair[side] for pair in pairs] for side in sides}
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        values = {side: [run["result"]["metrics"][name]["value"] for run in runs[side]]
                  for side in sides}
        entry = _compare(values["parent"], values["change"], spec["better"])
        q1, q3 = (float(q) for q in np.percentile(values["parent"], [25, 75]))
        entry["parent_quartiles"] = [q1, q3]
        entry["change_quartiles"] = [float(q) for q in np.percentile(values["change"],
                                                                     [25, 75])]
        entry["bound"] = spec["bound"]
        entry["within_bound"] = entry["worse_by"] <= spec["bound"]
        entry["medians_differ_by_more_than_parent_iqr"] = (
            abs(entry["change_median"] - entry["parent_median"]) > q3 - q1)
        entry["first_in_pair"] = [pair["first"] for pair in pairs]
        metrics[name] = entry
    unscaled = {}
    for name in UNSCALED:
        values = {side: [run["metadata"]["unscaled"][name] for run in runs[side]]
                  for side in sides}
        entry = _compare(values["parent"], values["change"], "lower")
        unscaled[name] = {key: entry[key] for key in (
            "parent_median", "change_median", "change_wins", "pairs_parent_change")}
    return {
        "seeds": [pair["seed"] for pair in pairs],
        "all_correct": all(run["result"]["correct"] for side in sides for run in runs[side]),
        "failed_ops": {side: [run["result"]["failed"] for run in runs[side]]
                       for side in sides},
        "attempted_ops": {side: [run["result"]["attempted"] for run in runs[side]]
                          for side in sides},
        "metrics": metrics,
        "reference_ms_pairs": [[pair[side]["metadata"]["reference_ms"] for side in sides]
                               for pair in pairs],
        "unscaled": unscaled,
    }


def claim_met(workload: dict, metric: str, minimum_gain: float) -> bool:
    """A gain in ``metric`` of a workload's summary counts when there are at
    least 10 pairs, every run is correct, the change fails no more ops than
    the parent in any pair, the change wins >= 90% of the pairs, the medians
    differ by more than the parent's quartile spread, and the median improves
    by >= minimum_gain."""
    entry = workload["metrics"][metric]
    failed = workload["failed_ops"]
    return (entry["pairs"] >= MIN_PAIRS
            and workload["all_correct"]
            and all(c <= p for p, c in zip(failed["parent"], failed["change"]))
            and entry["change_wins"] >= math.ceil(WIN_SHARE * entry["pairs"])
            and entry["medians_differ_by_more_than_parent_iqr"]
            and -entry["worse_by"] >= minimum_gain)


def claim_record(args, workloads: dict, end_to_end: list[dict]) -> dict | None:
    """The BENCH file's claim: None when no gain is claimed, else the claimed
    workload and metric, the rule and whether the summaries meet it."""
    if args.claim is None:
        return None
    return {
        "workload": args.claim_workload, "metric": args.claim_metric,
        "direction": next(m["better"] for m in end_to_end if m["name"] == args.claim_metric),
        "minimum_gain": args.minimum_gain,
        "rule": (f"at least {MIN_PAIRS} alternating pairs, every run correct, the "
                 "change fails no more ops than the parent in any pair, the change "
                 f"wins >= {WIN_SHARE:.0%} of the pairs, the medians differ by more "
                 "than the parent's quartile spread, and the median improves by "
                 f">= {args.minimum_gain:.0%}"),
        "met": claim_met(workloads[args.claim_workload], args.claim_metric,
                         args.minimum_gain),
    }


def trace_layers(parent: dict, change: dict) -> dict:
    """Per-layer values of one traced run per side, where either is non-zero."""
    values = {side: {name: m["value"] for name, m in run["result"]["metrics"].items()}
              for side, run in (("parent", parent), ("change", change))}
    return {name: {"parent": values["parent"][name], "change": values["change"][name]}
            for name in values["parent"]
            if values["parent"][name] or values["change"].get(name)}


def parse_args(argv, benchmark: dict):
    """The command line, checked against BENCHMARK.json (``benchmark``).

    Exits with code 2, before anything is extracted or run, when a planned
    workload is not in the benchmark or asks for fewer than 1 pair, when
    the claim names a workload outside the plan or an end-to-end metric the
    benchmark does not define, or when a minimum gain comes without a claim.
    """
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--title", required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC; omit it to claim no gain")
    parser.add_argument("--minimum-gain", type=float)
    parser.add_argument("--workload", action="append", required=True,
                        help="WORKLOAD:PAIRS, repeatable")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--trace-seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    args.plan = []
    for entry in args.workload:
        name, _, count = entry.partition(":")
        if name not in workloads:
            parser.error(f"--workload {entry!r}: no workload {name!r} in BENCHMARK.json")
        try:
            pairs = int(count)
        except ValueError:
            pairs = 0
        if pairs < 1:
            parser.error(f"--workload {entry!r}: the pair count must be an integer >= 1")
        args.plan.append((name, pairs))
    if args.claim is None:
        if args.minimum_gain is not None:
            parser.error("--minimum-gain needs a --claim")
        return args
    if args.minimum_gain is None:
        args.minimum_gain = 0.0
    args.claim_workload, _, args.claim_metric = args.claim.partition(":")
    if args.claim_workload not in dict(args.plan):
        parser.error(f"--claim {args.claim!r}: workload {args.claim_workload!r} is not "
                     "in the --workload plan")
    if args.claim_metric not in metrics:
        parser.error(f"--claim {args.claim!r}: BENCHMARK.json has no end-to-end metric "
                     f"{args.claim_metric!r}")
    return args


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, benchmark)
    seconds = benchmark["run_seconds"]
    parent_sha = _git("rev-parse", args.parent).decode().strip()
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        extract(parent_sha, trees["parent"])
        trees["change"].mkdir()
        change = {"sha": None, "note": "a copy of the working tree",
                  "src_sha256": copy_worktree(trees["change"])}

        seed = args.first_seed
        workloads = {}
        trace = {"command": (f"python3 perfbench/run.py --workload W --seed 1 --seconds "
                             f"{args.trace_seconds:g} --trace 1, one run per side; each "
                             "value is the median over traced passes"), "correct": {}}
        for name, count in args.plan:
            pairs = []
            for i in range(count):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], name, seed, seconds)
                    print(f"{name} seed {seed} {side}: "
                          f"{pair[side]['result']['metrics']['wall_s']['value']:.4f} s",
                          file=sys.stderr)
                pairs.append(pair)
                seed += 1
            workloads[name] = summarize(pairs, benchmark["end_to_end"])
            if args.trace_seconds:
                traced = {side: run_once(trees[side], name, 1, args.trace_seconds, trace=1)
                          for side in ("parent", "change")}
                for side, run in traced.items():
                    trace["correct"][f"{name}/{side}"] = run["result"]["correct"]
                trace[name] = trace_layers(traced["parent"], traced["change"])

    first_run = pairs[0]["parent"]["metadata"]  # machine facts are the same in every run
    doc = {
        "pr": args.pr,
        "title": args.title,
        "claim": claim_record(args, workloads, benchmark["end_to_end"]),
        "command": (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                    "--trace 0, run from a copy of each side in turn"),
        "method": ("one seed per pair (the same seed on both sides), the side that runs "
                   "first alternating (parent first in even pairs); medians and quartiles "
                   "(numpy linear percentiles) over the runs of each side; 'change_wins' "
                   "counts pairs where the change is better, ties for neither side; "
                   "'worse_by' is (change_median - parent_median) / parent_median in the "
                   "worse direction, read against the BENCHMARK.json bound"),
        "machine": {key: first_run[key] for key in ("nproc", "python", "numpy", "scipy")},
        "parent": {"sha": parent_sha},
        "change": change,
        "workloads": workloads,
    }
    if args.trace_seconds:
        doc["trace"] = trace
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    verdict = ("no gain is claimed" if doc["claim"] is None
               else f"claim met: {doc['claim']['met']}")
    print(f"wrote {out}; {verdict}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
