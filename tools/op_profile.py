"""Per-op wall time and minor page faults of one perfbench workload.

    python3 tools/op_profile.py --workload W --seed S --passes N [--tree DIR]

Imports ``perfbench/workloads.py`` and ``src/`` of one source tree (``--tree``,
by default this repository) and writes nothing into it: the workload's files
go to a temporary directory.  As in a perfbench run, BLAS pools are pinned to
one thread before numpy loads.  The workload is built at seed S and run for
WARMUP_PASSES untimed passes, then for N passes in which each op is timed
with ``time.perf_counter`` and its minor page faults are read from
``resource.getrusage(RUSAGE_SELF).ru_minflt`` before and after it.  A pass
does what perfbench's ``run_pass`` does around its ops, so the heap the ops
see is the one they see in the benchmark: the scipy reference op
(``run.reference_seconds``) runs before the first op and after each op, and
every op's output is kept until the pass ends and then checked with the
op's and the workload's checks, all outside the ops' times and faults.  A
failed check is printed to stderr.

One line per op, in pass order, gives the median over the N passes of its
wall time (ms) and of its minor faults, and how many of its runs raised; the
last line gives the same medians for the whole pass.  An unknown workload or
N < 1 exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARMUP_PASSES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="the source tree to import (default: this repository)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error(f"--passes must be >= 1, got {args.passes}")
    return parser, args


def profile_pass(workload, reference) -> list[tuple[float, int, bool]]:
    """(seconds, minor faults, raised) for each op of ``workload``, run once in
    order, with ``reference()`` called before the first op and after each op
    and the outputs checked after the last."""
    rows, outputs = [], {}
    reference()
    for op in workload.ops:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        try:
            outputs[op.name] = op.run()
            raised = False
        except Exception:  # a failing op is reported, not fatal
            raised = True
        seconds = time.perf_counter() - start
        rows.append((seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults,
                     raised))
        reference()
    for op in workload.ops:
        if op.name in outputs and (failure := op.check(outputs[op.name], outputs)):
            print(f"check failed: {op.name}: {failure}", file=sys.stderr)
    if failure := workload.pass_check(outputs):
        print(f"check failed: pass: {failure}", file=sys.stderr)
    return rows


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "perfbench"), str(tree / "src")]
    run = importlib.import_module("run")  # pins the BLAS pools before numpy loads
    workloads = importlib.import_module("workloads")
    if args.workload not in workloads.BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(workloads.BUILDERS)}")
    with tempfile.TemporaryDirectory(prefix="op-profile-") as workdir:
        workload = workloads.BUILDERS[args.workload](args.seed, Path(workdir))
        for _ in range(WARMUP_PASSES):
            profile_pass(workload, run.reference_seconds)
        passes = [profile_pass(workload, run.reference_seconds)
                  for _ in range(args.passes)]
    ops = workload.ops

    print(f"# workload {args.workload}, seed {args.seed}, {args.passes} passes after "
          f"{WARMUP_PASSES} warm-up passes, tree {tree}")
    width = max(len(op.name) for op in ops)
    print(f"{'op':<{width}} {'wall_ms':>10} {'minflt':>8} {'raised':>6}")
    columns = [(op.name, [rows[i] for rows in passes]) for i, op in enumerate(ops)]
    columns.append(("pass", [tuple(map(sum, zip(*rows))) for rows in passes]))
    for name, runs in columns:
        print(f"{name:<{width}} {statistics.median(r[0] for r in runs) * 1e3:>10.3f} "
              f"{statistics.median(r[1] for r in runs):>8g} {sum(r[2] for r in runs):>6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
