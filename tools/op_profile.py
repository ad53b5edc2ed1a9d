"""Per-op wall time and minor page faults of one perfbench workload.

    python3 tools/op_profile.py --workload W --seed S --passes N [--tree DIR ...]

Imports ``perfbench/workloads.py`` and ``src/`` of each source tree (``--tree``,
given once per tree, by default this repository) in a process of its own and
writes nothing into it: the workload's files go to a temporary directory.  As
in a perfbench run, BLAS pools are pinned to one thread before numpy loads.
Each tree's workload is built at seed S and run for WARMUP_PASSES untimed
passes; then N rounds follow, each one timed pass per tree, the trees taking
turns at going first.  In a timed pass each op is timed with
``time.perf_counter`` and its minor page faults are read from
``resource.getrusage(RUSAGE_SELF).ru_minflt`` before and after it.  A pass
does what perfbench's ``run_pass`` does around its ops, so the heap the ops
see is the one they see in the benchmark: the scipy reference op
(``run.reference_seconds``) runs before the first op and after each op, and
every op's output is kept until the pass ends and then checked with the
op's and the workload's checks, all outside the ops' times and faults.  A
failed check is printed to stderr.

One line per op, in pass order, gives the median over the N passes of its
wall time (ms) and of its minor faults, and how many of its runs raised; the
last line gives the same medians for the whole pass.  With more than one
tree the columns repeat per tree, side by side, suffixed by the tree's index
in the header.  Rounds interleave the trees because two runs one after the
other can read the same op well apart on a machine whose load drifts.  An
unknown workload, trees whose workloads have different ops, or N < 1 exits
with code 2.
"""

from __future__ import annotations

import argparse
import importlib
import multiprocessing
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
    parser.add_argument("--tree", type=Path, action="append",
                        help="a source tree to import; repeat to compare trees "
                             "(default: this repository)")
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


def serve(tree: Path, workload_name: str, seed: int, conn) -> None:
    """One tree's process: build its workload, send its op names (or the
    known workloads if it has no such workload), then run as many passes as
    each request asks for and send back their rows, until asked for 0."""
    sys.path[:0] = [str(tree / "perfbench"), str(tree / "src")]
    run = importlib.import_module("run")  # pins the BLAS pools before numpy loads
    workloads = importlib.import_module("workloads")
    if workload_name not in workloads.BUILDERS:
        conn.send((False, list(workloads.BUILDERS)))
        return
    with tempfile.TemporaryDirectory(prefix="op-profile-") as workdir:
        workload = workloads.BUILDERS[workload_name](seed, Path(workdir))
        conn.send((True, [op.name for op in workload.ops]))
        while count := conn.recv():
            conn.send([profile_pass(workload, run.reference_seconds) for _ in range(count)])


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    trees = [tree.resolve() for tree in args.tree or [ROOT]]
    context = multiprocessing.get_context("spawn")  # numpy loads in each tree's process
    workers = []
    try:
        for tree in trees:
            conn, child = context.Pipe()
            process = context.Process(target=serve,
                                      args=(tree, args.workload, args.seed, child))
            process.start()
            workers.append((process, conn))
        names = []
        for _, conn in workers:
            known, payload = conn.recv()
            if not known:
                parser.error(f"unknown workload {args.workload!r}; known: "
                             f"{', '.join(payload)}")
            names.append(payload)
        if any(other != names[0] for other in names):
            parser.error("the trees' workloads do not run the same ops")
        for _, conn in workers:
            conn.send(WARMUP_PASSES)
        for _, conn in workers:
            conn.recv()
        passes: list[list] = [[] for _ in trees]
        for round_ in range(args.passes):
            for k in range(len(trees)):
                i = (round_ + k) % len(trees)
                workers[i][1].send(1)
                passes[i] += workers[i][1].recv()
    finally:
        for process, conn in workers:
            if process.is_alive():
                conn.send(0)
            process.join(timeout=30)
            if process.is_alive():
                process.terminate()

    where = (f"tree {trees[0]}" if len(trees) == 1 else
             "trees " + ", ".join(f"[{i}] {tree}" for i, tree in enumerate(trees)))
    print(f"# workload {args.workload}, seed {args.seed}, {args.passes} passes after "
          f"{WARMUP_PASSES} warm-up passes, {where}")
    width = max(map(len, names[0]))
    suffixes = [""] if len(trees) == 1 else [f"[{i}]" for i in range(len(trees))]
    print(f"{'op':<{width}}" + "".join(f" {'wall_ms' + x:>10} {'minflt' + x:>9} "
                                       f"{'raised' + x:>9}" for x in suffixes))
    columns = [(name, [[rows[i] for rows in runs] for runs in passes])
               for i, name in enumerate(names[0])]
    columns.append(("pass", [[tuple(map(sum, zip(*rows))) for rows in runs]
                             for runs in passes]))
    for name, per_tree in columns:
        print(f"{name:<{width}}" + "".join(
            f" {statistics.median(r[0] for r in runs) * 1e3:>10.3f} "
            f"{statistics.median(r[1] for r in runs):>9g} {sum(r[2] for r in runs):>9d}"
            for runs in per_tree))
    return 0


if __name__ == "__main__":
    sys.exit(main())
