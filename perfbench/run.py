"""debias-lab benchmark: one workload, closed loop, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each pass runs the workload's ops one after another and is
timed op by op; passes repeat until ``--seconds`` of ops have run.  Every
op's output is checked after its pass, outside the timed region.

A shared machine changes speed from one second to the next, so a pass
also times a fixed reference op, a small scipy fit that calls nothing in
the package, before its first op and after each op.  The timing metrics
are op latencies scaled to the speed at which the reference op takes
``REFERENCE_S``: each latency of a pass times ``REFERENCE_S`` over the
median reference time of that pass.  ``setup_s`` is scaled the same way,
by reference times taken between its import probes and builds.  A workload
whose speed does not follow the reference's (``Workload.scaled``) is timed
unscaled.  The unscaled figures are in the metadata.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes traced layer by layer and prints the per-layer
metrics, the tracing overhead, and whether the predicted layer separation
holds.  The metric names and units are those in ``BENCHMARK.json``.  The
line before the result is a JSON object with the run's metadata.
"""

import os
import sys

# Pin BLAS pools before numpy loads; the scan thread pool stays off.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
INHERITED_DEBIAS_LAB_THREADS = os.environ.pop("DEBIAS_LAB_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy.optimize  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# The reference op: a BFGS fit of a fixed two-parameter least-squares
# problem with scipy.optimize, about 1.5 ms of Python-level scipy code and
# small numpy calls, the kind of work the partition search and the 2^M
# enumerations do.  Timed next to the workloads' ops, it speeds up and slows
# down with the machine about as much as they do (pure-Python or numpy-only
# loops missed by 9% to 40%).  REFERENCE_S is the reference time the scaled
# latencies are quoted at.
REFERENCE_S = 2e-3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import debias_lab, debias_lab.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter (numpy and scipy included)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank: a sample value, never interpolated.

    Passes repeat one op list, so the rank lands on the same op of the list
    whatever the number of passes.
    """
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


REFERENCE_DESIGN = numpy.random.default_rng(0).random((40, 2))
REFERENCE_TARGET = numpy.random.default_rng(1).random(40)


def reference_seconds() -> float:
    """Run the reference op once and return its time."""
    start = time.perf_counter()
    scipy.optimize.minimize(
        lambda p: float(numpy.sum((REFERENCE_DESIGN @ p - REFERENCE_TARGET) ** 2)),
        numpy.zeros(2), method="BFGS")
    return time.perf_counter() - start


class PassResult:
    def __init__(self):
        self.latencies: list[float] = []
        self.scaled: list[float] = []        # latencies at the reference speed
        self.references: list[float] = []    # reference op times between the ops
        self.outputs: dict[str, object] = {}
        self.errors: list[str] = []          # ops that raised
        self.check_failures: list[str] = []  # ops whose output failed its check
        self.layers: dict[str, float] | None = None

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled)


def run_pass(workload, tracer=None) -> PassResult:
    result = PassResult()
    clock = time.perf_counter
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        result.references.append(reference_seconds())
        for op in workload.ops:
            start = clock()
            try:
                output = op.run()
            except Exception as exc:  # a failed op is counted, with its full time
                result.latencies.append(clock() - start)
                result.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
            else:
                result.latencies.append(clock() - start)
                result.outputs[op.name] = output
            result.references.append(reference_seconds())
    finally:
        if tracer is not None:
            tracer.uninstall()
    scale = REFERENCE_S / statistics.median(result.references) if workload.scaled else 1.0
    result.scaled = [latency * scale for latency in result.latencies]
    if tracer is not None:
        result.layers = layer_metrics(tracer, result.wall)
    for op in workload.ops:
        if op.name in result.outputs:
            failure = op.check(result.outputs[op.name], result.outputs)
            if failure:
                result.check_failures.append(f"{op.name}: {failure}")
    failure = workload.pass_check(result.outputs)
    if failure:
        result.check_failures.append(f"pass: {failure}")
    return result


def layer_metrics(tracer, pass_wall: float) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for name, (calls, total, self_s, failed) in tracer.stats.items():
        metrics.update({f"{name}.calls": calls, f"{name}.s": total,
                        f"{name}.self_s": self_s, f"{name}.failed": failed})
    metrics.update(tracer.counts)
    metrics.update({f"{layer}.self_s": s for layer, s in tracer.layer_self_s().items()})
    metrics["trace.target_share"] = tracer.target_s / pass_wall
    return metrics


def separation_failures(workload, traced: list[PassResult]) -> list[str]:
    """The predicted zero-call and non-zero-call cells, and the target share."""
    failures = []
    for result in traced:
        layers = result.layers
        failures += [f"{name} has {layers[name + '.calls']} calls, predicted 0"
                     for name in workload.zero if layers[name + ".calls"]]
        failures += [f"{name} has no calls" for name in workload.nonzero
                     if not layers[name + ".calls"]]
    share = statistics.median(r.layers["trace.target_share"] for r in traced)
    if share <= 0.5:
        failures.append(f"target layers {workload.target} do {share:.1%} of the pass")
    return sorted(set(failures))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "debias_lab" / "__init__.py").is_file():
        print(f"error: no debias_lab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2

    # setup_s is scaled like the ops, by reference times taken between probes
    setup_references = [reference_seconds()]
    import_times = []
    for _ in range(SETUP_REPEATS):
        import_times.append(import_seconds())
        setup_references.append(reference_seconds())
    sys.path.insert(0, str(SRC))

    import debias_lab
    import layertrace
    import workloads

    if Path(debias_lab.__file__).resolve().parent != SRC / "debias_lab":
        print(f"error: imported debias_lab from {debias_lab.__file__}", file=sys.stderr)
        return 2

    workdir = HERE / f".work-{os.getpid()}"
    try:
        build_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir()
            start = time.perf_counter()
            workload = workloads.BUILDERS[args.workload](args.seed, workdir)
            build_times.append(time.perf_counter() - start)
            setup_references.append(reference_seconds())
        tracer = layertrace.LayerTracer(target=workload.target) if args.trace else None
        untraced, traced = [], []
        measured = 0.0
        while measured < args.seconds or not untraced or (tracer and not traced):
            use_tracer = tracer is not None and len(traced) < len(untraced)
            result = run_pass(workload, tracer if use_tracer else None)
            kept = traced if use_tracer else untraced
            if kept:
                # checked already; only the first pass of each kind keeps its
                # outputs, so peak memory does not grow with the pass count
                result.outputs = {}
            kept.append(result)
            measured += result.wall
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(len(r.latencies) for r in passes)
    failures = [f for r in passes for f in r.errors + r.check_failures]
    problems = [f for r in passes for f in r.check_failures]
    if tracer is not None:
        separation = separation_failures(workload, traced)
        first_untraced, first_traced = untraced[0].outputs, traced[0].outputs
        changed = [op.name for op in workload.ops
                   if op.fingerprint is not None and op.name in first_untraced
                   and op.name in first_traced
                   and op.fingerprint(first_untraced[op.name])
                   != op.fingerprint(first_traced[op.name])]
        problems += [f"separation: {s}" for s in separation]
        problems += [f"tracing changed the output of {name}" for name in changed]

    setup = statistics.median(import_times) + statistics.median(build_times)
    wall = statistics.median(r.scaled_wall for r in untraced)
    latencies = [t for r in untraced for t in r.scaled]
    raw_latencies = [t for r in untraced for t in r.latencies]
    if tracer is None:
        values = {
            "wall_s": wall,
            "op_p50_ms": 1e3 * nearest_rank(latencies, 0.50),
            "op_p90_ms": 1e3 * nearest_rank(latencies, 0.90),
            "setup_s": (setup * REFERENCE_S / statistics.median(setup_references)
                        if workload.scaled else setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": (attempted - len(failures)) / attempted,
        }
        declared = spec["end_to_end"]
    else:
        values = {name: statistics.median(r.layers[name] for r in traced)
                  for name in traced[0].layers}
        values["trace.overhead"] = (statistics.median(r.scaled_wall for r in traced) / wall
                                    - 1.0)
        declared = spec["per_layer"]

    metadata = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_sha": git_sha(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "DEBIAS_LAB_THREADS": os.environ.get("DEBIAS_LAB_THREADS"),
        "inherited_DEBIAS_LAB_THREADS": INHERITED_DEBIAS_LAB_THREADS,
        "ops_per_pass": len(workload.ops), "untraced_passes": len(untraced),
        "traced_passes": len(traced), "latency_samples": attempted,
        "import_s": import_times, "build_s": build_times,
        "pass_wall_s": [r.wall for r in untraced],
        "unscaled": {"setup_s": setup,
                     "wall_s": statistics.median(r.wall for r in untraced),
                     "op_p50_ms": 1e3 * nearest_rank(raw_latencies, 0.50),
                     "op_p90_ms": 1e3 * nearest_rank(raw_latencies, 0.90)},
        "reference_ms": 1e3 * statistics.median(t for r in untraced for t in r.references),
        "failures": failures, "problems": problems,
    }
    if tracer is not None:
        metadata["binding_sites"] = {name: n for name, n in tracer.site_counts.items()
                                     if n > 1}
    print(json.dumps({"metadata": metadata}))
    for failure in failures:
        print(f"failed op: {failure}", file=sys.stderr)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
