"""The benchmark's four workloads, one traced pass each: every op's output
passes its check, and the layer predictions hold, the functions predicted
to go uncalled have no calls and the ones a workload exists to exercise
have some.  The partition checks and the tracer's split-cell count read
each partition's dense ``membership``.  Only ``workloads`` and
``layertrace`` are imported; ``run.py`` pins the BLAS environment when it
is imported."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layertrace  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["sampled_scan", "population_scan", "partitions",
                                  "hard_instances"])
def test_traced_pass_checks_and_layer_predictions(name, tmp_path):
    workload = workloads.BUILDERS[name](101, tmp_path)
    tracer = layertrace.LayerTracer(target=workload.target)
    outputs = {}
    tracer.install()
    try:
        for op in workload.ops:
            outputs[op.name] = op.run()
    finally:
        tracer.uninstall()
    failures = [f"{op.name}: {failure}" for op in workload.ops
                if (failure := op.check(outputs[op.name], outputs))]
    assert failures == []
    assert workload.pass_check(outputs) is None
    calls = {name: stat[0] for name, stat in tracer.stats.items()}
    assert {n: calls[n] for n in workload.zero if calls[n]} == {}
    assert [n for n in workload.nonzero if not calls[n]] == []
