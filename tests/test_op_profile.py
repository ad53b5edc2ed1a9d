"""The per-op profile: one pass of one workload prints one parsable line per
op and one for the pass, and an unknown workload exits with code 2."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "op_profile.py"


def profile(*argv):
    return subprocess.run([sys.executable, str(TOOL), *argv], capture_output=True,
                          text=True, timeout=300, cwd=ROOT)


def test_one_pass_of_partitions_prints_every_op():
    done = profile("--workload", "partitions", "--seed", "101", "--passes", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("# workload partitions, seed 101, 1 passes after")
    assert lines[1].split() == ["op", "wall_ms", "minflt", "raised"]
    rows = [line.split() for line in lines[2:]]
    assert all(len(row) == 4 for row in rows)
    names = [row[0] for row in rows]
    assert names[-1] == "pass" and len(set(names)) == len(names) > 2
    wall = [float(row[1]) for row in rows]
    faults = [float(row[2]) for row in rows]
    assert min(wall) >= 0.0 and min(faults) >= 0.0
    assert [int(row[3]) for row in rows] == [0] * len(rows)
    # one pass: the pass line is the sum of the op lines, to print rounding
    assert abs(sum(wall[:-1]) - wall[-1]) <= 1e-3 * len(wall)
    assert sum(faults[:-1]) == faults[-1]


def test_unknown_workload_exits_two():
    done = profile("--workload", "no_such_workload", "--seed", "1", "--passes", "1")
    assert done.returncode == 2
    assert "unknown workload 'no_such_workload'" in done.stderr
