"""The per-op profile: one pass of one workload prints one parsable line per
op and one for the pass, a pass runs the reference op between its ops and
checks its outputs after them as perfbench does, and an unknown workload
exits with code 2."""

import importlib.util
import subprocess
import sys
import time
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


FAKE_RUN = "def reference_seconds():\n    return 0.0\n"
FAKE_WORKLOADS = """\
from types import SimpleNamespace

def build(seed, workdir):
    def op(name):
        def run():
            with open({log!r}, "a") as log:
                log.write({tree!r} + "\\n")
            return name
        return SimpleNamespace(name=name, run=run, check=lambda out, outputs: None)
    return SimpleNamespace(ops=[op(name) for name in {names!r}],
                           pass_check=lambda outputs: None)

BUILDERS = {{"fake": build}}
"""


def fake_tree(root, tree, names, log):
    """A source tree whose one workload, ``fake``, runs ops that append the
    tree's name to ``log``."""
    (root / tree / "perfbench").mkdir(parents=True)
    (root / tree / "src").mkdir()
    (root / tree / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / tree / "perfbench" / "workloads.py").write_text(
        FAKE_WORKLOADS.format(log=str(log), tree=tree, names=names))
    return root / tree


def test_two_trees_take_turns_and_print_side_by_side(tmp_path):
    log = tmp_path / "log"
    trees = [fake_tree(tmp_path, tree, ["x", "y"], log) for tree in ("A", "B")]
    done = profile("--workload", "fake", "--seed", "1", "--passes", "3",
                   "--tree", str(trees[0]), "--tree", str(trees[1]))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].endswith(f"trees [0] {trees[0]}, [1] {trees[1]}")
    assert lines[1].split() == ["op"] + [f"{column}[{i}]" for i in (0, 1)
                                         for column in ("wall_ms", "minflt", "raised")]
    assert [line.split()[0] for line in lines[2:]] == ["x", "y", "pass"]
    assert all(len(line.split()) == 7 for line in lines[2:])
    # after the warm-up passes, one pass per tree a round, the first tree alternating
    assert log.read_text().split()[-12:] == list("AABBBBAAAABB")


def test_trees_whose_workloads_differ_exit_two(tmp_path):
    log = tmp_path / "log"
    done = profile("--workload", "fake", "--seed", "1", "--passes", "1",
                   "--tree", str(fake_tree(tmp_path, "A", ["x"], log)),
                   "--tree", str(fake_tree(tmp_path, "B", ["x", "z"], log)))
    assert done.returncode == 2
    assert "the trees' workloads do not run the same ops" in done.stderr


class _Op:
    def __init__(self, name, log, fails=False, check=None):
        self.name, self.log, self.fails = name, log, fails
        self.check = check or (lambda out, outputs: None)

    def run(self):
        self.log.append(self.name)
        if self.fails:
            raise RuntimeError(self.name)
        return self.name.upper()


class _Workload:
    def __init__(self, ops, pass_check):
        self.ops, self.pass_check = ops, pass_check


def _load_tool():
    spec = importlib.util.spec_from_file_location("op_profile", TOOL)
    op_profile = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(op_profile)
    return op_profile


def test_a_pass_runs_the_reference_before_the_first_op_and_after_each_op():
    """As in perfbench's run_pass: len(ops) + 1 reference calls per pass, none
    of them inside an op's time, a raising op included."""
    log = []
    ops = [_Op("a", log), _Op("b", log, fails=True), _Op("c", log)]

    def reference():
        log.append("ref")
        time.sleep(0.02)

    rows = _load_tool().profile_pass(_Workload(ops, lambda outputs: None), reference)
    assert log == ["ref", "a", "ref", "b", "ref", "c", "ref"]
    assert log.count("ref") == len(ops) + 1
    assert [raised for _, _, raised in rows] == [False, True, False]
    assert max(seconds for seconds, _, _ in rows) < 0.02


def test_a_pass_checks_the_outputs_it_kept_after_its_last_op(capsys):
    """As in perfbench's run_pass, every output is kept until the pass ends,
    then each op's check and the workload's pass check read them; a failed
    check goes to stderr."""
    log, seen = [], []

    def check(out, outputs):
        seen.append((out, dict(outputs), list(log)))
        return "wrong" if out == "A" else None

    ops = [_Op("a", log, check=check), _Op("b", log, fails=True, check=check),
           _Op("c", log, check=check)]
    _load_tool().profile_pass(_Workload(ops, lambda outputs: f"{len(outputs)} outputs"),
                              lambda: None)
    outputs = {"a": "A", "c": "C"}
    assert seen == [("A", outputs, ["a", "b", "c"]), ("C", outputs, ["a", "b", "c"])]
    assert capsys.readouterr().err.splitlines() == ["check failed: a: wrong",
                                                    "check failed: pass: 2 outputs"]
