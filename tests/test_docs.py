"""The README's quick tour computes what its comments say, its command-line
block names only real options, and every demo runs to completion."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from debias_lab import cli

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_quick_tour_comments_hold():
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    names: dict = {}
    assert "# == family.anchor, atom for atom" in tour
    assert "pre.oracle  # -0.04" in tour
    exec(compile(tour, "README.md", "exec"), names)
    # "== family.anchor, atom for atom"
    mix, family = names["mix"], names["family"]
    assert np.max(np.abs(mix.values - family.anchor.values)) <= 1e-12
    # "the bias is exactly -eps_g * eps_a ... # -0.04"
    assert abs(names["bias"] - (-0.2 * 0.2)) <= 1e-12


def test_readme_command_line_flags_are_parser_options():
    """Every --flag in README's "Command line" block is an option of the
    subcommand whose line it is on (or continues), and every subcommand is
    shown."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    options = {name: {flag for action in sub._actions for flag in action.option_strings}
               for name, sub in subparsers.choices.items()}
    shown = set()
    for line in block.splitlines():
        if line.startswith("debias-lab "):
            command = line.split()[1]
            shown.add(command)
        for flag in re.findall(r"--[\w-]+", line):
            assert flag in options.get(command, ()), f"{command} has no option {flag}"
    assert shown == set(options)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # a numerical warning (overflow, division by zero, invalid value) fails the demo
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                            cwd=ROOT, capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert result.returncode == 0, result.stderr
