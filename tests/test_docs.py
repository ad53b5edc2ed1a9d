"""The README's quick tour computes what its comments say, and every demo
runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # a numerical warning (overflow, division by zero, invalid value) fails the demo
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                            cwd=ROOT, capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert result.returncode == 0, result.stderr
