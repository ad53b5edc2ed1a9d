"""The package line-split report: its totals are ``wc -l``'s and a small
module splits into the four classes as documented."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import src_lines  # noqa: E402

SAMPLE = textwrap.dedent('''\
    """Module docstring.

    Second paragraph.
    """

    # a comment line
    import os  # a trailing comment keeps the line code


    class Thing:
        """One line."""

        def method(self):
            """Two
            lines."""
            text = """not a docstring:

            a string in code"""
            return text
''')


def test_sample_source_splits_as_documented():
    counts = src_lines.split(SAMPLE)
    assert counts == {"total": 19, "code": 6, "docstring": 6, "comment": 1, "blank": 6}
    assert counts["total"] == sum(counts[c] for c in ("code", "docstring", "comment", "blank"))


def test_totals_are_wc_l_over_the_package():
    paths = sorted((ROOT / "src" / "debias_lab").glob("*.py"))
    rows = src_lines.report(paths)
    wc = subprocess.run(["wc", "-l", *map(str, paths)], capture_output=True, text=True,
                        check=True).stdout.split("\n")
    per_file = {Path(line.split()[1]).name: int(line.split()[0])
                for line in wc[:len(paths)]}
    assert {name: counts["total"] for name, counts in rows[:-1]} == per_file
    name, sums = rows[-1]
    assert name == "total"
    assert sums["total"] == sum(per_file.values())
    assert sums["total"] == sum(sums[c] for c in ("code", "docstring", "comment", "blank"))
