"""Line split of the package source: code, docstring, comment and blank lines.

    python3 tools/src_lines.py [FILE ...]

With no arguments it reads ``src/debias_lab/*.py``.  Each line of a module
falls in exactly one class, so the four columns sum to its total, the count
``wc -l`` gives:

  blank      a line holding only whitespace, inside a docstring or not;
  docstring  any other line of a module, class or function docstring;
  comment    any other line whose first non-blank character is ``#``;
  code       every other line, including code with a trailing comment.

The last row sums the columns over every module.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that a docstring of ``tree`` spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def split(source: str) -> dict[str, int]:
    """The line counts of one module's source, by class and in total."""
    lines = source.splitlines()
    docs = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(COLUMNS, 0)
    counts["total"] = len(lines)
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            counts["blank"] += 1
        elif number in docs:
            counts["docstring"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def report(paths: list[Path]) -> list[tuple[str, dict[str, int]]]:
    """One (name, counts) row per file, then the ("total", sums) row."""
    rows = [(path.name, split(path.read_text())) for path in paths]
    sums = {column: sum(counts[column] for _, counts in rows) for column in COLUMNS}
    return rows + [("total", sums)]


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted((ROOT / "src" / "debias_lab").glob("*.py"))
    rows = report(paths)
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{c:>11}" for c in COLUMNS))
    for name, counts in rows:
        print(f"{name:<{width}}" + "".join(f"{counts[c]:>11,}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
