"""Count the lines of Python source files by kind: code, docstrings, comments, blanks.

Usage::

    python tools/src_lines.py            # every .py file under src/
    python tools/src_lines.py PATH ...   # these files, or the .py files under these directories

Each line gets exactly one kind, decided in this order:

1. docstring: a line spanned by a module, class or function docstring, found with ``ast``;
2. comment: any other line whose first non-blank character is ``#``;
3. blank: any other empty or whitespace-only line;
4. code: the rest.

Prints one line per file and a total line, ``lines = code + docstrings + comments + blanks``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterable, List

KINDS = ("code", "docstrings", "comments", "blanks")
ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(source: str) -> set:
    """The 1-based line numbers spanned by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> Dict[str, int]:
    """The number of lines of each kind in ``source``; the four sum to its line count."""
    docs = docstring_lines(source)
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstrings"] += 1
        elif stripped.startswith("#"):
            counts["comments"] += 1
        elif not stripped:
            counts["blanks"] += 1
        else:
            counts["code"] += 1
    return counts


def python_files(paths: Iterable[str]) -> List[Path]:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def _row(name: str, counts: Dict[str, int]) -> str:
    total = sum(counts.values())
    kinds = " + ".join(f"{counts[kind]:,} {kind}" for kind in KINDS)
    return f"{name}: {total:,} = {kinds}"


def main(argv: List[str]) -> int:
    paths = argv or [str(ROOT / "src")]
    total = dict.fromkeys(KINDS, 0)
    for path in python_files(paths):
        counts = count_lines(path.read_text(encoding="utf-8"))
        resolved = path.resolve()
        print(_row(str(resolved.relative_to(ROOT) if ROOT in resolved.parents else path), counts))
        for kind in KINDS:
            total[kind] += counts[kind]
    print(_row("total", total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
