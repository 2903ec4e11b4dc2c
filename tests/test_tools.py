"""The src/ line counter in tools/: every line gets one kind, in the documented order."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SYNTHETIC = '''"""Module docstring,

spanning three lines."""

# a comment
import math  # a trailing comment is code


class Shape:
    """One-line class docstring."""

    def area(self):
        """Function docstring
        # whose second line starts with # but is docstring."""
        return math.pi

    def perimeter(self):
        x = """not a docstring:
        an assignment"""
        return x
'''


def test_synthetic_file_is_classified_line_by_line(src_lines):
    # code: lines 6, 9, 12, 15, 17-20; docstrings: 1-3, 10, 13-14; comment: 5; blanks: 4, 7, 8, 11, 16
    assert src_lines.count_lines(SYNTHETIC) == {
        "code": 8,
        "docstrings": 6,
        "comments": 1,
        "blanks": 5,
    }


def test_kinds_sum_to_each_files_line_count(src_lines):
    files = src_lines.python_files([str(ROOT / "src")])
    assert files
    for path in files:
        source = path.read_text(encoding="utf-8")
        counts = src_lines.count_lines(source)
        assert set(counts) == set(src_lines.KINDS)
        assert sum(counts.values()) == len(source.splitlines()), path


def test_main_prints_a_total_line(src_lines, capsys):
    assert src_lines.main([str(ROOT / "src")]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("total: ") and "code + " in last
