"""The src/ line counter in tools/: every line gets one kind, in the documented order."""

import importlib.util
import shutil
import subprocess
import sys
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


# --help is no path: it used to end in a FileNotFoundError traceback
@pytest.mark.parametrize("argv", [["--help"], [str(ROOT / "src"), str(ROOT / "nowhere")]])
def test_missing_path_prints_the_usage_and_counts_nothing(src_lines, capsys, argv):
    assert src_lines.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert repr(argv[-1]) in err and "Usage::" in err


@pytest.fixture(scope="module")
def output_hashes():
    spec = importlib.util.spec_from_file_location("output_hashes", ROOT / "tools" / "output_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_hashes_name_every_output_and_repeat(output_hashes, capsys):
    runs = []
    for _ in range(2):
        assert output_hashes.main([]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    assert [line.split("  ", 1)[1] for line in runs[0]] == [
        "verify",
        "verify --side both --n-max 3 --q-max 20",
        "verify --z-point 0.999999999999999",
        "figure --nu 12.3 --points 300",
        "verify --n-max 0 --q-max 8",
        "figure --nu 4/97 --points 60",
        "figure --nu 1/3 --z-start 2e301 --z-end 1e302 --points 3",
        "values",
        "evaluations",
        "records",
    ]
    assert all(len(line.split("  ", 1)[0]) == 64 for line in runs[0])


def test_output_hashes_refuse_an_unknown_name(output_hashes, capsys):
    assert output_hashes.main(["nothing"]) == 2
    assert "unknown outputs" in capsys.readouterr().err


# --src DIR hashes the package under DIR, read as the script starts: a copy of src/ and a
# directory whose betareduce/ is a symlink to src/betareduce hash as src/ does, and an edit in
# the copy moves the hash
def hashes_of(*args):
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_hashes.py"), *args], capture_output=True, text=True, timeout=300
    )
    return run.returncode, run.stdout, run.stderr


def test_output_hashes_of_another_tree(output_hashes, capsys, tmp_path):
    assert output_hashes.main(["records"]) == 0
    here = capsys.readouterr().out
    copy, linked = tmp_path / "src", tmp_path / "linked"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    linked.mkdir()
    (linked / "betareduce").symlink_to(ROOT / "src" / "betareduce", target_is_directory=True)
    assert hashes_of("--src", str(copy), "records") == (0, here, "")
    assert hashes_of("records", "--src", str(linked)) == (0, here, "")
    verify = copy / "betareduce" / "verify.py"
    source = verify.read_text(encoding="utf-8")
    assert "abs_err,rel_err" in source
    verify.write_text(source.replace("abs_err,rel_err", "rel_err,abs_err"), encoding="utf-8")
    code, moved, _ = hashes_of("records", "--src", str(copy))
    assert code == 0 and moved != here and moved.endswith("  records\n")


@pytest.mark.parametrize("tail", [["--src", "nowhere"], ["values", "--src"]])
def test_output_hashes_refuse_a_src_without_the_package(tmp_path, tail):
    code, out, err = hashes_of(*[str(tmp_path / arg) if arg == "nowhere" else arg for arg in tail])
    assert (code, out) == (2, "")
    assert "--src needs a directory holding betareduce/" in err
