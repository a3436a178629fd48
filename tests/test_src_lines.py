import importlib.util
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment


class A:
    """Class docstring."""

    X = """a string constant
    over two lines"""


def f(a):
    """Function docstring.

    More of it.
    """

    return (a +
            1)  # a trailing comment
'''


def test_code_lines_skips_docstrings_comments_and_blanks():
    # counted: the class line, both lines of X, the def line and both
    # lines of the return
    assert src_lines.code_lines(SAMPLE) == 6


def test_script_total_is_sum_of_module_rows(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(SAMPLE)
    (pkg / "b.py").write_text("x = 1\n\n# c\ny = 2\n")
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True, check=True
    ).stdout
    rows = [re.fullmatch(r"\s*(\d+)  (.+)", line).groups() for line in out.splitlines()]
    *modules, (total, label) = rows
    assert label == "total"
    assert [name for _, name in modules] == ["pkg/__init__.py", "pkg/b.py"]
    assert [int(n) for n, _ in modules] == [6, 2]
    assert int(total) == sum(int(n) for n, _ in modules)


def test_script_counts_this_repository():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    total = int(lines[-1].split()[0])
    assert lines[-1].endswith("total")
    assert total == sum(int(line.split()[0]) for line in lines[:-1])
