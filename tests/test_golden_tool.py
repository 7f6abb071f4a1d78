"""tools/golden.py's compare on CSV reports: cell by cell, a float cell's
difference a float difference, any other one (an int cell's too) not."""

import importlib.util
import os
from pathlib import Path
from unittest import mock

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden.py"

HEADER = "lambda,gap,exc_multiplicity,phase\n"


def load_tool():
    """The tool as a module, kept out of sys.modules; the BLAS thread
    variables it sets on import are restored."""
    spec = importlib.util.spec_from_file_location("golden", TOOL)
    golden = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(golden)
    return golden


def compared(tmp_path, capsys, old: str, new: str) -> tuple:
    """(exit code, printed lines) of comparing two directories that hold
    one CSV report each, `old` and `new`."""
    for side, text in (("a", old), ("b", new)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "01-scan.csv").write_text(text)
    code = load_tool().compare(tmp_path / "a", tmp_path / "b")
    return code, capsys.readouterr().out.splitlines()


def test_a_float_cell_difference_is_a_float_difference(tmp_path, capsys):
    code, lines = compared(tmp_path, capsys,
                           HEADER + "0.5,0.30000000000000004,2,SPT\n",
                           HEADER + "0.5,0.3,2,SPT\n")
    assert code == 0
    assert lines[0] == "01-scan.csv: 1 float and 0 other fields differ"
    assert "[1].gap" in lines[1] and "|delta| = 5.55e-17" in lines[1]
    assert lines[-1] == ("1 files; largest float |delta| 5.55e-17; "
                         "0 non-float differences")


def test_header_row_count_int_and_text_differences_are_not(tmp_path, capsys):
    code, lines = compared(tmp_path, capsys,
                           HEADER + "0.5,0.3,2,SPT\n1.5,0.2,2,trivial\n",
                           "lambda,gap,exc_multiplicity,order\n"
                           "0.5,0.3,4,trivial\n")
    assert code == 1
    assert lines[0] == "01-scan.csv: 0 float and 4 other fields differ"
    # an int cell is a count, not a float, however small its change
    assert any("[1].exc_multiplicity: '2' -> '4'" in line for line in lines)
    assert lines[-1] == ("1 files; largest float |delta| 0; "
                         "4 non-float differences")

