"""scripts/report_digest.py --diff on hand-made digests."""

import importlib.util
import pathlib
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "report_digest.py"


def _load():
    """The script as a module."""
    spec = importlib.util.spec_from_file_location("report_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def digest():
    return _load()


def test_import_leaves_the_interpreter_alone():
    """Loading the script sets no bytecode flag, puts no perfbench/ entry on sys.path and
    imports no workloads module; only building the cases does."""
    flag, path = sys.dont_write_bytecode, list(sys.path)
    module = _load()
    assert (sys.dont_write_bytecode, sys.path) == (flag, path)
    assert not hasattr(module, "workloads")


def _row(leaves, code=0, stderr="", report="r"):
    return [code, report, None, stderr, leaves]


def test_diff_compares_fit_slope_and_root_residuals_absolutely(digest):
    """A flat curve's fit_slope of -6.9e-15 against -6.3e-16 is 0.909 apart relative; read
    absolutely it is 6.27e-15 and no longer hides a 4.5e-16 gap in a row value."""
    before = {
        "flat": _row({"/results/fit_slope": -6.9e-15, "/results/rows/0/value": 1.0}),
        "root": _row({"/results/pressure_at_root": 1e-17, "/results/iterations/0/pressure": 2e-15,
                      "/results/t_star": 0.5}),
        "split": _row({"/results/a": 1.0, "/results/b": 2.0}),
        "failed": _row(None, code=1, stderr="error: x\n", report=None),
    }
    after = {
        "flat": _row({"/results/fit_slope": -6.3e-16, "/results/rows/0/value": 1.0 + 4.5e-16},
                     report="s"),
        "root": _row({"/results/pressure_at_root": -1e-17, "/results/iterations/0/pressure": -2e-15,
                      "/results/t_star": 0.5}),
        "split": _row({"/results/a": 1.0, "/results/c": 3.0}),
        "failed": _row(None, code=1, stderr="error: y\n", report=None),
    }
    assert digest.diff(before, after) == {
        "max_relative_difference": (1.0 + 4.5e-16 - 1.0) / (1.0 + 4.5e-16),
        "at": ["flat", "/results/rows/0/value", 1.0, 1.0 + 4.5e-16],
        "max_residual_abs_difference": -6.3e-16 - -6.9e-15,
        "residual_at": ["flat", "/results/fit_slope", -6.9e-15, -6.3e-16],
        "cases": 4,
        "same_hashes": 3,
        "leaf_paths_on_one_side": {"split": {"before_only": ["/results/b"],
                                             "after_only": ["/results/c"]}},
        "other_differences": ["failed"],
    }
    del before["flat"], after["flat"]
    result = digest.diff(before, after)
    assert result["max_residual_abs_difference"] == 4e-15
    assert result["residual_at"] == ["root", "/results/iterations/0/pressure", 2e-15, -2e-15]
    assert (result["max_relative_difference"], result["at"]) == (0.0, None)
