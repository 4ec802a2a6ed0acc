"""Start-up contract: only the Monte Carlo layer loads numpy.

Checks on ``sys.modules`` run in a fresh interpreter, because this test
process has numpy loaded already.
"""

import ast
import csv
import io
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import impactval
from impactval import leverage as lev
from impactval.cli import main

SRC = str(Path(impactval.__file__).resolve().parents[1])


def run_fresh(code: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )


NUMPY_FREE_COMMANDS = {
    "value": ["value", "--Q", "1e6", "--p0", "10", "--sigma", "2%", "--V", "1e5",
              "--format", "json"],
    "critical": ["critical", "--lambda0", "9", "--impact", "0.19", "--format", "json"],
    "report": ["report", "--format", "json"],
    "trajectory-exit": ["trajectory", "--lambda0", "9", "--impact", "0.15", "--grid", "101"],
    "trajectory-roundtrip": ["trajectory", "--mode", "roundtrip", "--Q", "1e6", "--p0", "10",
                             "--E0", "1.1e6", "--sigma", "19%", "--V", "1e6", "--grid", "101"],
    "estimate": ["estimate", "series.csv", "--format", "json"],
}


def write_series(directory: Path) -> None:
    """A 196-day market CSV, long enough for the default estimation policy."""
    lines = ["date,close,volume"]
    for day in range(1, 29):
        for month in range(1, 8):
            lines.append(f"2024-{month:02d}-{day:02d},{100 + (day * month) % 7},1e6")
    lines[1:] = sorted(lines[1:])
    (directory / "series.csv").write_text("\n".join(lines) + "\n")


def test_only_montecarlo_imports_numpy():
    package = Path(impactval.__file__).parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m == "numpy" or m.startswith("numpy.") for m in modules):
                importers.add(path.name)
    assert importers == {"montecarlo.py"}


def test_import_cli_does_not_load_numpy(tmp_path):
    proc = run_fresh(
        """
        import sys
        import impactval.cli
        assert "numpy" not in sys.modules, "import impactval.cli loaded numpy"
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS.values(), ids=NUMPY_FREE_COMMANDS.keys())
def test_closed_form_commands_do_not_load_numpy(argv, tmp_path):
    write_series(tmp_path)
    proc = run_fresh(
        f"""
        import sys
        from impactval.cli import main
        assert main({[*argv, "--out", "result"]!r}) == 0
        assert "numpy" not in sys.modules, "the command loaded numpy"
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "result").stat().st_size > 0


def test_array_commands_load_numpy_when_run(tmp_path):
    proc = run_fresh(
        """
        import sys
        from impactval.cli import main
        assert main(["bankruptcy", "--lambda0", "9", "--eta", "10", "--impact-grid",
                     "0.1:0.2:3", "--trials", "50", "--out", "curve.csv"]) == 0
        assert "numpy" in sys.modules
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "curve.csv").read_text().splitlines()) == 4


def test_fit_transition_runs_without_scipy(tmp_path):
    proc = run_fresh(
        """
        import sys
        sys.modules["scipy"] = None  # any import of scipy now fails
        from impactval.montecarlo import fit_transition
        fitted = fit_transition([0.05, 0.1, 0.15, 0.2, 0.25], [0.02, 0.2, 0.5, 0.8, 0.98])
        assert 0.14 < fitted.center < 0.16 and fitted.width > 0.0, fitted
        assert not [name for name in sys.modules if name.startswith("scipy.")]
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


def test_package_montecarlo_names_load_on_first_access(tmp_path):
    proc = run_fresh(
        """
        import sys
        import impactval
        assert "numpy" not in sys.modules
        from impactval import BankruptcyMode, transition_curve
        from impactval.montecarlo import BankruptcyMode as direct
        assert BankruptcyMode is direct and callable(transition_curve)
        assert "numpy" in sys.modules
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


def test_package_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        impactval.nope
    assert not hasattr(impactval, "nope")


@pytest.mark.parametrize("count", [0, 1, 2, 17, 1001, 100000])
def test_linspace_matches_numpy(count):
    rng = random.Random(count)
    pairs = [(0.0, 1.0), (0.0, 0.3), (-2.5, 2.5), (3.0, 3.0), (-1e-3, -1e-3), (7.0, -7.0)]
    pairs += [(rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)) for _ in range(5)]
    pairs += [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(5)]
    for start, stop in pairs:
        assert lev.linspace(start, stop, count) == np.linspace(start, stop, count).tolist()


def test_linspace_rejects_negative_count():
    with pytest.raises(ValueError):
        lev.linspace(0.0, 1.0, -1)


def test_bankruptcy_default_grid_has_16_points(capsys):
    code = main(["bankruptcy", "--lambda0", "9", "--eta", "10", "--trials", "20", "--seed", "1"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 17  # header and the 16 points of 0:0.3:16
    assert [float(row[0]) for row in rows[1:]] == np.linspace(0.0, 0.3, 16).tolist()
