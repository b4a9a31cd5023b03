"""Golden output: CLI stdout pinned byte for byte across refactors.

The expected files under ``tests/data/`` were captured from the scalar-loop
implementation of the matrix build, the quadratic-form expansion and the
degree statistics. Any rewrite of the verification path must reproduce them
exactly: same spectra to the last bit, same bound values, same statuses,
same formatting. Criterion 8 only compares two runs of one tree; this file
compares the tree with a recorded past.

The spectra come from LAPACK, so the files hold for one NumPy/LAPACK build.
Regenerate them only for a deliberate change of output, from the repository
root with ``PYTHONPATH=src``:

    python -m mixedspec.cli report --graph tests/data/graph_n40.mg --alpha 0.35 > tests/data/report_n40.json
    python -m mixedspec.cli report --graph tests/data/graph_n40.mg --alpha 0.35 --beta-arg 0.7 --format csv > tests/data/report_n40.csv
    python -m mixedspec.cli sweep --graph tests/data/graph_n16.mg --alpha 0:1:0.05 > tests/data/sweep_n16.csv
    python -m mixedspec.cli check --trials 200 --seed 7 > tests/data/check_200_seed7.json

The graph files themselves are ``mixedspec random --n 40 --edge-prob 0.3
--seed 40`` and ``mixedspec random --n 16 --edge-prob 0.4 --seed 16``.
"""

from pathlib import Path

import pytest

from mixedspec.cli import main

DATA = Path(__file__).parent / "data"
N40 = str(DATA / "graph_n40.mg")
N16 = str(DATA / "graph_n16.mg")

CASES = {
    "report_n40.json": ["report", "--graph", N40, "--alpha", "0.35"],
    "report_n40.csv": [
        "report", "--graph", N40, "--alpha", "0.35", "--beta-arg", "0.7", "--format", "csv",
    ],
    "sweep_n16.csv": ["sweep", "--graph", N16, "--alpha", "0:1:0.05"],
    "check_200_seed7.json": ["check", "--trials", "200", "--seed", "7"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_file(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / name).read_text(encoding="utf-8")
