"""Golden output: CLI stdout pinned byte for byte across refactors.

The expected files under ``tests/data/`` were captured from the scalar-loop
implementation of the matrix build, the quadratic-form expansion and the
degree statistics. Any rewrite of the verification path must reproduce them
exactly: same spectra to the last bit, same bound values, same statuses,
same formatting. Criterion 8 only compares two runs of one tree; this file
compares the tree with a recorded past.

The spectra come from LAPACK, so the files hold for one NumPy/LAPACK build,
and the n = 40 and n = 16 cases for one BLAS kernel path too: NumPy's bundled
OpenBLAS picks its kernels for the CPU (or as ``OPENBLAS_CORETYPE`` says),
and zheevd's last bits follow them. Those cases first compare the running
kernel path, read through ``ctypes``, with ``CAPTURED_CORE``, the one the
files were captured on, and on a mismatch fail with one line naming both.
Where the path cannot be read, they compare bytes as the others do.
Regenerate them only for a deliberate change of output, from the repository
root with ``PYTHONPATH=src``:

    python -m mixedspec.cli report --graph tests/data/graph_n40.mg --alpha 0.35 > tests/data/report_n40.json
    python -m mixedspec.cli report --graph tests/data/graph_n40.mg --alpha 0.35 --beta-arg 0.7 --format csv > tests/data/report_n40.csv
    python -m mixedspec.cli sweep --graph tests/data/graph_n16.mg --alpha 0:1:0.05 > tests/data/sweep_n16.csv
    python -m mixedspec.cli sweep --graph tests/data/graph_n40.mg --alpha 0:1:0.01 > tests/data/sweep_n40_fine.csv
    python -m mixedspec.cli sweep --graph tests/data/graph_n16.mg --alpha 0:1:0.25 --beta-arg -0.4 --seed 5 --format json > tests/data/sweep_n16_beta-0.4_seed5.json
    python -m mixedspec.cli check --trials 200 --seed 7 > tests/data/check_200_seed7.json

The JSON sweep passes a beta angle and a sampling seed through ``sweep``,
which the CSV sweep, with its default beta and seed, never does.

The graph files themselves are ``mixedspec random --n 40 --edge-prob 0.3
--seed 40`` and ``mixedspec random --n 16 --edge-prob 0.4 --seed 16``.

The small-n cases reach the not-applicable paths of the catalog (n = 1,
n = 2 without an edge, n = 2 with one arc), which the n = 40 and n = 16
graphs never do. ``graph_n1.mg`` is ``1``, ``graph_n2_empty.mg`` is ``2``
and ``graph_n2_arc.mg`` is ``2`` / ``1 -> 2``. Regenerate with:

    for g in n1 n2_empty n2_arc; do for a in 0 0.5; do
      python -m mixedspec.cli report --graph tests/data/graph_$g.mg --alpha $a > tests/data/report_${g}_a$a.json
      python -m mixedspec.cli report --graph tests/data/graph_$g.mg --alpha $a --beta-arg 0.3 --format csv > tests/data/report_${g}_a$a.csv
    done; done
    python -m mixedspec.cli check --trials 300 --seed 11 --min-n 1 --max-n 4 > tests/data/check_300_seed11_n1_4.json

A report scores one point, so the files above never hold a None,
NOT_APPLICABLE or EXPECTED_FAIL cell inside a multi-point block, where one
column of a bound can change status between points (``unit_offdiag_*`` at
alpha 0 against alpha > 0). Three-point sweeps on the same graphs pin that:

    for g in n1 n2_empty n2_arc; do
      python -m mixedspec.cli sweep --graph tests/data/graph_$g.mg --alpha 0:1:0.5 --format json > tests/data/sweep_$g.json
      python -m mixedspec.cli sweep --graph tests/data/graph_$g.mg --alpha 0:1:0.5 --beta-arg 0.3 > tests/data/sweep_$g.csv
    done

``tests/data/random_graphs.json`` pins ``random_mixed_graph`` itself (see
``test_graphs.TestRandomGraph.test_pinned_graphs``).

Two cases also run as ``python -m mixedspec.cli`` in a fresh interpreter,
since the in-process cases share whatever one process has warmed up.

A guard runs this file again in a child process under each other kernel
path the CPU supports (``OPENBLAS_CORETYPE`` set for the child only): there
the kernel-bound cases must fail with the one-line message and all others
must pass.
"""

import ctypes
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from mixedspec.cli import main

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"
N40 = str(DATA / "graph_n40.mg")
N16 = str(DATA / "graph_n16.mg")

CASES = {
    "report_n40.json": ["report", "--graph", N40, "--alpha", "0.35"],
    "report_n40.csv": [
        "report", "--graph", N40, "--alpha", "0.35", "--beta-arg", "0.7", "--format", "csv",
    ],
    "sweep_n16.csv": ["sweep", "--graph", N16, "--alpha", "0:1:0.05"],
    "sweep_n40_fine.csv": ["sweep", "--graph", N40, "--alpha", "0:1:0.01"],
    "sweep_n16_beta-0.4_seed5.json": [
        "sweep", "--graph", N16, "--alpha", "0:1:0.25", "--beta-arg", "-0.4", "--seed", "5",
        "--format", "json",
    ],
    "check_200_seed7.json": ["check", "--trials", "200", "--seed", "7"],
    "check_300_seed11_n1_4.json": [
        "check", "--trials", "300", "--seed", "11", "--min-n", "1", "--max-n", "4",
    ],
}
CAPTURED_CORE = "SkylakeX"
KERNEL_BOUND = {
    "report_n40.json", "report_n40.csv", "sweep_n16.csv", "sweep_n40_fine.csv",
    "sweep_n16_beta-0.4_seed5.json",
}


def _openblas_core():
    """The kernel path NumPy's bundled OpenBLAS runs, or None where it
    cannot be read."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            return None
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


CORE = _openblas_core()


def _require_captured_core(name):
    if name in KERNEL_BOUND and CORE not in (None, CAPTURED_CORE):
        pytest.fail(
            f"{name} was captured on OpenBLAS kernel path {CAPTURED_CORE}, this run uses {CORE}",
            pytrace=False,
        )


for _g in ("n1", "n2_empty", "n2_arc"):
    for _a in ("0", "0.5"):
        _report = ["report", "--graph", str(DATA / f"graph_{_g}.mg"), "--alpha", _a]
        CASES[f"report_{_g}_a{_a}.json"] = _report
        CASES[f"report_{_g}_a{_a}.csv"] = _report + ["--beta-arg", "0.3", "--format", "csv"]
    _sweep = ["sweep", "--graph", str(DATA / f"graph_{_g}.mg"), "--alpha", "0:1:0.5"]
    CASES[f"sweep_{_g}.json"] = _sweep + ["--format", "json"]
    CASES[f"sweep_{_g}.csv"] = _sweep + ["--beta-arg", "0.3"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_file(name, capsys):
    _require_captured_core(name)
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / name).read_text(encoding="utf-8")


COLD_START = ["report_n40.json", "sweep_n16_beta-0.4_seed5.json"]


@pytest.mark.parametrize("name", COLD_START)
def test_cold_start_stdout_matches_golden_file(name):
    _require_captured_core(name)
    # a fresh interpreter sees none of the state that warms up inside this
    # process (caches, imported modules), as a user's first run does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "mixedspec.cli", *CASES[name]],
        cwd=ROOT, env=env, capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout == (DATA / name).read_bytes()


# the other kernel paths the guard tries, each with the CPU flag it needs
OTHER_CORES = {"Haswell": "avx2", "Sandybridge": "avx"}


def _cpu_flags() -> set[str]:
    try:
        lines = Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines()
    except OSError:
        return set()
    return {f for line in lines if line.startswith("flags") for f in line.partition(":")[2].split()}


@pytest.mark.parametrize("core", sorted(OTHER_CORES))
def test_other_kernel_path_fails_only_kernel_bound_cases(core, tmp_path):
    if CORE is None:
        pytest.skip("the OpenBLAS kernel path cannot be read")
    if core == CORE or OTHER_CORES[core] not in _cpu_flags():
        pytest.skip(f"{core} is the running path or this CPU lacks {OTHER_CORES[core]}")
    env = dict(os.environ, OPENBLAS_CORETYPE=core)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    junit = tmp_path / "golden.xml"
    this = Path(__file__).relative_to(ROOT).as_posix()
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", this, "-q", "-p", "no:cacheprovider",
            "--deselect", f"{this}::{test_other_kernel_path_fails_only_kernel_bound_cases.__name__}",
            f"--junitxml={junit}",
        ],
        cwd=ROOT, env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout.decode(errors="replace")
    cases = ET.parse(junit).getroot().iter("testcase")
    outcomes = {c.get("name"): [(e.tag, e.get("message")) for e in c] for c in cases}
    bound = {f"test_stdout_matches_golden_file[{n}]": n for n in KERNEL_BOUND}
    bound.update({f"test_cold_start_stdout_matches_golden_file[{n}]": n for n in COLD_START})
    assert len(outcomes) == len(CASES) + len(COLD_START)
    for name, result in outcomes.items():
        if name in bound:
            message = f"{bound[name]} was captured on OpenBLAS kernel path {CAPTURED_CORE}, this run uses {core}"
            assert result == [("failure", f"Failed: {message}")], name
        else:
            assert result == [], name
