"""Mutation pilot: does some test fail when a check or a tolerance of the
library is weakened, tightened or dropped?

Each mutant is one exact text replacement in one module of ``src/mixedspec``.
For each, the script copies ``src/``, ``tests/``, ``README.md`` and
``pyproject.toml`` into a temporary directory, asserts that the text occurs
exactly once in the copy, applies the replacement, and runs
``python -m pytest tests -q -x -p no:cacheprovider`` there. A mutant is
killed when some test fails and survives when every test passes. The
unmutated copy runs first and must pass. The checkout is only read.

Run it from anywhere. It prints one tab-separated line per mutant (result,
seconds, name, the first failing test) and the total wall time.
``tests/mutants.txt`` holds the last run:

    python tests/mutation_pilot.py > tests/mutants.txt

The file is named so that pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "README.md", "pyproject.toml")
PYTEST = (sys.executable, "-m", "pytest", "tests", "-q", "-x", "-p", "no:cacheprovider")


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str


def _tolerance(module: str, name: str, value: str, *mutated: str) -> list[Mutant]:
    """One mutant per mutated value of the constant ``name``."""
    return [Mutant(f"{name} {value} -> {m}", module, f"{name} = {value}\n", f"{name} = {m}\n") for m in mutated]


def _checks(tag: str, old: str, *changes: tuple[str, str]) -> list[Mutant]:
    """One mutant per (label, replacement) of the condition text ``old``."""
    return [Mutant(f"{tag}: {label}", "harness.py", old, new) for label, new in changes]


_ENCLOSURE = "        return eta.tolist(), ((res + 2 * eta * wmax) / np.sqrt(1 - eta)).tolist()"
_GAMMA_GROW = "    gamma, grow = 4 * (n + 3) * u, 1 + 4 * (n * n + 1) * u"
_RANGE = "            if not (mu_n[i] - RAYLEIGH_PAD <= lowest[i] and highest[i] <= mu_1[i] + RAYLEIGH_PAD):"

MUTANTS = (
    # the residual enclosure of eig.oracle_eigenvalues
    Mutant("_enclosure: drop gamma", "eig.py", _GAMMA_GROW, _GAMMA_GROW.replace("4 * (n + 3) * u,", "0.0,")),
    Mutant("_enclosure: drop grow", "eig.py", _GAMMA_GROW, _GAMMA_GROW.replace("1 + 4 * (n * n + 1) * u", "1.0")),
    Mutant("_enclosure: drop the 2 eta term", "eig.py", _ENCLOSURE, _ENCLOSURE.replace(" + 2 * eta * wmax", "")),
    Mutant("_enclosure: drop / sqrt(1 - eta)", "eig.py", _ENCLOSURE, _ENCLOSURE.replace(" / np.sqrt(1 - eta)", "")),
    # every tolerance, loosened; the three pinned from both sides, tightened too
    *_tolerance("eig.py", "ENCLOSURE_RTOL", "1e-8", "1e-3"),
    *_tolerance("eig.py", "MOMENT_RTOL", "1e-8", "1e-3", "2e-9"),
    *_tolerance("harness.py", "ORACLE_RTOL", "1e-8", "1e-3"),
    *_tolerance("harness.py", "TRACE_TOL", "1e-9", "1e-3"),
    *_tolerance("harness.py", "IMAG_TOL", "1e-10", "1e-3"),
    *_tolerance("harness.py", "EXPANSION_TOL", "1e-10", "1e-3"),
    *_tolerance("harness.py", "RAYLEIGH_PAD", "1e-9", "1e-3", "1e-10"),
    *_tolerance("bounds.py", "SLACK_TOL", "1e-9", "1e-7", "1e-10"),
    Mutant("_trace2_limit: 64 -> 4096 ulps", "harness.py", "64 * math.ulp(closed_form)", "4096 * math.ulp(closed_form)"),
    # each comparison: its boundary moved onto the other side, and the check dropped
    Mutant("_scored: >= -> >", "bounds.py", "if d >= tol else", "if d > tol else"),
    Mutant("_scored: every row holds", "bounds.py", "if d >= tol else", "if True else"),
    *_checks(
        "oracle gap", "if oracle_gap[i] > limit:", ("> -> >=", "if oracle_gap[i] >= limit:"), ("dropped", "if False:")
    ),
    *_checks("trace checks", "if abs(got - want) > lim:", ("> -> >=", "if abs(got - want) >= lim:")),
    *_checks("trace check", '("trace", tr[i], exp_tr, TRACE_TOL),', ("dropped", "")),
    *_checks("tr(M^2) check", '("tr(M^2)", tr2[i], exp_tr2, _trace2_limit(exp_tr2)),', ("dropped", "")),
    *_checks("imaginary part", "if imag[i] > IMAG_TOL:", ("> -> >=", "if imag[i] >= IMAG_TOL:"), ("dropped", "if False:")),
    *_checks(
        "expansion", "if route_gap[i] > EXPANSION_TOL:",
        ("> -> >=", "if route_gap[i] >= EXPANSION_TOL:"), ("dropped", "if False:"),
    ),
    *_checks(
        "range, mu_n end", _RANGE,
        ("<= -> <", _RANGE.replace("<= lowest[i]", "< lowest[i]")),
        ("dropped", _RANGE.replace("mu_n[i] - RAYLEIGH_PAD <= lowest[i]", "True")),
    ),
    *_checks(
        "range, mu_1 end", _RANGE,
        ("<= -> <", _RANGE.replace("highest[i] <= mu_1[i]", "highest[i] < mu_1[i]")),
        ("dropped", _RANGE.replace("highest[i] <= mu_1[i] + RAYLEIGH_PAD", "True")),
    ),
)


def run(mutant: Mutant | None) -> tuple[str, float, str]:
    """Result, seconds and first failing test of one mutant (None: the unmutated copy)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, copy / name)
        if mutant is not None:
            target = copy / "src" / "mixedspec" / mutant.module
            text = target.read_text(encoding="utf-8")
            found = text.count(mutant.old)
            if found != 1:
                raise SystemExit(f"{mutant.name}: {mutant.old!r} occurs {found} times in {mutant.module}")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        start = time.perf_counter()
        proc = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = next((line[len("FAILED "):].split(" - ")[0] for line in proc.stdout.splitlines()
                   if line.startswith("FAILED ")), "")
    result = {0: "survived", 1: "killed"}.get(proc.returncode, f"error (pytest exit {proc.returncode})")
    return result, seconds, failed


def main() -> int:
    start = time.perf_counter()
    result, seconds, failed = run(None)
    if result != "survived":
        print(f"the unmutated tests do not pass ({result}, {failed})", file=sys.stderr)
        return 1
    print("# result\tseconds\tmutant\tfirst failing test")
    print(f"baseline\t{seconds:.1f}\tunmutated\t")
    for mutant in MUTANTS:
        result, seconds, failed = run(mutant)
        print(f"{result}\t{seconds:.1f}\t{mutant.module}: {mutant.name}\t{failed}", flush=True)
    print(f"# {len(MUTANTS)} mutants in {time.perf_counter() - start:.0f} s of wall time")
    return 0


if __name__ == "__main__":
    sys.exit(main())
