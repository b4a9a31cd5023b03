"""Mutation pilot: does some test fail when a check or a tolerance of the
library is weakened, tightened or dropped?

Each mutant is one exact text replacement in one module of ``src/mixedspec``.
For each, the script copies ``src/``, ``tests/``, ``README.md`` and
``pyproject.toml`` into a temporary directory, asserts that the text occurs
exactly once in the copy, applies the replacement, and runs
``python -m pytest tests -q -x -p no:cacheprovider --hypothesis-seed=1``
there, so that two runs draw the same examples. A mutant is killed when
some test fails, or when the run takes more than 10 times the unmutated
copy's time (``killed (timeout)``: a mutant of ``graphs._PLAIN`` can
backtrack without end), and survives when every test passes. The unmutated
copy runs first and must pass. The checkout is only read.

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
# A fixed seed makes two runs draw the same examples; tests/mutants.txt was
# recorded with seed 1.
PYTEST = (sys.executable, "-m", "pytest", "tests", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=1")


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str


def _tolerance(module: str, name: str, value: str, *mutated: str) -> list[Mutant]:
    """One mutant per mutated value of the constant ``name``."""
    return [Mutant(f"{name} {value} -> {m}", module, f"{name} = {value}\n", f"{name} = {m}\n") for m in mutated]


def _checks(module: str, tag: str, old: str, *changes: tuple[str, str]) -> list[Mutant]:
    """One mutant per (label, replacement) of the condition text ``old``."""
    return [Mutant(f"{tag}: {label}", module, old, new) for label, new in changes]


_ENCLOSURE = "        return eta.tolist(), ((res + 2 * eta * wmax) / np.sqrt(1 - eta)).tolist()"
_GAMMA_GROW = "    gamma, grow = 4 * (n + 3) * u, 1 + 4 * (n * n + 1) * u"
_RANGE = "            if not (mu_n[i] - RAYLEIGH_PAD <= lowest[i] and highest[i] <= mu_1[i] + RAYLEIGH_PAD):"
_SUM = "        if not abs(sum1[i] - tr[i]) <= MOMENT_RTOL * max(1.0, abs(tr[i])):"
_SQUARE_SUM = "        elif not abs(sum2[i] - tr2[i]) <= MOMENT_RTOL * max(1.0, tr2[i]):"
_BETA = "        if failure is None and not beta[i] <= limit:"
_PLAIN = '    rb"[ \\t\\n]*[0-9]{1,18}[ \\t]*(?:\\n[ \\t\\n]*[0-9]{1,18}[ \\t]+-[->][ \\t]+[0-9]{1,18}[ \\t]*)*[ \\t\\n]*"'
_FINE = "    fine = (first >= 0) & (first < second) & (second < n)"
_ORIENTED = "    first = np.concatenate((i, np.minimum(t, h)))\n    second = np.concatenate((j, np.maximum(t, h)))"
_TINY = "    tiny = (np.abs(x) < SQUARE_UNDERFLOW) & (x != 0.0)"

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
        "harness.py", "oracle gap", "if oracle_gap[i] > limit:",
        ("> -> >=", "if oracle_gap[i] >= limit:"), ("dropped", "if False:"),
    ),
    *_checks("harness.py", "trace checks", "if abs(got - want) > lim:", ("> -> >=", "if abs(got - want) >= lim:")),
    *_checks("harness.py", "trace check", '("trace", tr[i], exp_tr, TRACE_TOL),', ("dropped", "")),
    *_checks("harness.py", "tr(M^2) check", '("tr(M^2)", tr2[i], exp_tr2, _trace2_limit(exp_tr2)),', ("dropped", "")),
    *_checks(
        "harness.py", "imaginary part", "if imag[i] > IMAG_TOL:",
        ("> -> >=", "if imag[i] >= IMAG_TOL:"), ("dropped", "if False:"),
    ),
    *_checks(
        "harness.py", "expansion", "if route_gap[i] > EXPANSION_TOL:",
        ("> -> >=", "if route_gap[i] >= EXPANSION_TOL:"), ("dropped", "if False:"),
    ),
    *_checks(
        "harness.py", "range, mu_n end", _RANGE,
        ("<= -> <", _RANGE.replace("<= lowest[i]", "< lowest[i]")),
        ("dropped", _RANGE.replace("mu_n[i] - RAYLEIGH_PAD <= lowest[i]", "True")),
    ),
    *_checks(
        "harness.py", "range, mu_1 end", _RANGE,
        ("<= -> <", _RANGE.replace("highest[i] <= mu_1[i]", "highest[i] < mu_1[i]")),
        ("dropped", _RANGE.replace("highest[i] <= mu_1[i] + RAYLEIGH_PAD", "True")),
    ),
    # the moment and enclosure checks of both eigen routes
    *_checks(
        "eig.py", "eigenvalue sum", _SUM,
        ("<= -> <", _SUM.replace("<=", "<")), ("dropped", "        if False:"),
    ),
    *_checks(
        "eig.py", "eigenvalue square sum", _SQUARE_SUM,
        ("<= -> <", _SQUARE_SUM.replace("<=", "<")), ("dropped", "        elif False:"),
    ),
    *_checks(
        "eig.py", "oracle enclosure", _BETA,
        ("<= -> <", _BETA.replace("<=", "<")), ("dropped", "        if False:"),
    ),
    # the primary route's flush of tiny parts: its threshold both ways, its
    # boundary, and the flush dropped
    *_tolerance("eig.py", "SQUARE_UNDERFLOW", "2.0**-511", "2.0**-540", "2.0**-480"),
    *_checks(
        "eig.py", "_flush_tiny", _TINY,
        ("< -> <=", _TINY.replace("<", "<=")), ("dropped", _TINY.replace("(np.abs(x) < SQUARE_UNDERFLOW)", "False")),
    ),
    # the plain grammar of graphs._byte_graph
    *_checks(
        "graphs.py", "_PLAIN", _PLAIN,
        ("labels of up to 20 digits", _PLAIN.replace("{1,18}", "{1,20}")),
        # the same language, but a first label can be split in up to ten ways
        ("first label as {1,9}{0,9}", _PLAIN.replace("{1,18}[ \\t]+-", "{1,9}[0-9]{0,9}[ \\t]+-")),
    ),
    # the one check of every graph's pairs, graphs._index_arrays, and the
    # label read before it
    *_checks(
        "graphs.py", "_index_arrays", _FINE,
        ("range check dropped", _FINE.replace(" & (second < n)", "")),
        ("negative labels allowed", _FINE.replace("(first >= 0) & ", "")),
        ("self-loop check dropped", _FINE.replace("first < second", "first <= second")),
    ),
    *_checks(
        "graphs.py", "_index_arrays", _ORIENTED,
        ("canonical-edge check dropped", _ORIENTED.replace("(i,", "(np.minimum(i, j),").replace("(j,", "(np.maximum(i, j),")),
    ),
    *_checks(
        "graphs.py", "_index_arrays", "    if np.count_nonzero(same := ordered[1:] == ordered[:-1]):",
        ("duplicate check dropped", "    if False:"),
    ),
    *_checks(
        "graphs.py", "_columns", "labels += operator.index(i), operator.index(j)",
        ("non-integer check dropped", "labels += i, j"),
    ),
    *_checks("graphs.py", "_byte_graph", 'b == ord(">")', ("arc mask from the - bytes", 'b == ord("-")')),
)


def run(mutant: Mutant | None, timeout: float | None = None) -> tuple[str, float, str]:
    """Result, seconds and first failing test of one mutant (None: the
    unmutated copy), whose tests are stopped after ``timeout`` seconds."""
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
        try:
            proc = subprocess.run(
                PYTEST, cwd=copy, env=env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return "killed (timeout)", time.perf_counter() - start, ""
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
    timeout = 10 * seconds
    for mutant in MUTANTS:
        result, seconds, failed = run(mutant, timeout)
        print(f"{result}\t{seconds:.1f}\t{mutant.module}: {mutant.name}\t{failed}", flush=True)
    print(f"# {len(MUTANTS)} mutants in {time.perf_counter() - start:.0f} s of wall time")
    return 0


if __name__ == "__main__":
    sys.exit(main())
