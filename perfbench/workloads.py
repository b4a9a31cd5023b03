"""The benchmark's workloads: inputs made from the seed, the timed op, and the
correctness gate that checks each op's output against an independent
reference.

The reference builds A_alpha = alpha*D + (1-alpha)*H_beta with NumPy from the
benchmark's own copy of the graph and parameters, without calling
``mixedspec.matrices``, and solves it with ``np.linalg.eigvalsh``. An op fails
if it raises, exits non-zero, reports a violated bound, prints output that
differs from an earlier op on the same input, or emits a spectrum that misses
the reference by more than 1e-8 * ||M||_F.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ORACLE_RTOL = 1e-8
OMEGA = complex(0.5, math.sqrt(3.0) / 2.0)


@dataclass(frozen=True)
class Graph:
    """The benchmark's own edge-list copy of a graph (0-based)."""

    n: int
    undirected: tuple[tuple[int, int], ...]
    arcs: tuple[tuple[int, int], ...]

    def text(self) -> str:
        """The program's edge-list file format: n, then 1-based 'i -- j' / 't -> h' lines."""
        lines = [str(self.n)]
        lines += [f"{i + 1} -- {j + 1}" for i, j in self.undirected]
        lines += [f"{t + 1} -> {h + 1}" for t, h in self.arcs]
        return "\n".join(lines) + "\n"


def random_graph(rng: np.random.Generator, n: int, edge_prob: float, arc_prob: float) -> Graph:
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < edge_prob
    i, j = iu[keep], ju[keep]
    is_arc = rng.random(i.size) < arc_prob
    flip = rng.random(i.size) < 0.5
    tails = np.where(flip, j, i)[is_arc]
    heads = np.where(flip, i, j)[is_arc]
    return Graph(
        n=n,
        undirected=tuple(zip(i[~is_arc].tolist(), j[~is_arc].tolist())),
        arcs=tuple(zip(tails.tolist(), heads.tolist())),
    )


def reference_matrix(n, undirected, arcs, alpha: float, beta: complex) -> np.ndarray:
    h = np.zeros((n, n), dtype=np.complex128)
    for i, j in undirected:
        h[i, j] = h[j, i] = 1.0
    for t, hd in arcs:
        h[t, hd] = beta
        h[hd, t] = beta.conjugate()
    degrees = np.count_nonzero(h, axis=1).astype(np.float64)
    return alpha * np.diag(degrees) + (1.0 - alpha) * h


@dataclass(frozen=True)
class Reference:
    values: np.ndarray  # non-increasing
    limit: float  # ORACLE_RTOL * ||M||_F

    @classmethod
    def solve(cls, n, undirected, arcs, alpha, beta) -> "Reference":
        m = reference_matrix(n, undirected, arcs, alpha, beta)
        return cls(np.linalg.eigvalsh(m)[::-1], ORACLE_RTOL * float(np.linalg.norm(m)))

    def error_ratio(self, emitted) -> float:
        """Worst |emitted - reference| over the limit; inf on a length mismatch."""
        emitted = np.asarray(emitted, dtype=np.float64)
        if emitted.shape != self.values.shape:
            return math.inf
        return self._ratio(float(np.max(np.abs(emitted - self.values))))

    def ends_error_ratio(self, mu1: float, mun: float) -> float:
        """Like error_ratio, for the largest and smallest eigenvalue only."""
        return self._ratio(max(abs(mu1 - self.values[0]), abs(mun - self.values[-1])))

    def _ratio(self, gap: float) -> float:
        if self.limit == 0.0:
            return 0.0 if gap == 0.0 else math.inf
        return gap / self.limit


@dataclass
class Outcome:
    """What the gate decided about one op. ``text`` is the op's stdout
    (or, for ``suite``, a canonical line standing in for it)."""

    text: str
    error: str | None
    ref_err_ratio: float


@dataclass(frozen=True)
class CliCase:
    """One ``cli.main`` invocation with its expected reference spectra."""

    key: str
    argv: list[str]
    alphas: list[float]
    refs: list[Reference]


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    name = ""
    digest_ops = 1  # the run's digest covers this many leading ops
    pass_ops = 1  # a run ends on a multiple of this many ops
    tail_level = 60.0  # percentile reported as op_tail_ms
    min_ops = 25  # ops needed for ten samples beyond tail_level

    def __init__(self, mixedspec_pkg, rng: np.random.Generator, workdir: Path):
        self.ms = mixedspec_pkg

    def case(self, i: int):
        raise NotImplementedError

    def run(self, case):
        """The timed op."""
        raise NotImplementedError

    def check(self, case, result) -> Outcome:
        """The gate, run outside the op timer."""
        raise NotImplementedError


class Suite(Workload):
    """Each op is one randomized-suite trial: a new small graph every time.

    The suite draws n uniformly from 2..12. Here trial k instead runs with
    n_range = (n, n), n = SIZES[k % 11], and a run ends on a whole pass over
    SIZES, so every size has the same weight in every run. Op times grow
    steeply with n, and with a random mix of sizes the median op time of ten
    seeds spread by 0.09 to 0.13 of its value. The harness draws everything
    else for trial k as before.
    """

    name = "suite"
    digest_ops = 200
    SIZES = tuple(range(2, 13))
    pass_ops = len(SIZES)
    tail_level = 99.0
    min_ops = 1000

    def __init__(self, mixedspec_pkg, rng, workdir):
        super().__init__(mixedspec_pkg, rng, workdir)
        seed = int(rng.integers(0, 2**31))
        self.cfgs = [mixedspec_pkg.SweepConfig(seed=seed, n_range=(n, n)) for n in self.SIZES]

    def case(self, i: int) -> int:
        return i

    def run(self, trial: int):
        return self.ms.harness.run_trial(self.cfgs[trial % self.pass_ops], trial)

    def check(self, trial: int, report) -> Outcome:
        spec = report.spectrum.values
        statuses = ",".join(c.status.value for c in report.checked)
        text = f"{trial} {' '.join(repr(v) for v in spec)} {statuses}\n"
        g = report.graph
        if g.n != self.SIZES[trial % self.pass_ops]:
            return Outcome(text, f"trial {trial}: n={g.n}, expected {self.SIZES[trial % self.pass_ops]}", 0.0)
        ref = Reference.solve(g.n, g.undirected, g.arcs, report.alpha, complex(*report.beta))
        ratio = ref.error_ratio(spec)
        if ratio > 1.0:
            return Outcome(text, f"trial {trial}: spectrum misses reference ({ratio:.3g} x limit)", ratio)
        if report.violated:
            names = [c.result.name for c in report.violated]
            return Outcome(text, f"trial {trial}: violated bounds {names}", ratio)
        return Outcome(text, None, ratio)


class CliWorkload(Workload):
    """Ops are ``cli.main`` calls on graph files written before the timed loop.
    Repeated inputs must reproduce their first stdout byte for byte."""

    def __init__(self, mixedspec_pkg, rng, workdir):
        super().__init__(mixedspec_pkg, rng, workdir)
        self.pool: list[CliCase] = []
        self.first_text: dict[str, str] = {}

    def write_graph(self, workdir: Path, key: str, g: Graph) -> str:
        path = workdir / f"{key}.txt"
        path.write_text(g.text(), encoding="utf-8")
        return str(path)

    def case(self, i: int) -> CliCase:
        return self.pool[i % len(self.pool)]

    def run(self, case: CliCase):
        return run_cli(self.ms.cli, case.argv)

    def check(self, case: CliCase, result) -> Outcome:
        code, text = result
        if code != 0:
            return Outcome(text, f"{case.key}: exit code {code}", 0.0)
        first = self.first_text.setdefault(case.key, text)
        if text != first:
            return Outcome(text, f"{case.key}: stdout differs from an earlier op on the same input", 0.0)
        try:
            return self.check_spectra(case, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return Outcome(text, f"{case.key}: unreadable output ({exc})", 0.0)

    def check_spectra(self, case: CliCase, text: str) -> Outcome:
        raise NotImplementedError


class ReportLarge(CliWorkload):
    """Each op is ``report`` (JSON output) on one of 32 graphs, n = 32, 40 or 48."""

    name = "report-large"
    # (n, edge probability, arc probability, beta is omega). Each combination
    # of sparse or dense, arc-heavy or edge-heavy, omega or general beta occurs
    # once at n = 32, twice at n = 40 and once at n = 48. The sizes do not
    # depend on the seed. Half the ops are n = 40, so the median and p60 fall
    # inside that group: at a boundary between two sizes they would jump
    # between them with how many Jacobi sweeps one random graph happens to
    # need. Within the group, the op time of a random n = 40 graph ranges over
    # about 0.8 to 1.2 s, so the group has 16 distinct graphs for the median
    # to settle on.
    SHAPES = tuple(
        (n, (0.15, 0.8)[k % 2], (0.9, 0.1)[k // 2 % 2], k // 4 % 2 == 0)
        for k, n in enumerate((32,) * 8 + (40,) * 16 + (48,) * 8)
    )
    digest_ops = pass_ops = len(SHAPES)

    def __init__(self, mixedspec_pkg, rng, workdir):
        super().__init__(mixedspec_pkg, rng, workdir)
        for k, (n, p_edge, p_arc, omega) in enumerate(self.SHAPES):
            g = random_graph(rng, n, p_edge, p_arc)
            # interior alpha only: at alpha = 1 the matrix is diagonal and the solve is trivial
            alpha = float(f"{rng.uniform(0.05, 0.95):.6f}")
            theta = float(f"{rng.uniform(-math.pi / 2, math.pi / 2):.6f}")
            beta = OMEGA if omega else complex(math.cos(theta), math.sin(theta))
            key = f"g{k}-n{n}"
            argv = ["report", "--graph", self.write_graph(workdir, key, g), "--alpha", repr(alpha)]
            if not omega:
                argv += ["--beta-arg", repr(theta)]
            ref = Reference.solve(g.n, g.undirected, g.arcs, alpha, beta)
            self.pool.append(CliCase(key, argv, [alpha], [ref]))
        order = rng.permutation(len(self.pool))
        self.pool = [self.pool[i] for i in order]

    def check_spectra(self, case: CliCase, text: str) -> Outcome:
        doc = json.loads(text)
        if doc["alpha"] != case.alphas[0]:
            return Outcome(text, f"{case.key}: alpha {doc['alpha']} != {case.alphas[0]}", 0.0)
        ratio = case.refs[0].error_ratio(doc["spectrum"])
        if ratio > 1.0:
            return Outcome(text, f"{case.key}: spectrum misses reference ({ratio:.3g} x limit)", ratio)
        return Outcome(text, None, ratio)


class SweepFine(CliWorkload):
    """Each op is ``sweep`` (CSV output) over alpha = 0:1:0.05 on one n=16 graph."""

    name = "sweep-fine"
    digest_ops = 1
    N = 16
    GRID_POINTS = 21

    def __init__(self, mixedspec_pkg, rng, workdir):
        super().__init__(mixedspec_pkg, rng, workdir)
        g = random_graph(rng, self.N, 0.4, 0.5)
        alphas = [i * 0.05 for i in range(self.GRID_POINTS)]
        refs = [Reference.solve(g.n, g.undirected, g.arcs, a, OMEGA) for a in alphas]
        argv = ["sweep", "--graph", self.write_graph(workdir, "sweep", g), "--alpha", "0:1:0.05"]
        self.pool.append(CliCase("sweep", argv, alphas, refs))

    def check_spectra(self, case: CliCase, text: str) -> Outcome:
        lines = text.splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(case.alphas):
            return Outcome(text, f"sweep: {len(rows)} rows, expected {len(case.alphas)}", 0.0)
        col = {name: header.index(name) for name in ("alpha", "mu1", "muN")}
        worst = 0.0
        for row, alpha, ref in zip(rows, case.alphas, case.refs):
            if abs(float(row[col["alpha"]]) - alpha) > 1e-12:
                return Outcome(text, f"sweep: row alpha {row[col['alpha']]} != {alpha}", worst)
            ratio = ref.ends_error_ratio(float(row[col["mu1"]]), float(row[col["muN"]]))
            worst = max(worst, ratio)
        if worst > 1.0:
            return Outcome(text, f"sweep: mu1/muN miss reference ({worst:.3g} x limit)", worst)
        return Outcome(text, None, worst)


WORKLOADS = {w.name: w for w in (Suite, ReportLarge, SweepFine)}
