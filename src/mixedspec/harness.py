"""End-to-end verification: build the blend matrix, solve it on two
independent kernels, sample the numerical range, and score the bound
catalog against the computed spectrum.

A grid of alphas is verified in stacked blocks. Each block is built as one
stack and solved in one LAPACK call per eigen route, and one
``bounds.score_block`` call scores its whole catalog against the primary
spectra, point by point in plain floats. Then one loop over the block's
points runs the checks, raising in grid order, and builds each BoundReport
from its point's fields.

Three classes of failure are kept apart. Eigen-route failures (see ``eig``)
and this module's checks (kernel/oracle disagreement, trace mismatches, a
matrix build that disagrees with the graph's arc-sum expansion,
numerical-range escapes) raise VerificationError: they mean the library is
wrong; scoring the catalog raises nothing. A bound whose premises hold but
whose inequality fails gets status VIOLATED: the report carries it, and the
CLI exits 1 on any. A bound whose premise is known-false (its family in
``bounds`` says so) gets EXPECTED_FAIL: tracked, never asserted. A row's
status is the only place its applicability shows.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import Row, Status, score_block
from .eig import Spectrum, VerificationError, eigenvalues, oracle_eigenvalues
from .graphs import MixedGraph, random_mixed_graph, serialize_graph
from .matrices import (
    BetaParam,
    _expansion_quadratic_form,
    _is_omega,
    a_alpha_stack,
    check_alpha,
    expected_traces,
    omega_constant,
)

ORACLE_RTOL = 1e-8
TRACE_TOL = 1e-9
RAYLEIGH_SAMPLES = 100
RAYLEIGH_PAD = 1e-9
IMAG_TOL = 1e-10
EXPANSION_TOL = 1e-10
EDGE_PROB_RANGE = (0.05, 0.95)
# complex entries per block of a grid, counted as the larger of the block's
# k*n*n matrix entries and its k*RAYLEIGH_SAMPLES*n products z*M (16 MB);
# with the oracle's V, R and V*V - I of the same size a sweep stays within
# about 64 MB of arrays however long its grid is
BLOCK_ENTRIES = 2**20


class CheckedBound(NamedTuple):
    """One scored catalog row at one point: the row (``result``), its bound,
    the value it bounds, the slack, the status and the note.

    slack is the signed margin in the bound's favorable direction: actual
    minus bound for lower bounds, bound minus actual for upper bounds.
    Non-negative (within tolerance) means the inequality holds.
    """

    result: Row
    bound: float | None
    actual: float | None
    slack: float | None
    status: Status
    note: str


@dataclass(frozen=True)
class BoundReport:
    """One point of a verification. The catalog is held as columns, one entry
    per row of ``rows`` (static metadata shared by every report of one
    shape): ``bounds``, ``actuals``, ``slacks``, ``statuses`` and ``notes``.
    ``checked`` zips them into CheckedBound records, built on demand, and
    ``violated`` keeps the VIOLATED ones."""

    graph: MixedGraph
    alpha: float
    beta: tuple[float, float]
    spectrum: Spectrum
    rho: float
    spread: float
    trace_norm: float
    rho_ratio: float
    rows: tuple[Row, ...]
    bounds: tuple[float | None, ...]
    actuals: tuple[float | None, ...]
    slacks: tuple[float | None, ...]
    statuses: tuple[Status, ...]
    notes: tuple[str, ...]

    @property
    def checked(self) -> tuple[CheckedBound, ...]:
        columns = (self.rows, self.bounds, self.actuals, self.slacks, self.statuses, self.notes)
        return tuple(map(CheckedBound, *columns))

    @property
    def violated(self) -> tuple[CheckedBound, ...]:
        return tuple(c for c in self.checked if c.status is Status.VIOLATED)


@dataclass(frozen=True)
class SweepConfig:
    """Settings of the randomized suite; edge probabilities are drawn from
    EDGE_PROB_RANGE."""

    seed: int = 0
    trials: int = 1
    n_range: tuple[int, int] = (2, 12)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        lo, hi = self.n_range
        if not 1 <= lo <= hi:
            raise ValueError(f"bad vertex-count range {self.n_range}")


@dataclass(frozen=True)
class ViolationRecord:
    """Everything needed to replay one violated bound in isolation; its fields
    are the keys of a violation record in ``check``'s JSON, in order."""

    trial: int
    seed: int
    graph: str
    alpha: float
    beta: tuple[float, float]
    bound_name: str
    j: int | None
    bound: float
    actual: float
    slack: float


@dataclass(frozen=True)
class SuiteSummary:
    """The randomized suite's record, with ``check``'s JSON keys as its fields,
    in order: ``check`` prints its ``dataclasses.asdict``. status_counts is
    in Status order, and worst_slack is sorted by bound name."""

    trials: int
    seed: int
    n_range: tuple[int, int]
    edge_prob_range: tuple[float, float]
    status_counts: dict[str, int]
    worst_slack: dict[str, float]
    min_rho_ratio_omega: float | None
    min_rho_ratio_general: float | None
    violations: tuple[ViolationRecord, ...]

    @property
    def violated_count(self) -> int:
        return self.status_counts[Status.VIOLATED.value]


@functools.lru_cache(maxsize=16, typed=True)
def _unit_vectors(n: int, seed: int) -> np.ndarray:
    """The (RAYLEIGH_SAMPLES, n) block of random unit vectors z: standard normals
    drawn in one call, all real parts and then all imaginary parts, each row
    then scaled in place by 1/norm, as complex division by the norm does. No
    norm is 0: 2n standard normals are never all exactly 0.0. The block depends
    only on (n, seed), so it is drawn once per process and held read-only for
    the 16 most recent pairs; a typed key sends a float seed on to PCG64's
    TypeError even when its integer's block is held."""
    parts = np.random.Generator(np.random.PCG64(seed)).standard_normal((2, RAYLEIGH_SAMPLES, n))
    z = np.empty((RAYLEIGH_SAMPLES, n), dtype=np.complex128)
    z.real, z.imag = parts
    norms = np.sqrt((z.conj() * z).real.sum(axis=1))
    scaled = z.view(np.float64)
    scaled *= (1.0 / norms)[:, None]
    z.setflags(write=False)
    return z


def _quadratic_forms(z: np.ndarray, data: np.ndarray) -> np.ndarray:
    """z*Mz for each row of z and each matrix of the (k, n, n) stack
    ``data``, as a (k, RAYLEIGH_SAMPLES) array. The products p = z*M are
    dotted with z as a stack of (1, n) @ (n, 1) matmuls, not as
    ``(p * z).sum(axis=-1)``, which makes a (k, RAYLEIGH_SAMPLES, n)
    temporary and reduces it along its short last axis: about 3x slower at
    k = 21, n = 16 (BENCH_19.json)."""
    p = z.conj() @ data
    return np.matmul(p[:, :, None, :], z[:, :, None])[..., 0, 0]


def _trace2_limit(closed_form: float) -> float:
    """TRACE_TOL, or 64 ulps of tr(M^2)'s closed form where larger (from 2^17).
    The direct sum adds n^2 squared moduli of <= 10 roundings each in NumPy's
    pairwise tree, <= ceil(log2(n^2/112)) + 25 deep; the closed form takes 5.
    All terms are >= 0, so for n <= 1024 the gap is < 54 u tr(M^2). The closed
    form takes |beta| = 1, and BetaParam admits hypot(re, im) within 2^-52 = 2u
    of 1; hypot errs by < 1 ulp, so arcs move the sum by < 8.1 u tr(M^2), and
    62.1 u tr(M^2) < 64 ulps; a 1e-12 modulus slack would allow 2e-12 tr(M^2)."""
    return max(TRACE_TOL, 64 * math.ulp(closed_form))


def verify_all(
    g: MixedGraph,
    alpha: float,
    beta: BetaParam,
    *,
    rayleigh_seed: int = 0,
) -> BoundReport:
    """Full verification of one (graph, alpha, beta) triple.

    Cross-checks the primary spectrum against the certified oracle, asserts
    the closed-form traces, then takes RAYLEIGH_SAMPLES unit vectors z from
    ``rayleigh_seed``, a block that depends only on (g.n, rayleigh_seed) and
    is drawn once per process and held read-only for the 16 most recent
    pairs. Every z*Mz must match the arc-sum expansion computed from the
    graph within EXPANSION_TOL and lie in [mu_n, mu_1]. Then the whole bound
    catalog is scored. Internal-consistency failures raise VerificationError;
    violated bounds are returned as data. This is the one-point grid of
    ``sweep_alpha``.
    """
    return sweep_alpha(g, [alpha], beta, seed=rayleigh_seed)[0]


def _block_len(n: int) -> int:
    """Grid points per block at order n."""
    return max(1, BLOCK_ENTRIES // (n * max(n, RAYLEIGH_SAMPLES)))


def sweep_alpha(
    g: MixedGraph,
    alphas: Iterable[float],
    beta: BetaParam,
    *,
    seed: int = 0,
) -> list[BoundReport]:
    """One report per alpha, in grid order, all at one beta; report i equals
    ``verify_all(g, alphas[i], beta, rayleigh_seed=seed)``. The whole grid is
    validated before the first solve. The grid is verified in blocks sized
    by BLOCK_ENTRIES: each block is built as one stack and solved with one
    LAPACK call per eigen route, and every point shares one Rayleigh block
    z, which depends only on (g.n, seed) and is drawn once per process and
    held read-only for the 16 most recent pairs. The checks run point by
    point in grid order, so a failing point raises its first failing check."""
    grid = [check_alpha(a) for a in alphas]
    stats = g.stats
    z = _unit_vectors(g.n, seed)
    expansion = _expansion_quadratic_form(g, grid, beta, z)
    step = _block_len(g.n)
    reports = []
    for start in range(0, len(grid), step):
        block = grid[start : start + step]
        stack = a_alpha_stack(g, block, beta)
        primary = eigenvalues(stack)
        oracle = oracle_eigenvalues(stack)
        tr, tr2 = stack.traces(), stack.traces_of_square()
        offdiag = stack.max_offdiag_moduli()
        forms = _quadratic_forms(z, stack.data)
        vals = forms.real
        values = primary.values
        # per point, the range check's ends and the five check columns, in one array
        per_point = np.array((
            values[:, 0], values[:, -1], np.abs(values - oracle.values).max(axis=1),
            np.abs(forms.imag).max(axis=1),
            np.abs(vals - expansion[start : start + len(block)]).max(axis=1),
            vals.min(axis=1), vals.max(axis=1),
        ))
        mu_1, mu_n, oracle_gap, imag, route_gap, lowest, highest = per_point.tolist()
        closed_forms = [expected_traces(stats, alpha) for alpha in block]
        points = score_block(stats, block, beta, closed_forms, tr, offdiag, values)

        for i, alpha in enumerate(block):
            spectrum = primary.spectrum(i)
            oracle.check(i)
            limit = ORACLE_RTOL * math.sqrt(tr2[i])
            if oracle_gap[i] > limit:
                raise VerificationError(
                    f"kernel/oracle spectra disagree by {oracle_gap[i]:.3e} (limit {limit:.3e})"
                )
            exp_tr, exp_tr2 = closed_forms[i]
            for name, got, want, lim in (
                ("trace", tr[i], exp_tr, TRACE_TOL),
                ("tr(M^2)", tr2[i], exp_tr2, _trace2_limit(exp_tr2)),
            ):
                if abs(got - want) > lim:
                    raise VerificationError(f"{name} {got} != closed form {want} beyond {lim}")
            # an imaginary part of z*Mz above IMAG_TOL means M was not Hermitian
            if imag[i] > IMAG_TOL:
                raise VerificationError("quadratic form came out non-real on Hermitian input")
            if route_gap[i] > EXPANSION_TOL:
                raise VerificationError(
                    f"matrix build disagrees with the graph's arc-sum expansion: "
                    f"quadratic forms differ by {route_gap[i]:.3e} (limit {EXPANSION_TOL:.0e})"
                )
            # the padded interval [mu_n, mu_1]; a NaN never lies in it
            if not (mu_n[i] - RAYLEIGH_PAD <= lowest[i] and highest[i] <= mu_1[i] + RAYLEIGH_PAD):
                raise VerificationError("a sampled quadratic form escaped [mu_n, mu_1]")
            reports.append(BoundReport(g, alpha, (beta.re, beta.im), spectrum, *points[i]))
    return reports


def _sample_alpha(rng: np.random.Generator) -> float:
    # endpoints get extra mass: alpha = 0 and alpha = 1 are where several
    # bounds degenerate, so they deserve coverage beyond uniform draws
    u = rng.uniform()
    if u < 0.15:
        return 0.0
    if u < 0.30:
        return 1.0
    return float(rng.uniform())


def _sample_beta(rng: np.random.Generator) -> BetaParam:
    if rng.uniform() < 0.5:
        return omega_constant()
    return BetaParam.from_angle(float(rng.uniform(-math.pi / 2, math.pi / 2)))


def run_trial(cfg: SweepConfig, trial: int) -> BoundReport:
    """Deterministically replay one trial of the randomized suite."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, trial))))
    lo, hi = cfg.n_range
    n = int(rng.integers(lo, hi + 1))
    edge_prob = float(rng.uniform(EDGE_PROB_RANGE[0], EDGE_PROB_RANGE[1]))
    orient_prob = float(rng.uniform())
    graph_seed = int(rng.integers(0, 2**63))
    g = random_mixed_graph(n, edge_prob, orient_prob, graph_seed)
    alpha = _sample_alpha(rng)
    beta = _sample_beta(rng)
    rayleigh_seed = int(rng.integers(0, 2**63))
    return verify_all(g, alpha, beta, rayleigh_seed=rayleigh_seed)


def randomized_suite(cfg: SweepConfig) -> SuiteSummary:
    """Run cfg.trials random (graph, alpha, beta) triples and aggregate.

    Violations are data, not errors: each one is returned with enough state
    (suite seed, trial index, serialized graph, alpha, beta) to replay it via
    run_trial or verify_all. Worst slack is tracked per bound name over all
    entries that were actually scored.
    """
    counts: dict[str, int] = {s.value: 0 for s in Status}
    worst: dict[str, float] = {}
    ratios: dict[bool, list[float]] = {True: [], False: []}
    violations: list[ViolationRecord] = []

    for trial in range(cfg.trials):
        report = run_trial(cfg, trial)
        ratios[_is_omega(*report.beta)].append(report.rho_ratio)
        columns = (report.rows, report.bounds, report.actuals, report.slacks, report.statuses)
        for row, bound, actual, slack, status in zip(*columns):
            counts[status.value] += 1
            if slack is not None and status is not Status.NOT_APPLICABLE:
                if row.name not in worst or slack < worst[row.name]:
                    worst[row.name] = slack
            if status is Status.VIOLATED:
                violations.append(
                    ViolationRecord(
                        trial=trial,
                        seed=cfg.seed,
                        graph=serialize_graph(report.graph),
                        alpha=report.alpha,
                        beta=report.beta,
                        bound_name=row.name,
                        j=row.j,
                        bound=bound,
                        actual=actual,
                        slack=slack,
                    )
                )

    return SuiteSummary(
        trials=cfg.trials,
        seed=cfg.seed,
        n_range=cfg.n_range,
        edge_prob_range=EDGE_PROB_RANGE,
        status_counts=counts,
        worst_slack=dict(sorted(worst.items())),
        min_rho_ratio_omega=min(ratios[True], default=None),
        min_rho_ratio_general=min(ratios[False], default=None),
        violations=tuple(violations),
    )
