"""Catalog of eigenvalue, spread and trace-norm bounds for blend matrices.

Every bound is a pure function of graph statistics (n, m, arc counts, degree
extremes, Zagreb index), the blend weight alpha and the closed-form traces,
evaluated exactly as the source inequalities state them (the README's bound
catalog lists each formula). Each formula family is one small function of a
point's values in plain Python floats. ``score_block``, the one caller and
the one way from a verified block to report fields, runs the families at
each point in catalog order, ``rho_sandwich`` (from mu_1 and the spectral
radius) last, and scores every row against the point's spectrum. So a point
gets the same bits alone or in a block of any size; ``(1 - alpha)**2`` stays
Python's ``**`` (C ``pow``), which need not round as ``x*x`` does.

A row's applicability shows only in its ``Status``. ``score_block`` alone
decides the order premise (n >= 2 or n >= 3); the premises that vary by point
or by beta stay in their families, with the reason in the note. The
``unit_offdiag_*`` pair assumes every nonzero entry has modulus one, true only
at alpha = 0, so it is EXPECTED_FAIL for alpha > 0. Scoring raises nothing:
n M1 >= (sum d)^2 = 4m^2 makes the variance and the trace-norm bracket >= 0,
so their ``max(x, 0.0)`` only absorbs rounding.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from collections.abc import Sequence
from typing import Any, NamedTuple

from .graphs import GraphStats, zagreb_lower_bound
from .matrices import BetaParam

SLACK_TOL = 1e-9


class BoundKind(str, Enum):
    LOWER = "lower"
    UPPER = "upper"


class BoundTarget(str, Enum):
    MU_1 = "mu_1"
    MU_N = "mu_n"
    MU_J = "mu_j"
    SPREAD = "spread"
    TRACE_NORM = "trace_norm"
    ZAGREB = "zagreb"


class Status(str, Enum):
    HOLDS = "HOLDS"
    VIOLATED = "VIOLATED"
    NOT_APPLICABLE = "NOT_APPLICABLE"
    EXPECTED_FAIL = "EXPECTED_FAIL"


class Row(NamedTuple):
    """The static part of a catalog row, the same at every point."""

    name: str
    kind: BoundKind
    target: BoundTarget
    j: int | None = None


class _Rows(NamedTuple):
    """A family's rows, and the least order n its formula needs."""

    rows: tuple[Row, ...]
    least: int = 1


_LOWER, _UPPER = BoundKind.LOWER, BoundKind.UPPER
_MU_1, _MU_N, _SPREAD_OF = BoundTarget.MU_1, BoundTarget.MU_N, BoundTarget.SPREAD
_HOLDS, _VIOLATED, _NOT_APPLICABLE = Status.HOLDS, Status.VIOLATED, Status.NOT_APPLICABLE

# The families in catalog order; the per-j rows between _ZAGREB and
# _TRACE_NORM depend on n, so ``_plan`` makes them
_RAYLEIGH = _Rows((Row("rayleigh_mu1_lower", _LOWER, _MU_1),))
_OFFDIAG = _Rows((Row("offdiag_mu1_lower", _LOWER, _MU_1), Row("offdiag_mun_upper", _UPPER, _MU_N)), 2)
_UNIT = _Rows((Row("unit_offdiag_mu1_lower", _LOWER, _MU_1), Row("unit_offdiag_mun_upper", _UPPER, _MU_N)))
_WOLKOWICZ = _Rows((
    Row("wolkowicz_mu1_upper", _UPPER, _MU_1), Row("wolkowicz_mu1_lower", _LOWER, _MU_1),
    Row("wolkowicz_mun_upper", _UPPER, _MU_N), Row("wolkowicz_mun_lower", _LOWER, _MU_N),
), 2)
_ZAGREB = _Rows((Row("zagreb_mu1_lower", _LOWER, _MU_1), Row("zagreb_mun_upper", _UPPER, _MU_N)), 3)
_TRACE_NORM = _Rows((Row("trace_norm_upper", _UPPER, BoundTarget.TRACE_NORM),), 2)
_SPREAD = _Rows((Row("spread_upper", _UPPER, _SPREAD_OF), Row("spread_lower_moment", _LOWER, _SPREAD_OF)), 2)
_SPREAD_ZAGREB = _Rows((Row("spread_lower_zagreb", _LOWER, _SPREAD_OF),), 3)
_ZAGREB_INDEX = _Rows((Row("zagreb_index_lower", _LOWER, BoundTarget.ZAGREB),), 3)
_RHO = _Rows((Row("rho_sandwich", _LOWER, _MU_1),))

# A family at one point: its rows' bounds, the note of each of its rows, and
# the status each row takes whatever its slack, or None to score the slack
Family = tuple[Sequence[float], str, "Status | None"]


def _moments(tr: float, tr2: float, n: int) -> tuple[float, float]:
    """The spectral mean r and deviation s."""
    r = tr / n
    return r, math.sqrt(max(tr2 / n - r * r, 0.0))


def _rayleigh(stats: GraphStats, a: float, tr: float, beta: BetaParam) -> Family:
    """The Rayleigh quotient of the constant unit vector, from the closed-form trace
    ``tr`` = 2*alpha*m; its arc term uses 2*Re(omega) = 1, so it holds for beta = omega only."""
    value = (tr + (1.0 - a) * (stats.arc_count + 2.0 * stats.undirected_count)) / stats.n
    if beta.is_omega():
        return (value,), "", None
    return (value,), "stated for beta = omega only", _NOT_APPLICABLE


def _offdiag(trace: float, n: int, offdiag_modulus: float) -> Family:
    mean, shift = trace / n, 2.0 * offdiag_modulus / n
    return (mean + shift, mean - shift), "", None


def _unit(stats: GraphStats, a: float) -> Family:
    n, m = stats.n, stats.m
    values = (2.0 * (a * m + 1.0) / n, 2.0 * (a * m - 1.0) / n)
    if m < 1:
        return values, "no off-diagonal entry to instantiate", _NOT_APPLICABLE
    if a > 0.0:
        return values, "premise |a_rs| = 1 fails: entries have modulus 1 - alpha", Status.EXPECTED_FAIL
    return values, "", None


def _wolkowicz(r: float, s: float, n: int) -> Family:
    root = math.sqrt(n - 1.0)
    times, over = s * root, s / root
    return (r + times, r + over, r - over, r - times), "", None


def _zagreb_variance_numerator(stats: GraphStats, a: float) -> float:
    """The degree-extremes replacement for n^2 * s^2: substituting the Zagreb
    lower bound for the exact Zagreb index. Divides by n - 2."""
    n, m = stats.n, stats.m
    dmax, dmin = stats.max_degree, stats.min_degree
    return (
        (n * a * a / 2.0) * (dmax - dmin) ** 2
        + (2.0 * n * n * a * a / (n - 2.0)) * (2.0 * m / n - (dmax + dmin) / 2.0) ** 2
        + (1.0 - a) ** 2 * 2.0 * m * n
    )


def _zagreb(r: float, t: float, n: int) -> Family:
    """From the spectral mean ``r`` = 2*alpha*m/n and the variance numerator ``t``."""
    shift = math.sqrt(t / (n * n * (n - 1.0)))
    return (r + shift, r - shift), "", None


def _jth(r: float, s: float, factors: tuple[float, ...]) -> Family:
    """The per-j rows, r + s times each of the plan's factors."""
    return [r + s * f for f in factors], "", None


def _trace_norm(stats: GraphStats, a: float, tr: float, tr2: float) -> Family:
    """From the closed-form traces ``tr`` and ``tr2``."""
    n, m = stats.n, stats.m
    bracket = max(n * tr2 - tr * tr, 0.0)
    return (4.0 * a * m + 2.0 * math.sqrt((n - 1.0) * bracket),), "", None


def _spread(s: float, n: int) -> Family:
    lower = 2.0 * s if n % 2 == 0 else 2.0 * n * s / math.sqrt(n * n - 1.0)
    return (math.sqrt(2.0 * n) * s, lower), "", None


def _spread_zagreb(t: float, n: int) -> Family:
    """From the variance numerator ``t``."""
    value = (2.0 / n) * math.sqrt(t) if n % 2 == 0 else 2.0 * math.sqrt(t / (n * n - 1.0))
    return (value,), "", None


def _zagreb_index(stats: GraphStats) -> Family:
    return (zagreb_lower_bound(stats),), "", None


def _rho(mu_1: float, rho: float, beta: BetaParam) -> tuple[Family, float]:
    """From mu_1 and the spectral radius, with mu_1 / rho, which the note prints."""
    c = 0.5 if beta.is_omega() else 1.0 / 3.0
    ratio = 1.0 if rho == 0.0 else mu_1 / rho
    return ((c * rho,), f"c = {c}; ratio mu_1/rho = {ratio:.17g}", None), ratio


def _absent(family: _Rows) -> Family:
    """A family below the order it needs: NaN bounds, which ``_scored`` blanks as missing rows."""
    return (math.nan,) * len(family.rows), f"needs n >= {family.least}", _NOT_APPLICABLE


class _Plan(NamedTuple):
    """The static part of scoring order n: the rows in catalog order; per row,
    the index of its actual value in a point's spectrum, spread, trace norm
    and Zagreb index, and whether it is a lower bound; the rows that the
    order premise removes; the per-j rows' factors of s."""

    rows: tuple[Row, ...]
    source: tuple[int, ...]
    lower: tuple[bool, ...]
    missing: tuple[int, ...] = ()
    factors: tuple[float, ...] = ()


@functools.lru_cache(maxsize=64)
def _plan(n: int) -> _Plan:
    """The catalog's plan at order n, cached: reading the enums costs more than scoring a point."""
    pairs = [(j, kind) for j in range(1, n + 1) for kind in (_LOWER, _UPPER)]
    jth = _Rows(tuple(Row(f"wolkowicz_mu_j_{kind.value}", kind, BoundTarget.MU_J, j) for j, kind in pairs))
    families = (_RAYLEIGH, _OFFDIAG, _UNIT, _WOLKOWICZ, _ZAGREB, jth)
    families += (_TRACE_NORM, _SPREAD, _SPREAD_ZAGREB, _ZAGREB_INDEX, _RHO)
    rows = tuple(row for family in families for row in family.rows)
    index = {_MU_1: 0, _MU_N: n - 1, _SPREAD_OF: n, BoundTarget.TRACE_NORM: n + 1, BoundTarget.ZAGREB: n + 2}
    source = tuple(index[r.target] if r.j is None else r.j - 1 for r in rows)
    missing = (i for i, least in enumerate(f.least for f in families for _ in f.rows) if n < least)
    # r - s*sqrt((j-1)/(n-j+1)) for the lower bound, r + s*sqrt((n-j)/j) for the upper
    factors = (-math.sqrt((j - 1) / (n - j + 1)) if k is _LOWER else math.sqrt((n - j) / j) for j, k in pairs)
    return _Plan(rows, source, tuple(r.kind is _LOWER for r in rows), tuple(missing), tuple(factors))


def _scored(plan: _Plan, families: list[Family], values: list[float]) -> tuple[tuple, ...]:
    """One point's bounds, actuals, slacks, statuses and notes, from its
    families in the plan's row order and its actual values (see ``_Plan``).
    A row that the order premise removes has no bound, actual or slack."""
    bounds, notes, skipped, start = [], [""] * len(plan.rows), [], 0
    for bound, note, status in families:
        stop = start + len(bound)
        bounds += bound
        if note:
            notes[start:stop] = [note] * (stop - start)
        if status is not None:
            skipped.append((start, stop, status))
        start = stop
    actuals = [values[i] for i in plan.source]
    slacks = [x - b if low else b - x for x, b, low in zip(actuals, bounds, plan.lower)]
    tol = -SLACK_TOL
    statuses = [_HOLDS if d >= tol else _VIOLATED for d in slacks]
    for start, stop, status in skipped:
        statuses[start:stop] = [status] * (stop - start)
    for i in plan.missing:
        bounds[i] = actuals[i] = slacks[i] = None
    return tuple(bounds), tuple(actuals), tuple(slacks), tuple(statuses), tuple(notes)


def score_block(
    stats: GraphStats, alphas: list[float], beta: BetaParam, closed_forms: list[tuple[float, float]],
    trace: list[float], offdiag: list[float], spectra: Any,
) -> list[tuple]:
    """Evaluate and score the catalog over a block of points with these closed-form
    traces (``expected_traces``), matrix traces, largest off-diagonal moduli and
    (k, n) NumPy array of spectra, rows non-increasing. Returns per point the
    BoundReport fields after ``spectrum``, in field order."""
    n = stats.n
    plan, zagreb, points = _plan(n), float(stats.zagreb), []
    # the one family that depends on the graph alone
    zagreb_index = _zagreb_index(stats) if n >= _ZAGREB_INDEX.least else _absent(_ZAGREB_INDEX)
    columns = zip(alphas, closed_forms, trace, offdiag, spectra.tolist())
    for a, (tr, tr2), trace_a, offdiag_a, values in columns:
        r, s = _moments(tr, tr2, n)
        mu_1, mu_n = values[0], values[-1]
        rho, spread = max(abs(mu_1), abs(mu_n)), mu_1 - mu_n
        # a running sum left to right, which gives the bits of Python 3.11's
        # sum() on every version (3.12's sum() of floats compensates)
        trace_norm = 0.0
        for x in values:
            trace_norm += abs(x)
        rho_family, ratio = _rho(mu_1, rho, beta)
        # the order premise: a family is absent below the least order its
        # formula needs; the Zagreb-refined families share t
        t = _zagreb_variance_numerator(stats, a) if n >= _ZAGREB.least else None
        families = [
            _rayleigh(stats, a, tr, beta),
            _offdiag(trace_a, n, offdiag_a) if n >= _OFFDIAG.least else _absent(_OFFDIAG),
            _unit(stats, a),
            _wolkowicz(r, s, n) if n >= _WOLKOWICZ.least else _absent(_WOLKOWICZ),
            _zagreb(r, t, n) if n >= _ZAGREB.least else _absent(_ZAGREB),
            _jth(r, s, plan.factors),
            _trace_norm(stats, a, tr, tr2) if n >= _TRACE_NORM.least else _absent(_TRACE_NORM),
            _spread(s, n) if n >= _SPREAD.least else _absent(_SPREAD),
            _spread_zagreb(t, n) if n >= _SPREAD_ZAGREB.least else _absent(_SPREAD_ZAGREB),
            zagreb_index,
            rho_family,
        ]
        values += (spread, trace_norm, zagreb)
        points.append((rho, spread, trace_norm, ratio, plan.rows, *_scored(plan, families, values)))
    return points
