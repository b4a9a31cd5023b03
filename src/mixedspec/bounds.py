"""Catalog of eigenvalue, spread and trace-norm bounds for blend matrices.

Every bound is a pure function of graph statistics (n, m, arc counts, degree
extremes, Zagreb index), the blend weight alpha and the closed-form traces,
evaluated exactly as the source inequalities state them (the README's bound
catalog lists each formula). Each formula family is written once, by a
``_*_columns`` function over the NumPy arrays of a block of k points, with
one caller: ``score_block`` lists the families in catalog order, the one
that needs the spectrum (``rho_sandwich``, from mu_1 and the spectral
radius) last, takes the spectral quantities the rows bound from the block's
spectra, and scores every row against them. This is the one module that
turns a verified block into report fields: ``harness.sweep_alpha`` (and
``verify_all``, its one-point grid) makes one ``score_block`` call per
block. NumPy's ``+ - * /`` and ``sqrt`` round as Python's do, so each point
gets the bits of a scalar evaluation. ``(1 - alpha)**2`` stays in Python:
``**`` calls C ``pow``, which need not round as NumPy's ``x*x`` does.

A row's applicability shows only in its ``Status``, which the harness and
the package re-export. ``score_block`` alone decides the order premise
(n >= 2 or n >= 3); the premises that vary by point or by beta stay in their
families, with the reason in ``note``.

The ``unit_offdiag_*`` pair is special: it assumes every nonzero entry of the
blend matrix has modulus one, which is true only at alpha = 0 (off-diagonal
entries scale by 1 - alpha). It is kept beside the corrected ``offdiag_*``
pair, which it matches where it applies, and is ``expected_fail`` for
alpha > 0. A variance negative beyond rounding is recorded as its point's
failure, which the harness raises as VerificationError.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .graphs import GraphStats, zagreb_lower_bound
from .matrices import BetaParam

VARIANCE_CLAMP_RTOL = 1e-12
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


_LOWER, _UPPER = BoundKind.LOWER, BoundKind.UPPER
_MU_1, _MU_N = BoundTarget.MU_1, BoundTarget.MU_N
# x + y * _SIGNS is the rows x + y and x - y, bit for bit: y * -1.0 is -y,
# and x + (-y) rounds as x - y does
_SIGNS = np.array([[1.0], [-1.0]])
_SIGNS.setflags(write=False)


class Columns(NamedTuple):
    """One formula family over a block of k points: row r of ``rows`` has its
    bound at each point in row r of the (len(rows), k) array ``values``,
    which is None when the family's order premise fails. ``note``,
    ``applicable`` and ``expected_fail`` hold at every point or come one per
    point; rows without values are never applicable. ``failures`` holds each
    point's VerificationError message, or None."""

    rows: tuple[Row, ...]
    values: np.ndarray | None
    note: str | list[str] = ""
    applicable: bool | np.ndarray = True
    expected_fail: bool | np.ndarray = False
    failures: list[str | None] | None = None


def _clamped(x: np.ndarray, scale: np.ndarray, message: str) -> tuple[np.ndarray, list[str | None]]:
    """x, a fresh array, with values that cancellation pushed a hair below
    zero set to zero; a value below -VARIANCE_CLAMP_RTOL * scale is its
    point's failure."""
    failures = [None] * len(x)
    negative = x < 0.0
    if negative.any():
        for i in np.flatnonzero(x < -VARIANCE_CLAMP_RTOL * scale).tolist():
            failures[i] = message.format(float(x[i]))
        x[negative] = 0.0
    return x, failures


def _moments(tr: np.ndarray, tr2: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """r and s at each point, with each point's failure (see ``_clamped``)."""
    r = tr / n
    mean2, r2 = tr2 / n, r * r
    s2, failures = _clamped(mean2 - r2, np.maximum(mean2, r2), "variance {} is negative beyond rounding")
    return r, np.sqrt(s2), failures


_RAYLEIGH = (Row("rayleigh_mu1_lower", _LOWER, _MU_1),)


def _rayleigh_columns(stats: GraphStats, a: np.ndarray, tr: np.ndarray, beta: BetaParam) -> Columns:
    """The Rayleigh quotient of the constant unit vector, from the closed-form
    trace ``tr`` = 2*alpha*m at each point; its arc term uses 2*Re(omega) = 1,
    so it holds for beta = omega only."""
    value = (tr + (1.0 - a) * (stats.arc_count + 2.0 * stats.undirected_count)) / stats.n
    omega = beta.is_omega()
    return Columns(_RAYLEIGH, value[None], "" if omega else "stated for beta = omega only", omega)


_OFFDIAG = (Row("offdiag_mu1_lower", _LOWER, _MU_1), Row("offdiag_mun_upper", _UPPER, _MU_N))


def _offdiag_columns(trace: np.ndarray, n: int, offdiag_modulus: np.ndarray) -> Columns:
    return Columns(_OFFDIAG, trace / n + 2.0 * offdiag_modulus / n * _SIGNS)


_UNIT = (Row("unit_offdiag_mu1_lower", _LOWER, _MU_1), Row("unit_offdiag_mun_upper", _UPPER, _MU_N))
_PREMISE_FAILS = "premise |a_rs| = 1 fails: entries have modulus 1 - alpha"


def _unit_columns(stats: GraphStats, a: np.ndarray) -> Columns:
    n, m = stats.n, stats.m
    values = 2.0 * (a * m + _SIGNS) / n
    if m < 1:
        return Columns(_UNIT, values, "no off-diagonal entry to instantiate", False)
    positive = a > 0.0
    note = [_PREMISE_FAILS if p else "" for p in positive.tolist()]
    return Columns(_UNIT, values, note, ~positive, positive)


_WOLKOWICZ = (
    Row("wolkowicz_mu1_upper", _UPPER, _MU_1), Row("wolkowicz_mu1_lower", _LOWER, _MU_1),
    Row("wolkowicz_mun_upper", _UPPER, _MU_N), Row("wolkowicz_mun_lower", _LOWER, _MU_N),
)


def _wolkowicz_columns(r: np.ndarray, s: np.ndarray, n: int) -> Columns:
    root = math.sqrt(n - 1.0)
    times, over = s * root, s / root
    return Columns(_WOLKOWICZ, r + np.array((times, over, -over, -times)))


def _zagreb_variance_numerator(stats: GraphStats, a: np.ndarray) -> np.ndarray:
    """The degree-extremes replacement for n^2 * s^2: substituting the Zagreb
    lower bound for the exact Zagreb index. Divides by n - 2."""
    n, m = stats.n, stats.m
    dmax, dmin = stats.max_degree, stats.min_degree
    # the last term point by point in Python, for its (1 - alpha)**2: see the
    # module docstring
    last = np.array([(1.0 - x) ** 2 * 2.0 * m * n for x in a.tolist()])
    return (
        (n * a * a / 2.0) * (dmax - dmin) ** 2
        + (2.0 * n * n * a * a / (n - 2.0)) * (2.0 * m / n - (dmax + dmin) / 2.0) ** 2
        + last
    )


_ZAGREB = (Row("zagreb_mu1_lower", _LOWER, _MU_1), Row("zagreb_mun_upper", _UPPER, _MU_N))


def _zagreb_columns(r: np.ndarray, t: np.ndarray, n: int) -> Columns:
    """From the spectral mean ``r`` = 2*alpha*m/n and the variance numerator
    ``t`` at each point."""
    return Columns(_ZAGREB, r + np.sqrt(t / (n * n * (n - 1.0))) * _SIGNS)


@functools.lru_cache(maxsize=64)
def _jth_static(n: int) -> tuple[tuple[Row, ...], np.ndarray]:
    """The rows of order n, lower then upper for each j, and the read-only
    (2n, 1) factors of s in the same order: -sqrt((j-1)/(n-j+1)) for the
    lower bound r - s*sqrt(...) (see _SIGNS), sqrt((n-j)/j) for the upper."""
    pairs = ((j, kind) for j in range(1, n + 1) for kind in (_LOWER, _UPPER))
    rows = tuple(Row(f"wolkowicz_mu_j_{kind.value}", kind, BoundTarget.MU_J, j) for j, kind in pairs)
    j = np.arange(1, n + 1)
    factors = np.array([-np.sqrt((j - 1.0) / (n - j + 1.0)), np.sqrt((n - j) / j)]).T.reshape(2 * n, 1)
    factors.setflags(write=False)
    return rows, factors


def _jth_columns(r: np.ndarray, s: np.ndarray, n: int) -> Columns:
    rows, factors = _jth_static(n)
    return Columns(rows, r + s * factors)


_TRACE_NORM = (Row("trace_norm_upper", _UPPER, BoundTarget.TRACE_NORM),)


def _trace_norm_columns(stats: GraphStats, a: np.ndarray, tr: np.ndarray, tr2: np.ndarray) -> Columns:
    """From the closed-form traces ``tr`` and ``tr2`` at each point."""
    n, m = stats.n, stats.m
    ntr2, tr_sq = n * tr2, tr * tr
    bracket, failures = _clamped(
        ntr2 - tr_sq, np.maximum(ntr2, tr_sq), "variance bracket {} negative beyond rounding"
    )
    value = 4.0 * a * m + 2.0 * np.sqrt((n - 1.0) * bracket)
    return Columns(_TRACE_NORM, value[None], failures=failures)


_SPREAD = (
    Row("spread_upper", _UPPER, BoundTarget.SPREAD), Row("spread_lower_moment", _LOWER, BoundTarget.SPREAD)
)


def _spread_columns(s: np.ndarray, n: int) -> Columns:
    upper = math.sqrt(2.0 * n) * s
    lower = 2.0 * s if n % 2 == 0 else 2.0 * n * s / math.sqrt(n * n - 1.0)
    return Columns(_SPREAD, np.array([upper, lower]))


_SPREAD_ZAGREB = (Row("spread_lower_zagreb", _LOWER, BoundTarget.SPREAD),)


def _spread_zagreb_columns(t: np.ndarray, n: int) -> Columns:
    """From the variance numerator ``t`` at each point."""
    value = (2.0 / n) * np.sqrt(t) if n % 2 == 0 else 2.0 * np.sqrt(t / (n * n - 1.0))
    return Columns(_SPREAD_ZAGREB, value[None])


_ZAGREB_INDEX = (Row("zagreb_index_lower", _LOWER, BoundTarget.ZAGREB),)


def _zagreb_index_columns(stats: GraphStats, k: int) -> Columns:
    return Columns(_ZAGREB_INDEX, np.array([[zagreb_lower_bound(stats)] * k]))


_RHO = (Row("rho_sandwich", _LOWER, _MU_1),)


def _rho_columns(mu_1: list[float], rho: list[float], beta: BetaParam) -> tuple[Columns, list[float]]:
    """From mu_1 and the spectral radius at each point; also gives mu_1 / rho.
    The ratio is taken point by point, since each point's note prints it."""
    c = 0.5 if beta.is_omega() else 1.0 / 3.0
    ratio = [1.0 if r == 0.0 else mu / r for mu, r in zip(mu_1, rho)]
    note = [f"c = {c}; ratio mu_1/rho = {x:.17g}" for x in ratio]
    return Columns(_RHO, c * np.array([rho]), note), ratio


# _score's status codes index this array
_STATUS = np.array(list(Status), dtype=object)


@functools.lru_cache(maxsize=64)
def _layout(rows: tuple[Row, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the row of ``_score``'s values (the n spectra columns, then
    the head) that its actual value comes from, and whether it is a lower
    bound (as a column, to broadcast over a block's points); both read-only.
    Cached: reading the enum members row by row costs about as much as the
    rest of a one-point block's scoring."""
    row_of = {
        _MU_1: 0, _MU_N: n - 1, BoundTarget.SPREAD: n, BoundTarget.TRACE_NORM: n + 1, BoundTarget.ZAGREB: n + 2
    }
    source = np.array([row_of[r.target] if r.j is None else r.j - 1 for r in rows])
    lower = np.array([r.kind is _LOWER for r in rows])[:, None]
    source.setflags(write=False)
    lower.setflags(write=False)
    return source, lower


def _score(columns: list[Columns], spectra: np.ndarray, head: np.ndarray):
    """Score a block's catalog as columns against its (k, n) spectra, rows
    non-increasing, and the (3, k) head of spread, trace norm and Zagreb
    index. Returns the rows, and per point the tuples of bounds, actuals,
    slacks, statuses and notes that a BoundReport holds."""
    k, n = spectra.shape
    rows, blocks, notes, varying, missing, inapplicable = (), [], [], [], [], []
    for c in columns:
        part = slice(len(rows), len(rows) + len(c.rows))
        rows += c.rows
        if c.values is None:
            missing += range(part.start, part.stop)
            blocks.append(np.empty((len(c.rows), k)))
        else:
            blocks.append(c.values)
            if c.applicable is not True:
                inapplicable.append((part, c))
        if isinstance(c.note, str):
            notes += [c.note] * len(c.rows)
        else:
            notes += [""] * len(c.rows)
            varying.append((part, c.note))
    bound = np.concatenate(blocks)
    if missing:
        bound[missing] = np.nan
    source_of, lower = _layout(rows, n)
    actual = np.concatenate((spectra.T, head))[source_of]
    slack = np.where(lower, actual - bound, bound - actual)
    # codes index _STATUS; a row without values is NOT_APPLICABLE, and one
    # that is not applicable is EXPECTED_FAIL or NOT_APPLICABLE, whatever
    # its slack
    code = np.where(slack >= -SLACK_TOL, 0, 1)
    if missing:
        code[missing] = 2
    for part, c in inapplicable:
        skipped = np.where(c.expected_fail, 3, 2)
        code[part] = skipped if c.applicable is False else np.where(c.applicable, code[part], skipped)
    points = []
    by_point = np.array((bound, actual, slack)).transpose(2, 0, 1).tolist()
    for i, (cells, statuses) in enumerate(zip(by_point, _STATUS[code].T.tolist())):
        for cell in cells:
            for r in missing:
                cell[r] = None
        point_notes = notes.copy()
        for part, note in varying:
            point_notes[part] = [note[i]] * (part.stop - part.start)
        points.append((*map(tuple, cells), tuple(statuses), tuple(point_notes)))
    return rows, points


def score_block(
    stats: GraphStats,
    alphas: list[float],
    beta: BetaParam,
    closed_forms: list[tuple[float, float]],
    trace: list[float],
    offdiag: list[float],
    spectra: np.ndarray,
) -> tuple[list[tuple], list[str | None]]:
    """Evaluate and score the catalog over a block of points with these
    closed-form traces (``expected_traces``), matrix traces, largest
    off-diagonal moduli and (k, n) spectra, rows non-increasing. Returns per
    point the BoundReport fields after ``spectrum``, in field order, and
    each point's first failure: the spectral variance's before the
    trace-norm bracket's."""
    n, k = stats.n, len(alphas)
    moduli = np.abs(spectra)
    # per point, _score's head (spread, trace norm, Zagreb index), then rho
    # and mu_1. The trace norm is a running sum left to right, which gives
    # the bits of Python 3.11's sum() on every version (3.12's sum() of
    # floats compensates)
    quantities = np.array((
        spectra[:, 0] - spectra[:, -1], moduli.cumsum(axis=1)[:, -1], [float(stats.zagreb)] * k,
        np.maximum(moduli[:, 0], moduli[:, -1]), spectra[:, 0],
    ))
    spread, trace_norm, _, rho, mu_1 = quantities.tolist()
    a = np.array(alphas)
    tr, tr2 = np.array(closed_forms).T
    r, s, failures = _moments(tr, tr2, n)
    rho_columns, ratio = _rho_columns(mu_1, rho, beta)

    # the order premise: a family whose formula needs `least` vertices runs only if n >= least
    def order(least: int, rows: tuple[Row, ...], family) -> Columns:
        return family() if n >= least else Columns(rows, None, f"needs n >= {least}")

    # the two Zagreb-refined families share t, whose formula divides by n - 2
    t = _zagreb_variance_numerator(stats, a) if n >= 3 else None
    columns = [
        _rayleigh_columns(stats, a, tr, beta),
        order(2, _OFFDIAG, lambda: _offdiag_columns(np.array(trace), n, np.array(offdiag))),
        _unit_columns(stats, a),
        order(2, _WOLKOWICZ, lambda: _wolkowicz_columns(r, s, n)),
        order(3, _ZAGREB, lambda: _zagreb_columns(r, t, n)),
        _jth_columns(r, s, n),
        order(2, _TRACE_NORM, lambda: _trace_norm_columns(stats, a, tr, tr2)),
        order(2, _SPREAD, lambda: _spread_columns(s, n)),
        order(3, _SPREAD_ZAGREB, lambda: _spread_zagreb_columns(t, n)),
        order(3, _ZAGREB_INDEX, lambda: _zagreb_index_columns(stats, k)),
        rho_columns,
    ]
    for c in columns:
        for i, failure in enumerate(c.failures or ()):
            failures[i] = failures[i] or failure
    rows, scored = _score(columns, spectra, quantities[:3])
    fields = zip(rho, spread, trace_norm, ratio)
    return [(*q, rows, *point) for q, point in zip(fields, scored)], failures
