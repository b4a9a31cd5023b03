"""Catalog of eigenvalue, spread and trace-norm bounds for blend matrices.

Every bound is a pure function of graph statistics (n, m, arc counts, degree
extremes, Zagreb index), the blend weight alpha and the closed-form traces,
evaluated exactly as the source inequalities state them (the README's bound
catalog lists each formula). Each formula family is written once, by a
``_*_columns`` function over the NumPy arrays of a block of k points, with
one caller: ``catalog_columns`` lists the families in catalog order, the
one that needs the spectrum (``rho_sandwich``, from mu_1 and the spectral
radius) last. ``harness.sweep_alpha`` (and ``verify_all``, its one-point
grid) is the only way to evaluate and score them, with one
``catalog_columns`` call per block. NumPy's ``+ - * /`` and ``sqrt`` round
as Python's do, so each point gets the bits of a scalar evaluation. ``(1 - alpha)**2`` stays in
Python: ``**`` calls C ``pow``, which need not round as NumPy's ``x*x`` does.

A row's applicability shows only in its status. ``catalog_columns`` alone
decides the order premise (n >= 2 or n >= 3); the premises that vary by point
or by beta stay in their families, with the reason in ``note``.

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


class Row(NamedTuple):
    """The static part of a catalog row, the same at every point."""

    name: str
    kind: BoundKind
    target: BoundTarget
    j: int | None = None


_LOWER, _UPPER = BoundKind.LOWER, BoundKind.UPPER
_MU_1, _MU_N = BoundTarget.MU_1, BoundTarget.MU_N


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
    mean, shift = trace / n, 2.0 * offdiag_modulus / n
    return Columns(_OFFDIAG, np.array([mean + shift, mean - shift]))


_UNIT = (Row("unit_offdiag_mu1_lower", _LOWER, _MU_1), Row("unit_offdiag_mun_upper", _UPPER, _MU_N))
_PREMISE_FAILS = "premise |a_rs| = 1 fails: entries have modulus 1 - alpha"


def _unit_columns(stats: GraphStats, a: np.ndarray) -> Columns:
    n, m = stats.n, stats.m
    am = a * m
    values = np.array([2.0 * (am + 1.0) / n, 2.0 * (am - 1.0) / n])
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
    return Columns(_WOLKOWICZ, np.array([r + times, r + over, r - over, r - times]))


def _zagreb_variance_numerator(stats: GraphStats, a: np.ndarray) -> np.ndarray:
    """The degree-extremes replacement for n^2 * s^2: substituting the Zagreb
    lower bound for the exact Zagreb index. Divides by n - 2."""
    n, m = stats.n, stats.m
    dmax, dmin = stats.max_degree, stats.min_degree
    # Python's (1 - alpha)**2, point by point: see the module docstring
    square = np.array([(1.0 - x) ** 2 for x in a.tolist()])
    return (
        (n * a * a / 2.0) * (dmax - dmin) ** 2
        + (2.0 * n * n * a * a / (n - 2.0)) * (2.0 * m / n - (dmax + dmin) / 2.0) ** 2
        + square * 2.0 * m * n
    )


_ZAGREB = (Row("zagreb_mu1_lower", _LOWER, _MU_1), Row("zagreb_mun_upper", _UPPER, _MU_N))


def _zagreb_columns(r: np.ndarray, t: np.ndarray, n: int) -> Columns:
    """From the spectral mean ``r`` = 2*alpha*m/n and the variance numerator
    ``t`` at each point."""
    shift = np.sqrt(t / (n * n * (n - 1.0)))
    return Columns(_ZAGREB, np.array([r + shift, r - shift]))


@functools.lru_cache(maxsize=64)
def _jth_static(n: int) -> tuple[tuple[Row, ...], np.ndarray, np.ndarray]:
    """The rows of order n, lower then upper for each j, and the read-only
    (n, 1) factors sqrt((j-1)/(n-j+1)) and sqrt((n-j)/j) of s."""
    pairs = ((j, kind) for j in range(1, n + 1) for kind in (_LOWER, _UPPER))
    rows = tuple(Row(f"wolkowicz_mu_j_{kind.value}", kind, BoundTarget.MU_J, j) for j, kind in pairs)
    j = np.arange(1, n + 1)[:, None]
    lower, upper = np.sqrt((j - 1.0) / (n - j + 1.0)), np.sqrt((n - j) / j)
    lower.setflags(write=False)
    upper.setflags(write=False)
    return rows, lower, upper


def _jth_columns(r: np.ndarray, s: np.ndarray, n: int) -> Columns:
    rows, lower, upper = _jth_static(n)
    return Columns(rows, np.array([r - s * lower, r + s * upper]).transpose(1, 0, 2).reshape(2 * n, len(r)))


_TRACE_NORM = (Row("trace_norm_upper", _UPPER, BoundTarget.TRACE_NORM),)


def _trace_norm_columns(stats: GraphStats, a: np.ndarray, tr: np.ndarray, tr2: np.ndarray) -> Columns:
    """From the closed-form traces ``tr`` and ``tr2`` at each point."""
    n, m = stats.n, stats.m
    bracket, failures = _clamped(
        n * tr2 - tr * tr, np.maximum(n * tr2, tr * tr), "variance bracket {} negative beyond rounding"
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


def catalog_columns(
    stats: GraphStats,
    alphas: list[float],
    beta: BetaParam,
    closed_forms: list[tuple[float, float]],
    trace: list[float],
    offdiag: list[float],
    mu_1: list[float],
    rho: list[float],
) -> tuple[list[Columns], list[str | None], list[float]]:
    """Every family of the catalog, in catalog order, over a block of points
    with these closed-form traces (``expected_traces``), matrix traces,
    largest off-diagonal moduli, largest eigenvalues and spectral radii;
    with each point's first failure, the spectral variance's before the
    trace-norm bracket's, and each point's mu_1 / rho."""
    n = stats.n
    a = np.array(alphas)
    tr, tr2 = np.array(closed_forms).T
    r, s, failures = _moments(tr, tr2, n)
    rho_columns, ratio = _rho_columns(mu_1, rho, beta)

    # the order premise: a family whose formula needs k vertices runs only if n >= k
    def order(k: int, rows: tuple[Row, ...], family) -> Columns:
        return family() if n >= k else Columns(rows, None, f"needs n >= {k}")

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
        order(3, _ZAGREB_INDEX, lambda: _zagreb_index_columns(stats, len(alphas))),
        rho_columns,
    ]
    for c in columns:
        for i, failure in enumerate(c.failures or ()):
            failures[i] = failures[i] or failure
    return columns, failures, ratio
