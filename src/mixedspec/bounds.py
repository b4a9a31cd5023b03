"""Catalog of eigenvalue, spread and trace-norm bounds for blend matrices.

Every bound is a pure function of graph statistics (n, m, arc counts, degree
extremes, Zagreb index) and the blend weight alpha, evaluated exactly as the
source inequalities state them. alpha is a float, and every function taking
it rejects a value outside [0, 1] with ValueError; beta is a BetaParam.

Each function decides its own applicability: when a hypothesis (such as
n >= 2 or beta = omega) fails, its results carry ``applicable=False`` and
the reason in ``note`` instead of raising.

The ``unit_offdiag_*`` pair is special: it assumes every nonzero entry of the
blend matrix has modulus one, which is true only at alpha = 0 (off-diagonal
entries scale by 1 - alpha). It is kept beside the corrected ``offdiag_*``
pair, which it matches where it applies, and is ``expected_fail`` for
alpha > 0. A variance negative beyond rounding raises VerificationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .eig import Spectrum, VerificationError, spectral_radius
from .graphs import GraphStats, zagreb_lower_bound
from .matrices import BetaParam, check_alpha, expected_traces

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


@dataclass(frozen=True)
class BoundResult:
    """One evaluated bound: ``bound_value`` bounds ``target`` from the
    ``kind`` side. ``applicable=False`` records a failed hypothesis in
    ``note``; the value is None when the formula cannot be evaluated.
    ``expected_fail=True`` marks one whose premise is known to fail."""

    name: str
    kind: BoundKind
    target: BoundTarget
    bound_value: float | None
    applicable: bool = True
    note: str = ""
    j: int | None = None
    expected_fail: bool = False


def _na(name: str, kind: BoundKind, target: BoundTarget, note: str) -> BoundResult:
    return BoundResult(name, kind, target, None, False, note)


@dataclass(frozen=True)
class WolkowiczMoments:
    """Spectral mean r = tr/n and standard deviation s = sqrt(tr2/n - r^2)."""

    r: float
    s: float

    def __post_init__(self):
        if self.s < 0.0:
            raise ValueError(f"s must be non-negative, got {self.s}")

    @classmethod
    def from_traces(cls, tr: float, tr2: float, n: int) -> "WolkowiczMoments":
        r = tr / n
        s2 = tr2 / n - r * r
        if s2 < 0.0:
            # cancellation can push the variance a hair below zero
            if s2 < -VARIANCE_CLAMP_RTOL * max(tr2 / n, r * r):
                raise VerificationError(f"variance {s2} is negative beyond rounding")
            s2 = 0.0
        return cls(r=r, s=math.sqrt(s2))

    @classmethod
    def from_stats(cls, stats: GraphStats, alpha: float) -> "WolkowiczMoments":
        tr, tr2 = expected_traces(stats, alpha)
        return cls.from_traces(tr, tr2, stats.n)


def rayleigh_mu1_lower(stats: GraphStats, alpha: float, beta: BetaParam) -> BoundResult:
    """mu_1 >= (2*alpha*m + (1-alpha)*(arcs + 2*undirected)) / n.

    Rayleigh quotient of the constant unit vector; the arc coefficient uses
    2*Re(omega) = 1, so this holds for beta = omega only.
    """
    a = check_alpha(alpha)
    value = (2.0 * a * stats.m + (1.0 - a) * (stats.arc_count + 2.0 * stats.undirected_count)) / stats.n
    omega = beta.is_omega()
    note = "" if omega else "stated for beta = omega only"
    return BoundResult("rayleigh_mu1_lower", BoundKind.LOWER, BoundTarget.MU_1, value, omega, note)


def garga_extreme_bounds(trace: float, n: int, offdiag_modulus: float) -> tuple[BoundResult, BoundResult]:
    """mu_1 >= tr/n + 2|a_rs|/n and mu_n <= tr/n - 2|a_rs|/n for any off-diagonal
    entry a_rs of a Hermitian matrix; strongest with the maximal modulus."""
    if n < 2:
        return (
            _na("offdiag_mu1_lower", BoundKind.LOWER, BoundTarget.MU_1, "needs n >= 2"),
            _na("offdiag_mun_upper", BoundKind.UPPER, BoundTarget.MU_N, "needs n >= 2"),
        )
    shift = 2.0 * offdiag_modulus / n
    return (
        BoundResult("offdiag_mu1_lower", BoundKind.LOWER, BoundTarget.MU_1, trace / n + shift),
        BoundResult("offdiag_mun_upper", BoundKind.UPPER, BoundTarget.MU_N, trace / n - shift),
    )


def unit_modulus_extreme_bounds(stats: GraphStats, alpha: float) -> tuple[BoundResult, BoundResult]:
    """Reference variant of the off-diagonal bounds taking |a_rs| = 1:
    mu_1 >= 2(alpha*m + 1)/n and mu_n <= 2(alpha*m - 1)/n.

    Valid only at alpha = 0 on a graph with at least one edge; for alpha > 0
    the nonzero entries have modulus 1 - alpha < 1 and the premise fails.
    """
    a = check_alpha(alpha)
    n, m = stats.n, stats.m
    mu1_val = 2.0 * (a * m + 1.0) / n
    mun_val = 2.0 * (a * m - 1.0) / n
    expected_fail = False
    if n < 2 or m < 1:
        note = "no off-diagonal entry to instantiate"
    elif a > 0.0:
        note = "premise |a_rs| = 1 fails: entries have modulus 1 - alpha"
        expected_fail = True
    else:
        note = ""
    applicable = not note
    return (
        BoundResult(
            "unit_offdiag_mu1_lower", BoundKind.LOWER, BoundTarget.MU_1, mu1_val, applicable, note,
            expected_fail=expected_fail,
        ),
        BoundResult(
            "unit_offdiag_mun_upper", BoundKind.UPPER, BoundTarget.MU_N, mun_val, applicable, note,
            expected_fail=expected_fail,
        ),
    )


def wolkowicz_extreme_bounds(
    mom: WolkowiczMoments, n: int
) -> tuple[BoundResult, BoundResult, BoundResult, BoundResult]:
    """Mean/variance bounds: r + s/sqrt(n-1) <= mu_1 <= r + s*sqrt(n-1) and the
    mirrored pair for mu_n."""
    if n < 2:
        return (
            _na("wolkowicz_mu1_upper", BoundKind.UPPER, BoundTarget.MU_1, "needs n >= 2"),
            _na("wolkowicz_mu1_lower", BoundKind.LOWER, BoundTarget.MU_1, "needs n >= 2"),
            _na("wolkowicz_mun_upper", BoundKind.UPPER, BoundTarget.MU_N, "needs n >= 2"),
            _na("wolkowicz_mun_lower", BoundKind.LOWER, BoundTarget.MU_N, "needs n >= 2"),
        )
    root = math.sqrt(n - 1.0)
    return (
        BoundResult("wolkowicz_mu1_upper", BoundKind.UPPER, BoundTarget.MU_1, mom.r + mom.s * root),
        BoundResult("wolkowicz_mu1_lower", BoundKind.LOWER, BoundTarget.MU_1, mom.r + mom.s / root),
        BoundResult("wolkowicz_mun_upper", BoundKind.UPPER, BoundTarget.MU_N, mom.r - mom.s / root),
        BoundResult("wolkowicz_mun_lower", BoundKind.LOWER, BoundTarget.MU_N, mom.r - mom.s * root),
    )


def _zagreb_variance_numerator(stats: GraphStats, a: float) -> float:
    """The degree-extremes replacement for n^2 * s^2: substituting the Zagreb
    lower bound for the exact Zagreb index. Needs n >= 3."""
    n, m = stats.n, stats.m
    dmax, dmin = stats.max_degree, stats.min_degree
    return (
        (n * a * a / 2.0) * (dmax - dmin) ** 2
        + (2.0 * n * n * a * a / (n - 2.0)) * (2.0 * m / n - (dmax + dmin) / 2.0) ** 2
        + (1.0 - a) ** 2 * 2.0 * m * n
    )


def zagreb_refined_extreme_bounds(stats: GraphStats, alpha: float) -> tuple[BoundResult, BoundResult]:
    """Extreme-eigenvalue bounds with the spectral variance bounded from below
    through the degree extremes: mu_1 >= 2am/n + sqrt(T/(n^2(n-1))) and
    mu_n <= 2am/n - sqrt(T/(n^2(n-1)))."""
    a = check_alpha(alpha)
    n = stats.n
    if n < 3:
        return (
            _na("zagreb_mu1_lower", BoundKind.LOWER, BoundTarget.MU_1, "needs n >= 3"),
            _na("zagreb_mun_upper", BoundKind.UPPER, BoundTarget.MU_N, "needs n >= 3"),
        )
    t = _zagreb_variance_numerator(stats, a)
    center = 2.0 * a * stats.m / n
    shift = math.sqrt(t / (n * n * (n - 1.0)))
    return (
        BoundResult("zagreb_mu1_lower", BoundKind.LOWER, BoundTarget.MU_1, center + shift),
        BoundResult("zagreb_mun_upper", BoundKind.UPPER, BoundTarget.MU_N, center - shift),
    )


def jth_eigenvalue_bounds(mom: WolkowiczMoments, n: int) -> tuple[BoundResult, ...]:
    """r - s*sqrt((j-1)/(n-j+1)) <= mu_j <= r + s*sqrt((n-j)/j) for j = 1..n,
    as 2n results: the lower then the upper bound of each j in turn."""
    out = []
    for j in range(1, n + 1):
        lower = mom.r - mom.s * math.sqrt((j - 1.0) / (n - j + 1.0))
        upper = mom.r + mom.s * math.sqrt((n - j) / float(j))
        out += (
            BoundResult("wolkowicz_mu_j_lower", BoundKind.LOWER, BoundTarget.MU_J, lower, j=j),
            BoundResult("wolkowicz_mu_j_upper", BoundKind.UPPER, BoundTarget.MU_J, upper, j=j),
        )
    return tuple(out)


def trace_norm_upper(stats: GraphStats, alpha: float) -> BoundResult:
    """Trace norm <= 4*alpha*m + 2*sqrt((n-1)*(n*tr2 - tr^2))."""
    a = check_alpha(alpha)
    n, m = stats.n, stats.m
    if n < 2:
        return _na("trace_norm_upper", BoundKind.UPPER, BoundTarget.TRACE_NORM, "needs n >= 2")
    tr, tr2 = expected_traces(stats, a)
    bracket = n * tr2 - tr * tr
    if bracket < 0.0:
        if bracket < -VARIANCE_CLAMP_RTOL * max(n * tr2, tr * tr):
            raise VerificationError(f"variance bracket {bracket} negative beyond rounding")
        bracket = 0.0
    value = 4.0 * a * m + 2.0 * math.sqrt((n - 1.0) * bracket)
    return BoundResult("trace_norm_upper", BoundKind.UPPER, BoundTarget.TRACE_NORM, value)


def spread_moment_bounds(mom: WolkowiczMoments, n: int) -> tuple[BoundResult, BoundResult]:
    """Spread bounds from exact moments: spread <= sqrt(2n)*s, and the
    parity-correct lower bound 2s (n even) or 2ns/sqrt(n^2-1) (n odd)."""
    if n < 2:
        return (
            _na("spread_upper", BoundKind.UPPER, BoundTarget.SPREAD, "needs n >= 2"),
            _na("spread_lower_moment", BoundKind.LOWER, BoundTarget.SPREAD, "needs n >= 2"),
        )
    upper = math.sqrt(2.0 * n) * mom.s
    if n % 2 == 0:
        lower = 2.0 * mom.s
    else:
        lower = 2.0 * n * mom.s / math.sqrt(n * n - 1.0)
    return (
        BoundResult("spread_upper", BoundKind.UPPER, BoundTarget.SPREAD, upper),
        BoundResult("spread_lower_moment", BoundKind.LOWER, BoundTarget.SPREAD, lower),
    )


def spread_lower_zagreb(stats: GraphStats, alpha: float) -> BoundResult:
    """Degree-refined spread lower bound: (2/n)*sqrt(T) for even n,
    2*sqrt(T/(n^2-1)) for odd n (n >= 3)."""
    a = check_alpha(alpha)
    n = stats.n
    if n < 3:
        return _na("spread_lower_zagreb", BoundKind.LOWER, BoundTarget.SPREAD, "needs n >= 3")
    t = _zagreb_variance_numerator(stats, a)
    if n % 2 == 0:
        value = (2.0 / n) * math.sqrt(t)
    else:
        value = 2.0 * math.sqrt(t / (n * n - 1.0))
    return BoundResult("spread_lower_zagreb", BoundKind.LOWER, BoundTarget.SPREAD, value)


def zagreb_index_bound(stats: GraphStats) -> BoundResult:
    """First Zagreb index >= its closed-form lower bound in n, m, degree extremes."""
    if stats.n < 3:
        return _na("zagreb_index_lower", BoundKind.LOWER, BoundTarget.ZAGREB, "needs n >= 3")
    return BoundResult(
        "zagreb_index_lower", BoundKind.LOWER, BoundTarget.ZAGREB, zagreb_lower_bound(stats)
    )


def rho_sandwich(spec: Spectrum, beta: BetaParam) -> tuple[BoundResult, float]:
    """c * rho <= mu_1 <= rho with c = 1/2 at beta = omega, 1/3 otherwise.

    Returns the lower-side bound result (mu_1 <= rho holds structurally since
    the blend trace is non-negative) and the achieved ratio mu_1 / rho,
    defined as 1 when rho = 0.
    """
    c = 0.5 if beta.is_omega() else 1.0 / 3.0
    rho = spectral_radius(spec)
    ratio = 1.0 if rho == 0.0 else spec.mu_max / rho
    note = f"c = {c}; ratio mu_1/rho = {ratio:.17g}"
    return (
        BoundResult("rho_sandwich", BoundKind.LOWER, BoundTarget.MU_1, c * rho, True, note),
        ratio,
    )
