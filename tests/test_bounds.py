"""Bound catalog: formula values on anchor graphs, applicability as status,
formula coincidences, and the refinement-ordering property. Anchor values
are read by row name (``conftest.catalog_row``) from ``verify_all``, the one
way into the catalog; synthetic inputs go straight to the family functions."""

import math

import pytest
from hypothesis import example, given, strategies as st

from conftest import catalog_row
from mixedspec.bounds import _OFFDIAG, BoundKind, BoundTarget, _moments, _offdiag, _rho, _unit, _wolkowicz
from mixedspec.graphs import graph_stats, parse_graph, random_mixed_graph, zagreb_lower_bound
from mixedspec.harness import Status, sweep_alpha, verify_all
from mixedspec.matrices import BetaParam, a_alpha_stack, expected_traces, omega_constant

OMEGA = omega_constant()
ONE_VERTEX = parse_graph("1\n")


@st.composite
def graphs(draw, min_n=1, max_n=12):
    n = draw(st.integers(min_n, max_n))
    return random_mixed_graph(
        n,
        draw(st.floats(0.0, 1.0)),
        draw(st.floats(0.0, 1.0)),
        draw(st.integers(0, 2**32 - 1)),
    )


@st.composite
def graph_and_alpha(draw, min_n=1, max_n=12):
    return draw(graphs(min_n, max_n)), draw(st.floats(0.0, 1.0))


def _report(g, alpha):
    return verify_all(g, alpha, OMEGA)


def _values(report, *names):
    return tuple(catalog_row(report, name).bound for name in names)


def _moments_at(stats, alpha):
    """r and s of the closed-form traces at one alpha."""
    tr, tr2 = expected_traces(stats, alpha)
    return _moments(tr, tr2, stats.n)


def _states(report, *names):
    """The set of (bound, status, note) over the named rows."""
    checked = [catalog_row(report, name) for name in names]
    return {(c.bound, c.status, c.note) for c in checked}


NEEDS_TWO = (None, Status.NOT_APPLICABLE, "needs n >= 2")


_WOLKOWICZ = ("wolkowicz_mu1_upper", "wolkowicz_mu1_lower", "wolkowicz_mun_upper", "wolkowicz_mun_lower")


class TestWolkowiczMoments:
    """The spectral mean r and deviation s that ``_moments`` gives the
    Wolkowicz, per-j and spread families."""

    def test_single_arc_alpha_zero(self, p2):
        r, s = _moments_at(graph_stats(p2), 0.0)
        assert r == 0.0
        assert s == pytest.approx(1.0, abs=1e-15)

    def test_triangle_alpha_zero(self, c3):
        r, s = _moments_at(graph_stats(c3), 0.0)
        assert r == 0.0
        assert s == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_tiny_negative_variance_clamped(self):
        _, s = _moments(2.0, 4.0 / 3.0 * (1.0 - 1e-15), 3)
        assert s == 0.0


class TestRayleighLower:
    def test_single_arc(self, p2):
        assert catalog_row(_report(p2, 0.0), "rayleigh_mu1_lower").bound == 0.5

    def test_triangle_tight(self, c3):
        ray = catalog_row(_report(c3, 0.0), "rayleigh_mu1_lower")
        assert ray.bound == 1.0
        assert ray.status is Status.HOLDS

    @given(graph_and_alpha())
    def test_alpha_one_is_average_degree(self, ga):
        g, _ = ga
        r = catalog_row(_report(g, 1.0), "rayleigh_mu1_lower")
        assert r.bound == pytest.approx(2.0 * g.stats.m / g.n, abs=1e-12)


class TestOffdiagBounds:
    def test_corrected_single_arc_midpoint(self):
        values, _, _ = _offdiag(1.0, 2, 0.5)
        assert values == (1.0, 0.0)
        lo, hi = _OFFDIAG.rows
        assert lo.kind is BoundKind.LOWER and lo.target is BoundTarget.MU_1
        assert hi.kind is BoundKind.UPPER and hi.target is BoundTarget.MU_N

    def test_rejects_single_vertex(self):
        report = _report(ONE_VERTEX, 0.5)
        assert _states(report, "offdiag_mu1_lower", "offdiag_mun_upper") == {NEEDS_TWO}

    def test_literal_form_values(self, p2):
        report = _report(p2, 0.5)
        assert _values(report, "unit_offdiag_mu1_lower", "unit_offdiag_mun_upper") == (1.5, -0.5)
        assert catalog_row(report, "unit_offdiag_mu1_lower").status is Status.EXPECTED_FAIL
        assert catalog_row(report, "unit_offdiag_mun_upper").status is Status.EXPECTED_FAIL

    def test_literal_form_applicable_at_alpha_zero(self, p2):
        report = _report(p2, 0.0)
        assert _values(report, "unit_offdiag_mu1_lower", "unit_offdiag_mun_upper") == (1.0, -1.0)
        assert catalog_row(report, "unit_offdiag_mu1_lower").status is Status.HOLDS
        assert catalog_row(report, "unit_offdiag_mun_upper").status is Status.HOLDS

    def test_literal_form_needs_an_edge(self):
        lo = catalog_row(_report(parse_graph("3\n"), 0.0), "unit_offdiag_mu1_lower")
        assert lo.status is Status.NOT_APPLICABLE
        assert lo.note == "no off-diagonal entry to instantiate"

    @pytest.mark.parametrize(
        "text, alpha, expected",
        [
            ("2\n1 -> 2\n", 0.5, True),
            ("2\n1 -> 2\n", 0.0, False),
            ("2\n", 0.5, False),
            ("1\n", 0.5, False),
        ],
        ids=["arc-a0.5", "arc-a0", "edgeless-a0.5", "n1-a0.5"],
    )
    def test_literal_form_expected_fail_only_when_premise_fails(self, text, alpha, expected):
        report = _report(parse_graph(text), alpha)
        pair = [catalog_row(report, name) for name in ("unit_offdiag_mu1_lower", "unit_offdiag_mun_upper")]
        assert [c.status is Status.EXPECTED_FAIL for c in pair] == [expected] * 2

    def test_literal_coincides_with_corrected_at_alpha_zero(self, c3):
        # max off-diagonal modulus is 1 at alpha = 0, so the forms match
        stats = graph_stats(c3)
        literal, _, _ = _unit(stats, 0.0)
        corrected, _, _ = _offdiag(0.0, stats.n, 1.0)
        assert literal == corrected


class TestWolkowiczExtremes:
    def test_single_arc_all_tight(self, p2):
        assert _values(_report(p2, 0.0), *_WOLKOWICZ) == (1.0, 1.0, -1.0, -1.0)

    def test_triangle(self, c3):
        up1, lo1, upn, lon = _values(_report(c3, 0.0), *_WOLKOWICZ)
        assert up1 == pytest.approx(2.0, abs=1e-12)
        assert lo1 == pytest.approx(1.0, abs=1e-12)
        assert upn == pytest.approx(-1.0, abs=1e-12)
        assert lon == pytest.approx(-2.0, abs=1e-12)

    def test_zero_variance_collapses_to_mean(self):
        four, _, _ = _wolkowicz(2.5, 0.0, 5)
        assert four == (2.5,) * 4

    def test_not_applicable_at_single_vertex(self):
        assert _states(_report(ONE_VERTEX, 0.0), *_WOLKOWICZ) == {NEEDS_TWO}


class TestZagrebRefinedExtremes:
    def test_triangle_midpoint_tight(self, c3):
        lo, hi = _values(_report(c3, 0.5), "zagreb_mu1_lower", "zagreb_mun_upper")
        assert lo == pytest.approx(1.5, abs=1e-12)
        assert hi == pytest.approx(0.5, abs=1e-12)

    def test_small_graph_flagged(self, p2):
        assert _states(_report(p2, 0.5), "zagreb_mu1_lower", "zagreb_mun_upper") == {
            (None, Status.NOT_APPLICABLE, "needs n >= 3")
        }

    @given(graph_and_alpha(min_n=3))
    def test_regular_alpha_one_hits_degree(self, ga):
        g, _ = ga
        stats = g.stats
        if stats.max_degree != stats.min_degree:
            return
        lo = catalog_row(_report(g, 1.0), "zagreb_mu1_lower").bound
        assert lo == pytest.approx(stats.max_degree, abs=1e-9)

    @given(graph_and_alpha(min_n=3))
    def test_never_beats_exact_moment_form(self, ga):
        # the refined form replaces the Zagreb index by its lower bound, so
        # it can only weaken the mean/variance mu_1 lower bound
        report = _report(*ga)
        lo_ref, upn_ref, lo_mom, upn_mom = _values(
            report, "zagreb_mu1_lower", "zagreb_mun_upper", "wolkowicz_mu1_lower", "wolkowicz_mun_upper"
        )
        assert lo_ref <= lo_mom + 1e-9
        assert upn_ref >= upn_mom - 1e-9

    def test_moment_form_strictly_tighter_on_irregular_path(self):
        # degree sequence (1,2,2,1): the Zagreb slack is positive, so the
        # refined bound is strictly below the exact-moment bound
        report = _report(parse_graph("4\n1 -> 2\n2 -> 3\n3 -> 4\n"), 0.5)
        lo_ref, lo_mom = _values(report, "zagreb_mu1_lower", "wolkowicz_mu1_lower")
        assert lo_ref < lo_mom - 1e-3


class TestJthBounds:
    def test_triangle_last_eigenvalue_tight(self, c3):
        lo = catalog_row(_report(c3, 0.0), "wolkowicz_mu_j_lower", 3)
        assert lo.bound == pytest.approx(-2.0, abs=1e-12)
        assert lo.result.target is BoundTarget.MU_J

    def test_triangle_first_upper(self, c3):
        up = catalog_row(_report(c3, 0.0), "wolkowicz_mu_j_upper", 1)
        assert up.bound == pytest.approx(2.0, abs=1e-12)

    @given(graph_and_alpha(min_n=2))
    def test_extreme_j_reduces_to_extreme_bounds(self, ga):
        g, alpha = ga
        report = _report(g, alpha)
        up1, lon = _values(report, "wolkowicz_mu1_upper", "wolkowicz_mun_lower")
        j1_up = catalog_row(report, "wolkowicz_mu_j_upper", 1).bound
        jn_lo = catalog_row(report, "wolkowicz_mu_j_lower", g.n).bound
        assert abs(j1_up - up1) <= 1e-12
        assert abs(jn_lo - lon) <= 1e-12


class TestTraceNormUpper:
    def test_triangle(self, c3):
        assert catalog_row(_report(c3, 0.0), "trace_norm_upper").bound == pytest.approx(12.0, abs=1e-12)

    def test_single_arc(self, p2):
        assert catalog_row(_report(p2, 0.0), "trace_norm_upper").bound == pytest.approx(4.0, abs=1e-12)

    def test_empty_graph_tight(self):
        row = catalog_row(_report(parse_graph("5\n"), 0.7), "trace_norm_upper")
        assert row.bound == 0.0
        assert row.slack == 0.0


class TestSpreadBounds:
    def test_single_arc_even_case(self, p2):
        up, lo = _values(_report(p2, 0.0), "spread_upper", "spread_lower_moment")
        assert up == pytest.approx(2.0, abs=1e-12)
        assert lo == pytest.approx(2.0, abs=1e-12)

    def test_triangle_odd_case(self, c3):
        assert catalog_row(_report(c3, 0.0), "spread_lower_moment").bound == pytest.approx(3.0, abs=1e-12)

    def test_not_applicable_at_single_vertex(self):
        assert _states(_report(ONE_VERTEX, 0.0), "spread_upper", "spread_lower_moment") == {NEEDS_TWO}

    def test_refined_lower_needs_three_vertices(self, p2):
        report = _report(p2, 0.0)
        assert catalog_row(report, "spread_upper").status is Status.HOLDS
        assert catalog_row(report, "spread_lower_zagreb").status is Status.NOT_APPLICABLE

    def test_regular_alpha_one_collapses(self, c3):
        up, lo = _values(_report(c3, 1.0), "spread_upper", "spread_lower_zagreb")
        assert up == pytest.approx(0.0, abs=1e-12)
        assert lo == pytest.approx(0.0, abs=1e-12)

    @given(graph_and_alpha(min_n=3))
    def test_refined_lower_never_beats_moment_lower(self, ga):
        lo_ref, lo_mom = _values(_report(*ga), "spread_lower_zagreb", "spread_lower_moment")
        assert lo_ref <= lo_mom + 1e-9


class TestZagrebIndexBound:
    def test_star_equality(self, k13):
        row = catalog_row(_report(k13, 0.5), "zagreb_index_lower")
        assert row.bound == pytest.approx(12.0, abs=1e-12)
        assert row.result.target is BoundTarget.ZAGREB
        assert row.actual == 12.0

    def test_small_graph_flagged(self, p2):
        assert catalog_row(_report(p2, 0.5), "zagreb_index_lower").status is Status.NOT_APPLICABLE


class TestRhoSandwich:
    def test_triangle_hits_half(self, c3):
        report = verify_all(c3, 0.0, OMEGA)
        assert catalog_row(report, "rho_sandwich").bound == pytest.approx(1.0, abs=1e-12)
        assert report.rho_ratio == pytest.approx(0.5, abs=1e-12)

    def test_single_arc_ratio_one(self, p2):
        assert verify_all(p2, 0.25, OMEGA).rho_ratio == pytest.approx(1.0, abs=1e-12)

    def test_general_beta_uses_one_third(self):
        # mu_1 = 1 and rho = 3, as for the spectrum (1, -3)
        (values, _, _), _ = _rho(1.0, 3.0, BetaParam(1.0, 0.0))
        assert values[0] == pytest.approx(1.0, abs=1e-15)

    def test_zero_spectrum_ratio_defined_as_one(self):
        (values, _, _), ratio = _rho(0.0, 0.0, OMEGA)
        assert values == (0.0,)
        assert ratio == 1.0


K3_TEXT = "3\n1 -- 2\n2 -- 3\n1 -- 3\n"
C3_TEXT = "3\n1 -> 2\n2 -> 3\n3 -> 1\n"
# (test id, row name, j, graph, alpha) at beta = omega; found by exhaustive
# search over the mixed graphs of order 3 and 4
WITNESSES = [
    ("wolkowicz_mu1_upper-K3", "wolkowicz_mu1_upper", None, K3_TEXT, 0.25),
    ("spread_upper-K13", "spread_upper", None, "4\n1 -- 2\n1 -- 3\n1 -- 4\n", 0.0),
    *(
        (f"{name}-K3", name, None, K3_TEXT, 0.0)
        for name in (
            "rayleigh_mu1_lower", "spread_lower_moment", "spread_lower_zagreb", "wolkowicz_mun_upper",
            "zagreb_index_lower", "zagreb_mun_upper",
        )
    ),
    ("wolkowicz_mu_j_lower-j2-K3", "wolkowicz_mu_j_lower", 2, K3_TEXT, 0.0),
    ("wolkowicz_mu_j_upper-j1-K3", "wolkowicz_mu_j_upper", 1, K3_TEXT, 0.0),
    *(
        (f"{name}-C3", name, None, C3_TEXT, 0.0)
        for name in ("rho_sandwich", "wolkowicz_mu1_lower", "wolkowicz_mun_lower", "zagreb_mu1_lower")
    ),
    ("offdiag_mun_upper-K2+K1", "offdiag_mun_upper", None, "3\n2 -- 3\n", 0.5),
    # the even-n forms of the two spread lower bounds
    ("spread_lower_moment-2K2", "spread_lower_moment", None, "4\n1 -- 2\n3 -- 4\n", 0.0),
    ("spread_lower_zagreb-2K2", "spread_lower_zagreb", None, "4\n1 -- 2\n3 -- 4\n", 0.0),
]
# Rows without a witness, each with the least |slack| / max(1, rho) found
# over every mixed graph of order 3 or 4, at beta in {omega, 1, i} and alpha
# in {0, 1/4, 1/2, 3/4, 1}. trace_norm_upper cannot be attained on a nonzero
# spectrum: with tr = 2*alpha*m it is at least 2(|tr| + sqrt(n tr2 - tr^2)),
# twice a bound on the trace norm. The unit_offdiag_* pair is scored only at
# alpha = 0, where it equals the offdiag_* pair; no reason is known why that
# pair's mu_1 side has no witness.
WITHOUT_WITNESS = {
    "offdiag_mu1_lower": 4.8e-2,
    "unit_offdiag_mu1_lower": 0.167,
    "unit_offdiag_mun_upper": 0.167,
    "trace_norm_upper": 3.75,
}


class TestEqualityWitnesses:
    """Points where a bound is attained, so a constant that weakens the bound
    shows as positive slack. Each row is read by name from the report's
    columns; the slack must be zero to within a few ulps of max(1, rho)."""

    @pytest.mark.parametrize(
        "name, j, text, alpha", [w[1:] for w in WITNESSES], ids=[w[0] for w in WITNESSES]
    )
    def test_slack_is_zero(self, name, j, text, alpha):
        report = verify_all(parse_graph(text), alpha, OMEGA)
        row = catalog_row(report, name, j)
        assert report.spread > 0.0
        assert row.status is Status.HOLDS
        assert abs(row.slack) <= 4 * math.ulp(max(1.0, report.rho))

    def test_every_row_has_a_witness_or_is_listed(self, k13):
        names = {row.name for row in verify_all(k13, 0.5, OMEGA).rows}
        witnessed = {w[1] for w in WITNESSES}
        assert witnessed.isdisjoint(WITHOUT_WITNESS)
        assert witnessed | set(WITHOUT_WITNESS) == names


class TestNearAlphaOne:
    """ROADMAP item 14. ``_moments`` takes the spectral variance as
    tr2/n - (tr/n)^2. On a d-regular graph both terms are near alpha^2 d^2
    while their difference is (1 - alpha)^2 d, so near alpha = 1 rounding
    leaves about 1e-14 and s comes out near 1e-7: the rows built on s are
    then falsely VIOLATED. Strict, so the fix has to remove the mark."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 14: the spectral variance cancels near alpha = 1")
    def test_complete_graph_has_no_false_violation(self):
        k9 = parse_graph("9\n" + "".join(f"{u} -- {v}\n" for u in range(1, 10) for v in range(u + 1, 10)))
        report = verify_all(k9, 1.0 - 2.0**-53, OMEGA)
        assert Status.VIOLATED not in report.statuses


def _complete(n):
    return parse_graph(f"{n}\n" + "".join(f"{u} -- {v}\n" for u in range(1, n + 1) for v in range(u + 1, n + 1)))


U = 2.0**-53
# random graphs, and the regular K_2..K_12, where the variance cancels most
# near alpha = 1; alphas at both ends, uniform, and dyadic near either end
PROOF_GRAPHS = st.one_of(graphs(), st.integers(2, 12).map(_complete))
PROOF_ALPHAS = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 1.0),
    st.integers(1, 53).map(lambda k: 1.0 - 2.0**-k),
    st.integers(1, 60).map(lambda k: 2.0**-k),
)


class TestScoringCannotFail:
    """n^2 s^2 = alpha^2 (n M1 - 4m^2) + (1 - alpha)^2 2mn, and n M1 >= (sum d)^2
    = 4m^2 by Cauchy-Schwarz on the degrees, so the spectral variance and the
    trace-norm bracket that ``bounds`` clamps at 0 are >= 0 exactly: their
    computed values miss 0 by rounding only, and every point scores."""

    @given(PROOF_GRAPHS, PROOF_ALPHAS)
    def test_clamped_differences_fall_below_zero_by_rounding_only(self, g, alpha):
        n = g.n
        tr, tr2 = expected_traces(g.stats, alpha)
        r = tr / n
        mean2, r2 = tr2 / n, r * r
        assert mean2 - r2 >= -16 * U * max(mean2, r2)
        ntr2, tr_sq = n * tr2, tr * tr
        assert ntr2 - tr_sq >= -16 * U * max(ntr2, tr_sq)

    @given(PROOF_GRAPHS, PROOF_ALPHAS, st.floats(-math.pi / 2, math.pi / 2))
    def test_every_point_verifies_with_finite_bounds(self, g, alpha, theta):
        for beta in (OMEGA, BetaParam.from_angle(theta)):
            report = verify_all(g, alpha, beta)
            assert all(math.isfinite(b) for b in report.bounds if b is not None)


class TestPurity:
    @given(graph_and_alpha(min_n=2))
    def test_repeat_calls_identical(self, ga):
        g, alpha = ga
        # repr tells every bit apart, and the sign of a zero
        assert repr(verify_all(g, alpha, OMEGA)) == repr(verify_all(g, alpha, OMEGA))


def _reference_scores(stats, alpha, beta, trace, offdiag, spec, rows):
    """The catalog at one point as the per-point loop first scored it: each
    bound a Python float expression in catalog order (None when its
    hypothesis on n fails), then the report fields from ``rho`` on: rho,
    spread, trace norm, mu_1/rho and the columns of bounds, actuals, slacks,
    statuses and notes. ``rows`` gives each row's kind and target."""
    n, m, a = stats.n, stats.m, alpha
    dmax, dmin = stats.max_degree, stats.min_degree
    tr, tr2 = expected_traces(stats, a)
    r = tr / n
    s = math.sqrt(max(tr2 / n - r * r, 0.0))
    root = math.sqrt(n - 1.0)
    bounds = [
        (2.0 * a * m + (1.0 - a) * (stats.arc_count + 2.0 * stats.undirected_count)) / n,
        *((trace / n + 2.0 * offdiag / n, trace / n - 2.0 * offdiag / n) if n >= 2 else (None, None)),
        2.0 * (a * m + 1.0) / n,
        2.0 * (a * m - 1.0) / n,
        *((r + s * root, r + s / root, r - s / root, r - s * root) if n >= 2 else (None,) * 4),
    ]
    t = None
    if n >= 3:
        t = (
            (n * a * a / 2.0) * (dmax - dmin) ** 2
            + (2.0 * n * n * a * a / (n - 2.0)) * (2.0 * m / n - (dmax + dmin) / 2.0) ** 2
            + (1.0 - a) ** 2 * 2.0 * m * n
        )
        shift = math.sqrt(t / (n * n * (n - 1.0)))
        bounds += [2.0 * a * m / n + shift, 2.0 * a * m / n - shift]
    else:
        bounds += [None, None]
    for j in range(1, n + 1):
        bounds += [
            r - s * math.sqrt((j - 1.0) / (n - j + 1.0)),
            r + s * math.sqrt((n - j) / float(j)),
        ]
    if n >= 2:
        bracket = max(n * tr2 - tr * tr, 0.0)
        odd = 2.0 * n * s / math.sqrt(n * n - 1.0)
        bounds += [
            4.0 * a * m + 2.0 * math.sqrt((n - 1.0) * bracket),
            math.sqrt(2.0 * n) * s,
            2.0 * s if n % 2 == 0 else odd,
        ]
    else:
        bounds += [None] * 3
    if n >= 3:
        even = (2.0 / n) * math.sqrt(t)
        bounds += [even if n % 2 == 0 else 2.0 * math.sqrt(t / (n * n - 1.0)), zagreb_lower_bound(stats)]
    else:
        bounds += [None, None]
    c = 0.5 if beta.is_omega() else 1.0 / 3.0
    values = spec.values
    rho = max(abs(values[0]), abs(values[-1]))
    bounds.append(c * rho)

    trace_norm = 0.0
    for x in values:
        trace_norm += abs(x)
    spread = values[0] - values[-1]
    ratio = 1.0 if rho == 0.0 else values[0] / rho
    by_target = {
        BoundTarget.MU_1: values[0], BoundTarget.MU_N: values[-1], BoundTarget.SPREAD: spread,
        BoundTarget.TRACE_NORM: trace_norm, BoundTarget.ZAGREB: float(stats.zagreb),
    }
    actuals, slacks, statuses, notes = [], [], [], []
    for row, bound in zip(rows, bounds):
        if bound is None:
            least = 3 if row.name.startswith(("zagreb", "spread_lower_zagreb")) else 2
            actuals.append(None)
            slacks.append(None)
            statuses.append(Status.NOT_APPLICABLE)
            notes.append(f"needs n >= {least}")
            continue
        actual = values[row.j - 1] if row.target is BoundTarget.MU_J else by_target[row.target]
        slack = actual - bound if row.kind is BoundKind.LOWER else bound - actual
        status, note = Status.HOLDS if slack >= -1e-9 else Status.VIOLATED, ""
        if row.name == "rayleigh_mu1_lower" and not beta.is_omega():
            status, note = Status.NOT_APPLICABLE, "stated for beta = omega only"
        elif row.name.startswith("unit_offdiag_") and m < 1:
            status, note = Status.NOT_APPLICABLE, "no off-diagonal entry to instantiate"
        elif row.name.startswith("unit_offdiag_") and a > 0.0:
            status, note = Status.EXPECTED_FAIL, "premise |a_rs| = 1 fails: entries have modulus 1 - alpha"
        elif row.name == "rho_sandwich":
            note = f"c = {c}; ratio mu_1/rho = {ratio:.17g}"
        actuals.append(actual)
        slacks.append(slack)
        statuses.append(status)
        notes.append(note)
    columns = (bounds, actuals, slacks, statuses, notes)
    return (rho, spread, trace_norm, ratio, *map(tuple, columns))


def _report_fields(report):
    """The report's fields from ``rho`` on, bar the static ``rows``."""
    return (
        report.rho, report.spread, report.trace_norm, report.rho_ratio,
        report.bounds, report.actuals, report.slacks, report.statuses, report.notes,
    )


class TestBlockMatchesScalarReference:
    """A stacked sweep, and a one-point block through ``verify_all``, score
    each point with the bits of the scalar loop, in every report field the
    catalog fills."""

    # at alpha = 0.00571, Python's (1 - alpha)**2 (C pow) and x*x differ in
    # the last bit; n reaches the largest orders the benchmark reports on
    @given(
        st.integers(1, 48),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(0.0, 1.0), max_size=4),
        st.booleans(),
    )
    def test_bounds_and_slacks_bit_for_bit(self, n, edge_prob, orient_prob, seed, inner, omega):
        g = random_mixed_graph(n, edge_prob, orient_prob, seed)
        grid = [0.0, 0.00571, 1.0, *inner]
        beta = OMEGA if omega else BetaParam.from_angle(0.9)
        stack = a_alpha_stack(g, grid, beta)
        traces, offdiag = stack.traces(), stack.max_offdiag_moduli()
        for i, report in enumerate(sweep_alpha(g, grid, beta)):
            want = _reference_scores(g.stats, grid[i], beta, traces[i], offdiag[i], report.spectrum, report.rows)
            # repr tells every bit apart, and the sign of a zero
            assert repr(_report_fields(report)) == repr(want)

    @given(
        st.integers(1, 48),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.00571, 1.0, 1.0 - 2.0**-53]) | st.floats(0.0, 1.0),
        st.booleans(),
    )
    # |mu_n| > mu_1 here, so the rho_sandwich note prints a ratio of 17 digits
    @example(5, 0.5, 0.5, 2, 0.0, True)
    def test_one_point_block_bit_for_bit(self, n, edge_prob, orient_prob, seed, alpha, omega):
        g = random_mixed_graph(n, edge_prob, orient_prob, seed)
        beta = OMEGA if omega else BetaParam.from_angle(-0.4)
        stack = a_alpha_stack(g, [alpha], beta)
        report = verify_all(g, alpha, beta, rayleigh_seed=seed)
        want = _reference_scores(
            g.stats, alpha, beta, stack.traces()[0], stack.max_offdiag_moduli()[0], report.spectrum, report.rows
        )
        assert repr(_report_fields(report)) == repr(want)
