"""Bound catalog: formula values on anchor graphs, applicability flags,
formula coincidences, and the refinement-ordering property. Anchor values
are read by row name from ``verify_all``, the one way into the catalog;
synthetic inputs go straight to the family functions."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixedspec.bounds import (
    BoundKind,
    BoundTarget,
    _moments,
    _offdiag_columns,
    _rho_columns,
    _unit_columns,
    _wolkowicz_columns,
)
from mixedspec.graphs import graph_stats, parse_graph, random_mixed_graph, zagreb_lower_bound
from mixedspec.harness import Status, sweep_alpha, verify_all
from mixedspec.matrices import BetaParam, a_alpha_stack, expected_traces, omega_constant

OMEGA = omega_constant()
ONE_VERTEX = parse_graph("1\n")


@st.composite
def graph_and_alpha(draw, min_n=1, max_n=12):
    n = draw(st.integers(min_n, max_n))
    g = random_mixed_graph(
        n,
        draw(st.floats(0.0, 1.0)),
        draw(st.floats(0.0, 1.0)),
        draw(st.integers(0, 2**32 - 1)),
    )
    return g, draw(st.floats(0.0, 1.0))


def _rows(g, alpha, beta=OMEGA):
    """The scored catalog of one verified point as CheckedBounds, keyed by
    row name, or by (name, j) for the per-j rows."""
    checked = verify_all(g, alpha, beta).checked
    return {c.result.name if c.result.j is None else (c.result.name, c.result.j): c for c in checked}


def _values(rows, *names):
    return tuple(rows[name].result.bound_value for name in names)


def _moments_at(stats, alpha):
    """r and s of the closed-form traces at one alpha."""
    tr, tr2 = expected_traces(stats, alpha)
    r, s, failures = _moments(np.array([tr]), np.array([tr2]), stats.n)
    assert failures == [None]
    return float(r[0]), float(s[0])


def _states(rows, *names):
    """The set of (bound, applicable, status, note) over the named rows."""
    checked = [rows[name] for name in names]
    return {(c.result.bound_value, c.result.applicable, c.status, c.result.note) for c in checked}


NEEDS_TWO = (None, False, Status.NOT_APPLICABLE, "needs n >= 2")


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
        _, s, failures = _moments(np.array([2.0]), np.array([4.0 / 3.0 * (1.0 - 1e-15)]), 3)
        assert s.tolist() == [0.0]
        assert failures == [None]

    def test_large_negative_variance_rejected(self):
        _, s, [failure] = _moments(np.array([2.0]), np.array([1.0]), 3)
        assert failure is not None
        assert re.fullmatch("variance .* is negative beyond rounding", failure)
        assert s.tolist() == [0.0]


class TestRayleighLower:
    def test_single_arc(self, p2):
        assert _rows(p2, 0.0)["rayleigh_mu1_lower"].result.bound_value == 0.5

    def test_triangle_tight(self, c3):
        ray = _rows(c3, 0.0)["rayleigh_mu1_lower"]
        assert ray.result.bound_value == 1.0
        assert ray.status is Status.HOLDS

    @given(graph_and_alpha())
    def test_alpha_one_is_average_degree(self, ga):
        g, _ = ga
        r = _rows(g, 1.0)["rayleigh_mu1_lower"].result
        assert r.bound_value == pytest.approx(2.0 * g.stats.m / g.n, abs=1e-12)


class TestOffdiagBounds:
    def test_corrected_single_arc_midpoint(self):
        cols = _offdiag_columns(np.array([1.0]), 2, np.array([0.5]))
        assert cols.values.tolist() == [[1.0], [0.0]]
        lo, hi = cols.rows
        assert lo.kind is BoundKind.LOWER and lo.target is BoundTarget.MU_1
        assert hi.kind is BoundKind.UPPER and hi.target is BoundTarget.MU_N

    def test_rejects_single_vertex(self):
        rows = _rows(ONE_VERTEX, 0.5)
        assert _states(rows, "offdiag_mu1_lower", "offdiag_mun_upper") == {NEEDS_TWO}

    def test_literal_form_values(self, p2):
        rows = _rows(p2, 0.5)
        assert _values(rows, "unit_offdiag_mu1_lower", "unit_offdiag_mun_upper") == (1.5, -0.5)
        assert not rows["unit_offdiag_mu1_lower"].result.applicable
        assert not rows["unit_offdiag_mun_upper"].result.applicable

    def test_literal_form_applicable_at_alpha_zero(self, p2):
        rows = _rows(p2, 0.0)
        assert _values(rows, "unit_offdiag_mu1_lower", "unit_offdiag_mun_upper") == (1.0, -1.0)
        assert rows["unit_offdiag_mu1_lower"].status is Status.HOLDS
        assert rows["unit_offdiag_mun_upper"].status is Status.HOLDS

    def test_literal_form_needs_an_edge(self):
        lo = _rows(parse_graph("3\n"), 0.0)["unit_offdiag_mu1_lower"]
        assert not lo.result.applicable
        assert lo.status is Status.NOT_APPLICABLE

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
        rows = _rows(parse_graph(text), alpha)
        pair = [rows[name] for name in ("unit_offdiag_mu1_lower", "unit_offdiag_mun_upper")]
        assert [c.result.expected_fail for c in pair] == [expected] * 2
        assert [c.status is Status.EXPECTED_FAIL for c in pair] == [expected] * 2

    def test_literal_coincides_with_corrected_at_alpha_zero(self, c3):
        # max off-diagonal modulus is 1 at alpha = 0, so the forms match
        stats = graph_stats(c3)
        literal = _unit_columns(stats, np.array([0.0])).values
        corrected = _offdiag_columns(np.array([0.0]), stats.n, np.array([1.0])).values
        assert literal.tolist() == corrected.tolist()


class TestWolkowiczExtremes:
    def test_single_arc_all_tight(self, p2):
        assert _values(_rows(p2, 0.0), *_WOLKOWICZ) == (1.0, 1.0, -1.0, -1.0)

    def test_triangle(self, c3):
        up1, lo1, upn, lon = _values(_rows(c3, 0.0), *_WOLKOWICZ)
        assert up1 == pytest.approx(2.0, abs=1e-12)
        assert lo1 == pytest.approx(1.0, abs=1e-12)
        assert upn == pytest.approx(-1.0, abs=1e-12)
        assert lon == pytest.approx(-2.0, abs=1e-12)

    def test_zero_variance_collapses_to_mean(self):
        four = _wolkowicz_columns(np.array([2.5]), np.array([0.0]), 5).values
        assert four.tolist() == [[2.5]] * 4

    def test_not_applicable_at_single_vertex(self):
        assert _states(_rows(ONE_VERTEX, 0.0), *_WOLKOWICZ) == {NEEDS_TWO}


class TestZagrebRefinedExtremes:
    def test_triangle_midpoint_tight(self, c3):
        lo, hi = _values(_rows(c3, 0.5), "zagreb_mu1_lower", "zagreb_mun_upper")
        assert lo == pytest.approx(1.5, abs=1e-12)
        assert hi == pytest.approx(0.5, abs=1e-12)

    def test_small_graph_flagged(self, p2):
        assert _states(_rows(p2, 0.5), "zagreb_mu1_lower", "zagreb_mun_upper") == {
            (None, False, Status.NOT_APPLICABLE, "needs n >= 3")
        }

    @given(graph_and_alpha(min_n=3))
    def test_regular_alpha_one_hits_degree(self, ga):
        g, _ = ga
        stats = g.stats
        if stats.max_degree != stats.min_degree:
            return
        lo = _rows(g, 1.0)["zagreb_mu1_lower"].result.bound_value
        assert lo == pytest.approx(stats.max_degree, abs=1e-9)

    @given(graph_and_alpha(min_n=3))
    def test_never_beats_exact_moment_form(self, ga):
        # the refined form replaces the Zagreb index by its lower bound, so
        # it can only weaken the mean/variance mu_1 lower bound
        rows = _rows(*ga)
        lo_ref, upn_ref, lo_mom, upn_mom = _values(
            rows, "zagreb_mu1_lower", "zagreb_mun_upper", "wolkowicz_mu1_lower", "wolkowicz_mun_upper"
        )
        assert lo_ref <= lo_mom + 1e-9
        assert upn_ref >= upn_mom - 1e-9

    def test_moment_form_strictly_tighter_on_irregular_path(self):
        # degree sequence (1,2,2,1): the Zagreb slack is positive, so the
        # refined bound is strictly below the exact-moment bound
        rows = _rows(parse_graph("4\n1 -> 2\n2 -> 3\n3 -> 4\n"), 0.5)
        lo_ref, lo_mom = _values(rows, "zagreb_mu1_lower", "wolkowicz_mu1_lower")
        assert lo_ref < lo_mom - 1e-3


class TestJthBounds:
    def test_triangle_last_eigenvalue_tight(self, c3):
        lo = _rows(c3, 0.0)[("wolkowicz_mu_j_lower", 3)]
        assert lo.result.bound_value == pytest.approx(-2.0, abs=1e-12)
        assert lo.result.target is BoundTarget.MU_J

    def test_triangle_first_upper(self, c3):
        up = _rows(c3, 0.0)[("wolkowicz_mu_j_upper", 1)]
        assert up.result.bound_value == pytest.approx(2.0, abs=1e-12)

    @given(graph_and_alpha(min_n=2))
    def test_extreme_j_reduces_to_extreme_bounds(self, ga):
        g, alpha = ga
        rows = _rows(g, alpha)
        up1, lon = _values(rows, "wolkowicz_mu1_upper", "wolkowicz_mun_lower")
        j1_up, jn_lo = _values(rows, ("wolkowicz_mu_j_upper", 1), ("wolkowicz_mu_j_lower", g.n))
        assert abs(j1_up - up1) <= 1e-12
        assert abs(jn_lo - lon) <= 1e-12


class TestTraceNormUpper:
    def test_triangle(self, c3):
        assert _rows(c3, 0.0)["trace_norm_upper"].result.bound_value == pytest.approx(12.0, abs=1e-12)

    def test_single_arc(self, p2):
        assert _rows(p2, 0.0)["trace_norm_upper"].result.bound_value == pytest.approx(4.0, abs=1e-12)

    def test_empty_graph_tight(self):
        row = _rows(parse_graph("5\n"), 0.7)["trace_norm_upper"]
        assert row.result.bound_value == 0.0
        assert row.slack == 0.0


class TestSpreadBounds:
    def test_single_arc_even_case(self, p2):
        up, lo = _values(_rows(p2, 0.0), "spread_upper", "spread_lower_moment")
        assert up == pytest.approx(2.0, abs=1e-12)
        assert lo == pytest.approx(2.0, abs=1e-12)

    def test_triangle_odd_case(self, c3):
        assert _rows(c3, 0.0)["spread_lower_moment"].result.bound_value == pytest.approx(3.0, abs=1e-12)

    def test_not_applicable_at_single_vertex(self):
        assert _states(_rows(ONE_VERTEX, 0.0), "spread_upper", "spread_lower_moment") == {NEEDS_TWO}

    def test_refined_lower_needs_three_vertices(self, p2):
        rows = _rows(p2, 0.0)
        assert rows["spread_upper"].result.applicable
        assert not rows["spread_lower_zagreb"].result.applicable

    def test_regular_alpha_one_collapses(self, c3):
        up, lo = _values(_rows(c3, 1.0), "spread_upper", "spread_lower_zagreb")
        assert up == pytest.approx(0.0, abs=1e-12)
        assert lo == pytest.approx(0.0, abs=1e-12)

    @given(graph_and_alpha(min_n=3))
    def test_refined_lower_never_beats_moment_lower(self, ga):
        lo_ref, lo_mom = _values(_rows(*ga), "spread_lower_zagreb", "spread_lower_moment")
        assert lo_ref <= lo_mom + 1e-9


class TestZagrebIndexBound:
    def test_star_equality(self, k13):
        row = _rows(k13, 0.5)["zagreb_index_lower"]
        assert row.result.bound_value == pytest.approx(12.0, abs=1e-12)
        assert row.result.target is BoundTarget.ZAGREB
        assert row.actual == 12.0

    def test_small_graph_flagged(self, p2):
        assert not _rows(p2, 0.5)["zagreb_index_lower"].result.applicable


class TestRhoSandwich:
    def test_triangle_hits_half(self, c3):
        report = verify_all(c3, 0.0, OMEGA)
        [row] = [c for c in report.checked if c.result.name == "rho_sandwich"]
        assert row.result.bound_value == pytest.approx(1.0, abs=1e-12)
        assert report.rho_ratio == pytest.approx(0.5, abs=1e-12)

    def test_single_arc_ratio_one(self, p2):
        assert verify_all(p2, 0.25, OMEGA).rho_ratio == pytest.approx(1.0, abs=1e-12)

    def test_general_beta_uses_one_third(self):
        # mu_1 = 1 and rho = 3, as for the spectrum (1, -3)
        cols, _ = _rho_columns([1.0], [3.0], BetaParam(1.0, 0.0))
        assert cols.values[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_zero_spectrum_ratio_defined_as_one(self):
        cols, ratio = _rho_columns([0.0], [0.0], OMEGA)
        assert cols.values.tolist() == [[0.0]]
        assert ratio == [1.0]


class TestPurity:
    @given(graph_and_alpha(min_n=2))
    def test_repeat_calls_identical(self, ga):
        g, alpha = ga
        # repr tells every bit apart, and the sign of a zero
        assert repr(verify_all(g, alpha, OMEGA)) == repr(verify_all(g, alpha, OMEGA))


def _reference_scores(stats, alpha, beta, trace, offdiag, spec):
    """The catalog at one point as the per-point loop first scored it: each
    bound a Python float expression in catalog order (None when its
    hypothesis on n fails), and each scored row's slack and status."""
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
    bounds.append((0.5 if beta.is_omega() else 1.0 / 3.0) * max(abs(spec.mu_max), abs(spec.mu_min)))
    return bounds


class TestBlockMatchesScalarReference:
    """A stacked sweep scores each point with the bits of the scalar loop."""

    # at alpha = 0.00571, Python's (1 - alpha)**2 (C pow) and x*x differ in
    # the last bit
    @given(
        st.integers(1, 12),
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
            want = _reference_scores(g.stats, grid[i], beta, traces[i], offdiag[i], report.spectrum)
            # repr tells every bit apart, and the sign of a zero
            assert repr(report.bounds) == repr(tuple(want))
            for c in report.checked:
                if c.slack is not None:
                    actual = c.actual
                    bound = c.result.bound_value
                    slack = actual - bound if c.result.kind is BoundKind.LOWER else bound - actual
                    assert repr(c.slack) == repr(slack)
