"""Bound catalog: formula values on anchor graphs, applicability flags,
formula coincidences, and the refinement-ordering property."""

import math

import pytest
from hypothesis import given, strategies as st

from mixedspec.bounds import (
    BoundKind,
    BoundTarget,
    WolkowiczMoments,
    garga_extreme_bounds,
    jth_eigenvalue_bounds,
    rayleigh_mu1_lower,
    rho_sandwich,
    spread_lower_zagreb,
    spread_moment_bounds,
    trace_norm_upper,
    unit_modulus_extreme_bounds,
    wolkowicz_extreme_bounds,
    zagreb_index_bound,
    zagreb_refined_extreme_bounds,
)
from mixedspec.eig import Spectrum, VerificationError, eigenvalues, spectral_radius
from mixedspec.graphs import graph_stats, parse_graph, random_mixed_graph, zagreb_lower_bound
from mixedspec.harness import sweep_alpha
from mixedspec.matrices import BetaParam, a_alpha_matrix, a_alpha_stack, expected_traces, omega_constant

OMEGA = omega_constant()


@st.composite
def stats_and_alpha(draw, min_n=1, max_n=12):
    n = draw(st.integers(min_n, max_n))
    g = random_mixed_graph(
        n,
        draw(st.floats(0.0, 1.0)),
        draw(st.floats(0.0, 1.0)),
        draw(st.integers(0, 2**32 - 1)),
    )
    return graph_stats(g), draw(st.floats(0.0, 1.0))


class TestWolkowiczMoments:
    def test_single_arc_alpha_zero(self, p2):
        mom = WolkowiczMoments.from_stats(graph_stats(p2), 0.0)
        assert mom.r == 0.0
        assert mom.s == pytest.approx(1.0, abs=1e-15)

    def test_triangle_alpha_zero(self, c3):
        mom = WolkowiczMoments.from_stats(graph_stats(c3), 0.0)
        assert mom.r == 0.0
        assert mom.s == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_tiny_negative_variance_clamped(self):
        mom = WolkowiczMoments.from_traces(2.0, 4.0 / 3.0 * (1.0 - 1e-15), 3)
        assert mom.s == 0.0

    def test_large_negative_variance_rejected(self):
        with pytest.raises(VerificationError, match="variance .* is negative beyond rounding"):
            WolkowiczMoments.from_traces(2.0, 1.0, 3)

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            WolkowiczMoments(r=0.0, s=-1.0)


class TestRayleighLower:
    def test_single_arc(self, p2):
        assert rayleigh_mu1_lower(graph_stats(p2), 0.0, OMEGA).bound_value == 0.5

    def test_triangle_tight(self, c3):
        assert rayleigh_mu1_lower(graph_stats(c3), 0.0, OMEGA).bound_value == 1.0

    @given(stats_and_alpha())
    def test_alpha_one_is_average_degree(self, sa):
        stats, _ = sa
        r = rayleigh_mu1_lower(stats, 1.0, OMEGA)
        assert r.bound_value == pytest.approx(2.0 * stats.m / stats.n, abs=1e-12)


class TestOffdiagBounds:
    def test_corrected_single_arc_midpoint(self):
        lo, hi = garga_extreme_bounds(1.0, 2, 0.5)
        assert lo.bound_value == 1.0
        assert hi.bound_value == 0.0
        assert lo.kind is BoundKind.LOWER and lo.target is BoundTarget.MU_1
        assert hi.kind is BoundKind.UPPER and hi.target is BoundTarget.MU_N

    def test_rejects_single_vertex(self):
        pair = garga_extreme_bounds(0.0, 1, 0.0)
        assert [(b.bound_value, b.applicable, b.note) for b in pair] == [(None, False, "needs n >= 2")] * 2

    def test_literal_form_values(self, p2):
        lo, hi = unit_modulus_extreme_bounds(graph_stats(p2), 0.5)
        assert lo.bound_value == 1.5
        assert hi.bound_value == -0.5
        assert not lo.applicable and not hi.applicable

    def test_literal_form_applicable_at_alpha_zero(self, p2):
        lo, hi = unit_modulus_extreme_bounds(graph_stats(p2), 0.0)
        assert lo.applicable and hi.applicable
        assert lo.bound_value == 1.0
        assert hi.bound_value == -1.0

    def test_literal_form_needs_an_edge(self):
        stats = graph_stats(parse_graph("3\n"))
        lo, _ = unit_modulus_extreme_bounds(stats, 0.0)
        assert not lo.applicable

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
        pair = unit_modulus_extreme_bounds(graph_stats(parse_graph(text)), alpha)
        assert [b.expected_fail for b in pair] == [expected] * 2

    def test_literal_coincides_with_corrected_at_alpha_zero(self, c3):
        # max off-diagonal modulus is 1 at alpha = 0, so the forms match
        stats = graph_stats(c3)
        lo_lit, hi_lit = unit_modulus_extreme_bounds(stats, 0.0)
        lo_cor, hi_cor = garga_extreme_bounds(0.0, stats.n, 1.0)
        assert lo_lit.bound_value == lo_cor.bound_value
        assert hi_lit.bound_value == hi_cor.bound_value


class TestWolkowiczExtremes:
    def test_single_arc_all_tight(self, p2):
        mom = WolkowiczMoments.from_stats(graph_stats(p2), 0.0)
        up1, lo1, upn, lon = wolkowicz_extreme_bounds(mom, 2)
        assert (up1.bound_value, lo1.bound_value) == (1.0, 1.0)
        assert (upn.bound_value, lon.bound_value) == (-1.0, -1.0)

    def test_triangle(self, c3):
        mom = WolkowiczMoments.from_stats(graph_stats(c3), 0.0)
        up1, lo1, upn, lon = wolkowicz_extreme_bounds(mom, 3)
        assert up1.bound_value == pytest.approx(2.0, abs=1e-12)
        assert lo1.bound_value == pytest.approx(1.0, abs=1e-12)
        assert upn.bound_value == pytest.approx(-1.0, abs=1e-12)
        assert lon.bound_value == pytest.approx(-2.0, abs=1e-12)

    def test_zero_variance_collapses_to_mean(self):
        four = wolkowicz_extreme_bounds(WolkowiczMoments(r=2.5, s=0.0), 5)
        assert all(b.bound_value == 2.5 for b in four)

    def test_not_applicable_at_single_vertex(self):
        four = wolkowicz_extreme_bounds(WolkowiczMoments(r=0.0, s=0.0), 1)
        assert [(b.bound_value, b.applicable, b.note) for b in four] == [(None, False, "needs n >= 2")] * 4


class TestZagrebRefinedExtremes:
    def test_triangle_midpoint_tight(self, c3):
        lo, hi = zagreb_refined_extreme_bounds(graph_stats(c3), 0.5)
        assert lo.bound_value == pytest.approx(1.5, abs=1e-12)
        assert hi.bound_value == pytest.approx(0.5, abs=1e-12)

    def test_small_graph_flagged(self, p2):
        lo, hi = zagreb_refined_extreme_bounds(graph_stats(p2), 0.5)
        assert not lo.applicable and not hi.applicable
        assert lo.bound_value is None

    @given(stats_and_alpha(min_n=3))
    def test_regular_alpha_one_hits_degree(self, sa):
        stats, _ = sa
        if stats.max_degree != stats.min_degree:
            return
        lo, _ = zagreb_refined_extreme_bounds(stats, 1.0)
        assert lo.bound_value == pytest.approx(stats.max_degree, abs=1e-9)

    @given(stats_and_alpha(min_n=3))
    def test_never_beats_exact_moment_form(self, sa):
        # the refined form replaces the Zagreb index by its lower bound, so
        # it can only weaken the mean/variance mu_1 lower bound
        stats, alpha = sa
        mom = WolkowiczMoments.from_stats(stats, alpha)
        _, lo_mom, upn_mom, _ = wolkowicz_extreme_bounds(mom, stats.n)
        lo_ref, upn_ref = zagreb_refined_extreme_bounds(stats, alpha)
        assert lo_ref.bound_value <= lo_mom.bound_value + 1e-9
        assert upn_ref.bound_value >= upn_mom.bound_value - 1e-9

    def test_moment_form_strictly_tighter_on_irregular_path(self):
        # degree sequence (1,2,2,1): the Zagreb slack is positive, so the
        # refined bound is strictly below the exact-moment bound
        g = parse_graph("4\n1 -> 2\n2 -> 3\n3 -> 4\n")
        stats = graph_stats(g)
        mom = WolkowiczMoments.from_stats(stats, 0.5)
        _, lo_mom, _, _ = wolkowicz_extreme_bounds(mom, 4)
        lo_ref, _ = zagreb_refined_extreme_bounds(stats, 0.5)
        assert lo_ref.bound_value < lo_mom.bound_value - 1e-3


class TestJthBounds:
    # the family is (lower_1, upper_1, ..., lower_n, upper_n): the j = n lower
    # bound sits at [2n - 2] and the j = 1 upper bound at [1]
    def test_triangle_last_eigenvalue_tight(self, c3):
        mom = WolkowiczMoments.from_stats(graph_stats(c3), 0.0)
        lo = jth_eigenvalue_bounds(mom, 3)[4]
        assert lo.bound_value == pytest.approx(-2.0, abs=1e-12)
        assert lo.j == 3

    def test_triangle_first_upper(self, c3):
        mom = WolkowiczMoments.from_stats(graph_stats(c3), 0.0)
        up = jth_eigenvalue_bounds(mom, 3)[1]
        assert up.bound_value == pytest.approx(2.0, abs=1e-12)

    @given(stats_and_alpha(min_n=2))
    def test_extreme_j_reduces_to_extreme_bounds(self, sa):
        stats, alpha = sa
        n = stats.n
        mom = WolkowiczMoments.from_stats(stats, alpha)
        up1, _, _, lon = wolkowicz_extreme_bounds(mom, n)
        family = jth_eigenvalue_bounds(mom, n)
        j1_up, jn_lo = family[1], family[2 * n - 2]
        assert abs(j1_up.bound_value - up1.bound_value) <= 1e-12
        assert abs(jn_lo.bound_value - lon.bound_value) <= 1e-12


class TestTraceNormUpper:
    def test_triangle(self, c3):
        assert trace_norm_upper(graph_stats(c3), 0.0).bound_value == pytest.approx(12.0, abs=1e-12)

    def test_single_arc(self, p2):
        assert trace_norm_upper(graph_stats(p2), 0.0).bound_value == pytest.approx(4.0, abs=1e-12)

    def test_empty_graph_tight(self):
        stats = graph_stats(parse_graph("5\n"))
        assert trace_norm_upper(stats, 0.7).bound_value == 0.0


class TestSpreadBounds:
    def test_single_arc_even_case(self, p2):
        mom = WolkowiczMoments.from_stats(graph_stats(p2), 0.0)
        up, lo = spread_moment_bounds(mom, 2)
        assert up.bound_value == pytest.approx(2.0, abs=1e-12)
        assert lo.bound_value == pytest.approx(2.0, abs=1e-12)

    def test_triangle_odd_case(self, c3):
        mom = WolkowiczMoments.from_stats(graph_stats(c3), 0.0)
        _, lo = spread_moment_bounds(mom, 3)
        assert lo.bound_value == pytest.approx(3.0, abs=1e-12)

    def test_not_applicable_at_single_vertex(self):
        pair = spread_moment_bounds(WolkowiczMoments(r=0.0, s=0.0), 1)
        assert [(b.bound_value, b.applicable, b.note) for b in pair] == [(None, False, "needs n >= 2")] * 2

    def test_refined_lower_needs_three_vertices(self, p2):
        stats = graph_stats(p2)
        up, _ = spread_moment_bounds(WolkowiczMoments.from_stats(stats, 0.0), 2)
        assert up.applicable
        assert not spread_lower_zagreb(stats, 0.0).applicable

    def test_regular_alpha_one_collapses(self, c3):
        stats = graph_stats(c3)
        up, _ = spread_moment_bounds(WolkowiczMoments.from_stats(stats, 1.0), 3)
        assert up.bound_value == pytest.approx(0.0, abs=1e-12)
        assert spread_lower_zagreb(stats, 1.0).bound_value == pytest.approx(0.0, abs=1e-12)

    @given(stats_and_alpha(min_n=3))
    def test_refined_lower_never_beats_moment_lower(self, sa):
        stats, alpha = sa
        mom = WolkowiczMoments.from_stats(stats, alpha)
        _, lo_mom = spread_moment_bounds(mom, stats.n)
        lo_ref = spread_lower_zagreb(stats, alpha)
        assert lo_ref.bound_value <= lo_mom.bound_value + 1e-9


class TestZagrebIndexBound:
    def test_star_equality(self, k13):
        r = zagreb_index_bound(graph_stats(k13))
        assert r.bound_value == pytest.approx(12.0, abs=1e-12)
        assert r.target is BoundTarget.ZAGREB

    def test_small_graph_flagged(self, p2):
        assert not zagreb_index_bound(graph_stats(p2)).applicable


class TestRhoSandwich:
    def test_triangle_hits_half(self, c3):
        spec = eigenvalues(a_alpha_matrix(c3, 0.0, OMEGA))
        res, ratio = rho_sandwich(spec, OMEGA)
        assert res.bound_value == pytest.approx(1.0, abs=1e-12)
        assert ratio == pytest.approx(0.5, abs=1e-12)

    def test_single_arc_ratio_one(self, p2):
        spec = eigenvalues(a_alpha_matrix(p2, 0.25, OMEGA))
        _, ratio = rho_sandwich(spec, OMEGA)
        assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_general_beta_uses_one_third(self):
        spec = Spectrum((1.0, -3.0))
        res, _ = rho_sandwich(spec, BetaParam(1.0, 0.0))
        assert res.bound_value == pytest.approx(1.0, abs=1e-15)

    def test_zero_spectrum_ratio_defined_as_one(self):
        spec = Spectrum((0.0, 0.0))
        res, ratio = rho_sandwich(spec, OMEGA)
        assert res.bound_value == 0.0
        assert ratio == 1.0


class TestPurity:
    @given(stats_and_alpha(min_n=2))
    def test_repeat_calls_identical(self, sa):
        stats, alpha = sa
        assert rayleigh_mu1_lower(stats, alpha, OMEGA) == rayleigh_mu1_lower(stats, alpha, OMEGA)
        assert trace_norm_upper(stats, alpha) == trace_norm_upper(stats, alpha)
        assert zagreb_refined_extreme_bounds(stats, alpha) == zagreb_refined_extreme_bounds(
            stats, alpha
        )
        mom = WolkowiczMoments.from_stats(stats, alpha)
        assert wolkowicz_extreme_bounds(mom, stats.n) == wolkowicz_extreme_bounds(mom, stats.n)


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
    bounds.append((0.5 if beta.is_omega() else 1.0 / 3.0) * spectral_radius(spec))
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
