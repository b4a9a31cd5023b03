"""Verification harness: status assignment, numerical-range sampling,
sweeps, and the randomized suite with its reproduction data."""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mixedspec.bounds
import mixedspec.harness
from conftest import CatalogRow, catalog_row
from mixedspec.bounds import BoundKind, BoundTarget, Row, _Plan, _scored, score_block
from mixedspec.eig import Spectrum, SpectrumStack, eigenvalues, oracle_eigenvalues
from mixedspec.graphs import graph_stats, parse_graph, random_mixed_graph
from mixedspec.harness import (
    BLOCK_ENTRIES,
    ORACLE_RTOL,
    RAYLEIGH_SAMPLES,
    TRACE_TOL,
    Status,
    SweepConfig,
    VerificationError,
    _block_len,
    _quadratic_forms,
    _trace2_limit,
    _unit_vectors,
    randomized_suite,
    run_trial,
    sweep_alpha,
    verify_all,
)
from mixedspec.matrices import (
    BetaParam,
    HermitianStack,
    a_alpha_stack,
    expected_traces,
    omega_constant,
)

OMEGA = omega_constant()
GRAPH_N16 = Path(__file__).parent / "data" / "graph_n16.mg"


def _check_bound(one, spec):
    """Score a one-row family at one point through the per-point ``_scored``,
    with a plan of that one row, whose actual value is mu_1 or mu_n."""
    row, family, missing = one
    v = spec.values
    source = 0 if row.target is BoundTarget.MU_1 else len(v) - 1
    plan = _Plan((row,), (source,), (row.kind is BoundKind.LOWER,), missing)
    [checked] = map(CatalogRow, plan.rows, *_scored(plan, [family], list(v)))
    return checked


def _one(kind, target, bound, note="", status=None):
    """A one-row family named x at one point: its row, the family with this
    bound, note and status, and the plan's missing rows. A bound of None is
    a row that the order premise removes: NaN until ``_scored`` blanks it."""
    row = Row("x", kind, target)
    if bound is None:
        return row, ((math.nan,), note, Status.NOT_APPLICABLE), (0,)
    return row, ((bound,), note, status), ()


def _broken_rayleigh(stats, a, tr, beta):
    """A falsely high rayleigh_mu1_lower at every point."""
    return (1e6,), "", None


class TestVerifyAll:
    def test_triangle_alpha_zero_all_hold(self, c3):
        report = verify_all(c3, 0.0, OMEGA)
        assert report.spectrum.values == pytest.approx((1.0, 1.0, -2.0), abs=1e-9)
        assert Status.VIOLATED not in report.statuses
        non_na = [s for s in report.statuses if s is not Status.NOT_APPLICABLE]
        assert all(s is Status.HOLDS for s in non_na)
        assert report.rho_ratio == pytest.approx(0.5, abs=1e-12)

    def test_single_arc_midpoint_expected_fail(self, p2):
        report = verify_all(p2, 0.5, OMEGA)
        lit = catalog_row(report, "unit_offdiag_mu1_lower")
        assert lit.status is Status.EXPECTED_FAIL
        assert lit.bound == 1.5
        assert lit.actual == pytest.approx(1.0, abs=1e-9)
        cor = catalog_row(report, "offdiag_mu1_lower")
        assert cor.status is Status.HOLDS
        assert abs(cor.slack) <= 1e-9
        assert Status.VIOLATED not in report.statuses

    def test_empty_graph_trivial(self):
        g = parse_graph("4\n")
        report = verify_all(g, 0.3, OMEGA)
        assert report.spectrum.values == (0.0, 0.0, 0.0, 0.0)
        assert Status.VIOLATED not in report.statuses

    def test_single_vertex(self):
        report = verify_all(parse_graph("1\n"), 0.9, OMEGA)
        assert report.spectrum.values == (0.0,)
        assert Status.VIOLATED not in report.statuses

    def test_alpha_one_spectrum_is_degree_sequence(self, k13):
        report = verify_all(k13, 1.0, OMEGA)
        degrees = sorted(graph_stats(k13).degrees, reverse=True)
        assert report.spectrum.values == pytest.approx(tuple(float(d) for d in degrees), abs=1e-9)

    def test_degree_statistics_computed_once(self, monkeypatch):
        real = mixedspec.graphs.graph_stats
        calls = []

        def counting(g):
            calls.append(g)
            return real(g)

        # patch every module-level reference, so a stray import is counted too
        for name, mod in list(sys.modules.items()):
            if name == "mixedspec" or name.startswith("mixedspec."):
                for attr, value in list(vars(mod).items()):
                    if value is real:
                        monkeypatch.setattr(mod, attr, counting)
        g = parse_graph("5\n1 -> 2\n2 -- 3\n3 -> 4\n4 -- 5\n5 -> 1\n1 -- 3\n")
        verify_all(g, 0.4, OMEGA)
        assert len(calls) == 1
        sweep_alpha(g, (0.0, 0.5, 1.0), BetaParam.from_angle(0.3))
        assert len(calls) == 1

    def test_rayleigh_gating_for_general_beta(self, c3):
        report = verify_all(c3, 0.2, BetaParam(1.0, 0.0))
        ray = catalog_row(report, "rayleigh_mu1_lower")
        assert ray.status is Status.NOT_APPLICABLE
        assert ray.note == "stated for beta = omega only"
        assert Status.VIOLATED not in report.statuses


class TestStatusAssignment:
    def test_lower_bound_slack_sign(self):
        spec = Spectrum((2.0, 0.0))
        ok = _check_bound(_one(BoundKind.LOWER, BoundTarget.MU_1, 1.5), spec)
        assert ok.status is Status.HOLDS and ok.slack == 0.5
        bad = _check_bound(_one(BoundKind.LOWER, BoundTarget.MU_1, 2.5), spec)
        assert bad.status is Status.VIOLATED and bad.slack == -0.5

    def test_upper_bound_slack_sign(self):
        spec = Spectrum((2.0, 0.0))
        ok = _check_bound(_one(BoundKind.UPPER, BoundTarget.MU_N, 0.25), spec)
        assert ok.status is Status.HOLDS and ok.slack == 0.25

    def test_tolerance_absorbs_rounding(self):
        spec = Spectrum((1.0,))
        near = _check_bound(_one(BoundKind.LOWER, BoundTarget.MU_1, 1.0 + 5e-10), spec)
        assert near.status is Status.HOLDS

    @staticmethod
    def rayleigh_status(shortfall):
        """The status score_block gives rayleigh_mu1_lower on one vertex at
        alpha = 0, where its bound is the closed-form trace: a trace of
        ``shortfall`` against mu_1 = 0 is a slack of exactly -shortfall."""
        stats = graph_stats(parse_graph("1\n"))
        [point] = score_block(stats, [0.0], OMEGA, [(shortfall, shortfall**2)], [0.0], [0.0], np.zeros((1, 1)))
        rows, slacks, statuses = point[4], point[7], point[8]
        assert rows[0].name == "rayleigh_mu1_lower"
        assert slacks[0] == -shortfall
        return statuses[0]

    def test_slack_tolerance_pinned_from_both_sides(self):
        # SLACK_TOL = 1e-9, written out so that a changed tolerance fails: a
        # slack of twice it is a violation, one of half of it is rounding,
        # and one of exactly -1e-9 holds, as the README states
        assert self.rayleigh_status(2e-9) is Status.VIOLATED
        assert self.rayleigh_status(0.5e-9) is Status.HOLDS
        assert self.rayleigh_status(1e-9) is Status.HOLDS

    def test_inapplicable_without_value(self):
        spec = Spectrum((1.0,))
        na = _check_bound(_one(BoundKind.LOWER, BoundTarget.MU_1, None, "no"), spec)
        assert na.status is Status.NOT_APPLICABLE
        assert na.slack is None
        assert na.note == "no"

    def test_literal_name_maps_to_expected_fail_only_with_positive_alpha(self):
        spec = Spectrum((1.0, -1.0))
        row = Row("unit_offdiag_mu1_lower", BoundKind.LOWER, BoundTarget.MU_1)
        flagged = (row, ((1.5,), "premise", Status.EXPECTED_FAIL), ())
        assert _check_bound(flagged, spec).status is Status.EXPECTED_FAIL
        # the family's status decides, not the name
        unflagged = (row, ((1.5,), "premise", Status.NOT_APPLICABLE), ())
        assert _check_bound(unflagged, spec).status is Status.NOT_APPLICABLE


class TestRayleighRangeCheck:
    """The numerical-range check inside sweep_alpha, through verify_all."""

    def test_single_arc_contained(self, p2):
        verify_all(p2, 0.0, OMEGA, rayleigh_seed=3)

    def test_zero_matrix(self):
        verify_all(parse_graph("3\n"), 0.0, OMEGA, rayleigh_seed=0)

    def test_truncated_spectrum_detected(self, c3, monkeypatch):
        # both routes agree on a spectrum that misses the true mu_1 = 1, so
        # only the range check can catch it
        fake = SpectrumStack(np.array([[0.5, 0.5, -2.0]]), (None,))
        monkeypatch.setattr(mixedspec.harness, "eigenvalues", lambda stack: fake)
        monkeypatch.setattr(mixedspec.harness, "oracle_eigenvalues", lambda stack: fake)
        with pytest.raises(VerificationError, match=r"escaped \[mu_n, mu_1\]"):
            verify_all(c3, 0.0, OMEGA, rayleigh_seed=11)

    @staticmethod
    def verify_moved(monkeypatch, end, drop):
        """verify_all on one undirected edge at alpha 0.5 (spectrum 1, 0),
        with every sampled z the eigenvector of the spectrum's ``end`` (0:
        (1, 1) of mu_1 = 1; -1: (1, -1) of mu_n = 0), so that each form is
        that eigenvalue, and with both routes reporting it moved inward by
        ``drop``. The routes still agree and the moment identities hold to
        well within their limit, so only the range check can object."""
        k2 = parse_graph("2\n1 -- 2\n")
        z = np.full((RAYLEIGH_SAMPLES, 2), 1 / math.sqrt(2), dtype=complex)
        z[:, 1] *= 1 if end == 0 else -1
        monkeypatch.setattr(mixedspec.harness, "_unit_vectors", lambda n, seed: z)
        for route in (eigenvalues, oracle_eigenvalues):

            def moved(stack, route=route):
                spectra = route(stack)
                spectra.values[:, end] += drop if end else -drop
                return spectra

            monkeypatch.setattr(mixedspec.harness, route.__name__, moved)
        return verify_all(k2, 0.5, OMEGA)

    def test_pad_pinned_from_both_sides(self, monkeypatch):
        # RAYLEIGH_PAD = 1e-9, written out so that a changed pad fails: a form
        # beyond the reported mu_1 or mu_n by twice the pad escapes, by half
        # of it is rounding
        for end, value in ((0, 1.0 - 0.5e-9), (-1, 0.5e-9)):
            with pytest.raises(VerificationError, match=r"escaped \[mu_n, mu_1\]"):
                self.verify_moved(monkeypatch, end, 2e-9)
            report = self.verify_moved(monkeypatch, end, 0.5e-9)
            assert report.spectrum.values[end] == pytest.approx(value, abs=1e-14)


class TestQuadraticForms:
    """_quadratic_forms against one np.vdot per sample and matrix. Each form
    is within 8 n eps ||M||_F ||z||^2 of the reference: two complex dot
    products of length n, in any summation order, err by at most about
    1.5 (n + 1) eps |z|^T |M| |z| each, and |z|^T |M| |z| <= ||M||_F ||z||^2."""

    @staticmethod
    def assert_matches_vdot(z, data):
        forms = _quadratic_forms(z, data)
        assert forms.shape == (len(data), RAYLEIGH_SAMPLES)
        eps = np.finfo(data.dtype).eps
        for m, row in zip(data, forms):
            scale = 8 * len(z[0]) * eps * np.linalg.norm(m)
            for zr, got in zip(z, row):
                assert abs(got - np.vdot(zr, m @ zr)) <= scale * np.vdot(zr, zr).real

    @given(st.integers(1, 5), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_random_stacks(self, k, n, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        a = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        stack = HermitianStack(a + a.conj().transpose(0, 2, 1))
        self.assert_matches_vdot(_unit_vectors(n, seed), stack.data)

    def test_sweep_block(self):
        g = parse_graph(GRAPH_N16.read_text(encoding="utf-8"))
        stack = a_alpha_stack(g, [i * 0.05 for i in range(21)], OMEGA)
        assert stack.data.shape == (21, 16, 16)
        self.assert_matches_vdot(_unit_vectors(16, 0), stack.data)


def reference_unit_vectors(n, seed):
    """``_unit_vectors`` as it was first written: the real and the imaginary
    parts in two draws, joined, then divided by ``np.linalg.norm``."""
    shape = (RAYLEIGH_SAMPLES, n)
    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    return z / norms[:, None]


class TestUnitVectorsMatchReference:
    @given(st.integers(1, 12) | st.just(40), st.integers(0, 2**63 - 1))
    def test_shape_norms_and_entries(self, n, seed):
        z, want = _unit_vectors(n, seed), reference_unit_vectors(n, seed)
        assert z.shape == want.shape == (RAYLEIGH_SAMPLES, n)
        assert z.dtype == np.complex128
        eps = np.finfo(np.float64).eps
        assert np.all(np.abs(np.linalg.norm(z, axis=1) - 1.0) <= 4 * eps)
        # within 2 ulps entry by entry, which pins the stream order: all real
        # parts first, then all imaginary parts
        got, ref = z.view(np.float64), want.view(np.float64)
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))


class TestExpansionCrossCheck:
    """verify_all compares every sampled z*Mz with the graph's arc-sum expansion."""

    @staticmethod
    def shift_expansion(monkeypatch, rows, delta):
        seen = []
        real = mixedspec.harness._expansion_quadratic_form

        def shifted(g, alphas, beta, z):
            seen.append(z)
            out = real(g, alphas, beta, z)
            out[:, rows] += delta
            return out

        monkeypatch.setattr(mixedspec.harness, "_expansion_quadratic_form", shifted)
        return seen

    @pytest.mark.parametrize("row", [0, 3, 50, RAYLEIGH_SAMPLES - 1])
    def test_every_row_is_compared(self, monkeypatch, row):
        g = random_mixed_graph(9, 0.6, 0.5, 4)
        self.shift_expansion(monkeypatch, row, 2e-10)
        with pytest.raises(VerificationError, match="arc-sum expansion"):
            verify_all(g, 0.3, BetaParam.from_angle(0.7), rayleigh_seed=5)

    def test_gap_within_tolerance_passes(self, monkeypatch):
        g = random_mixed_graph(9, 0.6, 0.5, 4)
        seen = self.shift_expansion(monkeypatch, slice(None), 5e-11)
        verify_all(g, 0.3, BetaParam.from_angle(0.7), rayleigh_seed=5)
        (z,) = seen
        assert z.shape == (RAYLEIGH_SAMPLES, g.n)
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, rtol=0, atol=1e-14)


class TestTraceCheck:
    """tr(M) is checked to TRACE_TOL against its closed form 2 alpha m."""

    def test_tolerance_pinned_from_both_sides(self, c3, monkeypatch):
        # TRACE_TOL = 1e-9, written out so that a changed tolerance fails: a
        # trace off by twice it fails, one off by half of it is rounding; both
        # are far inside the eigen routes' own moment limit of 1e-8 * tr
        real = HermitianStack.traces
        monkeypatch.setattr(HermitianStack, "traces", lambda s: [v + 2e-9 for v in real(s)])
        with pytest.raises(VerificationError, match=r"^trace .* != closed form 3\.0 beyond 1e-09$"):
            verify_all(c3, 0.5, OMEGA)
        monkeypatch.setattr(HermitianStack, "traces", lambda s: [v + 0.5e-9 for v in real(s)])
        verify_all(c3, 0.5, OMEGA)


class TestTraceOfSquareCheck:
    """tr(M^2) is checked to TRACE_TOL or 64 ulps of its closed form, whichever is larger."""

    @pytest.fixture(scope="class")
    def dense(self):
        # n = 250 at alpha = 0.9: tr(M^2) is about 1.0e7, where 1e-9 is under one ulp
        return random_mixed_graph(250, 0.9, 0.5, 1)

    def test_dense_graph_passes(self, dense):
        report = verify_all(dense, 0.9, OMEGA)
        assert report.spectrum.n == 250

    def test_limit_is_trace_tol_below_two_to_the_17(self):
        for x in (0.0, 1.0, 48.0**3, np.nextafter(2.0**17, 0.0)):
            assert _trace2_limit(x) == TRACE_TOL
        assert _trace2_limit(2.0**17) == 64 * math.ulp(2.0**17) > TRACE_TOL
        assert _trace2_limit(1.0e7) == 64 * math.ulp(1.0e7)

    @staticmethod
    def shift_trace_of_square(monkeypatch, delta):
        real = HermitianStack.traces_of_square
        monkeypatch.setattr(
            HermitianStack, "traces_of_square", lambda s: [v + delta for v in real(s)]
        )

    def test_off_build_still_raises_on_dense_graph(self, dense, monkeypatch):
        # 1e-6 is about 8 times the 64-ulp limit at 1.0e7, and 1e-13 of the value
        self.shift_trace_of_square(monkeypatch, 1e-6)
        with pytest.raises(VerificationError, match=r"tr\(M\^2\)"):
            verify_all(dense, 0.9, OMEGA)

    def test_off_build_still_raises_on_small_graph(self, c3, monkeypatch):
        self.shift_trace_of_square(monkeypatch, 2 * TRACE_TOL)
        with pytest.raises(VerificationError, match=r"tr\(M\^2\) .* beyond 1e-09"):
            verify_all(c3, 0.5, OMEGA)

    def test_closed_form_missing_half_its_edge_term_raises(self, monkeypatch):
        # a closed form wrong in its (1 - alpha)^2 * 2m term, here halved, is
        # the one way the clamped variance could fall below 0; the tr(M^2)
        # check raises at the point before its bounds reach a report
        def halved(stats, alpha):
            return 2.0 * alpha * stats.m, alpha * alpha * stats.zagreb + (1.0 - alpha) ** 2 * stats.m

        monkeypatch.setattr(mixedspec.harness, "expected_traces", halved)
        g = parse_graph(GRAPH_N16.read_text(encoding="utf-8"))
        with pytest.raises(VerificationError, match=r"tr\(M\^2\) .* != closed form"):
            verify_all(g, 0.5, OMEGA)

    @staticmethod
    def scaled_omega(f):
        return BetaParam(0.5 * f, math.sqrt(3.0) / 2.0 * f)

    def test_beta_off_unit_beyond_limit_rejected(self):
        # on random_mixed_graph(60, 0.9, 1.0, 3), 1608 arcs, this beta put tr(M^2)
        # 5.8e-9 off its closed form, which assumes |beta| = 1
        with pytest.raises(ValueError, match=r"\|beta\| must be 1"):
            self.scaled_omega(1 + 0.9e-12)

    def test_beta_at_modulus_limit_verifies(self):
        g = random_mixed_graph(60, 0.9, 1.0, 3)
        assert verify_all(g, 0.0, self.scaled_omega(1 + 2**-52)).spectrum.n == 60


class TestSweep:
    def test_triangle_grid(self, c3):
        reports = sweep_alpha(c3, (0.0, 0.5, 1.0), BetaParam.from_angle(math.pi / 3))
        assert [r.spectrum.mu_max for r in reports] == pytest.approx([1.0, 1.5, 2.0], abs=1e-9)

    def test_grid_order(self, p2):
        reports = sweep_alpha(p2, (1.0, 0.0, 0.5), OMEGA)
        assert [r.alpha for r in reports] == [1.0, 0.0, 0.5]

    def test_empty_grid_gives_no_reports(self, c3):
        assert sweep_alpha(c3, [], OMEGA) == []

    def test_grid_validated_before_any_solve(self, c3, monkeypatch):
        calls = []
        real = mixedspec.harness.eigenvalues

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # one point per block, so the valid points would be solved before
        # the block that holds 1.5 were built
        monkeypatch.setattr(mixedspec.harness, "BLOCK_ENTRIES", 1)
        monkeypatch.setattr(mixedspec.harness, "eigenvalues", counting)
        with pytest.raises(ValueError, match="1.5"):
            sweep_alpha(c3, (0.0, 0.5, 1.5), OMEGA)
        assert calls == []

    def test_beta_param_used_as_given(self, c3, omega):
        # an angle round trip would turn Re(omega) = 0.5 into 0.5000000000000001
        (report,) = sweep_alpha(c3, (0.5,), omega)
        assert report.beta == (omega.re, omega.im)
        assert report == verify_all(c3, 0.5, omega)

    @given(
        st.integers(1, 20),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(0.0, 1.0), max_size=5),
        st.one_of(st.none(), st.floats(-math.pi / 2, math.pi / 2)),
        st.integers(0, 2**63 - 1),
        st.integers(1, 4),
        st.randoms(use_true_random=False),
    )
    def test_each_point_is_its_own_verify_all(
        self, n, edge_prob, orient_prob, graph_seed, inner, theta, seed, block, shuffle
    ):
        g = random_mixed_graph(n, edge_prob, orient_prob, graph_seed)
        beta = OMEGA if theta is None else BetaParam.from_angle(theta)
        grid = [0.0, 1.0, *inner]
        shuffle.shuffle(grid)
        # a budget of `block` points per stack, so grids span several blocks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mixedspec.harness, "BLOCK_ENTRIES", block * n * max(n, RAYLEIGH_SAMPLES))
            assert _block_len(n) == block
            swept = sweep_alpha(g, grid, beta, seed=seed)
        assert len(swept) == len(grid)
        for alpha, report in zip(grid, swept):
            single = verify_all(g, alpha, beta, rayleigh_seed=seed)
            # repr shows every float to the last bit, and the sign of a zero
            assert repr(report) == repr(single)

    def test_grid_longer_than_one_block(self):
        g = random_mixed_graph(150, 0.3, 0.5, 8)
        per = _block_len(g.n)
        assert per * g.n * g.n <= BLOCK_ENTRIES < (per + 1) * g.n * g.n
        grid = [i / per for i in range(per + 1)]
        swept = sweep_alpha(g, grid, OMEGA, seed=4)
        assert [r.alpha for r in swept] == grid
        for i in (0, per - 1, per):
            assert repr(swept[i]) == repr(verify_all(g, grid[i], OMEGA, rayleigh_seed=4))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(trials=0)
        with pytest.raises(ValueError):
            SweepConfig(n_range=(5, 2))

    def test_config_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SweepConfig(seed=-1)


class TestStackedFailures:
    """A failure at one point of a stacked grid is raised for that point,
    and a failing point's error wins over any failure at a later point."""

    G = random_mixed_graph(9, 0.6, 0.5, 4)
    BETA = BetaParam.from_angle(0.7)
    GRID = [0.0, 0.1, 0.25, 0.4, 0.6, 0.85, 1.0]
    MID = 3

    @staticmethod
    def perturb_eigh(monkeypatch, row):
        real = np.linalg.eigh

        def perturbed(a):
            w, v = real(a)
            if w.ndim == 2 and len(w) > row:
                w = w.copy()
                w[row, 0] += 1e-3  # one eigenvalue, not its eigenvector
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", perturbed)

    def test_perturbed_eigvals_row_fails_its_point(self, monkeypatch):
        self.perturb_eigh(monkeypatch, self.MID)
        assert len(sweep_alpha(self.G, self.GRID[: self.MID], self.BETA, seed=2)) == self.MID
        with pytest.raises(VerificationError, match="residual enclosure") as swept:
            sweep_alpha(self.G, self.GRID, self.BETA, seed=2)
        self.perturb_eigh(monkeypatch, 0)
        with pytest.raises(VerificationError) as single:
            verify_all(self.G, self.GRID[self.MID], self.BETA, rayleigh_seed=2)
        # the message carries that point's enclosure and its limit
        assert str(swept.value) == str(single.value)

    @staticmethod
    def raise_mu1_at(monkeypatch, row):
        """Raise mu_1 of the primary spectra's row ``row`` to twice the
        oracle limit ORACLE_RTOL * ||M||_F above its value, after the
        route's own moment checks."""
        real = mixedspec.harness.eigenvalues

        def raised(m):
            out = real(m)
            if len(out.values) <= row:
                return out
            values = out.values.copy()
            values[row, 0] += 2 * ORACLE_RTOL * math.sqrt(m.traces_of_square()[row])
            return SpectrumStack(values, out.failures)

        monkeypatch.setattr(mixedspec.harness, "eigenvalues", raised)

    def test_kernel_oracle_disagreement_fails_its_point(self, monkeypatch):
        self.raise_mu1_at(monkeypatch, self.MID)
        assert len(sweep_alpha(self.G, self.GRID[: self.MID], self.BETA, seed=2)) == self.MID
        with pytest.raises(VerificationError, match="kernel/oracle spectra disagree"):
            sweep_alpha(self.G, self.GRID, self.BETA, seed=2)

    def test_non_real_quadratic_form_fails_its_point(self, monkeypatch):
        real = mixedspec.harness._quadratic_forms

        def tilted(z, data):
            out = real(z, data)
            if len(out) > self.MID:
                out[self.MID, 17] += 1e-9j
            return out

        monkeypatch.setattr(mixedspec.harness, "_quadratic_forms", tilted)
        assert len(sweep_alpha(self.G, self.GRID[: self.MID], self.BETA, seed=2)) == self.MID
        with pytest.raises(VerificationError, match="non-real on Hermitian input"):
            sweep_alpha(self.G, self.GRID, self.BETA, seed=2)

    @staticmethod
    def shift_expansion_cell(monkeypatch, point, sample):
        real = mixedspec.harness._expansion_quadratic_form

        def shifted(g, alphas, beta, z):
            out = real(g, alphas, beta, z)
            if len(out) > point:
                out[point, sample] += 2e-10
            return out

        monkeypatch.setattr(mixedspec.harness, "_expansion_quadratic_form", shifted)

    def test_shifted_expansion_cell_fails(self, monkeypatch):
        self.shift_expansion_cell(monkeypatch, self.MID, 17)
        assert len(sweep_alpha(self.G, self.GRID[: self.MID], self.BETA, seed=2)) == self.MID
        with pytest.raises(VerificationError, match="arc-sum expansion"):
            sweep_alpha(self.G, self.GRID, self.BETA, seed=2)

    @staticmethod
    def fail_zheevd_at(monkeypatch, alpha):
        # numpy fails a whole stack when one matrix does not converge
        target = a_alpha_stack(TestStackedFailures.G, [alpha], TestStackedFailures.BETA).data[0]
        real = np.linalg.eigvalsh

        def failing(a):
            if a.ndim == 3 and len(a) > 1 or np.array_equal(a, target):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)

    def test_lapack_failure_is_charged_to_its_point(self, monkeypatch):
        self.fail_zheevd_at(monkeypatch, self.GRID[self.MID])
        assert len(sweep_alpha(self.G, self.GRID[: self.MID], self.BETA, seed=2)) == self.MID
        with pytest.raises(VerificationError, match="zheevd: Eigenvalues did not converge"):
            sweep_alpha(self.G, self.GRID, self.BETA, seed=2)

    def test_earlier_point_fails_first(self, monkeypatch):
        self.fail_zheevd_at(monkeypatch, self.GRID[self.MID])
        self.shift_expansion_cell(monkeypatch, self.MID - 1, 0)
        with pytest.raises(VerificationError, match="arc-sum expansion"):
            sweep_alpha(self.G, self.GRID, self.BETA, seed=2)

    @staticmethod
    def rotate_pair_at(monkeypatch, point):
        """Turn the phase of one off-diagonal Hermitian pair of the matrix at
        ``point`` by a quarter: exact in floating point, so the moduli, tr
        and tr(M^2) keep their bits, and only the quadratic forms see it."""
        real = mixedspec.harness.a_alpha_stack

        def rotated(g, alphas, beta):
            stack = real(g, alphas, beta)
            if len(stack) <= point:
                return stack
            data = stack.data.copy()
            i, j = np.argwhere(np.triu(data[point], 1))[0]
            data[point, i, j] *= 1j
            data[point, j, i] = data[point, i, j].conjugate()
            out = HermitianStack(data)
            assert out.traces() == stack.traces()
            assert out.traces_of_square() == stack.traces_of_square()
            return out

        monkeypatch.setattr(mixedspec.harness, "a_alpha_stack", rotated)

    def test_rotated_pair_fails_its_point(self, monkeypatch):
        # a reduction that mixed a block's matrices would let the rotation
        # through, or charge it to another point
        self.rotate_pair_at(monkeypatch, self.MID)
        assert len(sweep_alpha(self.G, self.GRID[: self.MID], self.BETA, seed=2)) == self.MID
        with pytest.raises(VerificationError, match="arc-sum expansion"):
            sweep_alpha(self.G, self.GRID, self.BETA, seed=2)


class TestMonotoneInAlpha:
    """dA/dalpha = D - H_beta, and x*(D - H_beta)x is the sum over the edges
    uv of |x_u - h_uv x_v|^2 >= 0, since every |h_uv| = 1; so by Weyl's
    inequality each mu_j is non-decreasing in alpha. The enclosure and the
    gap check put each printed eigenvalue within 2 ORACLE_RTOL ||M||_F of
    the true one, so one grid step may drop by at most both points' limits."""

    GRID = [i / 20 for i in range(21)]

    @staticmethod
    def drops(g, grid, beta):
        """Each (j, alpha, next alpha) at which mu_j falls beyond the limit."""
        reports = sweep_alpha(g, grid, beta)
        limits = [2 * ORACLE_RTOL * math.sqrt(expected_traces(g.stats, a)[1]) for a in grid]
        found = []
        for i in range(len(grid) - 1):
            pairs = zip(reports[i].spectrum.values, reports[i + 1].spectrum.values)
            limit = limits[i] + limits[i + 1]
            found += [(j, grid[i], grid[i + 1]) for j, (x, y) in enumerate(pairs, 1) if y < x - limit]
        return found

    # the fixed grid, merged with up to 6 drawn alphas, which may fall
    # arbitrarily close to a grid point or to each other
    @given(
        st.integers(1, 12),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
        st.one_of(st.none(), st.floats(-math.pi / 2, math.pi / 2)),
        st.lists(st.floats(0.0, 1.0), max_size=6),
    )
    def test_every_mu_j_non_decreasing(self, n, edge_prob, orient_prob, seed, angle, drawn):
        g = random_mixed_graph(n, edge_prob, orient_prob, seed)
        beta = OMEGA if angle is None else BetaParam.from_angle(angle)
        assert self.drops(g, sorted({*self.GRID, *drawn}), beta) == []

    def test_reversed_grid_is_caught(self, c3):
        # negative control: on the grid run backwards every mu_j of the
        # triangle falls somewhere
        assert {j for j, _, _ in self.drops(c3, self.GRID[::-1], OMEGA)} == {1, 2, 3}


class TestRandomizedSuite:
    def test_deterministic(self):
        cfg = SweepConfig(trials=40, seed=99)
        assert randomized_suite(cfg) == randomized_suite(cfg)

    def test_no_violations_on_small_run(self):
        summary = randomized_suite(SweepConfig(trials=150, seed=5))
        assert summary.violated_count == 0
        assert not summary.violations
        counts = dict(summary.status_counts)
        assert counts["HOLDS"] > 0

    def test_expected_fail_only_for_literal_with_positive_alpha(self):
        for trial in range(60):
            report = run_trial(SweepConfig(trials=60, seed=21), trial)
            for row, status in zip(report.rows, report.statuses):
                if status is Status.EXPECTED_FAIL:
                    assert row.name.startswith("unit_offdiag_")
                    assert report.alpha > 0.0

    def test_run_trial_replays_suite_member(self):
        cfg = SweepConfig(trials=3, seed=13)
        assert run_trial(cfg, 2) == run_trial(cfg, 2)

    def test_violation_record_carries_reproduction_data(self, monkeypatch):
        # force a falsely high lower bound to exercise the reporting path
        monkeypatch.setattr(mixedspec.bounds, "_rayleigh", _broken_rayleigh)
        summary = randomized_suite(SweepConfig(trials=5, seed=3))
        assert summary.violated_count > 0
        rec = summary.violations[0]
        assert rec.bound_name == "rayleigh_mu1_lower"
        assert rec.bound == 1e6
        assert rec.slack < -1e-9
        # the record must replay standalone: rebuild the graph and verify
        g = parse_graph(rec.graph)
        report = verify_all(g, rec.alpha, BetaParam(*rec.beta))
        assert report.spectrum.mu_max == pytest.approx(rec.actual, abs=1e-12)

    def test_worst_slack_covers_all_bound_names(self):
        summary = randomized_suite(SweepConfig(trials=120, seed=2))
        names = set(summary.worst_slack)
        assert {
            "rayleigh_mu1_lower",
            "offdiag_mu1_lower",
            "offdiag_mun_upper",
            "wolkowicz_mu1_upper",
            "wolkowicz_mu1_lower",
            "wolkowicz_mun_upper",
            "wolkowicz_mun_lower",
            "zagreb_mu1_lower",
            "zagreb_mun_upper",
            "wolkowicz_mu_j_lower",
            "wolkowicz_mu_j_upper",
            "trace_norm_upper",
            "spread_upper",
            "spread_lower_moment",
            "spread_lower_zagreb",
            "zagreb_index_lower",
            "rho_sandwich",
        } <= names

    def test_rho_ratio_minima_tracked(self):
        summary = randomized_suite(SweepConfig(trials=80, seed=17))
        assert summary.min_rho_ratio_omega is not None
        assert summary.min_rho_ratio_omega >= 0.5 - 1e-9
        if summary.min_rho_ratio_general is not None:
            assert summary.min_rho_ratio_general >= 1.0 / 3.0 - 1e-9


class TestReportShape:
    def test_catalog_size_scales_with_n(self, p2, c3):
        r2 = verify_all(p2, 0.5, OMEGA)
        r3 = verify_all(c3, 0.5, OMEGA)
        assert len(r3.rows) - len(r2.rows) == 2  # one j pair per extra vertex

    def test_block_shares_its_rows(self, c3):
        first, last = sweep_alpha(c3, [0.0, 1.0], OMEGA)
        assert first.rows is last.rows
        assert len(first.statuses) == len(last.statuses) == len(first.rows)
        assert first.statuses != last.statuses  # unit_offdiag_* is EXPECTED_FAIL only at alpha > 0

    def test_violated_and_checked_views(self, p2, monkeypatch):
        # the benchmark's workloads read c.status from checked and
        # c.result.name from violated
        monkeypatch.setattr(mixedspec.bounds, "_rayleigh", _broken_rayleigh)
        report = verify_all(p2, 0.5, OMEGA)
        assert [c.result.name for c in report.violated] == ["rayleigh_mu1_lower"]
        columns = (report.rows, report.bounds, report.actuals, report.slacks, report.statuses, report.notes)
        assert [tuple(c) for c in report.checked] == list(zip(*columns))
        assert [c.status for c in report.checked] == list(report.statuses)

    def test_report_is_frozen(self, p2):
        report = verify_all(p2, 0.5, OMEGA)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.alpha = 0.9
