"""Primary LAPACK route, embedding oracle, and derived spectral quantities."""

import functools
import math
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import hermitian_from_array
from mixedspec.eig import (
    Spectrum,
    VerificationError,
    _check_moments,
    eigenvalues,
    oracle_eigenvalues,
)
from mixedspec.graphs import MixedGraph, parse_graph, random_mixed_graph
from mixedspec.harness import ORACLE_RTOL, sweep_alpha, verify_all
from mixedspec.matrices import BetaParam, HermitianStack, a_alpha_stack, omega_constant

OMEGA = omega_constant()


def random_hermitian(n, seed, scale=1.0):
    """A random one-matrix stack."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_from_array(scale * a)


hermitians = st.builds(
    random_hermitian,
    st.integers(1, 16),
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 10.0),
)

mixed_graphs = st.builds(
    random_mixed_graph,
    st.integers(1, 12),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
# angles in [-pi/2, pi/2] keep Re(beta) >= 0
betas = st.builds(BetaParam.from_angle, st.floats(-math.pi / 2, math.pi / 2))


def frobenius_norm(m):
    """||M||_F of a one-matrix stack."""
    return math.sqrt(m.traces_of_square()[0])


def solve(m, route=eigenvalues):
    """The spectrum of a one-matrix stack on one eigen route."""
    return route(m).spectrum(0)


def adjacency(g):
    return a_alpha_stack(g, [0.0], OMEGA)


def blend_spectrum(g, alpha, beta):
    return solve(a_alpha_stack(g, [alpha], beta)).values


class TestSpectrumType:
    def test_requires_non_increasing_order(self):
        with pytest.raises(ValueError, match="non-increasing"):
            Spectrum((1.0, 2.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Spectrum(())

    def test_extremes(self):
        s = Spectrum((3.0, 1.0, -2.0))
        assert s.mu_max == 3.0
        assert s.mu_min == -2.0
        assert s.n == 3


class TestClosedForms:
    def test_single_arc_spectrum(self, p2):
        spec = solve(adjacency(p2))
        assert np.allclose(spec.values, [1.0, -1.0], atol=1e-9)

    def test_cyclic_triangle_spectrum(self, c3):
        spec = solve(adjacency(c3))
        assert np.allclose(spec.values, [1.0, 1.0, -2.0], atol=1e-9)

    def test_triangle_blend_midpoint(self, c3):
        spec = blend_spectrum(c3, 0.5, OMEGA)
        assert np.allclose(spec, [1.5, 1.5, 0.0], atol=1e-9)

    def test_one_by_one(self):
        spec = solve(HermitianStack(np.zeros((1, 1, 1), dtype=complex)))
        assert spec.values == (0.0,)


class TestOracle:
    def test_single_arc(self, p2):
        spec = solve(adjacency(p2), oracle_eigenvalues)
        assert np.allclose(spec.values, [1.0, -1.0], atol=1e-9)

    def test_real_diagonal(self):
        spec = solve(HermitianStack(np.diag([3.0 + 0j, 1.0])[None]), oracle_eigenvalues)
        assert np.allclose(spec.values, [3.0, 1.0], atol=1e-12)

    def test_zero_matrix(self):
        spec = solve(HermitianStack(np.zeros((1, 4, 4), dtype=complex)), oracle_eigenvalues)
        assert spec.values == (0.0, 0.0, 0.0, 0.0)

    def test_rejects_non_real_embedding_eigenvalues(self, p2, monkeypatch):
        def complex_pair(a):
            return np.array([1.0 + 0.1j, 1.0 - 0.1j, -1.0, -1.0])

        monkeypatch.setattr(np.linalg, "eigvals", complex_pair)
        with pytest.raises(VerificationError, match="not real"):
            solve(adjacency(p2), oracle_eigenvalues)

    @given(hermitians)
    def test_agrees_with_primary_kernel(self, m):
        a = solve(m)
        b = solve(m, oracle_eigenvalues)
        tol = 1e-8 * frobenius_norm(m)
        assert np.max(np.abs(np.array(a.values) - np.array(b.values))) <= tol


class TestStacks:
    @given(st.integers(1, 12), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    def test_rows_match_single_matrix_routes(self, n, seeds):
        ms = [random_hermitian(n, seed) for seed in seeds]
        stack = HermitianStack(np.concatenate([m.data for m in ms]))
        primary = eigenvalues(stack)
        oracle = oracle_eigenvalues(stack)
        assert primary.values.shape == oracle.values.shape == (len(ms), n)
        for i, m in enumerate(ms):
            assert primary.spectrum(i) == solve(m)
            assert oracle.spectrum(i) == solve(m, oracle_eigenvalues)

    def test_failure_raised_when_its_row_is_read(self, monkeypatch):
        ms = [random_hermitian(3, seed) for seed in (1, 2, 3)]
        stack = HermitianStack(np.concatenate([m.data for m in ms]))
        first = solve(ms[0])
        real = np.linalg.eigvalsh

        def shifted_row(a):
            d = real(a).copy()
            d[1] += 1e-3  # breaks the trace identity of matrix 1 only
            return d

        monkeypatch.setattr(np.linalg, "eigvalsh", shifted_row)
        spectra = eigenvalues(stack)
        assert spectra.spectrum(0) == first
        spectra.check(2)
        with pytest.raises(VerificationError, match="zheevd: eigenvalue sum"):
            spectra.spectrum(1)


class TestUnconfirmedMoments:
    """A moment identity that cannot be confirmed fails its matrix: a NaN gap
    compares False against any tolerance, so it must not pass as a match."""

    @pytest.mark.parametrize("route", [eigenvalues, oracle_eigenvalues])
    def test_overflowing_finite_matrix_fails_on_both_routes(self, route):
        # finite entries whose squares overflow: tr(M^2) is inf, and each
        # route's eigenvalue sums come out inf or NaN
        big = np.array([[0.0, 1e308], [1e308, 0.0]], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            spectra = route(HermitianStack(big[None]))
        with pytest.raises(VerificationError, match="does not match"):
            spectra.spectrum(0)

    def test_oracle_keeps_finite_eigenvalues_finite(self):
        # each embedding pair is halved before it is summed, so eigenvalues
        # near the top of the float range do not overflow to inf on the way
        big = np.array([[0.0, 1e308], [1e308, 0.0]], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            stack = HermitianStack(big[None])
            primary, oracle = eigenvalues(stack), oracle_eigenvalues(stack)
        assert primary.values.tolist() == [[1e308, -1e308]]
        assert np.isfinite(oracle.values).all()
        assert oracle.values == pytest.approx(primary.values, rel=ORACLE_RTOL)

    @pytest.mark.parametrize(
        "values, tr, tr2",
        [
            ([math.nan, 0.0], 0.0, 0.0),
            ([1.0, -1.0], math.nan, 2.0),
            ([1.0, -1.0], 0.0, math.nan),
            ([math.inf, -math.inf], 0.0, math.inf),
        ],
    )
    def test_nan_gap_is_a_failure(self, values, tr, tr2):
        with np.errstate(invalid="ignore"):
            failures = _check_moments(np.array([values]), [tr], [tr2], "route", [None])
        assert failures[0] is not None and failures[0].startswith("route: eigenvalue")


class TestKernelProperties:
    @given(hermitians)
    def test_matches_reference_solver(self, m):
        # zgeev, a general complex solver that neither eigen route uses
        ref = np.sort(np.linalg.eigvals(m.data[0]).real)[::-1]
        got = np.array(solve(m).values)
        assert np.max(np.abs(got - ref)) <= 1e-8 * max(1.0, frobenius_norm(m))

    @given(hermitians)
    def test_moment_identities(self, m):
        vals = np.array(solve(m).values)
        tr, tr2 = m.traces()[0], m.traces_of_square()[0]
        assert abs(vals.sum() - tr) <= 1e-8 * max(1.0, abs(tr))
        assert abs((vals**2).sum() - tr2) <= 1e-8 * max(1.0, tr2)

    @settings(max_examples=40)
    @given(hermitians, st.floats(-10.0, 10.0))
    def test_shift_covariance(self, m, c):
        shifted = HermitianStack(m.data + c * np.eye(m.n))
        base = np.array(solve(m).values)
        got = np.array(solve(shifted).values)
        assert np.max(np.abs(got - (base + c))) <= 1e-9 * max(1.0, frobenius_norm(m) + abs(c))

    @settings(max_examples=40)
    @given(hermitians, st.floats(-10.0, 10.0))
    def test_scale_covariance(self, m, c):
        scaled = HermitianStack(c * m.data)
        base = np.array(solve(m).values)
        expect = np.sort(c * base)[::-1]
        got = np.array(solve(scaled).values)
        assert np.max(np.abs(got - expect)) <= 1e-9 * max(1.0, abs(c) * frobenius_norm(m))

    def test_deterministic(self):
        m = random_hermitian(9, 123)
        assert solve(m) == solve(m)


class TestDerivedQuantities:
    """rho, spread and trace norm as a verified report carries them."""

    def test_spectral_radius(self, p2, c3):
        # spectra (1, -1), (1, 1, -2) and (1.5, 1.5, 0)
        assert verify_all(p2, 0.0, OMEGA).rho == pytest.approx(1.0, abs=1e-12)
        assert verify_all(c3, 0.0, OMEGA).rho == pytest.approx(2.0, abs=1e-12)
        assert verify_all(c3, 0.5, OMEGA).rho == pytest.approx(1.5, abs=1e-12)

    def test_spread(self, p2, c3):
        # spectra (1, -1), (1, 1, -2) and (2, 2, 2)
        triangle = parse_graph("3\n1 -- 2\n2 -- 3\n3 -- 1\n")
        assert verify_all(p2, 0.0, OMEGA).spread == pytest.approx(2.0, abs=1e-12)
        assert verify_all(c3, 0.0, OMEGA).spread == pytest.approx(3.0, abs=1e-12)
        assert verify_all(triangle, 1.0, OMEGA).spread == 0.0

    def test_trace_norm(self, p2, c3):
        # spectra (1, -1), (1, 1, -2) and (1.5, 1.5, 0)
        assert verify_all(p2, 0.0, OMEGA).trace_norm == pytest.approx(2.0, abs=1e-12)
        assert verify_all(c3, 0.0, OMEGA).trace_norm == pytest.approx(4.0, abs=1e-12)
        assert verify_all(c3, 0.5, OMEGA).trace_norm == pytest.approx(3.0, abs=1e-12)

    @given(mixed_graphs, st.floats(0.0, 1.0), betas)
    def test_read_off_the_reported_spectrum(self, g, alpha, beta):
        report = verify_all(g, alpha, beta)
        values = report.spectrum.values
        assert report.rho == max(abs(values[0]), abs(values[-1]))
        assert report.spread == values[0] - values[-1]
        # a running sum left to right, whatever the Python version's sum()
        assert report.trace_norm == functools.reduce(operator.add, map(abs, values))

    def test_trace_norm_is_not_compensated(self):
        g = parse_graph((Path(__file__).parent / "data" / "graph_n40.mg").read_text(encoding="utf-8"))
        report = verify_all(g, 0.35, OMEGA)
        assert report.trace_norm == 167.29999999999993
        assert math.fsum(map(abs, report.spectrum.values)) == 167.29999999999998


class TestSpectrumSymmetries:
    """Graph symmetries that must leave the blend spectrum unchanged."""

    @given(st.data(), mixed_graphs, st.floats(0.0, 1.0), betas)
    def test_vertex_relabelling(self, data, g, alpha, beta):
        p = data.draw(st.permutations(range(g.n)))
        relabelled = MixedGraph(
            n=g.n,
            undirected=frozenset(tuple(sorted((p[i], p[j]))) for i, j in g.undirected),
            arcs=frozenset((p[t], p[h]) for t, h in g.arcs),
        )
        base = np.asarray(blend_spectrum(g, alpha, beta))
        got = np.asarray(blend_spectrum(relabelled, alpha, beta))
        assert np.max(np.abs(got - base)) <= 1e-12 * (1.0 + np.max(np.abs(base)))

    @given(mixed_graphs, st.floats(0.0, 1.0), betas)
    def test_arc_reversal_with_conjugate_beta(self, g, alpha, beta):
        reversed_arcs = MixedGraph(
            n=g.n, undirected=g.undirected, arcs=frozenset((h, t) for t, h in g.arcs)
        )
        conj = BetaParam(beta.re, -beta.im)
        assert blend_spectrum(reversed_arcs, alpha, conj) == blend_spectrum(g, alpha, beta)

    @given(mixed_graphs, betas)
    def test_alpha_one_is_degree_sequence(self, g, beta):
        degrees = tuple(float(d) for d in sorted(g.stats.degrees, reverse=True))
        assert blend_spectrum(g, 1.0, beta) == degrees


class TestBlendFamilyStructure:
    """Order facts of the family alpha -> A_alpha. With |beta| = 1, both
    D + H and D - H are sums of one PSD term |x_u +- h x_v|^2 per edge or
    arc, so A_alpha = (1 - alpha)(D + H) + (2 alpha - 1) D is PSD for
    alpha >= 1/2, and dA_alpha/dalpha = D - H is PSD. Each tolerance is the
    oracle agreement limit ORACLE_RTOL * ||M||_F."""

    any_beta = st.one_of(st.just(OMEGA), betas)

    @given(mixed_graphs, st.floats(0.5, 1.0), any_beta)
    def test_psd_from_alpha_one_half(self, g, alpha, beta):
        m = a_alpha_stack(g, [alpha], beta)
        assert solve(m).mu_min >= -ORACLE_RTOL * frobenius_norm(m)

    @given(mixed_graphs, st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8), any_beta)
    def test_every_eigenvalue_non_decreasing_in_alpha(self, g, grid, beta):
        grid = sorted(grid)
        spectra = [np.array(r.spectrum.values) for r in sweep_alpha(g, grid, beta)]
        norms = [math.sqrt(t) for t in a_alpha_stack(g, grid, beta).traces_of_square()]
        for i in range(len(grid) - 1):
            limit = ORACLE_RTOL * max(norms[i], norms[i + 1])
            assert np.all(spectra[i + 1] >= spectra[i] - limit)

    @given(mixed_graphs, st.floats(0.0, 1.0), any_beta)
    def test_radius_at_most_that_of_underlying_graph(self, g, alpha, beta):
        # |A_alpha(H)| is entrywise the non-negative A_alpha of the underlying
        # graph, whose Perron root bounds its spectral radius
        underlying = MixedGraph(
            n=g.n, undirected=g.undirected | {tuple(sorted(a)) for a in g.arcs}, arcs=frozenset()
        )
        m = a_alpha_stack(g, [alpha], beta)
        ref, got = solve(a_alpha_stack(underlying, [alpha], beta)), solve(m)
        perron = max(abs(ref.mu_max), abs(ref.mu_min))
        assert max(abs(got.mu_max), abs(got.mu_min)) <= perron + ORACLE_RTOL * frobenius_norm(m)
