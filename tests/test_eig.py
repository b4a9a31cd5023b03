"""Primary LAPACK route, embedding oracle, and derived spectral quantities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import hermitian_from_array
from mixedspec.eig import (
    Spectrum,
    VerificationError,
    eigenvalues,
    oracle_eigenvalues,
    spectral_radius,
    spread,
    trace_norm,
)
from mixedspec.graphs import MixedGraph, parse_graph, random_mixed_graph
from mixedspec.harness import ORACLE_RTOL, sweep_alpha
from mixedspec.matrices import (
    BetaParam,
    HermitianMatrix,
    HermitianStack,
    a_alpha_matrix,
    hermitian_adjacency,
    omega_constant,
)

OMEGA = omega_constant()


def random_hermitian(n, seed, scale=1.0):
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


def blend_spectrum(g, alpha, beta):
    return eigenvalues(a_alpha_matrix(g, alpha, beta)).values


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
        spec = eigenvalues(hermitian_adjacency(p2, OMEGA))
        assert np.allclose(spec.values, [1.0, -1.0], atol=1e-9)

    def test_cyclic_triangle_spectrum(self, c3):
        spec = eigenvalues(hermitian_adjacency(c3, OMEGA))
        assert np.allclose(spec.values, [1.0, 1.0, -2.0], atol=1e-9)

    def test_triangle_blend_midpoint(self, c3):
        spec = eigenvalues(a_alpha_matrix(c3, 0.5, OMEGA))
        assert np.allclose(spec.values, [1.5, 1.5, 0.0], atol=1e-9)

    def test_one_by_one(self):
        spec = eigenvalues(HermitianMatrix(np.zeros((1, 1), dtype=complex)))
        assert spec.values == (0.0,)


class TestOracle:
    def test_single_arc(self, p2):
        spec = oracle_eigenvalues(hermitian_adjacency(p2, OMEGA))
        assert np.allclose(spec.values, [1.0, -1.0], atol=1e-9)

    def test_real_diagonal(self):
        spec = oracle_eigenvalues(HermitianMatrix(np.diag([3.0 + 0j, 1.0])))
        assert np.allclose(spec.values, [3.0, 1.0], atol=1e-12)

    def test_zero_matrix(self):
        spec = oracle_eigenvalues(HermitianMatrix(np.zeros((4, 4), dtype=complex)))
        assert spec.values == (0.0, 0.0, 0.0, 0.0)

    def test_rejects_non_real_embedding_eigenvalues(self, p2, monkeypatch):
        def complex_pair(a):
            return np.array([1.0 + 0.1j, 1.0 - 0.1j, -1.0, -1.0])

        monkeypatch.setattr(np.linalg, "eigvals", complex_pair)
        with pytest.raises(VerificationError, match="not real"):
            oracle_eigenvalues(hermitian_adjacency(p2, OMEGA))

    @given(hermitians)
    def test_agrees_with_primary_kernel(self, m):
        a = eigenvalues(m)
        b = oracle_eigenvalues(m)
        tol = 1e-8 * m.frobenius_norm()
        assert np.max(np.abs(np.array(a.values) - np.array(b.values))) <= tol


class TestStacks:
    @given(st.integers(1, 12), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    def test_rows_match_single_matrix_routes(self, n, seeds):
        ms = [random_hermitian(n, seed) for seed in seeds]
        stack = HermitianStack(np.array([m.data for m in ms]))
        primary = eigenvalues(stack)
        oracle = oracle_eigenvalues(stack)
        assert primary.values.shape == oracle.values.shape == (len(ms), n)
        for i, m in enumerate(ms):
            assert primary.spectrum(i) == eigenvalues(m)
            assert oracle.spectrum(i) == oracle_eigenvalues(m)

    def test_failure_raised_when_its_row_is_read(self, monkeypatch):
        ms = [random_hermitian(3, seed) for seed in (1, 2, 3)]
        stack = HermitianStack(np.array([m.data for m in ms]))
        first = eigenvalues(ms[0])
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


class TestKernelProperties:
    @given(hermitians)
    def test_matches_reference_solver(self, m):
        # zgeev, a general complex solver that neither eigen route uses
        ref = np.sort(np.linalg.eigvals(m.data).real)[::-1]
        got = np.array(eigenvalues(m).values)
        assert np.max(np.abs(got - ref)) <= 1e-8 * max(1.0, m.frobenius_norm())

    @given(hermitians)
    def test_moment_identities(self, m):
        vals = np.array(eigenvalues(m).values)
        tr2 = m.trace_of_square()
        assert abs(vals.sum() - m.trace()) <= 1e-8 * max(1.0, abs(m.trace()))
        assert abs((vals**2).sum() - tr2) <= 1e-8 * max(1.0, tr2)

    @settings(max_examples=40)
    @given(hermitians, st.floats(-10.0, 10.0))
    def test_shift_covariance(self, m, c):
        shifted = HermitianMatrix(m.data + c * np.eye(m.n))
        base = np.array(eigenvalues(m).values)
        got = np.array(eigenvalues(shifted).values)
        assert np.max(np.abs(got - (base + c))) <= 1e-9 * max(1.0, m.frobenius_norm() + abs(c))

    @settings(max_examples=40)
    @given(hermitians, st.floats(-10.0, 10.0))
    def test_scale_covariance(self, m, c):
        scaled = HermitianMatrix(c * m.data)
        base = np.array(eigenvalues(m).values)
        expect = np.sort(c * base)[::-1]
        got = np.array(eigenvalues(scaled).values)
        assert np.max(np.abs(got - expect)) <= 1e-9 * max(1.0, abs(c) * m.frobenius_norm())

    def test_deterministic(self):
        m = random_hermitian(9, 123)
        assert eigenvalues(m) == eigenvalues(m)


class TestDerivedQuantities:
    def test_spectral_radius(self):
        assert spectral_radius(Spectrum((1.0, -1.0))) == 1.0
        assert spectral_radius(Spectrum((1.0, 1.0, -2.0))) == 2.0
        assert spectral_radius(Spectrum((1.5, 1.5, 0.0))) == 1.5

    def test_spread(self):
        assert spread(Spectrum((1.0, -1.0))) == 2.0
        assert spread(Spectrum((1.0, 1.0, -2.0))) == 3.0
        assert spread(Spectrum((2.0, 2.0, 2.0))) == 0.0

    def test_trace_norm(self):
        assert trace_norm(Spectrum((1.0, -1.0))) == 2.0
        assert trace_norm(Spectrum((1.0, 1.0, -2.0))) == 4.0
        assert trace_norm(Spectrum((1.5, 1.5, 0.0))) == 3.0


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
        m = a_alpha_matrix(g, alpha, beta)
        assert eigenvalues(m).mu_min >= -ORACLE_RTOL * m.frobenius_norm()

    @given(mixed_graphs, st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8), any_beta)
    def test_every_eigenvalue_non_decreasing_in_alpha(self, g, grid, beta):
        grid = sorted(grid)
        spectra = [np.array(r.spectrum.values) for r in sweep_alpha(g, grid, beta)]
        norms = [a_alpha_matrix(g, alpha, beta).frobenius_norm() for alpha in grid]
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
        m = a_alpha_matrix(g, alpha, beta)
        perron = spectral_radius(eigenvalues(a_alpha_matrix(underlying, alpha, beta)))
        assert spectral_radius(eigenvalues(m)) <= perron + ORACLE_RTOL * m.frobenius_norm()
