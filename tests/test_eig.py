"""Primary LAPACK route, certified oracle, and derived spectral quantities."""

import functools
import math
import operator
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import hermitian_from_array
from mixedspec.eig import (
    ENCLOSURE_RTOL,
    Spectrum,
    SQUARE_UNDERFLOW,
    VerificationError,
    _check_moments,
    _enclosure,
    _flush_tiny,
    eigenvalues,
    oracle_eigenvalues,
)
from mixedspec.graphs import MixedGraph, parse_graph, random_mixed_graph
from mixedspec.harness import ORACLE_RTOL, sweep_alpha, verify_all
from mixedspec.matrices import BetaParam, HermitianStack, a_alpha_stack, omega_constant

OMEGA = omega_constant()
GRAPH_N40 = Path(__file__).parent / "data" / "graph_n40.mg"


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


def _underlying(g):
    """G with every arc replaced by an undirected edge."""
    return MixedGraph(
        n=g.n, undirected=g.undirected | {tuple(sorted(a)) for a in g.arcs}, arcs=frozenset()
    )


def _orient_cut(g, side):
    """Undirected G with every edge between side True (V1) and side False
    (V2) turned into an arc from V1 to V2."""
    cut = {(i, j) for i, j in g.undirected if side[i] != side[j]}
    return MixedGraph(
        n=g.n,
        undirected=g.undirected - cut,
        arcs=frozenset((i, j) if side[i] else (j, i) for i, j in cut),
    )


def _switch_by_potential(g, phi):
    """Undirected G with each edge uv recast by phi(v) - phi(u) mod 6: 1 makes
    it the arc u -> v, 5 the arc v -> u, 0 keeps the edge, and any other
    value drops it."""
    undirected, arcs = set(), set()
    for u, v in g.undirected:
        step = (phi[v] - phi[u]) % 6
        if step == 0:
            undirected.add((u, v))
        elif step in (1, 5):
            arcs.add((u, v) if step == 1 else (v, u))
    return MixedGraph(n=g.n, undirected=frozenset(undirected), arcs=frozenset(arcs))


def _gap_to_underlying(g, alpha):
    """Largest eigenvalue gap between A_alpha(G) at omega and A_alpha of G's
    underlying graph, and the oracle limit ORACLE_RTOL * ||M||_F."""
    m = a_alpha_stack(g, [alpha], OMEGA)
    base = np.asarray(blend_spectrum(_underlying(g), alpha, OMEGA))
    return np.max(np.abs(np.asarray(solve(m).values) - base)), ORACLE_RTOL * frobenius_norm(m)


class TestSpectrumType:
    def test_requires_non_increasing_order(self):
        with pytest.raises(ValueError, match="non-increasing"):
            Spectrum((1.0, 2.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Spectrum(())

    @pytest.mark.parametrize(
        "values", [(math.nan,), (math.nan, 1.0), (1.0, math.nan), (2.0, math.nan, 1.0)]
    )
    def test_rejects_nan(self, values):
        with pytest.raises(ValueError, match="no NaN"):
            Spectrum(values)

    @pytest.mark.parametrize("values", [(math.inf,), (-math.inf,), (math.inf, 0.0, -math.inf)])
    def test_accepts_infinities(self, values):
        assert Spectrum(values).values == values

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

    def test_rejects_enclosure_above_its_limit(self, p2, monkeypatch):
        real = np.linalg.eigh

        def shifted(a):
            w, v = real(a)
            return w + 1e-6, v  # the eigenvectors no longer fit the values

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(VerificationError, match="oracle: residual enclosure .* above its limit"):
            solve(adjacency(p2), oracle_eigenvalues)

    def test_rejects_eigenvectors_far_from_orthonormal(self, p2, monkeypatch):
        real = np.linalg.eigh

        def doubled(a):
            w, v = real(a)
            return w, 2.0 * v  # V*V - I = 3I, so the enclosure has no bound

        monkeypatch.setattr(np.linalg, "eigh", doubled)
        with pytest.raises(VerificationError) as raised:
            solve(adjacency(p2), oracle_eigenvalues)
        # eta = 3 sqrt(2) >= 1 makes beta NaN, and beta <= limit alone fails
        message = r"oracle: residual enclosure nan above its limit \d\.\d{3}e-\d\d \(\|\|V\*V - I\|\|_F 4\.243e\+00\)"
        assert re.fullmatch(message, str(raised.value))

    @given(hermitians)
    def test_enclosure_far_below_its_limit(self, m):
        w, v = np.linalg.eigh(m.data)
        [eta], [beta] = _enclosure(m.data, w, v, m.traces_of_square())
        assert eta < 1e-3
        assert beta <= 1e-3 * ENCLOSURE_RTOL * frobenius_norm(m)

    @given(hermitians)
    def test_agrees_with_primary_kernel(self, m):
        a = solve(m)
        b = solve(m, oracle_eigenvalues)
        tol = 1e-8 * frobenius_norm(m)
        assert np.max(np.abs(np.array(a.values) - np.array(b.values))) <= tol


def reference_enclosure(data, w, v, tr2):
    """``_enclosure`` as it was first written: R and V*V - I in two arrays,
    one Frobenius norm per array."""

    def frobenius(a):
        x = a.reshape(len(a), a.shape[1] * a.shape[2]).view(np.float64)
        return np.sqrt(np.einsum("ij,ij->i", x, x))

    k, n = data.shape[:2]
    u = np.finfo(np.float64).eps / 2
    gamma, grow = 4 * (n + 3) * u, 1 + 4 * (n * n + 1) * u
    t = v * w[:, None, :]
    r = np.matmul(data, v)
    r -= t
    res, vnorm, wmax = frobenius(r), frobenius(v), np.abs(w).max(axis=1)
    np.matmul(np.conjugate(v, out=t).swapaxes(1, 2), v, out=r)
    r.reshape(k, n * n)[:, :: n + 1] -= 1.0
    eta = grow * frobenius(r) + gamma * vnorm * vnorm
    res = grow * res + gamma * (np.sqrt(tr2) + wmax) * vnorm
    with np.errstate(divide="ignore", invalid="ignore"):
        return eta.tolist(), ((res + 2 * eta * wmax) / np.sqrt(1 - eta)).tolist()


class TestEnclosureMatchesReference:
    @staticmethod
    def assert_bit_identical(m):
        w, v = np.linalg.eigh(m.data)
        got = _enclosure(m.data, w, v, m.traces_of_square())
        want = reference_enclosure(m.data, w, v, m.traces_of_square())
        assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()

    @given(
        mixed_graphs | st.just(parse_graph(GRAPH_N40.read_text(encoding="utf-8"))),
        st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=4),
        st.just(OMEGA) | betas,
    )
    def test_blend_stacks(self, g, grid, beta):
        self.assert_bit_identical(a_alpha_stack(g, grid, beta))

    @given(st.integers(1, 12), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    def test_random_stacks(self, n, seeds):
        self.assert_bit_identical(HermitianStack(np.concatenate([random_hermitian(n, s).data for s in seeds])))


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

    @pytest.mark.parametrize("route", [eigenvalues, oracle_eigenvalues])
    def test_empty_stack_gives_no_rows(self, p2, route):
        spectra = route(a_alpha_stack(p2, [], OMEGA))
        assert spectra.values.shape == (0, 2)
        assert spectra.failures == ()

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

    def test_oracle_lapack_failure_fails_only_its_matrix(self, monkeypatch):
        ms = [random_hermitian(3, seed) for seed in (1, 2, 3)]
        stack = HermitianStack(np.concatenate([m.data for m in ms]))
        singles = [solve(m, oracle_eigenvalues) for m in ms]
        real = np.linalg.eigh

        def failing(a):
            # numpy fails a whole stack when one matrix does not converge
            if a.ndim == 3 and len(a) > 1 or np.array_equal(a, ms[1].data[0]):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(a)

        monkeypatch.setattr(np.linalg, "eigh", failing)
        spectra = oracle_eigenvalues(stack)
        assert spectra.spectrum(0) == singles[0]
        assert spectra.spectrum(2) == singles[2]
        assert np.isnan(spectra.values[1]).all()
        with pytest.raises(VerificationError, match="oracle: Eigenvalues did not converge"):
            spectra.spectrum(1)


class TestRouteIndependence:
    """Each route's LAPACK output is made wrong by a trace-preserving shift
    of 1e-6 of the spread, its top eigenvalue up and its bottom one down, on
    a fixed non-regular graph. verify_all must catch the fault on either
    route, so neither route's answer is taken on trust."""

    G = parse_graph("5\n1 -> 2\n2 -- 3\n3 -> 4\n4 -- 5\n1 -- 3\n")  # degrees 2, 2, 3, 2, 1
    ALPHA = 0.3

    def shift_pair(self, monkeypatch, solver):
        real = getattr(np.linalg, solver)

        def shifted(a):
            out = real(a)
            w = np.array(out[0] if solver == "eigh" else out)
            step = 1e-6 * (w[..., -1] - w[..., 0])
            w[..., -1] += step
            w[..., 0] -= step
            return (w, out[1]) if solver == "eigh" else w

        monkeypatch.setattr(np.linalg, solver, shifted)

    def test_unshifted_graph_verifies(self):
        assert verify_all(self.G, self.ALPHA, OMEGA).spread > 0.0

    def test_primary_fault_is_caught(self, monkeypatch):
        m = a_alpha_stack(self.G, [self.ALPHA], OMEGA)
        oracle = oracle_eigenvalues(m).values
        self.shift_pair(monkeypatch, "eigvalsh")
        with pytest.raises(VerificationError):
            verify_all(self.G, self.ALPHA, OMEGA)
        # the cross-check alone would catch it too
        gap = np.abs(eigenvalues(m).values - oracle).max()
        assert gap > ORACLE_RTOL * frobenius_norm(m)

    def test_oracle_fault_is_caught(self, monkeypatch):
        self.shift_pair(monkeypatch, "eigh")
        with pytest.raises(VerificationError, match="oracle: residual enclosure"):
            verify_all(self.G, self.ALPHA, OMEGA)


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
        # the oracle reports zheevd's eigenvalues as they come, so values near
        # the top of the float range stay finite although ||M||_F overflows
        # in the enclosure (the moment check then fails the matrix)
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


class TestTinyParts:
    """Parts of M below SQUARE_UNDERFLOW, whose squares are subnormal, are
    flushed to zero before the primary route's zheevd."""

    # the star K_{1,3} and four isolated vertices: at this alpha the diagonal
    # alpha * deg is tiny, and unflushed zheevd's top eigenvalue was 1.73205134
    STAR = parse_graph("8\n1 -- 5\n2 -- 5\n5 -- 7\n")
    ALPHA = 5.3159246380803205e-160

    def test_star_at_tiny_alpha_verifies(self):
        m = a_alpha_stack(self.STAR, [self.ALPHA], OMEGA)
        assert solve(m).mu_max == pytest.approx(math.sqrt(3.0), rel=1e-14)
        assert verify_all(self.STAR, self.ALPHA, OMEGA).spread > 0.0

    def test_flush_keeps_every_other_part(self):
        x = np.array([[[-0.0, 1e-160 - 2j], [1e-160 + 2j, SQUARE_UNDERFLOW]]])
        got = _flush_tiny(x)
        assert got.tolist() == [[[0j, -2j], [2j, SQUARE_UNDERFLOW]]]
        assert math.copysign(1.0, got[0, 0, 0].real) == -1.0
        assert _flush_tiny(got) is got


class TestMomentTolerance:
    # diag(100, 0, -100): the trace is 0, so the sum's limit is MOMENT_RTOL
    # itself, and moving the zero eigenvalue by about that much leaves the
    # square sum and the oracle's enclosure far inside their limits
    SPREAD_OUT = HermitianStack(np.diag([100.0, 0.0, -100.0]).astype(complex)[None])

    @pytest.mark.parametrize(
        "route, solver, label",
        [(eigenvalues, "eigvalsh", "zheevd"), (oracle_eigenvalues, "eigh", "oracle")],
        ids=["primary", "oracle"],
    )
    def test_sum_tolerance_pinned_from_both_sides(self, monkeypatch, route, solver, label):
        # MOMENT_RTOL = 1e-8, written out so that a changed tolerance fails: a
        # sum off its trace by twice the limit fails, by half of it is rounding
        real = getattr(np.linalg, solver)
        for gap, fails in ((2e-8, True), (0.5e-8, False)):
            moved = np.array([0.0, gap, 0.0])  # LAPACK's order is ascending

            def moving(a, moved=moved):
                out = real(a)
                return (out[0] + moved, out[1]) if solver == "eigh" else out + moved

            monkeypatch.setattr(np.linalg, solver, moving)
            if fails:
                with pytest.raises(VerificationError, match=f"^{label}: eigenvalue sum "):
                    solve(self.SPREAD_OUT, route)
            else:
                assert solve(self.SPREAD_OUT, route).values == (100.0, gap, -100.0)


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

    @given(st.data(), mixed_graphs, st.floats(0.0, 1.0), st.one_of(st.just(OMEGA), betas))
    def test_switching_across_a_cut(self, data, g, alpha, beta):
        # with S = diag(1 on V1, conj(beta) on V2), S A_alpha(G) S* is A_alpha
        # of G with every cut edge oriented from V1 to V2 (Guo-Mohar 2017)
        underlying = _underlying(g)
        side = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
        oriented = _orient_cut(underlying, side)
        m = a_alpha_stack(oriented, [alpha], beta)
        base = np.asarray(solve(a_alpha_stack(underlying, [alpha], beta)).values)
        got = np.asarray(solve(m).values)
        assert np.max(np.abs(got - base)) <= ORACLE_RTOL * frobenius_norm(m)

    def test_switching_needs_every_cut_arc_one_way(self):
        # reversing one arc of the triangle's cut leaves the cycle 0 -> 2 --
        # 1 -> 0 with gain beta^2 != 1 at a non-real beta
        triangle = parse_graph("3\n1 -- 2\n1 -- 3\n2 -- 3\n")
        oriented = _orient_cut(triangle, [True, False, False])
        broken = MixedGraph(n=3, undirected=oriented.undirected, arcs=frozenset({(1, 0), (0, 2)}))
        assert oriented.arcs == {(0, 1), (0, 2)}
        base = np.asarray(blend_spectrum(triangle, 0.5, OMEGA))
        assert np.max(np.abs(np.asarray(blend_spectrum(oriented, 0.5, OMEGA)) - base)) < 1e-12
        assert np.max(np.abs(np.asarray(blend_spectrum(broken, 0.5, OMEGA)) - base)) > 0.1

    @given(st.data(), mixed_graphs, st.floats(0.0, 1.0))
    def test_switching_by_a_z6_potential(self, data, g, alpha):
        # at a sixth root of unity, S = diag(omega^-phi) takes A_alpha of the
        # underlying graph to A_alpha of the graph phi orients
        phi = data.draw(st.lists(st.integers(0, 5), min_size=g.n, max_size=g.n))
        gap, limit = _gap_to_underlying(_switch_by_potential(_underlying(g), phi), alpha)
        assert gap <= limit

    def test_directed_six_cycle_has_a_potential(self):
        cycle = parse_graph("6\n1 -> 2\n2 -> 3\n3 -> 4\n4 -> 5\n5 -> 6\n6 -> 1\n")
        assert _switch_by_potential(_underlying(cycle), range(6)) == cycle
        for alpha in (0.0, 0.3, 1.0):
            gap, limit = _gap_to_underlying(cycle, alpha)
            assert gap <= limit

    def test_directed_triangle_has_no_potential(self):
        # its arcs would need phi to step by 1 three times round a cycle,
        # and 3 is not 0 mod 6: {1, 1, -2} against the triangle's {2, -1, -1}
        gap, limit = _gap_to_underlying(parse_graph("3\n1 -> 2\n2 -> 3\n3 -> 1\n"), 0.0)
        assert gap == pytest.approx(2.0, abs=1e-12)
        assert gap > limit

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
        m = a_alpha_stack(g, [alpha], beta)
        ref, got = solve(a_alpha_stack(_underlying(g), [alpha], beta)), solve(m)
        perron = max(abs(ref.mu_max), abs(ref.mu_min))
        assert max(abs(got.mu_max), abs(got.mu_min)) <= perron + ORACLE_RTOL * frobenius_norm(m)
