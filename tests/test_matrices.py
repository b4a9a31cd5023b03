"""Matrix builders, parameter validation at every alpha entry point, trace
closed forms, quadratic-form expansion."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import hermitian_from_array
from mixedspec.eig import eigenvalues
from mixedspec.graphs import MixedGraph, graph_stats, parse_graph, random_mixed_graph
from mixedspec.harness import EXPANSION_TOL, _unit_vectors, sweep_alpha, verify_all
from mixedspec.matrices import (
    BetaParam,
    HermitianStack,
    _expansion_quadratic_form,
    a_alpha_stack,
    expected_traces,
    omega_constant,
)

OMEGA = omega_constant()
GRAPH_N40 = parse_graph((Path(__file__).parent / "data" / "graph_n40.mg").read_text(encoding="utf-8"))

# every public function that takes alpha, called on a graph with that alpha
ALPHA_ENTRY_POINTS = {
    "a_alpha_stack": lambda g, a: a_alpha_stack(g, [0.5, a], OMEGA),
    "expected_traces": lambda g, a: expected_traces(g.stats, a),
    "verify_all": lambda g, a: verify_all(g, a, OMEGA),
    "sweep_alpha": lambda g, a: sweep_alpha(g, [0.5, a], OMEGA),
}


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    return random_mixed_graph(
        n,
        draw(st.floats(0.0, 1.0)),
        draw(st.floats(0.0, 1.0)),
        draw(st.integers(0, 2**32 - 1)),
    )


alphas = st.floats(0.0, 1.0)
# angles in [-pi/2, pi/2] keep Re(beta) >= 0
beta_angles = st.floats(-math.pi / 2, math.pi / 2)


def degree_reference(g: MixedGraph) -> np.ndarray:
    """D filled from the edge and arc lists: each one adds 1 to the degree
    of both its ends."""
    d = np.zeros((g.n, g.n), dtype=np.complex128)
    for v, u in (*g.undirected, *g.arcs):
        d[v, v] += 1.0
        d[u, u] += 1.0
    return d


def adjacency_reference(g: MixedGraph, beta: BetaParam) -> np.ndarray:
    """H filled from the edge and arc lists: 1 on both entries of an edge,
    beta on tail->head and conj(beta) on head->tail of an arc."""
    h = np.zeros((g.n, g.n), dtype=np.complex128)
    for v, u in g.undirected:
        h[v, u] = h[u, v] = 1.0
    for t, hd in g.arcs:
        h[t, hd] = beta.value
        h[hd, t] = beta.value.conjugate()
    return h


def endpoints(g: MixedGraph, beta: BetaParam) -> np.ndarray:
    """The built D and H, as the alpha = 1 and alpha = 0 blends."""
    return a_alpha_stack(g, [1.0, 0.0], beta).data


def unit_rows(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """k random complex rows of length n, each scaled to unit norm."""
    z = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    return z / np.linalg.norm(z, axis=1)[:, None]


def scalar_expansion(g: MixedGraph, alpha: float, beta: BetaParam, z: np.ndarray) -> float:
    """Loop form of the arc-sum expansion of z* A z for one vector z, the
    reference for the block form.

    Per arc v->u the contribution is 2a(x_v x_u + y_v y_u) - 2b x_v y_u
    + 2b y_v x_u with beta = a + ib; undirected edges contribute
    2(x_v x_u + y_v y_u) since their entry is 1.
    """
    a, b = beta.re, beta.im
    x, y = z.real, z.imag
    deg = graph_stats(g).degrees
    degree_part = 0.0
    for i in range(g.n):
        degree_part += deg[i] * (x[i] * x[i] + y[i] * y[i])
    edge_part = 0.0
    for v, u in g.arcs:
        edge_part += (
            2.0 * a * x[v] * x[u]
            + 2.0 * a * y[v] * y[u]
            - 2.0 * b * x[v] * y[u]
            + 2.0 * b * y[v] * x[u]
        )
    for v, u in g.undirected:
        edge_part += 2.0 * (x[v] * x[u] + y[v] * y[u])
    return alpha * degree_part + (1.0 - alpha) * edge_part


class TestParams:
    def test_omega_value(self):
        assert OMEGA.re == 0.5
        assert OMEGA.im == pytest.approx(0.8660254037844386, abs=0)

    def test_omega_sum_with_conjugate(self):
        w = OMEGA.value
        assert abs((w + w.conjugate()) - 1.0) <= 1e-15

    def test_omega_product_with_conjugate(self):
        w = OMEGA.value
        assert abs((w * w.conjugate()) - 1.0) <= 1e-15

    def test_alpha_range_enforced(self, c3):
        # the endpoints are in range, and an int or NumPy scalar comes back as a float
        for given, text in ((0, "0.0"), (1, "1.0"), (np.float64(0.5), "0.5")):
            alpha = verify_all(c3, given, OMEGA).alpha
            assert type(alpha) is float
            assert json.dumps(alpha) == text

    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan], ids=["below", "above", "nan"])
    @pytest.mark.parametrize("entry", sorted(ALPHA_ENTRY_POINTS))
    def test_alpha_outside_unit_interval_rejected(self, c3, entry, bad):
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
            ALPHA_ENTRY_POINTS[entry](c3, bad)

    def test_beta_modulus_enforced(self):
        with pytest.raises(ValueError):
            BetaParam(0.5, 0.5)

    @pytest.mark.parametrize(
        "re, im", [(math.nan, math.nan), (1.0, math.nan), (math.nan, 0.0), (math.inf, 0.0)]
    )
    def test_beta_non_finite_rejected(self, re, im):
        with pytest.raises(ValueError, match="finite"):
            BetaParam(re, im)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_from_angle_non_finite_rejected(self, theta):
        with pytest.raises(ValueError, match="finite"):
            BetaParam.from_angle(theta)

    @pytest.mark.parametrize("theta", [7.0, -7.0, 2 * math.pi])
    def test_from_angle_out_of_range_rejected(self, theta):
        with pytest.raises(ValueError, match=r"\[-pi/2, pi/2\]"):
            BetaParam.from_angle(theta)

    def test_beta_negative_real_part_rejected(self):
        with pytest.raises(ValueError):
            BetaParam(-0.6, 0.8)

    @given(beta_angles)
    def test_from_angle_is_unit_modulus(self, theta):
        b = BetaParam.from_angle(theta)
        assert abs(abs(b.value) - 1.0) <= 1e-12

    def test_is_omega(self):
        assert OMEGA.is_omega()
        assert BetaParam.from_angle(math.pi / 3).is_omega()
        assert not BetaParam(1.0, 0.0).is_omega()


class TestBuilders:
    def test_degree_matrix_single_arc(self, p2):
        d, _ = endpoints(p2, OMEGA)
        assert np.array_equal(d, np.diag([1.0 + 0j, 1.0]))

    def test_degree_matrix_triangle(self, c3):
        d, _ = endpoints(c3, OMEGA)
        assert np.array_equal(d, 2.0 * np.eye(3))

    def test_degree_matrix_empty_graph(self):
        d, _ = endpoints(parse_graph("3\n"), OMEGA)
        assert np.array_equal(d, np.zeros((3, 3)))

    def test_adjacency_single_arc(self, p2):
        _, h = endpoints(p2, OMEGA)
        w = OMEGA.value
        assert h[0, 1] == w
        assert h[1, 0] == w.conjugate()
        assert h[0, 0] == 0 and h[1, 1] == 0

    def test_adjacency_undirected_edge(self):
        _, h = endpoints(parse_graph("2\n1 -- 2\n"), OMEGA)
        assert np.array_equal(h, np.array([[0, 1], [1, 0]], dtype=complex))

    @given(graphs(), beta_angles)
    def test_endpoints_match_edge_list_references(self, g, theta):
        beta = BetaParam.from_angle(theta)
        d, h = endpoints(g, beta)
        assert np.array_equal(d, degree_reference(g))
        assert np.array_equal(h, adjacency_reference(g, beta))

    @given(graphs())
    def test_beta_one_gives_classical_adjacency(self, g):
        _, h = endpoints(g, BetaParam(1.0, 0.0))
        ref = np.zeros((g.n, g.n))
        for i, j in g.undirected:
            ref[i, j] = ref[j, i] = 1.0
        for t, hd in g.arcs:
            ref[t, hd] = ref[hd, t] = 1.0
        assert np.array_equal(h, ref.astype(complex))

    def test_blend_endpoints(self, p2):
        h, d = a_alpha_stack(p2, [0.0, 1.0], OMEGA).data
        assert np.array_equal(h, adjacency_reference(p2, OMEGA))
        assert np.array_equal(d, np.diag([1.0 + 0j, 1.0]))

    def test_blend_midpoint_triangle(self, c3):
        (m,) = a_alpha_stack(c3, [0.5], OMEGA).data
        assert np.allclose(np.diagonal(m), 1.0)
        off = np.abs(m[~np.eye(3, dtype=bool)])
        assert np.allclose(off, 0.5)

    @given(graphs(), alphas, beta_angles)
    def test_blend_is_exactly_hermitian(self, g, a, theta):
        (m,) = a_alpha_stack(g, [a], BetaParam.from_angle(theta)).data
        assert np.array_equal(m, m.conj().T)
        assert np.all(np.diagonal(m).imag == 0.0)

    @given(graphs(), alphas, beta_angles)
    def test_blend_bits_match_blend_of_validated_parts(self, g, a, theta):
        # every entry equals alpha*D + (1-alpha)*H, bit for bit, signed zeros
        # included; D and H are filled from the edge and arc lists, which
        # test_endpoints_match_edge_list_references pins to the validated
        # alpha = 1 and alpha = 0 stacks
        beta = BetaParam.from_angle(theta)
        ref = a * degree_reference(g) + (1.0 - a) * adjacency_reference(g, beta)
        np.fill_diagonal(ref, ref.diagonal().real)
        (got,) = a_alpha_stack(g, [a], beta).data
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @given(graphs(), st.lists(alphas, min_size=1, max_size=5), beta_angles)
    def test_stack_matches_single_builds(self, g, grid, theta):
        beta = BetaParam.from_angle(theta)
        stack = a_alpha_stack(g, grid, beta)
        assert stack.data.shape == (len(grid), g.n, g.n) and len(stack) == len(grid)
        for i, a in enumerate(grid):
            one = a_alpha_stack(g, [a], beta)
            assert np.array_equal(stack.data[i].view(np.uint64), one.data[0].view(np.uint64))
            assert stack.traces()[i] == one.traces()[0]
            assert stack.traces_of_square()[i] == one.traces_of_square()[0]
            assert stack.max_offdiag_moduli()[i] == one.max_offdiag_moduli()[0]

    @given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_stack_quantities_match_each_matrix(self, n, k, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        a = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        ms = [hermitian_from_array(x) for x in a]
        stack = HermitianStack(np.concatenate([m.data for m in ms]))
        assert stack.n == n
        assert stack.traces() == [m.traces()[0] for m in ms]
        assert stack.traces_of_square() == [m.traces_of_square()[0] for m in ms]
        assert stack.max_offdiag_moduli() == [m.max_offdiag_moduli()[0] for m in ms]

    def test_stack_rejects_one_non_hermitian_matrix(self):
        ok = np.eye(2, dtype=complex)
        not_hermitian = np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex)
        imag_diagonal = np.diag([1j, 0.0])
        for bad in (not_hermitian, imag_diagonal):
            with pytest.raises(ValueError, match="not exactly Hermitian"):
                HermitianStack(np.array([ok, bad, ok]))
        with pytest.raises(ValueError, match="square"):
            HermitianStack(np.zeros((2, 2, 3), dtype=complex))
        stack = HermitianStack(np.array([ok, ok]))
        with pytest.raises(ValueError):
            stack.data[1, 0, 0] = 5.0

    def test_constructor_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianStack(bad[None])

    def test_constructor_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianStack(np.zeros((1, 2, 3), dtype=complex))
        with pytest.raises(ValueError, match="square"):
            HermitianStack(np.zeros((2, 3), dtype=complex))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_stack_rejects_empty_matrices(self, k):
        with pytest.raises(ValueError, match="at least one row and column"):
            HermitianStack(np.zeros((k, 0, 0), dtype=complex))

    def test_stack_rejects_a_bare_matrix(self):
        with pytest.raises(ValueError, match="stack of square matrices"):
            HermitianStack(np.eye(2, dtype=complex))

    @pytest.mark.parametrize(
        "entry", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)], ids=str
    )
    def test_stack_rejects_non_finite_entries(self, entry):
        # checked before the Hermitian check, so a conjugate pair of
        # infinities, which compares equal to its conjugate, is refused too
        bad = np.zeros((2, 2), dtype=complex)
        bad[0, 1] = entry
        bad[1, 0] = np.conj(entry)
        with pytest.raises(ValueError, match="non-finite"):
            HermitianStack(np.array([np.eye(2), bad]))

    def test_entries_read_only(self, p2):
        m = a_alpha_stack(p2, [0.5], OMEGA)
        with pytest.raises(ValueError):
            m.data[0, 0, 0] = 5.0


class TestExpectedTraces:
    def test_single_arc_midpoint(self, p2):
        assert expected_traces(graph_stats(p2), 0.5) == (1.0, 1.0)

    def test_triangle_alpha_zero(self, c3):
        assert expected_traces(graph_stats(c3), 0.0) == (0.0, 6.0)

    def test_alpha_one_reduces_to_degree_data(self, k13):
        s = graph_stats(k13)
        assert expected_traces(s, 1.0) == (2.0 * s.m, float(s.zagreb))

    @given(graphs(), alphas, beta_angles)
    def test_built_matrix_matches_closed_forms(self, g, a, theta):
        m = a_alpha_stack(g, [a], BetaParam.from_angle(theta))
        tr, tr2 = expected_traces(graph_stats(g), a)
        assert abs(m.traces()[0] - tr) <= 1e-9
        assert abs(m.traces_of_square()[0] - tr2) <= 1e-9


class TestQuadraticForm:
    @staticmethod
    def value_on_p2(p2, z):
        got = _expansion_quadratic_form(p2, [0.0], OMEGA, np.array([z], dtype=complex))
        assert got.shape == (1, 1)
        return got[0, 0]

    def test_basis_vector_hits_zero_diagonal(self, p2):
        assert self.value_on_p2(p2, [1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_real_constant_vector(self, p2):
        z = np.array([1.0, 1.0]) / math.sqrt(2.0)
        # expansion: 2 * Re(omega) * x1 * x2 = 2 * 0.5 * 0.5
        assert self.value_on_p2(p2, z) == pytest.approx(0.5, abs=1e-12)

    def test_eigenvector_recovers_eigenvalue(self, p2):
        z = np.array([1.0, OMEGA.value.conjugate()]) / math.sqrt(2.0)
        assert self.value_on_p2(p2, z) == pytest.approx(1.0, abs=1e-12)

    @given(
        graphs(max_n=8), st.integers(1, 6), alphas, beta_angles, st.integers(0, 2**32 - 1)
    )
    def test_two_routes_agree_and_value_in_numerical_range(self, g, k, a, theta, seed):
        beta = BetaParam.from_angle(theta)
        m = a_alpha_stack(g, [a], beta)
        z = unit_rows(np.random.Generator(np.random.PCG64(seed)), k, g.n)
        direct = ((z.conj() @ m.data[0]) * z).sum(axis=1)
        (expanded,) = _expansion_quadratic_form(g, [a], beta, z)
        assert expanded.shape == (k,)
        assert np.max(np.abs(direct.real - expanded)) <= 1e-10
        spec = eigenvalues(m).spectrum(0)
        assert np.all(spec.mu_min - 1e-9 <= expanded)
        assert np.all(expanded <= spec.mu_max + 1e-9)


class TestArrayExpansion:
    """The block expansion sums in another order than the loop reference, so
    the two agree only to rounding. The sum of the terms' magnitudes is at
    most a few times (1 + max degree) * ||z||^2, and the error of either
    order is that times about eps per term; with at most ~100 terms here
    that stays well below 1e-13, which is about 450 eps."""

    @staticmethod
    def assert_matches_reference(g, alpha, beta, z):
        (got,) = _expansion_quadratic_form(g, [alpha], beta, z)
        assert got.shape == (z.shape[0],)
        for row, value in zip(z, got):
            scale = (1.0 + max(graph_stats(g).degrees)) * float(np.vdot(row, row).real)
            assert abs(value - scalar_expansion(g, alpha, beta, row)) <= 1e-13 * max(1.0, scale)

    @given(graphs(), st.integers(1, 5), alphas, beta_angles, st.integers(0, 2**32 - 1))
    def test_matches_scalar_reference(self, g, k, a, theta, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        z = rng.standard_normal((k, g.n)) + 1j * rng.standard_normal((k, g.n))
        self.assert_matches_reference(g, a, BetaParam.from_angle(theta), z)

    @pytest.mark.parametrize(
        "g",
        [
            MixedGraph(1, frozenset(), frozenset()),
            MixedGraph(4, frozenset(), frozenset()),
            random_mixed_graph(7, 0.8, 0.0, 3),  # edges only, no arcs
            random_mixed_graph(7, 0.8, 1.0, 3),  # arcs only, no edges
        ],
        ids=["n1", "empty", "no_arcs", "no_edges"],
    )
    @pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
    def test_degenerate_graphs(self, g, alpha):
        rng = np.random.Generator(np.random.PCG64(11))
        z = rng.standard_normal((5, g.n)) + 1j * rng.standard_normal((5, g.n))
        self.assert_matches_reference(g, alpha, BetaParam.from_angle(0.9), z)
        self.assert_matches_reference(g, alpha, OMEGA, z)


def reference_expansion(g: MixedGraph, alphas: list[float], beta: BetaParam, z: np.ndarray) -> np.ndarray:
    """``_expansion_quadratic_form`` as it was first written on arrays: the
    real and imaginary parts of z apart, one product per 0/1 pattern and per
    part. The reference for the one-product form."""
    a, b = beta.re, beta.im
    x, y = z.real, z.imag
    arcs = np.zeros((g.n, g.n))
    arcs[tuple(g.arc_index)] = 1.0
    edges = np.zeros((g.n, g.n))
    edges[tuple(g.edge_index)] = 1.0
    deg = np.asarray(g.stats.degrees, dtype=np.float64)
    degree_part = (x * x + y * y) @ deg
    xa, ya = x @ arcs, y @ arcs
    arc_part = 2.0 * a * (xa * x + ya * y).sum(axis=1) - 2.0 * b * (xa * y - ya * x).sum(axis=1)
    xe, ye = x @ edges, y @ edges
    edge_part = 2.0 * (xe * x + ye * y).sum(axis=1)
    w = np.array(alphas, dtype=np.float64)[:, None]
    return w * degree_part + (1.0 - w) * (arc_part + edge_part)


class TestExpansionMatchesReference:
    """The one-product expansion against the two-part reference, on the
    harness's own Rayleigh block, over graphs up to n = 12 and graph_n40.mg."""

    @given(
        graphs(max_n=12) | st.just(GRAPH_N40),
        st.lists(st.sampled_from([0.0, 1.0]) | alphas, min_size=1, max_size=4),
        st.just(OMEGA) | beta_angles.map(BetaParam.from_angle),
        st.integers(0, 2**63 - 1),
    )
    def test_within_a_hundredth_of_the_tolerance(self, g, grid, beta, seed):
        z = _unit_vectors(g.n, seed)
        got = _expansion_quadratic_form(g, grid, beta, z)
        want = reference_expansion(g, grid, beta, z)
        assert got.shape == want.shape == (len(grid), len(z))
        assert np.abs(got - want).max() <= EXPANSION_TOL / 100


class TestTextFormat:
    def test_symmetrizer_output_accepted(self):
        rng = np.random.Generator(np.random.PCG64(5))
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        (m,) = hermitian_from_array(a).data
        assert np.array_equal(m, m.conj().T)
