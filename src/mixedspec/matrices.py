"""Dense Hermitian matrices of mixed graphs: degree matrix, phase adjacency, blends.

The phase adjacency matrix carries a unit-modulus entry beta on each arc
(conjugate on the reverse direction) and 1 on undirected edges. Blending it
with the degree matrix by a weight alpha in [0, 1] gives the family this
library studies; beta = omega = (1 + i*sqrt(3))/2 is the distinguished case
("second kind") because omega + conj(omega) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import GraphStats, MixedGraph

UNIT_MODULUS_TOL = 1e-12


@dataclass(frozen=True)
class AlphaParam:
    """Blend weight in [0, 1]: 0 is pure phase adjacency, 1 the pure degree matrix."""

    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.value}")


@dataclass(frozen=True)
class BetaParam:
    """Unit-modulus arc phase a + ib with a >= 0."""

    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError(f"beta must be finite, got {self.re}+{self.im}j")
        if abs(math.hypot(self.re, self.im) - 1.0) > UNIT_MODULUS_TOL:
            raise ValueError(f"|beta| must be 1 within {UNIT_MODULUS_TOL}, got {self.re}+{self.im}j")
        if self.re < 0.0:
            raise ValueError(f"Re(beta) must be >= 0, got {self.re}")

    @classmethod
    def from_angle(cls, theta: float) -> "BetaParam":
        """beta = e^{i*theta}; theta must lie in [-pi/2, pi/2] so Re(beta) >= 0."""
        if not math.isfinite(theta):
            raise ValueError(f"beta angle must be finite, got {theta}")
        return cls(math.cos(theta), math.sin(theta))

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    @property
    def angle(self) -> float:
        return math.atan2(self.im, self.re)

    def is_omega(self) -> bool:
        om = omega_constant()
        return abs(self.re - om.re) <= UNIT_MODULUS_TOL and abs(self.im - om.im) <= UNIT_MODULUS_TOL


def omega_constant() -> BetaParam:
    """The sixth root of unity (1 + i*sqrt(3))/2; satisfies w + conj(w) = w*conj(w) = 1."""
    return BetaParam(0.5, math.sqrt(3.0) / 2.0)


def as_alpha(alpha: "AlphaParam | float") -> AlphaParam:
    return alpha if isinstance(alpha, AlphaParam) else AlphaParam(float(alpha))


def as_beta(beta: "BetaParam | complex") -> BetaParam:
    if isinstance(beta, BetaParam):
        return beta
    z = complex(beta)
    return BetaParam(z.real, z.imag)


@dataclass(frozen=True)
class GraphProvenance:
    """Construction record kept so the quadratic form can take the arc-sum route."""

    graph: MixedGraph
    alpha: AlphaParam
    beta: BetaParam


@dataclass(frozen=True)
class HermitianMatrix:
    """Dense n x n complex Hermitian matrix; entries are read-only after construction.

    Conjugate symmetry is exact (entries are written in conjugate pairs), and
    the diagonal has exactly zero imaginary part.
    """

    data: np.ndarray
    provenance: GraphProvenance | None = field(default=None, compare=False)

    def __post_init__(self):
        a = np.array(self.data, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.array_equal(a, a.conj().T):
            raise ValueError("matrix is not exactly Hermitian")
        if np.any(np.diagonal(a).imag != 0.0):
            raise ValueError("diagonal entries must have exactly zero imaginary part")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.data).real)

    def trace_of_square(self) -> float:
        return self._sum_of_squared_moduli

    @cached_property
    def _sum_of_squared_moduli(self) -> float:
        # tr(M^2) for Hermitian M; the entries are read-only, so it is summed once
        return float(np.sum(np.abs(self.data) ** 2))

    def frobenius_norm(self) -> float:
        return math.sqrt(self.trace_of_square())

    def max_offdiag_modulus(self) -> float:
        if self.n < 2:
            return 0.0
        off = np.abs(self.data).copy()
        np.fill_diagonal(off, 0.0)
        return float(off.max())


def hermitian_from_array(a: np.ndarray) -> HermitianMatrix:
    """Symmetrize (A + A*)/2 and wrap; exact conjugate symmetry by construction."""
    a = np.asarray(a, dtype=np.complex128)
    h = (a + a.conj().T) / 2.0
    np.fill_diagonal(h, h.diagonal().real)
    return HermitianMatrix(h)


def _degree_array(g: MixedGraph) -> np.ndarray:
    d = np.zeros((g.n, g.n), dtype=np.complex128)
    np.fill_diagonal(d, np.asarray(g.stats.degrees, dtype=np.float64))
    return d


def _adjacency_array(g: MixedGraph, beta: BetaParam) -> np.ndarray:
    b = beta.value
    h = np.zeros((g.n, g.n), dtype=np.complex128)
    i, j = g.edge_index
    h[i, j] = 1.0
    h[j, i] = 1.0
    t, hd = g.arc_index
    h[t, hd] = b
    h[hd, t] = b.conjugate()
    return h


def degree_matrix(g: MixedGraph) -> HermitianMatrix:
    """Diagonal matrix of underlying-graph degrees (the alpha = 1 endpoint)."""
    return HermitianMatrix(
        _degree_array(g), provenance=GraphProvenance(g, AlphaParam(1.0), omega_constant())
    )


def hermitian_adjacency(g: MixedGraph, beta: "BetaParam | complex") -> HermitianMatrix:
    """Phase adjacency matrix: beta on arcs tail->head, conj(beta) reversed, 1 on edges."""
    beta = as_beta(beta)
    return HermitianMatrix(
        _adjacency_array(g, beta), provenance=GraphProvenance(g, AlphaParam(0.0), beta)
    )


def a_alpha_matrix(
    g: MixedGraph, alpha: "AlphaParam | float", beta: "BetaParam | complex"
) -> HermitianMatrix:
    """Convex blend alpha*D + (1-alpha)*H of degree matrix and phase adjacency.

    D and H are filled as plain arrays; only the blend is validated.
    """
    alpha = as_alpha(alpha)
    beta = as_beta(beta)
    a = alpha.value * _degree_array(g) + (1.0 - alpha.value) * _adjacency_array(g, beta)
    # re-zero the diagonal imag parts that scaling might have left as -0.0
    np.fill_diagonal(a, a.diagonal().real)
    return HermitianMatrix(a, provenance=GraphProvenance(g, alpha, beta))


def expected_traces(stats: GraphStats, alpha: "AlphaParam | float") -> tuple[float, float]:
    """Closed forms (tr, tr of square) for a blend matrix: (2*alpha*m,
    alpha^2 * zagreb + (1-alpha)^2 * 2m)."""
    a = as_alpha(alpha).value
    return 2.0 * a * stats.m, a * a * stats.zagreb + (1.0 - a) ** 2 * 2.0 * stats.m


def _expansion_quadratic_form(prov: GraphProvenance, z: np.ndarray) -> float:
    """Real arc-sum expansion of z* A z using the construction data.

    Per arc v->u the contribution is 2a(x_v x_u + y_v y_u) - 2b x_v y_u
    + 2b y_v x_u with beta = a + ib; undirected edges contribute
    2(x_v x_u + y_v y_u) since their entry is 1.
    """
    al = prov.alpha.value
    a, b = prov.beta.re, prov.beta.im
    x, y = z.real, z.imag
    g = prov.graph
    deg = np.asarray(g.stats.degrees, dtype=np.float64)
    degree_part = deg @ (x * x + y * y)
    v, u = g.arc_index
    arc_part = 2.0 * a * (x[v] @ x[u] + y[v] @ y[u]) - 2.0 * b * (x[v] @ y[u] - y[v] @ x[u])
    i, j = g.edge_index
    edge_part = 2.0 * (x[i] @ x[j] + y[i] @ y[j])
    return float(al * degree_part + (1.0 - al) * (arc_part + edge_part))


def quadratic_form(m: HermitianMatrix, z: np.ndarray) -> float:
    """Evaluate z* M z, which is real for Hermitian M.

    The direct sesquilinear sum always runs; when the matrix was built from a
    graph, the real arc-sum expansion runs as well and the two are required to
    agree to 1e-10 (scaled by ||z||^2). A residual imaginary part beyond the
    tolerance means the matrix was not Hermitian.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (m.n,):
        raise ValueError(f"vector shape {z.shape} does not match matrix order {m.n}")
    if not (np.all(np.isfinite(z.real)) and np.all(np.isfinite(z.imag))):
        raise ValueError("vector has non-finite components")
    direct = complex(np.vdot(z, m.data @ z))
    scale = max(1.0, float(np.vdot(z, z).real))
    if abs(direct.imag) > 1e-10 * scale:
        raise ValueError(f"quadratic form has imaginary part {direct.imag}: matrix not Hermitian")
    if m.provenance is not None:
        expanded = _expansion_quadratic_form(m.provenance, z)
        if abs(direct.real - expanded) > 1e-10 * scale:
            raise AssertionError(
                f"quadratic form routes disagree: direct={direct.real!r} expansion={expanded!r}"
            )
    return direct.real
