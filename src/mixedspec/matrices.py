"""Dense Hermitian matrices of mixed graphs: degree matrix, phase adjacency, blends.

The phase adjacency matrix carries a unit-modulus entry beta on each arc
(conjugate on the reverse direction) and 1 on undirected edges. Blending it
with the degree matrix by a weight alpha in [0, 1] gives the family this
library studies; beta = omega = (1 + i*sqrt(3))/2 is the distinguished case
("second kind") because omega + conj(omega) = 1.

Each parameter has one form: alpha is a plain float in [0, 1], checked by
``check_alpha`` at every entry point, and beta is always a ``BetaParam``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import GraphStats, MixedGraph

# |beta| = 1 is assumed by the tr(M^2) closed form; harness._trace2_limit
# derives why an offset of 2^-52 stays inside its limit
UNIT_MODULUS_TOL = 2.0**-52
OMEGA_MATCH_TOL = 1e-12
_OMEGA = (0.5, math.sqrt(3.0) / 2.0)


def check_alpha(alpha: float) -> float:
    """The blend weight as a float in [0, 1]: 0 is pure phase adjacency, 1 the
    pure degree matrix. Converts first, so an int or NumPy scalar comes back
    as a Python float, and adds 0.0, so -0.0 comes back as 0.0."""
    alpha = float(alpha) + 0.0
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


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
        if abs(theta) > math.pi / 2:
            raise ValueError(f"beta angle must lie in [-pi/2, pi/2], got {theta}")
        return cls(math.cos(theta), math.sin(theta))

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    def is_omega(self) -> bool:
        return _is_omega(self.re, self.im)


def _is_omega(re: float, im: float) -> bool:
    """BetaParam.is_omega for a bare (re, im) pair, such as a report echoes."""
    return abs(re - _OMEGA[0]) <= OMEGA_MATCH_TOL and abs(im - _OMEGA[1]) <= OMEGA_MATCH_TOL


def omega_constant() -> BetaParam:
    """The sixth root of unity (1 + i*sqrt(3))/2; satisfies w + conj(w) = w*conj(w) = 1."""
    return BetaParam(*_OMEGA)


@dataclass(frozen=True)
class HermitianStack:
    """k dense n x n Hermitian matrices in one read-only (k, n, n) array.

    Each matrix must be finite and exactly Hermitian (entries are written in
    conjugate pairs, so the diagonal has exactly zero imaginary part). Per
    matrix, the trace sums the diagonal, and tr(M^2) sums the matrix's n^2
    squared moduli as one contiguous row (harness._trace2_limit assumes
    that summation).
    """

    data: np.ndarray

    def __post_init__(self):
        a = np.array(self.data, dtype=np.complex128)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
        if a.shape[1] == 0:
            raise ValueError("matrices must have at least one row and column")
        if not np.isfinite(a).all():
            raise ValueError("matrix has a non-finite entry")
        if not (a == a.conj().transpose(0, 2, 1)).all():
            raise ValueError("matrix is not exactly Hermitian")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def n(self) -> int:
        return self.data.shape[-1]

    def __len__(self) -> int:
        return self.data.shape[0]

    def traces(self) -> list[float]:
        return self._per_matrix[0]

    def traces_of_square(self) -> list[float]:
        return self._per_matrix[1]

    def max_offdiag_moduli(self) -> list[float]:
        return self._per_matrix[2]

    @cached_property
    def _per_matrix(self) -> tuple[list[float], list[float], list[float]]:
        k, n = self.data.shape[:2]
        tr = np.trace(self.data, axis1=1, axis2=2).real.tolist()
        moduli = np.abs(self.data).reshape(k, n * n)
        tr2 = (moduli**2).sum(axis=1).tolist()
        # with the diagonal zeroed, a 1 x 1 matrix's largest off-diagonal modulus is 0
        moduli[:, :: n + 1] = 0.0
        return tr, tr2, moduli.max(axis=1).tolist()


def _adjacency_array(g: MixedGraph, beta: BetaParam) -> np.ndarray:
    h = np.zeros((g.n, g.n), dtype=np.complex128)
    (i, j), (t, hd) = g.edge_index, g.arc_index
    h[i, j] = h[j, i] = 1.0
    h[t, hd], h[hd, t] = beta.value, beta.value.conjugate()
    return h


def _blend(g: MixedGraph, alphas: list[float], beta: BetaParam) -> np.ndarray:
    """alpha*D + (1-alpha)*H as a (k, n, n) array, one matrix per alpha: H is
    filled once, scaled and given D's +0.0 off the diagonal (a scaled part that
    underflows to -0.0 becomes +0.0); the diagonal, where H is zero, is set to alpha*d."""
    a = np.array(alphas, dtype=np.float64)
    s = (1.0 - a[:, None, None]) * _adjacency_array(g, beta) + 0.0
    degrees = np.array(g.stats.degrees, dtype=np.float64)
    s.reshape(len(alphas), g.n * g.n)[:, :: g.n + 1] = a[:, None] * degrees
    return s


def a_alpha_stack(g: MixedGraph, alphas: Iterable[float], beta: BetaParam) -> HermitianStack:
    """The blends alpha*D + (1-alpha)*H for each alpha, in order, as one stack;
    matrix i equals the one matrix of ``a_alpha_stack(g, [alphas[i]], beta)``
    bit for bit."""
    return HermitianStack(_blend(g, [check_alpha(a) for a in alphas], beta))


def expected_traces(stats: GraphStats, alpha: float) -> tuple[float, float]:
    """Closed forms (tr, tr of square) for a blend matrix: (2*alpha*m,
    alpha^2 * zagreb + (1-alpha)^2 * 2m)."""
    a = check_alpha(alpha)
    return 2.0 * a * stats.m, a * a * stats.zagreb + (1.0 - a) ** 2 * 2.0 * stats.m


def _expansion_quadratic_form(
    g: MixedGraph, alphas: list[float], beta: BetaParam, z: np.ndarray
) -> np.ndarray:
    """Real arc-sum expansion of z* A_alpha z: row i, column r is the value
    for alphas[i] and row r of the (k, n) block z.

    Per arc v->u the contribution is 2a(x_v x_u + y_v y_u) - 2b x_v y_u
    + 2b y_v x_u with beta = a + ib; undirected edges contribute
    2(x_v x_u + y_v y_u) since their entry is 1. On a row's real coordinates
    w = (x_0, y_0, x_1, ...) that sum is w^T P w, where P's 2 x 2 block (v, u)
    is 2[[a, -b], [b, a]] per arc v->u and 2I per edge v < u. P is filled
    from the graph's index arrays, never from the built matrix, so agreement
    with the direct form checks the build; one product with P serves every
    row, and the sums, free of alpha, are blended for every alpha.
    """
    n = z.shape[1]
    w = np.ascontiguousarray(z, dtype=np.complex128).view(np.float64)
    pattern = np.zeros((n, 2, n, 2))
    i, j = g.edge_index
    pattern[i, :, j, :] = ((2.0, 0.0), (0.0, 2.0))
    v, u = g.arc_index
    a, b = 2.0 * beta.re, 2.0 * beta.im
    pattern[v, :, u, :] = ((a, -b), (b, a))
    degrees = np.repeat(np.array(g.stats.degrees, dtype=np.float64), 2)
    sums = np.einsum("rj,prj->pr", w, np.array((w * degrees, w @ pattern.reshape(2 * n, 2 * n))))
    return np.array([(x, 1.0 - x) for x in alphas]).reshape(-1, 2) @ sums
