"""Full spectra of Hermitian matrices, via two independent routes.

``eigenvalues`` solves each matrix with LAPACK's Hermitian solver (zheevd:
tridiagonal reduction, then divide and conquer). ``oracle_eigenvalues``
trusts no second solver: it checks zheevd's eigenpairs (w, V) against M with
matrix products. Let R = MV - V diag(w), eta = ||V*V - I||_F < 1 and V = UH
the polar factorisation, so ||H - I|| <= eta and ||H^-1|| <= 1/sqrt(1 - eta).
Then U*MU - diag(w) = (H diag(w) - diag(w) H) H^-1 + U*R H^-1 is Hermitian
with norm at most beta = (||R||_F + 2 eta max|w_i|) / sqrt(1 - eta). U*MU has the
spectrum of M, so Weyl's inequality gives |lambda_i(M) - w_i| <= beta for
every sorted i, however (w, V) were computed (Parlett, The Symmetric
Eigenvalue Problem, residual bounds). The rounding of each product, at most
gamma |A||B| with gamma = 4(n + 3)u (Higham, Accuracy and Stability of
Numerical Algorithms, sections 3.5 and 3.6), and that of the norms are added
to eta and beta. The harness's gap check of the primary values against w
then bounds them against the true spectrum, trusting neither solver.

Both routes take a HermitianStack, the one matrix type, and solve it with
one LAPACK call for the whole stack, which gives the same bits per matrix
as one call each; a single matrix is a one-matrix stack. Their checks run
per matrix, and a failure is raised only when that matrix's row of the
resulting SpectrumStack is read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrices import HermitianStack

MOMENT_RTOL = 1e-8
ENCLOSURE_RTOL = 1e-8
# a real or imaginary part below this has a subnormal square (2**-1022 is the
# smallest normal float), or one that underflows to zero
SQUARE_UNDERFLOW = 2.0**-511


class VerificationError(RuntimeError):
    """An internal consistency check failed; this is a bug, not a loose bound."""


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues sorted non-increasing; +-inf is allowed, NaN is not."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("spectrum must contain at least one eigenvalue")
        # a comparison with NaN is false, so only a lone value needs its own test
        if math.isnan(self.values[0]) or not all(map(operator.ge, self.values, self.values[1:])):
            raise ValueError("eigenvalues must be sorted non-increasing, with no NaN")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mu_max(self) -> float:
        return self.values[0]

    @property
    def mu_min(self) -> float:
        return self.values[-1]


@dataclass(frozen=True)
class SpectrumStack:
    """One eigen route's spectra of a HermitianStack: row i of ``values``
    holds matrix i's eigenvalues, non-increasing.

    A matrix whose LAPACK call or checks failed keeps its failure message in
    ``failures`` (its row is then not meaningful). The failure is raised when
    the row is read, so a caller that reads the rows in order meets each
    matrix's failure in that order.
    """

    values: np.ndarray
    failures: tuple[str | None, ...]

    def check(self, i: int) -> None:
        """Raise VerificationError if matrix i failed on this route."""
        if self.failures[i] is not None:
            raise VerificationError(self.failures[i])

    def spectrum(self, i: int) -> Spectrum:
        self.check(i)
        return Spectrum(values=tuple(self._rows[i]))

    @cached_property
    def _rows(self) -> list[list[float]]:
        return self.values.tolist()


def _solve(solver, data: np.ndarray, route: str) -> tuple[tuple[np.ndarray, ...], list[str | None]]:
    """``solver``, which returns a tuple (values, then any vectors), on the
    whole stack in one call. numpy raises for the stack when any matrix
    fails, so after a LinAlgError each matrix is solved alone and only the
    failing ones carry the error, with NaN outputs (NaN vectors too if all fail)."""
    try:
        return solver(data), [None] * len(data)
    except np.linalg.LinAlgError:
        pass
    blank = (np.full(data.shape[1:-1], np.nan), np.full(data.shape[1:], np.nan))
    rows, failures = [], []
    for a in data:
        try:
            rows.append(solver(a))
            failures.append(None)
        except np.linalg.LinAlgError as exc:
            rows.append(blank)
            failures.append(f"{route}: {exc}")
    return tuple(map(np.array, zip(*rows))), failures


def _check_moments(
    values: np.ndarray, tr: list[float], tr2: list[float], route: str, failures: list[str | None]
) -> tuple[str | None, ...]:
    """Record a broken moment identity (sum of eigenvalues = tr, sum of their
    squares = tr(M^2)) for each matrix that has not failed yet. An identity
    that cannot be confirmed, because a side is NaN, counts as broken."""
    sum1, sum2 = np.array((values, values * values)).sum(axis=2).tolist()
    for i, failure in enumerate(failures):
        if failure is not None:
            continue
        if not abs(sum1[i] - tr[i]) <= MOMENT_RTOL * max(1.0, abs(tr[i])):
            failures[i] = f"{route}: eigenvalue sum {sum1[i]} does not match trace {tr[i]}"
        elif not abs(sum2[i] - tr2[i]) <= MOMENT_RTOL * max(1.0, tr2[i]):
            failures[i] = (
                f"{route}: eigenvalue square sum {sum2[i]} does not match trace of square {tr2[i]}"
            )
    return tuple(failures)


def _flush_tiny(data: np.ndarray) -> np.ndarray:
    """``data`` with every real and imaginary part below SQUARE_UNDERFLOW in
    magnitude set to zero; ``data`` itself, not a copy, when it has none."""
    x = data.view(np.float64)
    tiny = (np.abs(x) < SQUARE_UNDERFLOW) & (x != 0.0)
    return np.where(tiny, 0.0, x).view(np.complex128) if tiny.any() else data


def eigenvalues(m: HermitianStack) -> SpectrumStack:
    """All eigenvalues of each matrix of ``m`` by LAPACK zheevd, in one
    LAPACK call, each row sorted non-increasing.

    zheevd solves ``m`` with its parts below SQUARE_UNDERFLOW flushed to
    zero, which moves each eigenvalue by at most n * SQUARE_UNDERFLOW
    (Weyl's inequality). Without the flush, OpenBLAS's eigenvalue-only
    zheevd can miss by 1e-7 relative when such parts are present: at
    alpha = 5.3e-160 on the star K_{1,3} its top eigenvalue is 1.73205134,
    not sqrt(3). The moment identities are checked against ``m`` itself.

    Deterministic for fixed input. A LAPACK failure to converge or a broken
    moment identity is a matrix's failure, raised as VerificationError
    when its row is read.
    """
    tr, tr2 = m.traces(), m.traces_of_square()
    data = _flush_tiny(m.data)
    (d, *_), failures = _solve(lambda a: (np.linalg.eigvalsh(a),), data, "zheevd")
    vals = d[:, ::-1]
    return SpectrumStack(vals, _check_moments(vals, tr, tr2, "zheevd", failures))


def _enclosure(data: np.ndarray, w: np.ndarray, v: np.ndarray, tr2: list[float]):
    """Per matrix, eta >= ||V*V - I||_F and, if eta < 1, beta >= every
    |lambda_i(M) - w_i|, rounding included (see the module docstring)."""
    k, n = data.shape[:2]
    u = np.finfo(np.float64).eps / 2
    gamma, grow = 4 * (n + 3) * u, 1 + 4 * (n * n + 1) * u
    # R = MV - V diag(w), V*V - I and conj(V) (V's norm) in one buffer, for one einsum
    buf = np.empty((3, k, n, n), dtype=np.complex128)
    r, gram, vc = buf
    np.matmul(data, v, out=r)
    r -= np.multiply(v, w[:, None, :], out=gram)
    np.matmul(np.conjugate(v, out=vc).swapaxes(1, 2), v, out=gram)
    diagonal = gram.reshape(k, n * n)[:, :: n + 1]
    diagonal -= 1.0
    x = buf.reshape(3, k, n * n).view(np.float64)
    res, eta, vnorm = np.sqrt(np.einsum("tij,tij->ti", x, x))
    wmax = np.abs(w).max(axis=1)
    eta = grow * eta + gamma * vnorm * vnorm
    res = grow * res + gamma * (np.sqrt(tr2) + wmax) * vnorm
    with np.errstate(divide="ignore", invalid="ignore"):
        return eta.tolist(), ((res + 2 * eta * wmax) / np.sqrt(1 - eta)).tolist()


def oracle_eigenvalues(m: HermitianStack) -> SpectrumStack:
    """Eigenvalues by LAPACK zheevd with eigenvectors, certified in one
    batched pass by the residual enclosure of the module docstring: beta,
    with its gamma = 4(n + 3)u rounding, bounds |lambda_i(M) - w_i| for every
    sorted i by Weyl's inequality. A matrix fails unless beta <=
    ENCLOSURE_RTOL * ||M||_F (at eta = ||V*V - I||_F >= 1, beta divides by
    sqrt(1 - eta) and is NaN or +inf), on a LAPACK failure or on a broken
    moment identity, raised when its row is read, as for ``eigenvalues``."""
    tr, tr2 = m.traces(), m.traces_of_square()
    (w, v), failures = _solve(np.linalg.eigh, m.data, "oracle")
    eta, beta = _enclosure(m.data, w, v, tr2)
    for i, failure in enumerate(failures):
        limit = ENCLOSURE_RTOL * math.sqrt(tr2[i])
        if failure is None and not beta[i] <= limit:
            failures[i] = (
                f"oracle: residual enclosure {beta[i]:.3e} above its limit {limit:.3e}"
                f" (||V*V - I||_F {eta[i]:.3e})"
            )
    vals = w[:, ::-1]
    return SpectrumStack(vals, _check_moments(vals, tr, tr2, "oracle", failures))
