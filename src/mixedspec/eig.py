"""Full spectra of Hermitian matrices, via two independent routes.

``eigenvalues`` solves the complex matrix itself with LAPACK's Hermitian
solver (zheevd: tridiagonal reduction, then divide and conquer).
``oracle_eigenvalues`` solves the 2n x 2n real embedding [[X, -Y], [Y, X]] of
M = X + iY, where every eigenvalue of M shows up twice, with LAPACK's general
real solver (dgeev: Hessenberg reduction, then Francis QR). The two routes
share no eigen solver: a different matrix in different arithmetic, through
different algorithms. Agreement between them is the library's main internal
consistency check.

Both routes take a HermitianStack, the one matrix type, and solve it with
one LAPACK call for the whole stack, which gives the same bits per matrix
as one call each; a single matrix is a one-matrix stack. Their checks run
per matrix, and a failure is raised only when that matrix's row of the
resulting SpectrumStack is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrices import HermitianStack

MOMENT_RTOL = 1e-8
PAIR_RTOL = 1e-8


class VerificationError(RuntimeError):
    """An internal consistency check failed; this is a bug, not a loose bound."""


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues sorted non-increasing."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("spectrum must contain at least one eigenvalue")
        if any(self.values[i] < self.values[i + 1] for i in range(len(self.values) - 1)):
            raise ValueError("eigenvalues must be sorted non-increasing")

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


def _solve(solver, data: np.ndarray, route: str) -> tuple[np.ndarray, list[str | None]]:
    """``solver`` on the whole stack in one call. numpy raises for the stack
    when any matrix fails, so after a LinAlgError each matrix is solved alone
    and only the failing ones carry the error (their row is NaN)."""
    try:
        return solver(data), [None] * len(data)
    except np.linalg.LinAlgError:
        pass
    rows, failures = [], []
    for a in data:
        try:
            rows.append(solver(a))
            failures.append(None)
        except np.linalg.LinAlgError as exc:
            rows.append(np.full(a.shape[-1], np.nan))
            failures.append(f"{route}: {exc}")
    return np.array(rows), failures


def _check_moments(
    values: np.ndarray, tr: list[float], tr2: list[float], route: str, failures: list[str | None]
) -> tuple[str | None, ...]:
    """Record a broken moment identity (sum of eigenvalues = tr, sum of their
    squares = tr(M^2)) for each matrix that has not failed yet. An identity
    that cannot be confirmed, because a side is NaN, counts as broken."""
    sum1 = values.sum(axis=1).tolist()
    sum2 = (values * values).sum(axis=1).tolist()
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


def eigenvalues(m: HermitianStack) -> SpectrumStack:
    """All eigenvalues of each matrix of ``m`` by LAPACK zheevd, in one
    LAPACK call, each row sorted non-increasing.

    Deterministic for fixed input. A LAPACK failure to converge or a broken
    moment identity is a matrix's failure, raised as VerificationError
    when its row is read.
    """
    tr, tr2 = m.traces(), m.traces_of_square()
    d, failures = _solve(np.linalg.eigvalsh, m.data, "zheevd")
    vals = d[:, ::-1]
    return SpectrumStack(vals, _check_moments(vals, tr, tr2, "zheevd", failures))


def oracle_eigenvalues(m: HermitianStack) -> SpectrumStack:
    """Eigenvalues via the real embedding, solved by LAPACK dgeev.

    The stack is solved as one (k, 2n, 2n) stack of embeddings in one
    LAPACK call. dgeev does not assume symmetry, so it may return complex
    eigenvalues; an imaginary part above 1e-8 * ||M||_F is a matrix's
    failure. The embedding doubles every eigenvalue; adjacent sorted values
    are paired and averaged, each halved before the sum so that finite
    values stay finite, and a pair gap above the same tolerance is a
    failure too. So is a LAPACK failure or a broken moment identity. As for
    ``eigenvalues``, a failure is raised when its row is read.
    """
    data, tr, tr2 = m.data, m.traces(), m.traces_of_square()
    k, n = len(m), m.n
    x = data.real
    y = data.imag
    emb = np.empty((k, 2 * n, 2 * n))
    emb[:, :n, :n] = x
    emb[:, :n, n:] = -y
    emb[:, n:, :n] = y
    emb[:, n:, n:] = x
    w, failures = _solve(np.linalg.eigvals, emb, "dgeev")
    w = w.reshape(k, 2 * n)

    d = np.sort(w.real, axis=1)
    imag = np.abs(w.imag).max(axis=1, initial=0.0).tolist()
    worst = np.abs(d[:, 1::2] - d[:, 0::2]).max(axis=1, initial=0.0).tolist()
    for i, failure in enumerate(failures):
        if failure is not None:
            continue
        pair_tol = PAIR_RTOL * math.sqrt(tr2[i])
        if imag[i] > pair_tol:
            failures[i] = (
                f"embedding eigenvalues are not real: largest imaginary part {imag[i]} > {pair_tol}"
            )
        elif worst[i] > pair_tol:
            failures[i] = f"embedding eigenvalues do not pair: worst gap {worst[i]} > {pair_tol}"
    vals = (d[:, 0::2] / 2.0 + d[:, 1::2] / 2.0)[:, ::-1]
    return SpectrumStack(vals, _check_moments(vals, tr, tr2, "embedding", failures))

