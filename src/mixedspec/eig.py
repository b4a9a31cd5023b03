"""Full spectra of Hermitian matrices, via two independent routes.

``eigenvalues`` solves the complex matrix itself with LAPACK's Hermitian
solver (zheevd: tridiagonal reduction, then divide and conquer).
``oracle_eigenvalues`` solves the 2n x 2n real embedding [[X, -Y], [Y, X]] of
M = X + iY, where every eigenvalue of M shows up twice, with LAPACK's general
real solver (dgeev: Hessenberg reduction, then Francis QR). The two routes
share no eigen solver: a different matrix in different arithmetic, through
different algorithms. Agreement between them is the library's main internal
consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import HermitianMatrix

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


def _check_moments(m: HermitianMatrix, values: np.ndarray, route: str) -> None:
    tr = m.trace()
    tr2 = m.trace_of_square()
    sum1 = float(values.sum())
    sum2 = float((values * values).sum())
    if abs(sum1 - tr) > MOMENT_RTOL * max(1.0, abs(tr)):
        raise VerificationError(f"{route}: eigenvalue sum {sum1} does not match trace {tr}")
    if abs(sum2 - tr2) > MOMENT_RTOL * max(1.0, tr2):
        raise VerificationError(
            f"{route}: eigenvalue square sum {sum2} does not match trace of square {tr2}"
        )


def eigenvalues(m: HermitianMatrix) -> Spectrum:
    """All eigenvalues of ``m`` by LAPACK zheevd, sorted non-increasing.

    Deterministic for fixed input. A LAPACK failure to converge or a broken
    moment identity raises VerificationError.
    """
    try:
        d = np.linalg.eigvalsh(m.data)
    except np.linalg.LinAlgError as exc:
        raise VerificationError(f"zheevd: {exc}") from exc
    vals = d[::-1]
    _check_moments(m, vals, "zheevd")
    return Spectrum(values=tuple(vals.tolist()))


def oracle_eigenvalues(m: HermitianMatrix) -> Spectrum:
    """Eigenvalues via the real embedding, solved by LAPACK dgeev.

    dgeev does not assume symmetry, so it may return complex eigenvalues; an
    imaginary part above 1e-8 * ||m||_F raises VerificationError. The
    embedding doubles every eigenvalue; adjacent sorted values are paired and
    averaged, and a pair gap above the same tolerance raises
    VerificationError too. So does a LAPACK failure or a broken moment
    identity.
    """
    n = m.n
    x = m.data.real
    y = m.data.imag
    emb = np.empty((2 * n, 2 * n))
    emb[:n, :n] = x
    emb[:n, n:] = -y
    emb[n:, :n] = y
    emb[n:, n:] = x
    try:
        w = np.linalg.eigvals(emb)
    except np.linalg.LinAlgError as exc:
        raise VerificationError(f"dgeev: {exc}") from exc

    pair_tol = PAIR_RTOL * m.frobenius_norm()
    imag = float(np.max(np.abs(w.imag)))
    if imag > pair_tol:
        raise VerificationError(
            f"embedding eigenvalues are not real: largest imaginary part {imag} > {pair_tol}"
        )
    d = np.sort(w.real)
    gaps = d[1::2] - d[0::2]
    worst = float(np.max(np.abs(gaps))) if gaps.size else 0.0
    if worst > pair_tol:
        raise VerificationError(
            f"embedding eigenvalues do not pair: worst gap {worst} > {pair_tol}"
        )
    vals = ((d[0::2] + d[1::2]) / 2.0)[::-1]
    _check_moments(m, vals, "embedding")
    return Spectrum(values=tuple(vals.tolist()))


def spectral_radius(s: Spectrum) -> float:
    """Largest absolute eigenvalue."""
    return max(abs(s.mu_max), abs(s.mu_min))


def spread(s: Spectrum) -> float:
    """Largest minus smallest eigenvalue."""
    return s.mu_max - s.mu_min


def trace_norm(s: Spectrum) -> float:
    """Sum of absolute eigenvalues (the graph energy for adjacency-type matrices)."""
    return float(sum(abs(v) for v in s.values))
