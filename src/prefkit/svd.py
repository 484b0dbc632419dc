"""Dense singular value decomposition with a deterministic sign convention.

The factorization itself is delegated to LAPACK via numpy; on top of it this
module pins a sign convention that makes the factors unique whenever the
singular values are distinct: in each left-singular column the entry of
largest absolute value is made non-negative (ties resolved by the lowest row
index), and the matching right-singular row flips jointly.  Downstream
sign-pattern clustering depends on this determinism.

A matrix with repeated rows can be factored from its distinct rows and their
multiplicities: scaling distinct row j by sqrt(w_j) keeps A^T A, so sigma and
vt are those of the full matrix, and dividing the left factor by sqrt(w_j)
again gives the row of u that each copy of row j carries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankOutOfRangeError


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Thin SVD a = u @ diag(sigma) @ vt with p columns: min(n, m), or a truncation's rank.

    u is n x p with orthonormal columns, sigma is non-increasing and
    non-negative, vt is p x m with orthonormal rows.  A weighted call's u has
    one row per given row, orthonormal once row i counts ``weights[i]`` times.
    """

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray

    @property
    def p(self) -> int:
        return self.sigma.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.vt


def _fix_signs(u: np.ndarray, vt: np.ndarray) -> None:
    for j in range(u.shape[1]):
        anchor = int(np.argmax(np.abs(u[:, j])))
        if u[anchor, j] < 0:
            u[:, j] = -u[:, j]
            vt[j, :] = -vt[j, :]


def svd(a: np.ndarray, weights: np.ndarray | None = None) -> SvdFactors:
    """Factor the matrix in which row i of the real n x m ``a`` appears ``weights[i]`` times (default once).

    Deterministic for a given input.  There are min(sum(weights), m)
    triplets; any past min(n, m) have sigma 0 and a zero column of u.
    Raises ValueError on non-finite entries and on weights that are not one
    positive integer per row; numpy raises LinAlgError if the underlying
    iteration fails to converge.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError("input must be a non-empty 2-d matrix")
    if not np.isfinite(a).all():
        raise ValueError("input entries must be finite")
    n, m = a.shape
    w = np.ones(n, dtype=np.int64) if weights is None else np.asarray(weights)
    if w.shape != (n,):
        raise ValueError(f"weights must hold one multiplicity per row: got shape {w.shape} for {n} rows")
    if w.dtype.kind not in "iu" or (w < 1).any():
        raise ValueError("weights must be positive integers")
    root = np.sqrt(w.astype(np.float64))[:, None]
    p = min(int(w.sum()), m)
    u, sigma, vt = np.linalg.svd(a * root, full_matrices=p > min(n, m))
    if p > len(sigma):  # fewer given rows than triplets: the rest have sigma 0
        u = np.hstack([u, np.zeros((n, p - len(sigma)))])
        sigma = np.r_[sigma, np.zeros(p - len(sigma))]
    u = u / root
    vt = np.ascontiguousarray(vt[:p])
    _fix_signs(u, vt)
    for arr in (u, sigma, vt):
        arr.flags.writeable = False
    return SvdFactors(u=u, sigma=sigma, vt=vt)


def truncate(factors: SvdFactors, rank: int) -> SvdFactors:
    """Keep the leading ``rank`` triplets (exact prefix slices); ``p`` is the rank."""
    if not 1 <= rank <= factors.p:
        raise RankOutOfRangeError(f"rank must lie in 1..{factors.p}, got {rank}")
    return SvdFactors(
        u=factors.u[:, :rank],
        sigma=factors.sigma[:rank],
        vt=factors.vt[:rank, :],
    )
