"""Block upper-triangular Toeplitz machinery.

The space T(n_1,...,n_k) is the commutant of a direct sum of nilpotent
Jordan blocks; the leading-coefficient projection onto k x k matrices
preserves eigenvalue sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .matcore import RESID_TOL, asmat, direct_sum, f_mat, g_mat

__all__ = [
    "ToeplitzPartition",
    "is_block_toeplitz",
    "toeplitz_project",
    "toeplitz_coefficients",
    "random_toeplitz",
    "jordan_nilpotent",
    "pi_map",
]


@dataclass(frozen=True)
class ToeplitzPartition:
    sizes: tuple

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValueError("partition sizes must be positive")

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def k(self) -> int:
        return len(self.sizes)

    def offsets(self) -> list[int]:
        out = [0]
        for s in self.sizes:
            out.append(out[-1] + s)
        return out


def _fill_diagonal(out: np.ndarray, offset: int, value: float):
    ni, nj = out.shape
    for a in range(ni):
        b = a + offset
        if 0 <= b < nj:
            out[a, b] = value


def _block_project(B: np.ndarray) -> np.ndarray:
    """Projection of one block onto the upper-triangular Toeplitz shape."""
    ni, nj = B.shape
    out = np.zeros_like(B)
    base = max(0, nj - ni)  # column offset of the leading diagonal
    for s in range(min(ni, nj)):
        off = base + s
        vals = np.diagonal(B, offset=off)
        _fill_diagonal(out, off, float(vals.mean()))
    return out


def toeplitz_project(T, part: ToeplitzPartition) -> np.ndarray:
    """Nearest (Frobenius) member of T(n_1,...,n_k)."""
    a = asmat(T)
    if a.shape[0] != part.n:
        raise errors.OrderMismatch(f"order {a.shape[0]} != partition total {part.n}")
    out = np.zeros_like(a)
    off = part.offsets()
    for i in range(part.k):
        for j in range(part.k):
            blk = a[off[i] : off[i + 1], off[j] : off[j + 1]]
            out[off[i] : off[i + 1], off[j] : off[j + 1]] = _block_project(blk)
    return out


def is_block_toeplitz(T, part: ToeplitzPartition) -> bool:
    """True when every block is upper-triangular Toeplitz to within
    RESID_TOL * max(1, |T|_max)."""
    a = asmat(T)
    if a.shape[0] != part.n:
        raise errors.OrderMismatch(f"order {a.shape[0]} != partition total {part.n}")
    scale = max(1.0, float(np.max(np.abs(a))))
    return bool(np.max(np.abs(a - toeplitz_project(a, part))) <= RESID_TOL * scale)


def toeplitz_coefficients(T, part: ToeplitzPartition) -> dict:
    """Coefficients t^{(s)}_{i,j}, s = 1..min(n_i, n_j), of a T-member."""
    a = asmat(T)
    off = part.offsets()
    coeffs = {}
    for i in range(part.k):
        for j in range(part.k):
            blk = a[off[i] : off[i + 1], off[j] : off[j + 1]]
            base = max(0, part.sizes[j] - part.sizes[i])
            coeffs[(i, j)] = np.array(
                [blk[0, base + s] for s in range(min(part.sizes[i], part.sizes[j]))]
            )
    return coeffs


def random_toeplitz(part: ToeplitzPartition, rng) -> np.ndarray:
    """Random member of T(n_1,...,n_k) with standard normal coefficients."""
    out = np.zeros((part.n, part.n))
    off = part.offsets()
    for i in range(part.k):
        for j in range(part.k):
            ni, nj = part.sizes[i], part.sizes[j]
            base = max(0, nj - ni)
            blk = np.zeros((ni, nj))
            for s in range(min(ni, nj)):
                _fill_diagonal(blk, base + s, float(rng.standard_normal()))
            out[off[i] : off[i + 1], off[j] : off[j + 1]] = blk
    return out


def jordan_nilpotent(part: ToeplitzPartition) -> np.ndarray:
    """Block diagonal with one size-n_i nilpotent Jordan block each.

    A matrix commutes with this exactly when it lies in T(n_1,...,n_k).
    """
    return direct_sum(*(f_mat(s) @ g_mat(s) for s in part.sizes))


def pi_map(T, part: ToeplitzPartition) -> np.ndarray:
    """Leading-coefficient projection to a k x k matrix.

    Entry (i, j) is the leading Toeplitz coefficient when n_i = n_j and
    zero otherwise; the eigenvalue set is preserved.
    """
    a = asmat(T)
    if not is_block_toeplitz(a, part):
        raise errors.NotInT("matrix is not block upper-triangular Toeplitz")
    coeffs = toeplitz_coefficients(a, part)
    k = part.k
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if part.sizes[i] == part.sizes[j]:
                out[i, j] = coeffs[(i, j)][0]
    return out
