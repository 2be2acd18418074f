"""Dense real symmetric matrix substrate.

Special matrices, ranks, norms, commutators, direct sums, and the
tolerance policy threaded through every other module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "SymMat",
    "Congruence",
    "special_matrix",
    "f_mat",
    "g_mat",
    "h_mat",
    "commutator",
    "numeric_rank",
    "cond_number",
    "direct_sum",
    "asmat",
]

# Asymmetry accepted at SymMat construction, relative to max(1, |M|_max).
SYM_TOL = 1e-12

# Certification floor for invertibility: smin > INV_TOL * smax.
INV_TOL = 1e-12


@dataclass(frozen=True)
class Tolerances:
    """Floating-point interpretation of the exact-arithmetic statements.

    rank_tol      relative SVD cutoff for numeric rank
    eig_real_tol  imaginary-part threshold below which an eigenvalue
                  counts as real
    resid_tol     relative off-diagonal residual accepted in certificates
    cluster_tol   eigenvalue clustering threshold for eigenspace refinement
    """

    rank_tol: float = 1e-10
    eig_real_tol: float = 1e-8
    resid_tol: float = 1e-8
    cluster_tol: float = 1e-7

    def __post_init__(self):
        for name in ("rank_tol", "eig_real_tol", "resid_tol", "cluster_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")


DEFAULT_TOL = Tolerances()


def asmat(x) -> np.ndarray:
    """Return the dense ndarray behind a SymMat or array-like."""
    if isinstance(x, SymMat):
        return x.a
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise errors.OrderMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


class SymMat:
    """Dense real symmetric matrix with enforced symmetry.

    The stored form is exactly (M + M^T)/2; construction rejects inputs
    whose asymmetry exceeds SYM_TOL relative to max(1, |M|_max).
    """

    __slots__ = ("a", "n")

    def __init__(self, m):
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise errors.OrderMismatch(f"expected a square matrix, got shape {m.shape}")
        scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
        asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
        if asym > SYM_TOL * scale:
            raise errors.AsymmetricMatrix(
                f"asymmetry {asym:.3e} exceeds {SYM_TOL * scale:.3e}"
            )
        a = 0.5 * (m + m.T)
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "n", a.shape[0])

    def __setattr__(self, *_):
        raise AttributeError("SymMat is immutable")

    @classmethod
    def zeros(cls, n: int) -> "SymMat":
        return cls(np.zeros((n, n)))

    @classmethod
    def identity(cls, n: int) -> "SymMat":
        return cls(np.eye(n))

    def norm(self) -> float:
        """Spectral norm."""
        return float(np.linalg.norm(self.a, 2))

    def __repr__(self):
        return f"SymMat(n={self.n})"

    def __eq__(self, other):
        if not isinstance(other, SymMat):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.a, other.a)

    def __hash__(self):
        return hash((self.n, self.a.tobytes()))


class Congruence:
    """Invertible change-of-basis matrix with cached condition number.

    Certified at construction: every entry must be finite and the
    smallest singular value must exceed INV_TOL times the largest.
    """

    __slots__ = ("P", "kappa", "_Pinv")

    def __init__(self, P):
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise errors.OrderMismatch(f"expected a square matrix, got shape {P.shape}")
        if not np.all(np.isfinite(P)):
            raise errors.SingularCongruence("congruence has a non-finite entry")
        s = np.linalg.svd(P, compute_uv=False)
        smax = float(s[0]) if s.size else 0.0
        smin = float(s[-1]) if s.size else 0.0
        if smin <= INV_TOL * smax or smax == 0.0:
            raise errors.SingularCongruence(
                f"singular values span [{smin:.3e}, {smax:.3e}]"
            )
        P = P.copy()
        P.flags.writeable = False
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "kappa", smax / smin)
        object.__setattr__(self, "_Pinv", None)

    def __setattr__(self, *_):
        raise AttributeError("Congruence is immutable")

    @property
    def n(self) -> int:
        return self.P.shape[0]

    def inv(self) -> np.ndarray:
        """Cached inverse of P."""
        if self._Pinv is None:
            object.__setattr__(self, "_Pinv", np.linalg.inv(self.P))
        return self._Pinv

    def apply(self, A) -> np.ndarray:
        """Congruence transform P^T A P."""
        a = asmat(A)
        return self.P.T @ a @ self.P

    def __repr__(self):
        return f"Congruence(n={self.n}, kappa={self.kappa:.3e})"


def f_mat(n: int) -> np.ndarray:
    """Anti-diagonal ones: entries at i + j = n + 1 (1-indexed)."""
    if n < 1:
        raise ValueError("order must be at least 1")
    return np.eye(n)[::-1].copy()


def g_mat(n: int) -> np.ndarray:
    """Ones on the anti-diagonal shifted down-right: i + j = n + 2."""
    if n < 1:
        raise ValueError("order must be at least 1")
    g = np.zeros((n, n))
    for i in range(1, n):
        g[i, n - i] = 1.0
    return g


def h_mat(n: int) -> np.ndarray:
    """Ones on the anti-diagonal shifted up-left: i + j = n."""
    if n < 1:
        raise ValueError("order must be at least 1")
    h = np.zeros((n, n))
    for i in range(n - 1):
        h[i, n - 2 - i] = 1.0
    return h


_SPECIAL = {"F": f_mat, "G": g_mat, "H": h_mat}


def special_matrix(kind: str, n: int) -> SymMat:
    """One of the three special patterns F_n, G_n, H_n.

    F_1 = (1) and G_1 = H_1 = (0); F_n squares to the identity.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    try:
        build = _SPECIAL[kind]
    except KeyError:
        raise ValueError(f"kind must be one of F, G, H, got {kind!r}") from None
    return SymMat(build(n))


def commutator(A, B) -> np.ndarray:
    """AB - BA for equal-order square matrices."""
    a, b = asmat(A), asmat(B)
    if a.shape != b.shape:
        raise errors.OrderMismatch(f"orders {a.shape[0]} and {b.shape[0]} differ")
    return a @ b - b @ a


def numeric_rank(M, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of singular values above rank_tol times the largest.

    M may be rectangular (m x n), as for a constraint matrix.
    """
    a = M.a if isinstance(M, SymMat) else np.asarray(M, dtype=float)
    if a.ndim != 2:
        raise errors.OrderMismatch(f"expected a matrix, got shape {a.shape}")
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol.rank_tol * s[0]))


def cond_number(P) -> float:
    """sigma_max / sigma_min, with +inf as the singular sentinel."""
    a = asmat(P)
    if a.size == 0:
        return 1.0
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= INV_TOL * s[0] or s[0] == 0.0:
        return float("inf")
    return float(s[0] / s[-1])


def _dot2(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A @ B as an unevaluated sum hi + lo from three double BLAS
    products, each entry within about k 2^-75 max|a_i| max|b_j| of the
    exact value (k the inner dimension) unless lo underflows.

    Each row of A and each column of B is scaled by a power of two so
    that its largest entry lies in [0.5, 1), which is exact and keeps the
    split from overflowing.  Splitting with sigma = 2^beta, beta =
    ceil((53 + log2 k) / 2), leaves leading parts A1, B1 on a grid so
    coarse that A1 @ B1 is exact in any summation order (Ozaki, Ogita,
    Oishi & Rump, 2012); the two products with a tail carry the rest,
    and one TwoSum joins the exact part to them.
    """
    k = A.shape[1]
    ea = np.frexp(np.max(np.abs(A), axis=1, initial=0.0))[1][:, None]
    eb = np.frexp(np.max(np.abs(B), axis=0, initial=0.0))[1][None, :]
    As, Bs = A * np.ldexp(1.0, -ea), B * np.ldexp(1.0, -eb)
    sigma = 2.0 ** math.ceil((53 + math.log2(max(k, 1))) / 2)
    A1 = As + sigma
    A1 -= sigma
    B1 = Bs + sigma
    B1 -= sigma
    # in place from here on, since at the refinement's orders every
    # fresh temporary costs page faults; As and Bs become the tails
    As -= A1
    t = As @ Bs
    Bs -= B1
    t += A1 @ Bs
    h = A1 @ B1
    # TwoSum: hi + lo == h + t exactly
    hi = h + t
    z = hi - h
    lo = hi - z
    np.subtract(h, lo, out=lo)
    t -= z
    lo += t
    f = np.ldexp(1.0, ea + eb)
    hi *= f
    lo *= f
    return hi, lo


def direct_sum(*mats) -> np.ndarray:
    """Block-diagonal stack of square matrices."""
    arrays = [asmat(m) for m in mats]
    n = sum(a.shape[0] for a in arrays)
    out = np.zeros((n, n))
    pos = 0
    for a in arrays:
        d = a.shape[0]
        out[pos : pos + d, pos : pos + d] = a
        pos += d
    return out
