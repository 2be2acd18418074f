"""Dense real symmetric matrix substrate.

The input gate every public entry point passes its matrices through,
special matrices, ranks, norms, commutators, direct sums, and the
fixed tolerances every other module reads.
"""

from __future__ import annotations

import math

import numpy as np

from . import errors

__all__ = [
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
    "jordan_pair",
    "asmat",
    "square_family",
    "form_family",
]

# The whole tolerance policy: six fixed constants, which no caller sets.

# Asymmetry accepted in a quadratic form, relative to max(1, |M|_max).
SYM_TOL = 1e-12

# Certification floor for invertibility: smin > INV_TOL * smax.
INV_TOL = 1e-12

# Numeric rank: singular values above RANK_TOL times the largest.
RANK_TOL = 1e-10

# An eigenvalue is real when |Im| <= EIG_REAL_TOL times the spectral scale.
EIG_REAL_TOL = 1e-8

# Relative residual accepted by the congruence, commutation, Toeplitz and
# LP-box certificates.
RESID_TOL = 1e-8

# Eigenvalue clustering threshold, relative to the size of the spectrum.
CLUSTER_TOL = 1e-7


def asmat(x) -> np.ndarray:
    """Return the dense ndarray behind a SymMat or array-like."""
    if isinstance(x, SymMat):
        return x.a
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise errors.OrderMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def _family(mats, symmetric: bool) -> list[np.ndarray]:
    """square_family's checks and, for quadratic forms, the symmetry
    test: asymmetry at most SYM_TOL * max(1, |M|_max)."""
    arrays = [asmat(m) for m in mats]
    if not arrays:
        raise errors.EmptyFamily("need at least one matrix")
    n = arrays[0].shape[0]
    if n == 0:
        raise errors.OrderMismatch("members have order 0")
    for i, a in enumerate(arrays):
        if a.shape[0] != n:
            raise errors.OrderMismatch(f"member {i} has order {a.shape[0]} != {n}")
        # max propagates a NaN, and an inf makes it inf
        amax = float(np.abs(a).max())
        if not math.isfinite(amax):
            raise errors.NonFiniteEntry(f"member {i} has a non-finite entry")
        if symmetric and not (a == a.T).all():
            scale = max(1.0, amax)
            asym = float(np.abs(a - a.T).max())
            if asym > SYM_TOL * scale:
                raise errors.AsymmetricMatrix(
                    f"asymmetry {asym:.3e} exceeds {SYM_TOL * scale:.3e}"
                )
    return arrays


def square_family(mats) -> list[np.ndarray]:
    """The input gate for a family of general matrices: at least one member,
    each a finite square float array, all of one order n >= 1.  Returns the
    members as asmat gives them, neither copied nor symmetrized."""
    return _family(mats, symmetric=False)


def form_family(mats) -> list[np.ndarray]:
    """The input gate for a family of quadratic forms: square_family's
    checks, and each member symmetric within SYM_TOL."""
    return _family(mats, symmetric=True)


class SymMat:
    """Dense real symmetric matrix with enforced symmetry.

    The stored form is exactly M/2 + M^T/2 of an M that passes
    form_family, which no finite entry overflows.
    """

    __slots__ = ("a", "n")

    def __init__(self, m):
        (m,) = form_family([m])
        a = 0.5 * m + 0.5 * m.T
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "n", a.shape[0])

    def __setattr__(self, *_):
        raise AttributeError("SymMat is immutable")


class Congruence:
    """Invertible change-of-basis matrix with cached condition number.

    Certified at construction: every entry must be finite and the
    smallest singular value must exceed INV_TOL times the largest.
    """

    __slots__ = ("P", "kappa", "_Pinv")

    def __init__(self, P):
        P = asmat(P)
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


def _singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of a matrix or of each matrix in a stack, naming a
    NaN or inf by NonFiniteEntry; the scan comes first, since LAPACK
    prints a complaint about such entries."""
    if not np.isfinite(a).all():
        raise errors.NonFiniteEntry("matrix has a non-finite entry")
    return np.linalg.svd(a, compute_uv=False)


def _numeric_ranks(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numeric_rank and 2-norm of each matrix in a (T, m, n) stack, from
    one batched SVD; an all-zero or empty matrix has rank 0, and an empty
    one norm 0."""
    s = _singular_values(stack)
    return np.sum(s > RANK_TOL * s[:, :1], axis=1), np.max(s, axis=1, initial=0.0)


def numeric_rank(M) -> int:
    """Number of singular values above RANK_TOL times the largest.

    M may be rectangular (m x n), as for a constraint matrix.
    """
    a = M.a if isinstance(M, SymMat) else np.asarray(M, dtype=float)
    if a.ndim != 2:
        raise errors.OrderMismatch(f"expected a matrix, got shape {a.shape}")
    return int(_numeric_ranks(a[None])[0][0])


def cond_number(P) -> float:
    """sigma_max / sigma_min, with +inf as the singular sentinel."""
    a = asmat(P)
    if a.size == 0:
        return 1.0
    s = _singular_values(a)
    if s[-1] <= INV_TOL * s[0] or s[0] == 0.0:
        return float("inf")
    return float(s[0] / s[-1])


def _distance(new, old) -> float:
    """max_i |new_i - old_i|_2: how far a perturbation moved a family,
    the quantity an epsilon budget bounds."""
    return max(float(np.linalg.norm(a - b, 2)) for a, b in zip(new, old))


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


def jordan_pair(blocks) -> tuple[np.ndarray, np.ndarray]:
    """(Diag(sigma F_n), Diag(sigma (theta F_n + G_n))) for blocks of
    (sigma, n, theta): the canonical pair of real Jordan blocks."""
    return (
        direct_sum(*(sigma * f_mat(n) for sigma, n, _ in blocks)),
        direct_sum(*(sigma * (theta * f_mat(n) + g_mat(n)) for sigma, n, theta in blocks)),
    )
