"""Canonical form of a real symmetric pencil.

For a pair (A, B) with A invertible and A^{-1}B having simple
eigenvalues, the pair is congruent to

    P^T A P = Diag(sigma_1, ..., sigma_r, F_2, ..., F_2)
    P^T B P = Diag(sigma_1 mu_1, ..., sigma_r mu_r, T_1, ..., T_k)

where T_i = [[Im l_i, Re l_i], [Re l_i, -Im l_i]] for the complex
eigenvalue pairs l_i.  General (possibly singular, Jordan) structure is
available only through exact BlockSpec descriptors, never inferred from
floating-point input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import errors
from ._pencil import certify_residuals, fix_column_signs, norm2_upper, spectral_scale
from .matcore import (
    CLUSTER_TOL,
    EIG_REAL_TOL,
    RANK_TOL,
    RESID_TOL,
    Congruence,
    SymMat,
    _numeric_ranks,
    direct_sum,
    f_mat,
    form_family,
    g_mat,
    jordan_pair,
)

__all__ = [
    "PencilForm",
    "Block",
    "BlockSpec",
    "pencil_canonical",
    "assemble_pencil",
    "assemble_blocks",
    "tmat",
]


def tmat(lam: complex) -> np.ndarray:
    """The 2x2 symmetric carrier of a complex eigenvalue pair."""
    return np.array([[lam.imag, lam.real], [lam.real, -lam.imag]])


@dataclass(frozen=True)
class PencilForm:
    """Generic canonical description of a simple-eigenvalue pencil.

    real_blocks holds (sigma, mu) pairs; complex_blocks holds the
    eigenvalues with positive imaginary part.  r + 2k equals the order.
    """

    P: Congruence
    real_blocks: tuple = ()
    complex_blocks: tuple = ()

    @property
    def r(self) -> int:
        return len(self.real_blocks)

    @property
    def k(self) -> int:
        return len(self.complex_blocks)

    @property
    def n(self) -> int:
        return self.r + 2 * self.k

    def __post_init__(self):
        if self.P.n != self.n:
            raise errors.OrderMismatch(
                f"congruence order {self.P.n} != r + 2k = {self.n}"
            )
        mus = [mu for _, mu in self.real_blocks]
        if len(set(mus)) != len(mus):
            raise errors.RepeatedEigenvalues("real eigenvalues must be distinct")
        lams = list(self.complex_blocks)
        if len(set(lams)) != len(lams):
            raise errors.RepeatedEigenvalues("complex eigenvalues must be distinct")
        for lam in lams:
            if not lam.imag > 0:
                raise ValueError(f"complex block {lam} must have Im > 0")

    def canonical_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """The target block matrices D_A, D_B of the form."""
        a_blocks = [np.array([[float(s)]]) for s, _ in self.real_blocks]
        a_blocks += [f_mat(2) for _ in self.complex_blocks]
        b_blocks = [np.array([[s * mu]]) for s, mu in self.real_blocks]
        b_blocks += [tmat(lam) for lam in self.complex_blocks]
        return direct_sum(*a_blocks), direct_sum(*b_blocks)


@dataclass(frozen=True)
class Block:
    """Tagged canonical block descriptor (types 1-4).

    type 1: (sigma F_n, sigma(lam F_n + G_n)), lam real
    type 2: (F_2n, F_n x T(lam) + G_n x F_2), lam non-real
    type 3: F-bordered zero block of size 2n+1 against G_{2n+1}
    type 4: joint zero block of size n
    """

    type: int
    size: int
    sigma: int = 1
    lam: complex = 0.0

    def __post_init__(self):
        if self.type not in (1, 2, 3, 4):
            raise ValueError(f"block type must be 1..4, got {self.type}")
        if self.size < 1:
            raise ValueError("block size must be at least 1")
        if self.type == 1 and self.sigma not in (-1, 1):
            raise ValueError("type 1 block needs sigma in {-1, +1}")
        if self.type == 2 and self.lam.imag == 0:
            raise ValueError("type 2 block needs a non-real eigenvalue")

    @property
    def order(self) -> int:
        """Number of coordinates the block occupies."""
        if self.type == 2:
            return 2 * self.size
        if self.type == 3:
            return 2 * self.size + 1
        return self.size


@dataclass(frozen=True)
class BlockSpec:
    """Exact full canonical descriptor: an ordered list of blocks.

    At most one type 4 block is allowed.
    """

    blocks: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if sum(1 for b in self.blocks if b.type == 4) > 1:
            raise ValueError("at most one type 4 block is allowed")

    @property
    def n(self) -> int:
        return sum(b.order for b in self.blocks)

    def is_singular(self) -> bool:
        """True when the described pair spans no invertible matrix."""
        return any(b.type in (3, 4) for b in self.blocks)

    def to_json(self) -> str:
        items = []
        for b in self.blocks:
            items.append(
                {
                    "type": b.type,
                    "sigma": b.sigma,
                    "lambda": [b.lam.real, b.lam.imag],
                    "size": b.size,
                }
            )
        return json.dumps(items)

    @classmethod
    def from_json(cls, text: str) -> "BlockSpec":
        items = json.loads(text)
        blocks = []
        for it in items:
            lam = complex(*it.get("lambda", [0.0, 0.0]))
            blocks.append(
                Block(
                    type=int(it["type"]),
                    size=int(it["size"]),
                    sigma=int(it.get("sigma", 1)),
                    lam=lam,
                )
            )
        return cls(tuple(blocks))


def _normalize_real_vector(A: np.ndarray, anorm: float, v: np.ndarray):
    """Scale v so v^T A v = +-1, where anorm = |A|_2; returns (v, sigma)."""
    t = float(v @ A @ v)
    if abs(t) <= RANK_TOL * max(1.0, anorm) * float(v @ v):
        raise errors.CertificationFailed("degenerate A-norm of a real eigenvector")
    return v / np.sqrt(abs(t)), int(np.sign(t))


def _normalize_complex_pair(A: np.ndarray, anorm: float, u: np.ndarray):
    """Real 2-column basis W with W^T A W = F_2 for eigenvector u of lam,
    where anorm = |A|_2.

    Works in the commutant of the rotation block so the B-side lands on
    T(lam) automatically.
    """
    # ui sign flipped so the invariant-subspace representation of A^{-1}B
    # matches F_2^{-1} T(lam)
    W = np.column_stack([u.real, -u.imag])
    aloc = W.T @ A @ W
    aloc = 0.5 * (aloc + aloc.T)
    # aloc is traceless on a complex-pair subspace; its (F_2, diag(1,-1))
    # components transform as multiplication by c^2 under the commutant
    v = aloc[0, 1]
    w = 0.5 * (aloc[0, 0] - aloc[1, 1])
    zeta = complex(v, w)
    # |W|_2 <= norm2_upper(W): a Gram above that scale needs no SVD
    if not abs(zeta) > RANK_TOL * (max(1.0, anorm) * norm2_upper(W) ** 2):
        scale = max(1.0, anorm) * float(np.linalg.norm(W, 2) ** 2)
        if abs(zeta) <= RANK_TOL * scale:
            raise errors.CertificationFailed("degenerate local Gram of a complex pair")
    c = 1.0 / np.sqrt(zeta)
    C = np.array([[c.real, -c.imag], [c.imag, c.real]])
    return W @ C


def pencil_canonical(A, B) -> PencilForm:
    """Canonical form of (A, B) with A invertible, simple eigenvalues.

    Eigenvalues of A^{-1}B with |Im| below EIG_REAL_TOL (relative to the
    spectral scale) are classified real; a refusal band one decade wide
    raises ClassificationAmbiguous rather than guessing.
    """
    a, b = form_family([A, B])
    # the rank test's SVD also gives |a|_2
    (rank,), (anorm,) = _numeric_ranks(a[None])
    if rank < len(a):
        raise errors.SingularA("leading matrix is not certified invertible")
    M = np.linalg.solve(a, b)
    w, V = np.linalg.eig(M)

    # classification first: an eigenvalue in the refusal band is reported
    # as ambiguous rather than as a repeated conjugate pair
    scale = spectral_scale(w)
    thr = EIG_REAL_TOL * scale
    real_cols = []
    complex_cols = []
    for i, lam in enumerate(w):
        im = abs(lam.imag)
        if im <= thr:
            real_cols.append((lam.real, i))
        elif im < 10.0 * thr:
            raise errors.ClassificationAmbiguous(
                f"eigenvalue {lam} has |Im| inside the refusal band "
                f"({thr:.3e}, {10 * thr:.3e})"
            )
        elif lam.imag > 0:
            complex_cols.append((complex(lam), i))

    # simple-eigenvalue precondition: all pairwise gaps above threshold;
    # the message names the first offending pair in (real, imag) order
    gap_thr = CLUSTER_TOL * scale
    ws = w[np.lexsort((w.imag, w.real))]
    near = np.triu(np.abs(ws[:, None] - ws[None, :]) <= gap_thr, 1)
    if near.any():
        i, j = np.argwhere(near)[0]
        raise errors.RepeatedEigenvalues(
            f"eigenvalues {ws[i]} and {ws[j]} are closer than {gap_thr:.3e}"
        )

    real_cols.sort(key=lambda t: t[0])
    complex_cols.sort(key=lambda t: (t[0].real, t[0].imag))

    real_blocks = []
    real_vecs = []
    for mu, i in real_cols:
        v, sigma = _normalize_real_vector(a, anorm, V[:, i].real.copy())
        real_vecs.append(v)
        real_blocks.append((sigma, float(mu)))
    cols = [fix_column_signs(np.column_stack(real_vecs))] if real_vecs else []
    complex_blocks = []
    for lam, i in complex_cols:
        cols.append(_normalize_complex_pair(a, anorm, V[:, i]))
        complex_blocks.append(lam)

    P = np.hstack(cols)
    form = PencilForm(
        P=Congruence(P),
        real_blocks=tuple(real_blocks),
        complex_blocks=tuple(complex_blocks),
    )
    certify_residuals(form.P.P.T, form.P.P, (a, b), form.canonical_matrices(), RESID_TOL,
                      form.P.kappa, "canonical", norms=(anorm, None))
    return form


def assemble_pencil(form: PencilForm) -> tuple[SymMat, SymMat]:
    """Inverse of pencil_canonical: rebuild (A, B) from a form."""
    da, db = form.canonical_matrices()
    Pinv = form.P.inv()
    A = Pinv.T @ da @ Pinv
    B = Pinv.T @ db @ Pinv
    return SymMat(0.5 * (A + A.T)), SymMat(0.5 * (B + B.T))


def _block_matrices(block: Block) -> tuple[np.ndarray, np.ndarray]:
    n = block.size
    if block.type == 1:
        return jordan_pair([(float(block.sigma), n, block.lam.real)])
    if block.type == 2:
        S = f_mat(2 * n)
        T = np.kron(f_mat(n), tmat(block.lam)) + np.kron(g_mat(n), f_mat(2))
        return S, T
    if block.type == 3:
        m = 2 * n + 1
        S = np.zeros((m, m))
        S[:n, n + 1 :] = f_mat(n)
        S[n + 1 :, :n] = f_mat(n)
        return S, g_mat(m)
    return np.zeros((n, n)), np.zeros((n, n))


def assemble_blocks(spec: BlockSpec) -> tuple[SymMat, SymMat]:
    """Exact dense matrices of a canonical block descriptor."""
    pairs = [_block_matrices(b) for b in spec.blocks]
    S = direct_sum(*(p[0] for p in pairs))
    T = direct_sum(*(p[1] for p in pairs))
    return SymMat(S), SymMat(T)
