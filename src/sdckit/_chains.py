"""Canonicalization of real symmetric pencils with known real spectra.

Given symmetric A (invertible) and B with M = A^{-1}B nilpotent, builds
an invertible W with

    W^T A W = Diag(sigma_b F_{n_b}),   W^T B W = Diag(sigma_b G_{n_b}),

by extracting Jordan chains of M and normalizing their A-Grams, which
are block Hankel in the chain grading.  The real-spectrum wrapper
splits by eigenvalue cluster first.  This is the engine behind the
eigenvalue-splitting perturbations: in the canonical basis the
tridiagonal-Toeplitz trick turns each block's spectrum real and simple.
"""

from __future__ import annotations

import numpy as np

from . import errors
from ._pencil import certify_residuals, invariant_subspace, real_schur, spectral_scale
from .matcore import CLUSTER_TOL, EIG_REAL_TOL, RANK_TOL, direct_sum, f_mat, h_mat, jordan_pair

__all__ = [
    "DEFECT_CAP",
    "nilpotent_jordan_chains",
    "canonicalize_nilpotent_pair",
    "defect_clusters",
    "cluster_subspaces",
    "canonicalize_real_pencil",
    "splitting_perturbation",
]

# |Im| above which an eigenvalue is unambiguously complex; below this the
# imaginary part may be roundoff splitting of a defective real eigenvalue.
# Defective eigenvalues scatter by eps^(1/p), so defect_clusters merges
# anything closer than this (relative to the spectral scale).
DEFECT_CAP = 2e-3


def _null_basis(M: np.ndarray, cutoff: float) -> np.ndarray:
    u, s, vt = np.linalg.svd(M)
    rank = int(np.sum(s > cutoff))
    return vt[rank:].T


def nilpotent_jordan_chains(M: np.ndarray) -> list[list[np.ndarray]]:
    """Jordan chains of a (numerically) nilpotent matrix.

    Each chain is [v_1, ..., v_len] with M v_j = v_{j-1} and M v_1 = 0.
    Raises StructureMismatch when the kernel filtration is inconsistent.
    """
    n = M.shape[0]
    norm = max(1.0, np.linalg.norm(M, 2))
    # kernel filtration of M^p; the rank cutoff scales with |M|^p so a
    # numerically-zero power reads as zero even when its largest
    # singular value is roundoff noise
    kernels = [np.zeros((n, 0))]
    P = np.eye(n)
    dims = [0]
    for p in range(1, n + 1):
        P = P @ M
        kb = _null_basis(P, 1e-8 * norm**p)
        kernels.append(kb)
        dims.append(kb.shape[1])
        if dims[-1] == n:
            break
    if dims[-1] != n:
        raise errors.StructureMismatch("matrix is not numerically nilpotent")
    d = len(dims) - 1  # nilpotency index

    chains: list[list[np.ndarray]] = []
    for p in range(d, 0, -1):
        # existing chain vectors at height p span part of ker(M^p)
        existing = [c[p - 1] for c in chains if len(c) > p]
        removed = list(existing)
        if dims[p - 1] > 0:
            removed.extend(kernels[p - 1].T)
        Kp = kernels[p]
        if removed:
            Q, _ = np.linalg.qr(np.column_stack(removed))
            proj = Kp - Q @ (Q.T @ Kp)
        else:
            proj = Kp
        u, s, _ = np.linalg.svd(proj, full_matrices=False)
        count = int(np.sum(s > 1e-8 * max(1.0, s[0] if s.size else 0.0)))
        expected = (dims[p] - dims[p - 1]) - (
            (dims[p + 1] - dims[p]) if p < d else 0
        )
        if expected < 0:
            raise errors.StructureMismatch(
                f"inconsistent kernel filtration {dims}: "
                f"{expected} chains of length {p}"
            )
        if count < expected:
            raise errors.StructureMismatch(
                f"chain extraction at height {p}: found {count}, expected {expected}"
            )
        for t in range(expected):
            top = u[:, t]
            chain = [top]
            for _ in range(p - 1):
                chain.append(M @ chain[-1])
            chain.reverse()  # v_1 ... v_p with M v_1 ~ 0
            nrm = np.linalg.norm(chain[0])
            if nrm <= RANK_TOL * norm:
                raise errors.StructureMismatch("degenerate chain bottom")
            chain = [v / nrm for v in chain]
            chains.append(chain)
    chains.sort(key=lambda c: -len(c))
    return chains


def _hankel_grams(A, left: list[np.ndarray], right: list[np.ndarray]) -> np.ndarray:
    """s_m = left_i^T A right_j at i + j = m + 1 (0-indexed list of values)."""
    # Hankel means all (i, j) with equal i + j agree; average them
    vals = {}
    for i, u in enumerate(left, start=1):
        Au = A @ u
        for j, v in enumerate(right, start=1):
            m = i + j
            g = float(Au @ v)
            if m in vals:
                vals[m].append(g)
            else:
                vals[m] = [g]
    out = np.zeros(len(left) + len(right) + 1)
    for m, gs in vals.items():
        out[m] = float(np.mean(gs))
    return out


def canonicalize_nilpotent_pair(A: np.ndarray, B: np.ndarray):
    """Pair canonical form for A invertible symmetric, A^{-1}B nilpotent.

    Returns (W, blocks) with blocks a list of (sigma, size) in column
    order and W^T A W = Diag(sigma F), W^T B W = Diag(sigma G) up to the
    certified residual.
    """
    n = A.shape[0]
    M = np.linalg.solve(A, B)
    chains = nilpotent_jordan_chains(M)

    finalized: list[tuple[int, list[np.ndarray]]] = []  # (sigma, chain)
    i = 0
    while i < len(chains):
        eta = len(chains[i])
        group = [c for c in chains if len(c) == eta]
        i += len(group)

        # eliminate cross-Grams against longer, already normalized chains
        for sigma_u, u in finalized:
            L = len(u)
            for c in group:
                s = _hankel_grams(A, u, c)  # support m in [L+1, L+eta]
                coeff = [s[L + 1 + l] / sigma_u for l in range(eta)]
                for j in range(eta):
                    corr = np.zeros(n)
                    for l, cl in enumerate(coeff):
                        if 1 <= j + 1 - l <= L:
                            corr += cl * u[j - l]
                    c[j] = c[j] - corr

        # block Hankel H(s) of the group, coefficients h_p (k x k, sym)
        g = len(group)
        H = np.zeros((eta, g, g))
        for b in range(g):
            for c in range(b, g):
                s = _hankel_grams(A, group[b], group[c])
                for p in range(eta):
                    H[p, b, c] = s[eta + 1 + p]
                    H[p, c, b] = s[eta + 1 + p]
        lead = 0.5 * (H[0] + H[0].T)
        vals, vecs = np.linalg.eigh(lead)
        if np.min(np.abs(vals)) <= 1e-8 * max(1.0, np.max(np.abs(vals))):
            raise errors.StructureMismatch(
                "degenerate leading Hankel coefficient; pencil structure unstable"
            )
        order = np.argsort(-vals)  # +1 signs first, deterministic
        vals, vecs = vals[order], vecs[:, order]
        Q0 = vecs / np.sqrt(np.abs(vals))
        D = np.sign(vals)

        # order-by-order correction Q(s) = Q0 (I + C_1 s + ...)
        K = np.array([Q0.T @ H[p] @ Q0 for p in range(eta)])
        C = [np.eye(g)] + [np.zeros((g, g)) for _ in range(eta - 1)]
        for p in range(1, eta):
            R = np.zeros((g, g))
            for a in range(p + 1):
                for c2 in range(p + 1 - a):
                    b2 = p - a - c2
                    if (a, c2) in ((p, 0), (0, p)) and b2 == 0:
                        continue
                    Kb = np.diag(D) if b2 == 0 else K[b2]
                    R += C[a].T @ Kb @ C[c2]
            R = 0.5 * (R + R.T)
            C[p] = -0.5 * np.diag(D) @ R

        Q = [Q0 @ C[l] for l in range(eta)]
        new_chains = []
        for b in range(g):
            chain = []
            for j in range(eta):  # heights 1..eta (index j+1)
                v = np.zeros(n)
                for l in range(eta):
                    if j - l >= 0:
                        for c2 in range(g):
                            v += Q[l][c2, b] * group[c2][j - l]
                chain.append(v)
            new_chains.append(chain)
        for b in range(g):
            finalized.append((int(D[b]), new_chains[b]))

    cols = []
    blocks = []
    for sigma, chain in finalized:
        cols.extend(chain)
        blocks.append((sigma, len(chain)))
    # n columns: the chains of each height p number dims[p] - dims[p-1]
    # less those of height p + 1, which telescopes to dims[d] = n vectors
    W = np.column_stack(cols)
    certify_residuals(W.T, W, (A, B), jordan_pair([(s, z, 0.0) for s, z in blocks]),
                      1e-7, np.linalg.cond(W), "chain canonicalization")
    return W, blocks


def _complex_clusters(w: np.ndarray, radius: float) -> list[np.ndarray]:
    """Single-linkage clusters of complex values at the given radius."""
    n = len(w)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if abs(w[i] - w[j]) <= radius:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [np.array(g, dtype=int) for g in groups.values()]


def defect_clusters(M: np.ndarray, cap: float | None = None):
    """Eigenvalues w of M and their defect-aware clusters (index arrays).

    Single-linkage clustering in the complex plane at a radius of
    max(CLUSTER_TOL * diameter, DEFECT_CAP * spectral scale), wide enough
    to reabsorb the splitting of a defective eigenvalue; a caller that
    knows a smaller safe radius passes it as `cap`.
    """
    w = np.linalg.eigvals(M)
    scale = spectral_scale(w)
    diam = max(float(np.max(np.abs(w[:, None] - w[None, :]))), 1.0) if len(w) > 1 else 1.0
    radius = max(CLUSTER_TOL * diam, DEFECT_CAP * scale)
    if cap is not None:
        radius = min(radius, cap)
    return w, _complex_clusters(w, radius)


def cluster_subspaces(M: np.ndarray, w: np.ndarray, clusters):
    """Yield (theta, U) per cluster: the cluster's mean real part and an
    orthonormal basis of M's invariant subspace for it, taken from one
    real Schur form.  Lazy, so a caller's per-cluster work and errors
    keep their order."""
    form = real_schur(M)
    for idx in clusters:
        theta = float(np.mean(w[idx]).real)
        inside = np.zeros(len(w), dtype=bool)
        inside[idx] = True
        if inside.all():
            radius = np.inf
        else:
            # halfway to the nearest foreign eigenvalue: Schur re-estimates
            # of defective eigenvalues drift, so the spread alone is not a
            # safe selection radius
            dmin = float(np.min(np.abs(w[idx][:, None] - w[~inside][None, :])))
            radius = float(np.max(np.abs(w[idx] - theta))) + 0.45 * dmin
        U = invariant_subspace(form, theta, radius)
        if U.shape[1] != len(idx):
            raise errors.StructureMismatch(
                f"cluster at {theta}: subspace dimension {U.shape[1]} != {len(idx)}"
            )
        yield theta, U


def canonicalize_real_pencil(A: np.ndarray, B: np.ndarray,
                             cluster_radius: float | None = None):
    """Full type-1 canonical form of a real-spectrum nonsingular pencil.

    Returns (W, blocks) with blocks = [(sigma, size, theta)] and
    W^T A W = Diag(sigma F), W^T B W = Diag(sigma (theta F + G)).

    Eigenvalues of a defective pencil are computed with error on the
    order of eps^(1/p) for a size-p Jordan block, so clustering happens
    in the complex plane (defect_clusters, at most cluster_radius wide);
    conjugate-symmetric clusters with a real mean are treated as real
    Jordan clusters and everything is certified at the end.
    """
    M = np.linalg.solve(A, B)
    w, clusters = defect_clusters(M, cluster_radius)
    scale = spectral_scale(w)
    for idx in clusters:
        center = np.mean(w[idx])
        if abs(center.imag) > EIG_REAL_TOL * scale:
            raise errors.NotDiagonalizable(
                f"pencil spectrum is not real (cluster center {center})"
            )

    cols = []
    blocks = []
    for theta, U in cluster_subspaces(M, w, clusters):
        Ac = U.T @ A @ U
        Bc = U.T @ (B - theta * A) @ U
        Wc, blks = canonicalize_nilpotent_pair(0.5 * (Ac + Ac.T), 0.5 * (Bc + Bc.T))
        cols.append(U @ Wc)
        blocks.extend((sig, size, theta) for sig, size in blks)
    # square: the clusters partition the spectrum and each U has
    # len(idx) columns (cluster_subspaces)
    W = np.hstack(cols)
    certify_residuals(W.T, W, (A, B), jordan_pair(blocks), 1e-7, np.linalg.cond(W),
                      "real-pencil canonicalization")
    return W, blocks


def splitting_perturbation(blocks, eps: float) -> np.ndarray:
    """Canonical-coordinate perturbation making the spectrum real simple.

    For blocks [(sigma, size, theta)], returns Delta with
    Diag(sigma(theta F + G)) + Delta having real simple eigenvalues:
    within each block, +sigma*eps*H turns the restriction into a
    tridiagonal Toeplitz with spectrum theta + eta + 2 sqrt(eps) cos(.),
    and eta spreads blocks sharing a theta.
    """
    # group by shared eigenvalue for the eta shifts
    by_theta: dict[float, list[int]] = {}
    for i, (_, _, theta) in enumerate(blocks):
        by_theta.setdefault(round(theta, 12), []).append(i)
    etas = np.zeros(len(blocks))
    for group in by_theta.values():
        for j, i in enumerate(group):
            etas[i] = eps * j / (2.0 * len(group))
    parts = []
    for (sigma, size, _), eta in zip(blocks, etas):
        blk = np.zeros((size, size))
        if eta != 0.0:
            blk += eta * f_mat(size)
        if size > 1:
            blk += eps * h_mat(size)
        parts.append(sigma * blk)
    return direct_sum(*parts)
