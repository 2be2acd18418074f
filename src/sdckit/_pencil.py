"""Internal helpers for real symmetric pencils.

Shared by the canonical-form, SDC, ASDC and RSDC modules: the
congruence-residual certificate, the pairwise commutation test,
eigenvalue clustering, invariant subspace extraction and the
column-sign convention.
Invariant subspaces come from one real Schur form per matrix, reordered
by LAPACK's trsen for each eigenvalue cluster, as a sorted Schur form
would be without refactoring the matrix for every cluster.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import errors
from .matcore import RESID_TOL, commutator

__all__ = [
    "certify_residuals",
    "noncommuting_pair",
    "spectral_scale",
    "cluster_values",
    "real_schur",
    "invariant_subspace",
    "fix_column_signs",
]


def certify_residuals(L, R, mats, targets, coef, kappa, what, norms=None,
                      error=errors.CertificationFailed, slack=1.0):
    """The products L M_i R, each certified against its target.

    A target of None stands for the product's own diagonal.  Raises
    `error`, naming the first failing member, when
    |L M_i R - target_i|_2 > coef * kappa^2 * max(1, |M_i|_2) * slack;
    `norms`, when given, holds the |M_i|_2 already computed by the caller.
    """
    if norms is None:
        norms = [np.linalg.norm(M, 2) for M in mats]
    products = []
    for i, (M, target) in enumerate(zip(mats, targets)):
        D = L @ M @ R
        resid = np.linalg.norm(D - (np.diag(np.diag(D)) if target is None else target), 2)
        bound = coef * kappa**2 * max(1.0, norms[i]) * slack
        if resid > bound:
            raise error(f"{what} residual {resid:.3e} for member {i} exceeds {bound:.3e}")
        products.append(D)
    return products


def noncommuting_pair(mats, factor: float = 1.0, norms=None):
    """First pair (i, j, |[M_i, M_j]|_2), i < j in lexicographic order,
    whose commutator exceeds factor * RESID_TOL * max(1, |M_i|_2 |M_j|_2);
    None when every pair commutes.  `norms`, when given, holds the
    |M_i|_2 already computed by the caller."""
    if norms is None:
        norms = [np.linalg.norm(M, 2) for M in mats]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            val = np.linalg.norm(commutator(mats[i], mats[j]), 2)
            scale = max(1.0, norms[i] * norms[j])
            if val > RESID_TOL * scale * factor:
                return i, j, val
    return None


def spectral_scale(w: np.ndarray) -> float:
    """max(1, largest |eigenvalue|) -- the scale for realness thresholds."""
    return max(1.0, float(np.max(np.abs(w))))


def cluster_values(values: np.ndarray, gap: float) -> list[np.ndarray]:
    """Group sorted real values into clusters separated by more than gap.

    Returns index arrays into the original (unsorted) input.
    """
    order = np.argsort(values)
    groups = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] <= gap:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return [np.array(g, dtype=int) for g in groups]


def real_schur(M: np.ndarray):
    """Real Schur form M = Z T Z^T as (T, Z, wr, wi), with the eigenvalues
    read off T's standardized blocks as LAPACK reports them: wr = diag T
    and wi = +-sqrt|T[i,i+1]| sqrt|T[i+1,i]| on a 2x2 block."""
    try:
        T, Z = scipy.linalg.schur(M, output="real")
    except np.linalg.LinAlgError as exc:
        raise errors.StructureMismatch(f"real Schur form failed: {exc}") from exc
    wr = np.diag(T)
    wi = np.zeros_like(wr)
    k = np.flatnonzero(np.diag(T, -1))
    wi[k] = np.sqrt(np.abs(T[k, k + 1])) * np.sqrt(np.abs(T[k + 1, k]))
    wi[k + 1] = -wi[k]
    return T, Z, wr, wi


def invariant_subspace(form, center: float, radius: float) -> np.ndarray:
    """Orthonormal basis of the invariant subspace for eigenvalues within
    radius of center, by reordering the real Schur form `form` (from
    real_schur) so that they lead."""
    T, Z, wr, wi = form
    select = [abs(complex(re, im) - center) <= radius for re, im in zip(wr, wi)]
    _, Zs, _, _, m, _, _, info = scipy.linalg.lapack.dtrsen(select, T, Z, job="N")
    if info != 0:
        raise errors.StructureMismatch(f"trsen info {info}: no reordering near {center}")
    if m == 0:
        raise errors.StructureMismatch(
            f"no eigenvalues within {radius:.3e} of {center}"
        )
    return Zs[:, :m]


def fix_column_signs(P: np.ndarray) -> np.ndarray:
    """P with every column negated whose largest-magnitude entry (the
    first, on ties) is negative."""
    rows = np.argmax(np.abs(P), axis=0)
    return np.where(P[rows, np.arange(P.shape[1])] < 0, -P, P)
