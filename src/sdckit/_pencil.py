"""Internal helpers for real symmetric pencils.

Shared by the canonical-form, SDC, ASDC and RSDC modules: the
congruence-residual certificate, the pairwise commutation test, the
2-norm test every certificate makes, eigenvalue clustering, invariant
subspace extraction and the column-sign convention.
Invariant subspaces come from one real Schur form per matrix, reordered
by LAPACK's trsen for each eigenvalue cluster, as a sorted Schur form
would be without refactoring the matrix for every cluster.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from . import errors
from .matcore import RESID_TOL, commutator

__all__ = [
    "certify_residuals",
    "noncommuting_pair",
    "norm2_exceeds",
    "norm2_upper",
    "spectral_scale",
    "cluster_values",
    "real_schur",
    "invariant_subspace",
    "fix_column_signs",
]

# The O(n^2) bounds are trusted only while every square they sum lies
# above 2^-800, where underflow costs nothing their slack does not cover.
_TINY = 2.0**-400


def _slack(X: np.ndarray) -> float:
    """Relative slack 8 N eps of the bounds of an N-entry matrix, at least
    8 n eps for order n: it covers the rounding of their sums of squares
    and the backward error of the SVD they stand in for, each of order
    N eps (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 2002, section 3.1 and theorem 19.4)."""
    return 8 * X.size * np.finfo(float).eps


def norm2_upper(X: np.ndarray) -> float:
    """An upper bound of np.linalg.norm(X, 2) in O(N): |X|_F widened by
    _slack, 0.0 for a zero X, and nan -- which decides no test -- when the
    bound could have under- or overflowed or X has a non-finite entry."""
    f = math.sqrt(float(np.vdot(X, X)))
    if _TINY <= f < math.inf:
        return f * (1 + _slack(X))
    return 0.0 if f == 0.0 and not X.any() else math.nan


def _norm2_lower(X: np.ndarray) -> float | None:
    """A lower bound of np.linalg.norm(X, 2) in O(N): the largest column
    2-norm narrowed by _slack, 0.0 when that could have underflowed, and
    None when it overflowed or X has a non-finite entry."""
    c = math.sqrt(float(np.max(np.einsum("ij,ij->j", X, X))))
    if not c < math.inf:
        return None
    return c * (1 - _slack(X)) if c >= _TINY else 0.0


def norm2_exceeds(X, bound, *mats):
    """Decide |X|_2 > bound(|M_1|_2, ...), the test a certificate makes:
    None when it does not hold, else the pair (|X|_2, bound(...)).

    Each M is a matrix or its 2-norm already computed, and bound must be
    nondecreasing in each argument.  Since max_j |M e_j|_2 <= |M|_2 <=
    |M|_F, the test first tries |X|_F against the bound of the largest
    column norms, each widened by _slack, which makes a pass there one
    the SVD test also passes.  Only when that cannot decide do the SVD
    2-norms np.linalg.norm(., 2) decide, so the decision, and the values
    returned when it fails, are those of the SVD test.
    """
    known = [isinstance(M, float) for M in mats]
    lows = [M if k else _norm2_lower(M) for M, k in zip(mats, known)]
    if None not in lows and norm2_upper(X) <= bound(*lows):
        return None
    val = np.linalg.norm(X, 2)
    cap = bound(*(M if k else np.linalg.norm(M, 2) for M, k in zip(mats, known)))
    return (val, cap) if val > cap else None


def certify_residuals(L, R, mats, targets, coef, kappa, what, norms=None,
                      error=errors.CertificationFailed):
    """The products L M_i R, each certified against its target.

    A target of None stands for the product's own diagonal.  Raises
    `error`, naming the first failing member, when
    |L M_i R - target_i|_2 > coef * kappa^2 * max(1, |M_i|_2),
    decided by norm2_exceeds, so that the message holds the SVD norms.
    `norms`, when given, holds for each member its exact |M_i|_2 or None.
    """
    products = []
    for i, (M, target) in enumerate(zip(mats, targets)):
        D = L @ M @ R
        over = norm2_exceeds(
            D - (np.diag(np.diag(D)) if target is None else target),
            lambda m: coef * kappa**2 * max(1.0, m),
            M if norms is None or norms[i] is None else norms[i],
        )
        if over is not None:
            raise error(f"{what} residual {over[0]:.3e} for member {i} exceeds {over[1]:.3e}")
        products.append(D)
    return products


def noncommuting_pair(mats, factor: float = 1.0):
    """First pair (i, j, |[M_i, M_j]|_2), i < j in lexicographic order,
    whose commutator exceeds factor * RESID_TOL * max(1, |M_i|_2 |M_j|_2),
    decided by norm2_exceeds; None when every pair commutes."""
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            over = norm2_exceeds(commutator(mats[i], mats[j]),
                                 lambda a, b: RESID_TOL * max(1.0, a * b) * factor,
                                 mats[i], mats[j])
            if over is not None:
                return i, j, over[0]
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
