"""Decide simultaneous diagonalizability via congruence (SDC).

Covers nonsingular and singular families.  A family is SDC when one
invertible P makes every P^T A_i P diagonal; the certified verdict
carries either the congruence and diagonals or a named witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from . import errors
from ._pencil import (
    certify_residuals,
    cluster_values,
    fix_column_signs,
    invariant_subspace,
    noncommuting_pair,
    norm2_exceeds,
    real_schur,
    spectral_scale,
)
from .matcore import (
    CLUSTER_TOL,
    EIG_REAL_TOL,
    RANK_TOL,
    RESID_TOL,
    Congruence,
    SymMat,
    _numeric_ranks,
    form_family,
    numeric_rank,
    square_family,
)

__all__ = [
    "Witness",
    "SdcResult",
    "span_candidates",
    "find_max_rank_element",
    "sdc_check",
    "sdc_check_pd",
    "simdiag_commuting",
]

MAX_RANK_TRIALS = 64


@dataclass(frozen=True)
class Witness:
    """Named reason a family is not SDC.

    kind is one of "non-commuting", "non-real-eigenvalue",
    "not-diagonalizable", "range-violation"; i/j are indices into the
    family and value carries the offending magnitude or eigenvalue.  A
    not-diagonalizable witness with i = -1 means that no single member
    fails on its own.
    """

    kind: str
    i: int = -1
    j: int = -1
    value: complex = 0.0


@dataclass(frozen=True)
class SdcResult:
    """A verdict: "SDC" with a congruence P that passed _certified's
    off-diagonal certificate and diagonals[i] = diag(P^T A_i P) of that P."""

    verdict: str  # "SDC" | "NotSDC"
    congruence: Congruence | None = None
    diagonals: tuple | None = None
    witness: Witness | None = None

    @property
    def is_sdc(self) -> bool:
        return self.verdict == "SDC"


def span_candidates(m: int, seed: int = 0):
    """Coefficient vectors for searching the span of m matrices: each
    member alone, then standard normal draws from default_rng(seed)."""
    for i in range(m):
        c = np.zeros(m)
        c[i] = 1.0
        yield c
    rng = np.random.default_rng(seed)
    while True:
        yield rng.standard_normal(m)


class Pivot(NamedTuple):
    """A max-rank element S = sum coeffs[i] M_i of a family's span."""

    coeffs: np.ndarray
    S: np.ndarray  # symmetrized and read-only
    rank: int  # numeric_rank(S)
    drop: int  # argmax |coeffs|, the first on ties: the member S replaces


def find_max_rank_element(family, seed: int = 0):
    """Seeded search for a max-rank element of the span.

    Tries each family member plus MAX_RANK_TRIALS random combinations;
    generic coefficients attain the true maximum rank.  The members are
    ranked one at a time and the random combinations in stacked SVDs
    (see pivot).  Returns (coefficients, S).  A family of zero matrices
    yields rank 0, which is not an error; an empty family is.
    """
    coeffs, S, _, _ = pivot(form_family(family), seed)
    return coeffs, SymMat(S)


# The random tail is ranked in stacks of at most this many entries
# (128 KB): all 64 candidates at n <= 16 and few at large n, where a stack
# buys nothing.  On one Xeon core with one BLAS thread, 64 SVDs of order
# 10 took 1.00 ms looped and 0.61 ms stacked, of order 80 31 ms either way.
_STACK_ENTRIES = 2**14


def pivot(mats, seed: int = 0) -> Pivot:
    """find_max_rank_element of checked forms, run once per call and shared
    by its consumers: the first span candidate of maximal numeric rank,
    the walk stopping at a full-rank one.

    Each member costs one SVD, so an invertible first member costs one;
    the MAX_RANK_TRIALS random combinations are summed as the members
    are, 0 + c0*A0 + c1*A1 + ..., and ranked by one batched SVD per chunk
    of at most _STACK_ENTRIES entries.  A combination that overflows
    raises NonFiniteEntry unless a full-rank candidate precedes it.
    """
    n = mats[0].shape[0]
    m = len(mats)
    cands = span_candidates(m, seed)
    best_rank = -1
    for c in islice(cands, m):
        S = sum(ci * Ai for ci, Ai in zip(c, mats))
        r = numeric_rank(S)
        if r > best_rank:
            best_rank, best_c, best_S = r, c, S
        if best_rank == n:
            break
    left = MAX_RANK_TRIALS
    while best_rank < n and left:
        rows = list(islice(cands, min(left, max(1, _STACK_ENTRIES // n**2))))
        left -= len(rows)
        C = np.array(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            stack = sum(C[:, i, None, None] * Ai for i, Ai in enumerate(mats))
        # the walk ranks candidates up to the first non-finite one
        finite = np.isfinite(stack).all(axis=(1, 2))
        stop = len(rows) if finite.all() else int(np.argmin(finite))
        ranks, _ = _numeric_ranks(stack[:stop])
        if stop and ranks.max() > best_rank:
            k = int(np.argmax(ranks))
            best_rank, best_c, best_S = int(ranks[k]), rows[k], stack[k]
        if stop < len(rows) and best_rank < n:
            raise errors.NonFiniteEntry("matrix has a non-finite entry")
    S = 0.5 * best_S + 0.5 * best_S.T
    S.flags.writeable = False
    return Pivot(best_c, S, numeric_rank(S), int(np.argmax(np.abs(best_c))))


def simdiag_commuting(family) -> np.ndarray:
    """Shared eigenbasis of commuting diagonalizable real-spectrum matrices.

    Eigenspace refinement (see _refine): split along the first member
    with a non-scalar spectrum on the current subspace and refine each
    eigenvalue cluster further.  Returns invertible V whose V^{-1} M V
    is diagonal for every member up to an off-diagonal residual of
    RESID_TOL * cond(V)^2 * max(1, |M|_2), else NotDiagonalizable.
    """
    mats = square_family(family)
    pair = noncommuting_pair(mats)
    if pair is not None:
        raise errors.NotCommuting(f"members {pair[0]} and {pair[1]} do not commute")
    V = _refine(mats, len(mats[0]), symmetric=False)
    certify_residuals(np.linalg.inv(V), V, mats, [None] * len(mats), RESID_TOL,
                      np.linalg.cond(V), "joint-diagonalization", error=errors.NotDiagonalizable)
    return V


def _refine(mats, n: int, symmetric: bool) -> np.ndarray:
    """Columns of a shared eigenbasis of commuting matrices of order n.

    A depth-first worklist of (orthonormal basis, member) pairs: the
    member is compressed to the basis and decomposed once, by eigh when
    symmetric and eig otherwise.  Its eigenvalue clusters split the
    basis; in the general case a simple cluster keeps its eigenvector
    and only a repeated one goes through the level's real Schur form,
    computed once and reordered per cluster.
    """
    out = []
    todo = [(np.eye(n), 0)]
    while todo:
        basis, depth = todo.pop()
        d = basis.shape[1]
        if d == 1 or depth == len(mats):
            out.append(basis)
            continue
        Mloc = basis.T @ mats[depth] @ basis
        if symmetric:
            wr, X = np.linalg.eigh(0.5 * (Mloc + Mloc.T))
        else:
            w, X = np.linalg.eig(Mloc)
            if np.max(np.abs(w.imag)) > EIG_REAL_TOL * spectral_scale(w):
                raise errors.NotDiagonalizable(
                    f"member {depth} has non-real spectrum on a joint subspace"
                )
            wr = w.real
        diam = max(float(wr.max() - wr.min()), 1.0)
        clusters = cluster_values(wr, CLUSTER_TOL * diam)
        if len(clusters) == 1:
            lam = float(np.mean(wr))
            if not symmetric and norm2_exceeds(
                Mloc - lam * np.eye(d), lambda: 100 * CLUSTER_TOL * diam
            ):
                raise errors.NotDiagonalizable(f"member {depth} is not diagonalizable")
            todo.append((basis, depth + 1))
            continue
        children = []
        form = None
        for idx in clusters:
            if symmetric:
                U = X[:, idx]
            elif len(idx) == 1:
                # a conjugate pair shares its real part and so never forms a
                # cluster of one: this eigenvalue and its vector are real
                u = X[:, idx].real
                U = u / np.linalg.norm(u)
            else:
                lam = float(np.mean(wr[idx]))
                spread = float(np.max(np.abs(wr[idx] - lam)))
                try:
                    if form is None:
                        form = real_schur(Mloc)
                    U = invariant_subspace(form, lam, spread + CLUSTER_TOL * diam)
                except errors.StructureMismatch as exc:
                    raise errors.NotDiagonalizable(
                        f"member {depth}: no eigenvalue found near {lam}"
                    ) from exc
                if U.shape[1] != len(idx):
                    raise errors.NotDiagonalizable(
                        f"member {depth} has a defective eigenvalue near {lam}"
                    )
            children.append(basis @ U)
        todo.extend((child, depth) for child in reversed(children))
    return np.hstack(out)


def _joint_eigenvalue_groups(diags: np.ndarray) -> list[np.ndarray]:
    """Group coordinates by the joint eigenvalue tuple across the family:
    the first ungrouped coordinate takes every ungrouped one within
    10 * CLUSTER_TOL * max(1, max|diags[t]|) of it in every member t."""
    thr = 10 * CLUSTER_TOL * np.maximum(1.0, np.max(np.abs(diags), axis=1))
    far = np.abs(diags[:, :, None] - diags[:, None, :]) > thr[:, None, None]
    close = ~np.any(far, axis=0)
    remaining = np.arange(diags.shape[1])
    groups = []
    while remaining.size:
        mask = close[remaining[0], remaining]
        groups.append(remaining[mask])
        remaining = remaining[~mask]
    return groups


def _certified(P: np.ndarray, mats) -> SdcResult:
    """The "SDC" result for the congruence P, certified before return.

    Every P^T A_i P must be diagonal up to an off-diagonal residual of
    RESID_TOL * kappa(P)^2 * max(1, |A_i|_2), else CertificationFailed;
    the diagonals are those of these products.  A P that Congruence
    refuses raises SingularCongruence naming this step.
    """
    try:
        cong = Congruence(P)
    except errors.SingularCongruence as exc:
        raise errors.SingularCongruence(
            f"off-diagonal certificate: P is not a congruence: {exc}") from exc
    Ds = certify_residuals(P.T, P, mats, [None] * len(mats), RESID_TOL, cong.kappa,
                           "off-diagonal")
    return SdcResult("SDC", congruence=cong, diagonals=tuple(np.diag(D).copy() for D in Ds))


def _range_reduction(mats, S: np.ndarray, rank: int):
    """(U, violation, restricted): the left singular vectors U of S, whose
    first `rank` columns Ur span its range; the first member (i, residual)
    reaching outside that range by more than 100 * RANK_TOL * |A_i|_2, or
    None; and, when there is none, the family and S restricted to the
    range, ([sym(Ur^T A_i Ur)], sym(Ur^T S Ur)), or else None."""
    U, _, _ = np.linalg.svd(S)
    Ur = U[:, :rank]
    for i, A in enumerate(mats):
        over = norm2_exceeds(A - Ur @ (Ur.T @ A), lambda a: 100 * RANK_TOL * a, A)
        if over is not None:
            return U, (i, over[0]), None
    restricted = [Ur.T @ X @ Ur for X in (*mats, S)]
    restricted = [0.5 * (R + R.T) for R in restricted]
    return U, None, (restricted[:-1], restricted[-1])


def _scaled_group_columns(V: np.ndarray, Sbar: np.ndarray, sizes) -> np.ndarray:
    """V times the eigenvectors of each consecutive diagonal block of Sbar
    (of the given sizes), scaled by 1/sqrt|eigenvalue|; a block of size
    one is the scalar Sbar[i, i] and needs no eigh.  Near-defective
    pencils have legitimately tiny local Grams; the certificate's kappa^2
    factor absorbs the resulting scaling, so only outright zeros are fatal here."""
    sizes = np.asarray(sizes)
    starts = np.cumsum(sizes) - sizes
    P = np.empty(V.shape)
    one = starts[sizes == 1]
    vals = np.abs(np.diag(Sbar)[one])
    if np.any(vals <= 1e-14 * np.maximum(1.0, vals)):
        raise errors.CertificationFailed("degenerate joint-eigenvalue block")
    P[:, one] = V[:, one] * (1.0 / np.sqrt(vals))
    for pos, g in zip(starts[sizes > 1], sizes[sizes > 1]):
        blk = Sbar[pos : pos + g, pos : pos + g]
        vals, vecs = np.linalg.eigh(0.5 * (blk + blk.T))
        if np.min(np.abs(vals)) <= 1e-14 * max(1.0, np.max(np.abs(vals))):
            raise errors.CertificationFailed("degenerate joint-eigenvalue block")
        P[:, pos : pos + g] = V[:, pos : pos + g] @ (vecs / np.sqrt(np.abs(vals)))
    return P


def _sorted_columns(P: np.ndarray, mats) -> np.ndarray:
    """P's columns in the deterministic order of a certified congruence:
    lexsorted by the diagonals of every P^T A_i P rounded to six
    decimals, the first member's leading, each then signed by
    fix_column_signs."""
    keys = np.round(np.array([np.diag(P.T @ A @ P) for A in mats]), 6)
    return fix_column_signs(P[:, np.lexsort(keys[::-1])])


def _sdc_nonsingular(mats, S) -> SdcResult:
    """SDC decision when S in the span is certified invertible.

    A member equal to S maps to exactly I and is left out of Ms; witness
    indices are family positions.  Only _certified's certificate decides
    "SDC": a congruence refused on the way answers not-diagonalizable."""
    keep = [i for i, A in enumerate(mats) if not np.array_equal(A, S)]
    Ms = [np.linalg.solve(S, mats[i]) for i in keep]

    # commuting first: the witness order is commutation, realness,
    # diagonalizability
    pair = noncommuting_pair(Ms)
    if pair is not None:
        i, j, value = pair
        return SdcResult("NotSDC", witness=Witness("non-commuting", keep[i], keep[j], value))
    for i, M in zip(keep, Ms):
        w = np.linalg.eigvals(M)
        scale = spectral_scale(w)
        bad = np.abs(w.imag) > EIG_REAL_TOL * scale
        if np.any(bad):
            lam = w[bad][int(np.argmax(np.abs(w[bad].imag)))]
            return SdcResult(
                "NotSDC", witness=Witness("non-real-eigenvalue", i, value=complex(lam))
            )
    try:
        # group coordinates by joint eigenvalue (all in one when Ms is
        # empty), then diagonalize each symmetric block of the
        # transformed S by an orthogonal eigendecomposition
        V = _refine(Ms, len(S), symmetric=False)
        Vinv = np.linalg.inv(V)
        groups = _joint_eigenvalue_groups(
            np.array([np.diag(Vinv @ M @ V) for M in Ms]).reshape(len(Ms), len(S)))
        V = V[:, np.concatenate(groups)]
        P = _scaled_group_columns(V, V.T @ S @ V, [len(grp) for grp in groups])
        return _certified(_sorted_columns(P, mats), mats)
    except (errors.NotDiagonalizable, errors.CertificationFailed):
        # identify a member not diagonalizable on its own for the witness
        for i, M in zip(keep, Ms):
            try:
                simdiag_commuting([M])
            except errors.NotDiagonalizable:
                return SdcResult("NotSDC", witness=Witness("not-diagonalizable", i))
        return SdcResult("NotSDC", witness=Witness("not-diagonalizable"))


def sdc_check(family, seed: int = 0) -> SdcResult:
    """Certified SDC decision for a family of symmetric matrices.

    One span search (pivot) finds a max-rank element S.  Singular
    families are reduced to the range of S (rejecting on range
    violations) and the nonsingular core is decided through commutation,
    realness and joint diagonalizability of S^{-1} A_i.  Every "SDC"
    verdict, singular and zero families included, passed the off-diagonal
    certificate on its returned P, and diagonals are diag(P^T A_i P); a
    congruence that certificate refuses on the core is "NotSDC".
    """
    return _sdc_check(form_family(family), seed)


def _sdc_check(mats, seed: int, known: Pivot | None = None, reduced=None) -> SdcResult:
    """sdc_check of checked forms, given their pivot and its
    _range_reduction if known.  The equilibrated family D A_i D recurses
    here past the gate (row scaling can lift an accepted asymmetry above
    SYM_TOL) and searches and reduces its own span."""
    n = mats[0].shape[0]

    # joint row equilibration: the verdict is congruence-invariant and
    # wildly different coordinate scales (border constructions) would
    # otherwise sink below the rank floor
    rowmax = np.zeros(n)
    for A in mats:
        rowmax = np.maximum(rowmax, np.max(np.abs(A), axis=1))
    if rowmax.max() > 0:
        ratio = rowmax.max() / max(rowmax[rowmax > 0].min(), 1e-300)
        if ratio > 1e4:
            d = np.where(rowmax > 0, 1.0 / np.sqrt(np.maximum(rowmax, 1e-300)), 1.0)
            D = np.diag(d)
            inner = _sdc_check([D @ A @ D for A in mats], seed)
            if not inner.is_sdc:
                return inner
            return _certified(D @ inner.congruence.P, mats)

    _, S, rank, _ = known if known is not None else pivot(mats, seed)

    if rank == n:
        return _sdc_nonsingular(mats, S)

    if rank == 0:
        # every member is a span candidate of rank 0: a zero matrix
        return _certified(np.eye(n), mats)

    # singular family: verify range inclusion, restrict, recurse
    U, violation, restricted = reduced or _range_reduction(mats, S, rank)
    if violation is not None:
        i, resid = violation
        return SdcResult("NotSDC", witness=Witness("range-violation", i, value=resid))
    inner = _sdc_nonsingular(*restricted)
    if not inner.is_sdc:
        return inner
    # lift: the range's congruence, then the null space's basis
    return _certified(np.hstack([U[:, :rank] @ inner.congruence.P, U[:, rank:]]), mats)


def sdc_check_pd(family, pd_coefficients) -> SdcResult:
    """SDC decision through a positive definite combination.

    With S = sum c_i A_i positive definite, the family is SDC exactly
    when all S^{-1/2} A_i S^{-1/2} commute; the congruence composes the
    joint orthogonal eigenbasis with S^{-1/2}.
    """
    mats = form_family(family)
    c = np.asarray(pd_coefficients, dtype=float)
    if c.shape != (len(mats),):
        raise errors.OrderMismatch("one coefficient per family member required")
    S = sum(ci * Ai for ci, Ai in zip(c, mats))
    S = 0.5 * (S + S.T)
    vals, vecs = np.linalg.eigh(S)
    if np.min(vals) <= RANK_TOL * max(1.0, float(np.max(np.abs(vals)))):
        raise errors.NotPositiveDefinite(
            f"combination has minimum eigenvalue {np.min(vals):.3e}"
        )
    S_isqrt = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    Ns = [S_isqrt @ A @ S_isqrt for A in mats]
    Ns = [0.5 * (N + N.T) for N in Ns]
    pair = noncommuting_pair(Ns)
    if pair is not None:
        return SdcResult("NotSDC", witness=Witness("non-commuting", *pair))
    # joint orthogonal eigenbasis of commuting symmetric matrices
    return _certified(S_isqrt @ _refine(Ns, len(S), symmetric=True), mats)
