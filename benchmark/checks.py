"""Independent checks of the program's outputs.

Each check recomputes a required property with the benchmark's own
numpy/scipy code, never by comparison with a stored earlier output, and
returns the worst measured residual as a fraction of its pinned bound
(at most 1 when the check passes).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.optimize

# pinned bounds of the program's certificates
DEVIATION_BOUND = 1e-6  # reformulation equivalence
PLACEMENT_BOUND = 1e-6  # RSDC eigenvalue placement
RESID_TOL = 1e-8  # off-diagonal residual, times kappa^2 max(1, |M|)
RANK_TOL = 1e-10  # relative singular-value floor of numeric rank
CLUSTER_TOL = 1e-6  # joint eigenvalues closer than this are one cluster


class CheckFailed(AssertionError):
    """A program output violates a required property."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def offdiag_ratio(P: np.ndarray, mats) -> float:
    """Worst |P^T M P - diag| / (RESID_TOL kappa(P)^2 max(1, |M|)) over mats."""
    kappa = float(np.linalg.cond(P))
    worst = 0.0
    for M in mats:
        D = P.T @ M @ P
        off = float(np.linalg.norm(D - np.diag(np.diag(D)), 2))
        bound = RESID_TOL * kappa**2 * max(1.0, float(np.linalg.norm(M, 2)))
        worst = max(worst, off / bound)
    return worst


def own_congruence(mats, seed: int = 0) -> np.ndarray:
    """A congruence diagonalizing an SDC family, built without sdckit.

    Splits off the common null space, takes an invertible combination S
    of the rest, and diagonalizes a generic combination of the S^{-1} M
    with real eigenvectors; each joint-eigenvalue cluster is made
    S-orthogonal by a symmetric eigendecomposition of its local Gram.
    """
    mats = [np.asarray(M, dtype=float) for M in mats]
    n = mats[0].shape[0]
    _, s, vt = np.linalg.svd(np.vstack(mats))
    r = int(np.sum(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    R, N = vt[:r].T, vt[r:].T
    red = [R.T @ M @ R for M in mats]
    rng = np.random.default_rng(seed)
    for trial in range(len(red) + 16):
        c = np.eye(len(red))[trial] if trial < len(red) else rng.standard_normal(len(red))
        S = sum(ci * Mi for ci, Mi in zip(c, red))
        sv = np.linalg.svd(S, compute_uv=False)
        if sv[-1] > RANK_TOL * sv[0]:
            break
    else:
        raise CheckFailed("no invertible combination on the common range")
    mix = sum(rng.standard_normal() * np.linalg.solve(S, M) for M in red)
    w, V = np.linalg.eig(mix)
    scale = max(1.0, float(np.max(np.abs(w))))
    require(float(np.max(np.abs(w.imag))) <= 1e-8 * scale,
            "family has non-real joint eigenvalues")
    w, V = w.real, V.real
    order = np.argsort(w)
    cols = []
    start = 0
    for i in range(1, r + 1):
        if i == r or w[order[i]] - w[order[i - 1]] > CLUSTER_TOL * scale:
            idx = order[start:i]
            Q, _ = np.linalg.qr(V[:, idx])
            G = Q.T @ S @ Q
            vals, vecs = np.linalg.eigh(0.5 * (G + G.T))
            cols.append(Q @ (vecs / np.sqrt(np.abs(vals))))
            start = i
    P = np.hstack([R @ np.hstack(cols), N]) if r else N
    require(P.shape == (n, n), "congruence has the wrong order")
    return P


def diagonalization_ratio(mats) -> float:
    """The benchmark's own SDC check of a family: residual / bound."""
    ratio = offdiag_ratio(own_congruence(mats), mats)
    require(ratio <= 1.0, f"own congruence leaves residual {ratio:.3g} x bound")
    return ratio


def check_bounded(L: np.ndarray) -> None:
    """{x : Lx <= 1} is bounded, by Stiemke's alternative.

    The recession cone {d : Ld <= 0} is {0} exactly when L has full
    column rank and L^T y = 0 for some y > 0; one feasibility LP finds
    such a y with y >= 1.  This is not the program's 2n-LP test.
    """
    m, n = L.shape
    require(np.linalg.matrix_rank(L) == n, "constraint matrix is rank deficient")
    res = scipy.optimize.linprog(np.zeros(m), A_eq=L.T, b_eq=np.zeros(n),
                                 bounds=[(1.0, None)] * m, method="highs")
    require(res.status == 0, f"polytope is unbounded ({res.message})")


def reformulation_ratio(inst, ref, rng, samples: int = 20) -> float:
    """Original vs reformulated objective and constraint at own points.

    Points are drawn in the reformulation's variables on the subspace its
    equalities cut out, then mapped to the original x; this needs no
    solve with P, so the comparison carries no kappa^2 roundoff of its
    own.  Returns the worst relative deviation / DEVIATION_BOUND.
    """
    n = inst.n
    A1, A2 = inst.A1.a, inst.A2.a
    worst = 0.0
    # eig keeps one n-vector of diagonals per eigendecomposition; the
    # restricted-SDC methods one (n + d)-vector per form
    width = n if ref.method == "eig" else ref.dim
    require(ref.quad_obj.shape == (width,) and ref.quad_con.shape == (width,),
            f"{ref.method}: diagonals have the wrong length")
    if ref.method == "eig":
        require(ref.dim == 2 * n, "eig: dimension is not 2n")
        P1 = np.asarray(ref.aux["P1"])
        P2 = np.asarray(ref.aux["P2"])
        E = np.vstack(ref.equalities)
    else:
        d = ref.dim - n
        require(d == int(ref.method[-1]), f"{ref.method}: dimension is not n + {d}")
        P = ref.P.P
        E = np.vstack(ref.equalities)
        require(np.array_equal(E, P[n:, :]), f"{ref.method}: equalities are not P's extra rows")
        basis = scipy.linalg.null_space(E)
    for _ in range(samples):
        if ref.method == "eig":
            x = rng.standard_normal(n)
            y = P1.T @ x
            z = P2.T @ y
            v = np.concatenate([y, z])
            obj = y @ (ref.quad_obj * y) + 2.0 * ref.lin_obj @ y
            con = z @ (ref.quad_con * z) + 2.0 * ref.lin_con @ y
        else:
            v = basis @ rng.standard_normal(basis.shape[1])
            x = (P @ v)[:n]
            obj = v @ (ref.quad_obj * v) + 2.0 * ref.lin_obj @ v
            con = v @ (ref.quad_con * v) + 2.0 * ref.lin_con @ v
        o0 = x @ A1 @ x + 2.0 * inst.b1 @ x
        c0 = x @ A2 @ x + 2.0 * inst.b2 @ x
        scale = max(1.0, abs(o0), abs(c0))
        eq = float(np.max(np.abs(E @ v))) / max(1.0, float(np.max(np.abs(v))))
        require(eq <= DEVIATION_BOUND, f"{ref.method}: sample violates the equalities")
        worst = max(worst, abs(o0 - obj) / scale, abs(c0 - con) / scale)
    ratio = worst / DEVIATION_BOUND
    require(ratio <= 1.0, f"{ref.method}: own deviation {worst:.3g} exceeds 1e-6")
    return ratio


def spectrum_ratio(At: np.ndarray, Bt: np.ndarray, want) -> float:
    """Generalized spectrum of (Bt, At) against the expected real multiset."""
    w = scipy.linalg.eigvals(Bt, At)
    want = np.sort(np.asarray(want, dtype=float))
    scale = max(1.0, float(np.max(np.abs(want))))
    require(w.shape == want.shape, "extension has the wrong order")
    require(bool(np.all(np.isfinite(w))), "extension pencil is singular")
    got = np.sort(w.real)
    resid = max(float(np.max(np.abs(w.imag))), float(np.max(np.abs(got - want)))) / scale
    ratio = resid / PLACEMENT_BOUND
    require(ratio <= 1.0, f"placement residual {resid:.3g} exceeds 1e-6")
    return ratio
