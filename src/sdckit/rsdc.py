"""Restricted-SDC constructions in one or two extra dimensions.

A pair (A, B) with A invertible and simple pencil eigenvalues extends
to an SDC pair one dimension up: border the canonical form so the
bordered matrix's characteristic polynomial is omega(t) = prod(t - xi_j)
for prescribed real, distinct xi.  Evaluating that identity at each
complex eigenvalue gives every border entry in closed form.  The
two-dimensional variant places each xi with multiplicity two through a
conjugate pair of blocks and tends to produce much better conditioned
congruences.  Either way the extended pair's eigenvectors are known in
closed form from the canonical form and the border, so its congruence
is built from them rather than searched for; it is refined in double
with error-free split products and certified once before it is
returned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import errors
from .canonical import PencilForm, pencil_canonical, tmat
from .matcore import (
    Congruence,
    SymMat,
    _dot2,
    f_mat,
    form_family,
)
from .sdc import _certified, _scaled_group_columns, _sorted_columns
# not called here: the benchmark's tracing hooks look sdc_check up on
# this module by name
from .sdc import sdc_check  # noqa: F401

__all__ = [
    "RsdcCertificate",
    "choose_xi",
    "choose_xi_points",
    "solve_border_system",
    "solve_border_system2",
    "border",
    "rsdc1_construct",
    "rsdc2_construct",
]

EIG_PLACEMENT_RTOL = 1e-6


@dataclass(frozen=True)
class RsdcCertificate:
    """Certified output of a restricted-SDC construction.

    The top-left n x n principal submatrices of A_tilde and B_tilde are
    the inputs bitwise; the congruence diagonalizes the extended pair
    and the extended pencil's eigenvalues sit at the chosen xi points
    (with multiplicity two for the order-2 construction) alongside the
    original real eigenvalues.
    """

    order_added: int
    A_tilde: SymMat
    B_tilde: SymMat
    xi: np.ndarray
    gamma: np.ndarray  # border column(s) in canonical coordinates
    congruence: Congruence
    kappa: float
    eig_residual: float

    def to_json(self) -> str:
        payload = {
            "order_added": self.order_added,
            "A_tilde": self.A_tilde.a.tolist(),
            "B_tilde": self.B_tilde.a.tolist(),
            "xi": self.xi.tolist(),
            "gamma": self.gamma.tolist(),
            "P": self.congruence.P.tolist(),
            "kappa": self.kappa,
            "eig_residual": self.eig_residual,
        }
        return json.dumps(payload)


def choose_xi_points(mus, lams, count: int, strategy: str, seed: int = 0) -> np.ndarray:
    """`count` distinct real interpolation points.

    The interval is [min(Re lambda, mu) - 1, max + 1]; spread is
    equispaced, chebyshev uses Chebyshev points of the interval, random
    draws seeded uniforms with a minimum gap of 1e-6 of the interval.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    anchors = [float(m) for m in mus] + [float(l.real) for l in lams]
    lo = (min(anchors) if anchors else 0.0) - 1.0
    hi = (max(anchors) if anchors else 0.0) + 1.0
    if strategy == "spread":
        if count == 1:
            return np.array([0.5 * (lo + hi)])
        return np.linspace(lo, hi, count)
    if strategy == "chebyshev":
        j = np.arange(1, count + 1)
        nodes = np.cos((2 * j - 1) * np.pi / (2 * count))
        return np.sort(0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes)
    if strategy == "random":
        rng = np.random.default_rng(seed)
        min_gap = 1e-6 * (hi - lo)
        for _ in range(1000):
            pts = np.sort(rng.uniform(lo, hi, count))
            if count == 1 or np.min(np.diff(pts)) > min_gap:
                return pts
        raise errors.CertificationFailed("could not draw distinct points")
    raise ValueError(f"unknown strategy {strategy!r}")


def choose_xi(form: PencilForm, count: int, strategy: str = "chebyshev",
              seed: int = 0) -> np.ndarray:
    """Interpolation points for a pencil form's eigenvalue layout."""
    mus = [mu for _, mu in form.real_blocks]
    return choose_xi_points(mus, list(form.complex_blocks), count, strategy, seed)


def _omega_at(lams, xi, count) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues as an array and omega(lambda_i) = prod_j (lambda_i - xi_j),
    after checking that xi holds `count` distinct points."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (count,):
        raise errors.OrderMismatch(f"need {count} points, got {xi.shape}")
    values, counts = np.unique(xi, return_counts=True)
    if np.any(counts > 1):
        raise ValueError(f"interpolation point {values[counts > 1][0]!r} is repeated")
    lams = np.asarray(list(lams), dtype=complex)
    return lams, np.prod(lams[:, None] - xi[None, :], axis=1)


def _others(diffs: np.ndarray) -> np.ndarray:
    """Row products of a square difference table, skipping the diagonal."""
    diffs = diffs.copy()
    np.fill_diagonal(diffs, 1.0)
    return np.prod(diffs, axis=1)


def solve_border_system(lams, xi) -> tuple[np.ndarray, float]:
    """Border entries that give the bordered pencil the real roots xi.

    With omega(t) = prod_j (t - xi_j) and f_i(t) = prod_{j != i}
    (t - lambda_j)(t - conj(lambda_j)), the bordered characteristic
    polynomial equals -omega exactly when, for every pair,
    Im(lambda_i) (beta_i + i alpha_i)^2 = -omega(lambda_i) / f_i(lambda_i)
    and the corner is z = sum(xi) - 2 sum(Re lambda).  Returns
    (g, z) with g = (alpha_1, beta_1, ..., alpha_k, beta_k) in canonical
    coordinates, taking principal roots so that beta_i >= 0.
    """
    lams, omega = _omega_at(lams, xi, 2 * len(lams) + 1)
    if np.any(lams.imag == 0):
        raise errors.RealLambda("border parameters need Im(lambda) != 0")
    f = _others(lams[:, None] - lams[None, :]) * _others(
        lams[:, None] - lams.conj()[None, :]
    )
    w = np.sqrt(-omega / f / lams.imag)
    g = np.column_stack([w.imag, w.real]).ravel()
    return g, float(np.sum(xi) - 2.0 * np.sum(lams.real))


def border(form: PencilForm, xi) -> tuple[np.ndarray, np.ndarray, float]:
    """The order-1 border (gamma, g, z) placing xi: the column gamma in
    canonical coordinates (zero on the real blocks), g = P^{-T} gamma
    and the corner z."""
    gamma = np.zeros(form.n)
    gamma[form.r :], z = solve_border_system(form.complex_blocks, xi)
    return gamma, form.P.inv().T @ gamma, z


def solve_border_system2(lams, xi) -> np.ndarray:
    """Border entries of the order-2 construction in closed form.

    The bordered block's characteristic polynomial is
    (z_{k+1} - t) h(t) - sum z_i^2 f_i(t) with h(t) = prod(lambda_j - t)
    and f_i = prod_{j != i}(lambda_j - t); it equals (-1)^(k+1) omega(t)
    exactly when z_i^2 = (-1)^k omega(lambda_i) / f_i(lambda_i) and
    z_{k+1} = sum(xi) - sum(lambda).  Returns the complex z, with
    principal square roots for the first k entries.
    """
    lams, omega = _omega_at(lams, xi, len(lams) + 1)
    k = len(lams)
    z = np.empty(k + 1, dtype=complex)
    z[:k] = np.sqrt((-1) ** k * omega / _others(lams[None, :] - lams[:, None]))
    z[k] = np.sum(xi) - np.sum(lams)
    return z


def _eig_placement_residual(At, Bt, expected) -> float:
    """Max deviation of the extended pencil spectrum from the expected
    real multiset, relative to its scale."""
    w = np.linalg.eigvals(np.linalg.solve(At, Bt))
    scale = max(1.0, float(np.max(np.abs(expected))) if len(expected) else 1.0)
    if np.max(np.abs(w.imag)) > EIG_PLACEMENT_RTOL * scale:
        return float("inf")
    got = np.sort(w.real)
    want = np.sort(np.asarray(expected, dtype=float))
    if got.shape != want.shape:
        return float("inf")
    return float(np.max(np.abs(got - want)) / scale)


def _refine_congruence(A: np.ndarray, B: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Two extended-precision correction sweeps on a diagonalizing P.

    A backward-stable eigensolve leaves P with forward error kappa eps,
    which shows up as off-diagonal residue of order kappa^2 eps in
    P^T A P; linearizing the congruence around the computed P and
    solving the 2x2 per-pair corrections pushes the residue down to the
    storage floor kappa eps.  That needs the residue itself to more than
    double precision: P^T A P and P^T B P come from error-free split
    products (matcore._dot2), A stacked over B so that P is split once
    per stage, and P is carried as P + Pl, rounded once at the end.

    Entry (i, j) of each array below belongs to the pair i < j.
    """
    n = P.shape[0]
    AB = np.vstack([A, B])
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    Pl = np.zeros_like(P)
    for _ in range(2):
        # [A; B](P + Pl) as Yh + Yl, then (P + Pl)^T [AP, BP] rounded
        # once, leaving out Pl^T Yl, which is below its last bit
        Yh, Yl = _dot2(AB, P)
        Yl += AB @ Pl
        Yh, Yl = np.hstack([Yh[:n], Yh[n:]]), np.hstack([Yl[:n], Yl[n:]])
        E, El = _dot2(P.T, Yh)
        El += P.T @ Yl + Pl.T @ Yh
        E += El
        EA, EB = E[:, :n], E[:, n:]
        da, db = np.diag(EA), np.diag(EB)
        p = da[:, None] * db[None, :]
        q = p.T
        det = p - q
        scale = np.maximum(np.maximum(np.abs(p), np.abs(q)), 1e-300)
        generic = upper & (np.abs(det) > 1e-8 * scale)
        da_sum = da[:, None] + da[None, :]
        matched = upper & ~generic & (np.abs(da_sum) > 1e-12)
        rhs_a, rhs_b = -EA, -EB
        # a generic pair solves X_ij and X_ji from both off-diagonal
        # conditions; matched generalized eigenvalues kill the A-residue
        # with X_ij = X_ji; any other pair gets no correction
        x_ij = np.divide(rhs_a, da_sum, out=np.zeros_like(EA), where=matched)
        x_ji = x_ij.copy()
        np.divide(rhs_a * db - rhs_b * da, det, out=x_ij, where=generic)
        np.divide(rhs_b * da[:, None] - rhs_a * db[:, None], det, out=x_ji, where=generic)
        X = np.where(upper, x_ij, x_ji.T)
        Pl += (P + Pl) @ X
    return P + Pl


def _border2(form: PencilForm, xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The order-2 border (gamma, g, corner) placing xi twice: the n x 2
    block gamma in canonical coordinates (zero on the real blocks),
    g = P^{-T} gamma and the 2 x 2 corner tmat(z_k)."""
    r, k = form.r, form.k
    z = solve_border_system2(form.complex_blocks, xi)
    a_k, b_k = z.real[:k], z.imag[:k]
    gamma = np.zeros((form.n, 2))
    gamma[r::2] = np.column_stack([b_k, a_k])
    gamma[r + 1 :: 2] = np.column_stack([a_k, -b_k])
    return gamma, form.P.inv().T @ gamma, tmat(z[k])


def _eigenbasis(form: PencilForm, xi, gamma, At, Bt, d: int) -> np.ndarray:
    """The extended pair's diagonalizing congruence, from its known
    eigenvectors, in the column order and signs of a certified SDC
    congruence.

    With Q the direct sum of form.P and I_d, each real block keeps its
    column of Q, since gamma vanishes there; xi_j gets the d columns
    Q (-(T_i - xi_j F_2)^{-1} Gamma_i on each complex block i ; I_d),
    where (T_i - xi F_2)^{-1} = (T_i - xi F_2) / |lambda_i - xi|^2.
    Each point's columns are orthonormalized in the input coordinates
    and then At-orthonormalized as the SDC oracle scales its joint
    eigenvalue groups, which fixes a doubled eigenspace's basis up to
    column signs.
    """
    n, r, k, m = form.n, form.r, form.k, len(xi)
    lams = np.asarray(form.complex_blocks, dtype=complex)
    G = gamma.reshape(n, d)[r:].reshape(k, 2, 1, d)
    a = lams.imag[:, None, None]
    b = (lams.real[:, None] - xi)[:, :, None]
    s = -1.0 / (a * a + b * b)
    Y = np.stack([s * (a * G[:, 0] + b * G[:, 1]), s * (b * G[:, 0] - a * G[:, 1])], axis=1)
    V = np.zeros((n + d, n + d))
    V[:n, :r] = form.P.P[:, :r]
    V[:n, r:] = form.P.P[:, r:] @ Y.reshape(2 * k, m * d)
    V[n:, r:] = np.tile(np.eye(d), m)
    per_point = np.linalg.qr(V[:, r:].reshape(n + d, m, d).transpose(1, 0, 2))[0]
    V[:, r:] = per_point.transpose(1, 0, 2).reshape(n + d, m * d)
    P = _scaled_group_columns(V, V.T @ At @ V, [1] * r + [d] * m)
    return _sorted_columns(P, [At, Bt])


def _construct(A, B, d: int, strategy: str, seed: int) -> RsdcCertificate:
    """The order-d extension: pad the pair by d coordinates, set the
    corner of A_tilde to F_d and border B_tilde so that each xi is a
    pencil eigenvalue of multiplicity d; then certify."""
    a, b = form_family([A, B])
    n, form = a.shape[0], pencil_canonical(a, b)
    At, Bt = np.zeros((n + d, n + d)), np.zeros((n + d, n + d))
    At[:n, :n], Bt[:n, :n], At[n:, n:] = a, b, f_mat(d)
    # the 2k complex eigenvalues and the d new coordinates become 2k/d + 1
    # real points of multiplicity d; with none, xi = 0 is the new root
    xi = choose_xi(form, 2 * form.k // d + 1, strategy, seed) if form.k else np.array([0.0])
    # the order-2 border of a real spectrum is zero (tmat(0) holds a -0.0)
    gamma = np.zeros((n, 2))
    if d == 1 or form.k:
        gamma, g, corner = (border if d == 1 else _border2)(form, xi)
        Bt[:n, n:] = g.reshape(n, d)
        Bt[n:, :n] = Bt[:n, n:].T
        Bt[n:, n:] = corner

    if not (np.array_equal(At[:n, :n], a) and np.array_equal(Bt[:n, :n], b)):
        raise errors.CertificationFailed("top-left restriction is not exact")
    expected = [mu for _, mu in form.real_blocks] + list(xi) * d
    resid = _eig_placement_residual(At, Bt, expected)
    if resid > EIG_PLACEMENT_RTOL:
        raise errors.CertificationFailed(
            f"eigenvalue placement residual {resid:.3e} exceeds "
            f"{EIG_PLACEMENT_RTOL:.0e}"
        )
    P = _eigenbasis(form, xi, gamma, At, Bt, d)
    # the refined congruence passes the SDC oracle's certificate
    refined = _certified(_refine_congruence(At, Bt, P), [At, Bt])
    return RsdcCertificate(
        order_added=d,
        A_tilde=SymMat(At),
        B_tilde=SymMat(Bt),
        xi=np.asarray(xi, dtype=float),
        gamma=np.asarray(gamma),
        congruence=refined.congruence,
        kappa=refined.congruence.kappa,
        eig_residual=resid,
    )


def rsdc1_construct(A, B, strategy: str = "chebyshev", seed: int = 0) -> RsdcCertificate:
    """One-dimension restricted-SDC extension of a simple pencil pair."""
    return _construct(A, B, 1, strategy, seed)


def rsdc2_construct(A, B, strategy: str = "chebyshev", seed: int = 0) -> RsdcCertificate:
    """Two-dimension restricted-SDC extension of a simple pencil pair.

    Each interpolation point lands with multiplicity two through the
    conjugate pair of bordered blocks; condition numbers of the
    resulting congruences are typically much smaller than for the
    one-dimension construction.
    """
    return _construct(A, B, 2, strategy, seed)
