"""Restricted-SDC constructions in one or two extra dimensions.

A pair (A, B) with A invertible and simple pencil eigenvalues extends
to an SDC pair one dimension up: border the canonical form so the
bordered matrix's characteristic polynomial has prescribed real roots
xi, obtained from an interpolation linear system in the basis
polynomials of the complex eigenvalue pairs.  The two-dimensional
variant places each xi with multiplicity two through a conjugate pair
of blocks and tends to produce much better conditioned congruences.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import errors
from ._pencil import certify_invertible
from .canonical import PencilForm, pencil_canonical
from .matcore import (
    DEFAULT_TOL,
    Congruence,
    SymMat,
    Tolerances,
    asmat,
    f_mat,
)
from .sdc import SdcResult, sdc_check

__all__ = [
    "RsdcCertificate",
    "IllConditionedWarning",
    "choose_xi",
    "choose_xi_points",
    "alpha_beta_recover",
    "solve_border_system",
    "solve_border_system2",
    "rsdc1_construct",
    "rsdc2_construct",
]

HARD_COND_LIMIT = 1e12
WARN_COND_LIMIT = 1e8

EIG_PLACEMENT_RTOL = 1e-6


class IllConditionedWarning(UserWarning):
    """Interpolation system condition number is high but workable."""


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
    solution: tuple  # (x, y, z) real for d=1; (z complex vector,) for d=2
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray  # border column(s) in canonical coordinates
    congruence: Congruence
    kappa: float
    eig_residual: float
    system_cond: float

    def to_json(self) -> str:
        payload = {
            "order_added": self.order_added,
            "A_tilde": self.A_tilde.a.tolist(),
            "B_tilde": self.B_tilde.a.tolist(),
            "xi": self.xi.tolist(),
            "alpha": self.alpha.tolist(),
            "beta": self.beta.tolist(),
            "gamma": self.gamma.tolist(),
            "P": self.congruence.P.tolist(),
            "kappa": self.kappa,
            "eig_residual": self.eig_residual,
            "system_cond": self.system_cond,
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


def _check_cond(M: np.ndarray) -> float:
    c = float(np.linalg.cond(M))
    if c > HARD_COND_LIMIT:
        raise errors.IllConditionedSystem(
            f"interpolation matrix condition {c:.3e} exceeds {HARD_COND_LIMIT:.0e}; "
            "retry with a different point strategy"
        )
    if c > WARN_COND_LIMIT:
        warnings.warn(
            f"interpolation matrix condition {c:.3e}", IllConditionedWarning
        )
    return c


def solve_border_system(lams, xi) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The (2k+1) x (2k+1) real system placing the bordered eigenvalues.

    Row j evaluates the basis [f_1, g_1, ..., f_k, g_k, h] at xi_j with
    f_i the conjugate-pair products excluding pair i, g_i = xi f_i and
    h the full product; the right side is xi_j h(xi_j).  Returns
    (x, y, z, condition).
    """
    lams = list(lams)
    k = len(lams)
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2 * k + 1,):
        raise errors.OrderMismatch(f"need {2 * k + 1} points, got {xi.shape}")

    def f(i, t):
        out = 1.0
        for j, lam in enumerate(lams):
            if j != i:
                out *= (lam.real - t) ** 2 + lam.imag**2
        return out

    def h(t):
        out = 1.0
        for lam in lams:
            out *= (lam.real - t) ** 2 + lam.imag**2
        return out

    M = np.zeros((2 * k + 1, 2 * k + 1))
    rhs = np.zeros(2 * k + 1)
    for r, t in enumerate(xi):
        for i in range(k):
            fi = f(i, t)
            M[r, 2 * i] = fi
            M[r, 2 * i + 1] = t * fi
        M[r, 2 * k] = h(t)
        rhs[r] = t * h(t)
    cond = _check_cond(M)
    sol = np.linalg.solve(M, rhs)
    x = sol[0 : 2 * k : 2].copy()
    y = sol[1 : 2 * k : 2].copy()
    z = float(sol[2 * k])
    return x, y, z, cond


def solve_border_system2(lams, xi) -> tuple[np.ndarray, float]:
    """The (k+1) x (k+1) complex system of the order-2 construction.

    Unknowns are (z_1^2, ..., z_k^2, z_{k+1}) against the basis
    [-f_1, ..., -f_k, h] with f_i = prod_{j != i}(lambda_j - xi) and
    h = prod(lambda_i - xi); the bordered block's characteristic
    polynomial is (z_{k+1} - xi) h(xi) - sum z_i^2 f_i(xi), so the
    f-columns enter negated.  Returns (z, condition) with principal
    square roots taken for the first k entries.
    """
    lams = list(lams)
    k = len(lams)
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (k + 1,):
        raise errors.OrderMismatch(f"need {k + 1} points, got {xi.shape}")

    def f(i, t):
        out = 1.0 + 0.0j
        for j, lam in enumerate(lams):
            if j != i:
                out *= lam - t
        return out

    def h(t):
        out = 1.0 + 0.0j
        for lam in lams:
            out *= lam - t
        return out

    M = np.zeros((k + 1, k + 1), dtype=complex)
    rhs = np.zeros(k + 1, dtype=complex)
    for r, t in enumerate(xi):
        for i in range(k):
            M[r, i] = -f(i, t)
        M[r, k] = h(t)
        rhs[r] = t * h(t)
    cond = _check_cond(M)
    sol = np.linalg.solve(M, rhs)
    z = np.empty(k + 1, dtype=complex)
    z[:k] = np.sqrt(sol[:k])  # principal branch
    z[k] = sol[k]
    return z, cond


def alpha_beta_recover(x: float, y: float, lam: complex) -> tuple[float, float]:
    """Border parameters (alpha, beta) from the planted system values.

    Solves Im(lam)(beta^2 - alpha^2) - 2 Re(lam) alpha beta = x and
    2 alpha beta = y under the convention beta >= 0; the residual of
    both relations is checked to 1e-10 (1 + |x| + |y|).
    """
    if lam.imag == 0:
        raise errors.RealLambda("alpha-beta recovery needs Im(lambda) != 0")
    p = y / 2.0
    s = (x + 2.0 * lam.real * p) / lam.imag
    # stable quadratic roots: the larger of alpha^2, beta^2 comes from
    # the additive branch and the other from alpha^2 beta^2 = p^2
    q = 0.5 * (abs(s) + np.sqrt(s * s + 4.0 * p * p))
    if s >= 0:
        beta_sq = q
        alpha_sq = (p * p / q) if q > 0 else 0.0
    else:
        alpha_sq = q
        beta_sq = (p * p / q) if q > 0 else 0.0
    beta = float(np.sqrt(max(beta_sq, 0.0)))
    alpha = float(np.sqrt(max(alpha_sq, 0.0)))
    if p < 0:
        alpha = -alpha
    elif p == 0 and s < 0:
        # beta = 0 branch; alpha sign free, fix +
        pass
    res1 = abs(lam.imag * (beta**2 - alpha**2) - 2 * lam.real * alpha * beta - x)
    res2 = abs(2 * alpha * beta - y)
    bound = 1e-10 * (1.0 + abs(x) + abs(y))
    if max(res1, res2) > bound:
        raise errors.CertificationFailed(
            f"alpha-beta residual {max(res1, res2):.3e} exceeds {bound:.3e}"
        )
    return alpha, beta


def _eig_placement_residual(At, Bt, expected, tol) -> float:
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
    """One extended-precision correction sweep on a diagonalizing P.

    A backward-stable eigensolve leaves P with forward error kappa eps,
    which shows up as off-diagonal residue of order kappa^2 eps in
    P^T A P; linearizing the congruence around the computed P and
    solving the 2x2 per-pair corrections in long double pushes the
    residue down to the storage floor kappa eps.
    """
    Pl = P.astype(np.longdouble)
    Al = A.astype(np.longdouble)
    Bl = B.astype(np.longdouble)
    for _ in range(2):
        EA = Pl.T @ Al @ Pl
        EB = Pl.T @ Bl @ Pl
        da, db = np.diag(EA).copy(), np.diag(EB).copy()
        n = len(da)
        X = np.zeros((n, n), dtype=np.longdouble)
        for i in range(n):
            for j in range(i + 1, n):
                det = da[i] * db[j] - da[j] * db[i]
                scale = max(abs(da[i] * db[j]), abs(da[j] * db[i]), 1e-300)
                if abs(det) > 1e-8 * scale:
                    # solve X_ij, X_ji from both off-diagonal conditions
                    rhs_a, rhs_b = -EA[i, j], -EB[i, j]
                    X[i, j] = (rhs_a * db[j] - rhs_b * da[j]) / det
                    X[j, i] = (rhs_b * da[i] - rhs_a * db[i]) / det
                elif abs(da[i] + da[j]) > 1e-12:
                    # matched generalized eigenvalues: kill the A-residue
                    X[i, j] = X[j, i] = -EA[i, j] / (da[i] + da[j])
        Pl = Pl @ (np.eye(n) + X)
    return np.asarray(Pl, dtype=float)


def _finish(a, b, At, Bt, d, xi, solution, alpha, beta, gamma, expected,
            cond, tol) -> RsdcCertificate:
    n = a.shape[0]
    if not (np.array_equal(At[:n, :n], a) and np.array_equal(Bt[:n, :n], b)):
        raise errors.CertificationFailed("top-left restriction is not exact")
    resid = _eig_placement_residual(At, Bt, expected, tol)
    if resid > EIG_PLACEMENT_RTOL:
        raise errors.CertificationFailed(
            f"eigenvalue placement residual {resid:.3e} exceeds "
            f"{EIG_PLACEMENT_RTOL:.0e}"
        )
    res = sdc_check([At, Bt], tol)
    if not res.is_sdc:
        raise errors.CertificationFailed(
            f"extended pair failed the SDC oracle: {res.witness}"
        )
    refined = Congruence(_refine_congruence(At, Bt, res.congruence.P))
    diagonals = tuple(np.diag(refined.P.T @ M @ refined.P).copy() for M in (At, Bt))
    res = SdcResult("SDC", congruence=refined, diagonals=diagonals)
    return RsdcCertificate(
        order_added=d,
        A_tilde=SymMat(At),
        B_tilde=SymMat(Bt),
        xi=np.asarray(xi, dtype=float),
        solution=solution,
        alpha=np.asarray(alpha, dtype=float),
        beta=np.asarray(beta, dtype=float),
        gamma=np.asarray(gamma),
        congruence=res.congruence,
        kappa=res.congruence.kappa,
        eig_residual=resid,
        system_cond=cond,
    )


def rsdc1_construct(A, B, strategy: str = "chebyshev",
                    tol: Tolerances = DEFAULT_TOL, seed: int = 0) -> RsdcCertificate:
    """One-dimension restricted-SDC extension of a simple pencil pair."""
    a, b = asmat(A), asmat(B)
    if a.shape != b.shape:
        raise errors.OrderMismatch("pair must share an order")
    if not certify_invertible(a, tol):
        raise errors.SingularA("leading matrix is not certified invertible")
    n = a.shape[0]
    form = pencil_canonical(a, b, tol)
    mus = [mu for _, mu in form.real_blocks]
    lams = list(form.complex_blocks)
    k = form.k

    At = np.zeros((n + 1, n + 1))
    Bt = np.zeros((n + 1, n + 1))
    At[:n, :n] = a
    Bt[:n, :n] = b
    At[n, n] = 1.0

    if k == 0:
        xi = np.array([0.0])
        x = np.zeros(0)
        y = np.zeros(0)
        z = 0.0
        gamma = np.zeros(n)
        cond = 1.0
    else:
        xi = choose_xi(form, 2 * k + 1, strategy, seed)
        x, y, z, cond = solve_border_system(lams, xi)
        gamma = np.zeros(n)
        for i in range(k):
            al, be = alpha_beta_recover(x[i], y[i], lams[i])
            gamma[form.r + 2 * i] = al
            gamma[form.r + 2 * i + 1] = be
        border = form.P.inv().T @ gamma
        Bt[:n, n] = border
        Bt[n, :n] = border
        Bt[n, n] = z

    alpha = gamma[form.r::2][:k] if k else np.zeros(0)
    beta = gamma[form.r + 1 :: 2][:k] if k else np.zeros(0)
    expected = list(mus) + list(xi)
    return _finish(a, b, At, Bt, 1, xi, (x, y, z), alpha, beta, gamma,
                   expected, cond, tol)


def rsdc2_construct(A, B, strategy: str = "chebyshev",
                    tol: Tolerances = DEFAULT_TOL, seed: int = 0) -> RsdcCertificate:
    """Two-dimension restricted-SDC extension of a simple pencil pair.

    Each interpolation point lands with multiplicity two through the
    conjugate pair of bordered blocks; condition numbers of the
    resulting congruences are typically much smaller than for the
    one-dimension construction.
    """
    a, b = asmat(A), asmat(B)
    if a.shape != b.shape:
        raise errors.OrderMismatch("pair must share an order")
    if not certify_invertible(a, tol):
        raise errors.SingularA("leading matrix is not certified invertible")
    n = a.shape[0]
    form = pencil_canonical(a, b, tol)
    mus = [mu for _, mu in form.real_blocks]
    lams = list(form.complex_blocks)
    k = form.k

    At = np.zeros((n + 2, n + 2))
    Bt = np.zeros((n + 2, n + 2))
    At[:n, :n] = a
    Bt[:n, :n] = b
    At[n:, n:] = f_mat(2)

    if k == 0:
        xi = np.array([0.0])
        zvec = np.zeros(1, dtype=complex)
        gamma = np.zeros((n, 2))
        cond = 1.0
        avec = np.zeros(1)
        bvec = np.zeros(1)
    else:
        xi = choose_xi(form, k + 1, strategy, seed)
        zvec, cond = solve_border_system2(lams, xi)
        avec = zvec.real.copy()
        bvec = zvec.imag.copy()
        gamma = np.zeros((n, 2))
        for i in range(k):
            r0 = form.r + 2 * i
            gamma[r0, 0] = bvec[i]
            gamma[r0, 1] = avec[i]
            gamma[r0 + 1, 0] = avec[i]
            gamma[r0 + 1, 1] = -bvec[i]
        border = form.P.inv().T @ gamma
        Bt[:n, n:] = border
        Bt[n:, :n] = border.T
        Bt[n, n] = bvec[k]
        Bt[n, n + 1] = avec[k]
        Bt[n + 1, n] = avec[k]
        Bt[n + 1, n + 1] = -bvec[k]

    expected = list(mus) + list(xi) + list(xi)
    return _finish(a, b, At, Bt, 2, xi, (zvec,), avec, bvec, gamma,
                   expected, cond, tol)
