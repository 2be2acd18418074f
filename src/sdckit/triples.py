"""Structured perturbations for nonsingular symmetric triples.

Input is the canonical shape of the triple characterization proof:
A = Diag(sigma_i F_{n_i}), B makes A^{-1}B a real Jordan form, and C is
symmetric with A^{-1}C in the block-Toeplitz commutant.  Separate
eigenvalues split the triple blockwise (case 1); a nilpotent core is
flattened in one step, staggered shifts per block size plus the k x k
lift within each size, so that A^{-1}B becomes a polynomial in the
shifted A^{-1}C.  When that fit fails, the minimal-size shift (case 2,
distinct sizes) or the k x k lift alone (case 3, one size) is applied
and the recursion continues.  The assembled triple is certified by the
SDC oracle.  The proof's case 2 and single-block case 4 constructions
are also public as `triple_case2` and `triple_case4`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import errors
from ._chains import (
    canonicalize_nilpotent_pair,
    canonicalize_real_pencil,  # unused here; benchmark/tracing.py wraps this name
    cluster_subspaces,
    defect_clusters,
    splitting_perturbation,
)
from ._pencil import noncommuting_pair
from .asdc import _check_budget, _first_certified, _spectrum_is_real, _unit_splitting
from .matcore import SymMat, _distance, direct_sum, f_mat, form_family, g_mat, jordan_pair
# not called here: the benchmark's tracing hooks look sdc_check up on
# this module by name
from .sdc import sdc_check  # noqa: F401
from .toeplitz import ToeplitzPartition, is_block_toeplitz, pi_map, toeplitz_coefficients

__all__ = [
    "JordanTripleSpec",
    "PerturbedTriple",
    "triple_case2",
    "triple_case4",
    "perturb_triple_blocks",
]


@dataclass(frozen=True)
class JordanTripleSpec:
    """Exact descriptor of (A, B): blocks of (sigma, size, theta)."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        for sigma, size, _ in self.blocks:
            if sigma not in (-1, 1) or size < 1:
                raise ValueError("blocks are (sigma in {-1,1}, size >= 1, theta)")

    @property
    def sizes(self) -> tuple:
        return tuple(size for _, size, _ in self.blocks)


@dataclass(frozen=True)
class PerturbedTriple:
    A_tilde: SymMat
    B_tilde: SymMat
    C_tilde: SymMat
    epsilon: float
    distance: float
    steps: tuple


def _min_size_shift(blocks) -> np.ndarray:
    """Diag(sigma F_eta or 0) over blocks (sigma, size, ...): sigma F_eta
    on every block of the minimal size eta, zero on the others."""
    eta = min(size for _, size, *_ in blocks)
    return direct_sum(*(sigma * f_mat(size) if size == eta else np.zeros((size, size))
                        for sigma, size, *_ in blocks))


def triple_case2(spec: JordanTripleSpec, C, eps: float) -> np.ndarray:
    """Minimal-size shift: C + eps Diag(sigma_1 F_eta, ..., 0, ...).

    Requires a nilpotent descriptor with at least two distinct sizes;
    the shifted A^{-1}C has eigenvalue set {0, eps} exactly.
    """
    if any(theta != 0.0 for _, _, theta in spec.blocks):
        raise errors.StructureMismatch("case 2 needs a nilpotent descriptor")
    sizes = set(spec.sizes)
    if len(sizes) < 2:
        raise errors.StructureMismatch("case 2 needs at least two block sizes")
    return form_family([C])[0] + eps * _min_size_shift(spec.blocks)


def triple_case4(sigma: int, n: int, C, eps: float):
    """Single-block corner construction.

    With A = sigma F_n and B = sigma G_n, returns (B_tilde, C_tilde)
    where B_tilde adds eps sigma at the two corners and C_tilde adds
    the recursively-defined gamma column so A^{-1}B_tilde and
    A^{-1}C_tilde still commute.  Needs n >= 3.
    """
    if n < 3:
        raise errors.StructureMismatch("case 4 construction needs n >= 3")
    B = sigma * g_mat(n)
    (c,) = form_family([C])
    T = sigma * c[::-1]  # A^{-1} c, since A = sigma F_n is its own inverse
    part = ToeplitzPartition((n,))
    if not is_block_toeplitz(T, part):
        raise errors.StructureMismatch("A^{-1}C is not upper triangular Toeplitz")
    coeff = toeplitz_coefficients(T, part)[(0, 0)]
    if abs(coeff[0]) > 1e-10 * max(1.0, np.max(np.abs(coeff))):
        raise errors.StructureMismatch("A^{-1}C is not nilpotent")
    cs = coeff  # cs[i-1] = c_i with c_1 = 0
    gamma = np.zeros(n)
    for i in range(n - 3, -1, -1):  # gamma_n = gamma_{n-1} = 0, descend
        gamma[i] = eps * (cs[i + 1] + gamma[i + 1])
    e1 = np.zeros(n)
    e1[0] = 1.0
    en = np.zeros(n)
    en[-1] = 1.0
    Bt = B + eps * sigma * (np.outer(e1, en) + np.outer(en, e1))
    Ct = c + sigma * (np.outer(en, gamma) + np.outer(gamma, en))
    return Bt, Ct


def _validate_structured_triple(A, B, C):
    """Raise unless A^{-1}B and A^{-1}C commute and A^{-1}C has a real
    spectrum; A = Diag(sigma F) is its own inverse."""
    pair = noncommuting_pair([A @ B, A @ C], factor=10)
    if pair is not None:
        raise errors.StructureMismatch(
            f"A^-1 B and A^-1 C do not commute (residual {pair[2]:.3e})"
        )
    if not _spectrum_is_real(A, C):
        raise errors.StructureMismatch("A^-1 C has non-real spectrum")


def perturb_triple_blocks(spec: JordanTripleSpec, C, epsilon: float) -> PerturbedTriple:
    """SDC-certified perturbation of a structured nonsingular triple.

    Case dispatch follows the characterization proof: eigenvalue
    multiplicity splits recurse blockwise; a nilpotent core is
    flattened (staggered shifts per block size and the k x k lift
    within each size) and, when the flattened C does not carry B as a
    polynomial, shifted at its minimal-size blocks (distinct sizes) or
    lifted through the k x k leading pair (one size) before the
    recursion goes on.  Every step preserves commutation and real
    spectra; the assembled triple is certified before return.
    """
    _check_budget(epsilon)
    A, B = jordan_pair(spec.blocks)
    (c,) = form_family([C])
    if c.shape != A.shape:
        raise errors.OrderMismatch("C order does not match the descriptor")
    c = 0.5 * (c + c.T)
    _validate_structured_triple(A, B, c)

    steps: list[str] = []

    def attempt(eps):
        steps.clear()
        return (A, *_recurse(A, B, c, eps, steps, depth=0))

    attempts = (functools.partial(attempt, eps) for eps in (epsilon, epsilon / 2.0))
    (_, Bt, Ct), dist = _first_certified(attempts, (A, B, c), epsilon, "triple")
    return PerturbedTriple(SymMat(A), SymMat(Bt), SymMat(Ct), epsilon, dist, tuple(steps))


def _split_by(A, B, C, M, w, clusters, eps, steps, depth):
    """Case 1: joint block split along the invariant subspaces of M.

    Cluster subspaces are not mutually orthogonal, so sub-perturbations
    are lifted congruence-consistently through the concatenated basis:
    Delta = P^{-T} Diag(Delta_c) P^{-1} keeps them confined to their
    blocks in the pencil geometry.
    """
    steps.append(f"case1@{depth}")
    n = A.shape[0]
    Us = [U for _, U in cluster_subspaces(M, w, clusters)]
    P = np.hstack(Us)
    Pinv = np.linalg.inv(P)

    # worst-case budgeting through |Pinv|^2 starves deep branches, so
    # run optimistically and rescale against the measured lifted norm
    restricted = []
    for U in Us:
        Rs = [U.T @ X @ U for X in (A, B, C)]
        restricted.append([0.5 * (R + R.T) for R in Rs])
    eps_sub = eps / len(Us)
    for _ in range(8):
        dB = np.zeros((n, n))
        dC = np.zeros((n, n))
        pos = 0
        for U, (Ac, Bc, Cc) in zip(Us, restricted):
            d = U.shape[1]
            Btc, Ctc = _recurse(Ac, Bc, Cc, eps_sub, steps, depth + 1)
            E = Pinv[pos : pos + d, :]
            dB += E.T @ (Btc - Bc) @ E
            dC += E.T @ (Ctc - Cc) @ E
            pos += d
        lifted = max(float(np.linalg.norm(dB, 2)), float(np.linalg.norm(dC, 2)))
        if lifted <= eps:
            return B + dB, C + dC
        eps_sub *= 0.5 * eps / lifted
    raise errors.CertificationFailed("block split could not fit the budget")


def _pair_split(A, T, radius=None):
    """eps -> T perturbed by at most eps so that (A, T) has a real simple
    spectrum: the unit eigenvalue splitting of the pair, scaled.  The
    pencil is canonicalized once, however many budgets are tried."""
    delta_unit = _unit_splitting(A, T, cluster_radius=radius)
    amp = float(np.linalg.norm(delta_unit, 2))
    return lambda eps: T + (min(1.0, eps / amp) if amp > 0 else eps) * delta_unit


def _poly_fit(MB: np.ndarray, MC: np.ndarray):
    """Fit MC as a polynomial in MB, or None if no good fit.

    The basis is centered and scaled to the spectral window of MB to
    keep the Vandermonde-like conditioning in check; the returned fit
    is (q, center, radius) with MC ~ sum q_j ((MB - c I)/r)^j.
    """
    n = MB.shape[0]
    w = np.linalg.eigvals(MB)
    c = float(np.mean(w).real)
    r = max(float(np.max(np.abs(w - c))), 1e-3)
    X = (MB - c * np.eye(n)) / r
    basis = [np.eye(n)]
    for _ in range(n - 1):
        basis.append(basis[-1] @ X)
    G = np.column_stack([b.ravel() for b in basis])
    q, *_ = np.linalg.lstsq(G, MC.ravel(), rcond=None)
    resid = np.linalg.norm(G @ q - MC.ravel())
    scale = max(1.0, np.linalg.norm(MC.ravel()))
    if resid > 1e-8 * scale:
        return None
    return q, c, r


def _poly_drag(A, B, C, q, eps, radius=None):
    """Split B to a simple spectrum and drag C along as the same
    polynomial in the new A^{-1}B.

    Exact commutation and a shared eigenbasis come for free, so the
    triple is SDC in one step with no further recursion.
    """
    qs, c, r = q
    split = _pair_split(A, B, radius)
    for shrink in range(60):
        Bt = split(eps * 0.5**shrink)
        Mt = (np.linalg.solve(A, Bt) - c * np.eye(A.shape[0])) / r
        acc = np.zeros_like(A)
        power = np.eye(A.shape[0])
        for qj in qs:
            acc = acc + qj * power
            power = power @ Mt
        Ct = A @ acc
        Ct = 0.5 * (Ct + Ct.T)
        if _distance((Bt, Ct), (B, C)) <= eps:
            return Bt, Ct
    raise errors.CertificationFailed("polynomial drag could not fit the budget")


def _leading_split(sigmas, Pi):
    """The k x k leading pair (Abar, Cbar) = (Diag(sigma), sym(Abar Pi))
    of one block size and its unit eigenvalue splitting, mapped back
    from the pair's canonical coordinates.  Abar is its own inverse."""
    Abar = np.diag(np.array(sigmas, dtype=float))
    Cbar = 0.5 * ((Abar @ Pi) + (Abar @ Pi).T)
    Wb, blks = canonicalize_nilpotent_pair(Abar, Cbar)
    Wbi = np.linalg.inv(Wb)
    dbar = Wbi.T @ splitting_perturbation([(s, z, 0.0) for s, z in blks], 1.0) @ Wbi
    return Abar, Cbar, dbar


def _nilpotent_flatten(A, B, C, Winv, blocks, Pi, part, eps, steps, depth):
    """Split every block of the commutant projection apart in one shot.

    Size groups get staggered scalar shifts; groups with several blocks
    additionally get the k x k splitting lifted through kron F_eta.  The
    resulting projection has all-distinct real eigenvalues, so A^{-1}C
    becomes nonderogatory and A^{-1}B is dragged as a polynomial in it.
    Returns None when the polynomial fit does not certify (the caller
    falls back to case 2 or case 3).
    """
    n = A.shape[0]
    sizes = tuple(size for _, size in blocks)
    sigmas = tuple(sigma for sigma, _ in blocks)
    offsets = part.offsets()
    groups: dict[int, list[int]] = {}
    for b, size in enumerate(sizes):
        groups.setdefault(size, []).append(b)
    G = len(groups)

    delta_can = np.zeros((n, n))
    min_gap = np.inf
    centers = []
    for gi, (eta, idxs) in enumerate(sorted(groups.items())):
        shift = (gi + 1) / (2.0 * G)
        for b in idxs:
            o = offsets[b]
            delta_can[o : o + eta, o : o + eta] += (
                shift * sigmas[b] * f_mat(eta)
            )
        if len(idxs) == 1:
            centers.append(shift)
            continue
        # within-group split, kept an order below the group spacing
        try:
            Abar, Cbar, dbar = _leading_split(
                [sigmas[b] for b in idxs], Pi[np.ix_(idxs, idxs)]
            )
        except errors.SdckitError:
            return None
        # aim the within-group split at a quarter of the group spacing
        wscale = 1.0 / (8.0 * G * max(1.0, float(np.linalg.norm(dbar, 2))))
        wbar = np.linalg.eigvals(Abar @ (Cbar + wscale * dbar))
        if np.max(np.abs(wbar.imag)) > 1e-9:
            return None
        ws = np.sort(wbar.real)
        got = float(np.min(np.diff(ws))) if len(ws) > 1 else 1.0
        target = 1.0 / (8.0 * G)
        if 0 < got < target:
            boost = min(target / got, 1.0 / (4.0 * G * wscale * max(1.0, float(np.linalg.norm(dbar, 2)))))
            if boost > 1.0:
                wscale *= boost
                wbar = np.linalg.eigvals(Abar @ (Cbar + wscale * dbar))
                if np.max(np.abs(wbar.imag)) > 1e-9:
                    return None
        centers.extend(shift + wbar.real)
        lift = np.zeros((n, n))
        for i, bi in enumerate(idxs):
            for j, bj in enumerate(idxs):
                oi, oj = offsets[bi], offsets[bj]
                lift[oi : oi + eta, oj : oj + eta] = (
                    sigmas[bi] * dbar[i, j] * f_mat(eta)
                )
        # symmetric by construction since Abar dbar is symmetric
        delta_can += wscale * 0.5 * (lift + lift.T)
    cv = np.sort(np.array(centers))
    if len(cv) > 1:
        min_gap = float(np.min(np.diff(cv)))
        if min_gap <= 1e-9:
            return None
    else:
        min_gap = 1.0

    delta = Winv.T @ delta_can @ Winv
    amp = float(np.linalg.norm(delta, 2))
    scale = min(1.0, 0.5 * eps / amp) if amp > 0 else 1.0
    Ct = C + scale * delta
    Ct = 0.5 * (Ct + Ct.T)
    MCt = np.linalg.solve(A, Ct)
    q = _poly_fit(MCt, np.linalg.solve(A, B))
    if q is None:
        return None
    steps.append(f"flatten@{depth}")
    hint = scale * min_gap
    Ct2, Bt = _poly_drag(A, Ct, B, q, 0.5 * eps, radius=0.45 * hint)
    if np.linalg.norm(Ct2 - C, 2) > eps * (1 + 1e-9):
        return None
    return Bt, Ct2


def _recurse(A, B, C, eps, steps, depth, gap_hint=None):
    n = A.shape[0]
    if n == 1:
        return B, C
    if depth > 3 * n + 8:
        raise errors.CertificationFailed("triple recursion did not terminate")

    MB = np.linalg.solve(A, B)
    MC = np.linalg.solve(A, C)

    # whenever A^{-1}C is a polynomial in A^{-1}B (single Jordan chains,
    # scalar blocks, every post-split leaf) the pair split of B settles
    # the triple in one step; this also avoids restricting through the
    # nearly-collinear subspaces a small split leaves behind
    zeroB = np.linalg.norm(MB, 2) <= 1e-10
    zeroC = np.linalg.norm(MC, 2) <= 1e-10
    if zeroB and zeroC:
        return B, C
    if zeroB:
        steps.append(f"pair-split-C@{depth}")
        return B, _pair_split(A, C)(eps)
    if zeroC:
        steps.append(f"pair-split-B@{depth}")
        return _pair_split(A, B)(eps), C
    radius = 0.45 * gap_hint if gap_hint is not None else None
    # C as a polynomial in A^{-1}B, else B as one in A^{-1}C
    for label, order in (("poly-drag", 1), ("poly-drag-swapped", -1)):
        (X, MX), (Y, MY) = ((B, MB), (C, MC))[::order]
        q = _poly_fit(MX, MY)
        if q is not None:
            steps.append(f"{label}@{depth}")
            return _poly_drag(A, X, Y, q, eps, radius=radius)[::order]

    # a construction that knows the size of the split it just planted
    # passes gap_hint to keep the clusters below it
    wB, clB = defect_clusters(MB, radius)
    if len(clB) > 1:
        return _split_by(A, B, C, MB, wB, clB, eps, steps, depth)
    wC, clC = defect_clusters(MC, radius)
    if len(clC) > 1:
        return _split_by(A, C, B, MC, wC, clC, eps, steps, depth)[::-1]

    # single joint eigenvalue: shift both to nilpotency
    thB = float(np.mean(wB).real)
    thC = float(np.mean(wC).real)
    B0 = B - thB * A
    C0 = C - thC * A

    # both nilpotent, neither polynomial in the other: canonicalize the
    # (A, B0) pair and dispatch on the block layout
    W, blocks = canonicalize_nilpotent_pair(A, B0)
    Winv = np.linalg.inv(W)
    sizes = tuple(size for _, size in blocks)
    part = ToeplitzPartition(sizes)
    Cp = W.T @ C0 @ W
    Ap, _ = jordan_pair([(sigma, size, 0.0) for sigma, size in blocks])
    Tc = Ap @ Cp  # Ap^{-1} Cp: Ap = Diag(sigma F) is its own inverse
    if not is_block_toeplitz(Tc, part):
        raise errors.StructureMismatch(
            "A^-1 C is not in the Toeplitz commutant of A^-1 B"
        )

    # flattened route: one composite shift of C gives the leading-coefficient
    # projection all-distinct eigenvalues, which makes A^{-1}C nonderogatory
    # and A^{-1}B a polynomial in it; the drag then finishes without any
    # further restriction (so no compounding of subspace tilts)
    Pi = pi_map(Tc, part)
    flat = _nilpotent_flatten(A, B, C, Winv, blocks, Pi, part, eps, steps, depth)
    if flat is not None:
        return flat

    if len(set(sizes)) >= 2:
        # case 2: shift the minimal-size blocks of C
        steps.append(f"case2@{depth}")
        delta_unit = Winv.T @ _min_size_shift(blocks) @ Winv
        amp = float(np.linalg.norm(delta_unit, 2))
        eff = min(1.0, 0.5 * eps / amp)
        Ct = C + eff * delta_unit
        # Pi of the shifted commutant is Diag(eff I, nilpotent): the split is eff
        return _recurse(A, B, Ct, 0.5 * eps, steps, depth + 1, gap_hint=eff)

    if len(blocks) >= 2:
        # case 3: split the k x k leading pair and lift through kron F_eta
        steps.append(f"case3@{depth}")
        Abar, Cbar, dbar = _leading_split([sigma for sigma, _ in blocks], Pi)
        lift_unit = Winv.T @ np.kron(dbar, f_mat(sizes[0])) @ Winv
        eff = min(1.0, 0.5 * eps / float(np.linalg.norm(lift_unit, 2)))
        wbar = np.linalg.eigvals(Abar @ (Cbar + eff * dbar))
        gaps = np.abs(wbar[:, None] - wbar[None, :])[~np.eye(len(wbar), dtype=bool)]
        return _recurse(A, B, C + eff * lift_unit, 0.5 * eps, steps, depth + 1,
                        gap_hint=float(np.min(gaps)))

    raise errors.CertificationFailed("nilpotent core did not flatten")
