"""Necessary-condition certificates against ASDC and RSDC.

Two obstructions: the commutator rank of a triple bounds the padding
dimension below which the zero-extended family cannot be ASDC (and the
triple cannot be d-RSDC), and the dimension of the real unital algebra
generated by S^{-1} A_i exceeds n only for families that are not ASDC.
The explicit counterexample families are built exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .matcore import (
    RANK_TOL,
    SymMat,
    commutator,
    f_mat,
    form_family,
    numeric_rank,
    square_family,
)
from .sdc import pivot

__all__ = [
    "ObstructionReport",
    "commutator_obstruction",
    "algebra_dimension",
    "builtin_counterexamples",
    "not_asdc_certificate",
]


@dataclass(frozen=True)
class ObstructionReport:
    commutator_rank: int | None
    rsdc_lower_bound: int | None
    algebra_dim: int
    algebra_bound_violated: bool


def commutator_obstruction(B, C) -> tuple[int, int]:
    """Commutator rank and the padding threshold it implies.

    For {I, B, C}, zero-padding by fewer than ceil(rank([B,C])/2)
    dimensions leaves a family that is not ASDC, and the triple is not
    d-RSDC below that threshold.
    """
    b, c = form_family([B, C])
    rank = numeric_rank(commutator(b, c))
    return rank, math.ceil(rank / 2)


def algebra_dimension(generators, max_products: int | None = None) -> int:
    """Dimension of the real unital algebra generated by the inputs.

    Iterated span closure: seed with the identity and the generators,
    append products of the current basis with the generators, extract a
    basis by SVD rank over vectorized matrices, stop at a fixpoint.  The
    fixpoint is certified by one extra round adding nothing.
    """
    mats = square_family(generators)
    n = mats[0].shape[0]
    if max_products is None:
        max_products = n * n

    # products whose norm is pure roundoff must not be normalized into
    # spurious directions.  The generators are scaled by the power of two
    # nearest gen_scale (a norm that overflows counts as the largest
    # double), and so is the floor: every product and its norm scale
    # exactly with them, so each is judged and normalized as it would be
    # unscaled, while the unit-norm identity and basis rows stay above the
    # floor however large the generators are
    gen_scale = min(max(1.0, max(np.linalg.norm(g, 2) for g in mats)), np.finfo(float).max)
    unit = math.ldexp(1.0, -round(math.log2(gen_scale)))
    mats = [g * unit for g in mats]
    zero_floor = 1e-12 * gen_scale * unit

    def extract_basis(stack):
        rows = []
        for m in stack:
            nrm = np.linalg.norm(m.ravel())
            if nrm > zero_floor:
                rows.append(m.ravel() / nrm)
        M = np.vstack(rows)
        u, s, vt = np.linalg.svd(M, full_matrices=False)
        # generators commute only to their own rounding level, and the
        # closure amplifies that noise; true algebra directions decay
        # gradually while noise enters after a sharp spectral drop, so
        # the rank is cut at the first thousandfold gap (with an
        # absolute floor at RANK_TOL)
        rank = len(s)
        for i in range(1, len(s)):
            if s[i] < RANK_TOL * s[0] or s[i] * 1e3 < s[i - 1]:
                rank = i
                break
        return [vt[i].reshape(n, n) for i in range(rank)]

    basis = extract_basis([np.eye(n)] + mats)
    for _ in range(max_products):
        extended = list(basis)
        for b in basis:
            for g in mats:
                extended.append(b @ g)
        new_basis = extract_basis(extended)
        if len(new_basis) == len(basis):
            # certified stable: one more round added nothing
            return len(basis)
        basis = new_basis
    raise errors.NoConvergence(
        f"algebra closure did not stabilize within {max_products} rounds"
    )


def _seven_tuple() -> list[SymMat]:
    """The order-6 seven-matrix family whose algebra dimension exceeds 6."""
    def e(i, j):
        m = np.zeros((6, 6))
        m[i - 1, j - 1] = 1.0
        m[j - 1, i - 1] = 1.0
        return m

    def d(i):
        m = np.zeros((6, 6))
        m[i - 1, i - 1] = 1.0
        return m

    mats = [
        f_mat(6),
        d(4),
        e(4, 5),
        e(4, 6),
        d(5),
        e(5, 6),
        d(6),
    ]
    return [SymMat(m) for m in mats]


def _large_commutator_triple(n: int) -> list[SymMat]:
    """{I_2n, I_n (+) -I_n, anti-block identity}: commutator rank 2n."""
    B = np.zeros((2 * n, 2 * n))
    B[:n, :n] = np.eye(n)
    B[n:, n:] = -np.eye(n)
    C = np.zeros((2 * n, 2 * n))
    C[:n, n:] = np.eye(n)
    C[n:, :n] = np.eye(n)
    return [SymMat(np.eye(2 * n)), SymMat(B), SymMat(C)]


def builtin_counterexamples() -> dict:
    """The explicit obstruction families, with their expected certificates.

    "seven_tuple": seven order-6 matrices with an invertible leading
    element, pairwise-commuting real-spectrum quotients, and algebra
    dimension above 6 (hence not ASDC).  "large_commutator": a family
    per n whose commutator rank is exactly 2n, so padding by fewer than
    n zeros never reaches ASDC.
    """
    return {
        "seven_tuple": {
            "matrices": _seven_tuple(),
            "expect": "algebra_dim > 6",
        },
        "large_commutator": {
            "build": _large_commutator_triple,
            "expect": "rank([B, C]) = 2n, threshold n",
        },
    }


def not_asdc_certificate(family, seed: int = 0) -> ObstructionReport:
    """Necessary-condition report for a family.

    algebra_bound_violated = True proves the family is not ASDC; the
    absence of a violation proves nothing (no converse holds for wide
    families).  One span search (sdc.pivot) gives the invertible S and,
    for triples, the dropped member: the commutator obstruction of the
    two non-pivot elements is included.
    """
    mats = form_family(family)
    n = mats[0].shape[0]
    p = pivot(mats, seed)
    if p.rank < n:
        raise errors.NoInvertibleElement(
            "no certified-invertible element in the span"
        )
    gens = [np.linalg.solve(p.S, A) for A in mats]
    dim = algebra_dimension(gens)

    comm_rank = None
    threshold = None
    if len(mats) == 3:
        rest = [m for i, m in enumerate(mats) if i != p.drop]
        comm_rank, threshold = commutator_obstruction(rest[0], rest[1])

    return ObstructionReport(
        commutator_rank=comm_rank,
        rsdc_lower_bound=threshold,
        algebra_dim=dim,
        algebra_bound_violated=dim > n,
    )
