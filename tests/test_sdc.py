import gc
import warnings
import weakref
from itertools import islice

import numpy as np
import pytest
import scipy.linalg

from conftest import common_null_family, fresh_python, random_congruence, random_sdc_family
from sdckit import _chains, asdc, errors, obstruct, rsdc
from sdckit import sdc as sdc_module
from sdckit._pencil import certify_residuals, invariant_subspace, real_schur
from sdckit.canonical import tmat
from sdckit.matcore import CLUSTER_TOL, RESID_TOL, direct_sum, f_mat, g_mat, h_mat, numeric_rank
from sdckit.sdc import (
    Witness,
    _joint_eigenvalue_groups,
    _scaled_group_columns,
    find_max_rank_element,
    sdc_check,
    sdc_check_pd,
    simdiag_commuting,
    span_candidates,
)


def test_max_rank_trivial():
    c, S = find_max_rank_element([np.eye(3)])
    assert np.linalg.matrix_rank(S.a) == 3
    c, S = find_max_rank_element([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert np.linalg.matrix_rank(S.a) == 2
    c, S = find_max_rank_element([np.zeros((2, 2))])
    assert np.linalg.matrix_rank(S.a) == 0


def test_max_rank_huge_finite_member():
    # a finite full-rank first member wins the search; symmetrizing its
    # sum with the transpose used to overflow to inf
    c, S = find_max_rank_element([np.diag([1e308, 1e308])])
    assert np.array_equal(c, [1.0])
    assert np.array_equal(S.a, np.diag([1e308, 1e308]))


def test_max_rank_empty_family():
    with pytest.raises(errors.EmptyFamily):
        find_max_rank_element([])


def test_max_rank_deterministic():
    fam = [np.diag([1.0, 0.0, 2.0]), np.diag([0.0, 3.0, 0.0])]
    c1, _ = find_max_rank_element(fam, seed=11)
    c2, _ = find_max_rank_element(fam, seed=11)
    assert np.array_equal(c1, c2)


def test_equilibrated_family_ignores_a_known_pivot(rng):
    # row scales from 1e3 to 1e-3 trigger the joint equilibration; its
    # recursion searches and reduces the scaled family, since a pivot and
    # its range reduction handed in belong to the unscaled one (whose
    # smallest scale sits below the rank floor); the second family shares
    # a null vector, so the scaled family is singular and reduced too
    D = np.diag(np.logspace(3, -3, 4))
    for keep in ([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0]):
        Q = random_congruence(rng, 4, 10.0)
        fam = [D @ Q.T @ np.diag(keep * rng.standard_normal(4)) @ Q @ D for _ in range(2)]
        fam = [0.5 * (M + M.T) for M in fam]
        rowmax = np.max([np.max(np.abs(M), axis=1) for M in fam], axis=0)
        assert rowmax.max() / rowmax.min() > 1e4  # the equilibration runs
        p = sdc_module.pivot(fam, 0)
        assert p.rank == 3
        reduced = sdc_module._range_reduction(fam, p.S, p.rank)
        searched = sdc_module._sdc_check(fam, 0)
        for handed in (sdc_module._sdc_check(fam, 0, p),
                       sdc_module._sdc_check(fam, 0, p, reduced)):
            assert searched.is_sdc and handed.is_sdc
            assert np.array_equal(searched.congruence.P, handed.congruence.P)
            assert all(map(np.array_equal, searched.diagonals, handed.diagonals))


def test_span_candidates_order():
    # every member alone first, then normals drawn from default_rng(seed)
    cands = list(islice(span_candidates(3, seed=5), 6))
    assert all(np.array_equal(c, e) for c, e in zip(cands[:3], np.eye(3)))
    rng = np.random.default_rng(5)
    assert all(np.array_equal(c, rng.standard_normal(3)) for c in cands[3:])


def _walk_reference(mats, seed):
    # the reference for pivot: one numeric_rank per candidate, in order
    n, m, best = mats[0].shape[0], len(mats), -1
    for c in islice(span_candidates(m, seed), m + 64):
        S = sum(ci * Ai for ci, Ai in zip(c, mats))
        r = numeric_rank(S)
        if r > best:
            best, best_c, best_S = r, c, S
        if best == n:
            break
    S = 0.5 * (best_S + best_S.T)
    return best_c, S, numeric_rank(S), int(np.argmax(np.abs(best_c)))


def _seven_tuple():
    return obstruct.builtin_counterexamples()["seven_tuple"]["matrices"]


_PIVOT_FAMILIES = {
    # (members, rank the walk reaches)
    "singular-pair-2": (lambda rng: common_null_family(rng, 2, 2), 1),
    "singular-pair-6": (lambda rng: common_null_family(rng, 6, 2), 5),
    # 40 and 10 candidates per stacked SVD: the tail spans chunks
    "singular-pair-20": (lambda rng: common_null_family(rng, 20, 2), 19),
    "singular-pair-40": (lambda rng: common_null_family(rng, 40, 2), 39),
    "singular-triple": (lambda rng: common_null_family(rng, 5, 3), 4),
    "nonsingular-pair": (lambda rng: random_sdc_family(rng, 5, 2)[0], 5),
    # singular members, full-rank first random candidate
    "split-diagonal": (lambda rng: [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 2),
    # the second member is the first full-rank candidate
    "mis-scaled": (lambda rng: [np.diag([1.0, 1.0, 0.0]), 1e-11 * np.eye(3)], 3),
    "zero": (lambda rng: [np.zeros((3, 3)), np.zeros((3, 3))], 0),
    # an invertible first member stops the walk at once
    "seven-tuple": (lambda rng: [M.a for M in _seven_tuple()], 6),
    # entries near 1e200, whose squares overflow: |S|_F is formed scaled,
    # and the tail's first candidate beats the rank-one members
    "rank-one-1e200": (lambda rng: [1e200 * np.outer(q, q)
                                    for q in rng.standard_normal((3, 3))], 3),
}


def _near_kernel(noise, m, e):
    return lambda rng: [2.0**e * M for M in common_null_family(rng, 6, m, noise)]


# kernel noise straddling RANK_TOL, where the tail's rank bound rules out
# all, some or none of the candidates; 20 members weigh the m-dependent
# rounding term of the stacked sum, and 2^±900 the extremes of the range
_PIVOT_FAMILIES.update({
    f"near-kernel-{noise:g}-{m}-members-2^{e}": (_near_kernel(noise, m, e),
                                                 6 if noise > 1e-10 else 5)
    for noise in (0.0, 1e-12, 1e-11, 1e-10, 1e-9) for m in (2, 3, 20) for e in (-900, 0, 900)
})


@pytest.mark.parametrize("name", sorted(_PIVOT_FAMILIES))
def test_pivot_matches_the_candidate_walk(rng, name):
    build, rank = _PIVOT_FAMILIES[name]
    mats = build(rng)
    for seed in (0, 7):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = sdc_module.pivot(mats, seed)
            c, S, r, drop = _walk_reference(mats, seed)
        assert p.coeffs.tobytes() == c.tobytes() and p.S.tobytes() == S.tobytes()
        assert (p.rank, p.drop) == (r, drop)
        assert p.rank == rank


def test_singular_pair_rules_out_its_random_tail_without_svds(rng, monkeypatch):
    # a pair with a common null vector has no invertible candidate, so the
    # walk reaches all 64 random combinations; the rank bound from one SVD
    # of the stacked members rules out each of them, so no stacked SVD
    # runs beside one per member, the stacked members', the chosen S's
    # and the range reduction's
    sigma = np.array([1.0, -1.0, 1.0])
    A = direct_sum(f_mat(2), np.diag(sigma), np.zeros((1, 1)))
    B = direct_sum(tmat(0.3 + 1.2j), np.diag(sigma * rng.standard_normal(3)), np.zeros((1, 1)))
    Q = random_congruence(rng, 6, 10.0)
    A, B = (0.5 * (Q.T @ M @ Q + (Q.T @ M @ Q).T) for M in (A, B))
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.prod(np.shape(a)[:-2], dtype=int))  # matrices in the call
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert asdc.asdc_pair_check(A, B).status == "ASDC_not_SDC"
    assert len(calls) <= 5
    assert calls == [1] * len(calls)


def test_overflowing_span_candidate():
    # finite members whose combination overflows: the walk names the
    # overflow as a non-finite entry, and no numpy warning escapes
    big = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # rank 2 of 3 everywhere; the fourth draw of seed 0 overflows
        with pytest.raises(errors.NonFiniteEntry, match="non-finite entry"):
            find_max_rank_element([np.diag([big, big, 0.0]), np.diag([big, -big, 0.0])])
        # the first draw is full rank and stops the walk before the
        # seventh, which overflows
        mats = [np.diag([big, 0.0]), np.diag([0.0, big])]
        c, S = find_max_rank_element(mats)
    assert np.array_equal(c, np.random.default_rng(0).standard_normal(2))
    assert numeric_rank(S) == 2
    assert S.a.tobytes() == _walk_reference(mats, 0)[1].tobytes()


def test_certify_residuals_returns_products(rng):
    P = random_congruence(rng, 3, 10.0)
    A = rng.standard_normal((3, 3))
    A = A + A.T
    (D,) = certify_residuals(P.T, P, [A], [P.T @ A @ P], 1e-8, np.linalg.cond(P), "test")
    assert np.array_equal(D, P.T @ A @ P)


def test_certify_residuals_none_means_diagonal():
    I = np.eye(2)
    near = np.array([[1.0, 1e-3], [1e-3, 2.0]])
    (D,) = certify_residuals(I, I, [np.diag([1.0, 2.0])], [None], 1e-8, 1.0, "test")
    assert np.array_equal(D, np.diag([1.0, 2.0]))
    # the off-diagonal 1e-3 is the residual against the own diagonal
    with pytest.raises(errors.CertificationFailed, match="test residual 1.000e-03"):
        certify_residuals(I, I, [near], [None], 1e-4, 1.0, "test")


def test_certify_residuals_names_the_member():
    I = np.eye(2)
    near = np.array([[1.0, 1e-3], [1e-3, 2.0]])
    with pytest.raises(errors.NotDiagonalizable, match="^joint residual .* for member 1 exceeds"):
        certify_residuals(I, I, [I, near], [None, None], 1e-8, 1.0, "joint",
                          error=errors.NotDiagonalizable)


def test_sdc_trivial_pair():
    res = sdc_check([np.eye(2), np.diag([1.0, 2.0])])
    assert res.is_sdc
    P = res.congruence.P
    # P is a permutation/scaling up to sign
    assert np.count_nonzero(np.abs(P) > 1e-12) == 2


def test_sdc_golden_negatives():
    res = sdc_check([f_mat(2), np.diag([1.0, -1.0])])
    assert not res.is_sdc and res.witness.kind == "non-real-eigenvalue"
    res = sdc_check([f_mat(2), np.array([[0.0, 1.0], [1.0, 1.0]])])
    assert not res.is_sdc and res.witness.kind == "not-diagonalizable"


def test_sdc_noncommuting_triple():
    n = 3
    B = direct_sum(np.eye(n), -np.eye(n))
    C = np.zeros((2 * n, 2 * n))
    C[:n, n:] = np.eye(n)
    C[n:, :n] = np.eye(n)
    res = sdc_check([np.eye(2 * n), B, C])
    assert not res.is_sdc and res.witness.kind == "non-commuting"


def test_sdc_constructed_families(rng):
    for _ in range(40):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 5))
        fam, _ = random_sdc_family(rng, n, m)
        res = sdc_check(fam)
        assert res.is_sdc
        P = res.congruence.P
        for i, A in enumerate(fam):
            D = P.T @ A @ P
            off = D - np.diag(np.diag(D))
            bound = 1e-8 * res.congruence.kappa**2 * max(1, np.linalg.norm(A, 2))
            assert np.linalg.norm(off, 2) <= bound
            assert np.allclose(np.diag(D), res.diagonals[i])


def test_sdc_recovers_planted_diagonals(rng):
    # construct-then-check: recovered diagonals match the planted ones
    # up to a joint permutation and per-column scaling
    n, m = 5, 2
    P0 = random_congruence(rng, n, 20.0)
    Pi = np.linalg.inv(P0)
    D = [np.sort(rng.standard_normal(n)) for _ in range(m)]
    fam = [0.5 * ((Pi.T * d) @ Pi + ((Pi.T * d) @ Pi).T) for d in D]
    res = sdc_check(fam)
    assert res.is_sdc
    # ratios of recovered diagonals must match ratios of planted ones
    # (scaling cancels in d1/d0 wherever d0 != 0)
    got = np.array(res.diagonals)
    ratios_got = np.sort(got[1] / got[0])
    ratios_want = np.sort(np.array(D[1]) / np.array(D[0]))
    assert np.allclose(ratios_got, ratios_want, rtol=1e-6)


def test_singular_reduction_both_directions(rng):
    # appending a shared zero row/column preserves the verdict
    fam, _ = random_sdc_family(rng, 4, 3)
    padded = [direct_sum(A, np.zeros((2, 2))) for A in fam]
    assert sdc_check(padded).is_sdc
    bad = [f_mat(2), np.diag([1.0, -1.0])]
    padded_bad = [direct_sum(A, np.zeros((1, 1))) for A in bad]
    res = sdc_check(padded_bad)
    assert not res.is_sdc and res.witness.kind == "non-real-eigenvalue"


@pytest.mark.parametrize("seed", range(20))
def test_lifted_diagonals_are_the_certified_products(seed):
    # a singular family is decided on its range and lifted back; the
    # lifted P passes the off-diagonal certificate, and the diagonals are
    # those of P^T A_i P for that P, bitwise
    fam, _ = random_sdc_family(np.random.default_rng(seed), 4, 2)
    Q, _ = np.linalg.qr(np.random.default_rng([seed, 1]).standard_normal((6, 6)))
    family = [Q.T @ direct_sum(A, np.zeros((2, 2))) @ Q for A in fam]
    family = [0.5 * (M + M.T) for M in family]
    res = sdc_check(family)
    assert res.is_sdc
    P = res.congruence.P
    for A, d in zip(family, res.diagonals):
        np.testing.assert_array_equal(d, np.diag(P.T @ A @ P))
    certify_residuals(P.T, P, family, [None] * 2, 1e-8, res.congruence.kappa, "off-diagonal")


def test_range_violation_witness():
    # family spanning different ranges: a type-3-like obstruction
    A = np.diag([1.0, 0.0])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    # max-rank element is B (rank 2) so no violation; build a real one:
    A1 = np.diag([1.0, 0.0, 0.0])
    A2 = np.zeros((3, 3))
    A2[0, 1] = A2[1, 0] = 1.0
    A2[2, 2] = 0.0
    # span of {A1, A2} always singular; range of A2 not inside range of
    # a max-rank element when the generic combination has rank 2
    res = sdc_check([A1, np.diag([0.0, 0.0, 1.0]), A2])
    # whatever the witness, the verdict must not be SDC with a bad cert
    if res.is_sdc:
        P = res.congruence.P
        for i, M in enumerate([A1, np.diag([0.0, 0.0, 1.0]), A2]):
            off = P.T @ M @ P - np.diag(res.diagonals[i])
            assert np.linalg.norm(off) <= 1e-6


def test_zero_family():
    res = sdc_check([np.zeros((3, 3)), np.zeros((3, 3))])
    assert res.is_sdc
    assert all(np.array_equal(d, np.zeros(3)) for d in res.diagonals)


def test_sdc_check_pd():
    res = sdc_check_pd([np.eye(3), np.diag([1.0, 2.0, 3.0])], [1.0, 0.0])
    assert res.is_sdc
    res = sdc_check_pd(
        [np.eye(2), f_mat(2), np.diag([1.0, -1.0])], [1.0, 0.0, 0.0]
    )
    assert not res.is_sdc and res.witness.kind == "non-commuting"
    res = sdc_check_pd([np.diag([2.0, 3.0]), np.diag([1.0, 5.0])], [1.0, 0.0])
    assert res.is_sdc


def test_sdc_check_pd_rejects_indefinite():
    with pytest.raises(errors.NotPositiveDefinite):
        sdc_check_pd([np.diag([1.0, -1.0])], [1.0])
    with pytest.raises(errors.OrderMismatch, match="^one coefficient per family member required$"):
        sdc_check_pd([np.eye(2), np.eye(2)], [1.0])


def test_sdc_check_pd_matches_general(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        fam, _ = random_sdc_family(rng, n, 3)
        fam = [fam[0] @ fam[0].T + np.eye(n) * 0.1] + fam[1:]  # make one PD
        fam[0] = 0.5 * (fam[0] + fam[0].T)
        coeffs = np.zeros(3)
        coeffs[0] = 1.0
        # fam[0] is PD but the family need not be SDC anymore; just
        # compare the two decision paths on the same input
        a = sdc_check(fam).is_sdc
        b = sdc_check_pd(fam, coeffs).is_sdc
        assert a == b


def test_simdiag_commuting_basics(rng):
    V = simdiag_commuting([np.diag([1.0, 2.0])])
    assert np.allclose(np.linalg.inv(V) @ np.diag([1.0, 2.0]) @ V, np.diag([1.0, 2.0]))
    V = simdiag_commuting([np.eye(3), np.eye(3)])
    assert V.shape == (3, 3)


def test_simdiag_polynomial_family(rng):
    # M and M^2 share the eigenbasis of M
    for _ in range(10):
        n = int(rng.integers(2, 8))
        Q = random_congruence(rng, n, 10.0)
        M = Q @ np.diag(np.arange(1.0, n + 1)) @ np.linalg.inv(Q)
        V = simdiag_commuting([M, M @ M])
        for X in (M, M @ M):
            D = np.linalg.inv(V) @ X @ V
            assert np.linalg.norm(D - np.diag(np.diag(D))) < 1e-6


def test_simdiag_rejects_noncommuting():
    with pytest.raises(errors.NotCommuting):
        simdiag_commuting([np.diag([1.0, -1.0]), f_mat(2)])


def test_simdiag_rejects_defective():
    with pytest.raises(errors.NotDiagonalizable):
        simdiag_commuting([np.array([[1.0, 1.0], [0.0, 1.0]])])


def test_order_mismatch():
    with pytest.raises(errors.OrderMismatch):
        sdc_check([np.eye(2), np.eye(3)])


def test_homogenization_implication(rng):
    # Prop-D style contract at the sdc level: if the bordered family with
    # the corner form is SDC then the original family is SDC
    for t in range(10):
        n, m = 4, 2
        fam, P0 = random_sdc_family(rng, n, m)
        Pi = np.linalg.inv(P0)
        pd = Pi.T @ np.diag(rng.uniform(0.5, 2.0, n)) @ Pi
        fam[0] = 0.5 * (pd + pd.T)
        v = rng.standard_normal(n)
        Qs = []
        for A in fam:
            Q = np.zeros((n + 1, n + 1))
            Q[:n, :n] = A
            Q[:n, n] = A @ v
            Q[n, :n] = A @ v
            Q[n, n] = float(v @ A @ v) + rng.standard_normal()
            Qs.append(0.5 * (Q + Q.T))
        corner = np.zeros((n + 1, n + 1))
        corner[n, n] = 1.0
        premise = sdc_check(Qs + [corner]).is_sdc
        conclusion = sdc_check(fam).is_sdc
        assert (not premise) or conclusion


def _scrambled_pair(A0, B0, Q):
    return [0.5 * (Q.T @ M @ Q + (Q.T @ M @ Q).T) for M in (A0, B0)]


def test_simple_spectrum_needs_no_schur(rng, monkeypatch):
    # simple clusters take their eigenvectors from the one eig per level;
    # only repeated clusters need a sorted Schur form
    calls = []
    schur = scipy.linalg.schur

    def counting(*args, **kwargs):
        calls.append(1)
        return schur(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counting)
    fam, _ = random_sdc_family(rng, 40, 2)
    assert sdc_check(fam).is_sdc
    assert len(calls) == 0
    # a joint eigenvalue of multiplicity 3 is one repeated cluster
    assert sdc_check(_triple_cluster_family(rng)).is_sdc
    assert len(calls) >= 1


def _triple_cluster_family(rng):
    # an SDC pair whose pencil has one eigenvalue of multiplicity 3
    Pi = np.linalg.inv(random_congruence(rng, 6, 10.0))
    fam = [Pi.T @ np.diag(d) @ Pi for d in (np.ones(6), [1.0, 1.0, 1.0, 2.0, 3.0, 4.0])]
    return [0.5 * (A + A.T) for A in fam]


def test_schur_loads_scipy_on_first_use_with_the_same_result(rng, tmp_path):
    # a fresh interpreter imports scipy.linalg at the first real Schur
    # form, and the verdict and P are those of this process, which loaded
    # scipy first
    fam = _triple_cluster_family(rng)
    np.save(tmp_path / "fam.npy", fam)
    code = f"""if True:
        import sys
        import numpy as np
        from sdckit.sdc import sdc_check
        fam = list(np.load({str(tmp_path / "fam.npy")!r}))
        print("scipy" in sys.modules)
        res = sdc_check(fam)
        print("scipy.linalg" in sys.modules, res.verdict)
        np.save({str(tmp_path / "P.npy")!r}, res.congruence.P)
    """
    assert fresh_python(code).split() == ["False", "True", "SDC"]
    res = sdc_check(fam)
    assert res.is_sdc
    P = np.load(tmp_path / "P.npy")
    assert P.dtype == res.congruence.P.dtype and P.tobytes() == res.congruence.P.tobytes()


def _greedy_groups_reference(diags):
    # the pairwise loop the vectorized grouping replaced
    m, n = diags.shape
    remaining = list(range(n))
    groups = []
    while remaining:
        i = remaining[0]
        grp, rest = [i], []
        for j in remaining[1:]:
            close = True
            for t in range(m):
                scale = max(1.0, float(np.max(np.abs(diags[t]))))
                if abs(diags[t, i] - diags[t, j]) > 10 * CLUSTER_TOL * scale:
                    close = False
                    break
            (grp if close else rest).append(j)
        groups.append(np.array(grp, dtype=int))
        remaining = rest
    return groups


def test_joint_eigenvalue_groups_match_greedy_loop(rng):
    h = 10 * CLUSTER_TOL  # the grouping threshold at scale 1
    cases = [
        # ties, a near-tie just inside and one just outside the threshold
        np.array([[1.0, 2.0, 1.0, 1.0 + 0.9 * h, 1.0 + 1.1 * h, 2.0]]),
        # the second member separates coordinates tied in the first
        np.array([[1.0, 1.0, 1.0, 0.5, 0.5], [3.0, 4.0, 3.0, 4.0, 4.0 + 0.5 * h]]),
        # non-transitive chain: 0~1 and 1~2 but not 0~2; the anchor decides
        np.array([[0.0, 0.6 * h, 1.2 * h, 0.5]]),
        # the threshold scales with the largest entry of each member
        np.array([[100.0, 100.0 + 500 * h, 100.0 + 2000 * h], [0.0, 0.0, 0.0]]),
        # three members, one of them all zero
        np.array([[1.0, 1.0, 2.0, 2.0], [0.0, 0.0, 0.0, 0.0], [5.0, 6.0, 5.0, 5.0]]),
        np.zeros((2, 1)),
    ]
    for _ in range(20):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 30))
        cases.append(rng.integers(0, 3, (m, n)) + rng.choice([0.0, 0.4 * h, 2 * h], (m, n)))
    for diags in cases:
        got = _joint_eigenvalue_groups(diags)
        want = _greedy_groups_reference(diags)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    groups = _joint_eigenvalue_groups(cases[2])
    assert [g.tolist() for g in groups] == [[0, 1], [2], [3]]


def test_simdiag_releases_its_members():
    # the refinement holds no reference cycle, so the members are freed
    # when the call returns, without a cyclic garbage collection
    M = np.diag([1.0, 2.0, 2.0, 3.0])
    ref = weakref.ref(M)
    gc.disable()
    try:
        simdiag_commuting([M, M @ M])
        del M
        assert ref() is None
    finally:
        gc.enable()


def _nothing_inside(form, center, radius):
    raise errors.StructureMismatch(f"no eigenvalues within {radius:.3e} of {center}")


def _one_column(form, center, radius):
    return invariant_subspace(form, center, radius)[:, :1]


# a sorted Schur form that finds none or too few of a cluster's
# eigenvalues (they moved between eig and Schur) is a defective pencil
@pytest.mark.parametrize("subspace, message", [
    (_nothing_inside, "^member 0: no eigenvalue found near 1.0$"),
    (_one_column, "^member 0 has a defective eigenvalue near 1.0$"),
], ids=["none", "too-few"])
def test_lost_cluster_is_not_diagonalizable(monkeypatch, subspace, message):
    monkeypatch.setattr("sdckit.sdc.invariant_subspace", subspace)
    with pytest.raises(errors.NotDiagonalizable, match=message):
        simdiag_commuting([np.diag([1.0, 1.0, 2.0])])
    res = sdc_check([np.eye(3), np.diag([1.0, 1.0, 2.0])])
    assert not res.is_sdc and res.witness.kind == "not-diagonalizable"


def _near_commuting(k, seed):
    # {I, D1, D2 + eta E} scrambled, eta = 10^(-k/4): E couples the two
    # coordinates where D1's eigenvalues are 1e-3 apart, so the
    # commutator, 1e-3 eta, passes the commutation test while the
    # returned P's off-diagonal residual lands near its bound
    rng = np.random.default_rng([seed, 11])
    E = np.zeros((4, 4))
    E[0, 1] = E[1, 0] = 10.0 ** (-k / 4)
    family = [np.eye(4), np.diag([1.0, 1.001, 2.0, -1.5]), np.diag(rng.standard_normal(4)) + E]
    Q = random_congruence(rng, 4, 10.0)
    return [0.5 * (Q.T @ M @ Q + (Q.T @ M @ Q).T) for M in family]


def test_joint_failure_without_a_defective_member():
    # the off-diagonal certificate refuses the joint congruence while
    # each member alone is diagonalizable: the witness names no member
    res = sdc_check(_near_commuting(24, 0), 0)
    assert res.witness == Witness("not-diagonalizable")


@pytest.mark.parametrize("k, seed", [(20, 1), (22, 2)])
def test_refused_joint_congruence_is_not_sdc(k, seed):
    # as for (24, 0) above: the joint basis' similarity residual passes,
    # the congruence's off-diagonal residual does not, and the answer is
    # a verdict, not CertificationFailed
    res = sdc_check(_near_commuting(k, seed), seed)
    assert res.verdict == "NotSDC" and res.witness == Witness("not-diagonalizable")


def test_certified_congruence_decides_sdc():
    # the joint basis' similarity residual exceeds its bound, but the
    # returned P passes the off-diagonal certificate, the one that decides
    family = _near_commuting(24, 4)
    res = sdc_check(family, 4)
    assert res.is_sdc
    P = res.congruence.P
    for A, d in zip(family, res.diagonals):
        D = P.T @ A @ P
        assert np.array_equal(np.diag(D), d)
        off = D - np.diag(np.diag(D))
        bound = RESID_TOL * res.congruence.kappa**2 * max(1.0, np.linalg.norm(A, 2))
        assert np.linalg.norm(off, 2) <= bound


def test_members_equal_to_s_leave_the_oracle(monkeypatch):
    # the full-rank first member is S: no eig of its image I, and the
    # witness indices stay positions in the family
    calls = []
    eig = np.linalg.eig

    def counting(M):
        calls.append(M.shape)
        return eig(M)

    monkeypatch.setattr(np.linalg, "eig", counting)
    assert sdc_check([np.eye(2), np.diag([1.0, 2.0])]).is_sdc
    assert calls == [(2, 2)]
    # a family of copies of S is SDC through the eigendecomposition of S
    res = sdc_check([np.diag([2.0, -3.0])] * 2)
    assert res.is_sdc and calls == [(2, 2)]
    res = sdc_check([np.eye(2), np.diag([1.0, -1.0]), f_mat(2)])
    assert res.witness.kind == "non-commuting" and (res.witness.i, res.witness.j) == (1, 2)
    res = sdc_check([np.eye(2), np.eye(2), np.diag([1.0, -1.0]), f_mat(2)])
    assert res.witness.kind == "non-commuting" and (res.witness.i, res.witness.j) == (2, 3)
    S = np.diag([1.0, -1.0])
    assert sdc_check([S, S, f_mat(2)]).witness.i == 2  # S^-1 F2 has spectrum +-i
    assert sdc_check([f_mat(2), f_mat(2), g_mat(2)]).witness == Witness("not-diagonalizable", 2)


def test_near_jordan_family_gets_a_verdict():
    # (F2 + I3, (lam F2 + G2) + Diag(d)) scrambled by a Gaussian Q: the
    # Jordan eigenvalue splits under roundoff, and the oracle must answer
    # with a verdict rather than leak StructureMismatch
    A0 = direct_sum(f_mat(2), np.eye(3))
    for s in range(1000):
        r = np.random.default_rng(s)
        lam, d = r.standard_normal(), r.standard_normal(3)
        B0 = direct_sum(lam * f_mat(2) + g_mat(2), np.diag(d))
        res = sdc_check(_scrambled_pair(A0, B0, r.standard_normal((5, 5))))
        assert res.is_sdc or res.witness.kind in ("non-real-eigenvalue", "not-diagonalizable")


@pytest.mark.parametrize("seed", range(3))
def test_refused_congruence_names_the_certificate(seed):
    # (sigma F5, sigma (theta F5 + G5 + 1e-6 H5)), scrambled: the oracle's
    # P has singular values seven decades apart and more, which the
    # certificate's Congruence refuses; the error names that step
    rng = np.random.default_rng([5, 6, seed])
    sigma, theta = rng.choice([-1.0, 1.0]), rng.standard_normal()
    A0 = sigma * f_mat(5)
    B0 = sigma * (theta * f_mat(5) + g_mat(5) + 1e-6 * h_mat(5))
    pair = _scrambled_pair(A0, B0, random_congruence(rng, 5, 10.0))
    with pytest.raises(errors.SingularCongruence,
                       match=r"^off-diagonal certificate: P is not a congruence: "
                             r"singular values span \["):
        sdc_check(pair, seed)


@pytest.mark.parametrize("size", [3, 4])
def test_scrambled_jordan_blocks_stay_not_sdc(size):
    # a real Jordan block of size 3 or 4 beside simple real eigenvalues
    for s in range(20):
        r = np.random.default_rng(s)
        extra = s % 4
        sigma = r.choice([-1.0, 1.0], extra)
        mu = r.standard_normal(extra)
        theta = r.standard_normal()
        A0 = direct_sum(f_mat(size), *([np.diag(sigma)] if extra else []))
        B0 = direct_sum(
            theta * f_mat(size) + g_mat(size), *([np.diag(sigma * mu)] if extra else [])
        )
        Q = random_congruence(r, size + extra, 10.0)
        res = sdc_check(_scrambled_pair(A0, B0, Q), seed=s)
        assert not res.is_sdc, (size, s)


def test_commutation_tested_once_per_check(rng, monkeypatch):
    # the oracle checks commutation itself and then goes straight to the
    # joint eigenbasis; the public simdiag_commuting keeps its own check
    calls = []
    pair = sdc_module.noncommuting_pair

    def counting(*args, **kwargs):
        calls.append(1)
        return pair(*args, **kwargs)

    monkeypatch.setattr(sdc_module, "noncommuting_pair", counting)
    fam, _ = random_sdc_family(rng, 12, 2)
    assert sdc_check(fam).is_sdc
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(errors.NotCommuting):
        simdiag_commuting([np.diag([1.0, -1.0]), f_mat(2)])
    assert len(calls) == 1


def test_member_norms_computed_once_per_check(rng, monkeypatch):
    # the commutation test and the off-diagonal certificate decide
    # from O(n^2) bounds first (norm2_exceeds), so on a well-conditioned
    # SDC family no member of S^-1 A_i, and no residual, takes an SVD
    # 2-norm at all; zero matrices are left out of the count
    seen = []
    norm = np.linalg.norm

    def counting(x, *args, **kwargs):
        if (args[:1] == (2,) or kwargs.get("ord") == 2) and np.any(x):
            seen.append(np.asarray(x).tobytes())
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    fam, _ = random_sdc_family(rng, 6, 3)
    assert sdc_check(fam).is_sdc
    assert seen == []


def _sorted_schur_reference(M, center, radius):
    # the sorted-Schur invariant_subspace that one Schur form per matrix,
    # reordered per cluster, replaced
    def inside(re, im):
        return abs(complex(re, im) - center) <= radius

    T, Z, sdim = scipy.linalg.schur(M, output="real", sort=inside)
    if sdim == 0:
        raise errors.StructureMismatch(f"no eigenvalues within {radius:.3e} of {center}")
    return Z[:, :sdim]


def _checked_against_reference(monkeypatch, module):
    """Make every subspace `module` extracts compare itself bitwise with
    the sorted-Schur reference; returns the list of (Schur forms made,
    subspaces checked) counts, updated as calls happen."""
    sources = {}
    counts = [0, 0]

    def recording_schur(M):
        form = real_schur(M)
        sources[id(form)] = (form, np.array(M))
        counts[0] += 1
        return form

    def checked_subspace(form, center, radius):
        T, Z = form[0].copy(), form[1].copy()
        U = invariant_subspace(form, center, radius)
        want = _sorted_schur_reference(sources[id(form)][1], center, radius)
        assert U.shape == want.shape and np.array_equal(U, want)
        # the cached form is reordered on a copy, never in place
        assert np.array_equal(form[0], T) and np.array_equal(form[1], Z)
        counts[1] += 1
        return U

    monkeypatch.setattr(module, "real_schur", recording_schur)
    monkeypatch.setattr(module, "invariant_subspace", checked_subspace)
    return counts


def _planted_pair(rng, n, k):
    # an orthogonally hidden canonical pair with k complex pairs
    r = n - 2 * k
    V, _, _ = np.linalg.svd(rng.standard_normal((n, n)))
    sigma = rng.choice([-1.0, 1.0], size=r)
    mus = rng.standard_normal(r)
    lams = rng.standard_normal(k) + 1j * rng.uniform(0.5, 2.0, k)
    A = V.T @ direct_sum(np.diag(sigma), *[f_mat(2)] * k) @ V
    B = V.T @ direct_sum(np.diag(sigma * mus), *[tmat(lam) for lam in lams]) @ V
    return 0.5 * (A + A.T), 0.5 * (B + B.T)


def _rsdc2_extension(rng):
    # an order-82 pair in which each of the k + 1 = 4 points of the
    # order-2 construction is a pencil eigenvalue of multiplicity two
    cert = rsdc.rsdc2_construct(*_planted_pair(rng, 80, 3))
    return [cert.A_tilde.a, cert.B_tilde.a]


def test_doubled_clusters_match_sorted_schur(monkeypatch):
    # one Schur form, reordered for each of the four doubled clusters
    family = _rsdc2_extension(np.random.default_rng(901))
    counts = _checked_against_reference(monkeypatch, sdc_module)
    assert sdc_check(family).is_sdc
    assert counts == [1, 4]


def test_jordan_clusters_match_sorted_schur(monkeypatch):
    # a scrambled pencil with Jordan blocks of sizes 3 and 2 and two
    # simple eigenvalues: four clusters through _chains
    A0 = direct_sum(f_mat(3), -f_mat(2), np.diag([1.0, -1.0]))
    B0 = direct_sum(0.5 * f_mat(3) + g_mat(3), -(-1.5 * f_mat(2) + g_mat(2)),
                    np.diag([2.0, 1.0]))
    A, B = _scrambled_pair(A0, B0, random_congruence(np.random.default_rng(3), 7, 5.0))
    counts = _checked_against_reference(monkeypatch, _chains)
    W, blocks = _chains.canonicalize_real_pencil(A, B)
    assert counts == [1, 4]
    assert sorted(size for _, size, _ in blocks) == [1, 1, 2, 3]


def test_invariant_subspace_edge_selections():
    # a complex pair (a 2x2 block of T), everything, and nothing
    Q = random_congruence(np.random.default_rng(4), 6, 10.0)
    D = direct_sum(np.array([[0.5, 1.0], [-1.0, 0.5]]), np.diag([3.0, -2.0, 5.0, 7.0]))
    M = Q @ D @ np.linalg.inv(Q)
    form = real_schur(M)
    assert np.count_nonzero(np.diag(form[0], -1)) == 1
    want = np.sort_complex(np.array([0.5 + 1j, 0.5 - 1j, 3.0, -2.0, 5.0, 7.0]))
    assert np.allclose(np.sort_complex(form[2] + 1j * form[3]), want)
    for center, radius, dim in ((0.5, 1.01, 2), (3.0, np.inf, 6), (-2.0, 0.1, 1)):
        U = invariant_subspace(form, center, radius)
        assert U.shape == (6, dim)
        assert np.array_equal(U, _sorted_schur_reference(M, center, radius))
    # the pair sits at distance 1 from its real part
    for center, radius in ((10.0, 0.5), (0.5, 0.1)):
        for fn, arg in ((invariant_subspace, form), (_sorted_schur_reference, M)):
            with pytest.raises(errors.StructureMismatch, match="no eigenvalues within"):
                fn(arg, center, radius)


def test_failed_reordering_is_named(monkeypatch):
    # trsen reporting that it could not swap two blocks is a
    # StructureMismatch naming info, which the oracle reads as defective
    def failing(select, T, Z, job):
        return T, Z, None, None, int(np.sum(select)), 0.0, 0.0, 1

    monkeypatch.setattr(scipy.linalg.lapack, "dtrsen", failing)
    with pytest.raises(errors.StructureMismatch, match="info 1"):
        invariant_subspace(real_schur(np.diag([1.0, 2.0, 1.0])), 1.0, 0.1)
    with pytest.raises(errors.NotDiagonalizable):
        simdiag_commuting([np.diag([1.0, 2.0, 1.0])])
    res = sdc_check([np.eye(3), np.diag([1.0, 2.0, 1.0])])
    assert not res.is_sdc and res.witness.kind == "not-diagonalizable"


def test_unconverged_schur_form_is_named(monkeypatch):
    def failing(M, output):
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")

    monkeypatch.setattr(scipy.linalg, "schur", failing)
    with pytest.raises(errors.StructureMismatch, match="Schur form not found"):
        real_schur(np.eye(2))
    with pytest.raises(errors.NotDiagonalizable):
        simdiag_commuting([np.diag([1.0, 2.0, 1.0])])


def test_one_schur_form_per_construction(monkeypatch):
    # the oracle factors the extension once for its four doubled clusters
    calls = []
    schur = scipy.linalg.schur

    def counting(*args, **kwargs):
        calls.append(1)
        return schur(*args, **kwargs)

    family = _rsdc2_extension(np.random.default_rng(902))
    monkeypatch.setattr(scipy.linalg, "schur", counting)
    assert sdc_check(family).is_sdc
    assert len(calls) == 1


def test_full_rank_member_is_the_identity(rng, monkeypatch):
    # the member that is S itself is left out: one solve, for B only
    calls = []
    solve = np.linalg.solve

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    (A, B), _ = random_sdc_family(rng, 12, 2)
    assert sdc_check([A, B]).is_sdc
    assert len(calls) == 1


def test_unsymmetrized_member_equal_to_s_leaves_the_oracle(rng, monkeypatch):
    # Q^T D Q formed in floating point is symmetric only within roundoff;
    # its symmetric part is S, so B alone is solved, its spectrum read
    # and its eigenvectors taken
    calls = []
    for name in ("solve", "eigvals", "eig"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, _fn=fn, _name=name, **kwargs:
                            calls.append(_name) or _fn(*args, **kwargs))
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    fam = [Q.T @ np.diag(d) @ Q for d in (rng.uniform(1.0, 2.0, 20), rng.standard_normal(20))]
    assert not np.array_equal(fam[0], fam[0].T)
    assert sdc_check(fam).is_sdc
    assert sorted(calls) == ["eig", "eigvals", "solve"]


def _per_group_eigh_reference(V, Sbar, sizes):
    # the per-group eigh loop the singleton scaling replaced
    cols = []
    pos = 0
    for g in sizes:
        blk = Sbar[pos : pos + g, pos : pos + g]
        blk = 0.5 * (blk + blk.T)
        vals, vecs = np.linalg.eigh(blk)
        if np.min(np.abs(vals)) <= 1e-14 * max(1.0, np.max(np.abs(vals))):
            raise errors.CertificationFailed("degenerate joint-eigenvalue block")
        cols.append(V[:, pos : pos + g] @ (vecs / np.sqrt(np.abs(vals))))
        pos += g
    return np.hstack(cols)


def test_singleton_scaling_matches_eigh_loop(rng):
    for sizes in ([1, 3, 1, 1, 3], [3, 1], [1], [3], [1, 1, 1, 3, 3, 1]):
        n = sum(sizes)
        V = rng.standard_normal((n, n))
        Sbar = rng.standard_normal((n, n))
        Sbar = Sbar + Sbar.T
        got = _scaled_group_columns(V, Sbar, sizes)
        assert np.array_equal(got, _per_group_eigh_reference(V, Sbar, sizes))
    # a zero on the diagonal of a singleton or a singular block of three
    for sizes, zero in (([1, 3], 0), ([1, 3], slice(1, 4))):
        Sbar = np.eye(4)
        Sbar[zero, zero] = 0.0
        for fn in (_scaled_group_columns, _per_group_eigh_reference):
            with pytest.raises(errors.CertificationFailed, match="degenerate"):
                fn(np.eye(4), Sbar, sizes)
