import gc
import weakref

import numpy as np
import pytest
import scipy.linalg

from conftest import random_congruence, random_sdc_family
from sdckit import errors
from sdckit import sdc as sdc_module
from sdckit.matcore import DEFAULT_TOL, direct_sum, f_mat, g_mat
from sdckit.sdc import (
    _joint_eigenvalue_groups,
    find_max_rank_element,
    sdc_check,
    sdc_check_pd,
    simdiag_commuting,
)


def test_max_rank_trivial():
    c, S = find_max_rank_element([np.eye(3)])
    assert np.linalg.matrix_rank(S.a) == 3
    c, S = find_max_rank_element([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert np.linalg.matrix_rank(S.a) == 2
    c, S = find_max_rank_element([np.zeros((2, 2))])
    assert np.linalg.matrix_rank(S.a) == 0


def test_max_rank_empty_family():
    with pytest.raises(errors.EmptyFamily):
        find_max_rank_element([])


def test_max_rank_deterministic():
    fam = [np.diag([1.0, 0.0, 2.0]), np.diag([0.0, 3.0, 0.0])]
    c1, _ = find_max_rank_element(fam, seed=11)
    c2, _ = find_max_rank_element(fam, seed=11)
    assert np.array_equal(c1, c2)


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
    P0 = random_congruence(rng, 6, 10.0)
    Pi = np.linalg.inv(P0)
    fam = [Pi.T @ np.diag(d) @ Pi for d in (np.ones(6), [1.0, 1.0, 1.0, 2.0, 3.0, 4.0])]
    assert sdc_check([0.5 * (A + A.T) for A in fam]).is_sdc
    assert len(calls) >= 1


def _greedy_groups_reference(diags, tol):
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
                if abs(diags[t, i] - diags[t, j]) > 10 * tol.cluster_tol * scale:
                    close = False
                    break
            (grp if close else rest).append(j)
        groups.append(np.array(grp, dtype=int))
        remaining = rest
    return groups


def test_joint_eigenvalue_groups_match_greedy_loop(rng):
    tol = DEFAULT_TOL
    h = 10 * tol.cluster_tol  # the grouping threshold at scale 1
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
        got = _joint_eigenvalue_groups(diags, tol)
        want = _greedy_groups_reference(diags, tol)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    groups = _joint_eigenvalue_groups(cases[2], tol)
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


def test_lost_cluster_is_not_diagonalizable(monkeypatch):
    # a sorted Schur form that finds no eigenvalue of a cluster (its
    # eigenvalues moved between eig and Schur) is a defective pencil
    def nothing_inside(M, center, radius):
        raise errors.StructureMismatch(f"no eigenvalues within {radius:.3e} of {center}")

    monkeypatch.setattr("sdckit.sdc.invariant_subspace", nothing_inside)
    with pytest.raises(errors.NotDiagonalizable):
        simdiag_commuting([np.diag([1.0, 1.0, 2.0])])
    res = sdc_check([np.eye(3), np.diag([1.0, 1.0, 2.0])])
    assert not res.is_sdc and res.witness.kind == "not-diagonalizable"


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
