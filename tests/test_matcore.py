from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdckit import errors
from sdckit.matcore import (
    DEFAULT_TOL,
    Congruence,
    SymMat,
    Tolerances,
    _dot2,
    commutator,
    cond_number,
    direct_sum,
    f_mat,
    g_mat,
    h_mat,
    numeric_rank,
    special_matrix,
)


def test_special_matrix_base_cases():
    assert special_matrix("F", 1).a.tolist() == [[1.0]]
    assert special_matrix("G", 1).a.tolist() == [[0.0]]
    assert special_matrix("H", 1).a.tolist() == [[0.0]]
    assert special_matrix("F", 2).a.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_special_matrix_patterns():
    # F: anti-diagonal; G: shifted down-right; H: shifted up-left
    for n in range(1, 9):
        F, G, H = f_mat(n), g_mat(n), h_mat(n)
        assert np.array_equal(F @ F, np.eye(n))
        assert np.array_equal(G, G.T)
        assert np.array_equal(H, H.T)
        for i in range(n):
            for j in range(n):
                assert G[i, j] == (1.0 if i + j == n else 0.0)
                assert H[i, j] == (1.0 if i + j == n - 2 else 0.0)
        # F G is the nilpotent Jordan block
        N = F @ G
        assert np.array_equal(N, np.diag(np.ones(n - 1), 1))


def test_special_matrix_rejects():
    with pytest.raises(ValueError):
        special_matrix("F", 0)
    with pytest.raises(ValueError):
        special_matrix("X", 3)


def test_symmat_symmetrizes_and_rejects():
    m = np.array([[1.0, 2.0 + 1e-14], [2.0, 3.0]])
    s = SymMat(m)
    assert np.array_equal(s.a, s.a.T)
    with pytest.raises(errors.AsymmetricMatrix):
        SymMat(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(AttributeError):
        s.a = np.eye(2)


def test_symmat_tolerance_is_relative():
    big = 1e6 * np.eye(3)
    big[0, 1] = 1e-7
    SymMat(big)  # 1e-7 asymmetry is fine at scale 1e6
    small = np.eye(3)
    small[0, 1] = 1e-7
    with pytest.raises(errors.AsymmetricMatrix):
        SymMat(small)


def test_congruence_certification():
    c = Congruence(np.diag([10.0, 1.0]))
    assert c.kappa == pytest.approx(10.0)
    assert c.kappa >= 1.0
    with pytest.raises(errors.SingularCongruence):
        Congruence(np.diag([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_congruence_rejects_non_finite_entries(bad):
    # a NaN used to leak numpy's LinAlgError from the SVD, and an inf
    # gave a congruence with kappa = nan
    P = np.eye(3)
    P[1, 2] = bad
    with pytest.raises(errors.SingularCongruence, match="non-finite"):
        Congruence(P)


@pytest.mark.parametrize("k", [1, 2, 5, 11, 41, 82, 164])
def test_dot2_against_exact_rationals(k):
    # rows: zero, at 2^500, at 2^-500, entries spread over 2^+-60;
    # columns: unit scale, 2^300, 2^-300, zero
    rng = np.random.default_rng(k)
    A = rng.standard_normal((4, k))
    A[0] = 0.0
    A[1] *= 2.0**500
    A[2] *= 2.0**-500
    A[3] *= 2.0 ** rng.integers(-60, 61, k)
    B = rng.standard_normal((k, 4)) * np.array([1.0, 2.0**300, 2.0**-300, 0.0])
    hi, lo = _dot2(A, B)
    for i in range(4):
        for j in range(4):
            exact = sum(Fraction(a) * Fraction(b) for a, b in zip(A[i], B[:, j]))
            err = abs(Fraction(hi[i, j]) + Fraction(lo[i, j]) - exact)
            bound = Fraction(k * 2.0**-75) * Fraction(np.max(np.abs(A[i]))) * Fraction(
                np.max(np.abs(B[:, j]))
            )
            assert err <= bound, (i, j, float(err / bound) if bound else err)
    assert not np.any(hi[0]) and not np.any(lo[:, 3])


def test_commutator_examples():
    assert np.array_equal(
        commutator(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])), np.zeros((2, 2))
    )
    M = np.random.default_rng(0).standard_normal((4, 4))
    assert np.allclose(commutator(np.eye(4), M), 0)
    n = 3
    B = direct_sum(np.eye(n), -np.eye(n))
    C = np.zeros((2 * n, 2 * n))
    C[:n, n:] = np.eye(n)
    C[n:, :n] = np.eye(n)
    assert numeric_rank(commutator(B, C)) == 2 * n


def test_commutator_order_mismatch():
    with pytest.raises(errors.OrderMismatch):
        commutator(np.eye(2), np.eye(3))


def test_numeric_rank_examples():
    assert numeric_rank(np.zeros((3, 3))) == 0
    assert numeric_rank(np.eye(5)) == 5
    assert numeric_rank(direct_sum(f_mat(2), np.zeros((1, 1)))) == 2


def test_numeric_rank_rectangular(rng):
    tall = rng.standard_normal((9, 4))
    assert numeric_rank(tall) == 4
    assert numeric_rank(tall.T) == 4
    tall[:, 3] = tall[:, 0] - 2.0 * tall[:, 1]
    assert numeric_rank(tall) == 3
    # the same cutoff as on square input
    assert numeric_rank(np.diag([1.0, 1e-9, 1e-11])[:, :2]) == 2
    assert numeric_rank(np.diag([1.0, 1e-11])[:, :2]) == 1
    assert numeric_rank(np.zeros((0, 3))) == 0
    with pytest.raises(errors.OrderMismatch):
        numeric_rank(np.ones(3))


def test_numeric_rank_orthogonal_invariance(rng):
    for _ in range(10):
        n = int(rng.integers(2, 8))
        r = int(rng.integers(0, n + 1))
        M = np.zeros((n, n))
        M[:r, :r] = np.diag(rng.uniform(0.5, 2.0, r))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        assert numeric_rank(Q.T @ M @ Q) == r


def test_cond_number():
    assert cond_number(np.eye(4)) == pytest.approx(1.0)
    assert cond_number(np.diag([10.0, 1.0])) == pytest.approx(10.0)
    assert cond_number(np.diag([1.0, 0.0])) == float("inf")


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_commutator_antisymmetry(n, seed):
    r = np.random.default_rng(seed)
    A, B = r.standard_normal((n, n)), r.standard_normal((n, n))
    assert np.array_equal(commutator(A, B), -commutator(B, A))


def test_tolerances_positive():
    with pytest.raises(ValueError):
        Tolerances(rank_tol=0.0)
    assert DEFAULT_TOL.rank_tol == 1e-10
    assert DEFAULT_TOL.eig_real_tol == 1e-8
    assert DEFAULT_TOL.resid_tol == 1e-8
    assert DEFAULT_TOL.cluster_tol == 1e-7
