import numpy as np
import pytest

from sdckit import errors
from sdckit.matcore import commutator
from sdckit.toeplitz import (
    ToeplitzPartition,
    is_block_toeplitz,
    jordan_nilpotent,
    pi_map,
    random_toeplitz,
    toeplitz_coefficients,
    toeplitz_project,
)

PARTITIONS = [(2, 2, 3), (1, 1, 4), (3, 3), (2,), (3, 1, 2)]


def test_jordan_nilpotent_examples():
    assert np.array_equal(jordan_nilpotent(ToeplitzPartition((1, 1))), np.zeros((2, 2)))
    assert np.array_equal(
        jordan_nilpotent(ToeplitzPartition((2,))), np.array([[0.0, 1.0], [0.0, 0.0]])
    )
    want = np.zeros((3, 3))
    want[0, 1] = 1.0
    assert np.array_equal(jordan_nilpotent(ToeplitzPartition((2, 1))), want)


def test_membership_basics():
    part = ToeplitzPartition((2, 3))
    assert is_block_toeplitz(np.eye(5), part)
    # upper triangular Toeplitz single block
    part1 = ToeplitzPartition((4,))
    T = np.diag(np.full(4, 2.0)) + np.diag(np.full(3, 1.0), 1)
    assert is_block_toeplitz(T, part1)
    T[2, 0] = 0.5  # strictly-lower entry inside the block
    assert not is_block_toeplitz(T, part1)


def test_commutant_equivalence_random(rng):
    # members commute with J; non-members do not (both directions)
    for sizes in PARTITIONS:
        part = ToeplitzPartition(sizes)
        J = jordan_nilpotent(part)
        for _ in range(30):
            T = random_toeplitz(part, rng)
            assert is_block_toeplitz(T, part)
            assert np.linalg.norm(commutator(J, T)) < 1e-12
        if any(s > 1 for s in sizes):
            M = rng.standard_normal((part.n, part.n))
            if not is_block_toeplitz(M, part):
                assert np.linalg.norm(commutator(J, M)) > 1e-8


def test_commutant_dimension_exact():
    # null space of X -> [J, X] has dimension sum min(n_i, n_j)
    for sizes in PARTITIONS:
        part = ToeplitzPartition(sizes)
        J = jordan_nilpotent(part)
        n = part.n
        K = np.kron(np.eye(n), J) - np.kron(J.T, np.eye(n))
        s = np.linalg.svd(K, compute_uv=False)
        nulldim = int(np.sum(s < 1e-10))
        assert nulldim == sum(min(a, b) for a in sizes for b in sizes)


def test_pi_map_small_cases():
    part = ToeplitzPartition((3,))
    T = np.diag(np.full(3, 1.5)) + np.diag([0.3, 0.3], 1)
    assert pi_map(T, part).tolist() == [[1.5]]
    part = ToeplitzPartition((1, 1))
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(pi_map(M, part), M)


def test_pi_map_rejects_non_members():
    part = ToeplitzPartition((2, 2))
    with pytest.raises(errors.NotInT):
        pi_map(np.random.default_rng(0).standard_normal((4, 4)), part)


def eig_set_deviation(T, part):
    """Worst match between Pi eigenvalues and T eigenvalue cluster means.

    A Pi eigenvalue from a size-eta block lifts to a size-eta Jordan
    cluster whose computed eigenvalues scatter by roundoff^(1/eta) but
    whose mean recovers the true value to full precision.
    """
    ev_p = np.linalg.eigvals(pi_map(T, part))
    ev_t = np.linalg.eigvals(T)
    scale = max(1.0, np.abs(ev_t).max())
    used = np.zeros(len(ev_t), dtype=bool)
    worst = 0.0
    order = np.argsort(-np.array([part.sizes[j] for j in range(part.k)]))
    for j in order:
        lam = ev_p[j]
        eta = part.sizes[j]
        d = np.where(used, np.inf, np.abs(ev_t - lam))
        idx = np.argsort(d)[:eta]
        used[idx] = True
        worst = max(worst, abs(np.mean(ev_t[idx]) - lam))
    return worst / scale


def test_pi_preserves_eigenvalue_sets(rng):
    for sizes in [(2, 2, 3), (1, 1, 4), (3, 3)]:
        part = ToeplitzPartition(sizes)
        for _ in range(50):
            T = random_toeplitz(part, rng)
            assert eig_set_deviation(T, part) < 1e-7


def test_charpoly_depends_only_on_leading_equal_size(rng):
    # randomizing every coefficient other than the equal-size leading
    # ones leaves the characteristic polynomial unchanged
    from sdckit.toeplitz import _fill_diagonal

    for sizes in [(2, 2, 3), (1, 1, 4), (3, 3)]:
        part = ToeplitzPartition(sizes)
        off = part.offsets()
        for _ in range(20):
            T = random_toeplitz(part, rng)
            co = toeplitz_coefficients(T, part)
            T2 = random_toeplitz(part, rng)
            # restore the equal-size leading coefficients of T
            for i in range(part.k):
                for j in range(part.k):
                    ni, nj = part.sizes[i], part.sizes[j]
                    if ni != nj:
                        continue
                    co2 = toeplitz_coefficients(T2, part)
                    delta = co[(i, j)][0] - co2[(i, j)][0]
                    blk = T2[off[i] : off[i + 1], off[j] : off[j + 1]]
                    patch = np.zeros_like(blk)
                    _fill_diagonal(patch, max(0, nj - ni), delta)
                    T2[off[i] : off[i + 1], off[j] : off[j + 1]] = blk + patch
            c1, c2 = np.poly(T), np.poly(T2)
            assert np.allclose(c1, c2, rtol=1e-8, atol=1e-9)


def test_projection_idempotent(rng):
    part = ToeplitzPartition((2, 3))
    M = rng.standard_normal((5, 5))
    P1 = toeplitz_project(M, part)
    assert np.allclose(toeplitz_project(P1, part), P1)
    assert is_block_toeplitz(P1, part)


def test_partition_validation():
    with pytest.raises(ValueError):
        ToeplitzPartition(())
    with pytest.raises(ValueError):
        ToeplitzPartition((2, 0))
    with pytest.raises(errors.OrderMismatch):
        is_block_toeplitz(np.eye(3), ToeplitzPartition((2, 2)))
    with pytest.raises(errors.OrderMismatch, match="^order 3 != partition total 4$"):
        toeplitz_project(np.eye(3), ToeplitzPartition((2, 2)))
