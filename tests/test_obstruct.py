import numpy as np
import pytest

from conftest import random_congruence, random_sdc_family
from sdckit import errors
from sdckit.matcore import commutator, f_mat
from sdckit.obstruct import (
    algebra_dimension,
    builtin_counterexamples,
    commutator_obstruction,
    not_asdc_certificate,
)


def test_commutator_obstruction_examples():
    assert commutator_obstruction(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == (0, 0)
    assert commutator_obstruction(np.diag([1.0, -1.0]), f_mat(2)) == (2, 1)
    ce = builtin_counterexamples()
    fam = ce["large_commutator"]["build"](3)
    assert commutator_obstruction(fam[1].a, fam[2].a) == (6, 3)


def test_commutator_obstruction_symmetric():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((4, 4))
    B = 0.5 * (B + B.T)
    C = rng.standard_normal((4, 4))
    C = 0.5 * (C + C.T)
    assert commutator_obstruction(B, C) == commutator_obstruction(C, B)


def test_algebra_dimension_examples():
    assert algebra_dimension([np.eye(3)]) == 1
    assert algebra_dimension([np.diag([1.0, 2.0, 3.0])]) == 3
    # two generic commuting diagonals still span the diagonal algebra
    assert algebra_dimension([np.diag([1.0, 2.0, 3.0]), np.diag([4.0, 5.0, 9.0])]) == 3


@pytest.mark.parametrize("s", [1e12, 1e13])
def test_algebra_dimension_of_large_generators(s):
    # the zero floor scales with the generators, and the unit-norm
    # identity and basis rows stay above it
    J = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert algebra_dimension([s * J]) == 2
    assert algebra_dimension([s * np.diag([1.0, 2.0])]) == 2


def test_algebra_dimension_of_overflowing_norm():
    # |G|_2 = 2e308 overflows; it counts as the largest double
    assert algebra_dimension([np.full((2, 2), 1e308)]) == 2


def test_algebra_dimension_similarity_invariant(rng):
    gens = [rng.standard_normal((4, 4)) for _ in range(2)]
    d0 = algebra_dimension(gens)
    for _ in range(5):
        Q = random_congruence(rng, 4, 20.0)
        Qi = np.linalg.inv(Q)
        d1 = algebra_dimension([Qi @ g @ Q for g in gens])
        assert d1 == d0


def test_seven_tuple_facts():
    seven = builtin_counterexamples()["seven_tuple"]["matrices"]
    assert len(seven) == 7
    A1 = seven[0].a
    assert np.array_equal(A1, f_mat(6))
    Ms = [np.linalg.solve(A1, m.a) for m in seven]
    for i in range(7):
        for j in range(i + 1, 7):
            assert np.linalg.norm(commutator(Ms[i], Ms[j])) < 1e-14
        assert np.max(np.abs(np.linalg.eigvals(Ms[i]).imag)) < 1e-12
    dim = algebra_dimension(Ms)
    assert dim > 6


def test_not_asdc_certificate_seven_tuple():
    seven = builtin_counterexamples()["seven_tuple"]["matrices"]
    rep = not_asdc_certificate([m.a for m in seven])
    assert rep.algebra_bound_violated
    assert rep.algebra_dim > 6


def test_not_asdc_certificate_large_commutator():
    ce = builtin_counterexamples()
    for n in (2, 3, 4):
        fam = ce["large_commutator"]["build"](n)
        rep = not_asdc_certificate([m.a for m in fam])
        assert rep.commutator_rank == 2 * n
        assert rep.rsdc_lower_bound == n


def test_sdc_families_respect_bound(rng):
    from sdckit.sdc import sdc_check

    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 4))
        fam, _ = random_sdc_family(rng, n, m)
        assert sdc_check(fam).is_sdc
        rep = not_asdc_certificate(fam)
        assert rep.algebra_dim <= n


def test_trivial_family_no_violation():
    rep = not_asdc_certificate([np.eye(2), np.diag([1.0, 2.0])])
    assert rep.algebra_dim <= 2
    assert not rep.algebra_bound_violated


def test_no_invertible_element():
    with pytest.raises(errors.NoInvertibleElement):
        not_asdc_certificate([np.zeros((2, 2))])


def test_fixpoint_certificate():
    # a nilpotent generator stabilizes quickly and the closure certifies
    N = np.diag(np.ones(3), 1)[:4, :4]
    dim = algebra_dimension([N])
    assert dim == 4  # I, N, N^2, N^3


def test_no_convergence_with_tiny_budget():
    with pytest.raises(errors.NoConvergence):
        algebra_dimension([np.diag([1.0, 2.0, 3.0])], max_products=1)
