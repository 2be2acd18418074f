import numpy as np
import pytest

from conftest import random_congruence
from sdckit import canonical, errors
from sdckit.canonical import (
    Block,
    BlockSpec,
    PencilForm,
    assemble_blocks,
    assemble_pencil,
    pencil_canonical,
    tmat,
)
from sdckit.matcore import Congruence, f_mat, g_mat, numeric_rank


def test_already_canonical_pair():
    form = pencil_canonical(np.eye(2), np.diag([1.0, 2.0]))
    assert form.r == 2 and form.k == 0
    assert [mu for _, mu in form.real_blocks] == [1.0, 2.0]
    assert all(s == 1 for s, _ in form.real_blocks)


def test_complex_pair_f2():
    # A^{-1}B = [[0,-1],[1,0]] has eigenvalues +-i
    form = pencil_canonical(f_mat(2), np.diag([1.0, -1.0]))
    assert form.r == 0 and form.k == 1
    assert form.complex_blocks[0] == pytest.approx(1j)


def test_diagonal_indefinite_pair():
    form = pencil_canonical(np.diag([1.0, -1.0]), np.diag([2.0, -3.0]))
    assert form.r == 2 and form.k == 0
    assert sorted((s, mu) for s, mu in form.real_blocks) == [(-1, 3.0), (1, 2.0)]


def test_diagonal_pencil_mu_are_pencil_eigenvalues():
    # for an indefinite diagonal pair the mu values are the eigenvalues
    # of A^{-1}B, not the entries of B: the sign sits in sigma
    form = pencil_canonical(np.diag([1.0, -1.0]), np.diag([2.0, 3.0]))
    assert sorted((s, mu) for s, mu in form.real_blocks) == [(-1, -3.0), (1, 2.0)]
    # the canonical target carries sigma * mu = the original entries
    _, db = form.canonical_matrices()
    assert sorted(np.diag(db).tolist()) == [2.0, 3.0]


def test_singular_a_rejected():
    with pytest.raises(errors.SingularA):
        pencil_canonical(np.diag([1.0, 0.0]), np.eye(2))


def test_repeated_eigenvalues_rejected():
    with pytest.raises(errors.RepeatedEigenvalues):
        pencil_canonical(np.eye(2), np.eye(2))
    # Jordan structure also refuses
    with pytest.raises(errors.RepeatedEigenvalues):
        pencil_canonical(f_mat(2), np.array([[0.0, 1.0], [1.0, 1.0]]))


def test_repeated_eigenvalues_message_names_first_pair():
    # the first close pair in (real, imag) order, not the first found
    mu = [3.0 + 1e-9, 2.0, 1.0 + 1e-9, 3.0, 1.0]
    first_pair = r"eigenvalues 1\.0 and 1\.000000001 "
    with pytest.raises(errors.RepeatedEigenvalues, match=first_pair):
        pencil_canonical(np.eye(5), np.diag(mu))


def test_classification_refusal_band():
    # eigenvalues 1 +- i*3e-8 sit inside (eig_real_tol, 10 eig_real_tol)
    eps = 3e-8
    B = np.array([[1.0, -eps], [eps, 1.0]])
    A = np.eye(2)
    B = 0.5 * (B + B.T)  # symmetrize kills the skew part; build via pencil
    # construct a symmetric pair with imaginary parts in the band instead
    T = tmat(complex(1.0, eps))
    with pytest.raises(errors.ClassificationAmbiguous):
        pencil_canonical(f_mat(2), T)


def test_assemble_pencil_examples():
    form = PencilForm(P=Congruence(np.eye(1)), real_blocks=((1, 5.0),))
    A, B = assemble_pencil(form)
    assert A.a.tolist() == [[1.0]] and B.a.tolist() == [[5.0]]
    form = PencilForm(P=Congruence(np.eye(2)), complex_blocks=(1j,))
    A, B = assemble_pencil(form)
    assert np.array_equal(A.a, f_mat(2))
    assert np.array_equal(B.a, np.diag([1.0, -1.0]))


def test_round_trip_eigenvalues(rng):
    for trial in range(25):
        r = int(rng.integers(0, 4))
        k = int(rng.integers(0, 3))
        if r + k == 0:
            continue
        mus = np.sort(rng.standard_normal(r) * 2)
        while r > 1 and np.min(np.diff(mus)) < 1e-2:
            mus = np.sort(rng.standard_normal(r) * 2)
        lams = [complex(rng.standard_normal(), rng.uniform(0.5, 2.0)) for _ in range(k)]
        form = PencilForm(
            P=Congruence(random_congruence(rng, r + 2 * k, 30.0)),
            real_blocks=tuple((int(rng.choice([-1, 1])), float(m)) for m in mus),
            complex_blocks=tuple(lams),
        )
        A, B = assemble_pencil(form)
        got = pencil_canonical(A.a, B.a)
        assert got.r == r and got.k == k
        got_mu = np.array([m for _, m in got.real_blocks])
        assert np.allclose(np.sort(got_mu), mus, rtol=1e-7, atol=1e-7)
        got_l = sorted(got.complex_blocks, key=lambda z: (z.real, z.imag))
        want_l = sorted(lams, key=lambda z: (z.real, z.imag))
        assert np.allclose(got_l, want_l, rtol=1e-7, atol=1e-7)
        # signs are a congruence invariant (Sylvester): multisets match
        assert sorted(s for s, _ in got.real_blocks) == sorted(
            s for s, _ in form.real_blocks
        )


def test_canonical_residual_certified(rng):
    for _ in range(10):
        form = PencilForm(
            P=Congruence(random_congruence(rng, 5, 50.0)),
            real_blocks=((1, 0.3), (-1, 1.7), (1, -0.9)),
            complex_blocks=(complex(0.2, 1.1),),
        )
        A, B = assemble_pencil(form)
        got = pencil_canonical(A.a, B.a)
        P = got.P.P
        da, db = got.canonical_matrices()
        assert np.linalg.norm(P.T @ A.a @ P - da, 2) <= 1e-8 * got.P.kappa**2 * max(
            1, np.linalg.norm(A.a, 2)
        )


def test_assemble_blocks_type1():
    S, T = assemble_blocks(BlockSpec((Block(1, 1, sigma=1, lam=3.0),)))
    assert S.a.tolist() == [[1.0]] and T.a.tolist() == [[3.0]]
    S, T = assemble_blocks(BlockSpec((Block(1, 2, sigma=-1, lam=0.5),)))
    assert np.array_equal(S.a, -f_mat(2))
    assert np.array_equal(T.a, -(0.5 * f_mat(2) + g_mat(2)))


def test_assemble_blocks_type2():
    S, T = assemble_blocks(BlockSpec((Block(2, 1, lam=1j),)))
    assert np.array_equal(S.a, f_mat(2))
    assert np.array_equal(T.a, np.diag([1.0, -1.0]))
    lam = complex(0.4, 1.2)
    S, T = assemble_blocks(BlockSpec((Block(2, 2, lam=lam),)))
    want = np.kron(f_mat(2), tmat(lam)) + np.kron(g_mat(2), f_mat(2))
    assert np.array_equal(S.a, f_mat(4))
    assert np.array_equal(T.a, want)


def test_assemble_blocks_type3():
    S, T = assemble_blocks(BlockSpec((Block(3, 1),)))
    assert S.a.tolist() == [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
    assert np.array_equal(T.a, g_mat(3))


def test_assemble_blocks_type4_and_mixed():
    S, T = assemble_blocks(BlockSpec((Block(4, 2),)))
    assert np.array_equal(S.a, np.zeros((2, 2)))
    spec = BlockSpec((Block(1, 1, sigma=1, lam=2.0), Block(4, 1)))
    S, T = assemble_blocks(spec)
    assert np.array_equal(S.a, np.diag([1.0, 0.0]))
    assert np.array_equal(T.a, np.diag([2.0, 0.0]))
    # the empty descriptor is a pair of order 0, which the input gate refuses
    with pytest.raises(errors.OrderMismatch, match="^members have order 0$"):
        assemble_blocks(BlockSpec(()))


def test_singular_specs_have_singular_pencils(rng):
    # with a type 3 or type 4 block present every combination is singular
    spec = BlockSpec((Block(1, 1, sigma=1, lam=1.0), Block(3, 1)))
    S, T = assemble_blocks(spec)
    for _ in range(25):
        a, b = rng.standard_normal(2)
        assert numeric_rank(a * S.a + b * T.a) < spec.n
    spec2 = BlockSpec((Block(2, 1, lam=1j), Block(1, 1, sigma=1, lam=0.0)))
    S2, T2 = assemble_blocks(spec2)
    assert numeric_rank(S2.a) == spec2.n  # no singular block: S invertible


def test_blockspec_json_round_trip():
    spec = BlockSpec(
        (
            Block(1, 2, sigma=-1, lam=1.5),
            Block(2, 1, lam=complex(0.3, 0.7)),
            Block(3, 2),
            Block(4, 1),
        )
    )
    back = BlockSpec.from_json(spec.to_json())
    assert back == spec


def test_blockspec_rejects_two_type4():
    with pytest.raises(ValueError):
        BlockSpec((Block(4, 1), Block(4, 2)))


@pytest.mark.parametrize("args, message", [
    ((5, 1), "block type must be 1..4, got 5"),
    ((3, 0), "block size must be at least 1"),
    ((1, 1, 2), "type 1 block needs sigma in {-1, +1}"),
    ((2, 1, 1, 1.5), "type 2 block needs a non-real eigenvalue"),
])
def test_block_rejects_bad_descriptors(args, message):
    with pytest.raises(ValueError) as info:
        Block(*args)
    assert str(info.value) == message


# an F_2-isotropic real vector, and a complex vector whose real and
# imaginary parts are orthonormal under A = I, have no normalization
@pytest.mark.parametrize("normalize, A, v, message", [
    (canonical._normalize_real_vector, f_mat(2), np.array([1.0, 0.0]),
     "^degenerate A-norm of a real eigenvector$"),
    (canonical._normalize_complex_pair, np.eye(2), np.array([1.0, 1j]),
     "^degenerate local Gram of a complex pair$"),
], ids=["real", "complex"])
def test_normalization_refuses_a_degenerate_gram(normalize, A, v, message):
    with pytest.raises(errors.CertificationFailed, match=message):
        normalize(A, 1.0, v)


def test_pencilform_invariants():
    with pytest.raises(errors.RepeatedEigenvalues):
        PencilForm(
            P=Congruence(np.eye(2)),
            real_blocks=((1, 1.0), (1, 1.0)),
        )
    with pytest.raises(ValueError):
        PencilForm(P=Congruence(np.eye(2)), complex_blocks=(-1j,))
    with pytest.raises(errors.RepeatedEigenvalues, match="^complex eigenvalues must be distinct$"):
        PencilForm(P=Congruence(np.eye(4)), complex_blocks=(1j, 1j))
    with pytest.raises(errors.OrderMismatch, match=r"^congruence order 2 != r \+ 2k = 3$"):
        PencilForm(P=Congruence(np.eye(2)), real_blocks=((1, 0.5),), complex_blocks=(1j,))
