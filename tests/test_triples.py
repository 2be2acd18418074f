import numpy as np
import pytest

from conftest import random_commutant_symmetric
from sdckit import errors, triples
from sdckit.matcore import commutator, f_mat, g_mat, jordan_pair
from sdckit.sdc import sdc_check
from sdckit.triples import (
    JordanTripleSpec,
    perturb_triple_blocks,
    triple_case2,
    triple_case4,
)


def nilpotent_spec(sizes, sigmas):
    return JordanTripleSpec(tuple((s, z, 0.0) for s, z in zip(sigmas, sizes)))


class TestCase2:
    @pytest.mark.parametrize("sizes,sigmas", [((1, 1, 2), (1, -1, 1)), ((2, 2, 3), (1, -1, 1))])
    def test_eigenvalues_exact(self, sizes, sigmas, rng):
        spec = nilpotent_spec(sizes, sigmas)
        A, _ = jordan_pair(spec.blocks)
        for eps in (0.25, 0.1):
            C = random_commutant_symmetric(sizes, sigmas, rng)
            Ct = triple_case2(spec, C, eps)
            ev = np.linalg.eigvals(np.linalg.solve(A, Ct))
            assert np.max(np.abs(ev.imag)) < 1e-12
            err = max(min(abs(e - 0.0), abs(e - eps)) for e in ev.real)
            assert err < 1e-12
            # both values attained
            assert any(abs(e - eps) < 1e-12 for e in ev.real)
            assert any(abs(e) < 1e-12 for e in ev.real)

    def test_needs_two_sizes(self, rng):
        spec = nilpotent_spec((2, 2), (1, -1))
        C = random_commutant_symmetric((2, 2), (1, -1), rng)
        with pytest.raises(errors.StructureMismatch):
            triple_case2(spec, C, 0.1)


class TestCase4:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_commutation_exact(self, n, rng):
        # C = sigma F q(N) for a random polynomial with no constant term
        cs = rng.standard_normal(n)
        cs[0] = 0.0
        N = f_mat(n) @ g_mat(n)
        acc = np.zeros((n, n))
        p = np.eye(n)
        for i in range(n):
            acc += cs[i] * p
            p = p @ N
        C = 0.5 * (f_mat(n) @ acc + (f_mat(n) @ acc).T)
        A = f_mat(n)
        Bt, Ct = triple_case4(1, n, C, 0.05)
        comm = commutator(np.linalg.solve(A, Bt), np.linalg.solve(A, Ct))
        assert np.linalg.norm(comm, 2) < 1e-12
        # corner split plants eigenvalues {0, eps}
        ev = np.sort(np.linalg.eigvals(np.linalg.solve(A, Bt)).real)
        assert abs(ev[-1] - 0.05) < 1e-12 and abs(ev[0]) < 1e-12

    def test_gamma_recursion_example(self):
        # n = 3, c2 = 1, c3 = 0: gamma = (eps, 0, 0)
        n = 3
        C = 0.5 * (f_mat(n) @ (f_mat(n) @ g_mat(n)) + (f_mat(n) @ (f_mat(n) @ g_mat(n))).T)
        eps = 0.125
        Bt, Ct = triple_case4(1, n, C, eps)
        delta = Ct - C
        # the correction is sigma (e_n gamma^T + gamma e_n^T)
        gamma = delta[:, n - 1].copy()
        gamma[n - 1] -= delta[n - 1, n - 1] / 2
        assert gamma[0] == pytest.approx(eps)
        assert gamma[1] == pytest.approx(0.0)

    def test_small_n_rejected(self, rng):
        with pytest.raises(errors.StructureMismatch):
            triple_case4(1, 2, np.zeros((2, 2)), 0.1)


class TestFullPipeline:
    @pytest.mark.parametrize(
        "sizes,sigmas",
        [
            ((1, 1, 2), (1, -1, 1)),
            ((2, 2, 3), (1, -1, 1)),
            ((3,), (1,)),
            ((4,), (1,)),
            ((5,), (-1,)),
            ((2, 2), (1, -1)),
            ((1, 3), (1, 1)),
            ((2,), (1,)),
            ((2, 1, 1), (1, 1, -1)),
            ((3, 3), (1, -1)),
        ],
    )
    def test_sdc_certified(self, sizes, sigmas, rng):
        spec = nilpotent_spec(sizes, sigmas)
        for _ in range(3):
            C = random_commutant_symmetric(sizes, sigmas, rng)
            pt = perturb_triple_blocks(spec, C, 0.5)
            assert pt.distance <= 0.5
            assert sdc_check([pt.A_tilde.a, pt.B_tilde.a, pt.C_tilde.a]).is_sdc

    @pytest.mark.parametrize(
        "sizes",
        [(2,), (1, 1), (3,), (2, 1), (1, 1, 1),
         (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)],
    )
    def test_every_small_partition_certifies(self, sizes, rng):
        # flatten and the minimal-size shift settle every nilpotent core
        # of order up to 4
        for _ in range(4):
            sigmas = tuple(int(s) for s in rng.choice([-1, 1], size=len(sizes)))
            C = random_commutant_symmetric(sizes, sigmas, rng)
            spec = nilpotent_spec(sizes, sigmas)
            for eps in (0.5, 0.1):
                pt = perturb_triple_blocks(spec, C, eps)
                assert pt.distance <= eps
                assert sdc_check([pt.A_tilde.a, pt.B_tilde.a, pt.C_tilde.a]).is_sdc

    def test_multiple_eigenvalues_split_first(self, rng):
        spec = JordanTripleSpec(((1, 2, 1.0), (-1, 2, -1.0), (1, 1, 0.5)))
        C = np.zeros((5, 5))
        C[:2, :2] = np.array([[0.0, 0.0], [0.0, 1.0]])
        C[2:4, 2:4] = -0.7 * np.array([[0.0, 0.0], [0.0, 1.0]])
        C[4, 4] = 0.3
        pt = perturb_triple_blocks(spec, C, 0.5)
        assert pt.distance <= 0.5
        assert any("drag" in s or "case1" in s for s in pt.steps)

    def test_validation_rejects_noncommuting(self, rng):
        spec = nilpotent_spec((2, 2), (1, 1))
        C = rng.standard_normal((4, 4))
        C = 0.5 * (C + C.T)
        with pytest.raises(errors.StructureMismatch):
            perturb_triple_blocks(spec, C, 0.1)

    @pytest.mark.parametrize("make, error, message", [
        (lambda: perturb_triple_blocks(nilpotent_spec((1, 2), (1, 1)), np.eye(2), 0.1),
         errors.OrderMismatch, "^C order does not match the descriptor$"),
        # A^-1 C = [[0, 1], [-1, 0]] commutes with A^-1 B = 0, with spectrum +-i
        (lambda: perturb_triple_blocks(nilpotent_spec((1, 1), (1, -1)), f_mat(2), 0.1),
         errors.StructureMismatch, r"^A\^-1 C has non-real spectrum$"),
        (lambda: triple_case2(JordanTripleSpec(((1, 1, 0.5), (1, 2, 0.0))), np.eye(3), 0.1),
         errors.StructureMismatch, "^case 2 needs a nilpotent descriptor$"),
        # A^-1 C is C with its rows reversed: F_3 gives the identity
        # (Toeplitz, not nilpotent) and the identity gives F_3 (not Toeplitz)
        (lambda: triple_case4(1, 3, f_mat(3), 0.1),
         errors.StructureMismatch, r"^A\^\{-1\}C is not nilpotent$"),
        (lambda: triple_case4(1, 3, np.eye(3), 0.1),
         errors.StructureMismatch, r"^A\^\{-1\}C is not upper triangular Toeplitz$"),
        (lambda: JordanTripleSpec(((2, 1, 0.0),)),
         ValueError, r"^blocks are \(sigma in \{-1,1\}, size >= 1, theta\)$"),
    ], ids=["order", "non-real", "case2-theta", "case4-not-nilpotent", "case4-not-toeplitz",
            "descriptor"])
    def test_rejects_by_name(self, make, error, message):
        with pytest.raises(error, match=message):
            make()

    def test_scalar_c_works(self):
        spec = nilpotent_spec((3,), (1,))
        A, B = jordan_pair(spec.blocks)
        pt = perturb_triple_blocks(spec, 0.7 * A, 0.3)
        assert pt.distance <= 0.3

    def test_distance_scales(self, rng):
        spec = nilpotent_spec((1, 1, 2), (1, -1, 1))
        C = random_commutant_symmetric((1, 1, 2), (1, -1, 1), rng)
        for eps in (0.5, 0.1, 0.02):
            pt = perturb_triple_blocks(spec, C, eps)
            assert pt.distance <= eps


class TestRecursionPaths:
    """Seeded draws of the nilpotent sweep (draw d of sizes: rng =
    default_rng([n, d, *sizes])) and two explicit triples that reach the
    recursion's rarer steps: the minimal-size shift (case 2), the block
    split (case 1) along A^-1 C and along A^-1 B, the k x k lift (case 3)
    and the pair splits of B and of C, or that no retry certifies."""

    @staticmethod
    def draw(sizes, d):
        rng = np.random.default_rng([sum(sizes), d, *sizes])
        sigmas = rng.choice([-1, 1], len(sizes))
        C = random_commutant_symmetric(sizes, sigmas, rng)
        return nilpotent_spec(sizes, sigmas), C

    @pytest.mark.parametrize(
        "triple,eps,steps",
        [
            (((5, 1), 4), 0.01, ("case2@0", "case1@1", "poly-drag@2", "poly-drag@2")),
            (((7, 1, 1), 5), 0.5, ("case2@0", "case1@1", "poly-drag-swapped@2", "pair-split-B@2",
                                   "poly-drag-swapped@2", "pair-split-B@2")),
            (((3, 3, 3), 4), 0.1, ("case3@0", "poly-drag-swapped@1")),
            # B = 0 and a simple C: only C needs splitting
            ((JordanTripleSpec(((1, 1, 0.0), (1, 1, 0.0))), np.diag([0.3, 0.7])), 0.1,
             ("pair-split-C@0",)),
            # A^-1 B has two eigenvalues, so the split runs along A^-1 B
            ((JordanTripleSpec(((1, 1, 1.0), (1, 1, 1.0), (1, 1, -1.0), (-1, 1, -1.0))),
              np.diag([0.2, 0.5, 0.2, -0.5])), 0.1,
             ("case1@0", "poly-drag-swapped@1", "poly-drag-swapped@1")),
        ],
        ids=["case2", "case2-pair-split-B", "case3", "pair-split-C", "case1-along-B"],
    )
    def test_steps_certify(self, triple, eps, steps):
        if not isinstance(triple[0], JordanTripleSpec):
            triple = self.draw(*triple)
        pt = perturb_triple_blocks(*triple, eps)
        assert pt.steps == steps
        assert pt.distance <= eps
        assert sdc_check([pt.A_tilde.a, pt.B_tilde.a, pt.C_tilde.a]).is_sdc

    def test_failure_after_two_attempts(self, monkeypatch):
        # the recursion runs at epsilon and at epsilon/2, and the SDC
        # oracle refuses both results
        budgets = []
        recurse = triples._recurse

        def counted(A, B, C, eps, steps, depth, **kwargs):
            if depth == 0:
                budgets.append(eps)
            return recurse(A, B, C, eps, steps, depth, **kwargs)

        monkeypatch.setattr(triples, "_recurse", counted)
        with pytest.raises(
            errors.CertificationFailed,
            match="^triple perturbation failed at every retry: perturbed triple failed the SDC oracle",
        ):
            perturb_triple_blocks(*self.draw((2, 2, 1), 0), 0.01)
        assert budgets == [0.01, 0.005]
