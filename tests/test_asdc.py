import sys

import numpy as np
import pytest

from conftest import random_congruence
from sdckit import _chains, asdc, errors, sdc
from sdckit._chains import nilpotent_jordan_chains
from sdckit.asdc import asdc_pair_check, asdc_triple_check, perturb_blocks, perturb_pair
from sdckit.canonical import Block, BlockSpec, assemble_blocks, tmat
from sdckit.matcore import direct_sum, f_mat, g_mat
from sdckit.obstruct import not_asdc_certificate
from sdckit.sdc import sdc_check

F2 = f_mat(2)
JORDAN_B = np.array([[0.0, 1.0], [1.0, 1.0]])  # F2 + G2: defective pencil
INDEF_B = np.diag([1.0, -1.0])  # complex pencil eigenvalues with F2


def padded(m, extra=1):
    return direct_sum(m, np.zeros((extra, extra)))


def count_searches(monkeypatch, family):
    """The list that records each sdc.pivot call on `family` itself, in
    every sdckit module that imports it."""
    searches = []
    search = sdc.pivot

    def counted(mats, *args, **kwargs):
        if len(mats) == len(family) and all(map(np.array_equal, mats, family)):
            searches.append(mats)
        return search(mats, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("sdckit") and getattr(module, "pivot", None) is search:
            monkeypatch.setattr(module, "pivot", counted)
    return searches


def count_calls(monkeypatch, name, modules):
    """The list that records each call of the function `name`, patched in
    every module given (each imports the same function)."""
    calls = []
    function = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


class TestPairCheck:
    def test_defective_pair_is_asdc_not_sdc(self):
        v = asdc_pair_check(F2, JORDAN_B)
        assert v.status == "ASDC_not_SDC"

    # T(1 + 1.5e-3i) puts |Im| inside (EIG_REAL_TOL, DEFECT_CAP) of the
    # spectral scale, so the failed canonicalization decides
    @pytest.mark.parametrize("B", [INDEF_B, tmat(1 + 1.5e-3j)], ids=["clear", "band"])
    def test_complex_pair_is_not_asdc(self, B):
        v = asdc_pair_check(F2, B)
        assert v.status == "NotASDC" and v.reason == "nonreal-eigenvalue"

    def test_singular_padding_turns_asdc(self):
        v = asdc_pair_check(padded(F2), padded(INDEF_B))
        assert v.status == "ASDC_not_SDC" and v.reason == "singular-pair"

    def test_sdc_pair_upgrades(self):
        v = asdc_pair_check(np.eye(2), np.diag([1.0, 2.0]))
        assert v.status == "SDC"

    def test_congruence_invariance(self, rng):
        cases = [
            (F2, JORDAN_B),
            (F2, INDEF_B),
            (padded(F2), padded(INDEF_B)),
            (np.eye(2), np.diag([1.0, 2.0])),
        ]
        for A, B in cases:
            base = asdc_pair_check(A, B).status
            for _ in range(5):
                Q = random_congruence(rng, A.shape[0], 50.0)
                got = asdc_pair_check(
                    0.5 * (Q.T @ A @ Q + (Q.T @ A @ Q).T),
                    0.5 * (Q.T @ B @ Q + (Q.T @ B @ Q).T),
                ).status
                assert got == base, (A, B)


class TestPerturbPair:
    def test_defective_pair_eigenvalues(self):
        # the 1e-10 accuracy is pinned at the acceptance epsilons; the
        # looser sweep checks the certificate and monotonicity
        for eps in (1e-2, 1e-4):
            pp = perturb_pair(F2, JORDAN_B, eps)
            assert pp.distance <= eps
            ev = np.sort(
                np.linalg.eigvals(np.linalg.solve(pp.A_tilde.a, pp.B_tilde.a)).real
            )
            want = np.array([1 - np.sqrt(eps), 1 + np.sqrt(eps)])
            assert np.max(np.abs(ev - want)) < 1e-10
        for eps in (1e-1, 1e-3, 1e-5, 1e-6):
            pp = perturb_pair(F2, JORDAN_B, eps)
            assert pp.distance <= eps
            ev = np.sort(
                np.linalg.eigvals(np.linalg.solve(pp.A_tilde.a, pp.B_tilde.a)).real
            )
            want = np.array([1 - np.sqrt(eps), 1 + np.sqrt(eps)])
            assert np.max(np.abs(ev - want)) < 1e-8 * max(1.0, np.sqrt(eps))

    def test_already_sdc_returns_unchanged(self):
        pp = perturb_pair(np.eye(2), np.diag([1.0, 2.0]), 0.5)
        assert pp.distance == 0.0
        assert np.array_equal(pp.A_tilde.a, np.eye(2))

    def test_not_asdc_raises(self):
        with pytest.raises(errors.NotAsdc):
            perturb_pair(F2, INDEF_B, 1e-2)

    def test_certificate_refuses_a_pair_beyond_the_budget(self):
        moved = (np.eye(2) + 0.02 * F2, INDEF_B)
        with pytest.raises(errors.CertificationFailed,
                           match=r"^achieved distance 2\.000e-02 exceeds budget 1\.000e-02$"):
            asdc._certified(moved, (np.eye(2), INDEF_B), 1e-2, "pair")

    def test_singular_bordered_construction(self):
        # the padded complex pair goes through the bordered construction
        pp = perturb_pair(padded(F2), padded(INDEF_B), 1e-2)
        ev = np.linalg.eigvals(np.linalg.solve(pp.A_tilde.a, pp.B_tilde.a))
        assert np.max(np.abs(ev.imag)) < 1e-9
        evr = np.sort(ev.real)
        assert np.min(np.diff(evr)) > 1e-6
        # construction places the three interpolation points
        assert np.allclose(evr, [-1.0, 0.0, 1.0], atol=1e-8)

    def test_distance_monotone_and_certified(self, rng):
        for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            pp = perturb_pair(padded(F2), padded(INDEF_B), eps)
            assert pp.distance <= eps
            assert sdc_check([pp.A_tilde.a, pp.B_tilde.a]).is_sdc

    def test_scrambled_jordan_pair(self, rng):
        # congruence-scrambled defective input goes through the chain
        # machinery and still certifies
        for _ in range(5):
            Q = random_congruence(rng, 2, 10.0)
            A = 0.5 * (Q.T @ F2 @ Q + (Q.T @ F2 @ Q).T)
            B = 0.5 * (Q.T @ JORDAN_B @ Q + (Q.T @ JORDAN_B @ Q).T)
            pp = perturb_pair(A, B, 1e-3)
            assert pp.distance <= 1e-3
            assert sdc_check([pp.A_tilde.a, pp.B_tilde.a]).is_sdc

    def test_singular_real_spectrum_padding(self, rng):
        # padded defective real pair: range reduction plus splitting
        pp = perturb_pair(padded(F2), padded(JORDAN_B), 1e-3)
        assert pp.distance <= 1e-3
        assert sdc_check([pp.A_tilde.a, pp.B_tilde.a]).is_sdc

    def test_scrambled_singular_jordan_pair(self):
        # the restricted Jordan eigenvalue 1 splits to 1 +- 1.2e-8i, just
        # above the realness threshold; the certified real-Jordan
        # canonicalization reads it as real, so the pair is split
        Q = random_congruence(np.random.default_rng(5), 3, 5.0)
        A = Q.T @ padded(F2) @ Q
        B = Q.T @ padded(JORDAN_B) @ Q
        pp = perturb_pair(0.5 * (A + A.T), 0.5 * (B + B.T), 1e-3)
        assert pp.distance <= 1e-3
        assert sdc_check([pp.A_tilde.a, pp.B_tilde.a]).is_sdc

    def test_type3_structure_refused(self):
        S, T = assemble_blocks(BlockSpec((Block(3, 1),)))
        with pytest.raises(errors.UnsupportedStructure):
            perturb_pair(S.a, T.a, 1e-2)

    @pytest.mark.parametrize(
        "A, B, singular",
        [
            (f_mat(3), 0.7 * f_mat(3) + g_mat(3), False),  # nonsingular Jordan pair
            (padded(F2), padded(JORDAN_B), True),  # zero row and column
        ],
        ids=["nonsingular", "singular"],
    )
    def test_one_span_search(self, A, B, singular, monkeypatch):
        # one pivot per call feeds the verdict, the SDC oracle, the
        # perturbation and the obstruction report; the nonsingular pair
        # and its triple reach the oracle, which used to search again
        triple = [A, B, A + B]

        def perturbed_within_epsilon():
            assert perturb_pair(A, B, 1e-3).distance <= 1e-3

        def refused_if_singular(call):
            # a singular triple has no invertible pivot: refused after
            # its one search
            def run():
                if singular:
                    with pytest.raises(errors.NoInvertibleElement):
                        call()
                else:
                    call()

            return run

        calls = [
            (perturbed_within_epsilon, [A, B]),
            (lambda: asdc_pair_check(A, B), [A, B]),
            (refused_if_singular(lambda: asdc_triple_check(*triple)), triple),
            (refused_if_singular(lambda: not_asdc_certificate(triple)), triple),
            (lambda: sdc_check([A, B]), [A, B]),
        ]
        for call, family in calls:
            searches = count_searches(monkeypatch, family)
            call()
            assert len(searches) == 1
            monkeypatch.undo()

    @pytest.mark.parametrize("singular", [True, False], ids=["singular", "nonsingular"])
    def test_verdict_work_is_reused(self, singular, monkeypatch):
        # the verdict's range reduction and its real-Jordan form from the
        # ambiguous realness band are reused, not recomputed: the pair of
        # test_scrambled_singular_jordan_pair reduces once for the verdict
        # and once in the perturbed pair's oracle, and a scrambled
        # nonsingular Jordan pair (built as the benchmark's jordan-pair
        # items are) canonicalizes once
        if singular:
            Q = random_congruence(np.random.default_rng(5), 3, 5.0)
            A, B = Q.T @ padded(F2) @ Q, Q.T @ padded(JORDAN_B) @ Q
        else:
            Q = random_congruence(np.random.default_rng(3), 3, 10.0)
            A, B = Q.T @ f_mat(3) @ Q, Q.T @ (0.7 * f_mat(3) + g_mat(3)) @ Q
        A, B = 0.5 * (A + A.T), 0.5 * (B + B.T)
        reductions = count_calls(monkeypatch, "_range_reduction", [sdc, asdc])
        canonicalizations = count_calls(monkeypatch, "canonicalize_real_pencil", [asdc])
        assert perturb_pair(A, B, 1e-3).distance <= 1e-3
        assert len(reductions) == (2 if singular else 0)
        assert len(canonicalizations) == 1


class TestPerturbBlocks:
    def test_type4_unchanged(self):
        pp = perturb_blocks(BlockSpec((Block(4, 2),)), 1e-3)
        assert pp.distance == 0.0
        assert np.array_equal(pp.A_tilde.a, np.zeros((2, 2)))

    def test_type3_center_and_nilpotency(self):
        spec = BlockSpec((Block(3, 1),))
        pp = perturb_blocks(spec, 1e-3)
        assert pp.distance <= 1e-3
        assert pp.A_tilde.a[1, 1] > 0  # the center carries the shift
        _, T = assemble_blocks(spec)
        M = np.linalg.solve(pp.A_tilde.a, T.a)
        assert np.allclose(np.tril(M, -1), 0) and np.allclose(np.diag(M), 0)

    def test_type3_larger(self):
        for nsize in (1, 2, 3):
            pp = perturb_blocks(BlockSpec((Block(3, nsize),)), 1e-3)
            assert pp.distance <= 1e-3

    def test_case1_matches_bordered_form(self):
        spec = BlockSpec((Block(2, 1, lam=1j), Block(4, 1)))
        pp = perturb_blocks(spec, 1e-2)
        ev = np.linalg.eigvals(np.linalg.solve(pp.A_tilde.a, pp.B_tilde.a))
        assert np.max(np.abs(ev.imag)) < 1e-8
        assert len(set(np.round(ev.real, 8))) == 3

    def test_case2_type3_hosts_border(self):
        spec = BlockSpec((Block(2, 1, lam=1j), Block(3, 1)))
        pp = perturb_blocks(spec, 1e-2)
        assert pp.distance <= 1e-2

    def test_mixed_blocks(self):
        spec = BlockSpec(
            (Block(1, 2, sigma=1, lam=0.5), Block(2, 2, lam=1 + 1j), Block(4, 1))
        )
        pp = perturb_blocks(spec, 1e-2)
        assert pp.distance <= 1e-2

    def test_multiple_type3(self):
        spec = BlockSpec((Block(3, 1), Block(3, 1)))
        pp = perturb_blocks(spec, 1e-3)
        assert pp.distance <= 1e-3

    def test_nonsingular_spec_rejected(self):
        with pytest.raises(errors.NotSingularSpec):
            perturb_blocks(BlockSpec((Block(1, 2, sigma=1, lam=1.0),)), 1e-2)
        # complex blocks with no type 3 or type 4 block to borrow from
        with pytest.raises(errors.NotSingularSpec):
            perturb_blocks(BlockSpec((Block(2, 1, lam=1j),)), 1e-2)
        # the empty descriptor too, before the input gate sees its order 0
        with pytest.raises(errors.NotSingularSpec):
            perturb_blocks(BlockSpec(()), 1e-2)

    def test_epsilon_sweep(self):
        spec = BlockSpec((Block(2, 1, lam=0.5 + 1.5j), Block(4, 1)))
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            pp = perturb_blocks(spec, eps)
            assert pp.distance <= eps


class TestTripleCheck:
    def test_trivial_sdc(self):
        v = asdc_triple_check(np.eye(2), np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert v.status == "SDC"

    def test_large_commutator_not_asdc(self):
        n = 3
        B = direct_sum(np.eye(n), -np.eye(n))
        C = np.zeros((2 * n, 2 * n))
        C[:n, n:] = np.eye(n)
        C[n:, :n] = np.eye(n)
        v = asdc_triple_check(np.eye(2 * n), B, C)
        assert v.status == "NotASDC" and v.reason == "noncommuting"

    def test_nilpotent_commuting_triple(self):
        # A = F2, B = G2 (nilpotent quotient), C = F2 (identity quotient):
        # commuting real spectra, so ASDC; status agrees with the oracle
        v = asdc_triple_check(F2, g_mat(2), F2)
        assert v.is_asdc
        oracle = sdc_check([F2, g_mat(2), F2]).is_sdc
        assert (v.status == "SDC") == oracle

    def test_singular_triple_refused(self):
        zero = np.zeros((2, 2))
        with pytest.raises(errors.NoInvertibleElement):
            asdc_triple_check(zero, zero, zero)


class TestStructureBoundaries:
    def test_singular_leading_nonsingular_pair(self):
        # the max-rank element is not the first input; the splitting maps
        # back through the span relation
        A = np.diag([1.0, 0.0])
        B = F2
        v = asdc_pair_check(A, B)
        assert v.status == "ASDC_not_SDC"
        pp = perturb_pair(A, B, 1e-3)
        assert pp.distance <= 1e-3
        assert sdc_check([pp.A_tilde.a, pp.B_tilde.a]).is_sdc

    def test_type2_jordan_refused_toward_blocks(self):
        spec = BlockSpec((Block(2, 2, lam=1j), Block(4, 1)))
        S, T = assemble_blocks(spec)
        with pytest.raises(errors.UnsupportedStructure):
            perturb_pair(S.a, T.a, 1e-2)
        pp = perturb_blocks(spec, 1e-2)
        assert pp.distance <= 1e-2

    def test_inconsistent_kernel_filtration_raises(self):
        # weighted shift with superdiagonal (100, 1, 1e-3, 1e-3): at the
        # |M|^p-scaled rank cutoffs the kernels of M^p have dimensions
        # 1, 3, 4, 5, which no nilpotent matrix has (height 1 would need
        # -1 chains)
        M = np.diag([100.0, 1.0, 1e-3, 1e-3], 1)
        with pytest.raises(errors.StructureMismatch, match="kernel filtration"):
            nilpotent_jordan_chains(M)

    def test_cluster_subspace_size_is_certified(self, monkeypatch):
        # a Schur reordering that keeps too few of a Jordan cluster's
        # eigenvalues is refused before any chain is built
        subspace = _chains.invariant_subspace
        monkeypatch.setattr(_chains, "invariant_subspace",
                            lambda form, center, radius: subspace(form, center, radius)[:, :1])
        with pytest.raises(errors.StructureMismatch, match="subspace dimension 1 != 2$"):
            perturb_pair(F2, JORDAN_B, 1e-2)

    def test_non_nilpotent_matrix_raises(self):
        with pytest.raises(errors.StructureMismatch, match="^matrix is not numerically nilpotent$"):
            nilpotent_jordan_chains(np.diag([0.0, 1.0]))


class TestBlockGaugeEnvelope:
    def test_canonical_size1_host_across_epsilon(self):
        # the displayed configuration certifies across the practical range
        spec = BlockSpec((Block(2, 1, lam=1j), Block(3, 1)))
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            pp = perturb_blocks(spec, eps)
            assert pp.distance <= eps

    def test_size1_hosts_mostly_certify(self, rng):
        # random eigenvalue data: the certified search succeeds on the
        # large majority and raises honestly otherwise
        ok = tot = 0
        for trial in range(10):
            lam = complex(rng.standard_normal(), rng.uniform(0.3, 2.0))
            spec = BlockSpec((Block(2, 1, lam=lam), Block(3, 1)))
            for eps in (1e-1, 1e-3):
                tot += 1
                try:
                    pp = perturb_blocks(spec, eps)
                    assert pp.distance <= eps
                    ok += 1
                except errors.CertificationFailed:
                    pass
        assert ok >= 0.7 * tot

    def test_size2_block_on_size1_host_fails_by_name(self, monkeypatch):
        # one of the measured failures (see the docstring): every retry
        # fails, the last finding no coupling that splits the spectrum;
        # six xi variants at three budgets make 18 attempts
        lam = -0.0740182566558742 + 1.6840661182768746j
        spec = BlockSpec((Block(2, 2, lam=lam), Block(3, 1)))
        attempts = count_calls(monkeypatch, "_perturb_blocks_attempt", [asdc])
        with pytest.raises(
            errors.CertificationFailed,
            match="no real-splitting coupling found at the comfortable gauge",
        ):
            perturb_blocks(spec, 1e-3)
        assert [args[3] for args in attempts] == [1e-3, 1e-3 / 8, 1e-3 / 64] * 6

    def test_only_a_random_xi_variant_certifies(self, monkeypatch):
        # a held-out descriptor that only the ("random", 3) border at
        # epsilon/8 certifies: cutting that variant would lose it
        spec = BlockSpec((
            Block(2, 2, lam=0.3239495655931494 + 1.9327930469806347j),
            Block(2, 2, lam=-1.0992171116588423 + 1.7593226690458381j),
            Block(4, 2),
        ))
        attempts = count_calls(monkeypatch, "_perturb_blocks_attempt", [asdc])
        pp = perturb_blocks(spec, 1e-3)
        assert pp.distance <= 1e-3
        assert sdc_check([pp.A_tilde.a, pp.B_tilde.a]).is_sdc
        assert attempts[-1][3:] == (1e-3 / 8, ("random", 3))

    def test_two_complex_pairs_size1_host(self):
        spec = BlockSpec(
            (
                Block(2, 1, lam=complex(-0.2, 1.7)),
                Block(2, 1, lam=complex(0.7, 2.0)),
                Block(3, 1),
            )
        )
        for eps in (1e-1, 1e-3):
            pp = perturb_blocks(spec, eps)
            assert pp.distance <= eps
