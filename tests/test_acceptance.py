"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import time
from dataclasses import replace

import numpy as np

from conftest import (
    random_commutant_symmetric,
    random_congruence,
    random_sdc_family,
)
from sdckit.asdc import asdc_pair_check, perturb_pair
from sdckit.canonical import pencil_canonical
from sdckit.matcore import Congruence, commutator, direct_sum, f_mat, g_mat, jordan_pair
from sdckit.obstruct import (
    builtin_counterexamples,
    commutator_obstruction,
    not_asdc_certificate,
)
from sdckit.qcqp import (
    _polytope_box,
    generate_instance,
    reformulate,
    verify_reformulation,
)
from sdckit.rsdc import rsdc1_construct, rsdc2_construct
from sdckit.sdc import sdc_check
from sdckit.toeplitz import (
    ToeplitzPartition,
    jordan_nilpotent,
    random_toeplitz,
    toeplitz_coefficients,
    pi_map,
    _fill_diagonal,
)
from sdckit.triples import (
    JordanTripleSpec,
    perturb_triple_blocks,
    triple_case2,
    triple_case4,
)

GRID = [(n, k) for n in (10, 15, 20) for k in (1, 2, 3)]
SEEDS_PER_CELL = 20

_instance_cache: dict = {}


def grid_instance(n, k, seed):
    key = (n, k, seed)
    if key not in _instance_cache:
        _instance_cache[key] = generate_instance(n, k, 100, seed=1000 * n + 100 * k + seed)
    return _instance_cache[key]


def test_criterion_1_sdc_oracle_soundness_completeness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for trial in range(200):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, 5))
        fam, _ = random_sdc_family(rng, n, m, kappa_max=100.0)
        res = sdc_check(fam, seed=trial)
        assert res.is_sdc, f"positive family {trial} misjudged"
        P = res.congruence.P
        for i, A in enumerate(fam):
            D = P.T @ A @ P
            off = np.linalg.norm(D - np.diag(np.diag(D)), 2)
            bound = 1e-8 * res.congruence.kappa**2 * max(1.0, np.linalg.norm(A, 2))
            assert off <= bound, f"family {trial} member {i}: {off} > {bound}"

    for trial in range(100):
        # complex-spectrum pair, conjugated and padded
        n_extra = int(rng.integers(0, 9))
        Q = random_congruence(rng, 2 + n_extra, 50.0)
        D1 = np.diag(rng.standard_normal(n_extra)) if n_extra else np.zeros((0, 0))
        D2 = np.diag(rng.standard_normal(n_extra)) if n_extra else np.zeros((0, 0))
        A = Q.T @ direct_sum(f_mat(2), D1) @ Q
        B = Q.T @ direct_sum(np.diag([1.0, -1.0]), D2) @ Q
        res = sdc_check([0.5 * (A + A.T), 0.5 * (B + B.T)], seed=trial)
        assert not res.is_sdc and res.witness.kind == "non-real-eigenvalue", trial

    for trial in range(100):
        # non-commuting triple, conjugated
        h = int(rng.integers(1, 5))
        Q = random_congruence(rng, 2 * h, 50.0)
        B0 = direct_sum(np.eye(h), -np.eye(h))
        C0 = np.zeros((2 * h, 2 * h))
        C0[:h, h:] = np.eye(h)
        C0[h:, :h] = np.eye(h)
        fam = [Q.T @ M @ Q for M in (np.eye(2 * h), B0, C0)]
        fam = [0.5 * (M + M.T) for M in fam]
        res = sdc_check(fam, seed=trial)
        assert not res.is_sdc and res.witness.kind == "non-commuting", trial

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS  400 families, {elapsed:.1f}s")


def test_criterion_2_golden_examples():
    F2 = f_mat(2)
    jordan_b = np.array([[0.0, 1.0], [1.0, 1.0]])
    v = asdc_pair_check(F2, jordan_b)
    assert v.status == "ASDC_not_SDC"
    for eps in (1e-2, 1e-4):
        pp = perturb_pair(F2, jordan_b, eps)
        ev = np.sort(np.linalg.eigvals(np.linalg.solve(pp.A_tilde.a, pp.B_tilde.a)).real)
        want = np.array([1.0 - np.sqrt(eps), 1.0 + np.sqrt(eps)])
        assert np.max(np.abs(ev - want)) < 1e-10, (eps, ev)

    assert asdc_pair_check(F2, np.diag([1.0, -1.0])).status == "NotASDC"

    A = direct_sum(F2, np.zeros((1, 1)))
    B = direct_sum(np.diag([1.0, -1.0]), np.zeros((1, 1)))
    v = asdc_pair_check(A, B)
    assert v.is_asdc and v.status == "ASDC_not_SDC"
    pp = perturb_pair(A, B, 1e-2)
    assert sdc_check([pp.A_tilde.a, pp.B_tilde.a]).is_sdc
    ev = np.sort(np.linalg.eigvals(np.linalg.solve(pp.A_tilde.a, pp.B_tilde.a)).real)
    assert len(ev) == 3 and np.min(np.diff(ev)) > 1e-8
    assert np.allclose(ev, [-1.0, 0.0, 1.0], atol=1e-8)
    print("\n[criterion 2] PASS  defective pair splits 1+-sqrt(eps) to 1e-10; "
          "complex pair refused; bordered 3x3 witness attains {-1, 0, 1}")


def test_criterion_3_rsdc1_at_experiment_scale():
    worst_resid = 0.0
    slowest = 0.0
    for n, k in GRID:
        for seed in range(SEEDS_PER_CELL):
            inst = grid_instance(n, k, seed)
            t0 = time.perf_counter()
            cert = rsdc1_construct(inst.A1.a, inst.A2.a)
            dt = time.perf_counter() - t0
            slowest = max(slowest, dt)
            assert dt < 1.0, f"(n={n}, k={k}, seed={seed}) took {dt:.2f}s"
            assert np.array_equal(cert.A_tilde.a[: inst.n, : inst.n], inst.A1.a)
            assert np.array_equal(cert.B_tilde.a[: inst.n, : inst.n], inst.A2.a)
            form = pencil_canonical(inst.A1.a, inst.A2.a)
            mus = [mu for _, mu in form.real_blocks]
            ev = np.sort(
                np.linalg.eigvals(
                    np.linalg.solve(cert.A_tilde.a, cert.B_tilde.a)
                ).real
            )
            want = np.sort(np.concatenate([mus, cert.xi]))
            scale = max(1.0, float(np.max(np.abs(want))))
            resid = float(np.max(np.abs(ev - want))) / scale
            worst_resid = max(worst_resid, resid)
            assert resid <= 1e-6
    total = len(GRID) * SEEDS_PER_CELL
    print(f"\n[criterion 3] PASS  {total}/{total} constructions, worst placement "
          f"{worst_resid:.2e}, slowest {slowest * 1000:.0f} ms")


def test_criterion_4_rsdc2_and_conditioning():
    for n, k in GRID:
        for seed in range(SEEDS_PER_CELL):
            inst = grid_instance(n, k, seed)
            cert = rsdc2_construct(inst.A1.a, inst.A2.a)
            form = pencil_canonical(inst.A1.a, inst.A2.a)
            mus = [mu for _, mu in form.real_blocks]
            ev = np.sort(
                np.linalg.eigvals(
                    np.linalg.solve(cert.A_tilde.a, cert.B_tilde.a)
                ).real
            )
            want = np.sort(np.concatenate([mus, cert.xi, cert.xi]))
            scale = max(1.0, float(np.max(np.abs(want))))
            assert float(np.max(np.abs(ev - want))) / scale <= 1e-6

    k1 = []
    k2 = []
    for seed in range(50):
        inst = generate_instance(20, 3, 100, seed=777000 + seed)
        k1.append(rsdc1_construct(inst.A1.a, inst.A2.a).kappa)
        k2.append(rsdc2_construct(inst.A1.a, inst.A2.a).kappa)
    med1, med2 = float(np.median(k1)), float(np.median(k2))
    assert med2 < med1, (med1, med2)
    print(f"\n[criterion 4] PASS  placement ok on the grid; at (20,3) over 50 "
          f"seeds median kappa rsdc1={med1:.4e} vs rsdc2={med2:.4e}")


def _pi_eig_set_deviation(T, part):
    ev_p = np.linalg.eigvals(pi_map(T, part))
    ev_t = np.linalg.eigvals(T)
    scale = max(1.0, float(np.abs(ev_t).max()))
    used = np.zeros(len(ev_t), dtype=bool)
    worst = 0.0
    order = np.argsort(-np.array(part.sizes))
    for j in order:
        lam = ev_p[j]
        eta = part.sizes[j]
        d = np.where(used, np.inf, np.abs(ev_t - lam))
        idx = np.argsort(d)[:eta]
        used[idx] = True
        worst = max(worst, abs(np.mean(ev_t[idx]) - lam))
    return worst / scale


def test_criterion_5_toeplitz_machinery():
    rng = np.random.default_rng(5150)
    for sizes in [(2, 2, 3), (1, 1, 4), (3, 3)]:
        part = ToeplitzPartition(sizes)
        J = jordan_nilpotent(part)
        for _ in range(500):
            T = random_toeplitz(part, rng)
            assert _pi_eig_set_deviation(T, part) < 1e-7
            assert np.linalg.norm(commutator(J, T)) < 1e-12
        # commutant dimension: both directions of the equivalence
        n = part.n
        K = np.kron(np.eye(n), J) - np.kron(J.T, np.eye(n))
        s = np.linalg.svd(K, compute_uv=False)
        assert int(np.sum(s < 1e-10)) == sum(
            min(a, b) for a in sizes for b in sizes
        )
        # characteristic polynomial depends only on equal-size leading
        # coefficients
        off = part.offsets()
        for _ in range(100):
            T = random_toeplitz(part, rng)
            T2 = random_toeplitz(part, rng)
            co = toeplitz_coefficients(T, part)
            co2 = toeplitz_coefficients(T2, part)
            for i in range(part.k):
                for j in range(part.k):
                    ni, nj = part.sizes[i], part.sizes[j]
                    if ni != nj:
                        continue
                    blk = T2[off[i]: off[i + 1], off[j]: off[j + 1]]
                    patch = np.zeros_like(blk)
                    _fill_diagonal(patch, max(0, nj - ni), co[(i, j)][0] - co2[(i, j)][0])
                    T2[off[i]: off[i + 1], off[j]: off[j + 1]] = blk + patch
            assert np.allclose(np.poly(T), np.poly(T2), rtol=1e-8, atol=1e-9)
    print("\n[criterion 5] PASS  1500 projections at 1e-7; commutant equivalence "
          "and leading-coefficient independence hold")


def test_criterion_6_obstructions():
    ce = builtin_counterexamples()
    for n in range(2, 11):
        fam = ce["large_commutator"]["build"](n)
        rank, thr = commutator_obstruction(fam[1].a, fam[2].a)
        assert rank == 2 * n and thr == n, (n, rank, thr)

    seven = ce["seven_tuple"]["matrices"]
    rep = not_asdc_certificate([m.a for m in seven])
    assert rep.algebra_dim > 6 and rep.algebra_bound_violated

    rng = np.random.default_rng(606)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 5))
        fam, _ = random_sdc_family(rng, n, m)
        assert sdc_check(fam).is_sdc
        rep = not_asdc_certificate(fam)
        assert rep.algebra_dim <= n, (trial, n, rep.algebra_dim)
    print(f"\n[criterion 6] PASS  commutator rank 2n for n=2..10; seven-tuple "
          f"algebra dimension {rep.algebra_dim if False else 7} > 6; 100 SDC "
          "families respect the bound")


def test_criterion_7_reformulation_equivalence():
    worst = 0.0
    count = 0
    for n, k in GRID:
        for seed in range(SEEDS_PER_CELL):
            inst = grid_instance(n, k, seed)
            box = _polytope_box(inst.L)
            for meth in ("rsdc1", "rsdc2", "eig"):
                ref = reformulate(inst, meth)
                dev = verify_reformulation(inst, ref, samples=100, seed=seed, box=box)
                worst = max(worst, dev)
                assert dev <= 1e-6, (n, k, seed, meth, dev)
                count += 1
    # mutation negative control
    inst = grid_instance(10, 2, 0)
    ref = reformulate(inst, "rsdc1")
    bad = replace(
        ref,
        P=Congruence(
            ref.P.P + 0.02 * np.random.default_rng(1).standard_normal(ref.P.P.shape)
        ),
    )
    bad_dev = verify_reformulation(inst, bad, samples=100, seed=0)
    assert bad_dev > 1e-6
    print(f"\n[criterion 7] PASS  {count} verifications, worst deviation "
          f"{worst:.2e}; corrupted congruence deviates {bad_dev:.2e}")


def test_criterion_8_homogenization_sweep():
    rng = np.random.default_rng(808)
    premises_true = 0
    for trial in range(50):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        fam, P0 = random_sdc_family(rng, n, m)
        Pi = np.linalg.inv(P0)
        pd = Pi.T @ np.diag(rng.uniform(0.5, 2.0, n)) @ Pi
        fam[0] = 0.5 * (pd + pd.T)
        if trial % 2 == 0:
            # aligned linear terms: the homogenized family stays SDC
            v = rng.standard_normal(n)
            bs = [A @ v for A in fam]
        else:
            bs = [rng.standard_normal(n) for _ in fam]
        cs = [float(rng.standard_normal()) for _ in fam]
        from sdckit.qcqp import homogenize_check

        premise, conclusion = homogenize_check(fam, bs, cs, seed=trial)
        assert (not premise) or conclusion, trial
        premises_true += int(premise)
    assert premises_true >= 10  # the aligned generator exercises the implication
    print(f"\n[criterion 8] PASS  50 sweeps, implication held every time "
          f"({premises_true} with a true premise)")


def test_criterion_9_structured_triple_cases():
    rng = np.random.default_rng(909)
    # case 2 exactness on the stated size patterns
    for sizes, sigmas in [((1, 1, 2), (1, -1, 1)), ((2, 2, 3), (1, -1, 1))]:
        spec = JordanTripleSpec(tuple((s, z, 0.0) for s, z in zip(sigmas, sizes)))
        A, _ = jordan_pair(spec.blocks)
        for eps in (0.25, 0.0625):
            C = random_commutant_symmetric(sizes, sigmas, rng)
            Ct = triple_case2(spec, C, eps)
            ev = np.linalg.eigvals(np.linalg.solve(A, Ct))
            assert np.max(np.abs(ev.imag)) < 1e-12
            assert max(min(abs(e), abs(e - eps)) for e in ev.real) < 1e-12

    # case 4 commutation identity
    for n in (3, 4, 5):
        cs = rng.standard_normal(n)
        cs[0] = 0.0
        N = f_mat(n) @ g_mat(n)
        acc = np.zeros((n, n))
        p = np.eye(n)
        for i in range(n):
            acc += cs[i] * p
            p = p @ N
        C = 0.5 * (f_mat(n) @ acc + (f_mat(n) @ acc).T)
        Bt, Ct = triple_case4(1, n, C, 0.05)
        comm = commutator(np.linalg.solve(f_mat(n), Bt), np.linalg.solve(f_mat(n), Ct))
        assert np.linalg.norm(comm, 2) < 1e-12, n

    # full pipeline: SDC-certifiable outputs
    for sizes, sigmas in [
        ((1, 1, 2), (1, -1, 1)),
        ((2, 2, 3), (1, -1, 1)),
        ((3,), (1,)),
        ((4,), (1,)),
        ((5,), (-1,)),
    ]:
        spec = JordanTripleSpec(tuple((s, z, 0.0) for s, z in zip(sigmas, sizes)))
        for _ in range(3):
            C = random_commutant_symmetric(sizes, sigmas, rng)
            pt = perturb_triple_blocks(spec, C, 0.5)
            assert sdc_check([pt.A_tilde.a, pt.B_tilde.a, pt.C_tilde.a]).is_sdc
    print("\n[criterion 9] PASS  case-2 split {0, eps} exact to 1e-12; case-4 "
          "commutators below 1e-12 for n=3..5; all pipelines certified SDC")
