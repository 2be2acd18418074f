import json
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from dataclasses import replace

from sdckit import errors, qcqp
from sdckit.matcore import Congruence, numeric_rank
from sdckit.qcqp import (
    BenchConfig,
    QcqpInstance,
    Reformulation,
    _solve_refined,
    bench,
    check_bounded,
    generate_instance,
    homogenize_check,
    reformulate,
    verify_reformulation,
)
from sdckit.sdc import sdc_check


class TestBounded:
    def test_box(self):
        assert check_bounded(np.vstack([np.eye(3), -np.eye(3)]))

    def test_upper_bounds_only(self):
        assert not check_bounded(np.eye(3))

    def test_monte_carlo_agreement(self, rng):
        # 500 random L's: a receding random ray always contradicts a
        # bounded verdict, and every unbounded verdict carries an
        # algebraically-verified witness direction (random rays alone
        # can miss thin recession cones)
        from sdckit.qcqp import recession_witness

        for _ in range(500):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(n + 1, 3 * n + 2))
            L = rng.standard_normal((m, n))
            d = recession_witness(L)
            assert check_bounded(L) == (d is None)
            rays = rng.standard_normal((2000, n))
            rays /= np.linalg.norm(rays, axis=1, keepdims=True)
            recedes = bool(np.any(np.all(rays @ L.T <= 1e-12, axis=1)))
            if recedes:
                assert d is not None
            if d is not None:
                assert np.max(L @ d) <= 1e-9
                assert np.max(np.abs(d)) > 1e-9

    def test_one_lp_per_check(self, monkeypatch):
        calls = _count_linprog(monkeypatch)
        generate_instance(6, 1, 30, 0)
        assert len(calls) == 1
        calls.clear()
        # rank 1 < n: unbounded before any LP
        L = np.outer(np.arange(1.0, 7.0), [1.0, -2.0, 0.5])
        assert not check_bounded(L)
        assert len(calls) == 0

    def test_nearly_dependent_columns_bounded(self):
        # {-1 <= Mx <= 1} with a column of M equal to another up to 1e-9
        # noise: M is invertible and y = 1 has L^T y = 0 exactly, so the
        # polytope is bounded although sigma_min / sigma_max is near 1e-10
        # (a 2n-LP recession test at HiGHS's 1e-7 feasibility tolerance
        # finds a receding direction here)
        r = np.random.default_rng(1)
        M = r.standard_normal((4, 4))
        M[:, 3] = M[:, 2] + 1e-9 * r.standard_normal(4)
        L = np.vstack([M, -M])
        assert numeric_rank(L) == 4
        assert check_bounded(L)

    def test_lp_failure_is_named(self, monkeypatch):
        def failing(*args, **kwargs):
            return SimpleNamespace(status=4, message="numerical difficulties")

        monkeypatch.setattr(scipy.optimize, "linprog", failing)
        with pytest.raises(errors.SdckitError, match="status 4"):
            check_bounded(np.vstack([np.eye(2), -np.eye(2)]))


def _count_linprog(monkeypatch) -> list:
    calls = []
    linprog = scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    return calls


class TestGenerator:
    def test_planted_complex_count(self):
        for n, k in [(6, 0), (6, 1), (10, 2), (8, 3)]:
            inst = generate_instance(n, k, 50, seed=5)
            ev = np.linalg.eigvals(np.linalg.solve(inst.A1.a, inst.A2.a))
            assert int(np.sum(np.abs(ev.imag) > 1e-8)) == 2 * k

    def test_k0_is_sdc(self):
        inst = generate_instance(6, 0, 50, seed=2)
        assert sdc_check([inst.A1.a, inst.A2.a]).is_sdc

    def test_determinism_bitwise(self):
        a = generate_instance(7, 2, 40, seed=9)
        b = generate_instance(7, 2, 40, seed=9)
        assert a.to_json() == b.to_json()

    def test_json_round_trip_stable(self):
        inst = generate_instance(5, 1, 30, seed=4)
        js = inst.to_json()
        assert QcqpInstance.from_json(js).to_json() == js

    def test_2k_gt_n_rejected(self):
        with pytest.raises(ValueError):
            generate_instance(3, 2, 10, seed=0)


@pytest.fixture(scope="module")
def inst():
    return generate_instance(8, 2, 60, seed=11)


class TestReformulations:

    def test_sdc_requires_k0(self, inst):
        with pytest.raises(errors.MethodInapplicable):
            reformulate(inst, "sdc")
        inst0 = generate_instance(6, 0, 40, seed=1)
        ref = reformulate(inst0, "sdc")
        assert ref.dim == 6 and len(ref.equalities) == 0
        assert verify_reformulation(inst0, ref, samples=50) <= 1e-6

    def test_rsdc1_shape(self, inst):
        ref = reformulate(inst, "rsdc1")
        assert ref.dim == inst.n + 1
        assert len(ref.equalities) == 1
        assert verify_reformulation(inst, ref, samples=60) <= 1e-6

    def test_rsdc2_shape(self, inst):
        ref = reformulate(inst, "rsdc2")
        assert ref.dim == inst.n + 2
        assert len(ref.equalities) == 2
        assert verify_reformulation(inst, ref, samples=60) <= 1e-6

    def test_eig_shape(self, inst):
        ref = reformulate(inst, "eig")
        assert ref.dim == 2 * inst.n
        assert len(ref.equalities) == inst.n
        assert ref.kappa == pytest.approx(1.0, rel=1e-8)
        assert verify_reformulation(inst, ref, samples=60) <= 1e-6

    def test_restriction_identity(self, inst):
        # substituting (x, 0_d) reproduces the original quadratics
        ref = reformulate(inst, "rsdc1")
        cert = ref.aux["certificate"]
        n = inst.n
        assert np.array_equal(cert.A_tilde.a[:n, :n], inst.A1.a)
        assert np.array_equal(cert.B_tilde.a[:n, :n], inst.A2.a)

    def test_corrupted_p_fails(self, inst):
        ref = reformulate(inst, "rsdc1")
        rng = np.random.default_rng(0)
        bad_P = ref.P.P + 0.03 * rng.standard_normal(ref.P.P.shape)
        bad = replace(ref, P=Congruence(bad_P))
        assert verify_reformulation(inst, bad, samples=60) > 1e-4

    @pytest.mark.parametrize("method", ["rsdc1", "rsdc2", "eig"])
    def test_json_round_trip(self, inst, method):
        ref = reformulate(inst, method)
        text = ref.to_json()
        back = Reformulation.from_json(text)
        assert back.to_json() == text
        assert verify_reformulation(inst, back, samples=30) == verify_reformulation(
            inst, ref, samples=30
        )

    def test_from_json_rejects_singular_p(self, inst):
        data = json.loads(reformulate(inst, "rsdc2").to_json())
        data["P"][0] = [0.0] * len(data["P"][0])
        with pytest.raises(errors.SingularCongruence):
            Reformulation.from_json(json.dumps(data))


class TestBlockVerification:
    def test_block_solve_matches_columns(self, inst):
        P = reformulate(inst, "rsdc2").P.P
        B = np.random.default_rng(3).uniform(size=(P.shape[0], 25))
        W = _solve_refined(P, B)
        for j in range(B.shape[1]):
            w = _solve_refined(P, B[:, j])
            # both are refined in long double, so they agree to well
            # within a few double-precision ulps
            assert np.max(np.abs(W[:, j] - w)) <= 1e-15 * np.max(np.abs(w))

    def test_points_are_the_sequential_draws(self, inst, monkeypatch):
        seen = []
        values = qcqp._reformulated_values

        def recording(inst_, ref_, X):
            seen.append(X.copy())
            return values(inst_, ref_, X)

        monkeypatch.setattr(qcqp, "_reformulated_values", recording)
        box = qcqp._polytope_box(inst.L)
        verify_reformulation(inst, reformulate(inst, "rsdc1"), 40, 7, box)
        lo, hi = box
        rng = np.random.default_rng(7)
        rows = [lo + (hi - lo) * rng.uniform(size=inst.n) for _ in range(40)]
        assert np.array_equal(seen[0], np.array(rows))

    @pytest.mark.parametrize("method", ["rsdc1", "rsdc2", "eig"])
    def test_matches_pointwise_loop(self, inst, method):
        # the per-point loop the block verification replaced
        ref = reformulate(inst, method)
        box = qcqp._polytope_box(inst.L)
        lo, hi = box
        rng = np.random.default_rng(5)
        worst, scale = 0.0, 1.0
        for _ in range(30):
            x = lo + (hi - lo) * rng.uniform(size=inst.n)
            if method == "eig":
                y = np.asarray(ref.aux["P1"]).T @ x
                z = np.asarray(ref.aux["P2"]).T @ y
                o1 = float(y @ (ref.quad_obj * y) + 2.0 * ref.lin_obj @ y)
                c1 = float(z @ (ref.quad_con * z) + 2.0 * ref.lin_con @ y)
            else:
                w = _solve_refined(ref.P.P, np.concatenate([x, np.zeros(ref.dim - inst.n)]))
                qo, qc, lo_, lc = (v.astype(np.longdouble) for v in (
                    ref.quad_obj, ref.quad_con, ref.lin_obj, ref.lin_con))
                o1 = float(w @ (qo * w) + 2.0 * lo_ @ w)
                c1 = float(w @ (qc * w) + 2.0 * lc @ w)
            o0, c0 = inst.objective(x), inst.constraint(x)
            worst = max(worst, abs(o0 - o1), abs(c0 - c1))
            scale = max(scale, abs(o0), abs(c0))
        dev = verify_reformulation(inst, ref, 30, 5, box)
        assert abs(dev - worst / scale) <= 4 * np.finfo(float).eps


class TestIdentityInstance:
    def test_sdc_deviation_is_roundoff(self):
        L = np.vstack([np.eye(2), -np.eye(2)])
        inst = QcqpInstance(
            n=2,
            A1=__import__("sdckit").SymMat(np.eye(2)),
            A2=__import__("sdckit").SymMat(np.eye(2)),
            b1=np.zeros(2),
            b2=np.zeros(2),
            L=L,
        )
        ref = reformulate(inst, "sdc")
        assert verify_reformulation(inst, ref, samples=50) < 1e-12


class TestHomogenize:
    def test_trivial(self):
        prem, conc = homogenize_check([np.eye(2)], [np.zeros(2)], [0.0])
        assert prem and conc

    def test_implication_sweep(self, rng):
        from conftest import random_sdc_family

        holds = 0
        for t in range(20):
            n, m = 4, 2
            fam, P0 = random_sdc_family(rng, n, m)
            Pi = np.linalg.inv(P0)
            pd = Pi.T @ np.diag(rng.uniform(0.5, 2.0, n)) @ Pi
            fam[0] = 0.5 * (pd + pd.T)
            v = rng.standard_normal(n)
            bs = [A @ v for A in fam]
            cs = [float(v @ A @ v) + float(rng.standard_normal()) for A in fam]
            prem, conc = homogenize_check(fam, bs, cs, seed=t)
            assert (not prem) or conc
            holds += int(prem)
        assert holds >= 15  # the aligned construction usually satisfies the premise

    def test_contrapositive(self, rng):
        from sdckit.matcore import f_mat

        A = [np.eye(2), f_mat(2), np.diag([1.0, -1.0])]
        bs = [rng.standard_normal(2) for _ in A]
        cs = [0.0, 0.0, 0.0]
        prem, conc = homogenize_check(A, bs, cs)
        assert not conc and not prem

    def test_no_pd_element(self):
        zero = np.zeros((2, 2))
        with pytest.raises(errors.NoPdElement):
            homogenize_check([zero], [np.zeros(2)], [0.0])


class TestBench:
    def test_small_grid(self):
        cfg = BenchConfig(n_values=(6,), k_values=(1,), seeds=2, m=40, samples=20)
        report = bench(cfg)
        rows = report["rows"]
        assert len(rows) == 2 * len(cfg.methods)
        ok = [r for r in rows if not r["error"]]
        for r in ok:
            assert r["deviation"] <= 1e-6
        # schema: kappa columns present for rsdc and eig rows
        for r in ok:
            if r["method"] in ("rsdc1", "rsdc2", "eig"):
                assert r["kappa"] is not None
        assert "n,k,seed,method,dim,kappa,deviation" in report["csv"]

    def test_box_lps_solved_once_per_instance(self, monkeypatch):
        calls = _count_linprog(monkeypatch)
        generate_instance(6, 1, 30, 0)
        gen_calls = len(calls)
        calls.clear()
        cfg = BenchConfig((6,), (1,), 1, ("rsdc1", "rsdc2", "eig"), m=30, samples=10)
        bench(cfg)
        # the generator's boundedness LP per draw plus one box of 2n LPs
        assert len(calls) == gen_calls + 2 * 6

    def test_failures_recorded_not_raised(self):
        cfg = BenchConfig(n_values=(5,), k_values=(1,), seeds=1, methods=("sdc",), m=30)
        report = bench(cfg)
        assert report["rows"][0]["error"].startswith("MethodInapplicable")


def test_resample_limit_exceeded():
    # a single halfspace can never bound the polytope
    import sdckit.qcqp as q

    old = q.RESAMPLE_LIMIT
    q.RESAMPLE_LIMIT = 25
    try:
        with pytest.raises(errors.ResampleLimitExceeded):
            generate_instance(2, 0, 1, seed=0)
    finally:
        q.RESAMPLE_LIMIT = old
