import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from dataclasses import replace

from sdckit import errors, qcqp
from sdckit.matcore import Congruence, SymMat, numeric_rank
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
        for _ in range(500):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(n + 1, 3 * n + 2))
            L = rng.standard_normal((m, n))
            d = _recession_witness(L)
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


def _recession_witness(L):
    """A nonzero d with Ld <= 0, or None: the test's own 2n-LP reference.

    Maximizes +-d_i over the recession cone {d : Ld <= 0} cut to the
    unit box; all optima zero means the cone is trivial.
    """
    m, n = L.shape
    for i in range(n):
        for sign in (1.0, -1.0):
            c = np.zeros(n)
            c[i] = -sign
            res = scipy.optimize.linprog(
                c, A_ub=L, b_ub=np.zeros(m), bounds=[(-1, 1)] * n, method="highs"
            )
            assert res.success, res.message
            if -res.fun > 1e-9:
                return res.x
    return None


def _count_linprog(monkeypatch) -> list:
    calls = []
    linprog = scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    return calls


def _count_boxes(monkeypatch) -> list:
    calls = []
    box = qcqp._polytope_box

    def counting(L):
        calls.append(1)
        return box(L)

    monkeypatch.setattr(qcqp, "_polytope_box", counting)
    return calls


def _stub_box_solver(monkeypatch, edit):
    """Pass the k-th box solve's (status, x, y) through edit(k, out)."""
    box_solver = qcqp._box_solver

    def stubbed(L):
        solve = box_solver(L)
        count = itertools.count()
        return lambda c: edit(next(count), solve(c))

    monkeypatch.setattr(qcqp, "_box_solver", stubbed)


class TestBox:
    GRID = [(n, k) for n in (10, 15, 20) for k in (1, 2, 3)]

    def test_box_matches_linprog_path(self, monkeypatch):
        if qcqp._highspy is None:
            pytest.skip("scipy without bundled HiGHS bindings has only the linprog path")
        for n, k in self.GRID:
            L = generate_instance(n, k, 100, 0).L
            lo, hi = qcqp._polytope_box(L)
            with monkeypatch.context() as mp:
                mp.setattr(qcqp, "_highspy", None)
                lo_lp, hi_lp = qcqp._polytope_box(L)
            np.testing.assert_allclose(lo, lo_lp, rtol=1e-12, atol=0)
            np.testing.assert_allclose(hi, hi_lp, rtol=1e-12, atol=0)
            # the origin is interior, so every bound is strictly signed
            assert np.all(lo < 0) and np.all(hi > 0)

    def test_box_of_a_cube(self):
        lo, hi = qcqp._polytope_box(np.vstack([np.eye(3), -0.5 * np.eye(3)]))
        np.testing.assert_allclose(lo, -2.0, rtol=1e-14)
        np.testing.assert_allclose(hi, 1.0, rtol=1e-14)

    def test_box_certificate_rejects_bad_duals(self, monkeypatch):
        _stub_box_solver(monkeypatch, lambda k, out: (out[0], out[1], out[2] + 1e-3))
        with pytest.raises(errors.CertificationFailed, match=r"x_0 \(\+\).*certificate"):
            qcqp._polytope_box(generate_instance(6, 1, 30, 0).L)

    def test_box_certificate_rejects_infeasible_point(self, monkeypatch):
        _stub_box_solver(monkeypatch, lambda k, out: (out[0], (1.0 + 1e-6) * out[1], out[2]))
        with pytest.raises(errors.CertificationFailed, match=r"x_0 \(\+\).*certificate"):
            qcqp._polytope_box(generate_instance(6, 1, 30, 0).L)

    def test_box_status_names_coordinate_and_sign(self, monkeypatch):
        # the fourth LP is the lower bound of x_1
        _stub_box_solver(
            monkeypatch, lambda k, out: ("Time limit reached", None, None) if k == 3 else out
        )
        with pytest.raises(errors.CertificationFailed,
                           match=r"x_1 \(-\): LP not optimal: Time limit reached"):
            qcqp._polytope_box(generate_instance(6, 1, 30, 0).L)

    @pytest.mark.parametrize("bindings", ["highspy", "linprog"])
    def test_unbounded_polytope_is_named(self, monkeypatch, bindings):
        # {x : x <= 1} has no lower bound; each path reports the solver's
        # status for the first unbounded LP
        if bindings == "linprog":
            monkeypatch.setattr(qcqp, "_highspy", None)
        elif qcqp._highspy is None:
            pytest.skip("scipy without bundled HiGHS bindings has only the linprog path")
        with pytest.raises(errors.CertificationFailed,
                           match=r"^box bound of x_0 \(-\): LP not optimal: .*[Uu]nbounded"):
            qcqp._polytope_box(np.eye(2))

    def test_certificate_residuals_within_bound(self):
        for n, k in self.GRID[:3]:
            L = generate_instance(n, k, 100, 0).L
            solve = qcqp._box_solver(L)
            for i in range(n):
                for s in (1.0, -1.0):
                    c = np.zeros(n)
                    c[i] = -s
                    status, x, y = solve(c)
                    assert status is None
                    assert qcqp._box_certificate(L, i, s, x, y) <= 1e-3


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

    def test_unknown_method_rejected(self, inst):
        with pytest.raises(ValueError, match="^unknown method 'rsdc3'$"):
            reformulate(inst, "rsdc3")
        data = json.loads(reformulate(inst, "eig").to_json())
        data["method"] = "rsdc3"
        with pytest.raises(ValueError, match="^unknown method 'rsdc3'$"):
            Reformulation.from_json(json.dumps(data))

    @pytest.mark.parametrize("method", ["rsdc1", "rsdc2"])
    def test_rsdc_needs_an_invertible_objective(self, inst, method):
        singular = replace(inst, A1=SymMat(np.diag([1.0] * (inst.n - 1) + [0.0])))
        with pytest.raises(errors.MethodInapplicable,
                           match="^leading matrix is not certified invertible$"):
            reformulate(singular, method)


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

    @pytest.mark.parametrize("method", ["rsdc1", "rsdc2"])
    def test_solve_refined_matches_matmul_form(self, inst, method):
        # the long-double residual is formed with np.dot, which sums in
        # the order of matmul's generic loop, so the two agree bitwise
        P = reformulate(inst, method).P.P
        lu = scipy.linalg.lu_factor(P)
        Pl = P.astype(np.longdouble)
        block = np.random.default_rng(6).uniform(size=(P.shape[0], 25))
        for B in (block, block[:, 0]):
            Bl = B.astype(np.longdouble)
            W = scipy.linalg.lu_solve(lu, B).astype(np.longdouble)
            for _ in range(3):
                R = Bl - Pl @ W
                W = W + scipy.linalg.lu_solve(lu, R.astype(float)).astype(np.longdouble)
            assert np.array_equal(_solve_refined(P, B), W)

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

    def test_negative_definite_element(self):
        # -I is negative definite, which serves as well as a positive one
        from sdckit.matcore import f_mat

        prem, conc = homogenize_check([-np.eye(2), f_mat(2)], [np.zeros(2)] * 2, [0.0, 0.0])
        assert prem and conc

    def test_no_pd_element(self):
        zero = np.zeros((2, 2))
        with pytest.raises(errors.NoPdElement):
            homogenize_check([zero], [np.zeros(2)], [0.0])

    def test_lists_must_align(self):
        with pytest.raises(errors.OrderMismatch, match="^A, b, c lists must align$"):
            homogenize_check([np.eye(2), np.eye(2)], [np.zeros(2)], [0.0, 0.0])


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
        boxes = _count_boxes(monkeypatch)
        cfg = BenchConfig((6,), (1,), 1, ("rsdc1", "rsdc2", "eig"), m=30, samples=10)
        bench(cfg)
        # the generator's boundedness LP per draw; the box's LPs run in
        # one HiGHS model (or, without it, through linprog)
        assert len(boxes) == 1
        box_lps = 0 if qcqp._highspy is not None else 2 * 6
        assert len(calls) == gen_calls + box_lps

    def test_box_solved_only_when_needed(self, monkeypatch):
        boxes = _count_boxes(monkeypatch)
        # sdc is inapplicable for k >= 1: no reformulation, so no box
        rows = bench(BenchConfig((5,), (1,), 2, ("sdc",), m=30, samples=10))["rows"]
        assert all(r["error"].startswith("MethodInapplicable") for r in rows)
        assert len(boxes) == 0
        rows = bench(BenchConfig((5,), (1,), 2, ("sdc", "rsdc2", "eig"), m=30,
                                 samples=10))["rows"]
        assert [r["deviation"] is not None for r in rows] == [False, True, True] * 2
        assert len(boxes) == 2

    def test_box_failure_recorded_in_row(self, monkeypatch):
        def failing(L):
            raise errors.CertificationFailed("box bound of x_0 (+): stub")

        monkeypatch.setattr(qcqp, "_polytope_box", failing)
        rows = bench(BenchConfig((5,), (1,), 1, ("rsdc2", "eig"), m=30))["rows"]
        for r in rows:
            assert r["error"] == "CertificationFailed: box bound of x_0 (+): stub"
            assert r["deviation"] is None and r["kappa"] is None

    def test_failures_recorded_not_raised(self):
        cfg = BenchConfig(n_values=(5,), k_values=(1,), seeds=1, methods=("sdc",), m=30)
        report = bench(cfg)
        assert report["rows"][0]["error"].startswith("MethodInapplicable")

    def test_generation_failure_recorded_for_every_method(self, monkeypatch):
        # one halfspace never bounds the polytope, so generation gives up
        monkeypatch.setattr(qcqp, "RESAMPLE_LIMIT", 25)
        rows = bench(BenchConfig((2,), (0,), 1, ("sdc", "eig"), m=1))["rows"]
        assert [r["method"] for r in rows] == ["sdc", "eig"]
        for r in rows:
            assert r["error"] == "no bounded polytope within 25 draws"
            assert r["gen_ms"] is None and r["kappa"] is None


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
