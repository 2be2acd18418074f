import json
import re

import numpy as np
import pytest
import scipy.optimize
from dataclasses import replace
from fractions import Fraction

from conftest import DEGENERATE_POLYTOPES, fresh_python
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
        # one run of the box kernel per check and per generated draw
        calls = _counting(monkeypatch, "_box_lps")
        L = np.outer(np.arange(1.0, 7.0), [1.0, -2.0, 0.5])
        assert not check_bounded(L)  # rank 1 < n: no vertex
        assert len(calls) == 1
        calls.clear()
        generate_instance(6, 1, 30, 0)
        assert len(calls) == 1
        calls.clear()
        # every draw is checked until the resample limit
        monkeypatch.setattr(qcqp, "RESAMPLE_LIMIT", 25)
        monkeypatch.setattr(qcqp, "_bounded", lambda *args: False)
        with pytest.raises(errors.ResampleLimitExceeded):
            generate_instance(2, 0, 3, 0)
        assert len(calls) == 25

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
        L = generate_instance(6, 1, 30, 0).L
        monkeypatch.setattr(qcqp, "BOX_PIVOT_CAP", 1)
        with pytest.raises(errors.CertificationFailed,
                           match=r"^boundedness LP of x_\d \([+-]\): not optimal: "
                                 r"no optimum within 1 pivots$"):
            check_bounded(L)

    def test_failed_dual_proof_is_named(self, monkeypatch):
        # optimal LPs whose duals prove nothing give no verdict
        _stub_box_lps(monkeypatch, lambda status, X, Y: (status, X, 0.1 * Y))
        with pytest.raises(errors.CertificationFailed,
                           match=r"^boundedness LP of x_0 \(\+\): dual residual 0\.9 > 1/2$"):
            check_bounded(np.vstack([np.eye(2), -np.eye(2)]))

    def test_unbounded_verdict_needs_a_receding_ray(self, monkeypatch):
        # x <= 1 recedes along -e_0 and -e_1; rays turned around prove
        # nothing, so no verdict is given
        _stub_box_lps(monkeypatch, lambda status, X, Y: (status, -X, Y))
        with pytest.raises(errors.CertificationFailed,
                           match=r"^boundedness LP of x_0 \(-\): unbounded, "
                                 r"but its ray does not recede$"):
            check_bounded(np.eye(2))

    def test_thin_recession_cone_is_unbounded(self):
        # every entry of column 1 is positive, so -e_1 recedes, although
        # L has numeric rank 2 (sigma_min / sigma_max is near 1e-9)
        L = [[1, 5e-10], [-1, 3e-10], [0, 1e-9]]
        assert numeric_rank(np.array(L)) == 2
        assert not check_bounded(L)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_is_named(self, value):
        L = np.vstack([np.eye(2), -np.eye(2)])
        L[3, 1] = value
        with pytest.raises(errors.NonFiniteEntry, match="^L has a non-finite entry$"):
            check_bounded(L)

    @pytest.mark.parametrize("e", [-3, 3])
    def test_column_scaling_keeps_the_verdict(self, e):
        for n, k in ((10, 1), (15, 2), (20, 3)):
            L = generate_instance(n, k, 100, 0).L
            scale = 10.0 ** (e * np.resize([1, 0, -1], n))
            assert check_bounded(L * scale)

    def test_proof_needs_no_box_certificate(self):
        # the L of test_nearly_dependent_columns_bounded: its box bounds
        # near 2e9 fail primal feasibility, but the duals still prove it
        r = np.random.default_rng(1)
        M = r.standard_normal((4, 4))
        M[:, 3] = M[:, 2] + 1e-9 * r.standard_normal(4)
        L = np.vstack([M, -M])
        with pytest.raises(errors.CertificationFailed, match="certificate"):
            qcqp._polytope_box(L)
        assert check_bounded(L)


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


def _counting(monkeypatch, name) -> list:
    """Count the calls of the qcqp function name."""
    calls = []
    fn = getattr(qcqp, name)

    def counting(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(qcqp, name, counting)
    return calls


def _stub_box_lps(monkeypatch, edit):
    """Pass the kernel's (status, X, Y) through edit before it is certified."""
    box_lps = qcqp._box_lps
    monkeypatch.setattr(qcqp, "_box_lps", lambda L: edit(*box_lps(L)))


def _highs_bindings():
    """scipy's bundled HiGHS bindings, or None where scipy has none."""
    try:
        from scipy.optimize._highspy import _core
    except ImportError:
        return None
    return _core


def _first_unbounded_lp(L, reference):
    """Name of the first box LP that is not optimal, checked unbounded.

    The LPs max +-x_i over {Lx <= 1} run in the box's order (0,+), (0,-),
    (1,+), ... through one HiGHS model over scipy's bindings
    ("highspy") or one scipy linprog call each ("linprog").
    """
    m, n = L.shape
    if reference == "highspy":
        core = _highs_bindings()
        highs = core._Highs()
        highs.setOptionValue("output_flag", False)
        inf = core.kHighsInf
        highs.addVars(n, np.full(n, -inf), np.full(n, inf))
        highs.addRows(
            m, np.full(m, -inf), np.ones(m), m * n,
            np.arange(0, m * n, n, dtype=np.int32),
            np.tile(np.arange(n, dtype=np.int32), m), L.ravel(),
        )

        def status(c):
            highs.changeColsCost(n, np.arange(n, dtype=np.int32), c)
            highs.run()
            st = highs.getModelStatus()
            if st == core.HighsModelStatus.kOptimal:
                return None
            return highs.modelStatusToString(st)
    else:
        def status(c):
            res = scipy.optimize.linprog(c, A_ub=L, b_ub=np.ones(m),
                                         bounds=[(None, None)] * n, method="highs")
            return None if res.status == 0 else res.message

    for i in range(n):
        for s, sign in ((1.0, "+"), (-1.0, "-")):
            c = np.zeros(n)
            c[i] = -s
            message = status(c)
            if message is not None:
                assert re.search("[Uu]nbounded", message), message
                return f"x_{i} ({sign})"
    return None


def _linprog_box(L):
    """Each box bound from its own scipy linprog call, the reference."""
    m, n = L.shape
    lo, hi = np.empty(n), np.empty(n)
    for i in range(n):
        for s in (1.0, -1.0):
            c = np.zeros(n)
            c[i] = -s
            res = scipy.optimize.linprog(c, A_ub=L, b_ub=np.ones(m),
                                         bounds=[(None, None)] * n, method="highs")
            assert res.status == 0, res.message
            (hi if s > 0 else lo)[i] = res.x[i]
    return lo, hi


class TestBox:
    GRID = [(n, k) for n in (10, 15, 20) for k in (1, 2, 3)]

    def test_box_matches_linprog(self):
        for n, k in self.GRID:
            L = generate_instance(n, k, 100, 0).L
            lo, hi = qcqp._polytope_box(L)
            lo_lp, hi_lp = _linprog_box(L)
            np.testing.assert_allclose(lo, lo_lp, rtol=1e-12, atol=0)
            np.testing.assert_allclose(hi, hi_lp, rtol=1e-12, atol=0)
            # the origin is interior, so every bound is strictly signed
            assert np.all(lo < 0) and np.all(hi > 0)

    def test_box_of_a_cube(self):
        lo, hi = qcqp._polytope_box(np.vstack([np.eye(3), -0.5 * np.eye(3)]))
        np.testing.assert_allclose(lo, -2.0, rtol=1e-14)
        np.testing.assert_allclose(hi, 1.0, rtol=1e-14)

    @pytest.mark.parametrize("name", sorted(DEGENERATE_POLYTOPES))
    def test_degenerate_polytope(self, name):
        L = DEGENERATE_POLYTOPES[name]()
        lo, hi = qcqp._polytope_box(L)
        lo_lp, hi_lp = _linprog_box(L)
        np.testing.assert_allclose(lo, lo_lp, rtol=1e-12, atol=0)
        np.testing.assert_allclose(hi, hi_lp, rtol=1e-12, atol=0)
        if name != "duplicated-random-rows":
            np.testing.assert_allclose(lo, -1.0, rtol=1e-14)
            np.testing.assert_allclose(hi, 1.0, rtol=1e-14)

    @pytest.mark.parametrize("e", [-6, 3, 5, 6])
    def test_scaled_polytope_is_certified(self, e):
        # the box of c L is the box of L over c, certified at every scale
        for n, k in ((10, 1), (15, 2), (20, 3)):
            for seed in range(5):
                L = generate_instance(n, k, 100, seed).L
                lo, hi = qcqp._polytope_box(L)
                lo_c, hi_c = qcqp._polytope_box(L * 10.0**e)
                np.testing.assert_allclose(lo_c * 10.0**e, lo, rtol=1e-12, atol=0)
                np.testing.assert_allclose(hi_c * 10.0**e, hi, rtol=1e-12, atol=0)

    def test_box_certificate_rejects_bad_duals(self, monkeypatch):
        _stub_box_lps(monkeypatch, lambda status, X, Y: (status, X, Y + 1e-3))
        with pytest.raises(errors.CertificationFailed, match=r"x_0 \(\+\).*certificate"):
            qcqp._polytope_box(generate_instance(6, 1, 30, 0).L)

    def test_box_certificate_rejects_infeasible_point(self, monkeypatch):
        _stub_box_lps(monkeypatch, lambda status, X, Y: (status, (1.0 + 1e-6) * X, Y))
        with pytest.raises(errors.CertificationFailed, match=r"x_0 \(\+\).*certificate"):
            qcqp._polytope_box(generate_instance(6, 1, 30, 0).L)

    def test_certificate_tau_is_row_scale_invariant(self, monkeypatch):
        # x_0 <= 1e-4 is a row of scale 1e4.  A tau of RESID_TOL |L|_max
        # |y|_1 grows by 1e4 on every LP and accepts a dual 1e-6 off on a
        # unit row; sum_r |y_r| max_j |L_rj| weighs each row by its dual
        L = np.vstack([1e4 * np.eye(3)[:1], -np.eye(3)[:1], np.eye(3)[1:], -np.eye(3)[1:]])

        def perturbed(status, X, Y):
            Y[2, 2] += 1e-6  # the dual of x_1 <= 1 in the LP of x_1 (+)
            return status, X, Y

        _stub_box_lps(monkeypatch, perturbed)
        with pytest.raises(errors.CertificationFailed,
                           match=r"^box bound of x_1 \(\+\): duality certificate residual "
                                 r"is 100 of its bound$"):
            qcqp._polytope_box(L)

    def test_box_status_names_coordinate_and_sign(self, monkeypatch):
        # the fourth LP is the lower bound of x_1
        def failing(status, X, Y):
            status[3] = "given up"
            return status, X, Y

        L = generate_instance(6, 1, 30, 0).L  # the generator runs the kernel too
        _stub_box_lps(monkeypatch, failing)
        with pytest.raises(errors.CertificationFailed,
                           match=r"x_1 \(-\): LP not optimal: given up"):
            qcqp._polytope_box(L)

    @pytest.mark.parametrize("reference", ["highspy", "linprog"])
    def test_unbounded_polytope_is_named(self, reference):
        # {x : x <= 1} has no lower bound; the kernel names the first
        # unbounded LP, the same one the reference solver finds first
        if reference == "highspy" and _highs_bindings() is None:
            pytest.skip("scipy without bundled HiGHS bindings")
        L = np.eye(2)
        assert _first_unbounded_lp(L, reference) == "x_0 (-)"
        with pytest.raises(errors.CertificationFailed,
                           match=r"^box bound of x_0 \(-\): LP not optimal: unbounded$"):
            qcqp._polytope_box(L)

    @pytest.mark.parametrize("seed", [2, 61, 120])
    def test_row_scaled_unbounded_polytope_is_named(self, seed):
        # rows scaled by up to 1e+-4 give bases of condition 1e8, where
        # the certificate's tau = RESID_TOL |L|_max |y|_1 tolerates a dual
        # that is negative on a small row; the simplex prices y_r |L_r|
        # from a fresh inverse, so the unbounded LP is still named
        rng = np.random.default_rng(seed)
        L = rng.standard_normal((30, 12)) * 10.0 ** rng.uniform(-4, 4, size=(30, 1))
        # the recession cone {d : Ld <= 0} does not depend on the row scale
        d = scipy.optimize.linprog(
            -np.eye(12)[0], A_ub=L / np.linalg.norm(L, axis=1, keepdims=True),
            b_ub=np.zeros(30), bounds=[(-1, 1)] * 12, method="highs").x
        assert d[0] > 0.5
        with pytest.raises(errors.CertificationFailed,
                           match=r"^box bound of x_0 \(\+\): LP not optimal: unbounded$"):
            qcqp._polytope_box(L)

    @pytest.mark.parametrize("L, what", [
        # |x_0| <= 1 and |x_1 + x_2| <= 1: x_1 - x_2 is free
        ([[1, 0, 0], [-1, 0, 0], [0, 1, 1], [0, -1, -1]],
         r"x_1 \(\+\): LP not optimal: unbounded; the polytope has no vertex "
         r"\(L has rank 2 < 3\)"),
        # x_0 <= 1 only: the LP of x_0 (-) fails first, in the row space
        ([[1, 0, 0], [0, 1, 1], [0, -1, -1]], r"x_0 \(-\): LP not optimal: unbounded$"),
        ([[0, 0], [0, 0]],
         r"x_0 \(\+\): LP not optimal: unbounded; the polytope has no vertex "
         r"\(L has rank 0 < 2\)"),
        # no rows at all
        (np.zeros((0, 3)),
         r"x_0 \(\+\): LP not optimal: unbounded; the polytope has no vertex "
         r"\(L has rank 0 < 3\)$"),
    ])
    def test_rank_deficient_polytope_is_named(self, L, what):
        with pytest.raises(errors.CertificationFailed, match="^box bound of " + what):
            qcqp._polytope_box(np.array(L, dtype=float))

    def test_l_without_rows(self, monkeypatch):
        # no rows bound nothing: unbounded, and the generator refuses
        # m = 0 before it draws, and so before any run of the box kernel
        assert check_bounded(np.zeros((0, 3))) is False
        calls = _counting(monkeypatch, "_box_lps")
        with pytest.raises(ValueError, match=r"^need m > n$"):
            generate_instance(3, 0, 0, 0)
        assert calls == []

    @pytest.mark.parametrize("L", [[1.0, 2.0], np.ones((2, 2, 2))], ids=["1-D", "3-D"])
    def test_non_matrix_l_is_refused(self, L):
        with pytest.raises(errors.OrderMismatch, match=r"^L has shape"):
            check_bounded(L)
        with pytest.raises(errors.OrderMismatch, match=r"^L has shape"):
            qcqp._polytope_box(np.asarray(L))

    def test_pivot_cap_is_named(self, monkeypatch):
        L = generate_instance(6, 1, 30, 0).L
        statuses, X, _ = qcqp._box_lps(L)
        assert statuses == [None] * 12
        monkeypatch.setattr(qcqp, "BOX_PIVOT_CAP", 1)
        capped, X1, _ = qcqp._box_lps(L)
        # an LP that was optimal within one pivot keeps its vertex; the
        # first other one is named
        first = capped.index("no optimum within 1 pivots")
        assert all(s is None or s == "no optimum within 1 pivots" for s in capped)
        np.testing.assert_array_equal(X1[:first], X[:first])
        i, sign = first // 2, "+-"[first % 2]
        with pytest.raises(errors.CertificationFailed,
                           match=rf"^box bound of x_{i} \({re.escape(sign)}\): LP not optimal: "
                                 r"no optimum within 1 pivots$"):
            qcqp._polytope_box(L)

    def test_crash_start_saves_pivots(self, monkeypatch):
        # each LP starts at its own crash vertex: the grid boxes certify
        # within 25 lockstep pivots, where a start vertex common to all
        # LPs took up to 58
        monkeypatch.setattr(qcqp, "BOX_PIVOT_CAP", 25)
        for n, k in self.GRID:
            lo, hi = qcqp._polytope_box(generate_instance(n, k, 100, 0).L)
            assert np.all(lo < 0) and np.all(hi > 0)

    def test_certificate_residuals_within_bound(self):
        for n, k in self.GRID[:3]:
            L = generate_instance(n, k, 100, 0).L
            statuses, X, Y = qcqp._box_lps(L)
            assert statuses == [None] * (2 * n)
            assert np.all(qcqp._box_certificate(L, X, Y) <= 1e-3)


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


class TestInstanceGate:
    @pytest.mark.parametrize("key, bad, error", [
        ("b1", lambda a: np.where(np.arange(a.size) == 1, np.nan, a), errors.NonFiniteEntry),
        ("b2", lambda a: -np.inf + a, errors.NonFiniteEntry),
        ("L", lambda a: np.where(np.arange(a.shape[1]) == 2, np.inf, a), errors.NonFiniteEntry),
        ("b2", lambda a: a[:-1], errors.OrderMismatch),
        ("b1", lambda a: a[:, None], errors.OrderMismatch),
        ("L", lambda a: a[:, :-1], errors.OrderMismatch),
        ("L", lambda a: a[0], errors.OrderMismatch),
        ("A1", lambda a: SymMat(np.eye(a.n + 1)), errors.OrderMismatch),
        ("A2", lambda a: SymMat(a.a[1:, 1:]), errors.OrderMismatch),
    ], ids=["nan-b1", "inf-b2", "inf-L", "short-b2", "column-b1", "narrow-L", "vector-L",
            "large-A1", "small-A2"])
    def test_fields_are_checked(self, inst, key, bad, error):
        with pytest.raises(error, match=f"^{key} has"):
            replace(inst, **{key: bad(getattr(inst, key))})

    def test_from_json_is_checked(self, inst):
        data = json.loads(inst.to_json())
        data["b1"][0] = float("nan")
        with pytest.raises(errors.NonFiniteEntry, match="^b1 has a non-finite entry$"):
            QcqpInstance.from_json(json.dumps(data))


class TestVerificationInput:
    @pytest.mark.parametrize("n", [5, 7, 8])
    @pytest.mark.parametrize("method", ["rsdc1", "rsdc2", "eig"])
    def test_reformulation_of_another_order_is_refused(self, n, method):
        # the reformulations of an order-6 instance against the seed-0
        # instances of order 5, 7 and 8 once gave deviations of 1.8-2.0
        # or numpy's bare ValueError
        ref = reformulate(generate_instance(6, 1, 30, 0), method)
        other = generate_instance(n, 1, 30, 0)
        with pytest.raises(errors.OrderMismatch, match=f"^{method} reformulation of dim "):
            verify_reformulation(other, ref, 20)

    @pytest.mark.parametrize("method, key, bad, message", [
        ("rsdc1", "P", lambda r: Congruence(np.eye(8)), "^P has shape"),
        ("rsdc1", "quad_obj", lambda r: r.quad_obj[:-1], "^quad_obj has shape"),
        ("rsdc1", "lin_con", lambda r: np.append(r.lin_con, 1.0), "^lin_con has shape"),
        ("rsdc1", "quad_obj", lambda r: r.quad_obj[:, None], "^quad_obj has shape"),
        ("eig", "aux", lambda r: {**r.aux, "P2": np.eye(5).tolist()}, "^aux P2 has shape"),
        ("eig", "aux", lambda r: {}, "^eig reformulation has no aux P1$"),
        ("rsdc1", "poly", lambda r: r.poly[0], r"^poly has shape \(7,\), expected \(m, 7\)"),
        ("rsdc2", "equalities", lambda r: r.equalities[:1], "^1 equalities, expected 2 "),
        ("eig", "equalities", lambda r: (), "^0 equalities, expected 6 "),
        ("rsdc1", "equalities", lambda r: (np.zeros(9),), r"^equality 0 has shape \(9,\)"),
    ], ids=["order-8-P", "short-quad_obj", "long-lin_con", "column-quad_obj", "small-P2",
            "no-aux", "row-poly", "one-equality-short", "no-couplings", "long-equality"])
    def test_misshaped_reformulation_is_named(self, method, key, bad, message):
        # each once reached verification, which raised numpy's bare
        # ValueError, or KeyError without aux; it reads neither poly nor
        # the equalities, and returned a deviation for those
        inst = generate_instance(6, 1, 30, 0)
        ref = reformulate(inst, method)
        with pytest.raises(errors.OrderMismatch, match=message):
            verify_reformulation(inst, replace(ref, **{key: bad(ref)}), 20)

    def test_misshaped_linear_part_is_named(self):
        # verification reads neither poly nor the equalities, and this
        # pair of them once verified as if it were right
        ref = reformulate(generate_instance(6, 1, 30, 0), "rsdc1")
        with pytest.raises(errors.OrderMismatch, match=r"^poly has shape \(3, 2\), expected"):
            replace(ref, poly=np.zeros((3, 2)), equalities=(np.zeros(4), np.zeros(9)))

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_is_refused(self, inst, samples):
        # samples = 0 once returned a deviation of 0
        with pytest.raises(ValueError, match="^need samples >= 1"):
            verify_reformulation(inst, reformulate(inst, "eig"), samples)

    @pytest.mark.parametrize("method", ["rsdc1", "eig"])
    def test_nan_values_are_not_a_small_deviation(self, inst, method):
        ref = reformulate(inst, method)
        nan = replace(ref, quad_obj=np.full_like(ref.quad_obj, np.nan))
        assert np.isnan(verify_reformulation(inst, nan, samples=20))

    @pytest.mark.parametrize("key", ["quad_obj", "poly", "equalities", "P", "aux"])
    def test_from_json_refuses_non_finite_arrays(self, inst, key):
        method = "eig" if key == "aux" else "rsdc2"
        data = json.loads(reformulate(inst, method).to_json())
        field = data["aux"]["P1"] if key == "aux" else data[key]
        if isinstance(field[0], list):
            field = field[0]
        field[0] = float("nan")
        with pytest.raises(errors.NonFiniteEntry, match="non-finite"):
            Reformulation.from_json(json.dumps(data))

    @pytest.mark.parametrize("box, error", [
        (lambda lo, hi: (lo[:-1], hi), errors.OrderMismatch),
        (lambda lo, hi: (lo, np.vstack([hi, hi])), errors.OrderMismatch),
        (lambda lo, hi: (np.where(np.arange(lo.size) == 2, np.nan, lo), hi),
         errors.NonFiniteEntry),
        (lambda lo, hi: (lo, np.where(np.arange(hi.size) == 0, np.inf, hi)),
         errors.NonFiniteEntry),
        (lambda lo, hi: (hi, lo), errors.EmptyBox),
    ], ids=["short", "matrix", "nan", "inf", "lo-above-hi"])
    def test_box_argument_is_checked(self, inst, box, error):
        ref = reformulate(inst, "rsdc1")
        lo, hi = qcqp._polytope_box(inst.L)
        with pytest.raises(error):
            verify_reformulation(inst, ref, 10, 0, box(lo, hi))
        # a point box is a box
        assert verify_reformulation(inst, ref, 10, 0, (lo, lo)) < 1e-9


def exact_solve(P, B):
    """The solution of P W = B in exact rational arithmetic, rounded to
    double: Gauss-Jordan elimination on Fractions."""
    n = P.shape[0]
    rows = [[Fraction(v) for v in row] for row in np.hstack([P, B])]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return np.array([[float(v / rows[i][i]) for v in rows[i][n:]] for i in range(n)])


class TestBlockVerification:
    def test_block_solve_matches_columns(self, inst):
        P = reformulate(inst, "rsdc2").P.P
        B = np.random.default_rng(3).uniform(size=(P.shape[0], 25))
        W = _solve_refined(P, B)
        for j in range(B.shape[1]):
            w = _solve_refined(P, B[:, j])
            # each is refined on an error-free residual to within about
            # an ulp of the exact solve, so the two agree to a few ulps
            assert np.max(np.abs(W[:, j] - w)) <= 1e-15 * np.max(np.abs(w))

    @pytest.mark.parametrize("args, method", [
        ((6, 1, 30, 0), "rsdc1"),
        ((6, 1, 30, 0), "rsdc2"),
        ((8, 3, 40, 38), "rsdc1"),
    ], ids=["rsdc1", "rsdc2", "rsdc1-ill-conditioned"])
    def test_solve_refined_is_the_exact_solve_to_an_ulp(self, args, method):
        # the order-9 rsdc1 P has kappa 1.9e5: long-double refinement
        # left W 74 ulp from the exact solve there, and a plain solve
        # 217,105 ulp
        P = reformulate(generate_instance(*args), method).P.P
        block = np.random.default_rng(6).uniform(size=(P.shape[0], 10))
        exact = exact_solve(P, block)
        for B, want in ((block, exact), (block[:, 0], exact[:, 0])):
            W = _solve_refined(P, B)
            assert W.shape == B.shape
            assert np.all(np.abs(W - want) <= np.spacing(np.abs(want)))

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
                o1 = float(w @ (ref.quad_obj * w) + 2.0 * ref.lin_obj @ w)
                c1 = float(w @ (ref.quad_con * w) + 2.0 * ref.lin_con @ w)
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

    @pytest.mark.parametrize("call, error, message", [
        (lambda: homogenize_check([np.eye(2)], [np.zeros(3)], [0.0]),
         errors.OrderMismatch, "^b_0 has 3 entries"),
        (lambda: homogenize_check([np.eye(2)], [np.zeros(2)], [[0.0, 1.0]]),
         errors.OrderMismatch, "c_0 2, expected 2 and 1$"),
        (lambda: generate_instance(4, -1, 10, 0), ValueError, r"^need 0 <= 2k <= n$"),
        (lambda: generate_instance(4, 1, -1, 0), ValueError, r"^need m > n$"),
        (lambda: generate_instance(4, 1, 4, 0), ValueError, r"^need m > n$"),
    ], ids=["b-order", "c-not-scalar", "negative-k", "negative-m", "m-at-most-n"])
    def test_misshaped_input_is_named(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

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
        kernels = _counting(monkeypatch, "_box_lps")
        generate_instance(6, 1, 30, 0)
        gen_calls = len(kernels)
        kernels.clear()
        boxes = _counting(monkeypatch, "_certified_box")
        cfg = BenchConfig((6,), (1,), 1, ("rsdc1", "rsdc2", "eig"), m=30, samples=10)
        bench(cfg)
        # the generator's kernel run per draw is all the cell solves; the
        # box is certified once, from the generator's output
        assert len(boxes) == 1
        assert len(kernels) == gen_calls

    def test_box_solved_only_when_needed(self, monkeypatch):
        kernels = _counting(monkeypatch, "_box_lps")
        boxes = _counting(monkeypatch, "_certified_box")
        # sdc is inapplicable for k >= 1: no reformulation, so no box;
        # the generator's kernel run per cell is the only one
        rows = bench(BenchConfig((5,), (1,), 2, ("sdc",), m=30, samples=10))["rows"]
        assert all(r["error"].startswith("MethodInapplicable") for r in rows)
        assert len(boxes) == 0
        cell_runs = len(kernels)
        rows = bench(BenchConfig((5,), (1,), 2, ("sdc", "rsdc2", "eig"), m=30,
                                 samples=10))["rows"]
        assert [r["deviation"] is not None for r in rows] == [False, True, True] * 2
        assert len(boxes) == 2
        assert len(kernels) == 2 * cell_runs

    def test_box_failure_recorded_in_row(self, monkeypatch):
        def failing(*args):
            raise errors.CertificationFailed("box bound of x_0 (+): stub")

        monkeypatch.setattr(qcqp, "_certified_box", failing)
        rows = bench(BenchConfig((5,), (1,), 1, ("rsdc2", "eig"), m=30))["rows"]
        for r in rows:
            assert r["error"] == "CertificationFailed: box bound of x_0 (+): stub"
            assert r["deviation"] is None and r["kappa"] is None

    def test_failures_recorded_not_raised(self):
        cfg = BenchConfig(n_values=(5,), k_values=(1,), seeds=1, methods=("sdc",), m=30)
        report = bench(cfg)
        assert report["rows"][0]["error"].startswith("MethodInapplicable")

    def test_generation_failure_recorded_for_every_method(self, monkeypatch):
        # no draw is bounded, so generation gives up
        monkeypatch.setattr(qcqp, "RESAMPLE_LIMIT", 25)
        monkeypatch.setattr(qcqp, "_bounded", lambda *args: False)
        rows = bench(BenchConfig((2,), (0,), 1, ("sdc", "eig"), m=3))["rows"]
        assert [r["method"] for r in rows] == ["sdc", "eig"]
        for r in rows:
            assert r["error"] == "no bounded polytope within 25 draws"
            assert r["gen_ms"] is None and r["kappa"] is None

    def test_rows_at_most_n_raise(self):
        # m <= n is a misshaped request, not a per-cell failure
        with pytest.raises(ValueError, match=r"^need m > n$"):
            bench(BenchConfig((2,), (0,), 1, ("sdc", "eig"), m=2))


def test_resample_limit_exceeded(monkeypatch):
    # a generator whose every draw is unbounded gives up at the limit
    monkeypatch.setattr(qcqp, "RESAMPLE_LIMIT", 25)
    monkeypatch.setattr(qcqp, "_bounded", lambda *args: False)
    calls = _counting(monkeypatch, "_box_lps")
    with pytest.raises(errors.ResampleLimitExceeded, match="^no bounded polytope within 25 draws$"):
        generate_instance(2, 0, 3, seed=0)
    assert len(calls) == 25


def test_qcqp_rsdc_and_canonical_paths_load_no_scipy():
    # only a real Schur form needs scipy, and it imports scipy.linalg when
    # first called; the CLI, the QCQP pipeline, the RSDC constructions and
    # the canonical form never reach one
    code = """if True:
        import sys
        import sdckit, sdckit.cli
        from sdckit import qcqp, rsdc
        from sdckit.canonical import pencil_canonical
        inst = qcqp.generate_instance(10, 2, 100, 7)
        for method in ("rsdc1", "rsdc2", "eig"):
            qcqp.verify_reformulation(inst, qcqp.reformulate(inst, method), 20)
        qcqp.bench(qcqp.BenchConfig((10,), (2,), 1))
        pencil_canonical(inst.A1, inst.A2)
        rsdc.rsdc1_construct(inst.A1, inst.A2)
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """
    assert fresh_python(code).strip() == "[]"
