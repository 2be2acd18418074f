from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import random_congruence, random_sdc_family
from sdckit import errors, rsdc
from sdckit import sdc as sdc_module
from sdckit.canonical import PencilForm, assemble_pencil, pencil_canonical, tmat
from sdckit.matcore import Congruence, direct_sum, f_mat
from sdckit.qcqp import generate_instance
from sdckit.rsdc import (
    _refine_congruence,
    choose_xi,
    choose_xi_points,
    rsdc1_construct,
    rsdc2_construct,
    solve_border_system,
    solve_border_system2,
)
from sdckit.sdc import sdc_check


def form_with(mus, lams, n=None):
    r, k = len(mus), len(lams)
    return PencilForm(
        P=Congruence(np.eye(r + 2 * k)),
        real_blocks=tuple((1, float(m)) for m in mus),
        complex_blocks=tuple(lams),
    )


class TestChooseXi:
    def test_spread_interval(self):
        form = form_with([], [complex(0.0, 1.0), complex(1.0, 2.0)])
        xi = choose_xi(form, 3, "spread")
        assert np.allclose(xi, [-1.0, 0.5, 2.0])

    def test_chebyshev_midpoint(self):
        form = form_with([0.0, 2.0], [])
        xi = choose_xi(form, 1, "chebyshev")
        assert xi[0] == pytest.approx(1.0)
        # one spread point is the midpoint too, not linspace's left end
        assert choose_xi(form, 1, "spread").tolist() == [1.0]

    # 5,000 uniform draws on [-1, 1] always hold two within the minimum
    # gap of 2e-6, so every one of the 1,000 retries fails
    @pytest.mark.parametrize("count, strategy, error, message", [
        (0, "spread", ValueError, "^count must be at least 1$"),
        (3, "uniform", ValueError, "^unknown strategy 'uniform'$"),
        (5000, "random", errors.CertificationFailed, "^could not draw distinct points$"),
    ])
    def test_rejects_bad_requests(self, count, strategy, error, message):
        with pytest.raises(error, match=message):
            choose_xi_points([0.0], [1j], count, strategy)

    def test_random_distinct(self):
        form = form_with([0.0], [1j])
        for seed in range(50):
            xi = choose_xi(form, 7, "random", seed=seed)
            assert len(xi) == 7
            assert np.min(np.diff(np.sort(xi))) > 1e-6 * (xi.max() - xi.min())

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10**6))
    def test_distinctness_property(self, count, seed):
        xi = choose_xi_points([0.3], [complex(0.1, 0.9)], count, "random", seed)
        assert len(set(xi.tolist())) == count


def _solve_exact(M, rhs):
    """Gauss-Jordan elimination over the rationals."""
    n = len(rhs)
    T = [list(row) + [r] for row, r in zip(M, rhs)]
    for c in range(n):
        p = next(i for i in range(c, n) if T[i][c] != 0)
        T[c], T[p] = T[p], T[c]
        for i in range(n):
            if i != c and T[i][c] != 0:
                q = T[i][c] / T[c][c]
                T[i] = [u - q * v for u, v in zip(T[i], T[c])]
    return [T[i][n] / T[i][i] for i in range(n)]


def interpolation_solve(lams, xi, exact=False):
    """The (2k+1) x (2k+1) interpolation system of the order-1 border.

    Row j evaluates the basis [f_1, t f_1, ..., f_k, t f_k, h] at xi_j,
    with f_i the conjugate-pair quadratics excluding pair i and h their
    full product; the right side is xi_j h(xi_j).  Returns (x, y, z),
    solved in floating point or, with exact=True, over the rationals
    from the same double-precision inputs.
    """
    num = Fraction if exact else float
    k = len(lams)
    quads = [(num(l.real), num(l.imag)) for l in lams]

    def f(t, skip=None):
        out = num(1)
        for j, (re, im) in enumerate(quads):
            if j != skip:
                out *= (re - t) ** 2 + im**2
        return out

    M, rhs = [], []
    for t in map(num, xi):
        row = []
        for i in range(k):
            row += [f(t, i), t * f(t, i)]
        M.append(row + [f(t)])
        rhs.append(t * f(t))
    sol = _solve_exact(M, rhs) if exact else np.linalg.solve(M, rhs)
    sol = np.array([float(v) for v in sol])
    return sol[0 : 2 * k : 2], sol[1 : 2 * k : 2], sol[2 * k]


def interpolation_solve2(lams, xi, exact=False):
    """The (k+1) x (k+1) complex interpolation system of the order-2
    border, against the basis [-f_1, ..., -f_k, h] with
    f_i = prod_{j != i}(lambda_j - t) and h = prod(lambda_j - t).
    Returns (z_1^2, ..., z_k^2, z_{k+1}); with exact=True the system is
    solved over the rationals as its real 2(k+1) form."""
    k = len(lams)
    M = np.zeros((k + 1, k + 1), dtype=complex)
    for r, t in enumerate(xi):
        for i in range(k + 1):
            M[r, i] = np.prod([l - t for j, l in enumerate(lams) if j != i])
        M[r, :k] *= -1
    rhs = np.asarray(xi) * M[:, k]
    if not exact:
        return np.linalg.solve(M, rhs)
    # the products are recomputed exactly; only the inputs are doubles
    re = [[Fraction(0)] * (k + 1) for _ in range(k + 1)]
    im = [[Fraction(0)] * (k + 1) for _ in range(k + 1)]
    for r, t in enumerate(map(Fraction, xi)):
        for i in range(k + 1):
            a, b = Fraction(1), Fraction(0)
            for j, l in enumerate(lams):
                if j != i:
                    c, d = Fraction(l.real) - t, Fraction(l.imag)
                    a, b = a * c - b * d, a * d + b * c
            sign = -1 if i < k else 1
            re[r][i], im[r][i] = sign * a, sign * b
    big = [re[r] + [-v for v in im[r]] for r in range(k + 1)]
    big += [im[r] + re[r] for r in range(k + 1)]
    t = [Fraction(v) for v in xi]
    big_rhs = [t[r] * re[r][k] for r in range(k + 1)]
    big_rhs += [t[r] * im[r][k] for r in range(k + 1)]
    sol = [float(v) for v in _solve_exact(big, big_rhs)]
    return np.array(sol[: k + 1]) + 1j * np.array(sol[k + 1 :])


def placed_xy(g, lams):
    """The planted system values (x_i, y_i) of border entries g."""
    al, be = np.asarray(g)[0::2], np.asarray(g)[1::2]
    lams = np.asarray(lams)
    return lams.imag * (be**2 - al**2) - 2 * lams.real * al * be, 2 * al * be


def rel_err(got, want):
    got, want = np.concatenate(got), np.concatenate(want)
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def random_lams(rng, k):
    return [complex(rng.standard_normal(), rng.uniform(0.5, 2)) for _ in range(k)]


def grid_lams():
    for n in (10, 15, 20):
        for k in (1, 2, 3):
            inst = generate_instance(n, k, 100, 0)
            form = pencil_canonical(inst.A1.a, inst.A2.a)
            yield form, list(form.complex_blocks)


class TestBorderSystem:
    def test_golden_single_pair(self):
        # lambda = i with xi = (-1, 0, 1) plants x=0, y=2, z=0: i(beta + i alpha)^2 = 2i
        g, z = solve_border_system([1j], np.array([-1.0, 0.0, 1.0]))
        assert np.allclose(g, [1.0, 1.0])
        assert z == pytest.approx(0.0, abs=1e-12)

    def test_planted_roots(self, rng):
        # the bordered arrowhead's characteristic polynomial vanishes at xi
        for k in (1, 2, 3, 6, 10, 14):
            lams = random_lams(rng, k)
            xi = choose_xi_points([], lams, 2 * k + 1, "chebyshev")
            g, z = solve_border_system(lams, xi)
            x, y = placed_xy(g, lams)
            for t in xi:
                h = np.prod([(l.real - t) ** 2 + l.imag**2 for l in lams])
                val = (z - t) * h
                for i, l in enumerate(lams):
                    f = np.prod(
                        [(m.real - t) ** 2 + m.imag**2 for j, m in enumerate(lams) if j != i]
                    )
                    val += (x[i] + y[i] * t) * f
                assert abs(val) < 1e-8 * max(1, abs(h))

    def test_order2_planted_roots(self, rng):
        for k in range(1, 11):
            lams = random_lams(rng, k)
            xi = choose_xi_points([], lams, k + 1, "chebyshev")
            z = solve_border_system2(lams, xi)
            for t in xi:
                h = np.prod([l - t for l in lams])
                val = (z[k] - t) * h
                for i in range(k):
                    f = np.prod([m - t for j, m in enumerate(lams) if j != i])
                    val -= z[i] ** 2 * f
                assert abs(val) < 1e-8 * max(1, abs(h))

    def test_matches_interpolation_solve_on_grid(self):
        for form, lams in grid_lams():
            k = len(lams)
            xi = choose_xi(form, 2 * k + 1)
            g, z = solve_border_system(lams, xi)
            x, y, z_ref = interpolation_solve(lams, xi)
            assert rel_err([*placed_xy(g, lams), [z]], [x, y, [z_ref]]) <= 1e-10
            xi = choose_xi(form, k + 1)
            z2 = solve_border_system2(lams, xi)
            ref = interpolation_solve2(lams, xi)
            assert rel_err([z2[:k] ** 2, z2[k:]], [ref[:k], ref[k:]]) <= 1e-10

    def test_matches_exact_interpolation_solve(self, rng):
        # the floating-point solve loses digits to its condition number
        # (1e8 to 1e11 at k = 9), so the reference is the same system
        # solved over the rationals
        for k in range(1, 10):
            lams = random_lams(rng, k)
            xi = choose_xi_points([], lams, 2 * k + 1, "chebyshev")
            g, z = solve_border_system(lams, xi)
            x, y, z_ref = interpolation_solve(lams, xi, exact=True)
            assert rel_err([*placed_xy(g, lams), [z]], [x, y, [z_ref]]) <= 1e-10
            xi = choose_xi_points([], lams, k + 1, "chebyshev")
            z2 = solve_border_system2(lams, xi)
            ref = interpolation_solve2(lams, xi, exact=True)
            assert rel_err([z2[:k] ** 2, z2[k:]], [ref[:k], ref[k:]]) <= 1e-10

    # most borders leave a complex pair (roughly three draws in four
    # here), so those draws are filtered out rather than counted
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(
        st.floats(-5, 5),
        st.floats(-5, 5),
        st.floats(-3, 3),
        st.floats(0.1, 3),
        st.floats(-3, 3),
    )
    def test_round_trip(self, a, b, re, im, z):
        # border the canonical block of lambda with (a, b) and corner z;
        # when that places three distinct real roots, solving for them
        # recovers (a, b) up to a joint sign, and z
        lam = complex(re, im)
        At = np.zeros((3, 3))
        At[:2, :2] = f_mat(2)
        At[2, 2] = 1.0
        Bt = np.zeros((3, 3))
        Bt[:2, :2] = tmat(lam)
        Bt[:2, 2] = Bt[2, :2] = [a, b]
        Bt[2, 2] = z
        w = np.linalg.eigvals(np.linalg.solve(At, Bt))
        assume(np.all(w.imag == 0))
        xi = np.sort(w.real)
        assume(np.min(np.diff(xi)) > 1e-3 * max(1.0, np.max(np.abs(xi))))
        g, z_got = solve_border_system([lam], xi)
        sign = 1.0 if g @ [a, b] >= 0 else -1.0
        assert np.allclose(sign * g, [a, b], atol=1e-8 * max(1.0, abs(a), abs(b)))
        assert z_got == pytest.approx(z, abs=1e-8)

    def test_repeated_points_rejected(self):
        xi = np.array([0.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="1.0"):
            solve_border_system([1j], xi)
        with pytest.raises(ValueError, match="repeated"):
            solve_border_system2([1j, 2 + 1j], xi)

    def test_point_count_checked(self):
        with pytest.raises(errors.OrderMismatch, match=r"^need 3 points, got \(2,\)$"):
            solve_border_system([1j], np.array([0.0, 1.0]))

    def test_real_lambda_rejected(self):
        with pytest.raises(errors.RealLambda):
            solve_border_system([complex(3.0, 0.0)], np.array([0.0, 1.0, 2.0]))


def planted_pair(rng, n, k):
    inst = generate_instance(n, k, max(n + 1, 30), int(rng.integers(0, 2**31)))
    return inst.A1.a, inst.A2.a


def test_three_svds_per_construction(rng, monkeypatch):
    # the rank of A, kappa(form.P) and kappa(refined P); every certificate
    # norm test is decided from O(n^2) bounds.  np.linalg.norm and cond
    # look svd up in the module that defines them
    try:
        import numpy.linalg._linalg as impl  # numpy 2
    except ImportError:
        import numpy.linalg.linalg as impl  # numpy 1.x
    calls = []
    svd = impl.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    # a planted order-40 pair: 34 real and 3 complex eigenvalue pairs
    form = PencilForm(
        P=Congruence(random_congruence(rng, 40, 10.0)),
        real_blocks=tuple((int(rng.choice([-1, 1])), float(mu)) for mu in np.arange(34) / 10),
        complex_blocks=tuple(complex(re, 1.0) for re in rng.standard_normal(3)),
    )
    A, B = (X.a for X in assemble_pencil(form))
    monkeypatch.setattr(impl, "svd", counting)
    monkeypatch.setattr(np.linalg, "svd", counting)
    for construct in (rsdc1_construct, rsdc2_construct):
        calls.clear()
        construct(A, B)
        assert len(calls) <= 3, construct.__name__


class TestRsdc1:
    def test_k0_path(self):
        cert = rsdc1_construct(np.eye(2), np.diag([1.0, 2.0]))
        assert np.array_equal(cert.A_tilde.a, np.diag([1.0, 1.0, 1.0]))
        assert np.array_equal(cert.B_tilde.a, np.diag([1.0, 2.0, 0.0]))
        assert cert.order_added == 1

    def test_golden_f2(self):
        cert = rsdc1_construct(f_mat(2), np.diag([1.0, -1.0]), strategy="spread")
        ev = np.sort(np.linalg.eigvals(np.linalg.solve(cert.A_tilde.a, cert.B_tilde.a)).real)
        assert np.allclose(ev, [-1.0, 0.0, 1.0], atol=1e-10)

    def test_random_instances(self, rng):
        for n, k in [(6, 1), (10, 2), (8, 3)]:
            A, B = planted_pair(rng, n, k)
            cert = rsdc1_construct(A, B)
            assert np.array_equal(cert.A_tilde.a[:n, :n], A)
            assert np.array_equal(cert.B_tilde.a[:n, :n], B)
            assert cert.eig_residual <= 1e-6
            assert sdc_check([cert.A_tilde.a, cert.B_tilde.a]).is_sdc

    def test_eigenvalue_placement(self, rng):
        A, B = planted_pair(rng, 8, 2)
        cert = rsdc1_construct(A, B)
        form = pencil_canonical(A, B)
        mus = sorted(m for _, m in form.real_blocks)
        ev = np.sort(np.linalg.eigvals(np.linalg.solve(cert.A_tilde.a, cert.B_tilde.a)).real)
        want = np.sort(np.concatenate([mus, cert.xi]))
        assert np.allclose(ev, want, atol=1e-6 * max(1, np.abs(want).max()))

    def test_singular_a_rejected(self):
        with pytest.raises(errors.SingularA):
            rsdc1_construct(np.diag([1.0, 0.0]), np.eye(2))

    # a border that places shifted points leaves a real but misplaced
    # spectrum; no border at all leaves the pair's complex eigenvalues
    @pytest.mark.parametrize("misplace, residual", [
        (lambda border: lambda form, xi: border(form, xi + 0.5), "5.000e-01"),
        (lambda border: lambda form, xi: (np.zeros(form.n), np.zeros(form.n), 0.0), "inf"),
    ], ids=["shifted", "no-border"])
    def test_placement_certificate_rejects(self, monkeypatch, misplace, residual):
        monkeypatch.setattr(rsdc, "border", misplace(rsdc.border))
        with pytest.raises(errors.CertificationFailed,
                           match=f"^eigenvalue placement residual {residual} exceeds 1e-06$"):
            rsdc1_construct(f_mat(2), np.diag([1.0, -1.0]), strategy="spread")

    def test_determinism(self, rng):
        A, B = planted_pair(rng, 6, 1)
        c1 = rsdc1_construct(A, B, strategy="random", seed=5)
        c2 = rsdc1_construct(A, B, strategy="random", seed=5)
        assert np.array_equal(c1.B_tilde.a, c2.B_tilde.a)
        assert np.array_equal(c1.xi, c2.xi)


class TestRsdc2:
    def test_k0_path(self):
        cert = rsdc2_construct(np.eye(2), np.diag([1.0, 2.0]))
        assert np.array_equal(cert.A_tilde.a[2:, 2:], f_mat(2))
        assert np.array_equal(cert.B_tilde.a[2:, 2:], np.zeros((2, 2)))

    def test_doubled_eigenvalues(self, rng):
        for n, k in [(6, 1), (10, 2), (8, 3)]:
            A, B = planted_pair(rng, n, k)
            cert = rsdc2_construct(A, B)
            assert np.array_equal(cert.A_tilde.a[:n, :n], A)
            assert np.array_equal(cert.B_tilde.a[:n, :n], B)
            form = pencil_canonical(A, B)
            mus = [m for _, m in form.real_blocks]
            ev = np.sort(
                np.linalg.eigvals(np.linalg.solve(cert.A_tilde.a, cert.B_tilde.a)).real
            )
            want = np.sort(np.concatenate([mus, cert.xi, cert.xi]))
            assert np.allclose(ev, want, atol=1e-6 * max(1, np.abs(want).max()))
            assert sdc_check([cert.A_tilde.a, cert.B_tilde.a]).is_sdc

    def test_spec_example_xi01(self):
        # xi = (0, 1) places {0, 0, 1, 1}
        z = solve_border_system2([1j], np.array([0.0, 1.0]))
        a, b = z.real, z.imag
        At = np.zeros((4, 4))
        At[:2, :2] = f_mat(2)
        At[2:, 2:] = f_mat(2)
        Bt = np.zeros((4, 4))
        Bt[:2, :2] = np.diag([1.0, -1.0])
        Bt[:2, 2:] = [[b[0], a[0]], [a[0], -b[0]]]
        Bt[2:, :2] = Bt[:2, 2:].T
        Bt[2:, 2:] = [[b[1], a[1]], [a[1], -b[1]]]
        ev = np.sort(np.linalg.eigvals(np.linalg.solve(At, Bt)).real)
        assert np.allclose(ev, [0.0, 0.0, 1.0, 1.0], atol=1e-9)

    def test_padded_family_sqrt_eps_scaling(self, rng):
        # scaling the extension coordinates by sqrt(eps) realizes the
        # almost-SDC limit of the zero-padded originals
        A, B = planted_pair(rng, 6, 2)
        n = 6
        for build, d in ((rsdc1_construct, 1), (rsdc2_construct, 2)):
            cert = build(A, B)
            for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                S = np.diag(np.concatenate([np.ones(n), np.full(d, np.sqrt(eps))]))
                At = S @ cert.A_tilde.a @ S
                Bt = S @ cert.B_tilde.a @ S
                pad_A = np.zeros((n + d, n + d))
                pad_A[:n, :n] = A
                pad_B = np.zeros((n + d, n + d))
                pad_B[:n, :n] = B
                border = max(
                    np.linalg.norm(cert.A_tilde.a[:n, n:], 2),
                    np.linalg.norm(cert.B_tilde.a[:n, n:], 2),
                )
                corner = max(
                    np.linalg.norm(cert.A_tilde.a[n:, n:], 2),
                    np.linalg.norm(cert.B_tilde.a[n:, n:], 2),
                )
                dist = max(
                    np.linalg.norm(At - pad_A, 2), np.linalg.norm(Bt - pad_B, 2)
                )
                assert dist <= np.sqrt(eps) * border + eps * corner + 1e-12
                assert sdc_check([At, Bt]).is_sdc

    def test_kappa_usually_smaller(self, rng):
        # the order-2 construction tends to be much better conditioned
        wins = 0
        for _ in range(10):
            A, B = planted_pair(rng, 10, 3)
            k1 = rsdc1_construct(A, B).kappa
            k2 = rsdc2_construct(A, B).kappa
            wins += int(k2 < k1)
        assert wins >= 7


@pytest.mark.parametrize("build", [rsdc1_construct, rsdc2_construct])
def test_certificate_border_is_gamma(build, rng):
    # gamma is the border in canonical coordinates: B_tilde's border is
    # P^{-T} gamma bitwise, and gamma vanishes on the real blocks
    for n, k in [(6, 1), (10, 2), (9, 3)]:
        A, B = planted_pair(rng, n, k)
        cert = build(A, B)
        form = pencil_canonical(A, B)
        gamma = cert.gamma.reshape(n, -1)
        assert gamma.shape == (n, cert.order_added)
        assert np.array_equal(cert.B_tilde.a[:n, n:], form.P.inv().T @ gamma)
        assert not np.any(gamma[: form.r])
        assert np.any(gamma[form.r :])


def refine_congruence_longdouble(A, B, P, hits=None):
    """The long-double refinement that the error-free split products
    replaced, kept as the reference; `hits` collects the branches taken."""
    Pl = P.astype(np.longdouble)
    Al = A.astype(np.longdouble)
    Bl = B.astype(np.longdouble)
    n = P.shape[0]
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    for _ in range(2):
        EA = np.dot(np.dot(Pl.T, Al), Pl)
        EB = np.dot(np.dot(Pl.T, Bl), Pl)
        da, db = np.diag(EA), np.diag(EB)
        p = da[:, None] * db[None, :]
        q = p.T
        det = p - q
        scale = np.maximum(np.maximum(np.abs(p), np.abs(q)), 1e-300)
        generic = upper & (np.abs(det) > 1e-8 * scale)
        da_sum = da[:, None] + da[None, :]
        matched = upper & ~generic & (np.abs(da_sum) > 1e-12)
        if hits is not None:
            branches = {"generic": generic, "matched": matched,
                        "zero": upper & ~generic & ~matched}
            hits.update(name for name, mask in branches.items() if mask.any())
        rhs_a, rhs_b = -EA, -EB
        x_ij = np.divide(rhs_a, da_sum, out=np.zeros_like(EA), where=matched)
        x_ji = x_ij.copy()
        np.divide(rhs_a * db - rhs_b * da, det, out=x_ij, where=generic)
        np.divide(rhs_b * da[:, None] - rhs_a * db[:, None], det, out=x_ji, where=generic)
        X = np.where(upper, x_ij, x_ji.T)
        Pl = np.dot(Pl, np.eye(n) + X)
    return np.asarray(Pl, dtype=float)


def assert_agrees_with_longdouble(A, B, P, hits=None):
    # 8 eps max|P| is about nine times the worst disagreement measured on
    # the grid and on planted order-80 pairs
    got = _refine_congruence(A, B, P)
    want = refine_congruence_longdouble(A, B, P, hits)
    assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * np.max(np.abs(want))


def hidden_canonical_pair(rng, n, k):
    """An orthogonally hidden canonical pair with k complex pairs."""
    r = n - 2 * k
    V, _, _ = np.linalg.svd(rng.standard_normal((n, n)))
    sigma = rng.choice([-1.0, 1.0], size=r)
    lams = rng.standard_normal(k) + 1j * rng.uniform(0.5, 2.0, k)
    D1 = direct_sum(np.diag(sigma), *[f_mat(2)] * k)
    D2 = direct_sum(np.diag(sigma * rng.standard_normal(r)), *[tmat(lam) for lam in lams])
    A, B = V.T @ D1 @ V, V.T @ D2 @ V
    return 0.5 * (A + A.T), 0.5 * (B + B.T)


def assert_constructions_agree_with_longdouble(A, B):
    for build in (rsdc1_construct, rsdc2_construct):
        cert = build(A, B)
        At, Bt = cert.A_tilde.a, cert.B_tilde.a
        assert_agrees_with_longdouble(At, Bt, sdc_check([At, Bt]).congruence.P)


def exact_offdiagonal(P, A):
    """max |(P^T A P)_ij| over i != j, in exact rational arithmetic."""
    n = len(P)
    Pf = [[Fraction(x) for x in row] for row in P]
    Af = [[Fraction(x) for x in row] for row in A]
    AP = [[sum(Af[i][l] * Pf[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
    return max(
        abs(sum(Pf[l][i] * AP[l][j] for l in range(n)))
        for i in range(n)
        for j in range(n)
        if i != j
    )


extended_longdouble = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18,
    reason="the long-double reference is no more accurate than double here",
)


class TestRefineCongruence:
    @extended_longdouble
    def test_agrees_with_longdouble_on_grid(self):
        for n in (10, 15, 20):
            for k in (1, 2, 3):
                inst = generate_instance(n, k, 100, 0)
                assert_constructions_agree_with_longdouble(inst.A1.a, inst.A2.a)

    @extended_longdouble
    def test_agrees_with_longdouble_on_planted_order80(self):
        rng = np.random.default_rng(80)
        for _ in range(2):
            assert_constructions_agree_with_longdouble(*hidden_canonical_pair(rng, 80, 3))

    @extended_longdouble
    def test_agrees_with_longdouble_on_every_branch(self):
        # pairs (0, 1) share their diagonals (matched), pairs (0, 2) and
        # (1, 2) have opposite ones (zero correction), and index 3 is
        # generic with every other; an off-diagonal 1e-10 perturbation of
        # P fills the off-diagonals of P^T A P and P^T B P but moves their
        # diagonals only by about 1e-20
        A = np.diag([1.0, 1.0, -1.0, 2.0])
        B = np.diag([2.0, 2.0, -2.0, 1.0])
        R = np.random.default_rng(4).standard_normal((4, 4))
        P = np.eye(4) + 1e-10 * (R - np.diag(np.diag(R)))
        hits = set()
        assert_agrees_with_longdouble(A, B, P, hits)
        assert hits == {"generic", "matched", "zero"}

    @pytest.mark.parametrize("seed", [1, 4])
    def test_cuts_the_exact_residue(self, seed):
        # the oracle's P leaves residue of order kappa^2 eps; evaluated
        # in plain double, the refinement cuts these two by at most 17x
        fam, _ = random_sdc_family(np.random.default_rng(seed), 6, 2, kappa_max=1e6)
        A, B = fam
        P = sdc_check(fam).congruence.P
        Q = _refine_congruence(A, B, P)
        for M in (A, B):
            assert exact_offdiagonal(Q, M) * 100 <= exact_offdiagonal(P, M)

    def test_finish_certifies_the_refined_congruence(self, rng, monkeypatch):
        A, B = planted_pair(rng, 8, 2)
        monkeypatch.setattr(
            rsdc, "_refine_congruence", lambda At, Bt, P: P + 1e-3 * np.triu(P, 1)
        )
        for build in (rsdc1_construct, rsdc2_construct):
            with pytest.raises(errors.CertificationFailed, match="off-diagonal residual"):
                build(A, B)


def grid_and_order80_pairs():
    """The acceptance grid's seed-0 pairs and two hidden order-80 pairs."""
    for n in (10, 15, 20):
        for k in (1, 2, 3):
            inst = generate_instance(n, k, 100, 0)
            yield inst.A1.a, inst.A2.a
    rng = np.random.default_rng(80)
    for _ in range(2):
        yield hidden_canonical_pair(rng, 80, 3)


class TestConstructiveCongruence:
    def test_one_decomposition_and_no_oracle(self, rng, monkeypatch):
        # the canonical form's eig and the placement check's eigvals are
        # the only decompositions; the extended pair's congruence is built,
        # not decided
        def refuse(*args, **kwargs):
            raise AssertionError("the SDC oracle ran")

        for module in (sdc_module, rsdc):
            monkeypatch.setattr(module, "sdc_check", refuse)
        monkeypatch.setattr(sdc_module, "_sdc_check", refuse)
        calls = []
        for name in ("eig", "eigvals"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *args, _fn=fn, _name=name:
                                calls.append(_name) or _fn(*args))
        A, B = planted_pair(rng, 10, 2)
        for build in (rsdc1_construct, rsdc2_construct):
            calls.clear()
            build(A, B)
            assert sorted(calls) == ["eig", "eigvals"]

    def test_oracle_referee(self):
        # the oracle's congruence for the extended pair, refined the same
        # way, is the constructed one up to column signs
        for A, B in grid_and_order80_pairs():
            for build in (rsdc1_construct, rsdc2_construct):
                cert = build(A, B)
                At, Bt = cert.A_tilde.a, cert.B_tilde.a
                ref = Congruence(_refine_congruence(At, Bt, sdc_check([At, Bt]).congruence.P))
                assert cert.kappa == pytest.approx(ref.kappa, rel=1e-12, abs=0)
                P = cert.congruence.P
                signs = np.where(np.sum(P * ref.P, axis=0) < 0, -1.0, 1.0)
                assert np.max(np.abs(P - signs * ref.P)) <= 1e-12 * np.max(np.abs(ref.P))

    def test_certified_before_refinement(self, monkeypatch):
        # the constructed congruence passes the certificate's bound on
        # its own; the refinement only adds margin
        monkeypatch.setattr(rsdc, "_refine_congruence", lambda At, Bt, P: P)
        for A, B in grid_and_order80_pairs():
            for build in (rsdc1_construct, rsdc2_construct):
                build(A, B)
