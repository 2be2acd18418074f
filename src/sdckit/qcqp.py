"""Diagonal reformulations of two-form QCQPs.

Instance model: minimize x^T A1 x + 2 b1^T x subject to
x^T A2 x + 2 b2^T x <= 1 and L x <= 1 over a bounded polytope.  The
random generator plants a prescribed number k of complex eigenvalue
pairs in the pencil.  Reformulations: plain SDC congruence (n vars,
k = 0 only), the restricted-SDC extensions (n+1 and n+2 vars with one
and two pinning equalities), and the double eigendecomposition (2n vars
with n coupling equalities).  Verification is pointwise function
equivalence on sampled points; no QCQP is ever solved here.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from itertools import islice, product

import numpy as np

from . import errors
from .matcore import (
    RANK_TOL,
    RESID_TOL,
    Congruence,
    SymMat,
    _dot2,
    direct_sum,
    f_mat,
    form_family,
)
from .rsdc import rsdc1_construct, rsdc2_construct
from .sdc import sdc_check, span_candidates

__all__ = [
    "QcqpInstance",
    "Reformulation",
    "generate_instance",
    "check_bounded",
    "reformulate",
    "verify_reformulation",
    "homogenize_check",
    "bench",
    "BenchConfig",
]

RESAMPLE_LIMIT = 1000
# the box simplex's relative tolerance for a pivot, a negative multiplier
# and a zero slack, far inside the certificate's RESID_TOL
_SIMPLEX_TOL = 1e-11
# lockstep pivots after which the box LPs still open are given up
BOX_PIVOT_CAP = 10000
METHODS = ("sdc", "rsdc1", "rsdc2", "eig")
# the keys of every bench row, in CSV column order
_BENCH_FIELDS = ("n", "k", "seed", "method", "dim", "kappa", "deviation",
                 "eig_residual", "gen_ms", "reform_ms", "error")


@dataclass(frozen=True)
class QcqpInstance:
    n: int
    A1: SymMat
    A2: SymMat
    b1: np.ndarray
    b2: np.ndarray
    L: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in ("A1", "A2"):
            if getattr(self, key).n != self.n:
                raise errors.OrderMismatch(
                    f"{key} has order {getattr(self, key).n}, expected {self.n}")
        for key, ndim in (("b1", 1), ("b2", 1), ("L", 2)):
            a = getattr(self, key)
            if np.ndim(a) != ndim or np.shape(a)[-1] != self.n:
                raise errors.OrderMismatch(f"{key} has shape {np.shape(a)}, expected "
                                           f"({'m, ' * (ndim - 1)}{self.n},)")
            if not np.isfinite(a).all():
                raise errors.NonFiniteEntry(f"{key} has a non-finite entry")

    def objective(self, x: np.ndarray):
        """x^T A1 x + 2 b1^T x at x, or at each row of a (samples, n) block."""
        return _form_values(self.A1.a, self.b1, x)

    def constraint(self, x: np.ndarray):
        """x^T A2 x + 2 b2^T x at x, or at each row of a (samples, n) block."""
        return _form_values(self.A2.a, self.b2, x)

    def to_json(self) -> str:
        arrays = {"A1": self.A1.a, "A2": self.A2.a, "b1": self.b1, "b2": self.b2, "L": self.L}
        return json.dumps({"n": self.n, "k": self.meta.get("k"), "m": int(self.L.shape[0]),
                           "seed": self.meta.get("seed"),
                           **{key: a.tolist() for key, a in arrays.items()}})

    @classmethod
    def from_json(cls, text: str) -> "QcqpInstance":
        d = json.loads(text)
        arrays = {key: np.asarray(d[key], dtype=float) for key in ("A1", "A2", "b1", "b2", "L")}
        return cls(n=int(d["n"]), A1=SymMat(arrays.pop("A1")), A2=SymMat(arrays.pop("A2")),
                   **arrays, meta={"seed": d.get("seed"), "k": d.get("k")})


@dataclass(frozen=True)
class Reformulation:
    method: str
    dim: int
    quad_obj: np.ndarray
    quad_con: np.ndarray
    lin_obj: np.ndarray
    lin_con: np.ndarray
    poly: np.ndarray
    equalities: tuple
    P: Congruence
    kappa: float
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        # P's order, half of dim for eig, whose variables are (y, z)
        width = self.dim // 2 if self.method == "eig" else self.dim
        shapes = {"P": self.P.P.shape}
        shapes.update((key, np.shape(getattr(self, key)))
                      for key in ("quad_obj", "quad_con", "lin_obj", "lin_con"))
        if self.method == "eig":
            for key in ("P1", "P2"):
                if key not in self.aux:
                    raise errors.OrderMismatch(f"eig reformulation has no aux {key}")
                shapes[f"aux {key}"] = np.shape(self.aux[key])
        for key, shape in shapes.items():
            want = (width,) if key.startswith(("quad", "lin")) else (width, width)
            if shape != want:
                raise errors.OrderMismatch(
                    f"{key} has shape {shape}, expected {want} for {self.method} of dim {self.dim}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "method": self.method,
                "dim": self.dim,
                "quad_obj": self.quad_obj.tolist(),
                "quad_con": self.quad_con.tolist(),
                "lin_obj": self.lin_obj.tolist(),
                "lin_con": self.lin_con.tolist(),
                "poly": self.poly.tolist(),
                "equalities": [list(map(float, r)) for r in self.equalities],
                "P": self.P.P.tolist(),
                "kappa": self.kappa,
                "aux": {k: v for k, v in self.aux.items() if k in ("P1", "P2")},
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Reformulation":
        """Inverse of to_json; P is re-certified invertible by Congruence,
        and an array with a NaN or inf entry raises NonFiniteEntry.

        The rsdc certificate in aux is not serialized and does not come
        back; verification does not use it.
        """
        d = json.loads(text)
        if d["method"] not in METHODS:
            raise ValueError(f"unknown method {d['method']!r}")

        def vec(value, key):
            a = np.asarray(value, dtype=float)
            if not np.isfinite(a).all():
                raise errors.NonFiniteEntry(f"{key} has a non-finite entry")
            return a

        return cls(
            method=d["method"],
            dim=int(d["dim"]),
            **{key: vec(d[key], key)
               for key in ("quad_obj", "quad_con", "lin_obj", "lin_con", "poly")},
            equalities=tuple(vec(r, "equalities") for r in d["equalities"]),
            P=Congruence(vec(d["P"], "P")),
            kappa=float(d["kappa"]),
            aux={k: vec(d["aux"][k], k).tolist() for k in ("P1", "P2") if k in d["aux"]},
        )


def _form_values(A: np.ndarray, b: np.ndarray, x: np.ndarray):
    """x^T A x + 2 b^T x for symmetric A, at x or at each row of a block."""
    return np.sum(x * (x @ A), axis=-1) + 2.0 * (x @ b)


def check_bounded(L) -> bool:
    """True when the polytope {x : Lx <= 1} is bounded, on a checked dual proof.

    The 2n box LPs max +-x_i over {Lx <= 1} run in _box_lps.  An
    unbounded LP or a polytope without a vertex gives False, once the
    ray that each such LP returns is checked to recede.  When every
    LP k, of objective c_k = +-e_i, is optimal with duals whose positive
    part y+ has ||L^T y+ - c_k||_1 <= 1/2, any d with Ld <= 0 has
    +-d_i = y+^T L d - (L^T y+ - c_k)^T d <= ||d||_inf / 2 for every i,
    so d = 0: True.  The proof reads only the duals, not the box's
    primal and gap checks.  Any other outcome, such as the pivot cap,
    raises CertificationFailed, and a NaN or inf in L NonFiniteEntry.
    """
    L = np.asarray(L, dtype=float)
    if not np.isfinite(L).all():
        raise errors.NonFiniteEntry("L has a non-finite entry")
    return _bounded(L, *_box_lps(L))


def _objectives(n: int) -> np.ndarray:
    """The box LPs' objectives: row k is c_k = s e_i, i = k // 2, s = (+1, -1)[k % 2]."""
    return np.kron(np.eye(n), [[1.0], [-1.0]])


def _bounded(L: np.ndarray, statuses, X, Y) -> bool:
    """check_bounded's verdict from _box_lps's output on L.

    False needs a checked ray: the row X[k] of every unbounded LP k must
    have L_r d <= _SIMPLEX_TOL |L_r| |d| on every row r and c_k d > 0.
    """
    C = _objectives(L.shape[1])

    def fail(k, why):
        return errors.CertificationFailed(f"boundedness LP of x_{k // 2} ({'+-'[k % 2]}): {why}")

    unbounded = [k for k, s in enumerate(statuses) if s is not None and s.startswith("unbounded")]
    if unbounded:
        D = X[unbounded]
        floor = _SIMPLEX_TOL * np.multiply.outer(np.linalg.norm(D, axis=1),
                                                 np.linalg.norm(L, axis=1))
        recedes = np.all(D @ L.T <= floor, axis=1) & (np.sum(D * C[unbounded], axis=1) > 0)
        for k, ok in zip(unbounded, recedes):
            if not ok:
                raise fail(k, f"{statuses[k]}, but its ray does not recede")
        return False
    residual = np.sum(np.abs(np.maximum(Y, 0.0) @ L - C), axis=1)
    for k, s in enumerate(statuses):
        if s is not None or not residual[k] <= 0.5:
            raise fail(k, f"not optimal: {s}" if s else f"dual residual {residual[k]:.3g} > 1/2")
    return True


def generate_instance(n: int, k: int, m: int, seed: int) -> QcqpInstance:
    """Random instance with exactly k complex eigenvalue pairs planted.

    An orthogonal V conjugates Diag(sigma, F_2, ..., F_2) and
    Diag(sigma mu, T_1, ..., T_k) with Rademacher signs, normal mu and
    normal 2x2 symmetric blocks; b1, b2, L are standard normal and the
    instance is resampled until check_bounded finds the polytope bounded
    (m <= n rows never bound it, so such an m raises ValueError at once).
    """
    return _generate(n, k, m, seed)[0]


def _generate(n: int, k: int, m: int, seed: int):
    """generate_instance's instance, and the _box_lps output on its L."""
    if not 0 <= 2 * k <= n:
        raise ValueError("need 0 <= 2k <= n")
    if m <= n:
        raise ValueError("need m > n")
    rng = np.random.default_rng(seed)
    r = n - 2 * k
    for _ in range(RESAMPLE_LIMIT):
        M = rng.standard_normal((n, n))
        V, _, _ = np.linalg.svd(M)
        sigma = rng.choice([-1.0, 1.0], size=r)
        mu = rng.standard_normal(r)
        xy = rng.standard_normal((k, 2))
        D1 = direct_sum(np.diag(sigma), *[f_mat(2)] * k)
        D2 = direct_sum(np.diag(sigma * mu), *[np.array([[x, y], [y, -x]]) for x, y in xy])
        A1 = V.T @ D1 @ V
        A2 = V.T @ D2 @ V
        b1 = rng.standard_normal(n)
        b2 = rng.standard_normal(n)
        L = rng.standard_normal((m, n))
        kernel = _box_lps(L)
        if _bounded(L, *kernel):
            return QcqpInstance(
                n=n,
                A1=SymMat(0.5 * (A1 + A1.T)),
                A2=SymMat(0.5 * (A2 + A2.T)),
                b1=b1,
                b2=b2,
                L=L,
                meta={"seed": seed, "k": k, "generator": 1},
            ), kernel
    raise errors.ResampleLimitExceeded(
        f"no bounded polytope within {RESAMPLE_LIMIT} draws"
    )


def reformulate(inst: QcqpInstance, method: str) -> Reformulation:
    """Build the diagonal reformulation for the requested method.

    sdc, rsdc1 and rsdc2 share one congruence reformulation: P
    diagonalizes the pair extended by d = 0, 1 or 2 zero-data
    coordinates, and the last d rows of P pin those coordinates to 0.
    """
    n = inst.n
    A1, A2 = inst.A1.a, inst.A2.a
    if method == "eig":
        w1, P1 = np.linalg.eigh(A1)
        A2t = P1.T @ A2 @ P1
        w2, P2 = np.linalg.eigh(0.5 * (A2t + A2t.T))
        # variables (y, z) with the coupling y = P2 z
        eqs = tuple(np.hstack([np.eye(n), -P2]))
        return Reformulation(
            method="eig",
            dim=2 * n,
            quad_obj=w1,
            quad_con=w2,
            lin_obj=P1.T @ inst.b1,
            lin_con=P1.T @ inst.b2,
            poly=inst.L @ P1,
            equalities=eqs,
            P=Congruence(P1 @ P2),
            kappa=float(np.linalg.cond(P2)),
            aux={"P1": P1.tolist(), "P2": P2.tolist()},
        )
    if method == "sdc":
        res = sdc_check([A1, A2])
        if not res.is_sdc:
            raise errors.MethodInapplicable(
                f"pair is not SDC ({res.witness}); sdc reformulation needs k = 0"
            )
        P, d, diagonals, aux = res.congruence, 0, res.diagonals, {}
    elif method in ("rsdc1", "rsdc2"):
        build = rsdc1_construct if method == "rsdc1" else rsdc2_construct
        try:
            cert = build(A1, A2)
        except errors.SdckitError as exc:
            raise errors.MethodInapplicable(str(exc)) from exc
        P, d, aux = cert.congruence, cert.order_added, {"certificate": cert}
        diagonals = [np.diag(P.P.T @ M.a @ P.P).copy() for M in (cert.A_tilde, cert.B_tilde)]
    else:
        raise ValueError(f"unknown method {method!r}")
    pad = np.zeros(d)
    return Reformulation(
        method=method,
        dim=n + d,
        quad_obj=diagonals[0],
        quad_con=diagonals[1],
        lin_obj=P.P.T @ np.concatenate([inst.b1, pad]),
        lin_con=P.P.T @ np.concatenate([inst.b2, pad]),
        poly=np.hstack([inst.L, np.zeros((inst.L.shape[0], d))]) @ P.P,
        equalities=tuple(P.P[n + i, :].copy() for i in range(d)),
        P=P,
        kappa=P.kappa,
        aux=aux,
    )


def _crash(Lr: np.ndarray, C: np.ndarray, norms: np.ndarray):
    """Ray shots from the origin to a start vertex of {Lr x <= 1} per LP.

    LP k, of unit objective C[k], takes t = Lr.shape[1] shots, in
    lockstep with the others.  Each shot goes along C[k] projected onto the null
    space of the rows that LP k has hit so far; the projector takes one
    new row per shot, orthogonalized by Gram-Schmidt applied twice.
    When that projection is about zero, the shot goes along the null
    direction of those rows nearest a unit vector, whichever way hits a
    row.  A shot stops at the nearest row it hits, by the simplex's
    relative _SIMPLEX_TOL hit and step tests.  A shot along C[k] that
    hits no row makes LP k unbounded, and a shot that hits no row either
    way makes it null: its direction is a null direction of Lr.
    Returns (B, rays, unbounded, nulled): B[k] lists the t rows hit,
    which define LP k's start vertex, and rays[k] is the unit direction
    of LP k's last shot when it is unbounded or null.
    """
    K, t = C.shape
    B = np.zeros((K, t), dtype=int)
    rays = np.zeros((K, t))
    unbounded = np.zeros(K, dtype=bool)
    nulled = np.zeros(K, dtype=bool)
    floor = _SIMPLEX_TOL * norms
    # the LPs still shooting, each with its projector, its projected
    # objective, its slacks and its rows hit
    run = np.arange(K)
    P = np.broadcast_to(np.eye(t), (K, t, t)).copy()
    pc = C.copy()
    slack = np.ones((K, len(Lr)))
    rows = B.copy()
    for j in range(t):
        pc = (P @ (P @ pc[:, :, None]))[:, :, 0]
        size = np.sqrt(np.sum(pc * pc, axis=1))
        zero = size <= _SIMPLEX_TOL
        d = pc / np.where(zero, 1.0, size)[:, None]
        if zero.any():
            Pz = P[zero]
            unit = np.argmax(np.diagonal(Pz, axis1=1, axis2=2), axis=1)
            dz = (Pz @ Pz[np.arange(len(Pz)), :, unit, None])[:, :, 0]
            d[zero] = dz / np.linalg.norm(dz, axis=1, keepdims=True)
        a = d @ Lr.T
        a[np.arange(len(run))[:, None], rows[:, :j]] = 0.0
        hit = a > floor
        ahead = hit.any(axis=1)
        if not ahead.all():
            backward = np.any(a < -floor, axis=1)
            flip = zero & ~ahead
            d[flip] *= -1.0
            a[flip] *= -1.0
            hit[flip] = a[flip] > floor
            end = ~hit.any(axis=1)
            unbounded[run[end & backward]] = True
            nulled[run[end & ~backward]] = True
            rays[run[end]] = d[end]
            run, P, pc, slack, rows, a, hit = (
                v[~end] for v in (run, P, pc, slack, rows, a, hit))
            if not len(run):
                break
        steps = np.where(hit, np.where(slack > _SIMPLEX_TOL, slack, 0.0), np.inf)
        steps /= np.where(hit, a, 1.0)
        r = np.argmin(steps, axis=1)
        slack -= steps[np.arange(len(run)), r][:, None] * a
        rows[:, j] = r
        q = (P @ (P @ Lr[r][:, :, None]))[:, :, 0]
        q /= np.sqrt(np.sum(q * q, axis=1, keepdims=True))
        P -= np.einsum("ki,kj->kij", q, q)
    B[run] = rows
    return B, rays, unbounded, nulled


def _box_lps(L: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """The 2n LPs max s x_i over {Lx <= 1}, solved in lockstep: (status, X, Y).

    Row 2i of X and Y belongs to s = +1 and row 2i + 1 to s = -1: the
    optimal vertex, and the row duals y >= 0 with L^T y = s e_i.
    status[k] is None at an optimum and says why LP k has none
    otherwise; X[k] is then the ray that makes LP k unbounded, if it is,
    and zero else.  Each LP starts at its own vertex, reached by _crash's
    ray shots from the origin, and runs the primal active-set simplex
    (Dantzig's rule; an LP that takes a zero-length step keeps Bland's
    smallest-index rule from then on, so degenerate polytopes
    terminate), with each basis inverse kept by rank-one updates; x and
    y are then solved from the final basis, sorted, so that they depend
    on the optimal basis and not on the path to it.  Crash shots are not
    pivots of BOX_PIVOT_CAP.  A row r enters only with a pivot L_r d
    above _SIMPLEX_TOL |L_r| |d| along the edge d, multipliers are
    priced as y_r |L_r| and one counts as negative below -_SIMPLEX_TOL
    sum_j |y_j| |L_j|, an optimum read from an updated inverse is priced
    again from a fresh one, and a slack up to _SIMPLEX_TOL (the
    right-hand side is 1) counts as zero, so no test depends on the
    scale of L or of its rows.  A crash shot that hits no row either way
    is a null direction of L; the crash then runs again in the
    coordinates of the row space left (L of rank t < n), and x_i is
    unbounded along its part in the null space when e_i has one.
    """
    if L.ndim != 2:
        raise errors.OrderMismatch(f"L has shape {L.shape}, expected (m, n)")
    m, n = L.shape
    C = _objectives(n)
    null = np.empty((0, n))
    # a crash shot that hits no row either way is a null direction of L:
    # it joins the null directions, and the crash runs again without it
    while True:
        # rows: an orthonormal basis of the row space, or the identity
        R = np.linalg.qr(null.T, mode="complete")[0][:, len(null):].T
        t = len(R)
        Lr = L @ R.T
        Cr = C @ R.T
        norms = np.linalg.norm(Lr, axis=1)
        # c_k's part in the null space makes LP k unbounded
        far = np.linalg.norm(C @ null.T, axis=1) > _SIMPLEX_TOL
        status = [f"unbounded; the polytope has no vertex (L has rank {t} < {n})"
                  if f else None for f in far]
        lps = np.flatnonzero(~far)  # still open
        B, rays, unbounded, nulled = _crash(Lr, Cr[lps], norms)
        if not nulled.any():
            break
        d = rays[np.argmax(nulled)] @ R
        null = np.vstack([null, d / np.linalg.norm(d)])
    X = np.zeros((2 * n, n))
    Y = np.zeros((2 * n, m))
    X[far] = C[far] @ null.T @ null
    for j in lps[unbounded]:
        status[j] = "unbounded"
    X[lps[unbounded]] = rays[unbounded] @ R
    lps, B = lps[~unbounded], B[~unbounded]
    basis = np.zeros((2 * n, t), dtype=int)
    Minv = np.linalg.inv(Lr[B])
    bland = np.zeros(len(lps), dtype=bool)
    ones = np.ones(t)
    Cl = Cr[lps]

    def priced(Cl, Minv, B):
        """The multipliers y_r |L_r|, and which of them are negative."""
        y = (Cl[:, None, :] @ Minv)[:, 0] * norms[B]
        return y, y < -_SIMPLEX_TOL * np.abs(y).sum(axis=1, keepdims=True)

    pivots = 0
    while len(lps):
        k = np.arange(len(lps))
        y, neg = priced(Cl, Minv, B)
        # an optimum read from an updated inverse is priced again from a
        # fresh one, so rank-one drift cannot end an LP early
        stale = ~neg.any(axis=1) & (pivots > 0)
        if stale.any():
            Minv[stale] = np.linalg.inv(Lr[B[stale]])
            y[stale], neg[stale] = priced(Cl[stale], Minv[stale], B[stale])
        done = ~neg.any(axis=1)
        basis[lps[done]] = np.sort(B[done], axis=1)
        if pivots == BOX_PIVOT_CAP:
            for j in lps[~done]:
                status[j] = f"no optimum within {BOX_PIVOT_CAP} pivots"
            break
        p = np.argmin(y, axis=1)
        if bland.any():
            p = np.where(bland, np.argmin(np.where(neg, B, m), axis=1), p)
        d = -Minv[k, :, p]
        a = d @ Lr.T
        a[k[:, None], B] = 0.0
        slack = 1.0 - (Minv @ ones) @ Lr.T
        hit = a > np.multiply.outer(_SIMPLEX_TOL * np.sqrt(np.sum(d * d, axis=1)), norms)
        steps = np.where(hit, np.where(slack > _SIMPLEX_TOL, slack, 0.0), np.inf)
        steps /= np.where(hit, a, 1.0)
        r = np.argmin(steps, axis=1)
        step = steps[k, r]
        ray = ~done & np.isinf(step)
        for j in lps[ray]:
            status[j] = "unbounded"
        X[lps[ray]] = d[ray] @ R
        go = ~done & np.isfinite(step)
        if not go.all():
            lps, Cl, Minv, B, bland, p, r, step = (
                v[go] for v in (lps, Cl, Minv, B, bland, p, r, step))
            k = np.arange(len(lps))
        bland |= step == 0.0
        # row p of the basis becomes row r of L: Minv - u (w - e_p)^T
        w = (Lr[r][:, None, :] @ Minv)[:, 0]
        u = Minv[k, :, p] / w[k, p][:, None]
        w[k, p] -= 1.0
        Minv -= u[:, :, None] * w[:, None, :]
        B[k, p] = r
        pivots += 1
    ok = np.flatnonzero([s is None for s in status])
    Lb = Lr[basis[ok]]
    X[ok] = np.linalg.solve(Lb, np.ones((len(ok), t, 1)))[..., 0] @ R
    yb = np.linalg.solve(np.swapaxes(Lb, 1, 2), Cr[ok][..., None])[..., 0]
    Y[ok[:, None], basis[ok]] = yb
    return status, X, Y


def _box_certificate(L: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Worst residual of each certificate that X[k] maximizes c_k x over {Lx <= 1}.

    Row k belongs to c_k = s e_i of _objectives; all 2n ratios come from
    one array pass.  By LP duality x is optimal when it is feasible and
    y >= 0 has L^T y = s e_i and 1^T y = s x_i.  Each residual is returned as a fraction of
    tau = RESID_TOL max(1, sum_r |y_r| max_j |L_rj|) (the gap's tau
    scaled by max(1, |x_i|)), so the bound is certified at <= 1.
    Scaling row r of L by c scales y_r by 1 / c and leaves tau.
    """
    C = _objectives(L.shape[1])
    tau = RESID_TOL * np.maximum(1.0, np.abs(Y) @ np.max(np.abs(L), axis=1))
    sx = np.sum(C * X, axis=1)  # s x_i
    return np.max([
        -np.min(Y, axis=1, initial=np.inf),
        np.max(np.abs(Y @ L - C), axis=1),
        np.abs(sx - np.sum(Y, axis=1)) / np.maximum(1.0, np.abs(sx)),
        np.max(X @ L.T, axis=1, initial=-np.inf) - 1.0,
    ], axis=0) / tau


def _polytope_box(L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate bounds of the polytope {Lx <= 1}, each one certified:
    the 2n LPs solved together by _box_lps, then _certified_box."""
    return _certified_box(L, *_box_lps(L))


def _certified_box(L: np.ndarray, statuses, X, Y) -> tuple[np.ndarray, np.ndarray]:
    """The (lo, hi) box read from _box_lps's output on L, each bound certified.

    The LPs are certified in the order (0, +), (0, -), (1, +), ...; the
    first one that is not optimal or whose duality certificate fails
    raises CertificationFailed naming the coordinate and the sign.
    """
    ratios = _box_certificate(L, X, Y)
    for k, status in enumerate(statuses):
        what = f"box bound of x_{k // 2} ({'+-'[k % 2]})"
        if status is not None:
            raise errors.CertificationFailed(f"{what}: LP not optimal: {status}")
        if not ratios[k] <= 1.0:
            raise errors.CertificationFailed(
                f"{what}: duality certificate residual is {ratios[k]:.3g} of its bound"
            )
    i = np.arange(L.shape[1])
    return X[2 * i + 1, i], X[2 * i, i]


def _sampling_box(box, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A caller's (lo, hi) box as two float vectors, checked."""
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    if lo.shape != (n,) or hi.shape != (n,):
        raise errors.OrderMismatch(
            f"box bounds have shapes {lo.shape} and {hi.shape}, expected ({n},)")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise errors.NonFiniteEntry("box has a non-finite bound")
    if np.any(lo > hi):
        raise errors.EmptyBox(f"box bound lo > hi at x_{int(np.argmax(lo > hi))}")
    return lo, hi


def _solve_refined(P: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve P W = B with one sweep of iterative refinement.

    B is a vector or a block of right-hand-side columns.  The residual
    B - P W is taken from matcore._dot2's error-free split product, so the
    correction leaves W within about an ulp of the exact solution, in
    plain double on every platform.  The verification compares values
    that agree exactly in exact arithmetic; an ill-conditioned congruence
    (1-RSDC at larger k) would otherwise cost kappa^2 eps of spurious
    deviation.
    """
    B2 = B.reshape(len(B), -1)
    W = np.linalg.solve(P, B2)
    hi, lo = _dot2(P, W)
    return (W + np.linalg.solve(P, (B2 - hi) - lo)).reshape(B.shape)


def _reformulated_values(inst, ref: Reformulation, X: np.ndarray):
    """Reformulated objective and constraint values at the rows of X.

    Each row x is mapped to the reformulation's variables (y, z): y = P1^T x
    and z = P2^T y for eig, and y = z = w with P w = (x, 0), solved by
    _solve_refined, for sdc, rsdc1 and rsdc2.  The objective is then
    y^T D_obj y + 2 c_obj^T y and the constraint z^T D_con z + 2 c_con^T y,
    one (samples, N) block at a time.
    """
    if ref.method == "eig":
        Y = X @ np.asarray(ref.aux["P1"], dtype=float)
        Z = Y @ np.asarray(ref.aux["P2"], dtype=float)
    else:
        pad = np.zeros((ref.dim - inst.n, len(X)))
        Y = Z = _solve_refined(ref.P.P, np.vstack([X.T, pad])).T
    return (np.sum(Y * (ref.quad_obj * Y), axis=1) + 2.0 * (Y @ ref.lin_obj),
            np.sum(Z * (ref.quad_con * Z), axis=1) + 2.0 * (Y @ ref.lin_con))


def verify_reformulation(
    inst: QcqpInstance, ref: Reformulation, samples: int = 100, seed: int = 0,
    box=None,
) -> float:
    """Max deviation between original and reformulated values.

    Points are drawn uniformly in the polytope's bounding box, as one
    (samples, n) block from the seeded generator, and mapped into the
    reformulation's variables respecting its equalities; the congruence
    is solved for all of them at once, in double precision refined by
    one error-free residual sweep, so every platform computes the same
    values.  The returned value is the largest absolute difference of
    objective and constraint values relative to the sampled value scale,
    and NaN when a value is NaN.
    A precomputed (lo, hi) box can be passed to amortize the bound LPs
    across repeated verifications of one instance; it must be finite,
    of length n, with lo <= hi.  A reformulation whose dim does not fit
    the instance's order (n for sdc, n + 1 and n + 2 for rsdc1 and rsdc2,
    2n for eig) raises OrderMismatch, and samples < 1 ValueError; a
    Reformulation whose arrays do not fit its dim cannot be built.
    """
    n = inst.n
    if ref.dim != {"sdc": n, "rsdc1": n + 1, "rsdc2": n + 2, "eig": 2 * n}.get(ref.method):
        raise errors.OrderMismatch(
            f"{ref.method} reformulation of dim {ref.dim} does not fit order {n}")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    lo, hi = _polytope_box(inst.L) if box is None else _sampling_box(box, inst.n)
    X = lo + (hi - lo) * rng.uniform(size=(samples, inst.n))
    # a NaN in either value makes the deviation NaN, never zero
    values = np.array([inst.objective(X), inst.constraint(X)])
    worst = np.max(np.abs(values - np.array(_reformulated_values(inst, ref, X))))
    return float(worst / max(1.0, np.max(np.abs(values))))


def homogenize_check(A_list, b_list, c_list, seed: int = 0) -> tuple[bool, bool]:
    """Homogenization implication data: (premise, conclusion).

    premise: the bordered forms Q_i = [[A_i, b_i], [b_i^T, c_i]]
    together with the corner unit form are SDC.  conclusion: {A_i} is
    SDC.  When the A-span contains a positive definite element, premise
    implies conclusion; the caller asserts the implication.
    """
    mats = form_family(A_list)
    if not (len(mats) == len(b_list) == len(c_list)):
        raise errors.OrderMismatch("A, b, c lists must align")
    n = mats[0].shape[0]
    for i, (b, cc) in enumerate(zip(b_list, c_list)):
        if np.size(b) != n or np.size(cc) != 1:
            raise errors.OrderMismatch(
                f"b_{i} has {np.size(b)} entries and c_{i} {np.size(cc)}, expected {n} and 1")
    for c in islice(span_candidates(len(mats), seed), 64):
        S = sum(ci * Ai for ci, Ai in zip(c, mats))
        vals = np.linalg.eigvalsh(0.5 * (S + S.T))
        floor = RANK_TOL * max(1.0, float(np.max(np.abs(vals))))
        # negative definite works equally well
        if np.min(vals) > floor or np.max(vals) < -floor:
            break
    else:
        raise errors.NoPdElement("no definite element found in the A-span")

    Qs = [np.block([[A, np.reshape(b, (n, 1))], [np.reshape(b, (1, n)), float(cc)]])
          for A, b, cc in zip(mats, b_list, c_list)]
    corner = np.zeros((n + 1, n + 1))
    corner[n, n] = 1.0
    premise = sdc_check(Qs + [corner]).is_sdc
    conclusion = sdc_check(mats).is_sdc
    return premise, conclusion


@dataclass(frozen=True)
class BenchConfig:
    n_values: tuple
    k_values: tuple
    seeds: int
    methods: tuple = METHODS
    m: int = 100
    samples: int = 100


def _bench_cell(n, k, seed, methods, m, samples):
    def blank(meth, gen_ms, error):
        return dict(dict.fromkeys(_BENCH_FIELDS), n=n, k=k, seed=seed, method=meth,
                    gen_ms=gen_ms, error=error)

    t0 = time.perf_counter()
    try:
        inst, kernel = _generate(n, k, m, seed)
    except errors.SdckitError as exc:
        return [blank(meth, None, str(exc)) for meth in methods]
    gen_ms = round(1000.0 * (time.perf_counter() - t0), 3)
    # one bounding box serves every method's verification; its LPs were
    # solved by the generator's boundedness check, and it is certified
    # from that output once some reformulation has succeeded
    box = None
    rows = []
    for meth in methods:
        row = blank(meth, gen_ms, "")
        t1 = time.perf_counter()
        try:
            ref = reformulate(inst, meth)
            row["reform_ms"] = round(1000.0 * (time.perf_counter() - t1), 3)
            if box is None:
                box = _certified_box(inst.L, *kernel)
            row["dim"] = ref.dim
            row["kappa"] = ref.kappa
            row["deviation"] = verify_reformulation(inst, ref, samples, seed, box)
            cert = ref.aux.get("certificate")
            row["eig_residual"] = cert.eig_residual if cert is not None else 0.0
        except errors.SdckitError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def bench(config: BenchConfig) -> dict:
    """Grid run: per-cell generation, reformulation and verification.

    Returns {"rows": [...], "medians": [...], "csv": text}; per-cell
    failures are recorded in their rows and the run continues, but an m
    <= n raises generate_instance's ValueError at the first cell; rows are
    ordered by (n, k, seed, method).  gen_ms includes the box LPs that
    the generator's boundedness check solves; the verification box is
    certified from them, not solved again.
    """
    cells = [
        (n, k, seed, tuple(config.methods), config.m, config.samples)
        for n in config.n_values
        for k in config.k_values
        for seed in range(config.seeds)
    ]
    rows = []
    for cell in cells:
        rows.extend(_bench_cell(*cell))

    medians = []
    for cell in product(config.n_values, config.k_values, config.methods):
        sel = [r for r in rows
               if (r["n"], r["k"], r["method"]) == cell and r["kappa"] is not None]
        if sel:
            medians.append({
                "n": cell[0], "k": cell[1], "method": cell[2], "cells": len(sel),
                "median_kappa": float(np.median([r["kappa"] for r in sel])),
                "median_deviation": float(np.median([r["deviation"] for r in sel])),
            })

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_BENCH_FIELDS)
    writer.writeheader()
    writer.writerows(rows)
    return {"rows": rows, "medians": medians, "csv": buf.getvalue()}
