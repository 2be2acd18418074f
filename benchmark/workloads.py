"""The four benchmark workloads.

Each workload builds one fixed input list from the workload seed
(`inputs`), runs one operation on one item (`run`), and checks the
operation's output against independent references or required
properties (`check`), returning the worst certificate residual as a
fraction of its pinned bound, or None for an output that carries no
residual (a verdict, a dimension, a rank).  The program only ever
receives the generated inputs.
"""

from __future__ import annotations

import numpy as np

from sdckit import asdc, obstruct, qcqp, rsdc, triples
from sdckit.canonical import Block, BlockSpec, tmat
from sdckit.matcore import direct_sum, f_mat, g_mat
from sdckit.toeplitz import ToeplitzPartition

from checks import (
    DEVIATION_BOUND,
    check_bounded,
    diagonalization_ratio,
    offdiag_ratio,
    reformulation_ratio,
    require,
    spectrum_ratio,
)

GRID = tuple((n, k) for n in (10, 15, 20) for k in (1, 2, 3))
METHODS = ("rsdc1", "rsdc2", "eig")
M_ROWS = 100  # polytope rows of every QCQP instance
SAMPLES = 100  # verification samples per reformulation


def _own_qcqp_checks(inst, refs, rng) -> float:
    """Boundedness by Stiemke's LP and own-point equivalence per method."""
    check_bounded(inst.L)
    return max(reformulation_ratio(inst, ref, rng) for ref in refs)


class QcqpGrid:
    """One `qcqp.bench` call (the `sdckit bench` path) per grid cell.

    `bench` numbers its instances 0..seeds-1, so every cell's instance is
    fixed; the workload seed sets the order the nine cells are walked in
    and the benchmark's own sample points.
    """

    def __init__(self):
        self._checked: set = set()
        self._rng = None  # the benchmark's own sample points

    def inputs(self, seed: int, smoke: bool):
        self._rng = np.random.default_rng(seed)
        if smoke:
            return [(10, 1)]
        order = self._rng.permutation(len(GRID))
        return [GRID[i] for i in order]

    def run(self, cell):
        n, k = cell
        return qcqp.bench(qcqp.BenchConfig((n,), (k,), 1, METHODS, M_ROWS, SAMPLES))

    def check(self, cell, out) -> float:
        n, k = cell
        rows = out["rows"]
        require([r["method"] for r in rows] == list(METHODS), "bench rows are missing")
        worst = 0.0
        for r in rows:
            require(r["error"] == "", f"{cell} {r['method']}: {r['error']}")
            require(r["deviation"] <= DEVIATION_BOUND,
                    f"{cell} {r['method']}: deviation {r['deviation']}")
            worst = max(worst, r["deviation"] / DEVIATION_BOUND)
        if cell not in self._checked:
            self._checked.add(cell)
            inst = qcqp.generate_instance(n, k, M_ROWS, 0)
            refs = [qcqp.reformulate(inst, m) for m in METHODS]
            worst = max(worst, _own_qcqp_checks(inst, refs, self._rng))
        return worst


INSTANCE_SEED = 1  # of every reform-verify instance (qcqp-grid's are seed 0)


class ReformVerify:
    """reformulate + verify_reformulation (box precomputed) per instance.

    Each grid cell has one fixed instance, so whether an operation fails
    cannot depend on the workload seed; the seed sets the order the nine
    instances are walked in, the sample points `verify_reformulation`
    draws, and the benchmark's own sample points.

    rsdc1 is left out on k = 3 instances: on about one seeded (20, 3)
    instance in 170 its reformulation fails verification (see CHANGES.md).
    """

    def __init__(self):
        self._checked: set = set()
        self._rng = None  # the benchmark's own sample points

    def inputs(self, seed: int, smoke: bool):
        self._rng = np.random.default_rng(seed)
        cells = [(10, 2)] if smoke else GRID
        items = []
        for i in self._rng.permutation(len(cells)):
            n, k = cells[i]
            inst = qcqp.generate_instance(n, k, M_ROWS, INSTANCE_SEED)
            methods = METHODS if k < 3 else METHODS[1:]
            sample_seed = int(self._rng.integers(2**31))
            items.append((int(i), inst, qcqp._polytope_box(inst.L), methods, sample_seed))
        return items

    def run(self, item):
        _, inst, box, methods, sample_seed = item
        out = []
        for meth in methods:
            ref = qcqp.reformulate(inst, meth)
            out.append((ref, qcqp.verify_reformulation(inst, ref, SAMPLES, sample_seed,
                                                       box=box)))
        return out

    def check(self, item, out) -> float:
        i, inst = item[:2]
        worst = 0.0
        for ref, dev in out:
            require(dev <= DEVIATION_BOUND, f"instance {i} {ref.method}: deviation {dev}")
            worst = max(worst, dev / DEVIATION_BOUND)
        if i not in self._checked:
            self._checked.add(i)
            worst = max(worst, _own_qcqp_checks(inst, [ref for ref, _ in out], self._rng))
        return worst


RSDC_N = 80
RSDC_K = 3  # complex pairs planted in every order-80 pair
RSDC_PAIRS = 5


def planted_pair(n: int, k: int, rng):
    """(A, B, mus): an orthogonally hidden canonical pair with k complex
    pairs and the n - 2k real pencil eigenvalues mus."""
    r = n - 2 * k
    V, _, _ = np.linalg.svd(rng.standard_normal((n, n)))
    sigma = rng.choice([-1.0, 1.0], size=r)
    mus = rng.standard_normal(r)
    lams = rng.standard_normal(k) + 1j * rng.uniform(0.5, 2.0, k)
    D1 = direct_sum(np.diag(sigma), *[f_mat(2)] * k)
    D2 = direct_sum(np.diag(sigma * mus), *[tmat(lam) for lam in lams])
    A = V.T @ D1 @ V
    B = V.T @ D2 @ V
    return 0.5 * (A + A.T), 0.5 * (B + B.T), mus


class RsdcN80:
    """One restricted-SDC construction on a planted order-80 pair.

    A round runs rsdc1_construct and then rsdc2_construct on each pair.
    One construction, not the two, is an operation, so that a 20-second
    run holds the forty operations its tail percentile needs.
    """

    def inputs(self, seed: int, smoke: bool):
        rng = np.random.default_rng(seed)
        items = []
        for _ in range(1 if smoke else RSDC_PAIRS):
            A, B, mus = planted_pair(RSDC_N, RSDC_K, rng)
            items += [(A, B, mus, 1), (A, B, mus, 2)]
        return items

    def run(self, item):
        A, B, _, order = item
        build = rsdc.rsdc1_construct if order == 1 else rsdc.rsdc2_construct
        return build(A, B)

    def check(self, item, cert) -> float:
        A, B, mus, order = item
        n = A.shape[0]
        At, Bt = cert.A_tilde.a, cert.B_tilde.a
        require(cert.order_added == order and At.shape == (n + order,) * 2,
                "extension has the wrong order")
        require(np.array_equal(At[:n, :n], A) and np.array_equal(Bt[:n, :n], B),
                "top-left restriction is not bitwise the input")
        want = np.concatenate([mus] + [cert.xi] * order)
        placement = spectrum_ratio(At, Bt, want)
        diag = offdiag_ratio(cert.congruence.P, (At, Bt))
        require(diag <= 1.0, f"congruence leaves residual {diag:.3g} x bound")
        return max(placement, diag)


EPS_JORDAN = 1e-3
EPS_BLOCKS = 1e-2
EPS_TRIPLE = 0.5
# The make-up of every round is fixed, so only the seeded entries and
# congruences differ between seeds.  Orders stay at or below 10.
# Only calls that succeeded on every one of 800 seeded draws are kept:
# perturb_pair on singular pairs, Jordan blocks of size 2 and 5 and the
# (2, 2, 3) triple each fail on some draws and are left out (see the
# FOUND lines in CHANGES.md).
SINGULAR_REALS = (1, 3, 5, 7)  # simple real eigenvalues beside the complex pair
COMPLEX_REALS = (1, 4, 8)
JORDAN_SIZES = (3, 4)
BORDER_HOSTS = (Block(4, 1), Block(3, 1))
TRIPLE_SHAPES = (((1, 1, 2), (1, -1, 1)), ((3,), (1,)), ((4,), (1,)), ((5,), (-1,)))
COMMUTATOR_ORDERS = (2, 3, 4, 5)  # large_commutator(n) has order 2n


def _scramble(rng, mats, kappa_max: float = 10.0):
    """Congruence-transform a family by a random Q with cond <= kappa_max."""
    n = mats[0].shape[0]
    u, _, vt = np.linalg.svd(rng.standard_normal((n, n)))
    s = np.exp(rng.uniform(0.0, np.log(kappa_max), n))
    Q = u @ np.diag(s / s.min()) @ vt
    return [0.5 * (Q.T @ M @ Q + (Q.T @ M @ Q).T) for M in mats]


def _complex_pencil(rng, real: int, zeros: int):
    """A pair with one planted complex eigenvalue pair, `real` simple real
    eigenvalues and a `zeros`-dimensional common null space."""
    lam = complex(rng.standard_normal(), rng.uniform(0.5, 2.0))
    sigma = rng.choice([-1.0, 1.0], size=real)
    mu = rng.standard_normal(real)
    z = [np.zeros((zeros, zeros))] if zeros else []
    A = direct_sum(f_mat(2), np.diag(sigma), *z)
    B = direct_sum(tmat(lam), np.diag(sigma * mu), *z)
    return _scramble(rng, [A, B])


def _commutant_symmetric(rng, sizes, sigmas):
    """Symmetric C with A^{-1}C nilpotent in the block-Toeplitz commutant
    of the nilpotent Jordan pencil A = Diag(sigma F)."""
    part = ToeplitzPartition(sizes)
    off = part.offsets()
    A = direct_sum(*[s * f_mat(z) for s, z in zip(sigmas, sizes)])
    T = np.zeros((part.n, part.n))
    for i, ni in enumerate(sizes):
        for j, nj in enumerate(sizes):
            blk = np.zeros((ni, nj))
            # upper-triangular Toeplitz, zero leading coefficient on
            # equal-size blocks so the spectrum is {0}
            for s in range(1 if ni == nj else 0, min(ni, nj)):
                d = max(0, nj - ni) + s
                rows = np.arange(min(ni, nj - d))
                blk[rows, rows + d] = float(rng.standard_normal())
            T[off[i]:off[i + 1], off[j]:off[j + 1]] = blk
    C = A @ T
    return 0.5 * (C + C.T)


class SmallFamilies:
    """One small family (order <= 10) through the calls its kind needs."""

    def inputs(self, seed: int, smoke: bool):
        rng = np.random.default_rng(seed)
        first = slice(0, 1) if smoke else slice(None)
        counterexamples = obstruct.builtin_counterexamples()
        items = []
        for r in SINGULAR_REALS[first]:
            items.append(("singular-pair", _complex_pencil(rng, r, 1)))
        for r in COMPLEX_REALS[first]:
            items.append(("complex-pair", _complex_pencil(rng, r, 0)))
        for m in JORDAN_SIZES[first]:
            sigma = float(rng.choice([-1.0, 1.0]))
            theta = float(rng.standard_normal())
            items.append(("jordan-pair", _scramble(
                rng, [sigma * f_mat(m), sigma * (theta * f_mat(m) + g_mat(m))])))
        for host in BORDER_HOSTS[first]:
            lam = complex(rng.standard_normal(), rng.uniform(0.5, 2.0))
            items.append(("block-spec", BlockSpec((Block(2, 1, lam=lam), host))))
        for sizes, sigmas in TRIPLE_SHAPES[first]:
            spec = triples.JordanTripleSpec(tuple((s, z, 0.0) for s, z in zip(sigmas, sizes)))
            items.append(("triple", (spec, _commutant_symmetric(rng, sizes, sigmas))))
        items.append(("seven-tuple", [m.a for m in counterexamples["seven_tuple"]["matrices"]]))
        for n in COMMUTATOR_ORDERS[first]:
            fam = counterexamples["large_commutator"]["build"](n)
            items.append(("large-commutator", (n, [m.a for m in fam])))
        return items

    def run(self, item):
        kind, data = item
        if kind == "jordan-pair":
            return asdc.asdc_pair_check(*data), asdc.perturb_pair(*data, EPS_JORDAN)
        if kind in ("singular-pair", "complex-pair"):
            return asdc.asdc_pair_check(*data)
        if kind == "block-spec":
            return asdc.perturb_blocks(data, EPS_BLOCKS)
        if kind == "triple":
            return triples.perturb_triple_blocks(data[0], data[1], EPS_TRIPLE)
        if kind == "seven-tuple":
            return obstruct.not_asdc_certificate(data)
        return obstruct.not_asdc_certificate(data[1])

    def check(self, item, out) -> float:
        kind, data = item
        if kind == "jordan-pair":
            verdict, pp = out
            require(verdict.status == "ASDC_not_SDC", f"{kind} classified {verdict.status}")
            return self._perturbed(kind, pp, EPS_JORDAN, (pp.A_tilde.a, pp.B_tilde.a))
        if kind == "singular-pair":
            require(out.status == "ASDC_not_SDC", f"singular pair classified {out.status}")
            return None
        if kind == "complex-pair":
            require(out.status == "NotASDC", f"complex pair classified {out.status}")
            return None
        if kind == "block-spec":
            return self._perturbed(kind, out, EPS_BLOCKS, (out.A_tilde.a, out.B_tilde.a))
        if kind == "triple":
            return self._perturbed(kind, out, EPS_TRIPLE,
                                   (out.A_tilde.a, out.B_tilde.a, out.C_tilde.a))
        if kind == "seven-tuple":
            require(out.algebra_dim == 7 and out.algebra_bound_violated,
                    f"seven-tuple algebra dimension {out.algebra_dim}")
            return None
        n = data[0]
        require(out.commutator_rank == 2 * n and out.rsdc_lower_bound == n,
                f"large commutator of order {2 * n} has rank {out.commutator_rank}")
        return None

    @staticmethod
    def _perturbed(kind, out, eps, mats) -> float:
        require(out.distance <= eps * (1 + 1e-9), f"{kind}: distance {out.distance} > {eps}")
        return diagonalization_ratio(mats)


WORKLOADS = {
    "qcqp-grid": QcqpGrid,
    "reform-verify": ReformVerify,
    "rsdc-n80": RsdcN80,
    "small-families": SmallFamilies,
}
