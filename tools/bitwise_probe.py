"""Digest sdckit's seeded outputs, to show that a change leaves them
bitwise unchanged.

    python tools/bitwise_probe.py SRC OUT.json [--smoke]

SRC is the `src` directory of the sdckit tree to probe.  OUT.json maps
one key per seeded call to the SHA-256 of everything its result holds
(each array's dtype, shape and bytes, each float's bits, each string),
or to the error class and message when the call raises.  Run the probe
on two trees and diff the two files: every differing line is a changed
output.  --smoke runs a few items of each family.

The families: benchmark `small-families` rounds; the nilpotent triple
sweep over every partition of n = 2..7, three seeded draws that reach
its rarer steps, the single-block corner construction and triples
outside the commutant; singular `perturb_pair` calls on complex and
Jordan pencils; near-commuting triples through sdc_check (in smoke
mode the four whose verdict the off-diagonal certificate decides near
its bound); in full mode only, near-Jordan pairs through sdc_check and
pencil_canonical, and `perturb_pair` on nonsingular Jordan pairs of
sizes 4 and 5, whose norm tests land near their bounds and so reach
the SVD that decides them; sdc_check on zero-padded, orthogonally
scrambled SDC families, which it lifts from their range (seeds 0-29);
`perturb_blocks` on random singular BlockSpecs (generator seeds 0-99
and 300-399);
`generate_instance` with every reformulation and its verification;
the polytope box of the tests' degenerate polytopes (cross-polytopes,
duplicated rows, rows through vertices; in smoke mode the order-6
cross-polytope only) and, in full mode only, of grid polytopes scaled
by 10^e, e in {-6, 3, 5, 6};
order-80 RSDC constructions; numeric_rank / cond_number on non-finite
input; and the span search sdc.pivot on seeded families of 2, 3 and 7
members, singular and not, and on a mis-scaled pair.  Inputs come from the benchmark's and the tests'
generators of this checkout, so two trees see the same inputs.

tools/linetrace.py runs the full probe after tier-1, in one traced
process, to list the statements of src/sdckit that neither runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]


def _feed(h, x) -> None:
    """Hash x's full content, tagged by type so that no two values collide."""
    if isinstance(x, np.ndarray):
        h.update(f"nd{x.dtype.str}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (bool, np.bool_, type(None), str)):
        h.update(f"{type(x).__name__}:{x!r}".encode())
    elif isinstance(x, (int, np.integer)):
        h.update(f"int:{int(x)}".encode())
    elif isinstance(x, (float, np.floating)):
        h.update(f"float:{float(x).hex()}".encode())
    elif isinstance(x, (complex, np.complexfloating)):
        h.update(f"complex:{x.real.hex()},{x.imag.hex()}".encode())
    elif isinstance(x, dict):
        h.update(b"{")
        for k in sorted(x, key=str):
            _feed(h, k)
            _feed(h, x[k])
        h.update(b"}")
    elif isinstance(x, (list, tuple)):
        h.update(f"{type(x).__name__}(".encode())
        for y in x:
            _feed(h, y)
        h.update(b")")
    else:
        # dataclasses and slotted or plain objects: their public state;
        # a private attribute is a cache, such as Congruence's inverse
        if dataclasses.is_dataclass(x):
            names = [f.name for f in dataclasses.fields(x)]
        elif hasattr(x, "__dict__"):
            names = sorted(vars(x))
        else:
            names = list(getattr(type(x), "__slots__", ()))
        if not names:
            raise TypeError(f"cannot digest a {type(x).__name__}")
        h.update(f"{type(x).__name__}<".encode())
        for name in names:
            if not name.startswith("_"):
                _feed(h, name)
                _feed(h, getattr(x, name))
        h.update(b">")


def _outcome(call) -> str:
    """The digest of call()'s result, or its error class and message."""
    try:
        result = call()
    except Exception as exc:  # a raised error is an output like any other
        return f"{type(exc).__name__}: {exc}"
    h = hashlib.sha256()
    _feed(h, result)
    return h.hexdigest()


def _partitions(n: int, most: int | None = None):
    """The partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def _families(smoke: bool):
    """(key, call) for every probed output."""
    from conftest import DEGENERATE_POLYTOPES, random_commutant_symmetric, random_sdc_family
    from workloads import SmallFamilies, _complex_pencil, _scramble, planted_pair

    from sdckit import asdc, matcore, qcqp, rsdc, sdc, triples
    from sdckit.canonical import Block, BlockSpec, pencil_canonical

    small = SmallFamilies()
    for seed in range(1 if smoke else 40):
        for i, item in enumerate(small.inputs(seed, smoke)):
            yield f"small-families/{seed}/{i}/{item[0]}", functools.partial(small.run, item)

    def triple(n, sizes, d, eps):
        rng = np.random.default_rng([n, d, *sizes])
        sigmas = rng.choice([-1, 1], len(sizes))
        C = random_commutant_symmetric(sizes, sigmas, rng)
        spec = triples.JordanTripleSpec(tuple((s, z, 0.0) for s, z in zip(sigmas, sizes)))
        return triples.perturb_triple_blocks(spec, C, eps)

    sweep = [(n, sizes, d, eps) for n in range(2, 4 if smoke else 8)
             for sizes in _partitions(n) for d in range(1 if smoke else 4)
             for eps in (0.5, 0.1)]
    sweep += [(6, (5, 1), 4, 0.01), (9, (7, 1, 1), 5, 0.5), (9, (3, 3, 3), 4, 0.1)]
    for args in sweep:
        yield "triple/{}/{}/{}/{}".format(*args), functools.partial(triple, *args)

    def corner(n, sigma):
        C = random_commutant_symmetric((n,), (sigma,), np.random.default_rng([n, sigma + 1]))
        return triples.triple_case4(sigma, n, C, 0.05)

    for n in range(3, 5 if smoke else 9):
        for sigma in (1, -1):
            yield f"triple-case4/{n}/{sigma}", functools.partial(corner, n, sigma)

    def off_commutant(seed):
        # a symmetric C outside the commutant, which the input check refuses
        C = np.random.default_rng([5, seed]).standard_normal((4, 4))
        spec = triples.JordanTripleSpec(((1, 2, 0.0), (1, 2, 0.0)))
        return triples.perturb_triple_blocks(spec, C + C.T, 0.1)

    for seed in range(1 if smoke else 4):
        yield f"triple-refused/{seed}", functools.partial(off_commutant, seed)

    def complex_pair(seed, r):
        return asdc.perturb_pair(*_complex_pencil(np.random.default_rng(seed), r, 1), 1e-3)

    def jordan_pair(seed, m):
        rng = np.random.default_rng([seed, m])
        sigma, theta = rng.choice([-1.0, 1.0]), rng.standard_normal()
        zero = np.zeros((1, 1))
        A = matcore.direct_sum(sigma * matcore.f_mat(m), zero)
        B = matcore.direct_sum(sigma * (theta * matcore.f_mat(m) + matcore.g_mat(m)), zero)
        return asdc.perturb_pair(*_scramble(rng, [A, B]), 1e-3)

    for seed in range(1 if smoke else 15):
        for r in (1, 3, 5, 7):
            yield f"singular-complex/{seed}/{r}", functools.partial(complex_pair, seed, r)
        for m in (2, 3, 4, 5):
            yield f"singular-jordan/{seed}/{m}", functools.partial(jordan_pair, seed, m)

    def near_jordan(m, e, seed, call):
        # (sigma F, sigma (theta F + G + 10^-e H)): the pencil is theta I + N
        # + 10^-e N^T, whose real eigenvalues, 2 10^(-e/2) cos(k pi / (m + 1))
        # from theta, are so nearly defective that their norm tests land
        # near the bounds: the scalar-cluster test at m = 2, e = 16 and the
        # complex-pair Gram test, once eig reads them as complex, at m = 4
        rng = np.random.default_rng([m, e, seed])
        sigma, theta = rng.choice([-1.0, 1.0]), rng.standard_normal()
        A = sigma * matcore.f_mat(m)
        B = sigma * (theta * matcore.f_mat(m) + matcore.g_mat(m) + 10.0**-e * matcore.h_mat(m))
        pair = _scramble(rng, [A, B])
        return sdc.sdc_check(pair, seed) if call == "sdc" else pencil_canonical(*pair)

    def nonsingular_jordan(seed, m):
        rng = np.random.default_rng([seed, m, 7])
        sigma, theta = rng.choice([-1.0, 1.0]), rng.standard_normal()
        pair = _scramble(rng, list(matcore.jordan_pair([(sigma, m, theta)])))
        return asdc.perturb_pair(*pair, 1e-3)

    def near_commuting(k, seed):
        # {I, D1, D2 + eta E}: E couples the two coordinates where D1's
        # eigenvalues are 1e-3 apart, so the commutator, 1e-3 eta, passes
        # the commutation test while eta = 10^(-k/4) puts the returned
        # congruence's residual near the off-diagonal certificate's bound
        rng = np.random.default_rng([seed, 11])
        E = np.zeros((4, 4))
        E[0, 1] = E[1, 0] = 10.0 ** (-k / 4)
        family = [np.eye(4), np.diag([1.0, 1.001, 2.0, -1.5]), np.diag(rng.standard_normal(4)) + E]
        return sdc.sdc_check(_scramble(rng, family), seed)

    # three refusals (not-diagonalizable) and one certified congruence
    near = [(20, 1), (22, 2), (24, 0), (24, 4)] if smoke else [
        (k, seed) for k in range(18, 29, 2) for seed in range(6)]
    for k, seed in near:
        yield f"near-commuting/{k}/{seed}", functools.partial(near_commuting, k, seed)
    if not smoke:
        for m in (2, 3, 4, 5):
            for e in (4, 8, 10, 12, 16):
                for seed in range(3):
                    for call in ("sdc", "canonical"):
                        yield (f"near-jordan/{m}/{e}/{seed}/{call}",
                               functools.partial(near_jordan, m, e, seed, call))
        for seed in range(15):
            for m in (4, 5):
                yield f"jordan-pair/{seed}/{m}", functools.partial(nonsingular_jordan, seed, m)

    def singular_sdc(seed):
        # an SDC family of order n, zero-padded by z and scrambled by an
        # orthogonal Q: sdc_check decides it on its range and lifts the
        # congruence back
        rng = np.random.default_rng([seed, 28])
        n, m, z = 2 + seed % 5, 2 + seed % 2, 1 + seed % 3
        family, _ = random_sdc_family(rng, n, m)
        Q, _ = np.linalg.qr(rng.standard_normal((n + z, n + z)))
        padded = [Q.T @ matcore.direct_sum(A, np.zeros((z, z))) @ Q for A in family]
        return sdc.sdc_check([0.5 * (M + M.T) for M in padded], seed)

    for seed in range(3 if smoke else 30):
        yield f"singular-sdc/{seed}", functools.partial(singular_sdc, seed)

    def block_spec(seed, eps):
        # one or two type 1 or 2 blocks of size 1 or 2, then a type 3 or
        # 4 host of size 1 or 2
        rng = np.random.default_rng([17, seed])
        blocks = []
        for _ in range(int(rng.integers(1, 3))):
            size = int(rng.integers(1, 3))
            if rng.random() < 0.5:
                sigma = int(rng.choice([-1, 1]))
                blocks.append(Block(1, size, sigma=sigma, lam=complex(rng.standard_normal())))
            else:
                lam = complex(rng.standard_normal(), rng.uniform(0.5, 2.0))
                blocks.append(Block(2, size, lam=lam))
        blocks.append(Block(int(rng.choice([3, 4])), int(rng.integers(1, 3))))
        return asdc.perturb_blocks(BlockSpec(tuple(blocks)), eps)

    # seed 2 fails at every retry, so the smoke run also digests an error;
    # seeds 300-399 hold the certificates of the ("random", 3) border and
    # of the combined coupling shape, which 0-99 never use
    for seed in range(3) if smoke else [*range(100), *range(300, 400)]:
        for eps in (1e-2, 1e-3):
            yield f"blocks/{seed}/{eps}", functools.partial(block_spec, seed, eps)

    @functools.cache
    def instance(n, k, seed):
        return qcqp.generate_instance(n, k, 100, seed)

    @functools.cache
    def box(n, k, seed):
        return qcqp._polytope_box(instance(n, k, seed).L)

    @functools.cache
    def reformulation(cell, method):
        return qcqp.reformulate(instance(*cell), method)

    def verification(cell, method):
        ref = reformulation(cell, method)
        return qcqp.verify_reformulation(instance(*cell), ref, 20, cell[2], box=box(*cell))

    grid = [(10, 1)] if smoke else [(n, k) for n in (10, 15, 20) for k in (1, 2, 3)]
    for n, k in grid:
        for seed in range(1 if smoke else 3):
            cell = (n, k, seed)
            yield "qcqp/{}/{}/{}".format(*cell), functools.partial(instance, *cell)
            yield "qcqp/{}/{}/{}/box".format(*cell), functools.partial(box, *cell)
            for method in qcqp.METHODS:
                key = "qcqp/{}/{}/{}/{}".format(*cell, method)
                yield key, functools.partial(reformulation, cell, method)
                yield key + "/verify", functools.partial(verification, cell, method)

    def degenerate_box(name):
        return qcqp._polytope_box(DEGENERATE_POLYTOPES[name]())

    def scaled_box(n, k, seed, e):
        return qcqp._polytope_box(instance(n, k, seed).L * 10.0**e)

    for name in ["cross-6"] if smoke else sorted(DEGENERATE_POLYTOPES):
        yield f"box/{name}", functools.partial(degenerate_box, name)
    if not smoke:
        for n, k in ((10, 1), (15, 2), (20, 3)):
            for seed in range(5):
                for e in (-6, 3, 5, 6):
                    yield (f"box/scaled/{n}/{k}/{seed}/{e}",
                           functools.partial(scaled_box, n, k, seed, e))

    def rsdc_n80(seed, order):
        A, B, _ = planted_pair(80, 3, np.random.default_rng(seed))
        return (rsdc.rsdc1_construct if order == 1 else rsdc.rsdc2_construct)(A, B)

    for seed in range(1 if smoke else 4):
        for order in (1, 2):
            yield f"rsdc-n80/{seed}/{order}", functools.partial(rsdc_n80, seed, order)

    def non_finite(shape, where, value):
        a = np.eye(*shape)
        for ij in where:
            a[ij] = value
        return a

    bad = [((3, 3), ((0, 2), (2, 0)), np.inf), ((3, 3), ((1, 1),), np.nan),
           ((2, 3), ((0, 0),), -np.inf), ((1, 1), ((0, 0),), np.nan)]
    for shape, where, value in bad:
        a = non_finite(shape, where, value)
        key = f"non-finite/{shape}/{where}/{value}"
        yield key + "/numeric_rank", functools.partial(matcore.numeric_rank, a)
        if shape[0] == shape[1]:
            yield key + "/cond_number", functools.partial(matcore.cond_number, a)

    def span_family(kind, m, seed):
        # "singular": a common null vector, so the whole random tail is
        # ranked; "rank-one": full rank only once m >= n, and then only in
        # the tail; "general": the first member is full rank
        rng = np.random.default_rng([m, seed])
        n = (2, 3, 5, 8, 10, 20, 40)[seed % 7]
        if kind == "singular":
            Q = rng.standard_normal((n, n))
            fam = [Q.T @ np.diag([*rng.standard_normal(n - 1), 0.0]) @ Q for _ in range(m)]
        elif kind == "rank-one":
            fam = [rng.standard_normal() * np.outer(q, q) for q in rng.standard_normal((m, n))]
        else:
            fam = list(rng.standard_normal((m, n, n)))
        return sdc.pivot([0.5 * (M + M.T) for M in fam], seed)

    for kind in ("singular", "rank-one", "general"):
        for m in (2, 3, 7):
            for seed in range(1 if smoke else 21):
                yield f"pivot/{kind}/{m}/{seed}", functools.partial(span_family, kind, m, seed)
    mis_scaled = [np.diag([1.0, 1.0, 0.0]), 1e-11 * np.eye(3)]
    yield "pivot/mis-scaled", functools.partial(sdc.pivot, mis_scaled)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", type=Path, help="the src directory of the tree to probe")
    ap.add_argument("out", type=Path, help="where to write the digests")
    ap.add_argument("--smoke", action="store_true", help="a few items per family")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(REPO / "benchmark"), str(REPO / "tests")]
    import sdckit

    if Path(sdckit.__file__).resolve().parents[1] != args.src.resolve():
        raise SystemExit(f"sdckit was imported from {sdckit.__file__}, not from {args.src}")
    digests = {key: _outcome(call) for key, call in _families(args.smoke)}
    args.out.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    raised = sum(":" in v for v in digests.values())
    print(f"{len(digests)} outputs ({raised} raised) written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
