import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdckit.matcore import f_mat
from sdckit.qcqp import generate_instance
from sdckit.toeplitz import ToeplitzPartition, _fill_diagonal


def random_congruence(rng, n, kappa_max=100.0):
    """Invertible matrix with singular values in [1, kappa_max]."""
    M = rng.standard_normal((n, n))
    u, _, vt = np.linalg.svd(M)
    svals = np.exp(rng.uniform(0.0, np.log(kappa_max), n))
    svals = svals / svals.min()
    return u @ np.diag(svals) @ vt


def random_sdc_family(rng, n, m, kappa_max=100.0):
    """Family {P^{-T} D_i P^{-1}} plus the planting congruence."""
    P = random_congruence(rng, n, kappa_max)
    Pi = np.linalg.inv(P)
    fam = []
    for _ in range(m):
        D = np.diag(rng.standard_normal(n))
        A = Pi.T @ D @ Pi
        fam.append(0.5 * (A + A.T))
    return fam, P


def common_null_family(rng, n, m, noise=0.0):
    """m forms Q^T (D_i ⊕ noise z_i) Q, D_i and z_i standard normal and Q
    a random congruence: with noise 0 they share the null vector
    Q^{-1} e_n, else that direction keeps a kernel entry of size about
    noise relative to the others."""
    Q = random_congruence(rng, n, 10.0)
    diags = [rng.standard_normal(n - 1) for _ in range(m)]
    fam = [Q.T @ np.diag([*d, z]) @ Q for d, z in zip(diags, noise * rng.standard_normal(m))]
    return [0.5 * (M + M.T) for M in fam]


def random_commutant_symmetric(sizes, sigmas, rng, nilpotent=True):
    """Symmetric C with A^{-1}C in the commutant of the Jordan pencil.

    With nilpotent=True the equal-size leading coefficients are zeroed
    so the commutant member has an all-zero spectrum.
    """
    part = ToeplitzPartition(sizes)
    off = part.offsets()
    n = part.n
    A = np.zeros((n, n))
    pos = 0
    for s, z in zip(sigmas, sizes):
        A[pos : pos + z, pos : pos + z] = s * f_mat(z)
        pos += z
    T = np.zeros((n, n))
    for i in range(part.k):
        for j in range(part.k):
            ni, nj = part.sizes[i], part.sizes[j]
            blk = np.zeros((ni, nj))
            start = 1 if (nilpotent and ni == nj) else 0
            for s in range(start, min(ni, nj)):
                _fill_diagonal(blk, max(0, nj - ni) + s, float(rng.standard_normal()))
            T[off[i] : off[i + 1], off[j] : off[j + 1]] = blk
    C = A @ T
    return 0.5 * (C + C.T)


def cross_polytope(n):
    """{x : |x|_1 <= 1}: 2^n rows, and 2^(n-1) of them through each vertex."""
    return np.array(list(itertools.product((1.0, -1.0), repeat=n)))


def _duplicated_rows(L):
    return np.vstack([L, L[:30], L[:5]])


_CUBE = np.vstack([np.eye(5), -np.eye(5)])
# The cross-polytopes and the rows that touch the cube only at its
# vertices put more than n rows through a vertex, so the simplex takes
# zero-length steps there and switches to Bland's rule; duplicated rows
# tie in the ratio test.  Every bound is +-1 but on the random polytope.
DEGENERATE_POLYTOPES = {
    "cross-6": lambda: cross_polytope(6),
    "cross-8": lambda: cross_polytope(8),
    "duplicated-rows": lambda: _duplicated_rows(np.vstack([_CUBE, _CUBE])),
    "duplicated-random-rows": lambda: _duplicated_rows(generate_instance(10, 1, 100, 0).L),
    "rows-through-vertices": lambda: np.vstack(
        [_CUBE, np.array(list(itertools.product((1.0, -1.0), repeat=5))) / 5.0]),
}


def fresh_python(code: str) -> str:
    """The standard output of code run in a fresh interpreter that imports
    sdckit from the tree under test."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    return out.stdout


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
