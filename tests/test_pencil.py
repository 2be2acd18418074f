import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sdckit import _pencil, errors
from sdckit._pencil import certify_residuals, noncommuting_pair, norm2_exceeds, norm2_upper
from sdckit.matcore import commutator


def svd_only(X, bound, *mats):
    """The test norm2_exceeds decides, with SVD 2-norms only."""
    val = np.linalg.norm(X, 2)
    cap = bound(*(M if isinstance(M, float) else np.linalg.norm(M, 2) for M in mats))
    return (val, cap) if val > cap else None


def count_norm2(monkeypatch):
    calls = []
    norm = np.linalg.norm

    def counting(x, *args, **kwargs):
        if args[:1] == (2,) or kwargs.get("ord") == 2:
            calls.append(1)
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    return calls


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)),
    scales=st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
    rank_one=st.booleans(),
    known=st.booleans(),
    where=st.sampled_from(["below", "above", "gap"]),
    t=st.floats(0.0, 1.0),
)
def test_decides_as_the_svd_test(seed, shape, scales, rank_one, known, where, t):
    # bounds just below and above |R|_2, and between |R|_2 and |R|_F,
    # where only the SVD can decide
    rng = np.random.default_rng(seed)
    m, p, q = shape
    R = np.outer(rng.standard_normal(m), rng.standard_normal(p)) if rank_one \
        else rng.standard_normal((m, p))
    R *= 10.0 ** scales[0]
    M = rng.standard_normal((q, q)) * 10.0 ** scales[1]
    s = np.linalg.svd(R, compute_uv=False)
    fro = s[0] * math.sqrt(float(np.sum((s / s[0]) ** 2)))
    target = {"below": s[0] * (1 - 1e-9), "above": s[0] * (1 + 1e-9),
              "gap": s[0] + t * (fro - s[0])}[where]
    c = target / max(1.0, np.linalg.norm(M, 2))
    arg = float(np.linalg.norm(M, 2)) if known else M

    def bound(a):
        return c * max(1.0, a)

    # the bound sits where it was placed unless c under- or overflowed
    assume(abs(bound(np.linalg.norm(M, 2)) - target) <= 1e-12 * target)
    got, want = norm2_exceeds(R, bound, arg), svd_only(R, bound, arg)
    assert got == want
    if got is not None:
        assert [x.hex() for x in map(float, got)] == [x.hex() for x in map(float, want)]


def test_bounds_at_the_edges():
    assert norm2_upper(np.zeros((3, 3))) == 0.0
    # squares that underflow or overflow, and NaN, leave the test to the SVD
    for X in (np.full((2, 2), 1e-300), np.full((2, 2), 1e300), np.array([[np.nan]])):
        assert math.isnan(norm2_upper(X))
    assert _pencil._norm2_lower(np.full((2, 2), 1e-300)) == 0.0
    assert _pencil._norm2_lower(np.full((2, 2), 1e300)) is None
    # a NaN member raises as the SVD test does, not passes on max(1, nan)
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        norm2_exceeds(np.zeros((2, 2)), lambda a: max(1.0, a), bad)


def test_gap_residual_passes_through_the_svd(monkeypatch):
    # the residual c P of a pair swap has |.|_2 = c and |.|_F = 2c: just
    # under the bound coef, the Frobenius test cannot pass it, the SVD does
    c = 1e-9
    P = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    M = np.diag([0.1, 0.2, 0.3, 0.4]) + c * P
    I = np.eye(4)
    calls = count_norm2(monkeypatch)
    (D,) = certify_residuals(I, I, [M], [None], c * (1 + 1e-9), 1.0, "gap")
    assert np.array_equal(D, M)
    assert len(calls) == 2  # the residual's and the member's SVD
    with pytest.raises(errors.CertificationFailed) as info:
        certify_residuals(I, I, [M], [None], c * (1 - 1e-9), 1.0, "gap")
    bound = c * (1 - 1e-9) * 1.0**2 * max(1.0, np.linalg.norm(M, 2)) * 1.0
    assert str(info.value) == (
        f"gap residual {np.linalg.norm(c * P, 2):.3e} for member 0 exceeds {bound:.3e}"
    )


def test_failing_values_are_the_svd_ones(rng):
    A = rng.standard_normal((5, 5))
    B = rng.standard_normal((5, 5))
    i, j, val = noncommuting_pair([A + A.T, B + B.T])
    want = np.linalg.norm(commutator(A + A.T, B + B.T), 2)
    assert (i, j) == (0, 1) and type(val) is type(want) and val.hex() == want.hex()
    D = 1e-3 * (B + B.T)
    with pytest.raises(errors.CertificationFailed) as info:
        certify_residuals(np.eye(5), np.eye(5), [D], [np.zeros((5, 5))], 1e-8, 2.0, "test")
    bound = 1e-8 * 2.0**2 * max(1.0, np.linalg.norm(D, 2)) * 1.0
    assert str(info.value) == (
        f"test residual {np.linalg.norm(D, 2):.3e} for member 0 exceeds {bound:.3e}"
    )
