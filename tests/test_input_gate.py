"""The one input gate: every public entry point that takes quadratic forms
(or, for simdiag_commuting and algebra_dimension, general square
matrices) checks them through matcore.form_family / square_family, which
also refuses members of order 0.  numeric_rank and cond_number, which
take one general matrix, scan it for a NaN or inf before their SVD
instead, and give an empty matrix rank 0 and condition number 1."""

import numpy as np
import pytest

from sdckit import errors
from sdckit.asdc import asdc_pair_check, asdc_triple_check, perturb_blocks, perturb_pair
from sdckit.canonical import Block, BlockSpec, pencil_canonical
from sdckit.matcore import (
    SymMat,
    cond_number,
    direct_sum,
    f_mat,
    form_family,
    numeric_rank,
    square_family,
)
from sdckit.obstruct import algebra_dimension, commutator_obstruction, not_asdc_certificate
from sdckit.qcqp import homogenize_check
from sdckit.rsdc import rsdc1_construct, rsdc2_construct
from sdckit.sdc import find_max_rank_element, sdc_check, sdc_check_pd, simdiag_commuting
from sdckit.triples import JordanTripleSpec, perturb_triple_blocks, triple_case2, triple_case4

# a nilpotent order-3 descriptor with two block sizes, valid for the
# triple entry points and for triple_case2
SPEC = JordanTripleSpec(((1, 1, 0.0), (1, 2, 0.0)))

# (entry point, call on a list of members, number of members or None for
# any family, whether the members are quadratic forms)
ENTRIES = [
    ("sdc_check", sdc_check, None, True),
    ("sdc_check_pd", lambda fam: sdc_check_pd(fam, np.ones(len(fam))), None, True),
    ("find_max_rank_element", find_max_rank_element, None, True),
    ("not_asdc_certificate", not_asdc_certificate, None, True),
    ("homogenize_check",
     lambda fam: homogenize_check(fam, [0.0] * len(fam), [0.0] * len(fam)), None, True),
    ("simdiag_commuting", simdiag_commuting, None, False),
    ("algebra_dimension", algebra_dimension, None, False),
    ("numeric_rank", lambda fam: numeric_rank(*fam), 1, False),
    ("cond_number", lambda fam: cond_number(*fam), 1, False),
    ("pencil_canonical", lambda fam: pencil_canonical(*fam), 2, True),
    ("asdc_pair_check", lambda fam: asdc_pair_check(*fam), 2, True),
    ("asdc_triple_check", lambda fam: asdc_triple_check(*fam), 3, True),
    ("perturb_pair", lambda fam: perturb_pair(*fam, 0.1), 2, True),
    ("rsdc1_construct", lambda fam: rsdc1_construct(*fam), 2, True),
    ("rsdc2_construct", lambda fam: rsdc2_construct(*fam), 2, True),
    ("commutator_obstruction", lambda fam: commutator_obstruction(*fam), 2, True),
    ("perturb_triple_blocks", lambda fam: perturb_triple_blocks(SPEC, *fam, 0.1), 1, True),
    ("triple_case2", lambda fam: triple_case2(SPEC, *fam, 0.1), 1, True),
    ("triple_case4", lambda fam: triple_case4(1, 3, *fam, 0.1), 1, True),
]

GOOD = [np.eye(3), np.diag([1.0, 2.0, 3.0]), f_mat(3)]


def _with_entry(value):
    m = np.eye(3)
    m[0, 2] = m[2, 0] = value
    return m


# (bad input, family of the given size or None, expected error, whether
# it applies to general matrices too)
BAD = [
    ("nan", lambda k: GOOD[: (k or 2) - 1] + [_with_entry(np.nan)],
     errors.NonFiniteEntry, True),
    ("inf", lambda k: GOOD[: (k or 2) - 1] + [_with_entry(np.inf)],
     errors.NonFiniteEntry, True),
    ("asymmetric",
     lambda k: GOOD[: (k or 2) - 1] + [direct_sum([[1.0, 2.0], [0.0, 1.0]], [[1.0]])],
     errors.AsymmetricMatrix, False),
    ("empty", lambda k: [] if k is None else None, errors.EmptyFamily, True),
    ("mixed-orders", lambda k: GOOD[: (k or 2) - 1] + [np.eye(2)] if k != 1 else None,
     errors.OrderMismatch, True),
    ("order-0", lambda k: [np.zeros((0, 0))] * (k or 2), errors.OrderMismatch, True),
]

# the entry points that skip the gate, which take general and rectangular
# matrices
UNGATED = {"numeric_rank", "cond_number"}

CASES = [
    pytest.param(call, fam, error, id=f"{name}-{bad}")
    for name, call, arity, forms in ENTRIES
    for bad, make, error, general in BAD
    if (forms or general) and (fam := make(arity)) is not None
    and not (bad == "order-0" and name in UNGATED)
]


@pytest.mark.parametrize("call, fam, error", CASES)
def test_every_entry_point_rejects_bad_input_by_name(call, fam, error):
    with pytest.raises(error):
        call(fam)


# each perturbation entry point on a valid input; an infinite budget
# would fill perturb_blocks' pair with NaN before any certificate
PERTURBATIONS = [
    ("perturb_pair", lambda eps: perturb_pair(f_mat(2), np.diag([1.0, 2.0]), eps)),
    ("perturb_blocks",
     lambda eps: perturb_blocks(BlockSpec((Block(1, 1, lam=0.5), Block(4, 1))), eps)),
    ("perturb_triple_blocks", lambda eps: perturb_triple_blocks(SPEC, np.zeros((3, 3)), eps)),
]


@pytest.mark.parametrize("eps", [0.0, np.nan, np.inf, -np.inf], ids=str)
@pytest.mark.parametrize("call", [c for _, c in PERTURBATIONS], ids=[n for n, _ in PERTURBATIONS])
def test_perturbations_reject_a_budget_that_is_not_positive_and_finite(call, eps):
    with pytest.raises(ValueError, match="^epsilon must be positive and finite$"):
        call(eps)


def test_order_0_descriptor_symmat_and_ungated_calls():
    empty = np.zeros((0, 0))
    with pytest.raises(errors.OrderMismatch, match="^members have order 0$"):
        perturb_triple_blocks(JordanTripleSpec(()), empty, 0.1)
    with pytest.raises(errors.OrderMismatch, match="^members have order 0$"):
        SymMat(empty)
    assert numeric_rank(empty) == 0 and cond_number(empty) == 1.0


def test_gate_returns_the_members_unchanged():
    a = np.array([[1.0, 2.0 + 1e-14], [2.0, 3.0]])
    s = SymMat(np.eye(2))
    out = form_family([a, s, [[0.0, 1.0], [1.0, 0.0]]])
    assert out[0] is a and out[1] is s.a
    assert np.array_equal(out[2], f_mat(2))
    # neither symmetrized nor copied
    assert out[0][0, 1] != out[0][1, 0]


def test_symmat_rejects_non_finite_entries():
    with pytest.raises(errors.NonFiniteEntry):
        SymMat(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(errors.NonFiniteEntry):
        SymMat(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_general_matrix_entry_points_accept_non_symmetric_input():
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert square_family([jordan])[0] is jordan
    assert algebra_dimension([jordan]) == 2
    # the gate passes it; the Jordan block itself is not diagonalizable
    with pytest.raises(errors.NotDiagonalizable):
        simdiag_commuting([jordan])
    upper = np.array([[1.0, 1.0], [0.0, 2.0]])
    V = simdiag_commuting([upper])
    D = np.linalg.solve(V, upper @ V)
    assert np.allclose(D, np.diag(np.diag(D)))
    nan = jordan.copy()
    nan[1, 0] = np.nan
    for call in (algebra_dimension, simdiag_commuting):
        with pytest.raises(errors.NonFiniteEntry):
            call([nan])


def test_rank_and_condition_scan_before_lapack(capfd):
    # LAPACK's scaling step prints "On entry to DLASCL parameter number 4
    # had an illegal value" when it sees an inf
    a = np.eye(3)
    a[0, 2] = a[2, 0] = np.inf
    for call in (numeric_rank, cond_number):
        with pytest.raises(errors.NonFiniteEntry):
            call(a)
    assert capfd.readouterr() == ("", "")
