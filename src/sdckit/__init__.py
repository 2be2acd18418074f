"""sdckit: simultaneous diagonalization by congruence for real symmetric
matrix families.

Decides and certifies the SDC property, classifies almost-SDC pairs and
nonsingular triples with constructive perturbations, builds restricted-
SDC extensions in one or two extra dimensions, computes obstruction
certificates, and applies the constructions to diagonal reformulations
of two-form QCQPs.
"""

from .asdc import (
    AsdcVerdict,
    PerturbedPair,
    asdc_pair_check,
    asdc_triple_check,
    perturb_blocks,
    perturb_pair,
)
from .canonical import (
    Block,
    BlockSpec,
    PencilForm,
    assemble_blocks,
    assemble_pencil,
    pencil_canonical,
)
from .matcore import (
    Congruence,
    SymMat,
    commutator,
    cond_number,
    numeric_rank,
    special_matrix,
)
from .obstruct import (
    ObstructionReport,
    algebra_dimension,
    builtin_counterexamples,
    commutator_obstruction,
    not_asdc_certificate,
)
from .qcqp import (
    BenchConfig,
    QcqpInstance,
    Reformulation,
    bench,
    check_bounded,
    generate_instance,
    homogenize_check,
    reformulate,
    verify_reformulation,
)
from .rsdc import (
    RsdcCertificate,
    choose_xi,
    rsdc1_construct,
    rsdc2_construct,
)
from .sdc import (
    SdcResult,
    Witness,
    find_max_rank_element,
    sdc_check,
    sdc_check_pd,
    simdiag_commuting,
)
from .toeplitz import (
    ToeplitzPartition,
    is_block_toeplitz,
    jordan_nilpotent,
    pi_map,
)
from .triples import (
    JordanTripleSpec,
    PerturbedTriple,
    perturb_triple_blocks,
    triple_case2,
    triple_case4,
)

__version__ = "0.1.0"

__all__ = [
    "AsdcVerdict",
    "BenchConfig",
    "Block",
    "BlockSpec",
    "Congruence",
    "JordanTripleSpec",
    "ObstructionReport",
    "PencilForm",
    "PerturbedPair",
    "PerturbedTriple",
    "QcqpInstance",
    "Reformulation",
    "RsdcCertificate",
    "SdcResult",
    "SymMat",
    "ToeplitzPartition",
    "Witness",
    "algebra_dimension",
    "asdc_pair_check",
    "asdc_triple_check",
    "assemble_blocks",
    "assemble_pencil",
    "bench",
    "builtin_counterexamples",
    "check_bounded",
    "choose_xi",
    "commutator",
    "commutator_obstruction",
    "cond_number",
    "find_max_rank_element",
    "generate_instance",
    "homogenize_check",
    "is_block_toeplitz",
    "jordan_nilpotent",
    "not_asdc_certificate",
    "numeric_rank",
    "pencil_canonical",
    "perturb_blocks",
    "perturb_pair",
    "perturb_triple_blocks",
    "pi_map",
    "reformulate",
    "rsdc1_construct",
    "rsdc2_construct",
    "sdc_check",
    "sdc_check_pd",
    "simdiag_commuting",
    "special_matrix",
    "triple_case2",
    "triple_case4",
    "verify_reformulation",
    "__version__",
]
