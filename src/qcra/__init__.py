"""Shallow distribution-loading circuits, hardware-aware transpilation, and
credit-risk post-processing on an exact statevector simulator."""

__version__ = "0.1.0"

from .circuits import (
    ConcavityClass,
    build_gci_ideal,
    build_gci_transpiled,
    build_three_qubit_loader,
    build_two_qubit_loader,
    check_symmetry_conditions,
    classify_concavity,
    three_qubit_amplitudes_analytic,
    two_qubit_amplitudes_analytic,
)
from .finmodel import (
    GciModel,
    coded_rotation_angle,
    linearize,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    pd_approx,
    pd_exact,
)
from .noise import ConfusionMatrix, ShotCounts, apply_confusion, sample_shots, spam_statistics
from .riskpipe import LossDistribution, RegisterLayout, cvar, decode_counts, run_gci_pipeline, var
from .simkit import (
    BitOrder,
    Circuit,
    Gate,
    Statevector,
    apply_gate,
    born_probabilities,
    circuit_probabilities,
    circuit_unitary,
    convert_bit_order,
    kernel_backend,
    max_abs_diff_up_to_phase,
    simulate,
)
from .transpiler import (CouplingMap, Edge, TranspileReport, contralto_3q, decompose_cnot, decompose_cry,
                         inject_cz_phase, route, verify_truth_table)
from .variational import (
    AdamState,
    TrainConfig,
    TrainReport,
    adam_step,
    distribution_loss,
    make_target,
    parameter_shift_gradient,
    train_loader,
)
