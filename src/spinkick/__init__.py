"""spinkick: exact qubit channels from trains of instantaneous couplings to
a Gaussian bosonic environment, with divisibility analysis and a truncated
Fock-space oracle."""

from .analysis import (
    DivisibilityReport,
    FixedPointResult,
    chi_eigenvalues_two_kick,
    dephasing_divisibility,
    divisibility_report,
    entanglement_entropy,
    entropy,
    fixed_point,
    is_cp,
    post_kick_purity,
    purity,
    trace_distance,
    two_kick_divisibility,
)
from .channels import (
    QubitMap,
    TwoKickParams,
    build_n_kick_channel,
    compose,
    dephasing_channel,
    dephasing_gamma,
    identity_channel,
    invert_channel,
    load_channel,
    phase_damping_channel,
    save_channel,
    single_kick_channel,
    transition_map,
    two_kick_closed_form,
    two_kick_params,
    two_kick_transition_map,
)
from .environment import (
    GaussianEnvironment,
    SingleModeThermal,
    TabulatedKernel,
    WhiteKickKernel,
    commutator_C,
    gaussian_char,
    gram_matrix,
)
from .errors import (
    ConfigError,
    InvalidMap,
    LengthMismatch,
    NonCommutingSchedule,
    NonContractive,
    NonEvenEnvironment,
    NonHermitian,
    NonPureInput,
    NonUnitTrace,
    NonUnitVector,
    ParallelAxes,
    SingularChannel,
    SpinKickError,
    StepTooCoarse,
    TimeNotInTable,
    TooManyKicks,
    TruncationNotConverged,
)
from .kicks import InteractionGeometry, KickSchedule, is_commuting_schedule, r_of_t
from .oracle import (
    FockSpec,
    channel_distance,
    coupling_spectrum,
    fock_spec_for,
    kick_unitary,
    nascent_delta_channel,
    oracle_channel,
    quadrature_heisenberg,
    rotated_spectrum,
)
from .pauli import (
    PAULI_BASIS,
    AffineBlochMap,
    OperatorBasis,
    apply_affine,
    bloch_to_density,
    density_to_bloch,
    is_physical_bloch,
    max_image_norm,
    projector,
)

__version__ = "0.1.0"
