"""spinkick: exact qubit channels from trains of instantaneous couplings to
a Gaussian bosonic environment, with divisibility analysis and a truncated
Fock-space oracle."""

from .analysis import (
    DivisibilityReport,
    FixedPointResult,
    chi_eigenvalues_two_kick,
    dephasing_divisibility,
    divisibility_report,
    entropy,
    fixed_point,
    is_cp,
    purity,
    trace_distance,
)
from .channels import (
    QubitMap,
    TwoKickParams,
    build_prefix_channels,
    compose,
    dephasing_channel,
    dephasing_gamma,
    format_channel,
    identity_channel,
    invert_channel,
    load_channel,
    phase_damping_channel,
    transition_map,
    two_kick_closed_form,
    two_kick_params,
)
from .environment import (
    GaussianEnvironment,
    SingleModeThermal,
    TabulatedKernel,
    WhiteKickKernel,
    commutator_C,
    gram_matrix,
)
from .errors import (
    ConfigError,
    InvalidMap,
    InvalidTruncation,
    LengthMismatch,
    NonCommutingSchedule,
    NonContractive,
    NonEvenEnvironment,
    NonHermitian,
    NonUnitTrace,
    NonUnitVector,
    ParallelAxes,
    SingularChannel,
    SpinKickError,
    StepTooCoarse,
    TimeNotInTable,
    TooManyKicks,
    TruncationNotConverged,
    UnknownPulseShape,
)
from .kicks import InteractionGeometry, KickSchedule, is_commuting_schedule, r_of_t
from .oracle import (
    FockSpec,
    channel_distance,
    fock_spec_for,
    nascent_delta_channels,
    oracle_channel,
)
from .pauli import (
    PAULI_BASIS,
    OperatorBasis,
    density_to_bloch,
    is_physical_bloch,
    max_image_norm,
)

__version__ = "0.1.0"
