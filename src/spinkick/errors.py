"""Exception types raised by the library.

Everything derives from SpinKickError so callers can catch domain failures
with a single except clause; the CLI maps them to documented exit codes.
"""


class SpinKickError(Exception):
    """Base class for all library errors."""


class NonHermitian(SpinKickError):
    """An operator that must be Hermitian is not (within tolerance)."""


class NonUnitTrace(SpinKickError):
    """A density matrix does not have unit trace."""


class NonUnitVector(SpinKickError):
    """A direction vector is not normalized to within tolerance."""


class TimeNotInTable(SpinKickError):
    """A tabulated kernel was queried at a time not on its grid."""


class LengthMismatch(SpinKickError):
    """Paired sequences (times/coefficients, sign vectors) differ in length."""


class TooManyKicks(SpinKickError):
    """Schedule exceeds the kick budget of the exact builders, or their coefficient
    storage (16 * 4^n bytes in the enumeration, ``channels._pass_bytes`` in the
    prefix pass) cannot be allocated."""


class NonEvenEnvironment(SpinKickError):
    """Operation requires an environment with vanishing mean."""


class ParallelAxes(SpinKickError):
    """Coupling axes are (anti)parallel, so the two-kick frame is undefined."""


class NonCommutingSchedule(SpinKickError):
    """Kick axes do not commute, so the dephasing fast path does not apply."""


class SingularChannel(SpinKickError):
    """The affine part of a map is not invertible: its condition number
    max(sigma_max, 1) / sigma_min exceeds ``channels.KAPPA_MAX`` = 1e6."""


class InvalidMap(SpinKickError, ValueError):
    """A constructed map fails its invariants (a finite affine action, and
    a PSD Choi matrix for a channel); or a channel file is malformed or its
    chi section disagrees with its affine action."""


class NonContractive(SpinKickError):
    """Fixed-point equation is inconsistent (spectral radius >= 1, b != 0)."""


class InvalidTruncation(SpinKickError, ValueError):
    """A Fock-space truncation keeps fewer than two levels."""


class UnknownPulseShape(SpinKickError, ValueError):
    """A nascent-delta pulse shape is not one of ``oracle.PULSE_SHAPES``."""


class TruncationNotConverged(SpinKickError):
    """Fock-space truncation could not be grown until the result stabilized."""


class StepTooCoarse(SpinKickError):
    """Nascent-delta width is too large relative to gaps or precession periods."""


class ConfigError(SpinKickError):
    """Run configuration is malformed or contains unknown keys."""
