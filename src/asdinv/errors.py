"""Exception hierarchy shared across the library."""


class AsdinvError(Exception):
    """Base class for all library-specific errors."""


# --- linear algebra kernel ---

class NonSquare(AsdinvError):
    pass


class DimensionMismatch(AsdinvError):
    pass


class ComplexSpectrum(AsdinvError):
    """The spectrum has an imaginary part of at least numlin.EIG_RTOL."""


class Unstable(AsdinvError):
    """A matrix required to be Hurwitz is not."""


class SingularSystem(AsdinvError):
    """The Kronecker-sum Lyapunov system is singular or the solve failed."""


class Uncontrollable(AsdinvError):
    pass


class MultiInput(AsdinvError):
    """Ackermann only covers single-input systems; supply the gain directly."""


# --- design / decomposition ---

class SelectionNotEigenvalue(AsdinvError):
    """A requested eigenvalue is not in the computed spectrum."""


class SingularCB(AsdinvError):
    """C^T B fails asd_design.ctb_invertible; the transfer path is not invertible."""


class LyapunovFailure(AsdinvError):
    pass


class UnknownUncertainty(AsdinvError):
    """The plant does not expose evaluable uncertainty terms."""


# --- runtime ---

class NonFiniteState(AsdinvError):
    """Closed-loop divergence. Carries the blow-up time and partial trace."""

    def __init__(self, message, blowup_time=None, trace=None):
        super().__init__(message)
        self.blowup_time = blowup_time
        self.trace = trace


class EmptyTrace(AsdinvError):
    pass


class SingularInertia(AsdinvError):
    pass


# --- analysis ---

class MissingConstants(AsdinvError):
    pass


# --- cli ---

class ConfigError(AsdinvError):
    """Malformed or inconsistent scenario configuration."""
