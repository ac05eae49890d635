"""Exception hierarchy: one class per way a command ends (see cli._run_one).
Bad arguments raise ValueError; simulate's byte budget raises ConfigError."""


class AsdinvError(Exception):
    """Base class for all library-specific errors."""


class DesignError(AsdinvError):
    """The paper's design preconditions fail: (A0, B) controllable,
    A = A0 + B K^T Hurwitz with a real spectrum, C^T B invertible, or a
    numerical residual check of the design."""


class NonFiniteState(AsdinvError):
    """Closed-loop divergence. Carries the blow-up time and partial trace."""

    def __init__(self, message, blowup_time, trace):
        super().__init__(message)
        self.blowup_time = blowup_time
        self.trace = trace


class MissingConstants(AsdinvError):
    """The bound command cannot run (exit 5): no assumption constants given, or an input delay."""


class ConfigError(AsdinvError):
    """Malformed or inconsistent scenario configuration."""
