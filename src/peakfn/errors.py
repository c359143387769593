"""Exception types shared across the package."""


class PeakFnError(Exception):
    """Base class for package errors."""


class InvalidHypothesisError(PeakFnError, ValueError):
    """A hypothesis constant is outside its admissible open range."""


class InvalidParameterError(PeakFnError, ValueError):
    """A derived-parameter request is structurally impossible (e.g. M <= 1)."""


class InfeasibleParametersError(PeakFnError):
    """No admissible derived constant exists; carries the best margin seen."""

    def __init__(self, message: str, best_margin: float | None = None):
        super().__init__(message)
        self.best_margin = best_margin


class FamilyAuditError(PeakFnError):
    """A barrier family violated one of its claimed conditions."""


class BuildRefusedError(PeakFnError):
    """Series construction refused: a certificate failed."""


class DomainError(PeakFnError, ValueError):
    """A point or radius lies outside the domain model's admissible range."""


class ConfigError(PeakFnError, ValueError):
    """Malformed or out-of-range configuration input."""
