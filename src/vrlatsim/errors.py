"""Exception types shared across the simulator and estimator."""


class VrLatSimError(Exception):
    """Base class for all package-specific errors."""


class ScenarioValidationError(VrLatSimError):
    """A scenario is inconsistent; carries every violation, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid scenario:\n  - " + "\n  - ".join(self.violations))


class UsageError(VrLatSimError):
    """A command line asks for something no command can do, such as a lag
    window below 1 ms; reported before any work."""

    def __init__(self, message):
        super().__init__(f"usage error: {message}")


class SimulationError(VrLatSimError):
    """The simulated timeline cannot be produced (e.g. missing angle history)."""


class DecodeError(VrLatSimError):
    """A captured trace cannot be turned into a code series."""


class EstimationError(VrLatSimError):
    """Cross-correlation cannot produce a meaningful lag."""


class CorrelationUndefinedError(EstimationError):
    """A constant trace has no defined correlation coefficient."""


class AlignmentError(EstimationError):
    """Traces do not overlap long enough after timestamp alignment."""


class DetectionTimeoutError(VrLatSimError):
    """The audio detector never crossed its threshold within the horizon."""


class TraceFormatError(VrLatSimError):
    """A trace or report file violates the on-disk format."""
