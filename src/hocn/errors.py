"""Exception types shared across the package."""


class HocnError(Exception):
    """Base class for all package errors."""


class EdgeListParseError(HocnError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class SplitError(HocnError):
    """Edge split cannot be performed (graph too small, bad ratios)."""


class SamplingError(HocnError):
    """Negative sampling exhausted the available non-edges."""


class ScaleError(HocnError):
    """Computation above a size or memory guard, refused before it allocates."""


class ConfigError(HocnError):
    """Invalid configuration value (unknown variant, order out of range, ...)."""


class InputError(HocnError):
    """Shape or dimension mismatch in user-supplied data."""


class MetricError(HocnError):
    """Metric preconditions violated (too few negatives, empty positives)."""


class EvaluationError(HocnError):
    """A score came back non-finite during evaluation."""


class TrainingError(HocnError):
    """Training cannot start (too few positives) or its loss diverged."""


class BoundDomainError(HocnError):
    """A closed-form bound or the Lambert W called outside its stated domain:
    latent delta above 1/2, the normalized latent bound with k below 2,
    ``n_inner`` outside (2, n - 1), or x below -1/e. A vacuous bound is None."""
