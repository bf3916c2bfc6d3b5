"""Exception taxonomy shared across the package."""


class AemleError(Exception):
    """Base class for all package errors."""


class DomainError(AemleError):
    """An argument lies outside its mathematical domain."""


class ConfigError(AemleError):
    """A configuration value is invalid or inconsistent."""


class SingularPointError(AemleError):
    """Fisher information is singular at this amplitude (a in {0, 1})."""


class DegenerateTermError(AemleError):
    """A Fisher summand denominator underflowed to zero."""


class DegenerateScheduleError(AemleError):
    """The schedule carries no information about the requested parameter."""


class DegenerateDataError(AemleError):
    """Observed counts pin the estimate to the parameter boundary."""


class NotAchievableError(AemleError):
    """No noise level in the scanned range meets the error target."""
