"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration-type failures
(:class:`ConfigError`, :class:`ResolutionError`, :class:`KernelError`) exit
with status 2, runtime failures (:class:`SolverError`, assertion-style
analysis failures) with status 1.
"""


class PfnlError(Exception):
    """Base class for all package errors."""


class ConfigError(PfnlError):
    """Invalid, missing, or out-of-range configuration input."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class KernelError(PfnlError):
    """Kernel profile or family violates a construction requirement."""


class SingularKernelError(KernelError):
    """Pointwise kernel evaluation requested at its singularity."""


class ResolutionError(PfnlError):
    """Kernel width under-resolved (needs eps >= 4h), or a sweep grid under 4 cells."""


class GridMismatchError(PfnlError):
    """Operation received fields living on different grids."""


class SolverError(PfnlError):
    """Linear or Newton solver failed to converge."""


class DegenerateFieldError(PfnlError):
    """Operation undefined on (numerically) constant fields."""


class AnalysisError(PfnlError):
    """A verification suite's assertion failed."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
