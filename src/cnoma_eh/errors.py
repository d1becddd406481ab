"""Exception types shared across the package."""


class CnomaError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CnomaError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InfeasibleChannel(CnomaError):
    """Channel ordering g1 > g2 is violated, so the solver's feasible set is empty."""


class NumericalFailure(CnomaError):
    """A discriminant or similar quantity is negative far beyond roundoff."""


class DivisionDegenerate(CnomaError):
    """A closed-form expression degenerates (zero denominator) for these inputs."""


class NonFiniteSample(CnomaError):
    """An integrand returned a non-finite value."""


class ConfigError(CnomaError):
    """An experiment configuration is malformed or inconsistent."""


class ToleranceNotMet(UserWarning):
    """Quadrature finished without reaching the requested tolerance.

    Issued as a warning: the integrator still returns its best value together
    with the achieved error estimate.
    """
