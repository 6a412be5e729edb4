"""Exception types shared across the package."""


class EmergentAlgebraError(Exception):
    """Base class for all errors raised by this package."""


class InvalidExponentError(EmergentAlgebraError, ValueError):
    """Iteration level k is zero, non-integer, or beyond the supported range."""


class InvalidPointError(EmergentAlgebraError, ValueError):
    """A point has non-finite coordinates or lies outside the carrier set."""


class CarrierConstructionError(EmergentAlgebraError, ValueError):
    """Carrier parameters are inconsistent (bad epsilon, bad structure constants, ...)."""


class UnsupportedCarrierError(EmergentAlgebraError, ValueError):
    """The requested operation is not defined on this carrier."""


class NonConvergenceError(EmergentAlgebraError, RuntimeError):
    """An iterated-operation limit failed to settle within the configured budget.

    Carries the residual trail observed so far in ``trail``.
    """

    def __init__(self, message, trail=()):
        super().__init__(message)
        self.trail = list(trail)


class DistributivityError(EmergentAlgebraError, ValueError):
    """A construction requiring a distributive carrier received a non-distributive one.

    Carries the failing ``AxiomReport`` in ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(Exception):
    """Invalid CLI configuration; surfaces as a diagnostic and exit status 2.

    Deliberately not an :class:`EmergentAlgebraError`: the CLI turns library
    errors into ``ConfigError`` and must not wrap its own errors again.
    """
