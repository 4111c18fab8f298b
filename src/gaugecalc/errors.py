"""Exception hierarchy shared across the package."""


class GaugeCalcError(Exception):
    """Base class for all package-specific errors."""


class UsageError(GaugeCalcError, ValueError):
    """An argument is missing, malformed or out of range."""


class DimensionMismatchError(GaugeCalcError):
    pass


class NonFiniteInputError(GaugeCalcError):
    pass


class NotInSetError(GaugeCalcError):
    pass


class SetFormatError(GaugeCalcError):
    """A set document is malformed: a missing key, an unknown
    representation or a value of the wrong type."""


class EmptySublevelError(GaugeCalcError):
    pass


class AsymmetricSetError(GaugeCalcError):
    pass


class UnboundedFunctionError(GaugeCalcError):
    pass


class KernelViolationError(GaugeCalcError):
    """The function varies along a zero-gauge direction, so no gauge-Lipschitz
    constant can exist."""


class NoFeasibleStepError(GaugeCalcError):
    pass


class DegenerateGaugeError(GaugeCalcError):
    """Every span direction has gauge zero; subdifferential extraction is
    meaningless for such a gauge."""


class LpInfeasibleError(GaugeCalcError):
    """The sampled support constraints admit no subgradient."""


class SupportMismatchError(GaugeCalcError):
    """The LP optimum failed to attain the directional derivative in the
    objective direction."""


class NoBracketError(GaugeCalcError):
    pass


class ConditionViolationError(GaugeCalcError):
    """The inner map fails the seminorm domination hypothesis; the witness
    pair is attached."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ExprError(GaugeCalcError):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ExprDomainError(ExprError):
    def __init__(self, message, path):
        super().__init__(f"{message} (in subexpression {path})")
        self.path = path
