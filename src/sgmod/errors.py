"""Exception types shared across the package."""


class AlgebraError(Exception):
    """Base class for all structured errors raised by this package."""


class AxiomError(AlgebraError):
    """A table fails one of its defining axioms; the message names the first failing triple."""


class SizeCapError(AlgebraError):
    """A ring or module would have more than SIZE_CAP elements."""


class StructureMismatchError(AlgebraError):
    """Operands live over different rings, modules or monoids."""


class ZeroModuleError(AlgebraError):
    """Analysis was applied to the zero module; the statements assume a nonzero module."""


class HypothesisError(AlgebraError):
    """The monoid fails the cancellative / torsion-free hypotheses the operation needs."""


class PreconditionError(AlgebraError):
    """Operation-specific precondition violated by the supplied arguments."""


class InvariantViolation(AlgebraError):
    """A replayed internal guarantee failed; this signals an implementation bug."""


class SessionError(AlgebraError):
    """Session file cannot be parsed, validated or resolved."""

    def __init__(self, message, *, line=None, column=None, obj=None):
        self.line = line
        self.column = column
        self.obj = obj
        where = ""
        if obj is not None:
            where = f" [{obj}]"
        if line is not None:
            where += f" (line {line}, column {column})"
        super().__init__(f"{message}{where}")
