"""Exception types shared across the workbench."""


class QprocError(Exception):
    """Base class for all workbench errors."""


# -- linear algebra layer ---------------------------------------------------

class InvalidRegister(QprocError):
    """Qubit name collision or malformed register."""


class InvalidArity(QprocError):
    """Operator arity does not fit the register or operand list."""


class InvalidOutcome(QprocError):
    """Measurement outcome index outside [0, 2**r)."""


class UnknownQubit(QprocError):
    """Reference to a qubit name absent from the state."""


class ZeroBranch(QprocError):
    """Normalisation requested on an (effectively) zero-trace matrix."""


class ShapeMismatch(QprocError):
    """Comparison of values over different registers or dimensions."""


# -- calculi ----------------------------------------------------------------

class ParseError(QprocError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class TypeCheckError(QprocError):
    """Base class for the CQP- type system's rejections."""


class SharedQubit(TypeCheckError):
    """Parallel components demand the same qubit."""


class UnknownName(TypeCheckError):
    """Free name without a typing assumption (includes use after send)."""


class ArityMismatch(TypeCheckError):
    """Gate arity differs from the operand list length."""


class DuplicateQubitArg(TypeCheckError):
    """Operand list of a gate or measurement repeats a qubit."""


class NoCloningViolation(QprocError):
    """Non-injective qubit substitution, or Cond1/Cond2 failure."""


class WellFormednessError(NoCloningViolation):
    """qCCS well-formedness rejection; carries the offending path."""

    def __init__(self, condition, path, message):
        self.condition = condition
        self.path = path
        super().__init__(f"{condition} violated at {path}: {message}")


class UnboundQubit(QprocError):
    """qCCS term references a qubit outside the state or its binders."""
