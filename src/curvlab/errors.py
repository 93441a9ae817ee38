"""Exception hierarchy shared across the package.

Each CLI-facing failure mode maps onto one of three families:

* bad input (schema, syntax, unknown names)      -> usage errors
* bad numbers (domain violations, singular data) -> numerical errors
* failed checks                                  -> reported, not raised
"""

from __future__ import annotations


class CurvlabError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# usage / input errors


class SchemaError(CurvlabError):
    """A manifold description file is malformed or misses required fields."""


class _SourceLocatedError(CurvlabError):
    """An error that may carry ``offset``, the 0-based character position
    in an expression source it was detected at (``None`` when no position
    applies); the message names the offset when there is one."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset

    def __str__(self) -> str:
        base = super().__str__()
        if self.offset is not None:
            return f"{base} (at offset {self.offset})"
        return base


class ExprError(_SourceLocatedError):
    """Problem with an expression source string."""


class ExprSyntaxError(ExprError):
    """Tokenizer or parser rejected the source."""


class UnknownIdentifierError(ExprError):
    """Identifier is neither a variable ``x<k>`` nor a known function."""


class VariableRangeError(ExprError):
    """Variable index lies outside ``x1..x<dim>``."""


class DimensionError(CurvlabError):
    """Operation requires a dimension the manifold does not have."""


# ---------------------------------------------------------------------------
# numerical errors


class EvaluationDomainError(_SourceLocatedError):
    """A function was evaluated outside its differentiability domain.

    Raised for log/sqrt of non-positive values, division by zero,
    negative-power of zero, sin/cos of a non-finite value, and results
    that leave the float range.  ``offset`` is filled in when the error
    can be tied back to a position in an expression source string.
    """


class DomainError(CurvlabError):
    """A sample point violates a manifold's domain predicate."""


class DegenerateMetricError(CurvlabError):
    """Metric value matrix is not symmetric positive definite at a point."""


class UnsupportedOrderError(CurvlabError):
    """Requested jet order above the supported maximum."""


class DerivativeExhaustedError(CurvlabError):
    """Differentiation was applied to an order-0 jet."""


class FrameConstructionError(CurvlabError):
    """Could not build a requested frame (e.g. J-adapted) at a point."""


class MissingComplexStructureError(CurvlabError):
    """An almost-Hermitian operation was requested on a Riemannian-only spec."""


class HypothesisNotMetError(CurvlabError):
    """An identity check was requested on a manifold outside its hypothesis
    class.  ``missing`` names the class or condition that failed."""

    def __init__(self, message: str, missing: str):
        super().__init__(message)
        self.missing = missing
