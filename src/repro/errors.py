"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Sub-hierarchies mirror the
package layout: AADL modelling errors, ACSR semantic errors, translation
errors and analysis errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# AADL substrate
# ---------------------------------------------------------------------------


class AadlError(ReproError):
    """Base class for errors in the AADL object model."""


class AadlSyntaxError(AadlError):
    """Raised by the textual AADL parser on malformed input."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class AadlNameError(AadlError):
    """Unknown or duplicate declaration name."""


class AadlPropertyError(AadlError):
    """Missing, ill-typed, or out-of-range property association."""


class AadlInstantiationError(AadlError):
    """Raised when a declarative model cannot be instantiated."""


class AadlLegalityError(AadlError):
    """Violation of an AADL legality rule or a translation assumption (paper S4.1)."""


# ---------------------------------------------------------------------------
# ACSR substrate
# ---------------------------------------------------------------------------


class AcsrError(ReproError):
    """Base class for errors in the ACSR process algebra."""


class AcsrSyntaxError(AcsrError):
    """Raised by the textual ACSR parser on malformed input."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class AcsrSemanticsError(AcsrError):
    """Ill-formed term encountered while computing transitions."""


class AcsrDefinitionError(AcsrError):
    """Unknown process name, arity mismatch, or unbounded parameter."""


class AcsrEvaluationError(AcsrError):
    """Expression evaluation failed (unbound parameter, division by zero...)."""


# ---------------------------------------------------------------------------
# Translation and analysis
# ---------------------------------------------------------------------------


class TranslationError(ReproError):
    """AADL model cannot be translated to ACSR."""


class QuantizationError(TranslationError):
    """A time value cannot be represented with the chosen quantum."""


class AnalysisError(ReproError):
    """State-space exploration or verdict computation failed."""


class ExplorationLimitError(AnalysisError):
    """State or transition budget exhausted before the search finished."""

    def __init__(self, message: str, states_explored: int = 0) -> None:
        self.states_explored = states_explored
        super().__init__(message)


class RequestError(AnalysisError):
    """An analysis request no layer implements (unknown field, ill-typed
    value or unsupported combination of layers)."""


class SchedError(ReproError):
    """Errors in the classical schedulability baselines."""


class BatchError(ReproError):
    """Malformed batch job, manifest, or verdict-cache entry."""


class ComposeError(ReproError):
    """Compositional analysis cannot proceed (malformed partition,
    island slice referencing unknown components, ...)."""


class HierError(ReproError):
    """Hierarchical (BDR-interface) analysis cannot proceed (missing
    server parameters, degenerate budget, unsupported protocol...)."""


class ServeError(ReproError):
    """Malformed analysis-service request (missing source, ill-typed
    option, unknown job id...)."""


class BackpressureError(ServeError):
    """The service's bounded job queue is full; the request was
    rejected rather than accepted beyond capacity (HTTP 429)."""
