"""Lift goals and stall-and-report errors.

The lifter runs the relational judgment ``t ~ s`` in the CoCompiler
direction: given Bedrock2 code ``t``, search for a source model ``s``.
Like the forward engine (§3.1), the backward search never guesses -- it
either recognizes a statement shape through a registered inverse pattern
or stops and reports the exact Bedrock2 fragment it could not invert.

:class:`LiftStallReport` is a :class:`repro.core.goals.StallReport`
with the lift slugs added, so the same tooling (fuzz campaigns, fault
campaigns, the CLI's JSON output) consumes both without a second
parser.  The slug taxonomy is the forward taxonomy plus
``no-inverse-pattern``, the lift-specific stall the auditor's
liftability column predicts (:mod:`repro.analysis.hintdb`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.goals import StallReport


class LiftStallReport(StallReport):
    """A machine-readable lift stall: a ``StallReport`` with the lift slugs.

    ``goal`` renders the Bedrock2 fragment under consideration (the
    backward analogue of the §3.3 judgment: here the *code* is known and
    the model is the unknown); ``head`` names the Bedrock2 node class
    (``"SCall"``, ``"SWhile"``, ...) so stalls can be bucketed against the
    inverse-pattern registry the same way forward stalls bucket against
    ``index_heads``; ``family`` names the lifter component that raised
    (``"lift.engine"``, ...).  The fields, ``to_dict`` and ``to_json``
    are the forward report's.
    """

    # Lift-specific taxonomy slugs, next to the forward ones it shares:
    NO_INVERSE_PATTERN = "no-inverse-pattern"
    LOOP_SHAPE = "unrecognized-loop-shape"
    UNBOUND_LOCAL = "unbound-local"
    MEMORY_SHAPE = "unrecognized-memory-shape"
    VALIDATION_FAILED = "validation-failed"


class LiftError(Exception):
    """Base class of lift failures."""

    @property
    def report(self) -> LiftStallReport:
        return LiftStallReport(reason=LiftStallReport.INTERNAL, goal=str(self))

    def to_json(self, indent: Optional[int] = None) -> str:
        return self.report.to_json(indent=indent)


class LiftStalled(LiftError):
    """No inverse pattern applies to the Bedrock2 fragment.

    The backward analogue of ``CompilationStalled``: stop and show the
    exact code shape that could not be inverted, so a user can register
    an inverse pattern (or conclude the code is outside the liftable
    fragment -- external calls, stack allocation, goto-shaped control).
    """

    def __init__(
        self,
        goal_description: str,
        advice: str = "",
        *,
        reason: str = LiftStallReport.UNSUPPORTED_SHAPE,
        family: str = "",
        databases: Tuple[str, ...] = (),
        nearest_misses: Tuple[str, ...] = (),
        head: str = "",
    ):
        self.goal_description = goal_description
        self.advice = advice
        self.reason = reason
        self.family = family
        self.databases = tuple(databases)
        self.nearest_misses = tuple(nearest_misses)
        self.head = head
        message = "lift stalled on uninvertible code:\n" + goal_description
        if advice:
            message += "\n\nhint: " + advice
        super().__init__(message)

    @property
    def report(self) -> LiftStallReport:
        return LiftStallReport(
            reason=self.reason,
            goal=self.goal_description,
            family=self.family,
            databases=self.databases,
            hint=self.advice,
            nearest_misses=self.nearest_misses,
            head=self.head,
        )


class LiftValidationFailed(LiftError):
    """The lifted model exists but could not be certified.

    Raised by the validation layer when neither certificate kind goes
    through: the recompile is not byte-identical *and* an extensional
    trial found diverging outputs.  Carries the first counterexample so
    ``repro lift validate`` can print it.
    """

    def __init__(self, function: str, detail: str, counterexample: Optional[dict] = None):
        self.function = function
        self.detail = detail
        self.counterexample = counterexample
        message = f"lifted model for {function!r} failed validation: {detail}"
        if counterexample:
            message += f"\n  counterexample: {counterexample}"
        super().__init__(message)

    @property
    def report(self) -> LiftStallReport:
        return LiftStallReport(
            reason=LiftStallReport.VALIDATION_FAILED,
            goal=f"certify lift of {self.function}",
            family="lift.validate",
            hint=self.detail,
        )
