"""Fuel and wall-clock deadline guards for proof search.

Rupicola's proof search is deterministic and non-backtracking, so it
terminates on every input -- but "terminates" is cold comfort when an
adversarial model is a hundred thousand bindings deep, or when a lemma's
side-condition solving goes quadratic.  A :class:`Budget` bounds both
dimensions:

- **fuel** -- a count of proof-search steps (one unit per compilation
  goal attempted and per side-condition discharge);
- **deadline** -- a wall-clock limit in seconds, measured from the
  budget's creation (or the last :meth:`reset`).

The engine charges the budget at every goal; exhaustion raises the typed
:class:`repro.core.goals.ResourceExhausted`, never a hang, so callers
can catch it and fall back to degraded interpretation
(:mod:`repro.resilience.degrade`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.core.goals import ResourceExhausted


class Budget:
    """A fuel + deadline allowance for one compilation.

    ``fuel=None`` / ``deadline=None`` disable the respective guard.  The
    object is reusable across compilations via :meth:`reset`.
    """

    def __init__(
        self,
        fuel: Optional[int] = None,
        deadline: Optional[float] = None,
        clock=time.monotonic,
    ):
        self.fuel = fuel
        self.deadline = deadline
        self._clock = clock
        self.spent = 0
        self._start = clock()

    def reset(self) -> "Budget":
        self.spent = 0
        self._start = self._clock()
        return self

    @property
    def elapsed(self) -> float:
        return self._clock() - self._start

    def charge(self, units: int = 1, goal: str = "") -> None:
        """Consume ``units`` of fuel; raise ``ResourceExhausted`` when spent.

        The deadline is checked on every charge so a single long-running
        stretch of goals cannot overshoot by more than one step.
        """
        self.spent += units
        if self.fuel is not None and self.spent > self.fuel:
            raise ResourceExhausted("fuel", self.spent, self.fuel, goal)
        if self.deadline is not None:
            elapsed = self.elapsed
            if elapsed > self.deadline:
                raise ResourceExhausted("deadline", elapsed, self.deadline, goal)


def unlimited() -> Budget:
    """A budget that never exhausts (both guards disabled)."""
    return Budget(fuel=None, deadline=None)


@dataclass(frozen=True)
class BudgetSpec:
    """A picklable description of a per-job budget.

    :class:`Budget` itself holds a clock reference and a running start
    time, so it cannot cross a process boundary; the parallel batch
    compiler (:mod:`repro.serve.batch`) ships one ``BudgetSpec`` per job
    to its worker pool, and each worker materializes a fresh
    :class:`Budget` with :meth:`make` -- the deadline clock starts when
    the *job* starts, not when the batch was submitted.
    """

    fuel: Optional[int] = None
    deadline: Optional[float] = None

    def make(self) -> Budget:
        return Budget(fuel=self.fuel, deadline=self.deadline)
