"""The lift fault campaign: drift that only ``--lift-validate`` catches.

The 8-point campaign in :mod:`repro.resilience.faults` establishes that
the per-artifact checkers catch *structural* lies.  This campaign
targets the blind spot the lift-based cross-check exists for: an
optimizer pass that changes semantics only on inputs the per-pass
differential sampler never draws, while keeping the dataflow lint
perfectly happy.

The seeded fault is **first-iteration loop peeling**::

    while (c) { b }   -->   b; while (c) { b }

The peeled program is identical whenever the loop runs at least once
and wrong exactly when it runs zero times (an empty input executes the
body once anyway: out-of-bounds reads, spurious accumulator updates).
So:

- the per-pass differential check *accepts* it under any input
  generator that never draws the empty case (modeled here with a
  4..48-length generator -- precisely the kind of "reasonable" sampler
  a generic harness uses);
- ``repro lint`` *accepts* it (every local the peeled body reads is
  initialized; no dead stores, no footprint violation);
- ``--lift-validate`` *catches* it: the lifter re-synthesizes a model
  from the peeled code, and the model cross-check leads with the empty
  input, where the lifted model faults (or disagrees) and the original
  model does not.

The campaign passes when at least one target shows the full gap and no
target gets a *false* "validated" certificate on drifted code.  A lift
stall on the drifted shape is recorded separately: the drift would ship,
but under a visible "cross-check skipped" certificate, which is a
weaker guarantee -- not a silent lie.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.bedrock2 import ast as b2
from repro.resilience.campaign import (
    CRASH,
    HARMLESS,
    SILENT,
    CampaignReport,
    Lost,
    Outcome,
    Vocabulary,
    ordered_map,
)
from repro.resilience.faults import rebuild_stmt

# Row outcomes beyond the shared ones.  HARMLESS: the target has no loop
# to peel; SILENT: lift-validate *validated* drifted code (a false cert).
GAP_SHOWN = "gap-shown"  # weak checks accept, lift-validate rejects
NOT_MISSED = "not-missed"  # a weak check caught it (no gap on this target)
STALLED = "stalled"  # lift stalled on the drifted code: check visibly skipped

POINT = "lift-loop-peel"
VOCABULARY = Vocabulary(
    (GAP_SHOWN, HARMLESS, NOT_MISSED, STALLED, SILENT, CRASH),
    frozenset({GAP_SHOWN, NOT_MISSED}), frozenset({SILENT, CRASH}),
    required=frozenset({GAP_SHOWN}),
)


class _PeelFirstIteration:
    """The model-drifting pass: unconditionally peel every loop once."""

    name = "peel_first_iteration"

    def run(self, fn: b2.Function, width: int) -> b2.Function:
        def peel(stmt: b2.Stmt) -> b2.Stmt:
            if isinstance(stmt, b2.SWhile):
                return b2.SSeq(stmt.body, stmt)
            return stmt

        # rebuild_stmt never re-visits a transform's output, so each
        # loop is peeled exactly once.
        return b2.Function(fn.name, fn.args, fn.rets, rebuild_stmt(fn.body, peel))


def _nonempty_input_gen(prog):
    """A per-pass sampler that never draws the boundary (length < 4)."""

    def gen(rng: random.Random) -> Dict[str, object]:
        return {"s": list(prog.gen_input(rng, 4 + rng.randrange(44)))}

    return gen


def _inject_peel(prog, rng: random.Random, width: int) -> Tuple[str, str]:
    """Peel ``prog``'s loops under a weak validator: ``(outcome, detail)``."""
    from repro.analysis.dataflow import lint_function
    from repro.analysis.diagnostics import gating
    from repro.opt.manager import PassManager
    from repro.validation.passcheck import (
        _lift_validate_certificate,
        pass_validator,
    )

    clean = prog.compile()
    weak_gen = _nonempty_input_gen(prog)
    validator = pass_validator(
        clean,
        trials=8,
        rng=random.Random(rng.getrandbits(32)),
        input_gen=weak_gen,
        width=width,
    )
    manager = PassManager([_PeelFirstIteration()], width=width, validator=validator)
    fn, certificates = manager.run(clean.bedrock_fn)
    cert = certificates[0]
    if b2.fingerprint(fn) == b2.fingerprint(clean.bedrock_fn):
        if cert.status == "rejected":
            return NOT_MISSED, f"per-pass check caught it: {cert.detail}"
        return HARMLESS, "no loop to peel"

    # The weak per-pass check adopted drifted code.  Does lint mind?
    lint_gating = gating(lint_function(fn, clean.spec))
    if lint_gating:
        return NOT_MISSED, f"lint caught it: {lint_gating[0].code}"

    # Only the lift cross-check is left standing.
    lift_cert, reverted = _lift_validate_certificate(clean, fn, width=width)
    if lift_cert.status == "rejected":
        if b2.fingerprint(reverted) != b2.fingerprint(clean.bedrock_fn):
            return CRASH, "rejected but did not revert the AST"
        return GAP_SHOWN, f"lift-validate rejected: {lift_cert.detail[:90]}"
    if lift_cert.status == "no-change":
        # The lifter stalled on the drifted shape.  The drift would ship,
        # but with a visible "cross-check skipped" certificate -- unlike a
        # false "validated" certificate, the operator can see the gap.
        return STALLED, lift_cert.detail[:90]
    return SILENT, f"lift-validate returned {lift_cert.status!r} on drifted code"


def _peel_one(name: str, rng_seed: int, width: int) -> Outcome:
    from repro.obs.trace import NULL_SPAN, current_tracer
    from repro.programs.registry import get_program

    tracer = current_tracer()
    span = (
        tracer.span("fault_injection", name=POINT, program=name)
        if tracer.enabled
        else NULL_SPAN
    )
    with span:
        try:
            outcome, detail = _inject_peel(
                get_program(name), random.Random(rng_seed), width
            )
        except Exception as exc:  # noqa: BLE001 - a leaky harness is a finding
            outcome, detail = CRASH, repr(exc)
    return Outcome(POINT, name, outcome, detail)


def run_lift_faults(
    seed: int = 0,
    width: int = 64,
    progress=None,
    targets: Optional[List[str]] = None,
    budget: Optional[int] = None,
    jobs: int = 1,
) -> CampaignReport:
    """Peel-inject every (pointer-taking) registry program; seeded.

    ``budget`` caps the number of targets; ``jobs > 1`` fans them over a
    process pool with an identical resulting report.
    """
    from repro.programs.registry import all_programs

    master = random.Random(seed)
    report = CampaignReport("lift fault campaign", seed, [], VOCABULARY)
    eligible = [
        prog.name
        for prog in all_programs()
        if prog.calling_style in ("hash", "inplace")
    ]
    if targets is not None:
        unknown = set(targets) - set(eligible)
        if unknown:
            raise KeyError(
                f"unknown lift-fault targets: {sorted(unknown)} "
                f"(eligible: {sorted(eligible)})"
            )
    names = [name for name in eligible if targets is None or name in targets]
    names = names[:budget]
    items = [(name, master.getrandbits(64), width) for name in names]
    for index, outcome in enumerate(ordered_map(_peel_one, items, jobs)):
        if isinstance(outcome, Lost):
            outcome = Outcome(POINT, names[index], CRASH, outcome.detail)
        if progress is not None:
            progress(f"peeled {names[index]} ({index + 1}/{len(names)})")
        report.add(outcome)
    return report
