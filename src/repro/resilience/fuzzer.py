"""The pipeline fuzzer: random models through every trusted checkpoint.

For each generated :class:`~repro.resilience.generator.FuzzCase` the
campaign drives the *entire* pipeline and asserts agreement at every
stage:

1. **compile** -- proof search under a fuel/deadline
   :class:`~repro.resilience.budget.Budget` (a stall or exhaustion is a
   clean, classified rejection, never a crash);
2. **wellformed** -- definite-assignment check on the emitted Bedrock2;
3. **certificate** -- structural check of the derivation witness;
4. **differential** -- compiled code vs the functional model on random
   inputs (scalar returns, final memory, traces);
5. **optimize** -- the ``-O1`` translation-validated pipeline, then a
   second differential check of the optimized code;
6. **riscv** -- the optimized code through the RV64IM backend, executed
   on the simulator and compared against the model once more.

Anything that makes it past compilation but disagrees anywhere later is
a **soundness violation**; an unexpected exception anywhere is a
**crash**.  The acceptance bar is zero of both.  Stalls are fine -- they
are the designed answer to unsupported input -- and are tallied by their
structured taxonomy slug so coverage gaps show up in the report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.goals import CompileError, ResourceExhausted
from repro.resilience.budget import Budget
from repro.resilience.campaign import Lost, ordered_map
from repro.resilience.generator import FuzzCase, generate_case

DEFAULT_FUEL = 200_000
DEFAULT_DEADLINE = 20.0  # seconds per case; generous, but never a hang


@dataclass
class FuzzFinding:
    """One noteworthy event: a soundness violation or a crash."""

    case: str
    family: str
    stage: str
    kind: str  # "soundness" | "crash"
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.case} ({self.family}) at {self.stage}: {self.detail}"


@dataclass
class FuzzReport:
    """The outcome of one fuzzing campaign."""

    seed: int
    budget: int
    cases_run: int = 0
    compiled: int = 0
    stalls: Dict[str, int] = field(default_factory=dict)
    by_family: Dict[str, int] = field(default_factory=dict)
    violations: List[FuzzFinding] = field(default_factory=list)
    crashes: List[FuzzFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.crashes

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "cases_run": self.cases_run,
            "compiled": self.compiled,
            "stalls": dict(self.stalls),
            "by_family": dict(self.by_family),
            "soundness_violations": [str(v) for v in self.violations],
            "crashes": [str(c) for c in self.crashes],
            "ok": self.ok,
        }

    def render(self) -> str:
        lines = [
            f"fuzz campaign: seed={self.seed} cases={self.cases_run} "
            f"compiled={self.compiled} "
            f"violations={len(self.violations)} crashes={len(self.crashes)}"
        ]
        if self.by_family:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(self.by_family.items()))
            lines.append(f"  families: {parts}")
        if self.stalls:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(self.stalls.items()))
            lines.append(f"  stalls: {parts}")
        for finding in self.violations + self.crashes:
            lines.append(f"  {finding}")
        if self.ok:
            lines.append("  result: OK (0 soundness violations, 0 crashes)")
        else:
            lines.append("  result: FAILED")
        return "\n".join(lines)


def _fuzz_one(
    case: FuzzCase,
    case_seed: int,
    report: FuzzReport,
    binding_db,
    expr_db,
    width: int,
    trials: int,
    fuel: int,
    deadline: float,
    riscv_trials: int,
) -> str:
    """Drive one case through the pipeline; returns an outcome slug.

    Slugs: ``ok``, ``stall:<reason>``, ``crash:<stage>``,
    ``violation:<stage>`` -- also recorded as ``fuzz_outcome`` trace
    events by the caller.
    """
    from repro.core.engine import Engine
    from repro.validation.checker import first_rejection
    from repro.validation.differential import (
        ValidationReport,
        compare_observables,
        differential_check,
    )
    from repro.validation.passcheck import optimize_compiled
    from repro.validation.runners import eval_model, run_function_riscv

    # Stage 1: compile under a budget -- never a hang.
    engine = Engine(
        binding_db,
        expr_db,
        width=width,
        budget=Budget(fuel=fuel, deadline=deadline),
    )
    try:
        compiled = engine.compile_function(case.model, case.spec)
    except ResourceExhausted as exc:
        reason = exc.report.reason
        report.stalls[reason] = report.stalls.get(reason, 0) + 1
        return f"stall:{reason}"
    except CompileError as exc:
        reason = exc.report.reason
        report.stalls[reason] = report.stalls.get(reason, 0) + 1
        return f"stall:{reason}"
    except Exception as exc:  # noqa: BLE001 - a compiler crash is a finding
        report.crashes.append(
            FuzzFinding(case.name, case.family, "compile", "crash", repr(exc))
        )
        return "crash:compile"
    report.compiled += 1

    # Stage 2 + 3: trusted structural checks.
    rejection = first_rejection(compiled.bedrock_fn, compiled.certificate)
    if rejection is not None:
        report.violations.append(
            FuzzFinding(
                case.name, case.family, rejection.stage, "soundness", rejection.detail
            )
        )
        return f"violation:{rejection.stage}"

    # Stage 4: differential validation of the raw derivation.
    try:
        diff = differential_check(
            compiled,
            trials=trials,
            rng=random.Random(case_seed ^ 0xD1FF),
            input_gen=case.input_gen,
            width=width,
        )
    except Exception as exc:  # noqa: BLE001
        report.crashes.append(
            FuzzFinding(case.name, case.family, "differential", "crash", repr(exc))
        )
        return "crash:differential"
    if not diff.ok:
        report.violations.append(
            FuzzFinding(
                case.name,
                case.family,
                "differential",
                "soundness",
                str(diff.failures[0]),
            )
        )
        return "violation:differential"

    # Stage 5: the -O1 optimizer, then re-validate the optimized code.
    try:
        optimized, _ = optimize_compiled(
            compiled,
            level=1,
            trials=max(2, trials // 2),
            rng=random.Random(case_seed ^ 0x0B71),
            input_gen=case.input_gen,
            width=width,
        )
        diff_opt = differential_check(
            optimized,
            trials=max(2, trials // 2),
            rng=random.Random(case_seed ^ 0x0B72),
            input_gen=case.input_gen,
            width=width,
        )
    except Exception as exc:  # noqa: BLE001
        report.crashes.append(
            FuzzFinding(case.name, case.family, "optimize", "crash", repr(exc))
        )
        return "crash:optimize"
    if not diff_opt.ok:
        report.violations.append(
            FuzzFinding(
                case.name,
                case.family,
                "optimize",
                "soundness",
                str(diff_opt.failures[0]),
            )
        )
        return "violation:optimize"

    # Stage 6: the RISC-V backend on concrete inputs, held to every
    # observable the spec declares, exactly as the differential stages.
    rv_rng = random.Random(case_seed ^ 0x815C)
    for _ in range(riscv_trials):
        params = case.input_gen(rv_rng)
        try:
            run = run_function_riscv(
                optimized.bedrock_fn, case.spec, params, width=width
            )
            model_result = eval_model(case.model, case.spec, params, width=width)
        except Exception as exc:  # noqa: BLE001
            report.crashes.append(
                FuzzFinding(case.name, case.family, "riscv", "crash", repr(exc))
            )
            return "crash:riscv"
        check = ValidationReport(function_name=case.name)
        compare_observables(check, params, case.spec, run, model_result, width)
        if not check.ok:
            report.violations.append(
                FuzzFinding(
                    case.name, case.family, "riscv", "soundness",
                    str(check.failures[0]),
                )
            )
            return "violation:riscv"
    return "ok"


def _fuzz_case(
    index: int,
    case_seed: int,
    width: int,
    trials: int,
    fuel: int,
    deadline: float,
    riscv_trials: int,
):
    """One case end to end: ``(name, family, outcome slug, local report)``.

    The case is regenerated from ``(case_seed, index)`` -- the draw the
    campaign plan made -- because a
    :class:`~repro.resilience.generator.FuzzCase` holds input-generator
    closures and cannot cross a process boundary itself; what comes
    back carries only its name and family.
    """
    from repro.obs.trace import NULL_SPAN, current_tracer
    from repro.stdlib import default_databases

    tracer = current_tracer()
    binding_db, expr_db = default_databases()
    case = generate_case(random.Random(case_seed), index)
    local = FuzzReport(seed=case_seed, budget=1)
    span = (
        tracer.span("fuzz_case", name=case.name, family=case.family)
        if tracer.enabled
        else NULL_SPAN
    )
    with span:
        outcome = _fuzz_one(
            case, case_seed, local, binding_db, expr_db,
            width, trials, fuel, deadline, riscv_trials,
        )
    return case.name, case.family, outcome, local


def run_fuzz(
    seed: int = 0,
    budget: int = 100,
    width: int = 64,
    trials: int = 6,
    fuel: int = DEFAULT_FUEL,
    deadline: float = DEFAULT_DEADLINE,
    riscv_trials: int = 2,
    progress=None,
    jobs: int = 1,
) -> FuzzReport:
    """Run a seeded fuzzing campaign of ``budget`` cases.

    With a flight recorder installed (:func:`repro.obs.use_tracer`) the
    campaign emits one ``fuzz_case`` span and one ``fuzz_outcome`` event
    per case, with the engine's own spans nested inside -- the
    machine-readable telemetry ``python -m repro fuzz --trace`` writes.

    ``jobs > 1`` fans the cases over a process pool; the report is
    bit-identical to the single-process run because every per-case seed
    is pre-drawn from the master stream, but the engine's spans are only
    recorded in the (default) single-process mode -- golden-trace tests
    keep ``jobs=1``.
    """
    from repro.obs.trace import current_tracer

    tracer = current_tracer()
    master = random.Random(seed)
    report = FuzzReport(seed=seed, budget=budget)
    seeds = [master.getrandbits(64) for _ in range(budget)]
    items = [
        (index, case_seed, width, trials, fuel, deadline, riscv_trials)
        for index, case_seed in enumerate(seeds)
    ]
    for index, result in enumerate(ordered_map(_fuzz_case, items, jobs)):
        if isinstance(result, Lost):
            case = generate_case(random.Random(seeds[index]), index)
            name, family, outcome = case.name, case.family, "crash:worker"
            report.crashes.append(
                FuzzFinding(name, family, "worker", "crash", result.detail)
            )
        else:
            name, family, outcome, local = result
            report.compiled += local.compiled
            for reason, count in local.stalls.items():
                report.stalls[reason] = report.stalls.get(reason, 0) + count
            report.violations.extend(local.violations)
            report.crashes.extend(local.crashes)
        report.cases_run += 1
        report.by_family[family] = report.by_family.get(family, 0) + 1
        if progress is not None and index % 25 == 0:
            progress(f"case {index}/{budget} ({family})")
        if tracer.enabled:
            tracer.event("fuzz_outcome", case=name, family=family, outcome=outcome)
            tracer.inc("fuzz.cases")
            tracer.inc(f"fuzz.outcome.{outcome.split(':', 1)[0]}")
    return report
