"""Differential testing of compiled code against its functional model.

For each generated input, the compiled Bedrock2 function and the model
are run under the same ABI and compared on every observable the spec
declares: scalar returns, final pointed-to memory, and the I/O trace
(write/tell events in order, read counts).  Nondeterministic programs are
checked in the lift's existential direction: the harness injects random
initial bytes into stack allocations and replays exactly those bytes into
the model's oracle, so agreement means the target's choices are among the
model's allowed behaviours.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.spec import CompiledFunction, OutKind
from repro.obs.trace import current_tracer
from repro.source.evaluator import CellV
from repro.validation.runners import eval_model, make_inputs, run_function

#: Generic inputs draw array lengths from ``range(MAX_ARRAY_LEN)``.
MAX_ARRAY_LEN = 48
#: Words of ``read`` input each trial feeds the target and the model.
IO_WORDS = 8


@dataclass
class DifferentialFailure:
    """One observed divergence between target and model."""

    inputs: Dict[str, object]
    kind: str  # "ret" | "memory" | "trace" | "error"
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail} on inputs {self.inputs!r}"


@dataclass
class ValidationReport:
    """The outcome of a differential-testing campaign."""

    function_name: str
    trials: int = 0
    failures: List[DifferentialFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_on_failure(self) -> "ValidationReport":
        if not self.ok:
            raise AssertionError(
                f"differential validation of {self.function_name!r} failed:\n"
                + "\n".join(str(f) for f in self.failures[:5])
            )
        return self


def differential_check(
    compiled: CompiledFunction,
    trials: int = 50,
    rng: Optional[random.Random] = None,
    input_gen: Optional[Callable[[random.Random], Dict[str, object]]] = None,
    width: int = 64,
) -> ValidationReport:
    """Run the target vs the model on random inputs; collect divergences."""
    rng = rng or random.Random(0x5EED)
    report = ValidationReport(function_name=compiled.name)
    model, spec = compiled.model, compiled.spec

    for _ in range(trials):
        report.trials += 1
        params = (
            input_gen(rng)
            if input_gen is not None
            else make_inputs(model, rng, array_len=rng.randrange(MAX_ARRAY_LEN))
        )
        io_input = [rng.getrandbits(32) for _ in range(IO_WORDS)]

        # Record the bytes injected into stack allocations so the model's
        # nondeterminism oracle can replay them (existential direction).
        injected: List[bytes] = []

        def stack_init(nbytes: int) -> bytes:
            data = bytes(rng.randrange(256) for _ in range(nbytes))
            injected.append(data)
            return data

        try:
            run = run_function(
                compiled.bedrock_fn,
                spec,
                params,
                width=width,
                io_input=iter(io_input),
                stack_init=stack_init,
            )
        except Exception as error:  # noqa: BLE001 - reported, not swallowed
            report.failures.append(
                DifferentialFailure(params, "error", f"target raised {error!r}")
            )
            continue

        replay = list(injected)

        def oracle(tag: str, arg: object):
            if tag == "alloc" and replay:
                return list(replay.pop(0))
            return [0] * int(arg) if tag == "alloc" else 0

        try:
            model_result = eval_model(
                model, spec, params, width=width, io_input=io_input, oracle=oracle
            )
        except Exception as error:  # noqa: BLE001
            report.failures.append(
                DifferentialFailure(params, "error", f"model raised {error!r}")
            )
            continue

        compare_observables(report, params, spec, run, model_result, width)
    tracer = current_tracer()
    if tracer.enabled:
        tracer.event(
            "verdict",
            check="differential",
            ok=report.ok,
            function=compiled.name,
            trials=report.trials,
            failures=len(report.failures),
        )
        tracer.inc("validate.differential.trials", report.trials)
        tracer.inc(
            "validate.differential." + ("ok" if report.ok else "failed")
        )
    return report


def compare_observables(report, params, spec, run, model_result, width: int) -> None:
    """Record in ``report`` every declared observable where ``run`` (a
    :class:`~repro.validation.runners.RunResult` from either backend)
    disagrees with ``model_result``: returns and error flags, output
    buffers and cells, untouched read-only inputs, and the I/O trace."""
    mask = (1 << width) - 1
    ret_index = 0
    for output, model_value in zip(spec.outputs, model_result.outputs):
        if output.kind is OutKind.ERROR_FLAG:
            got = run.rets[ret_index]
            ret_index += 1
            if got != model_value:
                report.failures.append(
                    DifferentialFailure(
                        params,
                        "ret",
                        f"target error flag is {got}, model says {model_value}",
                    )
                )
            continue
        if output.kind is OutKind.SCALAR:
            if getattr(model_result, "error", False):
                # Failed computation: the value output is unspecified by
                # the model; the target defines it as zero.
                ret_index += 1
                continue
            got = run.rets[ret_index]
            ret_index += 1
            want = model_value.value if isinstance(model_value, CellV) else model_value
            if isinstance(want, bool):
                want = int(want)
            if got != int(want) & mask:
                report.failures.append(
                    DifferentialFailure(
                        params, "ret", f"target returned {got}, model says {want}"
                    )
                )
        else:
            got_mem = run.out_memory.get(output.param)
            want_mem = model_value
            if isinstance(want_mem, CellV):
                got_mem = CellV(got_mem.value) if isinstance(got_mem, CellV) else got_mem
            if got_mem != want_mem:
                report.failures.append(
                    DifferentialFailure(
                        params,
                        "memory",
                        f"final memory of {output.param!r} is {got_mem!r}, "
                        f"model says {want_mem!r}",
                    )
                )

    # Read-only inputs: any pointer parameter that is not a declared
    # output must come back byte-identical (the unchanged `array p s`
    # conjunct of the paper's ensures clauses).
    from repro.core.spec import ArgKind

    output_params = {o.param for o in spec.outputs if o.param is not None}
    for arg in spec.args:
        if arg.kind is not ArgKind.POINTER or arg.param in output_params:
            continue
        final = run.out_memory.get(arg.param)
        initial = params.get(arg.param)
        unchanged = final == initial  # lists and CellV compare structurally
        if not unchanged:
            report.failures.append(
                DifferentialFailure(
                    params,
                    "memory",
                    f"read-only input {arg.param!r} was modified: "
                    f"{initial!r} -> {final!r}",
                )
            )

    # Trace comparison: writes and tells must match in order and value;
    # the target must not read more than the model did.
    target_writes = [
        event.args[0] for event in run.trace if event.action in ("write", "tell")
    ]
    model_writes = [v & mask for v in model_result.io_output + model_result.writer_output]
    if target_writes != model_writes:
        report.failures.append(
            DifferentialFailure(
                params,
                "trace",
                f"target wrote {target_writes}, model wrote {model_writes}",
            )
        )
    target_reads = sum(1 for event in run.trace if event.action == "read")
    if target_reads != model_result.reads_consumed:
        report.failures.append(
            DifferentialFailure(
                params,
                "trace",
                f"target performed {target_reads} read(s), model consumed "
                f"{model_result.reads_consumed}",
            )
        )
