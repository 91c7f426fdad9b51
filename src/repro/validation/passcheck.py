"""Per-pass translation validation for the optimizer.

The optimizer (:mod:`repro.opt`) treats every pass as untrusted.  This
module supplies the semantic half of the per-pass check: a validator
closure that wraps each candidate AST in a clone of the original
:class:`~repro.core.spec.CompiledFunction` and runs the existing
spec-driven differential tester against the functional model.  Because
the model is the same one the original derivation was validated against,
accepting a pass means the optimized code agrees with the unoptimized
code on every observable the spec declares, on every sampled input.

``optimize_compiled`` is the main entry point (also exposed as
``CompiledFunction.optimize``): it runs the ``-O<level>`` pipeline with
this validator attached, so a pass that breaks the program is rejected
and the pipeline falls back to the pre-pass AST.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Dict, Optional, Tuple

from repro.bedrock2 import ast
from repro.core.spec import CompiledFunction
from repro.opt.manager import OptimizationReport, optimize_function
from repro.validation.differential import differential_check

InputGen = Callable[[random.Random], Dict[str, object]]


def pass_validator(
    compiled: CompiledFunction,
    trials: int = 8,
    rng: Optional[random.Random] = None,
    input_gen: Optional[InputGen] = None,
    width: int = 64,
):
    """A :data:`repro.opt.manager.PassValidator` closure for ``compiled``."""
    rng = rng or random.Random(0xC0DE)

    def validator(candidate_fn: ast.Function, pass_name: str) -> Optional[str]:
        candidate = replace(compiled, bedrock_fn=candidate_fn)
        seed = rng.randrange(1 << 30)
        try:
            report = differential_check(
                candidate,
                trials=trials,
                rng=random.Random(seed),
                input_gen=input_gen,
                width=width,
            )
        except Exception as exc:  # noqa: BLE001 - a broken harness is a rejection
            return f"differential harness raised {exc!r}"
        if not report.ok:
            return (
                f"differential check failed "
                f"({len(report.failures)}/{report.trials} trials): "
                f"{report.failures[0]}"
            )
        return None

    return validator


def optimize_compiled(
    compiled: CompiledFunction,
    level: int = 1,
    trials: int = 8,
    rng: Optional[random.Random] = None,
    input_gen: Optional[InputGen] = None,
    width: int = 64,
    lift_validate: bool = False,
) -> Tuple[CompiledFunction, OptimizationReport]:
    """Optimize a compiled function with per-pass differential validation.

    Returns a new :class:`CompiledFunction` (same certificate, spec, and
    model; rewritten ``bedrock_fn``) together with the
    :class:`OptimizationReport` carrying one ``PassCertificate`` per
    pipeline stage.  The report is also attached to the returned bundle
    as ``opt_report``.

    With ``lift_validate=True`` the whole-pipeline output is additionally
    *lifted* back to a functional model (``repro.lift``) and cross-checked
    extensionally against the model the code was derived from.  This is
    an end-to-end check over the composed pipeline, independent of the
    per-pass certificates: a semantics change that every per-pass
    differential sample happens to miss (e.g. one that only shows on
    boundary inputs the generic generators rarely draw) still has to get
    past the lifted model's boundary-first comparison.  A failing
    cross-check rejects the *entire* optimization: the returned bundle
    falls back to the unoptimized AST and the report carries a rejected
    ``lift-validate`` certificate.
    """
    validator = pass_validator(
        compiled, trials=trials, rng=rng, input_gen=input_gen, width=width
    )
    fn, report = optimize_function(compiled.bedrock_fn, level, width, validator)
    if lift_validate:
        cert, fn = _lift_validate_certificate(compiled, fn, width=width)
        report = replace(
            report,
            certificates=[*report.certificates, cert],
            stmts_after=ast.statement_count(fn.body),
        )
    optimized = replace(compiled, bedrock_fn=fn, opt_report=report)
    return optimized, report


def _lift_validate_certificate(compiled, fn, *, width=64):
    """Lift the optimized function and cross-check models.

    Returns ``(certificate, fn)`` where ``fn`` is reverted to the
    original AST when the cross-check finds drift.  A lift *stall* is
    recorded as a ``no-change`` certificate (the check could not run --
    visible, but not a rejection: the per-pass certificates still stand).
    """
    from repro.opt.manager import PassCertificate

    before = ast.fingerprint(compiled.bedrock_fn)
    after = ast.fingerprint(fn)
    try:
        from repro.lift import lift_function, models_equivalent

        result = lift_function(fn, compiled.spec, width=width)
        if not result.ok:
            return (
                PassCertificate(
                    pass_name="lift-validate",
                    before_hash=before,
                    after_hash=after,
                    status="no-change",
                    detail=(
                        "lift stalled "
                        f"({result.stall.reason}): model cross-check skipped"
                    ),
                ),
                fn,
            )
        divergence = models_equivalent(
            result.model, compiled.model, compiled.spec, width=width
        )
    except Exception as exc:  # noqa: BLE001 - a broken check is a rejection
        divergence = f"lift cross-check raised {exc!r}"
    if divergence is not None:
        return (
            PassCertificate(
                pass_name="lift-validate",
                before_hash=before,
                after_hash=before,
                status="rejected",
                detail=f"lifted model diverges from source model: {divergence}",
            ),
            compiled.bedrock_fn,
        )
    return (
        PassCertificate(
            pass_name="lift-validate",
            before_hash=before,
            after_hash=after,
            status="validated",
            detail="lifted model extensionally equal to the source model",
        ),
        fn,
    )
