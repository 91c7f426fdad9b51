"""Certification of lifted models.

A lift derivation is *unchecked* until one of two certificates goes
through, in decreasing order of strength:

``recompile``
    Run the forward engine on the synthesized model and compare the
    emitted Bedrock2 against the lift input, byte for byte (via
    :func:`repro.bedrock2.ast.fingerprint`).  When the original code was
    itself a forward derivation at ``-O0``, the backward walk inverts
    each lemma conclusion exactly and the round trip closes
    syntactically -- the strongest possible witness of ``t ~ s``, and
    the same determinism argument that makes the forward cache sound.

``extensional``
    When the input is optimized or hand-written code the recompile
    cannot be byte-identical (the forward engine derives *one*
    implementation per model, not every implementation).  Fall back to
    the reference interpreter: run the *original* Bedrock2 function and
    the *lifted* model on seeded inputs under the spec's ABI and compare
    every declared observable, reusing
    :func:`repro.validation.differential.differential_check` unchanged
    -- the lifted model simply takes the model seat of the differential
    harness.  The trial schedule forces the boundary cases loop lifts
    can get wrong (empty arrays, length-1 arrays) before random lengths.

Both kinds are recorded as a :class:`LiftCertificate`; failure of both
raises :class:`~repro.lift.goals.LiftValidationFailed` with the first
counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.bedrock2 import ast
from repro.core.spec import CompiledFunction, FnSpec, Model
from repro.lift.engine import LiftResult
from repro.lift.goals import LiftValidationFailed
from repro.obs.trace import current_tracer
from repro.validation.differential import IO_WORDS, MAX_ARRAY_LEN, differential_check
from repro.validation.runners import eval_model, make_inputs

RECOMPILE = "recompile"
EXTENSIONAL = "extensional"

#: ``models_equivalent`` draws its random array lengths from this range.
EQUIVALENCE_MAX_ARRAY_LEN = 32


@dataclass(frozen=True)
class LiftCertificate:
    """Evidence that a lifted model and its source code agree."""

    function: str
    kind: str  # RECOMPILE | EXTENSIONAL
    detail: str = ""
    original_fingerprint: str = ""
    recompiled_fingerprint: str = ""
    trials: int = 0

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "kind": self.kind,
            "detail": self.detail,
            "original_fingerprint": self.original_fingerprint,
            "recompiled_fingerprint": self.recompiled_fingerprint,
            "trials": self.trials,
        }


def satisfies_facts(
    spec: FnSpec, params: Dict[str, object], width: int = 64
) -> bool:
    """Whether an input satisfies the spec's incidental facts (§3.4.2).

    Inputs outside the facts are outside the function's contract --
    utf8's windowed reads, ip's carry-fold bound -- so certification
    must not draw them.
    """
    if not spec.facts:
        return True
    from repro.source.evaluator import eval_term

    for fact in spec.facts:
        try:
            if not eval_term(fact, dict(params), width=width):
                return False
        except Exception:
            return False
    return True


def boundary_input_gen(
    model: Model,
    spec: Optional[FnSpec] = None,
    *,
    width: int = 64,
) -> Callable[[random.Random], Dict[str, object]]:
    """An input generator that schedules the loop-boundary lengths first.

    Trial 0 uses empty arrays, trial 1 length-1 arrays, then random
    lengths -- the cases that distinguish an off-by-one or first-
    iteration-peeled loop lift from the true model.  Inputs that violate
    the spec's incidental facts are redrawn (boundary lengths that no
    fact-respecting input has are skipped).
    """
    counter = {"n": 0}

    def draw(rng: random.Random, array_len: int) -> Optional[Dict[str, object]]:
        for _ in range(32):
            params = make_inputs(model, rng, array_len=array_len)
            if spec is None or satisfies_facts(spec, params, width=width):
                return params
        return None

    def gen(rng: random.Random) -> Dict[str, object]:
        trial = counter["n"]
        counter["n"] += 1
        if trial == 0:
            params = draw(rng, 0)
            if params is not None:
                return params
        elif trial == 1:
            params = draw(rng, 1)
            if params is not None:
                return params
        for _ in range(64):
            params = draw(rng, rng.randrange(MAX_ARRAY_LEN))
            if params is not None:
                return params
        # no fact-respecting input found; fall back unfiltered
        return make_inputs(model, rng, array_len=rng.randrange(MAX_ARRAY_LEN))

    return gen


def recompile_certificate(result: LiftResult) -> Optional[LiftCertificate]:
    """Try the syntactic round trip; ``None`` when it is not closed."""
    from repro.stdlib import default_engine

    assert result.model is not None
    try:
        recompiled = default_engine().compile_function(result.model, result.spec)
    except Exception:
        return None
    before = ast.fingerprint(result.fn)
    after = ast.fingerprint(recompiled.bedrock_fn)
    if before != after:
        return None
    return LiftCertificate(
        function=result.fn.name,
        kind=RECOMPILE,
        detail="forward derivation of the lifted model is byte-identical",
        original_fingerprint=before,
        recompiled_fingerprint=after,
    )


def extensional_certificate(
    result: LiftResult,
    *,
    trials: int = 24,
    rng: Optional[random.Random] = None,
    input_gen=None,
    width: int = 64,
) -> LiftCertificate:
    """Differential-check the lift input against the lifted model.

    Raises :class:`LiftValidationFailed` on the first divergence.
    """
    assert result.model is not None
    harness = CompiledFunction(
        bedrock_fn=result.fn,
        certificate=None,
        spec=result.spec,
        model=result.model,
    )
    if input_gen is None:
        input_gen = boundary_input_gen(result.model, result.spec, width=width)
    report = differential_check(
        harness, trials=trials, rng=rng, input_gen=input_gen, width=width
    )
    if not report.ok:
        failure = report.failures[0]
        raise LiftValidationFailed(
            result.fn.name,
            f"extensional check diverged ({failure.kind}): {failure.detail}",
            counterexample=dict(failure.inputs),
        )
    return LiftCertificate(
        function=result.fn.name,
        kind=EXTENSIONAL,
        detail=f"agrees with the lifted model on {report.trials} seeded inputs",
        original_fingerprint=ast.fingerprint(result.fn),
        trials=report.trials,
    )


def certify(
    result: LiftResult,
    *,
    trials: int = 24,
    rng: Optional[random.Random] = None,
    input_gen=None,
    width: int = 64,
) -> LiftCertificate:
    """Produce the strongest certificate available for a lift result."""
    tracer = current_tracer()
    cert = recompile_certificate(result)
    if cert is not None:
        if tracer.enabled:
            tracer.inc("lift.certify.recompile")
        return cert
    cert = extensional_certificate(
        result, trials=trials, rng=rng, input_gen=input_gen, width=width
    )
    if tracer.enabled:
        tracer.inc("lift.certify.extensional")
    return cert


def models_equivalent(
    lifted: Model,
    original: Model,
    spec: FnSpec,
    *,
    trials: int = 16,
    rng: Optional[random.Random] = None,
    width: int = 64,
) -> Optional[str]:
    """Extensional comparison of two models under one spec.

    This is the ``--lift-validate`` cross-check: the optimizer's output
    is lifted back to a model and compared against the model the code
    was originally derived from.  Returns ``None`` on agreement or a
    human-readable divergence description.  The schedule again leads
    with the boundary lengths (empty, singleton) that per-pass
    differential checks with generic generators tend to miss.
    """
    rng = rng or random.Random(0x11F7)
    for trial in range(trials):
        if trial == 0:
            array_len = 0
        elif trial == 1:
            array_len = 1
        else:
            array_len = rng.randrange(EQUIVALENCE_MAX_ARRAY_LEN)
        params = None
        for _ in range(32):
            candidate = make_inputs(original, rng, array_len=array_len)
            if satisfies_facts(spec, candidate, width=width):
                params = candidate
                break
        if params is None:
            continue  # no fact-respecting input at this length
        io_input = [rng.getrandbits(32) for _ in range(IO_WORDS)]
        results = []
        for model in (original, lifted):
            try:
                results.append(
                    eval_model(
                        model,
                        spec,
                        {k: _copy_value(v) for k, v in params.items()},
                        width=width,
                        io_input=list(io_input),
                    )
                )
            except Exception as exc:
                results.append(exc)
        ref, lif = results
        if isinstance(ref, Exception) and isinstance(lif, Exception):
            continue  # both reject this input; the domains agree
        if isinstance(ref, Exception) != isinstance(lif, Exception):
            which = "lifted" if isinstance(lif, Exception) else "original"
            err = lif if isinstance(lif, Exception) else ref
            return (
                f"only the {which} model faults on {params!r}: {err}"
            )
        if ref.error != lif.error:
            return f"error flags diverge on {params!r}: {ref.error} vs {lif.error}"
        if ref.outputs != lif.outputs:
            return (
                f"outputs diverge on {params!r}: "
                f"{ref.outputs!r} vs {lif.outputs!r}"
            )
        if ref.io_output != lif.io_output or ref.writer_output != lif.writer_output:
            return f"I/O traces diverge on {params!r}"
    return None


def _copy_value(value):
    from repro.source.evaluator import CellV

    if isinstance(value, list):
        return list(value)
    if isinstance(value, CellV):
        return CellV(value.value)
    return value
