"""Certificate checking: structural replay of a derivation.

A :class:`~repro.core.certificate.Certificate` is the witness the
(untrusted) proof search emits.  The checker validates what can be
validated without a proof kernel:

- every node names a lemma registered in the databases the derivation
  claims to have used (no "phantom" steps);
- the tree is well formed, and non-empty code has at least one lemma
  application behind it (a bare ``derive -> compile_done`` tree for a
  function with statements would mean the code appeared from nowhere);
- the derivation terminates in a ``compile_done`` postcondition check;
- together with :func:`repro.validation.differential.differential_check`,
  which supplies the semantic half.

``first_rejection`` is the one trusted chain (wellformed -> certificate
-> replay -> lint) every consumer of a derivation runs; ``validate``
adds the differential half and is what the test suite and the benchmark
harness call before trusting any compiled function.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, FrozenSet, Iterable, Optional, Set

from repro.bedrock2 import ast
from repro.core.certificate import Certificate, CertNode
from repro.core.lemma import HintDb
from repro.core.spec import CompiledFunction, FnSpec


class CertificateError(Exception):
    """The certificate does not check out."""


_BUILTIN_NODES = {"derive", "compile_done", "terminal"}
_BOOKKEEPING_NODES = ("derive", "compile_done")


def known_lemma_names(databases: Iterable[HintDb]) -> Set[str]:
    names = set(_BUILTIN_NODES)
    for db in databases:
        names.update(db.lemma_names())
    return names


@lru_cache(maxsize=None)
def _standard_lemma_names() -> FrozenSet[str]:
    """The known names of the standard databases, a per-process constant."""
    from repro.stdlib import default_databases

    return frozenset(known_lemma_names(default_databases()))


def check_certificate(
    certificate: Certificate,
    databases: Optional[Iterable[HintDb]] = None,
    statement_count: Optional[int] = None,
) -> None:
    """Structurally validate a derivation tree; raises on problems."""
    if databases is None:
        known = _standard_lemma_names()
    else:
        known = known_lemma_names(databases)

    def walk(node: CertNode) -> None:
        if node.lemma not in known:
            raise CertificateError(
                f"certificate references unknown lemma {node.lemma!r}"
            )
        for child in node.children:
            walk(child)

    walk(certificate.root)

    if certificate.root.lemma != "derive":
        raise CertificateError("certificate root must be a 'derive' node")
    leaves = certificate.lemmas_used()
    if "compile_done" not in leaves:
        raise CertificateError(
            "certificate does not end in a postcondition check (compile_done)"
        )
    # Code needs at least one lemma application behind it; derive and
    # compile_done are bookkeeping.  (Not one node per statement: one
    # lemma application may emit several statements.)
    if statement_count and all(name in _BOOKKEEPING_NODES for name in leaves):
        raise CertificateError(
            f"derivation has {certificate.size()} nodes for "
            f"{statement_count} statements"
        )


def replay_derivation(
    compiled: CompiledFunction,
    databases: Optional[Iterable[HintDb]] = None,
    width: int = 64,
) -> None:
    """Re-run proof search and require the identical witness.

    Relational compilation is deterministic (no backtracking, ordered
    hint databases), so re-deriving the model under the same databases
    must reproduce the exact Bedrock2 AST recorded in the bundle.  A
    mismatch means the bundle's code is not the code its certificate
    describes -- the tampering case the structural checks alone can't
    see.
    """
    from repro.core.engine import Engine

    if databases is None:
        from repro.stdlib import default_databases

        databases = default_databases()
    binding_db, expr_db = databases
    engine = Engine(binding_db, expr_db, width=width)
    fresh = engine.compile_function(compiled.model, compiled.spec)
    if fresh.bedrock_fn != compiled.bedrock_fn:
        raise CertificateError(
            f"replaying the derivation of {compiled.name!r} produced "
            "different code: the bundle's code does not match its "
            "certificate"
        )


@dataclass(frozen=True)
class Rejection:
    """The first trusted check an artifact failed, and why."""

    stage: str  # "wellformed" | "certificate" | "replay" | "lint"
    detail: str
    error: Optional[Exception] = None  # what the check raised (None for lint)

    @property
    def reason(self) -> str:
        return f"{self.stage}: {self.detail}"


def first_rejection(
    fn: ast.Function,
    certificate: Certificate,
    *,
    spec: Optional[FnSpec] = None,
    replay: Optional[CompiledFunction] = None,
    lint: bool = False,
    databases: Optional[Iterable[HintDb]] = None,
    width: int = 64,
    on_pass: Optional[Callable[[str], None]] = None,
) -> Optional[Rejection]:
    """Run the trusted chain over an artifact; the first failure or ``None``.

    The chain is wellformed -> certificate -> replay (when ``replay``
    names the bundle to re-derive) -> lint (when ``lint``; error-severity
    dataflow findings against ``spec``).  Every caller that trusts a
    derivation -- :func:`validate`, the cache's load path, ``repro cache
    verify``, the fuzzer and the fault campaign -- goes through here, so
    they agree on which checks run and how a failure is named.
    ``on_pass(stage)`` is called as each stage passes.  The checkers are
    looked up on their modules at call time.
    """
    from repro.bedrock2 import wellformed
    from repro.core.goals import CompileError

    passed = on_pass or (lambda stage: None)
    try:
        wellformed.check_function(fn)
    except wellformed.IllFormed as exc:
        return Rejection("wellformed", str(exc), exc)
    passed("wellformed")
    try:
        check_certificate(
            certificate,
            databases=databases,
            statement_count=ast.statement_count(fn.body),
        )
    except CertificateError as exc:
        return Rejection("certificate", str(exc), exc)
    passed("certificate")
    if replay is not None:
        try:
            replay_derivation(replay, databases=databases, width=width)
        except (CertificateError, CompileError) as exc:
            return Rejection("replay", type(exc).__name__, exc)
        passed("replay")
    if lint:
        from repro.analysis import dataflow

        found = dataflow.lint_function(fn, spec=spec, errors_only=True)
        if found:
            return Rejection("lint", "; ".join(d.render() for d in found))
        passed("lint")
    return None


def validate(
    compiled: CompiledFunction,
    trials: int = 30,
    rng: Optional[random.Random] = None,
    databases: Optional[Iterable[HintDb]] = None,
    replay: bool = False,
    width: int = 64,
    **kwargs,
):
    """Full validation: certificate structure + differential semantics.

    With ``replay=True``, additionally re-derives the function and
    requires bit-identical output (determinism replay).  A failed check
    raises the exception that check raised.
    """
    from repro.obs.trace import NULL_SPAN, current_tracer
    from repro.validation.differential import differential_check

    tracer = current_tracer()
    trace = tracer.enabled
    span = tracer.span("validate", name=compiled.name) if trace else NULL_SPAN

    def verdict(stage: str) -> None:
        tracer.event("verdict", check=stage, ok=True, function=compiled.name)

    with span:
        rejection = first_rejection(
            compiled.bedrock_fn,
            compiled.certificate,
            replay=compiled if replay else None,
            databases=databases,
            width=width,
            on_pass=verdict if trace else None,
        )
        if rejection is not None:
            raise rejection.error
        return differential_check(
            compiled, trials=trials, rng=rng, width=width, **kwargs
        ).raise_on_failure()
