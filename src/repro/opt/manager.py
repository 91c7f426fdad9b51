"""The optimization pass manager and its per-pass certificates.

The manager treats every pass as untrusted, mirroring how the repo
treats the relational compiler itself (README: untrusted search, per-run
witnesses, a small checker).  After each pass it:

1. records a :class:`PassCertificate` — pass name plus fingerprints of
   the AST before and after (``bedrock2.ast.fingerprint``);
2. re-runs the definite-assignment well-formedness check
   (:func:`repro.bedrock2.wellformed.check_function`);
3. hands the candidate to an optional *validator* callback — for
   compiled suite programs this is the spec-driven differential tester
   (see :func:`repro.validation.passcheck.pass_validator`).

A pass that fails any check is **rejected**: its certificate records the
reason and the pipeline continues from the pre-pass AST, so a buggy or
unsound pass degrades optimization, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.bedrock2 import ast
from repro.bedrock2.wellformed import IllFormed, check_function
from repro.obs.trace import NULL_SPAN, current_tracer
from repro.opt.passes import Pass, default_pipeline

# Returns None to accept the candidate, or a human-readable reason to
# reject it.
PassValidator = Callable[[ast.Function, str], Optional[str]]


@dataclass(frozen=True)
class PassCertificate:
    """The witness that one pass application was checked."""

    pass_name: str
    before_hash: str
    after_hash: str
    status: str  # "validated" | "no-change" | "rejected"
    detail: str = ""

    @property
    def accepted(self) -> bool:
        return self.status == "validated"

    def to_dict(self) -> dict:
        return {
            "pass": self.pass_name,
            "before": self.before_hash,
            "after": self.after_hash,
            "status": self.status,
            "detail": self.detail,
        }

    @staticmethod
    def from_dict(data: dict) -> "PassCertificate":
        return PassCertificate(
            pass_name=data["pass"],
            before_hash=data["before"],
            after_hash=data["after"],
            status=data["status"],
            detail=data.get("detail", ""),
        )


@dataclass(frozen=True)
class OptimizationReport:
    """Everything one ``optimize`` call did to one function.

    Frozen, with ``from_dict`` building ``certificates`` as a tuple, so
    the compilation cache can hand one decoded report to every hit."""

    function: str
    level: int
    certificates: Sequence[PassCertificate] = ()
    stmts_before: int = 0
    stmts_after: int = 0

    @property
    def applied(self) -> List[str]:
        return [c.pass_name for c in self.certificates if c.accepted]

    @property
    def rejected(self) -> List[PassCertificate]:
        return [c for c in self.certificates if c.status == "rejected"]

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "level": self.level,
            "stmts_before": self.stmts_before,
            "stmts_after": self.stmts_after,
            "certificates": [c.to_dict() for c in self.certificates],
        }

    @staticmethod
    def from_dict(data: dict) -> "OptimizationReport":
        return OptimizationReport(
            function=data["function"],
            level=data["level"],
            stmts_before=data["stmts_before"],
            stmts_after=data["stmts_after"],
            certificates=tuple(
                PassCertificate.from_dict(c) for c in data["certificates"]
            ),
        )

    def render(self) -> str:
        lines = [
            f"optimize(level={self.level}) on {self.function}: "
            f"{self.stmts_before} -> {self.stmts_after} statements"
        ]
        for cert in self.certificates:
            line = (
                f"  [{cert.status:>9}] {cert.pass_name:<12} "
                f"{cert.before_hash} -> {cert.after_hash}"
            )
            if cert.detail:
                line += f"  ({cert.detail})"
            lines.append(line)
        return "\n".join(lines)


class PassManager:
    """Runs a pass pipeline with per-pass certification and fallback."""

    def __init__(
        self,
        passes: Sequence[Pass],
        width: int = 64,
        validator: Optional[PassValidator] = None,
        lint: bool = True,
    ):
        self.passes = list(passes)
        self.width = width
        self.validator = validator
        # When on, each candidate is also run through the dataflow lint
        # (repro.analysis.dataflow, which folds in the RB3xx range lints
        # from repro.analysis.absint) and rejected if it *introduces* any
        # error-severity diagnostic the pre-pass AST did not have (a
        # stale-stackalloc deref, an escaping pointer, a provably
        # out-of-bounds table index, ...).  Warnings
        # (dead stores, unreachable code) are deliberately not gated
        # per-pass: the pipeline relies on them transiently -- ptrloop
        # orphans induction variables for the final DCE to sweep -- and
        # the end-to-end `repro lint` gate still requires the *final*
        # output to be warning-clean.
        self.lint = lint

    def run(self, fn: ast.Function) -> "tuple[ast.Function, List[PassCertificate]]":
        tracer = current_tracer()
        trace = tracer.enabled
        certificates: List[PassCertificate] = []
        baseline = self._lint_counts(fn) if self.lint else None
        # The hash of ``fn``, carried forward: an accepted candidate's
        # ``after_hash`` is the next pass's ``before_hash``.  Every
        # candidate is still hashed, because ``candidate == fn`` does not
        # imply equal reprs (``ELit(True) == ELit(1)``).
        before_hash = ast.fingerprint(fn)
        for pass_ in self.passes:
            span = tracer.span("opt_pass", name=pass_.name) if trace else NULL_SPAN
            with span:
                try:
                    candidate = pass_.run(fn, self.width)
                except Exception as exc:  # noqa: BLE001 - a crashing pass is rejected
                    certificates.append(
                        PassCertificate(
                            pass_.name,
                            before_hash,
                            before_hash,
                            "rejected",
                            f"pass raised {exc!r}",
                        )
                    )
                    self._trace_cert(tracer, certificates[-1])
                    continue
                after_hash = ast.fingerprint(candidate)
                if candidate == fn:
                    certificates.append(
                        PassCertificate(pass_.name, before_hash, after_hash, "no-change")
                    )
                    self._trace_cert(tracer, certificates[-1])
                    continue
                error = self._check(candidate, pass_.name)
                if error is None and baseline is not None:
                    error, candidate_counts = self._lint_gate(candidate, baseline)
                if error is not None:
                    certificates.append(
                        PassCertificate(
                            pass_.name, before_hash, before_hash, "rejected", error
                        )
                    )
                    self._trace_cert(tracer, certificates[-1])
                    continue  # graceful degradation: keep the pre-pass AST
                certificates.append(
                    PassCertificate(pass_.name, before_hash, after_hash, "validated")
                )
                self._trace_cert(tracer, certificates[-1])
                fn = candidate
                before_hash = after_hash
                if baseline is not None:
                    baseline = candidate_counts
        return fn, certificates

    @staticmethod
    def _lint_counts(fn: ast.Function) -> "dict[str, int]":
        from collections import Counter

        from repro.analysis.dataflow import lint_function

        return dict(Counter(d.code for d in lint_function(fn, errors_only=True)))

    def _lint_gate(
        self, candidate: ast.Function, baseline: "dict[str, int]"
    ) -> "tuple[Optional[str], dict[str, int]]":
        """Reject a candidate that introduces new dataflow diagnostics.

        The comparison is per code against the pre-pass AST, so a
        pipeline run on already-dirty input is not blocked -- only
        regressions are (the property the optimizer fuzz tests assert).
        """
        counts = self._lint_counts(candidate)
        introduced = sorted(
            code for code, n in counts.items() if n > baseline.get(code, 0)
        )
        if introduced:
            tracer = current_tracer()
            if tracer.enabled:
                tracer.inc("analysis.optgate.rejected")
            return (
                "lint: pass introduces dataflow diagnostics "
                + ", ".join(introduced),
                counts,
            )
        return None, counts

    @staticmethod
    def _trace_cert(tracer, cert: PassCertificate) -> None:
        if not tracer.enabled:
            return
        tracer.event(
            "opt_pass",
            **{"pass": cert.pass_name},
            status=cert.status,
            before=cert.before_hash,
            after=cert.after_hash,
            detail=cert.detail,
        )
        tracer.inc(f"opt.pass.{cert.status}")
        tracer.inc("opt.passes")

    def _check(self, candidate: ast.Function, pass_name: str) -> Optional[str]:
        try:
            check_function(candidate)
        except IllFormed as exc:
            return f"ill-formed output: {exc}"
        if self.validator is not None:
            return self.validator(candidate, pass_name)
        return None


def pipeline_for(level: int) -> List[Pass]:
    """The pass list for an ``-O<level>`` flag (0 = none)."""
    if level <= 0:
        return []
    return default_pipeline()


def pipeline_fingerprint(level: int) -> str:
    """A stable hash of the ``-O<level>`` pipeline's ordered pass identities.

    Each :class:`PassCertificate` already fingerprints individual pass
    *applications* (AST hash before/after); this digest fingerprints the
    pipeline itself -- pass names and defining classes, in run order --
    so the compilation cache (:mod:`repro.serve`) can distinguish ``-O0``
    from ``-O1`` output and invalidate entries whenever the pass roster
    changes.
    """
    import hashlib

    digest = hashlib.sha256()
    digest.update(str(level).encode("ascii"))
    for pass_ in pipeline_for(level):
        cls = type(pass_)
        digest.update(
            f"{pass_.name}\x1f{cls.__module__}.{cls.__qualname__}\x1e".encode("utf-8")
        )
    return digest.hexdigest()[:16]


def optimize_function(
    fn: ast.Function,
    level: int = 1,
    width: int = 64,
    validator: Optional[PassValidator] = None,
) -> "tuple[ast.Function, OptimizationReport]":
    """Optimize a bare Bedrock2 function.

    Without a validator this still checks well-formedness per pass; use
    :meth:`repro.core.spec.CompiledFunction.optimize` to get differential
    validation against the functional model as well.
    """
    stmts_before = ast.statement_count(fn.body)
    manager = PassManager(pipeline_for(level), width=width, validator=validator)
    fn, certificates = manager.run(fn)
    report = OptimizationReport(
        function=fn.name,
        level=level,
        certificates=certificates,
        stmts_before=stmts_before,
        stmts_after=ast.statement_count(fn.body),
    )
    return fn, report
