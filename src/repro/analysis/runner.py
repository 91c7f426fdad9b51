"""Orchestration for ``repro lint``: run audits and lints, gate on severity.

One :func:`run_lint` call audits hint databases (RA1xx/RA2xx) and lints
compiled registry programs (RB2xx), producing a :class:`LintReport` the
CLI renders as text or JSON and CI gates on.  Findings are mirrored to
the active flight recorder as ``lint_diag`` events and
``analysis.diags.*`` counters, under a ``lint`` span per subject.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic, emit_to_tracer, gating


@dataclass
class LintSubject:
    """One audited object and its findings."""

    kind: str  # "hintdb" | "program"
    name: str  # "bindings", "crc32@-O1", ...
    diagnostics: List[Diagnostic] = field(default_factory=list)
    # With ``--ranges``: the inferred per-variable value ranges at
    # function exit (variable -> pretty-printed Range), sorted by name.
    ranges: Optional[Dict[str, str]] = None

    def to_dict(self) -> dict:
        record = {
            "kind": self.kind,
            "name": self.name,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
        if self.ranges is not None:
            record["ranges"] = dict(self.ranges)
        return record


@dataclass
class LintReport:
    subjects: List[LintSubject] = field(default_factory=list)

    @property
    def diagnostics(self) -> List[Diagnostic]:
        return [d for subject in self.subjects for d in subject.diagnostics]

    @property
    def gating(self) -> List[Diagnostic]:
        return gating(self.diagnostics)

    @property
    def ok(self) -> bool:
        """True when nothing gate-worthy (error/warning) was found."""
        return not self.gating

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "subjects": [s.to_dict() for s in self.subjects],
            "counts": self._counts(),
        }

    def _counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for diag in self.diagnostics:
            counts[diag.code] = counts.get(diag.code, 0) + 1
        return dict(sorted(counts.items()))

    def render(self) -> str:
        lines: List[str] = []
        for subject in self.subjects:
            verdict = "clean" if not gating(subject.diagnostics) else "FINDINGS"
            lines.append(f"{subject.kind} {subject.name}: {verdict}")
            for diag in subject.diagnostics:
                lines.append(f"  {diag.render()}")
            if subject.ranges:
                for var, rng in subject.ranges.items():
                    lines.append(f"  range {var} in {rng}")
        total = self._counts()
        summary = ", ".join(f"{code}x{n}" for code, n in total.items()) or "none"
        lines.append(f"diagnostics: {summary}")
        lines.append("lint: " + ("ok" if self.ok else "FAILED"))
        return "\n".join(lines)


def run_lint(
    db_names: Optional[Sequence[str]] = None,
    program_names: Optional[Sequence[str]] = None,
    opt_levels: Sequence[int] = (0, 1),
    ranges: bool = False,
) -> LintReport:
    """Audit hint databases and lint compiled programs.

    With no arguments this is the full CI gate: both standard databases
    plus every registry program at each requested optimization level.
    ``db_names`` / ``program_names`` restrict the scope (an explicit
    empty sequence skips that half entirely).  ``ranges=True`` attaches
    the abstract interpreter's exit-point value ranges to each program
    subject (the CLI ``--ranges`` detail flag).
    """
    from repro.obs.trace import current_tracer

    tracer = current_tracer()
    report = LintReport()

    for db, kind in _selected_databases(db_names):
        from repro.analysis.hintdb import audit_hintdb

        with tracer.span("lint", name=f"hintdb:{db.name}"):
            diags = audit_hintdb(db, kind)
            emit_to_tracer(diags, "hintdb")
        report.subjects.append(LintSubject("hintdb", db.name, diags))

    for program in _selected_programs(program_names):
        for level in opt_levels:
            from repro.analysis.dataflow import lint_compiled

            label = f"{program.name}@-O{level}"
            with tracer.span("lint", name=f"program:{label}"):
                compiled = program.compile(opt_level=level)
                diags = lint_compiled(compiled)
                emit_to_tracer(diags, "program")
            subject = LintSubject("program", label, diags)
            if ranges:
                from repro.analysis.absint import function_ranges

                subject.ranges = function_ranges(compiled.bedrock_fn)
            report.subjects.append(subject)
    return report


def _selected_databases(db_names: Optional[Sequence[str]]) -> List[Tuple[object, str]]:
    if db_names is not None and not db_names:
        return []
    from repro.stdlib import default_databases

    binding_db, expr_db = default_databases()
    available = {"bindings": (binding_db, "binding"), "exprs": (expr_db, "expr")}
    if db_names is None:
        return [available["bindings"], available["exprs"]]
    selected = []
    for name in db_names:
        if name not in available:
            raise KeyError(
                f"unknown hint database {name!r}; available: "
                + ", ".join(sorted(available))
            )
        selected.append(available[name])
    return selected


def _selected_programs(program_names: Optional[Sequence[str]]) -> List[object]:
    if program_names is not None and not program_names:
        return []
    from repro.programs.registry import all_programs, get_program

    if program_names is None:
        return list(all_programs())
    return [get_program(name) for name in program_names]
