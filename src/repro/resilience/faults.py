"""Cross-layer fault injection: do the trusted checkers catch lies?

The repo's architecture puts all cleverness in *untrusted* components --
compilation lemmas, side-condition solvers, optimizer passes -- and all
trust in small checkers: the well-formedness check, the certificate
checker (structural + determinism replay), and spec-driven differential
validation.  This module turns that claim into an executable experiment:
each :class:`InjectionPoint` corrupts one untrusted component in a
targeted way, drives the pipeline, and classifies the outcome:

- ``detected``  -- a trusted checker rejected the corrupted artifact;
- ``rejected``  -- the corruption surfaced as a clean, typed
  ``CompileError`` before any artifact existed (stall-and-report);
- ``harmless``  -- the fault did not change the produced artifact
  (bit-identical fingerprint to a clean run);
- ``crash``     -- an unhandled exception escaped the pipeline;
- ``silent``    -- a changed artifact sailed through every checker.

The acceptance bar: **zero** ``crash`` and **zero** ``silent`` outcomes,
for every point, on every seed.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.bedrock2 import ast as b2
from repro.core.goals import CompileError
from repro.core.spec import CompiledFunction, FnSpec, Model
from repro.resilience.campaign import (
    CRASH,
    DETECTED,
    HARMLESS,
    REJECTED,
    SILENT,
    CampaignReport,
    Lost,
    Outcome,
    Vocabulary,
    ordered_map,
)
from repro.resilience.generator import (
    FuzzCase,
    _gen_byte_fold,
    _gen_byte_map,
    _gen_scalar_chain,
)

VOCABULARY = Vocabulary(
    (DETECTED, REJECTED, HARMLESS, CRASH, SILENT), frozenset({DETECTED}),
    frozenset({CRASH, SILENT}),
)


# -- Bedrock2 AST surgery (the corruption toolkit) ---------------------------------


def rebuild_stmt(stmt: b2.Stmt, transform: Callable[[b2.Stmt], b2.Stmt]) -> b2.Stmt:
    """Apply ``transform`` to every statement node, bottom-up."""
    if isinstance(stmt, b2.SSeq):
        stmt = b2.SSeq(
            rebuild_stmt(stmt.first, transform), rebuild_stmt(stmt.second, transform)
        )
    elif isinstance(stmt, b2.SCond):
        stmt = b2.SCond(
            stmt.cond,
            rebuild_stmt(stmt.then_, transform),
            rebuild_stmt(stmt.else_, transform),
        )
    elif isinstance(stmt, b2.SWhile):
        stmt = b2.SWhile(stmt.cond, rebuild_stmt(stmt.body, transform))
    elif isinstance(stmt, b2.SStackalloc):
        stmt = b2.SStackalloc(stmt.lhs, stmt.nbytes, rebuild_stmt(stmt.body, transform))
    return transform(stmt)


def rebuild_expr(expr: b2.Expr, transform: Callable[[b2.Expr], b2.Expr]) -> b2.Expr:
    if isinstance(expr, b2.EOp):
        expr = b2.EOp(
            expr.op, rebuild_expr(expr.lhs, transform), rebuild_expr(expr.rhs, transform)
        )
    elif isinstance(expr, b2.ELoad):
        expr = b2.ELoad(expr.size, rebuild_expr(expr.addr, transform))
    elif isinstance(expr, b2.EInlineTable):
        expr = b2.EInlineTable(expr.size, expr.data, rebuild_expr(expr.index, transform))
    return transform(expr)


def corrupt_first_literal(stmt: b2.Stmt) -> b2.Stmt:
    """Flip the first integer literal found in the statement tree."""
    state = {"done": False}

    def on_expr(expr: b2.Expr) -> b2.Expr:
        if isinstance(expr, b2.ELit) and not state["done"]:
            state["done"] = True
            return b2.ELit((expr.value + 1) & ((1 << 64) - 1))
        return expr

    def on_stmt(node: b2.Stmt) -> b2.Stmt:
        if isinstance(node, b2.SSet):
            return b2.SSet(node.lhs, rebuild_expr(node.rhs, on_expr))
        if isinstance(node, b2.SStore):
            return b2.SStore(
                node.size,
                rebuild_expr(node.addr, on_expr),
                rebuild_expr(node.value, on_expr),
            )
        return node

    return rebuild_stmt(stmt, on_stmt)


# -- Corrupting lemma wrappers ------------------------------------------------------


class _CorruptingBindingLemma:
    """Wraps a real lemma; corrupts the statement of its n-th application."""

    def __init__(self, inner, strike: int, counter: Dict[str, int]):
        self.inner = inner
        self.name = inner.name  # keep the name: the lie must look legitimate
        self.shapes = getattr(inner, "shapes", ())
        self._strike = strike
        self._counter = counter

    def matches(self, goal) -> bool:
        return self.inner.matches(goal)

    def apply(self, goal, engine):
        stmt, state, children = self.inner.apply(goal, engine)
        self._counter["applications"] += 1
        # Strike at the first application (at or after the chosen strike
        # point) whose statement actually contains a literal to flip.
        if self._counter["applications"] >= self._strike and not self._counter["corrupted"]:
            from repro.core.lemma import WrapStmt

            if not isinstance(stmt, WrapStmt):
                mutated = corrupt_first_literal(stmt)
                if mutated != stmt:
                    self._counter["corrupted"] += 1
                    stmt = mutated
        return stmt, state, children


class _CorruptingExprLemma:
    """Wraps a real expression lemma; adds 1 to its n-th emitted expression."""

    def __init__(self, inner, strike: int, counter: Dict[str, int]):
        self.inner = inner
        self.name = inner.name
        self.shapes = getattr(inner, "shapes", ())
        self._strike = strike
        self._counter = counter

    def matches(self, goal) -> bool:
        return self.inner.matches(goal)

    def apply(self, goal, engine):
        expr, children = self.inner.apply(goal, engine)
        self._counter["applications"] += 1
        if self._counter["applications"] >= self._strike and not self._counter["corrupted"]:
            self._counter["corrupted"] += 1
            expr = b2.EOp("add", expr, b2.ELit(1))
        return expr, children


def _wrapped_db(db, wrapper_cls, strike: int, counter: Dict[str, int]):
    from repro.core.lemma import HintDb

    clone = HintDb(db.name)
    for lemma in db:
        clone.register(wrapper_cls(lemma, strike, counter))
    return clone


# -- Outcome classification ---------------------------------------------------------


def _run_trusted_checkers(
    bad: CompiledFunction,
    case: FuzzCase,
    rng: random.Random,
    width: int = 64,
) -> Optional[str]:
    """Run every trusted checker over a corrupted bundle.

    Returns the name of the first checker that rejects, or None if the
    corruption survived all of them (a silent soundness violation).
    """
    from repro.bedrock2.wellformed import IllFormed, check_function
    from repro.validation.checker import (
        CertificateError,
        check_certificate,
        replay_derivation,
    )
    from repro.validation.differential import differential_check

    try:
        check_function(bad.bedrock_fn)
    except IllFormed as exc:
        return f"wellformed: {exc}"
    try:
        check_certificate(bad.certificate, statement_count=bad.statement_count())
    except CertificateError as exc:
        return f"certificate: {exc}"
    try:
        replay_derivation(bad, width=width)
    except (CertificateError, CompileError) as exc:
        return f"replay: {type(exc).__name__}"
    report = differential_check(
        bad,
        trials=10,
        rng=rng,
        input_gen=case.input_gen,
        width=width,
    )
    if not report.ok:
        return f"differential: {report.failures[0].kind}"
    return None


def _compile_clean(case: FuzzCase, width: int = 64) -> CompiledFunction:
    from repro.stdlib import default_engine

    return default_engine(width=width).compile_function(case.model, case.spec)


def _classify_compiled_fault(
    point: str,
    case: FuzzCase,
    bad: CompiledFunction,
    clean: CompiledFunction,
    rng: random.Random,
    width: int = 64,
) -> Outcome:
    if b2.fingerprint(bad.bedrock_fn) == b2.fingerprint(clean.bedrock_fn):
        return Outcome(point, case.name, HARMLESS, "artifact unchanged")
    caught = _run_trusted_checkers(bad, case, rng, width)
    if caught is not None:
        return Outcome(point, case.name, DETECTED, caught)
    return Outcome(point, case.name, SILENT, "corrupted artifact validated")


# -- Injection points ---------------------------------------------------------------


def _target_cases(rng: random.Random) -> List[FuzzCase]:
    """Deterministic small targets spanning the lemma families."""
    return [
        _gen_scalar_chain(random.Random(rng.getrandbits(64)), "ft_scalar"),
        _gen_byte_map(random.Random(rng.getrandbits(64)), "ft_map"),
        _gen_byte_fold(random.Random(rng.getrandbits(64)), "ft_fold"),
    ]


def _inject_binding_lemma(case: FuzzCase, rng: random.Random, width: int) -> Outcome:
    from repro.core.engine import Engine
    from repro.stdlib import default_databases

    clean = _compile_clean(case, width)
    binding_db, expr_db = default_databases()
    counter = {"applications": 0, "corrupted": 0}
    strike = rng.randint(1, 3)
    tampered = _wrapped_db(binding_db, _CorruptingBindingLemma, strike, counter)
    try:
        bad = Engine(tampered, expr_db, width=width).compile_function(
            case.model, case.spec
        )
    except CompileError as exc:
        return Outcome(
            "binding-lemma-corrupt", case.name, REJECTED, type(exc).__name__
        )
    except Exception as exc:  # noqa: BLE001
        return Outcome("binding-lemma-corrupt", case.name, CRASH, repr(exc))
    return _classify_compiled_fault(
        "binding-lemma-corrupt", case, bad, clean, rng, width
    )


def _inject_expr_lemma(case: FuzzCase, rng: random.Random, width: int) -> Outcome:
    from repro.core.engine import Engine
    from repro.stdlib import default_databases

    clean = _compile_clean(case, width)
    binding_db, expr_db = default_databases()
    counter = {"applications": 0, "corrupted": 0}
    strike = rng.randint(1, 3)
    tampered = _wrapped_db(expr_db, _CorruptingExprLemma, strike, counter)
    try:
        bad = Engine(binding_db, tampered, width=width).compile_function(
            case.model, case.spec
        )
    except CompileError as exc:
        return Outcome(
            "expr-lemma-corrupt", case.name, REJECTED, type(exc).__name__
        )
    except Exception as exc:  # noqa: BLE001
        return Outcome("expr-lemma-corrupt", case.name, CRASH, repr(exc))
    return _classify_compiled_fault("expr-lemma-corrupt", case, bad, clean, rng, width)


def _solver_lie_target(name: str) -> FuzzCase:
    """An ``ArrayPut`` at index 4 with *no* facts: the bound is unprovable
    (and actually false on short inputs), so only a lying solver lets it
    through."""
    from repro.core.spec import array_out, len_arg, ptr_arg
    from repro.source import listarray
    from repro.source.builder import let_n, sym
    from repro.source.types import ARRAY_BYTE

    s = sym("s", ARRAY_BYTE)
    program = let_n("s", listarray.put(s, 4, 0xAB), s)
    model = Model(name, [("s", ARRAY_BYTE)], program.term, ARRAY_BYTE)
    spec = FnSpec(
        name, [ptr_arg("s", ARRAY_BYTE), len_arg("len", "s")], [array_out("s")]
    )

    def input_gen(r: random.Random) -> Dict[str, object]:
        # Half the inputs are shorter than 5: the lie is falsifiable.
        return {"s": [r.randrange(256) for _ in range(r.randrange(0, 10))]}

    return FuzzCase(name, "solver_lie", model, spec, input_gen, "inplace")


def _inject_lying_solver(_case: FuzzCase, rng: random.Random, width: int) -> Outcome:
    from repro.core.engine import Engine
    from repro.core.solver import SolverBank
    from repro.stdlib import default_databases

    case = _solver_lie_target("ft_solverlie")
    binding_db, expr_db = default_databases()
    bank = SolverBank()

    def yes_solver(obligation, state):  # the lie: everything is "proved"
        return True

    bank.register(yes_solver, front=True)
    try:
        bad = Engine(binding_db, expr_db, solvers=bank, width=width).compile_function(
            case.model, case.spec
        )
    except CompileError as exc:
        return Outcome(
            "solver-false-positive", case.name, REJECTED, type(exc).__name__
        )
    except Exception as exc:  # noqa: BLE001
        return Outcome("solver-false-positive", case.name, CRASH, repr(exc))
    # There is no clean artifact to compare against (an honest compile
    # stalls), so classification rests entirely on the trusted checkers.
    caught = _run_trusted_checkers(bad, case, rng, width)
    if caught is not None:
        return Outcome("solver-false-positive", case.name, DETECTED, caught)
    return Outcome(
        "solver-false-positive", case.name, SILENT, "unsound bound check validated"
    )


class _RoguePass:
    """An optimizer pass that miscompiles: flips the first literal."""

    name = "rogue_fold"

    def run(self, fn: b2.Function, width: int) -> b2.Function:
        return b2.Function(
            fn.name, fn.args, fn.rets, corrupt_first_literal(fn.body)
        )


class _CrashingPass:
    """An optimizer pass that simply blows up."""

    name = "crashing_pass"

    def run(self, fn: b2.Function, width: int) -> b2.Function:
        raise RuntimeError("injected optimizer crash")


def _inject_optimizer_pass(
    case: FuzzCase, rng: random.Random, width: int, pass_obj, point: str
) -> Outcome:
    from repro.opt.manager import PassManager
    from repro.validation.passcheck import pass_validator

    clean = _compile_clean(case, width)
    validator = pass_validator(
        clean, trials=8, rng=random.Random(rng.getrandbits(32)), input_gen=case.input_gen
    )
    manager = PassManager([pass_obj], width=width, validator=validator)
    try:
        fn, certificates = manager.run(clean.bedrock_fn)
    except Exception as exc:  # noqa: BLE001
        return Outcome(point, case.name, CRASH, repr(exc))
    cert = certificates[0]
    if cert.status == "rejected":
        if b2.fingerprint(fn) == b2.fingerprint(clean.bedrock_fn):
            return Outcome(point, case.name, DETECTED, f"rejected: {cert.detail}")
        return Outcome(
            point, case.name, SILENT, "pass rejected but artifact changed"
        )
    if b2.fingerprint(fn) == b2.fingerprint(clean.bedrock_fn):
        return Outcome(point, case.name, HARMLESS, "pass had no effect")
    # The validator accepted a *changed* artifact.  Translation validation
    # legitimately accepts semantics-preserving rewrites (e.g. a mutated
    # literal in a dead binding), so ground-truth the acceptance with an
    # independent, larger differential run before calling it a lie.
    from dataclasses import replace

    from repro.validation.differential import differential_check

    adopted = replace(clean, bedrock_fn=fn)
    recheck = differential_check(
        adopted,
        trials=40,
        rng=random.Random(rng.getrandbits(32)),
        input_gen=case.input_gen,
        width=width,
    )
    if recheck.ok:
        return Outcome(
            point, case.name, HARMLESS, "mutation was semantics-preserving"
        )
    return Outcome(
        point, case.name, SILENT, f"validator accepted: {recheck.failures[0].kind}"
    )


def _lying_range_oracle(expr: b2.Expr, env: dict, width: int):
    """A corrupt range oracle: every literal-bounded comparison is "provably
    true".  Loop conditions (variable against variable) are answered
    honestly so the lie miscompiles guards without making candidate
    programs diverge."""
    from repro.analysis.absint import domain
    from repro.analysis.absint.bedrock import eval_expr_range

    if (
        isinstance(expr, b2.EOp)
        and expr.op in ("ltu", "eq")
        and isinstance(expr.rhs, b2.ELit)
    ):
        return domain.const(1)
    return eval_expr_range(expr, env, width)


def _rangeguard_lie_target(name: str) -> FuzzCase:
    """A byte map whose guard (``x < 64`` on a full-range byte) is *live*:
    an honest range analysis keeps the branch, so only the lying oracle
    deletes it -- and the deletion is wrong for every input byte >= 64."""
    from repro.core.spec import array_out, len_arg, ptr_arg
    from repro.source import listarray
    from repro.source.builder import ite, let_n, sym, word_lit
    from repro.source.types import ARRAY_BYTE, WORD

    s = sym("s", ARRAY_BYTE)
    x = sym("x", WORD)
    program = let_n(
        "s",
        listarray.map_(
            lambda b: let_n(
                "x", b.to_word(), ite(x.ltu(word_lit(64)), b, b & 0x3F)
            ),
            s,
            elem_name="b",
        ),
        s,
    )
    model = Model(name, [("s", ARRAY_BYTE)], program.term, ARRAY_BYTE)
    spec = FnSpec(
        name, [ptr_arg("s", ARRAY_BYTE), len_arg("len", "s")], [array_out("s")]
    )

    def input_gen(r: random.Random) -> Dict[str, object]:
        # Bias toward the falsifying half of the byte space.
        return {"s": [r.randrange(32, 256) for _ in range(r.randrange(1, 12))]}

    return FuzzCase(name, "rangeguard_lie", model, spec, input_gen, "inplace")


def _inject_lying_ranges(_case: FuzzCase, rng: random.Random, width: int) -> Outcome:
    from repro.opt.passes import RangeGuardElimination

    case = _rangeguard_lie_target("ft_rangelie")
    return _inject_optimizer_pass(
        case,
        rng,
        width,
        RangeGuardElimination(oracle=_lying_range_oracle),
        "optimizer-lying-ranges",
    )


def _inject_cert_phantom(case: FuzzCase, rng: random.Random, width: int) -> Outcome:
    from repro.core.certificate import Certificate, CertNode
    from repro.validation.checker import CertificateError, check_certificate

    clean = _compile_clean(case, width)

    nodes = []

    def collect(node: CertNode) -> None:
        nodes.append(node)
        for child in node.children:
            collect(child)

    collect(clean.certificate.root)
    victim = rng.choice(nodes)

    def rewrite(node: CertNode) -> CertNode:
        lemma = "phantom_lemma_3f2a" if node is victim else node.lemma
        return CertNode(
            lemma=lemma,
            conclusion=node.conclusion,
            code=node.code,
            side_conditions=list(node.side_conditions),
            children=[rewrite(c) for c in node.children],
        )

    tampered = Certificate(
        function_name=clean.certificate.function_name,
        root=rewrite(clean.certificate.root),
        statements_compiled=clean.certificate.statements_compiled,
    )
    try:
        check_certificate(tampered, statement_count=clean.statement_count())
    except CertificateError as exc:
        return Outcome("cert-phantom-lemma", case.name, DETECTED, str(exc))
    except Exception as exc:  # noqa: BLE001
        return Outcome("cert-phantom-lemma", case.name, CRASH, repr(exc))
    return Outcome(
        "cert-phantom-lemma", case.name, SILENT, "phantom lemma accepted"
    )


def _inject_cert_drop_done(case: FuzzCase, rng: random.Random, width: int) -> Outcome:
    from repro.core.certificate import Certificate, CertNode
    from repro.validation.checker import CertificateError, check_certificate

    clean = _compile_clean(case, width)

    def strip(node: CertNode) -> CertNode:
        return CertNode(
            lemma=node.lemma,
            conclusion=node.conclusion,
            code=node.code,
            side_conditions=list(node.side_conditions),
            children=[strip(c) for c in node.children if c.lemma != "compile_done"],
        )

    tampered = Certificate(
        function_name=clean.certificate.function_name,
        root=strip(clean.certificate.root),
        statements_compiled=clean.certificate.statements_compiled,
    )
    try:
        check_certificate(tampered, statement_count=clean.statement_count())
    except CertificateError as exc:
        return Outcome("cert-drop-compile-done", case.name, DETECTED, str(exc))
    except Exception as exc:  # noqa: BLE001
        return Outcome("cert-drop-compile-done", case.name, CRASH, repr(exc))
    return Outcome(
        "cert-drop-compile-done", case.name, SILENT, "postcondition check not required"
    )


def _inject_code_swap(case: FuzzCase, rng: random.Random, width: int) -> Outcome:
    """Mutate the code but keep the certificate: only replay can see this."""
    from dataclasses import replace

    clean = _compile_clean(case, width)
    mutated_body = corrupt_first_literal(clean.bedrock_fn.body)
    if mutated_body == clean.bedrock_fn.body:
        return Outcome("cert-code-swap", case.name, HARMLESS, "no literal to flip")
    bad = replace(
        clean,
        bedrock_fn=b2.Function(
            clean.bedrock_fn.name,
            clean.bedrock_fn.args,
            clean.bedrock_fn.rets,
            mutated_body,
        ),
    )
    caught = _run_trusted_checkers(bad, case, rng, width)
    if caught is not None:
        return Outcome("cert-code-swap", case.name, DETECTED, caught)
    return Outcome("cert-code-swap", case.name, SILENT, "swapped code validated")


# -- The campaign -------------------------------------------------------------------


INJECTION_POINTS = (
    ("binding-lemma-corrupt", _inject_binding_lemma),
    ("expr-lemma-corrupt", _inject_expr_lemma),
    ("solver-false-positive", _inject_lying_solver),
    (
        "optimizer-rogue-pass",
        lambda case, rng, width: _inject_optimizer_pass(
            case, rng, width, _RoguePass(), "optimizer-rogue-pass"
        ),
    ),
    (
        "optimizer-crashing-pass",
        lambda case, rng, width: _inject_optimizer_pass(
            case, rng, width, _CrashingPass(), "optimizer-crashing-pass"
        ),
    ),
    ("cert-phantom-lemma", _inject_cert_phantom),
    ("cert-drop-compile-done", _inject_cert_drop_done),
    ("cert-code-swap", _inject_code_swap),
    ("optimizer-lying-ranges", _inject_lying_ranges),
)


def _plan(seed: int):
    """The campaign plan for ``seed``: (point, inject, target) triples and
    one pre-drawn RNG seed per triple.

    Targets hold input-generator closures and cannot cross a process
    boundary, so each injection rebuilds the plan from ``seed``.
    """
    master = random.Random(seed)
    targets = _target_cases(master)
    plan = [
        (point_name, inject, target)
        for point_name, inject in INJECTION_POINTS
        for target in targets
    ]
    return plan, [master.getrandbits(64) for _ in plan]


def _inject_one(seed: int, index: int, width: int) -> Outcome:
    from repro.obs.trace import NULL_SPAN, current_tracer

    plan, rng_seeds = _plan(seed)
    point_name, inject, target = plan[index]
    tracer = current_tracer()
    span = (
        tracer.span("fault_injection", name=point_name, program=target.name)
        if tracer.enabled
        else NULL_SPAN
    )
    with span:
        try:
            return inject(target, random.Random(rng_seeds[index]), width)
        except Exception as exc:  # noqa: BLE001 - a leaky harness is a crash finding
            return Outcome(point_name, target.name, CRASH, repr(exc))


def run_faults(
    seed: int = 0,
    budget: Optional[int] = None,
    width: int = 64,
    progress=None,
    jobs: int = 1,
) -> CampaignReport:
    """Run the fault-injection campaign; deterministic per seed.

    ``budget`` caps the number of injections (default: every point
    against every target once).  ``jobs > 1`` fans the plan over a
    process pool with an identical resulting report; only the
    single-process default records the engine's spans inside each
    ``fault_injection`` span.
    """
    plan, _ = _plan(seed)
    plan = plan[:budget]
    report = CampaignReport("fault campaign", seed, [], VOCABULARY)
    items = [(seed, index, width) for index in range(len(plan))]
    for index, outcome in enumerate(ordered_map(_inject_one, items, jobs)):
        point_name, _, target = plan[index]
        if isinstance(outcome, Lost):
            outcome = Outcome(point_name, target.name, CRASH, outcome.detail)
        if progress is not None:
            progress(
                f"injected {point_name} into {target.name} ({index + 1}/{len(plan)})"
            )
        report.add(outcome)
    return report
