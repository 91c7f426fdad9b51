"""Cross-layer fault injection: do the trusted checkers catch lies?

The repo's architecture puts all cleverness in *untrusted* components --
compilation lemmas, side-condition solvers, optimizer passes -- and all
trust in small checkers: the well-formedness check, the certificate
checker (structural + determinism replay), and spec-driven differential
validation.  This module turns that claim into an executable experiment:
each injection point corrupts one untrusted component in a targeted
way, drives the pipeline, and returns an ``(outcome, detail)`` pair:

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
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

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
    Vocabulary,
    run_campaign,
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
            return b2.SSet(node.lhs, b2.map_expr(node.rhs, on_expr))
        if isinstance(node, b2.SStore):
            return b2.SStore(
                node.size,
                b2.map_expr(node.addr, on_expr),
                b2.map_expr(node.value, on_expr),
            )
        return node

    return b2.map_stmt(stmt, on_stmt)


# -- Corrupting lemma wrappers ------------------------------------------------------


class _CorruptingLemma:
    """Wraps a real lemma; ``corrupt`` rewrites one of its results.

    The first application at or after the ``strike``-th (counted across
    every wrapper sharing ``counter``) whose result ``corrupt`` can
    change is corrupted; ``corrupt`` returns None for a result it
    leaves alone.
    """

    def __init__(self, inner, strike: int, counter: Dict[str, int], corrupt):
        self.inner = inner
        self.name = inner.name  # keep the name: the lie must look legitimate
        self.shapes = getattr(inner, "shapes", ())
        self._strike = strike
        self._counter = counter
        self._corrupt = corrupt

    def matches(self, goal) -> bool:
        return self.inner.matches(goal)

    def apply(self, goal, engine):
        result = self.inner.apply(goal, engine)
        self._counter["applications"] += 1
        if self._counter["applications"] >= self._strike and not self._counter["corrupted"]:
            corrupted = self._corrupt(result)
            if corrupted is not None:
                self._counter["corrupted"] += 1
                result = corrupted
        return result


def _corrupt_binding(result):
    """Flip the first literal of a binding lemma's statement, if it has one."""
    from repro.core.lemma import WrapStmt

    stmt, state, children = result
    if isinstance(stmt, WrapStmt):
        return None
    mutated = corrupt_first_literal(stmt)
    return None if mutated == stmt else (mutated, state, children)


def _corrupt_expr(result):
    """Add 1 to an expression lemma's emitted expression."""
    expr, children = result
    return b2.EOp("add", expr, b2.ELit(1)), children


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
    from repro.validation.checker import first_rejection
    from repro.validation.differential import differential_check

    rejection = first_rejection(
        bad.bedrock_fn, bad.certificate, replay=bad, width=width
    )
    if rejection is not None:
        return rejection.reason
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
    case: FuzzCase,
    bad: CompiledFunction,
    clean: CompiledFunction,
    rng: random.Random,
    width: int = 64,
) -> Tuple[str, str]:
    if b2.fingerprint(bad.bedrock_fn) == b2.fingerprint(clean.bedrock_fn):
        return HARMLESS, "artifact unchanged"
    caught = _run_trusted_checkers(bad, case, rng, width)
    if caught is not None:
        return DETECTED, caught
    return SILENT, "corrupted artifact validated"


# -- Injection points ---------------------------------------------------------------


def _target_cases(rng: random.Random) -> List[FuzzCase]:
    """Deterministic small targets spanning the lemma families."""
    return [
        _gen_scalar_chain(random.Random(rng.getrandbits(64)), "ft_scalar"),
        _gen_byte_map(random.Random(rng.getrandbits(64)), "ft_map"),
        _gen_byte_fold(random.Random(rng.getrandbits(64)), "ft_fold"),
    ]


def _inject_lemma(
    db_index: int, corrupt, case: FuzzCase, rng: random.Random, width: int
) -> Tuple[str, str]:
    """Compile with the ``db_index``-th default database's lemmas lying."""
    from repro.core.engine import Engine
    from repro.core.lemma import HintDb
    from repro.stdlib import default_databases

    clean = _compile_clean(case, width)
    databases = list(default_databases())
    counter = {"applications": 0, "corrupted": 0}
    strike = rng.randint(1, 3)
    tampered = HintDb(databases[db_index].name)
    for lemma in databases[db_index]:
        tampered.register(_CorruptingLemma(lemma, strike, counter, corrupt))
    databases[db_index] = tampered
    try:
        bad = Engine(*databases, width=width).compile_function(case.model, case.spec)
    except CompileError as exc:
        return REJECTED, type(exc).__name__
    return _classify_compiled_fault(case, bad, clean, rng, width)


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


def _inject_lying_solver(
    case: FuzzCase, rng: random.Random, width: int
) -> Tuple[str, str]:
    """Compile ``case`` (a :func:`_solver_lie_target`) with a solver that
    proves everything."""
    from repro.core.engine import Engine
    from repro.core.solver import SolverBank
    from repro.stdlib import default_databases

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
        return REJECTED, type(exc).__name__
    # There is no clean artifact to compare against (an honest compile
    # stalls), so classification rests entirely on the trusted checkers.
    caught = _run_trusted_checkers(bad, case, rng, width)
    if caught is not None:
        return DETECTED, caught
    return SILENT, "unsound bound check validated"


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
    make_pass: Callable[[], object], case: FuzzCase, rng: random.Random, width: int
) -> Tuple[str, str]:
    """Run ``make_pass()`` over ``case``'s clean code under the per-pass
    validator."""
    from repro.opt.manager import PassManager
    from repro.validation.passcheck import pass_validator

    clean = _compile_clean(case, width)
    validator = pass_validator(
        clean, trials=8, rng=random.Random(rng.getrandbits(32)), input_gen=case.input_gen
    )
    manager = PassManager([make_pass()], width=width, validator=validator)
    fn, certificates = manager.run(clean.bedrock_fn)
    cert = certificates[0]
    if cert.status == "rejected":
        if b2.fingerprint(fn) == b2.fingerprint(clean.bedrock_fn):
            return DETECTED, f"rejected: {cert.detail}"
        return SILENT, "pass rejected but artifact changed"
    if b2.fingerprint(fn) == b2.fingerprint(clean.bedrock_fn):
        return HARMLESS, "pass had no effect"
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
        return HARMLESS, "mutation was semantics-preserving"
    return SILENT, f"validator accepted: {recheck.failures[0].kind}"


def _lying_range_oracle(expr: b2.Expr, env: dict, width: int):
    """A corrupt range oracle: every literal-bounded comparison is "provably
    true".  Loop conditions (variable against variable) are answered
    honestly so the lie miscompiles guards without making candidate
    programs diverge."""
    from repro.analysis.absint import domain
    from repro.analysis.absint.bedrock import expr_range

    if (
        isinstance(expr, b2.EOp)
        and expr.op in ("ltu", "eq")
        and isinstance(expr.rhs, b2.ELit)
    ):
        return domain.const(1)
    return expr_range(expr, env, width)


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


def _lying_range_pass():
    """Range-guard elimination driven by :func:`_lying_range_oracle`."""
    from repro.opt.passes import RangeGuardElimination

    return RangeGuardElimination(oracle=_lying_range_oracle)


def _phantom_lemma(root, rng: random.Random):
    """Rename one randomly drawn node's lemma to one no database holds."""
    nodes = []

    def collect(node) -> None:
        nodes.append(node)
        for child in node.children:
            collect(child)

    collect(root)
    victim = rng.choice(nodes)
    return _copy_certificate(
        root, rename=lambda node: "phantom_lemma_3f2a" if node is victim else node.lemma
    )


def _drop_compile_done(root, rng: random.Random):
    """Drop every ``compile_done`` node: the postcondition goes unchecked."""
    return _copy_certificate(root, keep=lambda node: node.lemma != "compile_done")


def _copy_certificate(node, rename=lambda node: node.lemma, keep=lambda node: True):
    """Copy a certificate tree, renaming lemmas and keeping kept children."""
    from repro.core.certificate import CertNode

    return CertNode(
        lemma=rename(node),
        conclusion=node.conclusion,
        code=node.code,
        side_conditions=list(node.side_conditions),
        children=[
            _copy_certificate(child, rename, keep)
            for child in node.children
            if keep(child)
        ],
    )


def _inject_cert_tamper(
    tamper, missed: str, case: FuzzCase, rng: random.Random, width: int
) -> Tuple[str, str]:
    """Check the clean certificate with its tree rewritten by ``tamper``;
    ``missed`` is the detail when the checker accepts it."""
    from repro.core.certificate import Certificate
    from repro.validation.checker import CertificateError, check_certificate

    clean = _compile_clean(case, width)
    tampered = Certificate(
        function_name=clean.certificate.function_name,
        root=tamper(clean.certificate.root, rng),
        statements_compiled=clean.certificate.statements_compiled,
    )
    try:
        check_certificate(tampered, statement_count=clean.statement_count())
    except CertificateError as exc:
        return DETECTED, str(exc)
    return SILENT, missed


def _inject_code_swap(
    case: FuzzCase, rng: random.Random, width: int
) -> Tuple[str, str]:
    """Mutate the code but keep the certificate: only replay can see this."""
    from dataclasses import replace

    clean = _compile_clean(case, width)
    mutated_body = corrupt_first_literal(clean.bedrock_fn.body)
    if mutated_body == clean.bedrock_fn.body:
        return HARMLESS, "no literal to flip"
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
        return DETECTED, caught
    return SILENT, "swapped code validated"


# -- The campaign -------------------------------------------------------------------


#: ``(point, inject, own target)``: each point runs ``inject(case, rng,
#: width)`` against every planned target, or three times against its own
#: fixed target where it needs one.
INJECTION_POINTS = (
    ("binding-lemma-corrupt", partial(_inject_lemma, 0, _corrupt_binding), None),
    ("expr-lemma-corrupt", partial(_inject_lemma, 1, _corrupt_expr), None),
    (
        "solver-false-positive",
        _inject_lying_solver,
        partial(_solver_lie_target, "ft_solverlie"),
    ),
    ("optimizer-rogue-pass", partial(_inject_optimizer_pass, _RoguePass), None),
    ("optimizer-crashing-pass", partial(_inject_optimizer_pass, _CrashingPass), None),
    (
        "cert-phantom-lemma",
        partial(_inject_cert_tamper, _phantom_lemma, "phantom lemma accepted"),
        None,
    ),
    (
        "cert-drop-compile-done",
        partial(
            _inject_cert_tamper, _drop_compile_done, "postcondition check not required"
        ),
        None,
    ),
    ("cert-code-swap", _inject_code_swap, None),
    (
        "optimizer-lying-ranges",
        partial(_inject_optimizer_pass, _lying_range_pass),
        partial(_rangeguard_lie_target, "ft_rangelie"),
    ),
)


def _plan(seed: int):
    """The campaign plan for ``seed``: (point, inject, target) triples and
    one pre-drawn RNG seed per triple.

    Targets hold input-generator closures and cannot cross a process
    boundary, so each injection rebuilds the plan from ``seed``.
    """
    master = random.Random(seed)
    targets = _target_cases(master)
    plan = []
    for point, inject, own_target in INJECTION_POINTS:
        cases = targets if own_target is None else [own_target()] * len(targets)
        plan.extend((point, inject, case) for case in cases)
    return plan, [master.getrandbits(64) for _ in plan]


def _inject_one(seed: int, index: int, width: int) -> Tuple[str, str]:
    plan, rng_seeds = _plan(seed)
    _point, inject, target = plan[index]
    return inject(target, random.Random(rng_seeds[index]), width)


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
    rows = [
        (point, target.name, _inject_one, (seed, index, width))
        for index, (point, _inject, target) in enumerate(plan[:budget])
    ]
    return run_campaign("fault campaign", seed, VOCABULARY, rows, jobs, progress)
