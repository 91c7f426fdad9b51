"""Soundness of the Bedrock2 range analysis (:func:`analyze_function`).

The property: at every program point, every concrete execution value of
every live local lies inside the range the analyzer computed for it --
checked by running each compiled program under an interpreter whose
``exec_stmt`` asserts ``state.locals`` against
:meth:`AbsintResult.stmt_envs` before executing each statement.  The
corpus is the full registry plus >= 100 generated fuzz programs.

Hand-built empty-arm shapes -- an arm whose guarded edge runs straight
to the join or the loop head -- are audited the same way, exit included.

Widening must terminate: pathological counter loops and loop nests have
to reach a fixpoint well inside the iteration cap.
"""

import random

import pytest

from repro.analysis.absint import analyze_function
from repro.bedrock2 import ast as b2
from repro.bedrock2.word import Word
from repro.core.goals import CompileError
from repro.programs.registry import all_programs
from repro.resilience.generator import generate_case
from repro.stdlib import default_engine
from repro.validation.runners import make_inputs, run_function
from tests.bedrock2.tree_walker import TreeWalker

FUZZ_COUNT = 110
TRIALS_PER_PROGRAM = 3


def _checking_interpreter(envs, failures, tally=None):
    """A tree-walker that audits locals against per-statement ranges.

    It overrides the Bedrock2 oracle's ``exec_stmt``, so it sees every
    statement executed; ``tally[0]`` counts them when given.
    """

    class CheckingInterpreter(TreeWalker):
        def exec_stmt(self, stmt, state, fuel):
            if tally is not None:
                tally[0] += 1
            env = envs.get(id(stmt))
            if env is not None:
                for var, rng in env.items():
                    word = state.locals.get(var)
                    if word is not None and not rng.contains(word.unsigned):
                        failures.append(
                            f"{var}={word.unsigned} outside {rng.pretty()} "
                            f"before {type(stmt).__name__}"
                        )
            return super().exec_stmt(stmt, state, fuel)

    return CheckingInterpreter


def _audit_executions(
    compiled, spec, input_gen, rng, trials=TRIALS_PER_PROGRAM, tally=None
):
    """Run the compiled function ``trials`` times under the auditor."""
    result = analyze_function(compiled.bedrock_fn)
    envs = result.stmt_envs()
    failures: list = []
    interpreter_cls = _checking_interpreter(envs, failures, tally)
    for _ in range(trials):
        params = input_gen(rng)
        run_function(
            compiled.bedrock_fn,
            spec,
            params,
            interpreter_cls=interpreter_cls,
        )
    return failures


def _program_input_gen(program):
    """The program's own validation generator (respects preconditions
    like utf8's well-formedness assumptions), else generic inputs."""
    gen = program.validation_input_gen()
    if gen is not None:
        return gen
    model = program.build_model()
    return lambda r: make_inputs(model, r, array_len=r.randrange(1, 24))


@pytest.mark.parametrize("program", all_programs(), ids=lambda p: p.name)
def test_registry_executions_stay_within_ranges(program):
    rng = random.Random(0xAB5)
    compiled = program.compile(opt_level=0)
    input_gen = _program_input_gen(program)
    failures = _audit_executions(compiled, program.build_spec(), input_gen, rng)
    assert not failures, failures[:5]


def test_audit_sees_every_executed_statement():
    """The auditor runs on the tree-walker oracle, not the generated
    executor: over the registry at -O0 it visits every statement executed
    (2885, counted before the generated executor existed)."""
    rng = random.Random(0xAB5)
    tally = [0]
    for program in all_programs():
        compiled = program.compile(opt_level=0)
        _audit_executions(
            compiled, program.build_spec(), _program_input_gen(program), rng, tally=tally
        )
    assert tally[0] == 2885


@pytest.mark.parametrize("opt_level", [1])
@pytest.mark.parametrize("program", all_programs(), ids=lambda p: p.name)
def test_registry_optimized_executions_stay_within_ranges(program, opt_level):
    """The ranges are recomputed per AST, so -O1 output is audited too."""
    rng = random.Random(0xAB6)
    compiled = program.compile(opt_level=opt_level)
    input_gen = _program_input_gen(program)
    failures = _audit_executions(compiled, program.build_spec(), input_gen, rng)
    assert not failures, failures[:5]


def test_fuzz_corpus_executions_stay_within_ranges():
    """>= 100 generated programs; every statement audited."""
    rng = random.Random(0x50F7)
    audited = 0
    for index in range(FUZZ_COUNT):
        case = generate_case(random.Random(2000 + index), index)
        try:
            compiled = default_engine().compile_function(case.model, case.spec)
        except CompileError:
            continue
        failures = _audit_executions(
            compiled, case.spec, case.input_gen, rng, trials=2
        )
        assert not failures, (case.name, failures[:5])
        audited += 1
    assert audited >= 100, f"only {audited} fuzz programs were audited"


# -- widening termination -----------------------------------------------------------


def _counter_loop_nest(depth: int) -> b2.Function:
    """``depth`` nested loops, each counting its own variable to 2^60."""
    bound = b2.ELit(1 << 60)
    body: b2.Stmt = b2.SSkip()
    for level in reversed(range(depth)):
        name = f"i{level}"
        inner = b2.seq_of(
            b2.SSet(name, b2.ELit(0)),
            b2.SWhile(
                b2.EOp("ltu", b2.var(name), bound),
                b2.seq_of(body, b2.SSet(name, b2.add(b2.var(name), b2.ELit(1)))),
            ),
        )
        body = inner
    return b2.Function(f"nest{depth}", (), (), body)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_widening_terminates_on_counter_loop_nests(depth):
    result = analyze_function(_counter_loop_nest(depth))
    assert result.widenings > 0
    # Far inside the fixpoint cap: widening jumps each counter to the
    # type bound instead of enumerating 2^60 iterations.
    assert result.iterations < 100 * depth


def test_widening_terminates_on_mutually_growing_counters():
    """Two locals bumping each other never stabilize without widening."""
    fn = b2.Function(
        "seesaw",
        (),
        (),
        b2.seq_of(
            b2.SSet("a", b2.ELit(0)),
            b2.SSet("b", b2.ELit(1)),
            b2.SWhile(
                b2.EOp("ltu", b2.var("a"), b2.ELit((1 << 64) - 2)),
                b2.seq_of(
                    b2.SSet("a", b2.add(b2.var("b"), b2.ELit(1))),
                    b2.SSet("b", b2.add(b2.var("a"), b2.ELit(1))),
                ),
            ),
        ),
    )
    result = analyze_function(fn)
    assert result.widenings > 0
    assert result.iterations < 200


# -- empty arms: guarded edges straight to the join ---------------------------------


def _below(bound: int) -> b2.Expr:
    return b2.EOp("ltu", b2.var("x"), b2.ELit(bound))


# Each shape is the body before ``r = x``; ``x`` is the argument.
EMPTY_ARM_SHAPES = {
    "then_empty": b2.SCond(_below(10), b2.SSkip(), b2.SSet("x", b2.ELit(5))),
    "else_empty": b2.SCond(_below(10), b2.SSet("x", b2.ELit(20)), b2.SSkip()),
    "both_empty": b2.SCond(_below(10), b2.SSkip(), b2.SSkip()),
    # The empty then-arm is the body's last statement: its edge is the
    # loop's back edge.
    "loop_tail": b2.SWhile(
        _below(100),
        b2.seq_of(
            b2.SSet("x", b2.add(b2.var("x"), b2.ELit(1))),
            b2.SCond(_below(50), b2.SSkip(), b2.SSet("x", b2.ELit(200))),
        ),
    ),
    "if0_else_empty": b2.SCond(b2.ELit(0), b2.SSet("x", b2.ELit(5)), b2.SSkip()),
    "if0_then_empty": b2.SCond(b2.ELit(0), b2.SSkip(), b2.SSet("x", b2.ELit(5))),
    "if1_then_empty": b2.SCond(b2.ELit(1), b2.SSkip(), b2.SSet("x", b2.ELit(5))),
}

# The exit range of ``r`` each shape's facts give (absent: the full word).
EMPTY_ARM_EXIT_RANGES = {
    "then_empty": "[0, 9]",
    "else_empty": f"[10, {(1 << 64) - 1}]",
    "loop_tail": f"[100, {(1 << 64) - 1}]",
    "if0_then_empty": "[5, 5]",
}

_ARGS = (0, 1, 5, 9, 10, 11, 49, 50, 99, 100, 101, 1 << 63, (1 << 64) - 1)


@pytest.mark.parametrize("shape", sorted(EMPTY_ARM_SHAPES))
def test_empty_arm_executions_stay_within_ranges(shape):
    """An empty arm's guarded edge runs straight to the join (or the loop
    head): every statement and the exit are audited over boundary
    arguments, and the exit range is the one the arm's facts give."""
    body = b2.seq_of(EMPTY_ARM_SHAPES[shape], b2.SSet("r", b2.var("x")))
    fn = b2.Function(shape, ("x",), ("r",), body)
    result = analyze_function(fn)
    exit_r = result.exit_env().get("r")
    failures: list = []
    interpreter = _checking_interpreter(result.stmt_envs(), failures)(
        b2.Program((fn,))
    )
    for x in _ARGS:
        [r], _ = interpreter.run(shape, [Word(64, x)])
        if exit_r is not None and not exit_r.contains(r.unsigned):
            failures.append(f"x={x}: r={r.unsigned} outside {exit_r.pretty()} at exit")
    assert not failures, failures[:5]
    assert (exit_r.pretty() if exit_r else None) == EMPTY_ARM_EXIT_RANGES.get(shape)
