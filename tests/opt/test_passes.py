"""Unit and property tests for the ``repro.opt`` pass suite.

Two properties are checked for every suite program, per ISSUE.md:

- **semantics preservation**: running the optimized function and the
  unoptimized function on random spec-conformant inputs yields the same
  return values, final memory, and I/O trace;
- **idempotence**: optimizing an already-optimized function is the
  identity (the pipeline reaches a fixed point in one application).

Plus targeted unit tests pinning each pass's bit-exactness corners
(division by zero, shift-amount wrapping, purity guards).
"""

import random

import pytest

from repro.bedrock2 import ast as b2
from repro.bedrock2.word import Word
from repro.opt import (
    BranchSimplification,
    ConstantFolding,
    CopyPropagation,
    DeadCodeElimination,
    LoadCSE,
    PointerStrengthReduction,
    optimize_function,
)
from repro.programs import all_programs
from repro.validation.runners import make_inputs, run_function

PROGRAMS = all_programs()
IDS = [p.name for p in PROGRAMS]


def _inputs_for(program, seed: int):
    gen = program.validation_input_gen()
    rng = random.Random(seed)
    if gen is not None:
        return gen(rng)
    return make_inputs(program.compile().model, rng)


def _observe(fn, compiled, inputs, io_words):
    result = run_function(
        fn, compiled.spec, dict(inputs), io_input=iter(io_words)
    )
    return result.rets, result.out_memory, result.trace


@pytest.mark.parametrize("program", PROGRAMS, ids=IDS)
def test_optimized_semantics_match(program):
    """interpret(optimize(ast)) == interpret(ast) on random inputs."""
    compiled = program.compile()
    optimized, report = optimize_function(compiled.bedrock_fn, level=1)
    assert report.rejected == []
    for trial in range(8):
        inputs = _inputs_for(program, trial)
        io_words = [random.Random(trial ^ 0x10).getrandbits(32) for _ in range(8)]
        assert _observe(optimized, compiled, inputs, io_words) == _observe(
            compiled.bedrock_fn, compiled, inputs, io_words
        ), (program.name, trial)


@pytest.mark.parametrize("program", PROGRAMS, ids=IDS)
def test_optimize_is_idempotent(program):
    """optimize(optimize(x)) == optimize(x) for the whole pipeline."""
    compiled = program.compile()
    once, _ = optimize_function(compiled.bedrock_fn, level=1)
    twice, report = optimize_function(once, level=1)
    assert twice == once, report.render()


def _fn(body, args=("x",), rets=("r",)):
    return b2.Function("f", tuple(args), tuple(rets), body)


class TestConstantFolding:
    def _fold(self, expr):
        fn = _fn(b2.SSet("r", expr))
        return ConstantFolding().run(fn, 64).body

    def test_folds_bit_exactly(self):
        # Word semantics, not Python ints: division by zero is all-ones.
        folded = self._fold(b2.EOp("divu", b2.ELit(7), b2.ELit(0)))
        assert folded == b2.SSet("r", b2.ELit(int(Word(64, 7).udiv(Word(64, 0)))))

    def test_remu_by_zero_is_dividend(self):
        folded = self._fold(b2.EOp("remu", b2.ELit(41), b2.ELit(0)))
        assert folded == b2.SSet("r", b2.ELit(41))

    def test_shift_amount_wraps_mod_width(self):
        # slu by 64 is slu by 0 on a 64-bit word.
        folded = self._fold(b2.EOp("slu", b2.EVar("x"), b2.ELit(64)))
        assert folded == b2.SSet("r", b2.EVar("x"))

    def test_mul_zero_requires_purity(self):
        # x * 0 folds to 0 only when x cannot fault; a load can.
        load = b2.ELoad(1, b2.EVar("x"))
        folded = self._fold(b2.EOp("mul", load, b2.ELit(0)))
        assert folded == b2.SSet("r", b2.EOp("mul", load, b2.ELit(0)))
        folded = self._fold(b2.EOp("mul", b2.EVar("x"), b2.ELit(0)))
        assert folded == b2.SSet("r", b2.ELit(0))

    def test_table_index_folds_in_range(self):
        table = b2.EInlineTable(1, bytes(range(16)), b2.ELit(5))
        assert self._fold(table) == b2.SSet("r", b2.ELit(5))
        oob = b2.EInlineTable(1, bytes(range(16)), b2.ELit(99))
        assert self._fold(oob) == b2.SSet("r", oob)  # keep the fault


class TestBranchSimplification:
    def test_literal_cond_picks_arm(self):
        body = b2.SCond(b2.ELit(1), b2.SSet("r", b2.ELit(1)), b2.SSet("r", b2.ELit(2)))
        out = BranchSimplification().run(_fn(body), 64).body
        assert out == b2.SSet("r", b2.ELit(1))

    def test_impure_cond_of_equal_arms_kept(self):
        arm = b2.SSet("r", b2.ELit(3))
        cond = b2.ELoad(1, b2.EVar("x"))  # may fault: must stay
        body = b2.SCond(cond, arm, arm)
        assert BranchSimplification().run(_fn(body), 64).body == body


class TestCopyPropagation:
    def test_chain_collapses(self):
        body = b2.seq_of(
            b2.SSet("a", b2.EVar("x")),
            b2.SSet("b", b2.EVar("a")),
            b2.SSet("r", b2.EOp("add", b2.EVar("b"), b2.EVar("a"))),
        )
        fn = DeadCodeElimination().run(CopyPropagation().run(_fn(body), 64), 64)
        assert fn.body == b2.SSet("r", b2.EOp("add", b2.EVar("x"), b2.EVar("x")))

    def test_self_copy_removed(self):
        body = b2.seq_of(b2.SSet("x", b2.EVar("x")), b2.SSet("r", b2.EVar("x")))
        out = CopyPropagation().run(_fn(body), 64).body
        assert out == b2.SSet("r", b2.EVar("x"))


class TestDeadCodeElimination:
    def test_dead_assign_removed_but_store_kept(self):
        body = b2.seq_of(
            b2.SSet("dead", b2.ELit(1)),
            b2.SStore(1, b2.EVar("x"), b2.ELit(2)),
            b2.SSet("r", b2.ELit(0)),
        )
        out = DeadCodeElimination().run(_fn(body), 64).body
        assert out == b2.seq_of(
            b2.SStore(1, b2.EVar("x"), b2.ELit(2)), b2.SSet("r", b2.ELit(0))
        )

    def test_dead_chain_through_branch_goes_in_one_run(self):
        """``x2 = f(x1)`` is dead, so ``x1`` -- set in both arms of a pure
        conditional -- dies with it, and the conditional goes too.  The
        lint's ``CFG.live_out`` keeps ``x1`` live, because its only reader
        is itself a dead assignment: DCE keeps its own backward walk,
        which sees each deletion before it reaches the definitions above
        (on the fuzz case ``fz_scalar_chain_133`` after the first ten
        ``-O1`` passes, 2 statements are left against 5 with
        ``live_out``)."""
        from repro.analysis.dataflow import CFG

        body = b2.seq_of(
            b2.SCond(
                b2.EOp("ltu", b2.EVar("x"), b2.ELit(3)),
                b2.SSet("x1", b2.ELit(1)),
                b2.SSet("x1", b2.EVar("x")),
            ),
            b2.SSet("x2", b2.EOp("add", b2.EVar("x1"), b2.ELit(1))),
            b2.SSet("r", b2.ELit(0)),
        )
        out = DeadCodeElimination().run(_fn(body), 64).body
        assert out == b2.SSet("r", b2.ELit(0))

        cfg = CFG(_fn(body))
        live = cfg.live_out()
        sets = {n.stmt: n.id for n in cfg.nodes if n.kind == "set"}
        assert "x2" not in live[sets[body.second.first]]
        assert "x1" in live[sets[body.first.then_]]

    def test_loop_carried_var_is_live(self):
        body = b2.seq_of(
            b2.SSet("i", b2.ELit(0)),
            b2.SSet("r", b2.ELit(0)),
            b2.SWhile(
                b2.EOp("ltu", b2.EVar("i"), b2.EVar("x")),
                b2.seq_of(
                    b2.SSet("r", b2.EOp("add", b2.EVar("r"), b2.EVar("i"))),
                    b2.SSet("i", b2.EOp("add", b2.EVar("i"), b2.ELit(1))),
                ),
            ),
        )
        assert DeadCodeElimination().run(_fn(body), 64).body == body


class TestLoadCSE:
    def test_repeated_load_reused(self):
        load = b2.ELoad(1, b2.EVar("x"))
        body = b2.seq_of(
            b2.SSet("a", load),
            b2.SSet("r", b2.EOp("add", load, b2.EVar("a"))),
        )
        out = LoadCSE().run(_fn(body), 64).body
        assert out == b2.seq_of(
            b2.SSet("a", load),
            b2.SSet("r", b2.EOp("add", b2.EVar("a"), b2.EVar("a"))),
        )

    def test_store_invalidates(self):
        load = b2.ELoad(1, b2.EVar("x"))
        body = b2.seq_of(
            b2.SSet("a", load),
            b2.SStore(1, b2.EVar("x"), b2.ELit(0)),
            b2.SSet("r", load),
        )
        assert LoadCSE().run(_fn(body), 64).body == body


class TestPointerStrengthReduction:
    def _counted_loop(self):
        # r = 0; i = 0; while (i < x) { r = r + load(s + i); i = i + 1 }
        return _fn(
            b2.seq_of(
                b2.SSet("r", b2.ELit(0)),
                b2.SSet("i", b2.ELit(0)),
                b2.SWhile(
                    b2.EOp("ltu", b2.EVar("i"), b2.EVar("x")),
                    b2.seq_of(
                        b2.SSet(
                            "r",
                            b2.EOp(
                                "add",
                                b2.EVar("r"),
                                b2.ELoad(1, b2.EOp("add", b2.EVar("s"), b2.EVar("i"))),
                            ),
                        ),
                        b2.SSet("i", b2.EOp("add", b2.EVar("i"), b2.ELit(1))),
                    ),
                ),
            ),
            args=("s", "x"),
        )

    def test_rewrites_to_pointer_loop(self):
        fn = self._counted_loop()
        out = PointerStrengthReduction().run(fn, 64)
        assert out != fn
        # The loop no longer computes s + i in its body.
        adds = [
            e
            for e in b2.walk_exprs(out.body)
            if isinstance(e, b2.EOp)
            and e.op == "add"
            and b2.EVar("i") in (e.lhs, e.rhs)
        ]
        assert not adds

    def test_ivar_escaping_blocks_rewrite(self):
        fn = self._counted_loop()
        # Returning i uses it beyond addressing: no rewrite.
        fn = b2.Function(fn.name, fn.args, ("r", "i"), fn.body)
        assert PointerStrengthReduction().run(fn, 64) == fn
