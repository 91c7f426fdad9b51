"""RangeGuardElimination: range-guided branch/guard deletion (ISSUE 10).

The acceptance criteria pinned here:

- the pass strictly reduces operation counts on at least two registry
  programs (sbox: provably-true guard branch deleted; xorsum: redundant
  ``& 0xFF`` mask removed), with a *validated* per-pass certificate at
  ``-O1``;
- under the seeded lying-range oracle the differential certificate
  rejects the rewrite and the pre-pass AST is kept, deterministically;
- ``goldens/rangeguard.json`` pins the pass's output fingerprint on the
  registry and query programs plus seeded fuzz functions, each taken at
  the pass's place in the ``-O1`` pipeline (after ``normalize`` and
  ``constfold``).  Intentional changes: rerun with ``--update-goldens``.
"""

import json
import random
from pathlib import Path

import pytest

from repro.bedrock2 import ast as b2
from repro.opt.passes import ConstantFolding, NormalizeStmts, RangeGuardElimination
from repro.programs.registry import get_program


def _expr_ops(expr) -> int:
    if isinstance(expr, b2.EOp):
        return 1 + _expr_ops(expr.lhs) + _expr_ops(expr.rhs)
    if isinstance(expr, b2.ELoad):
        return _expr_ops(expr.addr)
    if isinstance(expr, b2.EInlineTable):
        return _expr_ops(expr.index)
    return 0


def _op_count(stmt) -> int:
    if isinstance(stmt, b2.Function):
        return _op_count(stmt.body)
    if isinstance(stmt, b2.SSeq):
        return _op_count(stmt.first) + _op_count(stmt.second)
    if isinstance(stmt, b2.SCond):
        return 1 + _expr_ops(stmt.cond) + _op_count(stmt.then_) + _op_count(stmt.else_)
    if isinstance(stmt, b2.SWhile):
        return _expr_ops(stmt.cond) + _op_count(stmt.body)
    if isinstance(stmt, b2.SSet):
        return _expr_ops(stmt.rhs)
    if isinstance(stmt, b2.SStore):
        return _expr_ops(stmt.addr) + _expr_ops(stmt.value)
    if isinstance(stmt, b2.SStackalloc):
        return _op_count(stmt.body)
    if isinstance(stmt, (b2.SCall, b2.SInteract)):
        return sum(_expr_ops(a) for a in stmt.args)
    return 0


def _run_rangeguard(fn: b2.Function) -> "tuple[b2.Function, b2.Function]":
    normalized = NormalizeStmts().run(fn, 64)
    return normalized, RangeGuardElimination().run(normalized, 64)


# -- strict reductions on the registry ----------------------------------------------


def test_sbox_guard_branch_is_deleted():
    before, after = _run_rangeguard(get_program("sbox").compile(opt_level=0).bedrock_fn)
    assert _op_count(after) < _op_count(before)
    assert b2.statement_count(after.body) < b2.statement_count(before.body)

    def has_cond(stmt):
        if isinstance(stmt, b2.SCond):
            return True
        if isinstance(stmt, b2.SSeq):
            return has_cond(stmt.first) or has_cond(stmt.second)
        if isinstance(stmt, b2.SWhile):
            return has_cond(stmt.body)
        return False

    assert has_cond(before.body) and not has_cond(after.body)


def test_xorsum_redundant_mask_is_removed():
    before, after = _run_rangeguard(
        get_program("xorsum").compile(opt_level=0).bedrock_fn
    )
    assert _op_count(after) < _op_count(before)


def test_reductions_carry_validated_certificates_at_o1():
    reduced = 0
    for name in ("sbox", "xorsum"):
        compiled = get_program(name).compile(opt_level=1)
        certs = {c.pass_name: c for c in compiled.opt_report.certificates}
        assert certs["rangeguard"].status == "validated", (name, certs["rangeguard"])
        reduced += 1
    assert reduced >= 2


def test_existing_corpus_is_untouched():
    """No pre-existing program carries a provably-dead guard: the pass
    must be a no-op (never a rejection) everywhere else."""
    for name in ("crc32", "fasta", "fnv1a", "ip", "m3s", "upstr", "utf8"):
        compiled = get_program(name).compile(opt_level=1)
        certs = {c.pass_name: c for c in compiled.opt_report.certificates}
        assert certs["rangeguard"].status in ("no-change", "validated"), name
        assert certs["rangeguard"].status != "rejected", name


# -- output goldens ------------------------------------------------------------------

GOLDEN_PATH = Path(__file__).parent / "goldens" / "rangeguard.json"


def _golden_inputs():
    """``name -> function`` as the ``-O1`` pipeline hands it to rangeguard."""
    from tests.analysis.test_lint_corpus import corpus

    return {
        name: ConstantFolding().run(NormalizeStmts().run(fn, 64), 64)
        for name, (fn, _) in corpus().items()
    }


def test_output_matches_golden(request):
    actual = {
        name: b2.fingerprint(RangeGuardElimination().run(fn, 64))
        for name, fn in _golden_inputs().items()
    }
    if request.config.getoption("--update-goldens"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        return
    expected = json.loads(GOLDEN_PATH.read_text())
    assert sorted(actual) == sorted(expected), (
        "function set changed; rerun with --update-goldens"
    )
    changed = [name for name in sorted(expected) if actual[name] != expected[name]]
    if changed:
        pytest.fail(
            "rangeguard output diverged from goldens/rangeguard.json.  If "
            "intentional, rerun with --update-goldens and commit.\n"
            + "\n".join(changed)
        )


# -- unit rewrites -------------------------------------------------------------------


def _fn(*stmts, args=()):
    return b2.Function("unit", tuple(args), (), b2.seq_of(*stmts))


def test_provably_true_cond_collapses_to_then_arm():
    fn = _fn(
        b2.SSet("x", b2.ELit(7)),
        b2.SCond(
            b2.EOp("ltu", b2.var("x"), b2.ELit(10)),
            b2.SSet("y", b2.ELit(1)),
            b2.SSet("y", b2.ELit(2)),
        ),
    )
    out = RangeGuardElimination().run(fn, 64)
    rendered = repr(out.body)
    assert "SCond" not in rendered
    assert "ELit(1)" in rendered and "ELit(2)" not in rendered  # else-arm gone


def test_provably_false_loop_disappears():
    fn = _fn(
        b2.SSet("i", b2.ELit(5)),
        b2.SWhile(b2.EOp("ltu", b2.var("i"), b2.ELit(3)), b2.SSet("i", b2.ELit(0))),
    )
    out = RangeGuardElimination().run(fn, 64)
    assert "SWhile" not in repr(out.body)


def test_false_on_entry_loop_in_branch_arm_disappears():
    """Only the else edge's refinement (``n >= 10``) decides ``n < 5``; the
    loop-head invariant also joins the back edge and decides nothing."""
    fn = _fn(
        b2.SCond(
            b2.EOp("ltu", b2.var("n"), b2.ELit(10)),
            b2.SSet("x", b2.ELit(0)),
            b2.SWhile(
                b2.EOp("ltu", b2.var("n"), b2.ELit(5)),
                b2.SSet("n", b2.add(b2.var("n"), b2.ELit(1))),
            ),
        ),
        args=("n",),
    )
    out = RangeGuardElimination().run(fn, 64)
    assert "SCond" in repr(out.body)
    assert "SWhile" not in repr(out.body)


def test_cond_decided_by_empty_arm_fact_folds():
    """The empty then-arm's edge carries ``x < 10`` to the join and the
    else-arm sets ``x = 5``, so ``x < 16`` holds after the first ``if``."""
    fn = _fn(
        b2.SCond(
            b2.EOp("ltu", b2.var("x"), b2.ELit(10)),
            b2.SSkip(),
            b2.SSet("x", b2.ELit(5)),
        ),
        b2.SCond(
            b2.EOp("ltu", b2.var("x"), b2.ELit(16)),
            b2.SSet("r", b2.ELit(1)),
            b2.SSet("r", b2.ELit(2)),
        ),
        args=("x",),
    )
    assert b2.statement_count(fn.body) == 5
    out = RangeGuardElimination().run(fn, 64)
    assert b2.statement_count(out.body) == 3
    assert out.body.second == b2.SSet("r", b2.ELit(1))


def test_loop_decided_by_previous_loop_exit_disappears():
    """The first loop exits with ``i >= 10``, so the second loop's test
    ``i < 5`` is false on entry (its head invariant, joined with the
    ``i = 0`` back edge, is not)."""
    first = b2.SWhile(
        b2.EOp("ltu", b2.var("i"), b2.ELit(10)),
        b2.SSet("i", b2.add(b2.var("i"), b2.ELit(1))),
    )
    fn = _fn(
        b2.SSet("i", b2.ELit(0)),
        first,
        b2.SWhile(b2.EOp("ltu", b2.var("i"), b2.ELit(5)), b2.SSet("i", b2.ELit(0))),
    )
    out = RangeGuardElimination().run(fn, 64)
    assert out.body == b2.seq_of(b2.SSet("i", b2.ELit(0)), first)


def test_redundant_mask_on_byte_load_is_dropped():
    fn = _fn(
        b2.SSet("b", b2.load1(b2.var("p"))),
        b2.SSet("y", b2.band(b2.var("b"), b2.ELit(0xFF))),
        args=("p",),
    )
    out = RangeGuardElimination().run(fn, 64)
    assert "EOp" not in repr(out.body)  # the mask is gone, y = b directly
    assert "SSet(lhs='y', rhs=EVar('b'))" in repr(out.body)


def test_redundant_remu_is_dropped():
    fn = _fn(
        b2.SSet("b", b2.load1(b2.var("p"))),
        b2.SSet("y", b2.EOp("remu", b2.var("b"), b2.ELit(256))),
        args=("p",),
    )
    out = RangeGuardElimination().run(fn, 64)
    assert "remu" not in repr(out.body)


def test_loop_varying_guard_is_kept():
    """``i < 1`` holds on entry but not under the loop invariant: the
    pass must analyze the widened fixpoint, not the entry environment."""
    fn = _fn(
        b2.SSet("i", b2.ELit(0)),
        b2.SWhile(
            b2.EOp("ltu", b2.var("i"), b2.ELit(10)),
            b2.seq_of(
                b2.SCond(
                    b2.EOp("ltu", b2.var("i"), b2.ELit(1)),
                    b2.SSet("x", b2.ELit(1)),
                    b2.SSet("x", b2.ELit(2)),
                ),
                b2.SSet("i", b2.add(b2.var("i"), b2.ELit(1))),
            ),
        ),
    )
    out = RangeGuardElimination().run(fn, 64)
    assert "SCond" in repr(out.body)


def test_impure_guard_condition_is_not_deleted():
    """A provably-true condition containing a load must survive: deleting
    it could hide a memory fault the original program had."""
    fn = _fn(
        b2.SCond(
            b2.EOp("ltu", b2.load1(b2.var("p")), b2.ELit(256)),
            b2.SSet("y", b2.ELit(1)),
            b2.SSet("y", b2.ELit(2)),
        ),
        args=("p",),
    )
    out = RangeGuardElimination().run(fn, 64)
    assert "SCond" in repr(out.body)


# -- the lying oracle is caught ------------------------------------------------------


def test_lying_oracle_is_rejected_and_reverted():
    """Deterministic end-to-end: a lying range oracle deletes a live
    guard; the per-pass differential certificate rejects the candidate
    and the pre-pass AST is kept, on every seed."""
    from repro.resilience.faults import (
        DETECTED,
        _inject_optimizer_pass,
        _lying_range_pass,
        _rangeguard_lie_target,
    )

    case = _rangeguard_lie_target("ft_rangelie")
    for seed in (0, 1, 2):
        outcome, detail = _inject_optimizer_pass(
            _lying_range_pass, case, random.Random(seed), 64
        )
        assert outcome == DETECTED, detail
        assert "rejected" in detail


def test_lying_oracle_rejection_keeps_prepass_ast():
    from repro.opt.manager import PassManager
    from repro.resilience.faults import _lying_range_oracle, _rangeguard_lie_target
    from repro.stdlib import default_engine
    from repro.validation.passcheck import pass_validator

    case = _rangeguard_lie_target("unit_rangelie")
    clean = default_engine().compile_function(case.model, case.spec)
    validator = pass_validator(
        clean, trials=8, rng=random.Random(0), input_gen=case.input_gen
    )
    manager = PassManager(
        [RangeGuardElimination(oracle=_lying_range_oracle)],
        width=64,
        validator=validator,
    )
    fn, certs = manager.run(clean.bedrock_fn)
    assert certs[0].status == "rejected"
    assert b2.fingerprint(fn) == b2.fingerprint(clean.bedrock_fn)
