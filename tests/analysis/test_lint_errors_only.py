"""``lint_function(..., errors_only=True)`` is ``errors(lint_function(...))``.

The trust-path gates (``first_rejection``, the per-pass lint gate, cache
revalidation and ``repro cache verify``) call the errors-only lint,
which skips RB203, liveness and -- in functions that read no inline
table -- the range fixpoint.  The verdict must not change: the rendered
diagnostics are compared, in order, with and without a spec, on the
compiled corpus, on seeded fuzz programs, and on two hand-built cases
that pin what is skipped and what is not.  ``conftest.py`` in this
directory applies the same comparison to every lint call the other
suites here make, so each of their dirty fixtures is covered too.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.dataflow import lint_function
from repro.analysis.diagnostics import errors
from repro.bedrock2 import ast as b2
from repro.obs.trace import Tracer, use_tracer
from repro.programs import all_programs
from repro.query.programs import all_query_programs
from repro.resilience.generator import generate_case
from repro.stdlib import default_engine

FUZZ_CASES = 100


def assert_modes_agree(fn, spec=None, lint=lint_function):
    """Both lint modes render the same error list for ``fn`` under
    ``spec`` and, when ``spec`` is given, without it."""
    for under in [spec] if spec is None else [spec, None]:
        fast = [d.render() for d in lint(fn, under, errors_only=True)]
        full = [d.render() for d in errors(lint(fn, under))]
        assert fast == full, (fn.name, under is not None)


def _fixpoint_iterations(fn) -> int:
    tracer = Tracer(name="lint-errors-only")
    with use_tracer(tracer):
        found = lint_function(fn, errors_only=True)
    assert found == errors(lint_function(fn))
    return tracer.metrics.to_dict()["counters"].get("absint.fixpoint.iterations", 0)


@pytest.mark.parametrize("opt_level", [0, 1])
@pytest.mark.parametrize(
    "program",
    list(all_programs()) + list(all_query_programs()),
    ids=lambda program: program.name,
)
def test_corpus(program, opt_level):
    compiled = program.compile(opt_level=opt_level)
    assert_modes_agree(compiled.bedrock_fn, compiled.spec)


def test_seeded_fuzz_programs():
    engine = default_engine()
    for index in range(FUZZ_CASES):
        case = generate_case(random.Random(index), index)
        compiled = engine.compile_function(case.model, case.spec)
        assert_modes_agree(compiled.bedrock_fn, compiled.spec)


def test_table_reads_are_still_analysed():
    """RB302 needs the fixpoint: the index ``(n & 7) + 16`` is provably at
    least 16, past the last entry of a 16-byte table."""
    index = b2.add(b2.op("and", b2.var("n"), b2.lit(7)), b2.lit(16))
    fn = b2.Function(
        "overrun", ("n",), ("x",), b2.SSet("x", b2.EInlineTable(1, bytes(16), index))
    )
    assert [d.code for d in lint_function(fn)] == ["RB302"]
    assert [d.code for d in lint_function(fn, errors_only=True)] == ["RB302"]
    assert _fixpoint_iterations(fn) > 0


def test_warnings_are_dropped_and_errors_kept_without_tables():
    """A table-free function: RB301/RB303 warnings vanish, RB201 stays, and
    the range fixpoint never runs."""
    fn = b2.Function(
        "noisy",
        ("n",),
        ("r",),
        b2.seq_of(
            b2.SSet("a", b2.lit((1 << 64) - 1)),
            b2.SSet("b", b2.add(b2.var("a"), b2.lit(1))),
            b2.SSet("c", b2.shl(b2.var("n"), b2.lit(64))),
            b2.SSet("r", b2.add(b2.add(b2.var("b"), b2.var("c")), b2.var("u"))),
        ),
    )
    full = lint_function(fn)
    assert {"RB201", "RB301", "RB303"} <= {d.code for d in full}
    assert [d.code for d in lint_function(fn, errors_only=True)] == ["RB201"]
    assert_modes_agree(fn)
    assert _fixpoint_iterations(fn) == 0
