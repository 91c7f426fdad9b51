"""The RB3xx range-lint family: caught defects and silent near-misses.

Every code has (at least) one hand-built Bedrock2 function with a
provable defect the lint must report, and one *near-miss* variant one
value away from the defect that must stay silent -- the lint only fires
on what the ranges actually prove, never on suspicion.

  RB301  provable wraparound            warning
  RB302  table index out of bounds      error
  RB303  shift amount >= width          warning
  RB304  feasible division by zero      warning
"""

from repro.analysis.absint import function_ranges, range_lint
from repro.analysis.dataflow import lint_function
from repro.analysis.diagnostics import CATALOG, ERROR, WARNING, errors
from repro.bedrock2 import ast as b2


def _fn(name, args, *stmts):
    return b2.Function(name, tuple(args), (), b2.seq_of(*stmts))


def _codes(diags):
    return sorted(d.code for d in diags)


# -- RB301: provable wraparound ------------------------------------------------------


def test_rb301_catches_provable_add_wraparound():
    fn = _fn(
        "wrap_add",
        (),
        b2.SSet("a", b2.ELit(1 << 63)),
        b2.SSet("b", b2.ELit(1 << 63)),
        b2.SSet("c", b2.add(b2.var("a"), b2.var("b"))),
    )
    assert "RB301" in _codes(range_lint(fn))


def test_rb301_catches_provable_sub_wraparound():
    fn = _fn(
        "wrap_sub",
        (),
        b2.SSet("a", b2.ELit(5)),
        b2.SSet("b", b2.ELit(9)),
        b2.SSet("c", b2.sub(b2.var("a"), b2.var("b"))),
    )
    assert "RB301" in _codes(range_lint(fn))


def test_rb301_near_miss_largest_nonwrapping_add_is_silent():
    fn = _fn(
        "no_wrap_add",
        (),
        b2.SSet("a", b2.ELit(1 << 62)),
        b2.SSet("b", b2.ELit(1 << 62)),
        b2.SSet("c", b2.add(b2.var("a"), b2.var("b"))),
    )
    assert _codes(range_lint(fn)) == []


# -- RB302: provable out-of-bounds table read ---------------------------------------


def test_rb302_catches_provable_table_overrun():
    fn = _fn(
        "table_oob",
        (),
        b2.SSet("i", b2.ELit(300)),
        b2.SSet("x", b2.EInlineTable(1, bytes(256), b2.var("i"))),
    )
    diags = range_lint(fn)
    assert "RB302" in _codes(diags)
    # RB302 is error severity: it participates in the optimizer's
    # per-pass no-new-errors gate via lint_function.
    assert "RB302" in _codes(errors(lint_function(fn)))


def test_rb302_near_miss_last_valid_index_is_silent():
    fn = _fn(
        "table_edge",
        (),
        b2.SSet("i", b2.ELit(255)),
        b2.SSet("x", b2.EInlineTable(1, bytes(256), b2.var("i"))),
    )
    assert "RB302" not in _codes(range_lint(fn))


# -- RB303: shift amount >= width ---------------------------------------------------


def test_rb303_catches_full_width_shift():
    fn = _fn(
        "shift_oob",
        ("a",),
        b2.SSet("x", b2.EOp("slu", b2.var("a"), b2.ELit(64))),
    )
    assert "RB303" in _codes(range_lint(fn))


def test_rb303_near_miss_width_minus_one_is_silent():
    fn = _fn(
        "shift_edge",
        ("a",),
        b2.SSet("x", b2.EOp("slu", b2.var("a"), b2.ELit(63))),
    )
    assert "RB303" not in _codes(range_lint(fn))


# -- RB304: feasible division by zero -----------------------------------------------


def test_rb304_catches_unconstrained_divisor():
    fn = _fn(
        "div_feasible_zero",
        ("a", "d"),
        b2.SSet("q", b2.EOp("divu", b2.var("a"), b2.var("d"))),
    )
    assert "RB304" in _codes(range_lint(fn))


def test_rb304_near_miss_guarded_divisor_is_silent():
    """The same division inside ``if (d != 0)``: branch refinement
    excludes zero from the divisor's range, so the lint stays silent."""
    fn = _fn(
        "div_guarded",
        ("a", "d"),
        b2.SCond(
            b2.EOp("ltu", b2.ELit(0), b2.var("d")),
            b2.SSet("q", b2.EOp("divu", b2.var("a"), b2.var("d"))),
            b2.SSet("q", b2.ELit(0)),
        ),
    )
    assert "RB304" not in _codes(range_lint(fn))


def test_rb304_near_miss_divisor_fixed_in_else_arm_is_silent():
    """``if (0 < d) {} else { d = 1 }``: the empty then-arm's edge carries
    ``d >= 1`` to the join, and the else-arm sets ``d`` to 1."""
    fn = _fn(
        "div_empty_arm",
        ("x", "d"),
        b2.SCond(
            b2.EOp("ltu", b2.ELit(0), b2.var("d")),
            b2.SSkip(),
            b2.SSet("d", b2.ELit(1)),
        ),
        b2.SSet("r", b2.EOp("divu", b2.var("x"), b2.var("d"))),
    )
    assert "RB304" not in _codes(lint_function(fn))


def test_rb304_near_miss_constant_divisor_is_silent():
    fn = _fn(
        "div_const",
        ("a",),
        b2.SSet("q", b2.EOp("divu", b2.var("a"), b2.ELit(3))),
    )
    assert "RB304" not in _codes(range_lint(fn))


# -- catalog, severities, integration ------------------------------------------------


def test_rb3xx_catalog_severities():
    assert CATALOG["RB301"][0] is WARNING
    assert CATALOG["RB302"][0] is ERROR
    assert CATALOG["RB303"][0] is WARNING
    assert CATALOG["RB304"][0] is WARNING


def test_lint_function_folds_in_range_lints():
    fn = _fn(
        "wrap_add",
        (),
        b2.SSet("a", b2.ELit(1 << 63)),
        b2.SSet("b", b2.ELit(1 << 63)),
        b2.SSet("c", b2.add(b2.var("a"), b2.var("b"))),
    )
    assert "RB301" in _codes(lint_function(fn))


def test_registry_corpus_is_rb3xx_clean():
    """The shipping programs carry no provable range defects at either
    optimization level (the CI lint gate depends on this)."""
    from repro.programs.registry import all_programs

    for program in all_programs():
        for level in (0, 1):
            fn = program.compile(opt_level=level).bedrock_fn
            rb = [d for d in range_lint(fn) if d.code.startswith("RB3")]
            assert rb == [], (program.name, level, rb)


def test_function_ranges_surface_exit_environment():
    fn = _fn(
        "ranged",
        (),
        b2.SSet("i", b2.ELit(7)),
        b2.SSet("j", b2.add(b2.var("i"), b2.ELit(1))),
    )
    ranges = function_ranges(fn)
    assert ranges["i"] == "[7, 7]"
    assert ranges["j"] == "[8, 8]"


def test_run_lint_ranges_flag_attaches_ranges():
    from repro.analysis.runner import run_lint

    report = run_lint(db_names=(), program_names=("crc32",), opt_levels=(0,), ranges=True)
    subject = report.subjects[0]
    assert subject.ranges, "expected --ranges to attach an exit environment"
    assert subject.to_dict()["ranges"] == subject.ranges
    assert any("range " in line for line in report.render().splitlines())
