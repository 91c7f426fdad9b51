"""End-to-end acceptance for the query corpus: every registered program
compiles with a certificate at -O0 and -O1 and agrees with the
*reference plan evaluator* on 100 seeded random databases per program
and level -- the frontend's differential story, one level above the
model-vs-Bedrock2 check that ``validate`` performs."""

import random

import pytest

from repro.programs import get_program
from repro.query.programs import all_query_programs
from repro.validation.checker import validate
from repro.validation.runners import run_function

PROGRAMS = [program.name for program in all_query_programs()]


def test_corpus_covers_every_lowering_shape():
    vias = {program.reified().via for program in all_query_programs()}
    assert vias == {
        "fold",
        "fold_break",
        "aggregate",
        "join",
        "project",
        "group_count",
    }
    assert len(PROGRAMS) >= 4


@pytest.mark.parametrize("name", PROGRAMS)
@pytest.mark.parametrize("opt_level", [0, 1])
def test_query_program_validates(name, opt_level):
    program = get_program(name)
    compiled = program.compile(opt_level=opt_level)
    validate(
        compiled,
        trials=30,
        rng=random.Random(7),
        input_gen=program.validation_input_gen(),
    )
    if opt_level > 0:
        assert compiled.opt_report is not None


@pytest.mark.parametrize("name", PROGRAMS)
@pytest.mark.parametrize("opt_level", [0, 1])
def test_query_program_matches_reference_evaluator(name, opt_level):
    program = get_program(name)
    compiled = program.compile(opt_level=opt_level)
    reified = program.reified()
    rng = random.Random(1000 + opt_level)
    saw_nonempty = saw_empty = False
    for _ in range(100):
        tables, out_len = program.gen_tables(rng)
        params = program.inputs_from_tables(tables, out_len)
        frozen = {name_: list(col) for name_, col in params.items()}
        expected = program.reference(tables, out_len)
        result = run_function(compiled.bedrock_fn, compiled.spec, params)
        if reified.kind == "scalar":
            got = result.rets[0]
        else:
            got = result.out_memory[reified.out_param]
        assert got == expected, (name, tables, got, expected)
        # Read-only columns must come back untouched.
        for _table, cols in reified.table_cols:
            for col in cols:
                assert result.out_memory[col.name] == frozen[col.name]
        rows = next(iter(tables.values()))
        if any(len(col) for col in rows.values()):
            saw_nonempty = True
        else:
            saw_empty = True
    assert saw_nonempty and saw_empty, "generator should cover empty tables"
