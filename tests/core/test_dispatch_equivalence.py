"""Differential equivalence harness for the proof-search speed layers.

The tentpole claim of the head-indexed dispatch, hash-consed terms,
subterm memoization and the absint range cache is that they change
*nothing* observable: the lemma that commits, the emitted Bedrock2 code,
the certificate, and the stall taxonomy are identical under every
:class:`~repro.config.EngineConfig`.  This module is that claim as a
test: every registry program is compiled under all four configurations,
every query program and a seeded fuzz-corpus slice under the default and
the all-off one, and the results compared byte-for-byte -- including
stall reports from a deliberately stripped database, at -O0 and -O1.
"""

import json
import random

import pytest

from repro.bedrock2.c_printer import print_c_function
from repro.config import engine_config
from repro.core.engine import Engine
from repro.core.goals import CompileError
from repro.core.solver import SolverBank
from repro.programs import all_programs
from repro.query.programs import all_query_programs
from repro.resilience.generator import generate_case
from repro.stdlib import default_databases, default_engine

# The acceptance bar: >= 100 seeded fuzz cases through both paths.
FUZZ_CASES = 120
OPTIMIZED_FUZZ_CASES = 12

# The reference configurations compared against the default (both
# layers on); with it, these cover every EngineConfig.
ALL_OFF = {"fast_search": False, "range_cache": False}
REFERENCE_CONFIGS = (
    ALL_OFF,
    {"fast_search": False},
    {"range_cache": False},
)


def snapshot(model, spec, opt_level=0, input_gen=None):
    """Compile under the *current* config; return the observable bytes."""
    # Engines snapshot the config at construction, so a fresh engine per
    # snapshot is what makes the engine_config() block effective.
    random.seed(0)  # optimizer validation draws from the global rng
    compiled = default_engine().compile_function(model, spec)
    if opt_level:
        compiled = compiled.optimize(opt_level, input_gen=input_gen)
    return (
        print_c_function(compiled.bedrock_fn),
        json.dumps(compiled.certificate.to_dict(), sort_keys=True),
    )


def both_paths(model, spec, opt_level=0, input_gen=None):
    fast = snapshot(model, spec, opt_level, input_gen)
    with engine_config(**ALL_OFF):
        slow = snapshot(model, spec, opt_level, input_gen)
    return fast, slow


@pytest.mark.parametrize("opt_level", [0, 1])
@pytest.mark.parametrize("program", all_programs(), ids=lambda p: p.name)
def test_registry_program_byte_identical(program, opt_level):
    """Default vs every reference config: all off, and each layer alone."""
    args = (
        program.build_model(),
        program.build_spec(),
        opt_level,
        program.validation_input_gen(),
    )
    fast = snapshot(*args)
    for changes in REFERENCE_CONFIGS:
        with engine_config(**changes):
            assert snapshot(*args) == fast, changes


@pytest.mark.parametrize("opt_level", [0, 1])
@pytest.mark.parametrize("program", all_query_programs(), ids=lambda p: p.name)
def test_query_program_byte_identical(program, opt_level):
    fast, slow = both_paths(
        program.build_model(),
        program.build_spec(),
        opt_level,
        program.validation_input_gen(),
    )
    assert fast == slow


def _outcome(model, spec, opt_level=0, input_gen=None):
    """(kind, payload) for one compile: success bytes or the stall record."""
    try:
        return ("ok",) + snapshot(model, spec, opt_level, input_gen)
    except CompileError as error:
        return ("stall", json.dumps(error.report.to_dict(), sort_keys=True))


def test_fuzz_corpus_byte_identical():
    """Both paths agree on >= 100 seeded generator cases, stalls included."""
    mismatches = []
    compared = 0
    for index in range(FUZZ_CASES):
        case = generate_case(random.Random(1000 + index), index)
        fast = _outcome(case.model, case.spec)
        with engine_config(**ALL_OFF):
            slow = _outcome(case.model, case.spec)
        compared += 1
        if fast != slow:
            mismatches.append((case.name, case.family, fast[0], slow[0]))
    assert compared >= 100
    assert not mismatches, mismatches


def test_fuzz_slice_optimized_byte_identical():
    """A corpus slice through the validated optimizer (-O1), both paths."""
    compared = 0
    for index in range(OPTIMIZED_FUZZ_CASES):
        case = generate_case(random.Random(2000 + index), index)
        fast = _outcome(case.model, case.spec, 1, case.input_gen)
        with engine_config(**ALL_OFF):
            slow = _outcome(case.model, case.spec, 1, case.input_gen)
        compared += 1
        assert fast == slow, case.name
    assert compared == OPTIMIZED_FUZZ_CASES


def _stripped_engine():
    """The standard engine minus the arraymap lemma (a guaranteed stall)."""
    binding_db, expr_db = default_databases()
    stripped = binding_db.copy("bindings-stripped")
    assert stripped.remove("compile_arraymap_inplace")
    return Engine(stripped, expr_db, solvers=SolverBank())


def test_stripped_db_stall_reports_byte_identical():
    """Stall slugs, nearest misses, and goal text survive the index.

    The stall path deliberately reads the *full* database
    (``lemma_names``/``nearest_misses``), not the candidate subsequence,
    so a stripped database must report the same taxonomy either way --
    including the family suggestion for the removed lemma.
    """
    checked = 0
    for index in range(FUZZ_CASES):
        case = generate_case(random.Random(1000 + index), index)
        if case.family != "byte_map":
            continue
        reports = {}
        for enabled in (True, False):
            with engine_config(fast_search=enabled, range_cache=enabled):
                with pytest.raises(CompileError) as exc:
                    _stripped_engine().compile_function(case.model, case.spec)
                reports[enabled] = json.dumps(
                    exc.value.report.to_dict(), sort_keys=True
                )
        assert reports[True] == reports[False]
        assert "loops.compile_arraymap_inplace" in reports[True]
        checked += 1
        if checked >= 5:
            break
    assert checked >= 1
