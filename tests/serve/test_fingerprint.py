"""Cache keys: stable across processes' inputs, moved by every input."""

from repro.core.engine import Engine
from repro.serve import fingerprint
from repro.source import terms
from repro.opt.manager import pipeline_fingerprint
from repro.programs import get_program
from repro.serve.fingerprint import (
    compile_key,
    compile_key_for,
    source_fingerprint,
    spec_fingerprint,
)
from repro.stdlib import default_databases, default_engine, standard_fingerprint


def _inputs(name="crc32"):
    program = get_program(name)
    return program.build_model(), program.build_spec()


def test_key_is_a_pure_function_of_its_inputs():
    model, spec = _inputs()
    k1 = compile_key(model, spec, default_engine(), opt_level=0)
    # Fresh model/spec/engine objects, same content -> same key.
    model2, spec2 = _inputs()
    k2 = compile_key(model2, spec2, default_engine(), opt_level=0)
    assert k1 == k2
    assert len(k1) == 32


def test_standard_fingerprint_addresses_the_default_engines_keys():
    model, spec = _inputs()
    assert standard_fingerprint() == default_engine().fingerprint()
    for level in (0, 1):
        assert compile_key_for(model, spec, standard_fingerprint(), level) == (
            compile_key(model, spec, default_engine(), level)
        )


def test_each_input_moves_the_key():
    model, spec = _inputs()
    engine = default_engine()
    base = compile_key(model, spec, engine, opt_level=0)

    other_model, other_spec = _inputs("utf8")
    assert compile_key(other_model, other_spec, engine, 0) != base

    assert compile_key(model, spec, engine, opt_level=1) != base

    binding_db, expr_db = default_databases()
    edited = binding_db.copy()
    assert edited.remove(edited.lemma_names()[-1])
    assert compile_key(model, spec, Engine(edited, expr_db, width=64), 0) != base

    narrow = Engine(binding_db, expr_db, width=32)
    assert compile_key(model, spec, narrow, 0) != base


def test_component_fingerprints_are_stable():
    model, spec = _inputs()
    assert source_fingerprint(model) == source_fingerprint(model)
    assert spec_fingerprint(spec) == spec_fingerprint(spec)
    assert default_engine().fingerprint() == default_engine().fingerprint()
    assert pipeline_fingerprint(1) == pipeline_fingerprint(1)
    assert pipeline_fingerprint(0) != pipeline_fingerprint(1)


def test_hintdb_fingerprint_sees_order_and_content():
    binding_db, expr_db = default_databases()
    base = binding_db.fingerprint()
    assert base == default_databases()[0].fingerprint()

    edited = binding_db.copy()
    edited.remove(edited.lemma_names()[0])
    assert edited.fingerprint() != base

    # Re-registering an existing lemma at the front changes the scan
    # order -- and lemma order is semantically significant (first match
    # commits), so it must move the fingerprint too.
    # (replace=True: same-name re-registration is an explicit override.)
    reordered = binding_db.copy()
    last = list(binding_db)[-1]
    reordered.register(last, priority=-1, replace=True)
    assert reordered.fingerprint() != base


def test_clearing_the_intern_table_empties_the_term_repr_memo():
    model, _ = _inputs()
    first = source_fingerprint(model)
    assert any(entry[0] is model.term for entry in fingerprint._TERM_REPR_MEMO.values())
    terms.clear_intern_table()
    assert not fingerprint._TERM_REPR_MEMO
    assert source_fingerprint(_inputs()[0]) == first
