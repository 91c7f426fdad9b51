"""The one setter for the proof-search speed layers: ``engine_config``."""

import pytest

from repro.config import EngineConfig, current_config, engine_config
from repro.obs.trace import Tracer, use_tracer
from repro.programs import get_program
from repro.stdlib import default_engine


def test_default_is_every_layer_on():
    assert current_config() == EngineConfig(fast_search=True, range_cache=True)


def test_blocks_nest_and_restore_in_order():
    outer = current_config()
    with engine_config(fast_search=False) as first:
        assert current_config() is first
        assert first == EngineConfig(fast_search=False, range_cache=True)
        with engine_config(range_cache=False) as second:
            assert second == EngineConfig(fast_search=False, range_cache=False)
            with engine_config(fast_search=True):
                assert current_config() == EngineConfig(True, False)
            assert current_config() is second
        assert current_config() is first
    assert current_config() is outer


def test_restores_on_exception():
    outer = current_config()
    with pytest.raises(RuntimeError):
        with engine_config(fast_search=False, range_cache=False):
            raise RuntimeError("boom")
    assert current_config() is outer


def test_rejects_unknown_fields_without_changing_anything():
    outer = current_config()
    with pytest.raises(TypeError):
        with engine_config(dispatch_index=False):
            pass  # pragma: no cover - never entered
    assert current_config() is outer


def test_config_is_frozen():
    with pytest.raises(AttributeError):
        current_config().fast_search = False


def _index_lookups(engine) -> int:
    """Indexed dispatch lookups the engine makes compiling fnv1a."""
    program = get_program("fnv1a")
    tracer = Tracer()
    with use_tracer(tracer):
        engine.compile_function(program.build_model(), program.build_spec())
    return tracer.metrics.get("dispatch.index.lookups")


def test_engine_snapshots_the_config_at_construction():
    """An engine keeps the config it was built under (the lemma.py contract)."""
    with engine_config(fast_search=False):
        scan = default_engine()
    indexed = default_engine()
    assert _index_lookups(scan) == 0
    assert _index_lookups(indexed) > 0
    with engine_config(fast_search=False):
        assert _index_lookups(indexed) > 0
