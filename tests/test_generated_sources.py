"""Generated-source goldens: what the two executable semantics run.

``goldens/generated_sources.json`` pins the sha256 of every source the
two generators emit for the 9 Table 2 programs and the 8 query programs:

- the Bedrock2 executor's source of each program's function, at ``-O0``
  and ``-O1``, widths 32 and 64 (``b2-<name>-O<level>-w<width>``);
- the model evaluator's source of each program's model, widths 32 and 64
  (``model-<name>-w<width>``);
- both again with the nesting limits lowered as ``tests/*/test_codegen.py``
  lowers them, so loops and branches move into helper functions
  (``...-helpers``).

The sources are built by the generators themselves, not through the
identity cache, so no entry another test left behind can reach them.
A diff here means a generator now emits different code.  Intentional
changes: rerun with ``--update-goldens`` and commit the new file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import codegen
from repro.bedrock2 import closures as b2_closures
from repro.programs import all_programs
from repro.query.programs import all_query_programs
from repro.source import closures as model_closures

GOLDEN_PATH = Path(__file__).parent / "goldens" / "generated_sources.json"
LEVELS = (0, 1)
WIDTHS = (32, 64)

#: The limits each ``test_codegen.py`` lowers ``MAX_INDENT`` and
#: ``MAX_BLOCKS`` to.
B2_HELPER_LIMITS = (3, 2)
MODEL_HELPER_LIMITS = (2, 1)


def _sha256(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


def _b2_source(fn, width: int) -> str:
    return b2_closures._Generator(fn, width).generate()[0]


def _model_source(term, width: int) -> str:
    return model_closures.Generator(width).generate(term)[0]


def _all_sources(monkeypatch) -> dict:
    programs = list(all_programs()) + list(all_query_programs())
    functions = {
        (program.name, level): program.compile(opt_level=level).bedrock_fn
        for program in programs
        for level in LEVELS
    }
    models = {program.name: program.build_model().term for program in programs}
    sources = {}
    for suffix, b2_limits, model_limits in (
        ("", None, None),
        ("-helpers", B2_HELPER_LIMITS, MODEL_HELPER_LIMITS),
    ):
        for (name, level), fn in functions.items():
            with monkeypatch.context() as patch:
                if b2_limits:
                    patch.setattr(codegen, "MAX_INDENT", b2_limits[0])
                    patch.setattr(codegen, "MAX_BLOCKS", b2_limits[1])
                for width in WIDTHS:
                    sources[f"b2-{name}-O{level}-w{width}{suffix}"] = _b2_source(fn, width)
        for name, term in models.items():
            with monkeypatch.context() as patch:
                if model_limits:
                    patch.setattr(codegen, "MAX_INDENT", model_limits[0])
                    patch.setattr(codegen, "MAX_BLOCKS", model_limits[1])
                for width in WIDTHS:
                    sources[f"model-{name}-w{width}{suffix}"] = _model_source(term, width)
    return sources


@pytest.fixture(scope="module")
def sources():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _all_sources(monkeypatch)


def test_the_low_limits_force_helpers(sources):
    for key, source in sources.items():
        if key.startswith("model-") and key.endswith("-helpers"):
            assert "def h0(" in source, key
    assert any("def h0(" in source for key, source in sources.items()
               if key.startswith("b2-") and key.endswith("-helpers"))


def test_generated_sources_match_golden(sources, request):
    actual = {key: _sha256(source) for key, source in sources.items()}
    if request.config.getoption("--update-goldens"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        return
    expected = json.loads(GOLDEN_PATH.read_text())
    assert sorted(actual) == sorted(expected), "the set of pinned sources changed"
    changed = sorted(key for key in actual if actual[key] != expected[key])
    assert not changed, f"generated source changed for: {', '.join(changed)}"
