"""The lint's diagnostics and exit ranges on a corpus, pinned.

``goldens/lint_corpus.json`` records, for every registry and query
program plus the seeded fuzz functions ``tests/opt/goldens/rangeguard.json``
uses, the ``-O0`` function's :func:`lint_function` diagnostics (with its
spec) and its :func:`function_ranges` -- the RB2xx analyses and the
Bedrock2 range fixpoint behind RB3xx and ``rangeguard``.  Intentional
changes: rerun with ``--update-goldens``.
"""

import json
import random
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis.absint import function_ranges
from repro.analysis.dataflow import lint_function
from repro.programs import all_programs
from repro.query.programs import all_query_programs

GOLDEN_PATH = Path(__file__).parent / "goldens" / "lint_corpus.json"
FUZZ_CASES = 400


@lru_cache(maxsize=1)
def corpus():
    """``name -> (function, spec)`` at ``-O0``: the registry and query
    programs plus :data:`FUZZ_CASES` seeded fuzz functions (also the
    inputs of ``tests/opt/goldens/rangeguard.json``)."""
    from repro.resilience.generator import generate_case
    from repro.stdlib import default_engine

    compiled = [
        p.compile(opt_level=0)
        for p in list(all_programs()) + list(all_query_programs())
    ]
    engine = default_engine()
    for index in range(FUZZ_CASES):
        case = generate_case(random.Random(7000 + index), index)
        compiled.append(engine.compile_function(case.model, case.spec))
    return {c.bedrock_fn.name: (c.bedrock_fn, c.spec) for c in compiled}


def test_lint_and_ranges_match_golden(request):
    actual = {
        name: {
            "diags": [d.to_dict() for d in lint_function(fn, spec)],
            "ranges": function_ranges(fn),
        }
        for name, (fn, spec) in corpus().items()
    }
    if request.config.getoption("--update-goldens"):
        GOLDEN_PATH.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        return
    expected = json.loads(GOLDEN_PATH.read_text())
    assert sorted(actual) == sorted(expected), (
        "function set changed; rerun with --update-goldens"
    )
    changed = [name for name in sorted(expected) if actual[name] != expected[name]]
    if changed:
        pytest.fail(
            "lint output diverged from goldens/lint_corpus.json.  If "
            "intentional, rerun with --update-goldens and commit.\n"
            + "\n".join(changed)
        )
