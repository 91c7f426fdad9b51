"""Output goldens for the straight-line optimizer passes.

``goldens/passes.json`` pins, for every ``-O0`` function of the lint
corpus (the registry and query programs plus 400 seeded fuzz functions),
the :func:`~repro.bedrock2.ast.fingerprint` of:

- ``copyprop``, ``loadcse`` and ``dce``, each run alone after
  ``normalize``;
- ``O1``, the whole ``-O1`` pipeline without a validator.

A diff here means a pass now rewrites some function differently.
Intentional changes: rerun with ``--update-goldens`` and commit.
"""

import json
from pathlib import Path

import pytest

from repro.bedrock2 import ast as b2
from repro.opt.manager import optimize_function
from repro.opt.passes import (
    CopyPropagation,
    DeadCodeElimination,
    LoadCSE,
    NormalizeStmts,
)

GOLDEN_PATH = Path(__file__).parent / "goldens" / "passes.json"
PASSES = (CopyPropagation, LoadCSE, DeadCodeElimination)


def _outputs(fn: b2.Function) -> dict:
    normalized = NormalizeStmts().run(fn, 64)
    out = {cls.name: b2.fingerprint(cls().run(normalized, 64)) for cls in PASSES}
    out["O1"] = b2.fingerprint(optimize_function(fn, 1)[0])
    return out


def test_output_matches_golden(request):
    from tests.analysis.test_lint_corpus import corpus

    actual = {name: _outputs(fn) for name, (fn, _spec) in corpus().items()}
    if request.config.getoption("--update-goldens"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        return
    expected = json.loads(GOLDEN_PATH.read_text())
    assert sorted(actual) == sorted(expected), (
        "function set changed; rerun with --update-goldens"
    )
    changed = [
        f"{name}: {key}"
        for name in sorted(expected)
        for key in sorted(expected[name])
        if actual[name][key] != expected[name][key]
    ]
    if changed:
        pytest.fail(
            "pass output diverged from goldens/passes.json.  If intentional, "
            "rerun with --update-goldens and commit.\n" + "\n".join(changed)
        )
