"""Every lint call in this directory doubles as an errors-only check.

The autouse fixture wraps :func:`repro.analysis.dataflow.lint_function`
where the suites here reach it -- the module attribute the trusted chain
resolves at call time, and the ``lint_function``/``range_lint`` names a
test module imported -- so each hand-built dirty fixture (the dataflow
defects, the RB3xx range cases, the tampered cache entries, the golden
inputs) also asserts that both lint modes agree on it.
"""

from __future__ import annotations

import pytest

from repro.analysis import dataflow
from tests.analysis import test_lint_errors_only
from tests.analysis.test_lint_errors_only import assert_modes_agree


@pytest.fixture(autouse=True)
def lint_modes_agree(request, monkeypatch):
    if request.module is test_lint_errors_only:
        return  # it makes the comparison explicitly
    real = dataflow.lint_function

    def lint_function(fn, spec=None, **kwargs):
        assert_modes_agree(fn, spec, lint=real)
        return real(fn, spec, **kwargs)

    monkeypatch.setattr(dataflow, "lint_function", lint_function)
    module = request.module
    if getattr(module, "lint_function", None) is real:
        monkeypatch.setattr(module, "lint_function", lint_function)
    range_lint = getattr(module, "range_lint", None)
    if range_lint is not None:

        def checked_range_lint(fn, *args, **kwargs):
            assert_modes_agree(fn, lint=real)
            return range_lint(fn, *args, **kwargs)

        monkeypatch.setattr(module, "range_lint", checked_range_lint)
