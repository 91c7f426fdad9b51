"""Campaign-report goldens: the ``--json`` reports are pinned byte for byte.

Every per-case seed is drawn from the campaign's master stream and every
trusted check is deterministic, so a fixed seed yields the same report
on every run and every ``--jobs`` count.  A diff here means a checker
now rejects (or lets through) something it did not before, or a
rejection is named differently.

Intentional changes: rerun with ``--update-goldens`` and commit the new
files.
"""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest

from repro.__main__ import main

GOLDEN_DIR = Path(__file__).parent / "goldens"

CAMPAIGNS = {
    "faults_seed0": ["faults", "--seed", "0", "--json"],
    "lift_faults_seed0": ["faults", "--lift", "--seed", "0", "--json"],
    "fuzz_seed0_budget40": [
        "fuzz", "--seed", "0", "--budget", "40", "--trials", "4", "--json",
    ],
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_report_matches_golden(name, request, capsys):
    assert main(CAMPAIGNS[name]) == 0
    actual = capsys.readouterr().out
    golden_path = GOLDEN_DIR / f"{name}.json"

    if request.config.getoption("--update-goldens"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(actual)
        return

    expected = golden_path.read_text()
    if actual != expected:
        diff = "\n".join(
            difflib.unified_diff(
                expected.splitlines(),
                actual.splitlines(),
                fromfile=f"goldens/{name}.json",
                tofile=f"repro {' '.join(CAMPAIGNS[name])}",
                lineterm="",
                n=2,
            )
        )
        pytest.fail(
            f"campaign report {name!r} diverged from its golden file.  If "
            f"intentional, rerun with --update-goldens and commit.\n{diff}"
        )
