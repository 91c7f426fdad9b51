"""``benchmarks/generate_report.py`` keeps the EXPERIMENTS.md sections it
does not measure.

Every ``section_*`` function is stubbed to return the section it writes
in the current EXPERIMENTS.md, so the run is instant and the only thing
under test is how the measured and the hand-written sections are merged.
"""

from __future__ import annotations

import inspect
import re
import shutil
from pathlib import Path

from benchmarks import generate_report

EXPERIMENTS = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


def _headings(text: str):
    return re.findall(r"^## .*$", text, re.M)


def _stub_sections(monkeypatch, text: str) -> int:
    by_key = {generate_report._key(s): s for s in generate_report._sections(text)}
    stubbed = 0
    for name, fn in list(vars(generate_report).items()):
        if name.startswith("section_") and inspect.isfunction(fn):
            key = re.search(r'"## (.*?)(?: — |")', inspect.getsource(fn)).group(1)
            monkeypatch.setattr(generate_report, name, lambda *_, text=by_key[key]: text)
            stubbed += 1
    return stubbed


def test_regenerating_keeps_every_heading(tmp_path, monkeypatch):
    original = EXPERIMENTS.read_text()
    assert _stub_sections(monkeypatch, original) == 17
    out = tmp_path / "EXPERIMENTS.md"
    shutil.copy(EXPERIMENTS, out)
    generate_report.main(["--out", str(out)])
    assert _headings(out.read_text()) == _headings(original)


def test_kept_sections_go_in_number_order(tmp_path, monkeypatch):
    original = EXPERIMENTS.read_text()
    _stub_sections(monkeypatch, original)
    sections = generate_report._sections(original)
    hand_written = [s for s in sections if s.startswith(("## E15 ", "## E17 "))]
    assert len(hand_written) == 2
    # Out of order, at the end, and a new experiment first.
    shuffled = [s for s in sections if s not in hand_written]
    shuffled = ["## E99 — later\n\nnew\n"] + shuffled + hand_written[::-1]
    out = tmp_path / "EXPERIMENTS.md"
    out.write_text("# header\n\n" + "".join(shuffled))
    generate_report.main(["--out", str(out)])
    assert _headings(out.read_text()) == _headings(original) + ["## E99 — later"]
