"""Emitted-code goldens: the C text and RISC-V image of every program.

For the 9 Table 2 programs and the query corpus, at ``-O0`` and ``-O1``,
``goldens/emitted.json`` pins the sha256 of the printed C function and
of the linked RISC-V ``instrs`` plus ``data`` segment.  That fixes the
order of inline-table declarations in C, the RISC-V data layout, the
stack-slot order and the constant pool: a diff here means a backend (or
a traversal it relies on) now emits different code.

Intentional changes: rerun with ``--update-goldens`` and commit the new
file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.programs import all_programs
from repro.query.programs import all_query_programs
from repro.riscv.compiler import compile_function

GOLDEN_PATH = Path(__file__).parent / "goldens" / "emitted.json"
LEVELS = (0, 1)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def emitted_digests(program, level: int) -> dict:
    compiled = program.compile(opt_level=level)
    image = compile_function(compiled.bedrock_fn)
    instrs = "\n".join(repr(instr) for instr in image.instrs).encode()
    return {
        "c": _sha256(compiled.c_source().encode()),
        "riscv": _sha256(instrs + b"\0" + image.data),
    }


def _all_digests() -> dict:
    programs = list(all_programs()) + list(all_query_programs())
    return {
        f"{program.name}-O{level}": emitted_digests(program, level)
        for program in programs
        for level in LEVELS
    }


def test_emitted_code_matches_golden(request):
    actual = _all_digests()
    if request.config.getoption("--update-goldens"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        return
    expected = json.loads(GOLDEN_PATH.read_text())
    assert sorted(actual) == sorted(expected), (
        "program set changed; rerun with --update-goldens"
    )
    changed = [
        f"{key}: {kind}"
        for key in sorted(expected)
        for kind in ("c", "riscv")
        if actual[key][kind] != expected[key][kind]
    ]
    if changed:
        pytest.fail(
            "emitted code diverged from goldens/emitted.json.  If "
            "intentional, rerun with --update-goldens and commit.\n"
            + "\n".join(changed)
        )
