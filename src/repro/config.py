"""Which proof-search speed layers are on: one frozen value per process.

The proof search is deterministic first-match (paper §3.1), so the
layers below change how fast a derivation is found, never which one:

- ``fast_search`` -- head-indexed lemma dispatch (:mod:`repro.core.lemma`),
  hash-consed terms and their identity-keyed node memos
  (:mod:`repro.source.terms`), and the per-derivation subterm and
  side-condition memos (:mod:`repro.core.engine`);
- ``range_cache`` -- the per-state cache of abstract-interpretation
  fact-range maps (:func:`repro.analysis.absint.terms.state_ranges`).

``tests/core/test_dispatch_equivalence.py`` compiles every registry,
query and fuzz program under all four configurations and holds them
byte-identical, so no CLI flag or environment variable selects them
(DESIGN §7).  Tests and benchmarks reach the reference paths through
:func:`engine_config`, the only setter.  Engines snapshot the value at
construction; term construction, the solver's node memos, the serve
fingerprint and the range cache read it live.

This module imports nothing from ``repro``, so any layer may read it.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Iterator


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    fast_search: bool = True
    range_cache: bool = True


_CURRENT = EngineConfig()


def current_config() -> EngineConfig:
    return _CURRENT


@contextmanager
def engine_config(**changes: bool) -> Iterator[EngineConfig]:
    """Run the block under ``current_config()`` with ``changes`` applied.

    The previous value comes back on exit, also when the block raises.
    Unknown field names raise ``TypeError`` before anything changes.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = dataclasses.replace(previous, **changes)
    try:
        yield _CURRENT
    finally:
        _CURRENT = previous
