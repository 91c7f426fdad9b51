"""Offline cache maintenance: the ``repro cache verify|gc|repair`` sweeps.

The serving layer already defends itself online -- every load is
digest-checked and re-validated, and rejected entries are moved to the
quarantine directory -- but a long-lived cache also wants offline
hygiene: find the corrupt entries *before* a tenant pays the
invalidated-load latency (``verify``), sweep the debris a SIGKILLed
writer can leave behind (``gc``: orphaned ``*.tmp`` spools, stale
``*.lock`` files, old quarantine bodies), and recompile what was lost
(``repair``).

``verify`` runs the spec-independent half of the load-path checks --
JSON shape, schema version, address/key agreement, payload digest,
AST + certificate decode, definite-assignment well-formedness, the
structural certificate check, and the errors-only dataflow lint without
a spec (uninitialized reads, stack-pointer misuse, inline-table
overruns: RB201/RB204/RB205/RB302).  The spec-*dependent* checks (name
match, the RB206 footprint lint) still run on every load, so a
``verify``-clean cache is necessary but not sufficient -- exactly the
untrusted-cache trust model, swept earlier.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.serve.cache import (
    LOCK_STALE_SECONDS,
    QUARANTINE_DIR,
    CacheRejected,
    CompilationCache,
)


@dataclass
class SweepReport:
    """What one ``verify`` / ``gc`` / ``repair`` pass saw and did."""

    action: str
    root: str
    scanned: int = 0
    ok: int = 0
    corrupt: List[dict] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    repaired: List[dict] = field(default_factory=list)
    unrepairable: List[dict] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        if self.action == "repair":
            # Corruption that was found *and fixed* is a clean outcome.
            return not self.unrepairable
        return not self.corrupt and not self.unrepairable

    def to_dict(self) -> dict:
        return {
            "action": self.action,
            "root": self.root,
            "scanned": self.scanned,
            "ok": self.ok,
            "corrupt": list(self.corrupt),
            "quarantined": list(self.quarantined),
            "removed": list(self.removed),
            "repaired": list(self.repaired),
            "unrepairable": list(self.unrepairable),
            "clean": self.clean,
        }

    def render(self) -> str:
        lines = [
            f"cache {self.action}: {self.root}",
            f"  scanned     {self.scanned}",
            f"  ok          {self.ok}",
        ]
        for finding in self.corrupt:
            lines.append(f"  corrupt     {finding['key'][:16]}…  {finding['reason']}")
        for key in self.quarantined:
            lines.append(f"  quarantined {key[:16]}…")
        for path in self.removed:
            lines.append(f"  removed     {os.path.relpath(path, self.root)}")
        for entry in self.repaired:
            lines.append(
                f"  repaired    {entry['key'][:16]}…  ({entry['program']}"
                f" -O{entry['opt_level']})"
            )
        for entry in self.unrepairable:
            lines.append(
                f"  unrepairable {entry['key'][:16]}…  {entry['reason']}"
            )
        lines.append("  clean" if self.clean else "  NOT CLEAN")
        return "\n".join(lines)


def _iter_entries(root: str):
    """Yield ``(key, path)`` for every sharded entry file under ``root``."""
    try:
        shards = sorted(os.listdir(root))
    except OSError:
        return
    for shard in shards:
        shard_dir = os.path.join(root, shard)
        if shard == QUARANTINE_DIR or len(shard) != 2 or not os.path.isdir(shard_dir):
            continue
        for name in sorted(os.listdir(shard_dir)):
            if name.endswith(".json"):
                yield name[: -len(".json")], os.path.join(shard_dir, name)


def _check_entry(cache: CompilationCache, key: str, path: str) -> Optional[str]:
    """The spec-independent load checks; the rejection reason or ``None``."""
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        return f"unreadable: {exc}"
    try:
        fn, certificate, _opt_report = cache._decode_entry(key, raw)
    except CacheRejected as rejection:
        return rejection.reason
    from repro.validation.checker import first_rejection

    rejection = first_rejection(fn, certificate, lint=True)
    return None if rejection is None else rejection.reason


def verify_cache(root: str, quarantine: bool = False) -> SweepReport:
    """Re-check every entry offline; optionally quarantine the corrupt ones."""
    cache = CompilationCache(root)
    report = SweepReport(action="verify", root=root)
    for key, path in _iter_entries(root):
        report.scanned += 1
        reason = _check_entry(cache, key, path)
        if reason is None:
            report.ok += 1
            continue
        report.corrupt.append({"key": key, "reason": reason})
        if quarantine and cache.quarantine(key, reason):
            report.quarantined.append(key)
    return report


def gc_cache(root: str, lock_stale: float = LOCK_STALE_SECONDS) -> SweepReport:
    """Sweep writer debris: orphaned spools, stale locks, quarantine bodies."""
    report = SweepReport(action="gc", root=root)
    now = time.time()
    for dirpath, dirnames, filenames in os.walk(root):
        in_quarantine = os.path.basename(dirpath) == QUARANTINE_DIR
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            stale_lock = False
            if name.endswith(".lock"):
                with contextlib.suppress(OSError):
                    stale_lock = now - os.stat(path).st_mtime > lock_stale
            if name.endswith(".tmp") or stale_lock or in_quarantine:
                with contextlib.suppress(OSError):
                    os.remove(path)
                    report.removed.append(path)
        if in_quarantine:
            dirnames[:] = []
    quarantine_dir = os.path.join(root, QUARANTINE_DIR)
    if os.path.isdir(quarantine_dir) and not os.listdir(quarantine_dir):
        with contextlib.suppress(OSError):
            os.rmdir(quarantine_dir)
    return report


def repair_cache(root: str) -> SweepReport:
    """Quarantine every corrupt entry, then recompile from the registry.

    The quarantined bytes carry their own ``program`` / ``opt_level``
    claim; when :func:`~repro.programs.registry.get_program` still
    resolves that program (suite or query), a fresh
    derivation republishes the address (the new entry's key is computed
    from the request, so a lying ``program`` field simply leaves the
    old address empty -- a MISS, never a wrong serve).
    """
    report = verify_cache(root, quarantine=True)
    report.action = "repair"
    cache = CompilationCache(root)

    from repro.programs.registry import get_program
    from repro.serve.cache import compile_program_cached

    quarantine_dir = os.path.join(root, QUARANTINE_DIR)
    for finding in report.corrupt:
        key = finding["key"]
        claim = {}
        with contextlib.suppress(OSError, ValueError):
            with open(os.path.join(quarantine_dir, f"{key}.json")) as fh:
                raw = fh.read()
            try:
                body = json.loads(raw)
            except ValueError:
                # Trailing garbage or truncation: salvage the JSON prefix
                # so the program/opt_level claim survives the corruption.
                body, _ = json.JSONDecoder().raw_decode(raw)
            if isinstance(body, dict):
                claim = body
        program_name = claim.get("program")
        opt_level = claim.get("opt_level", 0)
        try:
            program = get_program(program_name)
        except KeyError as exc:
            report.unrepairable.append({"key": key, "reason": exc.args[0]})
            continue
        try:
            compiled, _outcome = compile_program_cached(
                cache, program, opt_level=int(opt_level)
            )
        except Exception as exc:  # noqa: BLE001 - keep sweeping
            report.unrepairable.append({"key": key, "reason": repr(exc)})
            continue
        report.repaired.append(
            {"key": key, "program": compiled.name, "opt_level": int(opt_level)}
        )
    return report
