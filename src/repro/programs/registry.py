"""The program registry shared by tests, validation, and benchmarks.

:func:`get_program` is the one program namespace: it resolves a Table 2
name and a query name (``repro.query.programs``) alike, so every
command, serve op, batch job and cache repair takes both.
:func:`all_programs` lists only the Table 2 suite.

A :class:`BenchProgram` bundles everything the harnesses need about one
suite entry: how to build its model and spec, how to generate inputs, how
to call the compiled/handwritten Bedrock2 functions, and which compiler
features it exercises (the checkmark columns of Table 2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bedrock2 import ast
from repro.core.spec import CompiledFunction, FnSpec, Model


class MemoizedCompile:
    """``compile`` for registry entries, shared by both registries.

    The host is a dataclass with ``_compiled``/``_optimized`` fields and
    ``build_model``/``build_spec``/``validation_input_gen``; the builders
    are looked up on the instance at every call, so a wrapper installed
    on the instance or its class sees the derivation.
    """

    _compiled: Optional[CompiledFunction]
    _optimized: Dict[int, CompiledFunction]

    def compile(self, fresh: bool = False, opt_level: int = 0) -> CompiledFunction:
        """Derive the Bedrock2 implementation (cached).

        With ``opt_level > 0`` the derived code is additionally run
        through the translation-validated optimizer (``repro.opt``),
        using this program's input generator for the per-pass
        differential checks; the result is cached per level.
        """
        from repro.obs.trace import current_tracer

        if self._compiled is None or fresh or current_tracer().enabled:
            # A flight recorder is watching: serve nothing from the cache,
            # or the trace would silently miss the derivation it exists
            # to record.
            from repro.stdlib import default_engine

            engine = default_engine()
            self._compiled = engine.compile_function(
                self.build_model(), self.build_spec()
            )
            self._optimized.clear()
        if opt_level <= 0:
            return self._compiled
        if opt_level not in self._optimized:
            self._optimized[opt_level] = self._compiled.optimize(
                opt_level, input_gen=self.validation_input_gen()
            )
        return self._optimized[opt_level]


@dataclass
class BenchProgram(MemoizedCompile):
    """One row of Table 2."""

    name: str
    description: str
    build_model: Callable[[], Model]
    build_spec: Callable[[], FnSpec]
    reference: Callable  # plain-Python spec-level implementation
    build_handwritten: Callable[[], ast.Function]  # the "handwritten C" baseline
    # How the function consumes/produces data, for the runner harnesses:
    #   "inplace"  -- (ptr, len) in, transformed buffer out
    #   "hash"     -- (ptr, len) in, scalar out
    #   "scalar"   -- scalar args in, scalar out
    calling_style: str = "hash"
    # Table 2 feature checkmarks.
    features: Tuple[str, ...] = ()
    end_to_end: bool = False
    # Input generator for differential testing / benchmarking.
    gen_input: Callable[[random.Random, int], bytes] = lambda rng, n: bytes(
        rng.randrange(256) for _ in range(n)
    )
    # Extra scalar arguments (for "scalar" style programs).
    scalar_args: Tuple[str, ...] = ()
    # Maximum input length the model's side conditions assume (documented
    # incidental facts, e.g. ip's carry-fold bound).
    max_len: Optional[int] = None

    _compiled: Optional[CompiledFunction] = field(default=None, repr=False)
    _optimized: Dict[int, CompiledFunction] = field(default_factory=dict, repr=False)

    def validation_input_gen(self):
        """The input generator differential testing should use, or None.

        ``None`` means the generic ``make_inputs`` (scalar programs);
        pointer-taking programs draw byte arrays from ``gen_input``, and
        window-style programs also need an in-range offset.  Shared by
        ``python -m repro validate``, the optimizer's per-pass checks,
        and the fault-injection tests.
        """
        if self.calling_style == "scalar":
            return None
        if self.calling_style == "window":

            def gen(rng: random.Random):
                data = self.gen_input(rng, 24)
                return {"s": list(data), "off": rng.randrange(0, len(data) - 3)}

            return gen

        return lambda rng: {"s": list(self.gen_input(rng, rng.randrange(48)))}


PROGRAMS: Dict[str, BenchProgram] = {}


def register_program(program: BenchProgram) -> BenchProgram:
    if program.name in PROGRAMS:
        raise ValueError(f"duplicate program {program.name!r}")
    PROGRAMS[program.name] = program
    return program


def get_program(name: str) -> MemoizedCompile:
    """The program called ``name``: the one lookup from a name to a program.

    Every command, serve op, batch job and cache repair resolves names
    here.  The Table 2 suite is searched first, then the query registry
    (imported lazily: ``repro.query.programs`` imports this module).
    An unknown name -- or a non-string one, as a JSON request or a
    corrupt cache entry may carry -- raises one :class:`KeyError` whose
    message points at both listings.
    """
    _load_all()
    if isinstance(name, str):
        program = PROGRAMS.get(name)
        if program is None:
            from repro.query.programs import QUERY_PROGRAMS

            program = QUERY_PROGRAMS.get(name)
        if program is not None:
            return program
    raise KeyError(
        f"unknown program {name!r}; see `python -m repro list` "
        "or `python -m repro query list`"
    )


_LOADED = False


def _load_all() -> None:
    global _LOADED
    if _LOADED:
        return
    from repro.programs import (  # noqa: F401
        crc32,
        fasta,
        fnv1a,
        ip,
        m3s,
        sbox,
        upstr,
        utf8,
        xorsum,
    )

    _LOADED = True


def all_programs() -> List[BenchProgram]:
    _load_all()
    return [PROGRAMS[name] for name in sorted(PROGRAMS)]
