"""A deep embedding of Bedrock2, Rupicola's target language.

Bedrock2 (Erbsen et al., PLDI 2021) is an untyped, C-like imperative
language with a flat byte-addressed memory, a map of local variables
holding machine words, and an event trace recording externally observable
I/O.  This package provides:

- :mod:`repro.bedrock2.word` -- fixed-width two's-complement machine words;
- :mod:`repro.bedrock2.ast` -- expression and statement syntax trees;
- :mod:`repro.bedrock2.memory` -- the flat memory model;
- :mod:`repro.bedrock2.semantics` -- a fuel-based big-step interpreter
  (Bedrock2 semantics only give meaning to terminating programs, so
  executions are total-correctness witnesses): state, op counters and
  the operator table;
- :mod:`repro.bedrock2.closures` -- its executor, each function compiled
  once into one generated Python function over raw words;
- :mod:`repro.bedrock2.c_printer` -- the small pretty-printer to C.
"""

from repro.bedrock2.word import Word, BitWidth
from repro.bedrock2 import ast
from repro.bedrock2.memory import Memory, MemoryError_
from repro.bedrock2.semantics import Interpreter, ExecutionError, OutOfFuel, MachineState
from repro.bedrock2.c_printer import print_c_function, print_c_program

__all__ = [
    "Word",
    "BitWidth",
    "ast",
    "Memory",
    "MemoryError_",
    "Interpreter",
    "ExecutionError",
    "OutOfFuel",
    "MachineState",
    "print_c_function",
    "print_c_program",
]
