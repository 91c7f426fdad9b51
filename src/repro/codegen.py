"""The generated-code core of the two executable semantics.

Every verdict rests on two executable semantics (DESIGN.md §7): the
Bedrock2 executor (:mod:`repro.bedrock2.closures`) and the model
evaluator (:mod:`repro.source.closures`).  Each turns a tree (a Bedrock2
``Function``, a model ``Term``) and a word width into the source of one
Python module, helpers first and then ``run``, compiles it with
:func:`compile` and loads it with ``exec``.  This module holds what the
two share and knows neither language:

- the nesting limits, :data:`MAX_INDENT` and :data:`MAX_BLOCKS`, past
  which a generator moves a statement into a helper function;
- :class:`Module`, the namespace of one generated module: constants
  interned into ``k0, k1, ...`` names (:meth:`Module.const`),
  temporaries (:meth:`Module.fresh`) and the assembled source
  (:meth:`Module.source`);
- :class:`Compiled`, a generated source and the ``run`` it defines;
- the cache pair, below.

No string of a tree is spliced into a source: names, messages, tables
and any other non-int value are namespace constants, and only ints are
rendered, as ``repr(int(...))``.

The cache pair: compiled trees live in one process-wide cache keyed by
tree identity and held through a weakref (:func:`compiled`), so one
compile serves every run over the same tree and an entry dies with its
tree; behind it, code objects live in one LRU of
:data:`CODE_CACHE_SIZE` entries keyed by the generated source, so
structurally identical trees (a re-derived program, an unchanged pass
candidate, models that differ only in constants) are compiled by CPython
once.  Both languages share both caches: a tree is one language's, and
the two ``def run(`` headers differ, so no source of one is a source of
the other.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from types import CodeType
from typing import Callable, Dict, Sequence, Tuple

#: Generated code nests at most this deep (indentation levels, and
#: loop/``try`` blocks) before a generator moves a statement into a
#: helper function; CPython allows 100 and 20.
MAX_INDENT = 48
MAX_BLOCKS = 12

#: Code objects kept by the source-keyed LRU, for both languages.
CODE_CACHE_SIZE = 256


def _typed(value: object) -> Tuple[type, object]:
    """``value`` tagged with its type, and each tuple item with its own."""
    if type(value) is tuple:
        return tuple, tuple(_typed(item) for item in value)
    return type(value), value


class Module:
    """The namespace and the names of one generated module.

    ``runtime`` is what every namespace of the language starts with.
    """

    def __init__(self, runtime: Dict[str, object]):
        self.namespace = dict(runtime)
        self.consts: Dict[object, str] = {}
        self.temps = 0

    def const(self, value: object) -> str:
        """The namespace name holding ``value``.

        Equal hashable values share a name when they and their tuple
        items, at every depth, have the same types (``(1,)`` and
        ``(True,)`` are equal, but not interchangeable); any other value
        gets its own.
        """
        try:
            key = _typed(value)
            hash(key)
        except TypeError:
            key = id(value)
        name = self.consts.get(key)
        if name is None:
            name = self.consts[key] = f"k{len(self.consts)}"
            self.namespace[name] = value
        return name

    def fresh(self, prefix: str = "t") -> str:
        """A new temporary name."""
        self.temps += 1
        return f"{prefix}{self.temps}"

    def source(self, *functions: Sequence[str]) -> Tuple[str, Dict[str, object]]:
        """The module of ``functions`` (each a list of lines; the helpers
        first, ``run`` last) and its namespace."""
        return "".join(line + "\n" for lines in functions for line in lines), self.namespace


class Compiled:
    """A tree compiled for one word width: its generated ``source`` and
    the function ``run`` that source defines in its namespace."""

    __slots__ = ("source", "run")

    def __init__(self, source: str, namespace: Dict[str, object], filename: str):
        self.source = source
        exec(_code(source, filename), namespace)
        self.run = namespace["run"]


# -- The cache pair -----------------------------------------------------------------

_CACHE: Dict[int, Tuple[weakref.ref, Dict[int, Compiled]]] = {}
_CODE: "OrderedDict[str, CodeType]" = OrderedDict()
_CODE_LOCK = threading.Lock()


def _evictor(key: int):
    def evict(ref) -> None:
        entry = _CACHE.get(key)
        if entry is not None and entry[0] is ref:
            del _CACHE[key]

    return evict


def _code(source: str, filename: str) -> CodeType:
    """``source`` compiled, from the LRU or compiled once now."""
    with _CODE_LOCK:
        code = _CODE.get(source)
        if code is not None:
            _CODE.move_to_end(source)
            return code
    code = compile(source, filename, "exec")
    with _CODE_LOCK:
        _CODE[source] = code
        if len(_CODE) > CODE_CACHE_SIZE:
            _CODE.popitem(last=False)
    return code


def compiled(tree: object, width: int, build: Callable[[object, int], Compiled]) -> Compiled:
    """``tree`` compiled for ``width``, from the cache or by ``build`` now."""
    key = id(tree)
    entry = _CACHE.get(key)
    if entry is None or entry[0]() is not tree:
        try:
            ref = weakref.ref(tree, _evictor(key))
        except TypeError:  # a slotted extension node without __weakref__
            return build(tree, width)
        entry = (ref, {})
        _CACHE[key] = entry
    code = entry[1].get(width)
    if code is None:
        code = entry[1][width] = build(tree, width)
    return code
