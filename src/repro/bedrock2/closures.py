"""The Bedrock2 executor: each function compiled once into Python source.

This module is the executable semantics of Bedrock2 that every verdict
rests on (DESIGN.md §7).  For each ``Function`` and word width it
generates the source of one Python function, which :mod:`repro.codegen`
(shared with the model evaluator) compiles, loads and caches.
In the generated function

- Bedrock2 locals are Python locals holding masked ``int`` s, fuel is a
  local too, and so is each ``OpCounts`` field, added into the
  interpreter's counts in a ``finally``;
- each ``EOp`` is inlined from its template in
  :data:`~repro.bedrock2.semantics.OP_TEMPLATES`, the templates
  :data:`~repro.bedrock2.semantics.RAW_OPS` is built from, without the
  template's final mask where :meth:`_Generator.reach` bounds the value
  by the mask already;
- loads and stores read and write a region's ``bytearray`` in place,
  through precompiled ``struct`` codecs for 2, 4 and 8 bytes (``_u2``
  ... ``unpack_from``, ``_p2`` ... ``pack_into``; inline-table reads use
  the same ``_u`` codecs), each after its region or table check.
  Accesses whose addresses are based on the same local (the first one
  reached through additions) share a cache of the last region
  ``Memory.region`` gave them, locals ``mb0``/``me0``/``mbuf0``, ...;
  only an access outside it calls ``Memory.region`` again.  Every cache
  is emptied after each ``mem.free``, call, external action and
  outlined-helper call, the only code that can free a region, and
  ``Memory``'s read and write counts are added in the ``finally``;
- ``Interpreter.call_function`` and the external handler are called
  once per statement that reaches them.

``run(interp, state, f, *args)`` takes the arguments as masked ints and
returns the results as a tuple of them; ``Interpreter`` keeps it per
function name, and ``call_function`` passes it the ints of the argument
``Word`` s and boxes only the results.

The bound rule: every local holds a masked int (arguments are the ints
of ``Word`` s of the width, every value the code makes is masked or
bounded by the mask, and ``_interact`` masks what a handler leaves), so
a local is at most the mask.  Past a loop test ``i <u e``, ``i < e <=
mask``, so until the body's first statement that can assign ``i`` on
some path, ``i <= mask - 1`` and ``i + 1`` needs no mask.  A literal,
an n-byte load or table read, ``&``, a shift by a literal, ``+`` and
``*`` carry bounds up from their operands; an ``add``, ``mul`` or
``slu`` whose bound is at most the mask drops its mask.  Every ``EOp``
is still counted.

The big-step rules of Box 2 are kept in order: the fuel check at each
statement entry and one unit of fuel per executed statement (``SCall``
passes ``fuel - 1`` to the callee and charges the caller one unit), the
``Memory`` region checks, inline-table bounds, and the unbound-local,
arity and missing-return errors.  One exception to where fuel is
checked: a fuel-static loop (its body holds no loop, call, external
action or stack frame, and no branch of it moves into a helper) is
emitted twice.  ``while f >= K:``, with ``K`` the most fuel one
iteration can spend, runs whole iterations with no fuel check, since
none could fail, and counts them in one trip counter ``n<i>`` in place
of the per-field counts every path of an iteration makes (branch arms
keep their own); its ``else`` is the loop with every check, which runs
the iterations left once the fuel is short.  Fuel and count updates of
straight-line code are summed and written out where they can next be
observed (before a call out, at a loop head, at the end of a branch),
and every code path that raises writes them out first, so the counts an
exception leaves behind are those of the statements executed so far.
The tree-walker this executor replaced is kept as a test oracle,
``tests/bedrock2/tree_walker.py``, and
``tests/bedrock2/test_exec_equivalence.py`` holds the two to that
contract.  A ``while`` or ``if`` nested deeper than CPython allows in
one function moves into a helper function that takes and returns every
local.

Bedrock2 names map to identifiers the generator makes (``v0``, ``v1``,
...); function and action names, messages and inline tables are
namespace constants (``k0``, ...).  Reads the sound must-defined pass
(:func:`repro.bedrock2.wellformed.bound_at_entry`) does not prove bound
check for the unset sentinel, which ``SUnset`` stores.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro import codegen
from repro.bedrock2 import ast, wellformed
from repro.bedrock2.memory import MemoryError_
from repro.bedrock2.semantics import (
    OP_TEMPLATES,
    OP_TESTS,
    ExecutionError,
    IOEvent,
    MachineState,
    OutOfFuel,
    render_op,
)
from repro.bedrock2.word import Word

_FUEL = "ran out of fuel (nonterminating loop?)"


#: The operators with a bound rule whose template masks its value.
_MASKING = ("add", "mul", "slu")


class _Unset:
    """The value of a local that is not bound (never set, or ``SUnset``)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<unset>"


_UNSET = _Unset()


def _unbound(name: str) -> ExecutionError:
    return ExecutionError(f"unbound local variable {name!r}")


def _table_overrun(size: int, offset: int, length: int) -> ExecutionError:
    return ExecutionError(
        f"inline-table read of {size} byte(s) at offset {offset} "
        f"exceeds table length {length}"
    )


def _bad_rets(func: str, rets: Sequence, expected: int) -> ExecutionError:
    return ExecutionError(f"{func} returned {len(rets)} values, expected {expected}")


def _interact(external, state, width, action, args, names, values, extras, count):
    """Run ``external`` on a frame of words.

    The handler sees (and may edit) the bound locals, ``values`` in the
    order of ``names``, plus the ``extras`` it added earlier.  Returns the
    locals as it left them, its other additions, and its results.
    """
    words = {name: Word(width, value) for name, value in zip(names, values)
             if value is not _UNSET}
    words.update(extras)
    frame = MachineState(state.memory, words, state.trace)
    rets = list(external(action, [Word(width, arg) for arg in args], frame))
    left = dict(frame.locals)
    # Masked, so every local holds at most the mask whatever the handler
    # did (the generator's bounds rest on it).
    mask = (1 << width) - 1
    values = tuple(left.pop(name).unsigned & mask if name in left else _UNSET
                   for name in names)
    frame.trace.append(IOEvent(action, tuple(args), tuple(ret.unsigned for ret in rets)))
    if len(rets) != count:
        raise ExecutionError(
            f"action {action!r} returned {len(rets)} values, expected {count}"
        )
    return values, left, [ret.unsigned & mask for ret in rets]


#: The little-endian codec of each wide access size.
_CODECS = {size: struct.Struct(code) for size, code in ((2, "<H"), (4, "<I"), (8, "<Q"))}

#: What every generated namespace starts with.
_RUNTIME = {
    "_U": _UNSET,
    "_FUEL": _FUEL,
    **{f"_u{size}": codec.unpack_from for size, codec in _CODECS.items()},
    **{f"_p{size}": codec.pack_into for size, codec in _CODECS.items()},
    "_unbound": _unbound,
    "_table_overrun": _table_overrun,
    "_bad_rets": _bad_rets,
    "_interact": _interact,
    "OutOfFuel": OutOfFuel,
    "ExecutionError": ExecutionError,
    "MemoryError_": MemoryError_,
    "Word": Word,
}


def _build(fn: ast.Function, width: int) -> codegen.Compiled:
    """``fn``'s body compiled for ``width``, as a ``run`` taking and
    returning masked ints (see the module docstring)."""
    return codegen.Compiled(*_Generator(fn, width).generate(), "<bedrock2>")


def compiled(fn: ast.Function, width: int) -> codegen.Compiled:
    """``fn`` compiled for ``width``, from the cache or compiled once now."""
    return codegen.compiled(fn, width, _build)


# -- The generator ----------------------------------------------------------------


def _root(addr: ast.Expr):
    """The local ``addr`` is based on: the first reached through additions."""
    todo = [addr]
    while todo:
        e = todo.pop()
        if isinstance(e, ast.EVar):
            return e.name
        if isinstance(e, ast.EOp) and e.op == "add":
            todo += (e.rhs, e.lhs)
    return None


def _scan(fn: ast.Function) -> Tuple[List[str], List[object]]:
    """Every local ``fn`` mentions (arguments first, then in pre-order),
    and the distinct roots of its load and store addresses."""
    names = dict.fromkeys(fn.args)
    roots: Dict[object, None] = {}
    for stmt in ast.walk_stmts(fn.body):
        if isinstance(stmt, ast.SUnset):
            names[stmt.name] = None
        elif isinstance(stmt, ast.SStore):
            roots[_root(stmt.addr)] = None
        names.update(dict.fromkeys(ast.defined_names(stmt)))
        for root in ast.node_exprs(stmt):
            for expr in ast.walk_exprs(root):
                if isinstance(expr, ast.EVar):
                    names[expr.name] = None
                elif isinstance(expr, ast.ELoad):
                    roots[_root(expr.addr)] = None
    names.update(dict.fromkeys(fn.rets))
    return list(names), list(roots)


def _static_cost(s: ast.Stmt) -> Optional[Tuple[int, int]]:
    """The most fuel one run of ``s`` spends and how deep its branches
    nest, or ``None`` when ``s`` holds a loop, a call, an external action
    or a stack frame."""
    fuel = depth = 0
    for leaf in ast.flatten(s):
        if isinstance(leaf, ast.SCond):
            arms = (_static_cost(leaf.then_), _static_cost(leaf.else_))
            if None in arms:
                return None
            fuel += 1 + max(arm[0] for arm in arms)
            depth = max(depth, 1 + max(arm[1] for arm in arms))
        elif isinstance(leaf, (ast.SSet, ast.SUnset, ast.SStore)):
            fuel += 1
        else:
            return None
    return fuel, depth


def _atomic(code: str) -> bool:
    return code.isidentifier() or code.isdigit()


class _Pending:
    """Fuel spent and counts made since they were last written out."""

    __slots__ = ("fuel", "counts")

    def __init__(self, fuel: int = 0, counts: Dict[str, int] = None):
        self.fuel = fuel
        self.counts = dict(counts) if counts else {}

    def count(self, field: str) -> None:
        self.counts[field] = self.counts.get(field, 0) + 1

    def copy(self) -> "_Pending":
        return _Pending(self.fuel, self.counts)

    def meet(self, other: "_Pending") -> "_Pending":
        """What both have pending."""
        counts = {k: min(n, other.counts[k])
                  for k, n in self.counts.items() if k in other.counts}
        return _Pending(min(self.fuel, other.fuel), counts)

    def minus(self, other: "_Pending") -> "_Pending":
        counts = {k: n - other.counts.get(k, 0) for k, n in self.counts.items()}
        return _Pending(self.fuel - other.fuel, {k: n for k, n in counts.items() if n})


class _Check(str):
    """A line checking the fuel, which a fast loop leaves out."""

    __slots__ = ()


class _Body:
    """The lines of one generated Python function."""

    def __init__(self):
        self.lines: List[str] = []
        self.indent = 2  # inside ``def`` and ``try``
        self.blocks = 1  # the ``try``
        self.counters: set = set()
        self.trips: List[Tuple[str, Dict[str, int]]] = []  # fast loops' trip counters
        self.binds: set = set()  # runtime objects the prologue fetches
        self.caches: set = set()  # region caches the body uses

    def emit(self, line: str) -> None:
        self.lines.append(" " * self.indent + line)


#: Prologue lines fetching the runtime objects a body uses.
_BINDS = (
    ("mem", "mem = state.memory"),
    ("cf", "cf = interp.call_function"),
    ("ext", "ext = interp.external"),
    ("si", "si = interp.stack_init"),
)


#: The ``OpCounts`` field each ``Memory`` access counter follows.
_ACCESS_COUNTS = (("load", "read_count"), ("store", "write_count"))


class _Generator(codegen.Module):
    """Generates the source of one ``Function`` for one width."""

    def __init__(self, fn: ast.Function, width: int):
        super().__init__(_RUNTIME)
        self.fn = fn
        self.width = width
        self.mask = (1 << width) - 1
        names, roots = _scan(fn)
        self.var = {name: f"v{index}" for index, name in enumerate(names)}
        self.entry, self.exit = wellformed.bound_at_entry(fn, names)
        self.helpers: List[List[str]] = []
        self.guarded: set = set()  # locals some read checks, so must start unset
        self.interacts = any(isinstance(s, ast.SInteract) for s in ast.walk_stmts(fn.body))
        # One region cache per address root, named by its suffix.
        self.caches = {root: str(index) for index, root in enumerate(roots)}
        self.below: frozenset = frozenset()  # locals at most ``mask - 1``, see ``reach``
        self.limits: Dict[int, int] = {}  # ``limit`` per expression node
        self.assigned: Dict[int, frozenset] = {}  # ``assigns`` per compound statement

    # -- temporaries --

    def spill(self, code: str, b: _Body) -> str:
        """``code`` as an identifier or literal, through a temporary if needed."""
        if _atomic(code):
            return code
        name = self.fresh()
        b.emit(f"{name} = {code}")
        return name

    # -- pending fuel and counts --

    def counts_code(self, p: _Pending, b: _Body) -> str:
        """Statements adding ``p``'s counts, each followed by ``; ``."""
        b.counters.update(p.counts)
        return "".join(f"c_{field} += {n}; " for field, n in p.counts.items())

    def fail(self, p: _Pending, b: _Body, test: str, error: str) -> None:
        """Raise ``error`` when ``test`` holds, with the counts written out."""
        b.emit(f"if {test}: {self.counts_code(p, b)}raise {error}")

    def flush_counts(self, p: _Pending, b: _Body) -> None:
        if p.counts:
            b.emit(self.counts_code(p, b)[:-2])
            p.counts.clear()

    def settle(self, p: _Pending, b: _Body) -> None:
        self.flush_counts(p, b)
        if p.fuel:
            b.emit(f"f -= {p.fuel}")
            p.fuel = 0

    def check_fuel(self, p: _Pending, b: _Body) -> None:
        self.fail(p, b, f"f <= {p.fuel}", "OutOfFuel(_FUEL)")
        b.lines[-1] = _Check(b.lines[-1])

    # -- expressions --

    def limit(self, e: ast.Expr) -> int:
        """The largest value the code for ``e`` can have: :meth:`reach`
        capped by the mask (every value is masked, or shown not to need
        it), memoized per node."""
        if isinstance(e, ast.EVar):
            return self.mask - 1 if e.name in self.below else self.mask
        if isinstance(e, ast.ELit):
            return int(e.value) & self.mask
        top = self.limits.get(id(e))
        if top is None:
            top = self.reach(e)
            top = self.limits[id(e)] = self.mask if top is None else min(top, self.mask)
        return top

    def reach(self, e: ast.Expr) -> Optional[int]:
        """A bound on ``e``'s value before its operator's mask, if any, or
        ``None``.  :meth:`op` leaves out the mask of an ``EOp`` whose
        bound is at most the mask.

        Every local holds a masked int, so a local is at most the mask,
        and one in ``below`` at most ``mask - 1``.  A literal is its value,
        an n-byte load or table read is below ``2 ** (8 * n)``; ``a & b``
        is at most the smaller of their limits, ``a >> k`` and ``a << k``
        with ``k`` a literal ``a``'s limit shifted, ``a + b`` and ``a * b``
        the sum and the product of the limits.
        """
        if isinstance(e, ast.EOp):
            op = e.op
            if op == "add":
                return self.limit(e.lhs) + self.limit(e.rhs)
            if op == "and":
                return min(self.limit(e.lhs), self.limit(e.rhs))
            if op == "mul":
                return self.limit(e.lhs) * self.limit(e.rhs)
            if op in ("sru", "slu") and isinstance(e.rhs, ast.ELit):
                shift = (int(e.rhs.value) & self.mask) % self.width
                top = self.limit(e.lhs)
                return top >> shift if op == "sru" else top << shift
            return None
        if isinstance(e, (ast.ELoad, ast.EInlineTable)):
            return (1 << 8 * int(e.size)) - 1
        return self.limit(e)  # a local or a literal

    def bind_below(self, below: frozenset) -> None:
        """Make ``below`` the locals known to be below the mask; the
        expression bounds reset."""
        self.below = below
        self.limits = {}

    def expr(self, e: ast.Expr, bound: set, p: _Pending, b: _Body) -> str:
        """Python code for ``e``: an identifier, a literal, or parenthesized.

        Parts that can fail (unbound reads, loads, table reads) are
        emitted as lines first, in evaluation order; the rest is pure and
        stays inline.
        """
        if isinstance(e, ast.ELit):
            return repr(int(e.value) & self.mask)
        if isinstance(e, ast.EVar):
            var = self.var[e.name]
            if e.name not in bound:
                self.guarded.add(var)
                self.fail(p, b, f"{var} is _U", f"_unbound({self.const(e.name)})")
                bound.add(e.name)
            return var
        if isinstance(e, ast.EOp):
            return self.op(e, bound, p, b, test=False)
        if isinstance(e, ast.ELoad):
            addr = self.spill(self.expr(e.addr, bound, p, b), b)
            size = int(e.size)
            p.count("load")
            c = self.caches[_root(e.addr)]
            offset = self.region(addr, size, c, "read_count", p, b)
            value = self.fresh()
            if size == 1:
                b.emit(f"{value} = mbuf{c}[{offset}]")
            else:
                b.emit(f"{value} = _u{size}(mbuf{c}, {offset})[0]")
            return value if 8 * size <= self.width else f"({value} & {self.mask!r})"
        if isinstance(e, ast.EInlineTable):
            index = self.spill(self.expr(e.index, bound, p, b), b)
            size, length, table = int(e.size), len(e.data), self.const(bytes(e.data))
            p.count("table")
            self.fail(
                p, b, f"{index} + {size!r} > {length!r}",
                f"_table_overrun({size!r}, {index}, {length!r})",
            )
            if size == 1:
                return f"{table}[{index}]"
            value = f"_u{size}({table}, {index})[0]"
            return value if 8 * size <= self.width else f"({value} & {self.mask!r})"
        raise TypeError(f"unknown expression node {e!r}")

    def op(self, e: ast.EOp, bound: set, p: _Pending, b: _Body, test: bool) -> str:
        lhs = self.expr(e.lhs, bound, p, b)
        rhs = self.expr(e.rhs, bound, p, b)
        p.count("arith")
        template = OP_TEMPLATES[e.op]
        # An operand the template reads twice is evaluated once, and deep
        # expressions are cut into temporaries (CPython nests 200 deep).
        if template.count("{a}") > 1 or lhs.count("(") > 32:
            lhs = self.spill(lhs, b)
        if template.count("{b}") > 1 or rhs.count("(") > 32:
            rhs = self.spill(rhs, b)
        masked = test or not self.mask_idle(e)
        return render_op(e.op, lhs, rhs, self.width, test=test, masked=masked)

    def mask_idle(self, e: ast.EOp) -> bool:
        """Whether ``e``'s template masks a value :meth:`reach` bounds by
        the mask already, so its code can leave the mask out."""
        if e.op not in _MASKING:
            return False
        top = self.reach(e)
        return top is not None and top <= self.mask

    def condition(self, e: ast.Expr, bound: set, p: _Pending, b: _Body) -> str:
        """``e`` as a Python truth value (a comparison stays a boolean)."""
        if isinstance(e, ast.EOp) and e.op in OP_TESTS:
            return self.op(e, bound, p, b, test=True)
        return self.expr(e, bound, p, b)

    def memory_op(self, p: _Pending, b: _Body, line: str, undo: str = "") -> None:
        """``line``, a ``Memory`` call whose ``MemoryError_`` becomes an
        ``ExecutionError``, with the counts written out (and ``undo``
        run first)."""
        b.emit(f"try: {line}")
        b.emit(
            f"except MemoryError_ as e: {self.counts_code(p, b)}{undo}"
            "raise ExecutionError(str(e)) from None"
        )

    def region(self, addr: str, size: int, c: str, counter: str, p: _Pending,
               b: _Body) -> str:
        """Make ``mbuf{c}`` the buffer holding ``[addr, addr + size)``;
        returns ``addr``'s offset in it.

        Cache ``c`` keeps the region ``[mb{c}, me{c})`` of its last miss;
        an access outside it misses and asks ``Memory.region``, whose
        ``MemoryError_`` is the access's.  ``me{c} = 0`` empties the cache
        (every access has ``addr + size > 0``).  ``Memory``'s ``counter``
        gets the function's ``c_load`` or ``c_store`` at its end, so a
        failed access takes its count back here.
        """
        b.binds.add("mem")
        b.caches.add(c)
        end = f"{addr} >= me{c}" if size == 1 else f"{addr} + {size!r} > me{c}"
        b.emit(f"if {addr} < mb{c} or {end}:")
        b.indent += 1
        self.memory_op(p, b, f"mb{c}, me{c}, mbuf{c} = mem.region({addr}, {size!r})",
                       f"mem.{counter} -= 1; ")
        b.indent -= 1
        return f"{addr} - mb{c}"

    # -- statements --

    def stmt(self, s: ast.Stmt, p: _Pending, b: _Body, followed: bool = False) -> None:
        """Emit ``s``.  ``followed``: on every path, the next thing run is a
        fuel check on the same fuel, which makes a skip's own check (a skip
        is only a fuel check) redundant."""
        if isinstance(s, ast.SSeq):
            leaves = ast.flatten(s)
            last = s
            while isinstance(last, ast.SSeq):
                last = last.second
            skip_last = isinstance(last, ast.SSkip)
            for index, leaf in enumerate(leaves, 1):
                self.stmt(leaf, p, b, followed or skip_last or index < len(leaves))
            if skip_last and not followed:
                self.check_fuel(p, b)
            return
        if self.below and not isinstance(s, ast.SSet):
            self.unbind(self.assigns(s))
        if isinstance(s, (ast.SCond, ast.SWhile)) and (
            b.indent >= codegen.MAX_INDENT or b.blocks >= codegen.MAX_BLOCKS
        ):
            self.outline(s, p, b)
            return
        if isinstance(s, ast.SWhile):
            self.loop(s, p, b)  # its head checks the fuel
            return
        if isinstance(s, ast.SSkip):
            if not followed:
                self.check_fuel(p, b)
            return
        self.check_fuel(p, b)
        bound = set(self.entry[id(s)])
        if isinstance(s, ast.SSet):
            value = self.expr(s.rhs, bound, p, b)
            b.emit(f"{self.var[s.lhs]} = {value}")
            p.count("assign")
            p.fuel += 1
            if s.lhs in self.below:  # read above, before the assignment
                self.unbind((s.lhs,))
        elif isinstance(s, ast.SUnset):
            b.emit(f"{self.var[s.name]} = _U")
            p.fuel += 1
        elif isinstance(s, ast.SStore):
            addr = self.expr(s.addr, bound, p, b)
            value = self.expr(s.value, bound, p, b)
            size = int(s.size)
            if 8 * size < self.width:
                value = f"{value} & {(1 << 8 * size) - 1!r}"
            # Loads in ``value`` move the cached region, so it is looked
            # up after them.
            addr = self.spill(addr, b)
            p.count("store")
            c = self.caches[_root(s.addr)]
            offset = self.region(addr, size, c, "write_count", p, b)
            if size == 1:
                b.emit(f"mbuf{c}[{offset}] = {value}")
            else:
                b.emit(f"_p{size}(mbuf{c}, {offset}, {value})")
            p.fuel += 1
        elif isinstance(s, ast.SCond):
            self.cond(s, bound, p, b, followed)
        elif isinstance(s, ast.SStackalloc):
            self.stackalloc(s, p, b)
        elif isinstance(s, ast.SCall):
            self.call(s, bound, p, b)
        else:  # ``_scan``'s walk raises on any other node
            self.interact(s, bound, p, b)

    def assigns(self, s: ast.Stmt):
        """The locals ``s`` can assign on some path (an external action:
        every local), memoized per compound statement."""
        if isinstance(s, ast.SInteract):
            return self.var.keys()
        if isinstance(s, ast.SUnset):
            return (s.name,)
        blocks = ast.child_blocks(s)
        if not blocks:
            return ast.defined_names(s)
        names = self.assigned.get(id(s))
        if names is None:
            found = set(ast.defined_names(s))
            for block in blocks:
                for leaf in ast.flatten(block):
                    found.update(self.assigns(leaf))
            names = self.assigned[id(s)] = frozenset(found)
        return names

    def unbind(self, names) -> None:
        """Drop the bounds on ``names``, which the next statement can assign."""
        if not self.below.isdisjoint(names):
            self.bind_below(self.below.difference(names))

    def cond(self, s: ast.SCond, bound, p: _Pending, b: _Body, followed: bool) -> None:
        test = self.condition(s.cond, bound, p, b)
        p.count("branch")
        p.fuel += 1
        # Each branch writes out only what it has pending beyond what both
        # have; the join keeps the common part pending.
        outer, b.indent = b.indent, b.indent + 1
        branches = []
        for block, pending in ((s.then_, p.copy()), (s.else_, p)):
            lines, b.lines = b.lines, []
            self.stmt(block, pending, b, followed)
            branches.append((b.lines, pending))
            b.lines = lines
        common = branches[0][1].meet(branches[1][1])
        for keyword, (lines, pending) in zip((f"if {test}:", "else:"), branches):
            b.lines.append(" " * outer + keyword)
            b.lines += lines
            self.settle(pending.minus(common), b)
            if not lines and b.lines[-1].endswith(":"):
                b.emit("pass")
        b.indent = outer
        p.fuel, p.counts = common.fuel, common.counts

    def loop(self, s: ast.SWhile, p: _Pending, b: _Body) -> None:
        """Emit ``s``; a fuel-static one as a fast loop before a precise one.

        The body of a fuel-static loop holds no loop, call, external
        action or stack frame, and no branch of it moves into a helper.
        While ``f`` covers the most fuel one iteration can spend, no fuel
        check in the iteration can fail: the fast loop is the precise
        loop's iteration without them, and the counts every path of an
        iteration makes become one trip counter, added into the counts
        in the ``finally``.  Its ``else``, reached once ``f`` runs short,
        is the precise loop, which runs the rest.
        """
        # The head checks the fuel on every iteration, the first one
        # included, so the fuel is written out before the loop.
        self.settle(p, b)
        cost = _static_cost(s.body)
        # The precise loop sits in the fast one's ``else``, a level deeper:
        # a branch that would move into a helper there, as deep as its
        # branches nest, keeps the loop precise only.
        fast = cost is not None and not (cost[1] and (
            b.indent + 1 + cost[1] >= codegen.MAX_INDENT or b.blocks + 1 >= codegen.MAX_BLOCKS
        ))
        b.indent += fast
        start = len(b.lines)
        b.emit("while True:")
        b.indent += 1
        b.blocks += 1
        self.check_fuel(p, b)
        test = self.condition(s.cond, set(self.entry[id(s)]), p, b)
        p.count("branch")
        p.fuel += 1
        b.emit(f"if not {test}: {self.counts_code(p, b)}f -= {p.fuel}; break")
        # Past ``i <u e``, i < e <= mask: the body sees i <= mask - 1 up to
        # its first statement that can assign i.  The loop assigns none of
        # the locals bounded outside it (``stmt`` dropped those).
        outer, cond = self.below, s.cond
        if isinstance(cond, ast.EOp) and cond.op == "ltu" and isinstance(cond.lhs, ast.EVar):
            self.bind_below(outer | {cond.lhs.name})
        self.stmt(s.body, p, b, followed=True)
        if self.below is not outer:
            self.bind_below(outer)
        iteration, trip = b.lines[start + 1:], p.copy()
        self.settle(p, b)
        b.indent -= 1 + fast
        b.blocks -= 1
        if fast:
            trips, pad = self.fresh("n"), " " * b.indent
            b.trips.append((trips, trip.counts))
            b.lines[start:start] = [
                f"{pad}while f >= {cost[0] + 1!r}:",
                *(line[1:] for line in iteration if not isinstance(line, _Check)),
                f"{pad} {trips} += 1",
                f"{pad} f -= {trip.fuel!r}",
                f"{pad}else:",
            ]

    def stackalloc(self, s: ast.SStackalloc, p: _Pending, b: _Body) -> None:
        nbytes = int(s.nbytes)
        p.count("stackalloc")
        b.binds.update(("mem", "si"))
        base = self.fresh("s")
        self.memory_op(p, b, f"{base} = mem.allocate_stack({nbytes!r})")
        self.flush_counts(p, b)  # the stack-init policy may raise
        b.emit(f"mem.store_bytes({base}, si({nbytes!r}))")
        b.emit(f"{self.var[s.lhs]} = {base} & {self.mask!r}")
        p.fuel += 1
        self.stmt(s.body, p, b)
        self.flush_counts(p, b)
        b.emit(f"mem.free({base})")
        self.forget(b)

    def forget(self, b: _Body) -> None:
        """Drop the cached region after code that may have freed it."""
        if self.caches:
            b.emit(" = ".join(f"me{c}" for c in self.caches.values()) + " = 0")

    def arguments(self, args, bound, p: _Pending, b: _Body) -> List[str]:
        """The argument codes of a call out, with the counts written out."""
        codes = [self.expr(arg, bound, p, b) for arg in args]
        self.flush_counts(p, b)
        return codes

    def call(self, s: ast.SCall, bound, p: _Pending, b: _Body) -> None:
        p.count("call")
        args = self.arguments(s.args, bound, p, b)
        b.binds.add("cf")
        func, rets, n = self.const(s.func), self.fresh(), len(s.lhss)
        words = "".join(f"Word({self.width!r}, {arg}), " for arg in args)
        b.emit(f"{rets} = cf({func}, [{words}], state, f - {p.fuel + 1})")
        self.forget(b)
        b.emit(f"if len({rets}) != {n!r}: raise _bad_rets({func}, {rets}, {n!r})")
        for index, name in enumerate(s.lhss):
            b.emit(f"{self.var[name]} = {rets}[{index}].unsigned")
        p.fuel += 1

    def interact(self, s: ast.SInteract, bound, p: _Pending, b: _Body) -> None:
        b.binds.add("ext")
        message = self.const(f"no external handler for action {s.action!r}")
        self.fail(p, b, "ext is None", f"ExecutionError({message})")
        p.count("interact")
        args = self.arguments(s.args, bound, p, b)
        out = self.fresh()
        names = self.const(tuple(self.var))
        values = "".join(f"{var}, " for var in self.var.values())
        b.emit(
            f"{out} = _interact(ext, state, {self.width!r}, {self.const(s.action)}, "
            f"({''.join(f'{arg}, ' for arg in args)}), {names}, ({values}), xs, "
            f"{len(s.lhss)!r})"
        )
        self.forget(b)
        if values:
            b.emit(f"{values}= {out}[0]")
        b.emit(f"xs = {out}[1]")
        for index, name in enumerate(s.lhss):
            b.emit(f"{self.var[name]} = {out}[2][{index}]")
        p.fuel += 1

    def outline(self, s: ast.Stmt, p: _Pending, b: _Body) -> None:
        """Emit ``s`` as a helper function taking and returning every local."""
        self.settle(p, b)
        state = ", ".join(["f", *self.var.values()] + (["xs"] if self.interacts else []))
        index = len(self.helpers)
        name = f"h{index}"
        self.helpers.append([])  # reserves the name before nested helpers
        body = _Body()
        inner = _Pending()
        self.stmt(s, inner, body)
        self.settle(inner, body)
        self.helpers[index] = self.function(
            f"def {name}(interp, state, {state}):", body, [f"return {state}"]
        )
        b.emit(f"{state} = {name}(interp, state, {state})")
        self.forget(b)

    # -- functions --

    def function(self, header: str, b: _Body, tail: List[str], init: str = "") -> List[str]:
        lines = [header]
        lines += [" " + line for name, line in _BINDS if name in b.binds]
        if b.caches:
            lines.append(" " + "".join(f"mb{c} = me{c} = " for c in sorted(b.caches)) + "0")
        if init:
            lines.append(" " + init)
        counters = sorted(b.counters)
        if counters:
            zero = [f"c_{c}" for c in counters] + [trips for trips, _ in b.trips]
            lines.append(" " + " = ".join(zero) + " = 0")
        lines.append(" try:")
        lines += b.lines or ["  pass"]
        lines.append(" finally:")
        for c in counters:
            terms = [trips if counts[c] == 1 else f"{counts[c]!r} * {trips}"
                     for trips, counts in b.trips if c in counts]
            if terms:
                lines.append(f"  c_{c} += {' + '.join(terms)}")
        if counters:
            lines.append("  cn = interp.counts")
            lines += [f"  cn.{c} += c_{c}" for c in counters]
            if b.caches:
                lines += [f"  mem.{field} += c_{c}" for c, field in _ACCESS_COUNTS
                          if c in b.counters]
        else:
            lines.append("  pass")
        lines += [" " + line for line in tail]
        return lines

    def generate(self) -> Tuple[str, Dict[str, object]]:
        """The module source (helpers, then ``run``) and its namespace."""
        fn = self.fn
        b = _Body()
        p = _Pending()
        self.stmt(fn.body, p, b)
        self.flush_counts(p, b)
        tail = []
        for ret in fn.rets:
            if ret not in self.exit:
                var = self.var[ret]
                self.guarded.add(var)
                message = self.const(f"{fn.name} did not set return variable {ret!r}")
                tail.append(f"if {var} is _U: raise ExecutionError({message})")
        tail.append("return (" + "".join(f"{self.var[ret]}, " for ret in fn.rets) + ")")
        args = [self.var[arg] for arg in fn.args]
        unset = [var for var in self.var.values() if var not in args]
        if not (self.helpers or self.interacts):
            unset = [var for var in unset if var in self.guarded]
        init = " = ".join(unset + ["_U"]) if unset else ""
        if self.interacts:
            init = (init + "; " if init else "") + "xs = {}"
        header = f"def run(interp, state, f{''.join(', ' + arg for arg in args)}):"
        return self.source(*self.helpers, self.function(header, b, tail, init))
