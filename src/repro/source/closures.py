"""The model evaluator: each functional model compiled once into Python source.

This module is the executable meaning of source terms that every verdict
rests on (DESIGN.md §7), as :mod:`repro.bedrock2.closures` is Bedrock2's.
For each model ``Term`` and word width it generates the source of one
Python function, which :mod:`repro.codegen` (shared with the Bedrock2
executor) compiles, loads and caches.  In the generated function

- every node is one statement into a temporary (``t0``, ``t1``, ...), and
  let-, loop- and parameter-bound names are Python locals (``v0``, ...):
  a ``let/n`` binds its name to its value's local, so a binding chain or
  a loop copies no environment;
- each ``Prim`` is inlined from its template in :mod:`repro.source.ops`,
  the template ``Op.impl`` is built from;
- fuel is a local ``f``.  Nodes charge their tick at generation time, and
  the ticks are added to ``f`` and checked against ``fuel`` where they can
  next be observed: before an effect or a call out, before a loop and at
  the end of each iteration, and at the return (a branch arm that spent
  more than its twin adds the difference unchecked).

What a run shows is fixed, in evaluation order: values (a ``bool`` stays a
``bool``, a ``CellV`` a ``CellV``), the effects in
:class:`~repro.source.evaluator.EffectContext`, one fuel tick per node
entry (``"evaluation fuel exhausted"`` once ``ev.fuel`` is spent, with
``ev._steps`` left at ``fuel + 1``), and the ``EvalError``, ``TypeError``
and ``KeyError`` of a stuck node, raised when the node is reached.  A
stuck node (an unknown operation, a wrong arity, a node with no
``compile_node``) compiles to a statement that raises its error.  The
generator records, for every line, how many ticks are still pending when
it runs; an exception that reaches a function's handler adds those of its
line (``_P``), and raises the fuel error instead when they pass the fuel,
since the tree-walker would have stopped there first.  Before a call out
(``Call``, the oracle, io, a helper) the pending ticks are checked and
written back to ``ev._steps``, and its line is marked settled.  Compiling
raises only for a term nested deeper than :data:`MAX_DEPTH`, an
``EvalError`` naming the limit.  The tree-walker this module replaced is
kept as a test oracle, ``tests/source/tree_walker.py``, and
``tests/source/test_model_eval_equivalence.py`` holds the two to that
contract.

Names map to identifiers the generator makes; operation and function
names, messages, tables and non-int literals are namespace constants
(``k0``, ...).  A node that would open a block deeper than CPython
allows in one function moves into a helper function (``h0``, ...) that
takes the locals in scope and returns the node's value.

The generated ``run(ev, env, fx)`` reads the free variables from ``env``
once, at entry, and keeps no state between runs, so one compiled model
serves concurrent runs.

Extension terms (``Term`` subclasses defined outside ``repro.source``)
evaluate through one hook, ``compile_node(g)``.  After the node's tick it
emits the node's work through the :class:`Generator` ``g`` and returns
the Python expression of its value: ``g(child)`` and ``g.array(child)``
evaluate a child, ``g.let``/``g.local``/``g.assign``/``g.emit`` write
statements, ``g.range``/``g.each`` open loops and ``g.bind`` binds names
(``docs/query.md`` walks through the query heads' hooks).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import ContextManager, Dict, Iterator, List, Optional, Set, Tuple

from repro import codegen
from repro.source import terms as t
from repro.source.evaluator import CellV, EvalError
from repro.source.ops import REGISTRY, eval_op, render

_FUEL = "evaluation fuel exhausted"

#: How deep a term may nest.  Generating takes two or three Python frames
#: per level, so a term within the limit stays well inside CPython's
#: default recursion limit of 1000.
MAX_DEPTH = 200


def _settle(ev, fuel: int, steps: int, pending: Optional[int]) -> None:
    """Write the steps of a run that raised, or raise the fuel error.

    ``pending`` is what the raising line had not yet added to ``steps``;
    ``None`` marks a call out, which wrote its steps back before it ran.
    """
    if pending is None:
        return
    steps += pending
    if steps > fuel:
        ev._steps = fuel + 1
        raise EvalError(_FUEL) from None
    ev._steps = steps


def _not_array(value) -> EvalError:
    return EvalError(f"expected an array, got {value!r}")


def _out_of_bounds(what: str, index: int, length: int) -> EvalError:
    return EvalError(f"{what}: index {index} out of bounds (length {length})")


def _bad_let_tuple(count: int, value) -> EvalError:
    return EvalError(f"let-tuple of {count} names got {value!r}")


def _non_cell(what: str, value) -> EvalError:
    return EvalError(f"{what} of non-cell value {value!r}")


def _read(fx):
    try:
        return next(fx.io_input)
    except StopIteration:
        raise EvalError("io.read past end of input") from None


#: What every generated namespace starts with.
_RUNTIME = {
    "_U": object(),  # the value of a free variable ``env`` does not bind
    "_FUEL": _FUEL,
    "_ANY": "any",
    "_ALLOC": "alloc",
    "_GET": "get",
    "_PUT": "put",
    "_settle": _settle,
    "_not_array": _not_array,
    "_out_of_bounds": _out_of_bounds,
    "_bad_let_tuple": _bad_let_tuple,
    "_non_cell": _non_cell,
    "_read": _read,
    "_eval_op": eval_op,
    "EvalError": EvalError,
    "CellV": CellV,
}


def build(term: t.Term, width: int) -> codegen.Compiled:
    """``term`` compiled for ``width``.

    ``run(ev, env, fx)`` evaluates it for the evaluator ``ev`` (its
    ``fuel``, and ``_steps``, which the run leaves at what it spent), the
    bindings ``env`` and the effects ``fx``.
    """
    return codegen.Compiled(*Generator(width).generate(term), "<model>")


def compiled(term: t.Term, width: int) -> codegen.Compiled:
    """``term`` compiled for ``width``, from the cache or compiled once now."""
    return codegen.compiled(term, width, build)


# -- The generator ----------------------------------------------------------------


class _Body:
    """The lines of one generated function, each with the ticks pending
    when it runs (``None``: settled, see :func:`_settle`)."""

    def __init__(self):
        self.lines: List[Tuple[str, Optional[int]]] = []
        self.indent = 2  # inside ``def`` and ``try``
        self.blocks = 1  # the ``try``


class _Branch:
    """An ``if`` being generated: its test, its arms so far, and the state
    each arm starts from."""

    __slots__ = ("test", "entry", "untested", "facts", "outer", "arms")

    def __init__(self, test: str, entry: int, untested: bool, facts: Set, outer: List):
        self.test, self.entry, self.untested = test, entry, untested
        self.facts, self.outer = facts, outer
        self.arms: List[Tuple[List, int, bool]] = []


def _is_int_literal(code: str) -> bool:
    return code.isdigit() or (code.startswith("(-") and code[2:-1].isdigit())


class Generator(codegen.Module):
    """Generates the source of one model for one width.

    ``g(term)`` emits the statements that evaluate ``term`` in the current
    scope, charges its tick, and returns the Python expression of its
    value: an identifier or an int literal.  The other public methods are
    what a node's rule (and an extension's ``compile_node``) builds with.
    """

    def __init__(self, width: int):
        super().__init__(_RUNTIME)
        self.width = width
        self.body = _Body()
        self.helpers: List[List[Tuple[str, Optional[int]]]] = []
        self.pending = 0  # ticks charged but not yet added to ``f``
        self.untested = False  # ``f`` grew since it was last tested
        self.depth = 0
        self.scope: Dict[str, str] = {}  # bound name -> its expression
        self.free: Dict[str, str] = {}  # free name -> the local read from env
        self.facts: Set[Tuple[str, str]] = set()  # checks done on this path
        self.kinds: Dict[str, str] = {}  # temporaries known to hold a list or an int
        self.mutable: Set[str] = set()  # locals ``assign`` may change
        self.aliased: Set[str] = set()  # temporaries a name is bound to
        self.branches: List[_Branch] = []

    # -- statements --

    def emit(self, line: str) -> None:
        self.body.lines.append((" " * self.body.indent + line, self.pending))

    def let(self, code: str, kind: Optional[str] = None) -> str:
        """A new temporary holding ``code``."""
        name = self.fresh()
        self.emit(f"{name} = {code}")
        if kind is not None:
            self.kinds[name] = kind
        return name

    def local(self, code: str) -> str:
        """A new local holding ``code``, which :meth:`assign` may change."""
        name = self.fresh("v")
        self.emit(f"{name} = {code}")
        self.mutable.add(name)
        return name

    def assign(self, local: str, code: str) -> None:
        """``local = code``; ``code`` is read here only (see :meth:`inline`)."""
        assert local in self.mutable, local
        self.emit(f"{local} = {self.inline(code)}")

    def inline(self, code: str) -> str:
        """The expression of ``code`` when the last line just computed the
        temporary ``code`` (the line is taken back), else ``code``.

        The caller reads ``code`` here only: a temporary no name is bound
        to is read by no one else, so it can become the target's own
        right-hand side or an ``if`` test.
        """
        lines = self.body.lines
        prefix = " " * self.body.indent + code + " = "
        if code.startswith("t") and code not in self.aliased and lines \
                and lines[-1][0].startswith(prefix) and lines[-1][1] is not None:
            return lines.pop()[0][len(prefix):]
        return code

    def name(self, code: str) -> str:
        """``code`` as an identifier, through a temporary if needed."""
        if code.isidentifier():
            return code
        return self.let(code, "int" if _is_int_literal(code) else None)

    def to_int(self, code: str) -> str:
        if _is_int_literal(code) or self.kinds.get(code) == "int":
            return code
        return self.let(f"int({code})", "int")

    def check(self, keep: int = 0, test: bool = True) -> None:
        """Add the pending ticks but ``keep`` to ``f``, and stop when the
        fuel is spent (unless not ``test``: the next check will)."""
        spent = self.pending - keep
        if spent > 0:
            self.emit(f"f += {spent!r}")
            self.pending = keep
            self.untested |= not test
        if test and (spent > 0 or self.untested):
            self.emit("if f > fuel: raise EvalError(_FUEL)")
            self.untested = False

    def call(self, code: str) -> str:
        """A new temporary holding ``code``, a call out of the model."""
        name = self.fresh()
        self.settled(f"{name} = {code}")
        return name

    def settled(self, line: str) -> None:
        """``line``, run with the steps checked and written back."""
        self.check()
        self.emit("ev._steps = f")
        self.body.lines.append((" " * self.body.indent + line, None))

    # -- checks --

    def _known(self, code: str, fact: str) -> bool:
        return self.kinds.get(code) == fact or (code, fact) in self.facts

    def _learn(self, code: str, fact: str) -> None:
        if code not in self.mutable:
            self.facts.add((code, fact))

    def as_array(self, code: str) -> str:
        code = self.name(code)
        if not self._known(code, "list"):
            self.emit(f"if not isinstance({code}, list): raise _not_array({code})")
            self._learn(code, "list")
        return code

    def array(self, term: t.Term) -> str:
        """``g(term)``, checked to be a list."""
        return self.as_array(self(term))

    def int(self, term: t.Term) -> str:
        """``int(g(term))``."""
        return self.to_int(self(term))

    def index(self, term: t.Term, what: str, length: str) -> str:
        """``int(g(term))``, bounds-checked against ``length``."""
        index = self.int(term)
        self.emit(
            f"if not 0 <= {index} < {length}: "
            f"raise _out_of_bounds({self.const(what)}, {index}, {length})"
        )
        return index

    # -- scopes and blocks --

    @contextmanager
    def bind(self, names: Dict[str, str]) -> Iterator[None]:
        """Bind each source name in ``names`` to its expression."""
        saved = {name: self.scope.get(name) for name in names}
        self.scope.update(names)
        self.aliased.update(names.values())
        try:
            yield
        finally:
            for name, code in saved.items():
                if code is None:
                    del self.scope[name]
                else:
                    self.scope[name] = code

    @contextmanager
    def _loop(self, header: str, var: str) -> Iterator[str]:
        self.check()  # each iteration starts with nothing pending
        self.emit(header)
        body, facts = self.body, self.facts
        start = len(body.lines)
        body.indent += 1
        body.blocks += 1
        self.facts = set(facts)
        try:
            yield var
            self.check()
            if len(body.lines) == start:
                self.emit("pass")
        finally:
            body.indent -= 1
            body.blocks -= 1
            self.facts = facts

    def range(self, args: str) -> ContextManager[str]:
        """A loop ``for <int> in range(args)``; yields the loop variable."""
        var = self.fresh("v")
        self.kinds[var] = "int"
        return self._loop(f"for {var} in range({args}):", var)

    def each(self, values: str) -> ContextManager[str]:
        """A loop over the list ``values``; yields the loop variable."""
        var = self.fresh("v")
        return self._loop(f"for {var} in {values}:", var)

    def break_if(self, test: str) -> None:
        """Leave the innermost loop when ``test`` holds."""
        self.emit(f"if {self.inline(test)}:")
        self.body.indent += 1
        kept = self.pending, self.untested
        self.check()
        self.emit("break")
        self.pending, self.untested = kept
        self.body.indent -= 1

    def open_if(self, test: str) -> None:
        """Start ``if test:``; what is emitted until :meth:`open_else` or
        :meth:`close_if` is its first arm."""
        test = self.inline(test)
        self.branches.append(
            _Branch(test, self.pending, self.untested, self.facts, self.body.lines)
        )
        self.body.lines = []
        self.body.indent += 1
        self.facts = set(self.facts)

    def open_else(self) -> None:
        branch = self.branches[-1]
        branch.arms.append((self.body.lines, self.pending, self.untested))
        self.body.lines = []
        self.pending, self.untested = branch.entry, branch.untested
        self.facts = set(branch.facts)

    def close_if(self) -> None:
        """End the ``if``; an arm that spent more ticks than the other adds
        the difference to ``f``, so both leave the same ticks pending."""
        branch = self.branches.pop()
        branch.arms.append((self.body.lines, self.pending, self.untested))
        if len(branch.arms) < 2:
            branch.arms.append(([], branch.entry, branch.untested))
        common = min(pending for _, pending, _ in branch.arms)
        body = self.body
        body.lines = branch.outer
        body.indent -= 1
        untested = False
        for keyword, (lines, pending, arm_untested) in zip(
            (f"if {branch.test}:", "else:"), branch.arms
        ):
            self.untested = arm_untested
            if keyword == "else:" and not lines and pending == common:
                untested |= self.untested
                continue
            self.pending = branch.entry
            self.emit(keyword)
            start = len(body.lines)
            body.indent += 1
            body.lines += lines
            self.pending = pending
            self.check(keep=common, test=False)
            if len(body.lines) == start:
                self.emit("pass")
            body.indent -= 1
            untested |= self.untested
        self.pending, self.untested, self.facts = common, untested, branch.facts

    # -- nodes --

    def __call__(self, term: t.Term) -> str:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise EvalError(
                f"term nests deeper than the model evaluator's limit of {MAX_DEPTH}"
            )
        helper = None
        if (
            (self.body.indent >= codegen.MAX_INDENT or self.body.blocks >= codegen.MAX_BLOCKS)
            and not isinstance(term, (t.Lit, t.Var))
        ):
            helper = self._enter_helper()
        self.pending += 1  # the node's tick
        rule = _DISPATCH.get(type(term))
        if rule is None:
            rule = next((r for cls, r in _DISPATCH.items() if isinstance(term, cls)), None)
        code = self._extension(term) if rule is None else rule(self, term)
        if helper is not None:
            code = self._leave_helper(helper, code)
        self.depth -= 1
        return code

    def _extension(self, term: t.Term) -> str:
        hook = getattr(term, "compile_node", None)
        if hook is not None:
            return hook(self)
        self.emit(f"raise EvalError({self.const(f'cannot evaluate {term!r}')})")
        return "_U"

    # -- helpers --

    def _enter_helper(self):
        self.check()
        saved = (self.body, self.facts)
        self.body = _Body()
        self.facts = set(self.facts)
        return saved

    def _leave_helper(self, saved, code: str) -> str:
        self.check()
        body = self.body
        self.body, self.facts = saved
        name = f"h{len(self.helpers)}"
        params = sorted(
            {c for c in self.scope.values() if c.isidentifier() and c not in self.namespace}
            | set(self.free.values()),
            key=lambda c: (c[0], int(c[1:])),
        )
        args = "".join(f", {p}" for p in params)
        self.helpers.append(self._function(f"def {name}(ev, fx, fuel{args}):", [], body, code))
        result = self.fresh()
        self.settled(f"{result} = {name}(ev, fx, fuel{args})")
        self.emit("f = ev._steps")
        return result

    def _function(self, header: str, prologue: List[str], body: _Body, code: str):
        lines: List[Tuple[str, Optional[int]]] = [(header, None)]
        lines += [(" " + line, None) for line in prologue + ["f = ev._steps", "try:"]]
        lines += body.lines
        lines += [
            ("  ev._steps = f", 0),
            (f"  return {code}", 0),
            (" except Exception as e:", None),
            ("  _settle(ev, fuel, f, _P[e.__traceback__.tb_lineno])", None),
            ("  raise", None),
        ]
        return lines

    def generate(self, term: t.Term) -> Tuple[str, Dict[str, object]]:
        """The module source (helpers, then ``run``) and its namespace."""
        code = self(term)
        self.check()
        prologue = ["fuel = ev.fuel"] + [
            f"{local} = env.get({self.const(name)}, _U)" for name, local in self.free.items()
        ]
        run = self._function("def run(ev, env, fx):", prologue, self.body, code)
        lines = [line for helper in self.helpers for line in helper] + run
        self.namespace["_P"] = (None,) + tuple(pending for _, pending in lines)
        return self.source([text for text, _ in lines])

    # -- the pure core --

    def _lit(self, term: t.Lit) -> str:
        value = term.value
        if type(value) is int:
            return repr(int(value)) if value >= 0 else f"({int(value)!r})"
        if isinstance(value, tuple):  # array literals: a fresh list per run
            return self.let(f"list({self.const(value)})", "list")
        return self.const(value)

    def _var(self, term: t.Var) -> str:
        code = self.scope.get(term.name)
        if code is not None:
            return code
        local = self._free(term.name)
        if not self._known(local, "bound"):
            message = self.const(f"unbound variable {term.name!r}")
            self.emit(f"if {local} is _U: raise EvalError({message})")
            self._learn(local, "bound")
        return local

    def _free(self, name: str) -> str:
        local = self.free.get(name)
        if local is None:
            local = self.free[name] = self.fresh("v")
        return local

    def _prim(self, term: t.Prim) -> str:
        args = [self(a) for a in term.args]
        op = REGISTRY.get(term.op)
        if op is None or op.arity != len(args):
            # Stuck: eval_op raises its KeyError or TypeError
            # once the arguments have been evaluated.
            self.emit(f"_eval_op({self.const(term.op)}, {self.width!r}, [{', '.join(args)}])")
            return "_U"
        code = render(op.template, args, self.width)
        return code if code in args else self.let(code)

    def _let(self, term: t.Let) -> str:
        value = self(term.value)
        with self.bind({term.name: value}):
            return self(term.body)

    def _let_tuple(self, term: t.LetTuple) -> str:
        value = self.name(self(term.value))
        count = len(term.names)
        self.emit(
            f"if not isinstance({value}, tuple) or len({value}) != {count!r}: "
            f"raise _bad_let_tuple({count!r}, {value})"
        )
        items = [self.fresh("v") for _ in term.names]
        if items:
            self.emit(f"{''.join(f'{item}, ' for item in items)}= {value}")
        with self.bind(dict(zip(term.names, items))):
            return self(term.body)

    def _if(self, term: t.If) -> str:
        test = self(term.cond)
        result = self.fresh()
        self.open_if(test)
        self.emit(f"{result} = {self.inline(self(term.then_))}")
        self.open_else()
        self.emit(f"{result} = {self.inline(self(term.else_))}")
        self.close_if()
        return result

    def _tuple(self, term: t.TupleTerm) -> str:
        items = [self(a) for a in term.items]
        return self.let("(" + "".join(f"{item}, " for item in items) + ")")

    # -- arrays --

    def _array_len(self, term: t.ArrayLen) -> str:
        return self.let(f"len({self.array(term.arr)})", "int")

    def _array_get(self, term: t.ArrayGet) -> str:
        values = self.array(term.arr)
        index = self.index(term.index, "get", f"len({values})")
        return self.let(f"{values}[{index}]")

    def _array_put(self, term: t.ArrayPut) -> str:
        values = self.array(term.arr)
        index = self.index(term.index, "put", f"len({values})")
        value = self(term.value)
        fresh = self.let(f"list({values})", "list")
        self.emit(f"{fresh}[{index}] = {value}")
        return fresh

    def _array_map(self, term: t.ArrayMap) -> str:
        values = self.array(term.arr)
        out = self.let("[]", "list")
        with self.each(values) as elem, self.bind({term.elem_name: elem}):
            self.emit(f"{out}.append({self.inline(self(term.body))})")
        return out

    def _array_fold(self, term: t.ArrayFold) -> str:
        values = self.array(term.arr)
        acc = self.local(self(term.init))
        with self.each(values) as elem, self.bind({term.acc_name: acc, term.elem_name: elem}):
            self.assign(acc, self(term.body))
        return acc

    def _array_fold_break(self, term: t.ArrayFoldBreak) -> str:
        values = self.array(term.arr)
        acc = self.local(self(term.init))
        with self.each(values) as elem:
            # The predicate sees the accumulator but not the element.
            with self.bind({term.acc_name: acc}):
                self.break_if(self(term.break_pred))
            with self.bind({term.acc_name: acc, term.elem_name: elem}):
                self.assign(acc, self(term.body))
        return acc

    def _ranged_for(self, term: t.RangedFor) -> str:
        start, stop, init = self(term.lo), self(term.hi), self(term.init)
        start, stop = self.to_int(start), self.to_int(stop)
        acc = self.local(init)
        with self.range(f"{start}, {stop}") as index, \
                self.bind({term.idx_name: index, term.acc_name: acc}):
            self.assign(acc, self(term.body))
        return acc

    def _nat_iter(self, term: t.NatIter) -> str:
        count, init = self(term.count), self(term.init)
        count = self.to_int(count)
        acc = self.local(init)
        with self.range(count), self.bind({term.acc_name: acc}):
            self.assign(acc, self(term.body))
        return acc

    def _first_n(self, term: t.FirstN) -> str:
        count = self.int(term.count)
        return self.let(f"{self.array(term.arr)}[:{count}]", "list")

    def _skip_n(self, term: t.SkipN) -> str:
        count = self.int(term.count)
        return self.let(f"{self.array(term.arr)}[{count}:]", "list")

    def _append(self, term: t.Append) -> str:
        first = self.array(term.first)
        return self.let(f"{first} + {self.array(term.second)}", "list")

    # -- tables and cells --

    def _table_get(self, term: t.TableGet) -> str:
        data = self.const(term.data)
        index = self.index(term.index, "InlineTable.get", repr(int(len(term.data))))
        return self.let(f"{data}[{index}]")

    def _cell(self, term: t.Term, what: str) -> str:
        cell = self.name(self(term))
        self.emit(f"if not isinstance({cell}, CellV): raise _non_cell({what}, {cell})")
        return cell

    def _cell_get(self, term: t.CellGet) -> str:
        return self.let(f"{self._cell(term.cell, '_GET')}.value")

    def _cell_put(self, term: t.CellPut) -> str:
        self._cell(term.cell, "_PUT")
        return self.let(f"CellV({self(term.value)})")

    def _annotation(self, term: t.Term) -> str:
        return self(term.value)  # Stack and Copy unfold away

    def _call(self, term: t.Call) -> str:
        fns = self.name(self.scope.get("__functions__") or self._free("__functions__"))
        func = self.const(term.func)
        message = self.const(f"no model for external function {term.func!r}")
        self.emit(f"if not isinstance({fns}, dict) or {func} not in {fns}: "
                  f"raise EvalError({message})")
        args = [self(a) for a in term.args]
        return self.call(f"{fns}[{func}]({', '.join(args)})")

    # -- monads --

    def _m_ret(self, term: t.MRet) -> str:
        result = self.fresh()
        self.open_if("fx.error")
        self.emit(f"{result} = 0")
        self.open_else()
        self.emit(f"{result} = {self(term.value)}")
        self.close_if()
        return result

    def _m_bind(self, term: t.MBind) -> str:
        result = self.fresh()
        self.open_if("fx.error")
        self.emit(f"{result} = 0")
        self.open_else()
        value = self(term.ma)
        self.open_if("fx.error")
        self.emit(f"{result} = 0")
        self.open_else()
        with self.bind({term.name: value}):
            self.emit(f"{result} = {self(term.body)}")
        self.close_if()
        self.close_if()
        return result

    def _err_guard(self, term: t.ErrGuard) -> str:
        self.open_if("not fx.error")
        self.open_if(f"not ({self.inline(self(term.cond))})")
        self.check()
        self.emit("fx.error = True")
        self.close_if()
        self.close_if()
        return "0"

    def _io_read(self, term: t.IORead) -> str:
        return self.call("_read(fx)")

    def _io_write(self, term: t.IOWrite) -> str:
        value = self(term.value)
        self.settled(f"fx.io_output.append(int({value}))")
        return value

    def _writer_tell(self, term: t.WriterTell) -> str:
        value = self(term.value)
        self.settled(f"fx.writer_output.append(int({value}))")
        return value

    def _nd_any(self, term: t.NdAny) -> str:
        return self.call(f"fx.oracle(_ANY, {self.const(term.ty)})")

    def _nd_alloc_bytes(self, term: t.NdAllocBytes) -> str:
        name = self.call(f"list(fx.oracle(_ALLOC, {self.const(term.nbytes)}))")
        self.kinds[name] = "list"
        return name

    def _st_get(self, term: t.StGet) -> str:
        return self.let("fx.state")

    def _st_put(self, term: t.StPut) -> str:
        value = self(term.value)
        self.check()
        self.emit(f"fx.state = {value}")
        return value


# The core heads, in a fixed order; a subclass of a core node that is not
# listed by its own type generates as its first match.
_DISPATCH = {
    t.Lit: Generator._lit,
    t.Var: Generator._var,
    t.Prim: Generator._prim,
    t.Let: Generator._let,
    t.LetTuple: Generator._let_tuple,
    t.If: Generator._if,
    t.TupleTerm: Generator._tuple,
    t.ArrayLen: Generator._array_len,
    t.ArrayGet: Generator._array_get,
    t.ArrayPut: Generator._array_put,
    t.ArrayMap: Generator._array_map,
    t.ArrayFold: Generator._array_fold,
    t.ArrayFoldBreak: Generator._array_fold_break,
    t.RangedFor: Generator._ranged_for,
    t.NatIter: Generator._nat_iter,
    t.FirstN: Generator._first_n,
    t.SkipN: Generator._skip_n,
    t.Append: Generator._append,
    t.TableGet: Generator._table_get,
    t.CellGet: Generator._cell_get,
    t.CellPut: Generator._cell_put,
    t.Stack: Generator._annotation,
    t.Copy: Generator._annotation,
    t.Call: Generator._call,
    t.MRet: Generator._m_ret,
    t.MBind: Generator._m_bind,
    t.ErrGuard: Generator._err_guard,
    t.IORead: Generator._io_read,
    t.IOWrite: Generator._io_write,
    t.WriterTell: Generator._writer_tell,
    t.NdAny: Generator._nd_any,
    t.NdAllocBytes: Generator._nd_alloc_bytes,
    t.StGet: Generator._st_get,
    t.StPut: Generator._st_put,
}
