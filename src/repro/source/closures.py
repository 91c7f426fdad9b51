"""The closure evaluator: each functional model compiled once into closures.

This module is the executable meaning of source terms that every verdict
rests on (DESIGN.md §7), as :mod:`repro.bedrock2.closures` is Bedrock2's.
It compiles a ``Term`` into nested Python closures in which

- node-type dispatch happens once, at compile time, instead of walking an
  ``isinstance`` chain at every node of every run;
- each ``Prim`` is bound to its ``Op.impl`` at compile time, so a call no
  longer looks the operation up or checks its arity;
- a chain of ``let/n`` bindings copies the environment once, and a loop
  copies it once, not once per binding or per iteration.

What a run shows is fixed, in evaluation order: values, the effects in
:class:`~repro.source.evaluator.EffectContext`, one fuel tick per node
entry (``"evaluation fuel exhausted"`` once ``ev.fuel`` is spent), and the
``EvalError``, ``TypeError`` and ``KeyError`` of a stuck node, raised when
the node is reached.  A stuck node (an unknown operation, a wrong arity, a
node with no ``compile_node``) compiles to a closure that raises its
error.  Compiling raises only for a term nested deeper than
:data:`MAX_DEPTH`, an ``EvalError`` naming the limit.  The tree-walker
this module replaced is kept as a test oracle,
``tests/source/tree_walker.py``, and
``tests/source/test_model_eval_equivalence.py`` holds the two to that
contract.

A compiled closure is called as ``code(ev, env, fx)``.  The evaluator
``ev`` carries the fuel counter (``ev._steps`` against ``ev.fuel``),
``env`` the bindings and ``fx`` the effects; closures capture none of
them, so one compiled model serves concurrent runs.  No closure mutates
the ``env`` it is passed, which is what lets a binding chain or a loop
extend one private copy.  Compiled forms live in a process-wide cache
keyed by ``Term`` identity and held through a weakref, so an entry dies
with its model.

Extension terms (``Term`` subclasses defined outside ``repro.source``)
evaluate through one hook, ``compile_node(compile)``.  It returns a
closure ``(ev, env, fx) -> value`` for the node's work after its fuel
tick (the compiler adds the tick), built from ``compile(child)`` and
``compile.array(child)``.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Tuple

from repro.source import terms as t
from repro.source.evaluator import CellV, EffectContext, EvalError, Evaluator
from repro.source.ops import REGISTRY, eval_op

Code = Callable[[Evaluator, dict, EffectContext], object]

_FUEL = "evaluation fuel exhausted"

#: How deep a term may nest.  Compiling takes two to four Python frames
#: per level, and running a compiled term up to as many, so a term within
#: the limit stays well inside CPython's default recursion limit of 1000.
MAX_DEPTH = 200


# -- The cache ------------------------------------------------------------------

_CACHE: Dict[int, Tuple["weakref.ref[t.Term]", Dict[int, Code]]] = {}


def _evictor(key: int):
    def evict(ref) -> None:
        entry = _CACHE.get(key)
        if entry is not None and entry[0] is ref:
            del _CACHE[key]

    return evict


def compiled(term: t.Term, width: int) -> Code:
    """``term`` compiled for ``width``, from the cache or compiled once now."""
    key = id(term)
    entry = _CACHE.get(key)
    if entry is None or entry[0]() is not term:
        try:
            ref = weakref.ref(term, _evictor(key))
        except TypeError:  # a slotted extension node without __weakref__
            return Compiler(width)(term)
        entry = (ref, {})
        _CACHE[key] = entry
    code = entry[1].get(width)
    if code is None:
        code = entry[1][width] = Compiler(width)(term)
    return code


# -- The compiler -----------------------------------------------------------------


def _ticked(work: Code) -> Code:
    """``work`` behind its node's fuel tick, one call deeper.

    The nodes a loop body runs through on every iteration (literals,
    variables, primitives, conditionals, ``let/n`` chains, array and table
    reads) tick inline instead; the rest are entered once per run or
    rarely, so the extra call costs nothing measurable.
    """

    def ticked(ev, env, fx):
        ev._steps += 1
        if ev._steps > ev.fuel:
            raise EvalError(_FUEL)
        return work(ev, env, fx)

    return ticked


def _bind(inner: dict, is_tuple: bool, names, value) -> None:
    """One ``let/n`` link's binding, with ``LetTuple``'s arity check."""
    if not is_tuple:
        inner[names] = value
        return
    if not isinstance(value, tuple) or len(value) != len(names):
        raise EvalError(f"let-tuple of {len(names)} names got {value!r}")
    for binder, component in zip(names, value):
        inner[binder] = component


class Compiler:
    """Turns terms into closures for one word width.

    ``compiler(term)`` is the closure of ``term``: it ticks fuel on entry,
    then does that node's work.  ``compiler.array(term)`` also checks that
    the value is a list.
    """

    def __init__(self, width: int):
        self.width = width
        self.depth = 0

    def __call__(self, term: t.Term) -> Code:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise EvalError(
                f"term nests deeper than the closure evaluator's limit of {MAX_DEPTH}"
            )
        method = _DISPATCH.get(type(term))
        if method is None:
            method = next(
                (m for cls, m in _DISPATCH.items() if isinstance(term, cls)), None
            )
        code = self.extension(term) if method is None else method(self, term)
        self.depth -= 1
        return code

    def array(self, term: t.Term) -> Code:
        code = self(term)

        def array(ev, env, fx):
            value = code(ev, env, fx)
            if not isinstance(value, list):
                raise EvalError(f"expected an array, got {value!r}")
            return value

        return array

    def index(self, term: t.Term, what: str) -> Callable:
        """``(ev, env, fx, length) -> int``, bounds-checked against ``length``."""
        code = self(term)

        def index(ev, env, fx, length):
            value = int(code(ev, env, fx))
            if not 0 <= value < length:
                raise EvalError(f"{what}: index {value} out of bounds (length {length})")
            return value

        return index

    # -- the pure core --

    def lit(self, term: t.Lit) -> Code:
        value = term.value
        if isinstance(value, tuple):  # array literals: a fresh list per run

            def array_lit(ev, env, fx):
                ev._steps += 1
                if ev._steps > ev.fuel:
                    raise EvalError(_FUEL)
                return list(value)

            return array_lit

        def lit(ev, env, fx):
            ev._steps += 1
            if ev._steps > ev.fuel:
                raise EvalError(_FUEL)
            return value

        return lit

    def var(self, term: t.Var) -> Code:
        name = term.name

        def var(ev, env, fx):
            ev._steps += 1
            if ev._steps > ev.fuel:
                raise EvalError(_FUEL)
            try:
                return env[name]
            except KeyError:
                raise EvalError(f"unbound variable {name!r}") from None

        return var

    def prim(self, term: t.Prim) -> Code:
        args = tuple(self(a) for a in term.args)
        op = REGISTRY.get(term.op)
        if op is None or op.arity != len(args):
            # Stuck: eval_op raises its KeyError or TypeError
            # once the arguments have been evaluated.
            name, width = term.op, self.width

            def stuck(ev, env, fx):
                return eval_op(name, width, [a(ev, env, fx) for a in args])

            return _ticked(stuck)
        impl, width = op.impl, self.width
        if len(args) == 2:
            f, g = args

            def prim2(ev, env, fx):
                ev._steps += 1
                if ev._steps > ev.fuel:
                    raise EvalError(_FUEL)
                a = f(ev, env, fx)
                return impl(width, a, g(ev, env, fx))

            return prim2
        if len(args) == 1:
            (f,) = args

            def prim1(ev, env, fx):
                ev._steps += 1
                if ev._steps > ev.fuel:
                    raise EvalError(_FUEL)
                return impl(width, f(ev, env, fx))

            return prim1

        def prim(ev, env, fx):
            ev._steps += 1
            if ev._steps > ev.fuel:
                raise EvalError(_FUEL)
            return impl(width, *[a(ev, env, fx) for a in args])

        return prim

    def binding(self, term: t.Term) -> Code:
        """A chain of ``Let``/``LetTuple`` nodes: one env copy for the chain.

        Each link ticks at its own entry, evaluates its value in the env
        built so far, then binds.  The copy is private to the chain, so
        binding in place is invisible outside it.
        """
        links: List[Tuple[bool, object, Code]] = []
        while isinstance(term, (t.Let, t.LetTuple)):
            if isinstance(term, t.Let):
                links.append((False, term.name, self(term.value)))
            else:
                links.append((True, term.names, self(term.value)))
            term = term.body
        body = self(term)
        (first_is_tuple, first_names, first), rest = links[0], tuple(links[1:])

        def chain(ev, env, fx):
            ev._steps += 1
            if ev._steps > ev.fuel:
                raise EvalError(_FUEL)
            value = first(ev, env, fx)
            inner = dict(env)
            _bind(inner, first_is_tuple, first_names, value)
            for is_tuple, names, code in rest:
                ev._steps += 1
                if ev._steps > ev.fuel:
                    raise EvalError(_FUEL)
                if is_tuple:
                    _bind(inner, True, names, code(ev, inner, fx))
                else:
                    inner[names] = code(ev, inner, fx)
            return body(ev, inner, fx)

        return chain

    def if_(self, term: t.If) -> Code:
        cond, then_, else_ = self(term.cond), self(term.then_), self(term.else_)

        def if_(ev, env, fx):
            ev._steps += 1
            if ev._steps > ev.fuel:
                raise EvalError(_FUEL)
            if cond(ev, env, fx):
                return then_(ev, env, fx)
            return else_(ev, env, fx)

        return if_

    def tuple_(self, term: t.TupleTerm) -> Code:
        items = tuple(self(a) for a in term.items)
        return _ticked(lambda ev, env, fx: tuple([item(ev, env, fx) for item in items]))

    # -- arrays --

    def array_len(self, term: t.ArrayLen) -> Code:
        arr = self.array(term.arr)

        def array_len(ev, env, fx):
            ev._steps += 1
            if ev._steps > ev.fuel:
                raise EvalError(_FUEL)
            return len(arr(ev, env, fx))

        return array_len

    def array_get(self, term: t.ArrayGet) -> Code:
        arr, index = self.array(term.arr), self.index(term.index, "get")

        def array_get(ev, env, fx):
            ev._steps += 1
            if ev._steps > ev.fuel:
                raise EvalError(_FUEL)
            values = arr(ev, env, fx)
            return values[index(ev, env, fx, len(values))]

        return array_get

    def array_put(self, term: t.ArrayPut) -> Code:
        arr, index = self.array(term.arr), self.index(term.index, "put")
        value = self(term.value)

        def array_put(ev, env, fx):
            values = arr(ev, env, fx)
            i = index(ev, env, fx, len(values))
            new = value(ev, env, fx)
            fresh = list(values)
            fresh[i] = new
            return fresh

        return _ticked(array_put)

    def array_map(self, term: t.ArrayMap) -> Code:
        arr, body, elem_name = self.array(term.arr), self(term.body), term.elem_name

        def array_map(ev, env, fx):
            values = arr(ev, env, fx)
            inner = dict(env)
            out = []
            for elem in values:
                inner[elem_name] = elem
                out.append(body(ev, inner, fx))
            return out

        return _ticked(array_map)

    def array_fold(self, term: t.ArrayFold) -> Code:
        arr, init, body = self.array(term.arr), self(term.init), self(term.body)
        acc_name, elem_name = term.acc_name, term.elem_name

        def array_fold(ev, env, fx):
            values = arr(ev, env, fx)
            acc = init(ev, env, fx)
            inner = dict(env)
            for elem in values:
                inner[acc_name] = acc
                inner[elem_name] = elem
                acc = body(ev, inner, fx)
            return acc

        return _ticked(array_fold)

    def array_fold_break(self, term: t.ArrayFoldBreak) -> Code:
        arr, init, body = self.array(term.arr), self(term.init), self(term.body)
        pred = self(term.break_pred)
        acc_name, elem_name = term.acc_name, term.elem_name

        def array_fold_break(ev, env, fx):
            values = arr(ev, env, fx)
            acc = init(ev, env, fx)
            # The predicate sees the accumulator but not the element.
            pred_env = dict(env)
            inner = dict(env)
            for elem in values:
                pred_env[acc_name] = acc
                if pred(ev, pred_env, fx):
                    break
                inner[acc_name] = acc
                inner[elem_name] = elem
                acc = body(ev, inner, fx)
            return acc

        return _ticked(array_fold_break)

    def ranged_for(self, term: t.RangedFor) -> Code:
        lo, hi, init, body = self(term.lo), self(term.hi), self(term.init), self(term.body)
        idx_name, acc_name = term.idx_name, term.acc_name

        def ranged_for(ev, env, fx):
            start = lo(ev, env, fx)
            stop = hi(ev, env, fx)
            acc = init(ev, env, fx)
            inner = dict(env)
            for index in range(int(start), int(stop)):
                inner[idx_name] = index
                inner[acc_name] = acc
                acc = body(ev, inner, fx)
            return acc

        return _ticked(ranged_for)

    def nat_iter(self, term: t.NatIter) -> Code:
        count, init, body = self(term.count), self(term.init), self(term.body)
        acc_name = term.acc_name

        def nat_iter(ev, env, fx):
            n = count(ev, env, fx)
            acc = init(ev, env, fx)
            inner = dict(env)
            for _ in range(int(n)):
                inner[acc_name] = acc
                acc = body(ev, inner, fx)
            return acc

        return _ticked(nat_iter)

    def first_n(self, term: t.FirstN) -> Code:
        count, arr = self(term.count), self.array(term.arr)

        def first_n(ev, env, fx):
            n = int(count(ev, env, fx))
            return arr(ev, env, fx)[:n]

        return _ticked(first_n)

    def skip_n(self, term: t.SkipN) -> Code:
        count, arr = self(term.count), self.array(term.arr)

        def skip_n(ev, env, fx):
            n = int(count(ev, env, fx))
            return arr(ev, env, fx)[n:]

        return _ticked(skip_n)

    def append(self, term: t.Append) -> Code:
        first, second = self.array(term.first), self.array(term.second)
        return _ticked(lambda ev, env, fx: first(ev, env, fx) + second(ev, env, fx))

    # -- tables and cells --

    def table_get(self, term: t.TableGet) -> Code:
        data = term.data
        index = self.index(term.index, "InlineTable.get")

        def table_get(ev, env, fx):
            ev._steps += 1
            if ev._steps > ev.fuel:
                raise EvalError(_FUEL)
            return data[index(ev, env, fx, len(data))]

        return table_get

    def cell_get(self, term: t.CellGet) -> Code:
        cell = self(term.cell)

        def cell_get(ev, env, fx):
            value = cell(ev, env, fx)
            if not isinstance(value, CellV):
                raise EvalError(f"get of non-cell value {value!r}")
            return value.value

        return _ticked(cell_get)

    def cell_put(self, term: t.CellPut) -> Code:
        cell, value = self(term.cell), self(term.value)

        def cell_put(ev, env, fx):
            old = cell(ev, env, fx)
            if not isinstance(old, CellV):
                raise EvalError(f"put of non-cell value {old!r}")
            return CellV(value(ev, env, fx))

        return _ticked(cell_put)

    def annotation(self, term: t.Term) -> Code:
        return _ticked(self(term.value))  # Stack and Copy unfold away

    def call(self, term: t.Call) -> Code:
        func, args = term.func, tuple(self(a) for a in term.args)

        def call(ev, env, fx):
            fns = env.get("__functions__")
            if not isinstance(fns, dict) or func not in fns:
                raise EvalError(f"no model for external function {func!r}")
            return fns[func](*[a(ev, env, fx) for a in args])

        return _ticked(call)

    # -- monads --

    def m_ret(self, term: t.MRet) -> Code:
        value = self(term.value)

        def m_ret(ev, env, fx):
            if fx.error:
                return 0
            return value(ev, env, fx)

        return _ticked(m_ret)

    def m_bind(self, term: t.MBind) -> Code:
        ma, body, name = self(term.ma), self(term.body), term.name

        def m_bind(ev, env, fx):
            if fx.error:
                return 0
            value = ma(ev, env, fx)
            if fx.error:
                return 0
            inner = dict(env)
            inner[name] = value
            return body(ev, inner, fx)

        return _ticked(m_bind)

    def err_guard(self, term: t.ErrGuard) -> Code:
        cond = self(term.cond)

        def err_guard(ev, env, fx):
            if not fx.error and not cond(ev, env, fx):
                fx.error = True
            return 0

        return _ticked(err_guard)

    def io_read(self, term: t.IORead) -> Code:
        def io_read(ev, env, fx):
            try:
                return next(fx.io_input)
            except StopIteration:
                raise EvalError("io.read past end of input") from None

        return _ticked(io_read)

    def io_write(self, term: t.IOWrite) -> Code:
        value = self(term.value)

        def io_write(ev, env, fx):
            result = value(ev, env, fx)
            fx.io_output.append(int(result))
            return result

        return _ticked(io_write)

    def writer_tell(self, term: t.WriterTell) -> Code:
        value = self(term.value)

        def writer_tell(ev, env, fx):
            result = value(ev, env, fx)
            fx.writer_output.append(int(result))
            return result

        return _ticked(writer_tell)

    def nd_any(self, term: t.NdAny) -> Code:
        ty = term.ty
        return _ticked(lambda ev, env, fx: fx.oracle("any", ty))

    def nd_alloc_bytes(self, term: t.NdAllocBytes) -> Code:
        nbytes = term.nbytes
        return _ticked(lambda ev, env, fx: list(fx.oracle("alloc", nbytes)))

    def st_get(self, term: t.StGet) -> Code:
        return _ticked(lambda ev, env, fx: fx.state)

    def st_put(self, term: t.StPut) -> Code:
        value = self(term.value)

        def st_put(ev, env, fx):
            fx.state = value(ev, env, fx)
            return fx.state

        return _ticked(st_put)

    # -- extension nodes --

    def extension(self, term: t.Term) -> Code:
        hook = getattr(term, "compile_node", None)
        if hook is not None:
            return _ticked(hook(self))
        message = f"cannot evaluate {term!r}"

        def unknown(ev, env, fx):
            raise EvalError(message)

        return _ticked(unknown)


# The core heads, in a fixed order; a subclass of a core node that is not
# listed by its own type compiles as its first match.
_DISPATCH: Dict[type, Callable[[Compiler, t.Term], Code]] = {
    t.Lit: Compiler.lit,
    t.Var: Compiler.var,
    t.Prim: Compiler.prim,
    t.Let: Compiler.binding,
    t.LetTuple: Compiler.binding,
    t.If: Compiler.if_,
    t.TupleTerm: Compiler.tuple_,
    t.ArrayLen: Compiler.array_len,
    t.ArrayGet: Compiler.array_get,
    t.ArrayPut: Compiler.array_put,
    t.ArrayMap: Compiler.array_map,
    t.ArrayFold: Compiler.array_fold,
    t.ArrayFoldBreak: Compiler.array_fold_break,
    t.RangedFor: Compiler.ranged_for,
    t.NatIter: Compiler.nat_iter,
    t.FirstN: Compiler.first_n,
    t.SkipN: Compiler.skip_n,
    t.Append: Compiler.append,
    t.TableGet: Compiler.table_get,
    t.CellGet: Compiler.cell_get,
    t.CellPut: Compiler.cell_put,
    t.Stack: Compiler.annotation,
    t.Copy: Compiler.annotation,
    t.Call: Compiler.call,
    t.MRet: Compiler.m_ret,
    t.MBind: Compiler.m_bind,
    t.ErrGuard: Compiler.err_guard,
    t.IORead: Compiler.io_read,
    t.IOWrite: Compiler.io_write,
    t.WriterTell: Compiler.writer_tell,
    t.NdAny: Compiler.nd_any,
    t.NdAllocBytes: Compiler.nd_alloc_bytes,
    t.StGet: Compiler.st_get,
    t.StPut: Compiler.st_put,
}
