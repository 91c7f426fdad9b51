"""The functional semantics of source terms.

Evaluating a term yields a plain Python value: ints for words/bytes/nats,
bools, lists for arrays, tuples for tuple results.  This is the "shallow"
half of the embedding -- the functional model *is* a runnable program --
and it is the reference against which both hand proofs (model vs spec) and
the differential validator (model vs compiled Bedrock2) compare.

Annotations are semantically transparent, exactly as in the paper
(§3.4.1): ``let/n`` evaluates like a plain ``let``, ``stack``/``copy``
evaluate to their argument, and the wrapper modules (``ListArray``,
``InlineTable``) evaluate to ordinary list operations.

Extensional effects run against an :class:`EffectContext`: the I/O monad
consumes an input stream and appends to an output trace, the writer monad
appends to an output list, the state monad threads a value, and the
nondeterminism monad consults an *oracle* -- validation picks the oracle
that mirrors the compiled code's actual choices, which is the existential
direction of the nondeterminism lift described in §3.4.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional

from repro.source import terms as t
from repro.source.ops import eval_op


class EvalError(Exception):
    """The term is stuck (unbound variable, out-of-bounds access, ...)."""


@dataclass
class CellV:
    """Runtime representation of a mutable cell's *functional* value."""

    value: int

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CellV) and self.value == other.value


def default_oracle(tag: str, arg: object) -> object:
    """The deterministic default oracle: zeros everywhere."""
    if tag == "alloc":
        return [0] * int(arg)  # type: ignore[arg-type]
    return 0


@dataclass
class EffectContext:
    """Carries the ambient extensional effects during evaluation."""

    io_input: Iterator[int] = field(default_factory=lambda: iter(()))
    io_output: List[int] = field(default_factory=list)
    writer_output: List[int] = field(default_factory=list)
    state: object = None
    oracle: Callable[[str, object], object] = default_oracle
    # Error monad: set by a failed ErrGuard; short-circuits later binds.
    error: bool = False


class Evaluator:
    """Evaluates terms at a given target word width.

    :meth:`_eval` is the tree-walker, the reference semantics.
    :meth:`eval` runs the term compiled into closures instead
    (:mod:`repro.source.closures`), which matches the tree-walker on
    values, effects, fuel and errors.  A subclass that overrides
    :meth:`_eval` runs on the tree-walker alone.
    """

    def __init__(self, width: int = 64, fuel: int = 10_000_000):
        self.width = width
        self.fuel = fuel
        self._tree_walk = type(self)._eval is not Evaluator._eval

    def eval(
        self,
        term: t.Term,
        env: Optional[dict] = None,
        effects: Optional[EffectContext] = None,
    ) -> object:
        env = dict(env or {})
        effects = effects or EffectContext()
        self._steps = 0
        if self._tree_walk:
            return self._eval(term, env, effects)
        return closures.compiled(term, self.width)(self, env, effects)

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.fuel:
            raise EvalError("evaluation fuel exhausted")

    def _eval(self, term: t.Term, env: dict, fx: EffectContext) -> object:
        self._tick()
        if isinstance(term, t.Lit):
            if isinstance(term.value, tuple):
                return list(term.value)  # array literals
            return term.value
        if isinstance(term, t.Var):
            try:
                return env[term.name]
            except KeyError:
                raise EvalError(f"unbound variable {term.name!r}") from None
        if isinstance(term, t.Prim):
            args = [self._eval(a, env, fx) for a in term.args]
            return eval_op(term.op, self.width, args)
        if isinstance(term, t.Let):
            value = self._eval(term.value, env, fx)
            inner = dict(env)
            inner[term.name] = value
            return self._eval(term.body, inner, fx)
        if isinstance(term, t.LetTuple):
            value = self._eval(term.value, env, fx)
            if not isinstance(value, tuple) or len(value) != len(term.names):
                raise EvalError(
                    f"let-tuple of {len(term.names)} names got {value!r}"
                )
            inner = dict(env)
            for binder, component in zip(term.names, value):
                inner[binder] = component
            return self._eval(term.body, inner, fx)
        if isinstance(term, t.If):
            cond = self._eval(term.cond, env, fx)
            return self._eval(term.then_ if cond else term.else_, env, fx)
        if isinstance(term, t.TupleTerm):
            return tuple(self._eval(a, env, fx) for a in term.items)

        # Arrays ----------------------------------------------------------
        if isinstance(term, t.ArrayLen):
            return len(self._array(term.arr, env, fx))
        if isinstance(term, t.ArrayGet):
            arr = self._array(term.arr, env, fx)
            index = self._index(term.index, env, fx, len(arr), "get")
            return arr[index]
        if isinstance(term, t.ArrayPut):
            arr = self._array(term.arr, env, fx)
            index = self._index(term.index, env, fx, len(arr), "put")
            value = self._eval(term.value, env, fx)
            fresh = list(arr)
            fresh[index] = value
            return fresh
        if isinstance(term, t.ArrayMap):
            arr = self._array(term.arr, env, fx)
            out = []
            for elem in arr:
                inner = dict(env)
                inner[term.elem_name] = elem
                out.append(self._eval(term.body, inner, fx))
            return out
        if isinstance(term, t.ArrayFold):
            arr = self._array(term.arr, env, fx)
            acc = self._eval(term.init, env, fx)
            for elem in arr:
                inner = dict(env)
                inner[term.acc_name] = acc
                inner[term.elem_name] = elem
                acc = self._eval(term.body, inner, fx)
            return acc
        if isinstance(term, t.ArrayFoldBreak):
            arr = self._array(term.arr, env, fx)
            acc = self._eval(term.init, env, fx)
            for elem in arr:
                pred_env = dict(env)
                pred_env[term.acc_name] = acc
                if self._eval(term.break_pred, pred_env, fx):
                    break
                inner = dict(env)
                inner[term.acc_name] = acc
                inner[term.elem_name] = elem
                acc = self._eval(term.body, inner, fx)
            return acc
        if isinstance(term, t.RangedFor):
            lo = self._eval(term.lo, env, fx)
            hi = self._eval(term.hi, env, fx)
            acc = self._eval(term.init, env, fx)
            for index in range(int(lo), int(hi)):
                inner = dict(env)
                inner[term.idx_name] = index
                inner[term.acc_name] = acc
                acc = self._eval(term.body, inner, fx)
            return acc
        if isinstance(term, t.NatIter):
            count = self._eval(term.count, env, fx)
            acc = self._eval(term.init, env, fx)
            for _ in range(int(count)):
                inner = dict(env)
                inner[term.acc_name] = acc
                acc = self._eval(term.body, inner, fx)
            return acc

        if isinstance(term, t.FirstN):
            count = int(self._eval(term.count, env, fx))
            return self._array(term.arr, env, fx)[:count]
        if isinstance(term, t.SkipN):
            count = int(self._eval(term.count, env, fx))
            return self._array(term.arr, env, fx)[count:]
        if isinstance(term, t.Append):
            return self._array(term.first, env, fx) + self._array(term.second, env, fx)

        # Tables / cells ----------------------------------------------------
        if isinstance(term, t.TableGet):
            index = self._index(term.index, env, fx, len(term.data), "InlineTable.get")
            return term.data[index]
        if isinstance(term, t.CellGet):
            cell = self._eval(term.cell, env, fx)
            if not isinstance(cell, CellV):
                raise EvalError(f"get of non-cell value {cell!r}")
            return cell.value
        if isinstance(term, t.CellPut):
            cell = self._eval(term.cell, env, fx)
            if not isinstance(cell, CellV):
                raise EvalError(f"put of non-cell value {cell!r}")
            return CellV(self._eval(term.value, env, fx))

        # Annotations unfold away -------------------------------------------
        if isinstance(term, (t.Stack, t.Copy)):
            return self._eval(term.value, env, fx)

        # External calls: resolved via the env's function table --------------
        if isinstance(term, t.Call):
            fns = env.get("__functions__")
            if not isinstance(fns, dict) or term.func not in fns:
                raise EvalError(f"no model for external function {term.func!r}")
            args = [self._eval(a, env, fx) for a in term.args]
            return fns[term.func](*args)

        # Monads ---------------------------------------------------------------
        if isinstance(term, t.MRet):
            if fx.error:
                return 0
            return self._eval(term.value, env, fx)
        if isinstance(term, t.MBind):
            if fx.error:
                return 0
            value = self._eval(term.ma, env, fx)
            if fx.error:
                return 0
            inner = dict(env)
            inner[term.name] = value
            return self._eval(term.body, inner, fx)
        if isinstance(term, t.ErrGuard):
            if not fx.error and not self._eval(term.cond, env, fx):
                fx.error = True
            return 0
        if isinstance(term, t.IORead):
            try:
                return next(fx.io_input)
            except StopIteration:
                raise EvalError("io.read past end of input") from None
        if isinstance(term, t.IOWrite):
            value = self._eval(term.value, env, fx)
            fx.io_output.append(int(value))
            return value
        if isinstance(term, t.WriterTell):
            value = self._eval(term.value, env, fx)
            fx.writer_output.append(int(value))
            return value
        if isinstance(term, t.NdAny):
            return fx.oracle("any", term.ty)
        if isinstance(term, t.NdAllocBytes):
            data = fx.oracle("alloc", term.nbytes)
            return list(data)  # type: ignore[arg-type]
        if isinstance(term, t.StGet):
            return fx.state
        if isinstance(term, t.StPut):
            fx.state = self._eval(term.value, env, fx)
            return fx.state

        # Open extension point: Term subclasses defined outside
        # repro.source (e.g. repro.query's combinators) carry their own
        # functional semantics via ``eval_node`` instead of growing this
        # chain (and via ``compile_node`` for the closure path).  The
        # hook receives the evaluator so it can recurse (and so fuel
        # accounting stays shared).
        hook = getattr(term, "eval_node", None)
        if hook is not None:
            return hook(self, env, fx)

        raise EvalError(f"cannot evaluate {term!r}")

    # -- Helpers ----------------------------------------------------------------

    def _array(self, term: t.Term, env: dict, fx: EffectContext) -> list:
        value = self._eval(term, env, fx)
        if not isinstance(value, list):
            raise EvalError(f"expected an array, got {value!r}")
        return value

    def _index(
        self, term: t.Term, env: dict, fx: EffectContext, length: int, what: str
    ) -> int:
        index = self._eval(term, env, fx)
        index = int(index)
        if not 0 <= index < length:
            raise EvalError(f"{what}: index {index} out of bounds (length {length})")
        return index


def eval_term(
    term: t.Term,
    env: Optional[dict] = None,
    width: int = 64,
    effects: Optional[EffectContext] = None,
) -> object:
    """One-shot evaluation helper."""
    return Evaluator(width=width).eval(term, env, effects)


# Imported last: the closure compiler builds on the names above.
from repro.source import closures  # noqa: E402
