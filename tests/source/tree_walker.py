"""The model tree-walker the model evaluator replaced, kept as an oracle.

:meth:`repro.source.evaluator.Evaluator.eval` runs every functional model
compiled into a generated Python function (:mod:`repro.source.closures`).
This module keeps
the meaning of source terms in its most direct form: one ``isinstance``
case per head, recursing over the term, with the query heads'
(:mod:`repro.query.terms`) cases inline.
``tests/source/test_model_eval_equivalence.py`` holds the generated
evaluator to it on values, effects, fuel and errors, and
``benchmarks/bench_exec.py`` times one against the other.  A test that
builds a head of its own subclasses :class:`TreeWalker` and overrides
:meth:`TreeWalker._eval` to give it a meaning.
"""

from __future__ import annotations

from typing import Optional

from repro.query.terms import QAggregate, QJoinAgg, QProjectInto
from repro.source import terms as t
from repro.source.evaluator import CellV, EffectContext, EvalError, Evaluator
from repro.source.ops import eval_op


class TreeWalker(Evaluator):
    """An :class:`Evaluator` whose ``eval`` walks the term."""

    def eval(
        self,
        term: t.Term,
        env: Optional[dict] = None,
        effects: Optional[EffectContext] = None,
    ) -> object:
        self._steps = 0
        return self._eval(term, dict(env or {}), effects or EffectContext())

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

        # The query heads ---------------------------------------------------
        if isinstance(term, QAggregate):
            count = int(self._eval(term.count, env, fx))
            acc = self._eval(term.init, env, fx)
            for index in range(count):
                inner = dict(env)
                inner[term.idx_name] = index
                inner[term.acc_name] = acc
                acc = self._eval(term.body, inner, fx)
            return acc
        if isinstance(term, QProjectInto):
            out = self._array(term.out, env, fx)
            result = []
            for index in range(len(out)):
                inner = dict(env)
                inner[term.idx_name] = index
                result.append(self._eval(term.body, inner, fx))
            return result
        if isinstance(term, QJoinAgg):
            left = int(self._eval(term.left_count, env, fx))
            right = int(self._eval(term.right_count, env, fx))
            acc = self._eval(term.init, env, fx)
            for i in range(left):
                for j in range(right):
                    inner = dict(env)
                    inner[term.i_name] = i
                    inner[term.j_name] = j
                    inner[term.acc_name] = acc
                    acc = self._eval(term.body, inner, fx)
            return acc

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
