"""The ``ListArray`` module: list operations that compile to flat arrays.

From the paper (§3.4.1): "in complex cases the user can control memory
layout explicitly by using modules that transparently wrap underlying
functional types (for example, the ListArray module reexposes list
operations but tells Rupicola to use a contiguous array)".

Functionally, everything here is a plain list operation (see the
evaluator); the only effect of going through this module is that the
compiler will represent the value as a contiguous Bedrock2 array.

Edge-case semantics (shared by the evaluator and the compiled loops):

- the empty array is a perfectly good table: ``map`` leaves it empty
  and ``fold``/``fold_break`` return ``init`` without evaluating their
  bodies (the compiled loop guard fails immediately);
- ``get`` has *no* defined out-of-range value.  The evaluator raises
  ``EvalError``, and the compiler only accepts a ``get`` whose index it
  can prove in bounds from the spec's facts -- an unprovable index is a
  side-condition stall, never a wrapped or clamped load.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.source import terms as t
from repro.source.builder import SymValue, lift, to_term, trace_lambda
from repro.source.types import NAT, SourceType, TypeKind


def _array_elem(arr: SymValue) -> SourceType:
    if arr.ty.kind is not TypeKind.ARRAY:
        raise TypeError(f"expected an array value, got {arr.ty!r}")
    assert arr.ty.elem is not None
    return arr.ty.elem


def length(arr: SymValue) -> SymValue:
    """``List.length`` -- a nat."""
    _array_elem(arr)
    return SymValue(t.ArrayLen(arr.term), NAT)


def get(arr: SymValue, index) -> SymValue:
    """``ListArray.get a i`` (functionally ``nth i a``).

    Defined only for ``i < length a``: evaluation raises ``EvalError``
    out of range, and compilation demands an in-bounds proof.
    """
    elem = _array_elem(arr)
    return SymValue(t.ArrayGet(arr.term, to_term(index, NAT)), elem)


def put(arr: SymValue, index, value) -> SymValue:
    """``ListArray.put a i v`` (functionally ``a[i <- v]``)."""
    elem = _array_elem(arr)
    value_t = to_term(value, elem)
    return SymValue(t.ArrayPut(arr.term, to_term(index, NAT), value_t), arr.ty)


def map_(fn: Callable, arr: SymValue, elem_name: Optional[str] = None) -> SymValue:
    """``ListArray.map (fun b => ...) a`` -- compiles to an in-place for loop."""
    elem = _array_elem(arr)
    names, body, body_ty = trace_lambda(fn, [elem], [elem_name] if elem_name else None)
    if body_ty != elem:
        raise TypeError(
            f"ListArray.map body must preserve the element type "
            f"({elem!r}), got {body_ty!r}"
        )
    return SymValue(t.ArrayMap(names[0], body, arr.term), arr.ty)


def fold(
    fn: Callable,
    init,
    arr: SymValue,
    acc_ty: Optional[SourceType] = None,
    names: Optional[Sequence[str]] = None,
) -> SymValue:
    """``List.fold_left (fun acc b => ...) a init``.

    On the empty array this is ``init`` (the body never runs).
    """
    elem = _array_elem(arr)
    init_v = lift(init, acc_ty)
    acc_ty = acc_ty or init_v.ty
    traced_names, body, body_ty = trace_lambda(
        fn, [acc_ty, elem], list(names) if names else None
    )
    if body_ty != acc_ty:
        raise TypeError(
            f"fold body must return the accumulator type ({acc_ty!r}), got {body_ty!r}"
        )
    return SymValue(
        t.ArrayFold(traced_names[0], traced_names[1], body, init_v.term, arr.term),
        acc_ty,
    )


def fold_break(
    fn: Callable,
    init,
    arr: SymValue,
    until: Callable,
    acc_ty: Optional[SourceType] = None,
    names: Optional[Sequence[str]] = None,
) -> SymValue:
    """A fold with an early exit: stop (before the next element) once
    ``until(acc)`` holds.  The paper's "folds ... with early exits".

    On the empty array this is ``init``; ``until`` is only consulted
    between elements, so it never fires on an empty input.
    """
    from repro.source import terms as t
    from repro.source.types import BOOL

    elem = _array_elem(arr)
    init_v = lift(init, acc_ty)
    acc_ty = acc_ty or init_v.ty
    traced_names, body, body_ty = trace_lambda(
        fn, [acc_ty, elem], list(names) if names else None
    )
    if body_ty != acc_ty:
        raise TypeError(
            f"fold_break body must return the accumulator type ({acc_ty!r}), "
            f"got {body_ty!r}"
        )
    pred_names, pred, pred_ty = trace_lambda(until, [acc_ty], [traced_names[0]])
    if pred_ty is not BOOL:
        raise TypeError(f"fold_break predicate must be boolean, got {pred_ty!r}")
    return SymValue(
        t.ArrayFoldBreak(
            traced_names[0], traced_names[1], body, init_v.term, arr.term, pred
        ),
        acc_ty,
    )

