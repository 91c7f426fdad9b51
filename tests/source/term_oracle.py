"""The hand-written ``free_vars``/``subst`` the shared traversal replaced,
kept as an oracle.

``tests/source/test_term_oracle.py`` holds :func:`repro.source.terms.free_vars`,
:func:`~repro.source.terms.subst` and ``Term.children()`` to these
functions on the model corpora.  They are the scoping rules written in
their most direct form: one ``isinstance`` case per head, naming its
fields.  Two changes from the functions they were copied from:
``subst`` has the ``ErrGuard`` case it used to miss, and the query heads'
former ``free_vars_node``/``subst_node`` hooks are inlined as cases.

:data:`CHILDREN` pins each head's ``children()`` order (the range
analysis and the loop lemmas' statement-shape test walk children in
order).  :data:`EXTENSIONS` lets a test add a binder-free head of its
own: ``type -> (children, rebuild)``.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.query.terms import QAggregate, QJoinAgg, QProjectInto
from repro.source import terms as t

CHILDREN: Dict[type, Callable[[t.Term], Tuple[t.Term, ...]]] = {
    t.Lit: lambda n: (),
    t.Var: lambda n: (),
    t.Prim: lambda n: n.args,
    t.Let: lambda n: (n.value, n.body),
    t.LetTuple: lambda n: (n.value, n.body),
    t.If: lambda n: (n.cond, n.then_, n.else_),
    t.TupleTerm: lambda n: n.items,
    t.ArrayLen: lambda n: (n.arr,),
    t.ArrayGet: lambda n: (n.arr, n.index),
    t.ArrayPut: lambda n: (n.arr, n.index, n.value),
    t.ArrayMap: lambda n: (n.body, n.arr),
    t.ArrayFold: lambda n: (n.body, n.init, n.arr),
    t.ArrayFoldBreak: lambda n: (n.body, n.init, n.arr, n.break_pred),
    t.RangedFor: lambda n: (n.lo, n.hi, n.body, n.init),
    t.NatIter: lambda n: (n.count, n.body, n.init),
    t.FirstN: lambda n: (n.count, n.arr),
    t.SkipN: lambda n: (n.count, n.arr),
    t.Append: lambda n: (n.first, n.second),
    t.TableGet: lambda n: (n.index,),
    t.CellGet: lambda n: (n.cell,),
    t.CellPut: lambda n: (n.cell, n.value),
    t.Stack: lambda n: (n.value,),
    t.Copy: lambda n: (n.value,),
    t.Call: lambda n: n.args,
    t.MRet: lambda n: (n.value,),
    t.MBind: lambda n: (n.ma, n.body),
    t.IORead: lambda n: (),
    t.IOWrite: lambda n: (n.value,),
    t.WriterTell: lambda n: (n.value,),
    t.ErrGuard: lambda n: (n.cond,),
    t.NdAny: lambda n: (),
    t.NdAllocBytes: lambda n: (),
    t.StGet: lambda n: (),
    t.StPut: lambda n: (n.value,),
    QAggregate: lambda n: (n.count, n.init, n.body),
    QProjectInto: lambda n: (n.out, n.body),
    QJoinAgg: lambda n: (n.left_count, n.right_count, n.init, n.body),
}

EXTENSIONS: Dict[type, Tuple[Callable, Callable]] = {}


def children(term: t.Term) -> Tuple[t.Term, ...]:
    extension = EXTENSIONS.get(type(term))
    if extension is not None:
        return extension[0](term)
    return CHILDREN[type(term)](term)


def free_vars(term: t.Term) -> set:
    """Free variable names of ``term``."""
    if isinstance(term, t.Var):
        return {term.name}
    if isinstance(term, t.Let):
        return free_vars(term.value) | (free_vars(term.body) - {term.name})
    if isinstance(term, t.LetTuple):
        return free_vars(term.value) | (free_vars(term.body) - set(term.names))
    if isinstance(term, t.MBind):
        return free_vars(term.ma) | (free_vars(term.body) - {term.name})
    if isinstance(term, t.ArrayMap):
        return (free_vars(term.body) - {term.elem_name}) | free_vars(term.arr)
    if isinstance(term, t.ArrayFold):
        bound = {term.acc_name, term.elem_name}
        return (
            (free_vars(term.body) - bound)
            | free_vars(term.init)
            | free_vars(term.arr)
        )
    if isinstance(term, t.ArrayFoldBreak):
        bound = {term.acc_name, term.elem_name}
        return (
            (free_vars(term.body) - bound)
            | (free_vars(term.break_pred) - {term.acc_name})
            | free_vars(term.init)
            | free_vars(term.arr)
        )
    if isinstance(term, t.RangedFor):
        bound = {term.idx_name, term.acc_name}
        return (
            free_vars(term.lo)
            | free_vars(term.hi)
            | (free_vars(term.body) - bound)
            | free_vars(term.init)
        )
    if isinstance(term, t.NatIter):
        return (
            free_vars(term.count)
            | (free_vars(term.body) - {term.acc_name})
            | free_vars(term.init)
        )
    if isinstance(term, QAggregate):
        bound = {term.idx_name, term.acc_name}
        return (
            free_vars(term.count)
            | free_vars(term.init)
            | (free_vars(term.body) - bound)
        )
    if isinstance(term, QProjectInto):
        return free_vars(term.out) | (free_vars(term.body) - {term.idx_name})
    if isinstance(term, QJoinAgg):
        bound = {term.i_name, term.j_name, term.acc_name}
        return (
            free_vars(term.left_count)
            | free_vars(term.right_count)
            | free_vars(term.init)
            | (free_vars(term.body) - bound)
        )
    out: set = set()
    for child in children(term):
        out |= free_vars(child)
    return out


def subst(term: t.Term, name: str, replacement: t.Term) -> t.Term:
    """Capture-avoiding-enough substitution (binders shadow)."""

    def sub(child: t.Term) -> t.Term:
        return subst(child, name, replacement)

    if isinstance(term, t.Var):
        return replacement if term.name == name else term
    if isinstance(term, t.Let):
        body = term.body if term.name == name else sub(term.body)
        return t.Let(term.name, sub(term.value), body)
    if isinstance(term, t.LetTuple):
        body = term.body if name in term.names else sub(term.body)
        return t.LetTuple(term.names, sub(term.value), body)
    if isinstance(term, t.MBind):
        body = term.body if term.name == name else sub(term.body)
        return t.MBind(term.name, sub(term.ma), body)
    if isinstance(term, t.ArrayMap):
        body = term.body if term.elem_name == name else sub(term.body)
        return t.ArrayMap(term.elem_name, body, sub(term.arr))
    if isinstance(term, t.ArrayFold):
        shadowed = name in (term.acc_name, term.elem_name)
        body = term.body if shadowed else sub(term.body)
        return t.ArrayFold(
            term.acc_name, term.elem_name, body, sub(term.init), sub(term.arr)
        )
    if isinstance(term, t.ArrayFoldBreak):
        shadowed = name in (term.acc_name, term.elem_name)
        body = term.body if shadowed else sub(term.body)
        pred = term.break_pred if name == term.acc_name else sub(term.break_pred)
        return t.ArrayFoldBreak(
            term.acc_name, term.elem_name, body, sub(term.init), sub(term.arr), pred
        )
    if isinstance(term, t.RangedFor):
        shadowed = name in (term.idx_name, term.acc_name)
        body = term.body if shadowed else sub(term.body)
        return t.RangedFor(
            sub(term.lo), sub(term.hi), term.idx_name, term.acc_name, body, sub(term.init)
        )
    if isinstance(term, t.NatIter):
        body = term.body if term.acc_name == name else sub(term.body)
        return t.NatIter(sub(term.count), term.acc_name, body, sub(term.init))
    if isinstance(term, QAggregate):
        shadowed = name in (term.idx_name, term.acc_name)
        body = term.body if shadowed else sub(term.body)
        return QAggregate(
            term.idx_name, term.acc_name, sub(term.count), sub(term.init), body
        )
    if isinstance(term, QProjectInto):
        body = term.body if name == term.idx_name else sub(term.body)
        return QProjectInto(term.idx_name, sub(term.out), body)
    if isinstance(term, QJoinAgg):
        shadowed = name in (term.i_name, term.j_name, term.acc_name)
        body = term.body if shadowed else sub(term.body)
        return QJoinAgg(
            term.i_name, term.j_name, term.acc_name,
            sub(term.left_count), sub(term.right_count), sub(term.init), body,
        )
    # Congruence over the binder-free heads.
    if isinstance(term, t.Prim):
        return t.Prim(term.op, tuple(sub(a) for a in term.args))
    if isinstance(term, t.If):
        return t.If(sub(term.cond), sub(term.then_), sub(term.else_))
    if isinstance(term, t.TupleTerm):
        return t.TupleTerm(tuple(sub(a) for a in term.items))
    if isinstance(term, t.ArrayLen):
        return t.ArrayLen(sub(term.arr))
    if isinstance(term, t.ArrayGet):
        return t.ArrayGet(sub(term.arr), sub(term.index))
    if isinstance(term, t.ArrayPut):
        return t.ArrayPut(sub(term.arr), sub(term.index), sub(term.value))
    if isinstance(term, t.FirstN):
        return t.FirstN(sub(term.count), sub(term.arr))
    if isinstance(term, t.SkipN):
        return t.SkipN(sub(term.count), sub(term.arr))
    if isinstance(term, t.Append):
        return t.Append(sub(term.first), sub(term.second))
    if isinstance(term, t.TableGet):
        return t.TableGet(term.data, term.elem_ty, sub(term.index))
    if isinstance(term, t.CellGet):
        return t.CellGet(sub(term.cell))
    if isinstance(term, t.CellPut):
        return t.CellPut(sub(term.cell), sub(term.value))
    if isinstance(term, t.Stack):
        return t.Stack(sub(term.value))
    if isinstance(term, t.Copy):
        return t.Copy(sub(term.value))
    if isinstance(term, t.Call):
        return t.Call(term.func, tuple(sub(a) for a in term.args))
    if isinstance(term, t.MRet):
        return t.MRet(sub(term.value))
    if isinstance(term, t.IOWrite):
        return t.IOWrite(sub(term.value))
    if isinstance(term, t.WriterTell):
        return t.WriterTell(sub(term.value))
    if isinstance(term, t.ErrGuard):
        return t.ErrGuard(sub(term.cond))
    if isinstance(term, t.StPut):
        return t.StPut(sub(term.value))
    extension = EXTENSIONS.get(type(term))
    if extension is not None:
        return extension[1](term, [sub(c) for c in extension[0](term)])
    if type(term) in CHILDREN and not CHILDREN[type(term)](term):
        return term  # leaves: Lit, IORead, NdAny, NdAllocBytes, StGet
    raise TypeError(f"oracle has no case for {type(term).__name__}")
