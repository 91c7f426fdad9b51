"""Function specifications: the binary interface (ABI) of §3.2.

A Rupicola user supplies, besides the functional model, "a binary
interface (an ABI, the collection of low-level representation choices
that are visible to other low-level code but abstracted-away in the
high-level code)" -- the ``fnspec`` of the paper's upstr example.  Our
:class:`FnSpec` carries the same information:

- how each Bedrock2 argument relates to a model parameter (a scalar
  value, a pointer to an array/cell, or the length of an array);
- how the model's result is returned (scalar return values and/or the
  final contents of pointed-to memory);
- extra *incidental* facts about the inputs that side-condition solvers
  may use (§3.4.2).

``FnSpec.initial_state`` builds the symbolic precondition the proof
search starts from, and the validation harness uses the same spec to set
up concrete memory when differentially testing compiled code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.bedrock2 import ast
from repro.core.certificate import Certificate
from repro.core.sepstate import Clause, PtrSym, SymState
from repro.source import terms as t
from repro.source.types import NAT, WORD, SourceType, TypeKind


class ArgKind(enum.Enum):
    SCALAR = "scalar"  # the argument word is the value of a scalar param
    POINTER = "pointer"  # the argument word points at an array/cell param
    LENGTH = "length"  # the argument word is of_nat (length param)


@dataclass(frozen=True)
class ArgSpec:
    """One Bedrock2 argument and its relation to a model parameter.

    For POINTER arguments, ``name`` must equal the model binder name used
    in the source's ``let/n`` bindings: that is how the compiler knows a
    rebinding of that name is an in-place mutation of this argument.
    """

    name: str
    kind: ArgKind
    param: str
    ty: SourceType  # scalar type, or the pointed-to composite type


def scalar_arg(name: str, param: Optional[str] = None, ty: SourceType = WORD) -> ArgSpec:
    return ArgSpec(name, ArgKind.SCALAR, param or name, ty)


def ptr_arg(name: str, ty: SourceType, param: Optional[str] = None) -> ArgSpec:
    if ty.kind not in (TypeKind.ARRAY, TypeKind.CELL):
        raise ValueError("pointer arguments point at arrays or cells")
    return ArgSpec(name, ArgKind.POINTER, param or name, ty)


def len_arg(name: str, param: str) -> ArgSpec:
    return ArgSpec(name, ArgKind.LENGTH, param, WORD)


class OutKind(enum.Enum):
    SCALAR = "scalar"  # returned through a Bedrock2 return variable
    ARRAY = "array"  # left in the memory pointed to by an argument
    ERROR_FLAG = "error_flag"  # 1 iff no error-monad guard failed


@dataclass(frozen=True)
class Output:
    """One component of the model's result and how the target delivers it."""

    kind: OutKind
    param: Optional[str] = None  # for ARRAY outputs: which pointer argument


def scalar_out() -> Output:
    return Output(OutKind.SCALAR)


def array_out(param: str) -> Output:
    return Output(OutKind.ARRAY, param)


def error_out() -> Output:
    """The error monad's success flag: it has no model-term component (the
    model's error state is ambient); by convention it is the first output
    and hence the first Bedrock2 return value."""
    return Output(OutKind.ERROR_FLAG)


@dataclass
class Model:
    """An annotated functional model: parameters, body term, result type."""

    name: str
    params: List[Tuple[str, SourceType]]
    term: t.Term
    result_ty: Optional[SourceType] = None


@dataclass
class FnSpec:
    """The ``fnspec!`` of §3.2: requires/ensures as structured data."""

    fname: str
    args: List[ArgSpec]
    outputs: List[Output] = field(default_factory=list)
    facts: List[t.Term] = field(default_factory=list)
    # For the state monad: which pointer argument holds the threaded state.
    state_param: Optional[str] = None

    def arg_names(self) -> Tuple[str, ...]:
        return tuple(arg.name for arg in self.args)

    @property
    def has_error_flag(self) -> bool:
        return any(out.kind is OutKind.ERROR_FLAG for out in self.outputs)

    def arg_for_param(self, param: str, kind: ArgKind) -> Optional[ArgSpec]:
        for arg in self.args:
            if arg.param == param and arg.kind == kind:
                return arg
        return None

    @staticmethod
    def ghost_name(param: str) -> str:
        """The ghost variable standing for a parameter's *initial* value.

        Ghosts live in a separate namespace from Bedrock2 locals (Coq
        keeps these apart automatically; we suffix with ``#in``), so that
        resolving terms against the evolving symbolic state never
        re-interprets an already-resolved occurrence.
        """
        return f"{param}#in"

    def initial_state(self, model: Model, width: int = 64) -> SymState:
        """Build the symbolic precondition (the requires clause)."""
        state = SymState(width=width)
        ghosts = {param: self.ghost_name(param) for param, _ in model.params}
        for param, ty in model.params:
            state.set_ghost_type(ghosts[param], ty)
        for arg in self.args:
            ghost = ghosts.get(arg.param, self.ghost_name(arg.param))
            state.ghost_types.setdefault(
                ghost, arg.ty if arg.kind is not ArgKind.LENGTH else arg.ty
            )
            param_term = t.Var(ghost)
            if arg.kind is ArgKind.POINTER and arg.ty.kind is TypeKind.CELL:
                # A cell's functional value is its content.
                param_term = t.CellGet(t.Var(ghost))
            if arg.kind is ArgKind.SCALAR:
                if arg.ty is NAT:
                    # A nat passed in a word: the local physically holds
                    # of_nat(param) -- the NAT-binding convention shared
                    # with compile_set_scalar -- and the param is known
                    # to fit in a word.
                    state.add_fact(
                        t.Prim("nat.ltb", (param_term, t.Lit(1 << width, NAT)))
                    )
                state.bind_scalar(arg.name, param_term, arg.ty)
            elif arg.kind is ArgKind.POINTER:
                ptr = PtrSym(f"p_{arg.name}")
                state.bind_pointer(arg.name, ptr, arg.ty)
                state.add_clause(Clause(ptr=ptr, ty=arg.ty, value=param_term))
            elif arg.kind is ArgKind.LENGTH:
                # NAT-binding convention: the local physically holds
                # of_nat (length param); the binding records the nat term.
                length = t.ArrayLen(t.Var(ghost))
                state.bind_scalar(arg.name, length, NAT)
                # wlen = of_nat (length s) implies length s fits in a word.
                state.add_fact(t.Prim("nat.ltb", (length, t.Lit(1 << width, NAT))))
        # User-supplied incidental facts are written over parameter names;
        # rewrite them over the entry ghosts.
        for fact in self.facts:
            for param, ghost in ghosts.items():
                fact = t.subst(fact, param, t.Var(ghost))
            state.add_fact(fact)
        return state


@dataclass
class CompiledFunction:
    """The result of a derivation: code + certificate + provenance.

    The Coq analogue is the pair produced by ``Derive``: the Bedrock2
    program ``upstr_br2fn`` and its correctness proof ``upstr_br2fn_ok``.
    """

    bedrock_fn: ast.Function
    certificate: Certificate
    spec: FnSpec
    model: Model
    # Set by ``optimize``: the per-pass certificates of the optimizer run
    # that produced this bundle's code (None for unoptimized output).
    opt_report: Optional[object] = None

    @property
    def name(self) -> str:
        return self.bedrock_fn.name

    def c_source(self) -> str:
        from repro.bedrock2.c_printer import print_c_function

        return print_c_function(self.bedrock_fn)

    def statement_count(self) -> int:
        return ast.statement_count(self.bedrock_fn.body)

    def optimize(
        self,
        level: int = 1,
        *,
        trials: int = 8,
        rng=None,
        input_gen=None,
        width: int = 64,
        lift_validate: bool = False,
    ) -> "CompiledFunction":
        """Run the translation-validated optimizer (``repro.opt``).

        Every pass is checked: well-formedness plus a differential test
        of the candidate against this bundle's model under its spec.  A
        failing pass is rejected and the pipeline continues from the
        pre-pass AST, so the result is never less correct than the
        input.  The returned bundle carries the per-pass certificates in
        ``opt_report``; ``level <= 0`` returns ``self`` unchanged.

        ``lift_validate=True`` adds the ``repro.lift`` end-to-end check:
        the pipeline output is lifted back to a functional model and
        cross-checked against this bundle's model; drift rejects the
        whole optimization (see
        :func:`repro.validation.passcheck.optimize_compiled`).
        """
        if level <= 0:
            return self
        from repro.validation.passcheck import optimize_compiled

        optimized, _ = optimize_compiled(
            self,
            level=level,
            trials=trials,
            rng=rng,
            input_gen=input_gen,
            width=width,
            lift_validate=lift_validate,
        )
        return optimized
