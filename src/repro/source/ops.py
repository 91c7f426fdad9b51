"""The catalog of pure primitive operations of the source language.

Each operation records its typing, its functional semantics as a Python
expression template (``template``, from which ``impl`` is built), and a
*lowering spec* describing how the relational expression compiler
realizes it on Bedrock2 words.  Lowering specs are deliberately tiny data,
not code: the expression-compilation lemmas in ``repro.stdlib.exprs``
interpret them, so a user-supplied lemma can always override the default
lowering of any operation for a specific program (that is the whole point
of relational compilation).

Conventions mirroring Gallina:

- ``word.*``  -- machine-word ops, modular semantics at the target width;
- ``byte.*``  -- byte ops (range invariant ``0 <= v < 256``);
- ``nat.*``   -- unbounded naturals; ``nat.sub`` truncates at zero like
  Coq's ``Nat.sub``; lowering to words incurs no-overflow side conditions;
- ``bool.*``  -- booleans, reified as 0/1 words in the target.

Lowering spec forms (interpreted by the expression compiler):

- ``("op", name)``        -- direct Bedrock2 binary operator;
- ``("op_mask8", name)``  -- Bedrock2 operator followed by ``& 0xff``
  (keeps the byte range invariant for ops that can carry out of 8 bits);
- ``("eq0",)``            -- ``arg == 0`` (boolean negation);
- ``("id",)``             -- identity (representation-only cast);
- ``("mask8",)``          -- ``arg & 0xff`` (word-to-byte truncation);
- ``("guarded", name)``   -- direct operator, plus a named side condition
  the compiler must discharge (e.g. no-overflow for nat arithmetic).

A template is a Python expression over ``{a}`` and ``{b}`` (the operands)
and ``{w}``, ``{mask}`` and ``{sign}`` (the word width, ``2^w - 1`` and
``2^(w-1)``).  :func:`render` fills it in for one width; the model
evaluator (:mod:`repro.source.closures`) inlines what it renders, and
``Op.impl`` is the same template compiled once as a ``lambda``, so each
operation is defined in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.source.types import BOOL, BYTE, NAT, WORD, SourceType


def render(template: str, args: Sequence[str], width) -> str:
    """``template`` applied to the Python expressions ``args``.

    ``width`` is an ``int``, rendered as literals, or the name of a
    variable holding one (``"w"``), rendered as expressions over it.
    Operands are substituted as given, so each must be an identifier or a
    literal (every ``{a}`` then reads the same value).
    """
    if isinstance(width, int):
        w, mask, sign = repr(width), repr((1 << width) - 1), repr(1 << (width - 1))
    else:
        w, mask, sign = width, f"((1 << {width}) - 1)", f"(1 << ({width} - 1))"
    return template.format(a=args[0], b=args[-1], w=w, mask=mask, sign=sign)


@dataclass(frozen=True)
class Op:
    """One primitive operation of the source language."""

    name: str
    arg_types: Tuple[SourceType, ...]
    result_type: SourceType
    template: str  # the semantics, see the module docstring
    lower: Tuple  # lowering spec, see module docstring
    side_condition: Optional[str] = None  # name of an obligation, if any

    @cached_property
    def impl(self) -> Callable[..., object]:
        """``(width, *args) -> value``, the template compiled on first use."""
        params = "ab"[: self.arity]
        # The template is this module's own text.
        return eval(f"lambda w, {', '.join(params)}: {render(self.template, params, 'w')}")

    @property
    def arity(self) -> int:
        return len(self.arg_types)


REGISTRY: Dict[str, Op] = {}


def _register(name, arg_types, result_type, template, lower, side_condition=None) -> Op:
    if name in REGISTRY:
        raise ValueError(f"duplicate op {name}")
    op = REGISTRY[name] = Op(name, arg_types, result_type, template, lower, side_condition)
    return op


def get_op(name: str) -> Op:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown primitive operation {name!r}") from None


_W2, _B2 = (WORD, WORD), (BYTE, BYTE)

# -- Machine words -------------------------------------------------------------

_register("word.add", _W2, WORD, "({a} + {b}) & {mask}", ("op", "add"))
_register("word.sub", _W2, WORD, "({a} - {b}) & {mask}", ("op", "sub"))
_register("word.mul", _W2, WORD, "({a} * {b}) & {mask}", ("op", "mul"))
_register("word.divu", _W2, WORD, "{mask} if {b} == 0 else {a} // {b}", ("op", "divu"))
_register("word.remu", _W2, WORD, "{a} if {b} == 0 else {a} % {b}", ("op", "remu"))
_register("word.and", _W2, WORD, "{a} & {b}", ("op", "and"))
_register("word.or", _W2, WORD, "{a} | {b}", ("op", "or"))
_register("word.xor", _W2, WORD, "{a} ^ {b}", ("op", "xor"))
_register("word.shl", _W2, WORD, "({a} << ({b} % {w})) & {mask}", ("op", "slu"))
_register("word.shr", _W2, WORD, "{a} >> ({b} % {w})", ("op", "sru"))
# Signed views: flipping the sign bit of the masked word maps signed
# order onto unsigned order, and ``(x ^ sign) - sign`` is x's signed value.
_register(
    "word.sar", _W2, WORD,
    "((({a} & {mask}) ^ {sign}) - {sign} >> ({b} % {w})) & {mask}", ("op", "srs"),
)
_register("word.ltu", _W2, BOOL, "{a} < {b}", ("op", "ltu"))
_register(
    "word.lts", _W2, BOOL, "(({a} & {mask}) ^ {sign}) < (({b} & {mask}) ^ {sign})", ("op", "lts")
)
_register("word.eq", _W2, BOOL, "{a} == {b}", ("op", "eq"))
_register("word.mulhuu", _W2, WORD, "({a} * {b}) >> {w}", ("op", "mulhuu"))

# -- Bytes ---------------------------------------------------------------------

_register("byte.and", _B2, BYTE, "{a} & {b}", ("op", "and"))
_register("byte.or", _B2, BYTE, "{a} | {b}", ("op", "or"))
_register("byte.xor", _B2, BYTE, "{a} ^ {b}", ("op", "xor"))
_register("byte.add", _B2, BYTE, "({a} + {b}) & 255", ("op_mask8", "add"))
_register("byte.sub", _B2, BYTE, "({a} - {b}) & 255", ("op_mask8", "sub"))
_register("byte.mul", _B2, BYTE, "({a} * {b}) & 255", ("op_mask8", "mul"))
_register("byte.shr", _B2, BYTE, "{a} >> ({b} % {w})", ("op", "sru"))
_register("byte.shl", _B2, BYTE, "({a} << ({b} % {w})) & 255", ("op_mask8", "slu"))
_register("byte.ltu", _B2, BOOL, "{a} < {b}", ("op", "ltu"))
_register("byte.eq", _B2, BOOL, "{a} == {b}", ("op", "eq"))
_register("byte.divu", _B2, BYTE, "255 if {b} == 0 else {a} // {b}", ("op_mask8", "divu"))
_register("byte.remu", _B2, BYTE, "{a} if {b} == 0 else {a} % {b}", ("op", "remu"))

# -- Casts ----------------------------------------------------------------------

_register("cast.b2w", (BYTE,), WORD, "{a}", ("id",))
_register("cast.w2b", (WORD,), BYTE, "{a} & 255", ("mask8",))
_register("cast.of_nat", (NAT,), WORD, "{a} & {mask}", ("guarded", "fits_word"))
_register("cast.to_nat", (WORD,), NAT, "{a}", ("id",))
_register("cast.b2n", (BYTE,), NAT, "{a}", ("id",))
_register("cast.bool2w", (BOOL,), WORD, "1 if {a} else 0", ("id",))

# -- Unbounded naturals ----------------------------------------------------------
# Lowering a nat op to a word op is only sound when the mathematical result
# fits in a word; those obligations are discharged by the bounds solver.

_N2 = (NAT, NAT)
_register("nat.add", _N2, NAT, "{a} + {b}", ("guarded", "add_no_overflow"), "add_no_overflow")
# Coq's truncated subtraction.
_register(
    "nat.sub", _N2, NAT, "max(0, {a} - {b})", ("guarded", "sub_no_underflow"), "sub_no_underflow"
)
_register("nat.mul", _N2, NAT, "{a} * {b}", ("guarded", "mul_no_overflow"), "mul_no_overflow")
# Coq: x / 0 = 0.
_register(
    "nat.div", _N2, NAT, "0 if {b} == 0 else {a} // {b}", ("guarded", "div_nonzero"), "div_nonzero"
)
_register("nat.mod", _N2, NAT, "{a} if {b} == 0 else {a} % {b}", ("op", "remu"))
_register("nat.ltb", _N2, BOOL, "{a} < {b}", ("op", "ltu"))
_register("nat.leb", _N2, BOOL, "{a} <= {b}", ("leb",))
_register("nat.eqb", _N2, BOOL, "{a} == {b}", ("op", "eq"))

# -- Booleans ---------------------------------------------------------------------

_register("bool.andb", (BOOL, BOOL), BOOL, "{a} and {b}", ("op", "and"))
_register("bool.orb", (BOOL, BOOL), BOOL, "{a} or {b}", ("op", "or"))
_register("bool.xorb", (BOOL, BOOL), BOOL, "bool({a}) != bool({b})", ("op", "xor"))
_register("bool.negb", (BOOL,), BOOL, "not {a}", ("eq0",))
_register("bool.eqb", (BOOL, BOOL), BOOL, "bool({a}) == bool({b})", ("op", "eq"))


def eval_op(name: str, width: int, args: Sequence[object]) -> object:
    """Evaluate a primitive operation at the given word width."""
    op = get_op(name)
    if len(args) != op.arity:
        raise TypeError(f"{name} expects {op.arity} arguments, got {len(args)}")
    return op.impl(width, *args)
