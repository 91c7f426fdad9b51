"""The abstract domain: intervals with a congruence refinement.

One :class:`Range` approximates a set of *nonnegative* integers by the
product of two classic lattices:

- an interval ``[lo, hi]`` (``hi is None`` means unbounded above), and
- a congruence ``v = rem (mod mod)`` (``mod == 1`` means no information).

Nonnegativity is the natural choice for this compiler: source-side
``nat`` values are nonnegative by construction, and Bedrock2 machine
words are analyzed through their unsigned representative, exactly the
view :class:`repro.bedrock2.word.Word` exposes.

Every transfer function takes the word ``width``: the result wraps
modulo ``2**width``, as machine words and bytes do.  Wrapping is
handled by :func:`wrap`, which keeps full congruence information when
the unwrapped interval lies within a single ``2**width`` block (the
reduction is then subtraction of a constant) and otherwise falls back to
``gcd(mod, 2**width)`` (``2**width = 0 (mod g)`` keeps the residue
meaningful).

The join/widen pair is standard: join is the componentwise lattice join;
widening jumps ``lo`` to 0 and ``hi`` to unbounded as soon as a bound
moves, which makes every ascending chain finite (``mod`` can only
shrink through divisors, also finite).
"""

from __future__ import annotations

from math import gcd
from typing import Optional


class Range:
    """An interval-with-congruence over the nonnegative integers."""

    __slots__ = ("lo", "hi", "mod", "rem")

    def __init__(self, lo: int, hi: Optional[int], mod: int = 1, rem: int = 0):
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "mod", mod)
        object.__setattr__(self, "rem", rem)

    def __setattr__(self, name, value):
        raise AttributeError("Range instances are immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Range)
            and self.lo == other.lo
            and self.hi == other.hi
            and self.mod == other.mod
            and self.rem == other.rem
        )

    def __hash__(self):
        return hash((self.lo, self.hi, self.mod, self.rem))

    def __repr__(self):
        return f"Range({self.lo}, {self.hi}, {self.mod}, {self.rem})"

    # -- Queries -----------------------------------------------------------

    @property
    def is_const(self) -> bool:
        return self.hi == self.lo

    def contains(self, value: int) -> bool:
        if value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return value % self.mod == self.rem

    def excludes_zero(self) -> bool:
        """True when 0 is provably not a possible value."""
        return self.lo > 0 or (self.mod > 1 and self.rem != 0)

    def pretty(self) -> str:
        hi = "+inf" if self.hi is None else str(self.hi)
        base = f"[{self.lo}, {hi}]"
        if self.mod > 1:
            base += f" = {self.rem} (mod {self.mod})"
        return base


def make(lo: int, hi: Optional[int], mod: int = 1, rem: int = 0) -> Range:
    """Normalized constructor: clamps to nonnegative, aligns the interval
    bounds to the congruence class, and drops a congruence that would
    empty the interval (conservative, never bottom)."""
    lo = max(lo, 0)
    if mod < 1:
        mod = 1
    rem %= mod
    if mod > 1:
        aligned_lo = lo + ((rem - lo) % mod)
        if hi is not None:
            aligned_hi = hi - ((hi - rem) % mod)
            if aligned_lo > aligned_hi:
                return Range(lo, max(hi, lo), 1, 0)
            return Range(aligned_lo, aligned_hi, mod, rem)
        return Range(aligned_lo, None, mod, rem)
    if hi is not None and hi < lo:
        hi = lo
    return Range(lo, hi, 1, 0)


def const(value: int) -> Range:
    return Range(max(value, 0), max(value, 0), 1, 0)


def top(width: int) -> Range:
    """Everything representable: a full word."""
    return Range(0, (1 << width) - 1, 1, 0)


def _cong(r: Range):
    """The congruence component, with constants as the exact element.

    A singleton interval is in class ``v (mod m)`` for *every* m, which
    the gcd-based lattice encodes as modulus 0 (``gcd(0, x) == x``).
    """
    return (0, r.lo) if r.is_const else (r.mod, r.rem)


def join(a: Range, b: Range) -> Range:
    lo = min(a.lo, b.lo)
    hi = None if a.hi is None or b.hi is None else max(a.hi, b.hi)
    m1, r1 = _cong(a)
    m2, r2 = _cong(b)
    mod = gcd(m1, m2, abs(r1 - r2))
    if mod == 0:  # both the same constant; the interval is already exact
        mod, rem = 1, 0
    else:
        rem = r1 % mod if mod > 1 else 0
    return make(lo, hi, mod, rem)


def widen(old: Range, new: Range) -> Range:
    """Classic interval widening with the congruence join: any bound that
    moved jumps straight to its extreme, so chains are finite."""
    joined = join(old, new)
    lo = old.lo if joined.lo >= old.lo else 0
    if old.hi is not None and (joined.hi is None or joined.hi > old.hi):
        hi: Optional[int] = None
    else:
        hi = old.hi if old.hi is not None else None
    return make(lo, hi, joined.mod, joined.rem)


def meet_interval(r: Range, lo: Optional[int] = None, hi: Optional[int] = None) -> Range:
    """Refine ``r`` with extra interval bounds (used for branch refinement).

    Never produces an empty range: an inconsistent refinement (possible
    on infeasible branches) returns ``r`` unchanged.
    """
    new_lo = r.lo if lo is None else max(r.lo, lo)
    if hi is None:
        new_hi = r.hi
    elif r.hi is None:
        new_hi = hi
    else:
        new_hi = min(r.hi, hi)
    if new_hi is not None and new_lo > new_hi:
        return r
    return make(new_lo, new_hi, r.mod, r.rem)


def wrap(r: Range, width: int) -> Range:
    """Reduce a mathematical-integer range modulo ``2**width``."""
    size = 1 << width
    if r.hi is not None and 0 <= r.lo and r.hi < size:
        return r
    if r.hi is not None and (r.lo // size) == (r.hi // size):
        # The whole interval sits in one 2**width block: reduction is
        # subtraction of the constant block base, congruence survives.
        base = (r.lo // size) * size
        return make(r.lo - base, r.hi - base, r.mod, (r.rem - base) % r.mod)
    # Straddles a block boundary: interval collapses to the full word,
    # but 2**width = 0 (mod g) keeps the residue mod g = gcd(mod, 2**width).
    g = gcd(r.mod, size)
    return make(0, size - 1, g, r.rem % g if g > 1 else 0)


# -- Arithmetic transfer functions -----------------------------------------


def add(a: Range, b: Range, width: int) -> Range:
    lo = a.lo + b.lo
    hi = None if a.hi is None or b.hi is None else a.hi + b.hi
    m1, r1 = _cong(a)
    m2, r2 = _cong(b)
    mod = gcd(m1, m2)
    if mod == 0:
        mod = 1  # both constant: the interval is exact
    return wrap(make(lo, hi, mod, (r1 + r2) % mod if mod > 1 else 0), width)


def sub(a: Range, b: Range, width: int) -> Range:
    """Word subtraction (wrapping)."""
    lo = None if b.hi is None else a.lo - b.hi
    hi = None if a.hi is None else a.hi - b.lo
    m1, r1 = _cong(a)
    m2, r2 = _cong(b)
    mod = gcd(m1, m2)
    if mod == 0:
        mod = 1
    rem = (r1 - r2) % mod if mod > 1 else 0
    size = 1 << width
    if lo is None:
        return wrap(make(0, size - 1, gcd(mod, size), rem % gcd(mod, size)), width)
    if lo >= 0:
        return wrap(make(lo, hi, mod, rem), width)
    # Negative lows: shift the whole (possibly signed) interval block-wise.
    if hi is not None and (lo // size) == (hi // size):
        base = (lo // size) * size
        return wrap(make(lo - base, hi - base, mod, (rem - base) % mod), width)
    g = gcd(mod, size)
    return make(0, size - 1, g, rem % g if g > 1 else 0)


def mul(a: Range, b: Range, width: int) -> Range:
    lo = a.lo * b.lo
    hi = None
    if a.hi is not None and b.hi is not None:
        hi = a.hi * b.hi
    # (m1 q + r1)(m2 p + r2) = r1 r2 (mod gcd(m1 m2, m1 r2, m2 r1))
    m1, r1 = _cong(a)
    m2, r2 = _cong(b)
    mod = gcd(m1 * m2, m1 * r2, m2 * r1)
    if mod == 0:
        mod = 1  # both constant (or a zero factor): the interval is exact
    return wrap(make(lo, hi, mod, (r1 * r2) % mod if mod > 1 else 0), width)


def _pow2_bound(hi: int) -> int:
    """Smallest ``2**k - 1`` covering ``hi`` (bitwise-op interval bound)."""
    return (1 << hi.bit_length()) - 1


def and_(a: Range, b: Range, width: int) -> Range:
    if a.is_const and b.is_const:
        return const(a.lo & b.lo)
    hi = min(h for h in (a.hi, b.hi, (1 << width) - 1) if h is not None)
    mod, rem = 1, 0
    for x, mask in ((a, b), (b, a)):
        if mask.is_const and mask.lo >= 0 and (mask.lo + 1) & mask.lo == 0:
            # Low-bit mask 2**k - 1: result = x mod 2**k.
            g = gcd(x.mod, mask.lo + 1)
            if g > mod:
                mod, rem = g, x.rem % g
    return make(0, hi, mod, rem)


def or_(a: Range, b: Range, width: int) -> Range:
    if a.is_const and b.is_const:
        return const(a.lo | b.lo)
    lo = max(a.lo, b.lo)  # OR only sets bits
    hi = None
    if a.hi is not None and b.hi is not None:
        hi = min(_pow2_bound(max(a.hi, b.hi)), a.hi + b.hi)
    hi = (1 << width) - 1 if hi is None else min(hi, (1 << width) - 1)
    mod, rem = 1, 0
    if (a.mod % 2 == 0 and a.rem % 2 == 1) or (b.mod % 2 == 0 and b.rem % 2 == 1):
        mod, rem = 2, 1  # an odd operand forces bit 0
    elif a.mod % 2 == 0 and b.mod % 2 == 0 and a.rem % 2 == 0 and b.rem % 2 == 0:
        mod, rem = 2, 0  # both even: bit 0 stays clear
    return make(lo, hi, mod, rem)


def xor(a: Range, b: Range, width: int) -> Range:
    if a.is_const and b.is_const:
        return const(a.lo ^ b.lo)
    hi = None
    if a.hi is not None and b.hi is not None:
        hi = _pow2_bound(max(a.hi, b.hi))
    hi = (1 << width) - 1 if hi is None else min(hi, (1 << width) - 1)
    mod, rem = 1, 0
    if a.mod % 2 == 0 and b.mod % 2 == 0:
        mod, rem = 2, (a.rem + b.rem) % 2  # parity of xor = parity of sum
    return make(0, hi, mod, rem)


def shl(a: Range, b: Range, width: int) -> Range:
    if b.is_const:
        amount = b.lo % width
        return mul(a, const(1 << amount), width)
    if b.hi is not None and b.hi < width:
        lo = a.lo << b.lo
        hi = None if a.hi is None else a.hi << b.hi
        return wrap(make(lo, hi, 1, 0), width)
    return top(width)


def shr(a: Range, b: Range, width: int) -> Range:
    if b.is_const:
        amount = b.lo % width
        lo = a.lo >> amount
        hi = None if a.hi is None else a.hi >> amount
        return make(lo, hi, 1, 0)
    # v >> k <= v for every k (shift amounts are taken mod width).
    return make(0, a.hi, 1, 0)


def sar(a: Range, b: Range, width: int) -> Range:
    if a.hi is not None and a.hi < (1 << (width - 1)):
        return shr(a, b, width)  # sign bit provably clear
    return top(width)


def divu(a: Range, b: Range, width: int) -> Range:
    if not b.excludes_zero():
        # RISC-V: division by zero yields the all-ones word.
        return top(width)
    lo = 0 if b.hi is None else a.lo // b.hi
    hi = None if a.hi is None else a.hi // max(b.lo, 1)
    return make(lo, hi, 1, 0)


def remu(a: Range, b: Range, width: int) -> Range:
    if b.is_const and b.lo > 0:
        if a.hi is not None and a.hi < b.lo:
            return a  # provably the identity: congruence survives intact
        g = gcd(a.mod, b.lo)
        return make(0, b.lo - 1, g, a.rem % g if g > 1 else 0)
    if b.excludes_zero():
        hi = a.hi
        if b.hi is not None:
            hi = b.hi - 1 if hi is None else min(hi, b.hi - 1)
        return make(0, hi, 1, 0)
    # RISC-V: modulo zero yields the dividend, so a.hi still bounds it.
    return make(0, a.hi, 1, 0)


def boolean() -> Range:
    return Range(0, 1, 1, 0)
