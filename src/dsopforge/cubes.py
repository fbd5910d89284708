"""Cube algebra over positional trit strings.

A cube is a product term over n Boolean variables, written as a string
of trits where character i describes variable i: '0' for a negated
literal, '1' for a plain literal, '-' for a free (unbound) variable.
So "01--" over four variables binds x1=0 and x2=1 and leaves x3, x4
free, covering the four minterms 0100, 0101, 0110, 0111.

Internally a cube stores two integer masks: `mask` has bit i set when
variable i is bound, and `bits` holds the bound value at those
positions (zero elsewhere). Intersection, containment and literal
counting are then word-parallel bit operations. All values are
immutable; operations return new cubes. Building a cube checks its
width, that its mask lies within the width and its bits within its
mask, then writes its fields straight to their slots, skipping the
frozen dataclass's setattr and post-init steps, which cost more than
the checks themselves in a split loop making cubes by the thousand.

A cube also knows its literals as positions in a table of 2n entries,
one per (variable, value), v for the literal v=0 and n + v for v=1:
`keys`, the set bits of (mask & ~bits) | bits << n, ascending. They
are found when the cube is made, a byte of that word at a time, from
a shared table mapping (byte index j, nonzero byte value) to the
byte's set-bit positions plus 8j, and kept in a field outside
equality, hashing and repr, so the cube indexes (covers.CubeIndex)
and weights that ask about a cube many times read a slot. The table
holds only the (j, byte) pairs some cube has used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "Cube",
    "DimensionMismatch",
    "ContractViolation",
    "intersect",
    "contains",
    "disjoint_sharp",
    "trit_strings",
]


class DimensionMismatch(ValueError):
    """Two cubes over different variable counts were combined."""


class ContractViolation(ValueError):
    """An operation was invoked outside its stated precondition."""


@dataclass(frozen=True, slots=True, init=False)
class Cube:
    """An n-variable product term: bit i of `mask` set iff variable i is
    bound; `bits` gives the bound values and is a subset of `mask`.

    Cube(n, mask, bits) checks, in this order, that n >= 0, that mask
    binds no variable at or past n and that bits lies inside mask,
    raising ContractViolation otherwise; it then joins `keys` from the
    shared table _BYTE_KEYS, one nonzero byte of the literal word at a
    time, and writes the four slots through their descriptors (_set_n
    and the rest, bound below the class), not through the frozen
    __setattr__ the dataclass gives. Equality, hashing, repr, pickling
    and dataclasses.replace, which calls this __init__, are the
    dataclass's own."""

    n: int
    mask: int
    bits: int
    keys: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, n: int, mask: int, bits: int) -> None:
        if n < 0:
            raise ContractViolation(f"negative variable count {n}")
        # nonzero iff mask has a bit at or past n, negative masks too
        if mask >> n:
            raise ContractViolation("mask binds variables beyond n")
        if bits & ~mask:
            raise ContractViolation("bits set outside bound positions")
        _set_n(self, n)
        _set_mask(self, mask)
        _set_bits(self, bits)
        word = (mask & ~bits) | bits << n
        keys: tuple[int, ...] = ()
        j = 0  # the byte's index, shifted left by 8
        for b in word.to_bytes((2 * n + 7) >> 3, "little"):
            if b:
                part = _BYTE_KEYS.get(j | b)
                if part is None:
                    part = _BYTE_KEYS[j | b] = _byte_keys(j | b)
                keys += part
            j += 256
        _set_keys(self, keys)

    @classmethod
    def from_string(cls, trits: str) -> "Cube":
        """Build a cube from a trit string such as "01--".

        Reversed, the string lists variable n-1 first, so translating
        it to binary digits spells mask and bits for int(..., 2)."""
        if not trits:
            raise ValueError("empty trit string")
        if trits.strip("-01"):
            i = len(trits) - len(trits.lstrip("-01"))
            raise ValueError(f"invalid trit {trits[i]!r} at position {i}")
        rev = trits[::-1]
        return cls(
            len(trits), int(rev.translate(_MASK), 2), int(rev.translate(_BITS), 2)
        )

    @classmethod
    def universe(cls, n: int) -> "Cube":
        """The all-free cube covering every point of the n-space."""
        return cls(n, 0, 0)

    def to_string(self) -> str:
        return trit_strings((self,))[0]

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Cube({self.to_string()!r})"

    @property
    def literal_count(self) -> int:
        """Number of bound variables (k in weight formulas)."""
        return self.mask.bit_count()

    @property
    def dimension(self) -> int:
        """Number of free variables; the cube covers 2**dimension points."""
        return self.n - self.mask.bit_count()


# Cube's slot writers: the __set__ of the slot descriptors that
# dataclass(slots=True) made, which the frozen __setattr__ never sees
_set_n = Cube.n.__set__  # type: ignore[attr-defined]
_set_mask = Cube.mask.__set__  # type: ignore[attr-defined]
_set_bits = Cube.bits.__set__  # type: ignore[attr-defined]
_set_keys = Cube.keys.__set__  # type: ignore[attr-defined]


# Cube.keys's table: (j << 8 | byte) -> the byte's set-bit positions
# plus 8j, filled as the cubes made use the entries. An entry depends on its own
# key alone, so threads racing to fill one store equal tuples.
_BYTE_KEYS: dict[int, tuple[int, ...]] = {}


def _byte_keys(jb: int) -> tuple[int, ...]:
    base = (jb >> 8) << 3
    return tuple(base + i for i in range(8) if jb >> i & 1)


# from_string's trits to the binary digits of mask and of bits
_MASK = str.maketrans("-01", "011")
_BITS = str.maketrans("-01", "001")

# trit_strings' byte sums to trits
_TRITS = bytes.maketrans(b"`ab", b"-01")


def trit_strings(cubes: Sequence[Cube]) -> list[str]:
    """The trit strings of `cubes`, in order, rendered together.

    The cubes' masks, as n-digit binary strings, are joined last cube
    first, and so are their bits. The ASCII digits of the two, added as
    big integers, give one byte per variable, 0x60 free, 0x61 for '0'
    and 0x62 for '1', with no carry between bytes. Written out little
    end first, the bytes list the first cube first, each from variable
    0 up; one translate turns them into trits, and every n-th position
    starts the next cube. Raises DimensionMismatch when the cubes'
    widths differ."""
    if not cubes:
        return []
    widths = {c.n for c in cubes}
    if len(widths) > 1:
        raise DimensionMismatch(f"cube widths differ: {sorted(widths)}")
    n = cubes[0].n
    if not n:
        return [""] * len(cubes)
    spec = f"0{n}b"
    rev = cubes[::-1]
    x = int.from_bytes("".join([format(c.mask, spec) for c in rev]).encode(), "big")
    x += int.from_bytes("".join([format(c.bits, spec) for c in rev]).encode(), "big")
    text = x.to_bytes(n * len(cubes), "little").translate(_TRITS).decode()
    return [text[i : i + n] for i in range(0, len(text), n)]


def _check_same_n(p: Cube, q: Cube) -> None:
    if p.n != q.n:
        raise DimensionMismatch(f"cube widths differ: {p.n} vs {q.n}")


def intersect(p: Cube, q: Cube) -> Cube | None:
    """Largest cube contained in both, or None when they share no point.

    The intersection is empty exactly when some variable is bound to
    opposite values; otherwise it binds the union of the bound literals.
    """
    _check_same_n(p, q)
    if (p.mask & q.mask) & (p.bits ^ q.bits):
        return None
    return Cube(p.n, p.mask | q.mask, p.bits | q.bits)


def contains(p: Cube, q: Cube) -> bool:
    """True iff q's point set is a subset of p's (every literal of p
    appears in q with the same value)."""
    _check_same_n(p, q)
    return not (p.mask & ~q.mask) and not ((p.bits ^ q.bits) & p.mask)


def disjoint_sharp(q: Cube, p: Cube) -> list[Cube]:
    """Split q \\ p into pairwise-disjoint cubes.

    Scans variables in ascending index order. For each position where q
    is free but the intersection r = q & p is bound, one fragment is
    emitted: a copy of q with all earlier such positions fixed to r's
    value and the current position set to the complement of r's value.
    Exactly literal_count(r) - literal_count(q) fragments result; the
    list is empty iff p contains q. Requires a nonempty intersection.
    Fragment i binds literal_count(q) + i + 1 variables, so each is
    smaller than the one before and fragment 0 is the unique largest;
    variant 5 of the selection loop relies on that.

    r is never built: its bound positions outside q are those of
    p.mask & ~q.mask, and its value at each of them is p's.
    """
    _check_same_n(q, p)
    if (p.mask & q.mask) & (p.bits ^ q.bits):
        raise ContractViolation("disjoint_sharp requires overlapping cubes")
    out: list[Cube] = []
    acc_mask = q.mask
    acc_bits = q.bits
    todo = p.mask & ~q.mask
    while todo:
        b = todo & -todo
        todo ^= b
        rv = p.bits & b
        # complement r's value at this position, keep earlier ones aligned
        out.append(Cube(q.n, acc_mask | b, acc_bits | (b ^ rv)))
        acc_mask |= b
        acc_bits |= rv
    return out
