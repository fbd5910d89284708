"""Covers (cube lists) and function specifications.

A cover is an ordered list of cubes over a shared variable count; its
point set is the union of the cubes' point sets, and the same minterm
may be covered by several cubes. FunctionSpec pairs an on-set cover
with a don't-care cover to describe an incompletely specified Boolean
function; points in neither are off. PartialSpec, the input of a
partial DSOP, splits a function into a unique and a shared part.

The tautology check follows the recursive cofactor expansion: a cover
containing the all-free cube is a tautology, the empty cover is not,
and otherwise the cover is split on the most binate variable (the one
bound in the most cubes, ties to the lowest index) and both cofactors
are checked. Two rules prune the recursion: a unate cover without an
all-free cube is never a tautology, and a cover unate in a variable x
is a tautology iff its cubes that leave x free are, so the cubes
binding x are dropped before splitting. The recursion runs on a
CubeIndex, not on copies of the cubes: a cofactor is a set of slots
and the variables left free, a variable's literals in it are one AND
with its alike bitsets, dropping cubes or splitting is one AND more,
and no node takes a step per cube. The cofactors wait on an explicit
stack rather than the call stack, so the depth of the expansion, up
to one split per variable, is bounded by nothing but n.

Containment of a cube p in a cover is the same question asked of the
cofactor by p: p is covered iff the cover restricted to p's subspace is
a tautology there. Only the cubes sharing a point with p enter the
cofactor, and one of them containing p answers at once. The check runs
for every n on the index's bitsets, so no point masks are built and
the cost does not depend on 2**n. One routine answers every such
question, _slots_contain(index, slots, mask): given the slots a
CubeIndex has found to share a point with the cube, it recurses on
those alone, so a caller asking many probes of one cover pays for each
probe's overlap, not for the cover. When a probe meets fewer cubes
than it leaves variables free, the root's facts come from one walk
over those cubes instead: a cube free wherever the probe is contains
it, and the variables the others bind are all the recursion looks at.
The public is_tautology and cover_contains_cube index their cover and
ask the same routine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .cubes import Cube, DimensionMismatch, trit_strings

__all__ = [
    "Cover",
    "FunctionSpec",
    "PartialSpec",
    "normalize",
    "is_tautology",
    "cover_contains_cube",
    "cover_intersects_cube",
]

@dataclass(frozen=True, slots=True)
class Cover:
    """An ordered tuple of cubes over n variables."""

    n: int
    cubes: tuple[Cube, ...] = ()

    def __post_init__(self) -> None:
        n = self.n
        for c in self.cubes:
            if c.n != n:
                raise DimensionMismatch(
                    f"cover over {n} variables given a {c.n}-variable cube"
                )

    @classmethod
    def from_strings(cls, trits: Iterable[str], n: int | None = None) -> "Cover":
        cubes = tuple(Cube.from_string(s) for s in trits)
        if cubes:
            return cls(cubes[0].n, cubes)
        if n is None:
            raise ValueError("empty cover needs an explicit variable count")
        return cls(n, ())

    def to_strings(self) -> list[str]:
        return trit_strings(self.cubes)

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __bool__(self) -> bool:
        return bool(self.cubes)


@dataclass(frozen=True, slots=True)
class FunctionSpec:
    """An incompletely specified single-output function: on-set cover,
    don't-care cover, off everywhere else. Well-formed specs keep the
    two point-disjoint; generators and loaders are responsible for that."""

    n: int
    on: Cover
    dc: Cover = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.dc is None:
            object.__setattr__(self, "dc", Cover(self.n))
        if self.on.n != self.n or self.dc.n != self.n:
            raise DimensionMismatch("on/dc covers disagree with spec width")

    @classmethod
    def from_strings(
        cls,
        on: Iterable[str],
        dc: Iterable[str] = (),
        n: int | None = None,
    ) -> "FunctionSpec":
        on_cubes = tuple(Cube.from_string(s) for s in on)
        dc_cubes = tuple(Cube.from_string(s) for s in dc)
        if n is None:
            if on_cubes:
                n = on_cubes[0].n
            elif dc_cubes:
                n = dc_cubes[0].n
            else:
                raise ValueError("empty spec needs an explicit variable count")
        return cls(n, Cover(n, on_cubes), Cover(n, dc_cubes))

    def care_cover(self) -> Cover:
        """on and dc cubes concatenated: the region output cubes may use."""
        return Cover(self.n, self.on.cubes + self.dc.cubes)


@dataclass(frozen=True, slots=True)
class PartialSpec:
    """Two point-disjoint function parts sharing one variable space.
    One index, shared_index(), answers every shared-region question."""

    unique: FunctionSpec
    shared: FunctionSpec
    # shared_index(), built on first call
    _shared: CubeIndex | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.unique.n != self.shared.n:
            raise ValueError(
                f"parts disagree on width: {self.unique.n} vs {self.shared.n}"
            )

    @property
    def n(self) -> int:
        return self.unique.n

    def shared_index(self) -> CubeIndex:
        """shared.on + shared.dc in one CubeIndex, built once, only queried."""
        if self._shared is None:
            index = CubeIndex(self.n, self.shared.care_cover().cubes)
            object.__setattr__(self, "_shared", index)
        return self._shared

    def combined(self) -> FunctionSpec:
        """Both parts as one function: on = unique.on + shared.on and
        dc = unique.dc + shared.dc. partial_dsop's first pass
        re-minimizes it, so its build_sop is what `sop=` expects."""
        n = self.n
        return FunctionSpec(
            n,
            Cover(n, self.unique.on.cubes + self.shared.on.cubes),
            Cover(n, self.unique.dc.cubes + self.shared.dc.cubes),
        )

    def overlap(self) -> tuple[Cube, Cube] | None:
        """The first unique cube and the first shared cube it meets (the
        lowest slot shared_index() names), or None when none meet."""
        index = self.shared_index()
        for a in self.unique.care_cover().cubes:
            if hits := index.overlapping(a):
                return a, index.cubes[next(slots_of(hits))]
        return None

    def validate_disjoint(self) -> None:
        """Raise ValueError when any unique cube meets any shared cube."""
        if (hit := self.overlap()) is not None:
            raise ValueError(
                f"unique cube {hit[0]} overlaps shared cube {hit[1]}; "
                "the two parts must be point-disjoint"
            )


def slots_of(x: int) -> Iterator[int]:
    """The set bits of x, lowest first: the slots of a CubeIndex bitset."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class CubeIndex:
    """Cubes over n variables, transposed: word-parallel over cubes.

    Each added cube gets the next slot (0, 1, ...). The bitsets of slots
    sit in two tables of 2n entries, addressed by literal position as
    in Cube.keys (v for the literal v=0, n + v for v=1): alike[k] holds
    the slots whose cube has literal k, and opp[k] those whose cube
    binds k's variable to the other value. `live` holds the slots not
    discarded. A query about a cube c is then one bitset operation per
    literal of c, read through c.keys, instead of one test per indexed
    cube: the cubes sharing a point with c are the live slots in no
    opp[k] of c's literals, and the cubes inside c those in every
    alike[k] of them. Slots are never reused, and a discarded slot
    keeps its literal bits. Every cube queried or added must be n
    variables wide. overlapping(c) answers the first question over the
    live slots; inside(c, slots), its dual, answers the second over the
    slots the caller names, so a caller masks with `live` when it must.

    The constructor builds the bitsets by one transposition, with no
    step per literal: each cube's (mask & ~bits) | bits << n, whose
    set bits are its keys, is written as one 2n-digit binary string,
    and the strings are joined in slot order. Reversed, that string
    lists the slots from the last to the first, each lowest position
    first; so every 2n-th character from k spells alike[k] highest slot
    first, ready for int(..., 2). opp is alike with its halves swapped.
    add() indexes one more cube later.
    """

    __slots__ = ("n", "cubes", "alike", "opp", "live")

    def __init__(self, n: int, cubes: Iterable[Cube] = ()) -> None:
        self.n = n
        self.cubes = cubes = list(cubes)
        for c in cubes:
            if c.n != n:
                raise DimensionMismatch(
                    f"index over {n} variables given a {c.n}-variable cube"
                )
        self.live = (1 << len(cubes)) - 1
        w = 2 * n
        if not cubes:
            self.alike = [0] * w
            self.opp = [0] * w
            return
        spec = f"0{w}b"
        lits = "".join(
            [format(c.mask & ~c.bits | c.bits << n, spec) for c in cubes]
        )[::-1]
        self.alike = alike = [int(lits[k::w], 2) for k in range(w)]
        self.opp = alike[n:] + alike[:n]

    def add(self, c: Cube) -> int:
        """Index c in a new live slot and return the slot."""
        n = self.n
        if c.n != n:
            raise DimensionMismatch(
                f"index over {n} variables given a {c.n}-variable cube"
            )
        s = len(self.cubes)
        self.cubes.append(c)
        slot = 1 << s
        self.live |= slot
        alike, opp = self.alike, self.opp
        for k in c.keys:
            alike[k] |= slot
            opp[k + n if k < n else k - n] |= slot
        return s

    def discard(self, s: int) -> None:
        self.live &= ~(1 << s)

    def overlapping(self, c: Cube) -> int:
        """Live slots whose cube shares a point with c (c's own slot
        too, when c is indexed and live): those binding no variable
        against c."""
        opp = self.opp
        against = 0
        for k in c.keys:
            against |= opp[k]
        return self.live & ~against

    def inside(self, c: Cube, slots: int) -> int:
        """The slots in bitset `slots` whose cube lies inside c (c's
        own slot too, when c is indexed and named): those having every
        literal of c. Live or not, a slot is answered as named."""
        alike = self.alike
        for k in c.keys:
            slots &= alike[k]
            if not slots:
                break
        return slots


def normalize(cover: Cover) -> Cover:
    """Drop duplicate cubes and cubes contained in another cube.

    Keeps the first occurrence of duplicates and preserves the relative
    order of the survivors. The result is absorption-free and has the
    same point set.

    The question is asked of each cube's contents, not of its
    containers. dict.fromkeys first drops every later copy of a cube,
    keeping the order. A CubeIndex over the distinct cubes then
    answers, for each cube j, which of the other cubes lie inside it:
    inside(j, every slot but j's), the AND of alike[k] over j's
    literals, j.keys, stopping once it is empty. Those cubes go. No
    pair of cubes is tested. This is exact: c lies inside j exactly
    when every literal of j is a literal of c, which holds exactly when
    c's slot is in alike[k] for each k in j.keys. With the duplicates
    gone, every such c other than j is strictly inside j, so c goes
    wherever it sits: of equal cubes the earliest stays, and a strictly
    larger cube absorbs from any position.
    """
    cubes = list(dict.fromkeys(cover.cubes))
    inside = CubeIndex(cover.n, cubes).inside
    every = (1 << len(cubes)) - 1
    absorbed = 0
    for j, c in enumerate(cubes):
        absorbed |= inside(c, every ^ (1 << j))
    if absorbed:
        # reversed, the binary string has bit j at index j
        gone = format(absorbed, f"0{len(cubes)}b")[::-1]
        cubes = [c for c, g in zip(cubes, gone) if g == "0"]
    return Cover(cover.n, tuple(cubes))


def is_tautology(cover: Cover) -> bool:
    """True iff the cover's cubes jointly cover all 2**n points."""
    index = CubeIndex(cover.n, cover.cubes)
    return _slots_contain(index, index.live, 0)


def _slots_contain(index: CubeIndex, slots: int, mask: int) -> bool:
    """True iff a cube with this mask lies inside the union of the
    cubes of `index` in `slots`, each of which shares a point with it,
    as the index's queries name them. They agree with the cube wherever
    both are bound, so the tautology recursion (see the module
    docstring) runs on those slots and the variables the mask leaves
    free, a free variable v's literals being slots & alike[v] and
    slots & alike[n + v].
    """
    n = index.n
    if slots.bit_count() < n - mask.bit_count():
        # the root's facts from its few cubes: one contains the probe
        # when it binds no free variable, and the recursion needs only
        # the variables the others bind
        cubes = index.cubes
        keep = ~mask
        zeros = ones = 0
        rest = slots
        while rest:
            low = rest & -rest
            c = cubes[low.bit_length() - 1]
            rm = c.mask & keep
            if not rm:
                return True
            ones |= c.bits & keep
            zeros |= rm & ~c.bits
            rest ^= low
        if not zeros & ones:
            return False
        free = zeros | ones
    else:
        free = ~mask & ((1 << n) - 1)
    alike = index.alike
    free_vars = []
    while free:
        low = free & -free
        free_vars.append(low.bit_length() - 1)
        free ^= low
    pending: list[tuple[int, list[int]]] = []
    while True:
        if not slots:
            return False
        bound = drop = best = 0
        binate = []
        for v in free_vars:
            neg = slots & alike[v]
            pos = slots & alike[n + v]
            if neg and pos:
                both = neg | pos
                bound |= both
                binate.append(v)
                count = both.bit_count()
                if count > best:
                    best, split, split_neg, split_pos = count, v, neg, pos
            else:
                drop |= neg | pos
        if slots & ~(bound | drop):
            # the all-free cube: this cofactor is a tautology
            if not pending:
                return True
            slots, free_vars = pending.pop()
        elif not binate:
            # unate without the all-free cube: the point opposing every
            # bound literal is uncovered
            return False
        elif drop:
            # a cofactor unate in x is a tautology iff its cubes free
            # of x are: they alone cover the half where x opposes every
            # literal on x, and the other half is covered at least as well
            slots &= ~drop
            free_vars = binate
        else:
            binate.remove(split)
            pending.append((slots & ~split_neg, binate))
            slots &= ~split_pos
            free_vars = binate


def cover_contains_cube(cover: Cover, p: Cube) -> bool:
    """True iff every minterm of p is covered (p implies the cover):
    a CubeIndex over the cover names the cubes sharing a point with p,
    and _slots_contain decides the cofactor by p, for every n."""
    if cover.n != p.n:
        raise DimensionMismatch("cube width differs from cover")
    index = CubeIndex(cover.n, cover.cubes)
    return _slots_contain(index, index.overlapping(p), p.mask)


def cover_intersects_cube(cover: Cover, p: Cube) -> bool:
    """True iff some cube of the cover shares a point with p."""
    if cover.n != p.n:
        raise DimensionMismatch("cube width differs from cover")
    for c in cover.cubes:
        if not (c.mask & p.mask) & (c.bits ^ p.bits):
            return True
    return False
