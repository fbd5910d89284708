"""Disjoint sum-of-products synthesis driven by cube weights.

The weight of a cube p against an overlapping peer q is
literal_count(p) - common(p, q) - 1, where common(p, q) counts the
variables both cubes bind to the same value: the number of
fragments splitting q \\ p would create if p were selected first. A
cube's weight is the sum over all peers it intersects, or -1 when it
intersects none. Low weight means cheap to select.

dsop() repeatedly re-minimizes the remaining cover, moves isolated
cubes straight to the result, sorts the rest by the configured policy,
and then selects cubes greedily: each selected cube is committed and
every overlapping peer is split against it, with five selectable
policies for where the split fragments go (kept for the next round,
re-queued into the working set, or accompanied by their neighbours).
Fragments left at the end of a pass form the cover for the next round.

A full DSOP is a partial DSOP whose shared region is empty, so dsop()
runs the one selection loop in `partial` (partial._select) under
partial_dsop's rules. Only the input differs: f for the first pass and
an empty dc pool, so f.dc is seen by the first pass only. This module
holds the pieces the loop is built from: weights, sort order, the pool
P of cubes a pass selects from, and the five fragment policies
(_apply_opt).

Weights never come from a scan over pairs of cubes. A covers.CubeIndex
holds, for each literal position of Cube.keys, the bitset of the
cubes having that literal and the bitset of those opposing it. The
peers of c are then the cubes in none of the opposing bitsets of c's
keys. Overlapping cubes agree wherever both are bound, so the common
literals of c and a peer t are the variables both bind, and their sum
over the peers has two equal forms: one popcount per key k of c,
(peers & alike[k]), or one per peer, (c.mask & t.mask). _weigh takes
the one with fewer terms, so weight_all costs a few bitset operations
per cube and literal, read off c.keys, and less for the many cubes
with fewer peers than literals. A pass builds one
such index over its SOP: weight_all reads it, and P (_Pool) then
holds it, with the isolated cubes' slots discarded. Under the
variants that publish fresh weights (2, 4 and 5), P also keeps a
running (total, count) per cube, started from the weights and peer
counts weight_all gave: a cube leaving or entering P updates only
its neighbours' sums, and P's weights are published from those sums,
never recomputed from scratch.

P is never re-sorted either. Its selection order is a heap keyed by
literal count, published weight and the trit string, which breaks
full ties, sorted once when the pass builds P; a publish reads only
the cubes whose sums moved since the last one, and pushes a new key
only for a cube whose weight changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .covers import Cover, CubeIndex, FunctionSpec, PartialSpec, slots_of
from .cubes import Cube, trit_strings
from .minimize import MinimizerBackend

__all__ = [
    "SORT_DIMENSION_WEIGHT",
    "SORT_WEIGHT_DIMENSION",
    "SORT_POLICIES",
    "WeightedCube",
    "DsopConfig",
    "ProgressError",
    "weight_all",
    "sort_cubes",
    "dsop",
]

SORT_DIMENSION_WEIGHT = "dimension_weight"
SORT_WEIGHT_DIMENSION = "weight_dimension"
SORT_POLICIES = (SORT_DIMENSION_WEIGHT, SORT_WEIGHT_DIMENSION)

class ProgressError(RuntimeError):
    """The outer loop exceeded its iteration budget without converging."""


@dataclass(frozen=True, slots=True, init=False)
class WeightedCube:
    """A cube and its weight. Like Cube, it writes its slots through
    their descriptors, not through the frozen __setattr__."""

    cube: Cube
    weight: int

    def __init__(self, cube: Cube, weight: int) -> None:
        _set_cube(self, cube)
        _set_weight(self, weight)


_set_cube = WeightedCube.cube.__set__  # type: ignore[attr-defined]
_set_weight = WeightedCube.weight.__set__  # type: ignore[attr-defined]


@dataclass(frozen=True, slots=True)
class DsopConfig:
    variant: int = 3
    sort: str = SORT_DIMENSION_WEIGHT
    drop_dc_only: bool = False
    backend: MinimizerBackend = field(default_factory=MinimizerBackend.builtin)

    def __post_init__(self) -> None:
        if self.variant not in (1, 2, 3, 4, 5):
            raise ValueError(f"variant must be 1..5, got {self.variant}")
        if self.sort not in SORT_POLICIES:
            raise ValueError(f"unknown sort policy {self.sort!r}")


def _weigh(index: CubeIndex, s: int) -> tuple[int, int]:
    """(total, count) of the cube in slot s against the other live
    cubes it overlaps, count being how many there are.

    Two overlapping cubes agree wherever both are bound, so their common
    literals are the variables both bind, (cm & tm).bit_count() for
    masks cm and tm. Summed over the peers that is either one such
    popcount per peer, or one popcount per literal of the cube, against
    the peers sharing it; both count each (peer, shared variable) pair
    once. The shorter of the two loops runs: most cubes have fewer
    peers than literals, many of them none.
    """
    cubes = index.cubes
    c = cubes[s]
    keys = c.keys
    peers = index.overlapping(c) & ~(1 << s)
    count = peers.bit_count()
    common = 0
    if count < len(keys):
        cm = c.mask
        for t in slots_of(peers):
            common += (cm & cubes[t].mask).bit_count()
    else:
        alike = index.alike
        for k in keys:
            common += (peers & alike[k]).bit_count()
    return count * (len(keys) - 1) - common, count


def weight_all(
    cover: Cover | Sequence[Cube],
    index: CubeIndex | None = None,
    counts: list[int] | None = None,
) -> list[WeightedCube]:
    """Weight every cube against its peers.

    A cube overlapping no peer weighs -1. On an absorption-free cover
    (no duplicates, no cube inside another, as normalize and build_sop
    return) every term is >= 0, so -1 then means exactly that the cube
    is isolated; a peer inside the cube would add a -1 term of its own.

    The peers come from a CubeIndex over the cover: per cube, a few
    bitset operations per literal, not a test per pair of cubes. The
    cubes must share one width; DimensionMismatch otherwise.

    `index`, when given, must hold exactly the cover's cubes, all live,
    cube i in slot i; it is read instead of building one, so a caller
    can reuse it (the selection loop hands it to its pool). `counts`,
    when given, is extended by each cube's number of peers, in order.
    """
    cubes = list(cover.cubes) if isinstance(cover, Cover) else list(cover)
    if not cubes:
        return []
    if index is None:
        index = CubeIndex(cubes[0].n, cubes)
    out = []
    for s, c in enumerate(cubes):
        total, count = _weigh(index, s)
        out.append(WeightedCube(c, total if count else -1))
        if counts is not None:
            counts.append(count)
    return out


def sort_cubes(
    weighted: Iterable[WeightedCube], policy: str, ties: list[str] | None = None
) -> list[WeightedCube]:
    """Order for selection: dimension_weight prefers big then light cubes,
    weight_dimension prefers light then big. Full ties break on the
    ascending trit string, so the order is deterministic.

    `ties`, when given, is extended by each cube's trit string, its
    tie-break key, in input order, so a caller that needs them again
    (the pool, whose heap keys hold them) does not rebuild them."""
    if policy not in SORT_POLICIES:
        raise ValueError(f"unknown sort policy {policy!r}")
    weighted = list(weighted)
    tie = trit_strings([w.cube for w in weighted])
    if ties is not None:
        ties.extend(tie)
    if policy == SORT_DIMENSION_WEIGHT:
        keys = [(-w.cube.dimension, w.weight, t) for w, t in zip(weighted, tie)]
    else:
        keys = [(w.weight, -w.cube.dimension, t) for w, t in zip(weighted, tie)]
    return [weighted[i] for i in sorted(range(len(weighted)), key=keys.__getitem__)]


# a slot's place in P's selection order: (literal count, weight, trit
# string, slot) or (weight, literal count, trit string, slot)
_Key = tuple[int, int, str, int]


class _Pool:
    """P: the cubes a pass may still select, in selection order.

    P holds the pass's SOP index, the one weight_all read: every cube
    keeps its SOP slot, and the isolated cubes (weight -1), which the
    loop commits first, are discarded from it at the start. That index
    answers "which cubes of P overlap c" without scanning P.

    The selection order lives in a min-heap of keys: (literal count,
    published weight, trit string, slot) under dimension_weight,
    (weight, literal count, trit string, slot) under weight_dimension.
    `key[s]` is slot s's current key, None once it left P (and from the
    start for an isolated slot). A slot whose published weight changes
    gets a new key pushed; entries that are no longer their slot's key
    are skipped when popped, so P is never re-sorted. The first three
    fields tie only for equal cubes (v4/v5 pushes can make them), and
    equal cubes carry equal weights, so the slot breaks those ties in
    the order they entered P.

    Variants 2, 4 and 5 publish fresh weights, so under them every cube
    of P also keeps a running (total, count) over its overlapping peers
    in P. A cube leaving or entering P updates only its neighbours'
    sums, and marks them in `moved`, the slots whose sums changed since
    they were last published; publishing a weight is a lookup, not a
    rescan of P. The sums start from weight_all's weights and peer
    counts: an isolated cube is no cube's peer, so those are the counts
    within P too.
    """

    def __init__(
        self,
        index: CubeIndex,
        variant: int,
        sort: str,
        weighted: list[WeightedCube],
        counts: list[int],
    ) -> None:
        """`weighted` and `counts` are weight_all's output and peer
        counts over `index`, whose slots must all be live: slot s holds
        weighted[s].cube. P takes the slots weighing >= 0, in
        sort_cubes order under `sort`."""
        self.variant = variant
        self.index = index
        self.dw = sort == SORT_DIMENSION_WEIGHT
        members = [s for s, w in enumerate(weighted) if w.weight >= 0]
        ties: list[str] = []
        ranked = sort_cubes([weighted[s] for s in members], sort, ties)
        # the slot and trit string of each member, by identity
        found = {id(weighted[s]): (s, t) for s, t in zip(members, ties)}
        self.key: list[_Key | None] = [None] * len(weighted)
        self.heap: list[_Key] = []
        # sort_cubes orders by the keys' first three fields (-dimension
        # as the literal count, the width being fixed), which tie for no
        # two cubes of an absorption-free SOP: sorted, the keys already
        # form a heap
        key, heap, dw = self.key, self.heap, self.dw
        for w in ranked:
            s, t = found[id(w)]
            lits = w.cube.literal_count
            key[s] = k = (lits, w.weight, t, s) if dw else (w.weight, lits, t, s)
            heap.append(k)
        for s, w in enumerate(weighted):
            if w.weight < 0:
                index.discard(s)
        self.weight = [w.weight for w in weighted]  # as last published
        # only the running sums read these, and only at the slots of P
        self.track = variant in (2, 4, 5)
        self.lits: list[int] = []
        self.total: list[int] = []
        self.count: list[int] = []
        self.moved = index.live
        if self.track:
            self.lits = [c.literal_count for c in index.cubes]
            self.count = list(counts)
            self.total = [w if m else 0 for w, m in zip(self.weight, counts)]

    def __bool__(self) -> bool:
        return bool(self.index.live)

    def slots(self) -> list[int]:
        """The live slots in selection order."""
        return sorted(slots_of(self.index.live), key=self.key.__getitem__)

    def first(self, near: int) -> int:
        """The live slot in `near` that comes first in selection order;
        -1 when there is none."""
        near &= self.index.live
        if not near:
            return -1
        return min(map(self.key.__getitem__, slots_of(near)))[3]

    def pop(self) -> Cube:
        """Remove and return the first cube of P, which is not empty."""
        heap, key = self.heap, self.key
        k = heappop(heap)
        while key[k[3]] is not k:
            k = heappop(heap)
        s = k[3]
        self.remove(s)
        return self.index.cubes[s]

    def remove(self, s: int) -> None:
        self.index.discard(s)
        self.key[s] = None
        if self.track:
            self._shift(s, -1)

    def push(self, c: Cube) -> None:
        """Add c to P, published weight 0 until the next publish."""
        s = self.index.add(c)
        self.weight.append(0)
        lits, tie = c.literal_count, c.to_string()
        k = (lits, 0, tie, s) if self.dw else (0, lits, tie, s)
        self.key.append(k)
        heappush(self.heap, k)
        self.moved |= 1 << s
        if self.track:
            self.lits.append(lits)
            total, count = _weigh(self.index, s)
            self.total.append(total)
            self.count.append(count)
            self._shift(s, 1)

    def _shift(self, s: int, sign: int) -> None:
        # slot s left P (sign -1) or entered it (+1): each overlapping
        # peer t gains or loses the term lits[t] - common - 1
        index, lits, total, count = self.index, self.lits, self.total, self.count
        cm = index.cubes[s].mask
        near = index.overlapping(index.cubes[s]) & ~(1 << s)
        self.moved |= near
        for t in slots_of(near):
            total[t] += sign * (lits[t] - (cm & index.cubes[t].mask).bit_count() - 1)
            count[t] += sign

    def publish(self, slots: int) -> None:
        """Set the weights of the live slots in bitset `slots` to their
        running sums, re-keying the slots whose weight changed, and
        clear their `moved` marks."""
        weight, total, count, key = self.weight, self.total, self.count, self.key
        heap, dw = self.heap, self.dw
        self.moved &= ~slots
        for s in slots_of(slots & self.index.live):
            w = total[s] if count[s] else -1
            if w != weight[s]:
                weight[s] = w
                k = key[s]
                key[s] = k = (k[0], w, k[2], s) if dw else (w, k[1], k[2], s)
                heappush(heap, k)


def _apply_opt(q: Cube, fragments: list[Cube], P: _Pool, B: list[Cube]) -> None:
    """Dispatch the split fragments of q, which just left P, according
    to P's variant.

    1: fragments wait in B for the next round.
    2: like 1, but cubes of P that overlapped q get their weights
       against the current P published, and P's order follows them;
       other cubes keep the weights they had.
    3: fragments and every P cube overlapping q all move to B; the
       neighbours leave P unbroken, in selection order.
    4: a single fragment goes back into P; several go to B. Then every
       weight of P is published.
    5: the biggest fragment goes back into P; the rest go to B; every
       weight is published. disjoint_sharp binds one more variable in
       each fragment than in the one before, so the biggest is always
       the first.

    The neighbours of q come from P's index, and the published weights
    from the running sums P keeps, so no variant rescans P: publishing
    every weight reads only the slots whose sums moved since the last
    publish, and only a weight that changed re-keys its slot.
    """
    variant = P.variant
    if variant <= 3:
        B.extend(fragments)
    if variant == 2:
        P.publish(P.index.overlapping(q))
    elif variant == 3:
        moved = sorted(slots_of(P.index.overlapping(q)), key=P.key.__getitem__)
        for s in moved:
            P.remove(s)
        B.extend(P.index.cubes[s] for s in moved)
    elif variant == 4:
        if len(fragments) == 1:
            P.push(fragments[0])
        else:
            B.extend(fragments)
    elif variant == 5 and fragments:
        P.push(fragments[0])
        B.extend(fragments[1:])
    if variant >= 4:
        P.publish(P.moved)


def dsop(
    f: FunctionSpec, cfg: DsopConfig | None = None, *, sop: Cover | None = None
) -> Cover:
    """Synthesize a pairwise-disjoint cover of f.

    On-minterms end up covered exactly once, off-minterms never, and
    don't-care minterms at most once (disjointness). partial_dsop's
    loop runs with f as the first pass's input and an empty dc pool,
    so only that pass sees f.dc. With drop_dc_only
    set, a cube about to be committed that covers no original on-point
    is discarded instead, without splitting its neighbours.

    `sop`, when given, must be build_sop(f, cfg.backend): the first
    pass then uses it instead of re-minimizing f, so a caller that
    already built it (say, to report its size) pays for it once. Like
    every build_sop result it must be absorption-free, or ContractViolation:
    the loop commits the cubes weight_all weighs -1 without splitting them.
    """
    # the loop lives in partial, which imports this module
    from .partial import _select

    spec = PartialSpec(FunctionSpec(f.n, f.on), FunctionSpec(f.n, Cover(f.n)))
    return _select(spec, cfg or DsopConfig(), f, sop)
