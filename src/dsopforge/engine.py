"""Disjoint sum-of-products synthesis driven by cube weights.

The weight of a cube p against an overlapping peer q is
literal_count(p) - common_literal_count(p, q) - 1: the number of
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
runs the one selection loop in `partial` (partial._select) with an
empty shared part and the full-DSOP don't-care rule: f.dc is seen by
the first pass only. This module holds the pieces the loop is built
from: weights, sort order and the five fragment policies (_apply_opt).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .covers import Cover, FunctionSpec
from .cubes import Cube, ContractViolation, common_literal_count, intersect
from .minimize import MinimizerBackend

__all__ = [
    "SORT_DIMENSION_WEIGHT",
    "SORT_WEIGHT_DIMENSION",
    "SORT_POLICIES",
    "WeightedCube",
    "DsopConfig",
    "ProgressError",
    "relative_weight",
    "weight_all",
    "sort_cubes",
    "dsop",
]

SORT_DIMENSION_WEIGHT = "dimension_weight"
SORT_WEIGHT_DIMENSION = "weight_dimension"
SORT_POLICIES = (SORT_DIMENSION_WEIGHT, SORT_WEIGHT_DIMENSION)

class ProgressError(RuntimeError):
    """The outer loop exceeded its iteration budget without converging."""


@dataclass(frozen=True, slots=True)
class WeightedCube:
    cube: Cube
    weight: int


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


def relative_weight(p: Cube, q: Cube) -> int:
    """Fragments created in q when p is selected first; requires overlap.

    Equals literal_count(p) - common_literal_count(p, q) - 1, which is
    -1 exactly when q is contained in p (selection erases q outright).
    """
    if intersect(p, q) is None:
        raise ContractViolation("relative_weight requires overlapping cubes")
    return p.literal_count - common_literal_count(p, q) - 1


def _overlaps(p: Cube, q: Cube) -> bool:
    return not (p.mask & q.mask) & (p.bits ^ q.bits)


def weight_all(cover: Cover | Sequence[Cube]) -> list[WeightedCube]:
    """Weight every cube against its peers.

    A cube overlapping no peer weighs -1. On an absorption-free cover
    (no duplicates, no cube inside another, as normalize and build_sop
    return) every term is >= 0, so -1 then means exactly that the cube
    is isolated; a peer inside the cube would add a -1 term of its own.
    """
    cubes = list(cover.cubes) if isinstance(cover, Cover) else list(cover)
    return [WeightedCube(c, _weight_at(cubes, i)) for i, c in enumerate(cubes)]


def _sort_key(policy: str):
    if policy == SORT_DIMENSION_WEIGHT:
        return lambda w: (-w.cube.dimension, w.weight, w.cube.to_string())
    return lambda w: (w.weight, -w.cube.dimension, w.cube.to_string())


def sort_cubes(weighted: Iterable[WeightedCube], policy: str) -> list[WeightedCube]:
    """Order for selection: dimension_weight prefers big then light cubes,
    weight_dimension prefers light then big. Full ties break on the
    ascending trit string, so the order is deterministic."""
    if policy not in SORT_POLICIES:
        raise ValueError(f"unknown sort policy {policy!r}")
    return sorted(weighted, key=_sort_key(policy))


def _weight_at(cubes: Sequence[Cube], i: int) -> int:
    p = cubes[i]
    k = p.literal_count
    pm, pb = p.mask, p.bits
    total = 0
    hit = False
    for j, d in enumerate(cubes):
        # overlapping cubes agree wherever both are bound, so the
        # common literals are the shared bound positions
        common = pm & d.mask
        if j == i or common & (pb ^ d.bits):
            continue
        hit = True
        total += k - common.bit_count() - 1
    return total if hit else -1


def _apply_opt(
    variant: int,
    sort: str,
    q: Cube,
    fragments: list[Cube],
    P: list[WeightedCube],
    B: list[Cube],
) -> None:
    """Dispatch the split fragments of q according to the variant.

    1: fragments wait in B for the next round.
    2: like 1, but cubes of P that overlapped q are reweighted against
       the current P and the whole of P is re-sorted.
    3: fragments and every P cube overlapping q all move to B; the
       neighbours leave P unbroken.
    4: a single fragment goes back into P (re-sorted after a full
       reweight); several go to B.
    5: the biggest fragment (largest dimension, ties to the ascending
       trit string) goes back into P; the rest go to B; P is reweighted
       and re-sorted.
    """
    if variant <= 3:
        B.extend(fragments)
    if variant == 2:
        touched = False
        cubes = [w.cube for w in P]
        for i, c in enumerate(cubes):
            if _overlaps(q, c):
                P[i] = WeightedCube(c, _weight_at(cubes, i))
                touched = True
        if touched:
            P.sort(key=_sort_key(sort))
    elif variant == 3:
        moved = [w.cube for w in P if _overlaps(q, w.cube)]
        if moved:
            P[:] = [w for w in P if not _overlaps(q, w.cube)]
            B.extend(moved)
    elif variant == 4:
        if len(fragments) == 1:
            P.append(WeightedCube(fragments[0], 0))
        else:
            B.extend(fragments)
    elif variant == 5 and fragments:
        bi = min(
            range(len(fragments)),
            key=lambda k: (-fragments[k].dimension, fragments[k].to_string()),
        )
        P.append(WeightedCube(fragments[bi], 0))
        B.extend(fragments[:bi] + fragments[bi + 1 :])
    if variant >= 4:
        # full reweight, then re-sort
        cubes = [w.cube for w in P]
        weighted = (WeightedCube(c, _weight_at(cubes, i)) for i, c in enumerate(cubes))
        P[:] = sorted(weighted, key=_sort_key(sort))


def dsop(
    f: FunctionSpec, cfg: DsopConfig | None = None, *, sop: Cover | None = None
) -> Cover:
    """Synthesize a pairwise-disjoint cover of f.

    On-minterms end up covered exactly once, off-minterms never, and
    don't-care minterms at most once (disjointness). Only the first
    re-minimization pass sees f.dc; later passes treat the residual
    fragments as a completely specified function. With drop_dc_only
    set, a cube about to be committed that covers no original on-point
    is discarded instead, without splitting its neighbours.

    `sop`, when given, must be build_sop(f, cfg.backend): the first
    pass then uses it instead of re-minimizing f, so a caller that
    already built it (say, to report its size) pays for it once. Like
    every build_sop result it must be absorption-free, since the loop
    commits the cubes weight_all weighs -1 without splitting anything.
    """
    # the loop lives in partial, which imports this module
    from .partial import PartialSpec, _select

    spec = PartialSpec(unique=f, shared=FunctionSpec(f.n, Cover(f.n)))
    return _select(spec, cfg or DsopConfig(), sop, full=True)
