"""Partial disjoint covers: exact-once and cover-freely regions.

A PartialSpec splits a function into two point-disjoint parts. Points
of `unique` carry the DSOP obligations (on covered exactly once, dc at
most once); points of `shared` just need covering (on at least once,
dc unconstrained). Overlaps between result cubes are then legal as
long as they fall entirely inside shared points, which lets the
synthesis keep cubes whole where a full DSOP would have to split them.

partial_break() is the overlap-aware version of the splitting step:
when the overlap q & p lies inside the shared region, q survives
unsplit; when it lies inside the unique region, q is split as usual;
otherwise q is split and the shared part of the overlap is reported
back so later re-minimization passes may reuse those already-covered
points as don't cares.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covers import Cover, FunctionSpec, cover_contains_cube, normalize
from .cubes import Cube, ContractViolation, disjoint_sharp, intersect
from .engine import (
    DsopConfig,
    ProgressError,
    _apply_opt,
    _overlaps,
    _split_isolated,
    covers_only_dc,
    sort_cubes,
    weight_all,
)
from .minimize import build_sop

__all__ = ["PartialSpec", "partial_break", "partial_dsop"]

# test hook: called with (reusable cubes, committed cube list) whenever
# overlap points are fed back into the don't-care pool
_DC_FEEDBACK_HOOK = None


@dataclass(frozen=True, slots=True)
class PartialSpec:
    """Two point-disjoint function parts sharing one variable space."""

    unique: FunctionSpec
    shared: FunctionSpec

    def __post_init__(self) -> None:
        if self.unique.n != self.shared.n:
            raise ValueError(
                f"parts disagree on width: {self.unique.n} vs {self.shared.n}"
            )

    @property
    def n(self) -> int:
        return self.unique.n

    def unique_cover(self) -> Cover:
        return self.unique.care_cover()

    def shared_cover(self) -> Cover:
        return self.shared.care_cover()

    def validate_disjoint(self) -> None:
        """Raise ValueError when any unique cube meets any shared cube."""
        for a in self.unique_cover().cubes:
            for b in self.shared_cover().cubes:
                if intersect(a, b) is not None:
                    raise ValueError(
                        f"unique cube {a} overlaps shared cube {b}; "
                        "the two parts must be point-disjoint"
                    )


def partial_break(
    q: Cube, p: Cube, spec: PartialSpec
) -> tuple[list[Cube], list[Cube]]:
    """Split q against a committed cube p, sparing shared-only overlaps.

    Returns (fragments, reusable). With x = q & p (required nonempty):
    x inside the shared region yields ([], []) and q should stay whole;
    x inside the unique region yields the plain disjoint split of q;
    otherwise q is split and `reusable` lists the shared slices of x,
    points already covered by p that later passes may treat as don't
    cares.
    """
    x = intersect(q, p)
    if x is None:
        raise ContractViolation("partial_break requires overlapping cubes")
    shared_all = spec.shared_cover()
    if cover_contains_cube(shared_all, x):
        return [], []
    if cover_contains_cube(spec.unique_cover(), x):
        return disjoint_sharp(q, p), []
    reusable = []
    for s in shared_all.cubes:
        piece = intersect(x, s)
        if piece is not None:
            reusable.append(piece)
    return disjoint_sharp(q, p), reusable


def _subtract_all(cubes: list[Cube], p: Cube) -> list[Cube]:
    out: list[Cube] = []
    for c in cubes:
        if _overlaps(c, p):
            out.extend(disjoint_sharp(c, p))
        else:
            out.append(c)
    return out


def partial_dsop(
    spec: PartialSpec, cfg: DsopConfig | None = None, *, sop: Cover | None = None
) -> Cover:
    """Cover both parts with the partial variant of the selection loop.

    Unique on-points come out covered exactly once and unique dc-points
    at most once; shared points may be covered any number of times (on
    at least once); off-points never. Unlike the full DSOP loop, the
    don't-care pool persists across re-minimization passes: it starts
    as unique.dc plus shared.dc, the unique part shrinks as committed
    cubes claim its points, and shared overlap slices reported by
    partial_break keep feeding it.

    `sop`, when given, must be the first pass's SOP: build_sop of the
    function with on = unique.on + shared.on and dc = unique.dc +
    shared.dc, under cfg.backend. The first pass then uses it instead
    of re-minimizing.
    """
    cfg = cfg or DsopConfig()
    spec.validate_disjoint()
    n = spec.n
    shared_all = spec.shared_cover()
    original_on = normalize(
        Cover(n, spec.unique.on.cubes + spec.shared.on.cubes)
    )
    committed: list[Cube] = []
    todo_on = Cover(n, spec.unique.on.cubes + spec.shared.on.cubes)
    dc_once = list(spec.unique.dc.cubes)
    dc_many = list(spec.shared.dc.cubes)
    outer = 0
    while todo_on.cubes:
        outer += 1
        if outer > cfg.max_outer_iterations:
            raise ProgressError(
                f"no convergence after {cfg.max_outer_iterations} passes"
            )
        if sop is None:
            sop = build_sop(
                FunctionSpec(n, todo_on, Cover(n, tuple(dc_once + dc_many))),
                cfg.backend,
            )
        isolated, rest = _split_isolated(list(sop.cubes))
        for c in isolated:
            if cfg.drop_dc_only and covers_only_dc(c, original_on):
                continue
            committed.append(c)
            if dc_once:
                dc_once = _subtract_all(dc_once, c)
        P = sort_cubes(weight_all(rest), cfg.sort)
        B: list[Cube] = []
        while P:
            p = P.pop(0).cube
            if cfg.drop_dc_only and covers_only_dc(p, original_on):
                continue
            committed.append(p)
            if dc_once:
                dc_once = _subtract_all(dc_once, p)
            kept_ids: set[int] = set()
            while True:
                qi = -1
                for i, w in enumerate(P):
                    if id(w) not in kept_ids and _overlaps(p, w.cube):
                        qi = i
                        break
                if qi < 0:
                    break
                entry = P[qi]
                overlap = intersect(p, entry.cube)
                if cover_contains_cube(shared_all, overlap):
                    # overlap is harmless: q survives, keeps its slot
                    kept_ids.add(id(entry))
                    continue
                P.pop(qi)
                fragments, reusable = partial_break(entry.cube, p, spec)
                if reusable:
                    dc_many.extend(reusable)
                    if _DC_FEEDBACK_HOOK is not None:
                        _DC_FEEDBACK_HOOK(list(reusable), list(committed))
                if fragments:
                    _apply_opt(cfg.variant, cfg.sort, entry.cube, fragments, P, B)
            if B:
                kept: list[Cube] = []
                for r in B:
                    overlap = intersect(p, r)
                    if overlap is None:
                        kept.append(r)
                        continue
                    if cover_contains_cube(shared_all, overlap):
                        kept.append(r)
                        continue
                    fragments, reusable = partial_break(r, p, spec)
                    if reusable:
                        dc_many.extend(reusable)
                        if _DC_FEEDBACK_HOOK is not None:
                            _DC_FEEDBACK_HOOK(list(reusable), list(committed))
                    kept.extend(fragments)
                B = kept
        todo_on = Cover(n, tuple(B))
        sop = None
    return Cover(n, tuple(committed))
