"""Partial disjoint covers, and the one selection loop behind all covers.

A PartialSpec splits a function into two point-disjoint parts. Points
of `unique` carry the DSOP obligations (on covered exactly once, dc at
most once); points of `shared` just need covering (on at least once,
dc unconstrained). Overlaps between result cubes are then legal as
long as they fall entirely inside shared points, which lets the
synthesis keep cubes whole where a full DSOP would have to split them.

A full DSOP is the special case with an empty shared region: `dsop`
and `partial_dsop` are thin wrappers over one loop, `_select`. Each
outer pass re-minimizes what is left, weights it once, commits the
isolated cubes (weight -1), and selects the rest greedily; each
neighbour q of a selected cube p goes through partial_break, which
keeps q whole when q & p lies in the shared region. Every split has
one shape, split(q, p) -> (fragments or None, shared slices): with a
shared region it is partial_break, and with none _sharp, a plain
disjoint sharp with no slices and no region tests.

Fragments parked in B, the next pass's on-set, and the unclaimed unique
dc cubes must also be split by every cube committed after them. Both
lists are split once, at the end of each pass (_split_late): one index
over the list names the entries each committed cube overlaps, and only
those are split, in commit order. This equals splitting the whole list
after every commit, because a fragment lies inside the entry it came
from: a cube missing an entry misses all its pieces. Each commit keeps
the shared slices of its splits in a list of its own, those of its
neighbour loop and then those of its B splits, and the lists join the
dc pool in commit order once B is split: the order a split after every
commit would give.

Every pass's build_sop gets one list of refuters, `off`, which each
pass extends by its commits: as they are, or on the care path (see
_select) cut by the shared cubes they meet, by one more _split_late
with the shared cubes in the place of the commits.

The loop has no mode: the don't-care rule rides on `first`, the
function pass 1 re-minimizes. Later passes keep the unique dc points
no committed cube has claimed, plus shared dc and the slices
partial_break reports. dsop passes f as `first` and a spec without
f.dc, so f.dc reaches pass 1 alone. Neither rule gives smaller full
DSOPs in general: on random functions the keep-unclaimed rule makes
some dsop covers smaller and others larger.

partial_break() is the overlap-aware version of the splitting step:
when the overlap q & p lies inside the shared region, q survives
unsplit; otherwise q is split and the shared part of the overlap is
reported back so later re-minimization passes may reuse those
already-covered points as don't cares.
"""

from __future__ import annotations

import functools
from typing import Iterable

from .covers import (
    Cover, CubeIndex, FunctionSpec, PartialSpec, cover_contains_cube,
    normalize, slots_of,
)
from .cubes import (
    Cube, ContractViolation, _check_same_n, disjoint_sharp, intersect,
)
from .engine import (
    DsopConfig,
    ProgressError,
    _apply_opt,
    _Pool,
    weight_all,
)
from .minimize import build_sop

__all__ = ["PartialSpec", "partial_break", "partial_dsop"]

# outer passes _select may run before it raises ProgressError
_MAX_PASSES = 10000


def partial_break(
    q: Cube, p: Cube, spec: PartialSpec
) -> tuple[list[Cube] | None, list[Cube]]:
    """Split q against a committed cube p, sparing shared-only overlaps.

    The spec's two parts must be point-disjoint. Returns (fragments,
    reusable). With x = q & p (required nonempty): x inside the shared
    region yields (None, []), and q stays whole; otherwise fragments
    is disjoint_sharp(q, p), empty when p contains q, and `reusable`
    lists the shared slices of x, points already covered by p that
    later passes may treat as don't cares. An x inside the unique
    region meets no shared cube, so it has none. Only the shared cubes
    x meets are looked at, as spec.shared_index() names them: x lies in
    the shared region exactly when it lies in their union. A q meeting
    no shared cube is split at once, without building x.
    """
    _check_same_n(q, p)
    if (q.mask & p.mask) & (q.bits ^ p.bits):
        raise ContractViolation("partial_break requires overlapping cubes")
    index = spec.shared_index()
    if not index.overlapping(q):
        # nor does x, which lies in q: a plain split with no slices
        return disjoint_sharp(q, p), []
    x = intersect(q, p)
    near = [index.cubes[s] for s in slots_of(index.overlapping(x))]
    if near and cover_contains_cube(Cover(spec.n, tuple(near)), x):
        return None, []
    return disjoint_sharp(q, p), [intersect(x, s) for s in near]


def _sharp(q: Cube, p: Cube) -> tuple[list[Cube], tuple[()]]:
    """disjoint_sharp in the shape of partial_break: the fragments, and
    no shared slices. The split of a spec with no shared cube, and of
    the unique dc pool."""
    return disjoint_sharp(q, p), ()


def _subtract_all(cubes: list[Cube], p: Cube, split, found: list[Cube]) -> list[Cube]:
    """Each cube overlapping p replaced by the fragments of split(cube,
    p), or kept as it is when they are None; the slices of each split
    are added to `found`."""
    out: list[Cube] = []
    pm, pb = p.mask, p.bits
    for c in cubes:
        if not (c.mask & pm) & (c.bits ^ pb):
            fragments, slices = split(c, p)
            found += slices
            if fragments is not None:
                out.extend(fragments)
                continue
        out.append(c)
    return out


def _split_late(
    n: int, cubes: list[Cube], cuts: Iterable[tuple[Cube, int, list[Cube]]], split
) -> list[Cube]:
    """Split the entries of `cubes` by each (p, end, found) of `cuts`
    in turn: p splits the first `end` entries, those that existed when
    p was committed (ends never decrease), or rather the pieces they are
    by then, and the slices of its splits are added to `found`.

    The result, each `found`, and split's calls in their order, are
    those of running _subtract_all(list, p, split, found) after every
    commit over the list as it stood. One CubeIndex over the entries
    names those each p overlaps, and only their pieces are rescanned.
    That is exact: the rescan is an order-keeping flat map, and a piece
    lies inside its entry, so a p missing an entry misses all its pieces.
    """
    index = CubeIndex(n, cubes)
    chains = [[c] for c in cubes]
    for p, end, found in cuts:
        for i in slots_of(index.overlapping(p) & ((1 << end) - 1)):
            chains[i] = _subtract_all(chains[i], p, split, found)
    return [c for chain in chains for c in chain]


def _select(
    spec: PartialSpec, cfg: DsopConfig, first: FunctionSpec, sop: Cover | None
) -> Cover:
    """The selection loop behind dsop and partial_dsop.

    Pass 1 re-minimizes `first`, or uses `sop` when given; fragments
    left in B at the end of a pass are the next pass's on-set, and the
    dc pool its dc-set. dsop and partial_dsop differ only in the
    `first` and `spec` they pass (see the module docstring), so one
    rule set serves both: every neighbour that leaves P goes through
    _apply_opt, also one that p swallows whole, leaving no fragment.

    B and the unique dc cubes are split at the end of the pass, by the
    pass's committed cubes in commit order. Each loop commit records
    len(B) once its neighbour loop is done, so it splits only the B
    entries that existed by then; every dc entry predates the pass's
    first commit. Each commit's cut carries the list its splits add
    shared slices to, in the neighbour loop and then in B, so extending
    dc_many by the lists in commit order gives it the order a split
    after every commit would.

    Each pass's build_sop gets the cubes committed so far as `off`. B
    and the unique dc pool were split by them, so they meet only the
    shared points of a pass's on+dc; build_sop keeps the ones meeting
    none as refuters of its expand probes, which changes no cover.

    When the shared region has no on-set, with no drop_dc_only and the
    builtin backend, later passes get `care` instead: the pass-1 SOP's
    cubes plus those of U = spec.unique.dc (empty for dsop) and of
    D = spec.shared.dc (empty for dsop and an empty shared region).
    Their `off` is R_i, the pieces of C_i, the cubes committed in
    passes 1..i, outside every shared cube: each pass cuts its commits
    by the shared cubes they meet (_split_late), so R_i is C_i minus D.
    The invariant: the on+dc of pass i+1 is care minus C_i, plus D.

    - A pass commits, splits or keeps whole every cube q of its SOP S:
      a split piece is q minus the committed p, and q stays whole only
      when q & p lies in D. So B, split late by every commit, is S
      minus the pass's commits c_i, plus some points of D. The dc pool
      is U minus C_i, plus D, where every shared slice lies.
    - S misses C_{i-1} outside D: for pass 1 that is empty, and a later
      S lies in its on+dc. So the next on+dc, B plus the pool, is
      (S plus U) minus C_i, plus D.
    - For pass 1, S plus U plus D is care. A later pass's S lies in its
      on+dc T and covers T's on-set B_{i-1}, so T is S plus (U minus
      C_{i-1}) plus D, and the next on+dc is T minus C_i, plus D: by
      induction, care minus C_i, plus D.
    - care minus R_i is that same set, since D lies in care.

    So every expand probe asks "inside care and meeting no refuter",
    the same question as "inside on+dc", of care's few cubes instead of
    B's fragments.

    The other paths make the plain call. With a shared on-set, a
    committed shared on-point is valid later only if a split reported
    it as a slice or left it in B, so care minus the refuters no longer
    names the next on+dc; drop_dc_only discards cubes without
    splitting their neighbours, so their points may end up in B, in a
    later commit or nowhere; and the identity and external backends
    ignore `care`, so it is not even built for them.
    """
    n = spec.n
    if sop is not None and len(kept := normalize(sop).cubes) < len(sop.cubes):
        # kept is a subsequence of sop, so the first mismatch is dropped
        i = next((j for j, k in enumerate(kept) if k != sop.cubes[j]), len(kept))
        raise ContractViolation(
            f"sop= is not absorption-free: cube {i} ({sop.cubes[i]}) "
            "repeats or lies inside another cube"
        )
    # drop_dc_only commits only cubes meeting the on-set; a cube it
    # drops splits nothing
    keep = CubeIndex(n, first.on.cubes).overlapping if cfg.drop_dc_only else None
    committed: list[Cube] = []
    # the function the current pass re-minimizes
    todo = first
    dc_once = list(spec.unique.dc.cubes)
    dc_many = list(spec.shared.dc.cubes)
    # None until pass 1's SOP is known, and on the paths that cannot use it
    care: Cover | None = None
    keep_care = (
        not spec.shared.on.cubes
        and not cfg.drop_dc_only
        and cfg.backend.kind == "builtin"
    )
    # every build_sop's refuters: the committed cubes, or on the care
    # path their pieces outside the shared region
    off: list[Cube] = []
    shared = spec.shared_index().cubes
    # (fragments, or None when q stays whole, and shared slices)
    split = functools.partial(partial_break, spec=spec) if shared else _sharp
    outer = 0
    while todo.on.cubes:
        outer += 1
        if outer > _MAX_PASSES:
            raise ProgressError(f"no convergence after {_MAX_PASSES} passes")
        if sop is None:
            sop = build_sop(todo, cfg.backend, off=off, care=care)
        if keep_care and care is None:
            care = Cover(n, sop.cubes + spec.unique.dc.cubes + spec.shared.dc.cubes)
        start = len(committed)
        # sop is absorption-free, so -1 marks exactly the isolated cubes;
        # the pool selects the others through the index weight_all read
        index = CubeIndex(n, sop.cubes)
        counts: list[int] = []
        weighted = weight_all(sop, index, counts)
        for w in weighted:
            if w.weight < 0 and (keep is None or keep(w.cube)):
                committed.append(w.cube)
        P = _Pool(index, cfg.variant, cfg.sort, weighted, counts)
        B: list[Cube] = []
        # (p, len(B) after p's neighbour loop, p's slices), commit order
        cuts: list[tuple[Cube, int, list[Cube]]] = []
        while P:
            p = P.pop()
            if keep is not None and not keep(p):
                continue
            committed.append(p)
            found: list[Cube] = []
            # p's neighbours in P; a fragment requeued below is a piece
            # of some q outside p, so it never joins them
            near = P.index.overlapping(p)
            while True:
                qs = P.first(near)
                if qs < 0:
                    break
                q = P.index.cubes[qs]
                fragments, slices = split(q, p)
                found += slices
                if fragments is None:
                    # the overlap is shared: q stays whole in P
                    near &= ~(1 << qs)
                    continue
                P.remove(qs)
                _apply_opt(q, fragments, P, B)
            cuts.append((p, len(B), found))
        B = _split_late(n, B, cuts, split)
        for _, _, found in cuts:
            dc_many += found
        fresh = committed[start:]
        if dc_once:
            # every entry predates the pass's first commit
            dc_once = _split_late(
                n, dc_once, [(c, len(dc_once), []) for c in fresh], _sharp
            )
        if care is not None and shared:
            fresh = _split_late(n, fresh, [(s, len(fresh), []) for s in shared], _sharp)
        off += fresh
        todo = FunctionSpec(n, Cover(n, tuple(B)), Cover(n, tuple(dc_once + dc_many)))
        sop = None
    return Cover(n, tuple(committed))


def partial_dsop(
    spec: PartialSpec, cfg: DsopConfig | None = None, *, sop: Cover | None = None
) -> Cover:
    """Cover both parts with the partial variant of the selection loop.

    Unique on-points come out covered exactly once and unique dc-points
    at most once; shared points may be covered any number of times (on
    at least once); off-points never. Unlike a full DSOP, the
    don't-care pool persists across re-minimization passes: it starts
    as unique.dc plus shared.dc, the unique part shrinks as committed
    cubes claim its points, and shared overlap slices reported by
    partial_break keep feeding it. ValueError when the parts overlap.

    `sop`, when given, must be build_sop(spec.combined(), cfg.backend):
    the first pass then uses it instead of re-minimizing. Like every
    build_sop result it must be absorption-free, or ContractViolation.
    """
    spec.validate_disjoint()
    return _select(spec, cfg or DsopConfig(), spec.combined(), sop)
