"""Exact verification of disjoint and partial disjoint covers.

verify_partial_dsop checks a result cover against its specification
exactly, for every n. One covers.CubeIndex holds the result's cubes,
live, followed by the spec's, the way build_sop indexes its off cubes.
It gives, per result cube, the later result cubes it overlaps, and,
per cube r of the unique part, the result cubes near r (sharing a
point with it). One walk over the unique cubes reads off
the overlapping pairs near each r: only there can a repeat break a
rule. Cubes that pairwise share a point all share one (Helly's
property for subcubes), so the points a pair covers twice in r are the
single cube res_i & res_j & r. An on cube with no such pair is met by
its near cubes in disjoint pieces, so it lies inside the result iff
their volumes, 2**(n - bound variables) each, add up to its own; every
other on cube goes to the containment search. verify_dsop is
verify_partial_dsop with an empty shared region: the on-set is covered
exactly once, the dc-set at most once, the off-set never, so two
overlapping cubes always break one of those rules at a point they
share. Every violation is (minterm, rule, observed): a witness minterm,
the rule it breaks ("==1", "<=1", ">=1" or "==0"), and how many result
cubes cover it. Every rule asks one question, which minterms of some
cubes lie outside a union of cubes. A single cube of the union answers
it first, for every cube at once: the "==0" rule asks the index, once
per spec cube, which result slots lie inside that cube
(CubeIndex.inside), and the ">=1" rule asks it, once per result and
unique cube, the same of the shared on slots. A cube found inside one
has no minterm outside the union. Only the others are searched, by
splitting each cube one free variable at a time and dropping every
half the union contains. Each half carries the union's slots meeting
it, one AND per split, and covers._slots_contain, the routine behind
every containment probe, runs its tautology check on those alone. The
identity backend's covers leave none for "==0", so no search runs over
result cubes times spec cubes.
No point masks are built and nothing is sampled, so the cost does not
depend on 2**n. The witnesses are rendered as trit strings together,
one table per rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .covers import Cover, CubeIndex, FunctionSpec, PartialSpec, _slots_contain, slots_of
from .cubes import Cube, DimensionMismatch, trit_strings

__all__ = [
    "VerificationReport",
    "verify_dsop",
    "verify_partial_dsop",
]

_MAX_REPORTED = 1000


@dataclass(slots=True)
class VerificationReport:
    violations: list[tuple[str, str, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _witnesses(
    index: CubeIndex, cubes: Sequence[Cube], outside: int, found: set[int]
) -> None:
    """Add to `found`, until it holds _MAX_REPORTED minterms, each
    minterm of `cubes` outside the union of the cubes of `index` in the
    slots `outside`, cube by cube and ascending within each cube.

    Splits a cube one free variable at a time, highest index first, and
    drops each half that those slots contain, so every subcube kept
    leads to at least one. Each subcube carries the slots of `outside`
    meeting it, which alone can hold any of it: a cube starts from those
    opposing none of its literals, and the half of a split binding v to
    a value keeps those not opposing that literal, one AND.
    """
    n = index.n
    full = (1 << n) - 1
    opp = index.opp
    stack = []
    for c in reversed(cubes):
        against = 0
        for k in c.keys:
            against |= opp[k]
        stack.append((c.mask, c.bits, outside & ~against))
    while stack and len(found) < _MAX_REPORTED:
        m, b, slots = stack.pop()
        if _slots_contain(index, slots, m):
            continue
        free = full & ~m
        if not free:
            found.add(b)
            continue
        v = free.bit_length() - 1
        bit = 1 << v
        stack.append((m | bit, b | bit, slots & ~opp[n + v]))
        stack.append((m | bit, b, slots & ~opp[v]))


def _inside_none(index: CubeIndex, slots: int, cubes: Iterable[Cube]) -> int:
    """The slots in `slots` whose cube lies inside none of `cubes`:
    only those can have a minterm outside the cubes' union, so only
    those need a search."""
    for c in cubes:
        if not slots:
            break
        slots &= ~index.inside(c, slots)
    return slots


def _report(
    violations: list[tuple[str, str, int]],
    found: set[int],
    constraint: str,
    index: CubeIndex,
) -> None:
    """Append each minterm of `found`, ascending and up to the cap,
    with the number of result cubes covering it: the slots of `index`,
    the result's, overlapping the minterm's cube."""
    n = index.n
    full = (1 << n) - 1
    kept = sorted(found)[: _MAX_REPORTED - len(violations)]
    points = [Cube(n, full, m) for m in kept]
    for point, trits in zip(points, trit_strings(points)):
        violations.append((trits, constraint, index.overlapping(point).bit_count()))


def verify_dsop(f: FunctionSpec, result: Cover) -> VerificationReport:
    """Check that `result` is a disjoint cover of f: every on-minterm
    covered exactly once ("==1"), every don't-care at most once
    ("<=1"), every off-minterm never ("==0"). Two overlapping result
    cubes share a point in one of those three regions, so they always
    break one of the rules there. This is verify_partial_dsop with an
    empty shared region, exact for every n."""
    return verify_partial_dsop(
        PartialSpec(unique=f, shared=FunctionSpec(f.n, Cover(f.n))), result
    )


def verify_partial_dsop(spec: PartialSpec, result: Cover) -> VerificationReport:
    """Check a partial disjoint cover: unique.on exactly once, unique.dc
    at most once, shared.on at least once, shared.dc unconstrained, off
    uncovered. Region priority follows that order should the given
    PartialSpec's parts accidentally overlap. Exact for every n: one
    walk over the unique cubes finds the overlapping result pairs near
    each, which alone can break a rule there, and proves an on cube
    with none covered when the volumes of its near pieces add up to
    its own. Once the "==1" overlap witnesses reach the report's cap,
    the pairs after them go unsearched. The ">=1" and "==0" rules
    search only the cubes that lie inside no single cube of the union
    they must stay in, found by CubeIndex.inside; the cubes left out
    have no witness, so the report is the same."""
    n = spec.n
    if result.n != n:
        raise DimensionMismatch(
            f"{result.n}-variable cover checked against a {n}-variable spec"
        )
    on_u = spec.unique.on.cubes
    unique_cubes = on_u + spec.unique.dc.cubes
    on_s = spec.shared.on.cubes
    # the result's cubes, live, then the spec's: unique on, unique dc,
    # shared on, shared dc
    index = CubeIndex(n, result.cubes + unique_cubes + spec.shared.care_cover().cubes)
    cubes = index.cubes
    k = len(result.cubes)
    index.live = res = (1 << k) - 1
    on_slots = ((1 << len(on_u)) - 1) << k
    unique = ((1 << len(unique_cubes)) - 1) << k
    shared_on = ((1 << len(on_s)) - 1) << (k + len(unique_cubes))
    every = ((1 << len(cubes)) - 1) & ~res
    later = [
        index.overlapping(c) & ~((2 << i) - 1) for i, c in enumerate(result.cubes)
    ]
    crowded = 0
    for i, peers in enumerate(later):
        if peers:
            crowded |= 1 << i
    gaps: list[Cube] = []
    multi_on: set[int] = set()
    multi_dc: set[int] = set()
    for r, c in enumerate(unique_cubes):
        nr = index.overlapping(c)
        # the overlapping pairs i < j of result cubes near c
        pairs = (
            (i, j) for i in slots_of(nr & crowded) for j in slots_of(later[i] & nr)
        )
        is_on = r < len(on_u)
        found, outs = (multi_on, 0) if is_on else (multi_dc, on_slots)
        overlapped = False
        for i, j in pairs:
            overlapped = True
            if len(multi_on) >= _MAX_REPORTED:
                break
            # cubes that pairwise share a point all share one, so the
            # points both cubes cover in c form one cube
            a, b = cubes[i], cubes[j]
            meet = Cube(n, a.mask | b.mask | c.mask, a.bits | b.bits | c.bits)
            _witnesses(index, [meet], outs, found)
        # with no pair, c meets its near cubes in disjoint pieces, so it
        # is covered iff their volumes add up to its own
        if is_on and (
            overlapped
            or sum(1 << (n - (cubes[i].mask | c.mask).bit_count()) for i in slots_of(nr))
            != 1 << (n - c.mask.bit_count())
        ):
            gaps.append(c)
    uncovered: set[int] = set()
    _witnesses(index, gaps, res, uncovered)
    lone = _inside_none(index, shared_on, result.cubes + unique_cubes)
    short: set[int] = set()
    _witnesses(index, [cubes[s] for s in slots_of(lone)], res | unique, short)
    stray = _inside_none(index, res, cubes[k:])
    off: set[int] = set()
    _witnesses(index, [cubes[s] for s in slots_of(stray)], every, off)
    report = VerificationReport()
    _report(report.violations, uncovered, "==1", index)
    _report(report.violations, multi_on, "==1", index)
    _report(report.violations, multi_dc, "<=1", index)
    _report(report.violations, short, ">=1", index)
    _report(report.violations, off, "==0", index)
    return report
