"""Exact verification of disjoint and partial disjoint covers.

verify_partial_dsop checks a result cover against its specification
exactly, for every n, on (mask, bits) cube pairs. One covers.CubeIndex
over the result gives, per result cube, the later result cubes it
overlaps, and, per cube r of the unique part, the result cubes near r
(sharing a point with it). One walk over the unique cubes reads off
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
it first, for every cube at once: the "==0" rule asks the result's
index, once per spec cube, which result cubes lie inside that cube
(CubeIndex.inside), and the ">=1" rule asks an index over shared.on,
once per result and unique cube, the same. A cube found inside one has
no minterm outside the union. Only the others are searched, by
splitting each cube one free variable at a time and dropping every
half the union contains (covers._pairs_contain). The identity
backend's covers leave none for "==0", so no search runs over result
cubes times spec cubes.
No point masks are built and nothing is sampled, so the cost does not
depend on 2**n. The witnesses are rendered as trit strings together,
one table per rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .covers import Cover, CubeIndex, FunctionSpec, PartialSpec, _pairs_contain, slots_of
from .cubes import Cube, DimensionMismatch, trit_strings

__all__ = [
    "VerificationReport",
    "verify_dsop",
    "verify_partial_dsop",
]

_MAX_REPORTED = 1000

Pair = tuple[int, int]


@dataclass(slots=True)
class VerificationReport:
    violations: list[tuple[str, str, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _pairs(cover: Cover, n: int) -> list[Pair]:
    if cover.n != n:
        raise DimensionMismatch(
            f"{cover.n}-variable cover checked against a {n}-variable spec"
        )
    return [(c.mask, c.bits) for c in cover.cubes]


def _witnesses(
    n: int, cubes: list[Pair], outside: list[Pair], found: set[int]
) -> None:
    """Add to `found`, until it holds _MAX_REPORTED minterms, each
    minterm of `cubes` outside the union of `outside`, cube by cube and
    ascending within each cube.

    Splits a cube one free variable at a time, highest index first, and
    drops each half that `outside` contains, so every subcube kept
    leads to at least one.
    """
    full = (1 << n) - 1
    stack = [(m, b, outside) for m, b in reversed(cubes)]
    while stack and len(found) < _MAX_REPORTED:
        m, b, outs = stack.pop()
        if _pairs_contain(n, outs, m, b):
            continue
        free = full & ~m
        if not free:
            found.add(b)
            continue
        outs = [(om, ob) for om, ob in outs if not (om & m) & (ob ^ b)]
        v = 1 << (free.bit_length() - 1)
        stack.append((m | v, b | v, outs))
        stack.append((m | v, b, outs))


def _inside_none(index: CubeIndex, cubes: Iterable[Cube]) -> int:
    """The live slots of `index` whose cube lies inside none of
    `cubes`: only those can have a minterm outside the cubes' union,
    so only those need a search."""
    rest = index.live
    for c in cubes:
        if not rest:
            break
        rest &= ~index.inside(c, rest)
    return rest


def _meet(p: Pair, q: Pair) -> Pair:
    return p[0] | q[0], p[1] | q[1]


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
    res = _pairs(result, n)
    on_u = _pairs(spec.unique.on, n)
    dc_u = _pairs(spec.unique.dc, n)
    on_s = _pairs(spec.shared.on, n)
    every = on_u + dc_u + on_s + _pairs(spec.shared.dc, n)
    unique = on_u + dc_u
    unique_cubes = spec.unique.on.cubes + spec.unique.dc.cubes
    index = CubeIndex(n, result.cubes)
    later = [
        index.overlapping(c) & ~((2 << i) - 1) for i, c in enumerate(result.cubes)
    ]
    crowded = 0
    for i, peers in enumerate(later):
        if peers:
            crowded |= 1 << i
    gaps: list[Pair] = []
    multi_on: set[int] = set()
    multi_dc: set[int] = set()
    for r, c in enumerate(unique_cubes):
        nr = index.overlapping(c)
        # the overlapping pairs i < j of result cubes near c
        pairs = (
            (i, j) for i in slots_of(nr & crowded) for j in slots_of(later[i] & nr)
        )
        is_on = r < len(on_u)
        found, outs = (multi_on, []) if is_on else (multi_dc, on_u)
        overlapped = False
        for i, j in pairs:
            overlapped = True
            if len(multi_on) >= _MAX_REPORTED:
                break
            # cubes that pairwise share a point all share one, so the
            # points both cubes cover in c form one cube
            _witnesses(n, [_meet(_meet(res[i], res[j]), unique[r])], outs, found)
        # with no pair, c meets its near cubes in disjoint pieces, so it
        # is covered iff their volumes add up to its own
        if is_on and (
            overlapped
            or sum(1 << (n - (res[i][0] | c.mask).bit_count()) for i in slots_of(nr))
            != 1 << (n - c.mask.bit_count())
        ):
            gaps.append(unique[r])
    uncovered: set[int] = set()
    _witnesses(n, gaps, res, uncovered)
    lone = _inside_none(CubeIndex(n, spec.shared.on.cubes), result.cubes + unique_cubes)
    short: set[int] = set()
    _witnesses(n, [on_s[i] for i in slots_of(lone)], res + unique, short)
    stray = _inside_none(index, unique_cubes + spec.shared.care_cover().cubes)
    off: set[int] = set()
    _witnesses(n, [res[i] for i in slots_of(stray)], every, off)
    report = VerificationReport()
    _report(report.violations, uncovered, "==1", index)
    _report(report.violations, multi_on, "==1", index)
    _report(report.violations, multi_dc, "<=1", index)
    _report(report.violations, short, ">=1", index)
    _report(report.violations, off, "==0", index)
    return report
