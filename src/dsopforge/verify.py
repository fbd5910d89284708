"""Exact verification of disjoint and partial disjoint covers.

verify_partial_dsop checks a result cover against its specification
exactly, for every n, on (mask, bits) cube pairs: each obligation is a
containment question (a cube inside a union of cubes, answered by
covers._pairs_contain) or an overlap between two result cubes. One
covers.CubeIndex over the result gives, per result cube, the later
result cubes it overlaps, and, per cube of the unique part, the result
cubes near it (sharing a point with it). Overlaps are looked for only
among the near cubes of each unique cube, since only there can a
repeat break a rule, and each overlapping pair is read off the index
rather than tested. An on cube whose near cubes overlap in no pair is
met by them in pairwise disjoint pieces, so it lies inside the result
iff the pieces' volumes, 2**(n - bound variables) each, add up to its
own; only the on cubes this test does not clear go to the containment
search. With overlapping pieces the sum
counts shared points twice and proves nothing, so those cubes go to
the search too. verify_dsop is verify_partial_dsop with an empty shared
region: the on-set is covered exactly once, the dc-set at most once,
the off-set never, so two overlapping cubes always break one of those
rules at a point they share. Every violation is (minterm, rule,
observed): a witness minterm, the rule it breaks ("==1", "<=1", ">=1"
or "==0"), and how many result cubes cover it. Witnesses are found by
splitting the offending cube one free variable at a time and dropping
every half that holds none. No point masks are built and nothing is
sampled, so the cost does not depend on 2**n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .covers import Cover, CubeIndex, FunctionSpec, PartialSpec, _pairs_contain, slots_of
from .cubes import DimensionMismatch

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


def _minterm_string(index: int, n: int) -> str:
    return "".join("1" if index >> i & 1 else "0" for i in range(n))


def _pairs(cover: Cover, n: int) -> list[Pair]:
    if cover.n != n:
        raise DimensionMismatch(
            f"{cover.n}-variable cover checked against a {n}-variable spec"
        )
    return [(c.mask, c.bits) for c in cover.cubes]


def _witnesses(
    n: int,
    cubes: list[Pair],
    inside: list[Pair] | None,
    outside: list[Pair],
    found: set[int],
) -> None:
    """Add to `found`, until it holds _MAX_REPORTED minterms, each
    minterm of `cubes` that lies in the union of `inside` (anywhere in
    the cubes when inside is None) and outside the union of `outside`.

    Splits a cube one free variable at a time, highest index first, and
    drops each half that holds no such minterm, so every subcube kept
    leads to at least one.
    """
    full = (1 << n) - 1
    stack = [(m, b, inside, outside) for m, b in reversed(cubes)]
    while stack and len(found) < _MAX_REPORTED:
        m, b, ins, outs = stack.pop()
        if ins is None:
            if _pairs_contain(n, outs, m, b):
                continue
        else:
            # the parts of `inside` within this subcube
            ins = [(im | m, ib | b) for im, ib in ins if not (im & m) & (ib ^ b)]
            if all(_pairs_contain(n, outs, im, ib) for im, ib in ins):
                continue
        free = full & ~m
        if not free:
            found.add(b)
            continue
        outs = [(om, ob) for om, ob in outs if not (om & m) & (ob ^ b)]
        v = 1 << (free.bit_length() - 1)
        stack.append((m | v, b | v, ins, outs))
        stack.append((m | v, b, ins, outs))


def _overlaps(
    near: list[int], later: list[int], crowded: int
) -> Iterator[tuple[int, int, int]]:
    """Yield (i, j, r) for each pair i < j of result cubes that share a
    point and both touch region cube r, r and then i, j ascending.

    near[r] is the bitset of result cubes touching region cube r,
    later[i] that of the cubes after i overlapping i, and crowded that
    of the cubes i whose later[i] is not empty."""
    for r, nr in enumerate(near):
        for i in slots_of(nr & crowded):
            for j in slots_of(later[i] & nr):
                yield i, j, r


def _tiled(
    n: int, cube: Pair, near: int, res: list[Pair], later: list[int], crowded: int
) -> bool:
    """True when the result cubes `near` (a bitset) meet `cube` in
    pairwise disjoint pieces whose volumes add up to its own, which
    proves the cube covered. False proves nothing: overlapping pieces
    would count their shared points twice."""
    # cubes that pairwise share a point all share one, so two near
    # cubes that overlap do so inside the cube
    if any(later[i] & near for i in slots_of(near & crowded)):
        return False
    m = cube[0]
    volume = sum(1 << (n - (res[i][0] | m).bit_count()) for i in slots_of(near))
    return volume == 1 << (n - m.bit_count())


def _meet(p: Pair, q: Pair) -> Pair:
    return p[0] | q[0], p[1] | q[1]


def _report(
    violations: list[tuple[str, str, int]],
    found: set[int],
    constraint: str,
    items: list[Pair],
    n: int,
) -> None:
    for m in sorted(found)[: _MAX_REPORTED - len(violations)]:
        observed = sum(1 for cm, cb in items if m & cm == cb)
        violations.append((_minterm_string(m, n), constraint, observed))


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
    PartialSpec's parts accidentally overlap. Exact for every n: only
    overlaps of result cubes inside the unique part can break a rule
    there, so only those are looked for, and an on cube tiled by
    disjoint result pieces is proved covered by their volume."""
    n = spec.n
    res = _pairs(result, n)
    on_u = _pairs(spec.unique.on, n)
    dc_u = _pairs(spec.unique.dc, n)
    on_s = _pairs(spec.shared.on, n)
    every = on_u + dc_u + on_s + _pairs(spec.shared.dc, n)
    unique = on_u + dc_u
    index = CubeIndex(n, result.cubes)
    later = [
        index.overlapping(c) & ~((2 << i) - 1) for i, c in enumerate(result.cubes)
    ]
    crowded = 0
    for i, peers in enumerate(later):
        if peers:
            crowded |= 1 << i
    near = [index.overlapping(c) for c in spec.unique.on.cubes + spec.unique.dc.cubes]
    gaps = [
        p
        for p, nr in zip(on_u, near)
        if not _tiled(n, p, nr, res, later, crowded)
    ]
    uncovered: set[int] = set()
    _witnesses(n, gaps, None, res, uncovered)
    multi_on: set[int] = set()
    multi_dc: set[int] = set()
    for i, j, r in _overlaps(near, later, crowded):
        x = [_meet(res[i], res[j])]
        if r < len(on_u):
            _witnesses(n, x, [unique[r]], [], multi_on)
        else:
            _witnesses(n, x, [unique[r]], on_u, multi_dc)
        if len(multi_on) >= _MAX_REPORTED:
            break
    short: set[int] = set()
    _witnesses(n, on_s, None, res + unique, short)
    off: set[int] = set()
    _witnesses(n, res, None, every, off)
    report = VerificationReport()
    _report(report.violations, uncovered, "==1", res, n)
    _report(report.violations, multi_on, "==1", res, n)
    _report(report.violations, multi_dc, "<=1", res, n)
    _report(report.violations, short, ">=1", res, n)
    _report(report.violations, off, "==0", res, n)
    return report
