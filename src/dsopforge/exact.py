"""Point enumeration, and the exact minimum search built on it.

This is the one module that enumerates points. A point mask is a
2**n-bit integer whose bit m is set iff minterm m lies in the set, so
everything here is for tiny n: the test oracles that check the cube
algebra, and the exact minimum search that heuristic covers are
compared against. No synthesis or verification path imports it.

exact_min_partial_dsop enumerates every cube inside the care set that
touches a required point (unique.on or shared.on) and runs an
iterative-deepening search for the smallest set of them that covers
every required point and no exclusive point (unique.on or unique.dc)
twice. exact_min_dsop is the same search over an empty shared region,
where every care point is exclusive.
"""

from __future__ import annotations

from .covers import Cover, FunctionSpec, PartialSpec
from .cubes import Cube, trit_strings

__all__ = [
    "EnumerationCapExceeded",
    "point_mask",
    "cover_point_mask",
    "exact_min_partial_dsop",
    "exact_min_dsop",
    "chain_family",
]

ENUMERATION_CAP = 26


class EnumerationCapExceeded(ValueError):
    """Point enumeration was requested over too wide a variable space."""


def point_mask(cube: Cube) -> int:
    """Characteristic bitmask of the cube's minterm set: bit m is set
    iff the cube covers minterm m. The result has 2**n bits."""
    out = 1
    for i in range(cube.n):
        b = 1 << i
        if not cube.mask & b:
            out |= out << (1 << i)
        elif cube.bits & b:
            out <<= 1 << i
    return out


def cover_point_mask(cover: Cover) -> int:
    """Union of the cubes' point masks (bit m set iff minterm m covered).

    Only sensible for small n; guarded to keep the 2**n-bit integers
    from exhausting memory on mistaken calls.
    """
    if cover.n > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"point mask over {cover.n} variables; check containment "
            "on cubes instead"
        )
    acc = 0
    for c in cover.cubes:
        acc |= point_mask(c)
    return acc


def exact_min_partial_dsop(spec: PartialSpec, max_n: int = 5) -> Cover:
    """Smallest partial disjoint cover of spec, by exhaustive search.

    Candidates are all cubes inside the care set (both parts, on and
    dc) that touch a required point, enumerated largest-first with
    trit-string tie order. An iterative-deepening search over the
    result size returns the first solution found at the minimum size,
    so the output is deterministic. A candidate is skipped when it
    would cover an exclusive point a second time. ValueError when the
    parts overlap. Only meant for tiny n (the candidate pool is 3**n).
    """
    n = spec.n
    if n > max_n:
        raise EnumerationCapExceeded(
            f"exact search over {n} variables refused (max_n={max_n})"
        )
    spec.validate_disjoint()
    exclusive = cover_point_mask(spec.unique_cover())
    required = cover_point_mask(spec.unique.on) | cover_point_mask(spec.shared.on)
    if required == 0:
        return Cover(n)
    care = exclusive | cover_point_mask(spec.shared_cover())
    cubes = [Cube(n, m, b) for m in range(1 << n) for b in range(1 << n) if not b & ~m]
    ties = trit_strings(cubes)
    order = sorted(range(len(cubes)), key=lambda i: (-cubes[i].dimension, ties[i]))
    cubes = [cubes[i] for i in order]
    candidates = [(c, point_mask(c)) for c in cubes]
    candidates = [(c, pm) for c, pm in candidates if pm & required and not pm & ~care]
    by_point = {
        m: [ci for ci, (_, pm) in enumerate(candidates) if pm >> m & 1]
        for m in range(1 << n)
        if required >> m & 1
    }
    chosen: list[int] = []
    failed_at: dict[int, int] = {}

    def search(covered: int, budget: int) -> bool:
        need = required & ~covered
        if not need:
            return True
        if budget == 0:
            return False
        if failed_at.get(covered, -1) >= budget:
            return False
        low = (need & -need).bit_length() - 1
        for ci in by_point[low]:
            pm = candidates[ci][1]
            if pm & covered & exclusive:
                continue
            chosen.append(ci)
            if search(covered | pm, budget - 1):
                return True
            chosen.pop()
        failed_at[covered] = budget
        return False

    upper = required.bit_count()
    for k in range(1, upper + 1):
        if search(0, k):
            return Cover(n, tuple(candidates[ci][0] for ci in chosen))
    raise RuntimeError("unreachable: minterm cover always exists")


def exact_min_dsop(f: FunctionSpec, max_n: int = 5) -> Cover:
    """Smallest disjoint cover of f: exact_min_partial_dsop over an
    empty shared region, where every care point is exclusive."""
    empty = FunctionSpec(f.n, Cover(f.n))
    return exact_min_partial_dsop(PartialSpec(unique=f, shared=empty), max_n)


def chain_family(m: int) -> FunctionSpec:
    """The 2m-variable function x1 x2 + x3 x4 + ... + x(2m-1) x(2m).

    The smallest disjoint cover of this chain has 2**m - 1 cubes even
    though the plain SOP needs only m, which makes it a sharp test case
    for minimum-size oracles and heuristics alike.
    """
    if m < 1:
        raise ValueError("chain_family needs m >= 1")
    n = 2 * m
    cubes = tuple(
        Cube(n, 0b11 << (2 * i), 0b11 << (2 * i)) for i in range(m)
    )
    return FunctionSpec(n, Cover(n, cubes))
