"""SOP re-minimization backends.

Every backend takes an incompletely specified function and returns an
absorption-free cover P with every cube of P inside on+dc and every
on-minterm covered. The builtin backend is one expand pass and one
irredundant pass; it never increases the cube count of the normalized
on-set. One pass of each is enough: with no REDUCE step between them,
both are idempotent, so a second round would rebuild the first's cover.
The identity backend just normalizes. Both grow every cube of P from an
on cube, so neither returns dc-only cubes. The external backend shells
out to an espresso-style binary that reads a PLA path argument and
prints a PLA on stdout; it may return dc-only cubes (--drop-dc-only
discards them), and a result that breaks either containment rule raises
MinimizerBackendError naming the offending cube.

The builtin backend's probes are the classic EXPAND and IRREDUNDANT
containment tests (Brayton et al., Logic Minimization Algorithms for
VLSI Synthesis, 1984): is this cube inside the union of those cubes?
Only cubes sharing a point with the probed cube can cover part of it,
and a covers.CubeIndex names them: build_sop indexes on+dc once for all
its expands, and irredundant indexes the cover it trims. A probe then
costs a few bitset operations to find its cubes, and a tautology
check over those slots alone, run on the index's bitsets
(covers._slots_contain), rather than a scan of the whole cover; a
probe that meets no cube fails at once.
The external backend's result is checked by the same routine: an index
over on+dc is asked about each result cube, and one over the result
about each on cube.

An expand probe fails as soon as it reaches one point off on+dc, so
build_sop also takes `off`, cubes the caller knows lie outside on+dc:
the selection loop passes the cubes it committed in earlier passes, a
partial OFF-set it has for free. They get slots in the same index,
after the live ones, and a probe whose raised cube meets a refuter
fails with no tautology check. On its own, build_sop keeps as
refuters only the `off` cubes sharing no point with on+dc, a check it
makes itself; a refuted probe would have failed anyway, so `off`
changes no cover, only its cost.

A caller may also pass `care`, a cover whose union minus the union of
`off` is exactly on+dc. The live slots are then care's cubes, and every
`off` cube refutes, with no overlap check: "mirror inside on+dc" is the
same predicate as "mirror inside care and meeting no off cube", so
every expand, and every cover, is the same. The selection loop passes
its pass-1 SOP plus the dc cubes it started from, a few dozen cubes
where a later pass's on-set may hold thousands of fragments, so each
probe cofactors only the few it meets. Its `off` is then the pieces
of its committed cubes outside the shared dc-set: a committed cube
may cover shared dc points, which stay valid, so only its other
points refute.

Every expanded cube lies in on+dc, so build_sop hands irredundant the
dc-set with that promise. A cube may then go when the rest plus the dc
cubes cover it, and the rest cover its overlap with each on cube that
meets a dc cube meeting it: one probe per candidate, plus one per such
on cube, instead of one per on cube meeting the candidate. Where on and
dc share no point, or the dc-set is empty, that is one probe per
candidate. Called with a must_cover and no dc-set at all, irredundant
takes the cover itself as its dc-set, so the promise holds; every must
cube meeting a candidate then meets the candidate's dc copy and gets a
probe of its own.
"""

from __future__ import annotations

import subprocess
import threading
from dataclasses import dataclass
from typing import Iterable

from .covers import Cover, CubeIndex, FunctionSpec, _slots_contain, normalize
from .cubes import Cube, ContractViolation, DimensionMismatch

__all__ = [
    "MinimizerBackend",
    "MinimizerBackendError",
    "expand_cube",
    "irredundant",
    "build_sop",
]

_BACKEND_KINDS = ("builtin", "external", "identity")

# external minimizer invocations are serialized per process
_EXTERNAL_LOCK = threading.Lock()


class MinimizerBackendError(RuntimeError):
    """The external minimizer failed to run or produced unusable output."""


@dataclass(frozen=True, slots=True)
class MinimizerBackend:
    kind: str = "builtin"
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _BACKEND_KINDS:
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "external" and not self.path:
            raise ValueError("external backend needs an executable path")
        if self.kind != "external" and self.path is not None:
            raise ValueError(f"{self.kind} backend takes no path")

    @classmethod
    def builtin(cls) -> "MinimizerBackend":
        return cls("builtin")

    @classmethod
    def identity(cls) -> "MinimizerBackend":
        return cls("identity")

    @classmethod
    def external(cls, path: str) -> "MinimizerBackend":
        return cls("external", path)

    def describe(self) -> str:
        return self.kind if self.kind != "external" else f"external:{self.path}"


def expand_cube(
    p: Cube, valid: Cover, index: CubeIndex | None = None, refute: int = 0
) -> Cube:
    """Greedily free literals of p, in ascending variable order, keeping
    each removal only while the enlarged cube stays inside the region:
    `valid` minus the cubes of the slots in `refute`.

    Requires p itself to be inside the region. The result contains p and
    is an implicant of it, though not necessarily prime under every
    removal order; when no literal can be freed it is p itself, so its
    keys are not scanned again. `index`, when given, is a CubeIndex
    whose live slots are valid's cubes in order, so that callers
    expanding many cubes against one cover build it once. Slots after
    those may hold other cubes, not live; `refute`, a bitset of such
    slots, names the refuters. A refute bit on a live or missing slot,
    or a refuter sharing a point with p, raises ContractViolation. A
    probe whose mirror meets a refuter fails at once, with no
    containment check, since the mirror has a point outside the region.
    When no refuter meets `valid` the region is `valid` itself, and
    `refute` only saves work; build_sop's `care` path passes refuters
    that do meet it.

    Freeing variable i of the current cube c gives c plus its mirror
    across i (c with literal i complemented). c is already inside the
    region, so the raised cube is inside it exactly when the mirror is:
    when the mirror meets no refuter and lies inside `valid`. Each probe
    tests only that half, which binds one more literal than the raised
    cube and so has a smaller cofactor.

    Only the cubes sharing a point with the mirror can cover any of it,
    and the index names them without a scan of `valid`: they are the
    live slots binding no variable against the mirror. The mirror binds
    p's values below i where the probe failed, the value opposite p's
    at i, and p's values above i, which no probe has freed yet. The OR
    of the slots opposing p's literals above each variable is a suffix
    array built once, and the OR for those below i grows as probes
    fail. The complement of that OR holds every slot meeting the
    mirror, refuters included, so one AND with `refute` finds one. A
    probe costs a few bitset operations plus the cubes it meets, or
    just the bitset operations when it meets a refuter.
    """
    n = p.n
    if valid.n != n:
        raise DimensionMismatch("cube width differs from cover")
    if index is None:
        index = CubeIndex(n, valid.cubes)
    elif index.n != n:
        raise DimensionMismatch("cube width differs from index")
    alike, opp = index.alike, index.opp
    live = index.live
    if refute & live or refute >> len(index.cubes):
        raise ContractViolation("expand_cube: refute names a live or missing slot")
    mask = p.mask
    bits = p.bits
    # per literal of p, ascending: its bit, the slots opposing p's value
    # there and the slots opposing the mirror's (binding p's value)
    lits = []
    m = mask
    while m:
        b = m & -m
        v = b.bit_length() - 1
        key = v + n if bits & b else v
        lits.append((b, opp[key], alike[key]))
        m ^= b
    # above[k]: the slots opposing p at one of its literals k, k+1, ...
    above = [0] * (len(lits) + 1)
    for k in range(len(lits) - 1, -1, -1):
        above[k] = above[k + 1] | lits[k][1]
    if not _slots_contain(index, live & ~above[0], mask):
        raise ContractViolation("expand_cube: cube not contained in valid cover")
    if refute & ~above[0]:
        raise ContractViolation("expand_cube: cube meets a refuter")
    below = 0
    for k, (b, opposing, same) in enumerate(lits):
        meets = ~(below | same | above[k + 1])
        slots = live & meets
        if slots and not meets & refute and _slots_contain(index, slots, mask):
            mask &= ~b
            bits &= ~b
        else:
            below |= opposing
    if mask == p.mask:
        return p
    return Cube(n, mask, bits)


def irredundant(
    cover: Cover, must_cover: Cover | None = None, *, dc: Cover | None = None
) -> Cover:
    """Remove cubes whose must_cover points are already covered elsewhere.

    Scans candidates in ascending size (smallest dimension first, ties
    in original order) and removes a cube when the remaining ones still
    cover its overlap with must_cover. Survivors keep their original
    relative order. `must_cover` None means every point of the cover
    must stay covered: a cube goes when the rest cover all of it.

    `dc`, which needs must_cover, is the caller's promise that the cover
    lies inside the union of must_cover and dc, as every build_sop
    expansion does; it is not checked. A candidate c then goes exactly
    when (a) c lies inside the rest plus dc, and (b) c ∩ m lies inside
    the rest for every must cube m meeting a dc cube that meets c:
    - (a) puts each point of c ∩ must_cover outside dc in the rest;
    - a point of c ∩ must_cover inside dc lies in a must cube m and a
      dc cube meeting both c and m, so (b) puts it in the rest;
    - conversely, if the rest hold c ∩ must_cover, (b) holds, and so
      does (a), since each point of c lies in must_cover or in dc.
    So a candidate costs one probe, plus one per such m; must_cover
    None is the rule for a cover that is its own must_cover, with no
    dc: (a) alone. A must_cover with no dc takes the cover itself as
    its dc-set, which keeps the promise: c's own dc copy answers (a)
    with no tautology check, and every must cube meeting c meets that
    copy, so each gets its own probe (b).

    A CubeIndex over the cover, then dc, gives each cover cube, and
    each must_cover cube, the bitset of indexed cubes it shares a point
    with, once. The dc slots are never candidates and stay live. So the
    must_cover cubes meeting a candidate c are those whose bitset holds
    c's slot, and the probe of the overlap of c and such an m asks only
    the remaining cover cubes in both bitsets, the ones meeting it.
    """
    n = cover.n
    if must_cover is not None and must_cover.n != n:
        raise DimensionMismatch("must_cover width differs from cover")
    if dc is not None:
        if dc.n != n:
            raise DimensionMismatch("dc width differs from cover")
        if must_cover is None:
            raise ContractViolation("irredundant: dc needs must_cover")
    k = len(cover.cubes)
    if dc is None and must_cover is not None:
        dc = cover
    dc_cubes = dc.cubes if dc is not None else ()
    # the cover's cubes, then dc's in the slots `spare`
    index = CubeIndex(n, cover.cubes + dc_cubes)
    cubes = index.cubes
    spare = ((1 << len(dc_cubes)) - 1) << k
    live = index.live
    # one probe per candidate, and the must cubes meeting a dc cube
    # need their own
    probes = []
    if spare:
        for m in must_cover.cubes:
            m_meets = index.overlapping(m)
            if m_meets & spare:
                probes.append((m, m_meets))
    order = sorted(range(k), key=lambda i: (cubes[i].dimension, i))
    for idx in order:
        c = cubes[idx]
        slot = 1 << idx
        live &= ~slot
        rest = live & index.overlapping(c)
        if not _slots_contain(index, rest, c.mask):
            live |= slot
            continue
        near = rest & spare
        if not near:
            continue
        rest &= ~spare
        for m, m_meets in probes:
            if m_meets & slot and m_meets & near:
                if not _slots_contain(index, rest & m_meets, m.mask | c.mask):
                    live |= slot
                    break
    return Cover(n, tuple(c for i, c in enumerate(cover.cubes) if live >> i & 1))


def _write_single_output_pla(f: FunctionSpec) -> str:
    lines = [f".i {f.n}", ".o 1", ".type fd"]
    lines.append(f".p {len(f.on.cubes) + len(f.dc.cubes)}")
    lines += [f"{t} 1" for t in f.on.to_strings()]
    lines += [f"{t} -" for t in f.dc.to_strings()]
    lines.append(".e")
    return "\n".join(lines) + "\n"


def _external_sop(f: FunctionSpec, path: str) -> Cover:
    import os
    import tempfile

    from .pla import PlaParseError, parse_pla, split_outputs

    text = _write_single_output_pla(f)
    with _EXTERNAL_LOCK:
        tmp = tempfile.NamedTemporaryFile(
            "w", suffix=".pla", prefix="dsopforge-", delete=False
        )
        try:
            tmp.write(text)
            tmp.close()
            try:
                proc = subprocess.run(
                    [path, tmp.name],
                    capture_output=True,
                    text=True,
                    timeout=300,
                )
            except OSError as exc:
                raise MinimizerBackendError(
                    f"cannot run minimizer {path!r}: {exc}"
                ) from exc
            except subprocess.TimeoutExpired as exc:
                raise MinimizerBackendError(
                    f"minimizer {path!r} timed out after 300s"
                ) from exc
        finally:
            os.unlink(tmp.name)
    if proc.returncode != 0:
        raise MinimizerBackendError(
            f"minimizer {path!r} exited with {proc.returncode}: "
            f"{proc.stderr.strip()[:500]}"
        )
    try:
        pla = parse_pla(proc.stdout)
    except PlaParseError as exc:
        raise MinimizerBackendError(
            f"minimizer {path!r} produced unparseable output: {exc}"
        ) from exc
    if pla.num_inputs != f.n or pla.num_outputs != 1:
        raise MinimizerBackendError(
            f"minimizer {path!r} returned a {pla.num_inputs}-input, "
            f"{pla.num_outputs}-output PLA for a {f.n}-input single-output function"
        )
    sop = normalize(split_outputs(pla)[0].on)
    for cubes, region, fault in (
        (sop.cubes, f.care_cover().cubes, "covers points outside on+dc"),
        (f.on.cubes, sop.cubes, "is an on cube the result does not cover"),
    ):
        index = CubeIndex(f.n, region)
        for c in cubes:
            if not _slots_contain(index, index.overlapping(c), c.mask):
                raise MinimizerBackendError(f"minimizer {path!r}: cube {c} {fault}")
    return sop


def build_sop(
    f: FunctionSpec,
    backend: MinimizerBackend | None = None,
    *,
    off: Iterable[Cube] = (),
    care: Cover | None = None,
) -> Cover:
    """Re-minimize a function into an SOP cover via the chosen backend.

    `off` may list cubes known to lie outside on+dc, such as those a
    selection loop committed in earlier passes; the builtin backend
    uses them to refute expand probes early, and the other backends
    ignore them. Without `care` the result does not depend on `off`:
    only its cubes sharing no point with on+dc are used, which
    build_sop checks itself, so a cube that meets on+dc costs one query
    and nothing else.

    `care`, when given, must be a cover whose union minus the union of
    `off` is exactly on+dc; this is the caller's promise, not checked.
    The builtin backend then expands against care's cubes and refutes
    with every `off` cube, a test equal to "inside on+dc" (see the
    module docstring), so the result is the one build_sop(f, backend,
    off=off) gives. The other backends ignore it. Irredundant trims
    the expansion against the on-set with f.dc as its dc-set, which
    keeps what probing every on cube keeps (see irredundant), at one
    probe per candidate where no on cube meets a dc cube.
    """
    backend = backend or MinimizerBackend.builtin()
    if backend.kind == "external":
        return _external_sop(f, backend.path)  # type: ignore[arg-type]
    on = normalize(f.on)
    if backend.kind == "identity":
        return on
    n = f.n
    valid = f.care_cover() if care is None else care
    # valid's cubes, live, then the off cubes in slots past them
    index = CubeIndex(n, valid.cubes + tuple(off))
    index.live = live = (1 << len(valid.cubes)) - 1
    if care is None:
        refute = 0
        for s in range(len(valid.cubes), len(index.cubes)):
            if not index.overlapping(index.cubes[s]):
                refute |= 1 << s
    else:
        refute = ((1 << len(index.cubes)) - 1) & ~live
    expanded = Cover(n, tuple(expand_cube(c, valid, index, refute) for c in on.cubes))
    return irredundant(normalize(expanded), on, dc=f.dc)
