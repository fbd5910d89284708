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
"""

from __future__ import annotations

import subprocess
import threading
from dataclasses import dataclass

from .covers import Cover, FunctionSpec, _pairs_contain, normalize
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


def expand_cube(p: Cube, valid: Cover) -> Cube:
    """Greedily free literals of p, in ascending variable order, keeping
    each removal only while the enlarged cube stays inside `valid`.

    Requires p itself to be inside `valid`. The result contains p and is
    an implicant of `valid`, though not necessarily prime under every
    removal order.

    Freeing variable i of the current cube c gives c plus its mirror
    across i (c with literal i complemented). c is already inside
    `valid`, so the raised cube is inside `valid` exactly when the
    mirror is; each probe tests only that half, which binds one more
    literal than the raised cube and so has a smaller cofactor.
    """
    n = p.n
    if valid.n != n:
        raise DimensionMismatch("cube width differs from cover")
    mask = p.mask
    bits = p.bits
    # Bucket the cubes of `valid` by the highest variable at which they
    # clash with p (bucket 0: no clash). Variables above i are still
    # bound to p's values when i is probed, so a cube clashing there
    # misses the probe; the probe at i scans only buckets 0..i+1.
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for c in valid.cubes:
        buckets[((c.mask & mask) & (c.bits ^ bits)).bit_length()].append(
            (c.mask, c.bits)
        )
    items = buckets[0]
    if not _pairs_contain(n, items, mask, bits):
        raise ContractViolation("expand_cube: cube not contained in valid cover")
    top = 0
    todo = mask
    while todo:
        b = todo & -todo
        todo ^= b
        reach = b.bit_length()
        while top < reach:
            top += 1
            items += buckets[top]
        if _pairs_contain(n, items, mask, bits ^ b):
            mask &= ~b
            bits &= ~b
    return Cube(n, mask, bits)


def irredundant(cover: Cover, must_cover: Cover) -> Cover:
    """Remove cubes whose must_cover points are already covered elsewhere.

    Scans candidates in ascending size (smallest dimension first, ties
    in original order) and removes a cube when the remaining ones still
    cover its overlap with must_cover. Survivors keep their original
    relative order.
    """
    n = cover.n
    if must_cover.n != n:
        raise DimensionMismatch("must_cover width differs from cover")
    cubes = list(cover.cubes)
    alive = [True] * len(cubes)
    order = sorted(range(len(cubes)), key=lambda i: (cubes[i].dimension, i))
    for idx in order:
        c = cubes[idx]
        alive[idx] = False
        rest = [(d.mask, d.bits) for j, d in enumerate(cubes) if alive[j]]
        for m in must_cover.cubes:
            if (m.mask & c.mask) & (m.bits ^ c.bits):
                continue
            if not _pairs_contain(n, rest, m.mask | c.mask, m.bits | c.bits):
                alive[idx] = True
                break
    return Cover(n, tuple(c for i, c in enumerate(cubes) if alive[i]))


def _write_single_output_pla(f: FunctionSpec) -> str:
    lines = [f".i {f.n}", ".o 1", ".type fd"]
    lines.append(f".p {len(f.on.cubes) + len(f.dc.cubes)}")
    for c in f.on.cubes:
        lines.append(f"{c.to_string()} 1")
    for c in f.dc.cubes:
        lines.append(f"{c.to_string()} -")
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
        items = [(c.mask, c.bits) for c in region]
        for c in cubes:
            if not _pairs_contain(f.n, items, c.mask, c.bits):
                raise MinimizerBackendError(f"minimizer {path!r}: cube {c} {fault}")
    return sop


def build_sop(f: FunctionSpec, backend: MinimizerBackend | None = None) -> Cover:
    """Re-minimize a function into an SOP cover via the chosen backend."""
    backend = backend or MinimizerBackend.builtin()
    if backend.kind == "external":
        return _external_sop(f, backend.path)  # type: ignore[arg-type]
    on = normalize(f.on)
    if backend.kind == "identity":
        return on
    valid = f.care_cover()
    expanded = Cover(f.n, tuple(expand_cube(c, valid) for c in on.cubes))
    return irredundant(normalize(expanded), on)
