"""Characterization: the covers of dsop and partial_dsop, pinned by digest.

A seeded population of random fd functions and random partial specs is
solved under every variant x sort x drop_dc_only configuration, on the
builtin and the identity backends, and the result cubes are hashed in
output order. Any change to the selection loop that moves a single
cube, or reorders the output, changes the digest. Regenerate
EXPECTED only for a change that is meant to move covers, and record
the evidence for it.

That population is small (at most 6 on-cubes, n <= 8), so the pool of
cubes a pass selects from rarely passes one 64-bit word of an index
bitset. WIDE_EXPECTED pins a second one of identity-backend functions
and partial specs at n = 11-14 with 30-60 on-cubes, under the 10
variant x sort configurations.

SOP_INPUTS_EXPECTED pins every (on, dc) pair the selection loop hands
build_sop, in order, over EXPECTED's population and over partial specs
with 20 unique and many shared cubes, where one pass's splits report
shared slices both in the neighbour loop and while B is split. The dc
cubes' order reaches only the external backend's PLA text, so no cover
digest guards it. B_HEAVY_EXPECTED pins one n=18 cover whose passes leave
thousands of fragments in B, the loop's list of cubes waiting for the
next pass.
"""

import hashlib
import random

import dsopforge.partial

from conftest import rand_cover, rand_partial_spec, rand_spec
from dsopforge import (
    SORT_DIMENSION_WEIGHT,
    SORT_POLICIES,
    Cover,
    DsopConfig,
    FunctionSpec,
    MinimizerBackend,
    PartialSpec,
    cover_intersects_cube,
    dsop,
    partial_dsop,
)

SEED = 20260418
CASES = 150

EXPECTED = "30a36935ed7edc18f501284303262c6d8c40cf82153c52ddd0e9e198cb76fb24"

WIDE_SEED = 20261021
WIDE_CASES = 4
WIDE_EXPECTED = "318becfcdec4c82adb8f4073518b861f8ce2ce924b388538d69b8325b00fc586"

SLICES_SEED = 20261019
SLICES_CASES = 20
SOP_INPUTS_EXPECTED = "fdba0eb583b5ba35e3de722a30086f61c50542b3ed095e8fee230021b4d5b64c"

B_HEAVY_CUBES = 7185
B_HEAVY_EXPECTED = "5834fc6c31c7daa3b3da95b01882f2cf5a8ac90e03af47cbdc49e3823889df5a"


def _configs():
    for backend in (MinimizerBackend.builtin(), MinimizerBackend.identity()):
        for variant in (1, 2, 3, 4, 5):
            for sort in SORT_POLICIES:
                for drop in (False, True):
                    yield DsopConfig(
                        variant=variant, sort=sort, drop_dc_only=drop, backend=backend
                    )


def _digest() -> str:
    rng = random.Random(SEED)
    functions = [rand_spec(rng, rng.randint(2, 8)) for _ in range(CASES)]
    partials = [rand_partial_spec(rng, rng.randint(2, 8)) for _ in range(CASES)]
    h = hashlib.sha256()
    for cfg in _configs():
        for f in functions:
            h.update(("d|" + ",".join(dsop(f, cfg).to_strings()) + "\n").encode())
        for spec in partials:
            out = partial_dsop(spec, cfg)
            h.update(("p|" + ",".join(out.to_strings()) + "\n").encode())
    return h.hexdigest()


def test_covers_match_the_pinned_digest():
    assert _digest() == EXPECTED


def _wide_function(rng: random.Random) -> FunctionSpec:
    n = rng.randint(11, 14)
    on = rand_cover(rng, n, rng.randint(30, 60), bind=0.5)
    return FunctionSpec(n, on, rand_cover(rng, n, rng.randint(0, 4), bind=0.7))


def _wide_partial(rng: random.Random) -> PartialSpec:
    # small shared cubes, kept where they miss every unique cube
    n = rng.randint(11, 14)
    on = rand_cover(rng, n, rng.randint(30, 60), bind=0.5)
    shared = tuple(
        c
        for c in rand_cover(rng, n, 24, bind=0.75).cubes
        if not cover_intersects_cube(on, c)
    )
    return PartialSpec(
        unique=FunctionSpec(n, on), shared=FunctionSpec(n, Cover(n, shared))
    )


def _wide_digest() -> str:
    rng = random.Random(WIDE_SEED)
    functions, partials = [], []
    for _ in range(WIDE_CASES):
        functions.append(_wide_function(rng))
        partials.append(_wide_partial(rng))
    h = hashlib.sha256()
    for variant in (1, 2, 3, 4, 5):
        for sort in SORT_POLICIES:
            cfg = DsopConfig(
                variant=variant, sort=sort, backend=MinimizerBackend.identity()
            )
            for f in functions:
                h.update(("d|" + ",".join(dsop(f, cfg).to_strings()) + "\n").encode())
            for spec in partials:
                out = partial_dsop(spec, cfg)
                h.update(("p|" + ",".join(out.to_strings()) + "\n").encode())
    return h.hexdigest()


def test_wide_covers_match_the_pinned_digest():
    assert _wide_digest() == WIDE_EXPECTED


def _sliced_partial(rng: random.Random) -> PartialSpec:
    n = rng.randint(6, 9)
    on = rand_cover(rng, n, 20, bind=0.85)
    shared = tuple(
        c
        for c in rand_cover(rng, n, 20, bind=0.7).cubes
        if not cover_intersects_cube(on, c)
    )
    return PartialSpec(
        unique=FunctionSpec(n, on), shared=FunctionSpec(n, Cover(n, shared))
    )


def test_sop_inputs_match_the_pinned_digest(monkeypatch):
    h = hashlib.sha256()
    build_sop = dsopforge.partial.build_sop

    def recorder(f, backend, **kwargs):
        on, dc = ",".join(f.on.to_strings()), ",".join(f.dc.to_strings())
        h.update((on + "|" + dc + "\n").encode())
        return build_sop(f, backend, **kwargs)

    monkeypatch.setattr(dsopforge.partial, "build_sop", recorder)
    _digest()
    rng = random.Random(SLICES_SEED)
    sliced = [_sliced_partial(rng) for _ in range(SLICES_CASES)]
    for cfg in _configs():
        for spec in sliced:
            partial_dsop(spec, cfg)
    assert h.hexdigest() == SOP_INPUTS_EXPECTED


def test_b_heavy_cover_matches_the_pinned_digest():
    f = FunctionSpec(18, rand_cover(random.Random(7), 18, 150))
    cfg = DsopConfig(
        variant=3, sort=SORT_DIMENSION_WEIGHT, backend=MinimizerBackend.identity()
    )
    out = dsop(f, cfg)
    assert len(out) == B_HEAVY_CUBES
    digest = hashlib.sha256(",".join(out.to_strings()).encode()).hexdigest()
    assert digest == B_HEAVY_EXPECTED
