"""Characterization: the covers of dsop and partial_dsop, pinned by digest.

A seeded population of random fd functions and random partial specs is
solved under every variant x sort x drop_dc_only configuration, on the
builtin and the identity backends, and the result cubes are hashed in
output order. Any change to either selection loop that moves a single
cube, or reorders the output, changes the digest. Regenerate
EXPECTED only for a change that is meant to move covers, and record
the evidence for it.
"""

import hashlib
import random

from conftest import rand_partial_spec, rand_spec
from dsopforge import (
    SORT_POLICIES,
    DsopConfig,
    MinimizerBackend,
    dsop,
    partial_dsop,
)

SEED = 20260418
CASES = 150

EXPECTED = "30a36935ed7edc18f501284303262c6d8c40cf82153c52ddd0e9e198cb76fb24"


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
