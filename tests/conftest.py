"""Shared strategies, fixture paths, and random spec generators."""

from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from dsopforge import (
    SORT_DIMENSION_WEIGHT,
    SORT_WEIGHT_DIMENSION,
    Cover,
    Cube,
    DsopConfig,
    FunctionSpec,
    PartialSpec,
    cover_intersects_cube,
)
from dsopforge.partial import _subtract_all
from dsopforge.verify import _MAX_REPORTED

FIXTURES = Path(__file__).parent / "fixtures"

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")

ALL_CONFIGS = [
    DsopConfig(variant=v, sort=s)
    for v in (1, 2, 3, 4, 5)
    for s in (SORT_DIMENSION_WEIGHT, SORT_WEIGHT_DIMENSION)
]


def trit_strings(n: int):
    return st.text(alphabet="-01", min_size=n, max_size=n)


@st.composite
def cubes_st(draw, n=None, max_n=8):
    if n is None:
        n = draw(st.integers(1, max_n))
    return Cube.from_string(draw(trit_strings(n)))


@st.composite
def cube_pairs_st(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    return draw(cubes_st(n=n)), draw(cubes_st(n=n))


@st.composite
def covers_st(draw, n=None, max_n=8, min_cubes=0, max_cubes=6):
    if n is None:
        n = draw(st.integers(1, max_n))
    k = draw(st.integers(min_cubes, max_cubes))
    return Cover(n, tuple(draw(cubes_st(n=n)) for _ in range(k)))


@st.composite
def crowded_covers_st(draw, min_n=1, max_n=8, min_cubes=0, max_cubes=150):
    """Covers rich in duplicates and nested cubes: each cube after the
    first is a fresh one or a drawn earlier cube with some of its free
    positions bound (itself when none are). Past 64 cubes, the bitsets
    of a CubeIndex over the cover span more than one machine word."""
    n = draw(st.integers(min_n, max_n))
    top = (1 << n) - 1
    cubes = []
    for _ in range(draw(st.integers(min_cubes, max_cubes))):
        if cubes and draw(st.booleans()):
            b = cubes[draw(st.integers(0, len(cubes) - 1))]
            extra = draw(st.integers(0, top)) & ~b.mask
            bits = draw(st.integers(0, top)) & extra
            cubes.append(Cube(n, b.mask | extra, b.bits | bits))
        else:
            cubes.append(draw(cubes_st(n=n)))
    return Cover(n, tuple(cubes))


@st.composite
def function_specs_st(draw, n=None, max_n=8, max_on=6, max_dc=3):
    if n is None:
        n = draw(st.integers(1, max_n))
    on = draw(covers_st(n=n, min_cubes=1, max_cubes=max_on))
    dc = draw(covers_st(n=n, max_cubes=max_dc))
    return FunctionSpec(n, on, dc)


@st.composite
def partial_specs_st(draw, max_n=8):
    # Shared cubes are filtered against the unique care region, which
    # keeps the two parts point-disjoint by construction.
    n = draw(st.integers(1, max_n))
    unique = draw(function_specs_st(n=n, max_on=4, max_dc=2))
    care = Cover(n, unique.on.cubes + unique.dc.cubes)
    s_on = tuple(
        c
        for c in draw(covers_st(n=n, max_cubes=3)).cubes
        if not cover_intersects_cube(care, c)
    )
    s_dc = tuple(
        c
        for c in draw(covers_st(n=n, max_cubes=2)).cubes
        if not cover_intersects_cube(care, c)
    )
    return PartialSpec(
        unique=unique,
        shared=FunctionSpec(n, Cover(n, s_on), Cover(n, s_dc)),
    )


def rand_cover(rng, n, k, bind=None):
    """k random cubes; bind is the chance each position is a literal."""
    if bind is None:
        bind = rng.uniform(0.2, 0.8)
    cubes = []
    for _ in range(k):
        mask = bits = 0
        for i in range(n):
            if rng.random() < bind:
                mask |= 1 << i
                if rng.random() < 0.5:
                    bits |= 1 << i
        cubes.append(Cube(n, mask, bits))
    return Cover(n, tuple(cubes))


def quartered_spec(rng, n, k):
    """k random cubes binding n - 4 variables each, every one cut into
    quarters on two of its free variables: three on cubes and one dc
    cube. The builtin backend grows each quarter back into its whole
    cube, so each cube of the DSOP spans four spec cubes; at n = 20 the
    k cubes rarely meet one another."""
    on, dc = [], []
    for _ in range(k):
        a, b, *bound = rng.sample(range(n), n - 4)
        mask = sum(1 << i for i in bound)
        bits = mask & rng.getrandbits(n)
        ab = 1 << a | 1 << b
        for v in (0, 1 << a, 1 << b):
            on.append(Cube(n, mask | ab, bits | v))
        dc.append(Cube(n, mask | ab, bits | ab))
    return FunctionSpec(n, Cover(n, tuple(on)), Cover(n, tuple(dc)))


def rand_spec(rng, n, max_on=6, max_dc=3):
    on = rand_cover(rng, n, rng.randint(1, max_on))
    dc = rand_cover(rng, n, rng.randint(0, max_dc))
    return FunctionSpec(n, on, dc)


def rand_partial_spec(rng, n):
    unique = rand_spec(rng, n, max_on=4, max_dc=2)
    care = Cover(n, unique.on.cubes + unique.dc.cubes)
    s_on = tuple(
        c
        for c in rand_cover(rng, n, rng.randint(0, 3)).cubes
        if not cover_intersects_cube(care, c)
    )
    s_dc = tuple(
        c
        for c in rand_cover(rng, n, rng.randint(0, 2)).cubes
        if not cover_intersects_cube(care, c)
    )
    return PartialSpec(
        unique=unique,
        shared=FunctionSpec(n, Cover(n, s_on), Cover(n, s_dc)),
    )


def rand_dc_shared_spec(rng, n, unique_dc):
    """A partial spec whose shared region is a dc-set alone, as the
    CLI's one-file pdsop form builds: random unique on cubes, unique dc
    cubes when `unique_dc`, and shared dc cubes missing both. Redrawn
    until some shared cube is left."""
    while True:
        on = rand_cover(rng, n, rng.randint(1, 8))
        dc = rand_cover(rng, n, rng.randint(1, 3)) if unique_dc else Cover(n)
        care = Cover(n, on.cubes + dc.cubes)
        s_dc = tuple(
            c
            for c in rand_cover(rng, n, rng.randint(1, 3)).cubes
            if not cover_intersects_cube(care, c)
        )
        if s_dc:
            return PartialSpec(
                unique=FunctionSpec(n, on, dc),
                shared=FunctionSpec(n, Cover(n), Cover(n, s_dc)),
            )


# Pairwise references for the index-based weight_all and normalize.


def pairwise_weight(cubes, i):
    """Weight of cubes[i] against every other entry of `cubes`, one pair
    at a time: the sum of literal_count - common - 1 over the entries
    that overlap it, or -1 when none does."""
    p = cubes[i]
    k = p.literal_count
    total = 0
    hit = False
    for j, d in enumerate(cubes):
        # overlapping cubes agree wherever both are bound, so the
        # common literals are the shared bound positions
        common = p.mask & d.mask
        if j == i or common & (p.bits ^ d.bits):
            continue
        hit = True
        total += k - common.bit_count() - 1
    return total if hit else -1


def pairwise_normalize(cover):
    """normalize, one pair at a time: a cube goes when another contains
    it, except that of equal cubes the earliest stays."""
    pairs = [(c.mask, c.bits) for c in cover.cubes]
    kept = []
    for i, (cm, cb) in enumerate(pairs):
        absorbed = False
        for j, (dm, db) in enumerate(pairs):
            # skip d unless it contains c: every literal of d is in c
            if i == j or dm & ~cm or (db ^ cb) & dm:
                continue
            if dm == cm and j > i:
                continue
            absorbed = True
            break
        if not absorbed:
            kept.append(cover.cubes[i])
    return Cover(cover.n, tuple(kept))


# Per-commit reference for the selection loop's end-of-pass split.


def rescan_subtract(cubes, cuts, split):
    """partial._split_late the way the loop once ran it: after each
    commit (p, end, found), the first `end` entries of `cubes` have been
    appended, and the whole list so far is rescanned by p, its splits'
    slices going to `found`."""
    out = []
    born = 0
    for p, end, found in cuts:
        out.extend(cubes[born:end])
        born = end
        out = _subtract_all(out, p, split, found)
    return out + cubes[born:]


def shannon_contains(cubes, p):
    """True iff cube p lies inside the union of `cubes`: a containment
    reference independent of covers._slots_contain, with no unate rule
    and no counting. A subcube of p is covered when a cube contains it
    and uncovered when no cube meets it; otherwise it splits on the
    lowest variable free in it that a cube meeting it binds."""
    stack = [(p.mask, p.bits)]
    while stack:
        m, b = stack.pop()
        near = [c for c in cubes if not (c.mask & m) & (c.bits ^ b)]
        if not near:
            return False
        bound = [c.mask & ~m for c in near]
        if not all(bound):
            continue
        free = 0
        for x in bound:
            free |= x
        v = free & -free
        stack += [(m | v, b | v), (m | v, b)]
    return True


# Pairwise reference for the index-based verify_partial_dsop: each on
# cube checked by a tautology over the whole result, and every pair of
# result cubes near each region cube tested one by one. The searched
# cubes are plain (mask, bits) pairs, and every containment question
# goes to shannon_contains, not to the routine verify itself asks.


def pairs_of(cover):
    return [(c.mask, c.bits) for c in cover.cubes]


def holds(n, outs, mask, bits):
    """True iff the cube (mask, bits) lies inside the union of the
    cubes `outs`."""
    return shannon_contains(outs, Cube(n, mask, bits))


def two_mode_witnesses(n, cubes, inside, outside, found):
    """Add to `found`, until it holds _MAX_REPORTED minterms, each
    minterm of `cubes` that lies in the union of `inside` (anywhere in
    the cubes when inside is None) and outside the union of `outside`.

    Splits a cube one free variable at a time, highest index first, and
    drops each half that holds no such minterm. Overlap witnesses come
    from the meet of two result cubes searched inside the region cube,
    not from a meet of all three, so this search stays independent of
    verify's."""
    full = (1 << n) - 1
    outside = [Cube(n, m, b) for m, b in outside]
    stack = [(m, b, inside, outside) for m, b in reversed(cubes)]
    while stack and len(found) < _MAX_REPORTED:
        m, b, ins, outs = stack.pop()
        if ins is None:
            if holds(n, outs, m, b):
                continue
        else:
            # the parts of `inside` within this subcube
            ins = [(im | m, ib | b) for im, ib in ins if not (im & m) & (ib ^ b)]
            if all(holds(n, outs, im, ib) for im, ib in ins):
                continue
        free = full & ~m
        if not free:
            found.add(b)
            continue
        outs = [o for o in outs if not (o.mask & m) & (o.bits ^ b)]
        v = 1 << (free.bit_length() - 1)
        stack.append((m | v, b | v, ins, outs))
        stack.append((m | v, b, ins, outs))


def pairwise_overlaps(items, region):
    """Yield (i, j, r) for each pair i < j of (mask, bits) `items` that
    share a point and both touch region cube r, r and then i, j
    ascending."""
    for r, (rm, rb) in enumerate(region):
        near = [
            (i, m, b) for i, (m, b) in enumerate(items) if not (m & rm) & (b ^ rb)
        ]
        for a, (i, im, ib) in enumerate(near):
            for j, jm, jb in near[a + 1 :]:
                if not (im & jm) & (ib ^ jb):
                    yield i, j, r


def scan_report(violations, found, constraint, items, n):
    """Append each minterm of `found`, ascending and up to the cap, with
    its coverage counted by a scan of every result cube in `items`."""
    for m in sorted(found)[: _MAX_REPORTED - len(violations)]:
        observed = sum(1 for cm, cb in items if m & cm == cb)
        point = "".join("1" if m >> i & 1 else "0" for i in range(n))
        violations.append((point, constraint, observed))


def pairwise_verify_partial(spec, result):
    """verify_partial_dsop's violations, found the pairwise way."""
    n = spec.n
    res = pairs_of(result)
    on_u = pairs_of(spec.unique.on)
    dc_u = pairs_of(spec.unique.dc)
    on_s = pairs_of(spec.shared.on)
    every = on_u + dc_u + on_s + pairs_of(spec.shared.dc)
    uncovered = set()
    two_mode_witnesses(n, on_u, None, res, uncovered)
    unique = on_u + dc_u
    multi_on = set()
    multi_dc = set()
    for i, j, r in pairwise_overlaps(res, unique):
        x = [(res[i][0] | res[j][0], res[i][1] | res[j][1])]
        if r < len(on_u):
            two_mode_witnesses(n, x, [unique[r]], [], multi_on)
        else:
            two_mode_witnesses(n, x, [unique[r]], on_u, multi_dc)
        if len(multi_on) >= _MAX_REPORTED:
            break
    short = set()
    two_mode_witnesses(n, on_s, None, res + unique, short)
    off = set()
    two_mode_witnesses(n, res, None, every, off)
    violations = []
    scan_report(violations, uncovered, "==1", res, n)
    scan_report(violations, multi_on, "==1", res, n)
    scan_report(violations, multi_dc, "<=1", res, n)
    scan_report(violations, short, ">=1", res, n)
    scan_report(violations, off, "==0", res, n)
    return violations
