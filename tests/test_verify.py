import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    covers_st,
    cubes_st,
    function_specs_st,
    pairwise_verify_partial,
    partial_specs_st,
    quartered_spec,
    rand_cover,
    rand_spec,
)
from dsopforge import (
    Cover,
    Cube,
    DimensionMismatch,
    DsopConfig,
    EnumerationCapExceeded,
    FunctionSpec,
    MinimizerBackend,
    PartialSpec,
    chain_family,
    contains,
    cover_point_mask,
    disjoint_sharp,
    dsop,
    exact_min_dsop,
    exact_min_partial_dsop,
    intersect,
    partial_dsop,
    verify_dsop,
    verify_partial_dsop,
)
from dsopforge import exact
from dsopforge import verify as verify_mod
from dsopforge.covers import CubeIndex
from dsopforge.exact import point_mask
from dsopforge.verify import _MAX_REPORTED


def c(s):
    return Cube.from_string(s)


def cov(*strings, n=None):
    return Cover.from_strings(strings, n=n)


# widths beyond any point enumeration: 2**26 and 2**40 minterms
WIDE = (26, 40)
# ON_POINT has x0 = 1, so it lies in the on cube "1-..."; OFF_POINT has
# x0 = x1 = x2 = 0, so it is off in both wide specs below
ON_POINT = 0x5A5A5A5
OFF_POINT = 0x3C3C3C38


def minterm(n, bits):
    return Cube(n, (1 << n) - 1, bits & ((1 << n) - 1))


@pytest.fixture
def no_point_masks(monkeypatch):
    """Fail the test if any point mask gets built."""

    def refuse(cube):
        raise AssertionError("point mask built")

    monkeypatch.setattr(exact, "point_mask", refuse)


def wide_dsop_case(n):
    """x0 + !x0 x1 with dc !x0 !x1 x2, and its two-cube DSOP."""
    f = FunctionSpec(
        n,
        cov("1" + "-" * (n - 1), "01" + "-" * (n - 2)),
        cov("001" + "-" * (n - 3)),
    )
    return f, f.on


class TestVerifyDsop:
    def test_accepts_correct_cover(self):
        f = FunctionSpec(2, cov("0-"))
        assert verify_dsop(f, cov("00", "01")).ok

    def test_flags_uncovered_on_point(self):
        f = FunctionSpec(2, cov("0-"))
        report = verify_dsop(f, cov("00"))
        assert not report.ok
        assert ("01", "==1", 0) in report.violations

    def test_flags_double_cover_and_overlap(self):
        f = FunctionSpec(2, cov("0-"))
        report = verify_dsop(f, cov("0-", "00"))
        assert not report.ok
        assert ("00", "==1", 2) in report.violations

    def test_overlap_counts_every_covering_cube(self):
        f = FunctionSpec(3, cov("0--"), cov("1--"))
        report = verify_dsop(f, cov("---", "0--", "00-"))
        assert report.violations == [
            ("000", "==1", 3),
            ("010", "==1", 2),
            ("001", "==1", 3),
            ("011", "==1", 2),
        ]

    def test_flags_overlap_inside_dont_cares(self):
        f = FunctionSpec(2, cov("00"), cov("01"))
        report = verify_dsop(f, cov("0-", "01"))
        assert not report.ok
        assert report.violations == [("01", "<=1", 2)]

    def test_flags_covered_off_point(self):
        f = FunctionSpec(2, cov("00"))
        report = verify_dsop(f, cov("0-"))
        assert not report.ok
        assert ("01", "==0", 1) in report.violations

    def test_dont_care_point_is_free(self):
        f = FunctionSpec(2, cov("00"), cov("01"))
        assert verify_dsop(f, cov("0-")).ok

    def test_width_mismatch_raises(self):
        f = FunctionSpec(2, cov("00"))
        with pytest.raises(DimensionMismatch):
            verify_dsop(f, cov("000"))
        spec = PartialSpec(unique=f, shared=FunctionSpec(2, Cover(2)))
        with pytest.raises(DimensionMismatch):
            verify_partial_dsop(spec, cov("000"))

    @pytest.mark.usefixtures("no_point_masks")
    def test_exact_at_wide_n_accepts_correct_cover(self):
        for n in WIDE:
            f, good = wide_dsop_case(n)
            report = verify_dsop(f, good)
            assert report.ok and report.violations == []

    @pytest.mark.usefixtures("no_point_masks")
    def test_exact_at_wide_n_catches_missing_on_minterm(self):
        for n in WIDE:
            f, good = wide_dsop_case(n)
            w = minterm(n, ON_POINT)
            pieces = disjoint_sharp(good.cubes[0], w)
            report = verify_dsop(f, Cover(n, tuple(pieces) + good.cubes[1:]))
            assert report.violations == [(w.to_string(), "==1", 0)]

    @pytest.mark.usefixtures("no_point_masks")
    def test_exact_at_wide_n_catches_off_coverage(self):
        for n in WIDE:
            f, good = wide_dsop_case(n)
            u = minterm(n, OFF_POINT)
            report = verify_dsop(f, Cover(n, good.cubes + (u,)))
            assert report.violations == [(u.to_string(), "==0", 1)]


class TestVerifyPartial:
    SPEC = PartialSpec(
        unique=FunctionSpec(2, cov("00"), cov("01")),
        shared=FunctionSpec(2, cov("1-")),
    )

    def test_accepts_correct_cover(self):
        assert verify_partial_dsop(self.SPEC, cov("00", "1-")).ok

    def test_shared_points_may_repeat(self):
        assert verify_partial_dsop(self.SPEC, cov("00", "1-", "10")).ok

    def test_unique_dc_single_use_is_fine(self):
        assert verify_partial_dsop(self.SPEC, cov("0-", "1-")).ok

    def test_unique_on_must_be_covered(self):
        report = verify_partial_dsop(self.SPEC, cov("1-"))
        assert ("00", "==1", 0) in report.violations

    def test_unique_on_cannot_repeat(self):
        report = verify_partial_dsop(self.SPEC, cov("00", "0-", "1-"))
        assert ("00", "==1", 2) in report.violations

    def test_unique_dc_cannot_repeat(self):
        report = verify_partial_dsop(self.SPEC, cov("0-", "01", "1-"))
        assert ("01", "<=1", 2) in report.violations

    def test_shared_on_must_be_covered(self):
        report = verify_partial_dsop(self.SPEC, cov("00"))
        assert ("10", ">=1", 0) in report.violations
        assert ("11", ">=1", 0) in report.violations

    def test_off_points_stay_off(self):
        spec = PartialSpec(
            unique=FunctionSpec(2, cov("00")),
            shared=FunctionSpec(2, cov("11")),
        )
        report = verify_partial_dsop(spec, cov("0-", "11"))
        assert ("01", "==0", 1) in report.violations

    @pytest.mark.usefixtures("no_point_masks")
    def test_exact_at_wide_n(self):
        for n in WIDE:
            spec = PartialSpec(
                unique=FunctionSpec(
                    n, cov("1" + "-" * (n - 1)), cov("01" + "-" * (n - 2))
                ),
                shared=FunctionSpec(n, cov("001" + "-" * (n - 3))),
            )
            # the second cube repeats shared points and uses unique dc once
            good = cov("1" + "-" * (n - 1), "0-1" + "-" * (n - 3))
            assert verify_partial_dsop(spec, good).ok
            w = minterm(n, ON_POINT)
            pieces = disjoint_sharp(good.cubes[0], w)
            report = verify_partial_dsop(
                spec, Cover(n, tuple(pieces) + good.cubes[1:])
            )
            assert report.violations == [(w.to_string(), "==1", 0)]
            u = minterm(n, OFF_POINT)
            report = verify_partial_dsop(spec, Cover(n, good.cubes + (u,)))
            assert report.violations == [(u.to_string(), "==0", 1)]


class TestExactMinDsop:
    def test_single_minterm(self):
        f = FunctionSpec(2, cov("01"))
        assert exact_min_dsop(f).to_strings() == ["01"]

    def test_xor_needs_two(self):
        f = FunctionSpec(2, cov("01", "10"))
        assert len(exact_min_dsop(f)) == 2

    def test_full_space_needs_one(self):
        f = FunctionSpec(2, cov("00", "01", "10", "11"))
        assert exact_min_dsop(f).to_strings() == ["--"]

    def test_dont_cares_help(self):
        f = FunctionSpec(2, cov("00", "11"), cov("01"))
        # 0- and 11 is a size-2 partition only thanks to the dc at 01
        assert len(exact_min_dsop(f)) == 2

    def test_chain_values(self):
        assert len(exact_min_dsop(chain_family(2))) == 3
        assert len(exact_min_dsop(chain_family(3), max_n=6)) == 7

    def test_width_cap(self):
        f = FunctionSpec(6, cov("0" * 6))
        with pytest.raises(EnumerationCapExceeded):
            exact_min_dsop(f)

    def test_empty_function(self):
        assert len(exact_min_dsop(FunctionSpec(3, Cover(3)))) == 0

    def test_zero_variables(self):
        f = FunctionSpec(0, Cover(0, (Cube(0, 0, 0),)))
        assert exact_min_dsop(f).cubes == (Cube(0, 0, 0),) == dsop(f).cubes

    @given(function_specs_st(max_n=4))
    @settings(max_examples=60)
    def test_result_is_a_disjoint_cover_no_larger_than_heuristic(self, f):
        exact = exact_min_dsop(f)
        assert verify_dsop(f, exact).ok
        assert len(exact) <= len(dsop(f))


def nothing_unique(shared):
    n = shared.n
    return PartialSpec(unique=FunctionSpec(n, Cover(n)), shared=shared)


class TestExactMinPartialDsop:
    @pytest.mark.parametrize("m", [2, 3])
    def test_chain_as_shared_needs_m_cubes(self, m):
        spec = nothing_unique(chain_family(m))
        out = exact_min_partial_dsop(spec, max_n=2 * m)
        assert out.to_strings() == chain_family(m).on.to_strings()
        assert verify_partial_dsop(spec, out).ok

    def test_unique_points_stay_single(self):
        # chain_family(2) with its one overlap point 1111 unique: 11--
        # and --11 may not both cover it, so the minimum is the full
        # chain's 3 instead of 2
        spec = PartialSpec(
            unique=FunctionSpec(4, cov("1111")),
            shared=FunctionSpec(4, cov("110-", "1110", "0-11", "1011")),
        )
        out = exact_min_partial_dsop(spec)
        assert len(out) == 3
        assert verify_partial_dsop(spec, out).ok

    def test_overlapping_parts_raise(self):
        spec = PartialSpec(
            unique=FunctionSpec(2, cov("1-")),
            shared=FunctionSpec(2, cov("11")),
        )
        with pytest.raises(ValueError, match="point-disjoint"):
            exact_min_partial_dsop(spec)

    def test_width_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            exact_min_partial_dsop(nothing_unique(chain_family(3)))


class TestChainFamily:
    def test_smallest_chain(self):
        assert chain_family(1).on.to_strings() == ["11"]

    def test_two_link_chain(self):
        assert chain_family(2).on.to_strings() == ["11--", "--11"]

    def test_width_grows_with_links(self):
        assert chain_family(4).n == 8

    def test_rejects_zero_links(self):
        with pytest.raises(ValueError):
            chain_family(0)


# --- independent point-mask oracle (small n only) --------------------------


def _minterm(index, n):
    return "".join("1" if index >> i & 1 else "0" for i in range(n))


def _mask_report(result, checks):
    """Violations by enumeration: `checks` lists (bad-minterm mask,
    constraint), each reported lowest minterm first."""
    out = []
    for bad, constraint in checks:
        while bad and len(out) < _MAX_REPORTED:
            low = bad & -bad
            bad ^= low
            m = low.bit_length() - 1
            seen = sum(1 for q in result.cubes if m & q.mask == q.bits)
            out.append((_minterm(m, result.n), constraint, seen))
    return out


def _coverage(result):
    covered = multi = 0
    for q in result.cubes:
        pm = point_mask(q)
        multi |= covered & pm
        covered |= pm
    return covered, multi


def mask_verify_partial(spec, result):
    on_u = cover_point_mask(spec.unique.on)
    dc_u = cover_point_mask(spec.unique.dc) & ~on_u
    on_s = cover_point_mask(spec.shared.on) & ~(on_u | dc_u)
    dc_s = cover_point_mask(spec.shared.dc)
    covered, multi = _coverage(result)
    space = (1 << (1 << spec.n)) - 1
    return _mask_report(
        result,
        [
            (on_u & ~covered, "==1"),
            (on_u & multi, "==1"),
            (dc_u & multi, "<=1"),
            (on_s & ~covered, ">=1"),
            (space & ~(on_u | dc_u | on_s | dc_s) & covered, "==0"),
        ],
    )


def straddling(spec_cubes):
    """Cubes inside the union of `spec_cubes` but inside no single one:
    the consensus of each pair clashing in exactly one variable (the
    pair's literals less that variable, each half inside one of the
    two) that no spec cube contains."""
    out = []
    for i, p in enumerate(spec_cubes):
        for q in spec_cubes[i + 1 :]:
            clash = p.mask & q.mask & (p.bits ^ q.bits)
            if clash.bit_count() != 1:
                continue
            mask = (p.mask | q.mask) & ~clash
            x = Cube(p.n, mask, (p.bits | q.bits) & mask)
            if not any(contains(s, x) for s in spec_cubes):
                out.append(x)
    return out


@st.composite
def corrupted(draw, result, spec_cubes=()):
    """The result as given, or with one cube dropped, added or
    duplicated, or with a cube planted that lies inside the spec's
    union but inside no single spec cube (when the spec has one)."""
    cubes = list(result.cubes)
    how = draw(st.sampled_from(("keep", "drop", "add", "duplicate", "straddle")))
    at = draw(st.integers(0, len(cubes)))
    if how == "drop" and cubes:
        del cubes[at % len(cubes)]
    elif how == "add":
        cubes.insert(at, draw(cubes_st(n=result.n)))
    elif how == "duplicate" and cubes:
        cubes.insert(at, cubes[draw(st.integers(0, len(cubes) - 1))])
    elif how == "straddle" and (planted := straddling(spec_cubes)):
        cubes.insert(at, draw(st.sampled_from(planted)))
    return Cover(result.n, tuple(cubes))


def spec_cubes(spec):
    return spec.unique.care_cover().cubes + spec.shared.care_cover().cubes


@st.composite
def dsop_cases(draw):
    f = draw(function_specs_st(max_n=8))
    if draw(st.booleans()):
        base = dsop(f)
    else:
        base = draw(covers_st(n=f.n, max_cubes=8))
    return f, draw(corrupted(base, f.on.cubes + f.dc.cubes))


@st.composite
def partial_cases(draw):
    if draw(st.booleans()):
        spec = draw(partial_specs_st(max_n=8))
        base = partial_dsop(spec)
    else:
        # parts drawn independently, so they may overlap
        n = draw(st.integers(1, 8))
        spec = PartialSpec(
            unique=draw(function_specs_st(n=n, max_on=4, max_dc=3)),
            shared=draw(function_specs_st(n=n, max_on=3, max_dc=3)),
        )
        base = draw(covers_st(n=n, max_cubes=8))
    return spec, draw(corrupted(base, spec_cubes(spec)))


def empty_shared(f):
    """The partial spec verify_dsop checks f against."""
    return PartialSpec(unique=f, shared=FunctionSpec(f.n, Cover(f.n)))


def _agree(report, want):
    assert report.ok == (not want)
    if len(want) < _MAX_REPORTED and len(report.violations) < _MAX_REPORTED:
        assert report.violations == want


class TestAgainstPointMasks:
    @given(dsop_cases())
    @settings(max_examples=300)
    def test_dsop_matches_mask_oracle(self, case):
        f, result = case
        _agree(verify_dsop(f, result), mask_verify_partial(empty_shared(f), result))

    @given(partial_cases())
    @settings(max_examples=300)
    def test_partial_matches_mask_oracle(self, case):
        spec, result = case
        _agree(verify_partial_dsop(spec, result), mask_verify_partial(spec, result))

    def test_a_planted_straddling_cube_is_searched_and_judged(self):
        # 1-- lies inside the on cube 1-0 and the dc cube 1-1 together,
        # inside neither alone; --0 and --1 straddle on and on or dc
        f = FunctionSpec(3, cov("1-0", "0--"), cov("1-1"))
        assert straddling(f.on.cubes + f.dc.cubes) == [c("--0"), c("1--"), c("--1")]
        good = cov("1--", "0--")
        assert verify_dsop(f, good).ok
        for planted in straddling(f.on.cubes + f.dc.cubes):
            result = Cover(3, good.cubes + (planted,))
            report = verify_dsop(f, result)
            assert not report.ok
            assert report.violations == mask_verify_partial(empty_shared(f), result)
            assert all(rule != "==0" for _, rule, _ in report.violations)

    def test_full_report_is_capped(self):
        n = 12
        f = FunctionSpec(n, cov("0" * n))
        report = verify_dsop(f, cov("-" * n))
        assert len(report.violations) == _MAX_REPORTED
        assert report.violations == mask_verify_partial(empty_shared(f), cov("-" * n))

    @pytest.mark.parametrize("copies", [2, 3])
    def test_overlap_witnesses_are_capped(self, copies):
        # every one of the 4096 points is covered `copies` times; the
        # first overlapping pair fills the report, and with three copies
        # the pairs after it are skipped
        n = 12
        f = FunctionSpec(n, cov("-" * n))
        report = verify_dsop(f, cov(*["-" * n] * copies))
        assert report.violations == [
            (_minterm(m, n), "==1", copies) for m in range(_MAX_REPORTED)
        ]


# --- the pairwise reference verifier (tests/conftest.py) -------------------


def mutated(rng, result):
    """The result with up to three cubes dropped, duplicated or added."""
    cubes = list(result.cubes)
    for _ in range(rng.randint(0, 3)):
        how = rng.choice(("drop", "duplicate", "stray"))
        at = rng.randint(0, len(cubes))
        if how == "drop" and cubes:
            del cubes[at % len(cubes)]
        elif how == "duplicate" and cubes:
            cubes.insert(at, rng.choice(cubes))
        elif how == "stray":
            cubes.insert(at, rand_cover(rng, result.n, 1).cubes[0])
    return Cover(result.n, tuple(cubes))


def outside(cubes, region):
    """Disjoint pieces of `cubes` that avoid every cube of `region`."""
    for q in region:
        cubes = [
            f
            for c in cubes
            for f in ([c] if intersect(c, q) is None else disjoint_sharp(c, q))
        ]
    return cubes


def reference_case(seed):
    """(spec, result) at n = 1-9: full DSOP specs, partial specs whose
    shared on and dc are carved out of the unique part, and partial
    specs whose parts overlap; results solved or drawn, then mutated.
    Drawn from a seeded Random, since hypothesis drawing each cube
    would take most of the time at 3000 cases."""
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    unique = rand_spec(rng, n, max_on=5, max_dc=3)
    kind = rng.choice(("dsop", "carved", "overlapping"))
    s_on = s_dc = ()
    if kind != "dsop":
        s_on = rand_cover(rng, n, rng.randint(1, 3)).cubes
        s_dc = rand_cover(rng, n, rng.randint(1, 3)).cubes
        if kind == "carved":
            care = unique.on.cubes + unique.dc.cubes
            s_on = tuple(outside(s_on, care)[:4])
            s_dc = tuple(outside(s_dc, care + s_on)[:4])
    shared = FunctionSpec(n, Cover(n, s_on), Cover(n, s_dc))
    spec = PartialSpec(unique=unique, shared=shared)
    if kind != "overlapping" and rng.random() < 0.5:
        base = partial_dsop(spec)
    else:
        base = rand_cover(rng, n, rng.randint(0, 10))
    return spec, mutated(rng, base)


class TestAgainstPairwiseReference:
    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=3000)
    def test_violations_match_the_pairwise_reference(self, seed):
        spec, result = reference_case(seed)
        assert verify_partial_dsop(spec, result).violations == (
            pairwise_verify_partial(spec, result)
        )

    def test_equal_volumes_of_overlapping_pieces_prove_nothing(self):
        # 0- twice fills the volume of -- while 1- stays uncovered
        f = FunctionSpec(2, cov("--"))
        result = cov("0-", "0-")
        want = [
            ("10", "==1", 0),
            ("11", "==1", 0),
            ("00", "==1", 2),
            ("01", "==1", 2),
        ]
        assert verify_dsop(f, result).violations == want
        assert pairwise_verify_partial(empty_shared(f), result) == want

    def test_a_full_report_over_many_cubes_counts_by_scan(self):
        # 1500 random cubes at n=20 over an on cube covering everything:
        # 1000 violations, each covered some number of times the
        # reference counts by scanning every result cube
        n = 20
        f = FunctionSpec(n, cov("-" * n))
        result = rand_cover(random.Random(20), n, 1500, bind=0.5)
        report = verify_dsop(f, result)
        assert len(report.violations) == _MAX_REPORTED
        assert report.violations == pairwise_verify_partial(empty_shared(f), result)

    def test_overlap_only_in_shared_dc_outside_the_on_cube_is_fine(self):
        spec = PartialSpec(
            unique=FunctionSpec(2, cov("11")),
            shared=FunctionSpec(2, Cover(2), cov("0-")),
        )
        # -1 and 0- share 01, a shared dc point; only -1 touches 11
        result = cov("-1", "0-")
        assert verify_partial_dsop(spec, result).ok
        assert pairwise_verify_partial(spec, result) == []


# --- the single-cube question before any search ----------------------------


@pytest.fixture
def searched(monkeypatch):
    """The cubes each verify_partial_dsop search is handed, one list per
    _witnesses call: the last two are the ">=1" and "==0" searches."""
    seen = []
    witnesses = verify_mod._witnesses

    def spy(index, cubes, outside, found):
        seen.append(list(cubes))
        return witnesses(index, cubes, outside, found)

    monkeypatch.setattr(verify_mod, "_witnesses", spy)
    return seen


@pytest.fixture
def contain_calls(monkeypatch):
    """(calls, slots handed over) of verify's _slots_contain."""
    made = [0, 0]
    slots_contain = verify_mod._slots_contain

    def counted(index, slots, mask):
        made[0] += 1
        made[1] += slots.bit_count()
        return slots_contain(index, slots, mask)

    monkeypatch.setattr(verify_mod, "_slots_contain", counted)
    return made


class TestInsideOneCube:
    """A cube inside one cube of the union it must stay in has no
    witness, so only the other cubes are searched."""

    # two files: the unique part x0 = 0, the shared on-set x0 = 1
    SPEC = PartialSpec(
        unique=FunctionSpec(3, cov("00-"), cov("011")),
        shared=FunctionSpec(3, cov("1--", "010")),
    )

    def test_a_shared_on_cube_straddling_two_result_cubes_is_searched(
        self, searched
    ):
        # 1-- lies inside 10- and 11- together, inside neither alone;
        # 010 lies inside the result cube 01-, so it is never searched
        result = cov("00-", "10-", "11-", "01-")
        assert verify_partial_dsop(self.SPEC, result).ok
        assert searched[-2] == [c("1--")]
        assert pairwise_verify_partial(self.SPEC, result) == []

    def test_a_shared_on_cube_sticking_out_reports_its_witnesses(self, searched):
        # 110 and 1-0 leave 101 and 111 of 1-- uncovered
        result = cov("00-", "110", "1-0", "01-")
        want = [("101", ">=1", 0), ("111", ">=1", 0)]
        assert verify_partial_dsop(self.SPEC, result).violations == want
        assert pairwise_verify_partial(self.SPEC, result) == want
        assert mask_verify_partial(self.SPEC, result) == want
        assert searched[-2] == [c("1--")]

    def test_a_result_cube_inside_one_spec_cube_is_not_searched(self, searched):
        # 0-- lies inside no spec cube: 001 and 000 are unique on, 011
        # unique dc, 010 shared on; 1-- lies inside the shared 1--
        result = cov("0--", "1--")
        assert verify_partial_dsop(self.SPEC, result).ok
        assert pairwise_verify_partial(self.SPEC, result) == []
        assert searched[-1] == [c("0--")]

    @pytest.mark.parametrize("variant", [1, 2, 3, 4, 5])
    def test_an_identity_dsop_needs_no_containment_search(
        self, variant, searched, contain_calls
    ):
        # every cube the identity backend commits is a piece of one on
        # or dc cube, so "==0" hands no cube to the search
        rng = random.Random(3000 + variant)
        f = FunctionSpec(12, rand_cover(rng, 12, 60, bind=0.6), rand_cover(rng, 12, 15))
        cfg = DsopConfig(variant, backend=MinimizerBackend.identity())
        result = dsop(f, cfg)
        assert len(result) > 60
        searched.clear()
        assert verify_dsop(f, result).ok
        assert searched[-1] == [] and searched[-2] == []
        assert contain_calls == [0, 0]


class TestVerifyScaling:
    """Verification asks a few index queries per cube and searches only
    what those leave open: its operation counts, not seconds, grow no
    faster than the cubes it reads (ROADMAP item 8). A result x spec
    scan, one containment search per result cube over every spec cube,
    hands over pairs in proportion to their product and fails."""

    @pytest.fixture
    def queries(self, monkeypatch):
        made = [0]
        overlapping, inside = CubeIndex.overlapping, CubeIndex.inside

        def counted_overlapping(index, c):
            made[0] += 1
            return overlapping(index, c)

        def counted_inside(index, c, slots):
            made[0] += 1
            return inside(index, c, slots)

        monkeypatch.setattr(CubeIndex, "overlapping", counted_overlapping)
        monkeypatch.setattr(CubeIndex, "inside", counted_inside)
        return made

    def test_operations_grow_linearly_in_the_cubes_read(
        self, queries, contain_calls
    ):
        per_cube = []
        for k in (100, 200, 400):
            rng = random.Random(k)
            on, dc = rand_cover(rng, 16, k, 0.7), rand_cover(rng, 16, k // 4, 0.7)
            f = FunctionSpec(16, on, dc)
            cfg = DsopConfig(1, backend=MinimizerBackend.identity())
            result = dsop(f, cfg)
            queries[0] = 0
            contain_calls[:] = [0, 0]
            assert verify_dsop(f, result).ok
            cubes = len(result) + len(f.on) + len(f.dc)
            per_cube.append((queries[0] / cubes, *(x / cubes for x in contain_calls)))
        # the result grows faster than k (229, 768 and 1902 cubes); a
        # linear count keeps its share per cube, a product doubles it
        # and more at each step
        small, _, large = per_cube
        assert small[0] > 1
        for now, then in zip(large, small):
            assert now <= 1.5 * then + 0.01

    def test_searched_slots_stay_flat_on_builtin_dsops(self, contain_calls):
        # each builtin DSOP cube spans four spec cubes, so it lies in no
        # single one and "==0" searches it; the search asks for the spec
        # cubes meeting it, about one per cube read at every k, where a
        # scan of every spec cube hands over 20, 42, 91 and 194
        per_cube = []
        for k in (25, 50, 100, 200):
            f = quartered_spec(random.Random(k), 20, k)
            result = dsop(f)
            contain_calls[:] = [0, 0]
            assert verify_dsop(f, result).ok
            assert contain_calls[0] >= k
            per_cube.append(contain_calls[1] / (len(result) + len(f.on) + len(f.dc)))
        assert max(per_cube) <= 2 * per_cube[0], per_cube
