import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    covers_st,
    crowded_covers_st,
    cubes_st,
    pairwise_normalize,
    shannon_contains,
)
from dsopforge import (
    Cover,
    Cube,
    DimensionMismatch,
    EnumerationCapExceeded,
    FunctionSpec,
    contains,
    cover_contains_cube,
    cover_intersects_cube,
    cover_point_mask,
    is_tautology,
    normalize,
)
from dsopforge.covers import CubeIndex, _slots_contain, slots_of
from dsopforge.exact import point_mask


def c(s):
    return Cube.from_string(s)


def cov(*strings, n=None):
    return Cover.from_strings(strings, n=n)


class TestCoverBasics:
    def test_from_strings_round_trip(self):
        x = cov("01-", "1-1")
        assert x.to_strings() == ["01-", "1-1"]
        assert len(x) == 2
        assert list(x) == [c("01-"), c("1-1")]

    def test_empty_needs_width(self):
        with pytest.raises(ValueError):
            Cover.from_strings([])
        assert len(Cover.from_strings([], n=3)) == 0

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError):
            Cover(2, (c("01"), c("011")))

    def test_function_spec_defaults_empty_dc(self):
        f = FunctionSpec(2, cov("01"))
        assert len(f.dc) == 0
        assert f.dc.n == 2

    def test_function_spec_width_mismatch(self):
        with pytest.raises(ValueError):
            FunctionSpec(3, cov("01"))


class TestNormalize:
    def test_drops_duplicates_and_absorbed(self):
        x = normalize(cov("01-", "011", "01-", "1--"))
        assert x.to_strings() == ["01-", "1--"]

    def test_keeps_first_of_equal_pair(self):
        assert normalize(cov("0-", "0-")).to_strings() == ["0-"]

    @given(crowded_covers_st())
    @settings(max_examples=80)
    def test_matches_the_pairwise_reference(self, x):
        assert normalize(x) == pairwise_normalize(x)

    @given(crowded_covers_st(min_cubes=65))
    @settings(max_examples=20)
    def test_matches_the_pairwise_reference_past_one_word(self, x):
        assert normalize(x) == pairwise_normalize(x)

    # literal words span several bytes and slot bitsets several words
    @given(crowded_covers_st(min_n=40, max_n=64, min_cubes=65))
    @settings(max_examples=20)
    def test_matches_the_pairwise_reference_at_width(self, x):
        assert normalize(x) == pairwise_normalize(x)

    def test_all_free_cube_absorbs_every_other_and_its_copies(self):
        n = 48
        u, a, b = "-" * n, "01" * 24, "0" + "-" * (n - 1)
        x = cov(a, u, b, u, a, u)
        assert normalize(x).to_strings() == [u]
        assert normalize(x) == pairwise_normalize(x)
        assert normalize(cov(a, a, b, a)).to_strings() == [b]

    @given(covers_st(max_n=8))
    def test_preserves_point_set(self, x):
        assert cover_point_mask(normalize(x)) == cover_point_mask(x)

    @given(covers_st(max_n=8))
    def test_result_has_no_absorption_left(self, x):
        y = normalize(x).cubes
        for i, p in enumerate(y):
            for j, q in enumerate(y):
                if i != j:
                    assert not (p.mask & ~q.mask == 0 and (p.bits ^ q.bits) & p.mask == 0) or p == q


def added_one_at_a_time(n, cubes):
    index = CubeIndex(n)
    for x in cubes:
        index.add(x)
    return index


# past 64 cubes the slot bitsets span two machine words, past 64
# variables so do the cubes' own masks
many_or_wide_covers_st = st.one_of(
    crowded_covers_st(min_cubes=65),
    crowded_covers_st(min_n=65, max_n=100, max_cubes=40),
)


class TestCubeIndex:
    @given(many_or_wide_covers_st)
    @settings(max_examples=40)
    def test_constructor_equals_adding_one_at_a_time(self, x):
        built = CubeIndex(x.n, x.cubes)
        added = added_one_at_a_time(x.n, x.cubes)
        assert built.alike == added.alike
        assert built.opp == added.opp
        assert built.live == added.live == (1 << len(x)) - 1
        assert built.cubes == added.cubes == list(x.cubes)

    @given(many_or_wide_covers_st, st.data())
    @settings(max_examples=40)
    def test_overlapping_matches_the_pairwise_predicate(self, x, data):
        cubes = list(x.cubes)
        index = CubeIndex(x.n, cubes)
        gone = data.draw(st.sets(st.integers(0, max(len(cubes) - 1, 0))))
        for s in gone:
            index.discard(s)
        probes = cubes[:8] + [data.draw(cubes_st(n=x.n)) for _ in range(4)]
        for p in probes:
            want = [
                j
                for j, q in enumerate(cubes)
                if j not in gone and not (p.mask & q.mask) & (p.bits ^ q.bits)
            ]
            assert list(slots_of(index.overlapping(p))) == want

    @given(many_or_wide_covers_st, st.data())
    @settings(max_examples=40)
    def test_inside_matches_the_pairwise_predicate(self, x, data):
        # a discarded slot is still answered when named: inside masks
        # with the slots it is given, not with `live`
        cubes = list(x.cubes)
        index = CubeIndex(x.n, cubes)
        for s in data.draw(st.sets(st.integers(0, max(len(cubes) - 1, 0)))):
            index.discard(s)
        every = (1 << len(cubes)) - 1
        named = data.draw(st.integers(0, every))
        probes = cubes[:8] + [data.draw(cubes_st(n=x.n)) for _ in range(4)]
        for p in probes:
            want = [j for j, q in enumerate(cubes) if contains(p, q)]
            assert list(slots_of(index.inside(p, every))) == want
            assert list(slots_of(index.inside(p, named))) == [
                j for j in want if named >> j & 1
            ]
            assert index.inside(p, 0) == 0

    @given(many_or_wide_covers_st, st.data())
    @settings(max_examples=40)
    def test_slots_contain_matches_shannon_reference(self, x, data):
        # the wide covers are past point masks: only the reference
        # answers there
        cubes = list(x.cubes)
        index = CubeIndex(x.n, cubes)
        gone = data.draw(st.sets(st.integers(0, max(len(cubes) - 1, 0))))
        for s in gone:
            index.discard(s)
        rest = [q for j, q in enumerate(cubes) if j not in gone]
        points = cover_point_mask(Cover(x.n, tuple(rest))) if x.n <= 8 else None
        probes = cubes[:8] + [data.draw(cubes_st(n=x.n)) for _ in range(4)]
        for p in probes:
            want = shannon_contains(rest, p)
            if points is not None:
                assert want == (point_mask(p) & ~points == 0)
            assert _slots_contain(index, index.overlapping(p), p.mask) == want

    def test_empty_list(self):
        index = CubeIndex(5, [])
        assert (index.alike, index.opp, index.live, index.cubes) == (
            [0] * 10, [0] * 10, 0, []
        )
        assert index.overlapping(c("01---")) == 0
        assert index.add(c("0----")) == 0
        assert index.overlapping(c("01---")) == 1

    def test_zero_variables(self):
        universe = Cube(0, 0, 0)
        index = CubeIndex(0, [universe, universe])
        assert (index.alike, index.opp, index.live) == ([], [], 0b11)
        assert index.overlapping(universe) == 0b11
        assert index.inside(universe, 0b10) == 0b10
        assert CubeIndex(0).live == 0

    def test_mixed_widths_raise(self):
        with pytest.raises(DimensionMismatch, match="over 2 variables given a 3-var"):
            CubeIndex(2, [c("01"), c("011")])
        with pytest.raises(DimensionMismatch):
            CubeIndex(3, [c("01")])


class TestTautology:
    def test_universe_is_tautology(self):
        assert is_tautology(cov("--"))

    def test_split_halves_are_tautology(self):
        assert is_tautology(cov("0-", "1-"))

    def test_missing_point_is_not(self):
        assert not is_tautology(cov("0-", "11"))

    def test_empty_cover_is_not(self):
        assert not is_tautology(Cover.from_strings([], n=2))

    @given(covers_st(max_n=8))
    def test_matches_enumeration(self, x):
        full = (1 << (1 << x.n)) - 1
        assert is_tautology(x) == (cover_point_mask(x) == full)

    @given(covers_st(max_n=5, min_cubes=4, max_cubes=16))
    def test_dense_covers_match_enumeration(self, x):
        # many cubes over few variables: near-tautologies that exercise
        # the unate reduction and several levels of splitting
        full = (1 << (1 << x.n)) - 1
        assert is_tautology(x) == (cover_point_mask(x) == full)


def chain(n):
    """x0, x0'x1, ..., x0'...x(n-1)', each cube binding one more variable:
    a tautology whose expansion splits once per variable."""
    cubes = ["0" * i + "1" + "-" * (n - i - 1) for i in range(n)]
    return cov(*cubes, "0" * n)


class TestDeepExpansion:
    # 1100 splits in a row: past Python's default recursion limit
    N = 1100

    def test_deep_chain_is_a_tautology(self):
        x = chain(self.N)
        assert is_tautology(x)
        assert not is_tautology(Cover(x.n, x.cubes[:-1]))

    def test_deep_chain_contains_the_universe(self):
        x = chain(self.N)
        universe = c("-" * self.N)
        assert cover_contains_cube(x, universe)
        assert not cover_contains_cube(Cover(x.n, x.cubes[:-1]), universe)


class TestContainment:
    @given(st.integers(1, 8), st.data())
    def test_matches_point_subset(self, n, data):
        x = data.draw(covers_st(n=n))
        p = data.draw(cubes_st(n=n))
        want = point_mask(p) & ~cover_point_mask(x) == 0
        assert cover_contains_cube(x, p) == want

    def test_cofactor_recursion_at_n18(self):
        # the universe probe needs both halves: only the cofactor
        # recursion can prove it
        n = 18
        halves = cov("0" + "-" * (n - 1), "1" + "-" * (n - 1))
        assert cover_contains_cube(halves, c("-" * n))
        assert cover_contains_cube(halves, c("10" + "-" * (n - 2)))
        lone = cov("0" + "-" * (n - 1))
        assert not cover_contains_cube(lone, c("1" + "-" * (n - 1)))
        assert not cover_contains_cube(lone, c("-" * n))

    def test_single_cube_fast_path_at_n20(self):
        n = 20
        assert cover_contains_cube(cov("-" * n), c("01" + "-" * (n - 2)))

    @given(st.integers(1, 8), st.data())
    def test_intersects_matches_point_overlap(self, n, data):
        x = data.draw(covers_st(n=n))
        p = data.draw(cubes_st(n=n))
        want = point_mask(p) & cover_point_mask(x) != 0
        assert cover_intersects_cube(x, p) == want

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            cover_contains_cube(cov("01"), c("011"))


class TestPointMask:
    @given(covers_st(max_n=6))
    def test_matches_brute_force(self, x):
        mask = cover_point_mask(x)
        for m in range(2**x.n):
            want = any(m & p.mask == p.bits for p in x.cubes)
            assert bool(mask >> m & 1) == want

    def test_cap_is_enforced(self):
        wide = Cover.from_strings(["-" * 27], n=27)
        with pytest.raises(EnumerationCapExceeded):
            cover_point_mask(wide)
