import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cube_pairs_st, cubes_st, trit_strings
from dsopforge import (
    ContractViolation,
    Cube,
    DimensionMismatch,
    contains,
    disjoint_sharp,
    intersect,
)
from dsopforge.exact import point_mask


def c(s):
    return Cube.from_string(s)


class TestConstruction:
    @given(st.integers(1, 12).flatmap(trit_strings))
    def test_string_round_trip(self, s):
        assert c(s).to_string() == s

    def test_rejects_bad_characters(self):
        with pytest.raises(ValueError):
            c("01x")

    def test_rejects_empty_string(self):
        with pytest.raises(ValueError):
            c("")

    def test_rejects_bits_outside_mask(self):
        with pytest.raises(ContractViolation):
            Cube(2, 0b01, 0b10)

    def test_rejects_mask_outside_space(self):
        with pytest.raises(ContractViolation):
            Cube(2, 0b100, 0)

    def test_universe(self):
        assert Cube.universe(3).to_string() == "---"

    @given(st.integers(1, 10), st.data())
    def test_covers_minterm_matches_trits(self, n, data):
        p = data.draw(cubes_st(n=n))
        m = data.draw(st.integers(0, 2**n - 1))
        expected = all(
            t == "-" or t == ("1" if m >> i & 1 else "0")
            for i, t in enumerate(p.to_string())
        )
        assert (point_mask(p) >> m & 1 == 1) == expected

    @given(cubes_st(max_n=10))
    def test_point_mask_size_is_two_to_dimension(self, p):
        assert point_mask(p).bit_count() == 2**p.dimension

    @given(cubes_st(max_n=10))
    def test_literal_count_plus_dimension_is_n(self, p):
        assert p.literal_count + p.dimension == p.n


class TestIntersect:
    def test_example_pair(self):
        assert intersect(c("-1-1"), c("01--")) == c("01-1")

    def test_conflicting_literal_is_empty(self):
        assert intersect(c("01-1"), c("1-1-")) is None

    @given(cubes_st(max_n=10))
    def test_idempotent(self, p):
        assert intersect(p, p) == p

    @given(cube_pairs_st(max_n=10))
    def test_commutes_and_matches_point_sets(self, pq):
        p, q = pq
        x = intersect(p, q)
        assert x == intersect(q, p)
        want = point_mask(p) & point_mask(q)
        assert (0 if x is None else point_mask(x)) == want

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatch):
            intersect(c("01"), c("011"))


class TestContains:
    @given(cubes_st(max_n=10))
    def test_reflexive(self, p):
        assert contains(p, p)

    @given(cube_pairs_st(max_n=10))
    def test_matches_point_subset(self, pq):
        p, q = pq
        subset = point_mask(q) & ~point_mask(p) == 0
        assert contains(p, q) == subset

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contains(c("0-"), c("0--"))


class TestDisjointSharp:
    def test_first_worked_identity(self):
        out = disjoint_sharp(c("0-0-"), c("-1-1"))
        assert sorted(x.to_string() for x in out) == ["000-", "0100"]

    def test_second_worked_identity(self):
        out = disjoint_sharp(c("-1-1"), c("01--"))
        assert [x.to_string() for x in out] == ["11-1"]

    def test_contained_cube_vanishes(self):
        assert disjoint_sharp(c("0101"), c("01--")) == []

    def test_disjoint_pair_is_a_contract_error(self):
        with pytest.raises(ContractViolation):
            disjoint_sharp(c("00--"), c("11--"))

    @given(cube_pairs_st(max_n=12))
    def test_fragment_count_law(self, pq):
        q, p = pq
        r = intersect(q, p)
        if r is None:
            return
        out = disjoint_sharp(q, p)
        assert len(out) == r.literal_count - q.literal_count

    @given(cube_pairs_st(max_n=10))
    def test_fragments_partition_q_minus_p(self, pq):
        q, p = pq
        if intersect(q, p) is None:
            return
        out = disjoint_sharp(q, p)
        union = 0
        for a in out:
            pm = point_mask(a)
            assert pm & union == 0, "fragments must not overlap"
            union |= pm
        assert union == point_mask(q) & ~point_mask(p)

    @given(cube_pairs_st(max_n=10))
    def test_fragments_stay_inside_q_and_avoid_p(self, pq):
        q, p = pq
        if intersect(q, p) is None:
            return
        for a in disjoint_sharp(q, p):
            assert contains(q, a)
            assert intersect(a, p) is None
