import copy
import dataclasses
import pickle
import random
import sys
import threading
import tracemalloc
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cube_pairs_st, cubes_st, trit_strings
from dsopforge import (
    ContractViolation,
    Cube,
    DimensionMismatch,
    chain_family,
    contains,
    disjoint_sharp,
    intersect,
)
from dsopforge import cubes as cubes_mod
from dsopforge.cubes import trit_strings as render
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


class TestConstructionContract:
    """Cube's own __init__ keeps the checks and the frozen fields a
    generated dataclass __init__ with __post_init__ gave."""

    @pytest.mark.parametrize("name", ["n", "mask", "bits", "keys"])
    def test_fields_are_frozen(self, name):
        p = c("01-")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, 0)
        assert p == c("01-") and p.keys == (0, 4)

    @pytest.mark.parametrize(
        "n, mask, bits, message",
        [
            (-1, 0, 0, "negative variable count -1"),
            # the width is checked first, whatever mask and bits hold
            (-2, 0b100, 0b1000, "negative variable count -2"),
            (2, 0b100, 0, "mask binds variables beyond n"),
            (0, 1, 0, "mask binds variables beyond n"),
            (2, -1, 0, "mask binds variables beyond n"),
            (3, -8, 0, "mask binds variables beyond n"),
            # the mask is checked before the bits
            (2, 0b100, 0b1000, "mask binds variables beyond n"),
            (2, 0b01, 0b10, "bits set outside bound positions"),
            (3, 0b011, -1, "bits set outside bound positions"),
        ],
    )
    def test_each_check_fires_with_its_message(self, n, mask, bits, message):
        with pytest.raises(ContractViolation) as info:
            Cube(n, mask, bits)
        assert str(info.value) == message

    def test_replace_validates(self):
        p = c("01--")
        assert dataclasses.replace(p, bits=0) == c("00--")
        assert dataclasses.replace(p, n=6).to_string() == "01----"
        with pytest.raises(ContractViolation, match="bits set outside"):
            dataclasses.replace(p, bits=0b100)
        with pytest.raises(ContractViolation, match="mask binds"):
            dataclasses.replace(p, n=1)


def loop_to_string(p):
    """Cube.to_string one variable at a time, as it was first written."""
    out = []
    for i in range(p.n):
        b = 1 << i
        if not p.mask & b:
            out.append("-")
        elif p.bits & b:
            out.append("1")
        else:
            out.append("0")
    return "".join(out)


class TestToString:
    @given(cubes_st(max_n=70))
    def test_matches_the_per_variable_loop(self, p):
        assert p.to_string() == loop_to_string(p)

    def test_zero_variables(self):
        assert Cube.universe(0).to_string() == ""
        assert repr(Cube.universe(0)) == "Cube('')"

    def test_past_the_decimal_digit_limit(self):
        # 5000 variables: more digits than Python converts between int
        # and decimal str by default
        n = 5000
        rng = random.Random(5000)
        mask = rng.getrandbits(n)
        p = Cube(n, mask, rng.getrandbits(n) & mask)
        assert p.to_string() == loop_to_string(p)
        assert Cube.from_string(p.to_string()) == p


def reference_keys(p):
    """Cube.keys as a bit scan of the literal word, kept as an oracle
    for the byte-table lookup."""
    k = (p.mask & ~p.bits) | p.bits << p.n
    out = []
    while k:
        low = k & -k
        out.append(low.bit_length() - 1)
        k ^= low
    return tuple(out)


@st.composite
def any_width_cubes_st(draw, n):
    mask = draw(st.integers(0, (1 << n) - 1))
    return Cube(n, mask, draw(st.integers(0, (1 << n) - 1)) & mask)


class TestKeys:
    def test_universe_has_none(self):
        assert Cube.universe(5).keys == ()
        assert Cube.universe(0).keys == ()

    def test_positions(self):
        # v for the literal v=0, n + v for v=1
        assert c("01-1-0").keys == (0, 5, 7, 9)

    @given(cubes_st(max_n=70))
    def test_are_the_set_bits_of_the_literal_word(self, p):
        word = (p.mask & ~p.bits) | p.bits << p.n
        assert p.keys == tuple(i for i in range(2 * p.n) if word >> i & 1)
        assert len(p.keys) == p.literal_count
        # kept in a slot from construction: a read computes nothing
        assert isinstance(Cube.__dict__["keys"], types.MemberDescriptorType)
        assert type(p.keys) is tuple

    @given(st.integers(0, 70).flatmap(any_width_cubes_st))
    def test_match_the_bit_scan(self, p):
        assert p.keys == reference_keys(p)

    @given(any_width_cubes_st(1000))
    def test_match_the_bit_scan_at_1000_inputs(self, p):
        assert p.keys == reference_keys(p)

    def test_threads_racing_on_first_use_read_equal_entries(self, monkeypatch):
        # an empty table and widths no cube had before: every thread
        # makes its own batch of cubes, so all fill the same entries at
        # once, and each must store what its own (byte index, byte)
        # gives, whatever the others stored
        monkeypatch.setattr(cubes_mod, "_BYTE_KEYS", {})
        rng = random.Random(4711)
        work = []
        for _ in range(8):
            batch = []
            for n in (2500, 2501, 2600, 3000):
                mask = rng.getrandbits(n)
                batch.append((n, mask, rng.getrandbits(n) & mask))
            work.append(batch)
        got = [None] * len(work)

        def read(i):
            got[i] = [Cube(*args).keys for args in work[i]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(i,)) for i in range(len(work))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for batch, keys in zip(work, got):
            assert keys == [reference_keys(Cube(*args)) for args in batch]

    def test_table_grows_with_the_entries_used(self, monkeypatch):
        # the 1000-input chain's cubes each use one (byte index, byte)
        # pair: 500 entries, not the 256 per byte index of a full table
        # (256 * 250 entries, over 500 KiB in pointers alone)
        # The table's growth is what making the cubes takes with it empty
        # less what making them again takes with it full.
        chain = [(p.n, p.mask, p.bits) for p in chain_family(500).on.cubes]
        table = {}
        monkeypatch.setattr(cubes_mod, "_BYTE_KEYS", table)

        def make():
            tracemalloc.start()
            try:
                cubes = [Cube(*args) for args in chain]
                used, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return cubes, used

        cubes, first = make()
        assert len(table) == 500
        _, again = make()
        assert len(table) == 500
        assert first - again < 160 * 1024
        assert all(p.keys == reference_keys(p) for p in cubes)

    def test_are_a_field_outside_equality_hash_and_repr(self):
        (keys,) = [f for f in dataclasses.fields(Cube) if f.name == "keys"]
        assert (keys.init, keys.compare, keys.hash, keys.repr) == (
            False,
            False,
            None,
            False,
        )

    @given(cubes_st(max_n=70))
    def test_other_keys_change_no_equality_hash_or_repr(self, p):
        # the same cube with keys no cube of its own could have
        other = Cube(p.n, p.mask, p.bits)
        object.__setattr__(other, "keys", p.keys + (2 * p.n,))
        assert other.keys != p.keys
        assert p == other and other == p
        assert hash(p) == hash(other)
        assert repr(p) == repr(other) == f"Cube({p.to_string()!r})"
        assert len({p, other}) == 1

    @given(cubes_st(max_n=20))
    def test_pickle_copy_and_replace_keep_them(self, p):
        for y in (
            pickle.loads(pickle.dumps(p)),
            copy.copy(p),
            copy.deepcopy(p),
            dataclasses.replace(p),
        ):
            assert y == p
            assert y.keys == p.keys == reference_keys(p)
        # replace builds a new cube, so new fields give new keys
        q = dataclasses.replace(p, bits=0)
        assert q.keys == reference_keys(Cube(p.n, p.mask, 0))


class TestTritStrings:
    @given(st.integers(0, 70).flatmap(lambda n: st.lists(any_width_cubes_st(n))))
    def test_match_the_per_variable_loop(self, cubes):
        assert render(cubes) == [loop_to_string(p) for p in cubes]
        assert render(tuple(cubes)) == render(cubes)

    @given(st.lists(any_width_cubes_st(1000), max_size=5))
    def test_match_the_per_variable_loop_at_1000_inputs(self, cubes):
        assert render(cubes) == [loop_to_string(p) for p in cubes]

    def test_empty_list(self):
        assert render([]) == []

    def test_zero_variables(self):
        assert render([Cube.universe(0)] * 3) == ["", "", ""]

    @pytest.mark.parametrize(
        "widths", [(2, 3), (3, 2), (0, 1), (4, 4, 5), (5, 4, 4)]
    )
    def test_mixed_widths_raise(self, widths):
        with pytest.raises(DimensionMismatch):
            render([Cube.universe(n) for n in widths])

    def test_mixed_widths_that_pad_alike_raise(self):
        # "01" and "01-" format to digits of equal width: the widths
        # themselves must differ loudly
        with pytest.raises(DimensionMismatch):
            render([c("01-"), Cube(2, 0b11, 0b10)])

    @given(st.integers(1, 70).flatmap(trit_strings))
    def test_from_string_round_trips(self, s):
        p = c(s)
        assert (p.n, render([p]), p.to_string()) == (len(s), [s], s)
        assert p == Cube(p.n, p.mask, p.bits)
        assert p.keys == reference_keys(p)

    @pytest.mark.parametrize("bad", ["2", " ", "\u0661", "x", "_", "+"])
    @pytest.mark.parametrize("at", [0, 3, 6])
    def test_from_string_raises_at_the_first_bad_character(self, bad, at):
        s = "01-1-0-"
        s = s[:at] + bad + s[at + 1 :]
        # a second bad character later on is not the one reported
        s += "2"
        with pytest.raises(ValueError) as info:
            c(s)
        assert str(info.value) == f"invalid trit {bad!r} at position {at}"


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

    @given(cube_pairs_st(max_n=12))
    def test_each_fragment_binds_one_more_variable(self, pq):
        # so fragment 0 is the unique largest, which variant 5 takes
        q, p = pq
        if intersect(q, p) is None:
            return
        out = disjoint_sharp(q, p)
        assert [x.literal_count for x in out] == [
            q.literal_count + i + 1 for i in range(len(out))
        ]

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
