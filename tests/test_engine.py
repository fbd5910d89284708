import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    ALL_CONFIGS,
    SORT_IDS,
    UNSHRUNK,
    config_id,
    covers_st,
    crowded_covers_st,
    cubes_st,
    function_specs_st,
    pairwise_weight,
    rand_cover,
    rand_partial_spec,
)
from dsopforge import (
    SORT_DIMENSION_WEIGHT,
    SORT_POLICIES,
    SORT_WEIGHT_DIMENSION,
    VARIANTS,
    ContractViolation,
    Cover,
    Cube,
    DimensionMismatch,
    DsopConfig,
    FunctionSpec,
    MinimizerBackend,
    ProgressError,
    WeightedCube,
    build_sop,
    chain_family,
    cover_contains_cube,
    disjoint_sharp,
    dsop,
    intersect,
    normalize,
    partial_dsop,
    sort_cubes,
    verify_dsop,
    weight_all,
)
from dsopforge import engine as engine_mod
from dsopforge import minimize as minimize_mod
from dsopforge import partial as partial_mod
from dsopforge.covers import CubeIndex, slots_of
from dsopforge.engine import _apply_opt, _Pool, _weigh


def c(s):
    return Cube.from_string(s)


def cov(*strings, n=None):
    return Cover.from_strings(strings, n=n)


DEMO = cov("0-0-", "-1-1", "01--", "1-1-")
DEMO_F = FunctionSpec(4, DEMO)


class TestWeights:
    def test_demo_cover_weights(self):
        got = {w.cube.to_string(): w.weight for w in weight_all(DEMO)}
        assert got == {"0-0-": 1, "-1-1": 2, "01--": 0, "1-1-": 1}

    def test_isolated_cubes_get_sentinel(self):
        got = {w.cube.to_string(): w.weight for w in weight_all(cov("00-", "11-"))}
        assert got == {"00-": -1, "11-": -1}

    @given(covers_st(max_n=6, max_cubes=8))
    def test_sentinel_marks_exactly_the_isolated_cubes(self, cover):
        # the selection loop commits every -1 cube unsplit, which is
        # sound only on the absorption-free covers build_sop returns
        cubes = normalize(cover).cubes
        for i, w in enumerate(weight_all(cubes)):
            alone = all(
                intersect(w.cube, d) is None for j, d in enumerate(cubes) if j != i
            )
            assert (w.weight == -1) == alone

    def test_both_peer_sums_match_the_pairwise_reference(self):
        # _weigh sums common literals per peer when a cube has fewer
        # peers than literals and per literal otherwise; these covers
        # reach both sums, the per-peer one with zero, one and three peers
        branches = set()
        for cover in (
            # 1--- and 11-- overlap more cubes than they bind; 001- and
            # 0-11 have one peer each; 0000 and 01-0 none
            cov("1---", "11--", "1-1-", "1--1", "001-", "0-11", "0000", "01-0"),
            # 0011- and 0-111 three peers each, fewer than their four
            # literals; ----- binds nothing and overlaps every cube
            cov("0-1-1", "0011-", "0-111", "-----", "1-00-"),
        ):
            cubes = list(cover.cubes)
            index = CubeIndex(cover.n, cubes)
            for s, x in enumerate(cubes):
                total, count = _weigh(index, s)
                assert (total if count else -1) == pairwise_weight(cubes, s), x
                assert count == sum(
                    intersect(x, d) is not None for d in cubes if d is not x
                )
                branches.add((count < x.literal_count, min(count, 2)))
        assert {(True, 0), (True, 1), (True, 2), (False, 2)} <= branches

    @pytest.mark.parametrize("variant", [4, 5])
    def test_push_weighs_the_new_slot_against_live_p(self, variant):
        # P.push weighs the cube it adds by _weigh over the live slots
        P = pool(variant, ("1---", 0), ("11--", 0), ("1-1-", 0), ("001-", 0))
        P.remove(1)
        for s, peers in (("1--1", 2), ("0-11", 1), ("0011", 2), ("0000", 0)):
            P.push(c(s))
            t = len(P.index.cubes) - 1
            live = list(slots_of(P.index.live))
            cubes = [P.index.cubes[u] for u in live]
            want = pairwise_weight(cubes, live.index(t))
            assert P.count[t] == peers
            assert (P.total[t] if peers else -1) == want, s

    def test_mixed_widths_raise(self):
        # one index spans one width; a 2-variable cube cannot meet a
        # 3-variable one, so no weight could be consistent
        with pytest.raises(DimensionMismatch):
            weight_all([c("01"), c("011")])

    @given(crowded_covers_st())
    @settings(UNSHRUNK, max_examples=80)
    def test_matches_the_pairwise_reference(self, cover):
        cubes = list(cover.cubes)
        got = [w.weight for w in weight_all(cover)]
        assert got == [pairwise_weight(cubes, i) for i in range(len(cubes))]

    @given(crowded_covers_st(min_cubes=65))
    @settings(UNSHRUNK, max_examples=20)
    def test_matches_the_pairwise_reference_past_one_word(self, cover):
        cubes = list(cover.cubes)
        got = [w.weight for w in weight_all(cubes)]
        assert got == [pairwise_weight(cubes, i) for i in range(len(cubes))]

    @given(crowded_covers_st(max_cubes=90))
    @settings(UNSHRUNK, max_examples=40)
    def test_a_given_index_is_read_and_peer_counts_reported(self, cover):
        cubes = list(cover.cubes)
        index = CubeIndex(cover.n, cubes)
        counts = []
        got = weight_all(cover, index, counts)
        assert got == weight_all(cover)
        assert counts == [
            sum(intersect(x, d) is not None for j, d in enumerate(cubes) if j != i)
            for i, x in enumerate(cubes)
        ]


@st.composite
def grown_indexes(draw):
    """(n, cubes, split, gone, probes) at n = 1, 16 or 70: an index gets
    cubes[:split] from its constructor and the rest from add(), then
    loses the slots in `gone`; `probes` are cubes it never held."""
    n = draw(st.sampled_from([1, 16, 70]))
    cubes = list(draw(crowded_covers_st(min_n=n, max_n=n, max_cubes=80)).cubes)
    split = draw(st.integers(0, len(cubes)))
    gone = draw(st.sets(st.integers(0, max(len(cubes) - 1, 0))))
    probes = [draw(cubes_st(n=n)) for _ in range(4)]
    return n, cubes, split, gone, probes


class TestIndexQueries:
    @given(grown_indexes())
    @settings(UNSHRUNK, max_examples=60)
    def test_match_the_pairwise_references_after_add_and_discard(self, case):
        n, cubes, split, gone, probes = case
        index = CubeIndex(n, cubes[:split])
        for s, x in enumerate(cubes[split:], split):
            assert index.add(x) == s
        for s in gone:
            index.discard(s)
        live = [s for s in range(len(cubes)) if s not in gone]
        # indexed cubes, equal copies whose keys nothing has read yet,
        # and cubes the index never held
        copies = [Cube(n, x.mask, x.bits) for x in cubes[:6]]
        for p in cubes + copies + probes:
            want = sum(1 << s for s in live if intersect(p, cubes[s]) is not None)
            assert index.overlapping(p) == want
        for s in live:
            x = cubes[s]
            peers = [
                cubes[t] for t in live if t != s and intersect(x, cubes[t]) is not None
            ]
            total = sum(
                x.literal_count - (x.mask & d.mask).bit_count() - 1 for d in peers
            )
            assert _weigh(index, s) == (total, len(peers))
        kept = [cubes[s] for s in live]
        got = [w.weight for w in weight_all(kept)]
        assert got == [pairwise_weight(kept, i) for i in range(len(kept))]


class TestConfig:
    def test_the_space_is_five_variants_under_the_two_flag_orders(self):
        assert VARIANTS == (1, 2, 3, 4, 5)
        assert SORT_POLICIES == (SORT_DIMENSION_WEIGHT, SORT_WEIGHT_DIMENSION)
        assert SORT_POLICIES == ("dw", "wd")
        assert (DsopConfig().variant, DsopConfig().sort) == (3, "dw")

    @pytest.mark.parametrize("variant", [0, 6])
    def test_variant_outside_variants_raises(self, variant):
        with pytest.raises(ValueError, match=f"variant must be 1..5, got {variant}"):
            DsopConfig(variant=variant)

    def test_sort_outside_policies_raises(self):
        with pytest.raises(ValueError, match="unknown sort policy 'dimension_weight'"):
            DsopConfig(sort="dimension_weight")


class TestSort:
    def test_dimension_weight_order_on_demo(self):
        out = sort_cubes(weight_all(DEMO), SORT_DIMENSION_WEIGHT)
        assert [w.cube.to_string() for w in out] == ["01--", "0-0-", "1-1-", "-1-1"]

    def test_weight_dimension_puts_light_small_cube_first(self):
        weighted = [
            WeightedCube(c("1---"), 5),
            WeightedCube(c("00--"), 0),
        ]
        dw = sort_cubes(weighted, SORT_DIMENSION_WEIGHT)
        wd = sort_cubes(weighted, SORT_WEIGHT_DIMENSION)
        assert dw[0].cube == c("1---")
        assert wd[0].cube == c("00--")

    def test_ties_break_on_trit_string(self):
        weighted = [WeightedCube(c("1-1-"), 1), WeightedCube(c("0-0-"), 1)]
        out = sort_cubes(weighted, SORT_DIMENSION_WEIGHT)
        assert [w.cube.to_string() for w in out] == ["0-0-", "1-1-"]

    @given(
        crowded_covers_st(max_n=5, max_cubes=12),
        st.lists(st.integers(0, 1), min_size=12, max_size=12),
    )
    @UNSHRUNK
    def test_tie_key_orders_as_the_trit_string(self, cover, weights):
        # full ties, equal weight and dimension, come out in ascending
        # to_string() order under both policies, wherever the input
        # put them
        weighted = [WeightedCube(x, w) for x, w in zip(cover.cubes, weights)]
        for sort in (SORT_DIMENSION_WEIGHT, SORT_WEIGHT_DIMENSION):
            groups = {}
            for w in sort_cubes(weighted, sort):
                tie = (w.weight, w.cube.dimension)
                groups.setdefault(tie, []).append(w.cube.to_string())
            for strings in groups.values():
                assert strings == sorted(strings)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            sort_cubes([], "sideways")

    @given(crowded_covers_st(max_cubes=12))
    @UNSHRUNK
    def test_reports_the_tie_keys_in_input_order(self, cover):
        weighted = weight_all(cover)
        ties = [7]
        out = sort_cubes(weighted, SORT_WEIGHT_DIMENSION, ties)
        assert ties == [7] + [w.cube.to_string() for w in weighted]
        assert out == sort_cubes(weighted, SORT_WEIGHT_DIMENSION)


def pool(variant, *items):
    """A selection pool P over 4 variables holding `items`, (trit
    string, weight) pairs with weights >= 0, over an index of them
    whose peer counts come from its own overlap queries."""
    weighted = [WeightedCube(c(s), w) for s, w in items]
    index = CubeIndex(4, [w.cube for w in weighted])
    counts = [index.overlapping(w.cube).bit_count() - 1 for w in weighted]
    return _Pool(index, variant, SORT_DIMENSION_WEIGHT, weighted, counts)


class TestPool:
    @pytest.mark.parametrize("sort", SORT_POLICIES, ids=SORT_IDS.get)
    @given(cover=crowded_covers_st(max_cubes=90))
    @settings(UNSHRUNK, max_examples=30)
    def test_pops_the_sop_in_sort_order_without_isolated_slots(self, sort, cover):
        # the selection loop hands P the index weight_all read over the
        # SOP; the isolated cubes' slots must be out of P from the start
        sop = normalize(cover)
        index = CubeIndex(sop.n, sop.cubes)
        counts = []
        weighted = weight_all(sop, index, counts)
        P = _Pool(index, 4, sort, weighted, counts)
        isolated = [s for s, w in enumerate(weighted) if w.weight < 0]
        assert all(P.key[s] is None for s in isolated)
        assert not any(P.index.live >> s & 1 for s in isolated)
        popped = []
        while P:
            popped.append(P.pop())
        ranked = sort_cubes([w for w in weighted if w.weight >= 0], sort)
        assert popped == [w.cube for w in ranked]


    @pytest.mark.parametrize("variant", [1, 2, 3, 4, 5])
    def test_tie_key_runs_once_per_cube_of_p_in_a_pass(self, monkeypatch, variant):
        # engine.trit_strings renders the tie strings of P's members
        # while P is built: each cube of P once, whether or not P
        # re-keys cubes later (v2, v4, v5). A fragment pushed back into
        # P (v4, v5) renders its own string, and v5 takes fragment 0
        # with no string compared, so nothing else goes through it. The
        # strings are rendered a list at a time, so the cubes handed to
        # engine.trit_strings are counted, not calls.
        rendered = []
        trit_strings = engine_mod.trit_strings

        def counted(cubes):
            rendered.extend(cubes)
            return trit_strings(cubes)

        members = []

        class Counted(_Pool):
            def __init__(self, index, variant, sort, weighted, counts):
                before = len(rendered)
                super().__init__(index, variant, sort, weighted, counts)
                members.append([w.cube for w in weighted if w.weight >= 0])
                assert sorted(map(id, rendered[before:])) == sorted(
                    map(id, members[-1])
                )

        monkeypatch.setattr(engine_mod, "trit_strings", counted)
        monkeypatch.setattr(partial_mod, "_Pool", Counted)
        rng = random.Random(25140)
        f = FunctionSpec(12, rand_cover(rng, 12, 60, bind=0.6))
        for sort in (SORT_DIMENSION_WEIGHT, SORT_WEIGHT_DIMENSION):
            cfg = DsopConfig(variant, sort, backend=MinimizerBackend.identity())
            dsop(f, cfg)
        assert len(members) > 2 and sum(map(len, members)) > 60
        assert len(rendered) == sum(map(len, members))


def published(P, s):
    """The weight P last published for slot s: a field of its key, or
    ReferencePool's own list."""
    if isinstance(P, ReferencePool):
        return P.weight[s]
    return P.key[s][1] if P.dw else P.key[s][0]


def entries(P):
    """P's cubes in selection order, with their published weights."""
    order = sorted(slots_of(P.index.live), key=P.key.__getitem__)
    return [WeightedCube(P.index.cubes[s], published(P, s)) for s in order]


class ReferencePool:
    """_Pool as it was before it kept a heap, kept as an oracle: an
    order list that every publish re-sorts whole, stably, by
    (literal count, weight, trit string) or (weight, literal count,
    trit string), with dead slots skipped through `rank`."""

    def __init__(self, index, variant, sort, weighted, counts):
        self.variant = variant
        self.sort = sort
        self.index = index
        slot = {id(w): s for s, w in enumerate(weighted)}
        members = [w for w in weighted if w.weight >= 0]
        ties = []
        self.order = [slot[id(w)] for w in sort_cubes(members, sort, ties)]
        self.head = 0
        self.rank = rank = [-1] * len(weighted)
        for i, s in enumerate(self.order):
            rank[s] = i
        for s, w in enumerate(weighted):
            if w.weight < 0:
                index.discard(s)
        self.weight = [w.weight for w in weighted]
        self.track = variant in (2, 4, 5)
        self.lits, self.tie, self.total, self.count = [], [], [], []
        if self.track:
            self.lits = [x.literal_count for x in index.cubes]
            self.tie = [""] * len(weighted)
            for w, t in zip(members, ties):
                self.tie[slot[id(w)]] = t
            self.count = list(counts)
            self.total = [w if m else 0 for w, m in zip(self.weight, counts)]

    def __bool__(self):
        return bool(self.index.live)

    def slots(self):
        rank = self.rank
        return [s for s in self.order[self.head :] if rank[s] >= 0]

    def first(self, near):
        rank = self.rank
        best, best_rank = -1, len(self.order)
        for s in slots_of(near & self.index.live):
            if rank[s] < best_rank:
                best, best_rank = s, rank[s]
        return best

    def pop(self):
        order, rank = self.order, self.rank
        while rank[order[self.head]] < 0:
            self.head += 1
        s = order[self.head]
        self.head += 1
        self.remove(s)
        return self.index.cubes[s]

    def remove(self, s):
        self.index.discard(s)
        self.rank[s] = -1
        if self.track:
            self._shift(s, -1)

    def push(self, x):
        s = self.index.add(x)
        self.rank.append(len(self.order))
        self.order.append(s)
        self.weight.append(0)
        if self.track:
            self.lits.append(x.literal_count)
            self.tie.append(x.to_string())
            total, count = _weigh(self.index, s)
            self.total.append(total)
            self.count.append(count)
            self._shift(s, 1)

    def _shift(self, s, sign):
        index, lits, total, count = self.index, self.lits, self.total, self.count
        cm = index.cubes[s].mask
        for t in slots_of(index.overlapping(index.cubes[s]) & ~(1 << s)):
            total[t] += sign * (lits[t] - (cm & index.cubes[t].mask).bit_count() - 1)
            count[t] += sign

    def publish(self, slots):
        weight, total, count = self.weight, self.total, self.count
        for s in slots:
            weight[s] = total[s] if count[s] else -1

    def resort(self):
        live = self.slots()
        weight, lits, tie = self.weight, self.lits, self.tie
        if self.sort == SORT_DIMENSION_WEIGHT:
            live.sort(key=lambda s: (lits[s], weight[s], tie[s]))
        else:
            live.sort(key=lambda s: (weight[s], lits[s], tie[s]))
        self.order = live
        self.head = 0
        for i, s in enumerate(live):
            self.rank[s] = i


def reference_apply_opt(q, fragments, P, B):
    """_apply_opt over a ReferencePool: every publish re-sorts P, and
    variants 4 and 5 publish every slot of P."""
    variant = P.variant
    if variant <= 3:
        B.extend(fragments)
    if variant == 2:
        near = P.index.overlapping(q)
        if near:
            P.publish(slots_of(near))
            P.resort()
    elif variant == 3:
        moved = sorted(slots_of(P.index.overlapping(q)), key=P.rank.__getitem__)
        for s in moved:
            P.remove(s)
        B.extend(P.index.cubes[s] for s in moved)
    elif variant == 4:
        if len(fragments) == 1:
            P.push(fragments[0])
        else:
            B.extend(fragments)
    elif variant == 5 and fragments:
        bi = min(
            range(len(fragments)),
            key=lambda k: (-fragments[k].dimension, fragments[k].to_string()),
        )
        P.push(fragments[bi])
        B.extend(fragments[:bi] + fragments[bi + 1 :])
    if variant >= 4:
        P.publish(P.slots())
        P.resort()


def drive(make, apply_opt, sop, variant, sort, copies):
    """Run one pass of the selection loop's pool traffic over `sop`:
    pop p, dispatch each neighbour q of p that P.first names. Where
    `copies` (one flag per dispatch, then False) says so under variants
    4 and 5, the fragments are replaced by one copy of a cube still in
    P, so the push puts two equal cubes in P. Returns every popped cube,
    every P.first answer and each live slot's published weight after
    every dispatch, in order, and B."""
    index = CubeIndex(sop.n, sop.cubes)
    counts = []
    weighted = weight_all(sop, index, counts)
    P = make(index, variant, sort, weighted, counts)
    log, B = [], []
    copies = iter(copies)
    while P:
        p = P.pop()
        log.append(p)
        near = P.index.overlapping(p)
        while True:
            qs = P.first(near)
            log.append(qs)
            if qs < 0:
                break
            q = P.index.cubes[qs]
            fragments = disjoint_sharp(q, p)
            P.remove(qs)
            live = list(slots_of(P.index.live))
            if variant >= 4 and live and next(copies, False):
                fragments = [P.index.cubes[live[len(live) // 2]]]
            apply_opt(q, fragments, P, B)
            log.append([(s, published(P, s)) for s in slots_of(P.index.live)])
    return log, B


class TestHeapMatchesResort:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(13, 15),
        copies=st.lists(st.booleans(), max_size=60),
    )
    @settings(max_examples=15, deadline=None)
    def test_same_pops_firsts_and_weights_as_a_full_resort(self, seed, n, copies):
        # P spans more than one 64-bit word of slots; under v4 and v5
        # the copies put equal cubes in P, which tie on all but the slot
        rng = random.Random(seed)
        sop = normalize(rand_cover(rng, n, 90, bind=0.5))
        assume(len(sop.cubes) > 64)
        for cfg in ALL_CONFIGS:
            variant, sort = cfg.variant, cfg.sort
            got = drive(_Pool, _apply_opt, sop, variant, sort, copies)
            want = drive(ReferencePool, reference_apply_opt, sop, variant, sort, copies)
            assert got == want, (variant, sort)

    def test_copies_tie_on_everything_but_the_slot(self):
        # two equal cubes in P pop in the order they entered it
        P = pool(4, ("11--", 0), ("0-0-", 0))
        B = []
        _apply_opt(c("1-1-"), [c("0-0-")], P, B)
        assert P.index.cubes[2] == P.index.cubes[1]
        assert P.key[1][:3] == P.key[2][:3]
        assert sorted(slots_of(P.index.live), key=P.key.__getitem__) == [1, 2, 0]


class TestApplyOpt:
    def test_variant_1_parks_fragments(self):
        P = pool(1, ("11--", 99))
        B = []
        _apply_opt(c("1-1-"), [c("0100")], P, B)
        assert B == [c("0100")]
        assert entries(P)[0].weight == 99, "variant 1 leaves P alone"

    def test_variant_2_refreshes_only_neighbours_of_q(self):
        # 11-- overlaps q, 00-- does not; only the first weight is redone
        P = pool(2, ("11--", 99), ("00--", 99))
        B = []
        _apply_opt(c("1-1-"), [c("0100")], P, B)
        by_cube = {w.cube.to_string(): w.weight for w in entries(P)}
        assert by_cube["11--"] == -1, "no overlapping peers left in P"
        assert by_cube["00--"] == 99, "untouched entries keep stale weight"
        assert B == [c("0100")]

    def test_variant_3_evicts_neighbours_whole(self):
        P = pool(3, ("11--", 0), ("00--", 0))
        B = []
        _apply_opt(c("1-1-"), [c("0100")], P, B)
        assert [w.cube for w in entries(P)] == [c("00--")]
        assert B == [c("0100"), c("11--")]

    def test_variant_4_requeues_single_fragment(self):
        P = pool(4)
        B = []
        _apply_opt(c("1-1-"), [c("0100")], P, B)
        assert [w.cube for w in entries(P)] == [c("0100")]
        assert B == []

    def test_variant_4_parks_multiple_fragments(self):
        P = pool(4, ("0---", 99))
        B = []
        _apply_opt(c("1-1-"), [c("0100"), c("0010")], P, B)
        assert B == [c("0100"), c("0010")]
        assert entries(P)[0].weight == -1, "variant 4 reweights everything"

    def test_variant_5_requeues_biggest_fragment(self):
        P = pool(5)
        B = []
        # disjoint_sharp binds one more variable per fragment, so the
        # biggest is the first: 00-- of 00--, 010- and 0110
        frags = disjoint_sharp(c("0---"), c("-111"))
        assert frags == [c("00--"), c("010-"), c("0110")]
        _apply_opt(c("0---"), frags, P, B)
        assert [w.cube for w in entries(P)] == [c("00--")]
        assert B == [c("010-"), c("0110")]

    @pytest.mark.parametrize("variant", [2, 4, 5])
    def test_published_weights_match_the_pairwise_reference(self, monkeypatch, variant):
        # after every dispatch, the weights P publishes (all of them
        # under variants 4 and 5, those of q's neighbours under 2) are
        # the pairwise reference's against the current P
        widest = []

        def checked(q, fragments, P, B):
            _apply_opt(q, fragments, P, B)
            now = entries(P)
            cubes = [w.cube for w in now]
            for i, w in enumerate(now):
                if variant == 2 and intersect(q, w.cube) is None:
                    continue
                assert w.weight == pairwise_weight(cubes, i), (q, w)
            widest.append(len(P.index.cubes))

        monkeypatch.setattr(partial_mod, "_apply_opt", checked)
        rng = random.Random(8000 + variant)
        identity = MinimizerBackend.identity()
        for _ in range(3):
            n = rng.randint(9, 12)
            f = FunctionSpec(n, rand_cover(rng, n, rng.randint(50, 90), bind=0.6))
            spec = rand_partial_spec(rng, n)
            for sort in (SORT_DIMENSION_WEIGHT, SORT_WEIGHT_DIMENSION):
                cfg = DsopConfig(variant=variant, sort=sort, backend=identity)
                dsop(f, cfg)
                partial_dsop(spec, cfg)
        assert max(widest) > 64, "some P should span two bitset words"


class TestDsop:
    def test_demo_golden_point_set(self):
        out = dsop(DEMO_F, DsopConfig(variant=1, sort=SORT_DIMENSION_WEIGHT))
        golden = cov("01--", "1-1-", "000-", "1101")
        assert len(out) == 4
        from dsopforge import cover_point_mask

        assert cover_point_mask(out) == cover_point_mask(golden)
        assert verify_dsop(DEMO_F, out).ok

    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=config_id)
    def test_all_variants_verify_on_demo(self, cfg):
        assert verify_dsop(DEMO_F, dsop(DEMO_F, cfg)).ok

    def test_empty_function(self):
        assert len(dsop(FunctionSpec(3, Cover(3)))) == 0

    def test_single_cube_stays_single(self):
        out = dsop(FunctionSpec(3, cov("01-")))
        assert len(out) == 1

    def test_disjoint_input_passes_through(self):
        f = FunctionSpec(4, cov("00--", "11--"))
        sop = build_sop(f)
        out = dsop(f)
        assert set(out.cubes) == set(sop.cubes)

    def test_deterministic(self):
        a = dsop(DEMO_F, DsopConfig(variant=3))
        b = dsop(DEMO_F, DsopConfig(variant=3))
        assert a == b

    def test_progress_guard_trips_when_capped(self, monkeypatch):
        monkeypatch.setattr(partial_mod, "_MAX_PASSES", 1)
        with pytest.raises(ProgressError):
            dsop(DEMO_F, DsopConfig(variant=1))

    @pytest.mark.parametrize("m,want", [(2, 3), (3, 7)])
    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=config_id)
    def test_chain_blowup_sizes(self, cfg, m, want):
        f = chain_family(m)
        out = dsop(f, cfg)
        assert len(out) == want
        assert verify_dsop(f, out).ok

    def test_containment_work_per_output_cube_stays_flat_on_the_chain(
        self, monkeypatch
    ):
        # the tautology check reads the index's cubes and literal
        # bitsets; counted per output cube, not in seconds. A check
        # costing a step per cube each probe meets reads 250, 484, 950
        # and 1881 per cube at m = 8..11, the bitset recursion 76, 91,
        # 108 and 126
        reads = [0]

        class Counted:
            def __init__(self, items):
                self.items = items

            def __getitem__(self, k):
                reads[0] += 1
                return self.items[k]

        class Proxy:
            def __init__(self, index):
                self.n = index.n
                self.cubes = Counted(index.cubes)
                self.alike = Counted(index.alike)

        real = minimize_mod._slots_contain
        monkeypatch.setattr(
            minimize_mod,
            "_slots_contain",
            lambda index, slots, mask: real(Proxy(index), slots, mask),
        )
        per_cube = {}
        for m in range(8, 12):
            reads[0] = 0
            out = dsop(chain_family(m))
            assert len(out) == 2**m - 1
            per_cube[m] = reads[0] / len(out)
        assert per_cube[11] <= 2 * per_cube[8], per_cube

    @given(function_specs_st(max_n=7))
    @settings(max_examples=60)
    def test_given_first_pass_sop_changes_nothing(self, f):
        for cfg in (DsopConfig(), DsopConfig(variant=5, sort=SORT_WEIGHT_DIMENSION)):
            sop = build_sop(f, cfg.backend)
            assert dsop(f, cfg, sop=sop) == dsop(f, cfg)

    def test_given_sop_replaces_only_the_first_build(self, monkeypatch):
        calls = []

        def counting(g, backend=None, **kwargs):
            calls.append(g)
            return build_sop(g, backend, **kwargs)

        monkeypatch.setattr(partial_mod, "build_sop", counting)
        plain = dsop(DEMO_F)
        passes = len(calls)
        calls.clear()
        assert dsop(DEMO_F, sop=build_sop(DEMO_F)) == plain
        assert len(calls) == passes - 1

    @pytest.mark.parametrize(
        "sop,bad",
        [(["0-", "0-", "-0"], "cube 1 (0-)"), (["0-", "00", "-0"], "cube 1 (00)")],
        ids=["twin", "nested"],
    )
    def test_given_sop_must_be_absorption_free(self, sop, bad):
        # a twin or nested cube would weigh -1 and be committed as if
        # isolated, covering 00 three times
        f = FunctionSpec.from_strings(on=["0-", "-0"])
        with pytest.raises(ContractViolation, match=re.escape(bad)):
            dsop(f, sop=Cover.from_strings(sop))

    @given(function_specs_st(max_n=6))
    @settings(max_examples=60)
    def test_default_config_verifies_on_random_specs(self, f):
        out = dsop(f)
        report = verify_dsop(f, out)
        assert report.ok, report.violations[:5]
        care = Cover(f.n, f.on.cubes + f.dc.cubes)
        for p in out.cubes:
            assert cover_contains_cube(care, p)


class TestDropDcOnly:
    # The builtin backend never invents a cube without an on-point, so a
    # scripted first-pass SOP stands in for a more eager minimizer.
    ON = ("001",)
    DC = ("-1-",)
    FIRST_SOP = ("-1-", "0-1")

    def _patched(self, monkeypatch):
        calls = {"n": 0}

        def fake(f, backend=None, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                return cov(*self.FIRST_SOP)
            return normalize(f.on)

        monkeypatch.setattr(partial_mod, "build_sop", fake)
        return FunctionSpec(3, cov(*self.ON), cov(*self.DC))

    def test_flag_discards_without_splitting(self, monkeypatch):
        f = self._patched(monkeypatch)
        out = dsop(f, DsopConfig(variant=1, drop_dc_only=True))
        # -1- dies before it can break 0-1 apart
        assert out.to_strings() == ["0-1"]
        assert verify_dsop(f, out).ok

    def test_default_keeps_dont_care_cube(self, monkeypatch):
        f = self._patched(monkeypatch)
        out = dsop(f, DsopConfig(variant=1))
        assert set(out.to_strings()) == {"-1-", "001"}
        assert verify_dsop(f, out).ok

