import dataclasses
import pickle
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    ALL_CONFIGS,
    rand_dc_shared_spec,
    rand_partial_spec,
    rand_spec,
    covers_st,
    crowded_covers_st,
    cubes_st,
    function_specs_st,
    partial_specs_st,
    rand_cover,
    rescan_subtract,
)
from dsopforge import (
    ContractViolation,
    Cover,
    Cube,
    DsopConfig,
    FunctionSpec,
    MinimizerBackend,
    PartialSpec,
    SORT_WEIGHT_DIMENSION,
    cover_contains_cube,
    cover_intersects_cube,
    cover_point_mask,
    disjoint_sharp,
    dsop,
    build_sop,
    contains,
    intersect,
    partial_break,
    partial_dsop,
    verify_dsop,
    verify_partial_dsop,
)
from dsopforge import covers as covers_mod
from dsopforge.exact import point_mask
from dsopforge import partial as partial_mod


def c(s):
    return Cube.from_string(s)


def cov(*strings, n=None):
    return Cover.from_strings(strings, n=n)


E2 = PartialSpec(
    unique=FunctionSpec(4, cov("011-", "1101")),
    shared=FunctionSpec(4, cov("0-0-", "1-1-")),
)
E2_GOLDEN = cov("01--", "1-1-", "0-0-", "11-1")


def first_pass_spec(spec):
    """on = unique.on + shared.on, dc = unique.dc + shared.dc: the
    function partial_dsop re-minimizes first (and the CLI reports)."""
    n = spec.n
    return FunctionSpec(
        n,
        Cover(n, spec.unique.on.cubes + spec.shared.on.cubes),
        Cover(n, spec.unique.dc.cubes + spec.shared.dc.cubes),
    )


def three_way_break(q, p, spec):
    """partial_break's earlier rule, kept as an oracle: an overlap inside
    the shared region spares q, one inside the unique region splits q
    with nothing reusable, and any other overlap splits q and reports
    its shared slices."""
    x = intersect(q, p)
    shared_all = spec.shared_cover()
    if cover_contains_cube(shared_all, x):
        return None, []
    if cover_contains_cube(spec.unique_cover(), x):
        return disjoint_sharp(q, p), []
    reusable = []
    for s in shared_all.cubes:
        piece = intersect(x, s)
        if piece is not None:
            reusable.append(piece)
    return disjoint_sharp(q, p), reusable


def pairwise_overlap(spec):
    """PartialSpec.overlap's earlier double loop, kept as an oracle: the
    first unique cube meeting a shared cube, and the first it meets."""
    for a in spec.unique_cover().cubes:
        for b in spec.shared_cover().cubes:
            if intersect(a, b) is not None:
                return a, b
    return None


def split_parts(n, k, seed):
    """k random unique cubes with x0 = 0 and k random shared ones with
    x0 = 1, half on and half dc: point-disjoint parts."""
    rng = random.Random(seed)
    unique = [Cube(n, c.mask | 1, c.bits & ~1) for c in rand_cover(rng, n, k)]
    shared = [Cube(n, c.mask | 1, c.bits | 1) for c in rand_cover(rng, n, k)]
    return PartialSpec(
        unique=FunctionSpec(n, Cover(n, tuple(unique))),
        shared=FunctionSpec(
            n, Cover(n, tuple(shared[: k // 2])), Cover(n, tuple(shared[k // 2 :]))
        ),
    )


class TestSharedRegionScaling:
    """The shared-region questions cost queries of one index, not a pass
    over a part: `intersect` calls are counted, not seconds."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []

        def counted(a, b):
            made.append(a)
            return intersect(a, b)

        for module in (covers_mod, partial_mod):
            monkeypatch.setattr(module, "intersect", counted, raising=False)
        return made

    @pytest.mark.parametrize("k", [250, 500, 1000])
    def test_overlap_makes_no_pairwise_test(self, calls, k):
        spec = split_parts(16, k, seed=k)
        assert spec.overlap() is None
        assert len(calls) == 0

    @pytest.mark.parametrize("k", [250, 500, 1000])
    def test_partial_break_intersects_only_the_shared_cubes_x_meets(
        self, calls, k
    ):
        spec = split_parts(16, k, seed=k)
        # x0 free: x reaches the unique half, so it is never shared-only
        q, p = c("-01" + "-" * 13), c("---10" + "-" * 11)
        x = intersect(q, p)
        m = sum(intersect(x, s) is not None for s in spec.shared_cover().cubes)
        assert m > 0
        fragments, reusable = partial_break(q, p, spec)
        assert len(reusable) == m and fragments == disjoint_sharp(q, p)
        assert len(calls) == 1 + m

    def test_partial_break_of_a_q_meeting_no_shared_cube_intersects_nothing(
        self, calls
    ):
        spec = split_parts(16, 250, seed=250)
        # x0 = 0: q lies in the unique half
        q, p = c("0-1" + "-" * 13), c("---10" + "-" * 11)
        assert not spec.shared_index().overlapping(q)
        assert partial_break(q, p, spec) == (disjoint_sharp(q, p), [])
        assert len(calls) == 0


class TestPartialBreak:
    @given(st.data())
    @settings(max_examples=300)
    def test_matches_the_three_way_rule_on_disjoint_specs(self, data):
        spec = data.draw(partial_specs_st(max_n=7))
        pool = list(spec.unique_cover().cubes + spec.shared_cover().cubes)
        cubes = cubes_st(n=spec.n)
        if pool:
            cubes = st.one_of(st.sampled_from(pool), cubes)
        q, p = data.draw(cubes), data.draw(cubes)
        assume(intersect(q, p) is not None)
        assert partial_break(q, p, spec) == three_way_break(q, p, spec)

    def test_split_with_reusable_remainder(self):
        Q, R = partial_break(c("-1-1"), c("01--"), E2)
        assert [x.to_string() for x in Q] == ["11-1"]
        assert [x.to_string() for x in R] == ["0101"]

    def test_shared_overlap_is_left_alone(self):
        Q, R = partial_break(c("0-0-"), c("01--"), E2)
        assert Q is None and R == []

    def test_contained_inside_unique_vanishes(self):
        # p swallows q: no fragments, which is not the shared verdict
        Q, R = partial_break(c("1101"), c("11-1"), E2)
        assert Q == [] and R == []

    def test_disjoint_pair_is_a_contract_error(self):
        with pytest.raises(ContractViolation):
            partial_break(c("0-0-"), c("11-1"), E2)

    def test_the_shared_cover_is_built_once_per_spec(self, monkeypatch):
        # partial_break asks the shared index at every split; the spec
        # builds it on the first request and hands out the same one
        built = []
        care_cover = FunctionSpec.care_cover

        def counted(f):
            built.append(f)
            return care_cover(f)

        breaks = []

        def counted_break(q, p, spec):
            breaks.append(q)
            return partial_break(q, p, spec)

        want = [partial_dsop(E2, cfg) for cfg in ALL_CONFIGS]
        spec = PartialSpec(E2.unique, FunctionSpec(4, E2.shared.on, E2.shared.dc))
        monkeypatch.setattr(FunctionSpec, "care_cover", counted)
        monkeypatch.setattr(partial_mod, "partial_break", counted_break)
        assert [partial_dsop(spec, cfg) for cfg in ALL_CONFIGS] == want
        assert len(breaks) > 10
        assert sum(f is spec.shared for f in built) == 1
        assert spec.shared_index() is spec.shared_index()

    def test_keeping_the_shared_cover_changes_no_equality_hash_or_repr(self):
        fresh = PartialSpec(E2.unique, E2.shared)
        read = PartialSpec(E2.unique, E2.shared)
        read.shared_cover()
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        for x in (fresh, read):
            y = pickle.loads(pickle.dumps(x))
            assert y == x and y.shared_cover() == x.shared_cover()


class TestOverlap:
    @given(st.data())
    @settings(max_examples=150)
    def test_matches_the_pairwise_double_loop(self, data):
        # up to 150 shared cubes: the index's bitsets span several words
        shared = data.draw(crowded_covers_st(max_n=10, max_cubes=150))
        n = shared.n
        unique = data.draw(covers_st(n=n, max_cubes=6))
        cut = data.draw(st.integers(0, len(shared)))
        on, dc = shared.cubes[:cut], shared.cubes[cut:]
        if data.draw(st.booleans()):
            # keep only the shared cubes meeting no unique cube
            on, dc = (
                tuple(s for s in part if not cover_intersects_cube(unique, s))
                for part in (on, dc)
            )
        spec = PartialSpec(
            unique=FunctionSpec(n, unique),
            shared=FunctionSpec(n, Cover(n, on), Cover(n, dc)),
        )
        assert spec.overlap() == pairwise_overlap(spec)

    def test_an_empty_shared_part_meets_nothing(self):
        spec = PartialSpec(E2.unique, FunctionSpec(4, Cover(4)))
        assert spec.overlap() is None and pairwise_overlap(spec) is None


class TestPartialDsop:
    def test_worked_example_golden(self):
        out = partial_dsop(E2, DsopConfig(variant=1))
        assert len(out) == 4
        assert cover_point_mask(out) == cover_point_mask(E2_GOLDEN)
        assert verify_partial_dsop(E2, out).ok

    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"v{c.variant}-{c.sort}")
    def test_all_variants_verify_on_example(self, cfg):
        assert verify_partial_dsop(E2, partial_dsop(E2, cfg)).ok

    def test_deterministic(self):
        assert partial_dsop(E2) == partial_dsop(E2)

    def test_validate_disjoint_names_the_pair(self):
        spec = PartialSpec(
            unique=FunctionSpec(4, cov("011-")),
            shared=FunctionSpec(4, cov("-1-1")),
        )
        with pytest.raises(ValueError, match="011-.*-1-1"):
            partial_dsop(spec)

    def test_empty_shared_swallowed_neighbour_publishes_like_dsop(self):
        # Under v5 a fragment re-queued into P lies inside a later p,
        # which swallows it whole. Both entry points must publish P's
        # weights after that, or the last two cubes come out swapped.
        f = FunctionSpec.from_strings(
            on="0-1-0-0 000-1-1 --000-- --0--00 ---0-1- 01100-0 00100--".split()
        )
        cfg = DsopConfig(
            variant=5,
            sort=SORT_WEIGHT_DIMENSION,
            backend=MinimizerBackend.identity(),
        )
        spec = PartialSpec(unique=f, shared=FunctionSpec(f.n, Cover(f.n)))
        out = dsop(f, cfg)
        assert [str(q) for q in out.cubes[-2:]] == ["0000101", "0110000"]
        assert partial_dsop(spec, cfg) == out

    def test_empty_on_set_makes_no_build(self, monkeypatch):
        # an external minimizer may return dc-only cubes, which a pass
        # over an empty on-set would commit
        calls = []
        monkeypatch.setattr(partial_mod, "build_sop", lambda *a, **k: calls.append(a))
        f = FunctionSpec(2, Cover(2), cov("1-"))
        spec = PartialSpec(f, FunctionSpec(2, Cover(2), cov("01")))
        assert dsop(f) == Cover(2) and partial_dsop(spec) == Cover(2)
        assert calls == []

    @given(
        function_specs_st(max_n=8, max_dc=0),
        st.sampled_from(ALL_CONFIGS),
        st.sampled_from([MinimizerBackend.builtin(), MinimizerBackend.identity()]),
    )
    @settings(max_examples=300)
    def test_empty_shared_and_no_dc_matches_dsop_exactly(self, f, cfg, backend):
        cfg = dataclasses.replace(cfg, backend=backend)
        spec = PartialSpec(unique=f, shared=FunctionSpec(f.n, Cover(f.n)))
        assert partial_dsop(spec, cfg) == dsop(f, cfg)

    @given(function_specs_st(max_n=6))
    @settings(max_examples=50)
    def test_empty_shared_keeps_plain_dsop_contract(self, f):
        spec = PartialSpec(unique=f, shared=FunctionSpec(f.n, Cover(f.n)))
        out = partial_dsop(spec)
        assert verify_dsop(f, out).ok

    @given(covers_st(max_n=6, max_cubes=4), covers_st(max_n=6, max_cubes=2))
    @settings(max_examples=50)
    def test_empty_unique_returns_the_plain_sop(self, on, dc):
        n = max(on.n, dc.n)
        on = Cover(n, tuple(Cube(n, q.mask, q.bits) for q in on.cubes))
        dc = Cover(n, tuple(Cube(n, q.mask, q.bits) for q in dc.cubes))
        shared = FunctionSpec(n, on, dc)
        spec = PartialSpec(unique=FunctionSpec(n, Cover(n)), shared=shared)
        out = partial_dsop(spec)
        assert set(out.cubes) == set(build_sop(shared).cubes)

    def test_given_sop_replaces_only_the_first_build(self, monkeypatch):
        calls = []

        def counting(g, backend=None, **kwargs):
            calls.append(g)
            return build_sop(g, backend, **kwargs)

        monkeypatch.setattr(partial_mod, "build_sop", counting)
        plain = partial_dsop(E2)
        passes = len(calls)
        assert calls[0] == first_pass_spec(E2)
        calls.clear()
        assert partial_dsop(E2, sop=build_sop(first_pass_spec(E2))) == plain
        assert len(calls) == passes - 1

    @pytest.mark.parametrize(
        "sop,bad",
        [(["0-", "0-", "-0"], "cube 1 (0-)"), (["0-", "00", "-0"], "cube 1 (00)")],
        ids=["twin", "nested"],
    )
    def test_given_sop_must_be_absorption_free(self, sop, bad):
        spec = PartialSpec(
            unique=FunctionSpec.from_strings(on=["0-", "-0"]),
            shared=FunctionSpec(2, Cover(2)),
        )
        with pytest.raises(ContractViolation, match=re.escape(bad)):
            partial_dsop(spec, sop=Cover.from_strings(sop))

    @given(partial_specs_st(max_n=7))
    @settings(max_examples=60)
    def test_given_first_pass_sop_changes_nothing(self, spec):
        first = first_pass_spec(spec)
        for cfg in (DsopConfig(), DsopConfig(variant=4)):
            sop = build_sop(first, cfg.backend)
            assert partial_dsop(spec, cfg, sop=sop) == partial_dsop(spec, cfg)

    @given(partial_specs_st(max_n=7), st.sampled_from(ALL_CONFIGS))
    @settings(max_examples=200)
    def test_random_specs_verify(self, spec, cfg):
        out = partial_dsop(spec, cfg)
        report = verify_partial_dsop(spec, out)
        assert report.ok, report.violations[:5]

    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"v{c.variant}-{c.sort}")
    def test_shared_overlap_neighbours_survive_reweighting(self, cfg):
        # Variants 2, 4 and 5 replace the P entries when they reweight.
        # Remembering the neighbours kept whole by the id() of those
        # entries let a freed id come back on another neighbour, which
        # was then never split: here 1--0-0 and 1-0--0 both came out,
        # covering unique points 100000 and 110000 twice.
        spec = PartialSpec(
            unique=FunctionSpec(6, cov("1-01-0", "-0-000", "11-000")),
            shared=FunctionSpec(6, cov("-1--01", "---010")),
        )
        report = verify_partial_dsop(spec, partial_dsop(spec, cfg))
        assert report.ok, report.violations[:5]

    @given(partial_specs_st(max_n=7))
    @settings(max_examples=50)
    def test_overlaps_stay_inside_the_shared_region(self, spec):
        out = partial_dsop(spec)
        shared_all = Cover(
            spec.n, spec.shared.on.cubes + spec.shared.dc.cubes
        )
        cubes = out.cubes
        for i in range(len(cubes)):
            for j in range(i + 1, len(cubes)):
                x = intersect(cubes[i], cubes[j])
                if x is not None:
                    assert cover_contains_cube(shared_all, x)


class TestDcFeedback:
    """Observes the loop through partial_break and build_sop, which the
    loop looks up in dsopforge.partial at call time."""

    def _record(self, monkeypatch):
        events = []

        def breaking(q, p, spec):
            fragments, reusable = partial_break(q, p, spec)
            events.append(("break", p, list(reusable)))
            return fragments, reusable

        def building(f, backend=None, **kwargs):
            events.append(("pass", f.dc, None))
            return build_sop(f, backend, **kwargs)

        monkeypatch.setattr(partial_mod, "partial_break", breaking)
        monkeypatch.setattr(partial_mod, "build_sop", building)
        return events

    def _check(self, events, out):
        """Every reusable slice lies inside the p it was split against,
        that p is in the result, and every later pass has the slice in
        its dc-set. Returns how many (slice, later pass) pairs held."""
        fed: list = []
        checked = 0
        for kind, cube_or_dc, reusable in events:
            if kind == "break":
                assert cube_or_dc in out.cubes
                for r in reusable:
                    assert contains(cube_or_dc, r)
                fed.extend(reusable)
            else:
                for r in fed:
                    assert cover_contains_cube(cube_or_dc, r)
                checked += len(fed)
        return checked

    def test_reusable_cubes_are_already_covered(self, monkeypatch):
        events = self._record(monkeypatch)
        out = partial_dsop(E2, DsopConfig(variant=1))
        assert any(k == "break" and r for k, _, r in events), (
            "the worked example feeds a remainder back"
        )
        assert self._check(events, out) > 0, "a later pass sees the feedback"

    def test_feedback_happens_on_random_specs_too(self, monkeypatch):
        import random

        from conftest import rand_partial_spec

        events = self._record(monkeypatch)
        rng = random.Random(2024)
        checked = 0
        for _ in range(50):
            spec = rand_partial_spec(rng, rng.randint(2, 7))
            events.clear()
            out = partial_dsop(spec)
            checked += self._check(events, out)
        assert checked > 0


class TestCareInvariant:
    """Later passes may hand build_sop `care`, the pass-1 SOP plus
    unique.dc and shared.dc, with the committed cubes' pieces outside
    the shared region as refuters. That is sound only while care minus
    the refuters is the pass's on+dc, as _select's docstring argues;
    these tests check the point sets on random inputs, check that the
    covers are those of the plain call, and pin the paths that must
    not pass care."""

    def _record(self, monkeypatch):
        calls = []

        def building(f, backend=None, **kwargs):
            # off is one of the loop's lists, which grows on
            calls.append((f, list(kwargs.get("off", ())), kwargs.get("care")))
            if backend is not None and backend.kind == "external":
                # the loop's choice is pinned, so no minimizer needs to run
                backend = None
            return build_sop(f, backend, **kwargs)

        monkeypatch.setattr(partial_mod, "build_sop", building)
        return calls

    @staticmethod
    def _runs(rng, cases, cfgs, shared_on=False):
        """Solver calls, one per input and config. In turn: dsop on a
        random function, then partial_dsop on a spec with unique dc and
        no shared region, on one whose shared region is a dc-set alone,
        and on one with such a region and unique dc too. When
        `shared_on`, partial_dsop alone, on specs with a shared
        on-set."""
        k = 0
        while k < cases:
            n = rng.randint(2, 10)
            f = spec = None
            if shared_on:
                spec = rand_partial_spec(rng, n)
                if not spec.shared.on.cubes:
                    continue
            elif k % 4 == 0:
                f = rand_spec(rng, n, max_on=8, max_dc=3)
            elif k % 4 == 1:
                unique = FunctionSpec(
                    n,
                    rand_cover(rng, n, rng.randint(1, 8)),
                    rand_cover(rng, n, rng.randint(1, 3)),
                )
                spec = PartialSpec(unique, FunctionSpec(n, Cover(n)))
            else:
                spec = rand_dc_shared_spec(rng, n, unique_dc=k % 4 == 3)
            k += 1
            for cfg in cfgs:
                if spec is None:
                    yield lambda cfg=cfg: dsop(f, cfg)
                else:
                    yield lambda cfg=cfg, spec=spec: partial_dsop(spec, cfg)

    def test_care_minus_committed_is_each_later_pass_on_dc(self, monkeypatch):
        calls = self._record(monkeypatch)
        later = 0
        for run in self._runs(random.Random(23), 400, ALL_CONFIGS):
            calls.clear()
            run()
            assert not calls or calls[0][2] is None
            for todo, off, care in calls[1:]:
                gone = 0
                for x in off:
                    gone |= point_mask(x)
                got = cover_point_mask(care) & ~gone
                assert got == cover_point_mask(todo.care_cover())
            later += len(calls[1:])
        assert later > 2000

    def test_care_path_changes_no_cover(self, monkeypatch):
        # the reference strips care and keeps the loop's off, the
        # committed cubes' pieces outside the shared region. None of
        # them meets the pass's on+dc, so the plain path's filter keeps
        # every one as a refuter, and test_off_cubes_change_nothing
        # (test_minimize.py) gives the cover the committed cubes as off
        # would give
        rng = random.Random(24)
        specs = [
            rand_dc_shared_spec(rng, rng.randint(2, 12), unique_dc=k % 2 == 1)
            for k in range(150)
        ]
        cared = []

        def plain(f, backend=None, *, off=(), care=None):
            cared.append(care is not None)
            if care is not None:
                valid = cover_point_mask(f.care_cover())
                assert not any(point_mask(x) & valid for x in off)
            return build_sop(f, backend, off=off)

        for spec in specs:
            for cfg in ALL_CONFIGS:
                got = partial_dsop(spec, cfg)
                with monkeypatch.context() as m:
                    m.setattr(partial_mod, "build_sop", plain)
                    want = partial_dsop(spec, cfg)
                assert got == want, (spec, cfg)
        assert sum(cared) > 800

    @pytest.mark.parametrize(
        "path", ["shared", "drop_dc_only", "identity", "external"]
    )
    def test_care_is_not_passed_where_it_does_not_hold(self, monkeypatch, path):
        # "shared": a shared region with an on-set
        calls = self._record(monkeypatch)
        backend = {
            "identity": MinimizerBackend.identity(),
            "external": MinimizerBackend.external("/no/such/minimizer"),
        }.get(path)
        cfgs = [
            dataclasses.replace(
                cfg,
                drop_dc_only=path == "drop_dc_only",
                backend=backend or cfg.backend,
            )
            for cfg in ALL_CONFIGS
        ]
        later = 0
        for run in self._runs(
            random.Random(5), 24, cfgs, shared_on=path == "shared"
        ):
            calls.clear()
            run()
            assert all(care is None for _, _, care in calls)
            later += len(calls[1:])
        assert later > 80


class TestSplitLate:
    """The end-of-pass split against the per-commit rescan it replaces."""

    @given(st.data())
    @settings(max_examples=60)
    def test_matches_the_per_commit_rescan(self, data):
        n = data.draw(st.integers(1, 6))
        # past 64 entries, the index over them spans two bitset words
        cubes = data.draw(st.lists(cubes_st(n=n), min_size=65, max_size=100))
        ps = data.draw(st.lists(cubes_st(n=n), max_size=12))
        k = len(ps)
        ends = sorted(
            data.draw(st.lists(st.integers(0, len(cubes)), min_size=k, max_size=k))
        )
        spared = data.draw(st.integers(0, 3))

        def logged(log):
            def split(q, p):
                log.append((q, p))
                # every split reports its overlap as a slice; some keep
                # q whole, as a shared overlap does
                if (q.bits + p.bits + q.mask) % 4 < spared:
                    return None, [intersect(q, p)]
                return disjoint_sharp(q, p), [intersect(q, p)]

            return split

        want_log, got_log = [], []
        want_cuts = [(p, end, []) for p, end in zip(ps, ends)]
        got_cuts = [(p, end, []) for p, end in zip(ps, ends)]
        want = rescan_subtract(cubes, want_cuts, logged(want_log))
        got = partial_mod._split_late(n, cubes, got_cuts, logged(got_log))
        assert got == want
        assert got_log == want_log
        assert [f for _, _, f in got_cuts] == [f for _, _, f in want_cuts]
