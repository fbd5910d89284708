import random
import stat
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ALL_CONFIGS,
    FIXTURES,
    covers_st,
    crowded_covers_st,
    function_specs_st,
    quartered_spec,
)
from dsopforge import (
    ContractViolation,
    Cover,
    Cube,
    DimensionMismatch,
    FunctionSpec,
    MinimizerBackend,
    MinimizerBackendError,
    build_sop,
    contains,
    cover_contains_cube,
    cover_intersects_cube,
    cover_point_mask,
    disjoint_sharp,
    dsop,
    expand_cube,
    intersect,
    irredundant,
    normalize,
    parse_pla,
    split_outputs,
)
from dsopforge import minimize
from dsopforge.covers import CubeIndex, slots_of
from dsopforge.exact import point_mask


def c(s):
    return Cube.from_string(s)


def cov(*strings, n=None):
    return Cover.from_strings(strings, n=n)


def reference_expand(p, valid, inside=None):
    """Greedy ascending expand that tests each whole raised cube
    against the point set of `valid`, or the point mask `inside`."""
    if inside is None:
        inside = cover_point_mask(valid)
    mask, bits = p.mask, p.bits
    for i in range(p.n):
        b = 1 << i
        if not mask & b:
            continue
        trial = Cube(p.n, mask & ~b, bits & ~b)
        if point_mask(trial) & ~inside == 0:
            mask, bits = trial.mask, trial.bits
    return Cube(p.n, mask, bits)


def reference_irredundant(cover, must_cover):
    """The scan-based irredundant: each probe cofactors the whole rest
    of the cover, and every must_cover cube is tested for a meeting."""
    n = cover.n
    cubes = list(cover.cubes)
    alive = [True] * len(cubes)
    order = sorted(range(len(cubes)), key=lambda i: (cubes[i].dimension, i))
    for idx in order:
        c = cubes[idx]
        alive[idx] = False
        rest = Cover(n, tuple(d for j, d in enumerate(cubes) if alive[j]))
        for m in must_cover.cubes:
            if (m.mask & c.mask) & (m.bits ^ c.bits):
                continue
            if not cover_contains_cube(rest, intersect(m, c)):
                alive[idx] = True
                break
    return Cover(n, tuple(c for i, c in enumerate(cubes) if alive[i]))


def subcube(data, base):
    """A drawn subcube of `base`: some of its free variables bound."""
    top = (1 << base.n) - 1
    extra = data.draw(st.integers(0, top)) & ~base.mask
    values = data.draw(st.integers(0, top)) & extra
    return Cube(base.n, base.mask | extra, base.bits | values)


def refuted(x, care):
    """x bound against each cube of `care` it meets, so that it meets
    none; None when x lies inside one, with no variable left to bind."""
    for q in care:
        if (q.mask & x.mask) & (q.bits ^ x.bits):
            continue
        free = q.mask & ~x.mask
        if not free:
            return None
        b = free & -free
        x = Cube(x.n, x.mask | b, x.bits | (b & ~q.bits))
    return x


@st.composite
def specs_with_off_st(draw, max_n=70):
    """A function and a list of cubes mixing ones that meet its on+dc
    (subcubes of its cubes) with ones that do not (mirrors of its cubes
    across a literal, bound off on+dc). The cubes bind about one
    variable in four, so that at n=70 expand probes still meet cubes."""
    n = draw(st.integers(1, max_n))
    top = (1 << n) - 1

    def sparse():
        mask = draw(st.integers(0, top)) & draw(st.integers(0, top))
        return Cube(n, mask, draw(st.integers(0, top)) & mask)

    on = [sparse() for _ in range(draw(st.integers(1, 8)))]
    dc = [sparse() for _ in range(draw(st.integers(0, 3)))]
    care = on + dc
    off = []
    for _ in range(draw(st.integers(0, 10))):
        base = draw(st.sampled_from(care))
        if draw(st.booleans()):
            extra = draw(st.integers(0, top)) & ~base.mask
            bits = draw(st.integers(0, top)) & extra
            off.append(Cube(n, base.mask | extra, base.bits | bits))
        elif base.mask:
            bound = [i for i in range(n) if base.mask >> i & 1]
            b = 1 << draw(st.sampled_from(bound))
            x = refuted(Cube(n, base.mask, base.bits ^ b), care)
            if x is not None:
                off.append(x)
    return FunctionSpec(n, Cover(n, tuple(on)), Cover(n, tuple(dc))), off


def cut(g, x):
    """The pieces of g outside x."""
    return disjoint_sharp(g, x) if intersect(g, x) is not None else [g]


@st.composite
def care_triples_st(draw, max_n=24):
    """(f, off, care) with f's on+dc exactly care minus off, as the
    selection loop builds them: care and off are drawn, the pieces of
    care's cubes outside every off cube are dealt into on and dc, and
    dc is empty in about half the cases. The cubes bind each variable
    with chance 7/16, so that wide probes still meet cubes."""
    n = draw(st.integers(1, max_n))
    top = (1 << n) - 1

    def sparse():
        mask = draw(st.integers(0, top)) & draw(st.integers(0, top))
        mask |= draw(st.integers(0, top)) & draw(st.integers(0, top))
        return Cube(n, mask, draw(st.integers(0, top)) & mask)

    care = [sparse() for _ in range(draw(st.integers(1, 5)))]
    off = []
    for _ in range(draw(st.integers(0, 5))):
        x = sparse()
        if draw(st.booleans()):
            # a cube meeting care, which cuts pieces out of it
            base = draw(st.sampled_from(care))
            x = Cube(n, base.mask | x.mask, base.bits | x.bits & ~base.mask)
        off.append(x)
    pieces = []
    for q in care:
        frags = [q]
        for x in off:
            frags = [r for g in frags for r in cut(g, x)]
        pieces += frags
    with_dc = draw(st.booleans())
    on, dc = [], []
    for r in pieces:
        (dc if with_dc and draw(st.booleans()) else on).append(r)
    f = FunctionSpec(n, Cover(n, tuple(on)), Cover(n, tuple(dc)))
    return f, off, Cover(n, tuple(care))


def script(tmp_path, body, name="fakemin.py"):
    path = tmp_path / name
    path.write_text("#!/usr/bin/env python3\n" + textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IMODE(0o755))
    return str(path)


def printing(tmp_path, rows):
    """A minimizer that prints a fixed 3-input PLA whatever it is given."""
    lines = [".i 3", ".o 1", *rows, ".e"]
    return script(tmp_path, "".join(f"print({s!r})\n" for s in lines))


class TestExpand:
    def test_frees_lowest_variables_first(self):
        # both 0-0- and 01-- are reachable; the ascending scan frees x1
        # before it ever considers x2, so 0-0- wins
        assert expand_cube(c("0100"), cov("0-0-", "01--")) == c("0-0-")

    def test_grows_to_universe_when_valid_is_tautology(self):
        assert expand_cube(c("01"), cov("0-", "1-")) == c("--")

    def test_unexpandable_cube_is_unchanged(self):
        # not a copy: the seed itself, with its keys already found
        p = c("01-")
        assert expand_cube(p, cov("01-", "1-1")) is p

    def test_seed_outside_valid_rejected(self):
        with pytest.raises(ContractViolation):
            expand_cube(c("11"), cov("0-"))

    @given(function_specs_st(max_n=8))
    def test_result_contains_seed_and_stays_valid(self, f):
        valid = Cover(f.n, f.on.cubes + f.dc.cubes)
        seed = f.on.cubes[0]
        out = expand_cube(seed, valid)
        assert out.mask & ~seed.mask == 0, "expansion only frees literals"
        assert point_mask(seed) & ~point_mask(out) == 0
        assert cover_contains_cube(valid, out)

    @given(st.integers(1, 8), st.data())
    def test_mirror_probe_matches_whole_cube_reference(self, n, data):
        valid = data.draw(covers_st(n=n, min_cubes=1, max_cubes=8))
        # any subcube of a valid cube is a legal seed; build_sop expands
        # every seed against one index over `valid`
        index = CubeIndex(n, valid.cubes)
        for _ in range(data.draw(st.integers(1, 4))):
            seed = subcube(data, data.draw(st.sampled_from(valid.cubes)))
            want = reference_expand(seed, valid)
            assert expand_cube(seed, valid) == want
            out = expand_cube(seed, valid, index)
            assert out == want
            # the seed itself comes back exactly when nothing is freed
            assert (out is seed) == (out == seed)

    @given(specs_with_off_st())
    @settings(max_examples=150)
    def test_refuters_change_no_expansion(self, case):
        f, off = case
        valid = f.care_cover()
        k = len(valid.cubes)
        index = CubeIndex(f.n, valid.cubes + tuple(off))
        index.live = (1 << k) - 1
        refute = sum(
            1 << s
            for s, x in enumerate(off, k)
            if not cover_intersects_cube(valid, x)
        )
        plain = CubeIndex(f.n, valid.cubes)
        for seed in f.on.cubes:
            want = expand_cube(seed, valid, plain)
            assert expand_cube(seed, valid, index, refute) == want

    def test_probe_meeting_a_refuter_runs_no_containment_check(self, monkeypatch):
        # freeing x0 of 0-- probes the mirror 1--, which meets the valid
        # 1-0 and the refuter 1-1: it fails on the refuter alone, so the
        # one containment check left is the entry check of 0-- itself
        valid = cov("0--", "1-0")
        index = CubeIndex(3, valid.cubes + (c("1-1"),))
        index.live = 0b011
        calls = []
        real = minimize._slots_contain

        def counting(index, slots, mask):
            calls.append(mask)
            return real(index, slots, mask)

        monkeypatch.setattr(minimize, "_slots_contain", counting)
        assert expand_cube(c("0--"), valid, index, 0b100) == c("0--")
        assert calls == [c("0--").mask]
        calls.clear()
        assert expand_cube(c("0--"), valid, index) == c("0--")
        assert len(calls) == 2

    @pytest.mark.parametrize("refute", [0b001, 0b1000], ids=["live", "missing"])
    def test_refute_must_name_indexed_slots_that_are_not_live(self, refute):
        valid = cov("0--", "1-0")
        index = CubeIndex(3, valid.cubes + (c("1-1"),))
        index.live = 0b011
        with pytest.raises(ContractViolation, match="refute"):
            expand_cube(c("0--"), valid, index, refute)

    @given(care_triples_st(max_n=10))
    @settings(max_examples=150)
    def test_refuters_meeting_valid_cut_them_out_of_the_region(self, case):
        # build_sop's care path: every off cube refutes, also one that
        # meets care, and the region is care minus the off cubes
        f, off, care = case
        k = len(care.cubes)
        index = CubeIndex(f.n, care.cubes + tuple(off))
        index.live = (1 << k) - 1
        refute = ((1 << len(off)) - 1) << k
        inside = cover_point_mask(f.care_cover())
        for seed in f.on.cubes:
            want = reference_expand(seed, None, inside)
            assert expand_cube(seed, care, index, refute) == want

    def test_seed_meeting_a_refuter_rejected(self):
        # 00- meets the valid 0--, as build_sop's care path allows, so
        # only the seed's own meeting with it is caught
        valid = cov("0--")
        index = CubeIndex(3, valid.cubes + (c("00-"),))
        index.live = 0b01
        assert expand_cube(c("01-"), valid, index, 0b10) == c("01-")
        with pytest.raises(ContractViolation, match="meets a refuter"):
            expand_cube(c("000"), valid, index, 0b10)

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expand_cube(c("01"), cov("01-"))

    def test_index_width_mismatch(self):
        valid = cov("01", "1-")
        with pytest.raises(DimensionMismatch):
            expand_cube(c("01"), valid, CubeIndex(3, [c("01-")]))


class TestIrredundant:
    def test_drops_duplicate(self):
        out = irredundant(cov("0-", "0-"), cov("0-"))
        assert out.to_strings() == ["0-"]

    def test_keeps_both_halves(self):
        out = irredundant(cov("0-", "1-"), cov("0-", "1-"))
        assert sorted(out.to_strings()) == ["0-", "1-"]

    def test_drops_cube_covered_elsewhere(self):
        # 01 lies inside 0-; only the on-part matters
        out = irredundant(cov("0-", "01"), cov("0-"))
        assert out.to_strings() == ["0-"]

    @given(function_specs_st(max_n=7))
    def test_still_covers_required_points(self, f):
        full = Cover(f.n, f.on.cubes + f.dc.cubes)
        out = irredundant(full, f.on)
        assert set(out.cubes) <= set(full.cubes)
        assert cover_point_mask(f.on) & ~cover_point_mask(out) == 0

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatch):
            irredundant(cov("0-"), cov("0--"))

    @given(crowded_covers_st(max_n=7, max_cubes=80), st.data())
    def test_indexed_probe_matches_scan_reference(self, cover, data):
        # must_cover mixes subcubes of cover cubes, which the cover
        # holds, with free draws, which it may not
        must = [
            subcube(data, data.draw(st.sampled_from(cover.cubes)))
            for _ in range(data.draw(st.integers(0, 8)) if cover.cubes else 0)
        ]
        must += data.draw(covers_st(n=cover.n, max_cubes=3)).cubes
        must = Cover(cover.n, tuple(data.draw(st.permutations(must))))
        out = irredundant(cover, must)
        assert out.cubes == reference_irredundant(cover, must).cubes


    @given(covers_st(max_n=7, min_cubes=1, max_cubes=8), st.data())
    def test_no_must_cover_matches_the_on_set_the_cover_lies_in(self, on, data):
        # implicants of on: subcubes of its cubes, some expanded across
        # several of them
        cubes = []
        for _ in range(data.draw(st.integers(0, 12))):
            x = subcube(data, data.draw(st.sampled_from(on.cubes)))
            cubes.append(expand_cube(x, on) if data.draw(st.booleans()) else x)
        cover = Cover(on.n, tuple(data.draw(st.permutations(cubes))))
        out = irredundant(cover)
        assert out == irredundant(cover, None) == irredundant(cover, on)
        assert out.cubes == reference_irredundant(cover, on).cubes
        assert cover_point_mask(out) == cover_point_mask(cover)

    @given(function_specs_st(max_n=8, max_on=6, max_dc=4), st.data())
    def test_dc_probe_matches_the_per_on_cube_rule(self, f, data):
        # implicants of on+dc, with on and dc free to overlap: subcubes
        # of their cubes, some expanded across several. A candidate
        # goes on one probe against the rest plus dc, and one per on
        # cube meeting a dc cube that meets it; that must keep what
        # probing every on cube keeps, order included
        care = f.care_cover()
        cubes = []
        for _ in range(data.draw(st.integers(0, 14))):
            x = subcube(data, data.draw(st.sampled_from(care.cubes)))
            cubes.append(expand_cube(x, care) if data.draw(st.booleans()) else x)
        cover = Cover(f.n, tuple(data.draw(st.permutations(cubes))))
        out = irredundant(cover, f.on, dc=f.dc)
        assert out.cubes == reference_irredundant(cover, f.on).cubes

    def test_dc_width_mismatch(self):
        with pytest.raises(DimensionMismatch):
            irredundant(cov("0-"), cov("0-"), dc=cov("0--"))

    def test_dc_needs_must_cover(self):
        with pytest.raises(ContractViolation):
            irredundant(cov("0-"), dc=cov("1-"))


class TestBackendConfig:
    def test_builtin_and_external_describe(self):
        assert MinimizerBackend.builtin().describe() == "builtin"
        assert MinimizerBackend.external("/bin/x").describe() == "external:/bin/x"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MinimizerBackend(kind="magic")

    def test_external_needs_path(self):
        with pytest.raises(ValueError):
            MinimizerBackend(kind="external")

    def test_identity_returns_normalized_on(self):
        f = FunctionSpec(3, cov("01-", "011", "1--"), cov("000"))
        out = build_sop(f, MinimizerBackend.identity())
        assert out == normalize(f.on)


class TestBuiltin:
    def test_merges_adjacent_cubes(self):
        f = FunctionSpec(2, cov("00", "01"))
        assert build_sop(f).to_strings() == ["0-"]

    def test_uses_dont_cares_to_grow(self):
        f = FunctionSpec(2, cov("00"), cov("01"))
        assert build_sop(f).to_strings() == ["0-"]

    def test_empty_on_set(self):
        f = FunctionSpec(2, Cover(2))
        assert len(build_sop(f)) == 0

    @given(function_specs_st(max_n=8))
    def test_covers_on_within_care_and_never_grows(self, f):
        out = build_sop(f)
        care = Cover(f.n, f.on.cubes + f.dc.cubes)
        on_mask = cover_point_mask(f.on)
        assert on_mask & ~cover_point_mask(out) == 0
        for p in out.cubes:
            assert cover_contains_cube(care, p)
        assert len(out) <= len(normalize(f.on))

    @given(function_specs_st(max_n=8))
    def test_no_cube_lives_on_dont_cares_alone(self, f):
        for p in build_sop(f).cubes:
            assert cover_intersects_cube(f.on, p)

    @given(function_specs_st(max_n=7))
    def test_deterministic(self, f):
        assert build_sop(f) == build_sop(f)

    def test_one_expand_pass_and_one_irredundant_pass(self, monkeypatch):
        # the expand pass shrinks 00, 01 to 0-; a second round would
        # expand 0- again and rerun irredundant, to the same cover
        calls = {"expand_cube": 0, "irredundant": 0}
        for name in calls:
            original = getattr(minimize, name)

            def counted(*args, name=name, original=original, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(minimize, name, counted)
        assert build_sop(FunctionSpec(2, cov("00", "01"))).to_strings() == ["0-"]
        assert calls == {"expand_cube": 2, "irredundant": 1}

    @given(specs_with_off_st())
    @settings(max_examples=150)
    def test_off_cubes_change_nothing(self, case):
        # the cubes meeting on+dc are not refuters, and build_sop finds
        # them itself; the others only cut probes short
        f, off = case
        assert build_sop(f, off=off).cubes == build_sop(f).cubes

    def test_off_cubes_meeting_the_care_set_refute_nothing(self, monkeypatch):
        # 11- meets the dc cube 1-0, so it may not refute the probe of
        # 1-- that 1-1 refutes
        f = FunctionSpec(3, cov("0--"), cov("1-0"))
        calls = []
        real = minimize._slots_contain

        def counting(index, slots, mask):
            calls.append(mask)
            return real(index, slots, mask)

        monkeypatch.setattr(minimize, "_slots_contain", counting)
        want = build_sop(f)
        plain = len(calls)
        for off, fewer in (([c("11-")], 0), ([c("1-1"), c("11-")], 1)):
            calls.clear()
            assert build_sop(f, off=off) == want
            assert len(calls) == plain - fewer

    @given(care_triples_st())
    @settings(max_examples=200)
    def test_care_changes_nothing(self, case):
        # care minus off is on+dc, so "inside care and meeting no off
        # cube" is "inside on+dc": the same probes, the same cover
        f, off, care = case
        want = build_sop(f, off=off)
        assert build_sop(f, off=off, care=care) == want
        assert want == build_sop(f)

    @given(function_specs_st(max_n=8, max_on=8))
    def test_irredundant_answers_are_the_on_sets(self, f):
        # build_sop trims with dc, one probe per candidate where no on
        # cube meets a dc cube; that must keep the cubes probing every
        # on cube keeps, with or without a dc-set
        on = normalize(f.on)
        valid = f.care_cover()
        expanded = Cover(f.n, tuple(expand_cube(x, valid) for x in on.cubes))
        assert build_sop(f) == irredundant(normalize(expanded), on)

    def test_a_cube_holding_only_dc_points_of_its_own_goes(self):
        # 11 expands to -1 over the dc cube; 1- covers its on-point 11,
        # so -1 goes, though its dc-point 01 is covered nowhere else
        f = FunctionSpec(2, cov("11", "10"), cov("-1"))
        assert build_sop(f).to_strings() == ["1-"]

    def test_overlapping_on_and_dc_rows_keep_the_per_on_cube_covers(
        self, monkeypatch
    ):
        # every output's dc row overlaps an on row, so pass 1 has on
        # cubes meeting dc cubes and probes them on their own; the
        # covers must be those of probing every on cube, without dc
        specs = split_outputs(parse_pla((FIXTURES / "ondc_overlap.pla").read_text()))
        for f in specs:
            assert any(cover_intersects_cube(f.dc, m) for m in f.on.cubes)
        want = [dsop(f, cfg) for f in specs for cfg in ALL_CONFIGS]
        real = minimize.irredundant

        def per_on_cube(cover, must_cover=None, *, dc=None):
            return real(cover, must_cover)

        monkeypatch.setattr(minimize, "irredundant", per_on_cube)
        assert [dsop(f, cfg) for f in specs for cfg in ALL_CONFIGS] == want

    def test_care_probes_ask_its_cubes_not_the_fragments(self, monkeypatch):
        # on+dc is 0-- minus 00-, handed over as the fragments 010 and
        # 011; with care, every probe asks 0-- (or, in irredundant, the
        # empty rest), and the refuter 00- meets it
        f = FunctionSpec(3, cov("010", "011"))
        asked = []
        real = minimize._slots_contain

        def recording(index, slots, mask):
            asked.append([index.cubes[s] for s in slots_of(slots)])
            return real(index, slots, mask)

        monkeypatch.setattr(minimize, "_slots_contain", recording)
        want = build_sop(f, off=[c("00-")])
        assert want.to_strings() == ["01-"]
        assert [c("010")] in asked
        asked.clear()
        assert build_sop(f, off=[c("00-")], care=cov("0--")) == want
        assert asked and all(x in ([], [c("0--")]) for x in asked)

    def test_identity_backend_ignores_care(self):
        f = FunctionSpec(3, cov("01-", "011"))
        identity = MinimizerBackend.identity()
        out = build_sop(f, identity, off=[c("00-")], care=cov("0--"))
        assert out == normalize(f.on)

    def test_identity_backend_ignores_off(self):
        f = FunctionSpec(3, cov("0--", "00-"), cov("1-0"))
        identity = MinimizerBackend.identity()
        assert build_sop(f, identity, off=[c("1-1")]) == normalize(f.on)

    @given(function_specs_st(max_n=8))
    def test_one_round_is_a_fixed_point(self, f):
        # why the builtin needs no second round: with no REDUCE step,
        # expand and irredundant both leave their own output unchanged
        sop = build_sop(f)
        valid = f.care_cover()
        for r in sop.cubes:
            assert expand_cube(r, valid) == r
        assert irredundant(sop, normalize(f.on)) == sop

    @pytest.mark.parametrize("backend", ["builtin", "identity"])
    @given(f=function_specs_st(max_n=7, max_on=8))
    def test_result_is_absorption_free(self, backend, f):
        # the selection loop reads weight -1 as "isolated", which holds
        # only when no cube of the SOP equals or contains another
        cubes = build_sop(f, MinimizerBackend(backend)).cubes
        for i, p in enumerate(cubes):
            for j, q in enumerate(cubes):
                assert i == j or not contains(p, q)


class TestExternal:
    def test_passthrough_equals_normalized_on(self, tmp_path):
        path = script(
            tmp_path,
            """
            import sys
            sys.stdout.write(open(sys.argv[1]).read())
            """,
        )
        f = FunctionSpec(3, cov("01-", "011", "1-1"), cov("000"))
        out = build_sop(f, MinimizerBackend.external(path))
        assert out == normalize(f.on)

    def test_missing_binary(self):
        f = FunctionSpec(2, cov("01"))
        with pytest.raises(MinimizerBackendError):
            build_sop(f, MinimizerBackend.external("/no/such/minimizer"))

    def test_nonzero_exit(self, tmp_path):
        path = script(tmp_path, "import sys\nsys.exit(3)\n")
        f = FunctionSpec(2, cov("01"))
        with pytest.raises(MinimizerBackendError, match="exit"):
            build_sop(f, MinimizerBackend.external(path))

    def test_garbage_output(self, tmp_path):
        path = script(tmp_path, "print('this is not a table')\n")
        f = FunctionSpec(2, cov("01"))
        with pytest.raises(MinimizerBackendError):
            build_sop(f, MinimizerBackend.external(path))

    def test_wrong_width_output(self, tmp_path):
        path = script(
            tmp_path,
            """
            print(".i 3")
            print(".o 1")
            print("010 1")
            print(".e")
            """,
        )
        f = FunctionSpec(2, cov("01"))
        with pytest.raises(MinimizerBackendError, match="input"):
            build_sop(f, MinimizerBackend.external(path))

    @pytest.mark.parametrize(
        "rows, fault",
        [
            (["--- 1"], "cube --- covers points outside on\\+dc"),
            (["11- 1"], "cube 0-1 is an on cube the result does not cover"),
        ],
    )
    def test_result_breaking_the_contract_names_the_cube(self, tmp_path, rows, fault):
        path = printing(tmp_path, rows)
        f = FunctionSpec(3, cov("11-", "0-1"), cov("000"))
        with pytest.raises(MinimizerBackendError, match=fault):
            build_sop(f, MinimizerBackend.external(path))

    def test_result_check_asks_only_the_cubes_meeting_each_cube(
        self, tmp_path, monkeypatch
    ):
        # the check asks an index over on+dc about each result cube,
        # and one over the result about each on cube: the slots handed
        # to the containment check per cube stay flat as k grows, where
        # a scan of the other cover hands over 87.5, 175 and 350
        path = tmp_path / "passthrough"
        path.write_text('#!/bin/sh\ncat "$1"\n')
        path.chmod(path.stat().st_mode | stat.S_IMODE(0o755))
        backend = MinimizerBackend.external(str(path))
        handed = [0, 0]
        real = minimize._slots_contain

        def counting(index, slots, mask):
            handed[0] += 1
            handed[1] += slots.bit_count()
            return real(index, slots, mask)

        monkeypatch.setattr(minimize, "_slots_contain", counting)
        per_cube = []
        for k in (25, 50, 100):
            f = quartered_spec(random.Random(k), 20, k)
            handed[:] = [0, 0]
            sop = build_sop(f, backend)
            assert sop == normalize(f.on)
            checked = len(sop) + len(f.on)
            assert handed[0] == checked
            per_cube.append(handed[1] / checked)
        assert max(per_cube) <= 2 * per_cube[0], per_cube

    def test_dc_only_cubes_are_allowed(self, tmp_path):
        path = printing(tmp_path, ["11- 1", "0-1 1", "000 1"])
        f = FunctionSpec(3, cov("11-", "0-1"), cov("000"))
        out = build_sop(f, MinimizerBackend.external(path))
        assert out == cov("11-", "0-1", "000")
