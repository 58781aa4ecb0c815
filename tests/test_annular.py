"""Annular families, partitioned permutations, and inflation."""

import gc
import itertools
import json

import pytest
from hypothesis import given, strategies as st

from ncfree import annular
from ncfree.annular import (
    ENUMERATION_BOUND,
    PAIRING_BOUND,
    AnnulusShape,
    Composition,
    PartitionedPermutation,
    _nc_pairings0,
    count_snc_pairings,
    element_lines,
    element_record,
    enumerate_nc,
    enumerate_psnc,
    enumerate_snc,
    fatten,
    gamma_pq,
    is_nc_disc,
    is_snc,
    kreweras,
    kreweras_cycle_ids,
    main_summand_filter,
    memo_info,
    pp_leq,
    pp_product,
    tau_of,
)
from ncfree.cumulants import clear_caches, semicircular_square_kappa, snc_closed_form
from ncfree.perm import (
    Permutation,
    SetPartition,
    _compose0,
    _cycle_count0,
    _cycle_labels0,
    _gamma0,
    _is_nc0,
    _separated,
    compose,
    full_cycle,
)
from ncfree.spaces import catalan


def annular_count(p, q):
    """Closed form for |S_NC(p, q)|, cross-checked against enumeration."""
    from math import comb

    return 2 * p * q * comb(2 * p - 1, p - 1) * comb(2 * q - 1, q - 1) // (p + q)


def filtered(n, p):
    """The S_n filter the generators replaced: every permutation of [n]
    that ``_is_nc0`` accepts (disc when p == n), in lexicographic order."""
    return tuple(
        Permutation(v + 1 for v in img0)
        for img0 in itertools.permutations(range(n))
        if _is_nc0(img0, p)
    )


def psnc_of_total(total):
    """Every psnc element of every shape of the total, shape by shape."""
    return [vp for p in range(1, total) for vp in enumerate_psnc(AnnulusShape(p, total - p))]


def pairings0(points):
    """All perfect matchings of an even 0-based point list."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for tail in pairings0(remaining):
            tail.append((first, partner))
            yield tail


def filtered_pairing_complements(p, q):
    """The filter ``count_snc_pairings`` replaced: over all (p+q-1)!!
    pairings, keep those with a through pair and (p+q)/2 complement cycles
    (the annular membership definition, since a pairing has (p+q)/2 cycles
    of its own); return the complement cycle labels of each member."""
    n = p + q
    gamma0 = _gamma0(p, q)
    out = []
    for pairs in pairings0(tuple(range(n))):
        img0 = [0] * n
        through = False
        for a, b in pairs:
            img0[a] = b
            img0[b] = a
            if (a < p) != (b < p):
                through = True
        if not through:
            continue
        k0 = _compose0(img0, gamma0)  # pairings are involutions
        if _cycle_count0(k0) == n // 2:
            out.append(_cycle_labels0(k0)[0])
    return out


class TestShapesAndCompositions:
    def test_gamma(self):
        assert gamma_pq(2, 1).cycles == ((1, 2), (3,))
        assert gamma_pq(3, 2) == Permutation.parse("(1,2,3)(4,5)")
        assert AnnulusShape(3, 2).total == 5

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AnnulusShape(0, 2)

    def test_composition_basics(self):
        comp = Composition((2, 3, 4))
        assert comp.total == 9
        assert comp.part_count == 3
        assert comp.boundary_points == (2, 5, 9)

    def test_split_composition(self):
        comp = Composition((1, 2, 2), split=2)
        assert (comp.p, comp.q) == (3, 2)
        assert comp.shape() == AnnulusShape(3, 2)

    def test_split_validation(self):
        with pytest.raises(ValueError):
            Composition((1, 2), split=0)
        with pytest.raises(ValueError):
            Composition((1, 2), split=2)
        with pytest.raises(ValueError):
            Composition((1, 0, 2))

    def test_sizes_must_be_ints(self):
        for bad in (1.5, 2.0, "2"):
            with pytest.raises(ValueError):
                AnnulusShape(bad, 1)
            with pytest.raises(ValueError):
                AnnulusShape(1, bad)
            with pytest.raises(ValueError):
                Composition((bad, 2))
            with pytest.raises(ValueError):
                Composition((1, 2), split=bad)
        # bool is an int, here as elsewhere in the library
        assert AnnulusShape(True, 2).total == 3
        assert Composition((2, True), split=True).boundary_points == (2, 3)

    def test_unsplit_has_no_circles(self):
        with pytest.raises(ValueError):
            Composition((1, 2)).shape()

    def test_tau_is_the_interval_permutation(self):
        assert tau_of(Composition((2, 3))) == Permutation.parse("(1,2)(3,4,5)")


class TestDiscFamily:
    def test_counts_are_catalan(self):
        for n in range(1, 13):
            assert len(enumerate_nc(n)) == catalan(n)

    def test_generator_matches_the_filter(self):
        for n in range(1, 9):
            assert enumerate_nc(n) == filtered(n, n), n

    def test_pairing_generator(self):
        for n in range(2, 15, 2):
            images = _nc_pairings0(n)
            assert len(set(images)) == len(images) == catalan(n // 2)
            for img in images:
                assert all(img[i] != i and img[img[i]] == i for i in range(n))
                assert _is_nc0(img, n)

    def test_membership(self):
        assert is_nc_disc(full_cycle(4))
        assert is_nc_disc(Permutation.parse("(1,2)(3,4)"))
        assert not is_nc_disc(Permutation.parse("(1,3)(2,4)"))

    def test_enumeration_is_sorted_and_cached(self):
        a = enumerate_nc(5)
        assert list(a) == sorted(a)
        assert enumerate_nc(5) is a

    def test_bound_guard(self, monkeypatch):
        with pytest.raises(ValueError):
            enumerate_nc(ENUMERATION_BOUND + 1)
        monkeypatch.setenv("NCFREE_MAX_TOTAL", "5")
        with pytest.raises(ValueError):
            enumerate_nc(6)


class TestAnnularFamily:
    def test_known_counts(self):
        for total in range(2, 10):
            for p in range(1, total):
                count = len(enumerate_snc(AnnulusShape(p, total - p)))
                assert count == annular_count(p, total - p) == snc_closed_form(p, total - p)

    def test_generator_matches_the_filter(self):
        for total in range(2, 9):
            for p in range(1, total):
                assert enumerate_snc(AnnulusShape(p, total - p)) == filtered(total, p), p

    def test_members_need_a_through_cycle(self):
        # gamma itself stays on its own circles, so it is not annular.
        shape = AnnulusShape(2, 2)
        assert not is_snc(gamma_pq(2, 2), shape)
        assert is_snc(Permutation.parse("(1,2,3,4)"), shape)

    def test_symmetry_in_the_circles(self):
        assert len(enumerate_snc(AnnulusShape(1, 3))) == len(
            enumerate_snc(AnnulusShape(3, 1))
        )

    def test_disc_crossing_can_be_annular(self):
        a = Permutation.parse("(1,3)(2,4)")
        assert not is_nc_disc(a)
        assert is_snc(a, AnnulusShape(2, 2))


class TestFamilyBuilds:
    """A build pauses the cyclic collector; the psnc shapes of a total share one pool."""

    @pytest.fixture(autouse=True)
    def keep_gc_state(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_build_leaves_the_collector_as_it_found_it(self, enabled):
        (gc.enable if enabled else gc.disable)()
        # __wrapped__ skips the memo, so the family is built again
        assert annular._psnc.__wrapped__(2, 3) == enumerate_psnc(AnnulusShape(2, 3))
        assert gc.isenabled() is enabled

    def test_nested_builds_leave_the_collector_paused(self, monkeypatch):
        seen = []

        def spy(build):
            def call(*args):
                seen.append((build.__name__, gc.isenabled()))
                out = build(*args)
                seen.append((build.__name__, gc.isenabled()))
                return out

            return call

        for name in ("_nc", "_snc"):
            monkeypatch.setattr(annular, name, spy(getattr(annular, name).__wrapped__))
        gc.enable()
        annular._psnc.__wrapped__(2, 3)
        assert gc.isenabled()
        assert sorted(set(seen)) == [("_nc", False), ("_snc", False)]

    def test_a_failed_build_resumes_the_collector(self, monkeypatch):
        def fail(p, q):
            raise RuntimeError("no snc")

        monkeypatch.setattr(annular, "_snc", fail)
        gc.enable()
        with pytest.raises(RuntimeError, match="no snc"):
            annular._psnc.__wrapped__(2, 3)
        assert gc.isenabled()

    def test_memo_info(self):
        shape = AnnulusShape(2, 3)
        enumerate_psnc(shape)
        before = memo_info()
        assert set(before) == {"nc", "snc", "psnc", "pools"}
        assert all(memo["currsize"] >= 1 and memo["maxsize"] is None for memo in before.values())
        enumerate_psnc(shape)
        clear_caches()  # empties the cumulant memos only
        after = memo_info()
        assert after["psnc"]["hits"] == before["psnc"]["hits"] + 1
        assert after["pools"] == before["pools"]  # a memo hit reads no pool
        assert all(after[name]["currsize"] == memo["currsize"] for name, memo in before.items())


class TestKreweras:
    def test_complement_is_inverse_times_gamma(self):
        shape = AnnulusShape(2, 2)
        a = Permutation.parse("(1,2,3,4)")
        assert kreweras(shape, a) == compose(a.inverse(), gamma_pq(2, 2))

    def test_cycle_ids_label_complement_cycles(self):
        shape = AnnulusShape(2, 1)
        ids = kreweras_cycle_ids(shape, gamma_pq(2, 1))
        assert len(ids) == 3 and len(set(ids)) == 3

    def test_cycle_ids_reject_a_size_mismatch(self):
        with pytest.raises(ValueError):
            kreweras_cycle_ids(AnnulusShape(2, 1), Permutation.identity(4))

    def test_annular_complement_identity(self):
        # #(a) + #(a^-1 gamma) = p + q for annular members.
        shape = AnnulusShape(3, 2)
        for a in enumerate_snc(shape):
            assert a.cycle_count + kreweras(shape, a).cycle_count == shape.total


class TestPartitionedPermutations:
    def test_partition_must_dominate_cycles(self):
        with pytest.raises(ValueError):
            PartitionedPermutation(
                SetPartition(3, [(1,), (2, 3)]), Permutation.parse("(1,2)(3)")
            )

    def test_disc_constructor(self):
        vp = PartitionedPermutation.disc(Permutation.parse("(1,2)(3)"))
        assert vp.kind == "disc"
        assert vp.partition == SetPartition(3, [(1, 2), (3,)])
        assert vp.length == 1

    def test_tunnel_length_adds_two(self):
        vp = PartitionedPermutation(SetPartition.full(2), Permutation.identity(2))
        assert vp.kind == "tunnel"
        assert vp.length == 2

    def test_block_cycles_groups_by_block(self):
        vp = PartitionedPermutation(
            SetPartition(3, [(1, 3), (2,)]), Permutation.identity(3)
        )
        groups = vp.block_cycles()
        assert ((1,), (3,)) in groups and ((2,),) in groups

    def test_discs_in_snc_order_then_tunnels(self):
        for shape in (AnnulusShape(2, 1), AnnulusShape(2, 3), AnnulusShape(4, 3)):
            family = enumerate_psnc(shape)
            snc = enumerate_snc(shape)
            discs, tunnels = family[: len(snc)], family[len(snc) :]
            assert tuple(vp.perm for vp in discs) == snc
            assert all(vp.kind == "disc" for vp in discs)
            assert tunnels and all(vp.kind == "tunnel" for vp in tunnels)
            perms = [vp.perm for vp in tunnels]
            assert perms == sorted(perms)

    def test_equals_the_block_sorting_construction(self):
        for total in range(2, 8):
            for p in range(1, total):
                shape = AnnulusShape(p, total - p)
                got, want = enumerate_psnc(shape), _psnc_by_sorting(shape)
                assert len(got) == len(want)
                for x, y in zip(got, want):
                    assert x == y and x.perm.cycles == y.perm.cycles
                    assert x.partition.blocks == y.partition.blocks
                    assert x.partition.labels == y.partition.labels

    # the psnc shapes of one total share one pool
    def test_equal_cycles_and_blocks_are_one_tuple(self):
        for total in range(2, 9):
            tuples = [t for vp in psnc_of_total(total) for t in (*vp.perm.cycles, *vp.partition.blocks)]
            assert len({id(t) for t in tuples}) == len(set(tuples)), total

    def test_equal_partitions_are_one_object(self):
        for total in range(2, 8):
            family = psnc_of_total(total)
            assert len({id(vp.partition) for vp in family}) == len({vp.partition.labels for vp in family})

    def test_family_sizes(self):
        assert len(enumerate_psnc(AnnulusShape(1, 1))) == 2
        assert len(enumerate_psnc(AnnulusShape(2, 1))) == 7
        shape = AnnulusShape(2, 2)
        disc = [vp for vp in enumerate_psnc(shape) if vp.kind == "disc"]
        assert len(disc) == annular_count(2, 2)

    def test_constructor_accepts_exactly_the_dominated_pairs(self):
        for n in range(1, 5):
            parts = list(_set_partitions_of(n))
            for image in itertools.permutations(range(1, n + 1)):
                perm = Permutation(image)
                for part in parts:
                    inside = all(any(set(c) <= set(b) for b in part.blocks) for c in perm.cycles)
                    if inside:
                        assert PartitionedPermutation(part, perm).perm == perm
                    else:
                        with pytest.raises(ValueError):
                            PartitionedPermutation(part, perm)

    def test_refusals_keep_their_messages(self):
        with pytest.raises(ValueError, match="^partition and permutation sizes differ$"):
            PartitionedPermutation(SetPartition.full(3), Permutation.identity(2))
        with pytest.raises(ValueError) as info:
            PartitionedPermutation(SetPartition(4, [(1, 2), (3, 4)]), Permutation.parse("(1,3)(2,4)"))
        assert str(info.value) == "cycle (1, 3) is not contained in a block of SetPartition[{1,2}{3,4}]"

    def test_lines_are_the_json_dumps_of_each_record(self):
        for n in range(1, 8):
            family = enumerate_nc(n)
            assert list(element_lines(family)) == [_dumps({"perm": a.cycle_string()}) for a in family]
        for total in range(2, 8):
            for p in range(1, total):
                shape = AnnulusShape(p, total - p)
                family = enumerate_snc(shape)
                assert list(element_lines(family)) == [_dumps({"perm": a.cycle_string()}) for a in family]
                family = enumerate_psnc(shape)
                assert list(element_lines(family)) == [_dumps(element_record(vp)) for vp in family]

    def test_lines_of_members_sharing_a_perm(self):
        # (1, 6): most members are tunnels, in runs that share one perm object
        family = enumerate_psnc(AnnulusShape(1, 6))
        tunnels = family[len(enumerate_snc(AnnulusShape(1, 6))) :]
        assert len({id(vp.perm) for vp in tunnels}) < len(tunnels) / 2
        # the family between two lists that break and repeat its runs
        mixed = [*tunnels[::-3], *family, *tunnels[:50]]
        assert list(element_lines(mixed)) == [_dumps(element_record(vp)) for vp in mixed]

    def test_lines_share_cycle_texts_across_kinds(self):
        # One call over nc, snc and psnc members, so equal cycles arrive as distinct
        # tuples: each nc perm and fresh copy walks its own, a psnc build pools its own.
        members = []
        for total in range(1, 8):
            members.extend(enumerate_nc(total))
            for p in range(1, total):
                shape = AnnulusShape(p, total - p)
                members.extend(enumerate_snc(shape))
                members.extend(enumerate_psnc(shape))
        members.extend(Permutation(x.image) for x in members[::7] if isinstance(x, Permutation))
        mixed = [*reversed(members), *members[::5]]
        want = [_dumps({"perm": x.cycle_string()} if isinstance(x, Permutation) else element_record(x))
                for x in mixed]
        assert list(element_lines(mixed)) == want

    def test_records_round_trip(self):
        for vp in enumerate_psnc(AnnulusShape(2, 1)):
            rec = element_record(vp)
            assert rec["kind"] == vp.kind
            assert Permutation.parse(rec["perm"], size=3) == vp.perm
            assert SetPartition(3, rec["partition"]) == vp.partition


def _dumps(record):
    """The JSON text of one ``ncfree enumerate`` line."""
    return json.dumps(record, separators=(", ", ": "))


def _psnc_by_sorting(shape):
    """The construction ``enumerate_psnc`` replaced, kept as its oracle: the
    discs, then per outer and inner factor and glued pair of cycles a
    tunnel, each partition built by sorting its blocks."""
    p, n = shape.p, shape.total
    out = [PartitionedPermutation(SetPartition(n, a.cycles), a) for a in enumerate_snc(shape)]
    inners = [(tuple(v + p for v in b.image), tuple(tuple(x + p for x in c) for c in b.cycles))
              for b in enumerate_nc(shape.q)]
    for outer in enumerate_nc(p):
        out_cycles = outer.cycles
        for in_image, in_cycles in inners:
            perm = Permutation(outer.image + in_image)
            for i, c1 in enumerate(out_cycles):
                rest = out_cycles[:i] + out_cycles[i + 1 :]
                for j, c2 in enumerate(in_cycles):
                    blocks = (c1 + c2,) + rest + in_cycles[:j] + in_cycles[j + 1 :]
                    out.append(PartitionedPermutation(SetPartition(n, blocks), perm))
    return out


def _set_partitions_of(n):
    """Every set partition of [n], from restricted growth strings."""
    for rgs in itertools.product(range(n), repeat=n):
        if all(rgs[i] <= max(rgs[:i], default=-1) + 1 for i in range(n)):
            yield SetPartition(n, [[i + 1 for i in range(n) if rgs[i] == k] for k in range(max(rgs) + 1)])


def _all_elements(n):
    """Every partitioned permutation of [n]: each cycle inside a block."""
    out = []
    for image in itertools.permutations(range(1, n + 1)):
        perm = Permutation(image)
        for part in _set_partitions_of(n):
            if all(any(set(c) <= set(b) for b in part.blocks) for c in perm.cycles):
                out.append(PartitionedPermutation(part, perm))
    return tuple(out)


def _brute_leq(a, b):
    """a <= b by trying every partitioned permutation as the factor."""
    return any(pp_product(a, c) == b for c in ELEMENTS[a.size])


# Built at import, not inside the strategies: _all_elements(5) (501
# elements) takes about a second, which hypothesis would count as
# input generation and fail its too_slow health check on.
ELEMENTS = {n: _all_elements(n) for n in range(1, 6)}


class TestProductAndOrder:
    def test_product_adds_lengths_or_is_none(self):
        shape = AnnulusShape(2, 1)
        elements = enumerate_psnc(shape)
        for a in elements:
            for b in elements:
                prod = pp_product(a, b)
                if prod is not None:
                    assert prod.length == a.length + b.length

    def test_order_is_witnessed_by_a_product(self):
        shape = AnnulusShape(2, 1)
        elements = enumerate_psnc(shape)
        top = PartitionedPermutation(SetPartition.full(3), gamma_pq(2, 1))
        assert all(pp_leq(vp, top) for vp in elements)
        assert sum(pp_leq(top, vp) for vp in elements) == 1

    def test_tunnels_never_sit_below_discs(self):
        elements = enumerate_psnc(AnnulusShape(2, 1))
        for a in elements:
            for b in elements:
                if a.kind == "tunnel" and b.kind == "disc":
                    assert not pp_leq(a, b)

    def test_order_needs_coarser_witnesses_outside_the_family(self):
        e = Permutation.identity(2)
        a = PartitionedPermutation(SetPartition.singletons(2), e)
        b = PartitionedPermutation(SetPartition.full(2), e)
        assert pp_product(a, b) == b
        assert pp_leq(a, b)
        assert not pp_leq(b, a)
        # the zero witness misses and one merge is due, but no coarser witness reaches b
        a = PartitionedPermutation(SetPartition(4, [(1,), (2,), (3, 4)]), Permutation.identity(4))
        b = PartitionedPermutation(SetPartition(4, [(1, 2, 3), (4,)]), Permutation.identity(4))
        assert not pp_leq(a, b) and not _brute_leq(a, b)

    def test_order_matches_a_witness_search_through_n3(self):
        for n in (1, 2, 3):
            elements = ELEMENTS[n]
            for a in elements:
                for b in elements:
                    assert pp_leq(a, b) == _brute_leq(a, b), (a, b)

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(*[st.sampled_from(ELEMENTS[n])] * 3)))
    def test_order_matches_a_witness_search(self, triple):
        a, b, c = triple
        assert pp_leq(a, b) == _brute_leq(a, b)
        prod = pp_product(a, c)
        if prod is not None:
            assert pp_leq(a, prod)


    @given(st.integers(1, 5).flatmap(lambda n: st.sampled_from(ELEMENTS[n])))
    def test_product_unit(self, a):
        unit = PartitionedPermutation(SetPartition.singletons(a.size), Permutation.identity(a.size))
        assert pp_product(unit, a) == a == pp_product(a, unit)

    @given(st.data())
    def test_product_is_associative(self, data):
        # Random triples rarely compose, so each factor is drawn from the
        # elements that compose with the product so far; the unit always does.
        elements = ELEMENTS[data.draw(st.integers(1, 5))]
        a = data.draw(st.sampled_from(elements))
        b = data.draw(st.sampled_from([x for x in elements if pp_product(a, x) is not None]))
        ab = pp_product(a, b)
        c = data.draw(st.sampled_from([x for x in elements if pp_product(ab, x) is not None]))
        bc = pp_product(b, c)
        assert bc is not None
        assert pp_product(a, bc) == pp_product(ab, c)


def _unit(n):
    return PartitionedPermutation.disc(Permutation.identity(n))


class TestRefusals:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: is_snc(Permutation.identity(2), AnnulusShape(2, 1)), "does not match shape"),
            (lambda: main_summand_filter(AnnulusShape(2, 1), Composition((1, 1, 1), split=1), _unit(3)),
             "does not fill shape"),
            (lambda: main_summand_filter(AnnulusShape(2, 1), Composition((2, 1), split=1), _unit(2)),
             "does not match the shape"),
            (lambda: pp_product(_unit(2), _unit(3)), "size mismatch in partitioned permutation product"),
            (lambda: pp_leq(_unit(2), _unit(3)), "size mismatch in partitioned permutation comparison"),
        ],
        ids=["is_snc-size", "filter-shape", "filter-size", "product-size", "leq-size"],
    )
    def test_refusals(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestMainSummandFilter:
    def test_trivial_grouping_passes_only_the_top(self):
        shape = AnnulusShape(2, 1)
        comp = Composition((1, 1, 1), split=2)
        passing = [
            vp for vp in enumerate_psnc(shape) if main_summand_filter(shape, comp, vp)
        ]
        assert passing == [
            PartitionedPermutation(SetPartition.full(3), gamma_pq(2, 1))
        ]

    def test_one_group_per_circle(self):
        # N = {2, 3}; the complement of (1,3,2) is (1,3)(2) and separates,
        # the other three disc complements each keep 2 and 3 together, and
        # both tunnel complements equal gamma itself, which separates.
        shape = AnnulusShape(2, 1)
        comp = Composition((2, 1), split=1)
        passing = {
            vp for vp in enumerate_psnc(shape) if main_summand_filter(shape, comp, vp)
        }
        e3 = Permutation.identity(3)
        assert passing == {
            PartitionedPermutation.disc(Permutation.parse("(1,3,2)")),
            PartitionedPermutation(SetPartition.full(3), gamma_pq(2, 1)),
            PartitionedPermutation(SetPartition(3, [(1, 3), (2,)]), e3),
            PartitionedPermutation(SetPartition(3, [(1,), (2, 3)]), e3),
        }

    def test_agrees_with_the_complement_cycles(self):
        shape = AnnulusShape(2, 2)
        for parts, split in (((1, 1, 1, 1), 2), ((2, 1, 1), 1), ((1, 1, 2), 2)):
            comp = Composition(parts, split=split)
            points = set(comp.boundary_points)
            for vp in enumerate_psnc(shape):
                cycles = kreweras(shape, vp.perm).cycles
                want = all(len(points.intersection(c)) <= 1 for c in cycles)
                assert main_summand_filter(shape, comp, vp) == want


class TestFattening:
    def test_worked_example(self):
        got = fatten(Permutation.parse("(1,3)(2)"), Composition((2, 3, 4)))
        assert got == Permutation.parse("(1,2,6,7,8,9)(3,4,5)")

    def test_all_singleton_parts_do_nothing(self):
        a = Permutation.parse("(1,3,2)")
        assert fatten(a, Composition((1, 1, 1))) == a

    def test_part_count_must_match(self):
        with pytest.raises(ValueError):
            fatten(Permutation.identity(2), Composition((1, 1, 1)))

    def test_identity_fattens_to_interval_cycles(self):
        comp = Composition((2, 3))
        assert fatten(Permutation.identity(2), comp) == tau_of(comp)

    @given(
        st.integers(2, 4).flatmap(
            lambda r: st.tuples(
                st.permutations(range(1, r + 1)).map(Permutation),
                st.lists(st.integers(1, 3), min_size=r, max_size=r).map(tuple),
            )
        )
    )
    def test_cycle_count_is_preserved(self, case):
        # Every cycle of parts becomes one cycle of letters.
        a, parts = case
        comp = Composition(parts)
        fat = fatten(a, comp)
        assert fat.cycle_count == a.cycle_count
        assert fat.size == comp.total


class TestPairingCounts:
    def test_small_values(self):
        assert count_snc_pairings(1, 1) == 1
        assert count_snc_pairings(2, 2) == 2
        assert count_snc_pairings(3, 1) == 3
        assert count_snc_pairings(1, 3) == 3

    def test_odd_totals_vanish(self):
        assert count_snc_pairings(2, 1) == 0

    def test_each_circle_needs_a_point(self):
        for p, q in ((0, 2), (-1, 3), (2, 0)):
            with pytest.raises(ValueError):
                count_snc_pairings(p, q)

    def test_sizes_past_the_pairing_bound_are_refused(self):
        # Refused before any pairing is generated, odd totals included.
        assert PAIRING_BOUND == 24
        with pytest.raises(ValueError):
            count_snc_pairings(13, 12)
        with pytest.raises(ValueError):
            count_snc_pairings(1, 24, separated_at=(1,))

    def test_separation_filter_reduces_the_count(self):
        full = count_snc_pairings(2, 2)
        sep = count_snc_pairings(2, 2, separated_at=(2, 4))
        assert 0 < sep <= full

    def test_separation_points_must_lie_on_the_annulus(self):
        # Point 0 and negative points used to wrap around to the last ones.
        for bad in ((0, 2), (-3,), (5,), (9,)):
            with pytest.raises(ValueError):
                count_snc_pairings(2, 2, separated_at=bad)
        with pytest.raises(ValueError):
            count_snc_pairings(2, 1, separated_at=(4,))


class TestPairingOracle:
    def test_counts_match_the_filter(self):
        for total in range(2, 13):
            for p in range(1, total):
                q = total - p
                assert count_snc_pairings(p, q) == len(filtered_pairing_complements(p, q))

    def test_separated_counts_match_the_filter(self):
        for total in range(2, 9):
            for p in range(1, total):
                q = total - p
                members = filtered_pairing_complements(p, q)
                for r in range(total + 1):
                    for pts in itertools.combinations(range(1, total + 1), r):
                        want = sum(_separated(labels, pts) for labels in members)
                        assert count_snc_pairings(p, q, separated_at=pts) == want, (p, q, pts)

    def test_squares_match_the_filter(self):
        for p in range(1, 6):
            for q in range(1, 7 - p):
                members = filtered_pairing_complements(2 * p, 2 * q)
                evens = tuple(range(2, 2 * (p + q) + 1, 2))
                want = sum(_separated(labels, evens) for labels in members)
                assert count_snc_pairings(2 * p, 2 * q, separated_at=evens) == want, (p, q)
                assert semicircular_square_kappa(p, q) == want
