"""Permutations, set partitions, and the cycle metric."""

import itertools

import pytest
from hypothesis import given, strategies as st

from ncfree.annular import (
    AnnulusShape,
    PartitionedPermutation,
    gamma_pq,
    has_through_cycle,
    is_nc_disc,
    is_snc,
)
from ncfree.perm import (
    Permutation,
    SetPartition,
    _compose0,
    _composer0,
    _cycle_count0,
    _cycle_labels0,
    _cycles0,
    _gamma0,
    _is_nc0,
    _join0,
    _restricter0,
    _separated,
    _through0,
    compose,
    full_cycle,
    metric_length,
    orbit_partition,
    partition_join,
    restrict,
    separates_points,
)

perms = st.integers(1, 6).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(Permutation)
)


def sized_perms(n):
    return st.permutations(range(1, n + 1)).map(Permutation)


class TestPermutationBasics:
    def test_identity(self):
        e = Permutation.identity(4)
        assert e.image == (1, 2, 3, 4)
        assert e.cycle_count == 4
        assert e.metric_length == 0

    def test_call_and_image(self):
        a = Permutation((2, 3, 1))
        assert (a(1), a(2), a(3)) == (2, 3, 1)

    def test_call_rejects_points_outside_the_ground_set(self):
        # 0 and -1 used to read the image from its end: 3 and 1 here
        a = Permutation.parse("(1,2)(3)")
        for point in (0, -1, 4):
            with pytest.raises(ValueError, match="outside"):
                a(point)

    def test_from_cycles(self):
        a = Permutation.from_cycles(5, [(1, 3), (2, 5, 4)])
        assert a.image == (3, 5, 1, 2, 4)

    def test_from_cycles_rejects_repeats(self):
        with pytest.raises(ValueError):
            Permutation.from_cycles(3, [(1, 2), (2, 3)])

    def test_from_cycles_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Permutation.from_cycles(3, [(1, 4)])

    def test_image_validation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_cycle_string_joins_the_cycles(self):
        for n in range(1, 7):
            for image in itertools.permutations(range(1, n + 1)):
                a = Permutation(image)
                want = "".join("(" + ",".join(map(str, c)) + ")" for c in a.cycles)
                assert a.cycle_string() == want

    def test_cycles_are_canonical(self):
        a = Permutation.parse("(5,2,4)(3,1)")
        assert a.cycles == ((1, 3), (2, 4, 5))

    def test_cycles_of_every_permutation_up_to_six(self):
        def orbit_cycles(image):
            # oracle from the image alone: each orbit walked from its least point, by least points
            out = []
            for pt in range(1, len(image) + 1):
                orbit = [pt]
                while image[orbit[-1] - 1] != pt:
                    orbit.append(image[orbit[-1] - 1])
                if min(orbit) == pt:
                    out.append(tuple(orbit))
            return tuple(out)

        for n in range(1, 7):
            for image in itertools.permutations(range(1, n + 1)):
                a = Permutation(image)
                assert a.cycles == orbit_cycles(image)
                assert all(c[0] == min(c) for c in a.cycles)
                firsts = [c[0] for c in a.cycles]
                assert all(x < y for x, y in zip(firsts, firsts[1:]))
                assert Permutation.from_cycles(n, a.cycles) == a
                assert Permutation.parse(a.cycle_string()) == a

    def test_parse_round_trip(self):
        text = "(1,2,12,9,8)(3,4)(5,10,11)(6)(7)"
        a = Permutation.parse(text)
        assert a.size == 12
        assert a.cycle_string() == text
        assert Permutation.parse(a.cycle_string()) == a

    def test_parse_empty_is_identity(self):
        assert Permutation.parse("", size=3) == Permutation.identity(3)

    def test_parse_pads_fixed_points(self):
        assert Permutation.parse("(1,2)", size=4) == Permutation.from_cycles(
            4, [(1, 2)]
        )

    def test_ordering_is_lexicographic_on_images(self):
        a = Permutation((1, 2, 3))
        b = Permutation((1, 3, 2))
        assert a < b and not b < a


class TestValueSemantics:
    """Equal values built apart compare and hash alike, so sets and dicts collapse them."""

    @pytest.mark.parametrize(
        "build, key",
        [
            ((lambda: Permutation.parse("(1,3)(2,4)"), lambda: Permutation((3, 4, 1, 2))),
             lambda a: a.image),
            ((lambda: SetPartition(4, [(3, 1), (4, 2)]), lambda: SetPartition.of_blocks(4, [(2, 4), (1, 3)])),
             lambda v: (v.size, v.blocks)),
            ((lambda: PartitionedPermutation(SetPartition(3, [(1, 2, 3)]), Permutation.parse("(1,3)(2)")),
              lambda: PartitionedPermutation(SetPartition.full(3), Permutation((3, 2, 1)))),
             lambda vp: (vp.partition, vp.perm)),
        ],
        ids=["Permutation", "SetPartition", "PartitionedPermutation"],
    )
    def test_equal_values_hash_equal(self, build, key):
        a, b = build[0](), build[1]()
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash(key(a))
        assert len({a, b}) == 1
        assert {a: "first", b: "second"} == {a: "second"}

    def test_inverse_is_a_value(self):
        a = Permutation.parse("(1,4,2)(3)")
        first, second = a.inverse(), a.inverse()
        assert first == second and hash(first) == hash(second)
        assert first.image == (2, 4, 3, 1)


class TestComposition:
    def test_convention(self):
        # compose(a, b) applies b first.
        a = Permutation.parse("(1,2)", size=3)
        b = Permutation.parse("(2,3)", size=3)
        assert compose(a, b) == Permutation.parse("(1,2,3)")
        assert a * b == compose(a, b)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation.identity(2), Permutation.identity(3))

    @given(perms)
    def test_inverse_round_trip(self, a):
        e = Permutation.identity(a.size)
        assert compose(a, a.inverse()) == e
        assert compose(a.inverse(), a) == e
        assert a.inverse().inverse() == a

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(*[sized_perms(n)] * 3)))
    def test_associative(self, triple):
        a, b, c = triple
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestMetric:
    def test_full_cycle(self):
        g = full_cycle(4)
        assert g.cycles == ((1, 2, 3, 4),)
        assert g.metric_length == 3

    def test_length_counts_non_fixed_structure(self):
        # |a| = size - number of cycles, the transposition distance.
        assert Permutation.parse("(1,2)(3,4)").metric_length == 2
        assert metric_length(Permutation.identity(5)) == 0

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(*[sized_perms(n)] * 2)))
    def test_triangle_inequality(self, pair):
        a, b = pair
        assert compose(a, b).metric_length <= a.metric_length + b.metric_length

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(*[sized_perms(n)] * 2)))
    def test_conjugation_invariance(self, pair):
        a, b = pair
        conj = compose(compose(b, a), b.inverse())
        assert conj.metric_length == a.metric_length

    @given(perms)
    def test_inverse_preserves_length(self, a):
        assert a.inverse().metric_length == a.metric_length


class TestRestrictionAndSeparation:
    def test_restrict_relabels(self):
        a = Permutation.parse("(1,3,5)(2,4)")
        assert restrict(a, (1, 3, 5)) == Permutation.parse("(1,2,3)")
        assert restrict(a, (2, 4)) == Permutation.parse("(1,2)")

    def test_restrict_is_first_return(self):
        # On a non-invariant set the result is the first-return map.
        c = Permutation.parse("(1,2,3,4,5)")
        assert restrict(c, (2, 4, 5)) == Permutation.parse("(1,2,3)")
        a = Permutation.parse("(1,3,5)(2,4)")
        assert restrict(a, (1, 2)) == Permutation.identity(2)

    def test_restrict_rejects_bad_sets(self):
        a = Permutation.identity(3)
        with pytest.raises(ValueError):
            restrict(a, ())
        with pytest.raises(ValueError):
            restrict(a, (1, 7))

    def test_restrict_rejects_non_positive_points(self):
        # Point 0 would read image[-1] and send the first-return scan round forever.
        a = Permutation.parse("(1,2)(3)")
        for points in ((0, 1), (-1, 2), (0,), (-1,)):
            with pytest.raises(ValueError, match="outside"):
                restrict(a, points)

    def test_separates_points(self):
        a = Permutation.parse("(1,2)(3,4)")
        assert separates_points(a, (1, 3))
        assert not separates_points(a, (1, 2))
        assert separates_points(a, ())


class TestSetPartition:
    def test_blocks_are_canonical(self):
        v = SetPartition(4, [(3, 1), (4, 2)])
        assert v.blocks == ((1, 3), (2, 4))

    def test_rejects_overlap_and_gaps(self):
        with pytest.raises(ValueError):
            SetPartition(3, [(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            SetPartition(3, [(1, 2)])

    @pytest.mark.parametrize(
        "size, blocks, error, message",
        [
            (3, [(1, 2), (2, 3)], ValueError, "blocks do not partition [3]: [(1, 2), (2, 3)]"),
            (3, [(1,), (3,)], ValueError, "blocks do not cover [3]: [(1,), (3,)]"),
            (3, [(0, 1), (2, 3)], ValueError, "blocks do not partition [3]: [(0, 1), (2, 3)]"),
            (3, [(1, 2), (3, 4)], ValueError, "blocks do not partition [3]: [(1, 2), (3, 4)]"),
            (2, [(1, 2), ()], ValueError, "empty block"),
            (3, [(1, 1, 2), (3,)], ValueError, "blocks do not partition [3]: [(1, 1, 2), (3,)]"),
            (2, [(1.0,), (2,)], ValueError, "points must be ints: [(1.0,), (2,)]"),
            (2.0, [(1,), (2,)], ValueError, "partitions live on [n] with n an int >= 1"),
            (2, [], ValueError, "blocks do not cover [2]: []"),
        ],
        ids=["overlap", "gap", "zero", "past-n", "empty", "repeat", "float-point", "float-size", "none"],
    )
    def test_refusals_keep_their_errors(self, size, blocks, error, message):
        with pytest.raises(error) as info:
            SetPartition(size, blocks)
        assert str(info.value) == message

    def test_accepts_what_the_point_loop_accepts(self):
        # a bool is an int to the per-point loop, so True stands for 1
        assert SetPartition(2, [(True,), (2,)]).blocks == ((True,), (2,))

    @pytest.mark.parametrize("point", [True, 1.0, "1"], ids=["bool", "float", "str"])
    def test_points_are_ints(self, point):
        # True is kept as the int 1; any other point that is not an int is refused
        if type(point) is bool:
            v = SetPartition(3, [(point, 2, 3)])
            assert v.blocks == ((1, 2, 3),) and all(type(pt) is int for pt in v.blocks[0])
        else:
            with pytest.raises(ValueError, match="points must be ints"):
                SetPartition(3, [(point, 2, 3)])

    def test_labels_are_first_appearance_block_indices(self):
        v = SetPartition(5, [(2, 5), (1, 3), (4,)])
        assert v.labels == (0, 1, 0, 2, 1)
        assert [v.block_index(i) for i in range(1, 6)] == list(v.labels)

    def test_from_labels_builds_the_blocks_and_keeps_the_labels(self):
        labels = (0, 1, 0, 2, 1)
        v = SetPartition.from_labels(list(labels))
        assert v == SetPartition(5, [(1, 3), (2, 5), (4,)])
        assert v.labels == labels and v.blocks == ((1, 3), (2, 5), (4,))
        assert SetPartition.from_labels([0]).blocks == ((1,),)

    @pytest.mark.parametrize(
        "labels",
        [(), (1,), (0, 2), (0, 1, 3), (-1,), (0, -1), (0, 1.0), (0, True), ("0",), (0, None)],
        ids=["empty", "no-zero", "skip", "skip-later", "negative", "negative-later",
             "float", "bool", "str", "none"],
    )
    def test_from_labels_rejects_all_but_first_appearance_labels(self, labels):
        with pytest.raises(ValueError):
            SetPartition.from_labels(labels)

    def test_from_labels_takes_equal_blocks_from_the_pool(self):
        pool = {}
        u = SetPartition.from_labels([0, 0, 1], pool)
        v = SetPartition.from_labels([0, 0, 1, 2], pool)
        assert u.blocks[0] is v.blocks[0] and u.blocks[1] is v.blocks[1]
        assert set(pool) == {(1, 2), (3,), (4,)}

    @given(st.integers(1, 9).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    def test_from_labels_equals_the_block_constructor(self, tags):
        n = len(tags)
        v = SetPartition(n, [[i + 1 for i in range(n) if tags[i] == t] for t in set(tags)])
        w = SetPartition.from_labels(v.labels)
        assert w == v and w.blocks == v.blocks and w.labels == v.labels

    def test_full_and_singletons(self):
        assert SetPartition.full(3).blocks == ((1, 2, 3),)
        assert SetPartition.singletons(3).block_count == 3
        assert SetPartition.full(3).metric_length == 2
        assert SetPartition.singletons(3).metric_length == 0

    def test_block_lookup(self):
        v = SetPartition(4, [(1, 3), (2, 4)])
        assert v.block_containing(4) == (2, 4)
        assert v.block_index(1) == v.block_index(3)
        assert v.block_index(1) != v.block_index(2)

    def test_join(self):
        u = SetPartition(4, [(1, 2), (3,), (4,)])
        v = SetPartition(4, [(1,), (2, 3), (4,)])
        assert u.join(v) == SetPartition(4, [(1, 2, 3), (4,)])
        assert partition_join(u, v) == u.join(v)

    def test_leq(self):
        u = SetPartition(4, [(1, 2), (3,), (4,)])
        assert u.leq(SetPartition.full(4))
        assert not SetPartition.full(4).leq(u)
        assert u.leq(u)

    def test_orbit_partition(self):
        a = Permutation.parse("(1,3,5)(2,4)")
        assert orbit_partition(a) == SetPartition(5, [(1, 3, 5), (2, 4)])

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(*[sized_perms(n)] * 2)))
    def test_join_bounds_both_arguments(self, pair):
        a, b = pair
        u, v = orbit_partition(a), orbit_partition(b)
        w = u.join(v)
        assert u.leq(w) and v.leq(w)
        assert w == v.join(u)

    @given(perms)
    def test_orbit_partition_tracks_metric(self, a):
        assert orbit_partition(a).metric_length == a.metric_length


def image0(a):
    return tuple(x - 1 for x in a.image)


def cycle_index(a):
    """Index into ``a.cycles`` of the cycle holding each point, 0-based."""
    out = [0] * a.size
    for ci, cycle in enumerate(a.cycles):
        for pt in cycle:
            out[pt - 1] = ci
    return out


annular_cases = st.integers(2, 6).flatmap(
    lambda n: st.tuples(sized_perms(n), st.integers(1, n - 1))
)


class TestRawKernels:
    """Each 0-based kernel against a definition from the 1-based API."""

    @given(perms)
    def test_cycle_labels_index_the_cycles(self, a):
        assert _cycle_labels0(image0(a)) == (cycle_index(a), a.cycle_count)
        assert _cycles0(image0(a)) == [tuple(x - 1 for x in c) for c in a.cycles]

    @given(annular_cases)
    def test_count_and_through_cycle(self, case):
        a, p = case
        shape = AnnulusShape(p, a.size - p)
        assert _cycle_count0(image0(a)) == a.cycle_count
        assert _through0(image0(a), p) == has_through_cycle(a, shape)

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8),
            )
        )
    )
    def test_join_is_the_fixpoint_merge(self, case):
        n, pairs = case
        blocks = [{i} for i in range(n)] + [set(pair) for pair in pairs]
        merged = True
        while merged:
            merged = False
            for x, y in itertools.combinations(range(len(blocks)), 2):
                if blocks[x] & blocks[y]:
                    blocks[x] |= blocks.pop(y)
                    merged = True
                    break
        blocks.sort(key=min)
        want = tuple(next(k for k, b in enumerate(blocks) if i in b) for i in range(n))
        assert _join0(n, pairs) == (want, len(blocks))

    @given(perms.flatmap(lambda a: st.tuples(st.just(a), st.lists(st.integers(1, a.size), max_size=4))))
    def test_separation_counts_distinct_cycles(self, case):
        a, pts = case
        index = cycle_index(a)
        want = len({index[pt - 1] for pt in pts}) == len(pts)
        assert _separated(index, pts) == want
        assert separates_points(a, pts) == want

    @given(st.integers(1, 6))
    def test_gamma(self, n):
        assert _gamma0(n) == image0(full_cycle(n))
        for p in range(1, n):
            assert _gamma0(p, n - p) == image0(gamma_pq(p, n - p))

    @given(annular_cases)
    def test_membership(self, case):
        a, p = case
        assert _is_nc0(image0(a), a.size) == is_nc_disc(a)
        assert _is_nc0(image0(a), p) == is_snc(a, AnnulusShape(p, a.size - p))

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(sized_perms(n), sized_perms(n))))
    def test_geodesic_order(self, pair):
        b, c = pair
        times_b = _composer0(image0(b))
        # the identity and b itself always lie below b; a random c rarely does
        for a in (c, Permutation.identity(b.size), b):
            want = a.metric_length + (a.inverse() * b).metric_length == b.metric_length
            got = a.metric_length + b.size - _cycle_count0(times_b(image0(a.inverse())))
            assert (got == b.metric_length) == want

    def test_composer_is_composition(self):
        for n in range(1, 6):
            group = list(itertools.permutations(range(n)))
            for b in group:
                times_b = _composer0(b)
                for a in group:
                    assert times_b(a) == _compose0(a, b)
                    assert type(times_b(a)) is tuple

    def test_composer_reads_one_point_as_a_tuple(self):
        # a one-point getter returns a 1-tuple, not the item, at any point
        seq = tuple("abcdef")
        for k in (0, 3):
            assert _composer0((k,))(seq) == seq[k:k + 1]

    @given(perms.flatmap(lambda a: st.tuples(st.just(a), st.sets(st.integers(1, a.size), min_size=1))))
    def test_restriction(self, case):
        a, pts = case
        restrict0 = _restricter0(tuple(sorted(x - 1 for x in pts)), a.size)
        assert restrict0(image0(a)) == image0(restrict(a, pts))

    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(
                st.sets(st.integers(1, n), min_size=1),
                st.lists(st.permutations(range(1, n + 1)).map(Permutation), min_size=1),
            )
        )
    )
    def test_one_restricter_serves_many_images(self, case):
        # the getter tabulates the point set once; no image may leave a trace in it
        pts, family = case
        restrict0 = _restricter0(tuple(sorted(x - 1 for x in pts)), family[0].size)
        for a in family:
            assert restrict0(image0(a)) == image0(restrict(a, pts))
