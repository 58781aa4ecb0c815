"""First and second order cumulants: recursions, products, symbols."""

import gc
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from ncfree import cumulants
from ncfree.annular import (
    AnnulusShape,
    Composition,
    PartitionedPermutation,
    enumerate_nc,
    enumerate_psnc,
    kreweras,
    main_summand_filter,
    tau_of,
)
from ncfree.cumulants import (
    _kappa_blocks,
    _nonzero_summands,
    _pair_mask,
    _plan,
    clear_caches,
    haar_kappa_pq,
    kappa_n,
    kappa_pi,
    kappa_pq,
    kappa_vp,
    ks_product_cumulant,
    main_product_cumulant,
    memo_info,
    mobius_annulus,
    mobius_full_cycle,
    mobius_recurrence_residual,
    oracle_product_cumulant,
    phi2_via_cumulants,
    phi_via_cumulants,
    semicircular_square_kappa,
    snc_count,
    symbolic_kappa_pq,
    symbolic_phi2_expansion,
    symbolic_phi_expansion,
)
from ncfree.perm import (
    Permutation,
    SetPartition,
    _separated,
    full_cycle,
    orbit_partition,
    partition_join,
)
from ncfree.spaces import (
    CumulantPolynomial,
    MomentOracle,
    a_word,
    alpha2_symbol,
    alpha_symbol,
    formal_moment_space,
    haar_unitary_space,
    semicircular_phi,
    semicircular_space,
    u_word,
    x_word,
)
from ncfree.verify import _haar_predicted

MODELS = (semicircular_space(), haar_unitary_space(), formal_moment_space())


def model_cases(n):
    """The four model cases of the product formula checks."""
    alt = tuple(1 if i % 2 == 0 else -1 for i in range(n))
    return (
        (semicircular_space(), x_word(n)),
        (haar_unitary_space(), u_word(alt)),
        (haar_unitary_space(), u_word((1,) * n)),
        (formal_moment_space(), a_word(n)),
    )


def model_word(model, n):
    if model.name == "semicircular":
        return x_word(n)
    if model.name == "haar-unitary":
        return u_word(tuple((-1) ** i for i in range(n)))
    return a_word(n)


def letters(word):
    """One single-letter argument per position of the word."""
    return tuple((letter,) for letter in word)


def sym(name):
    return CumulantPolynomial.from_symbol(name)


def _points(block):
    return sum(map(len, block))


def _size_order(blocks):
    """Blocks smallest first by point count, ties in their given order."""
    return tuple(sorted(blocks, key=_points))


def _records(stretches):
    """A plan's records, stretch after stretch."""
    return [rec for stretch in stretches for rec in stretch]


def _decoded(plan):
    """A plan's stretches with each record's block numbers replaced by the
    table's blocks."""
    table, stretches = plan
    return tuple(
        tuple((tuple(table[i][0] for i in numbers), tag) for numbers, tag in stretch) for stretch in stretches
    )


def _cycle_labels(a):
    """Label i at every point of the i-th cycle of ``a``."""
    out = [0] * a.size
    for ci, cycle in enumerate(a.cycles):
        for pt in cycle:
            out[pt - 1] = ci
    return tuple(out)


def _same_cycle_pairs(a):
    """Bit (i-1)*n + (j-1) for each pair of points i < j in one cycle of ``a``."""
    n = a.size
    return sum(
        1 << ((i - 1) * n + j - 1) for cycle in a.cycles for i, j in itertools.combinations(sorted(cycle), 2)
    )


def _complements(sizes):
    """Each element's size-ordered blocks, mapped to its complement pi^-1 gamma
    by public Permutation arithmetic; the blocks determine the element."""
    if len(sizes) == 1:
        return {
            _size_order([(c,) for c in pi.cycles]): pi.inverse() * full_cycle(sizes[0])
            for pi in enumerate_nc(sizes[0])
        }
    shape = AnnulusShape(*sizes)
    return {_size_order(vp.block_cycles()): kreweras(shape, vp.perm) for vp in enumerate_psnc(shape)}


class TestFirstOrder:
    def test_semicircular_is_free_of_higher_cumulants(self):
        sc = semicircular_space()
        values = [kappa_n(sc, letters(x_word(n))) for n in range(1, 7)]
        assert values == [0, 1, 0, 0, 0, 0]

    def test_formal_low_orders(self):
        fm = formal_moment_space()
        a1, a2, a3 = sym("a1"), sym("a2"), sym("a3")
        assert kappa_n(fm, letters(a_word(1))) == a1
        assert kappa_n(fm, letters(a_word(2))) == a2 - a1**2
        assert kappa_n(fm, letters(a_word(3))) == a3 - 3 * a1 * a2 + 2 * a1**3

    def test_moment_cumulant_round_trip(self):
        for model in MODELS:
            for n in range(1, 6):
                word = model_word(model, n)
                args = letters(word)
                assert phi_via_cumulants(model, args) == model.phi(word), (
                    model.name,
                    n,
                )

    def test_kappa_pi_multiplies_over_cycles(self):
        fm = formal_moment_space()
        args = letters(a_word(4))
        pi = Permutation.parse("(1,4)(2,3)")
        per_cycle = kappa_n(fm, (args[0], args[3])) * kappa_n(fm, (args[1], args[2]))
        assert kappa_pi(fm, args, pi) == per_cycle

    def test_tracial_rotation_invariance(self):
        hu = haar_unitary_space()
        for signs in ((1, 1, -1, -1), (1, -1, 1, -1), (1, 1, 1, -1)):
            word = u_word(signs)
            args = letters(word)
            base = kappa_n(hu, args)
            for shift in range(1, 4):
                rotated = args[shift:] + args[:shift]
                assert kappa_n(hu, rotated) == base


class TestSecondOrder:
    def test_semicircular_second_order_vanishes(self):
        sc = semicircular_space()
        for p in range(1, 4):
            for q in range(1, 4):
                args1, args2 = letters(x_word(p)), letters(x_word(q))
                assert kappa_pq(sc, args1, args2) == 0

    def test_phi2_round_trip(self):
        for model in MODELS:
            for p in range(1, 4):
                for q in range(1, 4):
                    w1 = model_word(model, p)
                    w2 = model_word(model, q)
                    args1, args2 = letters(w1), letters(w2)
                    assert phi2_via_cumulants(model, args1, args2) == model.phi2(
                        w1, w2
                    ), (model.name, p, q)

    def test_kappa_vp_glued_blocks_use_second_order(self):
        fm = formal_moment_space()
        args = letters(a_word(2))
        vp = PartitionedPermutation(SetPartition.full(2), Permutation.identity(2))
        assert kappa_vp(fm, args, vp) == kappa_pq(fm, (args[0],), (args[1],))

    def test_kappa_vp_rejects_blocks_of_three_cycles(self):
        sc = semicircular_space()
        three = PartitionedPermutation(SetPartition.full(3), Permutation.identity(3))
        with pytest.raises(ValueError):
            kappa_vp(sc, letters(x_word(3)), three)
        # kappa_1 of a semicircular is 0, so the product is already zero
        # when the three-cycle block comes up; the guard still applies.
        after_zero = PartitionedPermutation(SetPartition(4, [[1], [2, 3, 4]]), Permutation.identity(4))
        with pytest.raises(ValueError):
            kappa_vp(sc, letters(x_word(4)), after_zero)


class TestSymbolicTables:
    def test_first_order_expansion(self):
        k1, k2, k3, k4 = (sym(f"k{n}") for n in range(1, 5))
        assert symbolic_phi_expansion(1) == k1
        assert symbolic_phi_expansion(2) == k2 + k1**2
        assert symbolic_phi_expansion(3) == k3 + 3 * k1 * k2 + k1**3
        assert (
            symbolic_phi_expansion(4)
            == k4 + 4 * k1 * k3 + 2 * k2**2 + 6 * k1**2 * k2 + k1**4
        )

    def test_first_order_monomials_are_canonical(self):
        # From n = 12 on a cycle of length 10 meets one of length 2, and
        # k2 sorts before k10 in a monomial, so adding k2*k10 adds to a term.
        alpha = symbolic_phi_expansion(12)
        assert ("k2", "k10") in alpha.terms
        assert len((alpha + sym("k2") * sym("k10")).terms) == len(alpha.terms)

    def test_term_count_is_the_family_size(self):
        from ncfree.annular import enumerate_psnc

        for p, q in ((1, 1), (2, 1), (2, 2)):
            poly = symbolic_phi2_expansion(p, q)
            total = sum(coeff for _, coeff in poly.sorted_terms())
            assert total == len(enumerate_psnc(AnnulusShape(p, q)))

    def test_inverted_table_low_shapes(self):
        a1, a2, a3 = sym("a1"), sym("a2"), sym("a3")
        a11, a12 = sym("a1,1"), sym("a1,2")
        assert symbolic_kappa_pq(1, 1) == a11 + a1**2 - a2
        assert (
            symbolic_kappa_pq(1, 2)
            == a12 - 2 * a1 * a11 - 4 * a1**3 + 6 * a1 * a2 - 2 * a3
        )
        assert symbolic_kappa_pq(2, 1) == symbolic_kappa_pq(1, 2)

    def test_inversion_round_trip(self):
        # Substituting the formal cumulants back into the table gives the
        # bare second order moment symbol.
        fm = formal_moment_space()
        for p, q in ((1, 1), (1, 2), (2, 2)):
            table = symbolic_phi2_expansion(p, q)
            values = {}
            for monomial, _ in table.sorted_terms():
                for name in monomial:
                    if name in values:
                        continue
                    if "," in name[1:]:
                        s, t = map(int, name[1:].split(","))
                        args1, args2 = letters(a_word(s)), letters(a_word(t))
                        values[name] = kappa_pq(fm, args1, args2)
                    else:
                        n = int(name[1:])
                        values[name] = kappa_n(fm, letters(a_word(n)))
            got = table.substitute(values)
            assert got == fm.phi2(a_word(p), a_word(q))


class TestSizeLimit:
    def test_every_enumerating_call_obeys_the_environment(self, monkeypatch):
        # NCFREE_MAX_TOTAL used to reach only the enumerations of the CLI's
        # own commands; the library read its default bound alone.
        monkeypatch.setenv("NCFREE_MAX_TOTAL", "3")
        clear_caches()  # a memoized plan enumerates nothing
        fm = formal_moment_space()
        calls = (
            lambda: enumerate_nc(4),
            lambda: symbolic_phi2_expansion(2, 2),
            lambda: kappa_pq(fm, letters(a_word(2)), letters(a_word(2))),
        )
        for call in calls:
            with pytest.raises(ValueError, match="exceeds the ceiling 3 "):
                call()

    def test_a_lowered_ceiling_refuses_warm_shapes(self, monkeypatch):
        # Each public entry point checks its total before any memo lookup, so
        # what ran earlier in the process does not change what it refuses.
        fm = formal_moment_space()
        two, four = letters(a_word(2)), letters(a_word(4))
        vp = enumerate_psnc(AnnulusShape(2, 2))[0]
        calls = (
            lambda: kappa_pq(fm, two, two),
            lambda: kappa_n(fm, four),
            lambda: kappa_pi(fm, four, Permutation.identity(4)),
            lambda: kappa_vp(fm, four, vp),
            lambda: phi_via_cumulants(fm, four),
            lambda: phi2_via_cumulants(fm, two, two),
            lambda: ks_product_cumulant(fm, a_word(4), Composition((2, 2))),
            lambda: main_product_cumulant(fm, a_word(4), Composition((2, 2), split=1)),
            lambda: oracle_product_cumulant(fm, a_word(4), Composition((2, 2), split=1)),
            lambda: oracle_product_cumulant(fm, a_word(4), Composition((2, 2))),
            lambda: haar_kappa_pq(2, 2, (1, -1, 1, -1)),
        )
        for call in calls:
            call()  # warm, under the default ceiling
        monkeypatch.setenv("NCFREE_MAX_TOTAL", "3")
        for call in calls:
            with pytest.raises(ValueError, match="exceeds the ceiling 3 "):
                call()


class TestProductsAsEntries:
    def test_single_part_is_the_moment(self):
        for model in MODELS:
            for n in range(1, 5):
                word = model_word(model, n)
                got = ks_product_cumulant(model, word, Composition((n,)))
                assert got == model.phi(word), (model.name, n)

    def test_first_order_against_oracle_small(self):
        for model in MODELS:
            for n in range(2, 6):
                word = model_word(model, n)
                for comp in _compositions(n):
                    got = ks_product_cumulant(model, word, comp)
                    want = oracle_product_cumulant(model, word, comp)
                    assert got == want, (model.name, comp.parts)

    def test_second_order_against_oracle_small(self):
        for model in MODELS:
            for total in range(2, 5):
                word = model_word(model, total)
                for comp in _split_compositions(total):
                    got = main_product_cumulant(model, word, comp)
                    want = oracle_product_cumulant(model, word, comp)
                    assert got == want, (model.name, comp.parts, comp.split)

    def test_second_order_is_the_filtered_sum_of_kappa_vp(self):
        # The per-element route: the public filter and kappa_vp on each element.
        for total in range(2, 7):
            for comp in _split_compositions(total):
                shape = comp.shape()
                kept = [vp for vp in enumerate_psnc(shape) if main_summand_filter(shape, comp, vp)]
                for model, word in model_cases(total):
                    args = letters(word)
                    want = CumulantPolynomial.sum(kappa_vp(model, args, vp) for vp in kept)
                    got = main_product_cumulant(model, word, comp)
                    assert got == want, (model.name, comp.parts, comp.split)

    def test_first_order_is_the_filtered_sum_of_kappa_pi(self):
        # The per-element route: a SetPartition join with tau's orbits, and kappa_pi.
        for n in range(1, 8):
            for comp in _compositions(n):
                tau = orbit_partition(tau_of(comp))
                kept = [
                    sigma
                    for sigma in enumerate_nc(n)
                    if partition_join(orbit_partition(sigma), tau).block_count == 1
                ]
                for model, word in model_cases(n):
                    args = letters(word)
                    want = CumulantPolynomial.sum(kappa_pi(model, args, s) for s in kept)
                    assert ks_product_cumulant(model, word, comp) == want, (model.name, comp.parts)

    def test_product_formulas_are_brute_filtered_sums_in_any_order(self):
        # Brute sums over the enumerated families with the public filters,
        # against calls made in shuffled order with the memos emptied midway,
        # so that no value rests on what an earlier call left in a memo.  The
        # type must match too: dropping zero products must not turn an int
        # sum into a polynomial or the reverse.
        cases = []
        for n in range(1, 7):
            for comp in _compositions(n):
                tau = orbit_partition(tau_of(comp))
                kept = [
                    sigma
                    for sigma in enumerate_nc(n)
                    if partition_join(orbit_partition(sigma), tau).block_count == 1
                ]
                for model, word in model_cases(n):
                    want = CumulantPolynomial.sum([kappa_pi(model, letters(word), s) for s in kept])
                    cases.append((ks_product_cumulant, model, word, comp, want))
        for total in range(2, 7):
            for comp in _split_compositions(total):
                shape = comp.shape()
                kept = [vp for vp in enumerate_psnc(shape) if main_summand_filter(shape, comp, vp)]
                for model, word in model_cases(total):
                    want = CumulantPolynomial.sum([kappa_vp(model, letters(word), vp) for vp in kept])
                    cases.append((main_product_cumulant, model, word, comp, want))
        random.Random(11).shuffle(cases)
        clear_caches()
        for i, (formula, model, word, comp, want) in enumerate(cases):
            if i == len(cases) // 2:
                clear_caches()
            got = formula(model, word, comp)
            where = (formula.__name__, model.name, word, comp.parts, comp.split)
            assert got == want, where
            assert type(got) is type(want), where

    def test_summand_tables_are_never_changed_by_the_formulas(self):
        # A composition only selects summands, so every composition of a size
        # or shape reads the same table, and nothing rewrites it after it is made.
        clear_caches()
        annulus = [c for c in _split_compositions(6) if c.shape() == AnnulusShape(3, 3)]
        for sizes, formula, comps in (
            ((5,), ks_product_cumulant, _compositions(5)),
            ((3, 3), main_product_cumulant, annulus),
        ):
            for model, word in model_cases(sum(sizes)):
                table = _nonzero_summands(model, word, sizes)
                before = list(table)
                for comp in comps:
                    formula(model, word, comp)
                assert _nonzero_summands(model, word, sizes) is table, (model.name, sizes)
                assert len(table) == len(before)
                assert all(now is then for now, then in zip(table, before))
                assert isinstance(table, tuple)
                assert all(product or type(product) is not int for _, product in table)

    def test_plans_leave_out_only_the_solved_for_element(self):
        # A plan is a table and a tuple of stretches, each a nonempty tuple of
        # (numbers, mask) pairs sharing one first block number, and no number
        # heads two stretches.  The solved-for element is the last record, and
        # its stretch holds nothing else.
        def check_stretches(plan, top_blocks, where):
            table, stretches = plan
            assert isinstance(table, tuple) and isinstance(stretches, tuple), where
            assert all(isinstance(stretch, tuple) and stretch for stretch in stretches), where
            assert all(len(rec) == 2 for rec in _records(stretches)), where
            heads = [stretch[0][0][0] for stretch in stretches]
            for head, stretch in zip(heads, stretches):
                assert all(numbers[0] == head for numbers, _ in stretch), where
            assert len(set(heads)) == len(heads), where
            records = _records(_decoded(plan))
            assert [i for i, rec in enumerate(records) if rec[0] == top_blocks] == [len(records) - 1], where
            assert len(stretches[-1]) == 1, where
            return records

        for n in range(1, 8):
            records = check_stretches(_plan((n,)), ((tuple(range(1, n + 1)),),), n)
            assert len(records) == len(enumerate_nc(n))
        for total in range(2, 7):
            for p in range(1, total):
                q = total - p
                glued = ((tuple(range(1, p + 1)), tuple(range(p + 1, total + 1))),)
                records = check_stretches(_plan((p, q)), glued, (p, q))
                assert len(records) == len(enumerate_psnc(AnnulusShape(p, q)))

    def test_plan_labels_are_the_complement_cycles(self):
        # Each record's mask holds the pairs of points that share a cycle of
        # its complement pi^-1 gamma, computed here by public Permutation
        # arithmetic.  Records are matched to elements by their blocks,
        # which determine the element.
        sizes_list = [(n,) for n in range(1, 8)]
        sizes_list += [(p, total - p) for total in range(2, 7) for p in range(1, total)]
        for sizes in sizes_list:
            records = _records(_decoded(_plan(sizes)))
            want = [(blocks, _same_cycle_pairs(k)) for blocks, k in _complements(sizes).items()]
            assert len(records) == len(want), sizes
            assert sorted(records) == sorted(want), sizes

    def test_masks_separate_exactly_where_the_labels_do(self):
        # For every record and every composition's endpoint set, no pair of
        # the endpoints' mask is in the record's mask exactly when the
        # complement's labels, by public Permutation arithmetic, differ at
        # the endpoints.
        pairs = 0
        for total in range(1, 8):
            plans = [((total,), [c.boundary_points for c in _compositions(total)])]
            for p in range(1, total):
                comps = [c for c in _split_compositions(total) if c.p == p]
                plans.append(((p, total - p), [c.boundary_points for c in comps]))
            for sizes, point_sets in plans:
                complements = _complements(sizes)
                ends = [(points, _pair_mask(total, [[pt - 1 for pt in points]])) for points in point_sets]
                for blocks, mask in _records(_decoded(_plan(sizes))):
                    labels = _cycle_labels(complements[blocks])
                    for points, end_mask in ends:
                        assert (not mask & end_mask) == _separated(labels, points), (blocks, points)
                        pairs += 1
        assert pairs == 338_155

    def test_plan_blocks_are_the_enumerations_cycles(self):
        # The blocks are the enumeration's own cycle tuples, not copies, in
        # size order, and elements that share a permutation object share one
        # mask object.
        for total in range(2, 8):
            for p in range(1, total):
                family = enumerate_psnc(AnnulusShape(p, total - p))
                records = _records(_decoded(_plan((p, total - p))))
                by_blocks = {rec[0]: rec for rec in records}
                assert len(by_blocks) == len(records) == len(family), (p, total - p)
                by_perm = {}
                for vp in family:
                    blocks = _size_order(vp.block_cycles())
                    assert [_points(b) for b in blocks] == sorted(map(_points, blocks))
                    rec = by_blocks[blocks]
                    own = {id(c) for c in vp.perm.cycles}
                    assert all(id(c) in own for block in rec[0] for c in block), (p, total - p)
                    assert by_perm.setdefault(id(vp.perm), rec[1]) is rec[1], (p, total - p)
                assert total == 2 or len(by_perm) < len(family), (p, total - p)
        for n in range(1, 8):
            records = _records(_decoded(_plan((n,))))
            assert sorted(blocks for blocks, _ in records) == sorted(
                _size_order([(c,) for c in pi.cycles]) for pi in enumerate_nc(n)
            ), n

    def test_plan_tables_decode_to_the_enumerations_blocks(self):
        # Decoded through the table, the records are the elements' blocks
        # smallest first; each distinct block is in the table once, with one
        # getter per cycle that reads the cycle's arguments (here args[i] = i).
        args = tuple(range(8))
        sizes_list = [(n,) for n in range(1, 8)] + [(p, t - p) for t in range(2, 7) for p in range(1, t)]
        for sizes in sizes_list:
            table, stretches = _plan(sizes)
            if len(sizes) == 1:
                want = [_size_order([(c,) for c in pi.cycles]) for pi in enumerate_nc(*sizes)]
            else:
                want = [_size_order(vp.block_cycles()) for vp in enumerate_psnc(AnnulusShape(*sizes))]
            records = _records(_decoded((table, stretches)))
            assert sorted(blocks for blocks, _ in records) == sorted(want), sizes
            blocks = [block for block, *_ in table]
            assert len(set(blocks)) == len(blocks), sizes
            assert set(blocks) == {block for element in want for block in element}, sizes
            for block, *getters in table:
                assert [get(args) for get in getters] == list(block), (sizes, block)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: kappa_pi(formal_moment_space(), letters(a_word(3)), Permutation.identity(2)),
             "permutation size does not match argument count"),
            (lambda: kappa_pi(formal_moment_space(), letters(a_word(4)), Permutation.parse("(1,3)(2,4)")),
             "is not disc non-crossing"),
            (lambda: ks_product_cumulant(semicircular_space(), x_word(3), Composition((1, 2), split=1)),
             "main_product_cumulant"),
            (lambda: main_product_cumulant(semicircular_space(), x_word(4), Composition((1, 2), split=1)),
             "composition does not exhaust the word"),
        ],
        ids=["kappa_pi-size", "kappa_pi-crossing", "ks-split", "main-word-length"],
    )
    def test_refusals(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_part_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            ks_product_cumulant(semicircular_space(), x_word(3), Composition((2, 2)))
        with pytest.raises(ValueError):
            main_product_cumulant(semicircular_space(), x_word(3), Composition((3,)))
        with pytest.raises(ValueError):
            oracle_product_cumulant(semicircular_space(), x_word(3), Composition((2,)))


def _mixed_phi(word):
    n = len(word)
    return sym(alpha_symbol(n)) if n % 2 == 0 else Fraction(n, 3)


def _mixed_phi2(w1, w2):
    s, t = len(w1), len(w2)
    return sym(alpha2_symbol(s, t)) if (s + t) % 2 == 0 else Fraction(s + t, 3)


# Polynomial moments at even lengths and Fractions at odd ones, so products
# mix Fraction and polynomial factors and leave fresh temporaries behind.
MIXED = MomentOracle("mixed-scalars", _mixed_phi, _mixed_phi2)

# kappa_{p,q} of MIXED on single letters, p <= q <= 4: the first 16 hex
# digits of the sha256 of repr(sorted_terms()); kappa_{q,p} is the same.
MIXED_KAPPA_PQ = {
    (1, 1): "f58105f89838f0dd",
    (1, 2): "a615aaeeab7256d7",
    (1, 3): "4f5b5e55ef1459e9",
    (1, 4): "714e8f7b5a9febaa",
    (2, 2): "9a29795af850431e",
    (2, 3): "f2cec8c722fefb89",
    (2, 4): "36abd0141b4142af",
    (3, 3): "4d56b8b3a7451af5",
    (3, 4): "9243c526e0c5309d",
    (4, 4): "d5e8a1ac74684435",
}


def _factors(model, args, blocks):
    """A record's factors, each the memo's own object."""
    return [
        kappa_n(model, [args[i - 1] for i in block[0]])
        if len(block) == 1
        else kappa_pq(model, [args[i - 1] for i in block[0]], [args[i - 1] for i in block[1]])
        for block in blocks
    ]


def _plain_product(model, args, blocks):
    """A record's product as written: left to right, stopped at a zero."""
    value = None
    for block in blocks:
        if len(block) == 1:
            factor = kappa_n(model, [args[i - 1] for i in block[0]])
        else:
            first, second = block
            factor = kappa_pq(model, [args[i - 1] for i in first], [args[i - 1] for i in second])
        value = factor if value is None else value * factor
        if not value:
            break
    return value


def _by_index(stretches):
    """A plan's stretches, each record tagged with its index among the plan's
    records instead of its mask."""
    index = itertools.count()
    return [[(numbers, next(index)) for numbers, _ in stretch] for stretch in stretches]


class TestSharedWork:
    def test_walk_matches_plain_products_on_mixed_scalars(self):
        # Every walked record's product is its plain product, in value and
        # type; every record left out has the plain product int 0.  Haar
        # words have int-zero heads, so there records behind them are skipped.
        clear_caches()
        haar = haar_unitary_space()
        skipped = 0
        for model, word in ((MIXED, a_word), (haar, lambda n: model_word(haar, n))):
            plans = [(_plan((n,)), letters(word(n))) for n in range(1, 7)]
            for p, q in itertools.product(range(1, 4), repeat=2):
                plans.append((_plan((p, q)), letters(word(p + q))))
            for (table, stretches), args in plans:
                records = _records(_decoded((table, stretches)))
                walked = list(_kappa_blocks(model, args, table, _by_index(stretches)))
                assert [i for i, _ in walked] == sorted({i for i, _ in walked}), len(args)
                got = dict(walked)
                for i, rec in enumerate(records):
                    want = _plain_product(model, args, rec[0])
                    if i in got:
                        assert got[i] == want and type(got[i]) is type(want), (len(args), rec[0])
                    else:
                        assert type(want) is int and want == 0, (len(args), rec[0])
                        skipped += 1
                if model is MIXED:
                    assert len(got) == len(records), len(args)
        assert skipped

    def test_mixed_scalar_cumulants_are_frozen(self):
        clear_caches()
        for (p, q), digest in MIXED_KAPPA_PQ.items():
            for s, t in ((p, q), (q, p)):
                value = kappa_pq(MIXED, letters(a_word(s)), letters(a_word(t)))
                assert isinstance(value, CumulantPolynomial), (s, t)
                text = repr(value.sorted_terms()).encode()
                assert hashlib.sha256(text).hexdigest()[:16] == digest, (s, t)

    def test_walk_shares_products_of_every_scalar_type(self):
        # Fraction moments: two records whose factors are the same objects,
        # in the same order, get one product object, as polynomials do.
        # phi2 is symmetric, as ``MomentOracle`` asks.
        clear_caches()
        model = MomentOracle(
            "fractions", lambda w: Fraction(len(w) + 1, 3), lambda w1, w2: Fraction(len(w1) * len(w2), 7)
        )
        for sizes in ((6,), (3, 2), (3, 3)):
            args = letters(a_word(sum(sizes)))
            table, stretches = _plan(sizes)
            records = _records(_decoded((table, stretches)))
            walked = list(_kappa_blocks(model, args, table, _by_index(stretches)))
            assert len(walked) == len(records), sizes  # no zero heads
            seen, repeats = {}, 0
            for i, value in walked:
                rec = records[i]
                key = tuple(id(f) for f in _factors(model, args, rec[0]))
                if key in seen:
                    assert seen[key] is value, (sizes, rec[0])
                    repeats += len(key) > 1
                seen.setdefault(key, value)
            assert repeats, sizes

    def test_summand_tables_share_equal_products(self):
        # Records whose factors agree hold one product object, so a formal
        # table holds far fewer distinct products than entries.
        for p in (3, 4):
            table = _nonzero_summands(formal_moment_space(), a_word(2 * p), (p, p))
            distinct = {id(product) for _, product in table}
            assert 4 * len(distinct) < len(table), (p, len(distinct), len(table))


class _PlainRecursion:
    """kappa_n and kappa_{p,q} by their defining sums over the enumerated
    families: each element's blocks in min-point order, each product left to
    right and stopped at a zero factor, each sum a left-to-right fold from 0.
    Its own memo; it reads no plan and no library memo."""

    def __init__(self, model):
        self.model, self.memo = model, {}

    def kappa(self, args1, args2=None):
        key = (args1, args2)
        if key not in self.memo:
            self.memo[key] = self._solve(args1, args2)
        return self.memo[key]

    def _solve(self, args1, args2):
        if args2 is None:
            n = len(args1)
            if n == 1:
                return self.model.phi(args1[0])
            moment = self.model.phi(tuple(itertools.chain(*args1)))
            top = full_cycle(n)
            elements = [(pi == top, [(c,) for c in pi.cycles]) for pi in enumerate_nc(n)]
            args = args1
        else:
            shape = AnnulusShape(len(args1), len(args2))
            moment = self.model.phi2(tuple(itertools.chain(*args1)), tuple(itertools.chain(*args2)))
            top = shape.gamma()
            elements = [(vp.perm == top, vp.block_cycles()) for vp in enumerate_psnc(shape)]
            args = args1 + args2
        assert sum(is_top for is_top, _ in elements) == 1
        total = 0
        for is_top, blocks in elements:
            if not is_top:
                total = total + self._product(args, blocks)
        return moment - total

    def _product(self, args, blocks):
        value = None
        for block in blocks:
            words = [tuple(args[i - 1] for i in cycle) for cycle in block]
            factor = self.kappa(*words)
            value = factor if value is None else value * factor
            if not value:
                break
        return value


def _zero_phi(word):
    # kappa_1 of b is an int 0, of a a Fraction; longer words have Fraction moments.
    if len(word) == 1:
        return 0 if word[0][0] == "b" else Fraction(1, 2)
    return Fraction(len(word), 2)


INT_ZERO_SINGLETONS = MomentOracle(
    "int-zero-singletons", _zero_phi, lambda w1, w2: Fraction(len(w1) + len(w2), 5)
)


class TestBlockOrder:
    def test_recursions_match_a_min_point_order_recursion(self):
        clear_caches()
        plains = {}
        for total in range(1, 7):
            for model, word in (*model_cases(total), (MIXED, a_word(total))):
                plain = plains.setdefault(model, _PlainRecursion(model))
                args = letters(word)
                got, want = kappa_n(model, args), plain.kappa(args)
                assert got == want and type(got) is type(want), (model.name, word)
                for p in range(1, total):
                    got, want = kappa_pq(model, args[:p], args[p:]), plain.kappa(args[:p], args[p:])
                    assert got == want and type(got) is type(want), (model.name, word, p)

    def test_blocks_behind_an_int_zero_head_are_never_evaluated(self):
        # On four points every block of three, and on the (2, 2) annulus every
        # glued block of two, comes with a singleton, whose kappa_1 is an int
        # 0 and is the head, so no kappa_3, kappa_{2,1} or kappa_{1,1} is ever
        # asked for.
        clear_caches()
        calls = []

        def phi(word):
            calls.append((len(word),))
            return _zero_phi(word)

        def phi2(w1, w2):
            calls.append((len(w1), len(w2)))
            return Fraction(len(w1) + len(w2), 5)

        model = MomentOracle("counting", phi, phi2)
        args = tuple((("b", i),) for i in range(1, 5))
        got_n, got_pq = kappa_n(model, args), kappa_pq(model, args[:2], args[2:])
        assert {(1,), (2,), (4,), (2, 2)} <= set(calls)
        assert not {(3,), (2, 1), (1, 2), (1, 1)} & set(calls), sorted(set(calls))
        plain = _PlainRecursion(model)
        assert got_n == plain.kappa(args) and got_pq == plain.kappa(args[:2], args[2:])
        clear_caches()

    def test_zero_products_take_the_type_of_the_first_zero_in_size_order(self):
        clear_caches()
        model = INT_ZERO_SINGLETONS
        b4 = letters((("b", 1),) * 4)
        # In min-point order (1,2,3)(4) is kappa_3 * kappa_1 = Fraction(0);
        # smallest first it stops at kappa_1, an int 0.
        min_point = kappa_n(model, b4[:3]) * kappa_n(model, b4[3:])
        assert min_point == 0 and type(min_point) is Fraction
        got = kappa_pi(model, b4, Permutation.parse("(1,2,3)(4)"))
        assert got == 0 and type(got) is int
        vp = next(
            vp for vp in enumerate_psnc(AnnulusShape(2, 2))
            if vp.block_cycles() == (((1, 2), (3,)), ((4,),))
        )
        got = kappa_vp(model, b4, vp)
        assert got == 0 and type(got) is int
        # Equal sizes keep min-point order: a Fraction head times the int 0
        # of b is a Fraction zero, and b first is the int 0 itself.
        ab = letters((("a", 1), ("b", 1)))
        got = kappa_pi(model, ab, Permutation.identity(2))
        assert got == 0 and type(got) is Fraction
        got = kappa_pi(model, ab[::-1], Permutation.identity(2))
        assert got == 0 and type(got) is int
        # The walk leaves out exactly the records behind an int-zero head.
        table, stretches = _plan((4,))
        walked = dict(_kappa_blocks(model, b4, table, _by_index(stretches)))
        records = _records(_decoded((table, stretches)))
        for i, (blocks, _) in enumerate(records):
            assert (i in walked) == (len(blocks[0][0]) > 1), blocks
        pairs = next(i for i, (blocks, _) in enumerate(records) if blocks == (((1, 2),), ((3, 4),)))
        assert walked[pairs] == 1


class TestCountsAndMobius:
    def test_annular_counts(self):
        assert snc_count(1, 1) == 1
        assert snc_count(2, 1) == 4
        assert snc_count(1, 3) == 15
        assert snc_count(2, 2) == 18

    def test_full_cycle_values(self):
        assert [mobius_full_cycle(n) for n in range(1, 6)] == [1, -1, 2, -5, 14]

    def test_signed_annular_values(self):
        assert mobius_annulus(1, 1) == 1
        assert mobius_annulus(2, 1) == -4
        assert mobius_annulus(2, 2) == 18

    def test_recurrence_small(self):
        for total in range(2, 6):
            for p in range(1, total):
                assert mobius_recurrence_residual(p, total - p) == 0


class TestModelEvaluations:
    def test_haar_odd_circles_vanish(self):
        for signs in itertools.product((1, -1), repeat=3):
            assert haar_kappa_pq(1, 2, signs) == 0
            assert haar_kappa_pq(2, 1, signs) == 0

    def test_haar_alternating_value(self):
        assert haar_kappa_pq(2, 2, (1, -1, 1, -1)) == 1

    def test_haar_sign_length_check(self):
        with pytest.raises(ValueError):
            haar_kappa_pq(2, 2, (1, -1))

    @pytest.mark.parametrize("p, q", [(-1, 3), (0, 2), (2, 0), (3, -1)])
    def test_haar_circle_sizes_are_at_least_1(self, p, q):
        # (-1, 3) used to cut a negative slice and return kappa_{1,1} of two letters
        with pytest.raises(ValueError, match="at least one, on each circle"):
            haar_kappa_pq(p, q, (1, -1))

    def test_square_values(self):
        assert semicircular_square_kappa(1, 1) == 1
        assert semicircular_square_kappa(2, 1) == 2
        assert semicircular_square_kappa(2, 2) == 6
        assert semicircular_square_kappa(3, 1) == 3

    def test_square_needs_points_on_both_circles(self):
        for p, q in ((0, 1), (-1, 2), (1, 0)):
            with pytest.raises(ValueError):
                semicircular_square_kappa(p, q)

    def test_square_past_the_pairing_bound_is_refused(self):
        with pytest.raises(ValueError):
            semicircular_square_kappa(7, 6)

    def test_square_symmetry(self):
        for p in range(1, 4):
            for q in range(1, 4):
                assert semicircular_square_kappa(p, q) == semicircular_square_kappa(
                    q, p
                )

    def test_cache_reset_is_consistent(self):
        sc = semicircular_space()
        before = kappa_n(sc, letters(x_word(4)))
        clear_caches()
        assert kappa_n(sc, letters(x_word(4))) == before

    def test_memos_are_keyed_by_the_model_object(self):
        # A model that shares the semicircular's name but not its moments
        # gets its own cumulants once the real model's memo is warm.
        sc = semicircular_space()
        args = letters(x_word(2))
        assert kappa_n(sc, args) == 1
        doubled = MomentOracle(sc.name, lambda w: 2 * semicircular_phi(w), sc.phi2)
        assert kappa_n(doubled, args) == 2
        assert kappa_n(sc, args) == 1

    def test_clear_caches_empties_every_memo(self):
        # The summation plans and the product formula's summands are emptied too.
        clear_caches()
        main_product_cumulant(formal_moment_space(), a_word(4), Composition((1, 1, 2), split=2))
        info = memo_info()
        assert set(info) == {"kappa", "plan", "nonzero_summands"}
        assert all(memo["misses"] > 0 for memo in info.values()), info
        # one entry per (model, word, shape): bounded, so a long-lived process stays flat
        assert info["nonzero_summands"]["maxsize"] is not None
        clear_caches()
        assert all(memo["currsize"] == 0 for memo in memo_info().values())

    def test_a_memo_dies_with_its_model(self):
        # Each model keeps its cumulants in its own memo, so a dropped model
        # takes its entries with it; a memo keyed by the model object kept
        # all 10 000 of these.
        sc = semicircular_space()
        args = letters(x_word(6))
        want = kappa_n(sc, args)
        gc.collect()  # models that other tests dropped in reference cycles go first
        before = memo_info()["kappa"]["currsize"]
        for _ in range(2000):
            model = MomentOracle("fresh", sc.phi, sc.phi2)
            assert kappa_n(model, args) == want
        assert memo_info()["kappa"]["currsize"] > before  # the last model is alive
        del model
        gc.collect()
        assert memo_info()["kappa"]["currsize"] == before

    def test_clear_caches_empties_a_live_models_memo(self):
        sc = semicircular_space()
        model = MomentOracle("alive", sc.phi, sc.phi2)
        args = letters(x_word(4))
        want = kappa_n(model, args)
        assert model.memo and memo_info()["kappa"]["currsize"] >= len(model.memo)
        clear_caches()
        assert model.memo == {} and memo_info()["kappa"]["currsize"] == 0
        assert kappa_n(model, args) == want and model.memo
        with pytest.raises(TypeError):
            MomentOracle("memo", sc.phi, sc.phi2, {})  # the memo is no constructor parameter

    def test_entry_points_still_validate(self):
        sc = semicircular_space()
        with pytest.raises(ValueError):
            kappa_n(sc, ())
        with pytest.raises(ValueError):
            kappa_pq(sc, letters(x_word(2)), ((),))
        with pytest.raises(ValueError):
            kappa_vp(sc, letters(x_word(2)), PartitionedPermutation.disc(Permutation.identity(3)))


def _compositions(n):
    out = []
    for mask in range(1 << (n - 1)):
        parts, size = [], 1
        for i in range(n - 1):
            if mask >> i & 1:
                parts.append(size)
                size = 1
            else:
                size += 1
        parts.append(size)
        out.append(Composition(tuple(parts)))
    return out


def _split_compositions(total):
    out = []
    for p in range(1, total):
        for left in _compositions(p):
            for right in _compositions(total - p):
                out.append(
                    Composition(left.parts + right.parts, split=left.part_count)
                )
    return out


def _least_rotation(word):
    text = "".join(generator for generator, _ in word)
    return min(text[i:] + text[:i] for i in range(len(text)))


# Nine distinct letters "1" ... "9", exponent +1, whose moments are free
# symbols canonical only under rotation (and, for phi2, swapping the
# circles): every cumulant sees the order of its arguments.
ORDERED = MomentOracle(
    "ordered-letters",
    lambda w: sym("a" + _least_rotation(w)),
    lambda w1, w2: sym("a" + ",".join(sorted([_least_rotation(w1), _least_rotation(w2)]))),
)


def _ordered_cases(max_total):
    """(formula, word 1 ... N, composition) for every composition of total <= max_total."""
    for total in range(1, max_total + 1):
        word = tuple((str(i), 1) for i in range(1, total + 1))
        for comp in _compositions(total):
            yield ks_product_cumulant, word, comp
        for comp in _split_compositions(total):
            yield main_product_cumulant, word, comp


class TestArgumentOrder:
    def test_product_formulas_on_ordered_letters(self):
        cases = 0
        for formula, word, comp in _ordered_cases(6):
            assert formula(ORDERED, word, comp) == oracle_product_cumulant(ORDERED, word, comp), comp
            cases += 1
        assert cases == 192

    def test_reversed_arguments_are_caught(self, monkeypatch):
        # A mutant that reads every cycle's arguments backwards leaves the
        # one-letter models blind; the ordered letters are not.  The plans
        # hold their getters, so they are built afresh under the mutant.
        # The getters are reversed in ``_table`` alone: a reversed
        # ``_composer0`` would also reverse ``_plan``'s gamma.
        table = cumulants._table
        clear_caches()
        try:
            monkeypatch.setattr(
                cumulants, "_table", lambda blocks: table([tuple(c[::-1] for c in b) for b in blocks])
            )
            mismatches = sum(
                formula(ORDERED, word, comp) != oracle_product_cumulant(ORDERED, word, comp)
                for formula, word, comp in _ordered_cases(5)
            )
        finally:
            monkeypatch.undo()
            clear_caches()  # the mutant's plans and values are in the memos
        assert mismatches > 0  # 73 of the 80 cases


def _rotations(args):
    return [args[i:] + args[:i] for i in range(len(args))]


def _rotated_requests(max_total):
    """Every rotation of ``1 ... N`` as kappa_N's arguments, and at each split every
    rotation of each circle in both circle orders, for N <= ``max_total``."""
    for total in range(1, max_total + 1):
        args = letters(tuple((str(i), 1) for i in range(1, total + 1)))
        yield from ((rot,) for rot in _rotations(args))
        for p in range(1, total):
            for outer, inner in itertools.product(_rotations(args[:p]), _rotations(args[p:])):
                yield outer, inner
                yield inner, outer


def _rotation_mismatches(rounds=3):
    """The requests of ``_rotated_requests(5)`` on ``ORDERED`` whose cumulant differs
    in value or type from a plain recursion's, visited in a fresh shuffled order
    from empty memos in each round."""
    requests = list(_rotated_requests(5))
    assert len(requests) == 85
    plain, mismatches = _PlainRecursion(ORDERED), 0
    for seed in range(rounds):
        clear_caches()
        random.Random(seed).shuffle(requests)
        for groups in requests:
            got = kappa_n(ORDERED, *groups) if len(groups) == 1 else kappa_pq(ORDERED, *groups)
            want = plain.kappa(*groups)
            mismatches += got != want or type(got) is not type(want)
    return mismatches


class TestCanonicalKeys:
    def test_every_rotation_and_circle_order_matches_a_plain_recursion(self):
        assert _rotation_mismatches() == 0

    def test_a_reflecting_canonical_key_is_caught(self, monkeypatch):
        # Cumulants are not invariant under reversing their arguments: a key
        # that also takes the least reflection answers with the wrong class.
        def dihedral(groups):
            least = (min(b[i:] + b[:i] for b in (a, a[::-1]) for i in range(len(b))) for a in groups)
            return tuple(sorted(least, key=lambda args: (len(args), args)))

        try:
            monkeypatch.setattr(cumulants, "_canonical", dihedral)
            mismatches = _rotation_mismatches(rounds=1)
        finally:
            monkeypatch.undo()
            clear_caches()  # the mutant's values are in the memo
        assert mismatches > 0

    def test_each_rotation_class_is_walked_once(self, monkeypatch):
        # The 64 sign patterns of a Haar word on the (3, 3) annulus fall into
        # 10 classes under rotating either circle and swapping the two.
        walked = []

        def plan(sizes):
            walked.append(sizes)
            return _plan(sizes)

        def sweep():
            for signs in itertools.product((1, -1), repeat=6):
                assert haar_kappa_pq(3, 3, signs) == _haar_predicted(3, 3, signs), signs

        clear_caches()
        monkeypatch.setattr(cumulants, "_plan", plan)
        sweep()
        monkeypatch.undo()  # memo_info reads the real plan cache
        assert walked.count((3, 3)) == 10
        misses = memo_info()["kappa"]["misses"]
        sweep()
        assert memo_info()["kappa"]["misses"] == misses
