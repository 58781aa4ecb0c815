"""Acceptance gate: nine end-to-end checks over the whole library.

Each test prints one PASS/FAIL line (visible with ``pytest -s``; with
plain ``pytest -v`` the test status line carries the same information).
Every comparison is exact integer or polynomial equality, zero
tolerance.  Expected values come from frozen goldens and from
independent oracles, never from the code under test.
"""

import time

from ncfree import (
    AnnulusShape,
    Composition,
    PartitionedPermutation,
    Permutation,
    SetPartition,
    enumerate_psnc,
    enumerate_snc,
    fatten,
    haar_kappa_pq,
    is_snc,
    semicircular_square_kappa,
    snc_count,
    symbolic_phi2_expansion,
)
from ncfree.spaces import CumulantPolynomial, kappa2_symbol, kappa_symbol
from ncfree.verify import (
    check_fluctuations,
    check_mobius_recurrence,
    suite_haar,
    suite_ks,
    suite_lemmas,
    suite_main_theorem,
    suite_order,
    suite_semicircular_square,
)


def _run(num, label, budget, body):
    """Run one criterion body, print its line, enforce the time budget."""
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"FAIL  criterion {num}: {label}", flush=True)
        raise
    dt = time.perf_counter() - t0
    line = f"criterion {num}: {label}  ({dt:.2f}s, budget {budget}s)"
    if dt >= budget:
        print(f"FAIL  {line}", flush=True)
        raise AssertionError(f"over budget: {line}")
    print(f"PASS  {line}", flush=True)


def _all_pass(results):
    for res in results:
        print("      " + res.line(), flush=True)
    bad = [res.name for res in results if not res.passed]
    assert not bad, f"failed checks: {bad}"


# -- criterion 1: the moment-cumulant table ---------------------------

def _poly(terms):
    acc = CumulantPolynomial.zero()
    for coeff, symbols in terms:
        term = CumulantPolynomial.constant(coeff)
        for sym in symbols:
            term = term * CumulantPolynomial.from_symbol(sym)
        acc = acc + term
    return acc


_K = kappa_symbol
_K2 = kappa2_symbol

# The six published expansions of the second order moments, with the
# mixed-order second order symbols canonicalized to sorted indices.
TABLE_GOLDENS = {
    (1, 1): [(1, [_K2(1, 1)]), (1, [_K(2)])],
    (2, 1): [
        (1, [_K2(1, 2)]), (2, [_K(1), _K2(1, 1)]),
        (2, [_K(3)]), (2, [_K(1), _K(2)]),
    ],
    (2, 2): [
        (1, [_K2(2, 2)]), (4, [_K(1), _K2(2, 1)]),
        (4, [_K(1), _K(1), _K2(1, 1)]), (4, [_K(4)]),
        (8, [_K(1), _K(3)]), (2, [_K(2), _K(2)]),
        (4, [_K(1), _K(1), _K(2)]),
    ],
    (1, 3): [
        (1, [_K2(1, 3)]), (3, [_K(1), _K2(2, 1)]),
        (3, [_K(2), _K2(1, 1)]), (3, [_K(1), _K(1), _K2(1, 1)]),
        (3, [_K(4)]), (6, [_K(1), _K(3)]),
        (3, [_K(2), _K(2)]), (3, [_K(1), _K(1), _K(2)]),
    ],
    (2, 3): [
        (1, [_K2(2, 3)]), (2, [_K(1), _K2(1, 3)]),
        (3, [_K(1), _K2(2, 2)]), (3, [_K(2), _K2(1, 2)]),
        (9, [_K(1), _K(1), _K2(1, 2)]),
        (6, [_K(1), _K(2), _K2(1, 1)]),
        (6, [_K(1)] * 3 + [_K2(1, 1)]),
        (6, [_K(5)]), (18, [_K(1), _K(4)]), (12, [_K(2), _K(3)]),
        (18, [_K(1), _K(1), _K(3)]), (12, [_K(1), _K(2), _K(2)]),
        (6, [_K(1)] * 3 + [_K(2)]),
    ],
    (3, 3): [
        (1, [_K2(3, 3)]), (6, [_K(1), _K2(2, 3)]),
        (6, [_K(2), _K2(1, 3)]), (6, [_K(1), _K(1), _K2(1, 3)]),
        (9, [_K(1), _K(1), _K2(2, 2)]),
        (18, [_K(1), _K(2), _K2(1, 2)]),
        (18, [_K(1)] * 3 + [_K2(1, 2)]),
        (9, [_K(2), _K(2), _K2(1, 1)]),
        (18, [_K(1), _K(1), _K(2), _K2(1, 1)]),
        (9, [_K(1)] * 4 + [_K2(1, 1)]),
        (9, [_K(6)]), (36, [_K(1), _K(5)]), (27, [_K(2), _K(4)]),
        (54, [_K(1), _K(1), _K(4)]), (9, [_K(3), _K(3)]),
        (72, [_K(1), _K(2), _K(3)]), (36, [_K(1)] * 3 + [_K(3)]),
        (12, [_K(2)] * 3), (36, [_K(1), _K(1), _K(2), _K(2)]),
        (9, [_K(1)] * 4 + [_K(2)]),
    ],
}


def test_criterion_1_moment_cumulant_table():
    def body():
        for (p, q), terms in TABLE_GOLDENS.items():
            got = symbolic_phi2_expansion(p, q)
            want = _poly(terms)
            assert got == want, f"shape ({p},{q}): {got} != {want}"

    _run(1, "second order moment-cumulant table, six shapes", 10, body)


# -- criterion 2: small golden structures -----------------------------

def test_criterion_2_golden_sets():
    def body():
        # The four annular non-crossing permutations of the (2,1) shape.
        want_snc = {
            Permutation.parse("(1,3,2)"),
            Permutation.parse("(1,2,3)"),
            Permutation.parse("(1,3)(2)"),
            Permutation.parse("(1)(2,3)"),
        }
        assert set(enumerate_snc(AnnulusShape(2, 1))) == want_snc

        # Both partitioned permutations of the (1,1) shape.
        one2 = SetPartition.full(2)
        want_11 = {
            PartitionedPermutation(one2, Permutation.parse("(1,2)")),
            PartitionedPermutation(one2, Permutation.identity(2)),
        }
        assert set(enumerate_psnc(AnnulusShape(1, 1))) == want_11

        # The three glued elements of the (2,1) shape.
        e3 = Permutation.identity(3)
        want_tunnels = {
            PartitionedPermutation(SetPartition.full(3), Permutation.parse("(1,2)(3)")),
            PartitionedPermutation(SetPartition(3, [(1, 3), (2,)]), e3),
            PartitionedPermutation(SetPartition(3, [(1,), (2, 3)]), e3),
        }
        got_tunnels = {
            vp for vp in enumerate_psnc(AnnulusShape(2, 1)) if vp.kind == "tunnel"
        }
        assert got_tunnels == want_tunnels

        # The worked (8,4) example permutation is annular non-crossing.
        big = Permutation.parse("(1,2,12,9,8)(3,4)(5,10,11)(6)(7)")
        assert is_snc(big, AnnulusShape(8, 4))

        # Inflating (1,3)(2) along part sizes (2,3,4).
        got = fatten(Permutation.parse("(1,3)(2)"), Composition((2, 3, 4)))
        assert got == Permutation.parse("(1,2,6,7,8,9)(3,4,5)")

    _run(2, "golden enumerations and the inflation example", 1, body)


# -- criterion 3: the product formula for second order cumulants ------

def test_criterion_3_main_theorem():
    _run(
        3,
        "second order cumulants with products as entries, totals <= 8",
        8,
        lambda: _all_pass(suite_main_theorem(8, jobs=4)),
    )


# -- criterion 4: the first order product formula ---------------------

def test_criterion_4_first_order_products():
    _run(
        4,
        "first order cumulants with products as entries, n <= 8",
        10,
        lambda: _all_pass(suite_ks(8)),
    )


# -- criterion 5: semicircular fluctuation moments --------------------

def test_criterion_5_semicircular_fluctuations():
    def body():
        _all_pass([check_fluctuations(10)])

    _run(5, "fluctuation moments three ways, even totals <= 10", 10, body)


# -- criterion 6: squares of a semicircular ---------------------------

def test_criterion_6_semicircular_squares():
    def body():
        assert semicircular_square_kappa(1, 1) == 1
        assert semicircular_square_kappa(2, 1) == 2
        assert semicircular_square_kappa(2, 2) == 6
        _all_pass(suite_semicircular_square(4))

    _run(6, "squared semicircular cumulants, shapes up to (4,4)", 30, body)


# -- criterion 7: Haar unitary cumulants ------------------------------

def test_criterion_7_haar_unitary():
    def body():
        _all_pass(suite_haar(8, jobs=4))
        for (m, n), want in (((1, 1), 1), ((1, 2), -4), ((2, 1), -4), ((2, 2), 18)):
            signs = tuple((-1) ** i for i in range(2 * m + 2 * n))
            got = haar_kappa_pq(2 * m, 2 * n, signs)
            assert got == want == (-1) ** (m + n) * snc_count(m, n), (
                f"(m,n)=({m},{n}): got {got!r}, want {want}"
            )

    _run(7, "unitary sign sweeps and the four frozen values", 10, body)


# -- criterion 8: the counting recurrence -----------------------------

def test_criterion_8_mobius_recurrence():
    def body():
        _all_pass([check_mobius_recurrence(8)])

    _run(8, "signed annular counts satisfy the recurrence, totals <= 8", 10, body)


# -- criterion 9: the structural lemma suite --------------------------

def test_criterion_9_lemma_suite():
    def body():
        _all_pass(suite_lemmas(jobs=4) + suite_order(jobs=2))

    _run(9, "exhaustive structural lemmas at full bounds", 35, body)
