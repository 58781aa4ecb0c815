"""Moment oracles, words, and the exact polynomial ring."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ncfree.spaces import (
    CumulantPolynomial,
    MomentOracle,
    a_word,
    alpha2_symbol,
    alpha_symbol,
    catalan,
    concat_words,
    formal_moment_space,
    gen_word,
    haar_phi,
    haar_phi2,
    haar_unitary_space,
    kappa2_symbol,
    kappa_symbol,
    semicircular_phi,
    semicircular_phi2,
    semicircular_phi2_closed,
    semicircular_space,
    u_word,
    x_word,
)

symbols = st.sampled_from(
    [kappa_symbol(n) for n in range(1, 4)]
    + [kappa2_symbol(1, 1), kappa2_symbol(1, 2)]
)
monomials = st.lists(symbols, max_size=3)
coeffs = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)


@st.composite
def polynomials(draw):
    acc = CumulantPolynomial.zero()
    for _ in range(draw(st.integers(0, 3))):
        term = CumulantPolynomial.constant(draw(coeffs))
        for sym in draw(monomials):
            term = term * CumulantPolynomial.from_symbol(sym)
        acc = acc + term
    return acc


class TestWords:
    def test_generators(self):
        assert x_word(2) == (("x", 1), ("x", 1))
        assert a_word(1) == (("a", 1),)
        assert u_word((1, -1)) == (("u", 1), ("u", -1))
        assert gen_word("x", 3) == x_word(3)

    def test_concat(self):
        assert concat_words([x_word(1), x_word(2)]) == x_word(3)

    def test_u_word_rejects_bad_signs(self):
        with pytest.raises(ValueError):
            u_word((1, 0))

    def test_negative_lengths_are_refused(self):
        # a negative length used to give the empty word, like length 0
        assert gen_word("x", 0) == x_word(0) == ()
        for make in (lambda n: gen_word("x", n), x_word, a_word):
            with pytest.raises(ValueError, match="at least 0"):
                make(-1)


class TestSemicircular:
    def test_catalan(self):
        assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_moments(self):
        assert [semicircular_phi(x_word(n)) for n in range(1, 9)] == [
            0, 1, 0, 2, 0, 5, 0, 14,
        ]

    def test_fluctuations_small(self):
        assert semicircular_phi2(1, 1) == 1
        assert semicircular_phi2(2, 2) == 2
        assert semicircular_phi2(1, 3) == 3
        assert semicircular_phi2(2, 4) == 8
        assert semicircular_phi2(1, 2) == 0

    def test_closed_form_agrees(self):
        for p in range(1, 7):
            for q in range(1, 7):
                assert semicircular_phi2(p, q) == semicircular_phi2_closed(p, q)

    def test_oracle_wiring(self):
        sc = semicircular_space()
        assert sc.phi(x_word(4)) == 2
        assert sc.phi2(x_word(2), x_word(2)) == 2


class TestHaar:
    def test_phi_counts_cancellation(self):
        assert haar_phi(u_word((1, -1))) == 1
        assert haar_phi(u_word((1, 1))) == 0
        assert haar_phi(()) == 1

    def test_phi2_matches_winding(self):
        assert haar_phi2(u_word((1, 1)), u_word((-1, -1))) == 2
        assert haar_phi2(u_word((1, 1)), u_word((1, 1))) == 0
        assert haar_phi2(u_word((1, -1)), u_word((1, -1))) == 0

    def test_oracle_wiring(self):
        hu = haar_unitary_space()
        assert hu.phi(u_word((1, -1, 1, -1))) == 1
        assert hu.phi2(u_word((1,)), u_word((-1,))) == 1


class TestFormal:
    def test_phi_returns_moment_symbols(self):
        fm = formal_moment_space()
        assert fm.phi(a_word(2)) == CumulantPolynomial.from_symbol(alpha_symbol(2))
        got = fm.phi2(a_word(2), a_word(1))
        assert got == CumulantPolynomial.from_symbol(alpha2_symbol(1, 2))

    def test_rejects_other_letters(self):
        with pytest.raises(ValueError):
            formal_moment_space().phi(x_word(2))


def _assert_model_contract(model, letters, max_length=6):
    """The contract of ``MomentOracle`` over every word of ``letters`` up to
    ``max_length``: phi is invariant under rotation, and phi2 under rotating
    either word and under swapping the two."""
    words = [w for n in range(1, max_length + 1) for w in itertools.product(letters, repeat=n)]

    def rotations(word):
        return [word[i:] + word[:i] for i in range(1, len(word))]

    for w in words:
        value = model.phi(w)
        assert all(model.phi(r) == value for r in rotations(w)), ("phi rotation", model.name, w)
    for w1, w2 in itertools.product(words, repeat=2):
        value, where = model.phi2(w1, w2), (model.name, w1, w2)
        assert model.phi2(w2, w1) == value, ("phi2 swap", *where)
        assert all(model.phi2(r, w2) == value for r in rotations(w1)), ("phi2 rotation", *where)
        assert all(model.phi2(w1, r) == value for r in rotations(w2)), ("phi2 rotation", *where)


class TestModelContract:
    # The cumulant memo walks one argument tuple per rotation/swap class,
    # which is sound only for models that keep this contract.
    @pytest.mark.parametrize(
        "model, letters",
        [
            (semicircular_space(), x_word(1)),
            (haar_unitary_space(), u_word((1, -1))),
            (formal_moment_space(), a_word(1)),
        ],
        ids=["semicircular", "haar", "formal"],
    )
    def test_models_keep_the_contract(self, model, letters):
        _assert_model_contract(model, letters)

    def test_an_asymmetric_phi2_is_caught(self):
        lopsided = MomentOracle("lopsided", len, lambda w1, w2: Fraction(len(w1), len(w2) + 2))
        with pytest.raises(AssertionError, match="phi2 swap"):
            _assert_model_contract(lopsided, a_word(1))

    def test_a_phi_that_is_not_tracial_is_caught(self):
        first = MomentOracle("first letter", lambda w: w[0][1], lambda w1, w2: 0)
        with pytest.raises(AssertionError, match="phi rotation"):
            _assert_model_contract(first, u_word((1, -1)))


class TestSymbols:
    def test_canonical_order(self):
        assert kappa2_symbol(3, 1) == kappa2_symbol(1, 3) == "k1,3"
        assert alpha2_symbol(2, 1) == "a1,2"
        assert kappa_symbol(2) == "k2"

    @pytest.mark.parametrize(
        "symbol, orders",
        [
            (kappa_symbol, (2.0,)),
            (kappa_symbol, (True,)),
            (kappa_symbol, (0,)),
            (kappa2_symbol, (1, 2.5)),
            (kappa2_symbol, (False, 2)),
            (alpha_symbol, (Fraction(3),)),
            (alpha_symbol, ("3",)),
            (alpha2_symbol, (2, 1.0)),
            (alpha2_symbol, (1, -1)),
        ],
    )
    def test_orders_must_be_positive_ints(self, symbol, orders):
        with pytest.raises(ValueError, match="positive ints"):
            symbol(*orders)

    @pytest.mark.parametrize("text", ["aAB", "x", "k", "k0", "K1", "k01", "k1,", "a1,,2"])
    def test_from_symbol_refuses_text_that_is_not_a_symbol(self, text):
        # "aAB" used to be accepted, and failed in int() at its first product or print
        with pytest.raises(ValueError, match="is not a symbol"):
            CumulantPolynomial.from_symbol(text)

    def test_from_symbol_reads_every_order(self):
        # the forms of the ordered-letters model in the cumulant tests
        poly = CumulantPolynomial.from_symbol("a12,3") * CumulantPolynomial.from_symbol("a123")
        assert str(poly) == "a123*a12,3"
        assert poly.to_latex() == "\\alpha_{123} \\alpha_{12,3}"


class TestPolynomialRing:
    @pytest.mark.parametrize("other", [3.0, "3", None], ids=["float", "str", "none"])
    def test_equality_with_a_non_scalar_is_left_to_the_other_side(self, other):
        three = CumulantPolynomial.constant(3)
        assert three.__eq__(other) is NotImplemented
        assert three != other

    def test_zero_and_constants(self):
        zero = CumulantPolynomial.zero()
        assert not zero
        assert zero == 0
        assert CumulantPolynomial.constant(3) == 3
        assert CumulantPolynomial.constant(Fraction(1, 2)) == Fraction(1, 2)

    def test_mixed_arithmetic(self):
        k2 = CumulantPolynomial.from_symbol("k2")
        poly = 2 * k2 + 1 - k2
        assert poly == k2 + 1
        assert poly - 1 == k2
        assert (k2 + 1) * (k2 - 1) == k2 * k2 - 1

    def test_power(self):
        k1 = CumulantPolynomial.from_symbol("k1")
        assert k1**3 == k1 * k1 * k1
        assert k1**0 == 1

    def test_sum_collapses_to_scalar(self):
        assert CumulantPolynomial.sum([1, 2, Fraction(1, 2)]) == Fraction(7, 2)
        k1 = CumulantPolynomial.from_symbol("k1")
        assert CumulantPolynomial.sum([k1, 1, -k1]) == 1

    def test_sum_of_repeated_objects_is_the_fold(self):
        # sum counts each polynomial object and adds its terms once, times the
        # count; the value, its type and every coefficient's type are the fold's.
        k1 = CumulantPolynomial.from_symbol("k1")
        k2 = CumulantPolynomial.from_symbol("k2")
        p = k1 * k1 + Fraction(1, 2) * k2 - 3
        minus_p = -p
        cases = (
            [p, p, p],
            [p, 3, p, Fraction(1, 4), k2, p, -2],
            [p, minus_p, p, Fraction(1, 2), minus_p, Fraction(-1, 2)],  # cancels to zero
            [p, minus_p, p, minus_p],  # a zero polynomial, not 0
            [k2, p, k2, Fraction(3, 2), k2, 7, p],
            [1, 2, 3],  # stays an int
            [Fraction(1, 2), 1, Fraction(1, 2)],
            [],
        )
        for values in cases:
            got = CumulantPolynomial.sum(iter(values))
            want = 0
            for v in values:
                want = want + v
            assert got == want, values
            assert type(got) is type(want), values
            if isinstance(want, CumulantPolynomial):
                assert [type(c) for _, c in got.sorted_terms()] == [
                    type(c) for _, c in want.sorted_terms()
                ]

    @given(st.lists(st.one_of(polynomials(), coeffs), min_size=1, max_size=4), st.data())
    def test_sum_with_repeats_matches_the_fold(self, pool, data):
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=8))
        values = [pool[i] for i in picks]
        want = 0
        for v in values:
            want = want + v
        got = CumulantPolynomial.sum(values)
        assert got == want and type(got) is type(want)

    def test_substitute(self):
        k1 = CumulantPolynomial.from_symbol("k1")
        k2 = CumulantPolynomial.from_symbol("k2")
        poly = k2 + k1 * k1
        assert poly.substitute({"k1": 2, "k2": -1}) == 3
        assert poly.substitute({"k1": k2, "k2": 0}) == k2 * k2
        with pytest.raises(KeyError, match="'k2'"):
            poly.substitute({"k1": 2})

    def test_rendering(self):
        k1 = CumulantPolynomial.from_symbol("k1")
        k11 = CumulantPolynomial.from_symbol("k1,1")
        poly = 2 * k1 * k1 - k11
        assert str(poly) == "-k1,1 + 2*k1^2"
        assert poly.to_latex() == "-\\kappa_{1,1} + 2 \\kappa_1^2"

    def test_json_form(self):
        poly = CumulantPolynomial.from_symbol("k2") * 3 + 1
        assert poly.to_json_obj() == [
            {"coeff": 1, "monomial": []},
            {"coeff": 3, "monomial": ["k2"]},
        ]

    def test_json_form_is_integer_only(self):
        poly = CumulantPolynomial.constant(Fraction(1, 2))
        with pytest.raises(ValueError):
            poly.to_json_obj()

    def test_coefficient_types(self):
        # ints (bool included) and fractions act as scalars, a whole
        # fraction is stored as an int, and other types are refused.
        k1 = CumulantPolynomial.from_symbol("k1")
        whole = CumulantPolynomial({("k1",): Fraction(4, 2)})
        assert whole == 2 * k1 and type(whole.terms[("k1",)]) is int
        assert k1 * True == k1 + False == k1 - False == k1
        assert (k1 * Fraction(1, 2)).terms == {("k1",): Fraction(1, 2)}
        assert k1 - Fraction(1, 2) == k1 + Fraction(-1, 2)
        with pytest.raises(TypeError):
            k1 * 1.5
        with pytest.raises(TypeError):
            k1 + "x"
        with pytest.raises(TypeError):
            k1 - 1.5
        with pytest.raises(TypeError):
            "x" - k1

    def test_constructor_refuses_floats_and_stores_bools_as_ints(self):
        # The constructor used to keep a float, and a bool serialised as true.
        for bad in (0.5, 1.0, "1", None):
            with pytest.raises(ValueError, match="neither an int nor a Fraction"):
                CumulantPolynomial({("k1",): bad})
        with pytest.raises(ValueError):
            CumulantPolynomial.constant(2.0)
        poly = CumulantPolynomial({("k1",): True, ("k2",): False})
        assert poly.terms == {("k1",): 1} and type(poly.terms[("k1",)]) is int
        assert json.dumps(poly.to_json_obj()) == '[{"coeff": 1, "monomial": ["k1"]}]'

    def test_sum_and_substitute_refuse_floats(self):
        # Both used to pass a float through: sum([0.5, 1]) was the float 1.5.
        k1 = CumulantPolynomial.from_symbol("k1")
        for values in ([0.5, 1], [1, 0.5], [Fraction(1, 2), 1.0], [k1, 0.5], ["1"], [None]):
            with pytest.raises(ValueError, match="not an int, a Fraction or a polynomial"):
                CumulantPolynomial.sum(values)
        with pytest.raises(ValueError, match="not an int, a Fraction or a polynomial"):
            k1.substitute({"k1": 0.5})
        for values, want in (([True, 2], 3), ([Fraction(1, 2), 1], Fraction(3, 2)), ([k1, 1], k1 + 1)):
            got = CumulantPolynomial.sum(values)
            assert got == want and type(got) is type(want), values
        got = k1.substitute({"k1": Fraction(1, 2)})
        assert got == Fraction(1, 2) and type(got) is Fraction

    @given(polynomials(), polynomials(), polynomials())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polynomials())
    def test_additive_inverse(self, a):
        assert a - a == 0
        assert a + (-a) == 0
        assert -(-a) == a

    @given(polynomials(), coeffs)
    def test_scalar_action_matches_constant_embedding(self, a, c):
        assert c * a == CumulantPolynomial.constant(c) * a
        assert a + c == a + CumulantPolynomial.constant(c)
