"""First and second order free cumulants, and cumulants with products as
arguments.

Arguments to a cumulant are given as a tuple of words; entry i is the i-th
argument of the multilinear functional, and a plain letter is a word of
length one.  Moments of products are then concatenations, which is all the
recursions need.

First order: kappa_n is defined by inverting

    phi(w) = sum over disc non-crossing pi of prod over cycles kappa_|c|,

solved for the full-cycle term.  Every other summand only involves
cumulants of strictly smaller order, so the recursion grounds at
kappa_1 = phi.

Second order: kappa_{p,q} inverts

    phi2(w1, w2) = sum over annular partitioned permutations (V, pi)
                   of kappa_(V,pi),

where kappa_(V,pi) multiplies kappa_|c| over single-cycle blocks and
kappa_{s,t} over the glued two-cycle block.  The solved-for term is the
top element (1, gamma_pq); every other tunnel summand has its glued block
sizes (s, t) <= (p, q) with at least one strict inequality (s = p forces
the outer factor to be the full cycle, likewise inside, and both at once
happen only at the top), so the recursion terminates, grounding in first
order and in kappa_{1,1}.

The product formulas: for grouped arguments A_i = a_{n_1+...+n_{i-1}+1}
... a_{n_1+...+n_i},

    kappa_r(A_1, ..., A_r)      = sum over sigma in NC(n) with
                                  sigma join tau = 1_n of kappa_sigma,
    kappa_{r,s}(A_1, ..., A_{r+s}) = sum over annular (V, pi) whose
                                  complement pi^-1 gamma_pq separates the
                                  group endpoints of kappa_(V,pi).

tau the interval partition of the groups.  That join is 1_n exactly when
sigma^-1 gamma_n separates the group endpoints (the lemma that
``verify.check_first_sep`` sweeps), so one separation test serves both sums.
The test suite checks both against the direct recursions on the grouped
words; neither is assumed.

Every sum above walks a plan built once per size (n,) or shape (p, q),
``_plan(sizes)``, which reads the family once, lazily: a table of the
distinct blocks (the enumeration's own 1-based cycle tuples, each cycle with
a prebuilt getter of its arguments) and one ``(numbers, mask)`` record per
element: its blocks' table indices smallest first, and a bit per pair of
points in one cycle of the complement pi^-1 gamma, so a point set is
separated when its own pair mask meets the record's in no bit.  Records come
in stretches, one per first block, the solved-for element (permutation
gamma) last and alone.  ``_kappa_blocks``, a generator, is the only code
that multiplies cumulants over blocks: it yields each record's product as
it walks, evaluates each block and each product once per walk, of any
scalar type, stops a product at its first zero factor and leaves a stretch
whose first block is an int zero (kappa_1(u) = 0 empties every Haar
element with a singleton).  So a zero product is the running product at its
first zero in size order: (1,2,3)(4) is 0 where kappa_1 is, not
kappa_3 * 0 = Fraction(0).

Memos: ``_kappa(model, groups)``, the one recursion of both orders, keeps
kappa_n of one argument tuple and kappa_{p,q} of two in ``model.memo``, as
long as the model lives.  By the contract of ``MomentOracle``, rotating a
tuple or swapping the two keeps the cumulant, so each rotation/swap class is
walked once, under its ``_canonical`` key.  ``_plan`` is an ``lru_cache``,
as is ``_nonzero_summands``: at most 128 (model, word, sizes) tables of the
products that are not an int zero, each built in one walk and never
changed.  A composition only selects summands, so a product formula call is
one filtered sum over a table, whose records share one product object where
their factors agree.  On a 2-CPU machine a lone formal-model call at (5 | 5),
plans built, took 0.6-1.0 s and peaked at 158 MB, and the next composition
there under 0.02 s.  ``oracle_product_cumulant`` never reads the tables.
``clear_caches()`` empties all of these, not the enumerations (``memo_info()``
shows them); every public entry point checks its total before it reads one.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from itertools import accumulate, combinations, islice
from math import comb
from typing import Iterator

from .annular import (
    AnnulusShape,
    Composition,
    PartitionedPermutation,
    _check_bound,
    count_snc_pairings,
    enumerate_nc,
    enumerate_psnc,
    enumerate_snc,
    is_nc_disc,
)
from .perm import Permutation, _composer0, _cycles0, _gamma0, _inverse0
from .spaces import (
    CumulantPolynomial,
    MomentOracle,
    Scalar,
    Word,
    _monomial,
    a_word,
    catalan,
    concat_words,
    formal_moment_space,
    haar_unitary_space,
    kappa2_symbol,
    kappa_symbol,
    u_word,
)

__all__ = [
    "clear_caches",
    "memo_info",
    "kappa_n",
    "kappa_pi",
    "kappa_pq",
    "kappa_vp",
    "phi_via_cumulants",
    "phi2_via_cumulants",
    "ks_product_cumulant",
    "main_product_cumulant",
    "oracle_product_cumulant",
    "symbolic_phi_expansion",
    "symbolic_phi2_expansion",
    "symbolic_kappa_pq",
    "snc_count",
    "snc_closed_form",
    "catalan",
    "mobius_full_cycle",
    "mobius_annulus",
    "mobius_recurrence_residual",
    "haar_kappa_pq",
    "semicircular_square_kappa",
]

Args = tuple[Word, ...]
_KAPPA_COUNTS = {"hits": 0, "misses": 0}  # of every ``model.memo``, as an lru_cache counts
_MODELS: weakref.WeakSet[MomentOracle] = weakref.WeakSet()  # the live models with a memo entry


def _norm_args(*groups) -> tuple[Args, ...]:
    """Each argument list as a tuple of word tuples, their total count checked."""
    out = tuple(tuple(tuple(w) for w in args) for args in groups)
    if not all(args and all(args) for args in out):
        raise ValueError("cumulant arguments must be nonempty words")
    _check_bound(sum(map(len, out)))
    return out


def _points(block) -> int:
    return len(block[0]) if len(block) == 1 else len(block[0]) + len(block[1])


def _pair_mask(n: int, groups) -> int:
    """Bit i*n + j for each pair i < j of 0-based points in one of ``groups``, each ascending."""
    return sum(1 << (i * n + j) for group in groups for i, j in combinations(group, 2))


@lru_cache(maxsize=None)
def _plan(sizes: tuple[int, ...]) -> tuple:
    """The elements of NC(n), sizes (n,), or of PS_NC(p, q), sizes (p, q), as ``_table``
    of the distinct blocks and per first block a stretch of ``(numbers, mask)`` records,
    the top (gamma_pq, whose complement has no through cycle) last and alone.  ``numbers``
    index the table by point count, ties in min-point order; ``mask`` is the complement
    cycles' ``_pair_mask``, one object per permutation, whose elements are adjacent.
    The family is read once, lazily, so blocks that are not pooled die one by one."""
    if len(sizes) == 1:
        elements = ((pi, [(c,) for c in pi.cycles]) for pi in enumerate_nc(*sizes))
    else:
        elements = ((vp.perm, vp.block_cycles()) for vp in enumerate_psnc(AnnulusShape(*sizes)))
    n, numbers, by_head, last = sum(sizes), {}, {}, None
    times_gamma = _composer0(_gamma0(*sizes))
    for pi, blocks in elements:
        if pi is not last:
            complement = times_gamma(_inverse0([x - 1 for x in pi.image]))
            last, mask = pi, _pair_mask(n, map(sorted, _cycles0(complement)))
        record = tuple([numbers.setdefault(b, len(numbers)) for b in sorted(blocks, key=_points)])
        by_head.setdefault(record[0] if mask else None, []).append((record, mask))
    by_head[None] = by_head.pop(None)  # the top, last
    return _table(numbers), tuple(map(tuple, by_head.values()))


def _table(blocks) -> tuple:
    """``(block, *getters)`` per block of 1-based cycles: ``_composer0`` of each cycle."""
    return tuple([(block, *map(_composer0, block)) for block in blocks])


def _kappa_blocks(model: MomentOracle, args: Args, table, stretches) -> Iterator[tuple[object, Scalar]]:
    """Yield ``(tag, product)`` of each ``(numbers, tag)`` record of ``stretches`` whose
    product is not an int zero: over the blocks of ``table`` that ``numbers`` names,
    kappa_n of each one-cycle block's arguments times kappa_{s,t} of each two-cycle
    one's, left to right, stopped at its first zero factor.  The records of a stretch
    share their first block, so one whose first block is an int zero ends its stretch.

    A block is evaluated once per walk, from ``model.memo`` if there, and each
    product once per pair of operands, by identity, so records whose factors
    agree share every running product, whatever the scalar type.  Every keyed
    operand is held in ``factors`` or ``products`` until the walk ends, so no
    id is reused while it is a key."""
    args = (None, *args)  # cycles count from 1
    memo, hits = model.memo, 0
    factors = [None] * len(table)  # by block number
    products: dict[tuple[int, int], Scalar] = {}  # by ids: both operands are held
    for stretch in stretches:
        for numbers, tag in stretch:
            value: Scalar | None = None  # not 1: a polynomial times 1 is a copy
            for i in numbers:
                factor = factors[i]
                if factor is None:
                    entry = table[i]
                    groups = (entry[1](args),) if len(entry) == 2 else (entry[1](args), entry[2](args))
                    factor = memo.get(groups)
                    hits += factor is not None
                    if factor is None:
                        factor = _kappa(model, groups)
                    factors[i] = factor
                if value is None:
                    value = factor
                else:
                    key = (id(value), id(factor))
                    product = products.get(key)
                    if product is None:
                        product = products[key] = value * factor
                    value = product
                if not value:
                    break
            if value or type(value) is not int:
                yield tag, value
            elif i == numbers[0]:
                break
    _KAPPA_COUNTS["hits"] += hits


def _block_product(model: MomentOracle, args: Args, blocks) -> Scalar:
    """kappa over ``blocks``, multiplied smallest first as in a plan."""
    return _summed(model, args, _table(sorted(blocks, key=_points)), [[(range(len(blocks)), None)]])


def _summed(model: MomentOracle, args: Args, table, stretches) -> Scalar:
    """The sum of the products of the records of ``stretches`` on ``args``."""
    return CumulantPolynomial.sum(v for _, v in _kappa_blocks(model, args, table, stretches))


def _canonical(groups: tuple[Args, ...]) -> tuple[Args, ...]:
    """The least rotation of each argument tuple, two of them shorter first, then
    sorted: a miss at (q, p), p < q, walks the plan of (p, q), never both."""
    least = (min(args[i:] + args[:i] for i in range(len(args))) for args in groups)
    return tuple(sorted(least, key=lambda args: (len(args), args)))


def _kappa(model: MomentOracle, groups: tuple[Args, ...]) -> Scalar:
    """kappa_n of one argument tuple, kappa_{p,q} of two, kept in ``model.memo``: the
    moment of the concatenated words less every summand of the plan but the solved-for one.
    A miss reads, or walks once, the ``_canonical`` key and keeps its value under ``groups``."""
    value = model.memo.get(groups)
    if value is not None:
        _KAPPA_COUNTS["hits"] += 1
        return value
    key = _canonical(groups)
    value = model.memo.get(key)
    _KAPPA_COUNTS["hits" if value is not None else "misses"] += 1
    if value is None:
        table, stretches = _plan(tuple(map(len, key)))
        args = key[0] if len(key) == 1 else key[0] + key[1]
        below = _summed(model, args, table, islice(stretches, len(stretches) - 1))
        words = tuple(map(concat_words, key))
        if not model.memo:
            _MODELS.add(model)
        value = model.memo[key] = (model.phi if len(words) == 1 else model.phi2)(*words) - below
    model.memo[groups] = value
    return value


@lru_cache(maxsize=128)
def _nonzero_summands(model: MomentOracle, word: Word, sizes: tuple[int, ...]) -> tuple:
    """The summands of ``_plan(sizes)`` on the letters of ``word``: per record
    whose product is not an int zero, its complement's pair mask and that
    product, one object for records with the same factors.  Built in one walk
    and never changed; a composition only selects from it.

    An int zero adds nothing to a sum and leaves its type alone, unlike a
    Fraction or polynomial zero.  A record whose complement joins the ends
    of the two circles is left out: every composition's endpoints hold
    both.  The disc has one end, so there every record stays.
    """
    ends = _pair_mask(sum(sizes), [[end - 1 for end in accumulate(sizes)]])
    table, stretches = _plan(sizes)
    kept = ([rec for rec in stretch if not rec[1] & ends] for stretch in stretches)
    return tuple(_kappa_blocks(model, tuple([(letter,) for letter in word]), table, kept))


def clear_caches() -> None:
    """Empty the cumulant memo of every live model, the summation plans and
    the product formulas' summands; the enumerations (one tuple per size or
    shape) stay.  A model's cumulant memo lives as long as the model."""
    for model in _MODELS:
        model.memo.clear()
    _KAPPA_COUNTS.update(hits=0, misses=0)
    _plan.cache_clear()
    _nonzero_summands.cache_clear()


def memo_info() -> dict[str, dict[str, int]]:
    """Hits, misses and size of each memo that ``clear_caches`` empties, the live models' memos as one."""
    kappa = dict(_KAPPA_COUNTS, maxsize=None, currsize=sum(len(model.memo) for model in _MODELS))
    lru = {m.__name__[1:]: m.cache_info()._asdict() for m in (_plan, _nonzero_summands)}
    return {"kappa": kappa, **lru}


def kappa_n(model: MomentOracle, args) -> Scalar:
    """The free cumulant of the argument list, by the disc recursion."""
    return _kappa(model, _norm_args(args))


def kappa_pi(model: MomentOracle, args, pi: Permutation) -> Scalar:
    """Product of cumulants over the cycles of a disc non-crossing pi, smallest first."""
    (args,) = _norm_args(args)
    if pi.size != len(args):
        raise ValueError("permutation size does not match argument count")
    if not is_nc_disc(pi):
        raise ValueError(f"{pi!r} is not disc non-crossing")
    return _block_product(model, args, [(c,) for c in pi.cycles])


def kappa_pq(model: MomentOracle, args1, args2) -> Scalar:
    """The second order cumulant, by the annular recursion."""
    return _kappa(model, _norm_args(args1, args2))


def kappa_vp(model: MomentOracle, args, vp: PartitionedPermutation) -> Scalar:
    """The cumulant attached to a partitioned permutation.

    Single-cycle blocks contribute kappa over the cycle (arguments read in
    cycle order from the minimum); a two-cycle block contributes
    kappa_{s,t} with the cycle of smaller minimum first, for the annular
    elements the outer-circle one.  Blocks multiply smallest first, as in a
    plan.  A block of three or more cycles is a ValueError.
    """
    (args,) = _norm_args(args)
    if vp.size != len(args):
        raise ValueError("partitioned permutation size does not match arguments")
    blocks = vp.block_cycles()
    if any(len(block) > 2 for block in blocks):
        raise ValueError("a block may hold at most two cycles")
    return _block_product(model, args, blocks)


# -- reconstruction (the defining sums, used as consistency checks) ----


def phi_via_cumulants(model: MomentOracle, args) -> Scalar:
    """Sum of kappa_pi over all disc non-crossing pi."""
    (args,) = _norm_args(args)
    return _summed(model, args, *_plan((len(args),)))


def phi2_via_cumulants(model: MomentOracle, args1, args2) -> Scalar:
    """Sum of kappa_(V,pi) over all annular partitioned permutations."""
    args1, args2 = _norm_args(args1, args2)
    return _summed(model, args1 + args2, *_plan((len(args1), len(args2))))


# -- cumulants with products as arguments ------------------------------


def _composed_word(word, comp: Composition) -> Word:
    """``word`` as a tuple, refused unless ``comp`` exhausts it and its total is in bound."""
    word = tuple(word)
    if comp.total != len(word):
        raise ValueError("composition does not exhaust the word")
    _check_bound(comp.total)  # bounds the part count too: the parts are positive
    return word


def ks_product_cumulant(model: MomentOracle, word, comp: Composition) -> Scalar:
    """First order cumulant with products as entries, as a filtered sum.

    ``comp`` groups the letters of ``word`` into consecutive products; the
    value is the sum of kappa_sigma over disc non-crossing sigma whose
    join with the interval partition of ``comp`` is everything, that is,
    whose complement sigma^-1 gamma_n separates the group endpoints.  The
    contract (checked by the suite, not assumed) is equality with
    kappa_r of the grouped words, r the number of parts.
    """
    if comp.split is not None:
        raise ValueError("use a split composition with main_product_cumulant")
    return _separated_sum(model, _composed_word(word, comp), (comp.total,), comp.boundary_points)


def main_product_cumulant(model: MomentOracle, word, comp: Composition) -> Scalar:
    """Second order cumulant with products as entries, as a filtered sum.

    ``comp`` must be split; its first ``split`` parts group the outer
    letters, the rest the inner letters.  The sum runs over the annular
    partitioned permutations whose complement separates the group
    endpoints.  The contract (checked by the suite, not assumed) is
    equality with kappa_{r,s} of the grouped words.
    """
    sizes = (comp.p, comp.q)  # refuses an unsplit composition first
    return _separated_sum(model, _composed_word(word, comp), sizes, comp.boundary_points)


def _separated_sum(model: MomentOracle, word: Word, sizes: tuple[int, ...], points) -> Scalar:
    """The sum of the summands at ``sizes`` whose complement separates ``points``."""
    table = _nonzero_summands(model, word, sizes)
    ends = _pair_mask(len(word), [[pt - 1 for pt in points]])
    return CumulantPolynomial.sum(v for mask, v in table if not mask & ends)


def oracle_product_cumulant(model: MomentOracle, word, comp: Composition) -> Scalar:
    """The independent route: the direct recursion on the grouped words."""
    word = _composed_word(word, comp)
    groups = [word[end - n : end] for n, end in zip(comp.parts, comp.boundary_points)]
    r = comp.split
    return _kappa(model, (tuple(groups),) if r is None else (tuple(groups[:r]), tuple(groups[r:])))


# -- symbolic tables ---------------------------------------------------


def _monomial_counts(block_lists) -> CumulantPolynomial:
    """Count the cumulant monomial of each block list (as in ``_kappa_blocks``)."""
    acc: dict[tuple[str, ...], int] = {}
    for blocks in block_lists:
        monomial = _monomial(
            (kappa_symbol if len(block) == 1 else kappa2_symbol)(*map(len, block))
            for block in blocks
        )
        acc[monomial] = acc.get(monomial, 0) + 1
    return CumulantPolynomial(acc)


def symbolic_phi_expansion(n: int) -> CumulantPolynomial:
    """alpha_n as a polynomial in the first order cumulant symbols."""
    return _monomial_counts([(c,) for c in pi.cycles] for pi in enumerate_nc(n))


def symbolic_phi2_expansion(p: int, q: int) -> CumulantPolynomial:
    """alpha_{p,q} as a polynomial in cumulant symbols.

    One monomial per annular partitioned permutation: kappa over every
    single-cycle block and kappa_{s,t} over the glued block.
    """
    return _monomial_counts(vp.block_cycles() for vp in enumerate_psnc(AnnulusShape(p, q)))


def symbolic_kappa_pq(p: int, q: int) -> CumulantPolynomial:
    """kappa_{p,q} of a single generic element, in moment symbols."""
    value = kappa_pq(formal_moment_space(), (a_word(1),) * p, (a_word(1),) * q)
    return CumulantPolynomial.coerce(value)


# -- counts and the Mobius recurrence ----------------------------------


def snc_count(p: int, q: int) -> int:
    """Number of annular non-crossing permutations of the (p, q) shape,
    counted by enumeration."""
    return len(enumerate_snc(AnnulusShape(p, q)))


def snc_closed_form(p: int, q: int) -> int:
    """Mingo and Nica's |S_NC(p, q)| = 2pq/(p+q) C(2p-1, p) C(2q-1, q).

    Needs no enumeration, so it answers for any shape; ``snc_count``
    counts the enumerated family instead.
    """
    shape = AnnulusShape(p, q)
    return 2 * p * q * comb(2 * p - 1, p) * comb(2 * q - 1, q) // shape.total


def mobius_full_cycle(n: int) -> int:
    """Mobius value between the discrete and full partition on [n]."""
    return (-1) ** (n - 1) * catalan(n - 1)


def mobius_annulus(p: int, q: int) -> int:
    """Signed annular count (-1)^(p+q) |S_NC(p, q)|."""
    return (-1) ** (p + q) * snc_count(p, q)


def mobius_recurrence_residual(p: int, q: int) -> int:
    """Defect of the annular Mobius recurrence; zero when it holds.

    The recurrence couples the signed annular counts to the disc values:

        0 = m(p, q) + q m(p + q) + sum over 0 < k < p of
            [ m(k, q) m(p - k) + m(k) m(p - k, q) ]

    with m(n) the disc value and m(s, t) the annular one.
    """
    total = mobius_annulus(p, q) + q * mobius_full_cycle(p + q)
    for k in range(1, p):
        total += mobius_annulus(k, q) * mobius_full_cycle(p - k)
        total += mobius_full_cycle(k) * mobius_annulus(p - k, q)
    return total


# -- model-specific evaluations ---------------------------------------


def haar_kappa_pq(p: int, q: int, signs) -> Scalar:
    """kappa_{p,q} of a Haar unitary word with the given exponent signs."""
    AnnulusShape(p, q)  # refuses p or q below 1 before the letters are cut
    signs = tuple(signs)
    if len(signs) != p + q:
        raise ValueError("sign pattern length must be p + q")
    letters = u_word(signs)
    return kappa_pq(
        haar_unitary_space(),
        tuple((l,) for l in letters[:p]),
        tuple((l,) for l in letters[p:]),
    )


def semicircular_square_kappa(p: int, q: int) -> int:
    """kappa_{p,q} of squares of a semicircular, via the product formula.

    In the separated annular sum every term with a cycle of length other
    than two, or with a glued block, vanishes for this model, so the value
    is the number of annular non-crossing pairings of (2p, 2q) whose
    complement separates the even points.  The closed forms
    sum_k k C(p,k) C(q,k) and p C(p+q-1, p) are verified against this
    count by the suite.  More than ``PAIRING_BOUND`` points, 2p + 2q, is a
    ValueError.
    """
    evens = tuple(range(2, 2 * (p + q) + 1, 2))
    return count_snc_pairings(2 * p, 2 * q, separated_at=evens)
