"""Exhaustive verification of the library's combinatorial identities.

Every check sweeps a finite range completely and compares two independent
computations, or a computation against a definition-level brute force.
All arithmetic is exact, so a check either passes on every case or
reports the first counterexample it met.  Checks are grouped into named
suites (see SUITES); the default bounds are the ones the acceptance tests
run at.  ``main-theorem``, ``ks`` and ``haar`` take an explicit bound as
given and refuse one past ``annular._check_bound``, and the squares suite
(so ``all``) one past ``SQUARE_BOUND``, before any cell runs;
``semicircular`` and ``mobius`` clamp it at their check's ceiling, and
``lemmas`` and ``order`` run each check at the lower of the bound and its
default.  Every suite refuses a bound or ``jobs`` below 1.

Suites built from independent cells (one per annulus shape, or one per
check) fan out over a process pool when ``jobs > 1``, with never more
workers than cells.  The lemma and
order checks are started slowest first, by a table of measured seconds;
results are gathered in table order, so the report is the same either way.

Sweeps reuse work within one call, in tables local to it:
``check_restriction_lemma`` the verdict per restricted image,
``check_restriction_commutes`` each permutation's restriction per point
set, ``check_fattening`` the complements per small family and the fattened
images per composition, ``check_separates`` the verdicts per cycle shape,
``check_tunnel_product`` sigma's pairs per sigma, ``check_order_corollary``
sigma's cycles per sigma and the restricters per gamma pi^-1,
``check_order_structure`` the witness joins per partition of a cycle set,
and the sweeps over ``_below_images0`` the NC(k) options per cycle length.
Sweeps whose cases lie in S_n read cycle counts from ``_count_table``, one
table of S_n per size, and ``check_snc_rotation`` the disc verdicts from
one table of S_n per total.
The restriction sweeps build one ``perm._restricter0`` getter per point set;
``check_annular_order`` looks the members of each complement's geodesic
interval up in the family.  The one module-level memo is ``_sn_below``, an
``lru_cache`` of 8 entries.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import asdict, dataclass
from math import comb
from operator import itemgetter

from .annular import (
    PAIRING_BOUND,
    AnnulusShape,
    Composition,
    _check_bound,
    _set_partitions,
    count_snc_pairings,
    enumerate_nc,
    enumerate_psnc,
    enumerate_snc,
    fatten,
    pp_leq,
    tau_of,
)
from .cumulants import (
    haar_kappa_pq,
    main_product_cumulant,
    ks_product_cumulant,
    mobius_recurrence_residual,
    oracle_product_cumulant,
    semicircular_square_kappa,
    snc_count,
)
from .perm import (
    Permutation,
    SetPartition,
    _compose0,
    _composer0,
    _cycle_count0,
    _cycle_labels0,
    _cycles0,
    _gamma0,
    _inverse0,
    _is_nc0,
    _join0,
    _restricter0,
    _separated,
    _through0,
)
from .spaces import (
    a_word,
    catalan,
    formal_moment_space,
    haar_unitary_space,
    semicircular_phi2,
    semicircular_phi2_closed,
    semicircular_space,
    u_word,
    x_word,
)

__all__ = ["CheckResult", "SQUARE_BOUND", "SUITES", "run_suite", "suite_names"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cases: int
    seconds: float
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f"  [{self.detail}]" if self.detail else ""
        return f"{mark}  {self.name}  ({self.cases} cases, {self.seconds:.2f}s){tail}"

    def to_json_obj(self) -> dict:
        return asdict(self)


def _check(title, ceiling: int | None = None):
    """Turn a sweep returning ``(cases, fail)`` into a timed check.

    Every check takes one positional argument: its bound, or its cell.
    ``title`` names the result: a string, formatted with that argument
    (so cells can carry their shape), or a function of it.  ``fail`` is
    the first counterexample, or None when every case passed.  A check
    with a ``ceiling`` runs at no more than the ceiling.
    """

    def decorate(sweep):
        @functools.wraps(sweep)
        def check(arg) -> CheckResult:
            if ceiling is not None:
                arg = min(arg, ceiling)
            t0 = time.perf_counter()
            cases, fail = sweep(arg)
            label = title.format if isinstance(title, str) else title
            name = label(arg)
            return CheckResult(name, fail is None, cases, time.perf_counter() - t0, fail or "")

        return check

    return decorate


# -- small shared machinery --------------------------------------------


def _perm1(image0) -> Permutation:
    return Permutation(i + 1 for i in image0)


def _images0(family) -> list[tuple[int, ...]]:
    return [tuple([x - 1 for x in a.image]) for a in family]


def _compositions(total: int) -> list[tuple[int, ...]]:
    """All compositions of ``total``, in cut-mask order."""
    out = []
    for mask in range(1 << (total - 1)):
        # bit i of the mask cuts after point i + 1
        ends = [i + 1 for i in range(total - 1) if mask >> i & 1] + [total]
        out.append(tuple(b - a for a, b in zip([0, *ends], ends)))
    return out


def _interval_edges(comp: Composition) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """The part endpoints (1-based) and the 0-based neighbour pairs inside parts."""
    ends = comp.boundary_points
    return ends, [(i, i + 1) for i in range(comp.total - 1) if i + 1 not in ends]


def _shape_cells(max_total: int) -> list[tuple[int, int]]:
    """The annulus shapes (p, q) of total 2 to ``max_total``, by total, then p."""
    return [(p, t - p) for t in range(2, max_total + 1) for p in range(1, t)]


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _count_table(n: int) -> dict[tuple[int, ...], int]:
    """The cycle count of every permutation of [n], 0-based, in ``itertools.permutations`` order."""
    return {p: _cycle_count0(p) for p in itertools.permutations(range(n))}


@functools.lru_cache(maxsize=8)
def _sn_below(n: int):
    """For each permutation of [n], the bitmask of those on a geodesic below it.

    ``below[j]`` has bit ``i`` set when ``|pi_i| + |pi_i^-1 pi_j| = |pi_j|``.
    """
    count = _count_table(n)
    perms, counts = tuple(count), list(count.values())
    invs = [_inverse0(p) for p in perms]
    below = []
    for sigma, cs in zip(perms, counts):
        # |pi_i| + |pi_i^-1 sigma| = |sigma| in cycle counts: c_i + c(pi_i^-1 sigma) = n + c_sigma
        times_sigma, want = _composer0(sigma), n + cs
        mask = 0
        for i, (ci, inv) in enumerate(zip(counts, invs)):
            if ci + count[times_sigma(inv)] == want:
                mask |= 1 << i
        below.append(mask)
    return perms, tuple(below)


def _below_images0(image0, options: dict) -> set[tuple[int, ...]]:
    """All permutations lying on a geodesic from the identity to ``image0``.

    Generated structurally: independently on each cycle, place a
    non-crossing permutation of the cycle's traversal order.  The
    equivalence with the metric condition is itself verified by
    ``check_order_refinement``, and below the complements that
    ``check_annular_order`` reads by the tests, against a scan of all pairs.
    ``options``, one dict per run, maps each cycle length k to NC(k) as getters.
    """
    per_cycle, order = [], []
    for c in _cycles0(image0):
        getters = options.get(len(c))
        if getters is None:
            getters = options[len(c)] = list(map(_composer0, _images0(enumerate_nc(len(c)))))
        per_cycle.append([g(c) for g in getters])  # the images of c's points, in c's order
        order.extend(c)
    place, chain = _composer0(_inverse0(tuple(order))), itertools.chain.from_iterable
    return {place(tuple(chain(combo))) for combo in itertools.product(*per_cycle)}


def _complement_data(family, g0) -> list[tuple]:
    """Per permutation, 0-based: its length and inverse, then the right
    complement pi^-1 gamma and the left complement gamma pi^-1, each as
    its ``_composer0`` getter followed by its length."""
    n = len(g0)
    out = []
    for inv in map(_inverse0, _images0(family)):
        right, left = _compose0(inv, g0), _compose0(g0, inv)
        lengths = [n - _cycle_count0(x) for x in (inv, right, left)]
        out.append((lengths[0], inv, _composer0(right), lengths[1], _composer0(left), lengths[2]))
    return out


# -- permutation kernel checks -----------------------------------------


@_check("disc enumeration count is Catalan", ceiling=10)
def check_nc_counts(max_n: int):
    """Disc enumeration sizes against the Catalan numbers."""
    cases, fail = 0, None
    for n in range(1, max_n + 1):
        got, want = len(enumerate_nc(n)), catalan(n)
        cases += 1
        if got != want and fail is None:
            fail = f"n={n}: enumerated {got}, Catalan gives {want}"
    return cases, fail


@_check("geodesic order is transitive", ceiling=7)
def check_metric_triangle(max_n: int):
    """If pi is on a geodesic to sigma and sigma on one to tau, so is pi to tau."""
    cases, fail = 0, None
    for n in range(1, max_n + 1):
        perms, below = _sn_below(n)
        for j, bj in enumerate(below):
            for i in _bits(bj):
                cases += 1
                stray = below[i] & ~bj
                if stray and fail is None:
                    k = (stray & -stray).bit_length() - 1
                    fail = (
                        f"n={n}: {_perm1(perms[k])!r} <= {_perm1(perms[i])!r} <= "
                        f"{_perm1(perms[j])!r} but the outer relation fails"
                    )
    return cases, fail


@_check("geodesic order implies cycle containment", ceiling=7)
def check_metric_order(max_n: int):
    """On a geodesic below sigma, every cycle sits inside a cycle of sigma."""
    cases, fail = 0, None
    for n in range(1, max_n + 1):
        perms, below = _sn_below(n)
        labels = [_cycle_labels0(p)[0] for p in perms]
        cycles = [_cycles0(p) for p in perms]
        for j, bj in enumerate(below):
            lab = labels[j]
            for i in _bits(bj):
                cases += 1
                for c in cycles[i]:
                    l0 = lab[c[0]]
                    if any(lab[x] != l0 for x in c) and fail is None:
                        fail = (
                            f"n={n}: cycle {tuple(x + 1 for x in c)} of "
                            f"{_perm1(perms[i])!r} straddles cycles of {_perm1(perms[j])!r}"
                        )
    return cases, fail


@_check("metric length is conjugation invariant", ceiling=8)
def check_conjugation_invariance(max_n: int):
    """Metric length is a class function.

    Exhaustive over all conjugator pairs through n=5; for larger n the
    conjugators run over a generating set, which settles the general
    case by composing conjugations.
    """
    cases, fail = 0, None
    for n in range(1, max_n + 1):
        count = _count_table(n)
        if n <= 5:
            gens = list(count)
        else:  # the transposition (1,2) and the full cycle
            gens = [_gamma0(2, *[1] * (n - 2)), _gamma0(n)]
        # g p g^-1 is times_ginv(times_p(g)): two getter calls per case
        factors = [(p, _composer0(p), c) for p, c in count.items()]
        for g in gens:
            times_ginv = _composer0(_inverse0(g))
            for p, times_p, c in factors:
                cases += 1
                if count[times_ginv(times_p(g))] != c and fail is None:
                    fail = f"n={n}: conjugating {_perm1(p)!r} by {_perm1(g)!r} changed the length"
    return cases, fail


@_check("restriction is multiplicative over an invariant set", ceiling=7)
def check_restriction_commutes(max_n: int):
    """restrict(sigma pi, N) = restrict(sigma, N) restrict(pi, N) for pi supported in N."""
    cases, fail = 0, None
    for n in range(1, max_n + 1):
        perms = list(itertools.permutations(range(n)))
        for k in range(1, n + 1):
            subs = [(t, _composer0(t)) for t in itertools.permutations(range(k))]
            for pts in itertools.combinations(range(n), k):
                restricted = dict(zip(perms, map(_restricter0(pts, n), perms)))
                # sigma pi is times_lift(sigma), pi = t moved onto pts
                lifts = []
                for t, times_t in subs:
                    moved = dict(zip(pts, [pts[j] for j in t]))
                    lifts.append((times_t, _composer0(tuple([moved.get(x, x) for x in range(n)]))))
                for s, rs in restricted.items():
                    for times_t, times_lift in lifts:
                        cases += 1
                        if restricted[times_lift(s)] != times_t(rs) and fail is None:
                            fail = (
                                f"n={n}, N={tuple(x + 1 for x in pts)}: restriction of the "
                                f"product differs from the product of restrictions for "
                                f"sigma={_perm1(s)!r}"
                            )
    return cases, fail


@_check("geodesic order matches per-cycle non-crossing refinement", ceiling=7)
def check_order_refinement(max_total: int):
    """The metric order below a fixed permutation equals blockwise refinement.

    For sigma disc non-crossing or annular non-crossing, the set of pi
    with |pi| + |pi^-1 sigma| = |sigma| is exactly the set of products of
    non-crossing permutations of the individual cycles of sigma.  This
    also certifies ``_below_images0``, and the reading of sigma cycle by
    cycle in ``check_separates``.
    """
    cases, fail, options = 0, None, {}
    for n in range(1, max_total + 1):
        perms, below = _sn_below(n)
        index = {p0: i for i, p0 in enumerate(perms)}
        targets = list(enumerate_nc(n))
        for p in range(1, n):
            targets.extend(enumerate_snc(AnnulusShape(p, n - p)))
        for s0 in _images0(targets):
            metric = {perms[i] for i in _bits(below[index[s0]])}
            structural = _below_images0(s0, options)
            cases += len(metric)
            if metric != structural and fail is None:
                off = (metric ^ structural).pop()
                fail = f"below {_perm1(s0)!r}: {_perm1(off)!r} is in one description only"
    return cases, fail


@_check("annular membership via rotations to the disc", ceiling=7)
def check_snc_rotation(max_total: int):
    """Annular membership equals disc membership after some circle rotations.

    A permutation with a connecting cycle is annular non-crossing exactly
    when some pair of rotations of the two circles conjugates it to a
    disc non-crossing permutation.
    """
    cases, fail, discs = 0, None, {}
    for p, q in _shape_cells(max_total):
        n = p + q
        disc = discs.get(n)  # the disc verdict on every permutation of [n]
        if disc is None:
            disc = discs[n] = {x: _is_nc0(x, n) for x in itertools.permutations(range(n))}
        rotations = []
        gp = _gamma0(p, *[1] * q)  # turns the outer circle only
        gq = _gamma0(*[1] * p, q)  # turns the inner circle only
        r = tuple(range(n))
        for _u in range(p):
            rv = r
            for _v in range(q):
                rotations.append((_composer0(_inverse0(rv)), rv.__getitem__))
                rv = _compose0(gq, rv)
            r = _compose0(gp, r)
        for s0 in itertools.permutations(range(n)):
            if not _through0(s0, p):
                continue
            cases += 1
            member = _is_nc0(s0, p)
            # rot s0 rot^-1: times_rinv gives s0 rot^-1, mapping through rot puts rot first
            rotated = any(disc[tuple(map(rot, times_rinv(s0)))] for times_rinv, rot in rotations)
            if member != rotated and fail is None:
                fail = (
                    f"shape ({p},{q}): {_perm1(s0)!r} has membership {member} "
                    f"but rotation criterion {rotated}"
                )
    return cases, fail


# -- separation and fattening ------------------------------------------


@_check("interval connectedness equals endpoint separation", ceiling=9)
def check_first_sep(max_n: int):
    """Connectedness with the interval partition equals endpoint separation.

    For sigma disc non-crossing and a composition with endpoint set N:
    the join of the cycles of sigma with the intervals is everything if
    and only if sigma^-1 gamma puts the points of N into distinct cycles.
    """
    cases, fail = 0, None
    for n in range(1, max_n + 1):
        g0 = _gamma0(n)
        prepared = [(parts, *_interval_edges(Composition(parts))) for parts in _compositions(n)]
        for s0 in _images0(enumerate_nc(n)):
            slab, scount = _cycle_labels0(s0)
            klab, _ = _cycle_labels0(_compose0(_inverse0(s0), g0))
            for parts, ends, edges in prepared:
                cases += 1
                lhs = _join0(scount, [(slab[a], slab[b]) for a, b in edges])[1] == 1
                rhs = _separated(klab, ends)
                if lhs != rhs and fail is None:
                    fail = (
                        f"n={n}, parts {parts}, sigma={_perm1(s0)!r}: join reaches the top "
                        f"{lhs} but separation is {rhs}"
                    )
    return cases, fail


@_check("join reaching the fattened cycles equals separation", ceiling=9)
def check_separates(max_total: int):
    """Join against intervals reaching the fattened cycles equals separation.

    For pi disc non-crossing on the parts and sigma on a geodesic below
    the fattened pi: the join of sigma's cycles with the part intervals
    equals the cycle partition of the fattened pi if and only if
    sigma^-1 (fattened pi) separates the part endpoints.

    Both sides are decided on each cycle c of the fattened pi, which
    holds whole cycles of sigma and of sigma^-1 (fattened pi).  Read
    along c, of length k, the fattened pi is gamma_k and sigma is a disc
    non-crossing nu, one per cycle (``_below_images0``): the join side
    holds on c when nu's cycles and the intervals inside c connect it,
    the separation side when nu^-1 gamma_k separates the endpoints in c.
    A case is one sigma; its join side also needs no interval to cross
    two cycles.
    """
    cases, fail = 0, None
    # Per k, for each nu of enumerate_nc(k): nu's cycle labels and count, and
    # the cycle labels of nu^-1 gamma_k.
    labels = {}
    for k in range(1, max_total + 1):
        nus = _images0(enumerate_nc(k))
        z0s = (_compose0(_inverse0(nu0), _gamma0(k)) for nu0 in nus)
        labels[k] = [(*_cycle_labels0(nu0), _cycle_labels0(z0)[0]) for nu0, z0 in zip(nus, z0s)]
    # Per (k, intervals, endpoints) seen on one cycle, for each nu of
    # enumerate_nc(k): 1 when the join side holds, plus 2 when separation does.
    codes: dict[tuple, list[int]] = {}
    for total in range(1, max_total + 1):
        for parts in _compositions(total):
            comp = Composition(parts)
            ends, edges = _interval_edges(comp)
            family = enumerate_nc(len(parts))
            for pi, pv0 in zip(family, _images0(fatten(pi, comp) for pi in family)):
                target = _cycle_labels0(pv0)[0]
                start = 3 if all(target[a] == target[b] for a, b in edges) else 2
                cycles = _cycles0(pv0)
                per_cycle = []
                for c in cycles:
                    at = {x: i for i, x in enumerate(c)}
                    key = (
                        len(c),
                        tuple((at[a], at[b]) for a, b in edges if a in at and b in at),
                        tuple(at[e - 1] + 1 for e in ends if e - 1 in at),
                    )
                    if key not in codes:
                        k, c_edges, c_ends = key
                        codes[key] = [
                            (_join0(m, [(lab[a], lab[b]) for a, b in c_edges])[1] == 1)
                            | _separated(zlab, c_ends) << 1
                            for lab, m, zlab in labels[k]
                        ]
                    per_cycle.append(enumerate(codes[key]))
                for picks in itertools.product(*per_cycle):
                    cases += 1
                    both = start
                    for _nu, code in picks:
                        both &= code
                    if both in (1, 2) and fail is None:
                        s0 = [0] * total
                        for c, (nu, _code) in zip(cycles, picks):
                            for x, y in zip(c, enumerate_nc(len(c))[nu].image):
                                s0[x] = c[y - 1]
                        fail = (
                            f"parts {parts}, pi={pi!r}, sigma={_perm1(s0)!r}: "
                            f"join test {both == 1}, separation {both == 2}"
                        )
    return cases, fail


@_check("complement order swaps sides on the disc", ceiling=8)
def check_tracial_inequality(max_n: int):
    """Complementation swaps sides: tau below sigma^-1 gamma iff sigma below gamma tau^-1."""
    cases, fail = 0, None
    for n in range(1, max_n + 1):
        data, count = _complement_data(enumerate_nc(n), _gamma0(n)), _count_table(n)
        for lt, tinv, _tr, _tlr, times_tleft, tll in data:
            for ls, sinv, times_sright, slr, _sl, _sll in data:
                cases += 1
                lhs = lt + n - count[times_sright(tinv)] == slr
                rhs = ls + n - count[times_tleft(sinv)] == tll
                if lhs != rhs and fail is None:
                    fail = f"n={n}: one-sided complement order is not symmetric"
    return cases, fail


@_check("restriction of annular permutations stays non-crossing", ceiling=8)
def check_restriction_lemma(max_total: int):
    """Restricting an annular non-crossing permutation stays non-crossing.

    The first-return restriction to any subset is either annular
    non-crossing for the induced shape or a pair of disc non-crossing
    permutations, one per circle.
    """
    cases, fail = 0, None
    # Verdicts of _restricted_member0 for this call only, one dict per k1 keyed
    # by the restricted image: at bound 8, 38 463 keys serve 8 181 003 cases.
    verdicts: dict[int, dict[tuple[int, ...], bool]] = {}
    for p, q in _shape_cells(max_total):
        n = p + q
        snc0 = _images0(enumerate_snc(AnnulusShape(p, q)))
        for k in range(1, n + 1):
            for pts in itertools.combinations(range(n), k):
                k1 = sum(pt < p for pt in pts)
                known = verdicts.setdefault(k1, {})
                rimgs = list(map(_restricter0(pts, n), snc0))
                cases += len(rimgs)
                distinct = set(rimgs)
                for rimg in distinct.difference(known):
                    known[rimg] = _restricted_member0(rimg, k1)
                if fail is None and not all(map(known.__getitem__, distinct)):
                    s0, rimg = next(pair for pair in zip(snc0, rimgs) if not known[pair[1]])
                    fail = (
                        f"shape ({p},{q}), sigma={_perm1(s0)!r}, "
                        f"N={tuple(x + 1 for x in pts)}: restriction "
                        f"{_perm1(rimg)!r} is not non-crossing for shape "
                        f"({k1},{k - k1})"
                    )
    return cases, fail


def _restricted_member0(img, k1: int) -> bool:
    """Annular non-crossing for the shape (k1, k - k1), or a disc
    non-crossing permutation on each circle."""
    k = len(img)
    if k1 in (0, k):
        return _is_nc0(img, k)
    if _through0(img, k1):
        return _is_nc0(img, k1)
    return _is_nc0(img[:k1], k1) and _is_nc0(tuple(x - k1 for x in img[k1:]), k - k1)


@_check("inflation preserves non-crossing membership", ceiling=9)
def check_fattening(max_total: int):
    """Inflating parts preserves non-crossing membership, disc and annular.

    Also checks the exchange identity psi pi^-1 gamma_small =
    (fattened pi)^-1 gamma_big psi, where psi sends the k-th part to its
    last letter, in the inverse-free form (fattened pi) psi pi^-1
    gamma_small = gamma_big psi, and that inflating the identity gives
    the interval permutation.
    """
    cases, fail = 0, None
    # Per small circle sizes, once per run: the family and each member's
    # 0-based complement pi^-1 gamma_small, held as bytes (174 398 of them
    # at bound 9) to keep the table small.
    small = {}
    for r in range(1, max_total + 1):
        for sizes in [(r,), *((split, r - split) for split in range(1, r))]:
            family = enumerate_nc(r) if len(sizes) == 1 else enumerate_snc(AnnulusShape(*sizes))
            g0 = _gamma0(*sizes)
            complements = [bytes(_compose0(_inverse0(pi0), g0)) for pi0 in _images0(family)]
            small[sizes] = family, complements
    for total in range(1, max_total + 1):
        for parts in _compositions(total):
            r = len(parts)
            disc = Composition(parts)
            if fatten(Permutation.identity(r), disc) != tau_of(disc) and fail is None:
                fail = f"parts {parts}: inflating the identity is not the interval permutation"
            # (composition, circle sizes before and after inflating)
            settings, fattened = [(disc, (r,), (total,))], {}
            for split in range(1, r):
                comp = Composition(parts, split=split)
                settings.append((comp, (split, r - split), (comp.p, comp.q)))
            for comp, small_sizes, big_sizes in settings:
                psi0 = [x - 1 for x in comp.boundary_points]
                gbig0 = _gamma0(*big_sizes)
                gbig_psi = [gbig0[x] for x in psi0]
                for pi, z_small in zip(*small[small_sizes]):
                    cases += 1
                    pv0 = fattened.get(pi.image)  # fatten reads the parts only, not the split
                    if pv0 is None:
                        pv0 = fattened[pi.image] = tuple([x - 1 for x in fatten(pi, comp).image])
                    if not _is_nc0(pv0, big_sizes[0]) and fail is None:
                        fail = f"{comp}, pi={pi!r}: inflation left the family"
                    if [pv0[psi0[x]] for x in z_small] != gbig_psi and fail is None:
                        fail = f"{comp}, pi={pi!r}: exchange identity fails"
    return cases, fail


# -- annular order lemmas ----------------------------------------------


@_check("one-sided complement order transfers across the annulus", ceiling=7)
def check_annular_order(max_total: int):
    """Below the complement on one side implies below it on the other.

    For annular non-crossing pi, sigma: if pi lies on a geodesic below
    sigma^-1 gamma then sigma lies on a geodesic below gamma pi^-1.  The
    pi meeting the hypothesis are the members of the family among
    ``_below_images0`` of sigma^-1 gamma; the tests compare them with a
    scan of all pairs.
    """
    cases, fail, options, count_of = 0, None, {}, functools.cache(_count_table)
    for p, q in _shape_cells(max_total):
        n = p + q
        count = count_of(n)
        g0 = _gamma0(p, q)
        snc = enumerate_snc(AnnulusShape(p, q))
        data = _complement_data(snc, g0)
        for j, below in enumerate(_below_complements(snc, g0, options)):
            lj, invj, *_rest = data[j]
            for i in below:
                cases += 1
                *_rest, times_lefti, lli = data[i]
                if lj + n - count[times_lefti(invj)] != lli and fail is None:
                    fail = (
                        f"shape ({p},{q}): pi={snc[i]!r} below the complement of "
                        f"sigma={snc[j]!r} but not conversely"
                    )
    return cases, fail


def _below_complements(family, g0, options: dict) -> list[list[int]]:
    """Per member sigma, the increasing indices of the members on a geodesic
    below sigma^-1 gamma, gamma = ``g0``; ``options`` as for ``_below_images0``."""
    index = {img0: i for i, img0 in enumerate(_images0(family))}
    return [
        sorted(index[x] for x in _below_images0(_compose0(inv, g0), options) if x in index)
        for inv in map(_inverse0, _images0(family))
    ]


def _tunnel_hypotheses(max_total: int):
    """(shape, sigma, pi, gamma pi^-1), 0-based, for sigma annular
    non-crossing and pi a disc pair below sigma's complement."""
    count_of = functools.cache(_count_table)  # one table per total, for this walk
    for p, q in _shape_cells(max_total):
        n = p + q
        count = count_of(n)
        shape = AnnulusShape(p, q)
        g0 = _gamma0(p, q)
        ncpairs = []
        for pi1 in _images0(enumerate_nc(p)):
            for pi2 in _images0(enumerate_nc(q)):
                pi0 = pi1 + tuple(x + p for x in pi2)
                inv = _inverse0(pi0)
                ncpairs.append((pi0, inv, n - count[pi0], _compose0(g0, inv)))
        for sigma0 in _images0(enumerate_snc(shape)):
            right = _compose0(_inverse0(sigma0), g0)
            times_right, lr = _composer0(right), n - count[right]
            for pi0, inv, lp, gp0 in ncpairs:
                if lp + n - count[times_right(inv)] == lr:
                    yield shape, sigma0, pi0, gp0


@_check("two-sided complement product reaches the glued element", ceiling=7)
def check_tunnel_product(max_total: int):
    """The two-sided complement product lands on the glued element.

    For pi a disc pair below sigma's complement, multiplying sigma by
    w = sigma^-1 gamma pi^-1 is defined (|sigma| + |w| = 2|V| - |sigma w|
    for V the join of sigma and w, as ``pp_product`` tests) and produces
    gamma pi^-1 carrying the join of sigma with it as its partition.
    """
    cases, fail, count_of = 0, None, functools.cache(_count_table)
    by_sigma = itertools.groupby(_tunnel_hypotheses(max_total), itemgetter(0, 1))
    for (shape, sigma0), group in by_sigma:
        n, sigma_inv = len(sigma0), _inverse0(sigma0)
        count = count_of(n)
        ls, spairs = n - count[sigma0], list(enumerate(sigma0))
        for _shape, _sigma0, pi0, gp0 in group:
            cases += 1
            w0 = _compose0(sigma_inv, gp0)
            prod0 = _compose0(sigma0, w0)
            joined, blocks = _join0(n, [*spairs, *enumerate(w0)])
            defined = ls + n - count[w0] == n - 2 * blocks + count[prod0]
            want = _join0(n, [*spairs, *enumerate(gp0)])[0]
            if not (defined and prod0 == gp0 and joined == want) and fail is None:
                got = f"{_perm1(prod0)!r} on {SetPartition.from_labels(joined)!r}"
                named = f"shape {shape}, sigma={_perm1(sigma0)!r}, pi={_perm1(pi0)!r}"
                fail = f"{named}: product gave {got if defined else None}"
    return cases, fail


@_check("complement cycles organize the connecting structure", ceiling=7)
def check_order_corollary(max_total: int):
    """Structure of sigma relative to gamma pi^-1 under the tunnel hypothesis.

    (i) non-connecting cycles of sigma sit inside single cycles of
    gamma pi^-1; (ii) the connecting cycles all sit inside the union of
    one cycle per circle; (iii) away from the connecting cycles the
    enclosed cycles are disc non-crossing along each cycle; (iv) on the
    union the connecting cycles form an annular non-crossing permutation.
    """
    cases, fail = 0, None
    complements = {}  # gamma pi^-1, 0-based -> its cycles, their labels and restricters
    by_sigma = itertools.groupby(_tunnel_hypotheses(max_total), itemgetter(0, 1))
    for (shape, s0), group in by_sigma:
        n, p = len(s0), shape.p
        scycles = _cycles0(s0)
        through = [c for c in scycles if len({x < p for x in c}) == 2]
        local = [c for c in scycles if len({x < p for x in c}) == 1]
        tpoints = {x for tc in through for x in tc}
        connecting = tuple(s0[x] if x in tpoints else x for x in range(n))
        for _shape, _s0, pi0, gp0 in group:
            cases += 1
            if gp0 not in complements:
                gcycles = _cycles0(gp0)
                restricters = [_restricter0(c, n) for c in gcycles]
                complements[gp0] = gcycles, _cycle_labels0(gp0)[0], restricters
            gcycles, lab, restricters = complements[gp0]
            problem = None
            for c in local:
                if len({lab[x] for x in c}) != 1:
                    problem = f"local cycle {tuple(x + 1 for x in c)} straddles complement cycles"
                    break
            tlabels = sorted({lab[x] for x in tpoints})
            if problem is None:
                if len(tlabels) != 2:
                    problem = f"connecting cycles meet {len(tlabels)} complement cycles"
                else:
                    sides = sorted(gcycles[t][0] < p for t in tlabels)
                    if sides != [False, True]:
                        problem = "the two met complement cycles are not one per circle"
            # By (i) and (ii) sigma maps each complement cycle into itself, so
            # restricting to one, read along the cycle, is sigma there.
            if problem is None:
                for t, c in enumerate(gcycles):
                    if t not in tlabels and not _is_nc0(restricters[t](s0), len(c)):
                        c1 = tuple(x + 1 for x in c)
                        problem = f"enclosed cycles crossing along complement cycle {c1}"
                        break
            if problem is None:
                outer = next(gcycles[t] for t in tlabels if gcycles[t][0] < p)
                inner = next(gcycles[t] for t in tlabels if gcycles[t][0] >= p)
                if not _is_nc0(_restricter0(outer + inner, n)(connecting), len(outer)):
                    problem = "connecting cycles not annular non-crossing on the union"
            if problem is not None and fail is None:
                fail = f"shape {shape}, sigma={_perm1(s0)!r}, pi={_perm1(pi0)!r}: {problem}"
    return cases, fail


# -- the partial order on partitioned permutations ---------------------


def _psnc_raw(shape: AnnulusShape):
    """Precomputed arrays for fast order scans over one shape.

    Per element: the 0-based image and its inverse, the block labels
    (``SetPartition.labels``, the first-appearance labels ``_join0`` gives
    the pairs), the pairs joining each block and the length.
    """
    els = enumerate_psnc(shape)
    raw = []
    for el, img0 in zip(els, _images0(el.perm for el in els)):
        pairs = [(b[0] - 1, x - 1) for b in el.partition.blocks for x in b[1:]]
        raw.append((img0, _inverse0(img0), el.partition.labels, pairs, el.length))
    return els, raw


def _order_table(shape: AnnulusShape):
    """The elements of the shape, and per element j the bitmask of the
    elements i <= j, each decided by the single forced witness: the zero
    witness (0_w, w) with w = pi_i^-1 pi_j."""
    els, raw = _psnc_raw(shape)
    n = shape.total
    below, count = [], _count_table(n)
    for b_img, _inv, b_plab, _pairs, _len in raw:
        b_metric, times_b = n - count[b_img], _composer0(b_img)
        mask = 0
        for i, (_img, a_inv, _plab, a_pairs, a_len) in enumerate(raw):
            w0 = times_b(a_inv)
            joined, blocks = _join0(n, [*a_pairs, *enumerate(w0)])
            if a_len + n - count[w0] == 2 * (n - blocks) - b_metric and joined == b_plab:
                mask |= 1 << i
        below.append(mask)
    return els, below


@_check("the annular order is a partial order", ceiling=7)
def check_order_axioms(max_total: int):
    """The witnessed-product relation is a partial order on each shape.

    Reflexivity, antisymmetry and transitivity over all elements; the
    fast pairwise scan is cross-checked against the public comparison
    on the smaller shapes.
    """
    cases, fail = 0, None
    for p, q in _shape_cells(max_total):
        shape = AnnulusShape(p, q)
        els, below = _order_table(shape)
        m = len(els)
        if m <= 60:
            for j in range(m):
                for i in range(m):
                    cases += 1
                    if pp_leq(els[i], els[j]) != bool(below[j] >> i & 1) and fail is None:
                        fail = (
                            f"shape {shape}: fast scan and public comparison "
                            f"disagree on {els[i]!r} <= {els[j]!r}"
                        )
        for j in range(m):
            cases += 1
            if not below[j] >> j & 1 and fail is None:
                fail = f"shape {shape}: {els[j]!r} not below itself"
        for j, mask in enumerate(below):
            for i in _bits(mask):
                cases += 1
                if i != j and below[i] >> j & 1 and fail is None:
                    fail = f"shape {shape}: {els[i]!r} and {els[j]!r} below each other"
                if below[i] & ~mask and fail is None:
                    fail = f"shape {shape}: transitivity fails through {els[i]!r}"
    return cases, fail


@_check("glued elements never drop to disc elements", ceiling=6)
def check_order_kinds(max_total: int):
    """Glued elements never sit below disc elements; from total 3 on, the
    three other mixes occur (at total 2 only disc below tunnel can)."""
    cases, fail = 0, None
    seen = {("disc", "disc"): 0, ("disc", "tunnel"): 0, ("tunnel", "tunnel"): 0}
    for p, q in _shape_cells(max_total):
        shape = AnnulusShape(p, q)
        els, below = _order_table(shape)
        for j, mask in enumerate(below):
            for i in _bits(mask & ~(1 << j)):
                cases += 1
                pair = (els[i].kind, els[j].kind)
                if pair == ("tunnel", "disc") and fail is None:
                    fail = f"shape {shape}: glued {els[i]!r} below disc {els[j]!r}"
                if pair in seen:
                    seen[pair] += 1
    missing = [pair for pair, k in seen.items() if k == 0]
    if fail is None and missing and max_total >= 3:
        fail = f"expected strict relations never realized: {missing}"
    return cases, fail


@_check("witnessed products force the zero witness", ceiling=6)
def check_order_structure(max_total: int):
    """Any witnessed product within the family forces the zero witness.

    Whenever (V, pi) (W, pi^-1 sigma) = (U, sigma) holds inside the
    family, W is the cycle partition of pi^-1 sigma, U is the join of V
    with it (equivalently with sigma, or with sigma pi^-1), and
    multiplying by sigma pi^-1 on the other side reaches (U, sigma) too.
    """
    cases, fail = 0, None
    # The witnesses W of w = pi^-1 sigma are the set partitions of w's
    # cycles, and the join U of V with W is read off the cycles.  Per V as
    # seen on the cycles, _witness_joins tabulates every W once per call.
    # Cycles are labelled in the order of their least points, so U's
    # first-appearance labels on the cycles, read per point, are its
    # first-appearance labels on the points.
    joins: dict[tuple[int, ...], dict[int, list]] = {}
    count_of = functools.cache(_count_table)  # one table per total, for this walk
    for p, q in _shape_cells(max_total):
        n = p + q
        shape, count = AnnulusShape(p, q), count_of(n)
        els, raw = _psnc_raw(shape)
        index = {(img0, plab): k for k, (img0, _inv, plab, *_rest) in enumerate(raw)}
        sigmas = sorted({img0 for img0, *_ in raw})
        sigmas = [(s, _composer0(s), n - count[s]) for s in sigmas]
        for a_pos, (_img, a_inv, _plab, a_pairs, a_len) in enumerate(raw):
            for s_img, times_s, b_metric in sigmas:
                w0 = times_s(a_inv)
                clab, m = _cycle_labels0(w0)
                # The lengths add, |(V, pi)| + |(W, w)| = |(U, sigma)|, exactly
                # when 2 (blocks(U) - blocks(W)) = n - m - |(V, pi)| - |sigma|,
                # which is even: |pi^-1 sigma| = |pi| + |sigma| (mod 2).
                gap = n - m - a_len - b_metric
                vlab = _join0(m, [(clab[a], clab[b]) for a, b in a_pairs])[0]
                if vlab not in joins:
                    joins[vlab] = _witness_joins(vlab)
                for w_count, ujoin, blocks in joins[vlab].get(gap // 2, ()):
                    labels = tuple([ujoin[c] for c in clab])
                    key = (s_img, labels)
                    if key not in index:
                        continue
                    cases += 1
                    flip0 = _compose0(s_img, a_inv)
                    u, v1, v2 = (
                        _join0(n, [*a_pairs, *enumerate(x)])[0] for x in (w0, s_img, flip0)
                    )
                    problem = None
                    if w_count != m:
                        problem = "a coarser witness partition also multiplies"
                    elif not u == v1 == v2 == labels:
                        problem = "join expressions disagree with the product partition"
                    # (0_f, f)(V, pi) with f = sigma pi^-1 has partition v2 and
                    # permutation sigma, so it is (U, sigma) when the lengths add.
                    elif n - count[flip0] + a_len != 2 * (n - blocks) - b_metric:
                        problem = "left multiplication by sigma pi^-1 misses"
                    if problem is not None and fail is None:
                        b_el = els[index[key]]
                        fail = f"shape {shape}, a={els[a_pos]!r}, b={b_el!r}: {problem}"
    return cases, fail


def _witness_joins(vlab: tuple[int, ...]) -> dict[int, list[tuple]]:
    """The set partitions W of m items joined with the partition V whose
    labels are ``vlab``, grouped by blocks(V v W) - blocks(W).

    Each entry is (blocks(W), the first-appearance labels of V v W,
    blocks(V v W)); within a group W runs in ``_set_partitions`` order.
    """
    m = len(vlab)
    first: dict[int, int] = {}
    v_pairs = [(first.setdefault(label, c), c) for c, label in enumerate(vlab)]
    out: dict[int, list[tuple]] = {}
    for wblocks in _set_partitions(tuple(range(m))):
        w_pairs = [(b[0], x) for b in wblocks for x in b[1:]]
        labels, blocks = _join0(m, v_pairs + w_pairs)
        out.setdefault(blocks - len(wblocks), []).append((len(wblocks), labels, blocks))
    return out


# -- model suites ------------------------------------------------------


def _model_cases(n: int):
    alt = tuple(1 if i % 2 == 0 else -1 for i in range(n))
    return (
        ("semicircular", semicircular_space(), x_word(n)),
        ("haar alternating", haar_unitary_space(), u_word(alt)),
        ("haar constant", haar_unitary_space(), u_word((1,) * n)),
        ("formal", formal_moment_space(), a_word(n)),
    )


def _product_title(sizes: tuple[int, ...]) -> str:
    if len(sizes) == 1:
        return f"first order product cumulants, n={sizes[0]}"
    return "second order product cumulants, shape ({},{})".format(*sizes)


@_check(_product_title)
def _product_cell(sizes: tuple[int, ...]):
    """Filtered sums against the direct recursion on the grouped words.

    ``sizes`` is (n,) for the first order formula on [n], or (p, q) for
    the second order one on that annulus; every composition of each size
    is a grouping, and each grouping meets every model of ``_model_cases``.
    """
    cases, fail = 0, None
    for groups in itertools.product(*map(_compositions, sizes)):
        split = len(groups[0]) if len(groups) == 2 else None
        comp = Composition(sum(groups, ()), split=split)
        formula = ks_product_cumulant if split is None else main_product_cumulant
        for label, model, word in _model_cases(comp.total):
            cases += 1
            got = formula(model, word, comp)
            want = oracle_product_cumulant(model, word, comp)
            if got != want and fail is None:
                fail = (
                    f"parts {comp.parts} split {split}, {label}: filtered "
                    f"sum {got!r}, direct recursion {want!r}"
                )
    return cases, fail


def _haar_predicted(p: int, q: int, signs) -> int:
    # zero unless both circles are even and alternate in sign
    steps = [*range(p - 1), *range(p, p + q - 1)]
    if p % 2 or q % 2 or any(signs[i] + signs[i + 1] for i in steps):
        return 0
    return (-1) ** ((p + q) // 2) * snc_count(p // 2, q // 2)


@_check("unitary sign sweep, shape ({0[0]},{0[1]})")
def _haar_cell(pq: tuple[int, int]):
    p, q = pq
    cases, fail = 0, None
    for signs in itertools.product((1, -1), repeat=p + q):
        cases += 1
        got = haar_kappa_pq(p, q, signs)
        want = _haar_predicted(p, q, signs)
        if got != want and fail is None:
            fail = f"signs {signs}: cumulant {got!r}, predicted {want}"
    return cases, fail


@_check("squared semicircular entries, shape ({0[0]},{0[1]})")
def _square_cell(pq: tuple[int, int]):
    p, q = pq
    cases, fail = 0, None
    got = semicircular_square_kappa(p, q)
    ksum = sum(k * comb(p, k) * comb(q, k) for k in range(1, min(p, q) + 1))
    closed = p * comb(p + q - 1, p)
    cases += 1
    if not got == ksum == closed and fail is None:
        fail = f"separated count {got}, binomial sum {ksum}, closed form {closed}"
    if p + q <= 4:
        comp = Composition((2,) * (p + q), split=p)
        word = x_word(2 * (p + q))
        full = main_product_cumulant(semicircular_space(), word, comp)
        direct = oracle_product_cumulant(semicircular_space(), word, comp)
        cases += 1
        if not full == direct == got and fail is None:
            fail = (
                f"general machinery gives {full!r}/{direct!r}, "
                f"pairing count gives {got}"
            )
    return cases, fail


@_check("semicircular fluctuation moments agree three ways", ceiling=12)
def check_fluctuations(max_total: int):
    """Fluctuation moments three ways: cycle sum, closed form, pairing count."""
    cases, fail = 0, None
    for p, q in _shape_cells(max_total):
        cases += 1
        a = semicircular_phi2(p, q)
        b = semicircular_phi2_closed(p, q)
        c = count_snc_pairings(p, q)
        if not a == b == c and fail is None:
            fail = f"(p,q)=({p},{q}): sum {a}, closed {b}, pairings {c}"
        if (p + q) % 2 and a != 0 and fail is None:
            fail = f"(p,q)=({p},{q}): odd total but value {a}"
    return cases, fail


@_check("signed annular counts satisfy the recurrence", ceiling=9)
def check_mobius_recurrence(max_total: int):
    """The signed annular counts satisfy the convolution recurrence."""
    cases, fail = 0, None
    for p, q in _shape_cells(max_total):
        cases += 1
        res = mobius_recurrence_residual(p, q)
        if res != 0 and fail is None:
            fail = f"(p,q)=({p},{q}): residual {res}"
    return cases, fail


# -- suites ------------------------------------------------------------


def _cells(fn, cells, jobs: int, costs=None) -> list[CheckResult]:
    """``fn`` of every cell, in cell order; over a pool of ``jobs`` workers,
    but never more than there are cells, when that is more than one.  The
    pool starts the cells by decreasing ``costs`` when they are given."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, len(cells))
    if workers <= 1:
        return [fn(c) for c in cells]
    from concurrent.futures import ProcessPoolExecutor  # here: it imports multiprocessing
    order = range(len(cells))
    if costs is not None:
        order = sorted(order, key=lambda i: -costs[i])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {i: pool.submit(fn, cells[i]) for i in order}
        return [futures[i].result() for i in range(len(cells))]


def _bound(max_total: int | None, default: int) -> int:
    """A suite's bound: ``default`` when unset, else ``max_total``, refused below 1."""
    if max_total is None:
        return default
    if max_total < 1:
        raise ValueError(f"bound {max_total} is below 1")
    return max_total


def suite_main_theorem(max_total: int | None = None, jobs: int = 1) -> list[CheckResult]:
    return _cells(_product_cell, _shape_cells(_check_bound(_bound(max_total, 8))), jobs)


def suite_ks(max_total: int | None = None, jobs: int = 1) -> list[CheckResult]:
    bound = _check_bound(_bound(max_total, 8))
    return _cells(_product_cell, [(n,) for n in range(1, bound + 1)], jobs)


def suite_semicircular(max_total: int | None = None, jobs: int = 1) -> list[CheckResult]:
    return _cells(check_fluctuations, [_bound(max_total, 10)], jobs)


SQUARE_BOUND = PAIRING_BOUND // 4


def _square_bound(max_total: int | None) -> int:
    if (bound := _bound(max_total, 4)) > SQUARE_BOUND:
        raise ValueError(
            f"semicircular-square runs to a bound of at most {SQUARE_BOUND}: "
            "its cells hold every annular pairing of 2(p+q) points"
        )
    return bound


def suite_semicircular_square(max_total: int | None = None, jobs: int = 1) -> list[CheckResult]:
    sides = range(1, _square_bound(max_total) + 1)
    return _cells(_square_cell, [(p, q) for p in sides for q in sides], jobs)


def suite_haar(max_total: int | None = None, jobs: int = 1) -> list[CheckResult]:
    return _cells(_haar_cell, _shape_cells(_check_bound(_bound(max_total, 8))), jobs)


def suite_mobius(max_total: int | None = None, jobs: int = 1) -> list[CheckResult]:
    return _cells(check_mobius_recurrence, [_bound(max_total, 8)], jobs)


# (check, default bound, seconds): the seconds are one serial run at the
# default bound on a 2-CPU machine; a pool starts the slowest checks first.
_LEMMA_CHECKS = (
    (check_nc_counts, 9, 0.03),
    (check_metric_triangle, 6, 0.17),
    (check_metric_order, 6, 0.05),
    (check_conjugation_invariance, 6, 0.01),
    (check_restriction_commutes, 6, 0.6),
    (check_order_refinement, 6, 0.05),
    (check_snc_rotation, 6, 0.03),
    (check_first_sep, 8, 0.5),
    (check_separates, 8, 0.8),
    (check_tracial_inequality, 6, 0.01),
    (check_restriction_lemma, 8, 4.5),
    (check_fattening, 9, 5.9),
    (check_annular_order, 7, 0.4),
    (check_tunnel_product, 6, 0.07),
    (check_order_corollary, 6, 0.1),
)

_ORDER_CHECKS = (
    (check_order_axioms, 6, 1.7),
    (check_order_kinds, 5, 0.1),
    (check_order_structure, 6, 1.9),
)


def _run_check(spec) -> CheckResult:
    check, bound = spec
    return check(bound)


def _check_suite(table, max_total: int | None, jobs: int) -> list[CheckResult]:
    specs = [
        (check, min(default, _bound(max_total, default)))
        for check, default, _seconds in table
    ]
    return _cells(_run_check, specs, jobs, [seconds for *_spec, seconds in table])


def suite_lemmas(max_total: int | None = None, jobs: int = 1) -> list[CheckResult]:
    return _check_suite(_LEMMA_CHECKS, max_total, jobs)


def suite_order(max_total: int | None = None, jobs: int = 1) -> list[CheckResult]:
    return _check_suite(_ORDER_CHECKS, max_total, jobs)


SUITES = {
    "main-theorem": suite_main_theorem,
    "ks": suite_ks,
    "semicircular": suite_semicircular,
    "semicircular-square": suite_semicircular_square,
    "haar": suite_haar,
    "mobius": suite_mobius,
    "order": suite_order,
    "lemmas": suite_lemmas,
}


def suite_names() -> list[str]:
    return list(SUITES) + ["all"]


def run_suite(name: str, max_total: int | None = None, jobs: int = 1) -> list[CheckResult]:
    """Run one suite (or ``all``) and return its results in order; a bound or
    ``jobs`` below 1 is refused."""
    if name == "all":
        _square_bound(max_total)  # refused before any suite runs
        return [result for suite in SUITES.values() for result in suite(max_total, jobs)]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(suite_names())}")
    return SUITES[name](max_total, jobs)
