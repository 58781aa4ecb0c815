"""Non-crossing permutations of the disc and the annulus.

The disc case: pi on [n] is non-crossing when it sits on a geodesic from
the identity to the full cycle gamma_n = (1,...,n), i.e.

    #(pi) + #(pi^-1 gamma_n) + #(gamma_n) == n + 2.

The annulus (p, q): the base permutation is gamma_pq = (1,...,p)(p+1,...,p+q),
the outer circle carrying 1..p and the inner circle p+1..p+q.  A permutation
belongs to the annular non-crossing class when it has at least one through
cycle (a cycle meeting both circles) and

    #(pi) + #(pi^-1 gamma_pq) + #(gamma_pq) == p + q + 2.

Partitioned permutations (V, pi) with pi <= V extend this to the two-point
setting: the annular family consists of the disc-type elements (0_pi, pi)
for pi annular non-crossing, together with the "tunnel" elements where pi
is a pair of disc non-crossing permutations, one per circle, and exactly
one block of V glues one cycle from each circle.

Enumeration generates the families instead of filtering: the disc family
by recursion on the cycle of the first point, the disc pairings on the
partner of the first point, and each annular family (``enumerate_snc``,
``count_snc_pairings``) as the circle-rotation conjugates of its disc
members with a through cycle, all on 0-based image tuples.  The tests
compare them against the S_n filter ``perm._is_nc0``, the (n-1)!! pairing
filter and the Mingo-Nica counts.  The enumerators wrap only their results
in ``Permutation``, sort them by one-line image and memoize them per size or
shape, each in an ``lru_cache`` behind a public function that checks the
arguments, sizes with ``_check_bound``, the program's one size limit;
``cumulants.clear_caches()`` never empties them (``memo_info()`` shows
them); every element passes its validating constructor.  The
``enumerate_psnc`` builds of one total share one pool (``_pools``): one
partition per distinct labels tuple, made by ``SetPartition.from_labels``
from a disc-type element's pooled cycles or a tunnel's factors' cycle
labels, and one tuple per distinct cycle and block.  A build pauses the
cyclic collector (``_gc_paused``): it makes no reference cycle, so reference
counting frees its temporaries.  ``element_lines`` writes the JSON Lines of ``ncfree
enumerate`` without ``json``, each distinct cycle's and block's text once.  The
complement-separation tests here run on the 0-based kernels ``_cycle_labels0`` and
``_separated``; the product formulas in ``cumulants`` test a pair mask that
``_plan`` builds from the complement's cycles.
"""

from __future__ import annotations

import gc
import itertools
import os
from dataclasses import dataclass
from functools import lru_cache, wraps
from operator import itemgetter
from typing import Iterable, Iterator

from .perm import (
    Permutation,
    SetPartition,
    _compose0,
    _cycle_labels0,
    _gamma0,
    _inverse0,
    _points_in,
    _separated,
    _through0,
    full_cycle,
    orbit_partition,
    partition_join,
)

__all__ = [
    "ENUMERATION_BOUND",
    "PAIRING_BOUND",
    "AnnulusShape",
    "Composition",
    "PartitionedPermutation",
    "gamma_pq",
    "is_nc_disc",
    "has_through_cycle",
    "is_snc",
    "enumerate_nc",
    "enumerate_snc",
    "enumerate_psnc",
    "count_snc_pairings",
    "fatten",
    "tau_of",
    "kreweras",
    "kreweras_cycle_ids",
    "main_summand_filter",
    "pp_product",
    "pp_leq",
    "element_record",
    "element_lines",
    "memo_info",
]

# The ceiling of ``_check_bound`` unless NCFREE_MAX_TOTAL is set.  Every
# family of total 12 finishes: on a 2-CPU Xeon VM under Python 3.11 the
# largest, psnc of the (6,6) shape, takes 25-33 s and 0.78 GB peak RSS as
# ``ncfree enumerate`` (two runs); the cycle texts ``element_lines`` keeps
# for it are 36 990 entries, about 4 MB of that peak, and its pool's dict of
# 866 844 partitions, 40 MB, stays as long as the family.
ENUMERATION_BOUND = 12

# ``count_snc_pairings`` refuses shapes of more points than this.  It holds
# a shape's annular pairings in one set: (12, 12) holds 2 561 328 of them
# (73 s and 843 MB on a 2-CPU machine); (14, 14) would hold 41 225 184,
# some 13 GB.
PAIRING_BOUND = 24


@dataclass(frozen=True)
class AnnulusShape:
    """An annulus with p outer and q inner boundary points, both >= 1."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if not all(isinstance(n, int) and n >= 1 for n in (self.p, self.q)):
            raise ValueError("annulus needs an int number of points, at least one, on each circle")

    @property
    def total(self) -> int:
        return self.p + self.q

    def gamma(self) -> Permutation:
        return gamma_pq(self.p, self.q)


def gamma_pq(p: int, q: int) -> Permutation:
    """The permutation (1,...,p)(p+1,...,p+q)."""
    if p < 1 or q < 1:
        raise ValueError("gamma_pq needs p, q >= 1")
    image = list(range(2, p + 1)) + [1] + list(range(p + 2, p + q + 1)) + [p + 1]
    return Permutation(image)


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive parts, optionally split into two runs.

    ``split = r`` marks the first r parts as the outer-circle groups; it is
    absent for disc use.  ``boundary_points`` are the partial sums
    n_1, n_1 + n_2, ...; these are the group endpoints every separation
    filter in the package refers to.
    """

    parts: tuple[int, ...]
    split: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts or not all(isinstance(n, int) and n >= 1 for n in self.parts):
            raise ValueError("composition parts must be positive ints")
        split = self.split
        if split is not None and not (isinstance(split, int) and 0 < split < len(self.parts)):
            raise ValueError("split must be an int that leaves parts on both sides")

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def part_count(self) -> int:
        return len(self.parts)

    @property
    def boundary_points(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.parts))

    def _require_split(self) -> int:
        if self.split is None:
            raise ValueError("this operation needs a split composition")
        return self.split

    @property
    def p(self) -> int:
        """Total size of the outer-circle groups."""
        return sum(self.parts[: self._require_split()])

    @property
    def q(self) -> int:
        """Total size of the inner-circle groups."""
        return sum(self.parts[self._require_split() :])

    def shape(self) -> AnnulusShape:
        return AnnulusShape(self.p, self.q)


# -- membership tests --------------------------------------------------


def is_nc_disc(a: Permutation) -> bool:
    """Disc non-crossing test via the geodesic identity.

    >>> is_nc_disc(Permutation.parse("(1,2)(3,4)"))
    True
    >>> is_nc_disc(Permutation.parse("(1,3)(2,4)"))
    False
    """
    n = a.size
    k = a.inverse() * full_cycle(n)
    return a.cycle_count + k.cycle_count == n + 1


def has_through_cycle(a: Permutation, shape: AnnulusShape) -> bool:
    """True when some cycle of ``a`` meets both circles of the shape."""
    p = shape.p
    return any(c[0] <= p and max(c) > p for c in a.cycles)


def is_snc(a: Permutation, shape: AnnulusShape) -> bool:
    """Annular non-crossing test: through cycle plus the geodesic identity."""
    if a.size != shape.total:
        raise ValueError(f"size {a.size} does not match shape {shape}")
    if not has_through_cycle(a, shape):
        return False
    k = a.inverse() * shape.gamma()
    return a.cycle_count + k.cycle_count == shape.total


# -- enumeration -------------------------------------------------------


def _check_bound(total: int) -> int:
    """``total``, refused unless in 1..NCFREE_MAX_TOTAL (read per call) or 1..ENUMERATION_BOUND."""
    raw = os.environ.get("NCFREE_MAX_TOTAL", ENUMERATION_BOUND)
    try:
        ceiling = int(raw)
    except ValueError:
        raise ValueError(f"NCFREE_MAX_TOTAL must be an integer, got {raw!r}") from None
    if ceiling < 1:
        raise ValueError("NCFREE_MAX_TOTAL must be at least 1")
    if total > ceiling:
        raise ValueError(
            f"requested size {total} exceeds the ceiling {ceiling} (override with NCFREE_MAX_TOTAL)"
        )
    if total < 1:
        raise ValueError("sizes must be at least 1")
    return total


def _gc_paused(build):
    """``build`` with the cyclic collector off while it runs, then as on entry."""

    @wraps(build)
    def paused(*args):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args)
        finally:
            if enabled:
                gc.enable()

    return paused


def _nc_images0(n: int) -> list[tuple[int, ...]]:
    """0-based images of the disc non-crossing permutations of [n], sorted.

    Recursion on the cycle of the first point: either 0 is fixed, or its
    next point is some j, the points 1..j-1 in between form an independent
    disc non-crossing permutation, and 0 joins the cycle of j in a disc
    non-crossing permutation of j..n-1, ahead of j.  Every smaller size is
    built once, in one table.  The loops visit (image of 0, the part on
    1..j-1, the part on j..n-1) in increasing order, and the shifts and
    the redirection of j's predecessor to 0 keep sorted parts sorted, so
    each size comes out in lexicographic order without a sort.
    """
    table = [[()]]
    for m in range(1, n + 1):
        out = [(0,) + tuple(v + 1 for v in img) for img in table[m - 1]]
        for j in range(1, m):
            inners = [tuple(v + 1 for v in img) for img in table[j - 1]]
            rests = []
            for img in table[m - j]:
                rest = [v + j for v in img]
                rest[img.index(0)] = 0  # the point that led back to j now leads to 0
                rests.append(tuple(rest))
            out.extend((j,) + inner + rest for inner in inners for rest in rests)
        table.append(out)
    return table[n]


@lru_cache(maxsize=None)
@_gc_paused
def _nc(n: int) -> tuple[Permutation, ...]:
    return tuple(Permutation(v + 1 for v in img0) for img0 in _nc_images0(n))


def _nc_pairings0(n: int) -> list[tuple[int, ...]]:
    """0-based images of the non-crossing pairings of [n], n even: 0 pairs
    with an odd j, and 1..j-1 and j+1..n-1 carry independent such pairings."""
    table = [[()]]
    for m in range(2, n + 1, 2):
        out = []
        for j in range(1, m, 2):
            inners = [tuple(v + 1 for v in img) for img in table[j // 2]]
            rests = [tuple(v + j + 1 for v in img) for img in table[(m - j - 1) // 2]]
            out.extend((j,) + inner + (0,) + rest for inner in inners for rest in rests)
        table.append(out)
    return table[n // 2]


def _rotation_conjugates(discs0: list[tuple[int, ...]], p: int, q: int) -> set[tuple[int, ...]]:
    """1-based images of the circle-rotation conjugates of the 0-based disc
    images with a through cycle.  When ``discs0`` holds every disc
    non-crossing image of some cycle types, these are the annular
    non-crossing permutations of those types (``verify.check_snc_rotation``)."""
    discs = [img for img in discs0 if _through0(img, p)]
    found: set[tuple[int, ...]] = set()
    for a in range(p):
        for b in range(q):
            rot = tuple((x + a) % p for x in range(p)) + tuple(p + (x + b) % q for x in range(q))
            before = itemgetter(*_inverse0(rot))
            after = tuple(v + 1 for v in rot)
            # (rot pi rot^-1)(y) = rot(pi(rot^-1(y))), written 1-based
            found.update(itemgetter(*before(img))(after) for img in discs)
    return found


@lru_cache(maxsize=None)
@_gc_paused
def _snc(p: int, q: int) -> tuple[Permutation, ...]:
    return tuple(map(Permutation, sorted(_rotation_conjugates(_nc_images0(p + q), p, q))))


def enumerate_nc(n: int) -> tuple[Permutation, ...]:
    """All disc non-crossing permutations of [n], ordered lexicographically
    by one-line image.  Memoized; the returned tuple is shared."""
    _check_bound(n)
    return _nc(n)


def enumerate_snc(shape: AnnulusShape) -> tuple[Permutation, ...]:
    """All annular non-crossing permutations of the shape, in lexicographic
    order on one-line images.  Memoized per shape."""
    _check_bound(shape.total)
    return _snc(shape.p, shape.q)


class PartitionedPermutation:
    """A pair (V, pi) with every cycle of pi inside a block of V.

    ``length`` is 2|V| - |pi| in the partition/permutation metrics; it is
    additive exactly when ``pp_product`` is defined.  ``kind`` reports
    "disc" when V = 0_pi (each block a single cycle) and "tunnel" otherwise.
    """

    __slots__ = ("partition", "perm")

    def __init__(self, partition: SetPartition, perm: Permutation):
        if partition.size != perm.size:
            raise ValueError("partition and permutation sizes differ")
        labels = partition.labels
        # every cycle lies in a block exactly when pi keeps each point's block label
        if tuple(map(((-1,) + labels).__getitem__, perm.image)) != labels:
            cycle = next(c for c in perm.cycles if len({labels[pt - 1] for pt in c}) > 1)
            raise ValueError(f"cycle {cycle} is not contained in a block of {partition!r}")
        self.partition = partition
        self.perm = perm

    @classmethod
    def disc(cls, perm: Permutation) -> "PartitionedPermutation":
        """The element (0_pi, pi)."""
        return cls(orbit_partition(perm), perm)

    @property
    def size(self) -> int:
        return self.perm.size

    @property
    def length(self) -> int:
        return 2 * self.partition.metric_length - self.perm.metric_length

    @property
    def kind(self) -> str:
        return "disc" if self.partition.block_count == self.perm.cycle_count else "tunnel"

    def block_cycles(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Cycles of ``perm`` grouped by block of ``partition``.

        Groups follow block order; cycles inside a group are ordered by
        their minima.  For the annular elements enumerated here this puts
        the outer-circle cycle of a tunnel block first.
        """
        per_block: list[list[tuple[int, ...]]] = [[] for _ in self.partition.blocks]
        for cycle in self.perm.cycles:
            per_block[self.partition.labels[cycle[0] - 1]].append(cycle)
        return tuple(tuple(group) for group in per_block)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PartitionedPermutation)
            and self.perm == other.perm
            and self.partition == other.partition
        )

    def __hash__(self) -> int:
        return hash((self.partition, self.perm))

    def __repr__(self) -> str:
        return f"PartitionedPermutation[{self.partition!r}, {self.perm!r}]"


def enumerate_psnc(shape: AnnulusShape) -> tuple[PartitionedPermutation, ...]:
    """All annular partitioned permutations of the shape.

    Disc-type elements come first, in ``enumerate_snc`` order; then the
    tunnel elements, ordered by (outer factor, inner factor, glued pair), so
    one permutation's elements are adjacent.  Memoized per shape.
    """
    _check_bound(shape.total)
    return _psnc(shape.p, shape.q)


@lru_cache(maxsize=None)
def _pools(total: int) -> tuple[dict, dict]:
    """The cycle-and-block pool and labels-to-partition dict of every psnc shape of ``total``."""
    return {}, {}


@lru_cache(maxsize=None)
@_gc_paused
def _psnc(p: int, q: int) -> tuple[PartitionedPermutation, ...]:
    pool, by_labels = _pools(p + q)

    def partition(labels: list[int]) -> SetPartition:
        key = tuple(labels)
        return by_labels.get(key) or by_labels.setdefault(key, SetPartition.from_labels(key, pool))

    out = []
    for a in _snc(p, q):
        labels = [0] * (p + q)
        for c, cycle in enumerate(a._share_cycles(pool)):
            for pt in cycle:
                labels[pt - 1] = c
        out.append(PartitionedPermutation(partition(labels), a))
    inners = [(tuple(v + p for v in b.image), *_cycle_labels0([x - 1 for x in b.image]))
              for b in _nc(q)]
    for outer in _nc(p):
        out_labels, k1 = _cycle_labels0([x - 1 for x in outer.image])
        for in_image, in_labels, k2 in inners:
            perm = Permutation(outer.image + in_image)
            perm._share_cycles(pool)
            for i in range(k1):
                for j in range(k2):
                    # inner cycle j joins outer cycle i; the others take labels k1, k1 + 1, ...
                    glued = [i if c == j else k1 + c - (c > j) for c in in_labels]
                    out.append(PartitionedPermutation(partition(out_labels + glued), perm))
    return tuple(out)


def memo_info() -> dict[str, dict[str, int]]:
    """Hits, misses and size of the family memos and the per-total psnc pools."""
    return {m.__name__[1:]: m.cache_info()._asdict() for m in (_nc, _snc, _psnc, _pools)}


# -- pairings ----------------------------------------------------------


def count_snc_pairings(
    p: int, q: int, separated_at: Iterable[int] | None = None
) -> int:
    """Count annular non-crossing pairings of the (p, q) shape.

    With ``separated_at`` given, only pairings pi whose complement
    pi^-1 gamma_pq puts the listed points into pairwise distinct cycles
    are counted.  A circle with no point, more than ``PAIRING_BOUND``
    points, or a point outside [1, p+q], is a ValueError.  The pairings
    are generated as the rotation conjugates of the disc non-crossing
    pairings with a through pair, the construction of ``enumerate_snc``;
    the tests compare the counts with a filter over all (p+q-1)!! pairings.
    """
    n = AnnulusShape(p, q).total
    if n > PAIRING_BOUND:
        raise ValueError(f"pairings are counted on at most {PAIRING_BOUND} points, not {n}")
    pts = None if separated_at is None else _points_in(separated_at, n)
    if n % 2:
        return 0
    members = _rotation_conjugates(_nc_pairings0(n), p, q)
    if pts is None:
        return len(members)
    gamma0 = _gamma0(p, q)
    # a pairing is an involution, so its complement pi^-1 gamma is pi gamma
    return sum(_separated(_cycle_labels0([img[g] - 1 for g in gamma0])[0], pts) for img in members)


# -- fattening ---------------------------------------------------------


def fatten(a: Permutation, comp: Composition) -> Permutation:
    """Inflate ``a`` along the parts of ``comp``.

    Part k becomes the interval T_k ending at the k-th partial sum; inside
    each interval points step forward by one, and the last point of T_k
    jumps to the first point of T_{a(k)}.

    >>> fatten(Permutation.parse("(1,3)(2)"), Composition((2, 3, 4))).cycle_string()
    '(1,2,6,7,8,9)(3,4,5)'
    """
    parts = comp.parts
    if len(a.image) != len(parts):
        raise ValueError(f"permutation of size {a.size} does not match {len(parts)} parts")
    # firsts[k] is the first point of part k + 1; the last entry is total + 1
    firsts = list(itertools.accumulate(parts, initial=1))
    image = list(range(2, firsts[-1] + 1))
    for first, ak in zip(firsts[1:], a.image):
        image[first - 2] = firsts[ak - 1]
    return Permutation(image)


def tau_of(comp: Composition) -> Permutation:
    """The interval permutation with one cycle per part of ``comp``.

    >>> tau_of(Composition((3, 2, 4, 2, 1))).cycle_string()
    '(1,2,3)(4,5)(6,7,8,9)(10,11)(12)'
    """
    return fatten(Permutation.identity(comp.part_count), comp)


# -- complements and the separation filter -----------------------------


def kreweras(shape: AnnulusShape, a: Permutation) -> Permutation:
    """The complement a^-1 gamma_pq."""
    return a.inverse() * shape.gamma()


def kreweras_cycle_ids(shape: AnnulusShape, a: Permutation) -> tuple[int, ...]:
    """Cycle labels of the complement a^-1 gamma_pq, one per ground point.

    Label i marks the i-th cycle of ``kreweras(shape, a).cycles``.
    """
    if a.size != shape.total:
        raise ValueError(f"size {a.size} does not match shape {shape}")
    k0 = _compose0(_inverse0([x - 1 for x in a.image]), _gamma0(shape.p, shape.q))
    return tuple(_cycle_labels0(k0)[0])


def main_summand_filter(
    shape: AnnulusShape, comp: Composition, vp: PartitionedPermutation
) -> bool:
    """True when the complement of ``vp.perm`` separates the part endpoints.

    ``comp`` must be a split composition matching the shape.
    """
    if comp.p != shape.p or comp.q != shape.q:
        raise ValueError(f"composition {comp} does not fill shape {shape}")
    if vp.size != shape.total:
        raise ValueError("partitioned permutation does not match the shape")
    return _separated(kreweras_cycle_ids(shape, vp.perm), comp.boundary_points)


# -- the product and partial order ------------------------------------


def pp_product(
    a: PartitionedPermutation, b: PartitionedPermutation
) -> PartitionedPermutation | None:
    """Product of partitioned permutations.

    The candidate is (V join U, pi sigma); it is the value exactly when both
    lengths add, otherwise the product is undefined and None is returned.

    >>> s = Permutation.parse("(1,2)")
    >>> left = PartitionedPermutation.disc(s)
    >>> right = PartitionedPermutation.disc(s.inverse() * gamma_pq(1, 1))
    >>> pp_product(left, right)
    PartitionedPermutation[SetPartition[{1,2}], Permutation[(1)(2)]]
    """
    if a.size != b.size:
        raise ValueError("size mismatch in partitioned permutation product")
    joined = partition_join(a.partition, b.partition)
    prod = a.perm * b.perm
    if a.length + b.length == 2 * joined.metric_length - prod.metric_length:
        return PartitionedPermutation(joined, prod)
    return None


def pp_leq(a: PartitionedPermutation, b: PartitionedPermutation) -> bool:
    """Order by existence of a completing factor: a <= b when a c = b.

    The factor's permutation is forced, w = a.perm^-1 b.perm; its
    partition W coarsens the cycles of w inside the blocks of ``b``, and
    length additivity fixes how many blocks W has.  The zero witness
    (0_w, w) is tried first; inside the annular family it is the only one
    (``check_order_structure``), outside it coarser witnesses are searched.
    """
    if a.size != b.size:
        raise ValueError("size mismatch in partitioned permutation comparison")
    w = a.perm.inverse() * b.perm
    if pp_product(a, PartitionedPermutation.disc(w)) == b:
        return True
    # |a| + 2|W| - |w| = |b|, and each merge of two cycles of w adds 1 to |W|;
    # |b| - |a| - |w| is even, as |w| = |a.perm| + |b.perm| (mod 2).
    merges = (b.length - a.length - w.metric_length) // 2
    if merges <= 0:
        return False
    groups: dict[int, list[tuple[int, ...]]] = {}
    for cycle in w.cycles:
        groups.setdefault(b.partition.block_index(cycle[0]), []).append(cycle)
    for choice in itertools.product(*map(_set_partitions, groups.values())):
        blocks = [sum(group, ()) for parts in choice for group in parts]
        if len(blocks) == w.cycle_count - merges:
            if pp_product(a, PartitionedPermutation(SetPartition(a.size, blocks), w)) == b:
                return True
    return False


def _set_partitions(items):
    """Every partition of the sequence ``items`` into groups, each a tuple."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [(first,) + part[i]] + part[i + 1 :]
        yield [(first,)] + part


# -- serialization -----------------------------------------------------


def element_record(vp: PartitionedPermutation) -> dict:
    """JSON-ready record of one enumerated element."""
    return {
        "perm": vp.perm.cycle_string(),
        "partition": [list(b) for b in vp.partition.blocks],
        "kind": vp.kind,
    }


def element_lines(family: Iterable[Permutation | PartitionedPermutation]) -> Iterator[str]:
    """``json.dumps`` of ``{"perm": x.cycle_string()}`` or ``element_record(x)`` per member
    x, separators ``", "`` and ``": "``: cycle strings need no escaping, and an int
    list's repr is its JSON.  A run of members sharing a perm writes its text once.

    >>> for line in element_lines(enumerate_psnc(AnnulusShape(1, 1))):
    ...     print(line)
    {"perm": "(1,2)", "partition": [[1, 2]], "kind": "disc"}
    {"perm": "(1)(2)", "partition": [[1, 2]], "kind": "tunnel"}
    """
    text: dict[tuple[int, ...], str] = {}  # each distinct block's JSON
    ctext: dict[tuple[int, ...], str] = {}  # each distinct cycle's text, "(1,3,2)"

    def perm_text(a: Permutation) -> str:  # a.cycle_string()
        return "".join([ctext.get(c) or ctext.setdefault(c, f"({','.join(map(str, c))})")
                        for c in a.cycles])

    perm = head = None
    for x in family:
        if isinstance(x, Permutation):
            yield f'{{"perm": "{perm_text(x)}"}}'
            continue
        if x.perm is not perm:
            perm = x.perm
            head = f'{{"perm": "{perm_text(perm)}", "partition": ['
        blocks = ", ".join([text.get(b) or text.setdefault(b, str(list(b)))
                            for b in x.partition.blocks])
        yield f'{head}{blocks}], "kind": "{x.kind}"}}'
