"""Permutations of [n] = {1, ..., n} and set partitions of [n].

Conventions used throughout the package:

- Ground sets are 1-based.  A permutation of size n acts on {1, ..., n}.
- Composition is right-to-left: ``(a * b)(i) == a(b(i))``, so the right
  factor acts first.  Every ``inverse() * g`` expression in the higher
  layers relies on this one convention.
- Cycle decompositions are canonical: each cycle is written starting from
  its minimum element and cycles are sorted by those minima.
  ``cycle_string`` and ``Permutation.parse`` round-trip this form.
- ``metric_length`` is n minus the number of cycles.  It is the word
  length of the permutation in the generating set of all transpositions,
  and it is the metric all of the geodesic ("non-crossing") conditions in
  this package are phrased in.

Permutations and set partitions are immutable values with structural
equality; all operations are pure and safe for concurrent use.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import itemgetter
from typing import Iterable

__all__ = [
    "Permutation",
    "SetPartition",
    "compose",
    "metric_length",
    "full_cycle",
    "restrict",
    "orbit_partition",
    "partition_join",
    "separates_points",
]


class Permutation:
    """A bijection of [n], stored as the tuple of images of 1, ..., n.

    >>> a = Permutation((2, 1, 4, 3))
    >>> a(1), a(3)
    (2, 4)
    >>> a.cycle_string()
    '(1,2)(3,4)'
    >>> a * a == Permutation.identity(4)
    True
    """

    __slots__ = ("image", "_cycles")

    image: tuple[int, ...]

    def __init__(self, image: Iterable[int]):
        image = tuple(image)
        n = len(image)
        if n == 0:
            raise ValueError("permutations act on [n] with n >= 1")
        seen = [False] * n
        for v in image:
            if not (1 <= v <= n) or seen[v - 1]:
                raise ValueError(f"not a bijection of [{n}]: {image!r}")
            seen[v - 1] = True
        self.image = image
        self._cycles: tuple[tuple[int, ...], ...] | None = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        """Build a permutation of [n] from disjoint cycles.

        Points of [n] not mentioned in any cycle are fixed.

        >>> Permutation.from_cycles(4, [(1, 3), (2,)]).cycle_string()
        '(1,3)(2)(4)'
        """
        image = list(range(1, n + 1))
        touched = [False] * n
        for cycle in cycles:
            cycle = tuple(cycle)
            for i, pt in enumerate(cycle):
                if not (1 <= pt <= n):
                    raise ValueError(f"cycle point {pt} outside [{n}]")
                if touched[pt - 1]:
                    raise ValueError(f"cycles are not disjoint at {pt}")
                touched[pt - 1] = True
                image[pt - 1] = cycle[(i + 1) % len(cycle)]
        return cls(image)

    @classmethod
    def parse(cls, text: str, size: int | None = None) -> "Permutation":
        """Parse cycle notation like ``(1,2,12,9,8)(3,4)(5,10,11)(6)(7)``.

        Whitespace is optional everywhere.  Points absent from the text
        are fixed; ``size`` defaults to the largest point mentioned.

        >>> Permutation.parse("(1, 3)(2)") == Permutation.from_cycles(3, [(1, 3)])
        True
        """
        stripped = re.sub(r"\s+", "", text)
        if not re.fullmatch(r"(\(\d+(,\d+)*\))*", stripped):
            raise ValueError(f"malformed cycle notation: {text!r}")
        cycles = [
            tuple(int(p) for p in group.split(","))
            for group in re.findall(r"\(([^()]*)\)", stripped)
            if group
        ]
        if size is None:
            size = max((max(c) for c in cycles), default=0)
            if size == 0:
                raise ValueError("cannot infer size from empty cycle notation")
        return cls.from_cycles(size, cycles)

    # -- basic structure ------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.image):
            raise ValueError(f"point {i} outside [{len(self.image)}]")
        return self.image[i - 1]

    @property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Canonical cycle decomposition, singletons included."""
        if self._cycles is None:
            image = (0,) + self.image  # padded: image[j] is the image of point j
            seen = [False] * len(image)
            cycles = []
            for start in range(1, len(image)):
                if seen[start]:
                    continue
                cycle = [start]  # start is the least point of its cycle: no later start meets it
                j = image[start]
                while j != start:
                    seen[j] = True
                    cycle.append(j)
                    j = image[j]
                cycles.append(tuple(cycle))
            self._cycles = tuple(cycles)
        return self._cycles

    def _share_cycles(self, pool: dict) -> tuple:  # each cycle becomes its equal in pool
        self._cycles = cycles = tuple([pool.setdefault(c, c) for c in self.cycles])
        return cycles

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)

    @property
    def metric_length(self) -> int:
        """n minus the number of cycles; additive along geodesics."""
        return len(self.image) - len(self.cycles)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.image)
        for i, v in enumerate(self.image, 1):
            inv[v - 1] = i
        return Permutation(inv)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition, right factor first: ``(a * b)(i) == a(b(i))``."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.size != self.size:
            raise ValueError(
                f"size mismatch: cannot compose size {self.size} with {other.size}"
            )
        image = self.image
        return Permutation(image[j - 1] for j in other.image)

    # -- text form ------------------------------------------------------

    def cycle_string(self) -> str:
        # the repr of the cycles, compacted: ((1, 3), (2,)) -> (1,3)(2)
        return repr(self.cycles).replace(" ", "").replace(",)", ")")[1:-1].replace("),(", ")(")

    def __repr__(self) -> str:
        return f"Permutation[{self.cycle_string()}]"

    # -- value semantics ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __lt__(self, other: "Permutation") -> bool:
        # lexicographic order on one-line images; used for deterministic sorts
        return self.image < other.image


class SetPartition:
    """A partition of [n] into disjoint blocks, in canonical form.

    Blocks are sorted tuples, listed by their minima.  ``labels`` gives
    the block index of each point 1..n: first-appearance labels, as from
    ``_join0``.

    >>> v = SetPartition.of_blocks(3, [(3, 1), (2,)])
    >>> v.blocks
    ((1, 3), (2,))
    >>> v.metric_length
    1
    """

    __slots__ = ("size", "blocks", "labels")

    def __init__(self, size: int, blocks: Iterable[Iterable[int]]):
        if not isinstance(size, int) or size < 1:
            raise ValueError("partitions live on [n] with n an int >= 1")
        blocks = [tuple(b) for b in blocks]
        if not all(isinstance(pt, int) for b in blocks for pt in b):
            raise ValueError(f"points must be ints: {blocks!r}")
        canon = sorted(tuple(sorted(b)) for b in blocks)
        labels: list[int | None] = [None] * size
        for bi, block in enumerate(canon):
            if not block:
                raise ValueError("empty block")
            for pt in block:
                if not (1 <= pt <= size) or labels[pt - 1] is not None:
                    raise ValueError(f"blocks do not partition [{size}]: {canon!r}")
                labels[pt - 1] = bi
        if None in labels:
            raise ValueError(f"blocks do not cover [{size}]: {canon!r}")
        if type(canon[0][0]) is bool:  # True passed the loop as point 1, which leads canon
            canon[0] = (1,) + canon[0][1:]
        self.size = size
        self.blocks = tuple(canon)
        self.labels = tuple(labels)

    @classmethod
    def of_blocks(cls, size: int, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        return cls(size, blocks)

    @classmethod
    def from_labels(cls, labels: Iterable[int], pool: dict | None = None) -> "SetPartition":
        """The partition with point i in block ``labels[i - 1]``, for first-appearance
        labels only (ints, 0 first, none more than one above all before it).  A
        block equal to a key of ``pool`` is that key's tuple; new blocks join it.

        >>> SetPartition.from_labels([0, 1, 0]).blocks
        ((1, 3), (2,))
        """
        labels = tuple(labels)
        groups: list[list[int]] = []
        for pt, label in enumerate(labels, 1):
            if type(label) is not int or not 0 <= label <= len(groups):
                raise ValueError(f"not first-appearance block labels: {labels!r}")
            if label == len(groups):
                groups.append([pt])
            else:
                groups[label].append(pt)
        if not groups:
            raise ValueError("partitions live on [n] with n >= 1")
        self = cls.__new__(cls)
        self.size, self.labels = len(labels), labels
        blocks = map(tuple, groups)
        self.blocks = tuple(blocks if pool is None else [pool.setdefault(b, b) for b in blocks])
        return self

    @classmethod
    def singletons(cls, n: int) -> "SetPartition":
        return cls(n, ((i,) for i in range(1, n + 1)))

    @classmethod
    def full(cls, n: int) -> "SetPartition":
        return cls(n, (tuple(range(1, n + 1)),))

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def metric_length(self) -> int:
        """n minus the number of blocks."""
        return self.size - len(self.blocks)

    def block_index(self, i: int) -> int:
        """Index into ``blocks`` of the block containing i."""
        return self.labels[i - 1]

    def block_containing(self, i: int) -> tuple[int, ...]:
        return self.blocks[self.block_index(i)]

    def join(self, other: "SetPartition") -> "SetPartition":
        return partition_join(self, other)

    def leq(self, other: "SetPartition") -> bool:
        """Refinement order: every block of self lies inside a block of other."""
        if other.size != self.size:
            raise ValueError("size mismatch in partition comparison")
        return all(
            set(block) <= set(other.block_containing(block[0]))
            for block in self.blocks
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SetPartition)
            and self.size == other.size
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.size, self.blocks))

    def __repr__(self) -> str:
        body = "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"SetPartition[{body}]"


# -- module-level operations -------------------------------------------


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Composition with the right factor acting first: result(i) = a(b(i))."""
    return a * b


def metric_length(a: Permutation) -> int:
    return a.metric_length


def full_cycle(n: int) -> Permutation:
    """The cycle (1, 2, ..., n)."""
    if n < 1:
        raise ValueError("full cycle needs n >= 1")
    return Permutation(tuple(range(2, n + 1)) + (1,))


def restrict(a: Permutation, points: Iterable[int]) -> Permutation:
    """First-return map of ``a`` on a nonempty subset of its ground set.

    The result is relabelled order-preservingly onto [k], k = len(points):
    the image of the j-th smallest point is the rank of the first point of
    the subset hit by iterating ``a``.

    >>> c = Permutation.parse("(1,2,3,4,5)")
    >>> restrict(c, {2, 4, 5}).cycle_string()
    '(1,2,3)'
    """
    pts = sorted(set(_points_in(points, a.size)))
    if not pts:
        raise ValueError("restriction to the empty set")
    rank = {pt: i + 1 for i, pt in enumerate(pts)}
    inside = set(pts)
    image = []
    for pt in pts:
        j = a.image[pt - 1]
        while j not in inside:
            j = a.image[j - 1]
        image.append(rank[j])
    return Permutation(image)


def orbit_partition(a: Permutation) -> SetPartition:
    """The set partition whose blocks are the cycles of ``a``."""
    return SetPartition(a.size, a.cycles)


def partition_join(u: SetPartition, v: SetPartition) -> SetPartition:
    """Least common coarsening of two partitions of the same set."""
    if u.size != v.size:
        raise ValueError("size mismatch in partition join")
    pairs = [(b[0] - 1, x - 1) for part in (u, v) for b in part.blocks for x in b[1:]]
    return SetPartition.from_labels(_join0(u.size, pairs)[0])


def separates_points(a: Permutation, points: Iterable[int]) -> bool:
    """True when no cycle of ``a`` contains two of the given points.

    >>> separates_points(Permutation.parse("(1,3,4)(2)"), {2, 4})
    True
    >>> separates_points(Permutation.parse("(1,3,4)(2)"), {3, 4})
    False
    """
    pts = _points_in(points, a.size)
    return _separated(_cycle_labels0(tuple(x - 1 for x in a.image))[0], pts)


def _points_in(points: Iterable[int], n: int) -> tuple[int, ...]:
    """The points as a tuple, or ValueError for one outside [1, n]."""
    pts = tuple(points)
    for pt in pts:
        if not 1 <= pt <= n:
            raise ValueError(f"point {pt} outside [{n}]")
    return pts


# -- raw 0-based kernels -----------------------------------------------
#
# The enumerators and the exhaustive sweeps work on plain 0-based image
# tuples and only wrap results in Permutation.  One kernel per job; each
# line gives the contract, then the callers (V = the verify sweeps):
#
# _cycle_count0(img)       number of cycles; _is_nc0, V
# _cycle_labels0(img)      (labels, count), label i = Permutation.cycles[i]; separation callers,
#                          kreweras_cycle_ids, annular._psnc (the nc factors only), V
# _through0(img, p)        0 < p: some cycle meets [0, p) and [p, n), i.e. some point below p
#                          maps to p or above; _is_nc0, V, the annular generators
#                          (enumerate_snc, count_snc_pairings)
# _cycles0(img)            the cycles as tuples, in Permutation.cycles order; cumulants._plan, V
# _join0(n, pairs)         (labels, count) of the join, first-appearance labels; partition_join,
#                          V (separation sweeps, order table and structure)
# _separated(labels, pts)  distinct labels at 1-based pts, range unchecked; separation callers, V;
#                          the tests check the pair masks of cumulants' plans against it
# _gamma0(*sizes)          full cycles on consecutive runs: gamma_n or gamma_pq; annular,
#                          cumulants._plan, V
# _is_nc0(img, p)          disc non-crossing if p == n, else annular on (p, n-p); V (family
#                          sweeps, fattening, order corollary), the tests
# _inverse0, _compose0     inverse; composition, right factor first; everywhere
# _composer0(b)            the map a -> _compose0(a, b) as one C call (an itemgetter); _is_nc0,
#                          cumulants._plan, V: wherever the right factor b stays fixed in a loop
# _restricter0(pts0, n)    the map img -> first-return map of img on pts0, relabelled by
#                          position in pts0, positions tabulated once per point set; V
#                          (restriction lemmas, order corollary)
#
# _cycle_count0 counts each cycle at its least point and marks nothing; the other cycle
# scans mark visited points in a list, which indexes faster than a bytearray.
#
# Separation callers: separates_points, count_snc_pairings on its generated pairings,
# main_summand_filter on kreweras_cycle_ids labels.


def _cycle_count0(image0: tuple[int, ...]) -> int:
    # i is the least point of its cycle exactly when the walk from it meets
    # only larger points before coming back
    count = 0
    for i, j in enumerate(image0):
        while j > i:
            j = image0[j]
        if j == i:
            count += 1
    return count


def _cycle_labels0(image0) -> tuple[list[int], int]:
    n = len(image0)
    lab = [-1] * n
    c = 0
    for i in range(n):
        if lab[i] < 0:
            j = i
            while lab[j] < 0:
                lab[j] = c
                j = image0[j]
            c += 1
    return lab, c


def _through0(image0: tuple[int, ...], p: int) -> bool:
    return max(image0[:p]) >= p


def _cycles0(image0: tuple[int, ...]) -> list[tuple[int, ...]]:
    seen = [False] * len(image0)
    cycles = []
    for i in range(len(image0)):
        if not seen[i]:
            cycle = []
            j = i
            while not seen[j]:
                seen[j] = True
                cycle.append(j)
                j = image0[j]
            cycles.append(tuple(cycle))
    return cycles


def _join0(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    # Union-find whose root is always the minimum of its block, so a point
    # opens a new label exactly when it is its own root.
    parent = list(range(n))
    for a, b in pairs:
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    labels = []
    count = 0
    for i in range(n):
        r = parent[i]
        while parent[r] != r:
            r = parent[r]
        if r == i:
            labels.append(count)
            count += 1
        else:
            labels.append(labels[r])
    return tuple(labels), count


def _separated(labels, points: Iterable[int]) -> bool:
    seen = 0
    for pt in points:
        bit = 1 << labels[pt - 1]
        if seen & bit:
            return False
        seen |= bit
    return True


def _gamma0(*sizes: int) -> tuple[int, ...]:
    out: list[int] = []
    for size in sizes:
        start = len(out)
        out.extend(range(start + 1, start + size))
        out.append(start)
    return tuple(out)


@lru_cache(maxsize=64)
def _times_gamma_inverse0(*sizes: int):
    return _composer0(_inverse0(_gamma0(*sizes)))


def _is_nc0(image0: tuple[int, ...], p: int) -> bool:
    # The complement pi^-1 gamma is conjugate (by pi) to gamma pi^-1, the
    # inverse of pi gamma^-1, so all three have the same cycle count; the
    # last needs no inverse of pi, only the getter cached for the shape.
    n = len(image0)
    if p == n:
        target, sizes = n + 1, (n,)
    elif _through0(image0, p):
        target, sizes = n, (p, n - p)
    else:
        return False
    return _cycle_count0(image0) + _cycle_count0(_times_gamma_inverse0(*sizes)(image0)) == target


def _inverse0(image0: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(image0)
    for i, v in enumerate(image0):
        inv[v] = i
    return tuple(inv)


def _compose0(a0: tuple[int, ...], b0: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([a0[x] for x in b0])  # a list, not a generator: faster on short tuples


def _composer0(b0: tuple[int, ...]):
    # itemgetter with one index returns the item, not a 1-tuple; b0 = (0,) there
    return itemgetter(*b0) if len(b0) > 1 else itemgetter(slice(0, 1))


def _restricter0(pts0: tuple[int, ...], n: int):
    rank = [-1] * n
    for i, pt in enumerate(pts0):
        rank[pt] = i

    def restrict0(image0: tuple[int, ...]) -> tuple[int, ...]:
        out = []
        for pt in pts0:
            j = image0[pt]
            while rank[j] < 0:
                j = image0[j]
            out.append(rank[j])
        return tuple(out)

    return restrict0
