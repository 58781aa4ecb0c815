"""The three workloads: what one pass runs, and the oracle each item meets.

Every workload is exhaustive and exact.  The seed only permutes the order
in which shapes, cells and cases are visited, so every seed computes the
same values; ``test_bench.py`` checks that.

Each oracle is independent of the computation it checks: family sizes
come from closed forms, serialised bytes from digests frozen in
``frozen.json``, product formula values from the library's direct
recursion and the Haar prediction, lemma checks from their frozen case
counts.

Cache state at the start of a pass (every pass runs in a fresh process):

- ``enumerate-cold``: every memo is empty, as in a fresh CLI process.
- ``product-formula``: the enumeration memos (nc up to total 6, psnc and
  snc of every shape up to total 6) are filled in set-up; the cumulant
  memos and the complement caches are empty.
- ``lemma-sweep``: every memo is empty, ``verify._sn_below`` included.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from ncfree import annular, cumulants, spaces, verify
from ncfree.annular import AnnulusShape, Composition

from config import ENUM_MAX_TOTAL, HAAR_MAX_TOTAL, KS_MAX_TOTAL, LEMMA_BOUND, LEMMA_CHECKS, MAIN_MAX_TOTAL

FROZEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "frozen.json")


@dataclass
class Item:
    """One top-level public call and the oracle its result must meet.

    ``weight`` is how many items the call completes: serialised elements
    for an enumeration, checked cases otherwise.  ``check`` returns a
    canonical record of the result, or raises ``Mismatch``.
    """

    key: str
    label: str
    weight: int
    call: Callable[[], object]
    check: Callable[[object], str]


class Mismatch(Exception):
    """The result disagreed with its oracle."""


def load_frozen() -> dict:
    with open(FROZEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# -- independent oracles -----------------------------------------------


def catalan_count(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def snc_closed_form(p: int, q: int) -> int:
    """Mingo-Nica: |S_NC(p,q)| = 2pq/(p+q) C(2p-1,p) C(2q-1,q)."""
    top = 2 * p * q * comb(2 * p - 1, p) * comb(2 * q - 1, q)
    if top % (p + q):
        raise ValueError(f"closed form is not integral at ({p},{q})")
    return top // (p + q)


def psnc_closed_form(p: int, q: int) -> int:
    """Discs plus tunnels; the tunnels glue one block per circle, and the
    blocks of all non-crossing partitions of [n] number C(2n-1, n)."""
    return snc_closed_form(p, q) + comb(2 * p - 1, p) * comb(2 * q - 1, q)


def haar_prediction(p: int, q: int, signs) -> int:
    """kappa_{p,q} of a Haar unitary word: zero unless both circles have
    even length and alternate in sign, then (-1)^((p+q)/2) |S_NC(p/2,q/2)|."""
    if p % 2 or q % 2:
        return 0
    if any(signs[i] + signs[i + 1] for i in range(p - 1)):
        return 0
    if any(signs[i] + signs[i + 1] for i in range(p, p + q - 1)):
        return 0
    return (-1) ** ((p + q) // 2) * snc_closed_form(p // 2, q // 2)


def canonical(value) -> str:
    """Order-independent text of an exact scalar."""
    if isinstance(value, spaces.CumulantPolynomial):
        return repr(value.sorted_terms())
    if isinstance(value, (int, Fraction)):
        return repr(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def compositions(total: int) -> list[tuple[int, ...]]:
    out = []
    for cuts in itertools.product((False, True), repeat=total - 1):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return out


def shapes(max_total: int) -> list[tuple[int, int]]:
    return [(p, t - p) for t in range(2, max_total + 1) for p in range(1, t)]


# -- enumerate-cold ----------------------------------------------------


class EnumerateCold:
    """``ncfree enumerate`` for every family and shape up to a total.

    Each call is one CLI invocation, run in-process through click's test
    runner, so parsing, enumeration and JSON Lines output are all timed.
    """

    name = "enumerate-cold"

    def __init__(self, tracer=None):
        from click.testing import CliRunner

        from ncfree import cli

        self.tracer = tracer
        self.cli = cli
        self.runner = CliRunner()
        self.digests = load_frozen()["enumerate_sha256"]

    def setup(self) -> None:
        """Nothing to warm: a CLI process starts with empty memos."""

    def items(self, rng: random.Random) -> list[Item]:
        """Disc sizes, then annulus shapes, each group in seeded order; a
        shape's ``snc`` comes before its ``psnc``.

        The fixed group order keeps every command paying for the same
        enumeration in every pass: ``psnc`` reuses the memos that ``nc``
        and ``snc`` fill, so a shuffled kind order would move the S_n
        filter from call to call and the latency percentiles with it.
        """
        discs = list(range(1, ENUM_MAX_TOTAL + 1))
        annuli = shapes(ENUM_MAX_TOTAL)
        rng.shuffle(discs)
        rng.shuffle(annuli)
        out = [self._item("nc", (n,), catalan_count(n)) for n in discs]
        for p, q in annuli:
            out.append(self._item("snc", (p, q), snc_closed_form(p, q)))
            out.append(self._item("psnc", (p, q), psnc_closed_form(p, q)))
        return out

    def _item(self, kind: str, sizes: tuple[int, ...], count: int) -> Item:
        key = f"{kind} {' '.join(map(str, sizes))}"
        argv = ["enumerate", kind, *map(str, sizes)]

        def call():
            if self.tracer is None:
                return self.runner.invoke(self.cli.main, argv)
            with self.tracer.span("cli.enumerate"):
                result = self.runner.invoke(self.cli.main, argv)
            self.tracer.counts["cli.bytes"] += len(result.stdout_bytes)
            return result

        def check(result) -> str:
            if result.exit_code != 0:
                raise Mismatch(f"exit code {result.exit_code}: {result.output[-200:]!r}")
            out = result.stdout_bytes
            lines = out.splitlines()
            got = json.loads(lines[-1])["count"]
            if got != count or len(lines) != count + 1:
                raise Mismatch(f"count {got} in {len(lines) - 1} lines, closed form gives {count}")
            digest = hashlib.sha256(out).hexdigest()
            if digest != self.digests[key]:
                raise Mismatch(f"output digest {digest} differs from the frozen one")
            return f"count={got} sha256={digest}"

        return Item(key, kind, count, call, check)


# -- product-formula ---------------------------------------------------


def _model_cases(n: int):
    alt = tuple(1 if i % 2 == 0 else -1 for i in range(n))
    return (
        ("semicircular", spaces.semicircular_space(), spaces.x_word(n)),
        ("haar alternating", spaces.haar_unitary_space(), spaces.u_word(alt)),
        ("haar constant", spaces.haar_unitary_space(), spaces.u_word((1,) * n)),
        ("formal", spaces.formal_moment_space(), spaces.a_word(n)),
    )


def _compare(got, want) -> str:
    if got != want:
        raise Mismatch(f"filtered sum {got!r}, direct recursion {want!r}")
    return canonical(got)


class ProductFormula:
    """Criteria 3, 4 and 7 of the acceptance gate at reduced totals.

    Labels name the model of each case (``semicircular``, ``haar`` or
    ``formal``); the integer models and the polynomial model use the
    cumulant layer differently, so their times are reported apart.
    """

    name = "product-formula"

    def __init__(self, tracer=None):
        self.tracer = tracer

    def setup(self) -> None:
        """Fill the enumeration memos, then empty the cumulant memos."""
        top = max(MAIN_MAX_TOTAL, KS_MAX_TOTAL, HAAR_MAX_TOTAL)
        for n in range(1, top + 1):
            annular.enumerate_nc(n)
        for p, q in shapes(top):
            annular.enumerate_psnc(AnnulusShape(p, q))
        cumulants.clear_caches()
        if self.tracer is not None:
            self.tracer.forget_keys(("cumulants.kappa_n", "cumulants.kappa_pq", "cumulants.kappa_vp"))

    def items(self, rng: random.Random) -> list[Item]:
        out = []
        for p, q in shapes(MAIN_MAX_TOTAL):
            for outer in compositions(p):
                for inner in compositions(q):
                    comp = Composition(outer + inner, split=len(outer))
                    for label, model, word in _model_cases(p + q):
                        out.append(self._formula_item("main", comp, label, model, word))
        for n in range(1, KS_MAX_TOTAL + 1):
            for parts in compositions(n):
                for label, model, word in _model_cases(n):
                    out.append(self._formula_item("ks", Composition(parts), label, model, word))
        for p, q in shapes(HAAR_MAX_TOTAL):
            for signs in itertools.product((1, -1), repeat=p + q):
                out.append(self._haar_item(p, q, signs))
        rng.shuffle(out)
        return out

    def _formula_item(self, kind, comp, label, model, word) -> Item:
        attr = f"{kind}_product_cumulant"

        def call():
            # Looked up at call time, so a traced pass reaches the wrappers.
            got = getattr(cumulants, attr)(model, word, comp)
            return got, cumulants.oracle_product_cumulant(model, word, comp)

        key = f"{kind} {comp.parts} split={comp.split} {label}"
        return Item(key, label.split()[0], 1, call, lambda pair: _compare(*pair))

    def _haar_item(self, p, q, signs) -> Item:
        want = haar_prediction(p, q, signs)

        def check(got) -> str:
            if got != want:
                raise Mismatch(f"cumulant {got!r}, predicted {want}")
            return canonical(got)

        return Item(
            f"haar ({p},{q}) {signs}",
            "haar",
            1,
            lambda: cumulants.haar_kappa_pq(p, q, signs),
            check,
        )


# -- lemma-sweep -------------------------------------------------------


class LemmaSweep:
    """``suite_lemmas`` at a common bound, one call per check."""

    name = "lemma-sweep"

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.cases = load_frozen()["lemma_cases"]

    def setup(self) -> None:
        """Nothing to warm."""

    def items(self, rng: random.Random) -> list[Item]:
        out = [self._item(name, min(default, LEMMA_BOUND)) for name, default in LEMMA_CHECKS]
        rng.shuffle(out)
        return out

    def _item(self, name: str, bound: int) -> Item:
        want = self.cases[name]

        def call():
            check = getattr(verify, f"check_{name}")
            if self.tracer is None:
                return check(bound)
            with self.tracer.span(f"verify.{name}"):
                return check(bound)

        def check(result) -> str:
            if not result.passed:
                raise Mismatch(f"check failed: {result.detail}")
            if result.cases != want:
                raise Mismatch(f"{result.cases} cases, frozen count is {want}")
            return f"passed cases={result.cases}"

        return Item(name, name, want, call, check)


WORKLOADS = {cls.name: cls for cls in (EnumerateCold, ProductFormula, LemmaSweep)}
