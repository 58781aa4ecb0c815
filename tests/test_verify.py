"""The verification harness: suites, results, and reduced-bound runs.

The full-bound runs live in test_acceptance.py; here every suite is
exercised at small bounds so failures localize quickly.  Tests marked
``extended`` push selected sweeps past the default bounds and only run
with ``pytest -m extended``.
"""

import ast
import concurrent.futures
import itertools
import math
import re
from concurrent.futures import Future

import pytest

from ncfree import cumulants, verify
from ncfree.annular import (
    AnnulusShape,
    Composition,
    PartitionedPermutation,
    enumerate_psnc,
    enumerate_snc,
    fatten,
    is_nc_disc,
    is_snc,
    pp_product,
    tau_of,
)
from ncfree.perm import (
    Permutation,
    SetPartition,
    _compose0,
    _cycle_count0,
    _cycle_labels0,
    _gamma0,
    _inverse0,
    _is_nc0,
    _join0,
    _restricter0,
    _separated,
    orbit_partition,
    partition_join,
)
from ncfree.verify import (
    CheckResult,
    _below_complements,
    _psnc_raw,
    check_annular_order,
    check_conjugation_invariance,
    check_fluctuations,
    check_metric_order,
    check_metric_triangle,
    check_mobius_recurrence,
    check_nc_counts,
    check_order_corollary,
    check_order_kinds,
    check_order_refinement,
    check_order_structure,
    check_restriction_lemma,
    check_separates,
    check_snc_rotation,
    check_tracial_inequality,
    check_tunnel_product,
    run_suite,
    suite_haar,
    suite_ks,
    suite_main_theorem,
    suite_names,
    suite_semicircular_square,
)


def assert_all_pass(results):
    assert results, "empty result list"
    bad = [res.line() for res in results if not res.passed]
    assert not bad, bad


class TestCheckResult:
    def test_pass_line(self):
        res = CheckResult("demo", True, 3, 0.5)
        assert res.line() == "PASS  demo  (3 cases, 0.50s)"

    def test_fail_line_carries_detail(self):
        res = CheckResult("demo", False, 3, 0.5, "first counterexample")
        assert res.line() == "FAIL  demo  (3 cases, 0.50s)  [first counterexample]"

    def test_json_form(self):
        res = CheckResult("demo", True, 3, 0.5)
        assert res.to_json_obj() == {
            "name": "demo",
            "passed": True,
            "cases": 3,
            "seconds": 0.5,
            "detail": "",
        }


class TestSuiteRegistry:
    def test_names(self):
        names = suite_names()
        assert "all" in names
        assert {"main-theorem", "ks", "lemmas", "order"} <= set(names)

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("nonsense")

    def test_bound_below_one_is_refused(self):
        # 0 must not read as "unset", nor run an empty sweep that passes
        for name, bound in (("lemmas", 0), ("order", 0), ("ks", 0), ("ks", -3), ("all", 0)):
            with pytest.raises(ValueError, match="below 1"):
                run_suite(name, bound)
        # the public registry refuses it too, without run_suite in front
        for name, suite in verify.SUITES.items():
            with pytest.raises(ValueError, match="below 1"):
                suite(0)

    def test_all_refuses_a_squares_bound_before_any_suite(self, monkeypatch):
        # It used to run main-theorem, ks and semicircular first.
        calls = []
        for name in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, name, lambda *args, name=name: calls.append(name) or [])
        message = (
            f"semicircular-square runs to a bound of at most {verify.SQUARE_BOUND}: "
            "its cells hold every annular pairing of 2(p+q) points"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_suite("all", verify.SQUARE_BOUND + 1)
        assert calls == []
        assert run_suite("all", verify.SQUARE_BOUND) == []
        assert calls == list(verify.SUITES)

    def test_jobs_below_one_are_refused(self):
        # They used to run serially.
        for name, suite in verify.SUITES.items():
            with pytest.raises(ValueError, match="^jobs must be at least 1, got 0$"):
                suite(1, jobs=0)
        for jobs in (0, -2):
            with pytest.raises(ValueError, match=f"^jobs must be at least 1, got {jobs}$"):
                run_suite("ks", 3, jobs=jobs)

    def test_enumerating_suites_refuse_past_the_ceiling_before_any_cell(self, monkeypatch):
        # They used to ignore NCFREE_MAX_TOTAL and run every cell.
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(verify, "_product_cell", no_cell)
        monkeypatch.setattr(verify, "_haar_cell", no_cell)
        monkeypatch.setenv("NCFREE_MAX_TOTAL", "4")
        for name in ("main-theorem", "ks", "haar"):
            with pytest.raises(ValueError, match="exceeds the ceiling 4 "):
                verify.SUITES[name](5)

    @pytest.mark.parametrize("check, ceiling", [(check_nc_counts, 10), (check_fluctuations, 12)])
    def test_bounds_past_the_ceiling_run_at_the_ceiling(self, check, ceiling):
        above, at = check(ceiling + 1), check(ceiling)
        assert (above.name, above.passed, above.cases) == (at.name, at.passed, at.cases)


class TestReducedBounds:
    def test_main_theorem(self):
        assert_all_pass(run_suite("main-theorem", max_total=4))

    def test_ks(self):
        assert_all_pass(run_suite("ks", max_total=4))

    def test_semicircular(self):
        assert_all_pass(run_suite("semicircular", max_total=6))

    def test_semicircular_square(self):
        assert_all_pass(run_suite("semicircular-square", max_total=3))
        with pytest.raises(ValueError):
            run_suite("semicircular-square", max_total=7)

    def test_haar(self):
        assert_all_pass(run_suite("haar", max_total=4))

    def test_mobius(self):
        assert_all_pass(run_suite("mobius", max_total=6))

    def test_lemmas(self):
        results = run_suite("lemmas", max_total=4)
        assert_all_pass(results)
        # The sweep sizes are part of the contract: a shrunk sweep still passes.
        assert [r.cases for r in results] == [
            4, 170, 170, 617, 1635, 393, 65, 137, 252, 226, 779, 136, 199, 123, 123
        ]

    def test_order(self):
        results = run_suite("order", max_total=4)
        assert_all_pass(results)
        assert [r.cases for r in results] == [2588, 321, 414]

    def test_parallel_matches_serial(self):
        serial = run_suite("lemmas", max_total=3, jobs=1)
        parallel = run_suite("lemmas", max_total=3, jobs=2)
        assert [(r.name, r.passed, r.cases) for r in serial] == [
            (r.name, r.passed, r.cases) for r in parallel
        ]

    def test_parallel_order_matches_serial(self):
        # the pool starts the checks slowest first but reports in table order
        serial = run_suite("order", max_total=4, jobs=1)
        parallel = run_suite("order", max_total=4, jobs=2)
        assert [(r.name, r.passed, r.cases) for r in serial] == [
            (r.name, r.passed, r.cases) for r in parallel
        ]


class TestMainTheoremMutant:
    """The main theorem suite can fail: it catches a filter that leaves the
    inner circle's last group endpoint, point p+q, out of the separation test."""

    def test_endpoint_mutant_fails(self, monkeypatch):
        real = cumulants._separated_sum

        def mutant(model, word, sizes, points):
            if len(sizes) == 2:
                points = [pt for pt in points if pt != sum(sizes)]
            return real(model, word, sizes, points)

        cumulants.clear_caches()
        try:
            want = suite_main_theorem(3)
            monkeypatch.setattr(cumulants, "_separated_sum", mutant)
            got = suite_main_theorem(3)
            at_6 = suite_main_theorem(6)
        finally:
            cumulants.clear_caches()
        assert [(r.name, r.cases) for r in got] == [(r.name, r.cases) for r in want]
        assert [r.passed for r in want] == [True, True, True]
        assert [r.passed for r in got] == [True, False, False]  # shapes (1,1), (1,2), (2,1)
        assert got[1].detail.startswith("parts (1, 1, 1) split 1, formal:")
        assert (len(at_6), sum(not r.passed for r in at_6)) == (15, 14)


class TestModelCounterexamples:
    """A model check with its computed side wrong on one case fails, keeps
    the case count of the real run, and names that case."""

    def test_nc_counts(self, monkeypatch):
        want = check_nc_counts(5)
        real = verify.enumerate_nc
        monkeypatch.setattr(verify, "enumerate_nc", lambda n: real(n)[: -1 if n == 3 else None])
        got = check_nc_counts(5)
        assert (got.passed, got.cases) == (False, want.cases)
        assert got.detail == "n=3: enumerated 4, Catalan gives 5"

    def test_haar_cell(self, monkeypatch):
        want = verify._haar_cell((2, 2))
        real, bad = verify.haar_kappa_pq, (1, -1, 1, -1)
        monkeypatch.setattr(
            verify, "haar_kappa_pq", lambda p, q, signs: real(p, q, signs) + (signs == bad)
        )
        got = verify._haar_cell((2, 2))
        assert (got.passed, got.cases) == (False, want.cases)
        assert got.detail == "signs (1, -1, 1, -1): cumulant 2, predicted 1"

    def test_square_cell_count(self, monkeypatch):
        want = verify._square_cell((1, 2))
        real = verify.semicircular_square_kappa
        monkeypatch.setattr(
            verify, "semicircular_square_kappa", lambda p, q: real(p, q) + ((p, q) == (1, 2))
        )
        got = verify._square_cell((1, 2))
        assert (got.name, got.passed, got.cases) == (want.name, False, want.cases)
        assert got.name.endswith("shape (1,2)")
        assert got.detail == "separated count 3, binomial sum 2, closed form 2"

    def test_square_cell_general_machinery(self, monkeypatch):
        want = verify._square_cell((1, 2))
        real = verify.main_product_cumulant
        monkeypatch.setattr(
            verify, "main_product_cumulant", lambda model, word, comp: real(model, word, comp) + 1
        )
        got = verify._square_cell((1, 2))
        assert (got.name, got.passed, got.cases) == (want.name, False, want.cases)
        assert got.detail == "general machinery gives 3/2, pairing count gives 2"

    def test_fluctuations_disagree(self, monkeypatch):
        want = check_fluctuations(5)
        real = verify.semicircular_phi2_closed
        monkeypatch.setattr(
            verify, "semicircular_phi2_closed", lambda p, q: real(p, q) + ((p, q) == (2, 2))
        )
        got = check_fluctuations(5)
        assert (got.passed, got.cases) == (False, want.cases)
        assert got.detail == "(p,q)=(2,2): sum 2, closed 3, pairings 2"

    def test_fluctuations_odd_total(self, monkeypatch):
        # all three sides agree, but on a value an odd total cannot have
        want = check_fluctuations(5)
        for name in ("semicircular_phi2", "semicircular_phi2_closed", "count_snc_pairings"):
            real = getattr(verify, name)
            monkeypatch.setattr(
                verify, name, lambda p, q, real=real: 7 if (p, q) == (1, 2) else real(p, q)
            )
        got = check_fluctuations(5)
        assert (got.passed, got.cases) == (False, want.cases)
        assert got.detail == "(p,q)=(1,2): odd total but value 7"

    def test_mobius_recurrence(self, monkeypatch):
        want = check_mobius_recurrence(5)
        real = verify.mobius_recurrence_residual
        monkeypatch.setattr(
            verify, "mobius_recurrence_residual", lambda p, q: real(p, q) + ((p, q) == (2, 3))
        )
        got = check_mobius_recurrence(5)
        assert (got.passed, got.cases) == (False, want.cases)
        assert got.detail == "(p,q)=(2,3): residual 1"


class TestPoolSize:
    """A pool never has more workers than cells: under ``fork`` every worker starts at once."""

    def test_workers_are_capped_at_the_cell_count(self, monkeypatch):
        sizes = []

        class InlineExecutor:
            # records the requested size and runs each task at submission
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        assert len(run_suite("lemmas", max_total=2, jobs=500)) == 15
        assert len(run_suite("order", max_total=2, jobs=2)) == 3
        assert len(suite_main_theorem(3, jobs=100)) == 3
        # one cell or none runs in this process, with no pool at all
        assert suite_main_theorem(2, jobs=8)[0].passed
        assert suite_main_theorem(1, jobs=8) == []
        assert sizes == [15, 2, 3]


def _metric_pairs(p: int, q: int) -> set[tuple[int, int]]:
    """The pairs (i, j) of the shape's family with pi_i on a geodesic below
    sigma_j^-1 gamma, from a scan of all pairs by cycle counts."""
    n = p + q
    g0 = _gamma0(p, q)
    images = [tuple(x - 1 for x in s.image) for s in enumerate_snc(AnnulusShape(p, q))]
    invs = [_inverse0(img) for img in images]
    counts = [_cycle_count0(img) for img in images]
    pairs = set()
    for j, invj in enumerate(invs):
        right = _compose0(invj, g0)
        for i, (invi, ci) in enumerate(zip(invs, counts)):
            if ci + _cycle_count0(_compose0(invi, right)) == n + _cycle_count0(right):
                pairs.add((i, j))
    return pairs


def _assert_annular_order_pairs(max_total: int, totals) -> None:
    cases = 0
    for total in range(2, max_total + 1):
        for p in range(1, total):
            want = _metric_pairs(p, total - p)
            cases += len(want)
            if total in totals:
                family = enumerate_snc(AnnulusShape(p, total - p))
                below = _below_complements(family, _gamma0(p, total - p), {})
                assert {(i, j) for j, row in enumerate(below) for i in row} == want
    got = check_annular_order(max_total)
    assert (got.passed, got.cases) == (True, cases)


class TestAnnularOrderPairs:
    """``check_annular_order`` finds the pairs meeting its hypothesis through
    ``_below_images0``, which ``check_order_refinement`` ties to the metric
    condition only below annular and disc non-crossing permutations up to
    total 6; the scan of all pairs it replaced must find the same pairs."""

    def test_every_shape_up_to_total_6(self):
        _assert_annular_order_pairs(6, range(2, 7))

    @pytest.mark.extended
    def test_total_7(self):
        _assert_annular_order_pairs(7, (7,))


class TestOrderKinds:
    # the strict relations of each mix of disc and tunnel elements
    MIXES = [("disc", "disc"), ("disc", "tunnel"), ("tunnel", "tunnel")]

    def test_small_bounds_pass(self):
        # below total 3 only disc-below-tunnel occurs: once, at total 2
        for bound, cases in ((1, 0), (2, 1), (3, 25), (4, 321)):
            got = check_order_kinds(bound)
            assert (got.passed, got.cases) == (True, cases), got.line()

    @pytest.mark.parametrize("mix", MIXES)
    def test_a_mix_that_never_occurs_fails_from_total_3(self, monkeypatch, mix):
        order_table = verify._order_table

        def mutant(shape):
            els, below = order_table(shape)
            return els, [
                mask & ~sum(1 << i for i in range(len(els)) if i != j and (els[i].kind, els[j].kind) == mix)
                for j, mask in enumerate(below)
            ]

        monkeypatch.setattr(verify, "_order_table", mutant)
        got = check_order_kinds(3)
        assert not got.passed
        assert got.detail == f"expected strict relations never realized: {[mix]}"


class TestCountTable:
    def test_counts_are_the_cycle_counts_of_the_objects(self):
        # the sweeps read cycle counts from this table, not from the kernel
        for n in range(1, 7):
            table = verify._count_table(n)
            assert len(table) == math.factorial(n)
            for img, count in table.items():
                assert count == Permutation(x + 1 for x in img).cycle_count, img


class TestRestrictionVerdicts:
    """``check_restriction_lemma`` reuses verdicts within one call."""

    def test_memo_reports_the_plain_scans_first_counterexample(self, monkeypatch):
        member = verify._restricted_member0

        def mutant(img, k1):
            # (0,2,1) first meets the check with k1 = 2: a memo keyed on
            # the image alone would answer this key from that verdict
            return (img, k1) != ((0, 2, 1), 1) and member(img, k1)

        monkeypatch.setattr(verify, "_restricted_member0", mutant)
        got = check_restriction_lemma(5)
        cases, detail = 0, None
        for n in range(2, 6):
            for p in range(1, n):
                shape = AnnulusShape(p, n - p)
                family = [tuple(x - 1 for x in s.image) for s in enumerate_snc(shape)]
                for k in range(1, n + 1):
                    for pts in itertools.combinations(range(n), k):
                        k1 = sum(pt < p for pt in pts)
                        restrict0 = _restricter0(pts, n)
                        for s0 in family:
                            cases += 1
                            rimg = restrict0(s0)
                            if not mutant(rimg, k1) and detail is None:
                                sigma = Permutation(x + 1 for x in s0)
                                restricted = Permutation(x + 1 for x in rimg)
                                detail = (
                                    f"shape ({p},{n - p}), sigma={sigma!r}, "
                                    f"N={tuple(x + 1 for x in pts)}: restriction "
                                    f"{restricted!r} is not non-crossing for shape ({k1},{k - k1})"
                                )
        assert detail is not None
        assert (got.passed, got.cases, got.detail) == (False, cases, detail)


def _glued_by_objects(sigma: Permutation, gp: Permutation) -> tuple:
    """The tunnel product on objects: pp_product of the disc elements of
    sigma and sigma^-1 gp, and the glued element (join(sigma, gp), gp)."""
    disc = PartitionedPermutation.disc
    product = pp_product(disc(sigma), disc(sigma.inverse() * gp))
    glued = PartitionedPermutation(partition_join(orbit_partition(sigma), orbit_partition(gp)), gp)
    return product, glued


class TestTunnelProduct:
    """``check_tunnel_product`` decides on 0-based images what ``pp_product``
    decides on partitioned permutations."""

    def test_every_bound_5_hypothesis_by_objects(self):
        hypotheses = list(verify._tunnel_hypotheses(5))
        assert len(hypotheses) == 1031
        for _shape, s0, _pi0, gp0 in hypotheses:
            sigma, gp = Permutation(x + 1 for x in s0), Permutation(x + 1 for x in gp0)
            product, glued = _glued_by_objects(sigma, gp)
            assert product == glued
        got = check_tunnel_product(5)
        assert (got.passed, got.cases) == (True, 1031)

    def test_kernels_agree_on_every_pair_of_permutations(self, monkeypatch):
        # Off the hypothesis the product can be undefined: the check, fed one
        # pair at a time, must fail exactly where pp_product misses.
        seen = set()
        for n in range(2, 5):
            shape, g0 = AnnulusShape(1, n - 1), _gamma0(1, n - 1)
            perms = list(itertools.permutations(range(n)))
            for s0, gp0 in itertools.product(perms, perms):
                pi0 = _compose0(_inverse0(gp0), g0)  # gp = gamma pi^-1
                monkeypatch.setattr(verify, "_tunnel_hypotheses", lambda _m: [(shape, s0, pi0, gp0)])
                got = check_tunnel_product(n)
                sigma, gp = Permutation(x + 1 for x in s0), Permutation(x + 1 for x in gp0)
                product, glued = _glued_by_objects(sigma, gp)
                assert got.passed == (product == glued)
                assert got.detail.endswith("product gave None") == (product is None)
                seen.add(got.passed)
        assert seen == {False, True}


def _perm(text: str) -> Permutation:
    return Permutation.parse(re.fullmatch(r"Permutation\[(.*)\]", text)[1])


def _shape(detail: str) -> AnnulusShape:
    p, q = re.search(r"AnnulusShape\(p=(\d+), q=(\d+)\)", detail).groups()
    return AnnulusShape(int(p), int(q))


def _along(sigma: Permutation, cycle) -> tuple[int, ...]:
    """The first-return map of ``sigma`` on ``cycle``, 0-based by position in it."""
    pos = {x: i for i, x in enumerate(cycle)}
    out = []
    for x in cycle:
        y = sigma(x)
        while y not in pos:
            y = sigma(y)
        out.append(pos[y])
    return tuple(out)


class TestCounterexamples:
    """A check run with one kernel broken fails, keeps its case count, and
    names a case on which the statement really fails when the broken
    kernel stands in for the real one."""

    def test_tunnel_product_names_an_undefined_product(self, monkeypatch):
        def mutant(n, pairs):
            # every pair touching the last point dropped: that point's block splits off
            return _join0(n, [(a, b) for a, b in pairs if a != n - 1 and b != n - 1])

        monkeypatch.setattr(verify, "_join0", mutant)
        got = check_tunnel_product(5)
        assert (got.passed, got.cases) == (False, 1031)
        shape = _shape(got.detail)
        named = re.search(r"sigma=(Permutation\[[^\]]*\]), pi=(Permutation\[[^\]]*\])", got.detail)
        sigma, pi = _perm(named[1]), _perm(named[2])
        assert (shape.p, shape.q) == (1, 1)
        assert (sigma, pi) == (Permutation.parse("(1,2)"), Permutation.parse("(1)(2)"))
        assert got.detail.endswith("product gave None")
        # with the real kernels the product is defined and glued
        product, glued = _glued_by_objects(sigma, shape.gamma() * pi.inverse())
        assert product is not None and product == glued

    def test_count_tables_carry_a_bad_cycle_count(self, monkeypatch):
        # One transposition gets a cycle too many.  The sweeps build their
        # count tables with the kernel they find in verify, so every check
        # that reads one fails, and the named cases fail under the mutant.
        def mutant(image0):
            n = len(image0)
            return _cycle_count0(image0) + (n > 2 and image0 == (1, 0, *range(2, n)))

        verify._sn_below.cache_clear()
        try:
            monkeypatch.setattr(verify, "_cycle_count0", mutant)
            conjugation = check_conjugation_invariance(4)
            tracial = check_tracial_inequality(4)
            annular = check_annular_order(4)
            tunnel = check_tunnel_product(4)
            trio = (check_metric_triangle, check_metric_order, check_order_refinement)
            metric = [check(4) for check in trio]
        finally:
            verify._sn_below.cache_clear()
        assert (conjugation.passed, conjugation.cases) == (False, 617)
        assert conjugation.detail == (
            "n=3: conjugating Permutation[(1,2)(3)] by Permutation[(1)(2,3)] changed the length"
        )
        p, g = Permutation.parse("(1,2)(3)"), Permutation.parse("(1)(2,3)")
        conjugate = g * p * g.inverse()
        assert mutant((1, 0, 2)) != mutant(tuple(x - 1 for x in conjugate.image))
        assert (tracial.passed, tracial.cases) == (False, 226)
        assert (annular.passed, annular.cases) == (False, 199)
        assert annular.detail.startswith("shape (1,2): pi=Permutation[(1,2)(3)] below ")
        assert (tunnel.passed, tunnel.cases) == (False, 102)
        assert [r.passed for r in metric] == [False, False, False]

    def test_snc_rotation_reads_the_disc_verdicts_of_the_kernel(self, monkeypatch):
        # The full cycle of [3] reads as crossing on the disc, so no rotation
        # of (1,2,3) on the annulus (1,2) reaches a disc member.
        def mutant(image0, p):
            return not (p == 3 and image0 == (1, 2, 0)) and _is_nc0(image0, p)

        monkeypatch.setattr(verify, "_is_nc0", mutant)
        got = check_snc_rotation(4)
        assert (got.passed, got.cases) == (False, 65)
        assert got.detail == (
            "shape (1,2): Permutation[(1,2,3)] has membership True but rotation criterion False"
        )

    def test_separates_names_sigma_whose_join_misses(self, monkeypatch):
        def mutant(labels, points):
            # two complement cycles on a fattened cycle always read as separated
            return _separated(labels, points) or len(set(labels)) == 2

        cases = check_separates(5).cases
        monkeypatch.setattr(verify, "_separated", mutant)
        got = check_separates(5)
        assert (got.passed, got.cases) == (False, cases)
        found = re.fullmatch(
            r"parts (\(.*\)), pi=(.*), sigma=(.*): join test False, separation True", got.detail
        )
        comp = Composition(ast.literal_eval(found[1]))
        pi, sigma = _perm(found[2]), _perm(found[3])
        fat = fatten(pi, comp)
        z = sigma.inverse() * fat
        assert is_nc_disc(pi) and sigma.metric_length + z.metric_length == fat.metric_length
        assert partition_join(orbit_partition(sigma), orbit_partition(tau_of(comp))) != orbit_partition(fat)
        zlab = orbit_partition(z).labels
        assert not _separated(zlab, comp.boundary_points)
        for c in fat.cycles:
            ends = [i + 1 for i, x in enumerate(c) if x in comp.boundary_points]
            assert mutant([zlab[x - 1] for x in c], ends), c

    @pytest.mark.parametrize("kind", ["disc", "annular"])
    def test_order_corollary_names_a_crossing_restriction(self, monkeypatch, kind):
        def mutant(image0, p):
            # disc: the swap of two points reads as crossing; annular: every
            # image on two circles reads as crossing
            if kind == "disc":
                return _is_nc0(image0, p) and not (p == len(image0) == 2 and image0 == (1, 0))
            return p == len(image0) and _is_nc0(image0, p)

        cases = check_order_corollary(5).cases
        monkeypatch.setattr(verify, "_is_nc0", mutant)
        got = check_order_corollary(5)
        assert (got.passed, got.cases) == (False, cases)
        shape = _shape(got.detail)
        named = re.search(r"sigma=(Permutation\[[^\]]*\]), pi=(Permutation\[[^\]]*\])", got.detail)
        sigma, pi = _perm(named[1]), _perm(named[2])
        p, gamma = shape.p, shape.gamma()
        gp = gamma * pi.inverse()
        # the tunnel hypothesis: sigma annular non-crossing, pi a disc pair
        # on a geodesic below sigma^-1 gamma
        right = sigma.inverse() * gamma
        assert is_snc(sigma, shape)
        assert all((x <= p) == (pi(x) <= p) for x in range(1, shape.total + 1))
        assert pi.metric_length + (right * pi.inverse()).metric_length == right.metric_length
        through = [c for c in sigma.cycles if len({x <= p for x in c}) == 2]
        met = [c for c in gp.cycles if any(x in c for t in through for x in t)]
        if kind == "disc":
            cycle = ast.literal_eval(re.search(r"cycle (\(.*\))$", got.detail)[1])
            assert cycle in gp.cycles and cycle not in met
            assert not mutant(_along(sigma, cycle), len(cycle))
        else:
            assert got.detail.endswith("connecting cycles not annular non-crossing on the union")
            outer, inner = sorted(met, key=lambda c: c[0] > p)
            points = {x for t in through for x in t}
            connecting = Permutation([sigma(x) if x in points else x for x in range(1, shape.total + 1)])
            assert not mutant(_along(connecting, outer + inner), len(outer))

    @pytest.mark.parametrize("kind", ["straddle", "count", "sides"])
    def test_order_corollary_names_a_mislabelled_complement(self, monkeypatch, kind):
        # The complement's cycle labels miscomputed.  straddle: its last point
        # moves to the cycle labelled 1; count: every point labelled 0; sides:
        # every label shifted by one, so a label names the next cycle.
        def mutant(image0):
            lab, c = _cycle_labels0(image0)
            if kind == "straddle":
                if c > 1 and lab.count(lab[-1]) > 1:
                    lab[-1] = 1
                return lab, c
            if kind == "count":
                return [0] * len(lab), 1
            return [(x + 1) % c for x in lab], c

        cases = check_order_corollary(5).cases
        monkeypatch.setattr(verify, "_cycle_labels0", mutant)
        got = check_order_corollary(5)
        assert (got.passed, got.cases) == (False, cases)
        shape = _shape(got.detail)
        named = re.search(r"sigma=(Permutation\[[^\]]*\]), pi=(Permutation\[[^\]]*\])", got.detail)
        sigma, pi = _perm(named[1]), _perm(named[2])
        p = shape.p
        gp = shape.gamma() * pi.inverse()
        gcycles = sorted(gp.cycles, key=min)
        lab = mutant(tuple(x - 1 for x in gp.image))[0]
        through = [c for c in sigma.cycles if len({x <= p for x in c}) == 2]
        met = {g for g in gcycles for t in through if set(g) & set(t)}
        # with the real labels the connecting cycles meet one cycle per circle
        assert sorted(g[0] <= p for g in met) == [False, True]
        labels = {lab[x - 1] for t in through for x in t}
        if kind == "straddle":
            cycle = ast.literal_eval(re.search(r"local cycle (\(.*\)) straddles", got.detail)[1])
            assert cycle in sigma.cycles and len({x <= p for x in cycle}) == 1
            assert any(set(cycle) <= set(g) for g in gcycles)
            assert len({lab[x - 1] for x in cycle}) > 1
        elif kind == "count":
            assert got.detail.endswith(f"connecting cycles meet {len(labels)} complement cycles")
            assert len(labels) != 2
        else:
            assert got.detail.endswith("the two met complement cycles are not one per circle")
            assert len(labels) == 2 and len({gcycles[t][0] <= p for t in labels}) == 1

    def test_order_structure_names_a_coarser_witness(self, monkeypatch):
        # _join0 counts every pair of distinct points as a union, joined or
        # not, so a witness coarser than the cycles of pi^-1 sigma seems to
        # add lengths.  Such a witness is a case next to the cycles' own, so
        # the mutant adds cases: none reaches this problem keeping the count.
        def mutant(n, pairs):
            pairs = list(pairs)
            return _join0(n, pairs)[0], n - sum(a != b for a, b in pairs)

        cases = check_order_structure(4).cases
        monkeypatch.setattr(verify, "_join0", mutant)
        got = check_order_structure(4)
        assert got.passed is False and got.cases > cases
        shape = _shape(got.detail)
        by_repr = {repr(el): el for el in enumerate_psnc(shape)}
        found = re.fullmatch(r"shape .*, a=(.*), b=(.*): (.*)", got.detail)
        a, b = by_repr[found[1]], by_repr[found[2]]
        assert found[3] == "a coarser witness partition also multiplies"
        w = a.perm.inverse() * b.perm
        assert pp_product(a, PartitionedPermutation.disc(w)) == b
        # two cycles of w in one block of a: merging them leaves the join
        # with a's partition alone, but the lengths no longer add
        block = next(blk for blk in a.partition.blocks if sum(c[0] in blk for c in w.cycles) > 1)
        first, second = [c for c in w.cycles if c[0] in block][:2]
        rest = [c for c in w.cycles if c not in (first, second)]
        coarser = SetPartition(w.size, [first + second, *rest])
        assert partition_join(a.partition, coarser) == b.partition
        witness = PartitionedPermutation(coarser, w)
        assert a.length + witness.length != b.length

    @pytest.mark.parametrize("kind", ["join", "left"])
    def test_order_structure_names_a_witnessed_product(self, monkeypatch, kind):
        # sigma pi^-1 miscomputed.  join: reflected, x -> n - 1 - x, so the
        # lengths still add but its join with V can miss U.  left: as sigma,
        # whose join with V is U, but multiplying by it misses.
        def mutant(a0, b0):
            if kind == "left":
                return a0
            n, f = len(a0), _compose0(a0, b0)
            return tuple(n - 1 - f[n - 1 - x] for x in range(n))

        cases = check_order_structure(4).cases
        monkeypatch.setattr(verify, "_compose0", mutant)
        got = check_order_structure(4)
        assert (got.passed, got.cases) == (False, cases)
        shape = _shape(got.detail)
        by_repr = {repr(el): el for el in enumerate_psnc(shape)}
        found = re.fullmatch(r"shape .*, a=(.*), b=(.*): (.*)", got.detail)
        a, b = by_repr[found[1]], by_repr[found[2]]
        w = a.perm.inverse() * b.perm
        assert pp_product(a, PartitionedPermutation.disc(w)) == b
        image0 = [tuple(x - 1 for x in perm.image) for perm in (b.perm, a.perm.inverse())]
        flip = Permutation([x + 1 for x in mutant(*image0)])
        if kind == "join":
            assert found[3] == "join expressions disagree with the product partition"
            assert partition_join(a.partition, orbit_partition(flip)) != b.partition
        else:
            assert found[3] == "left multiplication by sigma pi^-1 misses"
            assert partition_join(a.partition, orbit_partition(flip)) == b.partition
            assert pp_product(PartitionedPermutation.disc(flip), a) != b


class TestRawRecords:
    def test_block_labels_are_the_join_of_the_block_pairs(self):
        for total in range(2, 7):
            for p in range(1, total):
                _els, raw = _psnc_raw(AnnulusShape(p, total - p))
                for _img, _inv, plab, pairs, _len in raw:
                    assert plab == _join0(total, pairs)[0]


@pytest.mark.extended
class TestExtendedBounds:
    def test_main_theorem_total_9(self):
        assert_all_pass(suite_main_theorem(9, jobs=4))

    def test_ks_total_9(self):
        assert_all_pass(suite_ks(9, jobs=2))

    def test_haar_total_9(self):
        results = suite_haar(9, jobs=2)
        assert_all_pass(results)
        assert sum(r.cases for r in results) == 3076 + 8 * 2**9  # every sign pattern of the 8 shapes of total 9

    def test_fluctuations_total_12(self):
        assert_all_pass([check_fluctuations(12)])

    def test_mobius_total_9(self):
        assert_all_pass([check_mobius_recurrence(9)])

    def test_semicircular_square_bound_5(self):
        assert_all_pass(suite_semicircular_square(5))

    def test_count_table_checks_at_their_ceilings(self):
        checks = ((check_conjugation_invariance, 8), (check_tracial_inequality, 8), (check_snc_rotation, 7))
        results = [check(bound) for check, bound in checks]
        assert_all_pass(results)
        assert [r.cases for r in results] == [107177, 2248355, 31733]

    def test_tunnel_lemmas_total_7(self):
        results = [check_tunnel_product(7), check_order_corollary(7)]
        assert_all_pass(results)
        assert [r.cases for r in results] == [61750, 61750]
