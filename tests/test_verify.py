"""The verification harness: suites, results, and reduced-bound runs.

The full-bound runs live in test_acceptance.py; here every suite is
exercised at small bounds so failures localize quickly.  Tests marked
``extended`` push selected sweeps past the default bounds and only run
with ``pytest -m extended``.
"""

import itertools
from concurrent.futures import Future

import pytest

from ncfree import verify
from ncfree.annular import AnnulusShape, enumerate_snc
from ncfree.perm import (
    Permutation,
    _compose0,
    _cycle_count0,
    _gamma0,
    _inverse0,
    _join0,
    _restricter0,
)
from ncfree.verify import (
    CheckResult,
    _below_complements,
    _psnc_raw,
    check_annular_order,
    check_fluctuations,
    check_mobius_recurrence,
    check_nc_counts,
    check_restriction_lemma,
    run_suite,
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

        monkeypatch.setattr(verify, "ProcessPoolExecutor", InlineExecutor)
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

    def test_fluctuations_total_12(self):
        assert_all_pass([check_fluctuations(12)])

    def test_mobius_total_9(self):
        assert_all_pass([check_mobius_recurrence(9)])

    def test_semicircular_square_bound_5(self):
        assert_all_pass(suite_semicircular_square(5))
