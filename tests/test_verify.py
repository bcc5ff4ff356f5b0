"""Behavior of the self-check harness: determinism, coverage, corruption."""

import random
import re

import pytest

import cend.conformal
import cend.operators
from cend.conformal import ConformalElement, check_associativity, check_lie
from cend.operators import verify_composition
from cend.sampling import rand_conformal
from cend.serialize import canonical_dumps
from cend.verify import SUITES, verify_suite

_FAST = {"sizes": [1, 2], "bounds": {"deg": 2, "n": 2, "cases": 2}}


class TestReportShape:
    def test_full_default_run_is_clean(self):
        report = verify_suite(seed=42)
        assert report["ok"] is True
        assert report["failures"] == 0
        assert report["cases"] > 0
        assert all(c["failures"] == 0 for c in report["checks"])

    def test_tags_are_unique_and_grouped(self):
        report = verify_suite(seed=1, **_FAST)
        tags = [c["tag"] for c in report["checks"]]
        assert len(tags) == len(set(tags))
        assert {c["suite"] for c in report["checks"]} == set(SUITES)
        for c in report["checks"]:
            assert set(c) <= {"suite", "tag", "cases", "failures", "examples"}

    def test_suite_filter(self):
        report = verify_suite(seed=1, suite="weyl", **_FAST)
        assert report["suite"] == "weyl"
        assert {c["suite"] for c in report["checks"]} == {"weyl"}

    def test_empty_sizes_runs_no_cases(self):
        report = verify_suite(seed=1, sizes=[])
        assert report["ok"] is True
        assert report["cases"] == 0


class TestDeterminism:
    def test_repeat_runs_match_byte_for_byte(self):
        a = verify_suite(seed=7, suite="operators", **_FAST)
        b = verify_suite(seed=7, suite="operators", **_FAST)
        assert canonical_dumps(a) == canonical_dumps(b)

    def test_seed_changes_draws(self):
        a = verify_suite(seed=1, suite="core", **_FAST)
        b = verify_suite(seed=2, suite="core", **_FAST)
        assert a["ok"] and b["ok"]  # same verdict, different draws


@pytest.fixture(scope="module")
def corrupt_report():
    return verify_suite(seed=3, corrupt=True, **_FAST)


class TestCorruption:
    def test_corrupted_product_is_caught(self, corrupt_report):
        assert corrupt_report["ok"] is False
        assert corrupt_report["failures"] > 0
        bad = {c["tag"] for c in corrupt_report["checks"] if c["failures"]}
        assert "locality-truncation" in bad
        assert "right-shift-leibniz" in bad
        assert "operator-action" in bad
        assert "current-structure-relations" in bad
        for c in corrupt_report["checks"]:
            if c["failures"]:
                assert 1 <= len(c["examples"]) <= 3

    def test_corruption_spares_pure_library_checks(self, corrupt_report):
        spared = {c["tag"] for c in corrupt_report["checks"] if not c["failures"]}
        assert "weyl-associativity" in spared
        assert "smith-witnesses" in spared


# Every failure description a library check can produce.
_FAILURE = re.compile(
    r"(left-expansion|right-expansion|jacobi|composition|coefficient rule)"
    r" at n=\d+, m=\d+|skew at n=\d+|(convolution|binomial) at k=\d+, xi=\d+"
)


@pytest.fixture
def perturbed_products(monkeypatch):
    """Add the identity to every product the library checks compute."""
    one, table = cend.conformal.nproduct, cend.conformal.nproducts

    def nproduct(a, n, b, circ=False):
        return one(a, n, b, circ) + ConformalElement.identity(a.n)

    def nproducts(a, b, circ=False):
        return tuple(p + ConformalElement.identity(a.n) for p in table(a, b, circ))

    monkeypatch.setattr(cend.conformal, "nproduct", nproduct)
    monkeypatch.setattr(cend.conformal, "nproducts", nproducts)
    monkeypatch.setattr(cend.operators, "nproduct", nproduct)


class TestLibraryCheckFailures:
    def test_checks_report_each_failed_case(self, perturbed_products):
        # size 2: random 1x1 draws often have empty product tables
        rng = random.Random(5)
        a, b, c = (rand_conformal(rng, 2, 2, 2) for _ in range(3))
        for got in (
            check_associativity(a, b, c, 2, 2),
            check_lie(a, b, c, 2, 2),
            verify_composition(a, b, 1, 2),
        ):
            assert got.ok is False
            assert 0 < len(got.failures) <= got.cases
            for f in got.failures:
                assert _FAILURE.fullmatch(f), f

    def test_report_examples_keep_their_size_prefix(self, perturbed_products):
        report = verify_suite(seed=3, suite="core", **_FAST)
        (entry,) = [c for c in report["checks"] if c["tag"] == "product-associativity"]
        assert entry["failures"] > 0
        for example in entry["examples"]:
            size, _, rest = example.partition(": ")
            assert size in ("size 1", "size 2")
            assert _FAILURE.fullmatch(rest), example


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"suite": "nope"},
            {"sizes": [0]},
            {"sizes": [True]},
            {"sizes": "12"},
            {"bounds": {"zz": 1}},
            {"bounds": {"deg": 0}},
            {"bounds": {"cases": "3"}},
        ],
    )
    def test_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            verify_suite(seed=1, **kwargs)
