"""The cross-validation suite itself: outcomes, formatting, exit logic."""

import dataclasses
import re
from pathlib import Path

import pytest

from decowalk import checks
from decowalk.checks import (
    CheckOutcome,
    degenerate_zero_coupling,
    exact_mixing_below_small_gamma_bound,
    exact_mixing_in_large_gamma_bracket,
    format_report,
    has_failures,
    representation_agreement,
    run_checks,
    zero_dephasing_agreement,
)


class TestRunChecks:
    def test_full_suite_is_clean(self):
        outcomes = run_checks()
        assert len(outcomes) > 15
        assert all(o.status in ("PASS", "FAIL", "INFO") for o in outcomes)
        assert not has_failures(outcomes)

    def test_seam_measurements_are_informational(self):
        outcomes = run_checks()
        seam = [o for o in outcomes if o.name.startswith("seam-discrepancy")]
        assert {o.status for o in seam} == {"INFO"}
        assert {o.name for o in seam} == {
            "seam-discrepancy-n5", "seam-discrepancy-n6", "seam-discrepancy-n7"
        }


class TestCaseCounts:
    def test_every_pass_names_a_positive_count(self):
        passes = [o for o in run_checks() if o.status == "PASS"]
        assert passes
        for o in passes:
            found = re.search(r"\b(?:over|of) (\d+) (?:\([^)]*\) )?(?:cases?|entries)\b",
                              o.detail)
            assert found and int(found.group(1)) > 0, o.name

    def test_an_empty_population_fails(self):
        assert checks._outcome("empty", 0, True, "over 0 (t) cases").status == "FAIL"


class TestCommittedReport:
    def test_matches_a_fresh_run(self):
        # Detail figures may move in their last digits between machines;
        # the checks, their verdicts and the summary may not.
        committed = (Path(__file__).parent.parent / "verification_report.txt").read_text()
        fresh = format_report(run_checks())

        def verdicts(report):
            lines = report.splitlines()
            return [line.split(":", 1)[0] for line in lines[:-1]], lines[-1]

        assert verdicts(committed) == verdicts(fresh)


class TestIndexSumDecoupling:
    def test_asserts_over_a_counted_population(self):
        (outcome,) = degenerate_zero_coupling()
        assert outcome.status == "PASS"
        count = int(re.search(r"over (\d+) entries", outcome.detail).group(1))
        # Entries across classes: N^4 - N^3 per model, n = 3..12.
        assert count == 2 * sum(n**4 - n**3 for n in range(3, 13))


class TestMFunctionSquare:
    def test_asserts_over_a_counted_population(self):
        (outcome,) = [o for o in zero_dephasing_agreement()
                      if o.name == "zero-dephasing-m-function-square"]
        assert outcome.status == "PASS"
        count = int(re.search(r"over (\d+) \(n, t\) cases", outcome.detail).group(1))
        # Seven sizes (n = 3..8 and 12) times eleven times in [0, 20].
        assert count == 7 * 11


class TestExactMixingInLargeGammaBracket:
    def test_asserts_over_a_counted_population(self):
        (outcome,) = exact_mixing_in_large_gamma_bracket()
        assert outcome.status == "PASS"
        inside, cases = re.search(r"in (\d+) of (\d+) cases", outcome.detail).groups()
        # Four gammas times five cycle sizes.
        assert int(inside) == int(cases) == 4 * 5

    def test_fails_when_a_time_leaves_the_bracket(self, monkeypatch):
        real = checks.large_gamma_bounds

        def narrowed(n, gamma, eps):
            bounds = real(n, gamma, eps)
            if (n, gamma) == (16, 20.0):
                return dataclasses.replace(bounds, t_upper=bounds.t_lower)
            return bounds

        monkeypatch.setattr(checks, "large_gamma_bounds", narrowed)
        (outcome,) = exact_mixing_in_large_gamma_bracket()
        assert outcome.status == "FAIL"
        assert "in 19 of 20 cases" in outcome.detail


class TestExactMixingBelowSmallGammaBound:
    def test_asserts_over_a_counted_population(self):
        (outcome,) = exact_mixing_below_small_gamma_bound()
        assert outcome.status == "PASS"
        below, cases = re.search(r"in (\d+) of (\d+) cases", outcome.detail).groups()
        # Two gammas times five cycle sizes.
        assert int(below) == int(cases) == 2 * 5

    def test_fails_when_a_time_exceeds_the_bound(self, monkeypatch):
        real = checks.small_gamma_mixing_bound

        def lowered(n, gamma, eps):
            bound = real(n, gamma, eps)
            return 0.5 * bound if (n, gamma) == (16, 1e-3) else bound

        monkeypatch.setattr(checks, "small_gamma_mixing_bound", lowered)
        (outcome,) = exact_mixing_below_small_gamma_bound()
        assert outcome.status == "FAIL"
        assert "in 9 of 10 cases" in outcome.detail


class TestRepresentationAgreement:
    def test_multiple_of_four_agrees(self):
        assert representation_agreement(4, 0.5, t_end=10.0) <= 1e-8

    def test_other_sizes_diverge(self):
        # The two stencils genuinely differ through the wrap-around row
        # unless N is a multiple of 4; the gap is O(1e-2), not roundoff.
        assert representation_agreement(5, 1.0, t_end=10.0) > 1e-4


class TestReportFormat:
    def test_lines_and_summary(self):
        outcomes = [
            CheckOutcome("alpha", "PASS", "fine"),
            CheckOutcome("beta", "INFO", "measured"),
            CheckOutcome("gamma", "FAIL", "broken"),
        ]
        report = format_report(outcomes)
        lines = report.splitlines()
        assert lines[0] == "PASS alpha: fine"
        assert lines[1] == "INFO beta: measured"
        assert lines[2] == "FAIL gamma: broken"
        assert lines[3] == "summary: 1 passed, 1 failed, 1 informational"
        assert report.endswith("\n")

    def test_failure_detection(self):
        assert not has_failures([CheckOutcome("a", "PASS", ""), CheckOutcome("b", "INFO", "")])
        assert has_failures([CheckOutcome("a", "PASS", ""), CheckOutcome("b", "FAIL", "")])
