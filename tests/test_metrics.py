from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixtures_data import EXPECTED_AGGREGATES, EXPECTED_BEST, EXPECTED_RENDERED, FINAL_SCORES
from stagemix import (
    COMPARISON_COLUMNS,
    EvalDataError,
    EvalSnapshot,
    TASKS,
    aggregate,
    comparison,
    convergence_step,
    fmt_fixed,
    fmt_percent,
    round_half_away,
    to_score,
    trajectory,
)

one_decimal_scores = st.integers(min_value=0, max_value=1000).map(
    lambda n: Decimal(n).scaleb(-1)
)


def snapshot_at(step, overall_target):
    """A snapshot whose five equal scores make `overall_target` the overall."""
    return EvalSnapshot(step=step, scores={t: Decimal(overall_target) for t in TASKS})


class TestScoreValidation:
    def test_accepts_strings_ints_floats_decimals(self):
        assert to_score("73.4") == Decimal("73.4")
        assert to_score(73) == Decimal("73")
        assert to_score(73.4) == Decimal("73.4")
        assert to_score(Decimal("73.4")) == Decimal("73.4")

    @pytest.mark.parametrize("bad", ["73.45", 73.45, Decimal("0.01")])
    def test_rejects_more_than_one_decimal(self, bad):
        with pytest.raises(EvalDataError, match="one decimal"):
            to_score(bad)

    @pytest.mark.parametrize("bad", [-0.1, 100.1, "101", Decimal("-5")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(EvalDataError, match="outside"):
            to_score(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "oops", True, None, [1]])
    def test_rejects_non_numbers(self, bad):
        with pytest.raises(EvalDataError):
            to_score(bad)


class TestAggregation:
    @pytest.mark.parametrize("cond_id", sorted(FINAL_SCORES))
    def test_frozen_aggregates_exact(self, cond_id):
        agg = aggregate(FINAL_SCORES[cond_id])
        expected = EXPECTED_AGGREGATES[cond_id]
        assert agg.general == expected["general"]
        assert agg.reasoning == expected["reasoning"]
        assert agg.detail == expected["detail"]
        assert agg.overall == expected["overall"]

    @pytest.mark.parametrize("cond_id", sorted(FINAL_SCORES))
    def test_frozen_one_decimal_rendering(self, cond_id):
        agg = aggregate(FINAL_SCORES[cond_id])
        rendered = EXPECTED_RENDERED[cond_id]
        assert fmt_fixed(agg.general, 1) == rendered["general"]
        assert fmt_fixed(agg.reasoning, 1) == rendered["reasoning"]
        assert fmt_fixed(agg.detail, 1) == rendered["detail"]
        assert fmt_fixed(agg.overall, 1) == rendered["overall"]

    def test_half_rounds_away_from_zero(self):
        assert fmt_fixed(Decimal("73.05"), 1) == "73.1"
        assert fmt_fixed(Decimal("72.35"), 1) == "72.4"
        assert fmt_fixed(Decimal("72.25"), 1) == "72.3"
        assert round_half_away(Decimal("-72.35"), 1) == Decimal("-72.4")
        assert fmt_percent(Decimal("0.0148")) == "1.48%"
        assert fmt_percent(0.0148) == "1.48%"

    def test_rounding_past_the_default_precision(self):
        assert fmt_fixed(Decimal("1e25"), 3) == "1" + "0" * 25 + ".000"
        assert fmt_fixed(Decimal("9" * 30 + ".9995"), 3) == "1" + "0" * 30 + ".000"
        assert fmt_fixed(-1.7976931348623157e308, 1) == "-17976931348623157" + "0" * 292 + ".0"
        assert fmt_percent(Decimal("3e30")) == "3" + "0" * 32 + ".00%"

    @pytest.mark.parametrize("score", ["1e1", "-0.0"])
    def test_the_one_task_general_composite_is_the_score_as_written(self, score):
        scores = {task: "50.0" for task in TASKS}
        scores["General-Val"] = score
        assert str(aggregate(scores).general) == str(Decimal(score))

    def test_missing_task_is_not_aggregable(self):
        partial = dict(FINAL_SCORES["A"])
        del partial["DocVQA"]
        with pytest.raises(EvalDataError, match="missing DocVQA"):
            aggregate(partial)

    def test_unknown_task_rejected(self):
        scores = dict(FINAL_SCORES["A"])
        scores["Extra"] = "50.0"
        with pytest.raises(EvalDataError, match="unknown task"):
            aggregate(scores)

    def test_results_are_exact_decimals(self):
        agg = aggregate(FINAL_SCORES["B"])
        assert isinstance(agg.overall, Decimal)
        assert agg.as_dict() == {
            "general": "73.4",
            "reasoning": "75.3",
            "detail": "72.35",
            "overall": "73.74",
        }

    @given(scores=st.lists(one_decimal_scores, min_size=5, max_size=5))
    def test_overall_is_the_exact_mean(self, scores):
        mapping = dict(zip(TASKS, scores))
        agg = aggregate(mapping)
        assert agg.overall * 5 == sum(scores)
        assert agg.reasoning * 2 == mapping["AI2D"] + mapping["ChartQA"]
        assert agg.detail * 2 == mapping["TextVQA"] + mapping["DocVQA"]


class TestComparison:
    def test_best_markers_match_frozen_expectations(self):
        table = comparison(sorted(FINAL_SCORES.items()))
        for column, winner in EXPECTED_BEST.items():
            rows = table.best[column]
            assert len(rows) == 1
            assert table.conditions[rows[0]] == winner

    def test_best_decided_on_unrounded_values(self):
        # both render as 73.1 but 73.05 < 73.10
        rows = [
            ("low", {"General-Val": "73.1", "AI2D": "73.0", "ChartQA": "73.1", "TextVQA": "73.1", "DocVQA": "73.1"}),
            ("high", {"General-Val": "73.1", "AI2D": "73.1", "ChartQA": "73.1", "TextVQA": "73.1", "DocVQA": "73.1"}),
        ]
        table = comparison(rows)
        low, high = table.rows
        assert fmt_fixed(low["Reasoning"], 1) == fmt_fixed(high["Reasoning"], 1) == "73.1"
        assert table.best["Reasoning"] == (1,)

    def test_ties_mark_every_row(self):
        table = comparison([("x", FINAL_SCORES["A"]), ("y", FINAL_SCORES["A"])])
        for column in COMPARISON_COLUMNS:
            assert table.best[column] == (0, 1)
            assert table.is_best(0, column) and table.is_best(1, column)

    def test_duplicate_condition_ids_stay_separate(self):
        table = comparison([("A", FINAL_SCORES["A"]), ("A", FINAL_SCORES["B"])])
        assert table.conditions == ("A", "A")
        assert len(table.rows) == 2

    def test_columns_fixed_and_ordered(self):
        table = comparison([("A", FINAL_SCORES["A"])])
        assert table.columns == (
            "General-Val",
            "AI2D",
            "ChartQA",
            "Reasoning",
            "TextVQA",
            "DocVQA",
            "OCR",
            "Overall",
        )

    def test_empty_comparison_rejected(self):
        with pytest.raises(EvalDataError, match="no conditions"):
            comparison([])

    def test_as_dict_uses_exact_strings(self):
        table = comparison([("B", FINAL_SCORES["B"])])
        scores = table.as_dict()["rows"][0]["scores"]
        assert scores["OCR"] == "72.35"
        assert scores["Overall"] == "73.74"


class TestTrajectory:
    def test_sorted_by_step(self):
        snaps = [snapshot_at(200, "50.0"), snapshot_at(100, "40.0")]
        points = trajectory(snaps)
        assert [p.step for p in points] == [100, 200]
        assert points[0].scores.overall == Decimal("40.0")

    def test_duplicate_steps_rejected(self):
        with pytest.raises(EvalDataError, match="duplicate snapshot"):
            trajectory([snapshot_at(100, "40.0"), snapshot_at(100, "41.0")])

    def test_empty_log_rejected(self):
        with pytest.raises(EvalDataError, match="no snapshots"):
            trajectory([])

    def test_partial_snapshot_fails_aggregation(self):
        snap = EvalSnapshot(step=10, scores={"AI2D": Decimal("50.0")})
        with pytest.raises(EvalDataError, match="partial"):
            trajectory([snap])


class TestConvergence:
    def test_first_step_reaching_fraction(self):
        snaps = [
            snapshot_at(100, "40.0"),
            snapshot_at(200, "54.0"),
            snapshot_at(300, "57.0"),
            snapshot_at(400, "60.0"),
        ]
        # 0.9 * 60.0 = 54.0, reached exactly at step 200 (>= is inclusive)
        assert convergence_step(snaps, 0.9) == 200
        assert convergence_step(snaps, "0.95") == 300
        assert convergence_step(snaps, 1) == 400

    def test_flat_trajectory_converges_immediately(self):
        snaps = [snapshot_at(100, "50.0"), snapshot_at(200, "50.0")]
        assert convergence_step(snaps, 1.0) == 100

    @pytest.mark.parametrize("bad", [0, -0.5, 1.0001, float("nan"), "x"])
    def test_fraction_domain(self, bad):
        snaps = [snapshot_at(100, "50.0")]
        with pytest.raises(ValueError):
            convergence_step(snaps, bad)

    def test_fraction_arithmetic_is_decimal_exact(self):
        # 0.9 * 54.9 = 49.41; a float comparison could tip either way
        snaps = [snapshot_at(1, "49.4"), snapshot_at(2, "49.5"), snapshot_at(3, "54.9")]
        assert convergence_step(snaps, "0.9") == 2
