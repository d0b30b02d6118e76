import random
import sqlite3

import pytest

from sqlscore import ExecutionError, ResultTable, cells_equal, execute, match_columns, parse, score_result_pair
from sqlscore.results import VERDICT_SCORED

from helpers import max_matching_oracle, random_result_table


def table(*columns, labels=None):
    labels = labels or [f"c{i}" for i in range(len(columns))]
    return ResultTable(tuple(labels), tuple(tuple(c) for c in columns))


class TestCellEquality:
    def test_null_equals_null_only(self):
        assert cells_equal(None, None)
        assert not cells_equal(None, 0)
        assert not cells_equal("", None)

    def test_numbers_compare_across_types_with_tolerance(self):
        assert cells_equal(1, 1.0)
        assert cells_equal(0.1 + 0.2, 0.3)
        assert cells_equal(1e12, 1e12 + 1)  # within 1e-9 relative
        assert not cells_equal(1.0, 1.001)
        assert not cells_equal(0.0, 1e-15)  # strict relative tolerance at zero

    def test_text_trims_trailing_whitespace_only(self):
        assert cells_equal("abc ", "abc")
        assert cells_equal("abc\t\n", "abc")
        assert not cells_equal(" abc", "abc")
        assert not cells_equal("ABC", "abc")

    def test_text_never_equals_number(self):
        assert not cells_equal("1", 1)


class TestMatchColumns:
    def test_identical_tables_relabeled(self):
        a = table([1, 2], ["x", "y"], labels=["p", "q"])
        b = table([1, 2], ["x", "y"], labels=["total", "name"])
        assert match_columns(a, b) == [(0, 0), (1, 1)]

    def test_extra_rank_column_left_unmatched(self):
        truth = table(["ads", "search", "video"], [900, 700, 500])
        predicted = table([1, 2, 3], ["ads", "search", "video"], [900, 700, 500])
        pairs = match_columns(predicted, truth)
        assert pairs == [(1, 0), (2, 1)]

    def test_different_row_counts_never_match(self):
        assert match_columns(table([1, 2]), table([1, 2, 3])) == []

    def test_duplicate_columns_one_to_one(self):
        predicted = table([1, 2], [1, 2])
        truth = table([1, 2])
        assert len(match_columns(predicted, truth)) == 1

    def test_column_permutation_invariance(self):
        truth = table([1, 2], ["a", "b"], [9.5, 8.5])
        predicted = table([9.5, 8.5], [1, 2], ["a", "b"])
        assert len(match_columns(predicted, truth)) == 3

    def test_order_insensitive_mode(self):
        truth = table([3, 1, 2])
        predicted = table([1, 2, 3])
        assert match_columns(predicted, truth) == []
        assert match_columns(predicted, truth, order_insensitive=True) == [(0, 0)]

    def test_order_insensitive_sorts_mixed_types(self):
        truth = table([None, "x", 2, 1.5])
        predicted = table(["x", 1.5, None, 2])
        assert match_columns(predicted, truth, order_insensitive=True) == [(0, 0)]

    def test_order_insensitive_keys_text_as_compared(self):
        # "b\n" equals "b", but as raw text it sorts after "b\t!"
        predicted = table(["b\n", "b\t!"])
        truth = table(["b", "b\t!"])
        assert match_columns(predicted, truth, order_insensitive=True) == [(0, 0)]

    @pytest.mark.parametrize("seed", range(60))
    def test_matching_equals_exhaustive_oracle(self, seed):
        rng = random.Random(seed)
        predicted = random_result_table(rng)
        truth = random_result_table(rng)
        pairs = match_columns(predicted, truth)
        compat = [
            [
                truth.row_count == predicted.row_count
                and all(cells_equal(x, y) for x, y in zip(p_col, t_col))
                for t_col in truth.columns
            ]
            for p_col in predicted.columns
        ]
        assert len(pairs) == max_matching_oracle(compat)
        # sanity: every reported pair is actually compatible
        for p_idx, t_idx in pairs:
            assert compat[p_idx][t_idx]


class TestScoreResultPair:
    def test_perfect_prediction(self):
        t = table([1, 2], ["x", "y"], [0.5, 0.25])
        score = score_result_pair(t, t)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_two_of_three_truth_columns(self):
        truth = table(["ads", "search", "video"], [900, 700, 500], [0.5, 0.25, 0.125])
        predicted = table(["ads", "search", "video"], [900, 700, 500])
        score = score_result_pair(predicted, truth)
        assert score.precision == pytest.approx(1.0)
        assert score.recall == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert score.f1 == pytest.approx(0.8, abs=1e-9)

    def test_wrong_constant_zeroes_everything(self):
        truth = table([900])
        predicted = table([901])
        score = score_result_pair(predicted, truth)
        assert score.precision == score.recall == score.f1 == 0.0

    def test_empty_versus_empty_is_perfect(self):
        empty = ResultTable((), ())
        score = score_result_pair(empty, empty)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_empty_prediction_versus_truth_is_zero(self):
        empty = ResultTable((), ())
        score = score_result_pair(empty, table([1]))
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_f1_bounded_by_max_of_p_and_r(self):
        rng = random.Random(99)
        for _ in range(200):
            predicted = random_result_table(rng)
            truth = random_result_table(rng)
            score = score_result_pair(predicted, truth)
            assert 0.0 <= score.precision <= 1.0
            assert 0.0 <= score.recall <= 1.0
            assert 0.0 <= score.f1 <= max(score.precision, score.recall) + 1e-12
            if not score.matched_pairs:
                assert score.f1 == 0.0

    def test_label_invariance(self):
        truth = table([1, 2], ["x", "y"], labels=["a", "b"])
        relabeled = ResultTable(("p", "q"), truth.columns)
        score = score_result_pair(relabeled, truth)
        assert score.f1 == 1.0


class TestExecute:
    def test_select_one(self, db_dir):
        t = execute("SELECT 1", db_dir / "benchmark_1.sqlite")
        assert t.column_count == 1 and t.row_count == 1
        assert t.columns[0][0] == 1

    def test_sample_count_query(self, db_dir):
        t = execute(
            "SELECT count(*) FROM pre_ranking_filter_log WHERE task = 342111 AND filter_key = 'o_rta_filter'",
            db_dir / "benchmark_1.sqlite",
        )
        assert t.column_count == 1 and t.row_count == 1
        assert t.columns[0][0] == 7

    def test_parse_failure_stage(self, db_dir):
        with pytest.raises(ExecutionError) as exc_info:
            execute("not sql", db_dir / "benchmark_1.sqlite")
        assert exc_info.value.stage == "parse"

    def test_engine_error_stage(self, db_dir):
        with pytest.raises(ExecutionError) as exc_info:
            execute("SELECT missing_col FROM campaigns", db_dir / "benchmark_1.sqlite")
        assert exc_info.value.stage == "engine"

    def test_missing_database(self, tmp_path):
        with pytest.raises(ExecutionError) as exc_info:
            execute("SELECT 1", tmp_path / "nope.sqlite")
        assert exc_info.value.stage == "database"

    def test_row_cap(self, db_dir):
        cross = "SELECT a.value FROM metric_log_real AS a CROSS JOIN metric_log_real AS b"
        db = db_dir / "benchmark_1.sqlite"
        with pytest.raises(ExecutionError) as exc_info:
            execute(cross, db, row_cap=100)
        assert exc_info.value.stage == "row-cap"
        assert execute(f"{cross} LIMIT 100", db, row_cap=100).row_count == 100
        with pytest.raises(ExecutionError) as exc_info:
            execute(f"{cross} LIMIT 101", db, row_cap=100)
        assert exc_info.value.stage == "row-cap"
        assert str(exc_info.value) == "result exceeds row cap of 100"

    def test_timeout(self, db_dir):
        with pytest.raises(ExecutionError) as exc_info:
            execute(
                "SELECT count(*) FROM metric_log_real AS a CROSS JOIN metric_log_real AS b "
                "CROSS JOIN metric_log_real AS c CROSS JOIN metric_log_real AS d",
                db_dir / "benchmark_1.sqlite",
                timeout_s=0.05,
                row_cap=10**9,
            )
        assert exc_info.value.stage == "timeout"

    def test_accepts_open_connection(self, db_dir):
        conn = sqlite3.connect(f"file:{db_dir / 'benchmark_2.sqlite'}?mode=ro", uri=True)
        try:
            t = execute("SELECT hostname FROM hosts ORDER BY host_id LIMIT 1", conn)
            assert t.columns[0] == ("edge-01",)
        finally:
            conn.close()

    def test_anchored_execution_matches_manual_literal(self, db_dir, questions):
        automatic = execute(
            "SELECT ts FROM system_metrics WHERE metric = 'cpu_util' AND host_id = 1 AND ts >= datetime('now', '-14 days') ORDER BY ts",
            db_dir / "benchmark_2.sqlite",
        )
        manual = execute(
            "SELECT ts FROM system_metrics WHERE metric = 'cpu_util' AND host_id = 1 AND ts >= '2023-01-03 00:00:00' ORDER BY ts",
            db_dir / "benchmark_2.sqlite",
        )
        assert automatic.columns == manual.columns
        for q in questions:  # a parsed AST runs exactly like its source text
            db = db_dir / f"{q.db_id}.sqlite"
            assert execute(parse(q.query), db) == execute(q.query, db)


def test_verdict_default_is_scored():
    score = score_result_pair(table([1]), table([1]))
    assert score.verdict == VERDICT_SCORED
