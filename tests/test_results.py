import random
import sqlite3

import pytest

from sqlscore import ExecutionError, ResultTable, cells_equal, execute, match_columns, parse, results, score_result_pair
from sqlscore.results import VERDICT_SCORED, _sort_key, _sorted_column

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

    def test_bool_is_not_a_number_and_nan_is_unequal(self):
        assert cells_equal(True, True)
        assert not cells_equal(True, 1)  # True == 1 in Python, but a bool is not a number here
        assert not cells_equal(1.0, True)
        assert not cells_equal(b"x", "x")
        assert not cells_equal(float("nan"), float("nan"))


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

    def test_distinct_columns_compare_only_their_partner(self, monkeypatch):
        calls = 0

        def counting_cells_equal(a, b):
            nonlocal calls
            calls += 1
            return cells_equal(a, b)

        monkeypatch.setattr(results, "cells_equal", counting_cells_equal)
        truth = table(*([7 * i] for i in range(320)))
        order = list(range(320))
        random.Random(5).shuffle(order)
        predicted = table(*([7 * i] for i in order))
        assert len(match_columns(predicted, truth)) == 320
        assert calls <= 2 * 320  # all M x N pairs would be 102,400 calls

    @pytest.mark.parametrize("order_insensitive", [False, True])
    def test_nullable_columns_compare_only_their_partner(self, monkeypatch, order_insensitive):
        calls = 0

        def counting_cells_equal(a, b):
            nonlocal calls
            calls += 1
            return cells_equal(a, b)

        monkeypatch.setattr(results, "cells_equal", counting_cells_equal)
        # 64 distinct columns of 100 rows, 80% NULL: sorted, each starts with 80 NULLs
        truth = table(*([1000 * j + r if (r + j) % 5 == 0 else None for r in range(100)] for j in range(64)))
        predicted = table(*reversed(truth.columns))
        assert len(match_columns(predicted, truth, order_insensitive)) == 64
        assert calls <= 64 * 100  # one full comparison per partner


# boundaries of the matcher's first-cell keys and of its native sort
_BOUNDARY_POOL = [
    None, "", "b", "b ", "b\n", 3, 3.0, 5, 5.000000001,
    2**29 - 1, -(2**29 - 1), 2**29, -(2**29), 10**9, 10**9 + 1, 10**12, 10**12 + 1,
    0.1 + 0.2, 0.3, 2**53, 2**53 + 1, float("inf"), True, b"x",
]  # fmt: skip
# cells that are equal under cells_equal but differ as Python values
_EQUAL_GROUPS = [
    ["b", "b ", "b\n"], [3, 3.0], [5, 5.000000001], [10**9, 10**9 + 1], [10**12, 10**12 + 1], [0.1 + 0.2, 0.3], [2**53, 2**53 + 1],
]  # fmt: skip


def _equal_variant(rng: random.Random, cell):
    for group in _EQUAL_GROUPS:
        if any(type(cell) is type(x) and cell == x for x in group):
            return rng.choice(group)
    return cell


def _boundary_pair(rng: random.Random, order_insensitive: bool) -> tuple[ResultTable, ResultTable]:
    n_rows = rng.randint(0, 4)
    truth_columns = [[rng.choice(_BOUNDARY_POOL) for _ in range(n_rows)] for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.1:
        n_rows = rng.randint(0, 4)
    predicted_columns = []
    for _ in range(rng.randint(1, 6)):
        source = rng.choice(truth_columns)
        if len(source) != n_rows or rng.random() < 0.25:
            column = [rng.choice(_BOUNDARY_POOL) for _ in range(n_rows)]
        else:
            column = [_equal_variant(rng, cell) for cell in source]
            if order_insensitive:
                rng.shuffle(column)
        predicted_columns.append(column)
    return table(*predicted_columns), table(*truth_columns)


def _reference_match_columns(predicted: ResultTable, truth: ResultTable, order_insensitive: bool) -> list[tuple[int, int]]:
    """All M x N pairs compared cell by cell, then augmenting-path matching."""
    if predicted.row_count != truth.row_count:
        return []
    p_cols, t_cols = predicted.columns, truth.columns
    if order_insensitive:
        p_cols = [sorted(c, key=_sort_key) for c in p_cols]
        t_cols = [sorted(c, key=_sort_key) for c in t_cols]
    compat = [[t_idx for t_idx, t_col in enumerate(t_cols) if all(map(cells_equal, p_col, t_col))] for p_col in p_cols]
    match_t: dict[int, int] = {}

    def try_assign(p_idx: int, seen: set[int]) -> bool:
        for t_idx in compat[p_idx]:
            if t_idx in seen:
                continue
            seen.add(t_idx)
            if t_idx not in match_t or try_assign(match_t[t_idx], seen):
                match_t[t_idx] = p_idx
                return True
        return False

    for p_idx in range(len(p_cols)):
        try_assign(p_idx, set())
    return sorted((p_idx, t_idx) for t_idx, p_idx in match_t.items())


@pytest.mark.parametrize("order_insensitive", [False, True])
def test_matching_equals_all_pairs_reference_on_boundary_cells(order_insensitive):
    rng = random.Random(2029 + order_insensitive)
    for _ in range(600):
        predicted, truth = _boundary_pair(rng, order_insensitive)
        expected = _reference_match_columns(predicted, truth, order_insensitive)
        assert match_columns(predicted, truth, order_insensitive) == expected, (predicted, truth)
        for column in predicted.columns + truth.columns:
            typed = [(type(x), x) for x in _sorted_column(column)]
            assert typed == [(type(x), x) for x in sorted(column, key=_sort_key)], column


def _nullable_pair(rng: random.Random, order_insensitive: bool) -> tuple[ResultTable, ResultTable]:
    """Mixed-type columns, from none to all of their cells NULL; predicted
    columns are equal variants of truth columns, some with one cell's NULL
    added or taken away."""
    n_rows = rng.randint(0, 12)
    null_share = rng.choice([0.0, 0.3, 0.8, 0.95, 1.0])

    def cell():
        return None if rng.random() < null_share else rng.choice(_BOUNDARY_POOL)

    truth_columns = [[cell() for _ in range(n_rows)] for _ in range(rng.randint(1, 6))]
    predicted_columns = []
    for _ in range(rng.randint(1, 6)):
        column = [_equal_variant(rng, c) for c in rng.choice(truth_columns)]
        if column and rng.random() < 0.3:
            i = rng.randrange(n_rows)
            column[i] = rng.choice(_BOUNDARY_POOL[1:]) if column[i] is None else None
        if order_insensitive:
            rng.shuffle(column)
        predicted_columns.append(column)
    return table(*predicted_columns), table(*truth_columns)


@pytest.mark.parametrize("order_insensitive", [False, True])
def test_matching_equals_all_pairs_reference_on_nullable_columns(order_insensitive):
    rng = random.Random(4051 + order_insensitive)
    for _ in range(600):
        predicted, truth = _nullable_pair(rng, order_insensitive)
        expected = _reference_match_columns(predicted, truth, order_insensitive)
        assert match_columns(predicted, truth, order_insensitive) == expected, (predicted, truth)


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

    def test_quoted_names_with_doubled_quotes(self, tmp_path):
        db = tmp_path / "quotes.sqlite"
        with sqlite3.connect(db) as conn:
            conn.execute('CREATE TABLE "t""u" ("a""b" INTEGER, "c`d" TEXT)')
            conn.execute("""INSERT INTO "t""u" VALUES (1, 'x')""")
        conn.close()
        t = execute('SELECT x."a""b", `c``d` FROM "t""u" AS x', db)
        assert t.labels == ('a"b', "c`d")
        assert t.columns == ((1,), ("x",))

    def test_non_ascii_unquoted_names(self, tmp_path):
        db = tmp_path / "names.sqlite"
        with sqlite3.connect(db) as conn:
            conn.execute('CREATE TABLE t (prénom TEXT, 名前 INTEGER, "É" INTEGER)')
            conn.execute("INSERT INTO t VALUES ('x', 1, 2)")
        conn.close()
        t = execute("SELECT prénom, 名前, PRéNOM FROM t", db)
        assert t.labels == ("prénom", "名前", "prénom")
        assert t.columns == (("x",), (1,), ("x",))
        assert execute("SELECT É FROM t", db).columns == ((2,),)
        # SQLite folds only ASCII letters too: é does not name the column É
        with pytest.raises(ExecutionError) as exc_info:
            execute("SELECT é FROM t", db)
        assert exc_info.value.stage == "engine"

    def test_sample_count_query(self, db_dir):
        t = execute(
            "SELECT count(*) FROM pre_ranking_filter_log WHERE task = 342111 AND filter_key = 'o_rta_filter'",
            db_dir / "benchmark_1.sqlite",
        )
        assert t.column_count == 1 and t.row_count == 1
        assert t.columns[0][0] == 7

    def test_zero_rows_keep_every_column(self, db_dir):
        result = execute("SELECT name, budget, campaign_id FROM campaigns WHERE campaign_id < 0", db_dir / "benchmark_1.sqlite")
        assert result == ResultTable(("name", "budget", "campaign_id"), ((), (), ()))
        assert (result.column_count, result.row_count) == (3, 0)
        assert ResultTable.from_rows(["a", "b"], [(1, "x"), (2, None)]).columns == ((1, 2), ("x", None))

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
