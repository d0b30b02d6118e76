"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one line per criterion (run pytest with -s to see them).
"""

import itertools
import json
import os
import random
import time

import pytest

from sqlscore import (
    NodeKind,
    Prediction,
    ResultTable,
    cells_equal,
    diff,
    evaluate,
    execute,
    load_corpus,
    match_columns,
    parse,
    render,
    score_result_pair,
    semantic_similarity,
)
from sqlscore.cli import main as cli_main
from sqlscore.sqlast import Node

from helpers import (
    add_column_alias,
    drop_select_column,
    max_matching_oracle,
    random_query,
    random_result_table,
    rename_column_alias,
    swap_table,
)


def ok(number, name):
    print(f"acceptance {number:02d} {name}: PASS")


def test_01_alias_equivalence():
    score = semantic_similarity(
        "SELECT count(*) FROM t GROUP BY day",
        "SELECT count(*) AS count FROM t GROUP BY day",
    )
    assert score.value == 1.0
    ok(1, "alias equivalence")


def _mutable_queries(questions, minimum=10):
    """Fixture queries with >= 2 select items whose first item is a bare column."""
    chosen = []
    for q in questions:
        ast = parse(q.query)
        select_list = next(n for n in ast.walk() if n.kind is NodeKind.SELECT_LIST)
        if len(select_list.children) >= 2 and select_list.children[0].kind is NodeKind.COLUMN_REF:
            chosen.append(q.query)
    assert len(chosen) >= minimum
    return chosen[:minimum]


def test_02_table_dominance_and_alias_freedom(questions):
    for sql in _mutable_queries(questions):
        truth_ast = parse(sql)

        swapped = render(swap_table(truth_ast))
        assert semantic_similarity(sql, swapped).value == 0.0

        aliased_ast = add_column_alias(truth_ast)
        assert semantic_similarity(sql, render(aliased_ast)).value == 1.0
        renamed = render(rename_column_alias(aliased_ast))
        assert semantic_similarity(sql, renamed).value == 1.0

        dropped = render(drop_select_column(truth_ast))
        value = semantic_similarity(sql, dropped).value
        assert 0.0 < value < 1.0
    ok(2, "table dominance, alias freedom, column-drop partial credit")


def test_03_identity_fixed_point(questions, db_dir):
    predictions = [Prediction(q.id, q.query) for q in questions]
    report = evaluate(questions, predictions, db_dir)
    assert report.overall.count == len(questions)
    for r in report.instances:
        assert r.semantic.value == 1.0
        assert r.result.precision == 1.0
        assert r.result.recall == 1.0
        assert r.result.f1 == 1.0
    ok(3, "identity fixed point")


def test_04_precision_recall_formulas():
    # truth has three columns; the prediction reproduces exactly two of them
    truth = ResultTable(("stream", "revenue", "share"), (("ads", "search", "video"), (900, 700, 500), (0.5, 0.3, 0.2)))
    predicted = ResultTable(("a", "b"), (("ads", "search", "video"), (900, 700, 500)))
    score = score_result_pair(predicted, truth)
    assert score.precision == pytest.approx(1.0, abs=1e-9)
    # direct substitution: R = matched/|truth| = 2/3 (0.6667 to four places)
    assert score.recall == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert score.f1 == pytest.approx(0.8, abs=1e-9)
    ok(4, "precision/recall/F1 formulas")


def test_05_matching_oracle_200_randomized():
    rng = random.Random(42)
    agreements = 0
    for _ in range(200):
        predicted = random_result_table(rng, max_columns=4, max_rows=4)
        truth = random_result_table(rng, max_columns=4, max_rows=4)
        pairs = match_columns(predicted, truth)
        compat = [
            [
                predicted.row_count == truth.row_count
                and all(cells_equal(x, y) for x, y in zip(p_col, t_col))
                for t_col in truth.columns
            ]
            for p_col in predicted.columns
        ]
        assert len(pairs) == max_matching_oracle(compat)
        agreements += 1
    assert agreements == 200  # 100% of cases
    ok(5, "maximum matching equals exhaustive oracle (200/200)")


def _rows_biject(p_col, t_col) -> bool:
    """Whether some ordering of ``t_col`` equals ``p_col`` cell by cell."""
    return len(p_col) == len(t_col) and any(all(map(cells_equal, p_col, perm)) for perm in itertools.permutations(t_col))


def _check_order_insensitive_200(rng, make_table) -> int:
    """Check 200 cases against the oracle; return how many matched a pair."""
    matched = 0
    for i in range(200):
        predicted = make_table(rng)
        if i % 2:
            truth = make_table(rng)
        else:  # the predicted columns reordered, each with its rows shuffled
            columns = [tuple(rng.sample(col, len(col))) for col in rng.sample(predicted.columns, predicted.column_count)]
            truth = ResultTable(tuple(f"t{j}" for j in range(len(columns))), tuple(columns))
        pairs = match_columns(predicted, truth, order_insensitive=True)
        compat = [[_rows_biject(p_col, t_col) for t_col in truth.columns] for p_col in predicted.columns]
        assert len(pairs) == max_matching_oracle(compat)
        assert all(compat[p_idx][t_idx] for p_idx, t_idx in pairs)
        matched += bool(pairs)
    return matched


def test_05_matching_oracle_order_insensitive_200_randomized():
    matched = _check_order_insensitive_200(random.Random(43), lambda rng: random_result_table(rng, max_columns=4, max_rows=6))
    assert matched >= 100  # every shuffled case matches
    ok(5, "order-insensitive matching equals exhaustive oracle (200/200)")


def _trailing_whitespace_table(rng) -> ResultTable:
    # cells_equal trims "b ", "b\n" to "b", and "b\t!" sorts between them as
    # raw text; a pool this small makes equal multisets common
    pool = ["b", "b ", "b\n", "b\t!"]
    n_rows = rng.randint(0, 6)
    columns = tuple(tuple(rng.choice(pool) for _ in range(n_rows)) for _ in range(rng.randint(1, 4)))
    return ResultTable(tuple(f"c{i}" for i in range(len(columns))), columns)


def test_05_matching_oracle_order_insensitive_trailing_whitespace():
    assert _check_order_insensitive_200(random.Random(44), _trailing_whitespace_table) >= 100
    ok(5, "order-insensitive matching equals exhaustive oracle on trimmed text (200/200)")


def _permute_select_list(ast: Node) -> Node:
    def rebuild(node: Node) -> Node:
        children = tuple(rebuild(c) for c in node.children)
        if node.kind is NodeKind.SELECT_LIST:
            children = tuple(reversed(children))
        return Node(node.kind, node.text, children)

    return rebuild(ast)


def test_06_tree_diff_properties(questions):
    for q in questions:
        ast = parse(q.query)
        script = diff(ast, parse(q.query))
        assert script.size_union - script.counts()["keep"] == 0, q.query

        permuted = _permute_select_list(ast)
        counts = diff(ast, permuted).counts()
        assert counts["insert"] == 0 and counts["delete"] == 0, q.query
    ok(6, "diff identity all-keep and permutation move-only")


# every cpu_util reading of host 1 from 2023-01-03 through the anchor,
# listed by hand from the fixture data (value is 40 + days since 01-02)
LAST_TWO_WEEKS_CPU = [
    ("2023-01-03 00:00:00", 41.0),
    ("2023-01-04 00:00:00", 42.0),
    ("2023-01-05 00:00:00", 43.0),
    ("2023-01-06 00:00:00", 44.0),
    ("2023-01-07 00:00:00", 45.0),
    ("2023-01-08 00:00:00", 46.0),
    ("2023-01-09 00:00:00", 47.0),
    ("2023-01-10 00:00:00", 48.0),
    ("2023-01-11 00:00:00", 49.0),
    ("2023-01-12 00:00:00", 50.0),
    ("2023-01-13 00:00:00", 51.0),
    ("2023-01-14 00:00:00", 52.0),
    ("2023-01-15 00:00:00", 53.0),
    ("2023-01-16 00:00:00", 54.0),
    ("2023-01-17 00:00:00", 55.0),
]


def test_07_time_anchor_window(questions, db_dir):
    question = next(q for q in questions if "last 2 weeks" in q.question)
    table = execute(question.query, db_dir / f"{question.db_id}.sqlite", anchor="2023-01-17T00:00:00")
    rows = list(zip(table.columns[0], table.columns[1]))
    assert rows == LAST_TWO_WEEKS_CPU
    assert all("2023-01-03" <= ts <= "2023-01-17 00:00:00" for ts, _ in rows)
    ok(7, "frozen-clock window returns the hand-filtered rows")


def test_08_throughput(questions, db_dir):
    predictions = [Prediction(q.id, q.query) for q in questions]
    started = time.monotonic()
    evaluate(questions, predictions, db_dir)
    elapsed = time.monotonic() - started
    assert elapsed < 90.0, f"full evaluation took {elapsed:.1f}s"

    # each individual result comparison stays under a second
    slowest = 0.0
    for q in questions:
        table = execute(q.query, db_dir / f"{q.db_id}.sqlite")
        tick = time.monotonic()
        score_result_pair(table, table)
        slowest = max(slowest, time.monotonic() - tick)
    assert slowest < 1.0, f"slowest comparison took {slowest:.3f}s"
    ok(8, f"throughput (full run {elapsed:.2f}s, slowest comparison {slowest * 1000:.1f}ms)")


BIS_CATEGORY_COUNTS = {
    "filtering": 30,
    "time_period": 40,
    "comparison": 20,
    "trend_comparison": 39,
    "multi_table": 36,
    "rank": 20,
    "percentage": 26,
    "aggregation": 14,
    "language": 14,
}


def test_09_published_corpus_counts():
    path = os.environ.get("BIS_QUESTIONS_FILE")
    if not path or not os.path.isfile(path):
        pytest.skip("published question file not available (set BIS_QUESTIONS_FILE)")
    questions = load_corpus(path)
    assert len(questions) == 239
    from sqlscore import category_counts

    assert category_counts(questions) == BIS_CATEGORY_COUNTS
    ok(9, "published corpus category counts")


def test_10_byte_identical_reports(corpus_path, db_dir, tmp_path, capsys):
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        code = cli_main(
            ["run", "--corpus", str(corpus_path), "--db-dir", str(db_dir), "--report-json", str(path)]
        )
        assert code == 0
    capsys.readouterr()  # swallow the summary tables
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    json.loads(first)  # well-formed
    ok(10, "byte-identical reports across runs")


def test_11_range_safety():
    rng = random.Random(2024)
    for _ in range(500):
        score = semantic_similarity(random_query(rng), random_query(rng))
        assert 0.0 <= score.value <= 1.0
    for _ in range(500):
        predicted = random_result_table(rng)
        truth = random_result_table(rng)
        score = score_result_pair(predicted, truth)
        for value in (score.precision, score.recall, score.f1):
            assert 0.0 <= value <= 1.0
        if len(score.matched_pairs) == 0:
            assert score.f1 == 0.0
    ok(11, "range safety over 1000 randomized pairs")
