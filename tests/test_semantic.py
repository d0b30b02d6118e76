import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from sqlscore import CorpusError, ScoreBreakdown, SemanticScore, diff, parse, render, semantic, semantic_score_from_asts, semantic_similarity
from sqlscore.diff import _TreeIndex
from sqlscore.fixtures import FIXTURE_QUESTIONS
from sqlscore.semantic import RULE_NORMAL, RULE_TABLE_MISMATCH, VERDICT_INVALID, VERDICT_SCORED

from helpers import add_column_alias, drop_select_column, random_query, rename_column_alias, score_edit_script, swap_table

FIXTURE_QUERIES = [q["query"] for q in FIXTURE_QUESTIONS]


class TestIdentity:
    @pytest.mark.parametrize("sql", FIXTURE_QUERIES, ids=range(len(FIXTURE_QUERIES)))
    def test_every_fixture_query_scores_one_against_itself(self, sql):
        score = semantic_similarity(sql, sql)
        assert score.value == 1.0
        assert score.verdict == VERDICT_SCORED
        assert score.breakdown.rule == RULE_NORMAL
        assert score.breakdown.diff_count == 0

    def test_long_arithmetic_chain_scores_one_against_itself(self):
        sql = "SELECT " + " + ".join(["a"] * 50) + " FROM t"
        score = semantic_similarity(sql, sql)
        assert score.value == 1.0
        assert score.verdict == VERDICT_SCORED


class TestAliasInvariance:
    def test_added_count_alias_scores_one(self):
        score = semantic_similarity(
            "SELECT count(*) FROM t GROUP BY day",
            "SELECT count(*) AS count FROM t GROUP BY day",
        )
        assert score.value == 1.0

    def test_alias_add_remove_rename_never_changes_score(self):
        base = "SELECT a, b AS old_label FROM t WHERE c = 1"
        with_alias = render(add_column_alias(parse(base)))
        renamed = render(rename_column_alias(parse(base)))
        without = "SELECT a, b FROM t WHERE c = 1"
        for predicted in (with_alias, renamed, without):
            assert semantic_similarity(base, predicted).value == 1.0

    def test_table_alias_noise_scores_one(self):
        score = semantic_similarity(
            "SELECT a, b FROM t WHERE c = 1",
            "SELECT x.a, x.b FROM t AS x WHERE x.c = 1",
        )
        assert score.value == 1.0

    def test_cte_rename_is_an_alias_change(self):
        score = semantic_similarity(
            "WITH c AS (SELECT a FROM t) SELECT c.a FROM c",
            "WITH d AS (SELECT a FROM t) SELECT d.a FROM d",
        )
        assert score.value == 1.0

    def test_multi_cte_rename_with_qualified_refs(self):
        truth = (
            "WITH c1 AS (SELECT sum(v) AS s FROM m WHERE k = 'a'), "
            "c2 AS (SELECT sum(v) AS s FROM m WHERE k = 'b') "
            "SELECT c1.s, c2.s FROM c1, c2"
        )
        renamed = truth.replace("c1", "x").replace("c2", "y")
        assert semantic_similarity(truth, renamed).value == 1.0
        # but a renamed column inside the CTE still counts
        relabeled_col = truth.replace("c1.s", "c1.wrong")
        assert semantic_similarity(truth, relabeled_col).value < 1.0


class TestTableDominance:
    def test_changed_table_scores_zero(self):
        score = semantic_similarity("SELECT a, b FROM t", "SELECT a, b FROM t2")
        assert score.value == 0.0
        assert score.verdict == VERDICT_SCORED
        assert score.breakdown.rule == RULE_TABLE_MISMATCH
        assert score.breakdown.raw_ratio == 1.0

    def test_added_join_table_scores_zero(self):
        score = semantic_similarity("SELECT a FROM t", "SELECT a FROM t JOIN u ON t.k = u.k")
        assert score.breakdown.rule == RULE_TABLE_MISMATCH
        assert score.value == 0.0

    def test_table_inside_cte_body_dominates(self):
        score = semantic_similarity(
            "WITH c AS (SELECT a FROM t) SELECT a FROM c",
            "WITH c AS (SELECT a FROM t2) SELECT a FROM c",
        )
        assert score.value == 0.0

    def test_dominates_despite_other_similarity(self):
        truth = "SELECT a, b, c, d, e FROM t WHERE x = 1 ORDER BY a LIMIT 10"
        predicted = truth.replace("FROM t ", "FROM other ")
        assert semantic_similarity(truth, predicted).value == 0.0

    @pytest.mark.parametrize("sql", [q for q in FIXTURE_QUERIES][:10], ids=range(10))
    def test_fixture_queries_with_swapped_table(self, sql):
        predicted = render(swap_table(parse(sql)))
        assert semantic_similarity(sql, predicted).value == 0.0


class TestPartialCredit:
    def test_deleted_column_golden_value(self):
        # hand trace: statement, select-list, b and t pair up (4 ops), a is
        # deleted (1 op) -> size_union 5, one counted change -> 1 - 1/5
        score = semantic_similarity("SELECT a, b FROM t", "SELECT b FROM t")
        assert score.value == pytest.approx(0.8)
        assert 0.0 < score.value < 1.0
        assert score.breakdown.size_union == 5
        assert score.breakdown.diff_count == 1

    def test_monotone_in_number_of_edits(self):
        truth = "SELECT a, b FROM t WHERE c = 5 AND d = 7 ORDER BY a LIMIT 3"
        size_union = parse(truth).node_count
        edits = [
            truth.replace("c = 5", "c = 6"),
            truth.replace("c = 5", "c = 6").replace("d = 7", "d = 8"),
            truth.replace("c = 5", "c = 6").replace("d = 7", "d = 8").replace("LIMIT 3", "LIMIT 4"),
        ]
        previous = 1.0
        for k, predicted in enumerate(edits, start=1):
            value = semantic_similarity(truth, predicted).value
            assert value == pytest.approx(1.0 - k / size_union)
            assert value < previous
            previous = value

    def test_monotone_on_fixture_query(self):
        # three independent single-literal edits on a real fixture query
        truth = (
            "SELECT ts, value FROM system_metrics WHERE metric = 'cpu_util' "
            "AND host_id = 1 AND ts >= datetime('now', '-14 days') ORDER BY ts"
        )
        assert truth in FIXTURE_QUERIES
        n = parse(truth).node_count
        replacements = [("'cpu_util'", "'mem_util'"), ("host_id = 1", "host_id = 2"), ("'-14 days'", "'-13 days'")]
        predicted = truth
        for k, (old, new) in enumerate(replacements, start=1):
            predicted = predicted.replace(old, new)
            assert semantic_similarity(truth, predicted).value == pytest.approx(1.0 - k / n)

    def test_single_literal_edit_on_sample_count_query(self):
        truth = "SELECT count(*) FROM pre_ranking_filter_log WHERE task = 342111 AND filter_key = 'o_rta_filter'"
        predicted = truth.replace("342111", "342999")
        n = parse(truth).node_count
        assert semantic_similarity(truth, predicted).value == pytest.approx(1.0 - 1.0 / n)


class TestInvalidPrediction:
    @pytest.mark.parametrize("junk", ["not sql at all", "", "SELECT FROM", "SELEC x FRM t", "DROP TABLE t"])
    def test_unparseable_prediction_scores_zero(self, junk):
        score = semantic_similarity("SELECT a FROM t", junk)
        assert score.value == 0.0
        assert score.verdict == VERDICT_INVALID

    def test_invalid_ground_truth_is_a_corpus_error(self):
        with pytest.raises(CorpusError):
            semantic_similarity("definitely not sql", "SELECT a FROM t")


class TestRange:
    def test_scores_always_in_unit_interval(self):
        rng = random.Random(7)
        for _ in range(300):
            truth = random_query(rng)
            predicted = random_query(rng)
            score = semantic_similarity(truth, predicted)
            assert 0.0 <= score.value <= 1.0
            assert 0.0 <= score.breakdown.raw_ratio <= 1.0

    def test_breakdown_counts_are_consistent(self):
        rng = random.Random(13)
        for _ in range(100):
            truth, predicted = parse(random_query(rng)), parse(random_query(rng))
            score = semantic_similarity(render(truth), render(predicted))
            b = score.breakdown
            pairs = b.keeps + b.moves + b.updates
            assert pairs + b.deletes == truth.node_count
            assert pairs + b.inserts == predicted.node_count
            assert b.size_union == pairs + b.deletes + b.inserts

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan")])
    def test_value_outside_unit_interval_raises_value_error(self, value):
        with pytest.raises(ValueError):
            SemanticScore(value, VERDICT_SCORED, ScoreBreakdown())

    def test_range_is_checked_with_assertions_off(self):
        code = "from sqlscore import ScoreBreakdown, SemanticScore\ntry:\n    SemanticScore(1.5, 'scored', ScoreBreakdown())\nexcept ValueError:\n    print('refused')"
        src = str(Path(semantic.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "refused\n"), proc.stderr


def test_score_agrees_with_the_edit_script_reference():
    """Scoring the matcher's classification gives the score, verdict and
    breakdown that reading ``diff``'s edit script op by op gives."""
    fixture = [parse(sql) for sql in FIXTURE_QUERIES]
    pairs = [(truth, predicted) for truth in fixture for predicted in fixture]
    rng = random.Random(21)
    for _ in range(100):
        truth = parse(random_query(rng))
        pairs.append((truth, parse(random_query(rng))))
        for mutate in (swap_table, add_column_alias, drop_select_column):
            try:
                pairs.append((truth, mutate(truth)))
            except (StopIteration, AssertionError):  # no item to alias, or one to drop
                pass
    cte = "WITH c1 AS (SELECT sum(v) AS s FROM m WHERE k = 'a'), c2 AS (SELECT sum(v) AS s FROM m) SELECT c1.s, c2.s FROM c1, c2"
    renamed = [cte.replace("c1", "x"), cte.replace("c1.s", "c1.wrong"), cte.replace("FROM m)", "FROM n)"), cte.replace("c1, c2", "c1, c2, m")]
    pairs += [(parse(cte), parse(sql)) for sql in renamed]
    indexes = {truth: _TreeIndex(truth) for truth in dict.fromkeys(truth for truth, _ in pairs)}
    rules = set()
    for truth, predicted in pairs:
        index = indexes[truth]
        script = diff(index, predicted)
        score = semantic_score_from_asts(index, predicted)
        assert score == score_edit_script(script), (render(truth), render(predicted))
        b = score.breakdown
        assert {"keep": b.keeps, "move": b.moves, "update": b.updates, "insert": b.inserts, "delete": b.deletes} == script.counts()
        rules.add(b.rule)
    assert rules == {RULE_NORMAL, RULE_TABLE_MISMATCH}


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 17: _resolve_aliases rewrites the outer alias c inside the subquery that reads campaigns itself, so both comparisons read city = city",
)
def test_correlated_comparison_with_a_wrong_correlation_scores_below_one():
    truth = "SELECT c.name FROM campaigns c WHERE c.budget > (SELECT avg(x.budget) FROM campaigns x WHERE x.city = c.city)"
    wrong = truth.replace("x.city = c.city", "x.city = x.city")
    assert semantic_similarity(truth, wrong).value < 1
