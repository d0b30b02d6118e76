import dataclasses
import gc
import json
import random
import re
import sqlite3
import sys
import types
import weakref

import pytest

from sqlscore import (
    DEFAULT_ANCHOR,
    BenchmarkQuestion,
    ConfigError,
    CorpusError,
    EvalOptions,
    Prediction,
    ResultTable,
    anchor_sql,
    build_fixture_database,
    evaluate,
    get_predictions,
    report_to_json,
    score_pair,
    validate_corpus,
)
from sqlscore import adapters, parse, parser, results, runner, semantic
from sqlscore.results import VERDICT_EXECUTION_ERROR, VERDICT_INVALID
from sqlscore.semantic import semantic_score_from_asts

from helpers import add_column_alias, coinciding_warnings, drop_select_column, lookup_model, random_query, swap_table


def identity_predictions(questions):
    return [Prediction(q.id, q.query) for q in questions]


def count_parse_calls(monkeypatch) -> list:
    """Route every sqlscore module's reference to ``parser.parse`` through a
    counting wrapper; returns the list that grows by one per call."""
    original, calls = parser.parse, []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "sqlscore" or name.startswith("sqlscore.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


class TestEvaluate:
    def test_identity_fixed_point(self, questions, db_dir):
        report = evaluate(questions, identity_predictions(questions), db_dir)
        assert report.overall.count == len(questions)
        assert report.overall.semantic == 1.0
        assert report.overall.precision == 1.0
        assert report.overall.recall == 1.0
        assert report.overall.f1 == 1.0
        for r in report.instances:
            assert r.semantic.value == 1.0 and r.result.f1 == 1.0

    def test_every_question_appears_exactly_once(self, questions, db_dir):
        report = evaluate(questions, identity_predictions(questions), db_dir)
        assert [r.question_id for r in report.instances] == [q.id for q in questions]

    def test_table_swapped_prediction_drags_category_mean(self, questions, db_dir):
        predictions = identity_predictions(questions)
        target = next(i for i, q in enumerate(questions) if q.case_type == "rank")
        swapped = questions[target].query.replace("campaigns", "system_metrics").replace("metric_log_real", "hosts").replace("system_metrics", "campaigns_other")
        predictions[target] = Prediction(questions[target].id, swapped)
        report = evaluate(questions, predictions, db_dir)
        rank = report.by_case_type["rank"]
        n = rank.count
        assert rank.semantic == pytest.approx((n - 1) / n)
        assert report.overall.semantic < 1.0

    def test_missing_prediction_scores_invalid(self, questions, db_dir):
        report = evaluate(questions, [], db_dir)
        assert report.overall.semantic == 0.0
        assert all(r.semantic.verdict == "invalid_prediction" for r in report.instances)
        assert all(r.result.verdict == VERDICT_INVALID for r in report.instances)

    def test_deeply_signed_prediction_scores_invalid(self, questions, db_dir):
        q = questions[0]
        report = evaluate([q], [Prediction(q.id, "SELECT " + "- " * 3000 + "1")], db_dir)
        r = report.instances[0]
        assert r.semantic.verdict == VERDICT_INVALID
        assert r.result.verdict == VERDICT_INVALID

    def test_each_query_parsed_once(self, questions, db_dir, monkeypatch):
        calls = count_parse_calls(monkeypatch)
        evaluate(questions, identity_predictions(questions), db_dir)
        assert len(calls) == len(questions)  # an identity prediction takes its truth's reading

    def test_executable_but_wrong_prediction(self, questions, db_dir):
        q = questions[0]
        predictions = [Prediction(q.id, "SELECT 123456")]
        report = evaluate([q], predictions, db_dir)
        r = report.instances[0]
        assert r.result.verdict == "scored"
        assert r.result.f1 == 0.0
        assert 0.0 <= r.semantic.value < 1.0

    def test_prediction_with_engine_error(self, questions, db_dir):
        q = questions[0]
        predictions = [Prediction(q.id, "SELECT no_such_column FROM campaigns")]
        report = evaluate([q], predictions, db_dir)
        r = report.instances[0]
        assert r.result.verdict == VERDICT_EXECUTION_ERROR
        assert r.result.f1 == 0.0
        assert r.semantic is not None  # statement similarity still scored

    def test_corpus_error_excluded_from_means(self, questions, db_dir):
        broken = BenchmarkQuestion(
            db_id="benchmark_1",
            query="SELECT definitely FROM",
            question="broken",
            language="en",
            case_type="filtering",
            id="broken-q",
        )
        subset = [questions[0], broken]
        predictions = [Prediction(questions[0].id, questions[0].query), Prediction("broken-q", "SELECT 1")]
        report = evaluate(subset, predictions, db_dir)
        assert report.overall.count == 1
        assert report.overall.semantic == 1.0  # the broken instance does not drag the mean
        excluded = report.instances[1]
        assert excluded.excluded and "parse" in excluded.warning
        assert len(report.corpus_errors) == 1

    def test_unexecutable_truth_is_corpus_error(self, questions, db_dir):
        broken = BenchmarkQuestion(
            db_id="benchmark_1",
            query="SELECT ghost_column FROM campaigns",
            question="broken",
            language="en",
            case_type="filtering",
            id="broken-exec",
        )
        report = evaluate([broken], [Prediction("broken-exec", "SELECT 1")], db_dir)
        assert report.instances[0].excluded
        assert report.overall.count == 0
        assert report.overall.semantic is None

    def test_missing_database_is_config_error(self, questions, tmp_path):
        with pytest.raises(ConfigError, match="missing database file"):
            evaluate(questions, identity_predictions(questions), tmp_path)

    def test_empty_corpus_is_config_error(self, db_dir):
        with pytest.raises(ConfigError, match="no questions"):
            evaluate([], [], db_dir)

    @pytest.mark.parametrize("bad_id", [(1, 2), [1], {"a": 1}], ids=["tuple", "list", "dict"])
    def test_id_that_is_not_a_json_scalar_is_config_error(self, questions, db_dir, bad_id):
        with pytest.raises(ConfigError, match="question id " + re.escape(repr(bad_id))):
            evaluate([dataclasses.replace(questions[0], id=bad_id)], [], db_dir)
        with pytest.raises(ConfigError, match="prediction id " + re.escape(repr(bad_id))):
            evaluate(questions, [Prediction(bad_id, "SELECT 1")], db_dir)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_id_is_config_error(self, questions, db_dir, literal):
        bad_id = json.loads(literal)
        with pytest.raises(ConfigError, match="question id " + re.escape(repr(bad_id))):
            evaluate([dataclasses.replace(questions[0], id=bad_id)], [], db_dir)
        with pytest.raises(ConfigError, match="prediction id " + re.escape(repr(bad_id))):
            evaluate(questions, [Prediction(bad_id, "SELECT 1")], db_dir)

    def test_bool_and_int_ids_get_their_own_predictions(self, questions, db_dir):
        corpus = [dataclasses.replace(questions[0], id=True), dataclasses.replace(questions[1], id=1)]
        report = evaluate(corpus, [Prediction(True, "SELECT 42"), Prediction(1, questions[1].query)], db_dir)
        assert [r.predicted_sql for r in report.instances] == ["SELECT 42", questions[1].query]

    def test_ids_match_exactly_as_json_values(self, questions, db_dir):
        corpus = [dataclasses.replace(q, id=i) for q, i in zip(questions, [1, "2", True, "x"])]
        predictions = [Prediction("1", "SELECT 1"), Prediction(2, "SELECT 2"), Prediction("true", "SELECT 3"), Prediction("x", "SELECT 4")]
        report = evaluate(corpus, predictions, db_dir)
        assert [r.predicted_sql for r in report.instances] == ["", "", "", "SELECT 4"]

    def test_deterministic_reports(self, questions, db_dir):
        first = evaluate(questions, identity_predictions(questions), db_dir)
        second = evaluate(questions, identity_predictions(questions), db_dir)
        assert report_to_json(first) == report_to_json(second)

    def test_overall_mean_is_count_weighted_category_mean(self, questions, db_dir):
        predictions = identity_predictions(questions)
        predictions[0] = Prediction(questions[0].id, "SELECT 1")  # degrade one instance
        report = evaluate(questions, predictions, db_dir)
        total = sum(agg.count for agg in report.by_case_type.values())
        weighted = sum(agg.semantic * agg.count for agg in report.by_case_type.values()) / total
        assert report.overall.semantic == pytest.approx(weighted)
        weighted_f1 = sum(agg.f1 * agg.count for agg in report.by_case_type.values()) / total
        assert report.overall.f1 == pytest.approx(weighted_f1)


def record_connections(monkeypatch) -> list:
    """Wrap ``sqlite3.connect``; returns the list of connections it opens."""
    original, opened = sqlite3.connect, []

    def recording(*args, **kwargs):
        conn = original(*args, **kwargs)
        opened.append(conn)
        return conn

    monkeypatch.setattr(sqlite3, "connect", recording)
    return opened


def assert_all_closed(connections) -> None:
    for conn in connections:
        with pytest.raises(sqlite3.ProgrammingError):
            conn.execute("SELECT 1")


def count_lexings(monkeypatch) -> list:
    """Record each text the tokenizer lexes: its regex is routed through a recorder."""
    pattern, lexed = parser._TOKEN_RE, []

    class Recorder:
        def finditer(self, sql):
            lexed.append(sql)
            return pattern.finditer(sql)

    monkeypatch.setattr(parser, "_TOKEN_RE", Recorder())
    return lexed


def tripled(questions) -> list:
    """Three copies of every question, with fresh ids, copy after copy."""
    return [dataclasses.replace(q, id=f"{q.id}-copy{k}") for k in range(3) for q in questions]


def mixed_predictions(questions) -> list:
    """Identity, wrong-but-executable and unparseable predictions in turn."""
    sqls = [q.query if i % 3 == 0 else "SELECT 1" if i % 3 == 1 else "not sql" for i, q in enumerate(questions)]
    return [Prediction(q.id, sql) for q, sql in zip(questions, sqls)]


class TestTruthSharing:
    def test_shared_truths_score_as_single_copies(self, questions, db_dir):
        single = evaluate(questions, mixed_predictions(questions), db_dir)
        copies = tripled(questions)
        sql_of = {p.question_id: p.sql for p in mixed_predictions(questions)}
        predictions = [Prediction(c.id, sql_of[q.id]) for c, q in zip(copies, questions * 3)]
        report = evaluate(copies, predictions, db_dir)
        assert len(report.instances) == 3 * len(questions)
        for r, expected in zip(report.instances, list(single.instances) * 3):
            assert dataclasses.replace(r, question_id=expected.question_id) == expected

    def test_each_distinct_truth_parsed_once(self, questions, db_dir, monkeypatch):
        copies = tripled(questions)
        distinct = len({(q.db_id, q.query) for q in copies})
        calls = count_parse_calls(monkeypatch)
        evaluate(copies, identity_predictions(copies), db_dir)
        assert len(calls) == distinct  # each truth once, and its identity prediction takes that reading
        calls.clear()
        assert validate_corpus(copies, db_dir) == []
        assert len(calls) == distinct

    def test_each_distinct_text_lexed_once(self, questions, db_dir, monkeypatch):
        """A text is parsed and then run with its clock anchored; both read one lexing."""
        copies = tripled(questions)
        distinct = len({(q.db_id, q.query) for q in copies})
        assert len({q.query for q in copies}) == distinct
        assert sum(anchor_sql(q.query) != q.query for q in questions) >= 5  # the clock pass runs
        # per truth: itself and two respellings as predictions
        predictions = [Prediction(c.id, c.query + " " * (i // len(questions))) for i, c in enumerate(copies)]
        lexed = count_lexings(monkeypatch)
        evaluate(copies, predictions, db_dir)
        assert len(lexed) == len(set(lexed)) == 3 * distinct
        lexed.clear()
        assert validate_corpus(copies, db_dir) == []
        assert sorted(lexed) == sorted({q.query for q in copies})

    def test_one_connection_per_database(self, questions, db_dir, monkeypatch):
        copies = tripled(questions)
        opened = record_connections(monkeypatch)
        evaluate(copies, identity_predictions(copies), db_dir)
        assert len(opened) == len({q.db_id for q in copies})

    def test_bad_truth_shared_by_three_questions(self, db_dir):
        broken = BenchmarkQuestion("benchmark_1", "SELECT definitely FROM", "broken", "en", "filtering", id="broken")
        copies = tripled([broken])
        report = evaluate(copies, [Prediction(c.id, "SELECT 1") for c in copies], db_dir)
        assert len(report.corpus_errors) == 3
        assert [e.split(":")[0] for e in report.corpus_errors] == [f"question {c.id}" for c in copies]
        assert all("does not parse" in e for e in report.corpus_errors)

    def test_at_most_one_prepared_truth_alive(self, questions, db_dir, monkeypatch):
        """The copies interleave the truths, yet each prepared truth is
        dropped once the next one has been prepared."""
        prepared, alive = [], []

        def tracking(*args, original=runner._truth):
            if sum(ref() is not None for ref in prepared) > 1:
                gc.collect()  # only a reference cycle could still hold them
            alive.append(sum(ref() is not None for ref in prepared))
            truth = original(*args)
            prepared.append(weakref.ref(truth))
            return truth

        monkeypatch.setattr(runner, "_truth", tracking)
        copies = tripled(questions)
        evaluate(copies, [Prediction(c.id, p.sql) for c, p in zip(copies, mixed_predictions(questions) * 3)], db_dir)
        assert len(prepared) == len({(q.db_id, q.query) for q in copies}) > 1
        assert max(alive) <= 1

    def test_same_query_on_two_databases_runs_on_each(self, db_dir):
        query = "SELECT count(*) FROM campaigns"  # benchmark_2 has no such table
        on_1 = BenchmarkQuestion("benchmark_1", query, "q", "en", "aggregation", id="on-1")
        on_2 = BenchmarkQuestion("benchmark_2", query, "q", "en", "aggregation", id="on-2")
        report = evaluate([on_1, on_2, on_1], [Prediction("on-1", query), Prediction("on-2", query)], db_dir)
        assert [r.excluded for r in report.instances] == [False, True, False]


def count_score_calls(monkeypatch) -> list:
    """Wrap ``runner._score_prediction``; returns the list of (predicted SQL,
    connection) pairs it is called with."""
    original, calls = runner._score_prediction, []

    def counting(truth, predicted_sql, db, anchor, options):
        calls.append((predicted_sql, db))
        return original(truth, predicted_sql, db, anchor, options)

    monkeypatch.setattr(runner, "_score_prediction", counting)
    return calls


class TestScoreSharing:
    def test_each_distinct_triple_scored_once(self, questions, db_dir, monkeypatch):
        copies = tripled(questions)
        predictions = [Prediction(c.id, p.sql) for c, p in zip(copies, mixed_predictions(questions) * 3)]
        distinct = len({(c.db_id, c.query, p.sql) for c, p in zip(copies, predictions)})
        calls = count_score_calls(monkeypatch)
        report = evaluate(copies, predictions, db_dir)
        assert len(calls) == distinct < len(copies)
        assert [r.predicted_sql for r in report.instances] == [p.sql for p in predictions]
        assert [r.question_id for r in report.instances] == [c.id for c in copies]

    def test_same_texts_on_two_databases_scored_on_each(self, db_dir, monkeypatch):
        query = "SELECT count(*) FROM sqlite_master WHERE type = 'table'"  # 5 tables in benchmark_1, 3 in benchmark_2
        on_1 = BenchmarkQuestion("benchmark_1", query, "q", "en", "aggregation", id="on-1")
        on_2 = BenchmarkQuestion("benchmark_2", query, "q", "en", "aggregation", id="on-2")
        calls = count_score_calls(monkeypatch)
        report = evaluate([on_1, on_2, on_1, on_2], [Prediction("on-1", "SELECT 5"), Prediction("on-2", "SELECT 5")], db_dir)
        assert len(calls) == 2 and calls[0][1] is not calls[1][1]
        assert [r.result.f1 for r in report.instances] == [1.0, 0.0, 1.0, 0.0]

    def test_one_prediction_against_two_truths_scored_against_each(self, db_dir, monkeypatch):
        one = BenchmarkQuestion("benchmark_1", "SELECT 1", "q", "en", "aggregation", id="one")
        two = BenchmarkQuestion("benchmark_1", "SELECT 2", "q", "en", "aggregation", id="two")
        calls = count_score_calls(monkeypatch)
        report = evaluate([one, two, one, two], [Prediction("one", "SELECT 1"), Prediction("two", "SELECT 1")], db_dir)
        assert len(calls) == 2
        assert [r.result.f1 for r in report.instances] == [1.0, 0.0, 1.0, 0.0]


def test_no_reading_outlives_its_instance(questions, db_dir):
    """Broken truths and predictions that do not parse or fail in SQLite
    leave no sqlscore frame in a reference cycle."""
    corpus = questions + [
        BenchmarkQuestion("benchmark_1", "SELECT definitely FROM", "q", "en", "filtering", id="unparsed"),
        BenchmarkQuestion("benchmark_1", "SELECT nope FROM campaigns", "q", "en", "filtering", id="unrun"),
    ]
    sqls = ["not sql", "SELECT nope FROM campaigns", "SELECT name FROM campaigns WHERE"]
    predictions = [Prediction(q.id, sqls[i % 4] if i % 4 < 3 else q.query) for i, q in enumerate(corpus)]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        evaluate(corpus, predictions, db_dir)
        validate_corpus(corpus, db_dir)
        gc.collect()
        frames = [(o.f_globals.get("__name__", ""), o.f_code.co_name) for o in gc.garbage if isinstance(o, types.FrameType)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert [(module, name) for module, name in frames if module.partition(".")[0] == "sqlscore"] == []


class TestPreparedTruth:
    def test_prepared_truth_scores_like_a_fresh_diff(self):
        rng = random.Random(0)
        root = parse("WITH c AS (SELECT a, count(*) AS n FROM t WHERE b > 1 AND c = 'x' GROUP BY a) SELECT a, n FROM c ORDER BY n DESC")
        predictions = [root, swap_table(root), add_column_alias(root), drop_select_column(root)]
        predictions += [parse(random_query(rng)) for _ in range(40)]
        predictions += [parse("WITH d AS (SELECT a, count(*) AS n FROM t WHERE c = 'x' AND b > 1 GROUP BY a) SELECT a, n AS m FROM d")]
        rng.shuffle(predictions)
        index = runner.Truth("", root, ResultTable((), ()), []).index
        keys = len(index.keys)
        scores = [semantic_score_from_asts(index, p) for p in predictions]
        assert scores == [semantic_score_from_asts(root, p) for p in predictions]
        assert len(index.keys) == keys
        assert {s.value for s in scores} > {0.0, 1.0}

    def test_truth_and_validation_leave_the_index_unbuilt(self, questions, db_dir, monkeypatch):
        def refusing(root):
            raise AssertionError("a truth's diff index was built")

        monkeypatch.setattr(runner, "_TreeIndex", refusing)
        truth = runner._truth(questions[0].query, db_dir / f"{questions[0].db_id}.sqlite", DEFAULT_ANCHOR, EvalOptions())
        assert "index" not in vars(truth)
        assert validate_corpus(questions, db_dir) == []

    def test_index_built_once_per_truth_with_a_scored_prediction(self, questions, db_dir, monkeypatch):
        built = []
        monkeypatch.setattr(runner, "_TreeIndex", lambda root, original=runner._TreeIndex: built.append(root) or original(root))
        copies = tripled(questions)
        predictions = [Prediction(c.id, p.sql) for c, p in zip(copies, mixed_predictions(questions) * 3)]
        evaluate(copies, predictions, db_dir)
        scored = {(c.db_id, c.query) for c, p in zip(copies, predictions) if p.sql != "not sql"}
        assert len(built) == len(scored) < len(copies)


def test_one_diff_per_distinct_parseable_triple(questions, db_dir, monkeypatch):
    """The runner calls ``semantic_score_from_asts`` and the scoring path
    matches the two trees (``semantic._Matcher``) once per distinct scored
    triple, with arguments that report their node counts."""
    calls: dict[str, list] = {"score": [], "diff": []}

    def counting(name, fn):
        def wrapper(*args):
            calls[name].append(args[0].node_count + args[1].node_count)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(runner, "semantic_score_from_asts", counting("score", runner.semantic_score_from_asts))
    monkeypatch.setattr(semantic, "_Matcher", counting("diff", semantic._Matcher))
    copies = tripled(questions)
    sqls = [[q.query, questions[j - 1].query, "SELECT 1", "not sql"][j % 4] for j, q in enumerate(questions)]
    predictions = [Prediction(c.id, sql) for c, sql in zip(copies, sqls * 3)]
    evaluate(copies, predictions, db_dir)
    triples = {(c.db_id, c.query, p.sql) for c, p in zip(copies, predictions) if p.sql != "not sql"}
    expected = sorted(parse(truth).node_count + parse(sql).node_count for _, truth, sql in triples)
    assert sorted(calls["score"]) == sorted(calls["diff"]) == expected
    assert len(expected) < len(copies)


class TestSharedConnection:
    def test_failed_predictions_leave_connection_usable(self, questions, db_dir):
        q = next(q for q in questions if q.db_id == "benchmark_1")
        heavy = (
            "SELECT count(*) FROM metric_log_real AS a CROSS JOIN metric_log_real AS b "
            "CROSS JOIN metric_log_real AS c CROSS JOIN metric_log_real AS d"
        )
        valid = q.query.replace("SELECT ", "SELECT 1, ", 1)
        copies = [dataclasses.replace(q, id=name) for name in ("timeout", "engine", "valid")]
        predictions = [
            Prediction("timeout", heavy),
            Prediction("engine", "SELECT no_such_column FROM campaigns"),
            Prediction("valid", valid),
        ]
        options = EvalOptions(query_timeout_s=0.05)
        report = evaluate(copies, predictions, db_dir, options=options)
        timed_out, engine_error, scored = report.instances
        assert timed_out.result.verdict == engine_error.result.verdict == VERDICT_EXECUTION_ERROR
        alone = evaluate([copies[2]], [predictions[2]], db_dir, options=options).instances[0]
        assert scored == alone
        assert scored.result.verdict == "scored" and 0.0 < scored.result.f1 < 1.0

    def test_database_files_unchanged(self, questions, db_dir):
        files = sorted(db_dir.glob("*.sqlite"))
        before = [f.read_bytes() for f in files]
        evaluate(questions, mixed_predictions(questions), db_dir)
        validate_corpus(questions, db_dir)
        assert sorted(db_dir.glob("*.sqlite")) == files
        assert [f.read_bytes() for f in files] == before

    def test_connections_closed_after_evaluate_and_validate(self, questions, db_dir, monkeypatch):
        opened = record_connections(monkeypatch)
        evaluate(questions, mixed_predictions(questions), db_dir)
        validate_corpus(questions, db_dir)
        assert opened
        assert_all_closed(opened)

    def test_connections_closed_on_config_error(self, questions, db_dir, tmp_path, monkeypatch):
        (tmp_path / "benchmark_1.sqlite").write_bytes((db_dir / "benchmark_1.sqlite").read_bytes())
        opened = record_connections(monkeypatch)
        with pytest.raises(ConfigError, match="missing database file"):
            evaluate(questions, identity_predictions(questions), tmp_path)
        assert_all_closed(opened)


class TestValidateCorpus:
    def test_shipped_fixtures_are_clean(self, questions, db_dir):
        assert validate_corpus(questions, db_dir) == []

    def test_each_truth_parsed_once(self, questions, db_dir, monkeypatch):
        calls = count_parse_calls(monkeypatch)
        for corpus in (questions, tripled(questions)):
            calls.clear()
            assert validate_corpus(corpus, db_dir) == []
            assert len(calls) == len(questions) == len({(q.db_id, q.query) for q in corpus})

    def test_warning_order_on_a_shuffled_corpus_with_shared_truths(self, tmp_path):
        """Missing databases first, then per question: corpus errors and zero
        rows, coinciding pairs in (i, j) order, range problems."""
        db_dir = tmp_path / "db"
        for db_id in ("benchmark_1", "benchmark_2"):
            build_fixture_database(db_id, db_dir / f"{db_id}.sqlite")
        conn = sqlite3.connect(db_dir / "benchmark_2.sqlite")
        conn.execute("DELETE FROM system_metrics WHERE ts < '2023-01-06 00:00:00'")
        conn.commit()
        conn.close()
        window = "SELECT ts FROM system_metrics WHERE ts >= datetime('now', '-14 days')"
        count, top = "SELECT count(*) FROM campaigns", "SELECT max(campaign_id) FROM campaigns"
        spec = [
            ("window1", "benchmark_2", window, "time_period"),
            ("count1", "benchmark_1", count, "aggregation"),
            ("gone", "nowhere", "SELECT 1", "aggregation"),
            ("bad1", "benchmark_1", "SELECT count(*", "aggregation"),
            ("top", "benchmark_1", top, "aggregation"),
            ("zero1", "benchmark_1", "SELECT campaign_id FROM campaigns WHERE 0", "filtering"),
            ("window2", "benchmark_2", window, "time_period"),
            ("count2", "benchmark_1", count, "aggregation"),
            ("bad2", "benchmark_1", "SELECT count(*", "aggregation"),
            ("zero2", "benchmark_1", "SELECT campaign_id FROM campaigns WHERE 0", "filtering"),
        ]
        corpus = [BenchmarkQuestion(db_id, query, "q", "en", case_type, id=qid) for qid, db_id, query, case_type in spec]
        parse_error = "truth query does not parse: expected ')' at end of input (at offset 14)"
        coincide = "distinct queries over campaigns produce identical results (degenerate fixture data)"
        bracket = (
            "table system_metrics data range [2023-01-06 00:00:00, 2023-01-17 00:00:00] "
            "does not bracket the anchor-relative window [2023-01-03 00:00:00, 2023-01-17 00:00:00]"
        )
        assert validate_corpus(corpus, db_dir) == [
            f"db nowhere: database file missing: {db_dir / 'nowhere.sqlite'}",
            f"question bad1: {parse_error}",
            "question zero1: truth result has zero rows",
            f"question bad2: {parse_error}",
            "question zero2: truth result has zero rows",
            f"questions count1 and top: {coincide}",
            f"questions top and count2: {coincide}",
            f"question window1: {bracket}",
            f"question window2: {bracket}",
        ]

    def test_truncated_query_warns(self, questions, db_dir):
        broken = BenchmarkQuestion("benchmark_1", "SELECT count(*", "q", "en", "filtering", id="trunc")
        warnings = validate_corpus([broken], db_dir)
        assert any("does not parse" in w for w in warnings)

    def test_emptied_table_warns_zero_rows(self, questions, tmp_path):
        db_dir = tmp_path / "db"
        for db_id in ("benchmark_1", "benchmark_2"):
            build_fixture_database(db_id, db_dir / f"{db_id}.sqlite")
        conn = sqlite3.connect(db_dir / "benchmark_1.sqlite")
        conn.execute("DELETE FROM campaigns")
        conn.commit()
        conn.close()
        warnings = validate_corpus(questions, db_dir)
        zero_rows = [w for w in warnings if "zero rows" in w]
        assert zero_rows  # every campaigns-only listing question trips it

    def test_degenerate_coinciding_results_warn(self, db_dir):
        # count(*) and min(campaign_id)+6 coincide on the fixture data: both 6
        a = BenchmarkQuestion("benchmark_1", "SELECT count(*) FROM campaigns", "q1", "en", "aggregation", id="a")
        b = BenchmarkQuestion("benchmark_1", "SELECT max(campaign_id) FROM campaigns", "q2", "en", "aggregation", id="b")
        warnings = validate_corpus([a, b], db_dir)
        assert any("identical results" in w for w in warnings)
        # shared truths are compared once but warned about per question pair, in (i, j) order
        copies = [dataclasses.replace(q, id=f"{q.id}{k}") for k in range(3) for q in (a, b)]
        expected = [(x.id, y.id) for i, x in enumerate(copies) for y in copies[i + 1 :] if x.query != y.query]
        warnings = validate_corpus(copies, db_dir)
        assert [tuple(w.split(":")[0].removeprefix("questions ").split(" and ")) for w in warnings] == expected

    # truths over campaigns (6 rows), and whether some pair of them coincides
    COINCIDING_CASES = {
        "exact keys, columns swapped": (["SELECT campaign_id, name FROM campaigns", "SELECT name, campaign_id FROM campaigns"], True),
        "a float within rel_tol of an integer": (
            ["SELECT count(*) FROM campaigns", "SELECT count(*) * 1.0000000001 FROM campaigns", "SELECT count(*) * 1.1 FROM campaigns"],
            True,
        ),
        "loose columns on both sides": (["SELECT campaign_id, budget / 7.0 FROM campaigns", "SELECT budget / 7.0, campaign_id FROM campaigns"], True),
        "all-NULL columns": (
            ["SELECT NULL FROM campaigns", "SELECT NULL AS n FROM campaigns", "SELECT NULL FROM campaigns WHERE campaign_id > 3", "SELECT max(NULL) FROM campaigns"],
            True,
        ),
        "zero rows": (
            ["SELECT name FROM campaigns WHERE 0", "SELECT budget FROM campaigns WHERE 0", "SELECT name, city FROM campaigns WHERE 0"],
            True,
        ),
        "equal shapes, different key multisets": (
            [
                "SELECT campaign_id FROM campaigns",
                "SELECT campaign_id + 1 FROM campaigns",
                "SELECT city FROM campaigns",
                "SELECT campaign_id, city FROM campaigns",
                "SELECT campaign_id + 1, city FROM campaigns",
            ],
            False,
        ),
    }

    @pytest.mark.parametrize("case", COINCIDING_CASES)
    def test_coinciding_check_equals_all_pairs(self, db_dir, case):
        queries, coinciding = self.COINCIDING_CASES[case]
        # every truth twice, so a shared truth is warned about per question pair
        corpus = [BenchmarkQuestion("benchmark_1", sql, "q", "en", "filtering", id=f"{k}.{n}") for k in range(2) for n, sql in enumerate(queries)]
        expected = coinciding_warnings(corpus, db_dir)
        assert bool(expected) is coinciding
        assert [w for w in validate_corpus(corpus, db_dir) if w.startswith("questions ")] == expected

    def test_coinciding_check_matches_only_pairs_whose_keys_agree(self, questions, db_dir, monkeypatch):
        calls = []
        monkeypatch.setattr(runner, "match_columns", lambda *args: calls.append(args) or results.match_columns(*args))
        assert validate_corpus(questions, db_dir) == coinciding_warnings(questions, db_dir) == []
        assert len(calls) == 9  # of the 31 distinct pairs of equal column count over the same tables

    def test_data_range_must_bracket_time_window(self, questions, tmp_path):
        db_dir = tmp_path / "db"
        for db_id in ("benchmark_1", "benchmark_2"):
            build_fixture_database(db_id, db_dir / f"{db_id}.sqlite")
        conn = sqlite3.connect(db_dir / "benchmark_2.sqlite")
        conn.execute("DELETE FROM system_metrics WHERE ts < '2023-01-06 00:00:00'")
        conn.commit()
        conn.close()
        time_questions = [q for q in questions if q.case_type == "time_period" and q.db_id == "benchmark_2"]
        warnings = validate_corpus(time_questions, db_dir)
        assert any("does not bracket" in w for w in warnings)
        # a shared truth is checked once but warned about once per question
        expected = [
            w.replace(f"question {q.id}:", f"question {q.id}-copy{k}:", 1)
            for k in range(3)
            for q in time_questions
            for w in warnings
            if w.startswith(f"question {q.id}:")
        ]
        assert validate_corpus(tripled(time_questions), db_dir) == expected

    def test_missing_database_file_warns(self, questions, tmp_path):
        warnings = validate_corpus(questions, tmp_path)
        assert any("database file missing" in w for w in warnings)

    def test_timestamp_column_with_a_quote_in_its_name(self, tmp_path):
        conn = sqlite3.connect(tmp_path / "quoted.sqlite")
        conn.execute('CREATE TABLE tt (v INTEGER, "a""b" DATETIME)')
        conn.execute("INSERT INTO tt VALUES (1, '2020-01-01 00:00:00')")
        conn.commit()
        conn.close()
        q = BenchmarkQuestion("quoted", """SELECT v FROM tt WHERE "a""b" >= datetime('now', '-14 days')""", "q", "en", "time_period", id="q")
        assert validate_corpus([q], tmp_path) == [
            "question q: truth result has zero rows",
            "question q: table tt data range [2020-01-01 00:00:00, 2020-01-01 00:00:00] "
            "does not bracket the anchor-relative window [2023-01-03 00:00:00, 2023-01-17 00:00:00]",
        ]

    def test_table_with_a_quote_in_its_name(self, tmp_path):
        conn = sqlite3.connect(tmp_path / "quoted.sqlite")
        conn.execute('CREATE TABLE "t""u" (v INTEGER, ts TEXT)')
        conn.execute("INSERT INTO \"t\"\"u\" VALUES (1, '2023-01-10 00:00:00')")
        conn.commit()
        conn.close()
        q = BenchmarkQuestion("quoted", """SELECT v FROM "t""u" WHERE ts >= datetime('now', '-14 days')""", "q", "en", "time_period", id="q")
        assert validate_corpus([q], tmp_path) == [
            'question q: table "t""u" data range [2023-01-10 00:00:00, 2023-01-10 00:00:00] '
            "does not bracket the anchor-relative window [2023-01-03 00:00:00, 2023-01-17 00:00:00]",
        ]


    @pytest.mark.parametrize(
        "columns, rows, where, expected",
        [
            # integer epochs: SQLite orders every number before every text
            (
                "ts INTEGER",
                [(1673308800,), (1673913600,)],
                "ts >= unixepoch(datetime('now', '-7 days'))",
                "table log data range [1673308800, 1673913600] does not bracket the anchor-relative window [2023-01-10 00:00:00, 2023-01-17 00:00:00]",
            ),
            ("ts", [(1673308800,), ("2023-01-20 00:00:00",)], "ts >= datetime('now', '-7 days')", None),
            (
                "a_ts INTEGER, b_ts TEXT",
                [(1673308800, "2023-01-12 00:00:00")],
                "b_ts >= datetime('now', '-7 days')",
                "table log data range [1673308800, 2023-01-12 00:00:00] does not bracket the anchor-relative window [2023-01-10 00:00:00, 2023-01-17 00:00:00]",
            ),
            ("ts TEXT, v INTEGER", [(None, 1)], "ts >= datetime('now', '-7 days')", "table log has no timestamped rows"),
            # no anchored bound: strftime('%Y', 'now') gives a year and time('now') a time of day, not a date
            ("ts TEXT", [("2020-01-01 00:00:00",)], "strftime('%Y', ts) = strftime('%Y', 'now')", None),
            ("ts TEXT", [("2020-01-01 00:00:00",)], "time(ts) >= time('now', '-1 hours')", None),
            # the anchor at any argument position, and current_date's date as the anchor
            *(
                (
                    "ts TEXT",
                    [("2020-01-01 00:00:00",)],
                    where,
                    f"table log data range [2020-01-01 00:00:00, 2020-01-01 00:00:00] does not bracket the anchor-relative window [{start}, 2023-01-17 00:00:00]",
                )
                for where, start in [
                    ("ts >= datetime('now', '-7 days')", "2023-01-10 00:00:00"),
                    ("ts >= datetime(current_date, '-7 days')", "2023-01-10 00:00:00"),
                    ("ts >= strftime('%Y-%m-%d', 'now', '-7 days')", "2023-01-10"),
                ]
            ),
            ("v TEXT", [("2020-01-01 00:00:00",)], "v >= datetime('now', '-7 days')", None),
            # a bound that reads a column cannot be evaluated away from the data
            ("ts TEXT, days INTEGER", [("2020-01-01 00:00:00", 7)], "ts >= datetime('now', '-' || days || ' days')", None),
            # more timestamp columns than one compound SELECT may hold
            (
                ", ".join(f"c{i}_ts TEXT" for i in range(600)),
                [tuple(f"2023-01-{1 + i % 12:02d} 00:00:00" for i in range(600))],
                "c0_ts >= datetime('now', '-7 days')",
                "table log data range [2023-01-01 00:00:00, 2023-01-12 00:00:00] does not bracket the anchor-relative window [2023-01-10 00:00:00, 2023-01-17 00:00:00]",
            ),
        ],
        ids=[
            "epochs", "mixed types in one column", "mixed types across columns", "null only", "no anchored bound",
            "time of day", "anchor first", "current_date first", "anchor second", "no timestamp column", "unevaluable bound", "600 columns",
        ],
    )
    def test_data_range_in_sqlite_order(self, tmp_path, columns, rows, where, expected):
        conn = sqlite3.connect(tmp_path / "d.sqlite")
        conn.execute(f"CREATE TABLE log ({columns})")
        conn.executemany(f"INSERT INTO log VALUES ({', '.join('?' * len(rows[0]))})", rows)
        conn.commit()
        conn.close()
        q = BenchmarkQuestion("d", f"SELECT count(*) FROM log WHERE {where}", "q", "en", "time_period", id="q")
        assert validate_corpus([q], tmp_path) == ([f"question q: {expected}"] if expected else [])


class TestScorePair:
    def test_missing_database_is_config_error(self, tmp_path):
        missing = tmp_path / "missing.sqlite"
        with pytest.raises(ConfigError, match=re.escape(str(missing))):
            score_pair("SELECT 1", "SELECT 1", missing, DEFAULT_ANCHOR, EvalOptions())

    def test_truth_and_prediction_share_one_connection(self, db_dir, monkeypatch):
        opened = []

        def counting(path):
            opened.append(path)
            return original(path)

        original = results._open_readonly
        monkeypatch.setattr(results, "_open_readonly", counting)
        monkeypatch.setattr(runner, "_open_readonly", counting)
        sql = "SELECT name FROM campaigns"
        semantic, result = score_pair(sql, sql, db_dir / "benchmark_1.sqlite", DEFAULT_ANCHOR, EvalOptions())
        assert semantic.value == result.f1 == 1.0
        assert opened == [db_dir / "benchmark_1.sqlite"]

    def test_one_outcome_per_text_per_run(self, db_dir):
        """A prediction whose text is its truth's takes the truth's rows; any
        other text is run on its own, so random() differs between the two."""
        truth, db = "SELECT name, random() AS r FROM campaigns", db_dir / "benchmark_1.sqlite"
        semantic, result = score_pair(truth, truth, db, DEFAULT_ANCHOR, EvalOptions())
        assert (semantic.value, result.precision, result.recall) == (1.0, 1.0, 1.0)
        semantic, result = score_pair(truth, truth + " ", db, DEFAULT_ANCHOR, EvalOptions())
        assert (semantic.value, result.precision, result.recall) == (1.0, 0.5, 0.5)


class TestTextExecution:
    """The result score runs the prediction's text; the parser feeds only the statement score."""

    def test_sql_the_parser_refuses_is_scored_on_its_rows(self, db_dir):
        truth = "SELECT city, count(*) FROM campaigns GROUP BY city"
        statement, result = score_pair(truth, truth + " HAVING count(*) >= 1", db_dir / "benchmark_1.sqlite", DEFAULT_ANCHOR, EvalOptions())
        assert (statement.value, statement.verdict) == (0.0, VERDICT_INVALID)
        assert (result.precision, result.recall, result.f1, result.verdict) == (1.0, 1.0, 1.0, "scored")

    def test_outer_alias_in_a_subquery_runs_as_written(self, tmp_path):
        db = tmp_path / "t.sqlite"
        with sqlite3.connect(db) as conn:
            conn.execute("CREATE TABLE t (a INTEGER, k INTEGER)")
            conn.executemany("INSERT INTO t VALUES (?, ?)", [(1, 1), (2, 5)])
        conn.close()
        sql = "SELECT u.a FROM t AS u WHERE u.k IN (SELECT u.a + t.a - t.a FROM t WHERE t.a = 2)"
        assert results.execute(sql, db).columns == ((1,),)
        _, result = score_pair("SELECT 1", sql, db, DEFAULT_ANCHOR, EvalOptions())
        assert result.f1 == 1.0

    # Python's sqlite3 refuses the last three itself, with errors that vary by version
    @pytest.mark.parametrize("sql", ["", "  \n", "-- nothing", "/* nothing */", ";", "SELECT 1; SELECT 2", "SELECT 1\x00", "SELECT '\ud800"])
    def test_text_with_no_single_statement_is_invalid(self, questions, db_dir, sql):
        report = evaluate(questions[:1], [Prediction(questions[0].id, sql)], db_dir)
        r = report.instances[0]
        assert (r.semantic.verdict, r.result.verdict, r.result.f1) == (VERDICT_INVALID, VERDICT_INVALID, 0.0)

    @pytest.mark.parametrize("sql", [None, 5, b"SELECT 1"], ids=["None", "int", "bytes"])
    def test_sql_that_is_no_str_reads_as_the_empty_text(self, questions, db_dir, sql):
        q = questions[0]
        report = evaluate([q], [Prediction(q.id, sql)], db_dir)
        r = report.instances[0]
        assert (r.predicted_sql, r.semantic.verdict, r.result.verdict, r.result.f1) == ("", VERDICT_INVALID, VERDICT_INVALID, 0.0)
        assert json.loads(report_to_json(report))["instances"][0]["predicted_sql"] == ""
        db = db_dir / f"{q.db_id}.sqlite"
        semantic, result = score_pair(q.query, sql, db, DEFAULT_ANCHOR, EvalOptions())
        assert (semantic.verdict, result.verdict) == (VERDICT_INVALID, VERDICT_INVALID)
        # as a truth it is a corpus error
        with pytest.raises(CorpusError, match="truth query does not parse"):
            score_pair(sql, q.query, db, DEFAULT_ANCHOR, EvalOptions())
        r = evaluate([dataclasses.replace(q, query=sql)], [Prediction(q.id, q.query)], db_dir).instances[0]
        assert r.excluded and r.warning.startswith("truth query does not parse")

    def test_text_sqlite_cannot_encode_is_an_execution_error(self, questions, db_dir, tmp_path):
        # a JSON escape gives a lone surrogate, which parses but has no UTF-8 form
        path = tmp_path / "preds.jsonl"
        path.write_text(json.dumps({"id": questions[0].id, "sql": "SELECT '\ud800'"}) + "\n", encoding="utf-8")
        report = evaluate(questions[:1], get_predictions(questions[:1], f"file:{path}"), db_dir)
        assert report.instances[0].result.verdict == VERDICT_EXECUTION_ERROR

    def test_clock_text_the_parser_refuses_still_runs(self, questions, db_dir):
        # "date" in the alias sends the text through the clock anchoring, which passes "|" on to SQLite
        for sql in ("SELECT count(*) AS n FROM campaigns WHERE 1 | 0", "SELECT count(*) AS n_date FROM campaigns WHERE 1 | 0"):
            r = evaluate(questions[:1], [Prediction(questions[0].id, sql)], db_dir).instances[0]
            assert (r.semantic.verdict, r.result.verdict) == (VERDICT_INVALID, "scored")

    def test_sql_that_neither_parses_nor_runs_is_invalid(self, questions, db_dir):
        report = evaluate(questions[:1], [Prediction(questions[0].id, "SELECT count(*")], db_dir)
        r = report.instances[0]
        assert (r.semantic.verdict, r.result.verdict) == (VERDICT_INVALID, VERDICT_INVALID)

    @pytest.mark.parametrize(
        "template",
        [
            "ATTACH 'file:{out}?mode=rwc' AS x",
            "VACUUM INTO '{out}'",
            "PRAGMA query_only = OFF",
            "DELETE FROM campaigns",
            "SELECT load_extension('{out}')",
            "SELECT LOAD_EXTENSION('{out}'), count(*) FROM campaigns",
        ],
    )
    def test_statements_that_write_or_escape_are_not_scored(self, tmp_path, constant_model_url, template):
        db_dir = tmp_path / "db"
        db = db_dir / "benchmark_1.sqlite"
        build_fixture_database("benchmark_1", db)
        before = db.read_bytes()
        out = tmp_path / "out.sqlite"
        q = BenchmarkQuestion("benchmark_1", "SELECT count(*) FROM campaigns", "q", "en", "aggregation", id="q")
        report = evaluate([q, q], [Prediction("q", template.format(out=out))], db_dir)
        assert {r.result.verdict for r in report.instances} < {VERDICT_INVALID, VERDICT_EXECUTION_ERROR}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["db"]
        assert [p.name for p in db_dir.iterdir()] == ["benchmark_1.sqlite"] and db.read_bytes() == before
        # the authorizer is off outside a query: validation and the http adapter's schema read still work
        assert validate_corpus([q], db_dir) == []
        assert get_predictions([q], constant_model_url, db_dir=db_dir)[0].sql == "SELECT 1"
        assert "CREATE TABLE campaigns" in adapters._schema_text(db)

    def test_authorizer_is_cleared_on_a_shared_connection(self, db_dir):
        conn = sqlite3.connect(f"file:{db_dir / 'benchmark_1.sqlite'}?mode=ro", uri=True)
        try:
            with pytest.raises(results.ExecutionError, match="not authorized"):
                results.execute("PRAGMA table_info(campaigns)", conn)
            assert conn.execute("PRAGMA table_info(campaigns)").fetchall()
        finally:
            conn.close()


def test_get_predictions_then_evaluate_round_trip(questions, db_dir):
    predictions = get_predictions(questions, "identity")
    report = evaluate(questions, predictions, db_dir)
    assert report.overall.f1 == 1.0


def test_subprocess_echo_model_end_to_end(questions, db_dir, tmp_path):
    predictions = get_predictions(questions, lookup_model(tmp_path, questions))
    report = evaluate(questions, predictions, db_dir)
    assert all(r.semantic.value == 1.0 for r in report.instances)
    assert all(r.result.f1 == 1.0 for r in report.instances)


def test_constant_model_completes_with_low_scores(questions, db_dir):
    predictions = [Prediction(q.id, "SELECT 1") for q in questions]
    report = evaluate(questions, predictions, db_dir)
    assert report.overall.count == len(questions)
    assert report.overall.f1 < 0.1
    assert report.overall.semantic < 0.5


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0, -1, True], ids=["nan", "inf", "0", "-1", "True"])
def test_eval_options_refuse_bad_query_timeout(value):
    # one check for the library and the CLI: NaN would run with no timeout
    # and write NaN into the JSON report, 0 or less would interrupt every query
    with pytest.raises(ConfigError, match="query_timeout_s must be a finite number of seconds above 0"):
        EvalOptions(query_timeout_s=value)
    with pytest.raises(ConfigError):
        dataclasses.replace(EvalOptions(), query_timeout_s=value)
