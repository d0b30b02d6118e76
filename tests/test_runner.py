import dataclasses
import sqlite3
import sys

import pytest

from sqlscore import (
    BenchmarkQuestion,
    ConfigError,
    EvalOptions,
    Prediction,
    build_fixture_database,
    evaluate,
    get_predictions,
    report_to_json,
    validate_corpus,
)
from sqlscore import parser
from sqlscore.results import VERDICT_EXECUTION_ERROR, VERDICT_INVALID


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
        assert len(calls) == 2 * len(questions)

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
        assert len(calls) == distinct + len(copies)
        calls.clear()
        assert validate_corpus(copies, db_dir) == []
        assert len(calls) == distinct

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

    def test_same_query_on_two_databases_runs_on_each(self, db_dir):
        query = "SELECT count(*) FROM campaigns"  # benchmark_2 has no such table
        on_1 = BenchmarkQuestion("benchmark_1", query, "q", "en", "aggregation", id="on-1")
        on_2 = BenchmarkQuestion("benchmark_2", query, "q", "en", "aggregation", id="on-2")
        report = evaluate([on_1, on_2, on_1], [Prediction("on-1", query), Prediction("on-2", query)], db_dir)
        assert [r.excluded for r in report.instances] == [False, True, False]


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
        assert validate_corpus(questions, db_dir) == []
        assert len(calls) == len(questions)

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


def test_get_predictions_then_evaluate_round_trip(questions, db_dir):
    predictions = get_predictions(questions, "identity")
    report = evaluate(questions, predictions, db_dir)
    assert report.overall.f1 == 1.0


def test_subprocess_echo_model_end_to_end(questions, db_dir, tmp_path):
    import sys

    script = tmp_path / "echo_model.py"
    script.write_text("import json, sys\nprint(json.load(sys.stdin)['query'])\n", encoding="utf-8")
    predictions = get_predictions(questions, f"cmd:{sys.executable} {script}")
    report = evaluate(questions, predictions, db_dir)
    assert all(r.semantic.value == 1.0 for r in report.instances)
    assert all(r.result.f1 == 1.0 for r in report.instances)


def test_constant_model_completes_with_low_scores(questions, db_dir):
    predictions = [Prediction(q.id, "SELECT 1") for q in questions]
    report = evaluate(questions, predictions, db_dir)
    assert report.overall.count == len(questions)
    assert report.overall.f1 < 0.1
    assert report.overall.semantic < 0.5
