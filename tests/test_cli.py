import ast
import dataclasses
import json
import os
import shutil
import sqlite3
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from sqlscore import DEFAULT_ANCHOR, ConfigError, EvalOptions, NodeKind, Prediction, evaluate, get_predictions, parse, render, score_pair
from sqlscore import report_to_csv, report_to_json, report_to_markdown
from sqlscore import cli
from sqlscore.cli import main
from sqlscore.report import write_csv, write_json

from helpers import UNDECODABLE_JSON, add_column_alias, drop_select_column, rename_column_alias


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScore:
    def test_alias_pair_semantic_only(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "score",
            "SELECT count(*) FROM t GROUP BY day",
            "SELECT count(*) AS count FROM t GROUP BY day",
        )
        assert code == 0
        assert "semantic: 1.000" in out
        assert "precision" not in out  # no database given

    def test_table_swap_scores_zero(self, capsys):
        code, out, _ = run_cli(capsys, "score", "SELECT a, b FROM t", "SELECT a, b FROM t2")
        assert code == 0
        assert "semantic: 0.000" in out

    def test_identical_queries_with_db_all_ones(self, capsys, db_dir):
        sql = "SELECT name, budget FROM campaigns ORDER BY budget DESC LIMIT 3"
        code, out, _ = run_cli(capsys, "score", sql, sql, "--db", str(db_dir / "benchmark_1.sqlite"))
        assert code == 0
        for line in ("semantic: 1.000", "precision: 1.000", "recall: 1.000", "f1: 1.000"):
            assert line in out

    def test_invalid_prediction_still_exits_zero(self, capsys, db_dir):
        code, out, _ = run_cli(
            capsys, "score", "SELECT name FROM campaigns", "not sql", "--db", str(db_dir / "benchmark_1.sqlite")
        )
        assert code == 0
        assert "semantic: 0.000" in out
        assert "f1: 0.000" in out

    def test_unparseable_truth_same_error_with_and_without_db(self, capsys, db_dir):
        without_db = run_cli(capsys, "score", "SELEC x", "SELECT 1")
        with_db = run_cli(capsys, "score", "SELEC x", "SELECT 1", "--db", str(db_dir / "benchmark_1.sqlite"))
        assert without_db == with_db
        assert without_db[0] == 2 and without_db[2].startswith("error: truth query does not parse: ")

    def test_unreadable_database_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "score", "SELECT 1", "SELECT 1", "--db", "/nonexistent/x.sqlite")
        assert code == 2
        assert "error" in err


    def test_score_agrees_with_run(self, capsys, questions, db_dir, monkeypatch):
        monkeypatch.delenv("BIS_ANCHOR", raising=False)

        def alias_renamed(ast):
            aliased = any(n.kind is NodeKind.ALIAS and n.children[0].kind is not NodeKind.TABLE_REF for n in ast.walk())
            return render(rename_column_alias(ast) if aliased else add_column_alias(ast))

        def select_item_dropped(ast):
            select_list = next(n for n in ast.walk() if n.kind is NodeKind.SELECT_LIST)
            return render(drop_select_column(ast)) if len(select_list.children) >= 2 else None

        def not_sql(ast):
            return "not sql"

        for mutate in (render, alias_renamed, select_item_dropped, not_sql):
            pairs = [(q, mutate(parse(q.query))) for q in questions]
            pairs = [(q, sql) for q, sql in pairs if sql is not None]
            report = evaluate([q for q, _ in pairs], [Prediction(q.id, sql) for q, sql in pairs], db_dir)
            for (q, sql), r in zip(pairs, report.instances):
                db_path = db_dir / f"{q.db_id}.sqlite"
                assert score_pair(q.query, sql, db_path, DEFAULT_ANCHOR, EvalOptions()) == (r.semantic, r.result)
                code, out, _ = run_cli(capsys, "score", q.query, sql, "--db", str(db_path))
                assert code == 0
                assert out.splitlines() == [
                    f"semantic: {r.semantic.value:.3f}",
                    f"precision: {r.result.precision:.3f}",
                    f"recall: {r.result.recall:.3f}",
                    f"f1: {r.result.f1:.3f}",
                ], (mutate.__name__, q.id)


class TestRun:
    def test_identity_run_all_ones(self, capsys, corpus_path, db_dir, tmp_path):
        report_json = tmp_path / "report.json"
        report_csv = tmp_path / "report.csv"
        report_md = tmp_path / "report.md"
        code, out, _ = run_cli(
            capsys,
            "run",
            "--corpus", str(corpus_path),
            "--db-dir", str(db_dir),
            "--report-json", str(report_json),
            "--report-csv", str(report_csv),
            "--report-md", str(report_md),
        )
        assert code == 0
        assert "overall" in out and "semantic= 1.0000" in out
        payload = json.loads(report_json.read_text(encoding="utf-8"))
        assert payload["summary"]["overall"]["f1"] == 1.0
        assert len(payload["instances"]) == 31
        assert report_csv.read_text(encoding="utf-8").startswith("id,db_id,case_type")
        assert "## By question category" in report_md.read_text(encoding="utf-8")

    def test_missing_db_dir_exits_two(self, capsys, corpus_path):
        code, _, err = run_cli(capsys, "run", "--corpus", str(corpus_path), "--db-dir", "/nonexistent/dbs")
        assert code == 2
        assert "/nonexistent/dbs" in err

    def test_timeout_reaches_the_json_report(self, capsys, corpus_path, db_dir, tmp_path):
        report_json = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "run", "--corpus", str(corpus_path), "--db-dir", str(db_dir), "--timeout-s", "2.5", "--report-json", str(report_json))
        assert code == 0
        assert json.loads(report_json.read_text(encoding="utf-8"))["options"]["query_timeout_s"] == 2.5

    def test_empty_corpus_exits_two(self, capsys, db_dir, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("[]", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--corpus", str(empty), "--db-dir", str(db_dir))
        assert (code, out, err) == (2, "", "error: no questions to evaluate\n")

    def test_corpus_error_exits_three(self, capsys, db_dir, tmp_path):
        corpus = tmp_path / "broken.json"
        corpus.write_text(
            json.dumps(
                [
                    {
                        "db_id": "benchmark_1",
                        "query": "SELECT broken FROM",
                        "question": "q",
                        "language": "en",
                        "case_type": "filtering",
                    }
                ]
            ),
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "run", "--corpus", str(corpus), "--db-dir", str(db_dir))
        assert code == 3
        assert "corpus error" in out

    def test_default_anchor_is_fixture_epoch(self, capsys, db_dir, tmp_path, monkeypatch):
        monkeypatch.delenv("BIS_ANCHOR", raising=False)
        corpus = tmp_path / "one.json"
        corpus.write_text(
            json.dumps(
                [
                    {
                        "db_id": "benchmark_2",
                        "query": "SELECT count(*) FROM system_metrics WHERE metric = 'cpu_util' AND host_id = 1 AND ts >= datetime('now', '-14 days')",
                        "question": "q",
                        "language": "en",
                        "case_type": "time_period",
                    }
                ]
            ),
            encoding="utf-8",
        )
        report_json = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "run", "--corpus", str(corpus), "--db-dir", str(db_dir), "--report-json", str(report_json)
        )
        assert code == 0
        assert json.loads(report_json.read_text(encoding="utf-8"))["anchor"] == "2023-01-17T00:00:00"

    def test_bis_anchor_env_used_when_flag_absent(self, capsys, db_dir, corpus_path, tmp_path, monkeypatch):
        monkeypatch.setenv("BIS_ANCHOR", "2023-01-10T00:00:00")
        report_json = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "run", "--corpus", str(corpus_path), "--db-dir", str(db_dir), "--report-json", str(report_json)
        )
        assert json.loads(report_json.read_text(encoding="utf-8"))["anchor"] == "2023-01-10T00:00:00"

    def test_anchor_flag_beats_env(self, capsys, db_dir, corpus_path, tmp_path, monkeypatch):
        monkeypatch.setenv("BIS_ANCHOR", "2023-01-10T00:00:00")
        report_json = tmp_path / "r.json"
        run_cli(
            capsys,
            "run",
            "--corpus", str(corpus_path),
            "--db-dir", str(db_dir),
            "--anchor", "2023-01-17T00:00:00",
            "--report-json", str(report_json),
        )
        assert json.loads(report_json.read_text(encoding="utf-8"))["anchor"] == "2023-01-17T00:00:00"

    def test_file_adapter_run(self, capsys, corpus_path, db_dir, questions, tmp_path):
        predictions_path = tmp_path / "preds.jsonl"
        lines = [json.dumps({"id": q.id, "sql": q.query}) for q in questions]
        predictions_path.write_text("\n".join(lines), encoding="utf-8")
        code, out, _ = run_cli(
            capsys,
            "run",
            "--corpus", str(corpus_path),
            "--db-dir", str(db_dir),
            "--adapter", f"file:{predictions_path}",
        )
        assert code == 0
        assert "semantic= 1.0000" in out

    def test_missing_predictions_file_exits_two(self, capsys, corpus_path, db_dir, tmp_path):
        missing = tmp_path / "nonexistent.jsonl"
        code, out, err = run_cli(
            capsys, "run", "--corpus", str(corpus_path), "--db-dir", str(db_dir), "--adapter", f"file:{missing}"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(missing) in err

    @pytest.mark.parametrize("flag", ["--report-json", "--report-csv", "--report-md"])
    def test_unwritable_report_exits_two(self, capsys, corpus_path, db_dir, tmp_path, flag):
        report = tmp_path / "missing-dir" / "report"
        adapter, marker = marker_model(tmp_path)
        code, out, err = run_cli(capsys, "run", "--corpus", str(corpus_path), "--db-dir", str(db_dir), "--adapter", adapter, flag, str(report))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(report) in err
        assert not marker.exists()  # refused before the model was called

    def test_missing_database_exits_two_before_the_adapter_runs(self, capsys, corpus_path, db_dir, questions, tmp_path):
        partial = tmp_path / "db"
        shutil.copytree(db_dir, partial)
        (partial / "benchmark_2.sqlite").unlink()
        adapter, marker = marker_model(tmp_path)
        code, out, err = run_cli(capsys, "run", "--corpus", str(corpus_path), "--db-dir", str(partial), "--adapter", adapter)
        assert (code, out) == (2, "")
        with pytest.raises(ConfigError) as exc_info:
            evaluate(questions, [], partial)
        assert err == f"error: {exc_info.value}\n"
        assert str(partial / "benchmark_2.sqlite") in err
        assert not marker.exists()  # refused before the model was called

    @pytest.mark.parametrize("spec", ["unsplittable", "unknown"])
    def test_unusable_adapter_exits_two_before_any_model_call(self, capsys, corpus_path, db_dir, tmp_path, spec):
        adapter, marker = marker_model(tmp_path)
        adapter = f'{adapter} "x' if spec == "unsplittable" else adapter.replace("cmd:", "command:")
        code, out, err = run_cli(capsys, "run", "--corpus", str(corpus_path), "--db-dir", str(db_dir), "--adapter", adapter)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not marker.exists()

    def test_unexpected_error_is_not_an_exit_code(self, corpus_path, db_dir, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("a bug")

        monkeypatch.setattr(cli, "evaluate", broken)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["run", "--corpus", str(corpus_path), "--db-dir", str(db_dir)])

    def test_malformed_corpus_is_reported_before_a_missing_db_dir(self, capsys, tmp_path):
        corpus = tmp_path / "broken.json"
        corpus.write_text("{}", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--corpus", str(corpus), "--db-dir", str(tmp_path / "missing"))
        assert (code, out) == (2, "")
        assert err == f"error: corpus file {corpus} must contain a JSON array of instances\n"

    def test_report_path_that_is_a_directory_exits_two(self, capsys, corpus_path, db_dir, tmp_path):
        adapter, marker = marker_model(tmp_path)
        code, out, err = run_cli(capsys, "run", "--corpus", str(corpus_path), "--db-dir", str(db_dir), "--adapter", adapter, "--report-md", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write report {tmp_path}: it is a directory\n"
        assert not marker.exists()

    def test_report_path_that_is_a_dangling_symlink_exits_two(self, capsys, corpus_path, db_dir, tmp_path):
        report = tmp_path / "report.json"
        report.symlink_to(tmp_path / "missing-dir" / "report.json")
        code, out, err = run_cli(capsys, "run", "--corpus", str(corpus_path), "--db-dir", str(db_dir), "--report-json", str(report))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write report {report}: No such file or directory\n"

    def test_http_adapter_on_a_database_sqlite_cannot_read_exits_three(self, capsys, corpus_path, db_dir, tmp_path, constant_model_url):
        broken = tmp_path / "db"
        shutil.copytree(db_dir, broken)
        (broken / "benchmark_1.sqlite").write_text("not a database\n" * 100, encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--corpus", str(corpus_path), "--db-dir", str(broken), "--adapter", constant_model_url)
        assert (code, err) == (3, "")
        assert "corpus error" in out

    def test_lone_surrogate_in_predicted_sql_round_trips_through_the_json_report(self, capsys, corpus_path, db_dir, tmp_path):
        predictions, report = tmp_path / "preds.jsonl", tmp_path / "report.json"
        predictions.write_text(json.dumps({"id": 0, "sql": "SELECT '\ud800'"}) + "\n", encoding="utf-8")  # valid JSON: the escape \ud800
        reports = ["--report-json", str(report), "--report-csv", str(tmp_path / "report.csv"), "--report-md", str(tmp_path / "report.md")]
        code, _, err = run_cli(capsys, "run", "--corpus", str(corpus_path), "--db-dir", str(db_dir), "--adapter", f"file:{predictions}", *reports)
        assert (code, err) == (0, "")
        assert json.loads(report.read_text(encoding="utf-8"))["instances"][0]["predicted_sql"] == "SELECT '\ud800'"


@pytest.mark.parametrize("order_insensitive", [False, True])
def test_report_files_equal_the_report_strings(capsys, questions, corpus_path, db_dir, tmp_path, order_insensitive):
    predictions = [Prediction(q.id, "SELECT '\ud800'" if i == 0 else q.query) for i, q in enumerate(questions)]
    jsonl = tmp_path / "preds.jsonl"  # valid JSON: the escape \ud800
    jsonl.write_text("".join(json.dumps({"id": p.question_id, "sql": p.sql}) + "\n" for p in predictions), encoding="utf-8")
    paths = {fmt: tmp_path / f"report.{fmt}" for fmt in ("json", "csv", "md")}
    argv = ["run", "--corpus", str(corpus_path), "--db-dir", str(db_dir), "--adapter", f"file:{jsonl}"]
    argv += ["--report-json", str(paths["json"]), "--report-csv", str(paths["csv"]), "--report-md", str(paths["md"])]
    code, _, err = run_cli(capsys, *argv, *(["--order-insensitive"] if order_insensitive else []))
    assert (code, err) == (0, "")
    report = evaluate(questions, predictions, db_dir, options=EvalOptions(order_insensitive=order_insensitive))
    for fmt, text in (("json", report_to_json), ("csv", report_to_csv), ("md", report_to_markdown)):
        assert paths[fmt].read_bytes() == text(report).encode("utf-8", "backslashreplace"), fmt
    assert b"SELECT '\\ud800'" in paths["json"].read_bytes()


def test_writing_a_report_holds_no_copy_of_it(questions, db_dir, tmp_path):
    copies = [dataclasses.replace(q, id=f"{n}-{q.id}") for n in range(-(-5000 // len(questions))) for q in questions]
    report = evaluate(copies, get_predictions(copies, "identity"), db_dir)
    assert len(report.instances) >= 5000
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        for name, write in (("report.json", write_json), ("report.csv", write_csv)):  # as cmd_run writes them
            with open(tmp_path / name, "w", encoding="utf-8", errors="backslashreplace") as stream:
                write(report, stream)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    size = (tmp_path / "report.json").stat().st_size
    assert peak < size / 10, (peak, size)


@pytest.mark.parametrize(
    "command, fields, exit_code, line",
    [
        ("run", {"id": "\ud800", "query": "SELECT broken FROM"}, 3, "corpus error: "),
        ("validate", {"id": "\ud800", "query": "SELECT broken FROM"}, 1, "warning: "),
        ("run", {"language": "\ud800"}, 0, ""),
    ],
)
def test_lone_surrogate_in_corpus_text_prints_as_its_escape(capsys, corpus_path, db_dir, tmp_path, command, fields, exit_code, line):
    corpus = tmp_path / "surrogate.json"  # the first fixture question with ``fields`` set
    corpus.write_text(json.dumps([json.loads(corpus_path.read_text(encoding="utf-8"))[0] | fields]), encoding="utf-8")  # valid JSON: the escape \ud800
    code, out, err = run_cli(capsys, command, "--corpus", str(corpus), "--db-dir", str(db_dir))
    assert (code, err) == (exit_code, "")
    assert any(text.startswith(line) and "\\ud800" in text for text in out.splitlines()), out

def marker_model(tmp_path: Path) -> tuple[str, Path]:
    """A ``cmd:`` adapter that creates a marker file when it is called."""
    marker, script = tmp_path / "model-called", tmp_path / "model.py"
    script.write_text(f"import pathlib\npathlib.Path({str(marker)!r}).touch()\nprint('SELECT 1')\n", encoding="utf-8")
    return f"cmd:{sys.executable} {script}", marker


class TestValidate:
    def test_clean_fixtures_exit_zero(self, capsys, corpus_path, db_dir):
        code, out, _ = run_cli(capsys, "validate", "--corpus", str(corpus_path), "--db-dir", str(db_dir))
        assert code == 0
        assert "no warnings" in out

    def test_warnings_exit_one(self, capsys, corpus_path, tmp_path):
        from sqlscore import build_fixture_database

        db_dir = tmp_path / "db"
        for db_id in ("benchmark_1", "benchmark_2"):
            build_fixture_database(db_id, db_dir / f"{db_id}.sqlite")
        conn = sqlite3.connect(db_dir / "benchmark_1.sqlite")
        conn.execute("DELETE FROM pre_ranking_filter_log")
        conn.commit()
        conn.close()
        code, out, _ = run_cli(capsys, "validate", "--corpus", str(corpus_path), "--db-dir", str(db_dir))
        assert code == 1
        assert "warning" in out

    def test_names_with_quotes_warn_without_traceback(self, capsys, tmp_path):
        conn = sqlite3.connect(tmp_path / "quoted.sqlite")
        conn.execute('CREATE TABLE "t""u" (v INTEGER, "a""b" DATETIME)')
        conn.execute("INSERT INTO \"t\"\"u\" VALUES (1, '2020-01-01 00:00:00')")
        conn.commit()
        conn.close()
        query = """SELECT v FROM "t""u" WHERE "a""b" >= datetime('now', '-14 days')"""
        corpus = tmp_path / "q.json"
        corpus.write_text(json.dumps([{"db_id": "quoted", "query": query, "question": "q", "language": "en", "case_type": "time_period"}]), encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", "--corpus", str(corpus), "--db-dir", str(tmp_path))
        assert code == 1 and err == ""
        assert out.splitlines()[-1].startswith('warning: question 0: table "t""u" data range [2020-01-01 00:00:00, 2020-01-01 00:00:00]')

    def test_integer_epochs_warn_without_traceback(self, capsys, tmp_path):
        conn = sqlite3.connect(tmp_path / "epochs.sqlite")
        conn.execute("CREATE TABLE log (ts INTEGER)")
        conn.execute("INSERT INTO log VALUES (1673308800)")
        conn.commit()
        conn.close()
        query = "SELECT count(*) FROM log WHERE ts >= unixepoch(datetime('now', '-7 days'))"
        corpus = tmp_path / "q.json"
        corpus.write_text(json.dumps([{"db_id": "epochs", "query": query, "question": "q", "language": "en", "case_type": "time_period"}]), encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", "--corpus", str(corpus), "--db-dir", str(tmp_path))
        assert code == 1 and err == ""
        assert out.splitlines() == [
            "warning: question 0: table log data range [1673308800, 1673308800] "
            "does not bracket the anchor-relative window [2023-01-10 00:00:00, 2023-01-17 00:00:00]"
        ]

    def test_unreadable_corpus_exits_two(self, capsys, db_dir):
        code, _, err = run_cli(capsys, "validate", "--corpus", "/nonexistent/q.json", "--db-dir", str(db_dir))
        assert code == 2

    def test_missing_db_dir_exits_two(self, capsys, corpus_path):
        code, _, err = run_cli(capsys, "validate", "--corpus", str(corpus_path), "--db-dir", "/nonexistent/dbs")
        assert code == 2
        assert "/nonexistent/dbs" in err


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("defect", ["array id", "not utf-8"])
def test_malformed_corpus_exits_two(capsys, db_dir, tmp_path, command, defect):
    corpus = tmp_path / "broken.json"
    instance = {"db_id": "benchmark_1", "query": "SELECT 1", "question": "q", "language": "en", "case_type": "filtering"}
    if defect == "array id":
        corpus.write_text(json.dumps([dict(instance, id=[1])]), encoding="utf-8")
    else:
        corpus.write_bytes(json.dumps([instance]).encode("utf-8").replace(b"SELECT", b"SELECT\xff"))
    code, out, err = run_cli(capsys, command, "--corpus", str(corpus), "--db-dir", str(db_dir))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", UNDECODABLE_JSON)
@pytest.mark.parametrize("reader", ["corpus", "predictions file"])
def test_json_the_decoder_refuses_exits_two(capsys, corpus_path, db_dir, tmp_path, reader, text):
    path = tmp_path / "input.json"
    if reader == "corpus":
        path.write_text(text, encoding="utf-8")
        argv, message = ["validate", "--corpus", str(path)], f"error: corpus file {path} is not valid JSON: "
    else:
        path.write_text('{"id": 0, "sql": "SELECT 1"}\n' + text + "\n", encoding="utf-8")
        argv, message = ["run", "--corpus", str(corpus_path), "--adapter", f"file:{path}"], f"error: predictions file {path}, line 2: invalid JSON: "
    code, out, err = run_cli(capsys, *argv, "--db-dir", str(db_dir))
    assert (code, out) == (2, "")
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "abc"])
@pytest.mark.parametrize(
    "argv",
    [
        ["score", "SELECT 1", "SELECT 1", "--timeout-s"],
        ["run", "--corpus", "q.json", "--db-dir", "db", "--timeout-s"],
        ["run", "--corpus", "q.json", "--db-dir", "db", "--adapter-timeout-s"],
    ],
    ids=["score", "run", "run-adapter"],
)
def test_bad_timeout_exits_two(capsys, argv, value):
    assert_bad_option_exits_two(capsys, [*argv, value], f"got {value!r}")


@pytest.mark.parametrize(
    "argv, env",
    [
        (["score", "SELECT 1", "SELECT 1", "--anchor", "yesterday"], None),
        (["run", "--corpus", "q.json", "--db-dir", "db", "--anchor", "yesterday"], None),
        (["validate", "--corpus", "q.json", "--db-dir", "db", "--anchor", "yesterday"], None),
        (["run", "--corpus", "q.json", "--db-dir", "db"], "yesterday"),
        (["score", "SELECT 1", "SELECT 1"], "yesterday"),
        (["validate", "--corpus", "q.json", "--db-dir", "db"], "yesterday"),
    ],
    ids=["score", "run", "validate", "env", "score-env", "validate-env"],
)
def test_bad_anchor_exits_two(capsys, monkeypatch, argv, env):
    if env is None:
        monkeypatch.delenv("BIS_ANCHOR", raising=False)
    else:
        monkeypatch.setenv("BIS_ANCHOR", env)
    assert_bad_option_exits_two(capsys, argv, "invalid anchor: Invalid isoformat string: 'yesterday'")


def assert_bad_option_exits_two(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [captured.err.splitlines()[-1]]
    assert message in captured.err


def test_every_option_and_positional_has_help():
    commands = next(action for action in cli.build_parser()._actions if action.dest == "command")
    assert all(choice.help for choice in commands._choices_actions)
    undocumented = [(name, action.dest) for name, command in commands.choices.items() for action in command._actions if not action.help]
    assert undocumented == []


def test_score_and_run_pass_the_same_options(capsys, corpus_path, db_dir, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "score_pair", lambda *args: seen.append(args[-1]) or score_pair(*args))
    monkeypatch.setattr(cli, "evaluate", lambda *args: seen.append(args[-1]) or evaluate(*args))
    flags = ("--order-insensitive", "--timeout-s", "2.5")
    assert run_cli(capsys, "score", "SELECT 1", "SELECT 1", "--db", str(db_dir / "benchmark_1.sqlite"), *flags)[0] == 0
    assert run_cli(capsys, "run", "--corpus", str(corpus_path), "--db-dir", str(db_dir), *flags)[0] == 0
    assert seen == [EvalOptions(order_insensitive=True, query_timeout_s=2.5)] * 2


class TestFixturesCommand:
    def test_writes_corpus_and_databases(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "fixtures", "--out", str(tmp_path / "fx"))
        assert code == 0
        assert (tmp_path / "fx" / "questions.json").is_file()
        assert (tmp_path / "fx" / "db" / "benchmark_1.sqlite").is_file()
        assert (tmp_path / "fx" / "db" / "benchmark_2.sqlite").is_file()

    def test_out_that_is_a_file_exits_two(self, capsys, tmp_path):
        out_path = tmp_path / "taken"
        out_path.write_text("", encoding="utf-8")
        code, out, err = run_cli(capsys, "fixtures", "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out_path) in err


def test_normalize_command(capsys):
    code, out, _ = run_cli(capsys, "normalize", "select A ,b from T")
    assert code == 0
    assert out.strip() == "SELECT a, b FROM t"


def test_normalize_non_ascii_names(capsys):
    code, out, _ = run_cli(capsys, "normalize", 'SELECT prénom, 名前, PRÉNOM, "prénom" FROM T')
    assert code == 0
    assert out.strip() == "SELECT prénom, 名前, prÉnom, prénom FROM t"


def test_package_runs_as_a_process(corpus_path, db_dir, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    partial = tmp_path / "db"  # benchmark_2 only, so validate warns that benchmark_1 is missing
    partial.mkdir()
    shutil.copy(db_dir / "benchmark_2.sqlite", partial)

    def sqlscore(*argv):
        proc = subprocess.run([sys.executable, "-m", "sqlscore", *argv], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    assert sqlscore("score", "SELECT 1", "SELECT 1") == (0, "semantic: 1.000\n", "")
    code, out, err = sqlscore("normalize", "SELEC x")
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    code, out, err = sqlscore("validate", "--corpus", str(corpus_path), "--db-dir", str(partial))
    assert (code, err) == (1, "") and out.startswith("warning: db benchmark_1: database file missing: ")


def test_reader_that_closes_the_pipe_ends_the_run_quietly(db_dir, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    # 1,500 corpus error lines are more than a pipe holds, so the run is still writing when the reader leaves
    questions = [
        {"db_id": "benchmark_1", "query": f"SELECT missing_{i} FROM campaigns", "question": "q", "language": "en", "case_type": "filtering", "id": i}
        for i in range(1500)
    ]
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(questions), encoding="utf-8")
    # standard output to a pipe is block-buffered unless PYTHONUNBUFFERED says otherwise
    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, "PYTHONPATH": str(src)}

    def sqlscore(*argv):
        return subprocess.Popen([sys.executable, "-m", "sqlscore", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def ending(proc):
        with proc.stderr:
            return proc.wait(timeout=60), proc.stderr.read()

    proc = sqlscore("run", "--corpus", str(corpus), "--db-dir", str(db_dir))
    assert proc.stdout.readline().startswith(b"overall")
    proc.stdout.close()
    assert ending(proc) == (cli.EXIT_BROKEN_PIPE, b"")  # no traceback, and nothing from the flush at exit
    # a reader that leaves before a byte is written: the output is still buffered when the command ends
    proc = sqlscore("score", "SELECT 1", "SELECT 1")
    proc.stdout.close()
    assert ending(proc) == (cli.EXIT_BROKEN_PIPE, b"")
    assert cli.EXIT_BROKEN_PIPE == 141


def test_package_imports_without_site_packages():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    # a star import fails on a name that __all__ lists but the package lacks
    proc = subprocess.run([sys.executable, "-S", "-c", "from sqlscore import *"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_file_adapter_run_loads_no_http_or_subprocess_module(corpus_path, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text('{"id": 0, "sql": "SELECT 1"}\n', encoding="utf-8")
    script = (
        "import sys, sqlscore, sqlscore.cli\n"
        f"sqlscore.get_predictions(sqlscore.load_corpus({str(corpus_path)!r}), {'file:' + str(predictions)!r})\n"
        "print(sorted({'http', 'http.client', 'urllib.request', 'ssl', 'email', 'socket', 'subprocess', 'shlex'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_imports_only_the_standard_library():
    src = Path(__file__).resolve().parents[1] / "src" / "sqlscore"
    outside = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside |= {f"{path.name}: {name}" for name in names if name.split(".")[0] not in sys.stdlib_module_names | {"sqlscore"}}
    assert not outside
