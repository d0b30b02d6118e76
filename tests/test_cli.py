import ast
import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from sqlscore import DEFAULT_ANCHOR, EvalOptions, NodeKind, Prediction, evaluate, parse, render, score_pair
from sqlscore.cli import main

from helpers import add_column_alias, drop_select_column, rename_column_alias


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

    def test_empty_corpus_exits_two(self, capsys, db_dir, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("[]", encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--corpus", str(empty), "--db-dir", str(db_dir))
        assert code == 2
        assert "no questions" in err

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

    def test_unreadable_corpus_exits_two(self, capsys, db_dir):
        code, _, err = run_cli(capsys, "validate", "--corpus", "/nonexistent/q.json", "--db-dir", str(db_dir))
        assert code == 2


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


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
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
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [captured.err.splitlines()[-1]]
    assert f"got {value!r}" in captured.err


class TestFixturesCommand:
    def test_writes_corpus_and_databases(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "fixtures", "--out", str(tmp_path / "fx"))
        assert code == 0
        assert (tmp_path / "fx" / "questions.json").is_file()
        assert (tmp_path / "fx" / "db" / "benchmark_1.sqlite").is_file()
        assert (tmp_path / "fx" / "db" / "benchmark_2.sqlite").is_file()


def test_normalize_command(capsys):
    code, out, _ = run_cli(capsys, "normalize", "select A ,b from T")
    assert code == 0
    assert out.strip() == "SELECT a, b FROM t"


def test_normalize_non_ascii_names(capsys):
    code, out, _ = run_cli(capsys, "normalize", 'SELECT prénom, 名前, PRÉNOM, "prénom" FROM T')
    assert code == 0
    assert out.strip() == "SELECT prénom, 名前, prÉnom, prénom FROM t"


def test_package_imports_without_site_packages():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-S", "-c", "import sqlscore"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


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
