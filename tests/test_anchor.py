import sqlite3
from datetime import datetime

from sqlscore import DEFAULT_ANCHOR, execute, parse, render, rewrite_time_anchor


def rewritten(sql, anchor=DEFAULT_ANCHOR):
    return render(rewrite_time_anchor(parse(sql), anchor))


def test_now_becomes_timestamp_literal():
    assert rewritten("SELECT now()") == "SELECT '2023-01-17 00:00:00'"


def test_current_time_family_granularity():
    assert rewritten("SELECT current_timestamp") == "SELECT '2023-01-17 00:00:00'"
    assert rewritten("SELECT current_date") == "SELECT '2023-01-17'"
    assert rewritten("SELECT current_time") == "SELECT '00:00:00'"


def test_datetime_now_argument_substituted_in_place():
    assert rewritten("SELECT a FROM t WHERE ts > datetime('now', '-14 days')") == (
        "SELECT a FROM t WHERE ts > datetime('2023-01-17 00:00:00', '-14 days')"
    )


def test_statement_without_time_functions_unchanged():
    ast = parse("SELECT a FROM t")
    assert rewrite_time_anchor(ast) is ast
    # a rewrite rebuilds only the path to the time function
    ast = parse("SELECT a, now() FROM t WHERE b = 1")
    statement = rewrite_time_anchor(ast)
    assert statement is not ast
    assert all(new is old for new, old in zip(statement.children[1:], ast.children[1:]))
    assert statement.children[0].children[0] is ast.children[0].children[0]


def test_now_argument_in_any_ascii_case_is_anchored(db_dir):
    assert rewritten("SELECT date('NOW'), datetime('nOw', '-1 day'), time('Now')") == (
        "SELECT date('2023-01-17 00:00:00'), datetime('2023-01-17 00:00:00', '-1 day'), time('2023-01-17 00:00:00')"
    )
    # SQLite gives NULL for a padded 'now', so it is no clock read to anchor
    assert rewritten("SELECT date(' now '), date('now ')") == "SELECT date(' now '), date('now ')"
    ast = parse("SELECT datetime('NOW', '-1 days'), date('nOw') FROM t")
    once = rewrite_time_anchor(ast)
    assert rewrite_time_anchor(once) == once
    table = execute("SELECT date('NOW'), datetime('nOw', '-1 day'), date(' now ')", db_dir / "benchmark_1.sqlite")
    assert table.columns == (("2023-01-17",), ("2023-01-16 00:00:00",), (None,))


def test_plain_now_string_outside_time_functions_is_kept():
    assert rewritten("SELECT a FROM t WHERE b = 'now'") == "SELECT a FROM t WHERE b = 'now'"


def test_idempotent():
    ast = parse("SELECT datetime('now', '-1 days'), now(), current_date FROM t")
    once = rewrite_time_anchor(ast)
    twice = rewrite_time_anchor(once)
    assert once == twice


def test_commutes_with_render_parse_round_trip():
    ast = parse("SELECT a FROM t WHERE ts >= datetime('now', '-7 days')")
    once = rewrite_time_anchor(ast)
    assert parse(render(once)) == once


def test_anchor_accepts_iso_string():
    out = render(rewrite_time_anchor(parse("SELECT now()"), "2024-06-30T12:30:00"))
    assert out == "SELECT '2024-06-30 12:30:00'"


def test_anchored_filter_matches_bruteforce_row_filter(tmp_path):
    """Executing the rewritten query equals filtering the raw rows by hand."""
    rows = [(f"2023-01-{day:02d} 08:00:00", day) for day in range(2, 18)]
    db = tmp_path / "window.sqlite"
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE log (ts TIMESTAMP, v INTEGER)")
    conn.executemany("INSERT INTO log VALUES (?, ?)", rows)
    conn.commit()
    conn.close()

    sql = "SELECT ts, v FROM log WHERE ts > datetime('now', '-14 days') ORDER BY ts"
    table = execute(sql, db, anchor=datetime(2023, 1, 17, 0, 0, 0))

    cutoff = "2023-01-03 00:00:00"  # 14 days before the anchor
    expected = sorted(r for r in rows if r[0] > cutoff)
    got = list(zip(table.columns[0], table.columns[1]))
    assert got == expected
    assert all(ts >= "2023-01-03" for ts, _ in got)


def test_manual_substitution_equivalence(db_dir):
    """Anchored execution equals substituting the literal by hand."""
    automatic = execute(
        "SELECT count(*) FROM system_metrics WHERE ts >= datetime('now', '-14 days')",
        db_dir / "benchmark_2.sqlite",
    )
    manual = execute(
        "SELECT count(*) FROM system_metrics WHERE ts >= datetime('2023-01-17 00:00:00', '-14 days')",
        db_dir / "benchmark_2.sqlite",
    )
    assert automatic.columns == manual.columns
