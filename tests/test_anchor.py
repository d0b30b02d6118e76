import random
import re
import sqlite3
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from helpers import random_query, rewrite_time_anchor
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlscore import (
    DEFAULT_ANCHOR,
    FIXTURE_QUESTIONS,
    BenchmarkQuestion,
    ConfigError,
    ExecutionError,
    ParseError,
    Prediction,
    anchor_sql,
    evaluate,
    execute,
    parse,
    score_pair,
    validate_corpus,
)
from sqlscore import anchor as anchor_module
from sqlscore.anchor import _anchor
from sqlscore.runner import EvalOptions


def test_now_becomes_timestamp_literal():
    assert anchor_sql("SELECT now()") == "SELECT '2023-01-17 00:00:00'"
    assert anchor_sql("SELECT NOW ( /* c */ ) + 1") == "SELECT '2023-01-17 00:00:00' + 1"


def test_current_time_family_granularity():
    assert anchor_sql("SELECT current_timestamp") == "SELECT '2023-01-17 00:00:00'"
    assert anchor_sql("SELECT current_date") == "SELECT '2023-01-17'"
    assert anchor_sql("SELECT CURRENT_TIME") == "SELECT '00:00:00'"


def test_datetime_now_argument_substituted_in_place():
    assert anchor_sql("SELECT a FROM t WHERE ts > datetime('now', '-14 days')") == (
        "SELECT a FROM t WHERE ts > datetime('2023-01-17 00:00:00', '-14 days')"
    )
    # inside grouping parentheses and unary pluses the 'now' is still the whole argument
    assert anchor_sql("SELECT datetime(('now')), date(+('now'), '-1 day')") == (
        "SELECT datetime(('2023-01-17 00:00:00')), date(+('2023-01-17 00:00:00'), '-1 day')"
    )


def test_statement_without_time_functions_unchanged():
    sql = "SELECT a FROM t"
    assert anchor_sql(sql) is sql
    # the text around a rewrite is kept byte for byte, comments and spacing too
    sql = "select A,  now() -- why\nFROM t WHERE b = 1"
    assert anchor_sql(sql) == "select A,  '2023-01-17 00:00:00' -- why\nFROM t WHERE b = 1"


def test_now_argument_in_any_ascii_case_is_anchored(db_dir):
    assert anchor_sql("SELECT date('NOW'), datetime('nOw', '-1 day'), time('Now')") == (
        "SELECT date('2023-01-17 00:00:00'), datetime('2023-01-17 00:00:00', '-1 day'), time('2023-01-17 00:00:00')"
    )
    # SQLite gives NULL for a padded 'now', so it is no clock read to anchor
    assert anchor_sql("SELECT date(' now '), date('now ')") == "SELECT date(' now '), date('now ')"
    once = anchor_sql("SELECT datetime('NOW', '-1 days'), date('nOw') FROM t")
    assert anchor_sql(once) == once
    table = execute("SELECT date('NOW'), datetime('nOw', '-1 day'), date(' now ')", db_dir / "benchmark_1.sqlite")
    assert table.columns == (("2023-01-17",), ("2023-01-16 00:00:00",), (None,))


def test_plain_now_string_outside_time_functions_is_kept():
    for sql in (
        "SELECT a FROM t WHERE b = 'now'",
        "SELECT upper('now'), date('now' || ''), date(cast('now' AS text)), date(distinct 'now')",
        "SELECT now, t.now, now.a FROM t",
    ):
        assert anchor_sql(sql) == sql


def test_clock_word_after_a_dot_is_a_column():
    sql = "SELECT t.current_date, x.current_time, x.now() FROM t"
    assert anchor_sql(sql) == sql


def test_clock_word_in_alias_position_is_a_name(db_dir):
    """SQLite reads a clock word after AS or after a token that ends an expression as an alias."""
    sql = "SELECT count(*) AS current_date, count(*) current_time, NULL current_date, 'a' now FROM campaigns current_timestamp"
    assert anchor_sql(sql) == sql
    # a qualified reference to such an alias still finds it
    sql = "SELECT s.current_date, s.current_time FROM (SELECT count(*) AS current_date, 1 current_time FROM campaigns) AS s"
    assert anchor_sql(sql) == sql
    db = db_dir / "benchmark_1.sqlite"
    assert execute(sql, db).columns == execute("SELECT count(*), 1 FROM campaigns", db).columns
    # a clock word after an operator, a keyword or a comma is a clock read; GLOB and friends are operators
    assert anchor_sql("SELECT current_date current_time, 1 + current_date WHERE a GLOB current_date") == (
        "SELECT '2023-01-17' current_time, 1 + '2023-01-17' WHERE a GLOB '2023-01-17'"
    )


def test_idempotent():
    once = anchor_sql("SELECT datetime('now', '-1 days'), now(), current_date, date() FROM t")
    assert anchor_sql(once) == once


def test_commutes_with_render_parse_round_trip():
    sql = "SELECT a FROM t WHERE ts >= datetime('now', '-7 days')"
    assert parse(anchor_sql(sql)) == rewrite_time_anchor(parse(sql))


def test_anchor_accepts_iso_string():
    assert anchor_sql("SELECT now()", "2024-06-30T12:30:00") == "SELECT '2024-06-30 12:30:00'"


def test_anchor_text_is_its_wall_clock_time():
    assert anchor_sql("SELECT now()", "1000-01-02T03:04:05") == "SELECT '1000-01-02 03:04:05'"
    # an aware anchor reads its own offset's wall clock, so two equal instants give two texts
    plus5 = datetime(2024, 5, 6, 7, 8, 9, tzinfo=timezone(timedelta(hours=5)))
    utc = plus5.astimezone(timezone.utc)
    assert plus5 == utc
    sql = "SELECT current_timestamp, current_date, current_time"
    assert anchor_sql(sql, plus5) == "SELECT '2024-05-06 07:08:09', '2024-05-06', '07:08:09'"
    assert anchor_sql(sql, utc) == "SELECT '2024-05-06 02:08:09', '2024-05-06', '02:08:09'"
    assert anchor_sql(sql, "2024-05-06T07:08:09.999+05:00") == anchor_sql(sql, plus5)


def test_anchor_before_year_1000_has_a_four_digit_year(tmp_path):
    """SQLite reads only four-digit years, so an early anchor is padded wherever it is written."""
    anchor = "0999-06-01T12:00:00"
    sql = "SELECT date('now', '-1 day'), current_timestamp, julianday() = julianday('0999-06-01 12:00:00')"
    assert anchor_sql(sql, anchor) == (
        "SELECT date('0999-06-01 12:00:00', '-1 day'), '0999-06-01 12:00:00', julianday('0999-06-01 12:00:00') = julianday('0999-06-01 12:00:00')"
    )
    db_dir = tmp_path / "db"
    db_dir.mkdir()
    conn = sqlite3.connect(db_dir / "early.sqlite")
    conn.execute("CREATE TABLE log (ts TIMESTAMP, v INTEGER)")
    conn.executemany("INSERT INTO log VALUES (?, ?)", [(f"0999-05-{day:02d} 00:00:00", day) for day in range(25, 32)])
    conn.commit()
    conn.close()
    assert execute(sql, db_dir / "early.sqlite", anchor).columns == (("0999-05-31",), ("0999-06-01 12:00:00",), (1,))
    window = "SELECT v FROM log WHERE ts >= datetime('now', '-14 days')"
    assert validate_corpus([BenchmarkQuestion("early", window, "q", "en", "time_period", id="w")], db_dir, anchor) == [
        "question w: table log data range [0999-05-25 00:00:00, 0999-05-31 00:00:00] "
        "does not bracket the anchor-relative window [0999-05-18 12:00:00, 0999-06-01 12:00:00]"
    ]


def test_anchored_filter_matches_bruteforce_row_filter(tmp_path):
    """Executing the anchored query equals filtering the raw rows by hand."""
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


def test_zero_argument_time_calls_read_the_anchor(db_dir):
    """SQLite reads a missing time value as 'now', so it is anchored too."""
    assert anchor_sql("SELECT date(), time(), datetime(), julianday(), unixepoch(), strftime('%Y'), strftime()") == (
        "SELECT date('2023-01-17 00:00:00'), time('2023-01-17 00:00:00'), datetime('2023-01-17 00:00:00'),"
        " julianday('2023-01-17 00:00:00'), unixepoch('2023-01-17 00:00:00'), strftime('%Y', '2023-01-17 00:00:00'), strftime()"
    )
    table = execute("SELECT date(), strftime('%Y-%m-%d'), date('now')", db_dir / "benchmark_1.sqlite")
    assert table.columns == (("2023-01-17",), ("2023-01-17",), ("2023-01-17",))
    truth = "SELECT count(*) FROM system_metrics WHERE ts >= date('now', '-7 days')"
    predicted = "SELECT count(*) FROM system_metrics WHERE ts >= date(julianday(), '-7 days')"
    _, result = score_pair(truth, predicted, db_dir / "benchmark_2.sqlite", DEFAULT_ANCHOR, EvalOptions())
    assert (result.verdict, result.f1) == ("scored", 1.0)


def test_clock_text_reaches_sqlite_whatever_its_characters(db_dir):
    db = db_dir / "benchmark_1.sqlite"
    # SQLite's operators that the parser lacks do not stop the anchoring
    assert anchor_sql("SELECT date('now') | 0, ~julianday()") == "SELECT date('2023-01-17 00:00:00') | 0, ~julianday('2023-01-17 00:00:00')"
    # a clock word in a trailing unterminated comment stays part of it, and SQLite runs the text
    assert execute("SELECT 1 & 3 AS n_date, date('now') /* now()", db).columns == ((1,), ("2023-01-17",))
    for sql in ("SELECT date('now", "SELECT 1 /* now()", "SELECT [now"):
        assert anchor_sql(sql) == sql
    # SQLite judges the text
    with pytest.raises(ExecutionError) as exc_info:
        execute("SELECT date('now", db)
    assert exc_info.value.stage == "engine"


def test_anchored_time_calls():
    sql = "SELECT a FROM t WHERE ts >= DATETIME(current_date, '-7 days') AND ts < date(datetime('now'), '+1 day') OR strftime('%Y')"
    assert _anchor(sql, DEFAULT_ANCHOR)[1] == [
        "DATETIME('2023-01-17', '-7 days')",
        "datetime('2023-01-17 00:00:00')",
        "strftime('%Y', '2023-01-17 00:00:00')",
    ]
    # the anchor written out counts, current_time's time of day does not
    assert _anchor("SELECT date('2023-01-17 00:00:00'), time(current_time), date(x)", DEFAULT_ANCHOR)[1] == ["date('2023-01-17 00:00:00')"]


# -- agreement with the tree-level reference ------------------------------------------------

_CLOCK_PARTS = [
    "now()",
    "NOW ( )",
    "current_timestamp",
    "CURRENT_DATE",
    "current_time",
    "date('now')",
    "datetime('NOW', '-7 days')",
    "strftime('%Y-%m-%d', 'now', '-1 month')",
    "strftime('%Y')",
    "date()",
    "julianday()",
    "unixepoch('now')",
    "time(('nOw'))",
    "date(+'now', '+1 day')",
    "date(current_date, '-14 days')",
    "datetime(datetime('now'), 'start of month')",
    "date('now ')",
    "upper('now')",
    "'now'",
    '"current_date"',
    "date(DISTINCT 'now')",
]


def clock_query(rng: random.Random) -> str:
    """``random_query`` with clock parts spliced into its select list and WHERE."""
    sql = random_query(rng)
    part = rng.choice(_CLOCK_PARTS)
    if rng.random() < 0.3:
        part += rng.choice([" AS now", " AS current_date", " current_time", " lbl"])
    sql = sql.replace("SELECT ", f"SELECT {part}, ", 1)
    if rng.random() < 0.5:
        condition = f"{rng.choice(['day', 'a'])} >= {rng.choice(_CLOCK_PARTS)}"
        sql = sql.replace(" WHERE ", f" WHERE {condition} AND ", 1) if " WHERE " in sql else sql.replace(" FROM t", f" FROM t WHERE {condition}", 1)
    return sql


def assert_agrees_with_reference(sql: str) -> None:
    try:
        tree = parse(sql)
    except ParseError:
        return
    assert parse(anchor_sql(sql)) == rewrite_time_anchor(tree), sql


def test_fixture_truths_agree_with_reference():
    truths = [q["query"] for q in FIXTURE_QUESTIONS]
    assert sum(anchor_sql(sql) != sql for sql in truths) >= 5
    for sql in truths:
        assert_agrees_with_reference(sql)


def test_random_clock_queries_agree_with_reference():
    rng = random.Random(22)
    queries = [clock_query(rng) for _ in range(400)]
    assert sum(parse(anchor_sql(q)) != parse(q) for q in queries) > 300
    for sql in queries:
        assert_agrees_with_reference(sql)


_ATOMS = ["'now'", "'NoW'", "now()", "current_date", "CURRENT_TIME", "current_timestamp", "a", "1", "'%Y'", "'2023-01-17'", "t.current_date"]
_CALLEES = ["date", "DateTime", "strftime", "time", "julianday", "unixepoch", "upper"]


def _compound(inner):
    return st.one_of(
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"+{e}"),
        st.tuples(st.sampled_from(_CALLEES), st.lists(inner, max_size=3)).map(lambda call: f"{call[0]}({', '.join(call[1])})"),
        st.tuples(inner, st.sampled_from([" + ", " || ", " = "]), inner).map("".join),
    )


_EXPRESSIONS = st.recursive(st.sampled_from(_ATOMS), _compound, max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(_EXPRESSIONS, min_size=1, max_size=3), st.sampled_from(["", " AS now", " lbl", " AS current_date", " current_timestamp"]))
def test_generated_clock_expressions_agree_with_reference(items, alias):
    sql = f"SELECT {', '.join(items)}{alias} FROM t WHERE a = {items[0]}"
    assert_agrees_with_reference(sql)
    anchored = anchor_sql(sql)
    assert anchor_sql(anchored) == anchored


# Each clock word in any ASCII case, or with a letter swapped for a neighbour
# that Unicode case folding relates to it: dotless and dotted I, long S,
# the Kelvin sign, fullwidth letters.
_NEIGHBOURS = {"i": "ıİ", "s": "ſ", "k": "K"}
_CLOCK_WORDS = ["now", "date", "time", "datetime", "julianday", "unixepoch", "strftime", "current_date", "current_time", "current_timestamp"]


def _respell(c, how):
    if how == "fold":
        return _NEIGHBOURS.get(c, c)[0]
    if how == "fold2":
        return _NEIGHBOURS.get(c, c)[-1]
    if how.startswith("fullwidth") and c.isalpha():
        return chr(ord(c) - ord("a") + (0xFF41 if how == "fullwidth" else 0xFF21))
    return c.upper() if how == "upper" else c


def _spelling(word):
    hows = st.sampled_from(["lower", "upper", "fold", "fold2", "fullwidth", "fullwidth-upper"])
    return st.lists(hows, min_size=len(word), max_size=len(word)).map(lambda how: "".join(map(_respell, word, how)))


_CLOCK_FRAGMENTS = st.one_of(
    st.sampled_from(_CLOCK_WORDS).flatmap(_spelling),
    st.sampled_from(["SELECT ", "(", ")", "()", ", ", "'", "'now'", "'%Y'", " AS ", ".", "+", " ", "--", "\n", "/*", "*/", '"', "t", "1"]),
)


_ONE_CLOCK_WORD = st.tuples(st.sampled_from(_CLOCK_WORDS).flatmap(_spelling), st.sampled_from(["", "()", "('now')", "('%Y')"]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_ONE_CLOCK_WORD.map(lambda call: "SELECT " + "".join(call)), st.lists(_CLOCK_FRAGMENTS, max_size=12).map("".join)))
def test_clock_word_prefilter_drops_no_text_the_pass_changes(sql):
    anchored, calls = anchor_sql(sql), _anchor(sql, DEFAULT_ANCHOR)[1]
    with mock.patch.object(anchor_module, "_CLOCK_WORD_RE", re.compile("")):  # every text passes
        assert anchor_sql(sql) == anchored
        assert _anchor(sql, DEFAULT_ANCHOR)[1] == calls


# -- a bad anchor fails the same way for every text ---------------------------------------

_WITH_AND_WITHOUT_CLOCK = pytest.mark.parametrize("sql", ["SELECT 1", "SELECT date('now')"])


@_WITH_AND_WITHOUT_CLOCK
def test_bad_anchor_in_anchor_sql_raises_value_error(sql):
    with pytest.raises(ValueError):
        anchor_sql(sql, "bad")


@_WITH_AND_WITHOUT_CLOCK
def test_bad_anchor_in_execute_raises_execution_error(sql, db_dir):
    with pytest.raises(ExecutionError) as exc_info:
        execute(sql, db_dir / "benchmark_1.sqlite", anchor="bad")
    assert exc_info.value.stage == "anchor"


@_WITH_AND_WITHOUT_CLOCK
def test_bad_anchor_in_evaluate_raises_config_error(sql, db_dir):
    question = BenchmarkQuestion("benchmark_1", sql, "q", "en", "aggregation", id="q")
    with pytest.raises(ConfigError, match="invalid anchor"):
        evaluate([question], [Prediction("q", sql)], db_dir, "bad")


@_WITH_AND_WITHOUT_CLOCK
def test_bad_anchor_in_validate_corpus_raises_config_error(sql, db_dir):
    question = BenchmarkQuestion("benchmark_1", sql, "q", "en", "time_period", id="q")
    with pytest.raises(ConfigError, match="invalid anchor"):
        validate_corpus([question], db_dir, "bad")


@_WITH_AND_WITHOUT_CLOCK
def test_bad_anchor_in_score_pair_raises_config_error(sql, db_dir):
    with pytest.raises(ConfigError, match="invalid anchor"):
        score_pair(sql, sql, db_dir / "benchmark_1.sqlite", "bad", EvalOptions())
