"""Score whole corpora: per-instance metrics, aggregation and corpus health.

One truth pass serves ``evaluate`` and ``validate_corpus``: the questions
that share a (database, truth query) pair form one group, and its truth is
parsed and executed once over one read-only connection per database.
``evaluate`` scores each distinct predicted SQL of a group once against it
and holds at most one prepared truth at a time; ``validate_corpus`` runs its
checks once per truth and orders the warnings by question.
Reports stay in question order, so a run is a pure function of (corpus,
predictions, options) and reports are byte-identical across repeated runs.

A defective ground-truth query is a corpus error: the instance is excluded
from every mean and reported as a warning, instead of punishing the model
for it.
"""

from __future__ import annotations

import re
import sqlite3
from collections import Counter, defaultdict
from contextlib import ExitStack, closing
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from itertools import product
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterator

from .adapters import Prediction
from .anchor import DEFAULT_ANCHOR, _anchor, parse_anchor
from .corpus import BenchmarkQuestion, database_path, id_key, is_json_scalar
from .diff import _TreeIndex
from .parser import parse, quote_identifier, tokenize
from .results import (
    DEFAULT_TIMEOUT_S,
    VERDICT_EXECUTION_ERROR,
    VERDICT_INVALID,
    ExecutionError,
    ResultScore,
    ResultTable,
    _bucket_key,
    _open_readonly,
    _run,
    match_columns,
    score_result_pair,
    valid_timeout,
)
from .semantic import CorpusError, SemanticScore, invalid_prediction_score, semantic_score_from_asts
from .sqlast import Node, ParseError, physical_tables

__all__ = [
    "ConfigError",
    "EvalOptions",
    "InstanceResult",
    "Aggregate",
    "EvalReport",
    "evaluate",
    "score_pair",
    "validate_corpus",
]


class ConfigError(Exception):
    """The run cannot start: missing databases, empty corpus, bad options."""


@dataclass(frozen=True)
class EvalOptions:
    """Options of one run; a ``query_timeout_s`` that is not a finite number
    of seconds above 0 raises ConfigError."""

    order_insensitive: bool = False
    query_timeout_s: float = DEFAULT_TIMEOUT_S

    def __post_init__(self) -> None:
        if not valid_timeout(self.query_timeout_s):
            raise ConfigError(f"query_timeout_s must be a finite number of seconds above 0, got {self.query_timeout_s!r}")


@dataclass(frozen=True)
class InstanceResult:
    question_id: Any
    db_id: str
    case_type: str
    language: str
    predicted_sql: str
    semantic: SemanticScore | None
    result: ResultScore | None
    excluded: bool = False
    warning: str | None = None


@dataclass(frozen=True)
class Aggregate:
    count: int
    semantic: float | None
    precision: float | None
    recall: float | None
    f1: float | None


@dataclass(frozen=True)
class EvalReport:
    anchor: datetime
    options: EvalOptions
    instances: tuple[InstanceResult, ...]
    overall: Aggregate
    by_case_type: dict[str, Aggregate]
    by_language: dict[str, Aggregate]
    corpus_errors: tuple[str, ...] = ()


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _aggregate(instances: list[InstanceResult]) -> Aggregate:
    included = [r for r in instances if not r.excluded]
    return Aggregate(
        count=len(included),
        semantic=_mean([r.semantic.value for r in included]),
        precision=_mean([r.result.precision for r in included]),
        recall=_mean([r.result.recall for r in included]),
        f1=_mean([r.result.f1 for r in included]),
    )


def missing_databases(questions: list[BenchmarkQuestion], db_dir: str | Path) -> dict[str, Path]:
    """Each db_id of ``questions`` whose database file is not in ``db_dir``,
    in name order, with the path it was looked for at."""
    paths = {db_id: database_path(db_dir, db_id) for db_id in sorted({q.db_id for q in questions})}
    return {db_id: path for db_id, path in paths.items() if not path.is_file()}


@dataclass(frozen=True)
class Truth:
    """A ground-truth query that parsed and executed: its text, statement, result and anchored date/time calls."""

    sql: str
    root: Node
    table: ResultTable
    time_calls: list[str]

    @cached_property
    def tables(self) -> frozenset[str]:
        """The physical tables the truth reads."""
        return frozenset(physical_tables(self.root))

    @cached_property
    def index(self) -> _TreeIndex:
        """The truth's diff index, built at its first scored prediction and
        shared by the rest."""
        return _TreeIndex(self.root)


def _instant(anchor: str | datetime) -> datetime:
    """``anchor`` as a datetime; raises ConfigError unless it is an ISO 8601 instant."""
    try:
        return parse_anchor(anchor)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid anchor: {exc}") from exc


def _read(sql: str, anchor: datetime) -> tuple[Node | str, str, list[str]]:
    """From one lexing: the statement of ``sql`` or its ParseError's message, then ``_anchor(sql, anchor)``."""
    tokens = tokenize(sql)
    try:
        statement = parse(sql, tokens)
    except ParseError as exc:
        statement = str(exc)
    return (statement, *_anchor(sql, anchor, tokens))


def _truth(
    sql: str,
    db: sqlite3.Connection,
    anchor: datetime,
    options: EvalOptions,
) -> Truth | str:
    """Parse a ground-truth query and execute its anchored text; the corpus error's message if either fails."""
    root, anchored, time_calls = _read(sql, anchor)
    if isinstance(root, str):
        return f"truth query does not parse: {root}"
    try:
        table = _run(anchored, db, options.query_timeout_s)
    except ExecutionError as exc:
        return f"truth query failed to execute: {exc}"
    return Truth(sql, root, table, time_calls)


def _score_prediction(
    truth: Truth,
    predicted_sql: str,
    db: sqlite3.Connection,
    anchor: datetime,
    options: EvalOptions,
) -> tuple[SemanticScore, ResultScore]:
    """Score one prediction; a text equal to the truth's takes its reading, so a text has one outcome per run."""
    statement, anchored, _ = (truth.root, None, None) if predicted_sql == truth.sql else _read(predicted_sql, anchor)
    invalid = isinstance(statement, str)  # its text may still run, and then its rows are scored
    semantic = invalid_prediction_score() if invalid else semantic_score_from_asts(truth.index, statement)
    try:
        predicted_table = truth.table if anchored is None else _run(anchored, db, options.query_timeout_s)
    except ExecutionError:
        return semantic, ResultScore.failure(VERDICT_INVALID if invalid else VERDICT_EXECUTION_ERROR)
    return semantic, score_result_pair(predicted_table, truth.table, options.order_insensitive)


def score_pair(
    truth_sql: str,
    predicted_sql: str,
    db_path: str | Path,
    anchor: str | datetime,
    options: EvalOptions,
) -> tuple[SemanticScore, ResultScore]:
    """Statement and result similarity of one prediction, parsing each query
    once and running both over one read-only connection.

    Raises ConfigError for a bad anchor or a missing database file, and
    CorpusError when the truth query does not parse or execute.
    """
    instant = _instant(anchor)
    if not Path(db_path).is_file():
        raise ConfigError(f"database file not found: {db_path}")
    with closing(_open_readonly(db_path)) as db:
        truth = _truth(truth_sql, db, instant, options)
        if isinstance(truth, str):
            raise CorpusError(truth)
        return _score_prediction(truth, predicted_sql, db, instant, options)


def _open_databases(stack: ExitStack, db_dir: str | Path, db_ids) -> dict[str, sqlite3.Connection]:
    """One read-only connection per database, closed when ``stack`` closes."""
    return {db_id: stack.enter_context(closing(_open_readonly(database_path(db_dir, db_id)))) for db_id in sorted(db_ids)}


def _prepared_truths(
    questions: list[BenchmarkQuestion],
    conns: dict[str, sqlite3.Connection],
    instant: datetime,
    options: EvalOptions,
) -> Iterator[tuple[list[int], Truth | str]]:
    """Each distinct (database, truth query) whose database is open, in
    first-use order: the positions of its questions, and its Truth or
    corpus error message."""
    groups: dict[tuple[str, str], list[int]] = defaultdict(list)
    for i, q in enumerate(questions):
        if q.db_id in conns:
            groups[q.db_id, q.query].append(i)
    for (db_id, query), positions in groups.items():
        yield positions, _truth(query, conns[db_id], instant, options)


def check_inputs(questions: list[BenchmarkQuestion], db_dir: str | Path) -> None:
    """Raises ConfigError unless a run over ``questions`` can start: there is
    a question, every question id is a JSON scalar, and ``db_dir`` holds a
    database file for each db_id."""
    if not questions:
        raise ConfigError("no questions to evaluate")
    for q in questions:
        if not is_json_scalar(q.id):
            raise ConfigError(f"question id {q.id!r} is not a JSON scalar")
    if not Path(db_dir).is_dir():
        raise ConfigError(f"database directory not found: {db_dir}")
    for db_id, path in missing_databases(questions, db_dir).items():
        raise ConfigError(f"missing database file for db_id {db_id!r}: {path}")


def evaluate(
    questions: list[BenchmarkQuestion],
    predictions: list[Prediction],
    db_dir: str | Path,
    anchor: str | datetime = DEFAULT_ANCHOR,
    options: EvalOptions | None = None,
) -> EvalReport:
    """Score every instance with both metrics and aggregate the results.

    A question gets the prediction whose id equals its own as a JSON value
    (``1``, ``"1"`` and ``True`` are three ids), else the empty SQL.  Raises
    ConfigError where ``check_inputs`` does, for a bad anchor, and when a
    prediction id is not a JSON scalar (None, bool, int, finite float or str).
    """
    options = options or EvalOptions()
    instant = _instant(anchor)
    check_inputs(questions, db_dir)
    for p in predictions:
        if not is_json_scalar(p.question_id):
            raise ConfigError(f"prediction id {p.question_id!r} is not a JSON scalar")

    by_id = {id_key(p.question_id): p.sql for p in predictions}
    instances: list[InstanceResult | None] = [None] * len(questions)
    with ExitStack() as stack:
        conns = _open_databases(stack, db_dir, {q.db_id for q in questions})
        for positions, truth in _prepared_truths(questions, conns, instant, options):
            failed = isinstance(truth, str)
            scores: dict[str, tuple[SemanticScore | None, ResultScore | None]] = {}
            for i in positions:
                q = questions[i]
                sql = by_id.get(id_key(q.id), "")
                if sql not in scores:
                    scores[sql] = (None, None) if failed else _score_prediction(truth, sql, conns[q.db_id], instant, options)
                semantic, result = scores[sql]
                instances[i] = InstanceResult(
                    q.id, q.db_id, q.case_type, q.language, sql, semantic, result, excluded=failed, warning=truth if failed else None
                )

    def by(group: Callable[[InstanceResult], str]) -> dict[str, Aggregate]:
        return {name: _aggregate([r for r in instances if group(r) == name]) for name in sorted(set(map(group, instances)))}

    corpus_errors = tuple(f"question {r.question_id}: {r.warning}" for r in instances if r.excluded)
    return EvalReport(
        anchor=instant,
        options=options,
        instances=tuple(instances),
        overall=_aggregate(instances),
        by_case_type=by(attrgetter("case_type")),
        by_language=by(attrgetter("language")),
        corpus_errors=corpus_errors,
    )


# -- corpus validation --------------------------------------------------------


def _timestamp_columns(conn: sqlite3.Connection, table: str) -> list[str]:
    """Timestamp-like columns of ``table``, spelt as in ``physical_tables``, so valid SQL."""
    try:
        info = conn.execute(f"PRAGMA table_info({table})").fetchall()
    except sqlite3.Error:
        return []
    decls = [(name, (decl_type or "").upper()) for _, name, decl_type, *_ in info]
    return [name for name, decl in decls if "DATE" in decl or "TIME" in decl or name == "ts" or name.endswith("_ts")]


def _range_problems(
    conn: sqlite3.Connection,
    scratch: sqlite3.Connection,
    truth: Truth,
    instant: datetime,
) -> list[str]:
    """Each table ``truth`` reads whose timestamped data does not
    bracket its anchor-relative window, as one message per table in name order.

    A bound is the date a date/time call with the anchor or current_date's
    date among its arguments gives on ``scratch``, away from the data.
    SQLite compares the data range with the window in its own type order,
    as the truth's ``WHERE`` does, so values of any type get a message.
    """
    bounds: list[str] = []
    for call in truth.time_calls:
        try:
            value = scratch.execute(f"SELECT {call}").fetchone()[0]
        except sqlite3.Error:
            continue
        if isinstance(value, str) and re.match(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", value):  # not a year, an epoch or a time
            bounds.append(value)
    if not bounds:
        return []
    bounds.append(instant.replace(tzinfo=None).isoformat(" ", "seconds"))  # unlike %Y, pads a year before 1000
    window_start, window_end = min(bounds), max(bounds)
    problems: list[str] = []
    for table_name in sorted(truth.tables):
        ts_columns = _timestamp_columns(conn, table_name)
        if not ts_columns:
            continue
        terms = [f"SELECT {quote_identifier(column)} AS v FROM {table_name}" for column in ts_columns]
        # SQLite refuses a compound SELECT of more than 500 terms; a table has up to 2,000 columns
        values = " UNION ALL ".join(f"SELECT v FROM ({' UNION ALL '.join(terms[i : i + 500])})" for i in range(0, len(terms), 500))
        brackets, data_min, data_max = conn.execute(
            f"SELECT min(v) <= ? AND max(v) >= ?, min(v), max(v) FROM ({values})", (window_start, window_end)
        ).fetchone()
        if data_min is None:
            problems.append(f"table {table_name} has no timestamped rows")
        elif not brackets:
            problems.append(
                f"table {table_name} data range [{data_min}, {data_max}] "
                f"does not bracket the anchor-relative window [{window_start}, {window_end}]"
            )
    return problems


_TIME_SENSITIVE_CASE_TYPES = ("time_period", "trend_comparison")


def validate_corpus(
    questions: list[BenchmarkQuestion],
    db_dir: str | Path,
    anchor: str | datetime = DEFAULT_ANCHOR,
) -> list[str]:
    """Warnings about corpus health; an empty list means a clean corpus.

    Checks: unparseable or unexecutable truth queries, truth results with
    zero rows, distinct same-table queries whose results coincide (a sign
    of degenerate fixture data), and timestamped tables whose data range
    does not bracket the anchor-relative windows of time-period questions.
    Each check runs once per distinct truth and warns once per question.
    Missing databases come first; then each check's warnings follow in
    question order: corpus errors and zero rows, coinciding pairs by
    (first, second) question, range problems.  A bad anchor raises ConfigError.
    """
    instant = _instant(anchor)
    missing = missing_databases(questions, db_dir)
    # (sort key, message): key (0, i) corpus error or zero rows, (1, i, j) a
    # coinciding pair, (2, i) a range problem, for question positions i < j
    keyed: list[tuple[tuple[int, ...], str]] = []
    with ExitStack() as stack:
        conns = _open_databases(stack, db_dir, {q.db_id for q in questions}.difference(missing))
        scratch = stack.enter_context(closing(sqlite3.connect(":memory:")))
        # the truths of one (database, tables, row count, column count), with their key multisets
        scopes: dict[tuple, list[tuple[frozenset | None, list[int], Truth]]] = defaultdict(list)
        for positions, truth in _prepared_truths(questions, conns, instant, EvalOptions()):
            db_id = questions[positions[0]].db_id
            if isinstance(truth, str):
                keyed.extend(((0, i), f"question {questions[i].id}: {truth}") for i in positions)
                continue
            if truth.table.row_count == 0:
                keyed.extend(((0, i), f"question {questions[i].id}: truth result has zero rows") for i in positions)

            # distinct queries over the same tables must not coincide on results; a full
            # matching pairs columns of equal bucket keys, so unless a loose column (key
            # None) is in play, only truths whose keys form the same multiset can coincide
            keys = Counter(map(_bucket_key, truth.table.columns))
            multiset = None if None in keys else frozenset(keys.items())
            earlier = scopes[db_id, truth.tables, truth.table.row_count, truth.table.column_count]
            for other_multiset, other_positions, other in earlier:
                meets = multiset == other_multiset or None in (multiset, other_multiset)
                if meets and other.root != truth.root and truth.table.column_count == len(match_columns(other.table, truth.table)):
                    message = f"distinct queries over {'/'.join(sorted(truth.tables))} produce identical results (degenerate fixture data)"
                    for i, j in map(sorted, product(other_positions, positions)):
                        keyed.append(((1, i, j), f"questions {questions[i].id} and {questions[j].id}: {message}"))
            earlier.append((multiset, positions, truth))

            # anchor-relative windows must fall inside the fixture data range
            timed = [i for i in positions if questions[i].case_type in _TIME_SENSITIVE_CASE_TYPES]
            if timed:
                problems = _range_problems(conns[db_id], scratch, truth, instant)
                keyed.extend(((2, i), f"question {questions[i].id}: {problem}") for i in timed for problem in problems)
    keyed.sort(key=itemgetter(0))
    return [f"db {db_id}: database file missing: {path}" for db_id, path in missing.items()] + [m for _, m in keyed]
