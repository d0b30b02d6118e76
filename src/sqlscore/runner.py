"""Score whole corpora: per-instance metrics, aggregation and corpus health.

Instances are scored one at a time in question order, so a run is a pure
function of (corpus, predictions, options) and reports are byte-identical
across repeated runs.  Each prediction is parsed once, and each distinct
truth is parsed and executed once per run over one read-only connection per
database.

A defective ground-truth query is a corpus error: the instance is excluded
from every mean and reported as a warning, instead of punishing the model
for it.
"""

from __future__ import annotations

import sqlite3
from collections import Counter, defaultdict
from collections.abc import Iterator
from contextlib import ExitStack, closing
from dataclasses import dataclass
from datetime import datetime
from itertools import combinations
from pathlib import Path
from typing import Any

from .adapters import Prediction
from .anchor import DEFAULT_ANCHOR, TIME_VALUE_FUNCTIONS, parse_anchor, rewrite_time_anchor
from .corpus import BenchmarkQuestion
from .parser import parse
from .render import render_expression
from .results import (
    DEFAULT_TIMEOUT_S,
    VERDICT_EXECUTION_ERROR,
    VERDICT_INVALID,
    ExecutionError,
    ResultScore,
    ResultTable,
    _open_readonly,
    execute,
    match_columns,
    score_result_pair,
)
from .semantic import CorpusError, SemanticScore, invalid_prediction_score, semantic_score_from_asts
from .sqlast import NodeKind, ParseError, SqlAst, physical_tables

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
    order_insensitive: bool = False
    query_timeout_s: float = DEFAULT_TIMEOUT_S


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


def _db_path(db_dir: Path, db_id: str) -> Path:
    return db_dir / f"{db_id}.sqlite"


def _truth(
    sql: str,
    db: str | Path | sqlite3.Connection,
    anchor: datetime,
    options: EvalOptions,
) -> tuple[SqlAst, ResultTable]:
    """Parse and execute a ground-truth query.

    Raises CorpusError when it does not parse or execute.
    """
    try:
        ast = parse(sql)
    except ParseError as exc:
        raise CorpusError(f"truth query does not parse: {exc}") from exc
    try:
        table = execute(ast, db, anchor, timeout_s=options.query_timeout_s)
    except ExecutionError as exc:
        raise CorpusError(f"truth query failed to execute: {exc}") from exc
    return ast, table


def _score_prediction(
    truth: tuple[SqlAst, ResultTable],
    predicted_sql: str,
    db: str | Path | sqlite3.Connection,
    anchor: datetime,
    options: EvalOptions,
) -> tuple[SemanticScore, ResultScore]:
    truth_ast, truth_table = truth
    try:
        predicted_ast = parse(predicted_sql)
    except ParseError:
        return invalid_prediction_score(), ResultScore.failure(VERDICT_INVALID)
    semantic = semantic_score_from_asts(truth_ast, predicted_ast)
    try:
        predicted_table = execute(predicted_ast, db, anchor, timeout_s=options.query_timeout_s)
    except ExecutionError:
        return semantic, ResultScore.failure(VERDICT_EXECUTION_ERROR)
    return semantic, score_result_pair(predicted_table, truth_table, options.order_insensitive)


def score_pair(
    truth_sql: str,
    predicted_sql: str,
    db_path: str | Path,
    anchor: datetime,
    options: EvalOptions,
) -> tuple[SemanticScore, ResultScore]:
    """Statement and result similarity of one prediction, parsing each query once.

    Raises CorpusError when the truth query does not parse or execute.
    """
    return _score_prediction(_truth(truth_sql, db_path, anchor, options), predicted_sql, db_path, anchor, options)


def _open_databases(stack: ExitStack, db_dir: Path, db_ids) -> dict[str, sqlite3.Connection]:
    """One read-only connection per database, closed when ``stack`` closes."""
    return {db_id: stack.enter_context(closing(_open_readonly(_db_path(db_dir, db_id)))) for db_id in sorted(db_ids)}


def _truths(
    questions: list[BenchmarkQuestion],
    conns: dict[str, sqlite3.Connection],
    anchor: datetime,
    options: EvalOptions,
) -> Iterator[tuple[BenchmarkQuestion, tuple[SqlAst, ResultTable] | CorpusError]]:
    """Each question with its truth, or the CorpusError it raised, in order.

    Each distinct (db_id, query) is parsed and executed once.  Its outcome is
    held only until the last question that uses it, so nothing is held
    between questions when no truth is shared.
    """
    uses = Counter((q.db_id, q.query) for q in questions)
    held: dict[tuple[str, str], tuple[SqlAst, ResultTable] | CorpusError] = {}
    for q in questions:
        key = (q.db_id, q.query)
        outcome = held.pop(key, None)
        if outcome is None:
            try:
                outcome = _truth(q.query, conns[q.db_id], anchor, options)
            except CorpusError as exc:
                outcome = exc
        uses[key] -= 1
        if uses[key]:
            held[key] = outcome
        yield q, outcome


def _score_instance(
    question: BenchmarkQuestion,
    truth: tuple[SqlAst, ResultTable] | CorpusError,
    predicted_sql: str,
    conn: sqlite3.Connection,
    anchor: datetime,
    options: EvalOptions,
) -> InstanceResult:
    if isinstance(truth, CorpusError):
        semantic, result, warning = None, None, str(truth)
    else:
        semantic, result = _score_prediction(truth, predicted_sql, conn, anchor, options)
        warning = None
    return InstanceResult(
        question_id=question.id,
        db_id=question.db_id,
        case_type=question.case_type,
        language=question.language,
        predicted_sql=predicted_sql,
        semantic=semantic,
        result=result,
        excluded=warning is not None,
        warning=warning,
    )


def evaluate(
    questions: list[BenchmarkQuestion],
    predictions: list[Prediction],
    db_dir: str | Path,
    anchor: str | datetime = DEFAULT_ANCHOR,
    options: EvalOptions | None = None,
) -> EvalReport:
    """Score every instance with both metrics and aggregate the results."""
    options = options or EvalOptions()
    instant = parse_anchor(anchor)
    db_dir = Path(db_dir)
    if not questions:
        raise ConfigError("no questions to evaluate")
    if not db_dir.is_dir():
        raise ConfigError(f"database directory not found: {db_dir}")
    for db_id in sorted({q.db_id for q in questions}):
        if not _db_path(db_dir, db_id).is_file():
            raise ConfigError(f"missing database file for db_id {db_id!r}: {_db_path(db_dir, db_id)}")

    by_id = {p.question_id: p.sql for p in predictions}
    with ExitStack() as stack:
        conns = _open_databases(stack, db_dir, {q.db_id for q in questions})
        instances = [
            _score_instance(q, truth, by_id.get(q.id, by_id.get(str(q.id), "")), conns[q.db_id], instant, options)
            for q, truth in _truths(questions, conns, instant, options)
        ]

    by_case: dict[str, Aggregate] = {}
    for case_type in sorted({r.case_type for r in instances}):
        by_case[case_type] = _aggregate([r for r in instances if r.case_type == case_type])
    by_language: dict[str, Aggregate] = {}
    for language in sorted({r.language for r in instances}):
        by_language[language] = _aggregate([r for r in instances if r.language == language])

    corpus_errors = tuple(f"question {r.question_id}: {r.warning}" for r in instances if r.excluded)
    return EvalReport(
        anchor=instant,
        options=options,
        instances=tuple(instances),
        overall=_aggregate(instances),
        by_case_type=by_case,
        by_language=by_language,
        corpus_errors=corpus_errors,
    )


# -- corpus validation --------------------------------------------------------


def _timestamp_columns(conn: sqlite3.Connection, table: str) -> list[str]:
    try:
        info = conn.execute(f'PRAGMA table_info("{table}")').fetchall()
    except sqlite3.Error:
        return []
    names = []
    for _, name, decl_type, *_ in info:
        decl = (decl_type or "").upper()
        if "DATE" in decl or "TIME" in decl or name == "ts" or name.endswith("_ts"):
            names.append(name)
    return names


def _anchor_windows(truth_ast, instant: datetime, scratch: sqlite3.Connection) -> list[str]:
    """Boundary instants referenced relative to the anchor, as ISO text."""
    anchored = rewrite_time_anchor(truth_ast, instant)
    anchor_literal = f"'{instant.strftime('%Y-%m-%d %H:%M:%S')}'"
    bounds: list[str] = []
    for node in anchored.root.walk():
        if (
            node.kind is NodeKind.FUNCTION_CALL
            and node.text in TIME_VALUE_FUNCTIONS
            and node.children
            and node.children[0].kind is NodeKind.LITERAL
            and node.children[0].text == anchor_literal
        ):
            try:
                value = scratch.execute(f"SELECT {render_expression(node)}").fetchone()[0]
            except sqlite3.Error:
                continue
            if isinstance(value, str):
                bounds.append(value)
    return bounds


def _range_problems(
    conn: sqlite3.Connection,
    scratch: sqlite3.Connection,
    truth_ast: SqlAst,
    tables: frozenset,
    instant: datetime,
) -> list[str]:
    """Each read table whose timestamped data does not bracket the truth's
    anchor-relative window, as one message per table in name order."""
    bounds = _anchor_windows(truth_ast, instant, scratch)
    if not bounds:
        return []
    anchor_text = instant.strftime("%Y-%m-%d %H:%M:%S")
    window_start = min(bounds + [anchor_text])
    window_end = max(bounds + [anchor_text])
    problems: list[str] = []
    for table_name in sorted(tables):
        ts_columns = _timestamp_columns(conn, table_name)
        if not ts_columns:
            continue
        mins, maxes = [], []
        for column in ts_columns:
            row = conn.execute(f'SELECT min("{column}"), max("{column}") FROM "{table_name}"').fetchone()
            if row and row[0] is not None:
                mins.append(row[0])
                maxes.append(row[1])
        if not mins:
            problems.append(f"table {table_name} has no timestamped rows")
            continue
        data_min, data_max = min(mins), max(maxes)
        if data_min > window_start or data_max < window_end:
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
    """
    instant = parse_anchor(anchor)
    db_dir = Path(db_dir)
    warnings: list[str] = []

    present = set()
    for db_id in sorted({q.db_id for q in questions}):
        if _db_path(db_dir, db_id).is_file():
            present.add(db_id)
        else:
            warnings.append(f"db {db_id}: database file missing: {_db_path(db_dir, db_id)}")

    with ExitStack() as stack:
        conns = _open_databases(stack, db_dir, present)
        scratch = stack.enter_context(closing(sqlite3.connect(":memory:")))

        # distinct truths that executed, in first-use order: (ast, tables read, result)
        distinct: dict[tuple[str, str], tuple[SqlAst, frozenset, ResultTable]] = {}
        executed: list[tuple[BenchmarkQuestion, tuple[str, str]]] = []
        for q, truth in _truths([q for q in questions if q.db_id in present], conns, instant, EvalOptions()):
            if isinstance(truth, CorpusError):
                warnings.append(f"question {q.id}: {truth}")
                continue
            ast, table = truth
            if table.row_count == 0:
                warnings.append(f"question {q.id}: truth result has zero rows")
            key = (q.db_id, q.query)
            if key not in distinct:
                distinct[key] = (ast, frozenset(physical_tables(ast.root)), table)
            executed.append((q, key))

        # distinct queries over the same tables must not coincide on results
        scopes: dict[tuple[str, frozenset], list[tuple[str, str]]] = defaultdict(list)
        for key, (_, tables, _) in distinct.items():
            scopes[key[0], tables].append(key)
        coinciding: dict[tuple[str, str], list[tuple[str, str]]] = defaultdict(list)
        for keys in scopes.values():
            for key_a, key_b in combinations(keys, 2):
                (ast_a, _, table_a), (ast_b, _, table_b) = distinct[key_a], distinct[key_b]
                if ast_a.root != ast_b.root and table_a.column_count == table_b.column_count == len(match_columns(table_a, table_b)):
                    coinciding[key_a].append(key_b)
                    coinciding[key_b].append(key_a)
        positions: dict[tuple[str, str], list[int]] = defaultdict(list)
        for i, (_, key) in enumerate(executed):
            positions[key].append(i)
        for i, (qa, key) in enumerate(executed):
            tables = "/".join(sorted(distinct[key][1]))
            for j in sorted(j for other in coinciding[key] for j in positions[other] if j > i):
                warnings.append(
                    f"questions {qa.id} and {executed[j][0].id}: distinct queries over "
                    f"{tables} produce identical results (degenerate fixture data)"
                )

        # anchor-relative windows must fall inside the fixture data range
        problems: dict[tuple[str, str], list[str]] = {}
        for q, key in executed:
            if q.case_type not in _TIME_SENSITIVE_CASE_TYPES:
                continue
            if key not in problems:
                ast, tables, _ = distinct[key]
                problems[key] = _range_problems(conns[q.db_id], scratch, ast, tables, instant)
            warnings.extend(f"question {q.id}: {problem}" for problem in problems[key])
    return warnings
