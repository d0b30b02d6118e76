"""Score whole corpora: per-instance metrics, aggregation and corpus health.

Instances are scored one at a time in question order, each query parsed
once, so a run is a pure function of (corpus, predictions, options) and
reports are byte-identical across repeated runs.

A defective ground-truth query is a corpus error: the instance is excluded
from every mean and reported as a warning, instead of punishing the model
for it.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from datetime import datetime
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
    try:
        truth_ast = parse(truth_sql)
    except ParseError as exc:
        raise CorpusError(f"truth query does not parse: {exc}") from exc
    try:
        truth_table = execute(truth_ast, db_path, anchor, timeout_s=options.query_timeout_s)
    except ExecutionError as exc:
        raise CorpusError(f"truth query failed to execute: {exc}") from exc

    try:
        predicted_ast = parse(predicted_sql)
    except ParseError:
        return invalid_prediction_score(), ResultScore.failure(VERDICT_INVALID)
    semantic = semantic_score_from_asts(truth_ast, predicted_ast)
    try:
        predicted_table = execute(predicted_ast, db_path, anchor, timeout_s=options.query_timeout_s)
    except ExecutionError:
        return semantic, ResultScore.failure(VERDICT_EXECUTION_ERROR)
    return semantic, score_result_pair(predicted_table, truth_table, options.order_insensitive)


def _score_instance(
    question: BenchmarkQuestion,
    predicted_sql: str,
    db_path: Path,
    anchor: datetime,
    options: EvalOptions,
) -> InstanceResult:
    try:
        semantic, result = score_pair(question.query, predicted_sql, db_path, anchor, options)
        warning = None
    except CorpusError as exc:
        semantic, result, warning = None, None, str(exc)
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
    instances = [
        _score_instance(q, by_id.get(q.id, by_id.get(str(q.id), "")), _db_path(db_dir, q.db_id), instant, options)
        for q in questions
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


def _anchor_windows(truth_ast, instant: datetime) -> list[str]:
    """Boundary instants referenced relative to the anchor, as ISO text."""
    anchored = rewrite_time_anchor(truth_ast, instant)
    anchor_literal = f"'{instant.strftime('%Y-%m-%d %H:%M:%S')}'"
    bounds: list[str] = []
    scratch = sqlite3.connect(":memory:")
    try:
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
    finally:
        scratch.close()
    return bounds


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
    """
    instant = parse_anchor(anchor)
    db_dir = Path(db_dir)
    warnings: list[str] = []

    for db_id in sorted({q.db_id for q in questions}):
        if not _db_path(db_dir, db_id).is_file():
            warnings.append(f"db {db_id}: database file missing: {_db_path(db_dir, db_id)}")

    executed: list[tuple[BenchmarkQuestion, SqlAst, frozenset, ResultTable]] = []
    for q in questions:
        db_path = _db_path(db_dir, q.db_id)
        if not db_path.is_file():
            continue
        try:
            ast = parse(q.query)
        except ParseError as exc:
            warnings.append(f"question {q.id}: truth query does not parse: {exc}")
            continue
        try:
            table = execute(ast, db_path, instant)
        except ExecutionError as exc:
            warnings.append(f"question {q.id}: truth query failed to execute: {exc}")
            continue
        if table.row_count == 0:
            warnings.append(f"question {q.id}: truth result has zero rows")
        executed.append((q, ast, frozenset(physical_tables(ast.root)), table))

    # distinct queries over the same tables must not coincide on results
    for i in range(len(executed)):
        for j in range(i + 1, len(executed)):
            qa, ast_a, tables_a, table_a = executed[i]
            qb, ast_b, tables_b, table_b = executed[j]
            if qa.db_id != qb.db_id or tables_a != tables_b:
                continue
            if ast_a.root == ast_b.root:
                continue
            if table_a.column_count == table_b.column_count == len(match_columns(table_a, table_b)):
                warnings.append(
                    f"questions {qa.id} and {qb.id}: distinct queries over "
                    f"{'/'.join(sorted(tables_a))} produce identical results (degenerate fixture data)"
                )

    # anchor-relative windows must fall inside the fixture data range
    for q, ast, tables, _ in executed:
        if q.case_type not in _TIME_SENSITIVE_CASE_TYPES:
            continue
        bounds = _anchor_windows(ast, instant)
        if not bounds:
            continue
        anchor_text = instant.strftime("%Y-%m-%d %H:%M:%S")
        window_start = min(bounds + [anchor_text])
        window_end = max(bounds + [anchor_text])
        conn = sqlite3.connect(f"file:{_db_path(db_dir, q.db_id)}?mode=ro", uri=True)
        try:
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
                    warnings.append(f"question {q.id}: table {table_name} has no timestamped rows")
                    continue
                data_min, data_max = min(mins), max(maxes)
                if data_min > window_start or data_max < window_end:
                    warnings.append(
                        f"question {q.id}: table {table_name} data range [{data_min}, {data_max}] "
                        f"does not bracket the anchor-relative window [{window_start}, {window_end}]"
                    )
        finally:
            conn.close()
    return warnings
