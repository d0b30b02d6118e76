"""Execute queries against fixture databases and compare their results.

A result is compared column-wise: two columns match only when every cell
agrees (no partial credit within a column), predicted and truth columns are
paired by a maximum one-to-one matching over all M x N combinations, and
the pairing ignores labels entirely.  Precision is matched/|predicted
columns|, recall is matched/|truth columns|, F1 their harmonic mean.
"""

from __future__ import annotations

import math
import sqlite3
import time
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

from .anchor import DEFAULT_ANCHOR, rewrite_time_anchor
from .parser import parse
from .render import render
from .sqlast import ParseError, SqlAst

DEFAULT_TIMEOUT_S = 10.0
DEFAULT_ROW_CAP = 100_000
DEFAULT_REL_TOL = 1e-9

VERDICT_SCORED = "scored"
VERDICT_EXECUTION_ERROR = "execution_error"
VERDICT_INVALID = "invalid_prediction"

Cell = object  # None | int | float | str | bytes


class ExecutionError(Exception):
    """A query could not be executed; ``stage`` says why.

    stage is one of: parse, engine, timeout, row-cap, database.
    """

    def __init__(self, message: str, stage: str):
        super().__init__(message)
        self.stage = stage


@dataclass(frozen=True)
class ResultTable:
    """Materialized query output: labeled columns of equal length.

    Labels need not be unique; predicted queries may duplicate them.
    """

    labels: tuple[str, ...]
    columns: tuple[tuple[Cell, ...], ...]

    def __post_init__(self) -> None:
        assert len(self.labels) == len(self.columns)
        lengths = {len(c) for c in self.columns}
        assert len(lengths) <= 1, "ragged columns"

    @property
    def column_count(self) -> int:
        return len(self.columns)

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @classmethod
    def from_rows(cls, labels: list[str] | tuple[str, ...], rows: list[tuple]) -> "ResultTable":
        columns = tuple(tuple(row[i] for row in rows) for i in range(len(labels)))
        return cls(tuple(labels), columns)


@dataclass(frozen=True)
class ResultScore:
    precision: float
    recall: float
    f1: float
    matched_pairs: tuple[tuple[int, int], ...] = ()
    verdict: str = VERDICT_SCORED

    @classmethod
    def failure(cls, verdict: str) -> "ResultScore":
        return cls(0.0, 0.0, 0.0, (), verdict)


def cells_equal(a: Cell, b: Cell) -> bool:
    """Cell equality: null=null, numbers within relative tolerance,
    text compared exactly after trimming trailing whitespace."""
    if a is None or b is None:
        return a is None and b is None
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if a_num and b_num:
        return math.isclose(a, b, rel_tol=DEFAULT_REL_TOL, abs_tol=0.0) or a == b
    if isinstance(a, str) and isinstance(b, str):
        return a.rstrip() == b.rstrip()
    return type(a) is type(b) and a == b


def _sort_key(cell: Cell):
    if cell is None:
        return (0, "")
    if isinstance(cell, (int, float)):
        return (1, float(cell))
    if isinstance(cell, str):
        return (2, cell)
    return (3, repr(cell))


def match_columns(predicted: ResultTable, truth: ResultTable, order_insensitive: bool = False) -> list[tuple[int, int]]:
    """Maximum one-to-one matching of predicted columns onto truth columns.

    A pair is compatible when both tables have the same row count and every
    cell is equal, in row order unless ``order_insensitive`` sorts each
    column (once per table) first; labels are ignored.  Returns (predicted
    index, truth index) pairs.
    """
    if predicted.row_count != truth.row_count:
        return []
    p_cols, t_cols = predicted.columns, truth.columns
    if order_insensitive:
        p_cols = [sorted(c, key=_sort_key) for c in p_cols]
        t_cols = [sorted(c, key=_sort_key) for c in t_cols]
    compat = [[t_idx for t_idx, t_col in enumerate(t_cols) if all(map(cells_equal, p_col, t_col))] for p_col in p_cols]

    # augmenting-path maximum matching; column counts are small
    match_t: dict[int, int] = {}

    def try_assign(p_idx: int, seen: set[int]) -> bool:
        for t_idx in compat[p_idx]:
            if t_idx in seen:
                continue
            seen.add(t_idx)
            if t_idx not in match_t or try_assign(match_t[t_idx], seen):
                match_t[t_idx] = p_idx
                return True
        return False

    for p_idx in range(predicted.column_count):
        try_assign(p_idx, set())
    return sorted((p_idx, t_idx) for t_idx, p_idx in match_t.items())


def score_result_pair(predicted: ResultTable, truth: ResultTable, order_insensitive: bool = False) -> ResultScore:
    """Column-matching precision, recall and F1 for a result pair."""
    if predicted.column_count == 0 and truth.column_count == 0:
        return ResultScore(1.0, 1.0, 1.0, (), VERDICT_SCORED)
    matched = match_columns(predicted, truth, order_insensitive)
    m = len(matched)
    precision = m / predicted.column_count if predicted.column_count else 0.0
    recall = m / truth.column_count if truth.column_count else 0.0
    f1 = 0.0 if precision == 0.0 or recall == 0.0 else 2.0 / (1.0 / precision + 1.0 / recall)
    return ResultScore(precision, recall, f1, tuple(matched), VERDICT_SCORED)


def _open_readonly(db_path: str | Path) -> sqlite3.Connection:
    path = Path(db_path)
    if not path.is_file():
        raise ExecutionError(f"database file not found: {path}", stage="database")
    # each rendered statement runs once per run, so caching it only holds memory
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True, cached_statements=0)
    conn.execute("PRAGMA query_only = ON")
    return conn


def execute(
    query: str | SqlAst,
    db: str | Path | sqlite3.Connection,
    anchor: str | datetime = DEFAULT_ANCHOR,
    *,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    row_cap: int = DEFAULT_ROW_CAP,
) -> ResultTable:
    """Anchor the clock, render and run a query read-only.

    ``query`` is SQL text, which is parsed first, or an already parsed
    ``SqlAst``.  The result is materialized fully; a timeout and a row cap
    bound runaway predictions.  Raises ExecutionError on any failure.
    """
    if isinstance(query, SqlAst):
        ast = query
    else:
        try:
            ast = parse(query)
        except ParseError as exc:
            raise ExecutionError(f"query does not parse: {exc}", stage="parse") from exc
    sql = render(rewrite_time_anchor(ast, anchor))

    own_connection = not isinstance(db, sqlite3.Connection)
    conn = _open_readonly(db) if own_connection else db
    deadline = time.monotonic() + timeout_s
    conn.set_progress_handler(lambda: 1 if time.monotonic() > deadline else 0, 10_000)
    cursor = conn.cursor()
    try:
        cursor.execute(sql)
        labels = tuple(d[0] for d in cursor.description) if cursor.description else ()
        rows = cursor.fetchmany(row_cap + 1)
        if len(rows) > row_cap:
            raise ExecutionError(f"result exceeds row cap of {row_cap}", stage="row-cap")
        return ResultTable.from_rows(list(labels), rows)
    except sqlite3.OperationalError as exc:
        if "interrupted" in str(exc).lower():
            raise ExecutionError(f"query timed out after {timeout_s}s", stage="timeout") from exc
        raise ExecutionError(f"engine error: {exc}", stage="engine") from exc
    except sqlite3.Error as exc:
        raise ExecutionError(f"engine error: {exc}", stage="engine") from exc
    finally:
        cursor.close()  # a shared connection outlives this call; end the statement here
        conn.set_progress_handler(None, 0)
        if own_connection:
            conn.close()
