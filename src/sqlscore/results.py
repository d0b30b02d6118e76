"""Execute queries against fixture databases and compare their results.

A result is compared column-wise: two columns match only when every cell
agrees (no partial credit within a column), predicted and truth columns are
paired by a maximum one-to-one matching over all M x N combinations, and
the pairing ignores labels entirely.  Precision is matched/|predicted
columns|, recall is matched/|truth columns|, F1 their harmonic mean.

The matcher compares cell by cell only the column pairs whose first
non-NULL cells can be equal: columns are bucketed by the position of that
cell and an exact key of it, and a column whose first non-NULL cell has no
exact key (a non-integer float, say) is compared with every column.  NULL
equals only NULL, so the pruning is exact in both row-order modes and scores
are the same as comparing all M x N pairs.

Order-insensitive mode sorts each column once per table.  The type scan that
picks the sort also marks a column plain: only NULL, int, float, text and
bytes cells, and no NaN (``True == 1``, and two lists that hold one NaN
object are ``==``).  One C-level ``==`` accepts two plain sorted columns; any other
pair goes through ``cells_equal``.  Ordered mode has no accept: with no sort
to pay for it, the type scan costs as much as the accept saves.
"""

from __future__ import annotations

import math
import operator
import sqlite3
import sys
import time
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

from .anchor import DEFAULT_ANCHOR, anchor_sql
from .sqlast import ParseError

DEFAULT_TIMEOUT_S = 10.0
DEFAULT_ROW_CAP = 100_000
DEFAULT_REL_TOL = 1e-9

# below 2**29 two distinct integers are never within DEFAULT_REL_TOL of each other
_EXACT_INT_BOUND = 2**29
# below 2**53 every integer converts to float exactly, so native order is float order
_NATIVE_SORT_BOUND = 2**53

# a statement may read and call functions, load_extension aside, and do nothing else
_READ_ACTIONS = {sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_RECURSIVE}
_NO_AUTHORIZER = None if sys.version_info >= (3, 11) else lambda *_: sqlite3.SQLITE_OK  # Python 3.10 calls a None one, which denies

VERDICT_SCORED = "scored"
VERDICT_EXECUTION_ERROR = "execution_error"
VERDICT_INVALID = "invalid_prediction"

Cell = object  # None | int | float | str | bytes


def valid_timeout(seconds: object) -> bool:
    """True for a finite number of seconds above 0.  A NaN deadline never
    passes, and one at or before the start interrupts every query."""
    return isinstance(seconds, (int, float)) and 0 < seconds < math.inf


class ExecutionError(Exception):
    """A query could not be executed; ``stage`` says why.

    stage is one of: parse (clock text that does not tokenize), engine, timeout, row-cap, database.
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
        columns = tuple(zip(*rows)) if rows else ((),) * len(labels)
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
    if type(a) is type(b) and a == b:  # equal under every rule below; the common case
        return True
    if a is None or b is None:
        return False
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if a_num and b_num:
        try:
            return math.isclose(a, b, rel_tol=DEFAULT_REL_TOL, abs_tol=0.0) or a == b
        except OverflowError:  # an int beyond float range: the same rule on exact integer ratios
            if any(isinstance(x, float) and not math.isfinite(x) for x in (a, b)):
                return False  # no int is infinite or NaN
            (an, ad), (bn, bd), (tn, td) = a.as_integer_ratio(), b.as_integer_ratio(), DEFAULT_REL_TOL.as_integer_ratio()
            return td * abs(an * bd - bn * ad) <= tn * max(abs(an) * bd, abs(bn) * ad)
    return isinstance(a, str) and isinstance(b, str) and a.rstrip() == b.rstrip()


def _sort_key(cell: Cell):
    if cell is None:
        return (0, "")
    if isinstance(cell, (int, float)):
        try:
            return (1, float(cell))
        except OverflowError:  # an int beyond float range; Python compares ints and floats exactly
            return (1, cell)
    if isinstance(cell, str):
        return (2, cell.rstrip())  # as cells_equal compares text, so equal keys mean equal cells
    return (3, repr(cell))


def _sorted_column(column: tuple[Cell, ...]) -> tuple[list[Cell], bool]:
    """The same list as ``sorted(column, key=_sort_key)``, mostly without a key
    function, and whether the column is plain: only NULL, int, float, text and
    bytes cells, and no NaN."""
    kinds = set(map(type, column))
    plain = kinds <= {type(None), int, float, str, bytes} and (float not in kinds or not any(map(operator.ne, column, column)))
    rest = [c for c in column if c is not None] if type(None) in kinds else list(column)
    if kinds <= {type(None), str}:
        rest.sort(key=str.rstrip)
    elif kinds <= {type(None), int, float} and plain:
        rest.sort()  # without NaN the ends are the minimum and the maximum
        if not (-_NATIVE_SORT_BOUND < rest[0] and rest[-1] < _NATIVE_SORT_BOUND):
            return sorted(column, key=_sort_key), plain
    else:
        return sorted(column, key=_sort_key), plain
    return [None] * (len(column) - len(rest)) + rest, plain


def _sorted_columns(columns) -> tuple[list[list[Cell]], set[int]]:
    """Each column as ``_sorted_column`` sorts it, and the indices of the plain ones."""
    pairs = [_sorted_column(c) for c in columns]
    return [c for c, _ in pairs], {i for i, (_, plain) in enumerate(pairs) if plain}


def _exact_key(cell: Cell):
    """A key of a non-NULL cell, equal for two cells that both have one exactly
    when ``cells_equal`` holds; None for cells that need tolerance."""
    kind = type(cell)
    if kind is str:
        return cell.rstrip()
    if (kind is int or kind is float and cell.is_integer()) and -_EXACT_INT_BOUND < cell < _EXACT_INT_BOUND:
        return int(cell)
    return None


def _bucket_key(column) -> object:
    """The position of a column's first non-NULL cell and that cell's exact
    key, or the column's length when it is all NULL; None when that cell has
    no exact key.  Columns that can be equal cell by cell have equal keys."""
    for i, cell in enumerate(column):
        if cell is not None:
            key = _exact_key(cell)
            return None if key is None else (i, key)
    return len(column)


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
    p_plain = t_plain = ()  # the indices of plain sorted columns; ordered mode has none
    if order_insensitive:
        p_cols, p_plain = _sorted_columns(p_cols)
        t_cols, t_plain = _sorted_columns(t_cols)

    # a compatible pair has its NULLs in the same rows and equal first
    # non-NULL cells, so each predicted column meets only the truth columns
    # in its own bucket and the loose ones, whose keys are None
    every = range(len(t_cols))
    buckets: dict[object, list[int]] = {}
    loose: list[int] = []
    for t_idx, t_col in enumerate(t_cols):
        key = _bucket_key(t_col)
        if key is None:
            loose.append(t_idx)
        else:
            buckets.setdefault(key, []).append(t_idx)
    compat = []
    for p_idx, p_col in enumerate(p_cols):
        key = _bucket_key(p_col)
        candidates = every if key is None else sorted(buckets.get(key, []) + loose)
        compat.append([t for t in candidates if (p_idx in p_plain and t in t_plain and p_col == t_cols[t]) or all(map(cells_equal, p_col, t_cols[t]))])

    # augmenting paths, searched depth-first on a stack of [column, untried candidates, candidate tried]
    match_t: dict[int, int] = {}
    for p_idx, candidates in enumerate(compat):
        if candidates and candidates[0] not in match_t:  # the search takes it first
            match_t[candidates[0]] = p_idx
            continue
        seen, stack = set(), [[p_idx, iter(candidates), None]]
        while stack:
            top = stack[-1]
            top[2] = t_idx = next((t for t in top[1] if t not in seen), None)
            if t_idx is None:
                stack.pop()
            elif t_idx in match_t:
                seen.add(t_idx)
                stack.append([match_t[t_idx], iter(compat[match_t[t_idx]]), None])
            else:  # a free candidate: each column on the path takes the one it tries
                match_t.update((t, p) for p, _, t in stack)
                break
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
    # each statement text runs once per run, so caching it only holds memory
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True, cached_statements=0)
    conn.execute("PRAGMA query_only = ON")
    return conn


def _authorize(action: int, arg1, arg2, *_) -> int:
    allowed = action in _READ_ACTIONS or (action == sqlite3.SQLITE_FUNCTION and arg2 != "load_extension")
    return sqlite3.SQLITE_OK if allowed else sqlite3.SQLITE_DENY


def execute(
    sql: str,
    db: str | Path | sqlite3.Connection,
    anchor: str | datetime = DEFAULT_ANCHOR,
    *,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> ResultTable:
    """Anchor the clock in the SQL text ``sql`` with ``anchor_sql`` and run it read-only.

    An authorizer, set for this call only, lets it read and call functions but
    not load_extension, so ATTACH, PRAGMA and DML fail.  The result is
    materialized fully; a timeout and ``DEFAULT_ROW_CAP`` bound runaway
    predictions.  Raises ExecutionError on any failure, no result columns
    included, and with stage ``timeout`` on a bad ``timeout_s``.
    """
    if not valid_timeout(timeout_s):
        raise ExecutionError(f"timeout_s must be a finite number of seconds above 0, got {timeout_s!r}", stage="timeout")
    try:
        sql = anchor_sql(sql, anchor)
    except ParseError as exc:
        raise ExecutionError(f"query does not tokenize: {exc}", stage="parse") from exc

    own_connection = not isinstance(db, sqlite3.Connection)
    conn = _open_readonly(db) if own_connection else db
    deadline = time.monotonic() + timeout_s
    conn.set_progress_handler(lambda: 1 if time.monotonic() > deadline else 0, 10_000)
    conn.set_authorizer(_authorize)
    cursor = conn.cursor()
    try:
        cursor.execute(sql)
        if cursor.description is None:
            raise ExecutionError("statement returns no result columns", stage="engine")
        rows = cursor.fetchmany(DEFAULT_ROW_CAP + 1)
        if len(rows) > DEFAULT_ROW_CAP:
            raise ExecutionError(f"result exceeds row cap of {DEFAULT_ROW_CAP}", stage="row-cap")
        return ResultTable.from_rows([d[0] for d in cursor.description], rows)
    except (sqlite3.Error, sqlite3.Warning, ValueError) as exc:  # Python refuses some texts itself: a NUL, a lone surrogate
        if isinstance(exc, sqlite3.OperationalError) and "interrupted" in str(exc).lower():
            raise ExecutionError(f"query timed out after {timeout_s}s", stage="timeout") from exc
        raise ExecutionError(f"engine error: {exc}", stage="engine") from exc
    finally:
        cursor.close()  # a shared connection outlives this call; end the statement here
        conn.set_authorizer(_NO_AUTHORIZER)
        conn.set_progress_handler(None, 0)
        if own_connection:
            conn.close()
