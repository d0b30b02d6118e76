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

A table is plain when ``_run`` read it over a connection sqlscore opened:
Python's sqlite3 gives its cells as NULL, int, float, text or bytes and SQLite
never as NaN, so ``==`` implies ``cells_equal`` for them (unlike ``True == 1``
or two lists holding one NaN object).  Between two plain tables, columns
``==`` in row order are accepted by that one comparison in both row-order
modes; every other table compares cell by cell.  Order-insensitive mode scans
each column once for its NULL count and least non-NULL cell, which give the
key the sorted column would, rejects a loose pair whose NULL counts or least
cells differ, and sorts the columns of the pairs left, each once per call, to
compare them by one ``==`` (plain tables) or by ``cells_equal``.
"""

from __future__ import annotations

import functools
import math
import operator
import sqlite3
import sys
import time
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

from .anchor import DEFAULT_ANCHOR, _anchor, parse_anchor

DEFAULT_TIMEOUT_S = 10.0
DEFAULT_ROW_CAP = 100_000
DEFAULT_REL_TOL = 1e-9

# below 2**29 two distinct integers are never within DEFAULT_REL_TOL of each other
_EXACT_INT_BOUND = 2**29
_NUMBER_KINDS, _TEXT_KINDS = {type(None), int, float}, {type(None), str}
_not_null = functools.partial(operator.is_not, None)

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
    return isinstance(seconds, (int, float)) and not isinstance(seconds, bool) and 0 < seconds < math.inf


class ExecutionError(Exception):
    """A query could not be executed; ``stage`` says why.

    stage is one of: engine, timeout, row-cap, database, anchor.
    """

    def __init__(self, message: str, stage: str):
        super().__init__(message)
        self.stage = stage


@dataclass(frozen=True)
class ResultTable:
    """Materialized query output: labeled columns of equal length.

    Labels need not be unique; predicted queries may duplicate them.  Raises
    ValueError when the labels and columns differ in number or the columns
    in length.
    """

    labels: tuple[str, ...]
    columns: tuple[tuple[Cell, ...], ...]
    _plain = False  # not a field: True on a table ``_run`` read over a connection sqlscore opened

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.columns) or len({len(c) for c in self.columns}) > 1:
            raise ValueError(f"{len(self.labels)} labels for columns of lengths {[len(c) for c in self.columns]}")

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
        return (1, cell)  # by exact value, as Python compares ints and floats, so native order is sort order
    if isinstance(cell, str):
        return (2, cell.rstrip())  # as cells_equal compares text, so equal keys mean equal cells
    return (3, repr(cell))


def _scan(column: tuple[Cell, ...], plain: bool = False) -> tuple[object, int, Cell, object, tuple | list]:
    """One type scan of a column of a table that is ``plain`` or not: the
    ``_bucket_key`` of it sorted, its NULL count, its least non-NULL cell (the
    first of ties, as a stable sort leaves it; None if all are NULL), the key
    that sorts its non-NULL cells (None: natively, only for a plain table's
    numbers) and those cells."""
    kinds = set(map(type, column))
    cells = list(filter(_not_null, column)) if type(None) in kinds else column
    nulls = len(column) - len(cells)
    sort_key = str.rstrip if kinds <= _TEXT_KINDS else None if plain and kinds <= _NUMBER_KINDS else _sort_key
    if not cells:
        return nulls, nulls, None, sort_key, cells
    least = min(cells, key=sort_key)
    key = _exact_key(least)
    return None if key is None else (nulls, key), nulls, least, sort_key, cells


def _sorted_column(column: tuple[Cell, ...], scan=None) -> list[Cell]:
    """The same list as ``sorted(column, key=_sort_key)``, mostly without that key
    (text stripped if all cells are); ``scan`` is its ``_scan``."""
    _, nulls, _, sort_key, cells = scan or _scan(column)
    if sort_key is str.rstrip:  # stripped, as cells_equal compares text, so it sorts natively and == decides
        return [None] * nulls + sorted(map(str.rstrip, cells))
    if sort_key is None:
        return [None] * nulls + sorted(cells)
    return sorted(column, key=_sort_key)


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
    cell is equal, in row order unless ``order_insensitive`` compares the
    columns sorted (sorting a column only when a pair needs it); labels are
    ignored.  Returns (predicted index, truth index) pairs.
    """
    if predicted.row_count != truth.row_count:
        return []
    p_cols, t_cols = predicted.columns, truth.columns
    plain = predicted._plain and truth._plain  # == implies cells_equal for their cells
    if order_insensitive:
        p_scans, t_scans = [_scan(c, plain) for c in p_cols], [_scan(c, plain) for c in t_cols]
        p_keys, t_keys = [s[0] for s in p_scans], [s[0] for s in t_scans]
        sort = functools.cache(lambda side, idx: _sorted_column((p_cols, t_cols)[side][idx], (p_scans, t_scans)[side][idx]))
    else:
        p_keys, t_keys = list(map(_bucket_key, p_cols)), list(map(_bucket_key, t_cols))

    def compatible(p_idx: int, t_idx: int) -> bool:
        p_col, t_col = p_cols[p_idx], t_cols[t_idx]
        if plain and p_col == t_col:
            return True  # in row order; a stable sort moves equal plain cells alike
        if order_insensitive:
            (p_key, p_nulls, p_least, _, _), (t_key, t_nulls, t_least, _, _) = p_scans[p_idx], t_scans[t_idx]
            if (p_key is None or t_key is None) and (p_nulls != t_nulls or not (p_least == t_least or cells_equal(p_least, t_least))):
                return False  # a loose pair whose sorted columns differ at the first non-NULL cell
            p_col, t_col = sort(0, p_idx), sort(1, t_idx)
            if plain and p_col == t_col:
                return True
        return all(map(cells_equal, p_col, t_col))

    # a compatible pair has its NULLs in the same rows (sorted, in the same
    # number) and equal first non-NULL cells, so each predicted column meets
    # only the truth columns in its own bucket and the loose ones, whose keys are None
    every = range(len(t_cols))
    buckets: dict[object, list[int]] = {}
    loose: list[int] = []
    for t_idx, key in enumerate(t_keys):
        if key is None:
            loose.append(t_idx)
        else:
            buckets.setdefault(key, []).append(t_idx)
    compat = []
    for p_idx, key in enumerate(p_keys):
        candidates = every if key is None else sorted(buckets.get(key, []) + loose)
        compat.append([t for t in candidates if compatible(p_idx, t)])

    # augmenting paths, searched depth-first on a stack of [column, untried candidates, candidate tried]
    match_t: dict[int, int] = {}
    for p_idx, candidates in enumerate(compat):
        for t_idx in candidates:  # a free candidate is a path of one edge: a block of equal columns needs no search
            if t_idx not in match_t:
                match_t[t_idx] = p_idx
                break
        else:  # every candidate is taken
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


class _ReadOnly(sqlite3.Connection):
    """A connection ``_open_readonly`` made: no converters, ``str`` text."""


def _open_readonly(db_path: str | Path) -> _ReadOnly:
    path = Path(db_path)
    if not path.is_file():
        raise ExecutionError(f"database file not found: {path}", stage="database")
    # each statement text runs once per run, so caching it only holds memory
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True, cached_statements=0, factory=_ReadOnly)
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
    """Anchor the clock in the SQL text ``sql`` with ``anchor_sql`` and run it read-only;
    any ``sql`` but a str reads as the empty text.

    An authorizer, set for this call only, lets it read and call functions but
    not load_extension, so ATTACH, PRAGMA and DML fail.  The result is
    materialized fully; a timeout and ``DEFAULT_ROW_CAP`` bound runaway
    predictions.  Raises ExecutionError on any failure, no result columns
    included, with stage ``timeout`` on a bad ``timeout_s``, and with stage
    ``anchor`` on an ``anchor`` that is not an ISO 8601 instant, whatever ``sql`` is.
    A connection passed as ``db`` has its ``row_factory`` ignored and its
    authorizer and progress handler cleared on return; its converters and
    ``text_factory`` apply, so its tables match by ``cells_equal`` alone.
    """
    if not valid_timeout(timeout_s):
        raise ExecutionError(f"timeout_s must be a finite number of seconds above 0, got {timeout_s!r}", stage="timeout")
    try:
        instant = parse_anchor(anchor)
    except (TypeError, ValueError) as exc:
        raise ExecutionError(f"invalid anchor: {exc}", stage="anchor") from exc
    return _run(_anchor(sql if isinstance(sql, str) else "", instant)[0], db, timeout_s)


def _run(sql: str, db: str | Path | sqlite3.Connection, timeout_s: float) -> ResultTable:
    """``execute`` for a text whose clock is already anchored, with a valid ``timeout_s``."""
    own_connection = not isinstance(db, sqlite3.Connection)
    conn = _open_readonly(db) if own_connection else db
    deadline = time.monotonic() + timeout_s
    conn.set_progress_handler(lambda: 1 if time.monotonic() > deadline else 0, 10_000)
    conn.set_authorizer(_authorize)
    cursor = conn.cursor()
    cursor.row_factory = None  # rows as tuples of cells, whatever the connection's factory
    try:
        cursor.execute(sql)
        if cursor.description is None:
            raise ExecutionError("statement returns no result columns", stage="engine")
        rows = cursor.fetchmany(DEFAULT_ROW_CAP + 1)
        if len(rows) > DEFAULT_ROW_CAP:
            raise ExecutionError(f"result exceeds row cap of {DEFAULT_ROW_CAP}", stage="row-cap")
        table = ResultTable.from_rows([d[0] for d in cursor.description], rows)
        object.__setattr__(table, "_plain", isinstance(conn, _ReadOnly))  # a caller's converters may give bools
        return table
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
