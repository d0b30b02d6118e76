import math
import os
import random
import sqlite3
import subprocess
import struct
import sys
from dataclasses import asdict, fields, replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlscore import ExecutionError, ResultTable, cells_equal, execute, match_columns, parse, render, results, score_result_pair
from sqlscore.results import VERDICT_SCORED, _open_readonly, _sort_key, _sorted_column

from helpers import float_sort_key_reference, max_matching_oracle, random_result_table


def table(*columns, labels=None):
    labels = labels or [f"c{i}" for i in range(len(columns))]
    return ResultTable(tuple(labels), tuple(tuple(c) for c in columns))


def read_back(path: Path, *columns) -> ResultTable:
    """A table of ``columns`` written to a new SQLite file at ``path`` and read
    back by ``execute``, over a connection sqlscore opens, so marked plain."""
    names = [f"c{i}" for i in range(len(columns))]
    with sqlite3.connect(path) as conn:
        conn.execute(f"CREATE TABLE t ({', '.join(names)})")
        conn.executemany(f"INSERT INTO t VALUES ({', '.join('?' * len(names))})", zip(*columns))
    conn.close()
    read = execute(f"SELECT {', '.join(names)} FROM t ORDER BY rowid", path)
    assert read._plain and read == table(*columns)
    return read


class TestCellEquality:
    def test_null_equals_null_only(self):
        assert cells_equal(None, None)
        assert not cells_equal(None, 0)
        assert not cells_equal("", None)

    def test_numbers_compare_across_types_with_tolerance(self):
        assert cells_equal(1, 1.0)
        assert cells_equal(0.1 + 0.2, 0.3)
        assert cells_equal(1e12, 1e12 + 1)  # within 1e-9 relative
        assert not cells_equal(1.0, 1.001)
        assert not cells_equal(0.0, 1e-15)  # strict relative tolerance at zero

    def test_text_trims_trailing_whitespace_only(self):
        assert cells_equal("abc ", "abc")
        assert cells_equal("abc\t\n", "abc")
        assert not cells_equal(" abc", "abc")
        assert not cells_equal("ABC", "abc")

    def test_text_never_equals_number(self):
        assert not cells_equal("1", 1)

    def test_bool_is_not_a_number_and_nan_is_unequal(self):
        assert cells_equal(True, True)
        assert not cells_equal(True, 1)  # True == 1 in Python, but a bool is not a number here
        assert not cells_equal(1.0, True)
        assert not cells_equal(b"x", "x")
        assert not cells_equal(float("nan"), float("nan"))

    def test_ints_beyond_float_range_compare_by_the_same_rule(self):
        huge = 10**400
        assert cells_equal(huge, huge + 1)  # within 1e-9 relative
        assert not cells_equal(huge, 2 * huge)
        assert not cells_equal(huge, 1.0)
        assert not cells_equal(-huge, huge)
        assert not cells_equal(huge, float("inf"))
        assert not cells_equal(float("nan"), huge)
        # just beyond the largest float, 2**-53 apart relative to it
        assert cells_equal(2**1024, sys.float_info.max)

    def test_ints_beyond_float_range_sort_by_value(self):
        column = (10**400, None, 1.5, -(10**400), float("inf"), 2 * 10**400, 7)
        assert sorted(column, key=_sort_key) == [None, -(10**400), 1.5, 7, 10**400, 2 * 10**400, float("inf")]
        t = table([10**400])
        assert match_columns(t, t, order_insensitive=True) == [(0, 0)]
        shuffled, ordered = table([10**400, 2 * 10**400, 5]), table([5, 2 * 10**400, 10**400])
        assert match_columns(shuffled, ordered, order_insensitive=True) == [(0, 0)]
        assert match_columns(shuffled, ordered) == []


class TestResultTableShape:
    @pytest.mark.parametrize(
        "labels, columns",
        [(("x", "y"), ((1, 2, 3), (9,))), (("x",), ((1,), (2,))), (("x", "y"), ((1,),))],
        ids=["ragged columns", "more columns than labels", "more labels than columns"],
    )
    def test_bad_shape_raises_value_error(self, labels, columns):
        with pytest.raises(ValueError):
            ResultTable(labels, columns)

    def test_shape_is_checked_with_assertions_off(self):
        # a ragged table would match (1, 2, 3) and (9, 8, 7) in full: map stops at the shorter column
        code = "from sqlscore import ResultTable\ntry:\n    ResultTable(('x', 'y'), ((1, 2, 3), (9,)))\nexcept ValueError:\n    print('refused')"
        src = str(Path(results.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "refused\n"), proc.stderr


class TestMatchColumns:
    def test_identical_tables_relabeled(self):
        a = table([1, 2], ["x", "y"], labels=["p", "q"])
        b = table([1, 2], ["x", "y"], labels=["total", "name"])
        assert match_columns(a, b) == [(0, 0), (1, 1)]

    def test_extra_rank_column_left_unmatched(self):
        truth = table(["ads", "search", "video"], [900, 700, 500])
        predicted = table([1, 2, 3], ["ads", "search", "video"], [900, 700, 500])
        pairs = match_columns(predicted, truth)
        assert pairs == [(1, 0), (2, 1)]

    def test_different_row_counts_never_match(self):
        assert match_columns(table([1, 2]), table([1, 2, 3])) == []

    def test_duplicate_columns_one_to_one(self):
        predicted = table([1, 2], [1, 2])
        truth = table([1, 2])
        assert len(match_columns(predicted, truth)) == 1

    def test_column_permutation_invariance(self):
        truth = table([1, 2], ["a", "b"], [9.5, 8.5])
        predicted = table([9.5, 8.5], [1, 2], ["a", "b"])
        assert len(match_columns(predicted, truth)) == 3

    def test_order_insensitive_mode(self):
        truth = table([3, 1, 2])
        predicted = table([1, 2, 3])
        assert match_columns(predicted, truth) == []
        assert match_columns(predicted, truth, order_insensitive=True) == [(0, 0)]

    def test_order_insensitive_sorts_mixed_types(self):
        truth = table([None, "x", 2, 1.5])
        predicted = table(["x", 1.5, None, 2])
        assert match_columns(predicted, truth, order_insensitive=True) == [(0, 0)]

    def test_order_insensitive_keys_text_as_compared(self):
        # "b\n" equals "b", but as raw text it sorts after "b\t!"
        predicted = table(["b\n", "b\t!"])
        truth = table(["b", "b\t!"])
        assert match_columns(predicted, truth, order_insensitive=True) == [(0, 0)]

    @pytest.mark.parametrize("seed", range(60))
    def test_matching_equals_exhaustive_oracle(self, seed):
        rng = random.Random(seed)
        predicted = random_result_table(rng)
        truth = random_result_table(rng)
        pairs = match_columns(predicted, truth)
        compat = [
            [
                truth.row_count == predicted.row_count
                and all(cells_equal(x, y) for x, y in zip(p_col, t_col))
                for t_col in truth.columns
            ]
            for p_col in predicted.columns
        ]
        assert len(pairs) == max_matching_oracle(compat)
        # sanity: every reported pair is actually compatible
        for p_idx, t_idx in pairs:
            assert compat[p_idx][t_idx]

    def test_distinct_columns_compare_only_their_partner(self, monkeypatch):
        calls = 0

        def counting_cells_equal(a, b):
            nonlocal calls
            calls += 1
            return cells_equal(a, b)

        monkeypatch.setattr(results, "cells_equal", counting_cells_equal)
        truth = table(*([7 * i] for i in range(320)))
        order = list(range(320))
        random.Random(5).shuffle(order)
        predicted = table(*([7 * i] for i in order))
        assert len(match_columns(predicted, truth)) == 320
        assert calls <= 2 * 320  # all M x N pairs would be 102,400 calls

    def test_block_of_equal_columns_needs_no_search(self, monkeypatch):
        # each column first takes a free candidate, a path of one edge; a matcher that searches whenever
        # a column's first candidate is taken walks the k columns matched before column k
        searched = []
        monkeypatch.setattr(results, "iter", lambda candidates: searched.append(candidates) or iter(candidates), raising=False)
        block = table(*([1],) * 300)
        for order_insensitive in (False, True):
            assert match_columns(block, block, order_insensitive) == [(i, i) for i in range(300)]
        assert searched == []
        # a column whose candidates are all taken searches: within tolerance, the first predicted column
        # equals both truth columns and the second only the first, which the search frees for it
        truth = table([1.0], [1 + 1.5e-9])
        assert match_columns(table([1 + 0.75e-9], [1 - 0.75e-9]), truth) == [(0, 1), (1, 0)]
        assert searched == [[0], [0, 1]]

    def test_augmenting_path_deeper_than_the_recursion_limit(self):
        # within tolerance, predicted column i equals truth columns i and i + 1 and the last
        # one only truth column 0, so the one perfect matching shifts every earlier pair
        truth = table(*([1 + j * 1.5e-9] for j in range(1101)))
        predicted = table(*([1 + (i + 0.5) * 1.5e-9] for i in range(1100)), [1 - 0.75e-9])
        assert 1101 > sys.getrecursionlimit()
        assert match_columns(predicted, truth) == [(i, i + 1) for i in range(1100)] + [(1100, 0)]

    @pytest.mark.parametrize("order_insensitive", [False, True])
    def test_nullable_columns_compare_only_their_partner(self, monkeypatch, order_insensitive):
        calls = 0

        def counting_cells_equal(a, b):
            nonlocal calls
            calls += 1
            return cells_equal(a, b)

        monkeypatch.setattr(results, "cells_equal", counting_cells_equal)
        # 64 distinct columns of 100 rows, 80% NULL: sorted, each starts with 80 NULLs
        truth = table(*([1000 * j + r if (r + j) % 5 == 0 else None for r in range(100)] for j in range(64)))
        predicted = table(*reversed(truth.columns))
        assert len(match_columns(predicted, truth, order_insensitive)) == 64
        assert calls <= 64 * 100  # one full comparison per partner

    @pytest.mark.parametrize(
        "columns",
        [
            [[1000 * j + r for r in range(100)] for j in range(16)],
            [[r / 8 + 1 / 16 for r in range(100)]],  # a non-integer first cell meets every column, so one column
            [[f"name {j} {r}" + " " * (r % 3) for r in range(100)] for j in range(16)],
            [[1000 * j + r if (r + j) % 5 == 0 else None for r in range(100)] for j in range(16)],
            # each text three times, with 0, 1 or 2 trailing blanks, which a stable sort by the stripped
            # text leaves in row order, so sorted raw cells of a shuffled copy would differ
            [[f"name {j} {r // 3}" + " " * (r % 3) for r in range(100)] for j in range(16)],
        ],
        ids=["int", "non-integer float", "text with trailing whitespace", "80% NULL", "text differing in trailing blanks"],
    )
    def test_plain_columns_in_shuffled_rows_match_without_cell_comparisons(self, monkeypatch, tmp_path, columns):
        calls = 0

        def counting_cells_equal(a, b):
            nonlocal calls
            calls += 1
            return cells_equal(a, b)

        monkeypatch.setattr(results, "cells_equal", counting_cells_equal)
        rng = random.Random(11)
        truth = read_back(tmp_path / "truth.sqlite", *columns)
        predicted = read_back(tmp_path / "predicted.sqlite", *(rng.sample(c, len(c)) for c in reversed(columns)))
        n = len(columns)
        assert match_columns(predicted, truth, order_insensitive=True) == [(i, n - 1 - i) for i in range(n)]
        assert calls == 0  # each sorted pair is accepted by one list ==

    @pytest.mark.parametrize("order_insensitive", [False, True])
    def test_python_equality_is_not_cell_equality(self, order_insensitive):
        assert match_columns(table([True]), table([1]), order_insensitive) == []  # True == 1, but a bool is no number
        nan = float("nan")  # one object, so a list holding it is == to itself
        assert match_columns(table([nan, 2.5]), table([nan, 2.5]), order_insensitive) == []

    @staticmethod
    def _count_calls(monkeypatch, name: str) -> list:
        calls, real = [], getattr(results, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(results, name, counting)
        return calls

    def test_order_insensitive_sorts_only_when_a_pair_needs_it(self, monkeypatch, tmp_path):
        sorts, comparisons = self._count_calls(monkeypatch, "_sorted_column"), self._count_calls(monkeypatch, "cells_equal")
        rng = random.Random(23)

        # plain columns in the truth's row order: accepted by one == each, nothing sorted or compared
        # (fails at a matcher that sorts every column first, or with the in-order accept dropped)
        columns = [[1000 * j + r for r in range(50)] for j in range(4)]
        columns += [[f"name {j} {r}" + " " * (r % 2) for r in range(50)] for j in range(4)]
        columns += [[1000 * j + r if r % 5 == 0 else None for r in range(50)] for j in range(4, 8)]
        order = rng.sample(range(12), 12)
        predicted, truth = read_back(tmp_path / "p1.sqlite", *(columns[j] for j in order)), read_back(tmp_path / "t1.sqlite", *columns)
        assert match_columns(predicted, truth, order_insensitive=True) == sorted(enumerate(order))
        assert (len(sorts), len(comparisons)) == (0, 0)

        # shuffled rows, and every column starts at 0, so each predicted column meets all eight truth
        # columns: each column is sorted once, not once per candidate (fails with the sort cache dropped)
        columns = [[0] + [1000 * j + r for r in range(1, 50)] for j in range(8)]
        predicted = read_back(tmp_path / "p2.sqlite", *(rng.sample(c, len(c)) for c in reversed(columns)))
        assert match_columns(predicted, read_back(tmp_path / "t2.sqlite", *columns), order_insensitive=True) == [(i, 7 - i) for i in range(8)]
        assert sorted(len(c) for c, *_ in sorts) == [50] * 16 and len({id(c) for c, *_ in sorts}) == 16

        # non-integer floats have loose keys and meet every column; those whose NULL counts or least cells
        # differ are rejected unsorted, so only the shuffled partners sort (fails with the loose-pair reject
        # dropped, and with its NULL count test dropped)
        sorts.clear()
        columns = [[j + 0.5 + r / 8 for r in range(50)] for j in range(8)]
        strangers = [[j + 0.25 + r / 8 for r in range(50)] for j in range(8, 11)] + [columns[5][:-1] + [None]]
        predicted = read_back(tmp_path / "p3.sqlite", *(rng.sample(c, len(c)) for c in columns[:4]), *strangers)
        assert match_columns(predicted, read_back(tmp_path / "t3.sqlite", *columns), order_insensitive=True) == [(i, i) for i in range(4)]
        assert len(sorts) == 8


# boundaries of the matcher's first-cell keys, of its native sort and of its
# == accept: 1 and 1.0 are == to True, and one NaN object is == to itself in a list
_NAN = float("nan")
_BOUNDARY_POOL = [
    None, "", "b", "b ", "b\n", 3, 3.0, 5, 5.000000001,
    2**29 - 1, -(2**29 - 1), 2**29, -(2**29), 10**9, 10**9 + 1, 10**12, 10**12 + 1,
    0.1 + 0.2, 0.3, 2**53, 2**53 + 1, -(2**53), -(2**53) - 1, 2**53 - 1, -(2**53 - 1),
    float("inf"), True, b"x", 1, 1.0, _NAN,
]  # fmt: skip
# cells that are equal under cells_equal but differ as Python values
_EQUAL_GROUPS = [
    ["b", "b ", "b\n"], [3, 3.0], [5, 5.000000001], [10**9, 10**9 + 1], [10**12, 10**12 + 1], [0.1 + 0.2, 0.3], [2**53, 2**53 + 1],
    [-(2**53), -(2**53) - 1],
]  # fmt: skip


def _equal_variant(rng: random.Random, cell):
    for group in _EQUAL_GROUPS:
        if any(type(cell) is type(x) and cell == x for x in group):
            return rng.choice(group)
    return cell


def _boundary_pair(rng: random.Random, order_insensitive: bool) -> tuple[ResultTable, ResultTable]:
    n_rows = rng.randint(0, 4)
    truth_columns = [[rng.choice(_BOUNDARY_POOL) for _ in range(n_rows)] for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.1:
        n_rows = rng.randint(0, 4)
    predicted_columns = []
    for _ in range(rng.randint(1, 6)):
        source = rng.choice(truth_columns)
        if len(source) != n_rows or rng.random() < 0.25:
            column = [rng.choice(_BOUNDARY_POOL) for _ in range(n_rows)]
        else:
            column = [_equal_variant(rng, cell) for cell in source]
            if order_insensitive:
                rng.shuffle(column)
        predicted_columns.append(column)
    return table(*predicted_columns), table(*truth_columns)


def _reference_match_columns(predicted: ResultTable, truth: ResultTable, order_insensitive: bool) -> list[tuple[int, int]]:
    """All M x N pairs compared cell by cell, then augmenting-path matching
    that takes a free candidate first; checked maximal on small tables."""
    if predicted.row_count != truth.row_count:
        return []
    p_cols, t_cols = predicted.columns, truth.columns
    if order_insensitive:
        p_cols = [sorted(c, key=_sort_key) for c in p_cols]
        t_cols = [sorted(c, key=_sort_key) for c in t_cols]
    compat = [[t_idx for t_idx, t_col in enumerate(t_cols) if all(map(cells_equal, p_col, t_col))] for p_col in p_cols]
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

    for p_idx, candidates in enumerate(compat):
        free = next((t_idx for t_idx in candidates if t_idx not in match_t), None)
        if free is None:
            try_assign(p_idx, set())
        else:
            match_t[free] = p_idx
    if len(compat) <= 8:
        assert len(match_t) == max_matching_oracle([[t_idx in row for t_idx in range(len(t_cols))] for row in compat])
    return sorted((p_idx, t_idx) for t_idx, p_idx in match_t.items())


@pytest.mark.parametrize("order_insensitive", [False, True])
def test_matching_equals_all_pairs_reference_on_boundary_cells(order_insensitive):
    rng = random.Random(2029 + order_insensitive)
    for _ in range(600):
        predicted, truth = _boundary_pair(rng, order_insensitive)
        expected = _reference_match_columns(predicted, truth, order_insensitive)
        assert match_columns(predicted, truth, order_insensitive) == expected, (predicted, truth)
        for column in predicted.columns + truth.columns:
            typed = [(type(x), x) for x in _sorted_column(column)]
            text = all(x is None or type(x) is str for x in column)  # a text column sorts its cells stripped
            assert typed == [(type(x), x.rstrip() if text and x is not None else x) for x in sorted(column, key=_sort_key)], column


def _nullable_pair(rng: random.Random, order_insensitive: bool) -> tuple[ResultTable, ResultTable]:
    """Mixed-type columns, from none to all of their cells NULL; predicted
    columns are equal variants of truth columns, some with one cell's NULL
    added or taken away."""
    n_rows = rng.randint(0, 12)
    null_share = rng.choice([0.0, 0.3, 0.8, 0.95, 1.0])

    def cell():
        return None if rng.random() < null_share else rng.choice(_BOUNDARY_POOL)

    truth_columns = [[cell() for _ in range(n_rows)] for _ in range(rng.randint(1, 6))]
    predicted_columns = []
    for _ in range(rng.randint(1, 6)):
        column = [_equal_variant(rng, c) for c in rng.choice(truth_columns)]
        if column and rng.random() < 0.3:
            i = rng.randrange(n_rows)
            column[i] = rng.choice(_BOUNDARY_POOL[1:]) if column[i] is None else None
        if order_insensitive:
            rng.shuffle(column)
        predicted_columns.append(column)
    return table(*predicted_columns), table(*truth_columns)


@pytest.mark.parametrize("order_insensitive", [False, True])
def test_matching_equals_all_pairs_reference_on_nullable_columns(order_insensitive):
    rng = random.Random(4051 + order_insensitive)
    for _ in range(600):
        predicted, truth = _nullable_pair(rng, order_insensitive)
        expected = _reference_match_columns(predicted, truth, order_insensitive)
        assert match_columns(predicted, truth, order_insensitive) == expected, (predicted, truth)


# Python-equal cells that are not cell-equal: a bool is no number here
_PYTHON_TWINS = {(int, 1): True, (float, 1.0): True, (bool, True): 1}


def _row_order_pair(rng: random.Random, n_rows: int, n_columns: int) -> tuple[ResultTable, ResultTable]:
    """Predicted columns are equal variants of truth columns, kept in the
    truth's row order, reversed or shuffled; some swap in Python-equal
    twins, and some are fresh.  Each column draws from a few pool cells."""
    null_share = rng.choice([0.0, 0.3, 0.8])

    def column():
        pool = rng.sample(_BOUNDARY_POOL, rng.randint(1, 4))
        return [None if rng.random() < null_share else rng.choice(pool) for _ in range(n_rows)]

    truth_columns = [column() for _ in range(n_columns)]
    predicted_columns = []
    for _ in range(rng.randint(1, n_columns + 1)):
        if rng.random() < 0.15:
            predicted_columns.append(column())
            continue
        cells = [_equal_variant(rng, c) for c in rng.choice(truth_columns)]
        if rng.random() < 0.2:
            cells = [_PYTHON_TWINS.get((type(c), c), c) for c in cells]
        order = rng.choice(["kept", "kept", "reversed", "shuffled"])
        if order == "reversed":
            cells.reverse()
        elif order == "shuffled":
            rng.shuffle(cells)
        predicted_columns.append(cells)
    return table(*predicted_columns), table(*truth_columns)


def test_order_insensitive_matching_equals_reference_on_row_order_variants():
    rng = random.Random(6113)
    pairs = [_row_order_pair(rng, rng.randint(0, 6), rng.randint(1, 6)) for _ in range(800)]
    pairs.append(_row_order_pair(rng, 200, 40))  # one wide case: many candidates per column, each column sorted once
    for predicted, truth in pairs:
        expected = _reference_match_columns(predicted, truth, order_insensitive=True)
        assert match_columns(predicted, truth, order_insensitive=True) == expected, (predicted, truth)


class TestScoreResultPair:
    def test_perfect_prediction(self):
        t = table([1, 2], ["x", "y"], [0.5, 0.25])
        score = score_result_pair(t, t)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_two_of_three_truth_columns(self):
        truth = table(["ads", "search", "video"], [900, 700, 500], [0.5, 0.25, 0.125])
        predicted = table(["ads", "search", "video"], [900, 700, 500])
        score = score_result_pair(predicted, truth)
        assert score.precision == pytest.approx(1.0)
        assert score.recall == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert score.f1 == pytest.approx(0.8, abs=1e-9)

    def test_wrong_constant_zeroes_everything(self):
        truth = table([900])
        predicted = table([901])
        score = score_result_pair(predicted, truth)
        assert score.precision == score.recall == score.f1 == 0.0

    def test_empty_versus_empty_is_perfect(self):
        empty = ResultTable((), ())
        score = score_result_pair(empty, empty)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_empty_prediction_versus_truth_is_zero(self):
        empty = ResultTable((), ())
        score = score_result_pair(empty, table([1]))
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_f1_bounded_by_max_of_p_and_r(self):
        rng = random.Random(99)
        for _ in range(200):
            predicted = random_result_table(rng)
            truth = random_result_table(rng)
            score = score_result_pair(predicted, truth)
            assert 0.0 <= score.precision <= 1.0
            assert 0.0 <= score.recall <= 1.0
            assert 0.0 <= score.f1 <= max(score.precision, score.recall) + 1e-12
            if not score.matched_pairs:
                assert score.f1 == 0.0

    def test_label_invariance(self):
        truth = table([1, 2], ["x", "y"], labels=["a", "b"])
        relabeled = ResultTable(("p", "q"), truth.columns)
        score = score_result_pair(relabeled, truth)
        assert score.f1 == 1.0


# -- relations between generated result tables --------------------------------

# few text stems with varied trailing blanks, so equal cells of unequal text are common
_texts = st.builds(str.__add__, st.sampled_from(["", "a", "b"]), st.sampled_from(["", " ", "  ", "\t"]))
cells = st.none() | st.integers(-3, 3) | st.integers() | st.floats(allow_nan=False) | _texts


@st.composite
def result_tables(draw, min_columns=1):
    """Tables of 0-6 rows whose cells mix ints, floats, text and NULLs."""
    n_rows = draw(st.integers(0, 6))
    columns = draw(st.lists(st.lists(cells, min_size=n_rows, max_size=n_rows), min_size=min_columns, max_size=6))
    return table(*columns)


def _scores(predicted: ResultTable, truth: ResultTable, order_insensitive: bool = False) -> tuple[float, float]:
    score = score_result_pair(predicted, truth, order_insensitive)
    return score.precision, score.recall


_relations = settings(max_examples=40, deadline=None)
modes = pytest.mark.parametrize("order_insensitive", [False, True])


class TestResultRelations:
    @modes
    @_relations
    @given(truth=result_tables(), data=st.data())
    def test_permuted_columns_score_one(self, order_insensitive, truth, data):
        order = data.draw(st.permutations(range(truth.column_count)))
        assert _scores(table(*(truth.columns[i] for i in order)), truth, order_insensitive) == (1.0, 1.0)

    @modes
    @_relations
    @given(truth=result_tables(), data=st.data())
    def test_duplicated_column_costs_precision_only(self, order_insensitive, truth, data):
        k = truth.column_count
        copied = data.draw(st.integers(0, k - 1))
        predicted = table(*truth.columns, truth.columns[copied])
        assert _scores(predicted, truth, order_insensitive) == (k / (k + 1), 1.0)

    @modes
    @_relations
    @given(truth=result_tables(min_columns=2), data=st.data())
    def test_dropped_column_costs_recall_only(self, order_insensitive, truth, data):
        k = truth.column_count
        dropped = data.draw(st.integers(0, k - 1))
        predicted = table(*(c for i, c in enumerate(truth.columns) if i != dropped))
        assert _scores(predicted, truth, order_insensitive) == (1.0, (k - 1) / k)

    @_relations
    @given(truth=result_tables(), data=st.data())
    def test_shuffled_rows_score_one_order_insensitive(self, truth, data):
        rows = data.draw(st.permutations(list(zip(*truth.columns))))
        predicted = ResultTable.from_rows(truth.labels, rows)
        assert score_result_pair(predicted, truth, order_insensitive=True).f1 == 1.0

    @settings(max_examples=150, deadline=None)
    @given(cells, cells)
    def test_cell_equality_is_symmetric_and_null_equals_only_null(self, a, b):
        assert cells_equal(a, b) == cells_equal(b, a)
        assert cells_equal(None, a) == cells_equal(a, None) == (a is None)


class TestExecute:
    def test_select_one(self, db_dir):
        t = execute("SELECT 1", db_dir / "benchmark_1.sqlite")
        assert t.column_count == 1 and t.row_count == 1
        assert t.columns[0][0] == 1

    def test_quoted_names_with_doubled_quotes(self, tmp_path):
        db = tmp_path / "quotes.sqlite"
        with sqlite3.connect(db) as conn:
            conn.execute('CREATE TABLE "t""u" ("a""b" INTEGER, "c`d" TEXT)')
            conn.execute("""INSERT INTO "t""u" VALUES (1, 'x')""")
        conn.close()
        t = execute('SELECT x."a""b", `c``d` FROM "t""u" AS x', db)
        assert t.labels == ('a"b', "c`d")
        assert t.columns == ((1,), ("x",))

    def test_non_ascii_unquoted_names(self, tmp_path):
        db = tmp_path / "names.sqlite"
        with sqlite3.connect(db) as conn:
            conn.execute('CREATE TABLE t (prénom TEXT, 名前 INTEGER, "É" INTEGER, "a\xa0b" INTEGER)')
            conn.execute("INSERT INTO t VALUES ('x', 1, 2, 3)")
        conn.close()
        t = execute("SELECT prénom, 名前, PRéNOM, a\xa0b FROM t", db)
        assert t.labels == ("prénom", "名前", "prénom", "a\xa0b")
        assert t.columns == (("x",), (1,), ("x",), (3,))
        assert execute("SELECT É FROM t", db).columns == ((2,),)
        # SQLite folds only ASCII letters too: é does not name the column É
        with pytest.raises(ExecutionError) as exc_info:
            execute("SELECT é FROM t", db)
        assert exc_info.value.stage == "engine"

    def test_sample_count_query(self, db_dir):
        t = execute(
            "SELECT count(*) FROM pre_ranking_filter_log WHERE task = 342111 AND filter_key = 'o_rta_filter'",
            db_dir / "benchmark_1.sqlite",
        )
        assert t.column_count == 1 and t.row_count == 1
        assert t.columns[0][0] == 7

    def test_zero_rows_keep_every_column(self, db_dir):
        result = execute("SELECT name, budget, campaign_id FROM campaigns WHERE campaign_id < 0", db_dir / "benchmark_1.sqlite")
        assert result == ResultTable(("name", "budget", "campaign_id"), ((), (), ()))
        assert (result.column_count, result.row_count) == (3, 0)
        assert ResultTable.from_rows(["a", "b"], [(1, "x"), (2, None)]).columns == ((1, 2), ("x", None))

    def test_parse_failure_stage(self, db_dir):
        # the text runs as written, so SQLite judges text the parser refuses,
        # also one with a clock word, whose anchoring never fails
        for sql in ("not sql", "SELECT date('now"):
            with pytest.raises(ExecutionError) as exc_info:
                execute(sql, db_dir / "benchmark_1.sqlite")
            assert exc_info.value.stage == "engine"

    def test_engine_error_stage(self, db_dir):
        with pytest.raises(ExecutionError) as exc_info:
            execute("SELECT missing_col FROM campaigns", db_dir / "benchmark_1.sqlite")
        assert exc_info.value.stage == "engine"

    def test_missing_database(self, tmp_path):
        with pytest.raises(ExecutionError) as exc_info:
            execute("SELECT 1", tmp_path / "nope.sqlite")
        assert exc_info.value.stage == "database"

    def test_row_cap(self, db_dir, monkeypatch):
        monkeypatch.setattr(results, "DEFAULT_ROW_CAP", 100)
        cross = "SELECT a.value FROM metric_log_real AS a CROSS JOIN metric_log_real AS b"
        db = db_dir / "benchmark_1.sqlite"
        with pytest.raises(ExecutionError) as exc_info:
            execute(cross, db)
        assert exc_info.value.stage == "row-cap"
        assert execute(f"{cross} LIMIT 100", db).row_count == 100
        with pytest.raises(ExecutionError) as exc_info:
            execute(f"{cross} LIMIT 101", db)
        assert exc_info.value.stage == "row-cap"
        assert str(exc_info.value) == "result exceeds row cap of 100"

    def test_timeout(self, db_dir, monkeypatch):
        monkeypatch.setattr(results, "DEFAULT_ROW_CAP", 10**9)
        with pytest.raises(ExecutionError) as exc_info:
            execute(
                "SELECT count(*) FROM metric_log_real AS a CROSS JOIN metric_log_real AS b "
                "CROSS JOIN metric_log_real AS c CROSS JOIN metric_log_real AS d",
                db_dir / "benchmark_1.sqlite",
                timeout_s=0.05,
            )
        assert exc_info.value.stage == "timeout"

    @pytest.mark.parametrize("timeout_s", [math.nan, math.inf, 0, -1, True])
    def test_bad_timeout_is_refused(self, db_dir, timeout_s):
        with pytest.raises(ExecutionError) as exc_info:
            execute("SELECT 1", db_dir / "benchmark_1.sqlite", timeout_s=timeout_s)
        assert exc_info.value.stage == "timeout"
        assert str(exc_info.value) == f"timeout_s must be a finite number of seconds above 0, got {timeout_s!r}"

    @pytest.mark.parametrize("sql", [None, 5, b"SELECT 1"], ids=["None", "int", "bytes"])
    def test_sql_that_is_no_str_runs_as_the_empty_text(self, db_dir, sql):
        with pytest.raises(ExecutionError) as exc_info:
            execute(sql, db_dir / "benchmark_1.sqlite")
        assert (exc_info.value.stage, str(exc_info.value)) == ("engine", "statement returns no result columns")

    def test_accepts_open_connection(self, db_dir):
        conn = sqlite3.connect(f"file:{db_dir / 'benchmark_2.sqlite'}?mode=ro", uri=True)
        try:
            t = execute("SELECT hostname FROM hosts ORDER BY host_id LIMIT 1", conn)
            assert t.columns[0] == ("edge-01",)
        finally:
            conn.close()

    @pytest.mark.parametrize("row_factory", [lambda cursor, row: {d[0]: v for d, v in zip(cursor.description, row)}, sqlite3.Row], ids=["dict", "Row"])
    def test_connection_row_factory_is_ignored(self, db_dir, row_factory):
        sql = "SELECT name, budget, name FROM campaigns ORDER BY campaign_id"
        conn = sqlite3.connect(db_dir / "benchmark_1.sqlite")
        try:
            expected = execute(sql, conn)
            conn.row_factory = row_factory
            assert execute(sql, conn) == expected == execute(sql, db_dir / "benchmark_1.sqlite")
            assert conn.row_factory is row_factory  # the connection keeps its own factory
        finally:
            conn.close()

    def test_anchored_execution_matches_manual_literal(self, db_dir, questions):
        automatic = execute(
            "SELECT ts FROM system_metrics WHERE metric = 'cpu_util' AND host_id = 1 AND ts >= datetime('now', '-14 days') ORDER BY ts",
            db_dir / "benchmark_2.sqlite",
        )
        manual = execute(
            "SELECT ts FROM system_metrics WHERE metric = 'cpu_util' AND host_id = 1 AND ts >= '2023-01-03 00:00:00' ORDER BY ts",
            db_dir / "benchmark_2.sqlite",
        )
        assert automatic.columns == manual.columns
        for q in questions:  # a parsed and rendered tree runs exactly like its source text
            db = db_dir / f"{q.db_id}.sqlite"
            assert execute(render(parse(q.query)), db) == execute(q.query, db)



def _mixed_type_database(path: Path, seed: int) -> Path:
    """A table of ints beyond 2**53, floats, text with trailing blanks, NULLs
    and blobs, with columns that equal others exactly or only by ``cells_equal``."""
    rng = random.Random(seed)
    pool = [None, 0, 7, 7.0, 2**53 + 1, -(2**62), 2.5, 1e300, -0.0, "a", "a ", "b\t", "", b"\x00x", b""]
    base = [[rng.choice(pool) for _ in range(60)] for _ in range(6)]
    loose = {7: 7.0, 7.0: 7, "a": "a ", "a ": "a", 2**53 + 1: float(2**53)}
    near = [[loose.get(c, c) if type(c) is not bytes else c for c in col] for col in base[:3]]
    columns = base + [list(base[0]), list(base[4]), *near]
    with sqlite3.connect(path) as conn:
        conn.execute(f"CREATE TABLE t ({', '.join(f'c{i}' for i in range(len(columns)))})")
        conn.executemany(f"INSERT INTO t VALUES ({', '.join('?' * len(columns))})", zip(*columns))
    conn.close()
    return path


class TestPlainTables:
    """Tables read over a connection sqlscore opened hold only NULL, int,
    float, text and bytes cells, never NaN, so matching in either row-order
    mode accepts equal columns by ``==``; every other table takes ``cells_equal``."""

    @pytest.mark.parametrize("expression", ["0.0 / 0.0", "1e999 - 1e999", "(SELECT sum(v) FROM (SELECT 1e999 AS v UNION ALL SELECT -1e999))", "1e999 * 0"])
    def test_nan_expressions_give_null(self, db_dir, expression):
        conn = _open_readonly(db_dir / "benchmark_1.sqlite")
        try:
            assert execute(f"SELECT {expression}", conn).columns == ((None,),)
        finally:
            conn.close()

    def test_nan_stored_in_the_file_reads_as_null(self, tmp_path):
        db = tmp_path / "nan.sqlite"
        with sqlite3.connect(db) as conn:
            conn.execute("CREATE TABLE t (x REAL, y)")
            conn.execute("INSERT INTO t VALUES (1.5, 1.5)")
        conn.close()
        data = db.read_bytes()
        assert data.count(struct.pack(">d", 1.5)) == 2
        db.write_bytes(data.replace(struct.pack(">d", 1.5), struct.pack(">d", math.nan)))
        assert execute("SELECT x, y, typeof(x) FROM t", db).columns == ((None,), (None,), ("null",))

    def test_infinity_matches_itself(self, db_dir):
        db = db_dir / "benchmark_1.sqlite"
        infinite = execute("SELECT 1e999, -1e999", db)
        assert infinite.columns == ((math.inf,), (-math.inf,))
        assert match_columns(infinite, execute("SELECT -1e999, 1e999", db)) == [(0, 1), (1, 0)]

    def test_mixed_type_table_has_only_plain_cells(self, tmp_path):
        db = _mixed_type_database(tmp_path / "mixed.sqlite", seed=3)
        conn = _open_readonly(db)
        try:
            for t in (execute("SELECT * FROM t", conn), execute("SELECT * FROM t", db)):
                assert t._plain
                assert {type(c) for column in t.columns for c in column} == {type(None), int, float, str, bytes}
        finally:
            conn.close()

    @pytest.mark.parametrize("order_insensitive", [False, True])
    def test_same_pairs_as_guarded_path_on_fixture_truths(self, questions, db_dir, order_insensitive):
        tables = [execute(q.query, db_dir / f"{q.db_id}.sqlite") for q in questions]
        assert all(t._plain for t in tables)
        matched = 0
        for predicted, truth in product(tables, repeat=2):
            pairs = match_columns(predicted, truth, order_insensitive)
            assert pairs == match_columns(ResultTable(predicted.labels, predicted.columns), ResultTable(truth.labels, truth.columns), order_insensitive)
            matched += len(pairs)
        assert matched > sum(t.column_count for t in tables)  # distinct truths share columns too

    @pytest.mark.parametrize("order_insensitive", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_pairs_as_guarded_path_on_mixed_types(self, tmp_path, order_insensitive, seed):
        db = _mixed_type_database(tmp_path / "mixed.sqlite", seed)
        rng = random.Random(seed)
        selects = [[f"c{rng.randrange(11)}" for _ in range(rng.randint(1, 8))] for _ in range(6)]
        tables = [execute(f"SELECT {', '.join(names)} FROM t ORDER BY rowid", db) for names in selects]
        for predicted, truth in product(tables, repeat=2):
            guarded = match_columns(ResultTable(predicted.labels, predicted.columns), ResultTable(truth.labels, truth.columns), order_insensitive)
            assert match_columns(predicted, truth, order_insensitive) == guarded
            assert len(guarded) == max_matching_oracle([[all(map(cells_equal, p, t)) for t in truth.columns] for p in predicted.columns])

    def test_equal_columns_are_accepted_without_cell_comparisons(self, monkeypatch, db_dir):
        calls = TestMatchColumns._count_calls(monkeypatch, "cells_equal")
        db = db_dir / "benchmark_1.sqlite"
        truth = execute("SELECT campaign_id, name, budget FROM campaigns ORDER BY campaign_id", db)
        assert truth.row_count > 1
        assert match_columns(execute("SELECT budget, name, campaign_id FROM campaigns ORDER BY campaign_id", db), truth) == [(0, 2), (1, 1), (2, 0)]
        assert calls == []
        # a copy made by dataclasses.replace is not known to be plain, so it compares cell by cell
        assert match_columns(replace(truth), truth) == [(0, 0), (1, 1), (2, 2)]
        assert len(calls) == 3 * truth.row_count

    def test_shuffled_equal_columns_are_accepted_without_cell_comparisons(self, monkeypatch, db_dir):
        calls = TestMatchColumns._count_calls(monkeypatch, "cells_equal")
        db = db_dir / "benchmark_1.sqlite"
        truth = execute("SELECT campaign_id, name, budget FROM campaigns ORDER BY campaign_id", db)
        predicted = execute("SELECT budget, name, campaign_id FROM campaigns ORDER BY name", db)
        assert predicted.columns[2] != truth.columns[0]  # the same cells in another row order
        assert match_columns(predicted, truth, order_insensitive=True) == [(0, 2), (1, 1), (2, 0)]
        assert calls == []  # each pair's sorted columns are accepted by one ==
        # a copy made by dataclasses.replace is not known to be plain, so its sorted columns compare cell by cell
        assert match_columns(replace(predicted), truth, order_insensitive=True) == [(0, 2), (1, 1), (2, 0)]
        assert len(calls) == 3 * truth.row_count

    def test_converted_bools_do_not_match_ints(self, monkeypatch, tmp_path):
        monkeypatch.setitem(sqlite3.converters, "BOOL", lambda raw: bool(int(raw)))
        db = tmp_path / "flags.sqlite"
        with sqlite3.connect(db) as conn:
            conn.execute("CREATE TABLE t (flag BOOL, n INTEGER)")
            conn.executemany("INSERT INTO t VALUES (?, ?)", [(1, 1), (0, 0), (1, 1)])
        conn.close()
        conn = sqlite3.connect(db, detect_types=sqlite3.PARSE_DECLTYPES)
        try:
            flags = execute("SELECT flag FROM t", conn)
            assert flags.columns == ((True, False, True),)
            for numbers in (execute("SELECT n FROM t", conn), execute("SELECT n FROM t", db)):
                assert numbers.columns == ((1, 0, 1),) == flags.columns  # == as Python values, but a bool is no number
                assert match_columns(numbers, flags) == match_columns(flags, numbers) == []
        finally:
            conn.close()

    def test_mark_is_no_field(self, db_dir):
        read = execute("SELECT campaign_id, name FROM campaigns", db_dir / "benchmark_1.sqlite")
        hand = ResultTable(read.labels, read.columns)
        assert read._plain and not hand._plain and not replace(read)._plain
        assert [f.name for f in fields(ResultTable)] == ["labels", "columns"]
        assert read == hand and hash(read) == hash(hand)
        assert repr(read) == repr(hand) and asdict(read) == asdict(hand) == {"labels": read.labels, "columns": read.columns}


def test_verdict_default_is_scored():
    score = score_result_pair(table([1]), table([1]))
    assert score.verdict == VERDICT_SCORED


# numbers at the ends of the integers a float holds exactly and of SQLite's integers, several sharing a float
_WIDE_NUMBER_POOL = [
    None, 0, 1, 1.0, 2.5, 2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2, float(2**53), float(2**53 + 2),
    -(2**53) + 1, -(2**53), -(2**53) - 1, -(2**53) - 2, float(-(2**53)),
    2**63 - 1, 2**63 - 2, 2**63 - 1000, float(2**63 - 1), -(2**63 - 1), -(2**63 - 2), float(-(2**63 - 1)),
]  # fmt: skip
# cells only a hand-built table holds
_HAND_BUILT_CELLS = [_NAN, True, False, 2**64, 10**400, -(10**400), float("inf")]


def _float_twin(rng: random.Random, cell, pool: list):
    """A cell of ``pool`` with the float image of ``cell``; ``cell`` itself for NULL, NaN, inf and ints beyond float range."""
    image = float(cell) if cell is not None and -(2**1000) < cell < 2**1000 else None
    return rng.choice([x for x in pool if x is not None and -(2**1000) < x < 2**1000 and float(x) == image] or [cell])


def _wide_number_pair(rng: random.Random, pool: list) -> tuple[list, list]:
    """Predicted and truth columns: shuffled copies of truth columns, half their cells swapped for float twins, and fresh ones."""
    n_rows = rng.randint(1, 6)
    truth = [[rng.choice(pool) for _ in range(n_rows)] for _ in range(rng.randint(1, 4))]
    predicted = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.2:
            column = [rng.choice(pool) for _ in range(n_rows)]
        else:
            column = [_float_twin(rng, cell, pool) if rng.random() < 0.5 else cell for cell in rng.choice(truth)]
            rng.shuffle(column)
        predicted.append(column)
    return predicted, truth


def test_order_insensitive_matching_equals_float_keyed_reference(tmp_path):
    """Sorting numbers by exact value moves only cells that share a float, so
    the matches are those of all pairs sorted by float image, for hand-built
    tables and for plain ones, whose columns sort natively."""

    def reference(predicted: list, truth: list) -> list[tuple[int, int]]:
        def by_float(columns):
            return table(*(sorted(c, key=float_sort_key_reference) for c in columns))

        return _reference_match_columns(by_float(predicted), by_float(truth), order_insensitive=False)

    rng = random.Random(5303)
    for _ in range(1500):
        predicted, truth = _wide_number_pair(rng, _WIDE_NUMBER_POOL + _HAND_BUILT_CELLS)
        assert match_columns(table(*predicted), table(*truth), order_insensitive=True) == reference(predicted, truth), (predicted, truth)
    for n in range(30):
        predicted, truth = _wide_number_pair(rng, _WIDE_NUMBER_POOL)
        p, t = read_back(tmp_path / f"p{n}.sqlite", *predicted), read_back(tmp_path / f"t{n}.sqlite", *truth)
        assert match_columns(p, t, order_insensitive=True) == reference(predicted, truth), (predicted, truth)
        for column in p.columns + t.columns:  # natively, as the key sorts them
            assert _sorted_column(column, results._scan(column, plain=True)) == sorted(column, key=_sort_key)


def test_plain_integers_past_2_53_sort_natively(monkeypatch, tmp_path):
    """SQLite integers that share a float sort by native order, with no key
    (fails where numbers are keyed by float image, as native order is then no sort order)."""
    calls = TestMatchColumns._count_calls(monkeypatch, "_sort_key")
    path = tmp_path / "big.sqlite"
    read_back(path, [2**53 + r for r in range(12)], [2**63 - 1 - r for r in range(12)])
    descending, ascending = execute("SELECT c0, c1 FROM t ORDER BY c0 DESC", path), execute("SELECT c0, c1 FROM t ORDER BY c0", path)
    assert descending._plain and ascending._plain and descending != ascending
    assert match_columns(descending, ascending, order_insensitive=True) == [(0, 0), (1, 1)]
    assert calls == []
