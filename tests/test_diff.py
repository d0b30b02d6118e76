import random

import pytest

from sqlscore import EditOpKind, NodeKind, diff, parse
from sqlscore.fixtures import FIXTURE_QUESTIONS

from helpers import optimal_nonkeep_oracle, random_query

FIXTURE_QUERIES = [q["query"] for q in FIXTURE_QUESTIONS]


def ops_by_kind(script):
    out = {}
    for op in script.ops:
        out.setdefault(op.kind, []).append(op)
    return out


class TestIdentity:
    @pytest.mark.parametrize("sql", FIXTURE_QUERIES, ids=range(len(FIXTURE_QUERIES)))
    def test_fixture_query_against_itself_is_all_keep(self, sql):
        script = diff(parse(sql), parse(sql))
        assert script.size_union - script.counts()["keep"] == 0
        assert script.size_union == parse(sql).node_count

    def test_random_queries_against_themselves(self):
        for seed in range(30):
            sql = random_query(random.Random(seed))
            script = diff(parse(sql), parse(sql))
            assert script.size_union - script.counts()["keep"] == 0

    def test_tree_that_reuses_a_node_object(self):
        # Nodes are immutable, so a hand-built tree may hold one object twice.
        truth = parse("SELECT a, a FROM t")
        select_list, table = truth.children
        a = select_list.children[0]
        shared = truth._replace(children=(select_list._replace(children=(a, a)), table))
        assert shared == truth
        for script in (diff(truth, shared), diff(shared, truth), diff(shared, shared)):
            assert script.counts() == {"keep": 5, "move": 0, "update": 0, "insert": 0, "delete": 0}


class TestCoverage:
    @pytest.mark.parametrize("seed", range(40))
    def test_every_node_covered_exactly_once(self, seed):
        rng = random.Random(seed)
        truth = parse(random_query(rng))
        predicted = parse(random_query(rng))
        script = diff(truth, predicted)
        counts = script.counts()
        pairs = counts["keep"] + counts["move"] + counts["update"]
        assert pairs + counts["delete"] == truth.node_count
        assert pairs + counts["insert"] == predicted.node_count
        assert script.size_union == len(script.ops) >= 1
        # each concrete node object referenced at most once
        seen_sources = set()
        seen_targets = set()
        for op in script.ops:
            if op.source is not None:
                assert id(op.source) not in seen_sources
                seen_sources.add(id(op.source))
            if op.target is not None:
                assert id(op.target) not in seen_targets
                seen_targets.add(id(op.target))

    def test_side_conventions(self):
        script = diff(parse("SELECT a, b FROM t"), parse("SELECT b, c FROM t"))
        for op in script.ops:
            if op.kind is EditOpKind.DELETE:
                assert op.source is not None and op.target is None
            elif op.kind is EditOpKind.INSERT:
                assert op.source is None and op.target is not None
            else:
                assert op.source is not None and op.target is not None


class TestReordering:
    def test_select_list_permutation_yields_moves_only(self):
        script = diff(parse("SELECT a, b FROM t"), parse("SELECT b, a FROM t"))
        counts = script.counts()
        assert counts["insert"] == 0 and counts["delete"] == 0 and counts["update"] == 0
        assert counts["move"] == 2

    @pytest.mark.parametrize(
        "truth,predicted",
        [
            ("SELECT a, b, c FROM t", "SELECT c, a, b FROM t"),
            ("SELECT a FROM t WHERE x = 1 AND y = 2", "SELECT a FROM t WHERE y = 2 AND x = 1"),
            ("SELECT a FROM t GROUP BY x, y", "SELECT a FROM t GROUP BY y, x"),
        ],
    )
    def test_unordered_container_permutations(self, truth, predicted):
        script = diff(parse(truth), parse(predicted))
        counts = script.counts()
        assert counts["insert"] == 0 and counts["delete"] == 0

    def test_identical_order_by_keys_reordered_are_moves(self):
        script = diff(parse("SELECT a FROM t ORDER BY x, y"), parse("SELECT a FROM t ORDER BY y, x"))
        counts = script.counts()
        assert counts["insert"] == 0 and counts["delete"] == 0
        assert counts["move"] == 2

    def test_changed_order_by_keys_pair_positionally(self):
        # leftovers in an ordered container zip by position: two updates,
        # never a cross pairing
        script = diff(parse("SELECT a FROM t ORDER BY x, y"), parse("SELECT a FROM t ORDER BY p, q"))
        updates = [(op.source.text, op.target.text) for op in script.ops if op.kind is EditOpKind.UPDATE]
        assert updates == [("x", "p"), ("y", "q")]


class TestClassification:
    def test_deleted_column(self):
        script = diff(parse("SELECT a, b FROM t"), parse("SELECT b FROM t"))
        deletes = ops_by_kind(script)[EditOpKind.DELETE]
        assert [(op.node_kind, op.source.text) for op in deletes] == [(NodeKind.COLUMN_REF, "a")]
        assert script.counts()["insert"] == 0

    def test_literal_change_is_update(self):
        script = diff(parse("SELECT a FROM t WHERE x = 1"), parse("SELECT a FROM t WHERE x = 2"))
        updates = ops_by_kind(script)[EditOpKind.UPDATE]
        assert [(op.node_kind, op.source.text, op.target.text) for op in updates] == [
            (NodeKind.LITERAL, "1", "2")
        ]

    def test_table_change_is_update_of_table_ref(self):
        script = diff(parse("SELECT a FROM t"), parse("SELECT a FROM t2"))
        updates = ops_by_kind(script)[EditOpKind.UPDATE]
        assert (NodeKind.TABLE_REF, "t", "t2") in [(op.node_kind, op.source.text, op.target.text) for op in updates]

    def test_alias_addition_is_insert_of_alias_node(self):
        script = diff(
            parse("SELECT count(*) FROM t GROUP BY day"),
            parse("SELECT count(*) AS count FROM t GROUP BY day"),
        )
        inserts = ops_by_kind(script)[EditOpKind.INSERT]
        assert [op.node_kind for op in inserts] == [NodeKind.ALIAS]
        assert script.counts()["delete"] == 0 and script.counts()["update"] == 0

    def test_select_to_group_by_is_delete_plus_insert(self):
        # clause boundaries are hard: a column that migrates between clauses
        # is not a move
        script = diff(parse("SELECT a, b FROM t"), parse("SELECT a FROM t GROUP BY b"))
        counts = script.counts()
        assert counts["delete"] >= 1
        assert counts["insert"] >= 1
        moved_or_kept = [op for op in script.ops if op.kind in (EditOpKind.KEEP, EditOpKind.MOVE)]
        assert all(not (op.node_kind is NodeKind.COLUMN_REF and op.source.text == "b") for op in moved_or_kept)


class TestNearOptimality:
    PAIRS = [
        ("SELECT a, b FROM t", "SELECT b, a FROM t"),
        ("SELECT a, b FROM t", "SELECT b FROM t2"),
        ("SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = 2"),
        ("SELECT a, b FROM t", "SELECT a, c FROM t"),
        ("SELECT a FROM t", "SELECT a FROM t LIMIT 5"),
        ("SELECT sum(a) FROM t", "SELECT avg(a) FROM t"),
        ("SELECT a FROM t ORDER BY a", "SELECT a FROM t ORDER BY a DESC"),
        ("SELECT a, b, c FROM t", "SELECT c, b, a FROM u"),
    ]

    @pytest.mark.parametrize("truth,predicted", PAIRS)
    def test_within_two_ops_of_bruteforce_optimum(self, truth, predicted):
        t_ast, p_ast = parse(truth), parse(predicted)
        assert t_ast.node_count <= 12 and p_ast.node_count <= 12
        script = diff(t_ast, p_ast)
        optimum = optimal_nonkeep_oracle(t_ast, p_ast)
        assert script.size_union - script.counts()["keep"] <= optimum + 2

