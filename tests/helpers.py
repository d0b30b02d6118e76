"""Shared test utilities: random generators, AST mutators, brute-force and reference oracles.

The oracles here are deliberately naive and independent of the library's
algorithms; they exist so expected values are computed, not invented.
"""

from __future__ import annotations

import json
import random
import threading
from datetime import datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from sqlscore import DEFAULT_ANCHOR, EditOpKind, EditScript, Node, NodeKind, ResultTable, parse, parse_anchor
from sqlscore.anchor import TIME_VALUE_FUNCTIONS
from sqlscore.diff import _CLAUSE_KINDS  # clause buckets are part of the matcher contract
from sqlscore.parser import split_qualified
from sqlscore.results import VERDICT_SCORED
from sqlscore.semantic import RULE_NORMAL, RULE_TABLE_MISMATCH, ScoreBreakdown, SemanticScore

# -- random query generation --------------------------------------------------

_TABLES = ["t", "u", "orders", "metrics"]
_COLUMNS = ["a", "b", "c", "day", "region", "value"]
_FUNCTIONS = ["count", "sum", "avg", "min", "max"]


def random_query(rng: random.Random) -> str:
    """A random statement inside the supported surface."""

    def column():
        return rng.choice(_COLUMNS)

    def scalar():
        return rng.choice([str(rng.randint(0, 99)), f"'{rng.choice(['x', 'y', 'z'])}'", f"{rng.randint(1, 9)}.5"])

    def select_item():
        roll = rng.random()
        if roll < 0.4:
            return column()
        if roll < 0.7:
            return f"{rng.choice(_FUNCTIONS)}({column()})"
        if roll < 0.8:
            return "count(*)"
        return f"{column()} AS {rng.choice(['lbl', 'out', 'v'])}{rng.randint(0, 9)}"

    def condition():
        op = rng.choice(["=", "!=", "<", ">", "<=", ">="])
        return f"{column()} {op} {scalar()}"

    items = ", ".join(select_item() for _ in range(rng.randint(1, 3)))
    sql = f"SELECT {items} FROM {rng.choice(_TABLES)}"
    if rng.random() < 0.6:
        sql += " WHERE " + " AND ".join(condition() for _ in range(rng.randint(1, 3)))
    if rng.random() < 0.4:
        sql += f" GROUP BY {column()}"
    if rng.random() < 0.3:
        sql += f" ORDER BY {column()}" + (" DESC" if rng.random() < 0.5 else "")
    if rng.random() < 0.3:
        sql += f" LIMIT {rng.randint(1, 20)}"
    return sql


# -- AST mutators --------------------------------------------------------------


def _rebuild(node: Node, target: Node, replacement: Node | None) -> Node:
    """Copy of the tree with ``target`` replaced (or removed when None)."""
    if node is target:
        assert replacement is not None
        return replacement
    children = []
    for child in node.children:
        if child is target and replacement is None:
            continue
        children.append(_rebuild(child, target, replacement))
    return Node(node.kind, node.text, tuple(children))


def swap_table(ast: Node, new_name: str = "zz_other") -> Node:
    """Rename the first physical table reference."""
    ctes = {n.text for n in ast.walk() if n.kind is NodeKind.CTE}
    target = next(n for n in ast.walk() if n.kind is NodeKind.TABLE_REF and n.text not in ctes)
    return _rebuild(ast, target, Node(NodeKind.TABLE_REF, new_name))


def _first_select_list(ast: Node) -> Node:
    return next(n for n in ast.walk() if n.kind is NodeKind.SELECT_LIST)


def add_column_alias(ast: Node, label: str = "extra_label") -> Node:
    """Wrap the first unaliased, non-star select item in an alias."""
    select_list = _first_select_list(ast)
    target = next(c for c in select_list.children if c.kind is not NodeKind.ALIAS and c.text != "*")
    return _rebuild(ast, target, Node(NodeKind.ALIAS, label, (target,)))


def rename_column_alias(ast: Node, label: str = "renamed_label") -> Node:
    target = next(n for n in ast.walk() if n.kind is NodeKind.ALIAS and n.children[0].kind is not NodeKind.TABLE_REF)
    return _rebuild(ast, target, Node(NodeKind.ALIAS, label, target.children))


def drop_select_column(ast: Node) -> Node:
    """Remove the first select-list item (the list must keep >= 1 item)."""
    select_list = _first_select_list(ast)
    assert len(select_list.children) >= 2
    return _rebuild(ast, select_list.children[0], None)


# -- brute-force oracles --------------------------------------------------------


def max_matching_oracle(compat: list[list[bool]]) -> int:
    """Exhaustive maximum one-to-one matching cardinality (small M, N)."""
    n_truth = len(compat[0]) if compat else 0

    def best(p_idx: int, used: frozenset) -> int:
        if p_idx == len(compat):
            return 0
        top = best(p_idx + 1, used)  # leave this predicted column unmatched
        for t_idx in range(n_truth):
            if compat[p_idx][t_idx] and t_idx not in used:
                top = max(top, 1 + best(p_idx + 1, used | {t_idx}))
        return top

    return best(0, frozenset())


def _bucket_map(root: Node) -> dict[int, str]:
    buckets = {}

    def walk(node: Node, bucket: str) -> None:
        buckets[id(node)] = bucket
        child_bucket = node.kind.value if node.kind in _CLAUSE_KINDS else bucket
        for child in node.children:
            walk(child, child_bucket)

    walk(root, "")
    return buckets


def optimal_nonkeep_oracle(truth: Node, predicted: Node) -> int:
    """Minimum possible non-keep op count over all kind- and clause-respecting
    one-to-one node matchings.  Exponential; only for trees of ~12 nodes."""
    t_nodes = list(truth.walk())
    p_nodes = list(predicted.walk())
    t_buckets = _bucket_map(truth)
    p_buckets = _bucket_map(predicted)

    t_parent = {id(truth): None}
    t_index = {id(truth): 0}
    for node in t_nodes:
        for i, child in enumerate(node.children):
            t_parent[id(child)] = node
            t_index[id(child)] = i
    p_parent = {id(predicted): None}
    p_index = {id(predicted): 0}
    for node in p_nodes:
        for i, child in enumerate(node.children):
            p_parent[id(child)] = node
            p_index[id(child)] = i

    candidates = [
        [p for p in p_nodes if p.kind is t.kind and p_buckets[id(p)] == t_buckets[id(t)]]
        for t in t_nodes
    ]
    best = [len(t_nodes) + len(p_nodes)]

    def is_keep(t: Node, p: Node, assignment: dict[int, Node]) -> bool:
        if t.text != p.text or t_index[id(t)] != p_index[id(p)]:
            return False
        tp, pp = t_parent[id(t)], p_parent[id(p)]
        if tp is None or pp is None:
            return tp is None and pp is None
        return assignment.get(id(tp)) is pp

    def search(i: int, cost: int, used: set, assignment: dict[int, Node]) -> None:
        if cost >= best[0]:
            return
        if i == len(t_nodes):
            inserts = len(p_nodes) - len(assignment)
            total = cost + inserts
            best[0] = min(best[0], total)
            return
        t = t_nodes[i]
        for p in candidates[i]:
            if id(p) in used:
                continue
            pair_cost = 0 if is_keep(t, p, assignment) else 1  # move or update
            used.add(id(p))
            assignment[id(t)] = p
            search(i + 1, cost + pair_cost, used, assignment)
            del assignment[id(t)]
            used.discard(id(p))
        search(i + 1, cost + 1, used, assignment)  # delete t

    search(0, 0, set(), {})
    return best[0]


def score_edit_script(script: EditScript) -> SemanticScore:
    """The statement score read op by op off ``diff``'s edit script: the
    reference for ``semantic_score_from_asts``, which scores the matcher's
    classification without building a script.  The script covers every node
    of both trees once, so the CTEs the truth binds are op sources and those
    the prediction binds op targets."""
    truth_ctes = {op.source.text for op in script.ops if op.source is not None and op.source.kind is NodeKind.CTE}
    pred_ctes = {op.target.text for op in script.ops if op.target is not None and op.target.kind is NodeKind.CTE}
    counts = script.counts()
    size_union = script.size_union
    diff_count = 0
    rule = RULE_NORMAL
    for op in script.ops:
        if op.kind in (EditOpKind.KEEP, EditOpKind.MOVE):
            continue
        if op.node_kind is NodeKind.TABLE_REF:
            if (op.source is None or op.source.text in truth_ctes) and (op.target is None or op.target.text in pred_ctes):
                continue
            diff_count = size_union
            rule = RULE_TABLE_MISMATCH
            break
        if op.node_kind in (NodeKind.ALIAS, NodeKind.CTE):
            continue
        if op.kind is EditOpKind.UPDATE and op.node_kind is NodeKind.COLUMN_REF:
            source_qualifier, source_column = split_qualified(op.source.text)
            target_qualifier, target_column = split_qualified(op.target.text)
            if source_column == target_column and source_qualifier in truth_ctes and target_qualifier in pred_ctes:
                continue
        diff_count += 1

    raw_ratio = min(diff_count, size_union) / size_union if size_union else 0.0
    breakdown = ScoreBreakdown(
        keeps=counts["keep"],
        moves=counts["move"],
        updates=counts["update"],
        inserts=counts["insert"],
        deletes=counts["delete"],
        size_union=size_union,
        diff_count=min(diff_count, size_union),
        raw_ratio=raw_ratio,
        rule=rule,
    )
    return SemanticScore(value=1.0 - raw_ratio, verdict=VERDICT_SCORED, breakdown=breakdown)


# -- clock anchoring -------------------------------------------------------------

# the argument count at which a date/time call has no time value, so SQLite reads the clock
_ARGUMENTS_WITHOUT_TIME_VALUE = {"datetime": 0, "date": 0, "time": 0, "julianday": 0, "unixepoch": 0, "strftime": 1}
_CURRENT_TIME_FORMATS = {"now": "%Y-%m-%d %H:%M:%S", "current_timestamp": "%Y-%m-%d %H:%M:%S", "current_date": "%Y-%m-%d", "current_time": "%H:%M:%S"}


def rewrite_time_anchor(ast: Node, anchor: str | datetime = DEFAULT_ANCHOR) -> Node:
    """The clock rule on a parsed tree: the reference for ``anchor_sql``,
    which applies it to the text.  ``parse(anchor_sql(sql))`` equals
    ``rewrite_time_anchor(parse(sql))`` for every statement that parses.

    ``now()`` and ``current_timestamp`` become a timestamp literal,
    ``current_date``/``current_time`` keep their granularity, a ``'now'``
    argument of the date/time family, in any ASCII case, is substituted in
    place, and a date/time call with no time value gets the anchor as one.
    Every subtree without a time function is returned as the very same object.
    """
    instant = parse_anchor(anchor)

    def literal(fmt: str = "%Y-%m-%d %H:%M:%S") -> Node:
        return Node(NodeKind.LITERAL, f"'{instant.strftime(fmt.replace('%Y', f'{instant.year:04d}'))}'")  # %Y may not pad

    def rewrite(node: Node) -> Node:
        if node.kind is NodeKind.FUNCTION_CALL:
            if node.text in _CURRENT_TIME_FORMATS and not node.children:
                return literal(_CURRENT_TIME_FORMATS[node.text])
            if node.text in TIME_VALUE_FUNCTIONS:
                node = node.map_children(lambda a: literal() if a.kind is NodeKind.LITERAL and a.text.lower() == "'now'" else rewrite(a))
                if len(node.children) == _ARGUMENTS_WITHOUT_TIME_VALUE.get(node.text):
                    return Node(node.kind, node.text, (*node.children, literal()))
                return node
        if not node.children:
            return node
        return node.map_children(rewrite)

    return rewrite(ast)


# -- random result tables --------------------------------------------------------


def random_result_table(rng: random.Random, max_columns: int = 4, max_rows: int = 4) -> ResultTable:
    """Random small table with nulls, mixed types and duplicated columns."""
    n_rows = rng.randint(0, max_rows)
    n_cols = rng.randint(1, max_columns)
    pool: list = [None, 0, 1, 2, 2.0, 3.5, "x", "y", ""]
    columns: list[tuple] = []
    for _ in range(n_cols):
        if columns and rng.random() < 0.3:
            columns.append(rng.choice(columns))  # duplicate an existing column
        else:
            columns.append(tuple(rng.choice(pool) for _ in range(n_rows)))
    labels = tuple(f"c{i}" for i in range(len(columns)))
    return ResultTable(labels, tuple(columns))


def parse_pair(truth_sql: str, predicted_sql: str) -> tuple[Node, Node]:
    return parse(truth_sql), parse(predicted_sql)


# -- model servers for the http adapter ---------------------------------------------


class ConstantModel(BaseHTTPRequestHandler):
    """Answers every question with ``SELECT 1``."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        assert set(body) == {"question", "db_id", "schema"}
        payload = json.dumps({"sql": "SELECT 1"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def serve_model(handler):
    """Serve ``handler`` on a free local port; yields the endpoint URL, then stops the server."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/predict"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()
