"""Shared test utilities: random generators, AST mutators, brute-force and reference oracles.

The oracles here are deliberately naive and independent of the library's
algorithms; they exist so expected values are computed, not invented.
"""

from __future__ import annotations

import json
import random
import sys
import threading
from datetime import datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import product
from operator import itemgetter
from pathlib import Path

import pytest

from sqlscore import (
    CASE_TYPES,
    DEFAULT_ANCHOR,
    BenchmarkQuestion,
    CorpusLoadError,
    EditOpKind,
    EditScript,
    ExecutionError,
    Node,
    NodeKind,
    ParseError,
    ResultTable,
    execute,
    match_columns,
    parse,
    parse_anchor,
)
from sqlscore.anchor import TIME_VALUE_FUNCTIONS
from sqlscore.corpus import _REQUIRED_FIELDS, is_json_scalar
from sqlscore.diff import _CLAUSE_KINDS  # clause buckets are part of the matcher contract
from sqlscore.parser import split_qualified
from sqlscore.results import VERDICT_SCORED
from sqlscore.semantic import RULE_NORMAL, RULE_TABLE_MISMATCH, ScoreBreakdown, SemanticScore

# -- corpus loading and validation --------------------------------------------


def question_from_mapping_reference(raw: dict, index: int) -> BenchmarkQuestion:
    """One question from one corpus instance, checked field by field: the
    reference for ``corpus.question_from_mapping``."""
    for name in _REQUIRED_FIELDS:
        if name not in raw:
            raise CorpusLoadError(f"instance {index}: missing required field {name!r}")
        if not isinstance(raw[name], str):
            raise CorpusLoadError(f"instance {index}: field {name!r} must be a string")
    if raw["case_type"] not in CASE_TYPES:
        raise CorpusLoadError(f"instance {index}: unknown case_type {raw['case_type']!r}")
    if not is_json_scalar(raw.get("id")):
        raise CorpusLoadError(f"instance {index}: 'id' must be a JSON scalar (null, boolean, finite number or string), not {raw['id']!r}")
    extra = {k: v for k, v in raw.items() if k not in _REQUIRED_FIELDS and k != "id"}
    return BenchmarkQuestion(*map(raw.__getitem__, _REQUIRED_FIELDS), id=raw.get("id", index), extra=extra)


def physical_tables_reference(root: Node) -> set[str]:
    """The tables a tree reads that no CTE of it defines, by ``Node.walk``:
    the reference for ``sqlast.physical_tables``."""
    tables = {n.text for n in root.walk() if n.kind is NodeKind.TABLE_REF}
    return tables - {n.text for n in root.walk() if n.kind is NodeKind.CTE}


def coinciding_warnings(questions: list[BenchmarkQuestion], db_dir, anchor=DEFAULT_ANCHOR) -> list[str]:
    """The coinciding-results warnings of ``validate_corpus``, in its order,
    found by matching the columns of every pair of distinct truths over the
    same tables of one database: the reference for its check, which matches
    only the pairs whose column keys can pair up."""
    groups: dict[tuple[str, str], list[int]] = {}
    for i, q in enumerate(questions):
        groups.setdefault((q.db_id, q.query), []).append(i)
    truths = []  # (positions, scope, statement, result) of each truth that parses and runs, in first-use order
    for (db_id, query), positions in groups.items():
        path = Path(db_dir) / f"{db_id}.sqlite"
        try:
            root, table = parse(query), execute(query, path, anchor)
        except (ParseError, ExecutionError):
            continue
        truths.append((positions, (db_id, frozenset(physical_tables_reference(root))), root, table))
    keyed = []
    for n, (positions, scope, root, table) in enumerate(truths):
        for other_positions, other_scope, other_root, other_table in truths[:n]:
            if other_scope == scope and other_root != root and other_table.column_count == table.column_count == len(match_columns(other_table, table)):
                message = f"distinct queries over {'/'.join(sorted(scope[1]))} produce identical results (degenerate fixture data)"
                for i, j in map(sorted, product(other_positions, positions)):
                    keyed.append(((i, j), f"questions {questions[i].id} and {questions[j].id}: {message}"))
    return [message for _, message in sorted(keyed, key=itemgetter(0))]


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


def float_sort_key_reference(cell):
    """The order-insensitive sort key that keys a number by its float image
    (exact value only for an int beyond float range), so ints past 2**53 that
    share a float tie: the reference for ``results._sort_key``, which keys a
    number by its exact value and gives the same matches."""
    if cell is None:
        return (0, "")
    if isinstance(cell, (int, float)):
        try:
            return (1, float(cell))
        except OverflowError:
            return (1, cell)
    if isinstance(cell, str):
        return (2, cell.rstrip())
    return (3, repr(cell))


def parse_pair(truth_sql: str, predicted_sql: str) -> tuple[Node, Node]:
    return parse(truth_sql), parse(predicted_sql)


# -- inputs the JSON decoder refuses ----------------------------------------------

# texts that json.loads refuses with no JSONDecodeError: a RecursionError, and a
# ValueError from the int digit limit (from Python 3.10.7 on)
UNDECODABLE_JSON = [
    pytest.param("[" * 100_000, id="nesting too deep"),
    pytest.param(
        '{"id": ' + "1" * 4301 + ', "sql": "SELECT 1"}',
        id="an int of too many digits",
        marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"),
    ),
]


# -- models --------------------------------------------------------------------------


def lookup_model(tmp_path: Path, questions: list[BenchmarkQuestion]) -> str:
    """A ``cmd:`` adapter spec whose model answers each question with its
    ground-truth SQL, looked up by id in a file written here, since the
    payload on its stdin holds no SQL."""
    truths = tmp_path / "truths.json"
    truths.write_text(json.dumps({json.dumps(q.id): q.query for q in questions}), encoding="utf-8")
    script = tmp_path / "lookup_model.py"
    script.write_text(
        "import json, sys\n"
        f"truths = json.load(open({str(truths)!r}, encoding='utf-8'))\n"
        "print(truths[json.dumps(json.load(sys.stdin)['id'])])\n",
        encoding="utf-8",
    )
    return f"cmd:{sys.executable} {script}"


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
