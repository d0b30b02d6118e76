"""Seeded input generators and expected outcomes for the sqlscore benchmark.

Each workload writes, into one directory:

- ``questions.json``     the corpus (the program reads it)
- ``predictions.jsonl``  one prediction per instance, for the ``file:`` adapter
- ``db/<db_id>.sqlite``  the databases
- ``expected.json``      the oracle: per instance the mutant family and the
                         scores that family must get, plus the expected
                         ``validate`` exit code (the program never reads it)

Every expectation follows from how the prediction was built, not from
running sqlscore.  Families and their expected outcome:

- identity, alias rename, CTE rename, select or conjunct reorder, float
  perturbation within ``rel_tol``: semantic 1.0 (0 < s < 1 for the float
  perturbation, which edits an expression) and P = R = F1 = 1;
- table swap to a table that lacks a referenced column: semantic exactly 0
  and ``execution_error``;
- duplicated column: P = k/(k+1), R = 1;  dropped column: P = 1, R = (k-1)/k;
- unparseable prediction: ``invalid_prediction`` on both metrics;
- unknown column: ``execution_error``;
- float perturbation beyond ``rel_tol``: that column is unmatched;
- reversed row order: no column matches in ordered mode, all do in
  order-insensitive mode.

Run as a script: ``python3 bench/workloads.py <workload> <seed> <out_dir>``.
The same seed writes byte-identical files.
"""

from __future__ import annotations

import json
import random
import re
import sqlite3
import sys
from pathlib import Path

WORKLOADS = ("bi-mutants", "wide-queries", "wide-results")

ORDERED = "ordered"
INSENSITIVE = "insensitive"

SCORED = "scored"
EXEC_ERROR = "execution_error"
INVALID = "invalid_prediction"

# Semantic expectations: exactly 1.0, exactly 0.0, or strictly between.
SEM_ONE = 1.0
SEM_ZERO = 0.0
SEM_PARTIAL = "partial"

BI_MUTANTS_PER_TRUTH = 32
WIDE_QUERY_KS = (10, 10, 10, 10, 40, 40, 40, 40, 160, 160, 160, 160, 320, 320)
WIDE_QUERY_COLUMNS = 330
WIDE_QUERY_ROWS = 300
WIDE_RESULT_ROWS = 1000
WIDE_RESULT_COLUMNS = 48
# (k, family): the same cases for every seed.  Order-insensitive matching
# costs about k*k column sorts, so the k=32 cases dominate that mode.
WIDE_RESULT_CASES = (
    (8, "float-within-tol"),
    (8, "float-beyond-tol"),
    (16, "drop-column"),
    (16, "duplicate-column"),
    (32, "permute-columns"),
    (32, "reverse-rows"),
)

_KEYWORD_RE = re.compile(r"\b(SELECT|FROM|WHERE|GROUP BY|ORDER BY|LIMIT)\b", re.IGNORECASE)


# -- SQL text surgery ----------------------------------------------------------
# The generators edit SQL text only at parenthesis depth 0 and outside quotes,
# which is enough for single SELECT statements without WITH.


def _top_level_mask(sql: str) -> list[bool]:
    mask = [False] * len(sql)
    depth, quote = 0, None
    for i, ch in enumerate(sql):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        else:
            mask[i] = depth == 0
    return mask


def _split_top(text: str, pattern: str) -> list[str]:
    mask = _top_level_mask(text)
    parts, start = [], 0
    for m in re.finditer(pattern, text, re.IGNORECASE):
        if mask[m.start()]:
            parts.append(text[start : m.start()].strip())
            start = m.end()
    parts.append(text[start:].strip())
    return parts


def _has_top(text: str, pattern: str) -> bool:
    return len(_split_top(text, pattern)) > 1


def split_clauses(sql: str) -> dict[str, str] | None:
    """Clauses of a single SELECT without WITH, keyed by keyword; None otherwise."""
    sql = sql.strip().rstrip(";")
    if not sql.upper().startswith("SELECT"):
        return None
    mask = _top_level_mask(sql)
    marks = [(m.start(), m.end(), m.group(1).upper()) for m in _KEYWORD_RE.finditer(sql) if mask[m.start()]]
    names = [name for _, _, name in marks]
    if len(set(names)) != len(names) or names[:2] != ["SELECT", "FROM"]:
        return None
    clauses = {}
    for i, (_, end, name) in enumerate(marks):
        stop = marks[i + 1][0] if i + 1 < len(marks) else len(sql)
        clauses[name] = sql[end:stop].strip()
    return clauses


def join_clauses(clauses: dict[str, str]) -> str:
    return " ".join(f"{name} {body}" for name, body in clauses.items())


def _outside_quotes(sql: str, edit) -> str:
    """Apply ``edit`` to the parts of ``sql`` outside string and identifier quotes."""
    parts = re.split(r"('(?:[^']|'')*'|\"[^\"]*\")", sql)
    return "".join(p if i % 2 else edit(p) for i, p in enumerate(parts))


def _derange(rng: random.Random, items: list) -> list:
    """A shuffled copy that differs from ``items`` whenever that is possible."""
    out = list(items)
    if len(set(items)) < 2:
        return out
    while out == items:
        rng.shuffle(out)
    return out


def _fresh_name(rng: random.Random, prefix: str) -> str:
    return f"{prefix}_{rng.randrange(10**6):06d}"


# -- expectations --------------------------------------------------------------


def _result(precision: float, recall: float, verdict: str = SCORED) -> dict:
    return {"verdict": verdict, "precision": precision, "recall": recall}


def _expect(family: str, semantic, result: dict, semantic_verdict: str = SCORED, insensitive: dict | None = None) -> dict:
    results = {ORDERED: result}
    if insensitive is not None:
        results[INSENSITIVE] = insensitive
    return {"family": family, "semantic": semantic, "semantic_verdict": semantic_verdict, "results": results}


FULL = _result(1.0, 1.0)
FAILED_EXEC = _result(0.0, 0.0, EXEC_ERROR)
FAILED_PARSE = _result(0.0, 0.0, INVALID)


# -- mutant families over simple statements -----------------------------------


def mutate_alias(rng, sql):
    clauses = split_clauses(sql)
    if clauses is None:
        return None
    items = _split_top(clauses["SELECT"], r",")
    renamed = []
    for item in items:
        parts = _split_top(item, r"\bAS\b")
        if len(parts) == 1:
            renamed.append(f"{item} AS {_fresh_name(rng, 'col')}")
        elif len(re.findall(rf"\b{re.escape(parts[1])}\b", sql)) == 1:
            renamed.append(f"{parts[0]} AS {_fresh_name(rng, parts[1])}")
        else:
            renamed.append(item)
    if renamed == items:
        return None
    clauses["SELECT"] = ", ".join(renamed)
    return join_clauses(clauses), _expect("alias", SEM_ONE, FULL)


def mutate_select_reorder(rng, sql):
    clauses = split_clauses(sql)
    if clauses is None:
        return None
    items = _split_top(clauses["SELECT"], r",")
    shuffled = _derange(rng, items)
    if shuffled == items:
        return None
    clauses["SELECT"] = ", ".join(shuffled)
    return join_clauses(clauses), _expect("select-reorder", SEM_ONE, FULL)


def mutate_conjunct_reorder(rng, sql):
    clauses = split_clauses(sql)
    if clauses is None or "WHERE" not in clauses:
        return None
    where = clauses["WHERE"]
    if _has_top(where, r"\bOR\b") or _has_top(where, r"\bBETWEEN\b"):
        return None
    conjuncts = _split_top(where, r"\bAND\b")
    shuffled = _derange(rng, conjuncts)
    if shuffled == conjuncts:
        return None
    clauses["WHERE"] = " AND ".join(shuffled)
    return join_clauses(clauses), _expect("conjunct-reorder", SEM_ONE, FULL)


def _item_edit_semantic(item: str):
    """Adding or removing a select item is a counted change, unless the item
    holds a subquery: its table reference changes, which scores exactly 0."""
    return SEM_ZERO if re.search(r"\bSELECT\b", item, re.IGNORECASE) else SEM_PARTIAL


def mutate_duplicate(rng, sql):
    clauses = split_clauses(sql)
    if clauses is None:
        return None
    items = _split_top(clauses["SELECT"], r",")
    k = len(items)
    copy = rng.choice(items)
    clauses["SELECT"] = ", ".join(items + [copy])
    return join_clauses(clauses), _expect("duplicate-column", _item_edit_semantic(copy), _result(k / (k + 1), 1.0))


def mutate_drop(rng, sql):
    clauses = split_clauses(sql)
    if clauses is None:
        return None
    items = _split_top(clauses["SELECT"], r",")
    k = len(items)
    if k < 2:
        return None
    dropped = items.pop(rng.randrange(k))
    clauses["SELECT"] = ", ".join(items)
    return join_clauses(clauses), _expect("drop-column", _item_edit_semantic(dropped), _result(1.0, (k - 1) / k))


def mutate_unknown_column(rng, sql):
    clauses = split_clauses(sql)
    if clauses is None:
        return None
    clauses["SELECT"] += f", {_fresh_name(rng, 'zz_missing')}"
    return join_clauses(clauses), _expect("unknown-column", SEM_PARTIAL, FAILED_EXEC)


def mutate_unparseable(rng, sql):
    variant = rng.randrange(3)
    if variant == 0:
        first, rest = sql.split(" ", 1)
        broken = f"{first[:-1]} {rest}"
    elif variant == 1:
        broken = f"{sql} )"
    else:
        mask = _top_level_mask(sql)
        froms = [m.end() for m in re.finditer(r"\bFROM\b", sql, re.IGNORECASE) if mask[m.start()]]
        broken = sql[: froms[-1]] if froms else f"{sql} )"
    return broken, _expect("unparseable", SEM_ZERO, FAILED_PARSE, semantic_verdict=INVALID)


def mutate_cte_rename(rng, sql):
    if not sql.upper().startswith("WITH"):
        return None
    names = re.findall(r"(?:\bWITH|,)\s+([A-Za-z_][A-Za-z0-9_]*)\s+AS\s*\(", sql, re.IGNORECASE)
    if not names:
        return None
    mapping = {name: _fresh_name(rng, name) for name in names}
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")
    renamed = _outside_quotes(sql, lambda part: pattern.sub(lambda m: mapping[m.group(1)], part))
    return renamed, _expect("cte-rename", SEM_ONE, FULL)


def _missing_column_error(conn: sqlite3.Connection, sql: str) -> bool:
    try:
        conn.execute(f"EXPLAIN {sql}")
    except sqlite3.OperationalError as exc:
        return "no such column" in str(exc)
    return False


def table_swap(rng, sql, conn: sqlite3.Connection, tables: list[str]):
    """Swap the only table for one that lacks a referenced column."""
    clauses = split_clauses(sql)
    if clauses is None or "(" in sql or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", clauses["FROM"]):
        return None
    source = clauses["FROM"]
    for target in rng.sample(tables, len(tables)):
        if target == source:
            continue
        clauses["FROM"] = target
        swapped = join_clauses(clauses)
        if _missing_column_error(conn, swapped):
            return swapped, _expect("table-swap", SEM_ZERO, FAILED_EXEC)
    return None


# -- file output ---------------------------------------------------------------


def _write_corpus(out: Path, questions: list[dict], predictions: list[tuple[str, str]], expected: dict) -> None:
    (out / "questions.json").write_text(json.dumps(questions, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    lines = [json.dumps({"id": qid, "sql": sql}, ensure_ascii=False) for qid, sql in predictions]
    (out / "predictions.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _new_db(path: Path) -> sqlite3.Connection:
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        path.unlink()
    return sqlite3.connect(path)


def _table_names(conn: sqlite3.Connection) -> list[str]:
    return [r[0] for r in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table' AND name NOT LIKE 'sqlite%' ORDER BY name")]


# -- bi-mutants ----------------------------------------------------------------

_BI_FAMILIES = (
    mutate_alias,
    mutate_select_reorder,
    mutate_conjunct_reorder,
    mutate_cte_rename,
    mutate_duplicate,
    mutate_drop,
    mutate_unknown_column,
    mutate_unparseable,
)


def generate_bi_mutants(seed: int, out: Path) -> None:
    """The built-in fixture corpus, each truth with ~32 seeded mutants."""
    from sqlscore.fixtures import write_fixtures

    rng = random.Random(seed)
    corpus_path, db_dir = write_fixtures(out)
    truths = json.loads(corpus_path.read_text(encoding="utf-8"))
    conns = {p.stem: sqlite3.connect(f"file:{p}?mode=ro", uri=True) for p in sorted(db_dir.glob("*.sqlite"))}
    questions, predictions, instances = [], [], {}
    try:
        for t_index, truth in enumerate(truths):
            sql, conn = truth["query"], conns[truth["db_id"]]
            families = [lambda r, s: (s, _expect("identity", SEM_ONE, FULL))]
            families += [lambda r, s, f=f: f(r, s) for f in _BI_FAMILIES]
            families.append(lambda r, s, c=conn: table_swap(r, s, c, _table_names(c)))
            for m_index in range(BI_MUTANTS_PER_TRUTH):
                # the first family in the cycle that applies to this truth
                start = m_index + t_index
                mutant = next(filter(None, (families[(start + i) % len(families)](rng, sql) for i in range(len(families)))))
                qid = f"bi-{t_index:03d}-{m_index:02d}"
                question = {k: truth[k] for k in ("db_id", "query", "question", "language", "case_type")}
                questions.append({"id": qid, **question})
                predictions.append((qid, mutant[0]))
                instances[qid] = mutant[1]
    finally:
        for conn in conns.values():
            conn.close()
    _write_corpus(out, questions, predictions, {"instances": instances, "modes": [ORDERED], "validate_exit": 0})


# -- wide-queries --------------------------------------------------------------

_AGGREGATES = ("sum", "max", "min")
_ALWAYS_TRUE = ((">=", 0), (">", 999), ("<", 1_000_000), ("<=", 999_999), ("!=", 7))


def generate_wide_queries(seed: int, out: Path) -> None:
    """Distinct truths with k aggregate items and k conjuncts over one wide table."""
    rng = random.Random(seed)
    ncols, nrows = WIDE_QUERY_COLUMNS, WIDE_QUERY_ROWS
    columns = [f"c{i}" for i in range(ncols)]
    while True:
        data = [[rng.randrange(1000, 1_000_000) for _ in range(nrows)] for _ in range(ncols)]
        # one aggregate per column, all values distinct, so truths over
        # different column sets never have identical results
        values = [{"sum": sum, "max": max, "min": min}[_AGGREGATES[i % 3]](col) for i, col in enumerate(data)]
        if len(set(values)) == ncols:
            break
    conn = _new_db(out / "db" / "wide.sqlite")
    try:
        conn.execute(f"CREATE TABLE wide (id INTEGER PRIMARY KEY, {', '.join(f'{c} INTEGER NOT NULL' for c in columns)})")
        conn.executemany(
            f"INSERT INTO wide VALUES ({', '.join('?' * (ncols + 1))})",
            [(r, *(col[r] for col in data)) for r in range(nrows)],
        )
        conn.execute("CREATE TABLE narrow (id INTEGER PRIMARY KEY)")
        conn.commit()
    finally:
        conn.close()

    # Family i % 8 for truth i, whatever the seed, so every seed does the
    # same work: k=10 and k=160 get the first four, k=40 and k=320 the rest.
    families = [
        mutate_alias,
        mutate_duplicate,
        mutate_drop,
        mutate_unparseable,
        mutate_select_reorder,
        mutate_conjunct_reorder,
        mutate_unknown_column,
        lambda r, s: (s.replace(" FROM wide ", " FROM narrow ", 1), _expect("table-swap", SEM_ZERO, FAILED_EXEC)),
    ]
    seen_sets: set[frozenset] = set()
    questions, predictions, instances = [], [], {}
    for index, k in enumerate(WIDE_QUERY_KS):
        while True:
            chosen = rng.sample(range(ncols), k)
            if frozenset(chosen) not in seen_sets:
                seen_sets.add(frozenset(chosen))
                break
        items = [f"{_AGGREGATES[i % 3]}(c{i})" for i in chosen]
        conjuncts = []
        for i in rng.sample(range(ncols), k):
            op, value = rng.choice(_ALWAYS_TRUE)
            conjuncts.append(f"c{i} {op} {value}")
        sql = f"SELECT {', '.join(items)} FROM wide WHERE {' AND '.join(conjuncts)}"
        qid = f"wq-{index:02d}-k{k}"
        sql_pred, expectation = families[index % len(families)](rng, sql)
        questions.append({"id": qid, "db_id": "wide", "query": sql, "question": f"{k} aggregates under {k} conditions", "language": "en", "case_type": "aggregation"})
        predictions.append((qid, sql_pred))
        instances[qid] = expectation
    _write_corpus(out, questions, predictions, {"instances": instances, "modes": [ORDERED], "validate_exit": 0})


# -- wide-results --------------------------------------------------------------

_WITHIN_TOL = "1.000000000001"
_BEYOND_TOL = "1.000001"


def _mixed_column(rng: random.Random, j: int, nrows: int) -> tuple[str, list]:
    """Column j: its values lie in a range no other column reaches, even
    after scaling by 1.000001, and its first and last rows differ, so no
    two columns are equal and no column equals itself reversed."""
    base = (j + 1) * 10_000_000
    kind = ("int", "float", "text", "nullable")[j % 4]
    if kind == "int":
        values = [base + rng.randrange(1000, 9_000_000) for _ in range(nrows)]
    elif kind == "float":
        values = [base + rng.randrange(1000_000, 9_000_000_000) / 1000 for _ in range(nrows)]
    elif kind == "text":
        values = [f"t{j:02d}_{rng.randrange(10**6):06d}" + " " * rng.randrange(3) for _ in range(nrows)]
    else:
        values = [base + rng.randrange(1000, 9_000_000) if rng.random() < 0.2 else None for _ in range(nrows)]
        values[0], values[-1] = base + 1000, base + 2000
    if values[0] == values[-1] or (isinstance(values[0], str) and values[0].rstrip() == values[-1].rstrip()):
        values[-1] = f"t{j:02d}_last" if kind == "text" else base + 8_999_999
    return kind, values


def generate_wide_results(seed: int, out: Path) -> None:
    """Large mixed-type results, scored in both row-order modes."""
    rng = random.Random(seed)
    nrows, ncols = WIDE_RESULT_ROWS, WIDE_RESULT_COLUMNS
    kinds, data = zip(*(_mixed_column(rng, j, nrows) for j in range(ncols)))
    sql_types = {"int": "INTEGER", "float": "REAL", "text": "TEXT", "nullable": "INTEGER"}
    conn = _new_db(out / "db" / "mixed.sqlite")
    try:
        conn.execute(f"CREATE TABLE mixed (id INTEGER PRIMARY KEY, {', '.join(f'm{j} {sql_types[kinds[j]]}' for j in range(ncols))})")
        conn.executemany(f"INSERT INTO mixed VALUES ({', '.join('?' * (ncols + 1))})", [(r, *(col[r] for col in data)) for r in range(nrows)])
        conn.commit()
    finally:
        conn.close()

    numeric = [j for j in range(ncols) if kinds[j] in ("int", "float")]
    by_kind = {kind: [j for j in range(ncols) if kinds[j] == kind] for kind in set(kinds)}
    seen_sets: set[frozenset] = set()
    questions, predictions, instances = [], [], {}
    for k, family in WIDE_RESULT_CASES:
        while True:
            # k/4 columns of each kind, so every seed does the same work
            chosen = [j for kind in sorted(by_kind) for j in rng.sample(by_kind[kind], k // 4)]
            if frozenset(chosen) not in seen_sets:
                seen_sets.add(frozenset(chosen))
                break
        rng.shuffle(chosen)
        items = [f"m{j}" for j in chosen]
        sql = f"SELECT {', '.join(items)} FROM mixed ORDER BY id"
        order = "id"
        pos = next(i for i, j in enumerate(chosen) if j in numeric)
        if family == "permute-columns":
            new_items, ordered, insensitive, semantic = _derange(rng, items), FULL, FULL, SEM_ONE
        elif family == "reverse-rows":
            new_items, ordered, insensitive, semantic = items, _result(0.0, 0.0), FULL, SEM_PARTIAL
            order = "id DESC"
        elif family == "drop-column":
            dropped = rng.randrange(k)
            new_items = items[:dropped] + items[dropped + 1 :]
            ordered = insensitive = _result(1.0, (k - 1) / k)
            semantic = SEM_PARTIAL
        elif family == "duplicate-column":
            new_items = items + [rng.choice(items)]
            ordered = insensitive = _result(k / (k + 1), 1.0)
            semantic = SEM_PARTIAL
        else:
            factor = _WITHIN_TOL if family == "float-within-tol" else _BEYOND_TOL
            new_items = items[:pos] + [f"{items[pos]} * {factor}"] + items[pos + 1 :]
            ordered = insensitive = FULL if family == "float-within-tol" else _result((k - 1) / k, (k - 1) / k)
            semantic = SEM_PARTIAL
        qid = f"wr-k{k}-{family}"
        questions.append({"id": qid, "db_id": "mixed", "query": sql, "question": f"{k} mixed columns", "language": "en", "case_type": "filtering"})
        predictions.append((qid, f"SELECT {', '.join(new_items)} FROM mixed ORDER BY {order}"))
        instances[qid] = _expect(family, semantic, ordered, insensitive=insensitive)
    _write_corpus(out, questions, predictions, {"instances": instances, "modes": [ORDERED, INSENSITIVE], "validate_exit": 0})


GENERATORS = {
    "bi-mutants": generate_bi_mutants,
    "wide-queries": generate_wide_queries,
    "wide-results": generate_wide_results,
}


def main(argv: list[str]) -> int:
    workload, seed, out = argv
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    GENERATORS[workload](int(seed), out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
