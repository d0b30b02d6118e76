import itertools
import random
import sqlite3
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlscore import NodeKind, ParseError, anchor_sql, parse, render, tokenize
from sqlscore.parser import _ARITHMETIC, Token, split_qualified
from sqlscore.sqlast import Node, physical_tables

from helpers import physical_tables_reference, random_query


ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def kinds_of(ast):
    return {n.kind for n in ast.walk()}


def texts_of(ast, kind):
    return [n.text for n in ast.walk() if n.kind is kind]


class TestParse:
    def test_minimal_statement(self):
        ast = parse("SELECT 1")
        assert ast.node_count >= 3
        assert render(ast) == "SELECT 1"

    def test_group_by_sample(self):
        ast = parse("SELECT count(*) FROM t GROUP BY day")
        assert NodeKind.FUNCTION_CALL in kinds_of(ast)
        assert texts_of(ast, NodeKind.FUNCTION_CALL) == ["count"]
        assert texts_of(ast, NodeKind.TABLE_REF) == ["t"]
        assert NodeKind.GROUP_BY in kinds_of(ast)

    def test_malformed_keyword_fails_at_offset_zero(self):
        with pytest.raises(ParseError) as exc_info:
            parse("SELEC x FRM t")
        assert exc_info.value.position == 0

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("   \n  ")

    def test_multi_statement_rejected(self):
        with pytest.raises(ParseError, match="multiple statements"):
            parse("SELECT 1; SELECT 2")
        # one trailing semicolon is tolerated
        assert render(parse("SELECT 1;")) == "SELECT 1"

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM t HAVING count(*) > 1",
            "SELECT a FROM t UNION SELECT b FROM u",
            "INSERT INTO t VALUES (1)",
            "SELECT CASE WHEN a THEN 1 END FROM t",
            "DELETE FROM t",
        ],
    )
    def test_unsupported_constructs(self, sql):
        with pytest.raises(ParseError, match="unsupported SQL construct"):
            parse(sql)

    def test_error_position_within_source(self):
        bad = ["SELECT", "SELECT a FROM", "SELECT a b c FROM t", "SELECT (a FROM t", "WITH x AS SELECT 1"]
        for sql in bad:
            with pytest.raises(ParseError) as exc_info:
                parse(sql)
            assert 0 <= exc_info.value.position <= len(sql)

    def test_never_aborts_on_garbage(self):
        deep_signs = "SELECT " + "- " * 3000 + "1"
        long_chains = ["SELECT " + " + ".join(["a"] * n) + " FROM t" for n in (500, 5000)]
        deep_calls = "SELECT " + "abs(" * 3000 + "1" + ")" * 3000
        deep_casts = "SELECT " + "cast(" * 3000 + "1" + " AS int)" * 3000
        deep_in = "SELECT a FROM t WHERE " + "a IN (" * 3000 + "1" + ")" * 3000
        long_joins = "SELECT a FROM t0 " + " ".join(f"CROSS JOIN t{i}" for i in range(1, 3000))
        junks = ["not sql at all", "???", "select from where", "'unterminated", "--only a comment", deep_signs]
        for junk in junks + long_chains + [deep_calls, deep_casts, deep_in, long_joins]:
            with pytest.raises(ParseError):
                parse(junk)


class TestNormalization:
    def test_case_fold_and_whitespace(self):
        assert render(parse("select A ,   b from T")) == "SELECT a, b FROM t"

    def test_comments_stripped(self):
        sql = "SELECT a -- trailing\nFROM t /* block */ WHERE a = 1"
        assert render(parse(sql)) == "SELECT a FROM t WHERE a = 1"

    def test_redundant_parens_removed(self):
        assert render(parse("SELECT ((a)) FROM t WHERE ((a = 1))")) == "SELECT a FROM t WHERE a = 1"

    def test_structural_parens_survive(self):
        assert render(parse("SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3")) == (
            "SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3"
        )

    def test_quoted_identifiers_keep_case(self):
        ast = parse('SELECT "Weird Col" FROM t')
        assert texts_of(ast, NodeKind.COLUMN_REF) == ['"Weird Col"']
        # lower-case safe quoted names lose their quotes
        assert render(parse('SELECT "plain" FROM "t"')) == "SELECT plain FROM t"

    def test_string_literals_untouched(self):
        assert render(parse("SELECT a FROM t WHERE b = 'MiXeD Case  '")) == (
            "SELECT a FROM t WHERE b = 'MiXeD Case  '"
        )

    def test_comparison_canonicalization(self):
        assert render(parse("SELECT a FROM t WHERE a <> 1")) == "SELECT a FROM t WHERE a != 1"

    def test_join_keywords_normalized(self):
        assert render(parse("SELECT a FROM t LEFT OUTER JOIN u ON t.a = u.a")) == (
            "SELECT a FROM t LEFT JOIN u ON t.a = u.a"
        )
        assert render(parse("SELECT a FROM t INNER JOIN u ON t.a = u.a")) == (
            "SELECT a FROM t JOIN u ON t.a = u.a"
        )

    def test_table_alias_resolved_away(self):
        assert render(parse("SELECT x.a, x.b FROM t AS x WHERE x.c = 1")) == "SELECT a, b FROM t WHERE c = 1"

    @pytest.mark.parametrize(
        "sql, normalized",
        [
            # several FROM items: qualifiers stay, spelt with the table name
            ("SELECT x.a, u.b FROM t AS x, u WHERE x.c = u.c", "SELECT t.a, u.b FROM t, u WHERE t.c = u.c"),
            ("SELECT x.a FROM t AS x JOIN u ON x.k = u.k", "SELECT t.a FROM t JOIN u ON t.k = u.k"),
            # a lone derived table keeps its alias; qualifiers naming it go
            ("SELECT d.a FROM (SELECT a FROM t) AS d", "SELECT a FROM (SELECT a FROM t) AS d"),
            # a correlated reference resolves through the enclosing scope
            (
                "SELECT x.a FROM t AS x WHERE x.b IN (SELECT y.b FROM u AS y WHERE y.c = x.c)",
                "SELECT a FROM t WHERE b IN (SELECT b FROM u WHERE c = t.c)",
            ),
            ('SELECT "Q".a FROM t AS "Q"', "SELECT a FROM t"),
            # a quoted name holding a dot is not a qualifier
            ('SELECT x."a.b", "a.b" FROM t AS x', 'SELECT "a.b", "a.b" FROM t'),
        ],
    )
    def test_alias_resolution_by_scope(self, sql, normalized):
        assert render(parse(sql)) == normalized

    def test_self_join_aliases_kept(self):
        sql = "SELECT x.a, y.a FROM t AS x JOIN t AS y ON x.id = y.id"
        assert render(parse(sql)) == sql

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT x.a FROM t AS x, u AS x",
            "SELECT u.a FROM t AS u, u",
            "SELECT x.a FROM t AS x JOIN u AS x ON 1",
            "SELECT x.a FROM t AS x, (SELECT a FROM u) AS x",
        ],
    )
    def test_name_bound_twice_in_one_scope_stays_unresolved(self, sql):
        # SQLite refuses each of these; resolving the name would make it one that runs
        conn = sqlite3.connect(":memory:")
        conn.executescript("CREATE TABLE t (a, k); CREATE TABLE u (a, k)")
        with pytest.raises(sqlite3.OperationalError, match="ambiguous"):
            conn.execute(sql)
        assert render(parse(sql)) == sql

    @pytest.mark.parametrize(
        "sql, normalized",
        [
            # the inner bare table hides the outer alias u
            ("SELECT a FROM t AS u WHERE a IN (SELECT u.a FROM u)", "SELECT a FROM t WHERE a IN (SELECT a FROM u)"),
            ("SELECT a FROM t AS u WHERE a = (SELECT u.a FROM u)", "SELECT a FROM t WHERE a = (SELECT a FROM u)"),
            # aliased as v, the inner u binds no name u: u.a is the outer t.a
            ("SELECT u.a FROM t AS u WHERE a IN (SELECT u.a FROM u AS v)", "SELECT a FROM t WHERE a IN (SELECT t.a FROM u)"),
        ],
    )
    def test_inner_scope_name_hides_outer_alias(self, sql, normalized):
        conn = sqlite3.connect(":memory:")
        conn.executescript("CREATE TABLE t (a, k); CREATE TABLE u (a, k); INSERT INTO t VALUES (1, 2); INSERT INTO u VALUES (3, 4)")
        assert render(parse(sql)) == normalized
        assert conn.execute(normalized).fetchall() == conn.execute(sql).fetchall()

    def test_and_chains_flattened(self):
        flat = parse("SELECT a FROM t WHERE a = 1 AND b = 2 AND c = 3")
        nested = parse("SELECT a FROM t WHERE (a = 1 AND b = 2) AND c = 3")
        assert flat == nested
        conjunction = next(n for n in flat.walk() if n.kind is NodeKind.OPERATOR and n.text == "and")
        assert len(conjunction.children) == 3


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(50))
    def test_random_query_round_trip(self, seed):
        sql = random_query(random.Random(seed))
        once = parse(sql)
        rendered = render(once)
        again = parse(rendered)
        assert again == once
        assert render(again) == rendered  # idempotent

    @pytest.mark.parametrize(
        "sql",
        [
            "WITH c AS (SELECT a FROM t) SELECT a FROM c",
            "SELECT a FROM (SELECT a FROM t) AS sub WHERE a > 1",
            "SELECT city, 100.0 * sum(b) / (SELECT sum(b) FROM t) FROM t GROUP BY city",
            "SELECT DISTINCT a FROM t CROSS JOIN u",
            "SELECT count(DISTINCT a), cast(b AS integer) FROM t",
            "SELECT a FROM t WHERE b IN (1, 2) OR c NOT IN (SELECT d FROM u)",
            "SELECT a FROM t WHERE b BETWEEN 1 AND 2 AND c IS NOT NULL",
            "SELECT t.a, u.b FROM t, u WHERE t.k = u.k ORDER BY t.a DESC LIMIT 5 OFFSET 1",
            "SELECT -a, a - -5, -(a + b) FROM t",
            "SELECT a || 'suffix' FROM t WHERE b LIKE '%x%'",
            "SELECT * FROM t",
            "SELECT t.* FROM t JOIN u ON t.k = u.k",
            "SELECT NULL",
            "SELECT a FROM t WHERE NOT a = 1",
            "SELECT current_timestamp",
        ],
    )
    def test_surface_round_trip(self, sql):
        once = parse(sql)
        assert parse(render(once)) == once

    def test_normalization_idempotence(self):
        for seed in range(20):
            sql = random_query(random.Random(1000 + seed))
            assert parse(render(parse(sql))) == parse(sql)


# Pieces that open, close or split tokens, so that drawn text often holds
# quotes, escapes, comments, number forms and unusual whitespace; any other
# character can still be drawn.
SQL_FRAGMENTS = [
    "select", "SELECT", "from", "where", "not", "in", "as", "with", "having", "x", "t1", "_",
    "'", "''", '"', '""', "`", "``", "[", "]", "--", "/*", "*/", "0", "7", ".", "e", "E",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "|", "(", ")", ",", ";",
    " ", "\n", "\t", "\r", "\xa0", "　", "\x00", "\x0b", "\x1f", "\x85", "é",
]
sql_text = st.lists(st.one_of(st.sampled_from(SQL_FRAGMENTS), st.characters()), max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(sql_text)
def test_parse_arbitrary_text_never_crashes(text):
    tokens = tokenize(text)  # total: any text has tokens
    positions = [t.pos for t in tokens]
    assert all(a < b for a, b in zip(positions, positions[1:]))
    assert (tokens[-1].kind, tokens[-1].pos) == ("eof", len(text))
    refused = [t.pos for t in tokens if t.kind in ("bad", "unterminated")]
    try:
        ast = parse(text)
        assert ast.node_count >= 1 and not refused
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)
        assert not refused or exc.position == refused[0]


@settings(max_examples=300, deadline=None)
@given(sql_text)
def test_token_positions_point_at_their_text(text):
    # a token's pos is where its own text starts, not where the whitespace
    # or comments before it start
    for tok in tokenize(text):
        if tok.kind in ("kw", "ident", "number", "op", "punct"):
            source = text[tok.pos : tok.pos + len(tok.value)].translate(ASCII_LOWER)
            assert source == tok.value or (tok.value, source) == ("!=", "<>")
        elif tok.kind in ("bad", "unterminated"):  # one character, or the rest of the text
            assert tok.value == text[tok.pos : tok.pos + 1 if tok.kind == "bad" else None]


def test_token_is_an_immutable_named_tuple():
    tok = tokenize("  a")[0]
    assert tok._fields == ("kind", "value", "pos")
    assert (tok.kind, tok.value, tok.pos) == tuple(tok) == ("ident", "a", 2)
    with pytest.raises(AttributeError):
        tok.pos = 0


def test_tokenize_returns_tokens():
    tokens = tokenize("SELECT a, 'b', \"C\", 1.5 FROM t WHERE a <> 2;")
    assert {type(tok) for tok in tokens} == {Token}


def test_tokenize_returns_a_fresh_list_each_call():
    """A text's tokens stay as lexed whatever a caller does to a list ``tokenize`` returned."""
    sql = "SELECT date('now', '-1 day') AS d FROM t"
    tokens = tokenize(sql)
    expected, tree, anchored = list(tokens), parse(sql), anchor_sql(sql)
    tokens[1:] = [Token("bad", "?", 7)]
    tokenize(sql).append(Token("eof", "", 0))
    assert tokenize(sql) == expected and tokenize(sql) is not tokenize(sql)
    assert parse(sql) == tree
    assert anchor_sql(sql) == anchored == "SELECT date('2023-01-17 00:00:00', '-1 day') AS d FROM t"


def test_node_is_an_immutable_value():
    node = Node(NodeKind.OPERATOR, "=", (Node(NodeKind.COLUMN_REF, "a"), Node(NodeKind.LITERAL, "'x'")))
    with pytest.raises(AttributeError):
        node.text = "!="
    twin = Node(NodeKind.OPERATOR, "=", (Node(NodeKind.COLUMN_REF, "a"), Node(NodeKind.LITERAL, "'x'")))
    assert twin == node and hash(twin) == hash(node) and twin is not node
    assert Node(NodeKind.LITERAL, "a") != Node(NodeKind.COLUMN_REF, "a")
    assert repr(node) == (
        "Node(kind=<NodeKind.OPERATOR: 'operator'>, text='=', children=("
        "Node(kind=<NodeKind.COLUMN_REF: 'column-ref'>, text='a', children=()), "
        "Node(kind=<NodeKind.LITERAL: 'literal'>, text=\"'x'\", children=())))"
    )
    assert repr(Node(NodeKind.STATEMENT)) == "Node(kind=<NodeKind.STATEMENT: 'statement'>, text='', children=())"


@pytest.mark.parametrize(
    "sql, rendered",
    [
        ('SELECT "a""b" FROM t', 'SELECT "a""b" FROM t'),
        ("SELECT `a``b`, [c\"d] FROM t", 'SELECT "a`b", "c""d" FROM t'),
        ('SELECT x."a""b" FROM "t""u" AS x', 'SELECT "a""b" FROM "t""u"'),
        ('SELECT "T""u".a, v.a FROM "T""u", v', 'SELECT "T""u".a, v.a FROM "T""u", v'),
        ('SELECT """" FROM t', 'SELECT """" FROM t'),
        ('SELECT "X"".y".a FROM t AS "X"".y"', "SELECT a FROM t"),
    ],
)
def test_doubled_quotes_in_quoted_names(sql, rendered):
    ast = parse(sql)
    assert render(ast) == rendered
    assert parse(render(ast)) == ast


@pytest.mark.parametrize(
    "text, parts",
    [
        ('"a"".b".c', ('"a"".b"', "c")),
        ('"a"".b"', (None, '"a"".b"')),
        ('"a"."b"', ('"a"', '"b"')),
        ('t."a.b"', ("t", '"a.b"')),
        ("c", (None, "c")),
    ],
)
def test_split_qualified(text, parts):
    assert split_qualified(text) == parts


def test_every_operator_token_is_arithmetic_or_a_comparison():
    # parse_not reads any operator that _arithmetic leaves as a comparison
    found = set()
    for n in (1, 2, 3):
        for ops in itertools.product(string.punctuation, repeat=n):
            found.update(t.value for t in tokenize(f"a{''.join(ops)}b") if t.kind == "op")
    assert found == _ARITHMETIC | {"=", "!=", "<", "<=", ">", ">="}


def test_tokenizer_positions_monotonic():
    sql = "SELECT a, 'str''ing', 1.5e3 FROM \"T x\" WHERE a >= 2"
    tokens = tokenize(sql)
    positions = [t.pos for t in tokens]
    assert positions == sorted(positions)
    assert tokens[-1].kind == "eof"


@pytest.mark.parametrize(
    "sql, tokens",
    [
        ("SELECT 'a'''", [("kw", "select", 0), ("string", "a'", 7), ("eof", "", 12)]),
        ("''''", [("string", "'", 0), ("eof", "", 4)]),
        (
            "SELECT .5, 1.e3, 1e+",
            [
                ("kw", "select", 0), ("number", ".5", 7), ("punct", ",", 9),
                ("number", "1", 11), ("punct", ".", 12), ("ident", "e3", 13), ("punct", ",", 15),
                ("number", "1", 17), ("ident", "e", 18), ("op", "+", 19), ("eof", "", 20),
            ],
        ),
        ("1E5e", [("number", "1e5", 0), ("ident", "e", 3), ("eof", "", 4)]),
        ("a -- c", [("ident", "a", 0), ("eof", "", 6)]),
        ("x--c\ny", [("ident", "x", 0), ("ident", "y", 5), ("eof", "", 6)]),
        ("/**/", [("eof", "", 4)]),
        ("a　b\xa0c", [("ident", "a　b\xa0c", 0), ("eof", "", 5)]),
        ('"A b" [C]d `e`', [("qident", "A b", 0), ("qident", "C", 6), ("ident", "d", 9), ("qident", "e", 11), ("eof", "", 14)]),
        ("a<>b", [("ident", "a", 0), ("op", "!=", 1), ("ident", "b", 3), ("eof", "", 4)]),
        ("a!=b", [("ident", "a", 0), ("op", "!=", 1), ("ident", "b", 3), ("eof", "", 4)]),
        ('"a""b" `c``d`', [("qident", 'a"b', 0), ("qident", "c`d", 7), ("eof", "", 13)]),
        ('"""" [a""b]', [("qident", '"', 0), ("qident", 'a""b', 5), ("eof", "", 11)]),
        ("  SELECT\n-- c\n\t/* d */A /**/,", [("kw", "select", 2), ("ident", "a", 22), ("punct", ",", 28), ("eof", "", 29)]),
        ("SELECT é", [("kw", "select", 0), ("ident", "é", 7), ("eof", "", 8)]),
        ("SELECT ٣1", [("kw", "select", 0), ("ident", "٣1", 7), ("eof", "", 9)]),
        (
            "SELECT prénom, 名前 FROM t",
            [
                ("kw", "select", 0), ("ident", "prénom", 7), ("punct", ",", 13), ("ident", "名前", 15),
                ("kw", "from", 18), ("ident", "t", 23), ("eof", "", 24),
            ],
        ),
        # only ASCII letters fold; a name takes non-ASCII characters and
        # digits, U+00A0 included, and only ASCII whitespace ends it
        ("PRÉNOM _É2 x·y🙂", [("ident", "prÉnom", 0), ("ident", "_É2", 7), ("ident", "x·y🙂", 11), ("eof", "", 15)]),
        ("é\xa0É", [("ident", "é\xa0É", 0), ("eof", "", 3)]),
        # SQLite's operators that the parser lacks are bad tokens, and an
        # unterminated token runs to the end of the text
        ("1 | 2&~?", [("number", "1", 0), ("bad", "|", 2), ("number", "2", 4), ("bad", "&", 5), ("bad", "~", 6), ("bad", "?", 7), ("eof", "", 8)]),
        ("a /* now() 'x", [("ident", "a", 0), ("unterminated", "/* now() 'x", 2), ("eof", "", 13)]),
        ("f('now) |", [("ident", "f", 0), ("punct", "(", 1), ("unterminated", "'now) |", 2), ("eof", "", 9)]),
        ('[a "b', [("unterminated", '[a "b', 0), ("eof", "", 5)]),
        # where two token kinds start alike, SQLite's reading wins: a "." before
        # a digit starts a number, "--" and "/*" start comments, else "-" and "/" are operators
        ("t.5 t.a", [("ident", "t", 0), ("number", ".5", 1), ("ident", "t", 4), ("punct", ".", 5), ("ident", "a", 6), ("eof", "", 7)]),
        ("t.* .e1", [("ident", "t", 0), ("punct", ".", 1), ("op", "*", 2), ("punct", ".", 4), ("ident", "e1", 5), ("eof", "", 7)]),
        ("a-b - -c--d", [("ident", "a", 0), ("op", "-", 1), ("ident", "b", 2), ("op", "-", 4), ("op", "-", 6), ("ident", "c", 7), ("eof", "", 11)]),
        ("a-", [("ident", "a", 0), ("op", "-", 1), ("eof", "", 2)]),
        ("a/b/ *c/**/d", [("ident", "a", 0), ("op", "/", 1), ("ident", "b", 2), ("op", "/", 3), ("op", "*", 5), ("ident", "c", 6), ("ident", "d", 11), ("eof", "", 12)]),
        ("*/-/*x*/-/", [("op", "*", 0), ("op", "/", 1), ("op", "-", 2), ("op", "-", 8), ("op", "/", 9), ("eof", "", 10)]),
        ("a/-b", [("ident", "a", 0), ("op", "/", 1), ("op", "-", 2), ("ident", "b", 3), ("eof", "", 4)]),
    ],
)
def test_tokens_pinned(sql, tokens):
    assert [(t.kind, t.value, t.pos) for t in tokenize(sql)] == tokens


@pytest.mark.parametrize(
    "sql, message, position",
    [
        ("SELECT 'a''", "unterminated string literal", 7),
        ("x 'é--f''", "unterminated string literal", 2),
        ("x/* c", "unterminated block comment", 1),
        ("a/*/b", "unterminated block comment", 1),
        ("[a", "unterminated quoted identifier", 0),
        ("`a", "unterminated quoted identifier", 0),
        ('"a', "unterminated quoted identifier", 0),
        ('x "a""', "unterminated quoted identifier", 2),
        ("x `a``", "unterminated quoted identifier", 2),
        ("SELECT a\x00", "unexpected character '\\x00'", 8),
        # SQLite skips only ASCII space, \t, \n, \f and \r
        ("SELECT 1\x0b", "unexpected character '\\x0b'", 8),
        ("SELECT 1\x1c", "unexpected character '\\x1c'", 8),
        ("SELECT a ? b", "unexpected character '?'", 9),
        ("a||b|c", "unexpected character '|'", 4),
        ("!", "unexpected character '!'", 0),
    ],
)
def test_token_errors_pinned(sql, message, position):
    # parse names the first bad or unterminated token, wherever the parser stopped
    with pytest.raises(ParseError) as exc_info:
        parse(sql)
    assert (exc_info.value.message, exc_info.value.position) == (message, position)


_JOINS_65 = "SELECT a FROM t0 " + " ".join(f"JOIN t{i} ON 1" for i in range(1, 66))
_MIXED_CHAINS = "SELECT " + "1 * " * 40 + "1" + " + 1" * 30  # 40 products, then 30 sums


@pytest.mark.parametrize(
    "sql, message, position",
    [
        ("SELECT a FROM t WHERE a NOT b", "trailing input after statement near 'not'", 24),
        ("SELECT a FROM t WHERE a NOT = 1", "trailing input after statement near 'not'", 24),
        ("SELECT a FROM t WHERE a IS 1", "expected NULL near '1'", 27),
        ("SELECT a FROM t WHERE a IS NOT 1", "expected NULL near '1'", 31),
        ("SELECT t. FROM t", "expected column name near 'from'", 10),
        ("SELECT t.", "expected column name at end of input", 9),
        ("SELECT CAST(a) FROM t", "expected AS near ')'", 13),
        ("SELECT cast(a int) FROM t", "expected AS near 'int'", 14),
        ("SELECT (a FROM t", "expected ')' near 'from'", 10),
        ("SELECT (1", "expected ')' at end of input", 9),
        ("SELECT f(1,", "expected expression at end of input", 11),
        ("SELECT f(1, FROM t", "expected expression near 'from'", 12),
        ("SELECT 1 AS", "expected alias name at end of input", 11),
        ("SELECT 1 AS FROM t", "expected alias name near 'from'", 12),
        ("SELECT 1 FROM t )", "trailing input after statement near ')'", 16),
        ("SELECT 1 1", "trailing input after statement near '1'", 9),
        ("SELECT 1 FROM t x y", "trailing input after statement near 'y'", 18),
        ("SELECT " + "- " * 65 + "1", "statement nesting too deep near '-'", 135),
        ("SELECT " + "NOT " * 65 + "1", "statement nesting too deep near 'not'", 263),
        ("SELECT " + "(" * 65 + "1" + ")" * 65, "statement nesting too deep near '('", 71),
        ("SELECT " + "1 + " * 65 + "1", "statement nesting too deep near '1'", 263),
        (_JOINS_65, "statement nesting too deep near 't64'", 895),
        (_MIXED_CHAINS + " * 1" * 34, "statement nesting too deep near '1'", 423),
        ("SELECT " + "NOT " * 33 + " + ".join(["1"] * 32), "statement nesting too deep near '1'", 263),
        ("SELECT " + "(" * 61 + "a IN (1, -(2))" + ")" * 61, "statement nesting too deep near '2'", 79),
        ("SELECT " + "(" * 63 + "a IN (1, 2)" + ")" * 63, "statement nesting too deep near '1'", 76),
        ("SELECT a = b = c", "trailing input after statement near '='", 13),
        ("SELECT a FROM t CROSS JOIN u ON 1", "CROSS JOIN takes no ON clause near 'on'", 29),
        # text is empty only when SQLite would skip all of it
        ("\xa0", "expected SELECT or WITH near '\\xa0'", 0),
        (" \x0b ", "unexpected character '\\x0b'", 1),
        ("SELECT a FROM t WHERE a = b = c", "trailing input after statement near '='", 28),
    ],
)
def test_parse_errors_pinned(sql, message, position):
    with pytest.raises(ParseError) as exc_info:
        parse(sql)
    assert (exc_info.value.message, exc_info.value.position) == (message, position)


@pytest.mark.parametrize(
    "sql, message, position",
    [
        # a keyword the grammar requires is named in upper case, a punctuation mark quoted
        ("SELECT a FROM t GROUP a", "expected BY near 'a'", 22),
        ("SELECT a FROM t ORDER a", "expected BY near 'a'", 22),
        ("SELECT a FROM t LEFT u", "expected JOIN near 'u'", 21),
        ("SELECT a FROM t JOIN u", "expected ON at end of input", 22),
        ("SELECT a FROM t JOIN u WHERE 1", "expected ON near 'where'", 23),
        ("SELECT a FROM t WHERE a IS 1", "expected NULL near '1'", 27),
        ("SELECT a FROM t WHERE a BETWEEN 1", "expected AND at end of input", 33),
        ("SELECT a FROM t WHERE a BETWEEN 1 OR 2", "expected AND near 'or'", 34),
        ("SELECT a FROM t WHERE a IN 1", "expected '(' near '1'", 27),
        ("SELECT a FROM t WHERE a NOT IN 1", "expected '(' near '1'", 31),
        ("SELECT a FROM t WHERE a IN (1, 2", "expected ')' at end of input", 32),
        ("SELECT a FROM t WHERE a IN (SELECT b FROM u", "expected ')' at end of input", 43),
        ("SELECT a FROM (SELECT b FROM u", "expected ')' at end of input", 30),
        ("SELECT cast(a AS int", "expected ')' at end of input", 20),
        ("SELECT f(a, b", "expected ')' at end of input", 13),
        ("SELECT (a", "expected ')' at end of input", 9),
        ("SELECT cast(a int)", "expected AS near 'int'", 14),
        ("SELECT cast a", "expected '(' near 'a'", 12),
        ("WITH c SELECT 1", "expected AS near 'select'", 7),
        ("WITH c AS SELECT 1", "expected '(' near 'select'", 10),
        ("WITH c AS (x)", "expected SELECT near 'x'", 11),
        ("WITH c AS (SELECT 1), d AS (SELECT 2 SELECT 1", "expected ')' near 'select'", 37),
        ("FROM t", "expected SELECT or WITH near 'from'", 0),
    ],
)
def test_expected_token_errors_pinned(sql, message, position):
    with pytest.raises(ParseError) as exc_info:
        parse(sql)
    assert (exc_info.value.message, exc_info.value.position) == (message, position)


@pytest.mark.parametrize(
    "sql",
    [
        # at or just under the limit that rows above cross: a chain gives
        # its depth back when it ends, so a product and then a sum of 64
        # terms each fit
        _MIXED_CHAINS + " * 1" * 33,
        "SELECT " + "1 * " * 63 + "1" + " + 1" * 63,
        "SELECT " + "NOT " * 33 + " + ".join(["1"] * 31),
        "SELECT " + "(" * 61 + "a IN (1, -2)" + ")" * 61,
        "SELECT " + "(" * 62 + "a IN (1, 2)" + ")" * 62,
    ],
)
def test_nesting_just_under_the_limit_parses(sql):
    assert parse(sql).node_count > 1


def shape(node):
    """A node as an s-expression of its texts: ``(op child ...)``, a leaf as its text."""
    if not node.children:
        return node.text
    return "(" + " ".join([node.text, *map(shape, node.children)]) + ")"


@pytest.mark.parametrize(
    "expr, tree",
    [
        ("a OR b AND NOT c = d + e * -f", "(or a (and b (not (= c (+ d (* e (neg f)))))))"),
        ("NOT a IN (1, 2)", "(not (in a 1 2))"),
        ("a BETWEEN 1 AND 2 AND b", "(and (between a 1 2) b)"),
        ("a IS NOT NULL OR b LIKE 'x'", "(or (is not null a) (like b 'x'))"),
        ("(a OR b) OR c", "(or a b c)"),
        ("x || y + z", "(+ (|| x y) z)"),
        ("a - b - c * d / e % f", "(- (- a b) (% (/ (* c d) e) f))"),
        ("NOT NOT a < b", "(not (not (< a b)))"),
        ("- - a * + b", "(* (neg (neg a)) b)"),
        ("a NOT BETWEEN b + 1 AND c * 2 OR NOT d NOT LIKE e", "(or (not between a (+ b 1) (* c 2)) (not (not like d e)))"),
    ],
)
def test_expression_trees_pinned(expr, tree):
    (select_list,) = parse("SELECT " + expr).children
    assert shape(select_list.children[0]) == tree


def test_non_ascii_names_parse_as_column_refs():
    assert parse("SELECT prénom, 名前 FROM t") == Node(
        NodeKind.STATEMENT,
        "",
        (
            Node(NodeKind.SELECT_LIST, "", (Node(NodeKind.COLUMN_REF, "prénom"), Node(NodeKind.COLUMN_REF, "名前"))),
            Node(NodeKind.TABLE_REF, "t"),
        ),
    )


@pytest.mark.parametrize(
    "sql, rendered",
    [
        ("SELECT PRÉNOM FROM T", "SELECT prÉnom FROM t"),
        # a quoted name that an unquoted one would give loses its quotes
        ('SELECT "prénom", "prÉnom", "PRÉNOM", "名前" FROM t', 'SELECT prénom, prÉnom, "PRÉNOM", 名前 FROM t'),
        ("SELECT ÉTÉ.a FROM été, ÉTÉ", "SELECT ÉtÉ.a FROM été, ÉtÉ"),
        ("SELECT x.prénom FROM t AS x", "SELECT prénom FROM t"),
        # U+00A0 does not separate tokens: SQLite reads one name
        ("SELECT a\xa0b FROM t", "SELECT a\xa0b FROM t"),
        ("SELECT 1 AS a\xa0b", "SELECT 1 AS a\xa0b"),
    ],
)
def test_non_ascii_names_fold_only_ascii_letters(sql, rendered):
    ast = parse(sql)
    assert render(ast) == rendered
    assert parse(render(ast)) == ast


@pytest.mark.parametrize(
    "sql, tables",
    [
        # a CTE that shadows a table name hides that table
        ("WITH campaigns AS (SELECT 1 AS a) SELECT a FROM campaigns", set()),
        ("WITH t AS (SELECT a FROM base) SELECT t.a FROM t JOIN u ON t.a = u.a", {"base", "u"}),
        ("WITH t AS (SELECT a FROM u) SELECT a FROM t, u AS x WHERE a IN (SELECT b FROM v)", {"u", "v"}),
        ("SELECT 1", set()),
    ],
)
def test_physical_tables(sql, tables):
    assert physical_tables(parse(sql)) == tables


def random_tree(rng: random.Random) -> Node:
    """A tree of any shape and kinds over three names, which table references and CTEs share."""
    pool = [Node(rng.choice(list(NodeKind)), rng.choice("tuv")) for _ in range(rng.randint(1, 30))]
    while len(pool) > 1:
        children = tuple(pool.pop(rng.randrange(len(pool))) for _ in range(rng.randint(1, min(4, len(pool)))))
        pool.append(Node(rng.choice(list(NodeKind)), rng.choice("tuv"), children))
    return pool[0]


def test_physical_tables_equals_the_walk():
    rng = random.Random(11)
    for root in [random_tree(rng) for _ in range(500)] + [parse(random_query(rng)) for _ in range(200)]:
        assert physical_tables(root) == physical_tables_reference(root)


def test_physical_tables_of_a_deep_chain():
    root = Node(NodeKind.TABLE_REF, "base")
    for depth in range(10_000):
        root = Node(NodeKind.ALIAS, "x", (root, Node(NodeKind.TABLE_REF, f"t{depth % 100}")))
    root = Node(NodeKind.STATEMENT, "", (Node(NodeKind.CTE, "t0"), root))
    assert physical_tables(root) == physical_tables_reference(root) == {"base", *(f"t{i}" for i in range(1, 100))}
