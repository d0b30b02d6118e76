import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlscore import NodeKind, ParseError, parse, render, tokenize
from sqlscore.parser import Token, split_qualified
from sqlscore.sqlast import Node, physical_tables

from helpers import random_query


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

    def test_self_join_aliases_kept(self):
        sql = "SELECT x.a, y.a FROM t AS x JOIN t AS y ON x.id = y.id"
        assert render(parse(sql)) == sql

    def test_and_chains_flattened(self):
        flat = parse("SELECT a FROM t WHERE a = 1 AND b = 2 AND c = 3")
        nested = parse("SELECT a FROM t WHERE (a = 1 AND b = 2) AND c = 3")
        assert flat.root == nested.root
        conjunction = next(n for n in flat.walk() if n.kind is NodeKind.OPERATOR and n.text == "and")
        assert len(conjunction.children) == 3


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(50))
    def test_random_query_round_trip(self, seed):
        sql = random_query(random.Random(seed))
        once = parse(sql)
        rendered = render(once)
        again = parse(rendered)
        assert again.root == once.root
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
        ],
    )
    def test_surface_round_trip(self, sql):
        once = parse(sql)
        assert parse(render(once)).root == once.root

    def test_normalization_idempotence(self):
        for seed in range(20):
            sql = random_query(random.Random(1000 + seed))
            assert parse(render(parse(sql))).root == parse(sql).root


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
    try:
        tokens = tokenize(text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)
    else:
        positions = [t.pos for t in tokens]
        assert all(a < b for a, b in zip(positions, positions[1:]))
        assert (tokens[-1].kind, tokens[-1].pos) == ("eof", len(text))
    try:
        ast = parse(text)
        assert ast.node_count >= 1
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)


@settings(max_examples=300, deadline=None)
@given(sql_text)
def test_token_positions_point_at_their_text(text):
    # a token's pos is where its own text starts, not where the whitespace
    # or comments before it start
    try:
        tokens = tokenize(text)
    except ParseError:
        return
    for tok in tokens:
        if tok.kind in ("kw", "ident", "number", "op", "punct"):
            source = text[tok.pos : tok.pos + len(tok.value)].translate(ASCII_LOWER)
            assert source == tok.value or (tok.value, source) == ("!=", "<>")


def test_token_is_an_immutable_named_tuple():
    tok = tokenize("  a")[0]
    assert tok._fields == ("kind", "value", "pos")
    assert (tok.kind, tok.value, tok.pos) == tuple(tok) == ("ident", "a", 2)
    with pytest.raises(AttributeError):
        tok.pos = 0


def test_tokenize_returns_tokens():
    tokens = tokenize("SELECT a, 'b', \"C\", 1.5 FROM t WHERE a <> 2;")
    assert {type(tok) for tok in tokens} == {Token}


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
        ("a　b\xa0c", [("ident", "a", 0), ("ident", "b", 2), ("ident", "c", 4), ("eof", "", 5)]),
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
        # digits, but whitespace, U+00A0 included, ends it
        ("PRÉNOM _É2 x·y🙂", [("ident", "prÉnom", 0), ("ident", "_É2", 7), ("ident", "x·y🙂", 11), ("eof", "", 15)]),
        ("é\xa0É", [("ident", "é", 0), ("ident", "É", 2), ("eof", "", 3)]),
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
        ("SELECT a ? b", "unexpected character '?'", 9),
        ("a||b|c", "unexpected character '|'", 4),
        ("!", "unexpected character '!'", 0),
    ],
)
def test_token_errors_pinned(sql, message, position):
    with pytest.raises(ParseError) as exc_info:
        tokenize(sql)
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
        ("SELECT a FROM t WHERE a = b = c", "trailing input after statement near '='", 28),
    ],
)
def test_parse_errors_pinned(sql, message, position):
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
    (select_list,) = parse("SELECT " + expr).root.children
    assert shape(select_list.children[0]) == tree


def test_non_ascii_names_parse_as_column_refs():
    assert parse("SELECT prénom, 名前 FROM t").root == Node(
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
        # U+00A0 separates tokens, so the second name is an alias (SQLite
        # would read one name)
        ("SELECT a\xa0b FROM t", "SELECT a AS b FROM t"),
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
    assert physical_tables(parse(sql).root) == tables
