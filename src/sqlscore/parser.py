"""Tokenizer and recursive-descent parser for the supported SQL surface.

The surface covers single SELECT statements: WITH, joins, WHERE, GROUP BY,
ORDER BY, LIMIT/OFFSET, aggregate and scalar functions, DISTINCT, and
subqueries in expressions and FROM.  Anything else raises ParseError.

Parsing normalizes as it goes: keywords and unquoted identifiers are
case-folded, comments stripped, whitespace collapsed, redundant parentheses
dropped (the tree keeps only precedence-relevant structure), ``<>``
canonicalized to ``!=``, explicit ASC and ALL quantifiers removed, AND/OR
chains flattened into n-ary nodes, and table aliases that bind an
unambiguous table are resolved away (their qualifiers rewritten to the
table name).  Case-folding lowers ASCII letters only, as SQLite does, and
never touches quoted identifiers or string literals.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .sqlast import Node, NodeKind, ParseError, SqlAst, from_items

KEYWORDS = {
    "select", "from", "where", "group", "by", "order", "limit", "offset",
    "as", "with", "join", "inner", "left", "outer", "cross", "on",
    "and", "or", "not", "in", "like", "between", "is", "null",
    "distinct", "all", "asc", "desc", "cast",
}

# Recognized so the error message names the construct instead of a bare
# "unexpected token".
UNSUPPORTED = {
    "having", "union", "intersect", "except", "exists", "case", "when",
    "then", "else", "end", "right", "full", "natural", "using", "values",
    "over", "window", "partition", "insert", "update", "delete", "create",
    "drop", "alter", "replace",
}

# Zero-argument current-time keywords; parsed into function-call nodes and
# rendered without parentheses.
BARE_TIME_FUNCTIONS = {"current_timestamp", "current_date", "current_time"}

# An unquoted name, as in SQLite: an ASCII letter, "_" or any non-ASCII
# character that is not whitespace, then any of those or an ASCII digit.
# Each class lists what it leaves out: the rest of ASCII, and whitespace.
_WORD = r"[^\x00-\x40\x5b-\x5e\x60\x7b-\x7f\s][^\x00-\x2f\x3a-\x40\x5b-\x5e\x60\x7b-\x7f\s]*"
_IDENT_RE = re.compile(_WORD + r"\Z")
# Only ASCII letters fold, because SQLite tells "é" from "É".
_ASCII_LOWER = str.maketrans("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz")
_QUOTED_NAME_RE = re.compile(r'"[^"]*(?:""[^"]*)*"(?!")')  # a quote inside is doubled

# The lexical grammar.  Each match is any run of whitespace and comments,
# then one token; alternatives are tried in order, and ``tokenize`` tells
# them apart by group number (``_GROUP_KINDS``).  A string, and a name in
# double quotes or backticks, closes on a quote that is not doubled: ``(?!')``
# stops backtracking from closing it on the first half of a ``''`` escape
# (Python 3.10 has no possessive quantifiers).  Brackets have no escape.
# ``unterminated`` matches only an opener whose token could not be closed,
# and ``bad`` any other character.  The token is optional, so trailing
# whitespace and comments match without one and no match can fail (or
# backtrack into the prefix).
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|--[^\n]*|/\*.*?\*/)*
    (?:(?P<word>""" + _WORD + r""")
    |(?P<string>'[^']*(?:''[^']*)*'(?!'))
    |(?P<qident>"[^"]*(?:""[^"]*)*"(?!")|`[^`]*(?:``[^`]*)*`(?!`)|\[[^\]]*\])
    |(?P<unterminated>/\*|['"`[])
    |(?P<number>[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)
    |(?P<op><=|>=|!=|<>|\|\||[=<>+\-*/%])
    |(?P<punct>[(),.;])
    |(?P<bad>.)
    )?
    """,
    re.VERBOSE | re.DOTALL,
)

_GROUP_KINDS = (None, "word", "string", "qident", "unterminated", "number", "op", "punct", "bad")
_UNTERMINATED = {"/*": "block comment", "'": "string literal"}  # else a quoted identifier

_RESERVED = KEYWORDS | UNSUPPORTED


_new_tuple = tuple.__new__  # builds a Token without the Python-level __new__ of a named tuple


class Token(NamedTuple):
    """One token: a named tuple, so it unpacks and compares as ``(kind, value, pos)``.

    ``pos`` is the offset in the source where the token's own text starts.
    """

    kind: str  # kw | ident | qident | string | number | op | punct | eof
    value: str
    pos: int


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(sql):
        group = m.lastindex  # an index into _GROUP_KINDS
        if group is None:  # trailing whitespace and comments
            continue
        text, start = m.group(group), m.start(group)
        kind = _GROUP_KINDS[group]
        if group == 1:  # word
            text = text.lower() if text.isascii() else text.translate(_ASCII_LOWER)
            kind = "kw" if text in _RESERVED else "ident"
        elif group > 5:  # op, punct or bad
            if group == 8:
                raise ParseError(f"unexpected character {text!r}", start)
            if text == "<>":
                text = "!="
        elif group == 5:  # number
            text = text.lower()
        elif group == 2:  # string
            text = text[1:-1].replace("''", "'")
        elif group == 3:  # qident
            quote = text[0]
            text = text[1:-1] if quote == "[" else text[1:-1].replace(quote * 2, quote)
        else:
            raise ParseError(f"unterminated {_UNTERMINATED.get(text, 'quoted identifier')}", start)
        tokens.append(_new_tuple(Token, (kind, text, start)))
    tokens.append(Token("eof", "", len(sql)))
    return tokens


_COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}
_PREDICATE_WORDS = {"not", "in", "like", "between", "is"}
_ADDITIVE = {"+", "-", "||"}
_MULTIPLICATIVE = {"*", "/", "%"}
_ARITHMETIC = _ADDITIVE | _MULTIPLICATIVE


MAX_NESTING_DEPTH = 64


class _Parser:
    """Recursive descent over the token list.

    The hot productions read ``self.tokens[self.pos]`` once and dispatch on
    its kind; they step ``pos`` past a token they have checked, which is
    never eof.  A production that calls ``_deeper`` lowers ``depth`` again
    only on return: a ParseError ends the whole parse.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.needs_resolution = False  # saw a qualified column or an aliased table

    def _deeper(self) -> None:
        # keeps degenerate inputs (thousands of parens, NOTs, signs, calls,
        # chained operators or joins) from exhausting the interpreter stack
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise self.error("statement nesting too deep")

    # -- token helpers -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at_kw(self, *words: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "kw" and tok.value in words

    def accept_kw(self, *words: str) -> bool:
        if self.at_kw(*words):
            self.pos += 1
            return True
        return False

    def expect_kw(self, word: str) -> None:
        tok = self.tokens[self.pos]
        if tok.kind != "kw" or tok.value != word:
            raise self.error(f"expected {word.upper()}")
        self.pos += 1

    def at_punct(self, ch: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "punct" and tok.value == ch

    def accept_punct(self, ch: str) -> bool:
        if self.at_punct(ch):
            self.pos += 1
            return True
        return False

    def expect_punct(self, ch: str) -> None:
        if not self.at_punct(ch):
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        if tok.kind == "kw" and tok.value in UNSUPPORTED:
            message = f"unsupported SQL construct {tok.value.upper()}"
        detail = f"near {tok.value!r}" if tok.kind != "eof" else "at end of input"
        return ParseError(f"{message} {detail}", tok.pos)

    def _comma_list(self, parse_item: Callable[[], Node]) -> list[Node]:
        items = [parse_item()]
        tok = self.tokens[self.pos]
        while tok.kind == "punct" and tok.value == ",":
            self.pos += 1
            items.append(parse_item())
            tok = self.tokens[self.pos]
        return items

    # -- identifiers -------------------------------------------------------

    def identifier(self, what: str = "identifier") -> str:
        """A possibly-quoted name, normalized.

        A quoted name that the same name unquoted would give (a word with
        no ASCII capital that is not a keyword) loses its quotes; anything
        else keeps them so case survives exactly, in double quotes with any
        ``"`` inside doubled.
        """
        tok = self.tokens[self.pos]
        if tok.kind == "ident":
            self.pos += 1
            return tok.value
        if tok.kind == "qident":
            self.pos += 1
            name = tok.value
            if _IDENT_RE.match(name) and name == name.translate(_ASCII_LOWER) and name not in _RESERVED:
                return name
            return '"' + name.replace('"', '""') + '"'
        raise self.error(f"expected {what}")

    # -- statement ---------------------------------------------------------

    def parse_statement(self) -> Node:
        ctes: list[Node] = []
        if self.accept_kw("with"):
            while True:
                name = self.identifier("CTE name")
                self.expect_kw("as")
                self.expect_punct("(")
                body = self.parse_select_core()
                self.expect_punct(")")
                ctes.append(Node(NodeKind.CTE, name, (body,)))
                if not self.accept_punct(","):
                    break
        select = self.parse_select_core()
        return select.replace_children(tuple(ctes) + select.children)

    def parse_select_core(self) -> Node:
        self._deeper()
        self.expect_kw("select")
        quantifier = ""
        if self.accept_kw("distinct"):
            quantifier = "distinct"
        else:
            self.accept_kw("all")
        children = [Node(NodeKind.SELECT_LIST, quantifier, tuple(self._comma_list(self.parse_select_item)))]
        if self.accept_kw("from"):
            children += self._comma_list(self.parse_from_item)
        if self.accept_kw("where"):
            children.append(Node(NodeKind.WHERE, "", (self.parse_expr(),)))
        if self.accept_kw("group"):
            self.expect_kw("by")
            children.append(Node(NodeKind.GROUP_BY, "", tuple(self._comma_list(self.parse_expr))))
        if self.accept_kw("order"):
            self.expect_kw("by")
            children.append(Node(NodeKind.ORDER_BY, "", tuple(self._comma_list(self.parse_order_item))))
        if self.accept_kw("limit"):
            limits = [self.parse_expr()]
            if self.accept_kw("offset"):
                limits.append(self.parse_expr())
            children.append(Node(NodeKind.LIMIT, "", tuple(limits)))
        self.depth -= 1
        return Node(NodeKind.STATEMENT, "", tuple(children))

    def parse_select_item(self) -> Node:
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.value == "*":
            self.pos += 1
            return Node(NodeKind.COLUMN_REF, "*")
        expr = self.parse_expr()
        tok = self.tokens[self.pos]
        if tok.kind == "kw" and tok.value == "as":
            self.pos += 1
            return Node(NodeKind.ALIAS, self.identifier("alias name"), (expr,))
        if tok.kind == "ident" or tok.kind == "qident":
            return Node(NodeKind.ALIAS, self.identifier(), (expr,))
        return expr

    def parse_order_item(self) -> Node:
        expr = self.parse_expr()
        if self.accept_kw("desc"):
            return Node(NodeKind.OPERATOR, "desc", (expr,))
        self.accept_kw("asc")
        return expr

    # -- FROM --------------------------------------------------------------

    def parse_from_item(self) -> Node:
        item = self.parse_table_primary()
        depth = self.depth
        while self.at_kw("join", "inner", "left", "cross"):
            join_type = "inner"
            if self.accept_kw("left"):
                self.accept_kw("outer")
                join_type = "left"
            elif self.accept_kw("cross"):
                join_type = "cross"
            else:
                self.accept_kw("inner")
            self.expect_kw("join")
            self._deeper()  # joins nest left-deep, like operator chains
            right = self.parse_table_primary()
            children = [item, right]
            if join_type == "cross":
                if self.at_kw("on"):
                    raise self.error("CROSS JOIN takes no ON clause")
            else:
                self.expect_kw("on")
                children.append(self.parse_expr())
            item = Node(NodeKind.JOIN, join_type, tuple(children))
        self.depth = depth
        return item

    def parse_table_primary(self) -> Node:
        if self.accept_punct("("):
            body = self.parse_select_core()
            self.expect_punct(")")
            self.accept_kw("as")
            name = self.identifier("derived table alias")
            return Node(NodeKind.ALIAS, name, (body,))
        name = self.identifier("table name")
        table = Node(NodeKind.TABLE_REF, name)
        alias = None
        if self.accept_kw("as"):
            alias = self.identifier("table alias")
        elif self.peek().kind in ("ident", "qident"):
            alias = self.identifier()
        if alias is not None:
            self.needs_resolution = True
            return Node(NodeKind.ALIAS, alias, (table,))
        return table

    # -- expressions -------------------------------------------------------

    def _nary(self, op: str, parts: list[Node]) -> Node:
        flat: list[Node] = []
        for part in parts:
            if part.kind is NodeKind.OPERATOR and part.text == op:
                flat.extend(part.children)
            else:
                flat.append(part)
        return Node(NodeKind.OPERATOR, op, tuple(flat))

    # Each production parses its first operand at the tightest level and
    # enters a looser level only when that level's operator follows, so a
    # bare operand costs parse_expr, parse_not and parse_primary.

    def parse_expr(self) -> Node:
        """OR of ANDs of NOT-level operands."""
        left = self.parse_not()
        tok = self.tokens[self.pos]
        if tok.kind != "kw" or (tok.value != "and" and tok.value != "or"):
            return left
        disjuncts = []
        while True:
            conjuncts = [left]
            while tok.kind == "kw" and tok.value == "and":
                self.pos += 1
                conjuncts.append(self.parse_not())
                tok = self.tokens[self.pos]
            disjuncts.append(conjuncts[0] if len(conjuncts) == 1 else self._nary("and", conjuncts))
            if tok.kind != "kw" or tok.value != "or":
                return disjuncts[0] if len(disjuncts) == 1 else self._nary("or", disjuncts)
            self.pos += 1
            left = self.parse_not()
            tok = self.tokens[self.pos]

    def parse_not(self) -> Node:
        """NOT-prefixed predicate: a sum, then at most one comparison, IN, LIKE, BETWEEN or IS."""
        tok = self.tokens[self.pos]
        if tok.kind == "kw" and tok.value == "not":
            self.pos += 1
            self._deeper()
            node = Node(NodeKind.OPERATOR, "not", (self.parse_not(),))
            self.depth -= 1
            return node
        left = self.parse_primary()
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.value in _ARITHMETIC:
            left = self._arithmetic(left)
            tok = self.tokens[self.pos]
        if tok.kind == "op":
            if tok.value not in _COMPARISONS:
                return left
            self.pos += 1
            return Node(NodeKind.OPERATOR, tok.value, (left, self.parse_additive()))
        if tok.kind != "kw" or tok.value not in _PREDICATE_WORDS:
            return left
        op = tok.value
        if op == "not":
            tok = self.tokens[self.pos + 1]
            if tok.kind != "kw" or tok.value not in ("in", "like", "between"):
                return left
            self.pos += 1
            op = "not " + tok.value
        self.pos += 1
        if op == "is":
            negated = self.accept_kw("not")
            self.expect_kw("null")
            return Node(NodeKind.OPERATOR, "is not null" if negated else "is null", (left,))
        if tok.value == "in":
            self.expect_punct("(")
            if self.at_kw("select", "with"):
                sub = self.parse_select_core()
                self.expect_punct(")")
                return Node(NodeKind.OPERATOR, op, (left, sub))
            self._deeper()
            items = self._comma_list(self.parse_expr)
            self.depth -= 1
            self.expect_punct(")")
            return Node(NodeKind.OPERATOR, op, (left, *items))
        if tok.value == "like":
            return Node(NodeKind.OPERATOR, op, (left, self.parse_additive()))
        low = self.parse_additive()
        self.expect_kw("and")
        high = self.parse_additive()
        return Node(NodeKind.OPERATOR, op, (left, low, high))

    def parse_additive(self) -> Node:
        left = self.parse_primary()
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.value in _ARITHMETIC:
            return self._arithmetic(left)
        return left

    def _arithmetic(self, left: Node) -> Node:
        """``left``, a parsed unary, with the products and sums that follow it."""
        left = self._left_chain(left, _MULTIPLICATIVE, self.parse_primary)
        return self._left_chain(left, _ADDITIVE, self.parse_multiplicative)

    def parse_multiplicative(self) -> Node:
        return self._left_chain(self.parse_primary(), _MULTIPLICATIVE, self.parse_primary)

    def _left_chain(self, left: Node, ops: set[str], parse_operand: Callable[[], Node]) -> Node:
        # each fold deepens the left-deep tree by one level, so it counts
        # against the nesting limit until the chain ends
        tok = self.tokens[self.pos]
        depth = self.depth
        while tok.kind == "op" and tok.value in ops:
            self.pos += 1
            self._deeper()
            left = Node(NodeKind.OPERATOR, tok.value, (left, parse_operand()))
            tok = self.tokens[self.pos]
        self.depth = depth
        return left

    def parse_primary(self) -> Node:
        """An operand with its unary signs."""
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == "ident" or kind == "qident":
            name = self.identifier()
            nxt = self.tokens[self.pos]
            if nxt.kind == "punct" and nxt.value == "(":
                return self.parse_function_call(name)
            if name in BARE_TIME_FUNCTIONS:
                return Node(NodeKind.FUNCTION_CALL, name)
            if nxt.kind == "punct" and nxt.value == ".":
                self.pos += 1
                self.needs_resolution = True
                nxt = self.tokens[self.pos]
                if nxt.kind == "op" and nxt.value == "*":
                    self.pos += 1
                    return Node(NodeKind.COLUMN_REF, f"{name}.*")
                column = self.identifier("column name")
                return Node(NodeKind.COLUMN_REF, f"{name}.{column}")
            return Node(NodeKind.COLUMN_REF, name)
        if kind == "number":
            self.pos += 1
            return Node(NodeKind.LITERAL, tok.value)
        if kind == "string":
            self.pos += 1
            quoted = tok.value.replace("'", "''")
            return Node(NodeKind.LITERAL, f"'{quoted}'")
        if kind == "kw":
            if tok.value == "null":
                self.pos += 1
                return Node(NodeKind.LITERAL, "null")
            if tok.value == "cast":
                self.pos += 1
                self.expect_punct("(")
                self._deeper()
                value = self.parse_expr()
                self.depth -= 1
                self.expect_kw("as")
                type_name = self.identifier("type name")
                self.expect_punct(")")
                return Node(NodeKind.FUNCTION_CALL, "cast", (value, Node(NodeKind.LITERAL, type_name)))
        elif kind == "punct" and tok.value == "(":
            self.pos += 1
            self._deeper()
            expr = self.parse_select_core() if self.at_kw("select", "with") else self.parse_expr()
            self.expect_punct(")")
            self.depth -= 1
            return expr
        elif kind == "op" and (tok.value == "-" or tok.value == "+"):
            self.pos += 1
            self._deeper()
            operand = self.parse_primary()
            self.depth -= 1
            if tok.value == "+":
                return operand
            if operand.kind is NodeKind.LITERAL and operand.text[:1].isdigit():
                return Node(NodeKind.LITERAL, "-" + operand.text)
            return Node(NodeKind.OPERATOR, "neg", (operand,))
        raise self.error("expected expression")

    def parse_function_call(self, name: str) -> Node:
        self._deeper()
        self.pos += 1  # the "(" the caller saw
        tok = self.tokens[self.pos]
        if tok.kind == "punct" and tok.value == ")":
            self.pos += 1
            self.depth -= 1
            return Node(NodeKind.FUNCTION_CALL, name)
        if tok.kind == "op" and tok.value == "*":
            self.pos += 1
            args = [Node(NodeKind.COLUMN_REF, "*")]
        else:
            distinct = self.accept_kw("distinct")
            args = self._comma_list(self.parse_expr)
            if distinct:
                args[0] = Node(NodeKind.OPERATOR, "distinct", (args[0],))
        self.expect_punct(")")
        self.depth -= 1
        return Node(NodeKind.FUNCTION_CALL, name, tuple(args))


# -- normalization: table alias resolution ----------------------------------


def _from_map(statement: Node) -> tuple[dict[str, str], dict[str, int]]:
    """Alias bindings and underlying-name occurrence counts for one scope."""

    bindings: dict[str, str] = {}
    counts: dict[str, int] = {}

    def visit(item: Node) -> None:
        if item.kind is NodeKind.TABLE_REF:
            counts[item.text] = counts.get(item.text, 0) + 1
        elif item.kind is NodeKind.ALIAS and item.children[0].kind is NodeKind.TABLE_REF:
            table = item.children[0].text
            counts[table] = counts.get(table, 0) + 1
            bindings[item.text] = table
        elif item.kind is NodeKind.JOIN:
            visit(item.children[0])
            visit(item.children[1])
        # derived tables stay opaque

    for child in statement.children:
        if child.kind in (NodeKind.TABLE_REF, NodeKind.JOIN, NodeKind.ALIAS):
            visit(child)
    return bindings, counts


def split_qualified(text: str) -> tuple[str | None, str]:
    """Split a column-ref text into (qualifier, column); qualifier may be quoted."""
    if text.startswith('"'):
        quoted = _QUOTED_NAME_RE.match(text)
        end = quoted.end() if quoted else 0
        if text[end : end + 1] == ".":
            return text[:end], text[end + 1 :]
        return None, text
    head, sep, tail = text.partition(".")
    if sep:
        return head, tail
    return None, text


def _sole_from_name(statement: Node, local: dict[str, str]) -> str | None:
    """The one name a lone from-item answers to, if the scope has exactly one.

    Qualifiers naming it are redundant and get elided; scopes with joins or
    several from-items keep every qualifier.
    """
    items = from_items(statement)
    if len(items) != 1:
        return None
    item = items[0]
    if item.kind is NodeKind.TABLE_REF:
        return item.text
    if item.kind is NodeKind.ALIAS:
        if item.children[0].kind is NodeKind.TABLE_REF:
            return local.get(item.text, item.text)
        return item.text
    return None  # a join: several tables


def _resolve_aliases(statement: Node, env: dict[str, str]) -> Node:
    """Drop table aliases that bind an unambiguous table; rewrite qualifiers.

    ``FROM t AS x ... x.a`` becomes ``FROM t ... a`` whenever ``t`` occurs
    exactly once in the scope; self-joins keep their aliases untouched.
    Every subtree that needs no rewrite, the statement included, is
    returned as the very same node.
    """
    bindings, counts = _from_map(statement)
    local = {a: t for a, t in bindings.items() if counts.get(t, 0) == 1}
    scope = {**env, **local}
    sole = _sole_from_name(statement, local)

    def rewrite(n: Node) -> Node:
        if n.kind is NodeKind.COLUMN_REF:
            if "." not in n.text:
                return n
            qualifier, column = split_qualified(n.text)
            if qualifier is None:
                return n
            resolved = scope.get(qualifier, qualifier)
            if resolved == sole:
                return Node(NodeKind.COLUMN_REF, column)
            if resolved == qualifier:
                return n
            return Node(NodeKind.COLUMN_REF, f"{resolved}.{column}")
        if n.kind is NodeKind.STATEMENT:
            return _resolve_aliases(n, scope)
        if n.kind is NodeKind.ALIAS and n.children and n.children[0].kind is NodeKind.TABLE_REF:
            if n.text in local:
                return n.children[0]
            return n
        if not n.children:
            return n
        return n.map_children(rewrite)

    return statement.map_children(rewrite)


def parse(sql: str) -> SqlAst:
    """Parse one SELECT statement into a normalized AST.

    Raises ParseError for empty input, multiple statements, or anything
    outside the supported surface; never aborts the process.
    """
    if not isinstance(sql, str) or not sql.strip():
        raise ParseError("empty SQL text", 0)
    tokens = tokenize(sql)
    parser = _Parser(tokens)
    if not parser.at_kw("select", "with"):
        raise parser.error("expected SELECT or WITH")
    root = parser.parse_statement()
    parser.accept_punct(";")
    if parser.peek().kind != "eof":
        raise parser.error("multiple statements are not supported" if parser.at_kw("select", "with") else "trailing input after statement")
    return SqlAst(_resolve_aliases(root, {}) if parser.needs_resolution else root)
