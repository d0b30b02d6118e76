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
table name).  Case-folding never touches quoted identifiers or string
literals.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

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

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# The lexical grammar; alternatives are tried in order at each offset.  A
# string closes on a quote that is not doubled: ``(?!')`` stops backtracking
# from closing it on the first half of a ``''`` escape (Python 3.10 has no
# possessive quantifiers).  ``unterminated`` matches only an opener whose
# token could not be closed.
_TOKEN_RE = re.compile(
    r"""
    (?P<skip>\s+|--[^\n]*|/\*.*?\*/)
    |(?P<string>'[^']*(?:''[^']*)*'(?!'))
    |(?P<qident>"[^"]*"|`[^`]*`|\[[^\]]*\])
    |(?P<unterminated>/\*|['"`[])
    |(?P<number>[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)
    |(?P<word>[A-Za-z_][A-Za-z0-9_]*)
    |(?P<op><=|>=|!=|<>|\|\||[=<>+\-*/%])
    |(?P<punct>[(),.;])
    """,
    re.VERBOSE | re.DOTALL,
)

_UNTERMINATED = {"/*": "block comment", "'": "string literal"}  # else a quoted identifier


@dataclass(frozen=True)
class Token:
    kind: str  # kw | ident | qident | string | number | op | punct | eof
    value: str
    pos: int


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(sql)
    while i < n:
        m = _TOKEN_RE.match(sql, i)
        if m is None:
            raise ParseError(f"unexpected character {sql[i]!r}", i)
        start, i = i, m.end()
        kind, text = m.lastgroup, m.group()
        if kind == "skip":
            continue
        if kind == "unterminated":
            raise ParseError(f"unterminated {_UNTERMINATED.get(text, 'quoted identifier')}", start)
        if kind == "word":
            text = text.lower()
            kind = "kw" if text in KEYWORDS or text in UNSUPPORTED else "ident"
        elif kind == "string":
            text = text[1:-1].replace("''", "'")
        elif kind == "qident":
            text = text[1:-1]
        elif kind == "number":
            text = text.lower()
        elif text == "<>":
            text = "!="
        tokens.append(Token(kind, text, start))
    tokens.append(Token("eof", "", n))
    return tokens


_COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}


MAX_NESTING_DEPTH = 64


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def _deeper(self) -> None:
        # keeps degenerate inputs (thousands of parens, NOTs, signs, calls,
        # chained operators or joins) from exhausting the interpreter stack
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise self.error("statement nesting too deep")

    @contextmanager
    def _nested(self):
        self._deeper()
        try:
            yield
        finally:
            self.depth -= 1

    # -- token helpers -----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        # advance() never moves past eof, and peek(1) is only asked at a NOT
        return self.tokens[self.pos + offset]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_kw(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.value in words

    def accept_kw(self, *words: str) -> bool:
        if self.at_kw(*words):
            self.advance()
            return True
        return False

    def expect_kw(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind == "kw" and tok.value == word:
            return self.advance()
        raise self.error(f"expected {word.upper()}")

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == ch

    def accept_punct(self, ch: str) -> bool:
        if self.at_punct(ch):
            self.advance()
            return True
        return False

    def expect_punct(self, ch: str) -> Token:
        if self.at_punct(ch):
            return self.advance()
        raise self.error(f"expected {ch!r}")

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        if tok.kind == "kw" and tok.value in UNSUPPORTED:
            message = f"unsupported SQL construct {tok.value.upper()}"
        detail = f"near {tok.value!r}" if tok.kind != "eof" else "at end of input"
        return ParseError(f"{message} {detail}", tok.pos)

    # -- identifiers -------------------------------------------------------

    def identifier(self, what: str = "identifier") -> str:
        """A possibly-quoted name, normalized.

        Quoted names that are already lower-case plain identifiers lose
        their quotes; anything else keeps them so case survives exactly.
        """
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return tok.value
        if tok.kind == "qident":
            self.advance()
            name = tok.value
            if _IDENT_RE.match(name) and name == name.lower() and name not in KEYWORDS and name not in UNSUPPORTED:
                return name
            return f'"{name}"'
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
        with self._nested():
            self.expect_kw("select")
            quantifier = ""
            if self.accept_kw("distinct"):
                quantifier = "distinct"
            else:
                self.accept_kw("all")
            items = [self.parse_select_item()]
            while self.accept_punct(","):
                items.append(self.parse_select_item())
            children: list[Node] = [Node(NodeKind.SELECT_LIST, quantifier, tuple(items))]

            if self.accept_kw("from"):
                children.append(self.parse_from_item())
                while self.accept_punct(","):
                    children.append(self.parse_from_item())
            if self.accept_kw("where"):
                children.append(Node(NodeKind.WHERE, "", (self.parse_expr(),)))
            if self.at_kw("group"):
                self.advance()
                self.expect_kw("by")
                keys = [self.parse_expr()]
                while self.accept_punct(","):
                    keys.append(self.parse_expr())
                children.append(Node(NodeKind.GROUP_BY, "", tuple(keys)))
            if self.at_kw("order"):
                self.advance()
                self.expect_kw("by")
                keys = [self.parse_order_item()]
                while self.accept_punct(","):
                    keys.append(self.parse_order_item())
                children.append(Node(NodeKind.ORDER_BY, "", tuple(keys)))
            if self.accept_kw("limit"):
                limits = [self.parse_expr()]
                if self.accept_kw("offset"):
                    limits.append(self.parse_expr())
                children.append(Node(NodeKind.LIMIT, "", tuple(limits)))
            return Node(NodeKind.STATEMENT, "", tuple(children))

    def parse_select_item(self) -> Node:
        if self.peek().kind == "op" and self.peek().value == "*":
            self.advance()
            return Node(NodeKind.COLUMN_REF, "*")
        expr = self.parse_expr()
        alias = None
        if self.accept_kw("as"):
            alias = self.identifier("alias name")
        elif self.peek().kind in ("ident", "qident"):
            alias = self.identifier()
        if alias is not None:
            return Node(NodeKind.ALIAS, alias, (expr,))
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
            return Node(NodeKind.ALIAS, alias, (table,))
        return table

    # -- expressions -------------------------------------------------------

    def parse_expr(self) -> Node:
        return self.parse_or()

    def _nary(self, op: str, parts: list[Node]) -> Node:
        flat: list[Node] = []
        for part in parts:
            if part.kind is NodeKind.OPERATOR and part.text == op:
                flat.extend(part.children)
            else:
                flat.append(part)
        if len(flat) == 1:
            return flat[0]
        return Node(NodeKind.OPERATOR, op, tuple(flat))

    def parse_or(self) -> Node:
        parts = [self.parse_and()]
        while self.accept_kw("or"):
            parts.append(self.parse_and())
        return self._nary("or", parts)

    def parse_and(self) -> Node:
        parts = [self.parse_not()]
        while self.accept_kw("and"):
            parts.append(self.parse_not())
        return self._nary("and", parts)

    def parse_not(self) -> Node:
        if self.accept_kw("not"):
            with self._nested():
                return Node(NodeKind.OPERATOR, "not", (self.parse_not(),))
        return self.parse_predicate()

    def parse_predicate(self) -> Node:
        left = self.parse_additive()
        tok = self.peek()
        if tok.kind == "op" and tok.value in _COMPARISONS:
            self.advance()
            right = self.parse_additive()
            return Node(NodeKind.OPERATOR, tok.value, (left, right))
        negated = False
        if self.at_kw("not") and self.peek(1).kind == "kw" and self.peek(1).value in ("in", "like", "between"):
            self.advance()
            negated = True
        if self.accept_kw("in"):
            op = "not in" if negated else "in"
            self.expect_punct("(")
            if self.at_kw("select", "with"):
                sub = self.parse_select_core()
                self.expect_punct(")")
                return Node(NodeKind.OPERATOR, op, (left, sub))
            with self._nested():
                items = [self.parse_expr()]
                while self.accept_punct(","):
                    items.append(self.parse_expr())
            self.expect_punct(")")
            return Node(NodeKind.OPERATOR, op, (left, *items))
        if self.accept_kw("like"):
            op = "not like" if negated else "like"
            return Node(NodeKind.OPERATOR, op, (left, self.parse_additive()))
        if self.accept_kw("between"):
            op = "not between" if negated else "between"
            low = self.parse_additive()
            self.expect_kw("and")
            high = self.parse_additive()
            return Node(NodeKind.OPERATOR, op, (left, low, high))
        if negated:
            raise self.error("expected IN, LIKE or BETWEEN after NOT")
        if self.accept_kw("is"):
            negated = self.accept_kw("not")
            self.expect_kw("null")
            return Node(NodeKind.OPERATOR, "is not null" if negated else "is null", (left,))
        return left

    def parse_additive(self) -> Node:
        return self._left_chain(("+", "-", "||"), self.parse_multiplicative)

    def parse_multiplicative(self) -> Node:
        return self._left_chain(("*", "/", "%"), self.parse_unary)

    def _left_chain(self, ops: tuple[str, ...], parse_operand: Callable[[], Node]) -> Node:
        # each fold deepens the left-deep tree by one level, so it counts
        # against the nesting limit until the chain ends
        left = parse_operand()
        depth = self.depth
        while self.peek().kind == "op" and self.peek().value in ops:
            op = self.advance().value
            self._deeper()
            left = Node(NodeKind.OPERATOR, op, (left, parse_operand()))
        self.depth = depth
        return left

    def parse_unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.value in ("+", "-"):
            self.advance()
            with self._nested():
                operand = self.parse_unary()
            if tok.value == "+":
                return operand
            if operand.kind is NodeKind.LITERAL and operand.text[:1].isdigit():
                return Node(NodeKind.LITERAL, "-" + operand.text)
            return Node(NodeKind.OPERATOR, "neg", (operand,))
        return self.parse_primary()

    def parse_primary(self) -> Node:
        tok = self.peek()
        if tok.kind == "string":
            self.advance()
            quoted = tok.value.replace("'", "''")
            return Node(NodeKind.LITERAL, f"'{quoted}'")
        if tok.kind == "number":
            self.advance()
            return Node(NodeKind.LITERAL, tok.value)
        if self.accept_kw("null"):
            return Node(NodeKind.LITERAL, "null")
        if self.accept_kw("cast"):
            self.expect_punct("(")
            with self._nested():
                value = self.parse_expr()
            self.expect_kw("as")
            type_name = self.identifier("type name")
            self.expect_punct(")")
            return Node(NodeKind.FUNCTION_CALL, "cast", (value, Node(NodeKind.LITERAL, type_name)))
        if self.accept_punct("("):
            with self._nested():
                if self.at_kw("select", "with"):
                    sub = self.parse_select_core()
                    self.expect_punct(")")
                    return sub
                expr = self.parse_expr()
                self.expect_punct(")")
                return expr
        if tok.kind in ("ident", "qident"):
            name = self.identifier()
            if self.at_punct("("):
                with self._nested():
                    return self.parse_function_call(name)
            if name in BARE_TIME_FUNCTIONS:
                return Node(NodeKind.FUNCTION_CALL, name)
            if self.accept_punct("."):
                nxt = self.peek()
                if nxt.kind == "op" and nxt.value == "*":
                    self.advance()
                    return Node(NodeKind.COLUMN_REF, f"{name}.*")
                column = self.identifier("column name")
                return Node(NodeKind.COLUMN_REF, f"{name}.{column}")
            return Node(NodeKind.COLUMN_REF, name)
        raise self.error("expected expression")

    def parse_function_call(self, name: str) -> Node:
        self.expect_punct("(")
        if self.accept_punct(")"):
            return Node(NodeKind.FUNCTION_CALL, name)
        args: list[Node] = []
        if self.peek().kind == "op" and self.peek().value == "*":
            self.advance()
            args.append(Node(NodeKind.COLUMN_REF, "*"))
        else:
            distinct = self.accept_kw("distinct")
            first = self.parse_expr()
            if distinct:
                first = Node(NodeKind.OPERATOR, "distinct", (first,))
            args.append(first)
            while self.accept_punct(","):
                args.append(self.parse_expr())
        self.expect_punct(")")
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
        end = text.find('"', 1)
        if end > 0 and text[end + 1 : end + 2] == ".":
            return text[: end + 1], text[end + 2 :]
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


def _resolve_aliases(node: Node, env: dict[str, str]) -> Node:
    """Drop table aliases that bind an unambiguous table; rewrite qualifiers.

    ``FROM t AS x ... x.a`` becomes ``FROM t ... a`` whenever ``t`` occurs
    exactly once in the scope; self-joins keep their aliases untouched.
    """

    if node.kind is NodeKind.STATEMENT:
        bindings, counts = _from_map(node)
        local = {a: t for a, t in bindings.items() if counts.get(t, 0) == 1}
        scope = {**env, **local}
        sole = _sole_from_name(node, local)

        def rewrite(n: Node) -> Node:
            if n.kind is NodeKind.STATEMENT and n is not node:
                return _resolve_aliases(n, scope)
            if n.kind is NodeKind.ALIAS and n.children and n.children[0].kind is NodeKind.TABLE_REF:
                if n.text in local:
                    return n.children[0]
                return n
            if n.kind is NodeKind.COLUMN_REF and "." in n.text:
                qualifier, column = split_qualified(n.text)
                if qualifier is None:
                    return n
                qualifier = scope.get(qualifier, qualifier)
                if qualifier == sole:
                    return Node(NodeKind.COLUMN_REF, column)
                return Node(NodeKind.COLUMN_REF, f"{qualifier}.{column}")
            if not n.children:
                return n
            return n.replace_children(tuple(rewrite(c) for c in n.children))

        return node.replace_children(tuple(rewrite(c) for c in node.children))
    return node.replace_children(tuple(_resolve_aliases(c, env) for c in node.children))


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
    return SqlAst(_resolve_aliases(root, {}))
