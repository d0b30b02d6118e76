"""Tokenizer and recursive-descent parser for the supported SQL surface.

The surface covers single SELECT statements: WITH, joins, WHERE, GROUP BY,
ORDER BY, LIMIT/OFFSET, aggregate and scalar functions, DISTINCT, and
subqueries in expressions and FROM.  Anything else raises ParseError.

Parsing normalizes as it goes: keywords and unquoted identifiers are
case-folded, comments stripped, whitespace collapsed, redundant parentheses
dropped (the tree keeps only precedence-relevant structure), ``<>`` and
``==`` read as ``!=`` and ``=``, explicit ASC and ALL quantifiers removed, AND/OR
chains flattened into n-ary nodes, and table aliases that bind an
unambiguous table are resolved away (their qualifiers rewritten to the
table name).  Case-folding lowers ASCII letters only, as SQLite does, and
never touches quoted identifiers or string literals.  ``parse`` takes the
tokens a caller has, so a text parsed and then anchored is lexed once.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .sqlast import Node, NodeKind, ParseError, from_items

KEYWORDS = {
    "select", "from", "where", "group", "by", "order", "limit",
    "as", "with", "join", "inner", "left", "outer", "cross", "on",
    "and", "or", "not", "in", "like", "between", "is", "null",
    "distinct", "all", "cast",
}

# Recognized so the error message names the construct instead of a bare "unexpected token".  All but the names
# "end", "partition" and "replace" are reserved: as a name, "right" would read "t right JOIN u" as an alias.
# SQLite takes more of the words above as names, but only "asc", "desc" and "offset" are names here, read by
# value where they end an ORDER BY item or a LIMIT count: as names, the join words would read "t left JOIN u"
# as an alias too, and "by", "with" and "like" start clauses or predicates
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
# character (U+00A0 and U+3000 too), then any of those or an ASCII digit.
# Each class lists what it leaves out: the rest of ASCII.
_NAME_CHAR = r"[^\x00-\x2f\x3a-\x40\x5b-\x5e\x60\x7b-\x7f]"  # after the first
_WORD = r"[^\x00-\x40\x5b-\x5e\x60\x7b-\x7f]" + _NAME_CHAR + "*"
_IDENT_RE = re.compile(_WORD + r"\Z")
# Only ASCII letters fold, because SQLite tells "é" from "É".
_ASCII_LOWER = str.maketrans("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz")
_QUOTED_NAME_RE = re.compile(r'"[^"]*(?:""[^"]*)*"(?!")')  # a quote inside is doubled

# The lexical grammar.  Each match is any run of whitespace (the five ASCII
# characters SQLite skips), then one token, told apart by group number, or a
# comment, in no group.  Alternatives are tried commonest first; where two
# overlap, SQLite's reading wins: a ``.`` before a digit starts a number,
# ``--`` and ``/*`` start comments, and a number with name characters glued
# on (``1a``, ``0x``, ``1_000``) is one ``bad`` token, through ``glued``.  A
# string, and a name in double quotes or backticks, closes on a quote that is
# not doubled: ``(?!')`` stops backtracking from closing it on the first half
# of a ``''`` escape (Python 3.10 has no possessive quantifiers).  Brackets
# have no escape.
# ``unterminated`` matches an opener that could not be closed and the rest of
# the text, and ``bad`` any other character.  The token is optional, so no
# match can fail.
_TOKEN_RE = re.compile(
    r"""
    [ \t\n\f\r]*
    (?:(?P<word>""" + _WORD + r""")
    |(?P<punct>[(),;]|\.(?![0-9]))
    |(?P<op><=|>=|!=|<>|==|\|\||-(?!-)|/(?!\*)|[=<>+*%])
    |(?P<number>0[xX][0-9a-fA-F]+|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)(?P<glued>""" + _NAME_CHAR + r"""+)?
    |(?P<string>'[^']*(?:''[^']*)*'(?!'))
    |(?P<qident>"[^"]*(?:""[^"]*)*"(?!")|`[^`]*(?:``[^`]*)*`(?!`)|\[[^\]]*\])
    |--[^\n]*|/\*.*?\*/
    |(?P<unterminated>(?:/\*|['"`[]).*)
    |(?P<bad>.)
    )?
    """,
    re.VERBOSE | re.DOTALL,
)

_GROUP_KINDS = (None, "word", "punct", "op", "number", "bad", "string", "qident", "unterminated", "bad")
_OP_SPELLINGS = {"<>": "!=", "==": "="}  # SQLite's second spellings
_UNTERMINATED = {"/": "block comment", "'": "string literal"}  # by first character; else a quoted identifier

_RESERVED = KEYWORDS | UNSUPPORTED - {"end", "partition", "replace"}


_new_tuple = tuple.__new__  # builds a Token without the Python-level __new__ of a named tuple


class Token(NamedTuple):
    """One token: a named tuple, so it unpacks and compares as ``(kind, value, pos)``.

    ``pos`` is the offset in the source where the token's own text starts.
    """

    kind: str  # kw | ident | qident | string | number | op | punct | bad | unterminated | eof
    value: str
    pos: int


def quote_identifier(name: str) -> str:
    """``name`` as an SQL identifier: in double quotes, any ``"`` inside doubled."""
    return '"' + name.replace('"', '""') + '"'


def tokenize(sql: str) -> list[Token]:
    """The tokens of ``sql``, then ``eof``; never raises for a str.  Only ``parse`` refuses
    a ``bad`` token or an ``unterminated`` one, which runs to the end of the text.
    Each call lexes the text and returns a new list."""
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(sql):
        group = m.lastindex  # an index into _GROUP_KINDS
        if group == 1:  # word
            text = m.group(1)
            text = text.lower() if text.isascii() else text.translate(_ASCII_LOWER)
            tokens.append(_new_tuple(Token, ("kw" if text in _RESERVED else "ident", text, m.start(1))))
            continue
        if group is None:  # a comment, or trailing whitespace
            continue
        text, start = m.group(group), m.start(group)
        if group == 3:  # op
            text = _OP_SPELLINGS.get(text, text)
        elif group == 4:  # number
            text = text.lower()
        elif group == 5:  # glued: the number and its name characters
            start = m.start(4)
            text = sql[start : m.end()]
        elif group == 6:  # string
            text = text[1:-1].replace("''", "'")
        elif group == 7:  # qident
            quote = text[0]
            text = text[1:-1] if quote == "[" else text[1:-1].replace(quote * 2, quote)
        tokens.append(_new_tuple(Token, (_GROUP_KINDS[group], text, start)))
    tokens.append(Token("eof", "", len(sql)))
    return tokens


_PREDICATE_WORDS = {"not", "in", "like", "between", "is"}

# The operator levels, loosest first, that the parser folds and render parenthesizes by; "neg" is unary
# minus.  The arithmetic levels are SQLite's (https://www.sqlite.org/lang_expr.html#operators).
PRECEDENCE = {
    "or": 1,
    "and": 2,
    "not": 3,
    "=": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "in": 4, "not in": 4, "like": 4, "not like": 4,
    "between": 4, "not between": 4, "is null": 4, "is not null": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
    "||": 7,
    "neg": 8,
}
SUM_LEVEL = PRECEDENCE["+"]  # the loosest level an operand of a comparison, LIKE or BETWEEN takes


MAX_NESTING_DEPTH = 64


class _Parser:
    """Recursive descent over the token list.

    The hot productions read ``self.tokens[self.pos]`` once and dispatch on
    its kind; they step ``pos`` past a token they have checked, which is
    never eof.  A production that nests runs through ``nested``, which
    lowers ``depth`` again only on return: a ParseError ends the whole
    parse.  Operator chains and joins count one level per fold and restore it.
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

    def nested(self, parse: Callable[..., Node], *args) -> Node:
        """``parse(*args)``, run one nesting level deeper."""
        self._deeper()
        node = parse(*args)
        self.depth -= 1
        return node

    # -- token helpers -----------------------------------------------------

    def at(self, kind: str, *values: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and tok.value in values

    def accept(self, kind: str, *values: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.kind == kind and tok.value in values:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, value: str) -> None:
        tok = self.tokens[self.pos]
        if tok.kind != kind or tok.value != value:
            raise self.error(f"expected {value.upper()}" if kind == "kw" else f"expected {value!r}")
        self.pos += 1

    def error(self, message: str) -> ParseError:
        # no production consumes a bad or unterminated token, so a text with one fails here
        for tok in self.tokens:
            if tok.kind == "bad":
                return ParseError(f"unexpected character {tok.value!r}" if len(tok.value) == 1 else f"unrecognized token {tok.value!r}", tok.pos)
            if tok.kind == "unterminated":
                return ParseError(f"unterminated {_UNTERMINATED.get(tok.value[0], 'quoted identifier')}", tok.pos)
        tok = self.tokens[self.pos]
        if tok.kind in ("kw", "ident") and tok.value in UNSUPPORTED:
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
        else keeps them so case survives exactly, spelt by ``quote_identifier``.
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
            return quote_identifier(name)
        raise self.error(f"expected {what}")

    def alias(self, what: str) -> str | None:
        """The name of SQLite's ``[AS] name`` alias, or None when neither follows; AS without a name is "expected ``what``"."""
        tok = self.tokens[self.pos]
        if tok.kind == "kw" and tok.value == "as":
            self.pos += 1
            return self.identifier(what)
        return self.identifier() if tok.kind == "ident" or tok.kind == "qident" else None

    # -- statement ---------------------------------------------------------

    def parse_statement(self) -> Node:
        ctes = self._comma_list(self.parse_cte) if self.accept("kw", "with") else []
        select = self.nested(self.parse_select_core)
        return Node(NodeKind.STATEMENT, "", tuple(ctes) + select.children)

    def parse_cte(self) -> Node:
        name = self.identifier("CTE name")
        self.expect("kw", "as")
        self.expect("punct", "(")
        body = self.nested(self.parse_select_core)
        self.expect("punct", ")")
        return Node(NodeKind.CTE, name, (body,))

    def parse_select_core(self) -> Node:
        self.expect("kw", "select")
        quantifier = ""
        if self.accept("kw", "distinct"):
            quantifier = "distinct"
        else:
            self.accept("kw", "all")
        children = [Node(NodeKind.SELECT_LIST, quantifier, tuple(self._comma_list(self.parse_select_item)))]
        if self.accept("kw", "from"):
            children += self._comma_list(self.parse_from_item)
        if self.accept("kw", "where"):
            children.append(Node(NodeKind.WHERE, "", (self.parse_expr(),)))
        if self.accept("kw", "group"):
            self.expect("kw", "by")
            children.append(Node(NodeKind.GROUP_BY, "", tuple(self._comma_list(self.parse_expr))))
        if self.accept("kw", "order"):
            self.expect("kw", "by")
            children.append(Node(NodeKind.ORDER_BY, "", tuple(self._comma_list(self.parse_order_item))))
        if self.accept("kw", "limit"):
            limits = [self.parse_expr()]
            if self.accept("ident", "offset"):
                limits.append(self.parse_expr())
            children.append(Node(NodeKind.LIMIT, "", tuple(limits)))
        return Node(NodeKind.STATEMENT, "", tuple(children))

    def parse_select_item(self) -> Node:
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.value == "*":
            self.pos += 1
            return Node(NodeKind.COLUMN_REF, "*")
        expr = self.parse_expr()
        name = self.alias("alias name")
        return expr if name is None else Node(NodeKind.ALIAS, name, (expr,))

    def parse_order_item(self) -> Node:
        expr = self.parse_expr()
        if self.accept("ident", "desc"):
            return Node(NodeKind.OPERATOR, "desc", (expr,))
        self.accept("ident", "asc")
        return expr

    # -- FROM --------------------------------------------------------------

    def parse_from_item(self) -> Node:
        item = self.parse_table_primary()
        depth = self.depth
        while self.at("kw", "join", "inner", "left", "cross"):
            join_type = "inner"
            if self.accept("kw", "left"):
                self.accept("kw", "outer")
                join_type = "left"
            elif self.accept("kw", "cross"):
                join_type = "cross"
            else:
                self.accept("kw", "inner")
            self.expect("kw", "join")
            self._deeper()  # joins nest left-deep, like operator chains
            right = self.parse_table_primary()
            children = [item, right]
            if join_type == "cross":
                if self.at("kw", "on"):
                    raise self.error("CROSS JOIN takes no ON clause")
            else:
                self.expect("kw", "on")
                children.append(self.parse_expr())
            item = Node(NodeKind.JOIN, join_type, tuple(children))
        self.depth = depth
        return item

    def parse_table_primary(self) -> Node:
        if self.accept("punct", "("):
            body = self.nested(self.parse_select_core)
            self.expect("punct", ")")
            name = self.alias("derived table alias") or self.identifier("derived table alias")  # required here
            return Node(NodeKind.ALIAS, name, (body,))
        table = Node(NodeKind.TABLE_REF, self.identifier("table name"))
        name = self.alias("table alias")
        if name is None:
            return table
        self.needs_resolution = True
        return Node(NodeKind.ALIAS, name, (table,))

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
    # bare operand costs parse_expr, parse_not, parse_sum and parse_primary.

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
            return Node(NodeKind.OPERATOR, "not", (self.nested(self.parse_not),))
        left = self.parse_sum()
        tok = self.tokens[self.pos]
        if tok.kind == "op":  # a comparison: parse_sum took every other operator
            self.pos += 1
            return Node(NodeKind.OPERATOR, tok.value, (left, self.parse_sum()))
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
            negated = self.accept("kw", "not")
            self.expect("kw", "null")
            return Node(NodeKind.OPERATOR, "is not null" if negated else "is null", (left,))
        if tok.value == "in":
            self.expect("punct", "(")
            if self.at("kw", "select", "with"):
                sub = self.nested(self.parse_select_core)
                self.expect("punct", ")")
                return Node(NodeKind.OPERATOR, op, (left, sub))
            items = self.nested(self._comma_list, self.parse_expr)
            self.expect("punct", ")")
            return Node(NodeKind.OPERATOR, op, (left, *items))
        if tok.value == "like":
            return Node(NodeKind.OPERATOR, op, (left, self.parse_sum()))
        low = self.parse_sum()
        self.expect("kw", "and")
        high = self.parse_sum()
        return Node(NodeKind.OPERATOR, op, (left, low, high))

    def parse_sum(self, floor: int = SUM_LEVEL) -> Node:
        """A unary, then each binary operator of level ``floor`` or tighter with its
        right operand, which binds one level tighter still: a left-deep tree."""
        left = self.parse_primary()
        tok = self.tokens[self.pos]
        depth, run = self.depth, floor
        while tok.kind == "op" and (level := PRECEDENCE[tok.value]) >= floor:
            # each fold deepens the tree by one level, so it counts against
            # the nesting limit until the run of its operator level ends
            if level != run:
                self.depth, run = depth, level
            self.pos += 1
            self._deeper()
            left = Node(NodeKind.OPERATOR, tok.value, (left, self.parse_sum(level + 1)))
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
                return self.nested(self.parse_function_call, name)
            if name in BARE_TIME_FUNCTIONS:
                return Node(NodeKind.FUNCTION_CALL, name)
            if nxt.kind == "punct" and nxt.value == ".":
                self.pos += 1
                self.needs_resolution = True
                if self.accept("op", "*"):
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
                self.expect("punct", "(")
                value = self.nested(self.parse_expr)
                self.expect("kw", "as")
                type_name = self.identifier("type name")  # names, then (n) or (n, m) of signed numbers, as in SQLite
                while self.tokens[self.pos].kind in ("ident", "qident"):
                    type_name += " " + self.identifier()
                if self.accept("punct", "("):
                    size = self.type_size()
                    type_name += f"({size}, {self.type_size()})" if self.accept("punct", ",") else f"({size})"
                    self.expect("punct", ")")
                self.expect("punct", ")")
                return Node(NodeKind.FUNCTION_CALL, "cast", (value, Node(NodeKind.LITERAL, type_name)))
        elif kind == "punct" and tok.value == "(":
            self.pos += 1  # the parentheses nest once, and a select core inside them once more
            expr = self.nested(self.nested, self.parse_select_core) if self.at("kw", "select", "with") else self.nested(self.parse_expr)
            self.expect("punct", ")")
            return expr
        elif kind == "op" and (tok.value == "-" or tok.value == "+"):
            self.pos += 1
            operand = self.nested(self.parse_primary)
            if tok.value == "+":
                return operand
            if operand.kind is NodeKind.LITERAL and operand.text[:1].isdigit():
                return Node(NodeKind.LITERAL, "-" + operand.text)
            return Node(NodeKind.OPERATOR, "neg", (operand,))
        raise self.error("expected expression")

    def type_size(self) -> str:  # a "+" is dropped
        negative = not self.accept("op", "+") and self.accept("op", "-")
        tok = self.tokens[self.pos]
        if tok.kind != "number":
            raise self.error("expected type size")
        self.pos += 1
        return "-" + tok.value if negative else tok.value

    def parse_function_call(self, name: str) -> Node:
        self.pos += 1  # the "(" the caller saw
        tok = self.tokens[self.pos]
        if tok.kind == "punct" and tok.value == ")":
            self.pos += 1
            return Node(NodeKind.FUNCTION_CALL, name)
        if tok.kind == "op" and tok.value == "*":
            self.pos += 1
            args = [Node(NodeKind.COLUMN_REF, "*")]
        else:
            distinct = self.accept("kw", "distinct")
            args = self._comma_list(self.parse_expr)
            if distinct:
                args[0] = Node(NodeKind.OPERATOR, "distinct", (args[0],))
        self.expect("punct", ")")
        return Node(NodeKind.FUNCTION_CALL, name, tuple(args))


# -- normalization: table alias resolution ----------------------------------


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


def _unambiguous_aliases(items: list[Node]) -> tuple[dict[str, str], dict[str, int]]:
    """Alias -> table for each aliased table that occurs once among ``items``,
    one scope's FROM items, under a name no other item binds; derived tables
    stay opaque.  Also returns every name the scope binds (bare tables,
    aliases, derived-table aliases) with its count."""
    bindings: dict[str, str] = {}
    tables: dict[str, int] = {}
    names: dict[str, int] = {}
    stack = list(items)
    while stack:
        item = stack.pop()
        if item.kind is NodeKind.JOIN:
            stack += item.children[:2]  # the two sides; the ON condition binds nothing
            continue
        names[item.text] = names.get(item.text, 0) + 1
        if item.kind is NodeKind.TABLE_REF:
            tables[item.text] = tables.get(item.text, 0) + 1
        elif item.children[0].kind is NodeKind.TABLE_REF:
            bindings[item.text] = table = item.children[0].text
            tables[table] = tables.get(table, 0) + 1
    return {alias: table for alias, table in bindings.items() if names[alias] == tables[table] == 1}, names


def _resolve_aliases(statement: Node, env: dict[str, str]) -> Node:
    """Drop table aliases that bind an unambiguous table; rewrite qualifiers.

    ``FROM t AS x ... x.a`` becomes ``FROM t ... a`` whenever ``t`` occurs
    exactly once in the scope; self-joins keep their aliases untouched.
    Every subtree that needs no rewrite, the statement included, is
    returned as the very same node.
    """
    items = from_items(statement)
    local, bound = _unambiguous_aliases(items)
    # a name this scope binds hides an outer alias of that name
    scope = {name: table for name, table in env.items() if name not in bound} | local
    # qualifiers naming a lone FROM item that is not a join are redundant and get elided
    lone = len(items) == 1 and items[0].kind is not NodeKind.JOIN
    sole = local.get(items[0].text, items[0].text) if lone else None

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
        if n.kind is NodeKind.ALIAS and n.text in local and n.children[0].kind is NodeKind.TABLE_REF:
            return n.children[0]
        if not n.children:
            return n
        return n.map_children(rewrite)

    return statement.map_children(rewrite)


def parse(sql: str, tokens: list[Token] | None = None) -> Node:
    """Parse one SELECT statement (lexed as ``tokens``, if given) into a normalized AST: its statement node.

    Raises ParseError for empty input, multiple statements, or anything
    outside the supported surface; never aborts the process.
    """
    if not isinstance(sql, str) or not sql.strip(" \t\n\f\r"):
        raise ParseError("empty SQL text", 0)
    parser = _Parser(tokens or tokenize(sql))
    if not parser.at("kw", "select", "with"):
        raise parser.error("expected SELECT or WITH")
    root = parser.parse_statement()
    parser.accept("punct", ";")
    if parser.tokens[parser.pos].kind != "eof":
        raise parser.error("multiple statements are not supported" if parser.at("kw", "select", "with") else "trailing input after statement")
    return _resolve_aliases(root, {}) if parser.needs_resolution else root
