"""Core AST types shared by the parser, renderer, diff and scoring layers.

A parsed statement is its root ``Node``.  Trees are immutable: a
transformation builds new nodes where it changes something and shares the
untouched subtrees, so a parsed tree can be handed to several consumers
(diff, anchoring, rendering).
"""

from __future__ import annotations

from enum import Enum
from operator import is_
from typing import Callable, Iterator, NamedTuple


class NodeKind(str, Enum):
    STATEMENT = "statement"
    SELECT_LIST = "select-list"
    COLUMN_REF = "column-ref"
    TABLE_REF = "table-ref"
    ALIAS = "alias"
    LITERAL = "literal"
    FUNCTION_CALL = "function-call"
    WHERE = "where"
    GROUP_BY = "group-by"
    ORDER_BY = "order-by"
    LIMIT = "limit"
    JOIN = "join"
    CTE = "cte"
    OPERATOR = "operator"


class Node(NamedTuple):
    """One AST node: a kind, its own token text, and ordered children.

    ``text`` holds the piece of the statement the node contributes itself:
    an identifier for column/table refs, the function or operator name, the
    rendered form of a literal (quotes included), the alias label, or the
    join type.  Structural nodes (statement, clauses) have empty text,
    except a select list which carries ``"distinct"`` when quantified.
    A named tuple, like ``Token``: immutable, compared and hashed by value.
    """

    kind: NodeKind
    text: str = ""
    children: tuple["Node", ...] = ()

    def walk(self) -> Iterator["Node"]:
        """Preorder traversal of this subtree."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    @property
    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    def map_children(self, fn: Callable[["Node"], "Node"]) -> "Node":
        """This node with ``fn`` applied to each child.

        Returns ``self`` itself when ``fn`` returned every child unchanged.
        """
        children = tuple(map(fn, self.children))
        if all(map(is_, children, self.children)):
            return self
        return Node(self.kind, self.text, children)


class ParseError(Exception):
    """Raised for any statement outside the supported SQL surface.

    ``position`` is a character offset into the source text, within
    ``[0, len(source)]``.
    """

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


def from_items(statement: Node) -> list[Node]:
    """The FROM items of one statement: tables, joins, aliased tables and derived tables."""
    return [
        c
        for c in statement.children
        if c.kind in (NodeKind.TABLE_REF, NodeKind.JOIN)
        or (c.kind is NodeKind.ALIAS and c.children[0].kind in (NodeKind.TABLE_REF, NodeKind.STATEMENT))
    ]


def physical_tables(root: Node) -> set[str]:
    """Table references that do not resolve to a CTE defined in the tree."""
    tables: set[str] = set()
    ctes: set[str] = set()
    for n in root.walk():
        if n.kind is NodeKind.TABLE_REF:
            tables.add(n.text)
        elif n.kind is NodeKind.CTE:
            ctes.add(n.text)
    return tables - ctes
