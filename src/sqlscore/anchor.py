"""Freeze the clock: rewrite current-time function calls to a fixed instant.

Temporally-phrased questions ("last 2 weeks") only reproduce if "now" means
the same thing on every run, so the evaluation pins it by rewriting the AST
rather than hooking the engine clock.  The default anchor matches the time
span of the fixture data.
"""

from __future__ import annotations

from datetime import datetime

from .sqlast import Node, NodeKind

DEFAULT_ANCHOR = datetime(2023, 1, 17, 0, 0, 0)

# Functions whose 'now' argument designates the current instant.
TIME_VALUE_FUNCTIONS = {"datetime", "date", "time", "strftime", "julianday", "unixepoch", "timediff"}
_CURRENT_TIME_FORMATS = {"now": "%Y-%m-%d %H:%M:%S", "current_timestamp": "%Y-%m-%d %H:%M:%S", "current_date": "%Y-%m-%d", "current_time": "%H:%M:%S"}


def parse_anchor(value: str | datetime) -> datetime:
    if isinstance(value, datetime):
        return value
    return datetime.fromisoformat(value)


def _anchor_literal(anchor: datetime, fmt: str = "%Y-%m-%d %H:%M:%S") -> Node:
    return Node(NodeKind.LITERAL, f"'{anchor.strftime(fmt)}'")


def rewrite_time_anchor(ast: Node, anchor: str | datetime = DEFAULT_ANCHOR) -> Node:
    """Replace every current-time call with the anchor as a literal.

    ``now()`` and ``current_timestamp`` become a timestamp literal,
    ``current_date``/``current_time`` keep their granularity, and a ``'now'``
    argument of the date/time function family, in any ASCII case as SQLite
    reads it, is substituted in place, keeping modifiers.  Idempotent;
    every subtree without a time function, and a tree without any, is
    returned as the very same object.
    """
    instant = parse_anchor(anchor)
    ts = _anchor_literal(instant)

    def rewrite(node: Node) -> Node:
        if node.kind is NodeKind.FUNCTION_CALL:
            if node.text in _CURRENT_TIME_FORMATS and not node.children:
                return _anchor_literal(instant, _CURRENT_TIME_FORMATS[node.text])
            if node.text in TIME_VALUE_FUNCTIONS:
                return node.map_children(lambda a: ts if a.kind is NodeKind.LITERAL and a.text.lower() == "'now'" else rewrite(a))
        if not node.children:
            return node
        return node.map_children(rewrite)

    return rewrite(ast)
