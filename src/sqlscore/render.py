"""Canonical SQL text from a normalized AST.

Rendering is the inverse of parsing up to normalization: keywords come out
upper-case, identifiers and function names as stored (unquoted ones are
already lower-case), spacing is canonical, and parentheses appear only
where precedence demands them.  ``parse(render(ast))`` reproduces ``ast``.
"""

from __future__ import annotations

from .sqlast import Node, NodeKind, from_items
from .parser import BARE_TIME_FUNCTIONS

_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "not": 3,
    "=": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "in": 4, "not in": 4, "like": 4, "not like": 4,
    "between": 4, "not between": 4, "is null": 4, "is not null": 4,
    "+": 5, "-": 5, "||": 5,
    "*": 6, "/": 6, "%": 6,
    "neg": 7,
}

_BINARY_ARITHMETIC = {"+", "-", "||", "*", "/", "%"}


def render(ast: Node) -> str:
    """Emit executable SQL for a statement produced by parse or a rewrite."""
    ctes = [c for c in ast.children if c.kind is NodeKind.CTE]
    parts: list[str] = []
    if ctes:
        defs = ", ".join(f"{c.text} AS ({render(c.children[0])})" for c in ctes)
        parts.append(f"WITH {defs}")

    select_list = next(c for c in ast.children if c.kind is NodeKind.SELECT_LIST)
    keyword = "SELECT DISTINCT" if select_list.text == "distinct" else "SELECT"
    items = ", ".join(_expr(c) for c in select_list.children)
    parts.append(f"{keyword} {items}")

    tables = from_items(ast)
    if tables:
        parts.append("FROM " + ", ".join(_from_item(c) for c in tables))

    for child in ast.children:
        if child.kind is NodeKind.WHERE:
            parts.append("WHERE " + _expr(child.children[0]))
        elif child.kind is NodeKind.GROUP_BY:
            parts.append("GROUP BY " + ", ".join(_expr(c) for c in child.children))
        elif child.kind is NodeKind.ORDER_BY:
            parts.append("ORDER BY " + ", ".join(_expr(c) for c in child.children))
        elif child.kind is NodeKind.LIMIT:
            clause = "LIMIT " + _expr(child.children[0])
            if len(child.children) > 1:
                clause += " OFFSET " + _expr(child.children[1])
            parts.append(clause)
    return " ".join(parts)


def _from_item(node: Node) -> str:
    if node.kind is NodeKind.TABLE_REF:
        return node.text
    if node.kind is NodeKind.ALIAS:
        inner = node.children[0]
        if inner.kind is NodeKind.TABLE_REF:
            return f"{inner.text} AS {node.text}"
        return f"({render(inner)}) AS {node.text}"
    if node.kind is NodeKind.JOIN:
        left = _from_item(node.children[0])
        right = _from_item(node.children[1])
        keyword = {"inner": "JOIN", "left": "LEFT JOIN", "cross": "CROSS JOIN"}[node.text]
        out = f"{left} {keyword} {right}"
        if len(node.children) > 2:
            out += " ON " + _expr(node.children[2])
        return out
    raise ValueError(f"not a from-item: {node.kind}")


def _expr(node: Node, parent_prec: int = 0, right_operand: bool = False) -> str:
    if node.kind in (NodeKind.COLUMN_REF, NodeKind.TABLE_REF):
        return node.text
    if node.kind is NodeKind.LITERAL:
        return "NULL" if node.text == "null" else node.text
    if node.kind is NodeKind.STATEMENT:
        return f"({render(node)})"
    if node.kind is NodeKind.FUNCTION_CALL:
        return _function_call(node)
    if node.kind is NodeKind.ALIAS:
        return f"{_expr(node.children[0])} AS {node.text}"
    if node.kind is NodeKind.OPERATOR:
        return _operator(node, parent_prec, right_operand)
    raise ValueError(f"cannot render node kind {node.kind}")


def _function_call(node: Node) -> str:
    if node.text in BARE_TIME_FUNCTIONS and not node.children:
        return node.text
    if node.text == "cast":
        return f"cast({_expr(node.children[0])} AS {node.children[1].text})"
    args = ", ".join(_expr(c) for c in node.children)
    return f"{node.text}({args})"


def _operator(node: Node, parent_prec: int, right_operand: bool) -> str:
    text = node.text
    if text == "distinct":
        return "DISTINCT " + _expr(node.children[0])
    if text == "desc":
        return _expr(node.children[0]) + " DESC"

    prec = _PRECEDENCE[text]

    if text in ("and", "or"):
        out = f" {text.upper()} ".join(_expr(c, prec) for c in node.children)
    elif text == "not":
        out = "NOT " + _expr(node.children[0], prec)
    elif text == "neg":
        inner = node.children[0]
        rendered = _expr(inner)
        if inner.kind is NodeKind.OPERATOR:
            rendered = f"({rendered})"
        out = "-" + rendered
    elif text in ("in", "not in"):
        lhs = _expr(node.children[0], prec)
        rest = node.children[1:]
        if len(rest) == 1 and rest[0].kind is NodeKind.STATEMENT:
            rhs = _expr(rest[0])  # statement renders with its own parens
        else:
            rhs = "(" + ", ".join(_expr(c) for c in rest) + ")"
        out = f"{lhs} {text.upper()} {rhs}"
    elif text in ("between", "not between"):
        subject = _expr(node.children[0], prec)
        low = _expr(node.children[1], _PRECEDENCE["and"] + 1)
        high = _expr(node.children[2], _PRECEDENCE["and"] + 1)
        out = f"{subject} {text.upper()} {low} AND {high}"
    elif text in ("is null", "is not null"):
        out = f"{_expr(node.children[0], prec)} {text.upper()}"
    else:
        # left-associative canonical form: a right operand at the same
        # precedence keeps its parentheses, otherwise the tree would change
        symbol = text.upper() if text.replace(" ", "").isalpha() else text
        left = _expr(node.children[0], prec)
        right = _expr(node.children[1], prec, right_operand=text in _BINARY_ARITHMETIC)
        out = f"{left} {symbol} {right}"

    needs_parens = prec < parent_prec or (prec == parent_prec and right_operand)
    return f"({out})" if needs_parens else out
