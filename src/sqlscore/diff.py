"""Classified node-level edit script between two normalized ASTs.

The matcher runs in two phases:

1. bottom-up exact-subtree anchoring: identical subtrees (hashed with
   order-insensitive child sets for select lists, GROUP BY keys and AND/OR
   conjuncts) are paired greedily, largest first, so reordered query
   components come out as moves instead of insert/delete pairs;
2. top-down pairing of the remaining equal-kind nodes, by equal text first
   and then by similarity of their descendants, which yields update and
   move operations.

Whatever stays unpaired becomes a delete (truth side) or an insert
(predicted side).  Every node of both trees is covered by exactly one
operation.  Nodes may only pair within the same clause context (a column
that migrates from the select list into GROUP BY counts as one delete plus
one insert, not a move).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .sqlast import Node, NodeKind, SqlAst

# Containers whose children are compared as sets rather than sequences.
_UNORDERED_KINDS = {NodeKind.SELECT_LIST, NodeKind.GROUP_BY}
_UNORDERED_OPERATORS = {"and", "or"}

# Matches never cross these clause boundaries.
_CLAUSE_KINDS = {NodeKind.SELECT_LIST, NodeKind.WHERE, NodeKind.GROUP_BY, NodeKind.ORDER_BY, NodeKind.LIMIT}


class EditOpKind(str, Enum):
    KEEP = "keep"
    MOVE = "move"
    UPDATE = "update"
    INSERT = "insert"
    DELETE = "delete"


@dataclass(frozen=True)
class EditOp:
    """One classified edit.

    keep/move/update reference a node in both trees; delete only the truth
    tree, insert only the predicted tree.
    """

    kind: EditOpKind
    node_kind: NodeKind
    source: Node | None = None
    target: Node | None = None

    @property
    def node_text(self) -> str:
        node = self.source if self.source is not None else self.target
        assert node is not None
        return node.text


@dataclass(frozen=True)
class EditScript:
    ops: tuple[EditOp, ...]

    @property
    def size_union(self) -> int:
        return len(self.ops)

    def counts(self) -> dict[str, int]:
        out = {k.value: 0 for k in EditOpKind}
        for op in self.ops:
            out[op.kind.value] += 1
        return out

    def non_keep_count(self) -> int:
        return sum(1 for op in self.ops if op.kind is not EditOpKind.KEEP)


def _is_unordered(node: Node) -> bool:
    if node.kind in _UNORDERED_KINDS:
        return True
    return node.kind is NodeKind.OPERATOR and node.text in _UNORDERED_OPERATORS


class _TreeIndex:
    """Preorder tables for one tree: parents, positions, buckets, hashes."""

    def __init__(self, root: Node):
        self.root = root
        self.nodes: list[Node] = []
        self.order: dict[int, int] = {}
        self.parent: dict[int, Node | None] = {id(root): None}
        self.child_index: dict[int, int] = {id(root): 0}
        self.bucket: dict[int, str] = {}
        self.key: dict[int, bytes] = {}
        self.size: dict[int, int] = {}
        self._descendant_keys: dict[int, Counter] = {}
        self._build(root, "")

    def _build(self, node: Node, bucket: str) -> None:
        self.order[id(node)] = len(self.nodes)
        self.nodes.append(node)
        self.bucket[id(node)] = bucket
        child_bucket = node.kind.value if node.kind in _CLAUSE_KINDS else bucket
        for i, child in enumerate(node.children):
            self.parent[id(child)] = node
            self.child_index[id(child)] = i
            self._build(child, child_bucket)
        child_keys = [self.key[id(c)] for c in node.children]
        if _is_unordered(node):
            child_keys.sort()
        digest = hashlib.blake2b(digest_size=16)
        digest.update(node.kind.value.encode())
        digest.update(b"\x00")
        digest.update(node.text.encode())
        for ck in child_keys:
            digest.update(ck)
        self.key[id(node)] = digest.digest()
        self.size[id(node)] = 1 + sum(self.size[id(c)] for c in node.children)

    def descendant_keys(self, node: Node) -> Counter:
        cached = self._descendant_keys.get(id(node))
        if cached is None:
            cached = Counter()
            for child in node.children:
                cached[self.key[id(child)]] += 1
                cached.update(self.descendant_keys(child))
            self._descendant_keys[id(node)] = cached
        return cached


class _Matcher:
    def __init__(self, truth: Node, predicted: Node):
        self.t = _TreeIndex(truth)
        self.p = _TreeIndex(predicted)
        self.t2p: dict[int, Node] = {}
        self.p2t: dict[int, Node] = {}

    # -- phase 1: exact subtree anchoring -----------------------------------

    def anchor_exact(self) -> None:
        by_key: dict[bytes, list[Node]] = {}
        for node in self.p.nodes:
            by_key.setdefault(self.p.key[id(node)], []).append(node)

        for t_node in sorted(self.t.nodes, key=lambda n: (-self.t.size[id(n)], self.t.order[id(n)])):
            if id(t_node) in self.t2p:
                continue
            candidates = [
                c
                for c in by_key.get(self.t.key[id(t_node)], [])
                if id(c) not in self.p2t
                and self.p.bucket[id(c)] == self.t.bucket[id(t_node)]
                and (c is self.p.root) == (t_node is self.t.root)
            ]
            if not candidates:
                continue
            chosen = min(candidates, key=lambda c: (not self._parents_paired(t_node, c), not self._same_position(t_node, c), self.p.order[id(c)]))
            self._pair_subtree(t_node, chosen)

    def _parents_paired(self, t_node: Node, p_node: Node) -> bool:
        tp = self.t.parent[id(t_node)]
        pp = self.p.parent[id(p_node)]
        if tp is None or pp is None:
            return tp is None and pp is None
        return self.t2p.get(id(tp)) is pp

    def _same_position(self, t_node: Node, p_node: Node) -> bool:
        return self.t.child_index[id(t_node)] == self.p.child_index[id(p_node)]

    def _pair_subtree(self, t_node: Node, p_node: Node) -> None:
        self.t2p[id(t_node)] = p_node
        self.p2t[id(p_node)] = t_node
        if _is_unordered(t_node):
            groups: dict[bytes, list[Node]] = {}
            for pc in p_node.children:
                groups.setdefault(self.p.key[id(pc)], []).append(pc)
            for tc in t_node.children:
                self._pair_subtree(tc, groups[self.t.key[id(tc)]].pop(0))
        else:
            for tc, pc in zip(t_node.children, p_node.children):
                self._pair_subtree(tc, pc)

    # -- phase 2: top-down pairing of the remainder --------------------------

    def pair_remainder(self) -> None:
        t_root, p_root = self.t.root, self.p.root
        if id(t_root) not in self.t2p and id(p_root) not in self.p2t:
            self.t2p[id(t_root)] = p_root
            self.p2t[id(p_root)] = t_root
            self._match_children(t_root, p_root)

    def _match_children(self, t_node: Node, p_node: Node) -> None:
        t_free = [c for c in t_node.children if id(c) not in self.t2p]
        p_free = [c for c in p_node.children if id(c) not in self.p2t]
        if not t_free or not p_free:
            return
        kinds = sorted({c.kind for c in t_free} & {c.kind for c in p_free}, key=lambda k: k.value)
        unordered = _is_unordered(t_node)
        for kind in kinds:
            tl = [c for c in t_free if c.kind is kind and id(c) not in self.t2p]
            pl = [c for c in p_free if c.kind is kind and id(c) not in self.p2t]
            if unordered:
                self._pair_set_wise(tl, pl)
            else:
                for tc, pc in zip(tl, pl):
                    self._adopt(tc, pc)

    def _pair_set_wise(self, tl: list[Node], pl: list[Node]) -> None:
        # equal text first, in order
        by_text: dict[str, list[Node]] = {}
        for pc in pl:
            by_text.setdefault(pc.text, []).append(pc)
        rest_t: list[Node] = []
        for tc in tl:
            bucket = by_text.get(tc.text)
            if bucket:
                self._adopt(tc, bucket.pop(0))
            else:
                rest_t.append(tc)
        rest_p = [pc for pc in pl if id(pc) not in self.p2t]
        if not rest_t or not rest_p:
            return
        # then most-similar descendants, deterministically greedy
        scored = []
        for ti, tc in enumerate(rest_t):
            for pi, pc in enumerate(rest_p):
                scored.append((-self._dice(tc, pc), abs(ti - pi), ti, pi))
        scored.sort()
        taken_t: set[int] = set()
        taken_p: set[int] = set()
        for _, _, ti, pi in scored:
            if ti in taken_t or pi in taken_p:
                continue
            taken_t.add(ti)
            taken_p.add(pi)
            self._adopt(rest_t[ti], rest_p[pi])

    def _adopt(self, t_node: Node, p_node: Node) -> None:
        self.t2p[id(t_node)] = p_node
        self.p2t[id(p_node)] = t_node
        self._match_children(t_node, p_node)

    def _dice(self, t_node: Node, p_node: Node) -> float:
        td = self.t.descendant_keys(t_node)
        pd = self.p.descendant_keys(p_node)
        total = sum(td.values()) + sum(pd.values())
        if total == 0:
            return 1.0 if t_node.text == p_node.text else 0.0
        common = sum((td & pd).values())
        return 2.0 * common / total

    # -- classification ------------------------------------------------------

    def script(self) -> EditScript:
        ops: list[EditOp] = []
        for t_node in self.t.nodes:
            p_node = self.t2p.get(id(t_node))
            if p_node is None:
                ops.append(EditOp(EditOpKind.DELETE, t_node.kind, source=t_node))
            elif t_node.text != p_node.text:
                ops.append(EditOp(EditOpKind.UPDATE, t_node.kind, source=t_node, target=p_node))
            elif self._parents_paired(t_node, p_node) and self._same_position(t_node, p_node):
                ops.append(EditOp(EditOpKind.KEEP, t_node.kind, source=t_node, target=p_node))
            else:
                ops.append(EditOp(EditOpKind.MOVE, t_node.kind, source=t_node, target=p_node))
        for p_node in self.p.nodes:
            if id(p_node) not in self.p2t:
                ops.append(EditOp(EditOpKind.INSERT, p_node.kind, target=p_node))
        return EditScript(tuple(ops))


def diff(truth: SqlAst, predicted: SqlAst) -> EditScript:
    """Edit script covering every node of both trees exactly once."""
    matcher = _Matcher(truth.root, predicted.root)
    matcher.anchor_exact()
    matcher.pair_remainder()
    return matcher.script()
