"""Classified node-level edit script between two normalized ASTs.

The matcher runs in two phases:

1. bottom-up exact-subtree anchoring: identical subtrees are paired
   greedily, largest first, so reordered query components come out as
   moves instead of insert/delete pairs.  Subtrees are compared by interned
   int keys, which take the children of select lists, GROUP BY keys and
   AND/OR conjuncts as multisets;
2. top-down pairing of the remaining equal-kind nodes, by equal text first
   and then by similarity of their descendants, which yields update and
   move operations.

Whatever stays unpaired becomes a delete (truth side) or an insert
(predicted side).  ``_Matcher.classify`` gives every node of both trees
exactly one operation; ``diff`` and ``semantic`` both read it.  Nodes may
only pair within the same clause context (a column that migrates from the
select list into GROUP BY counts as one delete plus one insert, not a move).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

from .sqlast import Node, NodeKind

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


class EditOp(NamedTuple):
    """One classified edit, a named tuple like ``Node``.

    keep/move/update reference a node in both trees; delete only the truth
    tree, insert only the predicted tree.
    """

    kind: EditOpKind
    node_kind: NodeKind
    source: Node | None = None
    target: Node | None = None


@dataclass(frozen=True)
class EditScript:
    ops: tuple[EditOp, ...]

    @property
    def size_union(self) -> int:
        return len(self.ops)

    def counts(self) -> dict[str, int]:
        kinds = [op.kind for op in self.ops]
        return {kind.value: kinds.count(kind) for kind in EditOpKind}


def _is_unordered(node: Node) -> bool:
    if node.kind in _UNORDERED_KINDS:
        return True
    return node.kind is NodeKind.OPERATOR and node.text in _UNORDERED_OPERATORS


class _TreeIndex:
    """Preorder tables for one tree, indexed by preorder position.

    ``parent`` is -1 for the root.  ``key[i]`` is an int, equal for two
    subtrees exactly when they are equal up to the order of unordered nodes'
    children: the index's own ``keys`` table interns ``(kind, text, *child
    keys)`` with those child keys sorted.  A predicted tree is indexed into a
    copy of the truth's table, so one truth index serves any number of
    diffs.  The descendants of ``i`` are the positions
    ``i + 1 .. i + size[i] - 1``.
    """

    def __init__(self, root: Node, keys: dict[tuple, int] | None = None):
        keys = {} if keys is None else keys
        nodes: list[Node] = []
        parent: list[int] = []
        child_index: list[int] = []
        children: list[list[int]] = []
        bucket: list[str] = []
        stack = [(root, -1, 0, "")]
        while stack:
            node, up, index, clause = stack.pop()
            i = len(nodes)
            nodes.append(node)
            parent.append(up)
            child_index.append(index)
            children.append([])
            bucket.append(clause)
            if up >= 0:
                children[up].append(i)
            kids = node.children
            if kids:
                if node.kind in _CLAUSE_KINDS:
                    clause = node.kind.value
                stack.extend(zip(reversed(kids), repeat(i), range(len(kids) - 1, -1, -1), repeat(clause)))
        key = [0] * len(nodes)
        size = [1] * len(nodes)
        for i in reversed(range(len(nodes))):
            node, kids = nodes[i], children[i]
            if kids:
                child_keys = list(map(key.__getitem__, kids))
                if _is_unordered(node):
                    child_keys.sort()
                key[i] = keys.setdefault((node.kind, node.text, *child_keys), len(keys))
                size[i] = kids[-1] + size[kids[-1]] - i  # the last child's subtree ends this one
            else:
                key[i] = keys.setdefault((node.kind, node.text), len(keys))
        self.nodes, self.parent, self.child_index, self.children = nodes, parent, child_index, children
        self.bucket, self.key, self.size, self.keys = bucket, key, size, keys

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @cached_property
    def largest_first(self) -> list[int]:
        """Positions by descending subtree size, in preorder among equal sizes; read only on the truth side."""
        return sorted(range(len(self.size)), key=self.size.__getitem__, reverse=True)


def _dice(a: Counter, b: Counter) -> float:
    total = a.total() + b.total()
    return 2.0 * (a & b).total() / total if total else 0.0


class _Matcher:
    """Pairs truth and predicted positions, both phases on construction;
    ``t2p``/``p2t`` hold -1 for an unpaired position.  ``truth`` may be a
    tree or its ``_TreeIndex``, which is left unchanged."""

    def __init__(self, truth: Node | _TreeIndex, predicted: Node):
        self.t = truth if isinstance(truth, _TreeIndex) else _TreeIndex(truth)
        self.p = _TreeIndex(predicted, dict(self.t.keys))
        self.t2p = [-1] * len(self.t.nodes)
        self.p2t = [-1] * len(self.p.nodes)
        self.anchor_exact()
        if self.t2p[0] < 0 and self.p2t[0] < 0:
            self._adopt(0, 0)

    # -- phase 1: exact subtree anchoring -----------------------------------

    def anchor_exact(self) -> None:
        t, p, t2p, p2t = self.t, self.p, self.t2p, self.p2t
        by_key: dict[int, list[int]] = {}
        for j, key in enumerate(p.key):
            by_key.setdefault(key, []).append(j)

        for i in t.largest_first:
            if t2p[i] >= 0:
                continue
            candidates = [j for j in by_key.get(t.key[i], ()) if p2t[j] < 0 and p.bucket[j] == t.bucket[i] and (j == 0) == (i == 0)]
            if not candidates:
                continue
            if len(candidates) > 1:  # so i is not the root
                # parents paired first, then the same position, then preorder
                up, index = t2p[t.parent[i]], t.child_index[i]
                candidates.sort(key=lambda j: (p.parent[j] != up, p.child_index[j] != index))
            self._pair_subtree(i, candidates[0])

    def _pair_subtree(self, i: int, j: int) -> None:
        t, p, t2p, p2t = self.t, self.p, self.t2p, self.p2t
        stack = [(i, j)]
        while stack:
            i, j = stack.pop()
            n = t.size[i]
            if t.key[i : i + n] == p.key[j : j + n]:  # no child reordered anywhere below
                t2p[i : i + n] = range(j, j + n)
                p2t[j : j + n] = range(i, i + n)
                continue
            t2p[i], p2t[j] = j, i
            if _is_unordered(t.nodes[i]):
                groups: dict[int, list[int]] = {}
                for pc in p.children[j]:
                    groups.setdefault(p.key[pc], []).append(pc)
                stack.extend((tc, groups[t.key[tc]].pop(0)) for tc in t.children[i])
            else:
                stack.extend(zip(t.children[i], p.children[j]))

    # -- phase 2: top-down pairing of the remainder --------------------------

    def _match_children(self, i: int, j: int) -> None:
        t, p = self.t, self.p
        t_free = [c for c in t.children[i] if self.t2p[c] < 0]
        p_free = [c for c in p.children[j] if self.p2t[c] < 0]
        if not t_free or not p_free:
            return
        kinds = sorted({t.nodes[c].kind for c in t_free} & {p.nodes[c].kind for c in p_free}, key=lambda k: k.value)
        unordered = _is_unordered(t.nodes[i])
        for kind in kinds:
            tl = [c for c in t_free if t.nodes[c].kind is kind]
            pl = [c for c in p_free if p.nodes[c].kind is kind]
            if unordered:
                self._pair_set_wise(tl, pl)
            else:
                for tc, pc in zip(tl, pl):
                    self._adopt(tc, pc)

    def _pair_set_wise(self, tl: list[int], pl: list[int]) -> None:
        t, p = self.t, self.p
        # equal text first, in order
        by_text: dict[str, list[int]] = {}
        for pc in pl:
            by_text.setdefault(p.nodes[pc].text, []).append(pc)
        rest_t: list[int] = []
        for tc in tl:
            bucket = by_text.get(t.nodes[tc].text)
            if bucket:
                self._adopt(tc, bucket.pop(0))
            else:
                rest_t.append(tc)
        rest_p = [pc for pc in pl if self.p2t[pc] < 0]
        if not rest_t or not rest_p:
            return
        # then most-similar descendants, deterministically greedy; no text
        # is left on both sides here, so two leaves score 0
        t_desc = [Counter(t.key[tc + 1 : tc + t.size[tc]]) for tc in rest_t]
        p_desc = [Counter(p.key[pc + 1 : pc + p.size[pc]]) for pc in rest_p]
        scored = []
        for ti, td in enumerate(t_desc):
            for pi, pd in enumerate(p_desc):
                scored.append((-_dice(td, pd), abs(ti - pi), ti, pi))
        scored.sort()
        taken_t: set[int] = set()
        taken_p: set[int] = set()
        for _, _, ti, pi in scored:
            if ti in taken_t or pi in taken_p:
                continue
            taken_t.add(ti)
            taken_p.add(pi)
            self._adopt(rest_t[ti], rest_p[pi])

    def _adopt(self, i: int, j: int) -> None:
        self.t2p[i] = j
        self.p2t[j] = i
        self._match_children(i, j)

    # -- classification ------------------------------------------------------

    def classify(self) -> tuple[list[EditOpKind], list[Node]]:
        """The op of each truth position (keep, move, update or delete), and
        the predicted nodes left unpaired, which are the inserts."""
        keep, move, update, delete = EditOpKind.KEEP, EditOpKind.MOVE, EditOpKind.UPDATE, EditOpKind.DELETE
        t2p, p_nodes, p_parent, p_index = self.t2p, self.p.nodes, self.p.parent, self.p.child_index
        kinds = []
        # the root pairs only with the root: a parent of -1 on one side means -1 on the other
        for node, j, up, index in zip(self.t.nodes, t2p, self.t.parent, self.t.child_index):
            if j < 0:
                kinds.append(delete)
            elif node.text != p_nodes[j].text:
                kinds.append(update)
            elif index == p_index[j] and (t2p[up] if up >= 0 else -1) == p_parent[j]:
                kinds.append(keep)
            else:
                kinds.append(move)
        return kinds, [node for node, i in zip(p_nodes, self.p2t) if i < 0]

    def script(self) -> EditScript:
        kinds, inserted = self.classify()
        ops = [EditOp(kind, node.kind, node, self.p.nodes[j] if j >= 0 else None) for kind, node, j in zip(kinds, self.t.nodes, self.t2p)]
        ops += [EditOp(EditOpKind.INSERT, node.kind, None, node) for node in inserted]
        return EditScript(tuple(ops))


def diff(truth: Node | _TreeIndex, predicted: Node) -> EditScript:
    """Edit script covering every node of both trees exactly once.

    ``truth`` may be a tree or its ``_TreeIndex``, which is left unchanged
    and can be passed to any number of diffs.
    """
    return _Matcher(truth, predicted).script()
