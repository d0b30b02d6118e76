"""Statement-level similarity score over the matcher's classified nodes.

Every node of both trees is one keep, move, update, delete or insert, as in
``diff``'s edit script.  Keep and move operations are free, alias-only edits
are free, any edit to an accessed table zeroes the score outright, and every
other insert/update/delete counts as one change.  The change count is clamped
to the number of operations and mapped to a similarity in [0, 1], so
identical queries score 1.0 and a changed table scores 0.0.

A predicted query that does not parse scores 0.0 with the
``invalid_prediction`` verdict; an unparseable ground-truth query is a
corpus defect, not a model failure, and raises CorpusError instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diff import EditOpKind, _Matcher, _TreeIndex
from .parser import parse, split_qualified
from .results import VERDICT_INVALID, VERDICT_SCORED
from .sqlast import Node, NodeKind, ParseError

RULE_NORMAL = "normal"
RULE_TABLE_MISMATCH = "table-mismatch"
RULE_INVALID = "invalid"


class CorpusError(Exception):
    """A defect in ground-truth data (unparseable or unexecutable truth query)."""


@dataclass(frozen=True)
class ScoreBreakdown:
    keeps: int = 0
    moves: int = 0
    updates: int = 0
    inserts: int = 0
    deletes: int = 0
    size_union: int = 0
    diff_count: int = 0
    raw_ratio: float = 0.0
    rule: str = RULE_INVALID


@dataclass(frozen=True)
class SemanticScore:
    value: float
    verdict: str
    breakdown: ScoreBreakdown

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"a semantic score is in [0, 1], got {self.value!r}")


def semantic_score_from_asts(truth: Node | _TreeIndex, predicted: Node) -> SemanticScore:
    """Statement similarity of two trees; ``truth`` may be its ``_TreeIndex``,
    as for ``diff``.  Reads the matcher's classification, not an edit script."""
    matcher = _Matcher(truth, predicted)
    kinds, inserted = matcher.classify()
    keep, move, update = EditOpKind.KEEP, EditOpKind.MOVE, EditOpKind.UPDATE
    keeps, moves, updates = kinds.count(keep), kinds.count(move), kinds.count(update)
    deletes, size_union = len(kinds) - keeps - moves - updates, len(kinds) + len(inserted)
    t_nodes, p_nodes = matcher.t.nodes, matcher.p.nodes
    truth_ctes = {node.text for node in t_nodes if node.kind is NodeKind.CTE}
    pred_ctes = {node.text for node in p_nodes if node.kind is NodeKind.CTE}
    # each update, delete and insert as (truth node or None, predicted node or None)
    changes = [(node, p_nodes[j] if j >= 0 else None) for kind, node, j in zip(kinds, t_nodes, matcher.t2p) if kind is not keep and kind is not move]
    changes += [(None, node) for node in inserted]
    diff_count, rule = 0, RULE_NORMAL
    for source, target in changes:
        node_kind = target.kind if source is None else source.kind
        if node_kind is NodeKind.TABLE_REF:
            # a reference to a CTE behaves like an alias: renaming a CTE does
            # not change the tables read
            if (source is None or source.text in truth_ctes) and (target is None or target.text in pred_ctes):
                continue
            diff_count, rule = size_union, RULE_TABLE_MISMATCH
            break
        if node_kind is NodeKind.ALIAS or node_kind is NodeKind.CTE:
            continue
        if node_kind is NodeKind.COLUMN_REF and source is not None and target is not None:
            # only the qualifier changed and both name a CTE, as ``c1.total``
            # and ``x.total`` after a CTE rename: alias noise
            source_qualifier, source_column = split_qualified(source.text)
            target_qualifier, target_column = split_qualified(target.text)
            if source_column == target_column and source_qualifier in truth_ctes and target_qualifier in pred_ctes:
                continue
        diff_count += 1

    diff_count = min(diff_count, size_union)
    breakdown = ScoreBreakdown(keeps, moves, updates, len(inserted), deletes, size_union, diff_count, diff_count / size_union, rule)
    return SemanticScore(value=1.0 - breakdown.raw_ratio, verdict=VERDICT_SCORED, breakdown=breakdown)


def invalid_prediction_score() -> SemanticScore:
    return SemanticScore(value=0.0, verdict=VERDICT_INVALID, breakdown=ScoreBreakdown())


def semantic_similarity(query_true: str, query_predicted: str) -> SemanticScore:
    """Score a predicted statement against the ground truth, in [0, 1].

    The score is directional: (truth, predicted) is not symmetrized.
    """
    try:
        truth = parse(query_true)
    except ParseError as exc:
        raise CorpusError(f"truth query does not parse: {exc}") from exc
    try:
        predicted = parse(query_predicted)
    except ParseError:
        return invalid_prediction_score()
    return semantic_score_from_asts(truth, predicted)
