"""Statement-level similarity score over the classified edit script.

Edits are weighted by what they touch: keep and move operations are free,
alias-only edits are free, any edit to an accessed table zeroes the score
outright, and every other insert/update/delete counts as one change.  The
change count is clamped to the script length and mapped to a similarity in
[0, 1], so identical queries score 1.0 and a changed table scores 0.0.

A predicted query that does not parse scores 0.0 with the
``invalid_prediction`` verdict; an unparseable ground-truth query is a
corpus defect, not a model failure, and raises CorpusError instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diff import EditOpKind, EditScript, _TreeIndex, diff
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
        assert 0.0 <= self.value <= 1.0


def score_edit_script(script: EditScript) -> SemanticScore:
    """Score one edit script.  It covers every node of both trees once, so the
    CTEs the truth binds are op sources and those the prediction binds op targets."""
    truth_ctes = {op.source.text for op in script.ops if op.source is not None and op.source.kind is NodeKind.CTE}
    pred_ctes = {op.target.text for op in script.ops if op.target is not None and op.target.kind is NodeKind.CTE}
    counts = script.counts()
    size_union = script.size_union
    diff_count = 0
    rule = RULE_NORMAL
    for op in script.ops:
        if op.kind in (EditOpKind.KEEP, EditOpKind.MOVE):
            continue
        if op.node_kind is NodeKind.TABLE_REF:
            # a reference to a CTE behaves like an alias: renaming a CTE does
            # not change the tables read
            if (op.source is None or op.source.text in truth_ctes) and (op.target is None or op.target.text in pred_ctes):
                continue
            diff_count = size_union
            rule = RULE_TABLE_MISMATCH
            break
        if op.node_kind in (NodeKind.ALIAS, NodeKind.CTE):
            continue
        if op.kind is EditOpKind.UPDATE and op.node_kind is NodeKind.COLUMN_REF:
            # only the qualifier changed and both name a CTE, as ``c1.total``
            # and ``x.total`` after a CTE rename: alias noise
            source_qualifier, source_column = split_qualified(op.source.text)
            target_qualifier, target_column = split_qualified(op.target.text)
            if source_column == target_column and source_qualifier in truth_ctes and target_qualifier in pred_ctes:
                continue
        diff_count += 1

    raw_ratio = min(diff_count, size_union) / size_union if size_union else 0.0
    breakdown = ScoreBreakdown(
        keeps=counts["keep"],
        moves=counts["move"],
        updates=counts["update"],
        inserts=counts["insert"],
        deletes=counts["delete"],
        size_union=size_union,
        diff_count=min(diff_count, size_union),
        raw_ratio=raw_ratio,
        rule=rule,
    )
    return SemanticScore(value=1.0 - raw_ratio, verdict=VERDICT_SCORED, breakdown=breakdown)


def semantic_score_from_asts(truth: Node | _TreeIndex, predicted: Node) -> SemanticScore:
    """Statement similarity of two trees; ``truth`` may be its ``_TreeIndex``, as for ``diff``."""
    return score_edit_script(diff(truth, predicted))


def parse_truth(sql: str) -> Node:
    """Parse a ground-truth query; raises CorpusError when it does not parse."""
    try:
        return parse(sql)
    except ParseError as exc:
        raise CorpusError(f"truth query does not parse: {exc}") from exc


def invalid_prediction_score() -> SemanticScore:
    return SemanticScore(value=0.0, verdict=VERDICT_INVALID, breakdown=ScoreBreakdown())


def semantic_similarity(query_true: str, query_predicted: str) -> SemanticScore:
    """Score a predicted statement against the ground truth, in [0, 1].

    The score is directional: (truth, predicted) is not symmetrized.
    """
    truth = parse_truth(query_true)
    try:
        predicted = parse(query_predicted)
    except ParseError:
        return invalid_prediction_score()
    return semantic_score_from_asts(truth, predicted)
