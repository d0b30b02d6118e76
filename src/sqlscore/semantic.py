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

from .diff import EditOpKind, EditScript, diff
from .parser import parse, split_qualified
from .results import VERDICT_INVALID, VERDICT_SCORED
from .sqlast import Node, NodeKind, ParseError, cte_names

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


def _table_edit_is_alias_like(op_kind: EditOpKind, source_text: str | None, target_text: str | None, truth_ctes: set[str], pred_ctes: set[str]) -> bool:
    """A table reference that resolves to a CTE behaves like an alias.

    Renaming a CTE (and the references to it) must not trip the
    table-mismatch rule as long as the underlying tables are unchanged.
    """
    if op_kind is EditOpKind.DELETE:
        return source_text in truth_ctes
    if op_kind is EditOpKind.INSERT:
        return target_text in pred_ctes
    return source_text in truth_ctes and target_text in pred_ctes


def _column_update_is_cte_requalification(source_text: str, target_text: str, truth_ctes: set[str], pred_ctes: set[str]) -> bool:
    """True when only the qualifier changed and both sides name a CTE.

    ``c1.total`` vs ``x.total`` after a CTE rename is alias noise, not a
    column change.
    """
    source_qualifier, source_column = split_qualified(source_text)
    target_qualifier, target_column = split_qualified(target_text)
    return (
        source_column == target_column
        and source_qualifier in truth_ctes
        and target_qualifier in pred_ctes
    )


def score_edit_script(script: EditScript, truth_ctes: set[str], pred_ctes: set[str]) -> SemanticScore:
    counts = script.counts()
    size_union = script.size_union
    diff_count = 0
    rule = RULE_NORMAL
    for op in script.ops:
        if op.kind in (EditOpKind.KEEP, EditOpKind.MOVE):
            continue
        if op.node_kind is NodeKind.TABLE_REF:
            source_text = op.source.text if op.source else None
            target_text = op.target.text if op.target else None
            if _table_edit_is_alias_like(op.kind, source_text, target_text, truth_ctes, pred_ctes):
                continue
            diff_count = size_union
            rule = RULE_TABLE_MISMATCH
            break
        if op.node_kind in (NodeKind.ALIAS, NodeKind.CTE):
            continue
        if (
            op.kind is EditOpKind.UPDATE
            and op.node_kind is NodeKind.COLUMN_REF
            and _column_update_is_cte_requalification(op.source.text, op.target.text, truth_ctes, pred_ctes)
        ):
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


def semantic_score_from_asts(truth: Node, predicted: Node) -> SemanticScore:
    script = diff(truth, predicted)
    return score_edit_script(script, cte_names(truth), cte_names(predicted))


def invalid_prediction_score() -> SemanticScore:
    return SemanticScore(value=0.0, verdict=VERDICT_INVALID, breakdown=ScoreBreakdown())


def semantic_similarity(query_true: str, query_predicted: str) -> SemanticScore:
    """Score a predicted statement against the ground truth, in [0, 1].

    The score is directional: (truth, predicted) is not symmetrized.
    """
    try:
        truth = parse(query_true)
    except ParseError as exc:
        raise CorpusError(f"ground-truth query does not parse: {exc}") from exc
    try:
        predicted = parse(query_predicted)
    except ParseError:
        return invalid_prediction_score()
    return semantic_score_from_asts(truth, predicted)
