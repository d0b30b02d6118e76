"""Partial-credit evaluation toolkit for NL2SQL models.

Two metrics score a predicted query against its ground truth: a statement
similarity computed from a classified AST edit script, and a result
similarity computed by matching executed result columns one-to-one.  A
benchmark runner evaluates whole question corpora against fixture
databases under a frozen clock and aggregates per question category.
"""

from .adapters import AdapterError, Prediction, get_predictions, parse_adapter_spec
from .anchor import DEFAULT_ANCHOR, anchor_sql, parse_anchor
from .corpus import CASE_TYPES, BenchmarkQuestion, CorpusLoadError, category_counts, load_corpus
from .diff import EditOp, EditOpKind, EditScript, diff
from .fixtures import FIXTURE_QUESTIONS, build_fixture_database, write_fixtures
from .parser import parse, tokenize
from .render import render
from .report import report_to_csv, report_to_dict, report_to_json, report_to_markdown, summary_text
from .results import (
    ExecutionError,
    ResultScore,
    ResultTable,
    cells_equal,
    execute,
    match_columns,
    score_result_pair,
)
from .runner import (
    Aggregate,
    ConfigError,
    EvalOptions,
    EvalReport,
    InstanceResult,
    evaluate,
    score_pair,
    validate_corpus,
)
from .semantic import CorpusError, ScoreBreakdown, SemanticScore, semantic_score_from_asts, semantic_similarity
from .sqlast import Node, NodeKind, ParseError

__version__ = "0.1.0"

__all__ = [
    "AdapterError",
    "Aggregate",
    "BenchmarkQuestion",
    "CASE_TYPES",
    "ConfigError",
    "CorpusError",
    "CorpusLoadError",
    "DEFAULT_ANCHOR",
    "EditOp",
    "EditOpKind",
    "EditScript",
    "EvalOptions",
    "EvalReport",
    "ExecutionError",
    "FIXTURE_QUESTIONS",
    "InstanceResult",
    "Node",
    "NodeKind",
    "ParseError",
    "Prediction",
    "ResultScore",
    "ResultTable",
    "ScoreBreakdown",
    "SemanticScore",
    "anchor_sql",
    "build_fixture_database",
    "category_counts",
    "cells_equal",
    "diff",
    "evaluate",
    "execute",
    "get_predictions",
    "load_corpus",
    "match_columns",
    "parse",
    "parse_adapter_spec",
    "parse_anchor",
    "render",
    "report_to_csv",
    "report_to_dict",
    "report_to_json",
    "report_to_markdown",
    "score_pair",
    "score_result_pair",
    "semantic_score_from_asts",
    "semantic_similarity",
    "summary_text",
    "tokenize",
    "validate_corpus",
    "write_fixtures",
]
