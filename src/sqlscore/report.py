"""Report serialization: JSON detail, CSV per-instance rows, Markdown summary.

Output is deterministic: fixed key order, sorted group keys, no wall-clock
values beyond the evaluation anchor.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields

from .results import DEFAULT_REL_TOL, DEFAULT_ROW_CAP
from .runner import Aggregate, EvalReport, InstanceResult
from .semantic import ScoreBreakdown

_BREAKDOWN_FIELDS = tuple(f.name for f in fields(ScoreBreakdown))


def _aggregate_dict(aggregate: Aggregate) -> dict:
    return {
        "count": aggregate.count,
        "semantic": aggregate.semantic,
        "precision": aggregate.precision,
        "recall": aggregate.recall,
        "f1": aggregate.f1,
    }


def _instance_dict(r: InstanceResult) -> dict:
    """One instance's report fields, with ``semantic_breakdown`` left None:
    only the JSON report writes it (see ``_instance_json``)."""
    out = {
        "id": r.question_id,
        "db_id": r.db_id,
        "case_type": r.case_type,
        "language": r.language,
        "predicted_sql": r.predicted_sql,
        "excluded": r.excluded,
        "warning": r.warning,
        "semantic": None,
        "semantic_verdict": None,
        "semantic_breakdown": None,
        "precision": None,
        "recall": None,
        "f1": None,
        "result_verdict": None,
    }
    if r.semantic is not None:
        out["semantic"] = r.semantic.value
        out["semantic_verdict"] = r.semantic.verdict
    if r.result is not None:
        out["precision"] = r.result.precision
        out["recall"] = r.result.recall
        out["f1"] = r.result.f1
        out["result_verdict"] = r.result.verdict
    return out


def _instance_json(r: InstanceResult) -> dict:
    out = _instance_dict(r)
    if r.semantic is not None:
        breakdown = r.semantic.breakdown
        out["semantic_breakdown"] = {name: getattr(breakdown, name) for name in _BREAKDOWN_FIELDS}
    return out


def report_to_dict(report: EvalReport) -> dict:
    return {
        "anchor": report.anchor.isoformat(),
        "options": {
            "order_insensitive": report.options.order_insensitive,
            "query_timeout_s": report.options.query_timeout_s,
            "row_cap": DEFAULT_ROW_CAP,
            "numeric_rel_tol": DEFAULT_REL_TOL,
        },
        "summary": {
            "overall": _aggregate_dict(report.overall),
            "by_case_type": {k: _aggregate_dict(v) for k, v in report.by_case_type.items()},
            "by_language": {k: _aggregate_dict(v) for k, v in report.by_language.items()},
        },
        "instances": [_instance_json(r) for r in report.instances],
        "corpus_errors": list(report.corpus_errors),
    }


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, ensure_ascii=False) + "\n"


_CSV_FIELDS = ["id", "db_id", "case_type", "language", "semantic", "precision", "recall", "f1", "semantic_verdict", "result_verdict", "excluded", "warning"]


def report_to_csv(report: EvalReport) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in report.instances:
        row = _instance_dict(r)
        writer.writerow({name: row[name] for name in _CSV_FIELDS})
    return buffer.getvalue()


def _format_score(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def _aggregate_table(rows: list[tuple[str, Aggregate]], label: str) -> list[str]:
    lines = [
        f"| {label} | count | semantic | precision | recall | f1 |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for name, agg in rows:
        lines.append(
            f"| {name} | {agg.count} | {_format_score(agg.semantic)} | "
            f"{_format_score(agg.precision)} | {_format_score(agg.recall)} | {_format_score(agg.f1)} |"
        )
    return lines


def report_to_markdown(report: EvalReport) -> str:
    lines = [
        "# Evaluation summary",
        "",
        f"- anchor: {report.anchor.isoformat()}",
        f"- instances: {len(report.instances)} ({report.overall.count} scored, "
        f"{len(report.instances) - report.overall.count} excluded)",
        f"- row order: {'insensitive' if report.options.order_insensitive else 'sensitive'}",
        "",
        "## Overall",
        "",
        *_aggregate_table([("all", report.overall)], "scope"),
        "",
        "## By question category",
        "",
        *_aggregate_table(sorted(report.by_case_type.items()), "category"),
        "",
        "## By language",
        "",
        *_aggregate_table(sorted(report.by_language.items()), "language"),
    ]
    if report.corpus_errors:
        lines += ["", "## Corpus errors", ""]
        lines += [f"- {message}" for message in report.corpus_errors]
    return "\n".join(lines) + "\n"


def summary_text(report: EvalReport) -> str:
    """Plain-text aggregate table for stdout."""
    width = max([len("overall")] + [len(k) for k in report.by_case_type] + [len(k) for k in report.by_language])

    def line(name: str, agg: Aggregate) -> str:
        return (
            f"{name:<{width}}  n={agg.count:<4d} semantic={_format_score(agg.semantic):>7} "
            f"precision={_format_score(agg.precision):>7} recall={_format_score(agg.recall):>7} f1={_format_score(agg.f1):>7}"
        )

    lines = [line("overall", report.overall), ""]
    lines += [line(name, agg) for name, agg in sorted(report.by_case_type.items())]
    lines.append("")
    lines += [line(name, agg) for name, agg in sorted(report.by_language.items())]
    return "\n".join(lines)
