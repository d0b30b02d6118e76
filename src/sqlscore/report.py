"""Report serialization: JSON detail, CSV per-instance rows, Markdown summary.

``write_json`` and ``write_csv`` fill a text stream instance by instance, so
a file gets its report without the whole text in memory; ``report_to_json``
and ``report_to_csv`` return what they write into an ``io.StringIO``.
Output is deterministic: fixed key order, sorted group keys, no wall-clock
values beyond the evaluation anchor.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import asdict, fields
from typing import TextIO

from .results import DEFAULT_REL_TOL, DEFAULT_ROW_CAP
from .runner import Aggregate, EvalReport, InstanceResult
from .semantic import ScoreBreakdown

_BREAKDOWN_FIELDS = tuple(f.name for f in fields(ScoreBreakdown))


def _instance_dict(r: InstanceResult) -> dict:
    """One instance's report fields, with ``semantic_breakdown`` left None:
    the JSON writers add it."""
    semantic, result = r.semantic, r.result
    return {
        "id": r.question_id,
        "db_id": r.db_id,
        "case_type": r.case_type,
        "language": r.language,
        "predicted_sql": r.predicted_sql,
        "excluded": r.excluded,
        "warning": r.warning,
        "semantic": None if semantic is None else semantic.value,
        "semantic_verdict": None if semantic is None else semantic.verdict,
        "semantic_breakdown": None,
        "precision": None if result is None else result.precision,
        "recall": None if result is None else result.recall,
        "f1": None if result is None else result.f1,
        "result_verdict": None if result is None else result.verdict,
    }


def _breakdown_dict(r: InstanceResult) -> dict:
    breakdown = r.semantic.breakdown
    return {name: getattr(breakdown, name) for name in _BREAKDOWN_FIELDS}


def _head_dict(report: EvalReport) -> dict:
    return {
        "anchor": report.anchor.isoformat(),
        "options": {
            "order_insensitive": report.options.order_insensitive,
            "query_timeout_s": report.options.query_timeout_s,
            "row_cap": DEFAULT_ROW_CAP,
            "numeric_rel_tol": DEFAULT_REL_TOL,
        },
        "summary": {
            "overall": asdict(report.overall),
            "by_case_type": {k: asdict(v) for k, v in report.by_case_type.items()},
            "by_language": {k: asdict(v) for k, v in report.by_language.items()},
        },
    }


def report_to_dict(report: EvalReport) -> dict:
    return {
        **_head_dict(report),
        "instances": [
            _instance_dict(r) if r.semantic is None else {**_instance_dict(r), "semantic_breakdown": _breakdown_dict(r)}
            for r in report.instances
        ],
        "corpus_errors": list(report.corpus_errors),
    }


# An instance sits at depth 2 of the report and its breakdown at depth 3.
# Their values are JSON scalars (question ids are, see ``load_corpus``), so
# the C encoder writes each with the newline and indent that ``indent=2``
# would put between its items.
_encode_instance = json.JSONEncoder(ensure_ascii=False, separators=(",\n      ", ": ")).encode
_encode_breakdown = json.JSONEncoder(ensure_ascii=False, separators=(",\n        ", ": ")).encode


def _instance_text(r: InstanceResult) -> str:
    text = _encode_instance(_instance_dict(r))
    if r.semantic is not None:
        # no encoded string holds a raw newline, so this finds the key itself
        breakdown = _encode_breakdown(_breakdown_dict(r))
        text = text.replace('\n      "semantic_breakdown": null,', f'\n      "semantic_breakdown": {{\n        {breakdown[1:-1]}\n      }},', 1)
    return f"    {{\n      {text[1:-1]}\n    }}"


def write_json(report: EvalReport, stream: TextIO) -> None:
    """Write the JSON report to ``stream`` one instance at a time: byte for
    byte ``json.dumps(report_to_dict(report), indent=2, ensure_ascii=False)
    + "\\n"`` when every question id is a JSON scalar, with the instances
    written by the C encoder, which ``indent`` turns off."""
    head = json.dumps(_head_dict(report), indent=2, ensure_ascii=False)
    stream.write(f'{head[:-2]},\n  "instances": [')
    for i, r in enumerate(report.instances):
        stream.write((",\n" if i else "\n") + _instance_text(r))
    errors = json.dumps({"corpus_errors": list(report.corpus_errors)}, indent=2, ensure_ascii=False)
    stream.write(("\n  ]," if report.instances else "],") + errors[1:] + "\n")


_CSV_FIELDS = ["id", "db_id", "case_type", "language", "semantic", "precision", "recall", "f1", "semantic_verdict", "result_verdict", "excluded", "warning"]


def write_csv(report: EvalReport, stream: TextIO) -> None:
    """Write the CSV report to ``stream``, one row per instance."""
    writer = csv.DictWriter(stream, fieldnames=_CSV_FIELDS, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(map(_instance_dict, report.instances))


def report_to_json(report: EvalReport) -> str:
    """The whole text that ``write_json`` writes."""
    buffer = io.StringIO()
    write_json(report, buffer)
    return buffer.getvalue()


def report_to_csv(report: EvalReport) -> str:
    """The whole text that ``write_csv`` writes."""
    buffer = io.StringIO()
    write_csv(report, buffer)
    return buffer.getvalue()


def _format_score(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


_LINE_BREAK = re.compile(r"\r\n?|\n")  # a Markdown line ending; corpus text writes it as <br> to keep to one line


def _aggregate_table(rows: list[tuple[str, Aggregate]], label: str) -> list[str]:
    lines = [
        f"| {label} | count | semantic | precision | recall | f1 |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for name, agg in rows:
        name = _LINE_BREAK.sub("<br>", name.replace("\\", "\\\\").replace("|", "\\|"))  # a | would end its cell; a backslash would void its escape
        lines.append(
            f"| {name} | {agg.count} | {_format_score(agg.semantic)} | "
            f"{_format_score(agg.precision)} | {_format_score(agg.recall)} | {_format_score(agg.f1)} |"
        )
    return lines


def report_to_markdown(report: EvalReport) -> str:
    """The Markdown summary; corpus text in it keeps each table row and each
    corpus error on one line, where the JSON and CSV reports keep it exact."""
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
        lines += [f"- {_LINE_BREAK.sub('<br>', message)}" for message in report.corpus_errors]
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
