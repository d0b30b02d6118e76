"""Question-corpus loading.

A corpus file is a JSON array of instances with the keys ``db_id``,
``query`` (ground truth SQL), ``question``, ``language`` and ``case_type``,
plus an optional stable ``id``.  Instances without an id get their
zero-based file position.  Unknown extra fields are preserved but ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

CASE_TYPES = (
    "filtering",
    "time_period",
    "comparison",
    "trend_comparison",
    "multi_table",
    "rank",
    "percentage",
    "aggregation",
    "language",
)

# the leading fields of BenchmarkQuestion, in its order: they are passed by position
_REQUIRED_FIELDS = ("db_id", "query", "question", "language", "case_type")


class CorpusLoadError(Exception):
    """The question file is malformed; the message names the offending instance."""


@dataclass(frozen=True)
class BenchmarkQuestion:
    db_id: str
    query: str
    question: str
    language: str
    case_type: str
    id: Any = None
    extra: dict = field(default_factory=dict, compare=False)


def database_path(db_dir: str | Path, db_id: str) -> Path:
    """Where a question's database lives: ``<db_id>.sqlite`` in ``db_dir``."""
    return Path(db_dir) / f"{db_id}.sqlite"


def is_json_scalar(value: object) -> bool:
    """True for an id that strict JSON can carry: None, bool, int, finite float or str."""
    return isinstance(value, (type(None), bool, int, str)) or (isinstance(value, float) and math.isfinite(value))


def id_key(value: object) -> tuple[bool, object]:
    """An id as a dict key: JSON ``true`` and ``1`` are different ids, though Python's ``True == 1``."""
    return type(value) is bool, value


def question_from_mapping(raw: dict, index: int) -> BenchmarkQuestion:
    for name in _REQUIRED_FIELDS:
        if name not in raw:
            raise CorpusLoadError(f"instance {index}: missing required field {name!r}")
        if not isinstance(raw[name], str):
            raise CorpusLoadError(f"instance {index}: field {name!r} must be a string")
    if raw["case_type"] not in CASE_TYPES:
        raise CorpusLoadError(f"instance {index}: unknown case_type {raw['case_type']!r}")
    if not is_json_scalar(raw.get("id")):
        raise CorpusLoadError(f"instance {index}: 'id' must be a JSON scalar (null, boolean, finite number or string), not {raw['id']!r}")
    extra = {k: v for k, v in raw.items() if k not in _REQUIRED_FIELDS and k != "id"}
    return BenchmarkQuestion(*map(raw.__getitem__, _REQUIRED_FIELDS), id=raw.get("id", index), extra=extra)


def load_corpus(path: str | Path) -> list[BenchmarkQuestion]:
    """Parse a question file; raises CorpusLoadError on any defect."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
        # newlines as read_text reads them, so a JSONDecodeError gives the same position
        raw = json.loads(text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text)
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusLoadError(f"cannot read corpus file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not JSON, an int of too many digits, or nesting too deep
        raise CorpusLoadError(f"corpus file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise CorpusLoadError(f"corpus file {path} must contain a JSON array of instances")

    questions: list[BenchmarkQuestion] = []
    seen_ids: set = set()
    for index, item in enumerate(raw):
        if not isinstance(item, dict):
            raise CorpusLoadError(f"instance {index}: expected a JSON object")
        question = question_from_mapping(item, index)
        key = id_key(question.id)
        if key in seen_ids:
            raise CorpusLoadError(f"instance {index}: duplicate id {question.id!r}")
        seen_ids.add(key)
        questions.append(question)
    return questions


def category_counts(questions: list[BenchmarkQuestion]) -> dict[str, int]:
    counts = {name: 0 for name in CASE_TYPES}
    for q in questions:
        counts[q.case_type] += 1
    return counts
