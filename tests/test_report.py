"""The JSON report writer against the generic ``indent=2`` dump of the same report."""

import csv
import dataclasses
import hashlib
import io
import json
import re
from datetime import datetime

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqlscore import EvalOptions, Prediction, evaluate, report_to_csv, report_to_dict, report_to_json, report_to_markdown
from sqlscore.results import ResultScore
from sqlscore.runner import Aggregate, EvalReport, InstanceResult
from sqlscore.semantic import ScoreBreakdown, SemanticScore

_CHARACTERS = ['"', "\\", "\n", "\x00", "\u2028", "é", "名", "\U0001d518"]
# text that a writer splicing the report by substring might mistake for its own seams
_SEAMS = ["},\n      {", '\n      "semantic_breakdown": null,']
_FLOATS = [-0.0, 1e-7, 0.1 + 0.2]

texts = st.text(st.sampled_from(_CHARACTERS) | st.characters(), max_size=12) | st.sampled_from(_SEAMS)
unit_floats = st.sampled_from(_FLOATS) | st.floats(0.0, 1.0)
optional_floats = st.none() | unit_floats | st.floats()
ids = st.none() | st.booleans() | st.integers() | st.floats() | texts

breakdowns = st.builds(
    ScoreBreakdown,
    keeps=st.integers(0, 50),
    moves=st.integers(0, 50),
    updates=st.integers(0, 50),
    inserts=st.integers(0, 50),
    deletes=st.integers(0, 50),
    size_union=st.integers(0, 250),
    diff_count=st.integers(0, 250),
    raw_ratio=unit_floats,
    rule=texts,
)
semantics = st.none() | st.builds(SemanticScore, value=unit_floats, verdict=texts, breakdown=breakdowns)
results = st.none() | st.builds(ResultScore, precision=unit_floats, recall=unit_floats, f1=unit_floats, verdict=texts)
instances = st.builds(
    InstanceResult,
    question_id=ids,
    db_id=texts,
    case_type=texts,
    language=texts,
    predicted_sql=texts,
    semantic=semantics,
    result=results,
    excluded=st.booleans(),
    warning=st.none() | texts,
)
aggregates = st.builds(Aggregate, count=st.integers(0, 10**6), semantic=optional_floats, precision=optional_floats, recall=optional_floats, f1=optional_floats)
reports = st.builds(
    EvalReport,
    anchor=st.datetimes(),
    options=st.builds(EvalOptions, order_insensitive=st.booleans(), query_timeout_s=st.sampled_from([10.0, 0.5, 3])),
    instances=st.lists(instances, max_size=4).map(tuple),
    overall=aggregates,
    by_case_type=st.dictionaries(texts, aggregates, max_size=3),
    by_language=st.dictionaries(texts, aggregates, max_size=3),
    corpus_errors=st.lists(texts, max_size=3).map(tuple),
)

_EMPTY = EvalReport(datetime(2023, 1, 17), EvalOptions(), (), Aggregate(0, None, None, None, None), {}, {}, ())
_EXCLUDED = InstanceResult("q \U0001d518", "db", "time_period", "zh", 'SELECT "a""b"\n\\', None, None, True, "truth query does not parse:\x00é")
_SCORED = InstanceResult(
    -0.0,
    "db",
    "aggregation",
    "en",
    "SELECT 1",
    SemanticScore(0.1 + 0.2, "scored", ScoreBreakdown(3, 0, 1, 0, 0, 4, 1, 1e-7, "normal")),
    ResultScore(-0.0, 1e-7, 0.1 + 0.2),
)


@settings(max_examples=100, deadline=None)
@given(reports)
@example(_EMPTY)
@example(EvalReport(_EMPTY.anchor, _EMPTY.options, (_EXCLUDED, _SCORED), _EMPTY.overall, {"aggregation": _EMPTY.overall}, {"en": _EMPTY.overall}, ("question q: x",)))
def test_json_report_matches_indented_dump(report):
    assert report_to_json(report) == json.dumps(report_to_dict(report), indent=2, ensure_ascii=False) + "\n"


def test_markdown_lists_corpus_errors_last():
    assert "## Corpus errors" not in report_to_markdown(_EMPTY)
    report = EvalReport(_EMPTY.anchor, _EMPTY.options, (_EXCLUDED,), _EMPTY.overall, {}, {}, ("question a: x", "question b: y"))
    assert report_to_markdown(report).endswith("\n\n## Corpus errors\n\n- question a: x\n- question b: y\n")


def test_markdown_keeps_each_row_and_corpus_error_on_one_line(questions, db_dir):
    odd = {0: {"language": "en|zh"}, 1: {"language": "a\\\nb|"}, 2: {"id": "bad\r\nid", "query": "SELECT broken FROM"}, 3: {"id": "x\ry", "query": "SELECT"}}
    corpus = [dataclasses.replace(q, **odd.get(i, {})) for i, q in enumerate(questions)]
    report = evaluate(corpus, [Prediction(q.id, q.query) for q in corpus], db_dir)
    lines = re.split(r"\r\n?|\n", report_to_markdown(report))
    rows = [line for line in lines if line.startswith("|")]
    assert len(rows) == 3 * 2 + 1 + len(report.by_case_type) + len(report.by_language)
    assert all(re.sub(r"\\.", "", row).count("|") == 7 for row in rows), rows  # six cells, escapes aside
    assert any(row.startswith("| en\\|zh | 1 |") for row in rows)
    errors = lines[lines.index("## Corpus errors") + 2 : -1]
    assert len(errors) == len(report.corpus_errors) == 2, errors
    assert errors[0].startswith("- question bad<br>id: ") and errors[1].startswith("- question x<br>y: ")
    # the JSON and CSV reports keep the text exact
    assert [r["language"] for r in json.loads(report_to_json(report))["instances"][:2]] == ["en|zh", "a\\\nb|"]
    assert [r["language"] for r in csv.DictReader(io.StringIO(report_to_csv(report), newline=""))][:2] == ["en|zh", "a\\\nb|"]


# SHA-256 of the JSON report of every fixture truth scored against every truth
# of its own database, in each row-order mode.  A change that only makes
# scoring faster keeps these; one that changes scores updates them and lists
# the scores that changed.
_GOLDEN_REPORT_SHA256 = {
    False: "172722e97f437b28cb6ba933d9cd512fa7fc836ad52d16f03c9eb6abadf3dcc2",
    True: "d351ad81f87946b646ab58a52a65f7d38649387b9da740fe664a14908b8993a4",
}


def test_golden_report_digest(questions, db_dir):
    pairs = [(q, p) for q in questions for p in questions if p.db_id == q.db_id]
    copies = [dataclasses.replace(q, id=f"{q.id}|{p.id}") for q, p in pairs]
    predictions = [Prediction(c.id, p.query) for c, (_, p) in zip(copies, pairs)]
    for order_insensitive, digest in _GOLDEN_REPORT_SHA256.items():
        report = evaluate(copies, predictions, db_dir, options=EvalOptions(order_insensitive=order_insensitive))
        assert hashlib.sha256(report_to_json(report).encode()).hexdigest() == digest, order_insensitive
