import json
import math
import sqlite3
from contextlib import closing

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sqlscore import CASE_TYPES, CorpusLoadError, build_fixture_database, category_counts, load_corpus
from sqlscore.corpus import _REQUIRED_FIELDS, question_from_mapping

from helpers import question_from_mapping_reference

SAMPLE_INSTANCE = {
    "db_id": "benchmark_1",
    "query": "SELECT count(*) FROM pre_ranking_filter_log WHERE task = 342111 AND filter_key = 'o_rta_filter'",
    "question": "rta filtering count for task 342111?",
    "language": "en",
    "case_type": "filtering",
}


def write_corpus(tmp_path, payload):
    path = tmp_path / "questions.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_sample_instance(tmp_path):
    questions = load_corpus(write_corpus(tmp_path, [SAMPLE_INSTANCE]))
    assert len(questions) == 1
    q = questions[0]
    assert q.case_type == "filtering"
    assert q.language == "en"
    assert q.db_id == "benchmark_1"
    assert q.id == 0  # positional when absent


def test_explicit_ids_and_position_mix(tmp_path):
    payload = [dict(SAMPLE_INSTANCE, id="q-7"), dict(SAMPLE_INSTANCE)]
    questions = load_corpus(write_corpus(tmp_path, payload))
    assert [q.id for q in questions] == ["q-7", 1]


def test_empty_array_is_an_empty_corpus(tmp_path):
    assert load_corpus(write_corpus(tmp_path, [])) == []


def test_unknown_extra_fields_preserved_but_ignored(tmp_path):
    payload = [dict(SAMPLE_INSTANCE, difficulty="hard", notes=[1, 2])]
    q = load_corpus(write_corpus(tmp_path, payload))[0]
    assert q.extra == {"difficulty": "hard", "notes": [1, 2]}


@pytest.mark.parametrize("missing", ["db_id", "query", "question", "language", "case_type"])
def test_missing_required_field_names_instance(tmp_path, missing):
    broken = dict(SAMPLE_INSTANCE)
    del broken[missing]
    with pytest.raises(CorpusLoadError, match=r"instance 1"):
        load_corpus(write_corpus(tmp_path, [SAMPLE_INSTANCE, broken]))


@pytest.mark.parametrize(
    "instance, message",
    [(dict(SAMPLE_INSTANCE, query=1), "field 'query' must be a string"), (["SELECT 1"], "expected a JSON object")],
    ids=["field not a string", "not an object"],
)
def test_malformed_instance_names_it(tmp_path, instance, message):
    with pytest.raises(CorpusLoadError, match=f"instance 1: {message}"):
        load_corpus(write_corpus(tmp_path, [SAMPLE_INSTANCE, instance]))


def test_unknown_case_type_rejected(tmp_path):
    with pytest.raises(CorpusLoadError, match="unknown case_type"):
        load_corpus(write_corpus(tmp_path, [dict(SAMPLE_INSTANCE, case_type="trivia")]))


def test_duplicate_ids_rejected(tmp_path):
    payload = [dict(SAMPLE_INSTANCE, id="x"), dict(SAMPLE_INSTANCE, id="x")]
    with pytest.raises(CorpusLoadError, match="duplicate id"):
        load_corpus(write_corpus(tmp_path, payload))


def test_bool_and_int_ids_are_different_ids(tmp_path):
    payload = [dict(SAMPLE_INSTANCE, id=i) for i in (1, True, 0, False)]
    assert json.dumps([q.id for q in load_corpus(write_corpus(tmp_path, payload))]) == "[1, true, 0, false]"
    with pytest.raises(CorpusLoadError, match="instance 1: duplicate id True"):
        load_corpus(write_corpus(tmp_path, [dict(SAMPLE_INSTANCE, id=True)] * 2))


@pytest.mark.parametrize("bad_id", [[1], {"n": 1}], ids=["array", "object"])
def test_non_scalar_id_names_instance(tmp_path, bad_id):
    payload = [SAMPLE_INSTANCE, dict(SAMPLE_INSTANCE, id=bad_id)]
    with pytest.raises(CorpusLoadError, match=r"instance 1: 'id' must be a JSON scalar"):
        load_corpus(write_corpus(tmp_path, payload))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_id_names_instance(tmp_path, literal):
    path = write_corpus(tmp_path, [SAMPLE_INSTANCE, dict(SAMPLE_INSTANCE, id="placeholder")])
    path.write_text(path.read_text(encoding="utf-8").replace('"placeholder"', literal), encoding="utf-8")
    with pytest.raises(CorpusLoadError, match=r"instance 1: 'id' must be a JSON scalar"):
        load_corpus(path)


def test_file_not_utf8(tmp_path):
    path = tmp_path / "questions.json"
    path.write_bytes(json.dumps([SAMPLE_INSTANCE]).encode("utf-8").replace(b"rta", b"rt\xff"))
    with pytest.raises(CorpusLoadError, match="cannot read corpus file .*'utf-8' codec can't decode byte 0xff"):
        load_corpus(path)


def test_malformed_json(tmp_path):
    path = tmp_path / "questions.json"
    path.write_text('[{"db_id": ', encoding="utf-8")
    with pytest.raises(CorpusLoadError, match="not valid JSON"):
        load_corpus(path)


def test_non_array_root_rejected(tmp_path):
    with pytest.raises(CorpusLoadError, match="JSON array"):
        load_corpus(write_corpus(tmp_path, {"questions": []}))


def test_missing_file(tmp_path):
    with pytest.raises(CorpusLoadError, match="cannot read"):
        load_corpus(tmp_path / "absent.json")


_INSTANCE_TEXT = json.dumps(SAMPLE_INSTANCE)


@pytest.mark.parametrize(
    "content, message",
    [
        # past the first 8 KiB, where a reader that decodes in chunks would count from the chunk
        (
            ("[" + "\r\n" * 5000 + _INSTANCE_TEXT + ",\r\n{,}]").encode(),
            "is not valid JSON: Expecting property name enclosed in double quotes: line 5002 column 2 (char 5232)",
        ),
        ('[{"db_id": "a\rb"}]'.encode(), "is not valid JSON: Invalid control character at: line 1 column 14 (char 13)"),
        (("\ufeff[" + _INSTANCE_TEXT + "]").encode(), "is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (
            b"[" + b" " * 10000 + _INSTANCE_TEXT.replace("rta", "rt\xe9").encode("latin-1") + b"]",
            "'utf-8' codec can't decode byte 0xe9 in position 10122: invalid continuation byte",
        ),
    ],
    ids=["CRLF and a syntax error", "raw CR in a string", "UTF-8 BOM", "non-UTF-8 byte"],
)
def test_load_error_messages(tmp_path, content, message):
    """Newlines count as ``read_text`` translates them, and byte positions from the file's start."""
    path = tmp_path / "questions.json"
    path.write_bytes(content)
    with pytest.raises(CorpusLoadError) as info:
        load_corpus(path)
    prefix = f"cannot read corpus file {path}: " if "codec" in message else f"corpus file {path} "
    assert str(info.value) == prefix + message


class _Text(str):
    """A str subclass, which a field check by ``isinstance`` accepts."""


_MISSING = object()
_field_values = st.sampled_from((*CASE_TYPES, "trivia")) | st.sampled_from(CASE_TYPES).map(_Text)
_bad_values = st.none() | st.booleans() | st.integers() | st.floats() | st.text("ab", max_size=3) | st.text("ab", max_size=3).map(_Text) | st.lists(st.none(), max_size=1) | st.just(_MISSING)
# every JSON type, NaN and the infinities included
_ids = st.none() | st.booleans() | st.integers() | st.floats() | st.text("ab", max_size=3) | st.lists(st.integers(), max_size=1) | st.dictionaries(st.text("ab", max_size=1), st.none(), max_size=1)


@st.composite
def _instances(draw) -> dict:
    """An instance, valid but for an unknown case type and up to two fields that
    are missing or not text, with or without an id and extra keys, in any key order."""
    raw = {name: draw(_field_values) for name in _REQUIRED_FIELDS}
    for name in draw(st.lists(st.sampled_from(_REQUIRED_FIELDS), max_size=2, unique=True)):
        raw[name] = draw(_bad_values)
    if draw(st.booleans()):
        raw["id"] = draw(_ids)
    raw.update(draw(st.dictionaries(st.sampled_from(["difficulty", "notes"]), st.integers() | st.text("ab", max_size=2), max_size=2)))
    return dict(draw(st.permutations([(k, v) for k, v in raw.items() if v is not _MISSING])))


@given(_instances())
@example(dict(SAMPLE_INSTANCE, case_type="trivia"))
@example(dict(SAMPLE_INSTANCE, case_type=_Text("trivia"), id=True))
@example(dict(SAMPLE_INSTANCE, question=_Text("q"), notes=[1]))
@example(dict(SAMPLE_INSTANCE, id=math.nan))
@example(dict(SAMPLE_INSTANCE, id=math.inf))
@example(dict(SAMPLE_INSTANCE, id=-math.inf))
@example(dict(SAMPLE_INSTANCE, id={"n": 1}))
def test_question_from_mapping_equals_the_field_by_field_check(raw):
    def outcome(read):
        try:
            q = read(raw, 7)
        except CorpusLoadError as exc:
            return str(exc)
        return q, q.extra, [type(v) for v in (*map(q.__getattribute__, _REQUIRED_FIELDS), q.id)]

    assert outcome(question_from_mapping) == outcome(question_from_mapping_reference)


def test_fixture_database_replaces_an_existing_file(tmp_path):
    path = tmp_path / "benchmark_1.sqlite"
    path.write_text("not a database", encoding="utf-8")
    build_fixture_database("benchmark_1", path)
    with closing(sqlite3.connect(path)) as conn:
        assert conn.execute("SELECT count(*) FROM campaigns").fetchone() == (6,)


def test_fixture_corpus_category_floor(questions):
    counts = category_counts(questions)
    assert set(counts) == set(CASE_TYPES)
    assert all(count >= 3 for count in counts.values())
    assert len(questions) >= 27
    assert {q.language for q in questions} == {"en", "zh"}
