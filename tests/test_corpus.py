import json
import sqlite3
from contextlib import closing

import pytest

from sqlscore import CASE_TYPES, CorpusLoadError, build_fixture_database, category_counts, load_corpus

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
