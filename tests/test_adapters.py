import dataclasses
import json
import re
import sys
import time

import pytest

from sqlscore import AdapterError, adapters, evaluate, get_predictions, parse_adapter_spec, report_to_dict
from sqlscore.results import VERDICT_INVALID, VERDICT_SCORED

from helpers import ConstantModel, lookup_model, serve_model


def test_spec_parsing():
    assert parse_adapter_spec("identity") == ("identity", "")
    assert parse_adapter_spec("file:preds.jsonl") == ("file", "preds.jsonl")
    assert parse_adapter_spec("cmd:python model.py") == ("cmd", "python model.py")
    assert parse_adapter_spec("http://host:1234/predict") == ("http", "http://host:1234/predict")
    for bad in ("carrier-pigeon:coop", "http:host:8000/p", "http:https://host/predict"):
        with pytest.raises(ValueError):
            parse_adapter_spec(bad)


@pytest.mark.parametrize(
    "spec, message",
    [
        ("foo", "unknown adapter spec 'foo'; expected identity, file:..., cmd:... or http(s)://..."),
        ('cmd:python "x', "No closing quotation"),
        ("cmd: ", "adapter 'cmd: ' names no command"),
    ],
    ids=["unknown", "unsplittable", "empty command"],
)
def test_unusable_spec_raises_adapter_error(questions, spec, message):
    with pytest.raises(AdapterError) as exc_info:
        get_predictions(questions, spec)
    assert str(exc_info.value) == message


@pytest.mark.parametrize("timeout_s", [float("nan"), float("inf"), 0, -1, True])
def test_bad_timeout_raises_adapter_error(questions, timeout_s):
    with pytest.raises(AdapterError) as exc_info:
        get_predictions(questions[:2], f"cmd:{sys.executable} -c \"print('SELECT 1')\"", timeout_s=timeout_s)
    assert str(exc_info.value) == f"timeout_s must be a finite number of seconds above 0, got {timeout_s!r}"


def test_identity_adapter(questions):
    predictions = get_predictions(questions, "identity")
    assert len(predictions) == len(questions)
    assert all(p.sql == q.query and p.question_id == q.id for p, q in zip(predictions, questions))


class TestFileAdapter:
    def test_passthrough_by_id(self, questions, tmp_path):
        path = tmp_path / "preds.jsonl"
        lines = [json.dumps({"id": q.id, "sql": f"SELECT {i}", "latency_ms": 12}) for i, q in enumerate(questions)]
        path.write_text("\n".join(lines), encoding="utf-8")
        predictions = get_predictions(questions, f"file:{path}")
        assert [p.sql for p in predictions] == [f"SELECT {i}" for i in range(len(questions))]
        assert all(p.latency_ms == 12 for p in predictions)

    def test_missing_entry_becomes_empty_sql(self, questions, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(json.dumps({"id": questions[0].id, "sql": "SELECT 1"}) + "\n", encoding="utf-8")
        predictions = get_predictions(questions, f"file:{path}")
        assert predictions[0].sql == "SELECT 1"
        assert all(p.sql == "" for p in predictions[1:])

    def test_bad_line_raises(self, questions, tmp_path):
        path = tmp_path / "preds.jsonl"
        for bad_line in ("not json", '{"id": [1], "sql": "SELECT 1"}', '{"id": {"n": 1}, "sql": "SELECT 1"}', '{"id": 1}'):
            # a blank line is skipped, but counted
            path.write_text('{"id": 0, "sql": "SELECT 1"}\n  \n' + bad_line + "\n", encoding="utf-8")
            with pytest.raises(AdapterError, match=re.escape(f"{path}, line 3")):
                get_predictions(questions, f"file:{path}")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_id_raises(self, questions, tmp_path, literal):
        path = tmp_path / "preds.jsonl"
        path.write_text(f'{{"id": 0, "sql": "SELECT 1"}}\n{{"id": {literal}, "sql": "SELECT 1"}}\n', encoding="utf-8")
        with pytest.raises(AdapterError, match=re.escape(f"{path}, line 2: 'id' must be a JSON scalar")):
            get_predictions(questions, f"file:{path}")

    def test_bool_id_is_not_the_int_id(self, questions, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id": true, "sql": "SELECT 42"}\n{"id": 1, "sql": "SELECT 1"}\n', encoding="utf-8")
        corpus = [dataclasses.replace(questions[0], id=True), questions[1], questions[2]]
        assert [p.sql for p in get_predictions(corpus, f"file:{path}")] == ["SELECT 42", "SELECT 1", ""]

    def test_ids_match_exactly_as_json_values(self, questions, tmp_path):
        path = tmp_path / "preds.jsonl"
        records = [{"id": "1", "sql": "SELECT 1"}, {"id": 2, "sql": "SELECT 2"}, {"id": "true", "sql": "SELECT 3"}, {"id": "x", "sql": "SELECT 4"}]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        corpus = [dataclasses.replace(q, id=i) for q, i in zip(questions, [1, "2", True, "x"])]
        assert [p.sql for p in get_predictions(corpus, f"file:{path}")] == ["", "", "", "SELECT 4"]

    def test_file_that_matches_no_question_raises(self, questions, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text("".join(json.dumps({"id": str(q.id), "sql": q.query}) + "\n" for q in questions), encoding="utf-8")
        with pytest.raises(AdapterError, match=f"produced no predictions for any of the {len(questions)} questions"):
            get_predictions(questions, f"file:{path}")

    def test_sql_that_is_not_a_string_becomes_empty_sql(self, questions, db_dir, tmp_path):
        path = tmp_path / "preds.jsonl"
        records = [{"id": 0, "sql": "SELECT 1"}, {"id": 1, "sql": None}, {"id": 2, "sql": ["SELECT 1"]}, {"id": 3, "sql": 5}]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        predictions = get_predictions(questions[:4], f"file:{path}")
        assert [p.sql for p in predictions] == ["SELECT 1", "", "", ""]
        instances = report_to_dict(evaluate(questions[:4], predictions, db_dir))["instances"]
        assert [r["predicted_sql"] for r in instances] == ["SELECT 1", "", "", ""]
        assert [r["result_verdict"] for r in instances[1:]] == [VERDICT_INVALID] * 3

    def test_latency_that_is_not_an_integer_becomes_none(self, questions, tmp_path):
        path = tmp_path / "preds.jsonl"
        latencies = [7, True, False, 2.5, "9"]
        path.write_text("".join(json.dumps({"id": i, "sql": "SELECT 1", "latency_ms": ms}) + "\n" for i, ms in enumerate(latencies)), encoding="utf-8")
        predictions = get_predictions(questions[:5], f"file:{path}")
        assert [p.latency_ms for p in predictions] == [7, None, None, None, None]

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"])
    def test_line_separator_inside_a_string(self, questions, tmp_path, separator):
        # JSON allows these raw in a string, and json.dumps(ensure_ascii=False) writes them so; only \n ends a line
        path = tmp_path / "preds.jsonl"
        sql = f"SELECT 1 /*{separator}*/"
        text = json.dumps({"id": 0, "sql": sql}, ensure_ascii=False) + "\r\n" + json.dumps({"id": 1, "sql": "SELECT 2"}) + "\r\n"
        path.write_text(text, encoding="utf-8")
        assert [p.sql for p in get_predictions(questions[:3], f"file:{path}")] == [sql, "SELECT 2", ""]
        path.write_text(text + "not json\r\n", encoding="utf-8")
        with pytest.raises(AdapterError, match=re.escape(f"{path}, line 3: invalid JSON: Expecting value: line 1 column 1 (char 0)")):
            get_predictions(questions, f"file:{path}")

    @pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
    def test_unreadable_file_raises(self, questions, tmp_path, kind):
        path = tmp_path / "preds.jsonl"
        if kind == "directory":
            path.mkdir()
        elif kind == "not utf-8":
            path.write_bytes(b'{"id": 0, "sql": "SELECT \xff"}\n')
        with pytest.raises(AdapterError, match=re.escape(f"predictions file {path}: ")):
            get_predictions(questions, f"file:{path}")


class TestSubprocessAdapter:
    def test_echo_model_returns_ground_truth(self, questions, tmp_path):
        predictions = get_predictions(questions[:5], lookup_model(tmp_path, questions[:5]))
        assert [p.sql for p in predictions] == [q.query for q in questions[:5]]
        assert all(p.latency_ms is not None and p.latency_ms >= 0 for p in predictions)

    def test_payload_holds_the_question_but_not_its_sql(self, questions, tmp_path):
        # the gold SQL must not reach the model, as with the http adapter
        seen = tmp_path / "seen.jsonl"
        script = tmp_path / "recording_model.py"
        script.write_text(
            "import json, sys\n"
            f"with open({str(seen)!r}, 'a', encoding='utf-8') as f:\n"
            "    f.write(sys.stdin.read() + '\\n')\n"
            "print('SELECT 1')\n",
            encoding="utf-8",
        )
        get_predictions(questions[:3], f"cmd:{sys.executable} {script}")
        payloads = [json.loads(line) for line in seen.read_text(encoding="utf-8").rstrip("\n").split("\n")]
        assert [sorted(p) for p in payloads] == [["case_type", "db_id", "id", "language", "question"]] * 3
        assert [p["question"] for p in payloads] == [q.question for q in questions[:3]]

    def test_failing_command_yields_empty_predictions_then_error(self, questions, tmp_path):
        script = tmp_path / "broken_model.py"
        script.write_text("import sys; sys.exit(3)\n", encoding="utf-8")
        with pytest.raises(AdapterError, match="no predictions"):
            get_predictions(questions[:3], f"cmd:{sys.executable} {script}")

    def test_partial_failure_is_tolerated(self, questions, tmp_path):
        script = tmp_path / "flaky_model.py"
        script.write_text(
            "import json, sys\n"
            "q = json.load(sys.stdin)\n"
            "if q['id'] % 2:\n"
            "    sys.exit(1)\n"
            "print('SELECT 1')\n",
            encoding="utf-8",
        )
        predictions = get_predictions(questions[:4], f"cmd:{sys.executable} {script}")
        assert [p.sql for p in predictions] == ["SELECT 1", "", "SELECT 1", ""]

    def test_output_not_utf8_is_tolerated(self, questions, db_dir, tmp_path):
        script = tmp_path / "garbling_model.py"
        script.write_text(
            "import json, sys\n"
            "q = json.load(sys.stdin)\n"
            f"sys.stdout.buffer.write(b'\\xff\\xfe' if q['id'] == {questions[1].id!r} else b'SELECT 1')\n",
            encoding="utf-8",
        )
        predictions = get_predictions(questions[:3], f"cmd:{sys.executable} {script}")
        assert [p.sql for p in predictions] == ["SELECT 1", "", "SELECT 1"]
        verdicts = [r.result.verdict for r in evaluate(questions[:3], predictions, db_dir).instances]
        assert verdicts == [VERDICT_SCORED, VERDICT_INVALID, VERDICT_SCORED]


# (status, body, declared Content-Length or None for the body's own length)
_BAD_REPLIES = {
    "body shorter than its Content-Length": (200, b'{"sql": "SELECT 1"}', 64),
    "status 500": (500, b'{"sql": "SELECT 1"}', None),
    "body not JSON": (200, b"SELECT 1", None),
    "sql not a string": (200, b'{"sql": 5}', None),
}


@pytest.fixture(params=list(_BAD_REPLIES))
def bad_reply_model(request, questions):
    """URL of a model that answers SELECT 1, except to questions[1], which gets the bad reply."""
    status, body, length = _BAD_REPLIES[request.param]

    class Model(ConstantModel):
        def do_POST(self):
            question = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["question"]
            if question != questions[1].question:
                return self.send_reply(200, b'{"sql": "SELECT 1"}', None)
            self.send_reply(status, body, length)

        def send_reply(self, status, body, length):
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(length or len(body)))
            self.end_headers()
            self.wfile.write(body)

    yield from serve_model(Model)


class TestHttpAdapter:
    def test_constant_model(self, questions, db_dir, constant_model_url):
        predictions = get_predictions(questions[:4], constant_model_url, db_dir=db_dir)
        assert [p.sql for p in predictions] == ["SELECT 1"] * 4

    def test_bad_reply_degrades_that_question_only(self, questions, db_dir, bad_reply_model, monkeypatch):
        monkeypatch.setattr(adapters, "HTTP_BACKOFF_S", 0.01)
        predictions = get_predictions(questions[:4], bad_reply_model, db_dir=db_dir, timeout_s=5)
        assert [p.sql for p in predictions] == ["SELECT 1", "", "SELECT 1", "SELECT 1"]

    def test_unreachable_endpoint_raises_after_retries(self, questions, monkeypatch):
        monkeypatch.setattr(adapters, "HTTP_BACKOFF_S", 0.01)
        with pytest.raises(AdapterError, match="no predictions"):
            get_predictions(questions[:2], "http://127.0.0.1:1/predict", timeout_s=0.2)

    def test_reply_nested_too_deep_is_a_bad_reply(self, questions, db_dir, monkeypatch):
        monkeypatch.setattr(adapters, "HTTP_BACKOFF_S", 0.01)
        asked = []

        class Model(ConstantModel):
            def do_POST(self):
                asked.append(json.loads(self.rfile.read(int(self.headers["Content-Length"])))["question"])
                body = b"[" * 100_000 if asked[-1] == questions[1].question else b'{"sql": "SELECT 1"}'
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        server = serve_model(Model)
        try:
            predictions = get_predictions(questions[:3], next(server), db_dir=db_dir, timeout_s=5)
        finally:
            next(server, None)
        assert [p.sql for p in predictions] == ["SELECT 1", "", "SELECT 1"]
        assert asked.count(questions[1].question) == adapters.HTTP_RETRIES

    def test_reply_body_that_trickles_past_the_timeout_is_a_timeout(self, questions, monkeypatch):
        monkeypatch.setattr(adapters, "HTTP_BACKOFF_S", 0.01)
        body = b'{"sql": "SELECT 1"}'.ljust(100)  # valid JSON, one byte per 0.05 s: 5 s in all

        class Model(ConstantModel):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                try:
                    for i in range(len(body)):
                        self.wfile.write(body[i : i + 1])
                        time.sleep(0.05)
                except OSError:  # the client gave up
                    pass

        server = serve_model(Model)
        try:
            started = time.monotonic()
            sql = adapters._post_http(next(server), {"question": questions[0].question, "db_id": "x", "schema": ""}, 0.3)
            elapsed = time.monotonic() - started
        finally:
            next(server, None)
        assert (sql, elapsed < 2.5) == ("", True), elapsed
