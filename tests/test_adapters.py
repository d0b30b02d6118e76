import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from sqlscore import AdapterError, get_predictions, parse_adapter_spec


def test_spec_parsing():
    assert parse_adapter_spec("identity") == ("identity", "")
    assert parse_adapter_spec("file:preds.jsonl") == ("file", "preds.jsonl")
    assert parse_adapter_spec("cmd:python model.py") == ("cmd", "python model.py")
    assert parse_adapter_spec("http://host:1234/predict") == ("http", "http://host:1234/predict")
    assert parse_adapter_spec("http:https://host/predict") == ("http", "https://host/predict")
    for bad in ("carrier-pigeon:coop", "http:host:8000/p"):
        with pytest.raises(ValueError):
            parse_adapter_spec(bad)


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
        path.write_text('{"id": 0, "sql": "SELECT 1"}\nnot json\n', encoding="utf-8")
        with pytest.raises(AdapterError, match="line 2"):
            get_predictions(questions, f"file:{path}")


class TestSubprocessAdapter:
    def test_echo_model_returns_ground_truth(self, questions, tmp_path):
        script = tmp_path / "echo_model.py"
        script.write_text(
            "import json, sys\nprint(json.load(sys.stdin)['query'])\n",
            encoding="utf-8",
        )
        predictions = get_predictions(questions[:5], f"cmd:{sys.executable} {script}")
        assert [p.sql for p in predictions] == [q.query for q in questions[:5]]
        assert all(p.latency_ms is not None and p.latency_ms >= 0 for p in predictions)

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


class _ConstantModel(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        assert set(body) == {"question", "db_id", "schema"}
        payload = json.dumps({"sql": "SELECT 1"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def constant_model_url():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ConstantModel)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/predict"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


class TestHttpAdapter:
    def test_constant_model(self, questions, db_dir, constant_model_url):
        predictions = get_predictions(questions[:4], constant_model_url, db_dir=db_dir)
        assert [p.sql for p in predictions] == ["SELECT 1"] * 4

    def test_unreachable_endpoint_raises_after_retries(self, questions):
        with pytest.raises(AdapterError, match="no predictions"):
            get_predictions(questions[:2], "http://127.0.0.1:1/predict", timeout_s=0.2, backoff_s=0.01)
