"""Pluggable prediction sources.

Any NL2SQL model can be hooked up through one of four adapters:

- ``file:<path>``    pre-computed predictions, JSON-lines of {"id", "sql"}
- ``cmd:<command>``  a subprocess run once per question; the question object,
                     without its SQL, arrives as JSON on stdin, raw SQL on stdout
- ``http(s)://url``  POST {"question", "db_id", "schema"}, {"sql"} back
- ``identity``       echoes the ground-truth query (smoke-test baseline)

Adapter failures (timeout, non-zero exit, bad response) degrade to an
empty-SQL prediction that scores as invalid, never an aborted run; only an
unusable configuration (an unknown spec, a command that cannot be split, a
predictions file that cannot be read, a bad timeout) or an adapter that
produced nothing at all raises AdapterError.
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .corpus import BenchmarkQuestion, database_path, id_key, is_json_scalar
from .results import ExecutionError, _open_readonly, valid_timeout

DEFAULT_ADAPTER_TIMEOUT_S = 60.0
HTTP_RETRIES = 3
HTTP_BACKOFF_S = 0.5  # the wait before the first retry; it doubles before each later one


class AdapterError(Exception):
    """The adapter yielded no usable prediction for any question."""


@dataclass(frozen=True)
class Prediction:
    question_id: Any
    sql: str
    latency_ms: int | None = None


def parse_adapter_spec(spec: str) -> tuple[str, str]:
    kind, colon, value = spec.partition(":")
    if spec == "identity" or colon and kind in ("file", "cmd"):
        return kind, value
    if spec.startswith(("http://", "https://")):
        return "http", spec
    raise ValueError(f"unknown adapter spec {spec!r}; expected identity, file:..., cmd:... or http(s)://...")


def _question_payload(question: BenchmarkQuestion) -> dict:
    return {
        "id": question.id,
        "db_id": question.db_id,
        "question": question.question,
        "language": question.language,
        "case_type": question.case_type,
        **question.extra,
    }


def _schema_text(db_path: Path) -> str:
    """The CREATE TABLE statements of a database; "" for a file that is missing or that SQLite cannot read."""
    try:
        with closing(_open_readonly(db_path)) as conn:
            rows = conn.execute("SELECT sql FROM sqlite_master WHERE type = 'table' AND sql IS NOT NULL ORDER BY name").fetchall()
    except (ExecutionError, sqlite3.Error):
        return ""
    return ";\n".join(r[0] for r in rows)


def _load_predictions_file(path: str) -> dict[tuple[bool, Any], tuple[str, int | None]]:
    by_id: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise AdapterError(f"predictions file {path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise AdapterError(f"predictions file {path}: not UTF-8: {exc}") from exc
    for line_no, line in enumerate(text.split("\n"), start=1):  # read_text made every line end \n; a JSON string may hold U+2028 raw
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # not JSON, an int of too many digits, or nesting too deep
            raise AdapterError(f"predictions file {path}, line {line_no}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict) or "id" not in record or "sql" not in record:
            raise AdapterError(f"predictions file {path}, line {line_no}: expected an object with 'id' and 'sql'")
        if not is_json_scalar(record["id"]):
            raise AdapterError(f"predictions file {path}, line {line_no}: 'id' must be a JSON scalar, not {record['id']!r}")
        sql, latency = record["sql"], record.get("latency_ms")
        by_id[id_key(record["id"])] = (sql if isinstance(sql, str) else "", latency if type(latency) is int else None)
    return by_id


# subprocess and the HTTP stack (ssl, socket, email, ...) load in the adapter that runs them, not at `import sqlscore`
def _run_subprocess(argv: list[str], payload: dict, timeout_s: float) -> str:
    import subprocess

    try:
        proc = subprocess.run(
            argv,
            input=json.dumps(payload, ensure_ascii=False),
            capture_output=True,
            encoding="utf-8",
            timeout=timeout_s,
        )
    except (subprocess.TimeoutExpired, OSError, UnicodeError):
        # UnicodeError: stdout that is not UTF-8 is no SQL text
        return ""
    if proc.returncode != 0:
        return ""
    return proc.stdout.strip()


def _post_http(url: str, payload: dict, timeout_s: float) -> str:
    """Returns SQL text, or "" when the endpoint stayed unreachable or its
    reply held no SQL string."""
    import http.client
    import urllib.request

    data = json.dumps(payload).encode("utf-8")
    for attempt in range(HTTP_RETRIES):
        deadline = time.monotonic() + timeout_s  # urlopen's timeout bounds each read, this one the whole body
        try:
            request = urllib.request.Request(url, data=data, headers={"Content-Type": "application/json"}, method="POST")
            with urllib.request.urlopen(request, timeout=timeout_s) as response:
                body = bytearray()
                while chunk := response.read1(65536):
                    body += chunk
                    if time.monotonic() > deadline:
                        raise TimeoutError(f"reply still arriving after {timeout_s} s")
                if getattr(response, "length", None):  # the connection closed short of the declared Content-Length
                    raise http.client.IncompleteRead(bytes(body), response.length)
            body = json.loads(body)
            sql = body.get("sql") if isinstance(body, dict) else None
            return sql if isinstance(sql, str) else ""
        except (OSError, ValueError, RecursionError, http.client.HTTPException):
            # OSError covers URLError, HTTPError (non-2xx status), timeouts and resets; ValueError malformed URLs
            # and bodies that are not JSON or hold an int of too many digits; RecursionError bodies nested too deep
            if attempt + 1 < HTTP_RETRIES:
                time.sleep(HTTP_BACKOFF_S * (2**attempt))
    return ""


def get_predictions(
    questions: list[BenchmarkQuestion],
    adapter: str = "identity",
    *,
    db_dir: str | Path | None = None,
    timeout_s: float = DEFAULT_ADAPTER_TIMEOUT_S,
) -> list[Prediction]:
    """One Prediction per question, in question order; a file's entry goes to
    the question whose id equals its own as a JSON value.

    Raises AdapterError only when the adapter configuration is unusable (an
    unknown spec, a ``cmd:`` command that is empty or cannot be split, a
    predictions file that cannot be read, a bad ``timeout_s``) or when not a
    single prediction could be obtained.
    """
    if not valid_timeout(timeout_s):
        raise AdapterError(f"timeout_s must be a finite number of seconds above 0, got {timeout_s!r}")
    try:
        kind, value = parse_adapter_spec(adapter)
        if kind == "cmd":
            import shlex

            argv = shlex.split(value)  # once per run, not once per question
    except ValueError as exc:
        raise AdapterError(str(exc)) from exc
    if kind == "cmd" and not argv:
        raise AdapterError(f"adapter {adapter!r} names no command")
    if kind == "identity":
        return [Prediction(q.id, q.query) for q in questions]

    if kind == "file":
        by_id = _load_predictions_file(value)
        predictions = [Prediction(q.id, *by_id.get(id_key(q.id), ("", None))) for q in questions]
    else:
        predictions = []
        schemas: dict[str, str] = {}
        for q in questions:
            started = time.monotonic()
            if kind == "cmd":
                sql = _run_subprocess(argv, _question_payload(q), timeout_s)
            else:
                if q.db_id not in schemas:
                    schemas[q.db_id] = _schema_text(database_path(db_dir, q.db_id)) if db_dir else ""
                sql = _post_http(value, {"question": q.question, "db_id": q.db_id, "schema": schemas[q.db_id]}, timeout_s)
            elapsed_ms = int((time.monotonic() - started) * 1000)
            predictions.append(Prediction(q.id, sql, elapsed_ms))
    if questions and not any(p.sql for p in predictions):
        raise AdapterError(f"adapter {adapter!r} produced no predictions for any of the {len(questions)} questions")
    return predictions
