"""Per-layer spans, recorded from outside the program.

``Tracer.install`` wraps each function named in ``SPANS`` wherever a
``sqlscore`` module holds it (``parser.parse`` is also reached as
``runner.parse``, ``results.parse`` and ``semantic.parse``), so every call
site goes through the wrapper.  A span is (name, start, end, parent, op):
``op`` numbers the CLI call the span belongs to, so spans of one request
share it.  Spans stay in memory until ``write``.  A function missing from
the program is skipped and its metrics read 0.

A layer's self time is its spans' durations minus the time their direct
child spans cover.  Metrics are for one pass of the workload: each kind of
CLI call counted as if it ran once.  ``COUNTERS`` only count calls:
``cells_equal`` runs once per compared cell, too often for a span each.
"""

from __future__ import annotations

import functools
import json
import sqlite3
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# span name -> (sqlscore module, function)
SPANS = {
    "parser.parse": ("parser", "parse"),
    "parser.tokenize": ("parser", "tokenize"),
    "anchor.parse_anchor": ("anchor", "parse_anchor"),
    "anchor.rewrite_time_anchor": ("anchor", "rewrite_time_anchor"),
    "render.render": ("render", "render"),
    "render.render_expression": ("render", "render_expression"),
    "results.execute": ("results", "execute"),
    "results.match_columns": ("results", "match_columns"),
    "diff.diff": ("diff", "diff"),
    "semantic.semantic_score_from_asts": ("semantic", "semantic_score_from_asts"),
    "semantic.score_edit_script": ("semantic", "score_edit_script"),
    "runner.evaluate": ("runner", "evaluate"),
    "runner.validate_corpus": ("runner", "validate_corpus"),
    "adapters.get_predictions": ("adapters", "get_predictions"),
    "corpus.load_corpus": ("corpus", "load_corpus"),
    "report.report_to_json": ("report", "report_to_json"),
    "report.report_to_csv": ("report", "report_to_csv"),
    "report.report_to_markdown": ("report", "report_to_markdown"),
    "report.summary_text": ("report", "summary_text"),
    "cli.main": ("cli", "main"),
}

COUNTERS = {
    "results.cells_equal": ("results", "cells_equal"),
}

# span name -> work done by one call, from its arguments and result
_SIZES = {
    "parser.tokenize": lambda args, result: len(result),
    "results.execute": lambda args, result: result.row_count,
    "diff.diff": lambda args, result: args[0].node_count + args[1].node_count,
    "report.report_to_json": lambda args, result: len(result.encode()),
    "report.report_to_csv": lambda args, result: len(result.encode()),
    "report.report_to_markdown": lambda args, result: len(result.encode()),
}

# per-layer metric -> span names whose self time it sums
SELF_TIMES = {
    "parser.self_ms": ("parser.parse", "parser.tokenize"),
    "anchor.self_ms": ("anchor.parse_anchor", "anchor.rewrite_time_anchor"),
    "render.self_ms": ("render.render", "render.render_expression"),
    "results.execute.self_ms": ("results.execute",),
    "results.match.self_ms": ("results.match_columns",),
    "diff.self_ms": ("diff.diff",),
    "semantic.self_ms": ("semantic.semantic_score_from_asts", "semantic.score_edit_script"),
    "runner.evaluate.self_ms": ("runner.evaluate",),
    "runner.validate.self_ms": ("runner.validate_corpus",),
    "adapters.self_ms": ("adapters.get_predictions",),
    "corpus.self_ms": ("corpus.load_corpus",),
    "report.self_ms": ("report.report_to_json", "report.report_to_csv", "report.report_to_markdown", "report.summary_text"),
    "cli.self_ms": ("cli.main",),
}


def _sqlscore_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if m is not None and (name == "sqlscore" or name.startswith("sqlscore."))]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1, op]
        self.sizes: Counter = Counter()  # (span name, op) -> work done
        self.counts: Counter = Counter()  # (counter name, op) -> calls
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, fn):
        spans, stack, sizes, size = self.spans, self._stack, self.sizes, _SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if size is not None:
                try:
                    sizes[name, self.op] += size(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name, self.op] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = _sqlscore_modules()
        by_module = {m.__name__.rpartition(".")[2]: m for m in modules}
        wrappers = {}  # id(original) -> (original, wrapper)
        for table, make in ((SPANS, self._span_wrapper), (COUNTERS, self._count_wrapper)):
            for name, (module_name, function_name) in table.items():
                original = getattr(by_module.get(module_name), function_name, None)
                if callable(original):
                    wrappers[id(original)] = (original, make(name, original))
        connect = sqlite3.connect
        wrappers[id(connect)] = (connect, self._count_wrapper("sqlite.connects", connect))
        for module in modules + [sqlite3]:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def self_times_ns(self, weight: dict[int, float]) -> Counter:
        """Self time per span name in nanoseconds, each span weighted by its op."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _, op), covered in zip(self.spans, child):
            totals[name] += (end - start - covered) * weight.get(op, 0.0)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}) + "\n")


def layer_metrics(tracer: Tracer, op_kinds: dict[int, str], instances: int) -> dict[str, float]:
    """Per-layer metrics for one pass of the workload: each kind of CLI call
    (``run`` per row-order mode, ``validate``) counted as if it ran once.

    ``op_kinds`` maps each traced op to its kind; run kinds start with "run".
    """
    per_kind = Counter(op_kinds.values())
    weight = {op: 1.0 / per_kind[kind] for op, kind in op_kinds.items()}
    run_ops = {op for op, kind in op_kinds.items() if kind.startswith("run")}
    run_instances = len(run_ops) * instances or 1

    def calls(name: str) -> float:
        return sum(weight.get(span[4], 0.0) for span in tracer.spans if span[0] == name)

    def weighted(counter: Counter, names) -> float:
        return sum(n * weight.get(op, 0.0) for (name, op), n in counter.items() if name in names)

    self_ns = tracer.self_times_ns(weight)
    metrics = {name: sum(self_ns[s] for s in spans) / 1e6 for name, spans in SELF_TIMES.items()}
    metrics.update(
        {
            "parser.calls_per_instance": sum(1 for s in tracer.spans if s[0] == "parser.parse" and s[4] in run_ops) / run_instances,
            "parser.tokens": weighted(tracer.sizes, {"parser.tokenize"}),
            "results.execute.calls_per_instance": sum(1 for s in tracer.spans if s[0] == "results.execute" and s[4] in run_ops) / run_instances,
            "results.rows_fetched": weighted(tracer.sizes, {"results.execute"}),
            "sqlite.connects": weighted(tracer.counts, {"sqlite.connects"}),
            "results.match.calls": calls("results.match_columns"),
            "results.cells_equal.calls": weighted(tracer.counts, {"results.cells_equal"}),
            "diff.calls": calls("diff.diff"),
            "diff.nodes": weighted(tracer.sizes, {"diff.diff"}),
            "report.bytes": weighted(tracer.sizes, set(SELF_TIMES["report.self_ms"])),
        }
    )
    return metrics
