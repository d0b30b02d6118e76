"""The sqlscore benchmark.

One caller in a closed loop drives the program only through its CLI entry
point, ``sqlscore.cli.main``: ``run`` with the ``file:`` adapter writing all
three reports, then ``validate``, each call starting after the last one
ends.  Every score is checked against the expectations written with the
inputs (see ``workloads.py``).  Default options throughout.

    python3 bench/run.py --workload bi-mutants --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                 # every workload, each in a fresh process

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``).  Lines before it give
the machine, every metric with its unit, and ``failed_frac``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import random
import re
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracing import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

SETUP_PROBES = 9
MIN_CALL_SECONDS = 1.0
SUBPROCESS_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "run_instances_per_s": "1/s", "validate_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "parser.calls_per_instance": "calls/instance",
    "parser.self_ms": "ms",
    "parser.tokens": "count",
    "anchor.self_ms": "ms",
    "render.self_ms": "ms",
    "results.execute.calls_per_instance": "calls/instance",
    "results.execute.self_ms": "ms",
    "results.rows_fetched": "count",
    "sqlite.connects": "count",
    "results.match.calls": "count",
    "results.match.self_ms": "ms",
    "results.cells_equal.calls": "count",
    "diff.calls": "count",
    "diff.nodes": "count",
    "diff.self_ms": "ms",
    "semantic.self_ms": "ms",
    "runner.evaluate.self_ms": "ms",
    "runner.validate.self_ms": "ms",
    "adapters.self_ms": "ms",
    "corpus.self_ms": "ms",
    "report.self_ms": "ms",
    "report.bytes": "bytes",
    "cli.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def import_cli():
    """The program under test, from this checkout's ``src`` and nowhere else."""
    package = SRC / "sqlscore"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: sqlscore source not found in {package}")
    sys.path.insert(0, str(SRC))
    import sqlscore.cli

    if Path(sqlscore.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported sqlscore from {sqlscore.cli.__file__}, not from {package}")
    return sqlscore.cli


def machine() -> str:
    return f"nproc={os.cpu_count()} python={sys.version.split()[0]} sqlite={sqlite3.sqlite_version}"


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def generate(workload: str, seed: int, work: Path) -> bool:
    """Write the inputs twice; True when both copies are byte-identical."""
    for copy in ("a", "b"):
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "workloads.py"), workload, str(seed), str(work / copy)],
            check=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
    return _tree_digest(work / "a") == _tree_digest(work / "b")


# The host's speed drifts by +-15% over minutes (other tenants share it).
# A fixed pure-Python loop doing the kinds of work the program does (JSON,
# regex tokenizing, dicts, sorting) is timed after each kind of CLI call, and
# time metrics are scaled to a host on which that loop takes the reference
# time.  In a 270 s trial on bi-mutants this cut the spread of instances per
# second across 25 s windows from 0.17 to 0.05.  The program never runs this
# code, so a change to the program moves the scaled metrics as it moves the
# raw ones.
CALIBRATION_REFERENCE_S = 0.15
_CALIBRATION_RNG = random.Random(0)
_CALIBRATION_WORDS = ("SELECT", "a", "b_1", "FROM", "t", "WHERE", "x", "=", "1", "'text'", "(", ")")
_CALIBRATION_PAYLOAD = [
    {"id": i, "sql": " ".join(_CALIBRATION_RNG.choice(_CALIBRATION_WORDS) for _ in range(30))} for i in range(400)
]
_CALIBRATION_TOKEN = re.compile(r"'[^']*'|\w+|\S")


def calibration_seconds() -> float:
    gc.disable()  # the loop makes no cycles; a collection would time the harness's heap
    try:
        start = time.perf_counter()
        for _ in range(24):
            rows = json.loads(json.dumps(_CALIBRATION_PAYLOAD))
            tokens = [tuple(_CALIBRATION_TOKEN.findall(row["sql"])) for row in rows]
            counts: dict[str, int] = {}
            for row in tokens:
                for token in row:
                    counts[token] = counts.get(token, 0) + 1
            sorted(tokens)
        return time.perf_counter() - start
    finally:
        gc.enable()


def setup_probe(corpus: Path, predictions: Path) -> float:
    """Seconds a fresh process takes to import sqlscore and load the inputs."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(corpus), str(predictions)],
        check=True,
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    return float(proc.stdout.split()[-1])


class Workload:
    """Drives one workload's inputs through the CLI and checks every score."""

    def __init__(self, cli, inputs: Path, out: Path):
        self.cli = cli
        self.corpus = inputs / "questions.json"
        self.predictions = inputs / "predictions.jsonl"
        self.db_dir = inputs / "db"
        self.expected = json.loads((inputs / "expected.json").read_text(encoding="utf-8"))
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []  # the first few failures, for the output
        self.tracer: Tracer | None = None
        self.op_kinds: dict[int, str] = {}  # traced op -> kind of CLI call
        self._ops = 0

    @property
    def instances(self) -> int:
        return len(self.expected["instances"])

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        if len(self.messages) < 20:
            self.messages.append(message)

    def _call(self, kind: str, argv: list[str]) -> tuple[int | str, float]:
        """Exit code of one CLI call (or what it raised) and its wall time."""
        self._ops += 1
        if self.tracer is not None:
            self.tracer.op = self._ops
            self.op_kinds[self._ops] = kind
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            code = f"raised {type(exc).__name__}: {exc}"
        return code, time.perf_counter() - start

    def run(self, mode: str) -> float:
        reports = {fmt: self.out / f"report.{fmt}" for fmt in ("json", "csv", "md")}
        for path in reports.values():
            path.unlink(missing_ok=True)
        argv = ["run", "--corpus", str(self.corpus), "--db-dir", str(self.db_dir), "--adapter", f"file:{self.predictions}"]
        argv += ["--report-json", str(reports["json"]), "--report-csv", str(reports["csv"]), "--report-md", str(reports["md"])]
        if mode == workloads.INSENSITIVE:
            argv.append("--order-insensitive")
        code, elapsed = self._call(f"run {mode}", argv)
        self.attempted += 1 + self.instances
        if code != 0:
            self.fail(f"run ({mode}): {code}, expected exit code 0", 1 + self.instances)
            return elapsed
        self._check_reports(reports, mode)
        return elapsed

    def validate(self) -> float:
        code, elapsed = self._call("validate", ["validate", "--corpus", str(self.corpus), "--db-dir", str(self.db_dir)])
        self.attempted += 1
        if code != self.expected["validate_exit"]:
            self.fail(f"validate: {code}, expected exit code {self.expected['validate_exit']}")
        return elapsed

    def _check_reports(self, reports: dict[str, Path], mode: str) -> None:
        try:
            report = json.loads(reports["json"].read_text(encoding="utf-8"))
            csv_rows = list(csv.DictReader(io.StringIO(reports["csv"].read_text(encoding="utf-8"))))
            markdown = reports["md"].read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:
            self.fail(f"run ({mode}): unreadable report: {exc}", 1 + self.instances)
            return
        if len(csv_rows) != self.instances or not markdown.strip():
            self.fail(f"run ({mode}): {len(csv_rows)} CSV rows for {self.instances} instances, or empty Markdown")
        by_id = {str(r.get("id")): r for r in report.get("instances", [])}
        for qid, expectation in self.expected["instances"].items():
            problem = check_instance(by_id.get(qid), expectation, mode)
            if problem:
                self.fail(f"{qid} [{expectation['family']}, {mode}]: {problem}")

    def iteration(self, window: "Window") -> None:
        """One pass: ``run`` in each row-order mode, then ``validate``.

        Each kind of call repeats until it has run for ``MIN_CALL_SECONDS``,
        so short calls get as many samples as long ones, and is then
        followed by a calibration sample.
        """
        for mode in self.expected["modes"]:
            calls, seconds = _repeat(lambda: self.run(mode))
            window.run_calls[mode] = window.run_calls.get(mode, 0) + calls
            window.run_s[mode] = window.run_s.get(mode, 0.0) + seconds
            window.calibration_s.append(calibration_seconds())
        calls, seconds = _repeat(self.validate)
        window.validate_calls += calls
        window.validate_s += seconds
        window.calibration_s.append(calibration_seconds())
        window.iterations += 1


def _repeat(call) -> tuple[int, float]:
    """Calls ``call`` until its timings add up to MIN_CALL_SECONDS."""
    calls, seconds = 0, 0.0
    while seconds < MIN_CALL_SECONDS:
        seconds += call()
        calls += 1
    return calls, seconds


@dataclass
class Window:
    """Calls made and time spent over the measured iterations."""

    iterations: int = 0
    run_calls: dict[str, int] = field(default_factory=dict)  # per row-order mode
    run_s: dict[str, float] = field(default_factory=dict)
    validate_calls: int = 0
    validate_s: float = 0.0
    calibration_s: list[float] = field(default_factory=list)

    @property
    def host_slowness(self) -> float:
        """Mean calibration time over its reference: 1.1 means this host ran
        10% slower than the reference host during the window."""
        return statistics.mean(self.calibration_s) / CALIBRATION_REFERENCE_S

    def instances_per_s(self, instances: int) -> float:
        """Instances scored per second of ``run``.  With two row-order modes,
        the geometric mean of both, so each mode weighs the same."""
        rates = [self.run_calls[mode] * instances / seconds for mode, seconds in self.run_s.items()]
        return math.prod(rates) ** (1 / len(rates))

    def seconds_per_iteration(self) -> float:
        """CLI time per iteration, as if each call ran once."""
        per_call = [seconds / self.run_calls[mode] for mode, seconds in self.run_s.items()]
        return sum(per_call) + self.validate_s / self.validate_calls


def check_instance(instance: dict | None, expectation: dict, mode: str) -> str | None:
    """What is wrong with one scored instance, or None."""
    if instance is None:
        return "missing from the report"
    if instance.get("excluded"):
        return f"excluded: {instance.get('warning')}"
    semantic = instance.get("semantic")
    if instance.get("semantic_verdict") != expectation["semantic_verdict"]:
        return f"semantic verdict {instance.get('semantic_verdict')}, expected {expectation['semantic_verdict']}"
    if not isinstance(semantic, (int, float)):
        return f"semantic score {semantic!r}"
    if expectation["semantic"] == workloads.SEM_PARTIAL:
        if not 0.0 < semantic < 1.0:
            return f"semantic {semantic}, expected strictly between 0 and 1"
    elif semantic != expectation["semantic"]:
        return f"semantic {semantic}, expected {expectation['semantic']}"
    result = expectation["results"][mode]
    if instance.get("result_verdict") != result["verdict"]:
        return f"result verdict {instance.get('result_verdict')}, expected {result['verdict']}"
    p, r = result["precision"], result["recall"]
    f1 = 0.0 if p == 0.0 or r == 0.0 else 2 * p * r / (p + r)
    for name, want in (("precision", p), ("recall", r), ("f1", f1)):
        got = instance.get(name)
        if not isinstance(got, (int, float)) or not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
            return f"{name} {got}, expected {want}"
    return None


def measure(workload: Workload, seconds: float, between=None) -> Window:
    """Iterate for ``seconds``, at least once, calling ``between`` after each
    iteration outside the timed calls.

    Totals, not medians, summarise the window: the host's speed drifts in
    phases of several seconds, and a mean over the window varies less from
    run to run than a median that jumps between fast and slow phases.
    """
    window = Window()
    deadline = time.perf_counter() + seconds
    while True:
        workload.iteration(window)
        if between is not None:
            between()
        if time.perf_counter() >= deadline:
            return window


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    cli = import_cli()
    work = BENCH_DIR / "_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        deterministic = generate(name, seed, work)
        inputs = work / "a"
        workload = Workload(cli, inputs, work)
        workload.attempted += 1
        if not deterministic:
            workload.fail("the same seed generated different inputs")
        for mode in workload.expected["modes"]:  # warm-up: lazy imports, page cache, first calls
            workload.run(mode)
        workload.validate()

        if traced:
            plain = measure(workload, seconds / 2)
            tracer = Tracer()
            workload.tracer = tracer
            tracer.install()
            try:
                window = measure(workload, seconds / 2)
            finally:
                tracer.uninstall()
                workload.tracer = None
            values = layer_metrics(tracer, workload.op_kinds, workload.instances)
            traced_s = window.seconds_per_iteration() / window.host_slowness
            values["trace.overhead_frac"] = traced_s / (plain.seconds_per_iteration() / plain.host_slowness) - 1.0
            units = PER_LAYER_UNITS
            tracer.write(BENCH_DIR / "_out" / f"spans-{name}.jsonl")
        else:
            # one set-up probe after each iteration, so the probes sample the
            # whole window rather than one moment of it
            probes: list[float] = []
            probe = lambda: probes.append(setup_probe(workload.corpus, workload.predictions))  # noqa: E731
            window = measure(workload, seconds, probe)
            while len(probes) < SETUP_PROBES:
                probe()
            raw = {
                "setup_s": statistics.median(probes),
                "run_instances_per_s": window.instances_per_s(workload.instances),
                "validate_s": window.validate_s / window.validate_calls,
            }
            slowness = window.host_slowness
            print(f"host slowness: {slowness:.4f} from {len(window.calibration_s)} samples (raw: " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()) + ")")
            values = {
                "setup_s": raw["setup_s"] / slowness,
                "run_instances_per_s": raw["run_instances_per_s"] * slowness,
                "validate_s": raw["validate_s"] / slowness,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = min(workload.failed, workload.attempted)
    print(f"workload: {name} seed={seed} iterations={window.iterations} instances={workload.instances} modes={','.join(workload.expected['modes'])}")
    print(f"machine: {machine()}")
    for message in workload.messages:
        print(f"failure: {message}")
    for metric, unit in units.items():
        print(f"{metric}: {values.get(metric, 0.0):.6g} {unit}")
    print(f"failed_frac: {failed / max(workload.attempted, 1):.6g} ({failed} of {workload.attempted} operations)")
    return {
        "correct": failed == 0,
        "attempted": max(workload.attempted, 1),
        "failed": failed,
        "metrics": {metric: {"value": values.get(metric, 0.0), "unit": unit} for metric, unit in units.items()},
    }


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in its own fresh process; prints one table."""
    print(f"machine: {machine()}")
    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    width = max(map(len, units)) + 2
    print(f"{'metric':<{width}}" + "".join(f"{name:>16}" for name in results) + "  unit")
    for metric, unit in units.items():
        print(f"{metric:<{width}}" + "".join(f"{r['metrics'][metric]['value']:>16.6g}" for r in results.values()) + f"  {unit}")
    print(f"{'failed_frac':<{width}}" + "".join(f"{r['failed'] / r['attempted']:>16.6g}" for r in results.values()))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, help="one workload in this process (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
