"""Command-line interface; README's "Command-line options" lists each option.

Exit codes: 0 success, 1 validation warnings, 2 configuration or input
errors, 3 corpus errors during a run, 141 stdout closed early by its reader.
The BIS_ANCHOR environment variable, when set and not empty, replaces the
default clock anchor of score, run and validate when --anchor is not given.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from datetime import datetime
from pathlib import Path

from .adapters import DEFAULT_ADAPTER_TIMEOUT_S, AdapterError, get_predictions
from .anchor import DEFAULT_ANCHOR, parse_anchor
from .corpus import CorpusLoadError, load_corpus
from .fixtures import write_fixtures
from .parser import parse
from .render import render
from .report import report_to_markdown, summary_text, write_csv, write_json
from .results import DEFAULT_TIMEOUT_S, valid_timeout
from .runner import ConfigError, EvalOptions, check_inputs, evaluate, score_pair, validate_corpus
from .semantic import CorpusError, semantic_similarity
from .sqlast import ParseError

EXIT_OK = 0
EXIT_WARNINGS = 1
EXIT_CONFIG = 2
EXIT_CORPUS_ERRORS = 3
EXIT_BROKEN_PIPE = 141  # as a shell reports a process that SIGPIPE ended


def _anchor(text: str) -> datetime:
    """argparse type of a clock anchor: an ISO-8601 instant."""
    try:
        return parse_anchor(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid anchor: {exc}") from exc


def _seconds(text: str) -> float:
    """argparse type of a timeout: a finite number of seconds above 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not valid_timeout(value):
        raise argparse.ArgumentTypeError(f"expected a finite number of seconds above 0, got {text!r}")
    return value


def _options(args: argparse.Namespace) -> EvalOptions:
    return EvalOptions(order_insensitive=args.order_insensitive, query_timeout_s=args.timeout_s)


def cmd_score(args: argparse.Namespace) -> int:
    if args.db is None:
        semantic, result = semantic_similarity(args.truth, args.predicted), None
    else:
        semantic, result = score_pair(args.truth, args.predicted, args.db, args.anchor, _options(args))
    print(f"semantic: {semantic.value:.3f}")
    if result is not None:
        print(f"precision: {result.precision:.3f}")
        print(f"recall: {result.recall:.3f}")
        print(f"f1: {result.f1:.3f}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    questions = load_corpus(args.corpus)
    check_inputs(questions, args.db_dir)  # before any model call
    reports = ((args.report_json, write_json), (args.report_csv, write_csv), (args.report_md, lambda report, stream: stream.write(report_to_markdown(report))))  # the ~1 KB summary is built whole
    for path, _ in reports:
        if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            raise ConfigError(f"cannot write report {path}: " + ("it is a directory" if Path(path).is_dir() else f"no directory {Path(path).parent}"))
    predictions = get_predictions(questions, args.adapter, db_dir=args.db_dir, timeout_s=args.adapter_timeout_s)
    report = evaluate(questions, predictions, args.db_dir, args.anchor, _options(args))

    for path, write in reports:
        if path:
            try:  # each report streamed into its file; a lone surrogate in the JSON report as its escape
                with open(path, "w", encoding="utf-8", errors="backslashreplace") as stream:
                    write(report, stream)
            except OSError as exc:
                raise ConfigError(f"cannot write report {path}: {exc.strerror or exc}") from exc

    print(summary_text(report))
    if report.corpus_errors:
        print()
        for message in report.corpus_errors:
            print(f"corpus error: {message}")
        return EXIT_CORPUS_ERRORS
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if not Path(args.db_dir).is_dir():
        raise ConfigError(f"database directory not found: {args.db_dir}")
    questions = load_corpus(args.corpus)
    warnings = validate_corpus(questions, args.db_dir, args.anchor)
    if not warnings:
        print(f"corpus ok: {len(questions)} questions, no warnings")
        return EXIT_OK
    for message in warnings:
        print(f"warning: {message}")
    return EXIT_WARNINGS


def cmd_fixtures(args: argparse.Namespace) -> int:
    try:
        corpus_path, db_dir = write_fixtures(args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write fixtures to {args.out}: {exc}") from exc
    print(f"wrote corpus: {corpus_path}")
    print(f"wrote databases: {db_dir}")
    return EXIT_OK


def cmd_normalize(args: argparse.Namespace) -> int:
    print(render(parse(args.sql)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sqlscore", description="Partial-credit scoring for NL2SQL predictions.")
    sub = parser.add_subparsers(dest="command", required=True)

    score = sub.add_parser("score", help="score one predicted query against the ground truth")
    score.add_argument("truth", help="ground-truth SQL")
    score.add_argument("predicted", help="predicted SQL")
    score.add_argument("--db", help="fixture database; adds result-similarity scores")
    score.set_defaults(func=cmd_score)

    run = sub.add_parser("run", help="evaluate a whole corpus")
    run.add_argument("--adapter", default="identity", help="identity | file:preds.jsonl | cmd:command | http(s)://url")
    run.add_argument("--adapter-timeout-s", type=_seconds, default=DEFAULT_ADAPTER_TIMEOUT_S, help="per-question adapter timeout")
    run.add_argument("--report-json", help="write the JSON report to this file")
    run.add_argument("--report-csv", help="write the per-question CSV report to this file")
    run.add_argument("--report-md", help="write the Markdown report to this file")
    run.set_defaults(func=cmd_run)

    validate = sub.add_parser("validate", help="check corpus and fixture-data health")
    validate.set_defaults(func=cmd_validate)

    # the options that several commands take, each declared once; a string default goes through the type only when the flag is absent
    for command in (score, run, validate):
        command.add_argument("--anchor", type=_anchor, default=os.environ.get("BIS_ANCHOR") or DEFAULT_ANCHOR.isoformat(), help=f"ISO-8601 clock anchor (default {DEFAULT_ANCHOR.isoformat()}, or $BIS_ANCHOR if set)")
    for command in (score, run):
        command.add_argument("--order-insensitive", action="store_true", help="sort column values before comparing")
        command.add_argument("--timeout-s", type=_seconds, default=DEFAULT_TIMEOUT_S, help="per-query execution timeout")
    for command in (run, validate):
        command.add_argument("--corpus", required=True, help="question file (JSON array)")
        command.add_argument("--db-dir", required=True, help="directory with <db_id>.sqlite files")

    fixtures = sub.add_parser("fixtures", help="write the built-in fixture corpus and databases")
    fixtures.add_argument("--out", required=True, help="output directory")
    fixtures.set_defaults(func=cmd_fixtures)

    normalize = sub.add_parser("normalize", help="parse and re-render a statement in canonical form")
    normalize.add_argument("sql", help="the SQL statement")
    normalize.set_defaults(func=cmd_normalize)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  The documented errors end it with EXIT_CONFIG and one
    ``error:`` line on stderr, a closed standard output with EXIT_BROKEN_PIPE
    and no message; any other exception is a bug and propagates."""
    if isinstance(sys.stdout, io.TextIOWrapper):  # a lone surrogate in corpus text prints as its escape, as in the reports
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # what is still buffered goes nowhere, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (AdapterError, ConfigError, CorpusError, CorpusLoadError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
