"""Freeze the clock: replace each current-time read in SQL text with a fixed instant.

Temporally-phrased questions ("last 2 weeks") only reproduce if "now" means
the same thing on every run, so one pass over the query's tokens splices the
instant in as literals; the engine clock is never read.  The default anchor
matches the time span of the fixture data.
"""

from __future__ import annotations

import re
from datetime import datetime

from .parser import BARE_TIME_FUNCTIONS, Token, tokenize

DEFAULT_ANCHOR = datetime(2023, 1, 17, 0, 0, 0)

# Functions whose 'now' argument designates the current instant.
TIME_VALUE_FUNCTIONS = {"datetime", "date", "time", "strftime", "julianday", "unixepoch", "timediff"}
# Those that SQLite gives the current instant when no time value is passed; strftime takes its format first.
_ZERO_ARGUMENT_FUNCTIONS = TIME_VALUE_FUNCTIONS - {"strftime", "timediff"}
# Every text that reads the clock holds one of these words in some ASCII case, which str.lower folds to this one.
_CLOCK_WORD_RE = re.compile(r"now|date|time|julianday|unixepoch")
# SQLite reads a name as an alias after AS or after a token that ends an expression: these kinds and (kind, value) pairs
_BEFORE_ALIAS = {"ident", "qident", "string", "number", ("kw", "as"), ("kw", "null"), ("punct", ")")}
_OPERATOR_WORDS = {("ident", w) for w in ("glob", "regexp", "match", "escape")}  # names to our tokenizer only
_OPEN, _CLOSE, _COMMA, _DOT, _PLUS = ("punct", "("), ("punct", ")"), ("punct", ","), ("punct", "."), ("op", "+")


def parse_anchor(value: str | datetime) -> datetime:
    if isinstance(value, datetime):
        return value
    return datetime.fromisoformat(value)


def _anchor(sql: str, anchor: datetime, tokens: list[Token] | None = None) -> tuple[str, list[str]]:
    """``sql`` anchored, and the anchored text of each date/time call in it that has
    the anchor's timestamp or date as a whole argument, innermost first; ``tokens`` are ``tokenize(sql)``."""
    if not _CLOCK_WORD_RE.search(sql.lower()):
        return sql, []
    wall = anchor.replace(tzinfo=None)  # an aware anchor reads its own offset's wall clock
    now, date = f"'{wall.isoformat(' ', 'seconds')}'", f"'{wall.date()}'"  # these pad the year to 4 digits; %Y may not
    literals, anchors = {"now": now, "current_timestamp": now, "current_date": date, "current_time": f"'{wall:%H:%M:%S}'"}, {now, date}
    tokens = tokens or tokenize(sql)
    edits, calls = [], []  # edits as (start, end, literal), in source order
    frames: list[list] = []  # per open parenthesis: [its token index, the name it calls or None, commas, anchored]

    def splice(start: int, end: int) -> str:
        pieces, at = [], start
        for lo, hi, literal in edits:
            if start <= lo and hi <= end:
                pieces += (sql[at:lo], literal)
                at = hi
        return "".join(pieces) + sql[at:end]

    def argument(first: int, last: int, literal: str) -> bool:
        """Whether tokens first..last, inside any grouping parentheses and unary pluses,
        are a whole argument of a date/time call, which is marked if ``literal`` is an anchor."""
        lo, hi, depth = first - 1, last + 1, len(frames) - 1
        while tokens[lo][:2] == _PLUS or (depth >= 0 and frames[depth][:2] == [lo, None] and tokens[hi][:2] == _CLOSE):
            lo, hi, depth = (lo - 1, hi, depth) if tokens[lo][:2] == _PLUS else (lo - 1, hi + 1, depth - 1)
        whole = depth >= 0 and frames[depth][1] in TIME_VALUE_FUNCTIONS
        if whole and tokens[lo][:2] in (_OPEN, _COMMA) and tokens[hi][:2] in (_CLOSE, _COMMA):
            frames[depth][3] |= literal in anchors
            return True
        return False

    for i, (kind, value, pos) in enumerate(tokens):
        if kind == "string":
            if value.lower() == "now" and argument(i, i, literals["now"]):
                edits.append((pos, pos + len(value) + 2, literals["now"]))
            elif f"'{value}'" in anchors:
                argument(i, i, f"'{value}'")
        elif kind == "punct" and value == "(":
            frames.append([i, tokens[i - 1].value if tokens[i - 1].kind in ("ident", "qident") else None, 0, False])
        elif kind == "punct" and value == "," and frames:
            frames[-1][2] += 1
        elif kind == "punct" and value == ")" and frames:
            start, name, commas, anchored = frames.pop()
            empty = start == i - 1
            if name in literals and empty and tokens[start - 2][:2] != _DOT:
                edits.append((tokens[start - 1].pos, pos + 1, literals[name]))
                argument(start - 1, i, literals[name])
            elif (name in _ZERO_ARGUMENT_FUNCTIONS and empty) or (name == "strftime" and not empty and not commas):
                edits.append((pos, pos, literals["now"] if empty else ", " + literals["now"]))
                anchored = True
            if anchored:
                calls.append(splice(tokens[start - 1].pos, pos + 1))
        elif kind in ("ident", "qident") and value in BARE_TIME_FUNCTIONS:
            before = tokens[i - 1]
            alias = (before.kind in _BEFORE_ALIAS or before[:2] in _BEFORE_ALIAS) and before[:2] not in _OPERATOR_WORDS
            if not alias and before[:2] != _DOT and tokens[i + 1][:2] != _OPEN:
                edits.append((pos, pos + len(value) + (kind == "qident") * 2, literals[value]))
                argument(i, i, literals[value])
    return splice(0, len(sql)), calls


def anchor_sql(sql: str, anchor: str | datetime = DEFAULT_ANCHOR) -> str:
    """``sql`` with every current-time read replaced by the anchor as a literal.

    ``now()`` and ``current_timestamp`` become a timestamp and ``current_date``
    and ``current_time`` keep their granularity, unless they name an alias.  A
    ``'now'`` in any ASCII case that is a whole argument of a date/time function
    is replaced, and a date/time call with no time value (``date()``,
    ``strftime('%Y')``) gets the anchor as one.  A text with no clock word is
    the very same object; a clock word in an unterminated string or comment is kept.
    Raises ValueError for an ``anchor`` string that is not ISO 8601, whatever ``sql`` is."""
    return _anchor(sql, parse_anchor(anchor))[0]
