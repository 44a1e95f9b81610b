"""Per-function understandability metrics: LOC, CC, Halstead volume, PCom.

Halstead token classification (this table defines the HV values and must
stay in sync with the implementation below):

* operators: keyword tokens, operator tokens (``=``, ``+``, ``&&``, ...),
  and call parentheses -- every ``(`` directly following an identifier,
  ``this`` or ``super`` counts as one occurrence of the ``()`` operator;
* operands: identifier tokens and literal tokens (numbers, strings, chars,
  ``true``/``false``/``null``);
* all other punctuation (``;`` ``,`` ``.`` ``{}`` ``[]`` ``@`` and grouping
  parentheses) is counted as neither.

Volume is measured over the function's body block and is
``N * log2(eta)`` with ``N`` the total operator+operand occurrences and
``eta`` the distinct count; an empty or one-token-kind body has volume 0.
``halstead_volume`` lexes the body with ``syntax.tokenize`` and counts the
token lists with ``collections.Counter``, with no step per token in
Python.  It lexes only the bodies a run scores, which are few next to the
units a run parses, so the parser keeps no counts.

Cyclomatic complexity uses the strict variant: 1 plus one point per
``if``, loop header (``for``/``while``/``do``), ``case`` label, ``catch``
clause, conditional (ternary) expression, and each short-circuit ``&&`` or
``||`` operator.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress

from .errors import ParseError
from .syntax import FunctionUnit, SyntaxTree, function_body, tokenize


@dataclass
class ComplexityRaw:
    loc: int
    cc: int
    hv: float
    pcom: float


_DECISION_KINDS = {
    "if_stmt", "while_stmt", "do_stmt", "for_stmt", "foreach_stmt",
    "case_label", "catch_clause", "ternary_expr",
}


def loc(function: FunctionUnit, tree: SyntaxTree) -> int:
    """Physical lines intersecting the function span (blanks included)."""
    start, end = function.span
    if end <= start:
        return 0
    return tree.line_of(max(start, end - 1)) - tree.line_of(start) + 1


def cyclomatic(function: FunctionUnit) -> int:
    """1 + decision points over the function body."""
    points = 0
    for node in function.body.walk():
        if node.kind in _DECISION_KINDS:
            points += 1
        elif node.kind == "binary_expr" and node.label in ("&&", "||"):
            points += 1
    return 1 + points


# keywords a call's "(" may follow, read as identifiers
_CALLEE_KEYWORDS = {"this": "ident", "super": "ident"}


def _body_span(function: FunctionUnit) -> tuple[int, int]:
    """Span of the function's body block (or lambda body); empty if none."""
    body = function_body(function)
    return body.span if body is not None else (function.body.start, function.body.start)


def halstead_volume(function: FunctionUnit, tree: SyntaxTree) -> float:
    """N * log2(eta) over the body's tokens, per the table in the module doc.

    Abstract/empty bodies have volume 0.
    """
    start, end = _body_span(function)
    try:
        (kinds, texts, _, _), _ = tokenize(tree.source_text[start:end])
    except ParseError:
        return 0.0
    # Operators and operands are counted together: no keyword's or
    # operator's text is an identifier's or a literal's.  ``kinds`` ends in
    # the eof token, which ``compress`` leaves out.
    counts = Counter(compress(texts, map("punct".__ne__, kinds[:-1])))
    # a call's "(" follows an identifier, ``this`` or ``super``
    callees = map(_CALLEE_KEYWORDS.get, texts, kinds)
    calls = list(zip(callees, texts[1:])).count(("ident", "("))
    n_total = counts.total() + calls
    eta = len(counts) + (calls > 0)
    if eta <= 1:
        return 0.0
    return n_total * math.log2(eta)


def comment_percentage(function: FunctionUnit, tree: SyntaxTree) -> float:
    """Fraction of the function's physical lines touched by comments.

    A comment touches the lines from its first character's to its last
    one's; only those within the function's lines count, each once.
    """
    start, end = function.span
    if end <= start:
        return 0.0
    first, last = tree.line_of(start), tree.line_of(end - 1)
    lines = set()
    for c in tree.comments:
        lines.update(range(max(first, tree.line_of(c.start)),
                           min(last, tree.line_of(c.end - 1)) + 1))
    return len(lines) / (last - first + 1)


def compute_raw(function: FunctionUnit, tree: SyntaxTree) -> ComplexityRaw:
    return ComplexityRaw(
        loc=loc(function, tree),
        cc=cyclomatic(function),
        hv=halstead_volume(function, tree),
        pcom=comment_percentage(function, tree),
    )
