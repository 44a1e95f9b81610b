"""Language-neutral syntax-tree model plus a built-in Java-like grammar adapter.

The tree model is deliberately small: every node has a ``kind`` tag, an
optional ``label`` (identifier text, literal text, operator symbol, ...),
an ordered child list and a source span.  Comments never enter the tree;
they are collected on the side so that comment edits produce no tree edits
while comment-line counting stays possible.  The kind is the only node
class: the differ reads kinds directly (a name or modifier is an
``identifier``, ``modifier`` or ``annotation`` node), and
``is_log_call_statement`` recognises a call statement to a blacklisted
logger.

A tree holds no parent links and no other reference cycle, and nothing
that reads it (the differ, PDG collection) stores one.
So a tree is freed by reference counting as soon as its commit drops it;
the cyclic collector never has to trace its nodes.  The differ, the one
layer that needs parents, derives them for the region it walks.

Grammar adapters are registered per language id / file extension.  The
shipped adapter parses a Java-like language: classes, interfaces, enums,
records, fields, methods, constructors, the usual statement forms (a
``switch`` may use ``case …:`` groups or ``case … ->`` rules),
operator-precedence expressions, generics in type position, annotations
and lambdas.  It is a
source-level parser with no name resolution; anything it cannot parse
raises :class:`~devcontrib.errors.ParseError` and the caller skips the file.
So does nesting beyond what the parser's recursion or ``MAX_TREE_DEPTH``
allows, so that every later tree walk stays within Python's recursion
limit.

The lexer is one compiled pattern with an alternative per token class.
``tokenize`` runs it once over the text and returns the tokens as four
parallel lists (kinds, texts, starts and ends), built by list operations
that run in C, with no object per token; only numbers, errors and words
that start outside ASCII take a Python step each.  The parser reads the
lists by index, and no token list outlives the parse.  The same lists
may be built from segments of the text (see below).

A tree depends on its text alone, not on the file's path.  The parser
builds its function units (``functions``), with each method's call sites,
as it parses each method, constructor and lambda; nothing walks the tree
again to find them.  No layer changes a tree once it is built, so one tree
may serve every layer and several commits.  Every node gets its ``height``
when it is built, which the depth check reads.  A leaf's ``children`` is
one shared empty tuple.

A file's text may be parsed against the tree of its previous version
(incremental parsing; Wagner & Graham, TOPLAS 1998).  The lexer then
lexes only the text between the members whose text is unchanged, each of
which it puts in as one placeholder token where the whole text's lex
would start a token (see ``_tokenize_reusing``); the type-body member
loop takes each placeholder's member from the previous tree instead of
parsing it, with its units: the same subtree where the member starts at
its old offset, else a copy with shifted spans (see
``_Parser.reuse_member``).  A parse that fails, or leaves a placeholder
untaken, is run again on the whole text without the previous tree.  The
tree equals a fresh parse.  So a tree may share member subtrees with the
previous version of its file.  Sharing is safe because only
``ShapeTable.fill`` writes to a built node, and it writes a node the same
shape whichever tree it reaches the node through, as long as one table
fills both: the new tree is bound to the previous tree's table.

A node's ``shape`` and ``size`` are filled by the table a tree is bound
to (``SyntaxTree.shapes``): two subtrees filled by one table are
isomorphic exactly when their shapes are equal (hash-consing), and
``size`` is the subtree's node count.  The differ fills both trees of a
pair before it matches them (``astdiff.map_trees``), and a reparse fills
a member just before it copies it past an edit (``_Parser.reuse_member``),
so the copy keeps the shapes and the differ matches it in one comparison.
Nothing else is filled.
"""

from __future__ import annotations

import bisect
import logging
import re
import string
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, repeat
from operator import attrgetter, itemgetter, not_

from .config import DEFAULT_BLACKLIST
from .errors import ParseError

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# tree model
# ---------------------------------------------------------------------------

class SyntaxNode:
    """One node of a parsed tree.  It has no parent link, which would put
    every tree in a reference cycle (see the module doc).

    The arguments come in the parser's order, ``(kind, children, start,
    end, label)``; all but ``kind`` are optional.  ``height`` is computed
    from the children here, so a node gets its final children when it is
    built, and its children are built before it.  ``shape`` is None and
    ``size`` unset until a ``ShapeTable`` fills them.
    """

    __slots__ = ("kind", "label", "children", "start", "end", "height",
                 "shape", "size")

    def __init__(self, kind, children=None, start=0, end=0, label=None):
        self.kind = kind
        self.label = label
        self.start = start
        self.end = end
        self.shape = None
        # subtree depth: 1 for a leaf, 1 + max over children otherwise
        height = 0
        if children:
            self.children = children
            for c in children:
                h = c.height
                if h > height:
                    height = h
        else:
            self.children = _NO_CHILDREN
        self.height = height + 1

    @property
    def is_leaf(self):
        return not self.children

    @property
    def span(self):
        return (self.start, self.end)

    def walk(self):
        """Yield this node and all descendants, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __repr__(self):
        lbl = f" {self.label!r}" if self.label is not None else ""
        return f"<{self.kind}{lbl} [{self.start}:{self.end}] h={self.height}>"


_NO_CHILDREN = ()  # every leaf's children
_SHAPE, _SIZE = attrgetter("shape"), attrgetter("size")


class ShapeTable:
    """Exact subtree identity for one run, by hash-consing.

    ``fill`` numbers each distinct ``(kind, label, *child shapes)``, one
    flat tuple, in the order first met, so two subtrees filled by one
    table have equal shapes exactly when they are isomorphic, and keeps
    each shape's node count.
    A table belongs to one run (see ``pipeline.PipelineState``) and grows
    with the distinct subtrees its diffs read; shapes from two tables mean
    nothing to each other.
    """

    __slots__ = ("_ids", "_sizes")

    def __init__(self):
        self._ids: dict[tuple, int] = {}
        self._sizes: list[int] = []   # node count per shape

    def __len__(self) -> int:
        """Distinct shapes numbered."""
        return len(self._sizes)

    def fill(self, node: SyntaxNode) -> int:
        """``node``'s shape, filling ``shape`` and ``size`` for every node
        below that lacks them, children before parents; a filled node's
        subtree is filled too, so it is skipped."""
        if node.shape is None:
            ids, sizes = self._ids, self._sizes
            stack, order = [node], []
            while stack:
                n = stack.pop()
                if n.shape is None:
                    order.append(n)
                    stack.extend(n.children)
            for n in reversed(order):
                children = n.children
                key = ((n.kind, n.label, *map(_SHAPE, children)) if children
                       else (n.kind, n.label))
                shape = ids.get(key)
                if shape is None:
                    shape = ids[key] = len(sizes)
                    sizes.append(1 + sum(map(_SIZE, children)))
                n.shape = shape
                n.size = sizes[shape]
        return node.shape


@dataclass
class Comment:
    start: int
    end: int


# Deepest tree a ``SyntaxTree`` accepts.  PDG collection and other tree
# walks recurse once per tree level, so a deeper tree could exhaust
# Python's default limit of 1000 frames; 500 levels leave the rest for the
# caller's stack.  Hand-written code stays far below this: the
# deep trees come from long operator or call chains, which the parser
# builds in a loop.
MAX_TREE_DEPTH = 500


class SyntaxTree:
    """A parsed file: root node, raw source, out-of-tree comments, and the
    function units the parse built, in source order; do not mutate them.

    Raises ``ParseError`` when the tree is deeper than ``MAX_TREE_DEPTH``,
    at the start of a node one level too deep (see ``_node_at_depth``).
    The check reads the root's ``height``, set when the root was built.
    ``shapes`` is the ``ShapeTable`` that fills its nodes' shapes, None
    until a diff reads the tree (see ``astdiff.map_trees``) or a parse
    shares its members with it.  ``reused_members`` counts the members
    its parse took from the file's previous tree.
    """

    def __init__(self, root: SyntaxNode, source_text: str, comments=None, functions=None):
        self.root = root
        self.source_text = source_text
        self.comments = comments or []
        self.functions: list[FunctionUnit] = functions or []
        self.shapes: ShapeTable | None = None
        self.reused_members = 0
        self._line_starts = None
        if root.height > MAX_TREE_DEPTH:
            deep = _node_at_depth(root, MAX_TREE_DEPTH + 1)
            raise ParseError(f"syntax tree deeper than {MAX_TREE_DEPTH} levels",
                             position=deep.start)

    @property
    def line_starts(self):
        if self._line_starts is None:
            text, starts = self.source_text, [0]
            i = text.find("\n")
            while i >= 0:
                starts.append(i + 1)
                i = text.find("\n", i + 1)
            self._line_starts = starts
        return self._line_starts

    def line_of(self, offset: int) -> int:
        """0-based line index containing the character offset."""
        return bisect.bisect_right(self.line_starts, offset) - 1


def _node_at_depth(root: SyntaxNode, depth: int) -> SyntaxNode:
    """The first node at ``depth`` (the root is at 1) in a depth-first walk
    that visits the last child first: at each level, the last child whose
    subtree reaches ``depth``.  ``root.height`` must reach it."""
    node = root
    for level in range(2, depth + 1):
        node = next(c for c in reversed(node.children) if c.height > depth - level)
    return node


@dataclass
class FunctionUnit:
    """One method, constructor or lambda of a tree, built by the parse.

    Qualified names carry the container path and parameter-type signature,
    e.g. ``Outer.Inner.run(int,String)``.  A record's compact constructor
    takes its record's component types, as javac names it:
    ``Range.Range(int,int)`` for ``record Range(int lo, int hi)``.  Lambdas
    get synthesized names ``<enclosing>$lambdaN``, numbered in source
    order per enclosing method or constructor; a lambda outside every one
    is no unit.  An anonymous class is a container named as javac names
    it, ``A$1``, ``A$2``, ... in source order within its enclosing type,
    after the classes in its arguments, so ``A$1.toString()`` is not
    ``A.toString()``.

    ``calls`` holds a method's or constructor's call sites in pre-order,
    each call before those in its callee and arguments: the dotted callee
    of each call, from after its last ``this``, ``super`` or call result
    (``a.b.f`` for ``a.b.f(x)``, ``f`` for ``this.f()``, ``b`` then ``a``
    for ``a().b()``), and the type of each ``new`` without generics or
    array brackets.  Calls in its lambdas and anonymous-class bodies
    count; those in nested method or constructor declarations are theirs.
    A lambda's list is empty.
    """

    qualified_name: str
    body: SyntaxNode   # the whole declaration or lambda; see ``function_body``
    calls: list[str] = field(default_factory=list)

    @property
    def span(self) -> tuple[int, int]:
        return self.body.span


def function_body(unit: FunctionUnit) -> SyntaxNode | None:
    """The body of a unit: a method's or constructor's block, a lambda's
    block or expression; None for a method without one (abstract)."""
    node = unit.body
    if node.kind == "lambda_expr":
        return node.children[1]
    return next((c for c in node.children if c.kind == "block"), None)


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_KEYWORDS = {
    "abstract", "assert", "boolean", "break", "byte", "case", "catch", "char",
    "class", "const", "continue", "default", "do", "double", "else", "enum",
    "extends", "final", "finally", "float", "for", "goto", "if", "implements",
    "import", "instanceof", "int", "interface", "long", "native", "new",
    "package", "private", "protected", "public", "return", "short", "static",
    "strictfp", "super", "switch", "synchronized", "this", "throw", "throws",
    "transient", "try", "void", "volatile", "while",
}

_PRIMITIVES = {"boolean", "byte", "char", "short", "int", "long", "float", "double", "void"}

_TYPE_DECL_KINDS = {
    "class": "class_decl", "interface": "interface_decl", "enum": "enum_decl",
    "record": "record_decl",
}

_MODIFIER_KEYWORDS = {
    "public", "private", "protected", "static", "final", "abstract",
    "synchronized", "native", "transient", "volatile", "strictfp", "default",
}

_OPERATORS = [
    ">>>=", ">>=", "<<=", ">>>", "...", "->", "::", "==", "!=", "<=", ">=",
    "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "<<", ">>", "=", "+", "-", "*", "/", "%", "<", ">", "!", "~", "&", "|",
    "^", "?", ":",
]

# tokens that may appear inside type arguments, besides identifiers
_TYPE_ARGUMENT_TOKENS = frozenset({",", ".", "?", "[", "]", "&", "extends", "super"}
                                  | _PRIMITIVES)

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}

# binding level of each binary operator, loosest first
_BINARY_LEVELS = {op: level for level, ops in enumerate([
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">=", "instanceof"),
    ("<<", ">>", ">>>"),
    ("+", "-"),
    ("*", "/", "%"),
]) for op in ops}


# One alternative per token class, tried in order at each position after
# skipping whitespace.  In a str pattern ``\w`` is exactly
# ``str.isalnum()`` plus "_" and ``\d`` is ``str.isdecimal()``, so:
# * identifiers are a letter, "_" or "$" followed by ``[\w$]*``; the start
#   class ``[^\W\d]`` also admits numeric non-letters such as "½", which
#   ``tokenize`` rejects;
# * numbers see digits as ``\d``; ``tokenize`` first maps the digits that
#   are ``isdigit()`` but not decimal (such as "²") to the decimal digit
#   U+0660, which is not a hex digit either;
# * operators are listed longest-first where one is a prefix of another;
# * a quote or "/*" without its end is matched alone, as is any other
#   character, and ``tokenize`` rejects both;
# * the end of the text matches the empty token, so every other token is
#   one character or more.
# ``findall`` gives a (whitespace, token) pair per match.
_TOKEN_RE = re.compile(
    r"([ \t\r\n\f]*)("
    r"[^\W\d][\w$]*|\$[\w$]*"
    r"|//[^\n]*"
    r"|/\*.*?\*/"
    r"|0[xX][0-9a-fA-F_]*[lL]?"
    r"|(?=\.?\d)[\d_]*(?:\.[\d_]*)?(?:[eE][+-]?\d*)?[lLfFdD]?"
    r'|"[^"\\]*(?:\\.[^"\\]*)*"'
    r"|'[^'\\]*(?:\\.[^'\\]*)*'"
    r"""|/\*|"|'"""
    r"|" + "|".join(map(re.escape, _OPERATORS)) +
    r"|[(){}\[\];,.@]"
    r"|\Z"
    r"|.)", re.DOTALL)

_UNTERMINATED = {"/*": "unterminated block comment",
                 '"': "unterminated string literal",
                 "'": "unterminated char literal"}

# A token's kind: keyword / literal_word / op / punct by its whole text, else
# ident / number / string / char / comment by its first character.
# ``tokenize`` looks again at the two kinds that are no token's: "number",
# which is int or float, and "fault": an unterminated literal, or a token
# whose first character is not in ``_FIRST_CHAR_KINDS`` (a letter or a
# decimal digit outside ASCII, else a character outside the grammar).
_TEXT_KINDS = {**dict.fromkeys(_KEYWORDS, "keyword"),
               **dict.fromkeys(("true", "false", "null"), "literal_word"),
               **dict.fromkeys(_OPERATORS, "op"),
               **dict.fromkeys("(){}[];,.@", "punct"),
               **dict.fromkeys(_UNTERMINATED, "fault")}

_FIRST_CHAR_KINDS = {**dict.fromkeys(string.ascii_letters + "_$", "ident"),
                     **dict.fromkeys(string.digits + ".", "number"),
                     '"': "string", "'": "char", "/": "comment"}

_FLOAT_MARKS = frozenset(".eEfFdD")


def _decimal_digits(text: str) -> str:
    """``text`` with every ``isdigit()`` character that is not decimal
    replaced by the decimal digit U+0660, so that the number pattern's
    ``\\d`` matches where ``str.isdigit`` does; offsets are kept."""
    if text.isascii():
        return text
    digits = {ord(c): "\u0660" for c in set(text) if c.isdigit() and not c.isdecimal()}
    return text.translate(digits) if digits else text


def _indices(items: list, value):
    """Each index of ``value`` in ``items``, in order."""
    i = -1
    try:
        while True:
            i = items.index(value, i + 1)
            yield i
    except ValueError:
        return


def _lex(text: str, scan: str, start: int, stop: int):
    """The tokens and comments of ``text[start:stop]``, lexed as if the
    text ended at ``stop``, and the error of the first unterminated
    literal or None: ``(kinds, texts, starts, ends), comments, error``, as
    ``tokenize`` gives them but without the end token.  ``start`` must be
    where a token or whitespace starts, and ``scan`` is
    ``_decimal_digits(text)``.  The tokens end before that literal: lexed
    on past ``stop`` it may end, so it and what follows may be other
    tokens in the whole text.  Raises ParseError at the first character
    outside the grammar before it."""
    pairs = _TOKEN_RE.findall(scan, start, stop)
    # the last match is the end, and so is the one before it when the text
    # ends in whitespace: ``n`` tokens and comments precede them
    n = len(pairs) - 1
    if n and not pairs[-2][1]:
        n -= 1
    if not n:  # only whitespace, as between two members
        return ([], [], [], []), [], None
    bounds = list(accumulate(map(len, chain.from_iterable(pairs)), initial=start))
    starts, ends = bounds[1:2 * n:2], bounds[2:2 * n + 1:2]
    words = list(map(itemgetter(1), pairs[:n]))  # as in ``scan``
    kinds = list(map(_TEXT_KINDS.get, words,
                     map(_FIRST_CHAR_KINDS.get, map(itemgetter(0), words), repeat("fault"))))
    error = None
    for i in _indices(kinds, "fault"):
        word = words[i]
        if word in _UNTERMINATED:
            error = ParseError(_UNTERMINATED[word], position=starts[i])
            del words[i:], kinds[i:], starts[i:], ends[i:]
            break
        if word[0].isalpha():
            kinds[i] = "ident"
        elif word[0].isdecimal():
            kinds[i] = "number"
        else:
            raise ParseError(f"unexpected character {text[starts[i]]!r}", position=starts[i])
    texts = words if scan is text else list(map(text.__getitem__, map(slice, starts, ends)))
    for i in _indices(kinds, "number"):
        number = texts[i]  # a hex number's "e", "f" or "d" is a digit
        kinds[i] = ("int" if number[1:2] in ("x", "X") or _FLOAT_MARKS.isdisjoint(number)
                    else "float")
    comments = []
    if "comment" in kinds:
        keep = list(map("comment".__ne__, kinds))
        dropped = list(map(not_, keep))
        comments = list(map(Comment, compress(starts, dropped), compress(ends, dropped)))
        kinds, texts, starts, ends = (list(compress(column, keep))
                                      for column in (kinds, texts, starts, ends))
    return (kinds, texts, starts, ends), comments, error


def tokenize(text: str):
    """Return ``(kinds, texts, starts, ends), comments``: four parallel
    lists with one entry per token, the last an "eof" token at
    ``len(text)``, and the comments in text order.  A kind is ident,
    keyword, literal_word, int, float, string, char, op, punct or eof.
    Raises ParseError at the first malformed literal or character outside
    the grammar.  The whole text is one segment of ``_lex``; a parse
    against a previous tree lexes only the text between the members it
    takes (see ``_tokenize_reusing``)."""
    columns, comments, error = _lex(text, _decimal_digits(text), 0, len(text))
    if error is not None:
        raise error
    _end_token(columns, len(text))
    return columns, comments


def _end_token(columns, end: int):
    kinds, texts, starts, ends = columns
    kinds.append("eof")
    texts.append("")
    starts.append(end)
    ends.append(end)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    """Recursive-descent parser for the Java-like grammar, over the token
    lists of ``tokenize``.

    A keyword's, operator's or punctuation mark's text is no other token's
    text, so comparing the text alone tells whether the current token is
    one of them (``at``), and whether a token is a primitive type, a
    modifier or an operator of some class.
    """

    def __init__(self, text: str, previous: SyntaxTree | None = None):
        self.text = text
        # the previous version's members that may be taken whole, each by
        # the index of its placeholder token (see ``reuse_member``), and
        # how many were; the table bound to the previous tree, if any
        if previous is None:
            (kinds, texts, starts, ends), self.comments = tokenize(text)
            self.reusable, self.shapes = {}, None
        else:
            (kinds, texts, starts, ends), self.comments, self.reusable = \
                _tokenize_reusing(text, previous)
            self.shapes = previous.shapes
        self.reused = 0
        # two more eof tokens, so that lookahead reaches two tokens past
        # the end without a bounds check
        end = ends[-1]
        kinds += ("eof", "eof")
        texts += ("", "")
        starts += (end, end)
        ends += (end, end)
        self.kinds, self.texts, self.starts, self.ends = kinds, texts, starts, ends
        self.pos = 0
        # The units built so far and the scope the next is named in (see
        # ``FunctionUnit``); ``parse_class_body`` and ``finish_method`` set
        # the scope of a body and restore it at the body's end.
        self.units = []
        self.containers = []      # enclosing type names, innermost last
        self.calls = None         # innermost method's or constructor's call sites
        self.lambda_owner = None  # qualified name lambdas are numbered under
        self.lambdas = 0          # that method's or constructor's lambda count
        self.anonymous = 0        # innermost type's anonymous-class count

    # -- token helpers ------------------------------------------------------

    def at(self, text: str) -> bool:
        """Whether the current token is the keyword, operator or
        punctuation mark ``text``."""
        return self.texts[self.pos] == text

    def accept(self, text: str) -> bool:
        """Consume the current token if ``at(text)``; whether it did."""
        if self.at(text):
            self.pos += 1
            return True
        return False

    def at_ident(self) -> bool:
        return self.kinds[self.pos] == "ident"

    def at_end(self) -> bool:
        return self.kinds[self.pos] == "eof"

    def at_record(self) -> bool:
        """At ``record Name(`` or ``record Name<``: ``record`` is a keyword
        only there, elsewhere it is an ordinary identifier."""
        pos = self.pos
        return (self.texts[pos] == "record" and self.kinds[pos + 1] == "ident"
                and self.texts[pos + 2] in ("(", "<"))

    def at_type_keyword(self) -> bool:
        return (self.at("class") or self.at("interface") or self.at("enum")
                or self.at_record())

    def advance(self) -> int:
        """The current token's index; moves past it unless it is the end."""
        pos = self.pos
        if self.kinds[pos] != "eof":
            self.pos = pos + 1
        return pos

    def expect(self, text: str) -> int:
        """The index of the current token, which must be ``text``; moves past it."""
        pos = self.pos
        if self.texts[pos] != text:
            raise ParseError(f"expected {text!r}, found {self.texts[pos]!r}",
                             position=self.starts[pos])
        self.pos = pos + 1
        return pos

    def error(self, message: str):
        raise ParseError(message, position=self.starts[self.pos])

    def leaf(self, kind, index: int):
        """A leaf of ``kind`` labelled with the token at ``index``."""
        return SyntaxNode(kind, None, self.starts[index], self.ends[index], self.texts[index])

    def identifier(self, message: str) -> SyntaxNode:
        """The identifier leaf at the current token, else ``message``."""
        if not self.at_ident():
            self.error(message)
        return self.leaf("identifier", self.advance())

    def skip_dims(self):
        """Skip ``[]`` pairs after a type or a declared name."""
        while self.at("[") and self.texts[self.pos + 1] == "]":
            self.pos += 2

    def skip_parenthesized(self, what: str) -> int:
        """Skip the balanced ``( … )`` group at the current token; the end
        of its ``)``."""
        depth = 0
        while True:
            i = self.advance()
            if self.kinds[i] == "eof":
                self.error(f"unterminated {what} arguments")
            if self.texts[i] == "(":
                depth += 1
            elif self.texts[i] == ")":
                depth -= 1
                if depth == 0:
                    return self.ends[i]

    def source_label(self, start: int, end: int) -> str:
        """The source text of ``start:end`` without whitespace."""
        return "".join(self.text[start:end].split())

    def mark(self):
        """The position and how much is built, for ``reset``."""
        return (self.pos, len(self.units), len(self.calls or ()), self.lambdas,
                self.anonymous, self.reused)

    def reset(self, mark):
        """Back to ``mark``, dropping the units, call sites and numbers taken since."""
        self.pos, units, calls, self.lambdas, self.anonymous, self.reused = mark
        del self.units[units:]
        if self.calls:
            del self.calls[calls:]

    # -- entry --------------------------------------------------------------

    def parse_compilation_unit(self) -> SyntaxNode:
        start = self.starts[self.pos]
        children = []
        if self.at("package"):
            children.append(self.parse_package())
        while self.at("import"):
            children.append(self.parse_import())
        while not self.at_end():
            children.append(self.parse_type_declaration())
        end = children[-1].end if children else start
        return SyntaxNode("compilation_unit", children, start, end)

    def parse_package(self):
        start = self.starts[self.expect("package")]
        name = self.parse_dotted_name()
        end = self.ends[self.expect(";")]
        return SyntaxNode("package_decl", [], start, end, label=name)

    def parse_import(self):
        start = self.starts[self.expect("import")]
        self.accept("static")
        name = self.parse_dotted_name()
        if self.accept("."):
            self.expect("*")
            name += ".*"
        end = self.ends[self.expect(";")]
        return SyntaxNode("import_decl", [], start, end, label=name)

    def parse_dotted_name(self) -> str:
        parts = [self.texts[self.advance()]]
        while self.at(".") and self.kinds[self.pos + 1] == "ident":
            parts.append(self.texts[self.pos + 1])
            self.pos += 2
        return ".".join(parts)

    # -- modifiers / annotations --------------------------------------------

    def parse_modifiers(self):
        nodes = []
        while True:
            text = self.texts[self.pos]
            if text == "@" and self.kinds[self.pos + 1] == "ident":
                nodes.append(self.parse_annotation())
            elif text in _MODIFIER_KEYWORDS:
                # 'default' doubles as a switch label; only a modifier before members
                nodes.append(self.leaf("modifier", self.advance()))
            else:
                return nodes

    def parse_annotation(self):
        start = self.starts[self.expect("@")]
        self.parse_dotted_name()
        end = self.ends[self.pos - 1]
        if self.at("("):
            end = self.skip_parenthesized("annotation")
        return SyntaxNode("annotation", [], start, end, self.source_label(start, end))

    # -- types ---------------------------------------------------------------

    def try_parse_type(self):
        """Parse a type reference; returns a leaf node or None (position restored)."""
        first = self.pos
        if not self.skip_type():
            self.pos = first
            return None
        return self.type_node(first)

    def skip_type(self) -> bool:
        """Move past a type reference; False if there is none, leaving the
        position where the attempt stopped."""
        text = self.texts[self.pos]
        if text in _PRIMITIVES:
            self.pos += 1
        elif self.at_ident():
            self.pos += 1
            while self.at(".") and self.kinds[self.pos + 1] == "ident":
                self.pos += 2
            if self.at("<") and not self._skip_type_arguments():
                return False
        else:
            return False
        self.skip_dims()
        return True

    def type_node(self, first: int) -> SyntaxNode:
        """The type leaf over the tokens from ``first`` to the current one."""
        start, end = self.starts[first], self.ends[self.pos - 1]
        return SyntaxNode("type", [], start, end, self.source_label(start, end))

    def _skip_type_arguments(self) -> bool:
        """Consume a balanced ``<...>`` group of type tokens; False if not one."""
        save = self.pos
        texts, kinds = self.texts, self.kinds
        depth = 0
        while True:
            i = self.pos
            text = texts[i]
            self.pos += 1
            if text == "<":
                depth += 1
            elif text in (">", ">>", ">>>"):
                depth -= len(text)
                if depth == 0:
                    return True
                if depth < 0:
                    break
            elif kinds[i] != "ident" and text not in _TYPE_ARGUMENT_TOKENS:
                break
        self.pos = save
        return False

    def parse_type(self):
        t = self.try_parse_type()
        if t is None:
            self.error("expected a type")
        return t

    def parse_type_list(self, separator=","):
        """One or more types joined by ``separator``."""
        types = [self.parse_type()]
        while self.accept(separator):
            types.append(self.parse_type())
        return types

    # -- type declarations ----------------------------------------------------

    def parse_type_declaration(self):
        start = self.starts[self.pos]
        mods = self.parse_modifiers()
        if mods:
            start = mods[0].start
        if self.at_type_keyword():
            return self.parse_class_like(mods, start)
        self.error("expected a class or interface declaration")

    def parse_class_like(self, mods, start):
        kind = _TYPE_DECL_KINDS[self.texts[self.advance()]]
        name = self.identifier("expected a type name")
        children = mods + [name]
        if self.at("<"):
            if not self._skip_type_arguments():
                self.error("malformed type parameters")
        components = []
        if kind == "record_decl":  # the components are the record's fields
            params = self.parse_param_list()
            components = params.children
            children.append(SyntaxNode("record_components", components,
                                       params.start, params.end))
        for keyword in ("extends", "implements"):
            if self.accept(keyword):
                children.extend(self.parse_type_list())
        body = self.parse_class_body(self.containers + [name.label],
                                     enum=kind == "enum_decl", components=components)
        children.append(body)
        return SyntaxNode(kind, children, start, body.end)

    def parse_class_body(self, containers, enum=False, components=()):
        """``{ members }`` of the type ``containers`` names, its own name
        last; an enum's body starts with its constants and has members
        only after a ``;``.  ``components`` are a record's, which its
        compact constructor takes."""
        scope = self.containers, self.lambda_owner, self.anonymous
        self.containers, self.lambda_owner, self.anonymous = containers, None, 0
        # a member's parse depends on its text and on this body's names
        # only, unless it adds call sites to an enclosing method's list
        names = (_body_names(containers, components)
                 if self.reusable and self.calls is None else None)
        start = self.starts[self.expect("{")]
        children = []
        while enum and self.at_ident():
            const = self.leaf("enum_constant", self.advance())
            if self.at("("):
                const.end = self.skip_parenthesized("enum constant")
            children.append(const)
            self.accept(",")
        if not enum or self.accept(";"):
            while not self.at("}") and not self.at_end():
                member = self.reuse_member(names) if names is not None else None
                children.append(member if member is not None
                                else self.parse_member(components))
        end = self.ends[self.expect("}")]
        self.containers, self.lambda_owner, self.anonymous = scope
        return SyntaxNode("class_body", children, start, end)

    def reuse_member(self, names):
        """The previous version's member whose placeholder token is the
        current one, taken whole with its units, or None if there is none
        or it cannot be taken.

        The lexer put it there in place of its text, at a token start of
        the whole text's lex (see ``_tokenize_reusing``).  It is taken
        when ``names``, those of the type body being parsed (see
        ``_body_names``), are those of its own body, and the anonymous
        classes it holds, if any, are numbered from the same count.  Its
        text lexes to the same tokens as before, since the lexer reads no
        state and the member's last token, a ``}`` or ``;``, is matched
        without reading the character after it.  So the member parses to
        the same subtree and units.  At the same offset it is that
        subtree, shared with the previous tree; elsewhere it is a copy
        with shifted spans (see ``_shifted``), which keeps the shapes
        filled first by the previous tree's table, if it has one.  A
        placeholder that is not taken here fails the parse, and
        ``_parse_java`` parses the text again without the previous tree."""
        found = self.reusable.get(self.pos)
        if found is None:
            return None
        member, shift, body_names, anonymous_before, anonymous, units = found
        if body_names != names or anonymous and anonymous_before != self.anonymous:
            return None
        self.pos += 1
        self.anonymous += anonymous
        self.reused += 1
        if shift:
            if self.shapes is not None:
                self.shapes.fill(member)
            bodies = dict.fromkeys([u.body for u in units])
            member = _shifted(member, shift, bodies)
            units = [FunctionUnit(u.qualified_name, bodies[u.body], u.calls) for u in units]
        self.units.extend(units)
        return member

    def parse_member(self, components):
        start = self.starts[self.pos]
        if self.at(";"):
            i = self.advance()
            return SyntaxNode("empty_decl", [], self.starts[i], self.ends[i])
        mods = self.parse_modifiers()
        if mods:
            start = mods[0].start
        if self.at_type_keyword():
            return self.parse_class_like(mods, start)
        if self.at("{"):  # initializer block (possibly static)
            block = self.parse_block()
            return SyntaxNode("initializer", mods + [block], start, block.end)
        if self.at("<"):
            if not self._skip_type_arguments():
                self.error("malformed method type parameters")
        # constructor: Name (
        if self.at_ident() and self.texts[self.pos + 1] == "(":
            name = self.leaf("identifier", self.advance())
            return self.finish_method(mods, None, name, start, kind="constructor_decl")
        # a record's compact constructor: Name {
        if self.at_ident() and self.texts[self.pos + 1] == "{":
            name = self.leaf("identifier", self.advance())
            return self.finish_method(mods, None, name, start, "constructor_decl",
                                      params=components)
        rtype = self.parse_type()
        name = self.identifier("expected a member name")
        if self.at("("):
            return self.finish_method(mods, rtype, name, start, kind="method_decl")
        return self.finish_field(mods, rtype, name, start)

    def finish_method(self, mods, rtype, name, start, kind, params=None):
        """The rest of a method or constructor after its name, and its
        unit.  A compact constructor has no parameter list in the source:
        ``params`` are its record's components."""
        children = list(mods)
        if rtype is not None:
            children.append(rtype)
        children.append(name)
        if params is None:
            param_list = self.parse_param_list()
            children.append(param_list)
            params = param_list.children
        # a parameter's type is its second-last child, before its name
        signature = f"{name.label}({','.join([p.children[-2].label for p in params])})"
        qname = ".".join(self.containers + [signature])
        calls = []
        scope = self.calls, self.lambda_owner, self.lambdas
        self.calls, self.lambda_owner, self.lambdas = calls, qname, 0
        if self.at("throws"):
            tstart = self.starts[self.advance()]
            throws = self.parse_type_list()
            children.append(SyntaxNode("throws_clause", throws, tstart, throws[-1].end))
        if self.at(";"):
            end = self.ends[self.advance()]
        else:
            body = self.parse_block()
            children.append(body)
            end = body.end
        self.calls, self.lambda_owner, self.lambdas = scope
        node = SyntaxNode(kind, children, start, end)
        self.units.append(FunctionUnit(qname, node, calls))
        return node

    def parse_param_list(self):
        start = self.starts[self.expect("(")]
        params = []
        while not self.at(")"):
            pstart = self.starts[self.pos]
            pmods = self.parse_modifiers()
            ptype = self.parse_type()
            if self.accept("..."):
                ptype.label += "..."
            pname = self.identifier("expected a parameter name")
            self.skip_dims()
            params.append(SyntaxNode("param", pmods + [ptype, pname], pstart, pname.end))
            if not self.accept(",") and not self.at(")"):
                self.error("expected ',' or ')' in parameter list")
        end = self.ends[self.expect(")")]
        return SyntaxNode("param_list", params, start, end)

    def finish_field(self, mods, ftype, first_name, start):
        declarators = [self.parse_var_declarator(first_name)]
        while self.accept(","):
            declarators.append(self.parse_var_declarator(
                self.identifier("expected a field name")))
        end = self.ends[self.expect(";")]
        return SyntaxNode("field_decl", mods + [ftype] + declarators, start, end)

    def parse_var_declarator(self, name_leaf):
        children = [name_leaf]
        self.skip_dims()
        if self.accept("="):
            children.append(self.parse_variable_init())
        end = children[-1].end
        return SyntaxNode("var_declarator", children, name_leaf.start, end)

    def parse_variable_init(self):
        if self.at("{"):
            return self.parse_array_init()
        return self.parse_expression()

    def parse_array_init(self):
        start = self.starts[self.expect("{")]
        items = []
        while not self.at("}"):
            items.append(self.parse_variable_init())
            if not self.accept(",") and not self.at("}"):
                self.error("expected ',' or '}' in array initializer")
        end = self.ends[self.expect("}")]
        return SyntaxNode("array_init", items, start, end)

    # -- statements ------------------------------------------------------------

    def parse_block(self):
        start = self.starts[self.expect("{")]
        stmts = []
        while not self.at("}") and not self.at_end():
            stmts.append(self.parse_statement())
        end = self.ends[self.expect("}")]
        return SyntaxNode("block", stmts, start, end)

    def parse_statement(self):
        text = self.texts[self.pos]
        if text == "{":
            return self.parse_block()
        if text == ";":
            i = self.advance()
            return SyntaxNode("empty_stmt", [], self.starts[i], self.ends[i])
        if self.kinds[self.pos] == "keyword":
            if text == "if":
                return self.parse_if()
            if text == "while":
                return self.parse_while()
            if text == "do":
                return self.parse_do()
            if text == "for":
                return self.parse_for()
            if text == "switch":
                return self.parse_switch()
            if text == "try":
                return self.parse_try()
            if text == "return":
                start = self.starts[self.advance()]
                children = []
                if not self.at(";"):
                    children.append(self.parse_expression())
                end = self.ends[self.expect(";")]
                return SyntaxNode("return_stmt", children, start, end)
            if text == "throw":
                start = self.starts[self.advance()]
                expr = self.parse_expression()
                end = self.ends[self.expect(";")]
                return SyntaxNode("throw_stmt", [expr], start, end)
            if text in ("break", "continue"):
                start = self.starts[self.advance()]
                children = []
                if self.at_ident():
                    children.append(self.leaf("identifier", self.advance()))
                end = self.ends[self.expect(";")]
                return SyntaxNode(f"{text}_stmt", children, start, end)
            if text == "synchronized":
                start = self.starts[self.advance()]
                expr = self.parse_parenthesized()
                body = self.parse_block()
                return SyntaxNode("synchronized_stmt", [expr, body], start, body.end)
            if text == "assert":
                start = self.starts[self.advance()]
                children = [self.parse_expression()]
                if self.accept(":"):
                    children.append(self.parse_expression())
                end = self.ends[self.expect(";")]
                return SyntaxNode("assert_stmt", children, start, end)
        decl = self.try_parse_local_var_decl()
        if decl is not None:
            return decl
        start = self.starts[self.pos]
        expr = self.parse_expression()
        end = self.ends[self.expect(";")]
        return SyntaxNode("expr_stmt", [expr], start, end)

    def try_parse_local_var_decl(self):
        """A local variable declaration, or None with the parser ``reset``.
        Its type node is built only once a name and one of ``= ; , [``
        follow the type."""
        save = self.mark()
        start = self.starts[self.pos]
        mods = []
        while self.at("final") or (self.at("@") and self.kinds[self.pos + 1] == "ident"):
            if self.at("final"):
                mods.append(self.leaf("modifier", self.advance()))
            else:
                mods.append(self.parse_annotation())
        first = self.pos
        if not self.skip_type() or not self.at_ident() \
                or self.texts[self.pos + 1] not in ("=", ";", ",", "["):
            self.reset(save)
            return None
        vtype = self.type_node(first)
        declarators = [self.parse_var_declarator(self.leaf("identifier", self.advance()))]
        while self.accept(","):
            if not self.at_ident():
                self.reset(save)
                return None
            declarators.append(self.parse_var_declarator(self.leaf("identifier", self.advance())))
        if not self.at(";"):
            self.reset(save)
            return None
        end = self.ends[self.advance()]
        return SyntaxNode("local_var_decl", mods + [vtype] + declarators, start, end)

    def parse_if(self):
        start = self.starts[self.expect("if")]
        cond = self.parse_parenthesized()
        then = self.parse_statement()
        children = [cond, then]
        end = then.end
        if self.accept("else"):
            otherwise = self.parse_statement()
            children.append(otherwise)
            end = otherwise.end
        return SyntaxNode("if_stmt", children, start, end)

    def parse_while(self):
        start = self.starts[self.expect("while")]
        cond = self.parse_parenthesized()
        body = self.parse_statement()
        return SyntaxNode("while_stmt", [cond, body], start, body.end)

    def parse_do(self):
        start = self.starts[self.expect("do")]
        body = self.parse_statement()
        self.expect("while")
        cond = self.parse_parenthesized()
        end = self.ends[self.expect(";")]
        return SyntaxNode("do_stmt", [body, cond], start, end)

    def parse_for(self):
        start = self.starts[self.expect("for")]
        self.expect("(")
        # enhanced for: [final] Type name : expr
        save = self.pos
        fmods = []
        while self.at("final"):
            fmods.append(self.leaf("modifier", self.advance()))
        first = self.pos
        if self.skip_type() and self.at_ident() and self.texts[self.pos + 1] == ":":
            vtype = self.type_node(first)
            name = self.leaf("identifier", self.advance())
            self.advance()  # ':'
            iterable = self.parse_expression()
            self.expect(")")
            body = self.parse_statement()
            return SyntaxNode("foreach_stmt", fmods + [vtype, name, iterable, body],
                              start, body.end)
        self.pos = save
        children = []
        if not self.accept(";"):
            init = self.try_parse_local_var_decl()
            if init is not None:
                # local-var path consumed the ';'
                children.append(init)
            else:
                children.extend(self.parse_expression_list())
                self.expect(";")
        if not self.at(";"):
            cond_expr = self.parse_expression()
            children.append(SyntaxNode("for_condition", [cond_expr],
                                       cond_expr.start, cond_expr.end))
        self.expect(";")
        if not self.at(")"):
            children.extend(self.parse_expression_list())
        self.expect(")")
        body = self.parse_statement()
        children.append(body)
        return SyntaxNode("for_stmt", children, start, body.end)

    def parse_switch(self):
        start = self.starts[self.expect("switch")]
        selector = self.parse_parenthesized()
        self.expect("{")
        groups = []
        while not self.at("}") and not self.at_end():
            groups.append(self.parse_switch_group())
        end = self.ends[self.expect("}")]
        return SyntaxNode("switch_stmt", [selector] + groups, start, end)

    def parse_switch_group(self):
        """``case …:`` labels and the statements after them, or one rule
        ``case … ->``: a single label and a single body, no fall-through."""
        gstart = self.starts[self.pos]
        labels = []
        while self.at("case") or self.at("default"):
            kw = self.advance()
            values = []
            if self.texts[kw] == "case":
                values.append(self.parse_case_value())
                while self.accept(","):
                    values.append(self.parse_case_value())
            kind = "case_label" if values else "default_label"
            if self.at("->"):
                labels.append(SyntaxNode(kind, values, self.starts[kw],
                                         self.ends[self.advance()]))
                body = self.parse_statement()
                return SyntaxNode("switch_rule", labels + [body], gstart, body.end)
            labels.append(SyntaxNode(kind, values, self.starts[kw], self.ends[self.expect(":")]))
        if not labels:
            self.error("expected 'case' or 'default' in switch body")
        stmts = []
        while not (self.at("case") or self.at("default") or self.at("}")):
            stmts.append(self.parse_statement())
        gend = stmts[-1].end if stmts else labels[-1].end
        return SyntaxNode("switch_group", labels + stmts, gstart, gend)

    def parse_case_value(self):
        # an enum constant before '->' is a label, not a lambda parameter
        if self.at_ident() and self.texts[self.pos + 1] == "->":
            return self.leaf("identifier", self.advance())
        return self.parse_ternary()

    def parse_try(self):
        start = self.starts[self.expect("try")]
        children = []
        if self.at("("):  # try-with-resources
            rstart = self.starts[self.advance()]
            resources = []
            while not self.at(")"):
                rdecl_start = self.starts[self.pos]
                rmods = self.parse_modifiers()
                rtype = self.parse_type()
                rname = self.identifier("expected a resource name")
                self.expect("=")
                rexpr = self.parse_expression()
                resources.append(SyntaxNode("resource", rmods + [rtype, rname, rexpr],
                                            rdecl_start, rexpr.end))
                self.accept(";")
            rend = self.ends[self.expect(")")]
            children.append(SyntaxNode("resource_spec", resources, rstart, rend))
        body = self.parse_block()
        children.append(body)
        end = body.end
        while self.at("catch"):
            cstart = self.starts[self.advance()]
            self.expect("(")
            cmods = self.parse_modifiers()
            ctypes = self.parse_type_list("|")
            cname = self.identifier("expected an exception name")
            self.expect(")")
            cbody = self.parse_block()
            children.append(SyntaxNode("catch_clause", cmods + ctypes + [cname, cbody],
                                       cstart, cbody.end))
            end = cbody.end
        if self.at("finally"):
            fstart = self.starts[self.advance()]
            fbody = self.parse_block()
            children.append(SyntaxNode("finally_clause", [fbody], fstart, fbody.end))
            end = fbody.end
        return SyntaxNode("try_stmt", children, start, end)

    # -- expressions ------------------------------------------------------------

    def parse_expression(self):
        lhs = self.parse_ternary()
        if self.texts[self.pos] in _ASSIGN_OPS:
            op = self.texts[self.advance()]
            rhs = self.parse_expression()
            return SyntaxNode("assign_expr", [lhs, rhs], lhs.start, rhs.end, label=op)
        return lhs

    def parse_parenthesized(self):
        """``( expression )``: the expression."""
        self.expect("(")
        expr = self.parse_expression()
        self.expect(")")
        return expr

    def parse_expression_list(self):
        """One or more expressions joined by ``,``."""
        exprs = [self.parse_expression()]
        while self.accept(","):
            exprs.append(self.parse_expression())
        return exprs

    def parse_ternary(self):
        cond = self.parse_binary(0)
        if self.accept("?"):
            then = self.parse_expression()
            self.expect(":")
            otherwise = self.parse_ternary()
            return SyntaxNode("ternary_expr", [cond, then, otherwise],
                              cond.start, otherwise.end)
        return cond

    def parse_binary(self, level):
        """Left-associative binary operators binding at least as tightly as
        ``level``, by precedence climbing over ``_BINARY_LEVELS``.  As in a
        grammar with one rule per level, the operators one call joins never
        bind more tightly than the one before (which matters after
        ``instanceof``, whose right side is a type)."""
        left = self.parse_unary()
        cap = len(_BINARY_LEVELS)
        while True:
            op = self.texts[self.pos]
            op_level = _BINARY_LEVELS.get(op, -1)
            if not level <= op_level <= cap:
                return left
            cap = op_level
            self.pos += 1
            if op == "instanceof":
                rtype = self.parse_type()
                left = SyntaxNode("instanceof_expr", [left, rtype], left.start, rtype.end)
                continue
            right = self.parse_binary(op_level + 1)
            left = SyntaxNode("binary_expr", [left, right], left.start, right.end, label=op)

    def parse_unary(self):
        text = self.texts[self.pos]
        if text in ("+", "-", "!", "~", "++", "--"):
            start = self.starts[self.advance()]
            operand = self.parse_unary()
            return SyntaxNode("unary_expr", [operand], start, operand.end, label=text)
        # unambiguous cast: ( primitive-type ) operand
        if text == "(" and self.texts[self.pos + 1] in _PRIMITIVES:
            save = self.pos
            start = self.starts[self.advance()]
            ctype = self.try_parse_type()
            if ctype is not None and self.accept(")"):
                operand = self.parse_unary()
                return SyntaxNode("cast_expr", [ctype, operand], start, operand.end)
            self.pos = save
        return self.parse_postfix()

    def parse_postfix(self):
        calls = self.calls
        first = len(calls) if calls is not None else 0
        expr = self.parse_primary()
        texts, kinds = self.texts, self.kinds
        while True:
            text = texts[self.pos]
            if text == "." and kinds[self.pos + 1] == "ident":
                self.pos += 1
                name = self.leaf("identifier", self.advance())
                expr = SyntaxNode("field_access", [expr, name], expr.start, name.end)
                continue
            if text == "(" and expr.kind in ("identifier", "field_access"):
                name = calls is not None and _callee_name(callee_segments(expr))
                if name:  # before the chain's earlier calls, in pre-order
                    calls.insert(first, name)
                args, end = self.parse_arguments()
                expr = SyntaxNode("call_expr", [expr] + args, expr.start, end)
                continue
            if text == "[":
                self.pos += 1
                index = self.parse_expression()
                end = self.ends[self.expect("]")]
                expr = SyntaxNode("array_access", [expr, index], expr.start, end)
                continue
            if text == "::" and kinds[self.pos + 1] in ("ident", "keyword"):
                self.pos += 1
                name = self.leaf("identifier", self.advance())
                expr = SyntaxNode("method_ref", [expr, name], expr.start, name.end)
                continue
            if text in ("++", "--"):
                end = self.ends[self.advance()]
                expr = SyntaxNode("postfix_expr", [expr], expr.start, end, label=text)
                continue
            return expr

    def parse_arguments(self):
        self.expect("(")
        args = []
        while not self.at(")"):
            args.append(self.parse_expression())
            if not self.accept(",") and not self.at(")"):
                self.error("expected ',' or ')' in argument list")
        end = self.ends[self.expect(")")]
        return args, end

    def parse_primary(self):
        pos = self.pos
        kind, text = self.kinds[pos], self.texts[pos]
        if kind in ("int", "float", "string", "char", "literal_word"):
            return self.leaf("literal", self.advance())
        if kind == "ident":
            if self.texts[pos + 1] == "->":
                return self.parse_lambda_single(self.advance())
            return self.leaf("identifier", self.advance())
        if text in ("this", "super"):
            node = self.leaf(f"{text}_expr", self.advance())
            if self.at("("):
                args, end = self.parse_arguments()
                return SyntaxNode("call_expr", [node] + args, node.start, end)
            return node
        if text == "new":
            return self.parse_creator()
        if text == "(":
            if self._lambda_ahead():
                return self.parse_lambda_parenthesized()
            start = self.starts[self.advance()]
            inner = self.parse_expression()
            end = self.ends[self.expect(")")]
            return SyntaxNode("paren_expr", [inner], start, end)
        self.error(f"unexpected token {text!r} in expression")

    def _lambda_ahead(self) -> bool:
        """From a '(' token, check whether the balanced group is lambda params."""
        texts, kinds = self.texts, self.kinds
        depth = 0
        i = self.pos
        while True:
            text = texts[i]
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
                if depth == 0:
                    return texts[i + 1] == "->"
            elif kinds[i] == "eof":
                return False
            i += 1

    def parse_lambda_single(self, name):
        """``name -> …``, from the index of the parameter's name."""
        start, end = self.starts[name], self.ends[name]
        param = SyntaxNode("param", [self.leaf("identifier", name)], start, end)
        params = SyntaxNode("param_list", [param], start, end)
        return self.finish_lambda(params, start)

    def parse_lambda_parenthesized(self):
        start = self.starts[self.expect("(")]
        params = []
        while not self.at(")"):
            pstart = self.starts[self.pos]
            ptype = None
            if self.kinds[self.pos + 1] == "ident":  # typed parameter
                ptype = self.try_parse_type()
            pname = self.identifier("expected a lambda parameter name")
            kids = ([ptype] if ptype is not None else []) + [pname]
            params.append(SyntaxNode("param", kids, pstart, pname.end))
            self.accept(",")
        pend = self.ends[self.expect(")")]
        plist = SyntaxNode("param_list", params, start, pend)
        return self.finish_lambda(plist, start)

    def finish_lambda(self, params, start):
        """A lambda from its ``->``; a unit inside a method or constructor,
        numbered at the ``->`` so that nested lambdas come after it."""
        self.expect("->")
        owner = self.lambda_owner
        if owner is not None:
            qname = self.lambda_owner = f"{owner}$lambda{self.lambdas}"
            self.lambdas += 1
        body = self.parse_block() if self.at("{") else self.parse_expression()
        node = SyntaxNode("lambda_expr", [params, body], start, body.end)
        if owner is not None:
            self.lambda_owner = owner
            self.units.append(FunctionUnit(qname, node))
        return node

    def parse_creator(self):
        start = self.starts[self.expect("new")]
        ctype = self.parse_type()
        if self.at("["):
            dims = []
            end = ctype.end
            while self.accept("["):
                if not self.at("]"):
                    dims.append(self.parse_expression())
                end = self.ends[self.expect("]")]
            children = [ctype] + dims
            if self.at("{"):
                init = self.parse_array_init()
                children.append(init)
                end = init.end
            return SyntaxNode("array_new", children, start, end)
        name = ctype.label.split("<", 1)[0].replace("[]", "")
        if self.calls is not None and name:
            self.calls.append(name)
        args, end = self.parse_arguments()
        children = [ctype] + args
        if self.at("{"):  # anonymous class body
            # numbered after the classes in its arguments, as javac does
            self.anonymous += 1
            *outer, innermost = self.containers
            body = self.parse_class_body(outer + [f"{innermost}${self.anonymous}"])
            children.append(body)
            end = body.end
        return SyntaxNode("new_expr", children, start, end)


# ---------------------------------------------------------------------------
# members taken from the previous version of a file
# ---------------------------------------------------------------------------

_TYPE_DECLS = frozenset(_TYPE_DECL_KINDS.values())


def _body_names(containers, components) -> tuple:
    """What a type body's members are named by besides their own text:
    the type names from the outermost in, and a record's component types,
    which its compact constructor is named with."""
    # a parameter's type is its second-last child, before its name
    return tuple(containers), tuple([p.children[-2].label for p in components])


def _tokenize_reusing(text: str, previous: SyntaxTree):
    """``tokenize(text)`` with each member of ``previous``'s type bodies
    whose text reappears in ``text`` as one placeholder token (incremental
    lexing; Wagner & Graham, TOPLAS 1998), and those members by the index
    of their placeholder: ``(columns, comments, found)``, where ``found``
    maps an index to ``(member, shift, body names, anonymous classes
    before it in its body, anonymous classes it holds, its units)``.

    Each member's text is looked for at its old offset moved by the shift
    of the last one found, else from the end of that one onwards, so an
    edit costs one search past it.  A type whose text is not found is
    searched member by member.  The text is lexed up to a found member,
    which is taken where a token of the whole text's lex starts, inside as
    many braces as the member was (see ``_MemberSearch.take``); lexing
    then resumes at its end, and its comments are the previous tree's,
    shifted.  So the text the members take is not lexed again.  A text
    found elsewhere, such as in a comment or a string, is passed over and
    looked for further on.  A member taken here is only a candidate: the
    parser checks the rest (see ``_Parser.reuse_member``)."""
    search = _MemberSearch(previous, text)
    for decl in previous.root.children:
        if decl.kind in _TYPE_DECLS:
            search.body(decl, [])
    search.lex(len(text))
    _end_token(search.columns, len(text))
    return search.columns, search.comments, search.found


# the text of a placeholder token, which is no token's text
_PLACEHOLDER = "<member>"


class _MemberSearch:
    """The state of ``_tokenize_reusing``: the tokens and comments lexed
    so far, which are the whole text's lex up to ``lexed``, with ``depth``
    braces open there; the members taken; and the shift and end in the
    new text of the last member taken."""

    def __init__(self, previous: SyntaxTree, text: str):
        self.old, self.text, self.units = previous.source_text, text, previous.functions
        self.unit_starts = [u.span[0] for u in self.units]
        self.old_comments = previous.comments
        self.comment_starts = [c.start for c in self.old_comments]
        self.scan = _decimal_digits(text)
        self.columns = ([], [], [], [])
        self.comments = []
        self.found = {}
        self.shift = self.cursor = 0
        self.lexed = self.depth = 0
        self.first = 0  # the first token after the last member taken

    def body(self, decl: SyntaxNode, containers: list):
        """Search the members of the type ``decl`` inside ``containers``,
        in text order."""
        children = decl.children
        containers = containers + [next(c.label for c in children if c.kind == "identifier")]
        components = next((c.children for c in children if c.kind == "record_components"), ())
        names = _body_names(containers, components)
        depth = len(containers)  # the braces open before each member
        old, text, unit_starts = self.old, self.text, self.unit_starts
        anonymous = 0
        for member in children[-1].children:
            if member.kind == "enum_constant":
                continue
            piece = old[member.start:member.end]
            count = _anonymous_classes(member) if "new" in piece else 0
            at = member.start + self.shift
            if not (text.startswith(piece, at) and self.take(at, member, depth)):
                at = text.find(piece, self.cursor)
                while at >= 0 and not self.take(at, member, depth):
                    at = text.find(piece, at + 1)
            if at >= 0:
                self.shift, self.cursor = at - member.start, at + len(piece)
                first = bisect.bisect_left(unit_starts, member.start)
                stop = bisect.bisect_left(unit_starts, member.end, first)
                # by the index of the placeholder ``take`` put last
                self.found[self.first - 1] = (member, self.shift, names, anonymous, count,
                                              self.units[first:stop])
            elif member.kind in _TYPE_DECLS:
                self.body(member, containers)
            anonymous += count

    def take(self, at: int, member: SyntaxNode, depth: int) -> bool:
        """Whether ``member``, whose text is at ``at``, is taken: whether a
        token of the whole text's lex starts there with ``depth`` braces
        open.  If so the text before it is lexed, the member is one
        placeholder token followed by its comments, and ``lexed`` is its
        end."""
        kinds, texts, starts, ends = self.columns
        if at < self.lexed:  # inside the tokens lexed since the last member
            i = bisect.bisect_left(starts, at, self.first)
            if i == len(starts) or starts[i] != at:
                return False
            rest = texts[i:]
            if self.depth - rest.count("{") + rest.count("}") != depth:
                return False
            for column in self.columns:
                del column[i:]
            while self.comments and self.comments[-1].start > at:
                self.comments.pop()
        else:
            self.lex(at)
            if self.lexed != at or self.depth != depth:
                return False
        shift = at - member.start
        end = member.end + shift
        kinds.append("member")
        texts.append(_PLACEHOLDER)
        starts.append(at)
        ends.append(end)
        first = bisect.bisect_left(self.comment_starts, member.start)
        stop = bisect.bisect_left(self.comment_starts, member.end, first)
        comments = self.old_comments[first:stop]
        self.comments += ([Comment(c.start + shift, c.end + shift) for c in comments]
                          if shift else comments)
        self.lexed, self.depth, self.first = end, depth, len(starts)
        return True

    def lex(self, stop: int):
        """Lex on from ``lexed`` to ``stop`` and keep what the whole text's
        lex has too, so ``lexed`` reaches ``stop`` unless a token or
        comment crosses it.  That is all but an unterminated literal and
        what follows it, unless it is unterminated in the whole text too,
        which raises its error; and all but the last token or comment, if
        lexed on it ends elsewhere, such as an identifier that runs on
        into the text after ``stop``."""
        scan = self.scan
        (kinds, texts, starts, ends), comments, error = _lex(self.text, scan, self.lexed, stop)
        if error is not None:
            stop = error.position
            if _TOKEN_RE.match(scan, stop)[2] in _UNTERMINATED:
                raise error
        if starts and _TOKEN_RE.match(scan, starts[-1]).end() != ends[-1]:
            stop = starts[-1]
            del kinds[-1], texts[-1], starts[-1], ends[-1]
        if comments and _TOKEN_RE.match(scan, comments[-1].start).end() != comments[-1].end:
            stop = comments.pop().start
        for column, new in zip(self.columns, (kinds, texts, starts, ends)):
            column += new
        self.comments += comments
        self.lexed = stop
        self.depth += texts.count("{") - texts.count("}")


def _anonymous_classes(member: SyntaxNode) -> int:
    """The anonymous classes in ``member`` that its type numbers: those
    outside every type body below it."""
    count, stack = 0, [member]
    while stack:
        node = stack.pop()
        if node.kind == "new_expr" and node.children[-1].kind == "class_body":
            count += 1
            stack.extend(node.children[:-1])
        elif node.kind != "class_body":
            stack.extend(node.children)
    return count


def _shifted(member: SyntaxNode, shift: int, bodies: dict) -> SyntaxNode:
    """A copy of ``member``'s subtree with every span moved by ``shift``;
    it keeps each node's height, shape and size.  The copy of each node
    that is a key of ``bodies`` is stored there.  A loop, not a recursion,
    as the member may be nearly ``MAX_TREE_DEPTH`` deep."""
    order, stack = [], [member]
    while stack:  # pre-order, children right to left
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    copies = []   # the copies of the subtrees done, in order
    for node in reversed(order):  # each node right after its children
        copy = object.__new__(SyntaxNode)
        copy.kind, copy.label = node.kind, node.label
        children = node.children
        if children:
            copy.children = copies[-len(children):]
            del copies[-len(children):]
        else:
            copy.children = children
        copy.start, copy.end = node.start + shift, node.end + shift
        copy.height = node.height
        copy.shape = node.shape
        if node.shape is not None:
            copy.size = node.size
        if node in bodies:
            bodies[node] = copy
        copies.append(copy)
    return copies[0]


# ---------------------------------------------------------------------------
# adapters and public operations
# ---------------------------------------------------------------------------

def _parse_java(text: str, previous: SyntaxTree | None = None) -> SyntaxTree:
    """The tree of ``text``.  Given the tree of the file's ``previous``
    version, it takes the members whose text is unchanged from it, and is
    then bound to the previous tree's ``ShapeTable``, a new one bound to
    both if it has none, as the two share subtrees (see the module doc).
    If that parse fails, or does not take every member the lexer put in
    (see ``_Parser.reuse_member``), the text is parsed as if there were no
    previous tree, which also gives the error a parse without it gives."""
    if previous is not None:
        try:
            parser = _Parser(text, previous)
            root = parser.parse_compilation_unit()
        except (ParseError, RecursionError):
            parser = None
        if parser is not None and parser.reused == len(parser.reusable):
            tree = _tree(parser, root)
            if parser.reused:
                if previous.shapes is None:
                    previous.shapes = ShapeTable()
                tree.shapes = previous.shapes
                tree.reused_members = parser.reused
            return tree
    parser = _Parser(text)
    return _tree(parser, parser.parse_compilation_unit())


def _tree(parser: _Parser, root: SyntaxNode) -> SyntaxTree:
    parser.units.sort(key=lambda u: u.span)
    return SyntaxTree(root, parser.text, parser.comments, parser.units)


_ADAPTERS = {"java": _parse_java}
_EXTENSION_MAP = {".java": "java"}


def register_adapter(language: str, parse_fn, extensions=()):
    """Register a grammar adapter: parse_fn(text, previous=None) -> SyntaxTree,
    where ``previous`` is the tree of the file's previous version or None."""
    _ADAPTERS[language] = parse_fn
    for ext in extensions:
        _EXTENSION_MAP[ext] = language


def language_for_path(path: str) -> str | None:
    for ext, lang in _EXTENSION_MAP.items():
        if path.endswith(ext):
            return lang
    return None


def parse_source(text: str, language: str = "java",
                 previous: SyntaxTree | None = None) -> SyntaxTree:
    """Parse source text with the registered adapter for ``language``,
    which may take unchanged members from ``previous``, the tree of the
    text's previous version; the tree equals a parse without it.

    Nesting too deep for the recursive-descent parser raises ``ParseError``
    without a position; a tree deeper than ``MAX_TREE_DEPTH`` raises one at
    its deepest node.
    """
    if language not in _ADAPTERS:
        raise ParseError(f"no grammar adapter registered for {language!r}")
    try:
        return _ADAPTERS[language](text, previous)
    except RecursionError:
        raise ParseError("nesting too deep for the parser") from None


def parse_file(path: str, text: str, previous: SyntaxTree | None = None) -> SyntaxTree | None:
    """The tree of the source file ``path`` with ``text``, parsed against
    ``previous`` as in ``parse_source``, or None after logging why it
    failed to parse; the path must have a grammar adapter.
    The log record gets the error's text, not the error: a handler that
    keeps records would otherwise keep its traceback's frames, and with
    them the caller's syntax trees and call graph."""
    try:
        return parse_source(text, language_for_path(path), previous)
    except ParseError as exc:
        logger.warning("skipping %s: %s at %s", path, str(exc), exc.position)
        return None


def callee_segments(callee: SyntaxNode) -> list[str]:
    """Flatten a call's callee expression into dotted-name segments.

    Non-name parts (call results, parenthesized expressions) become the
    placeholder ``<expr>`` which never matches a blacklist pattern.  A loop,
    so that a long chain fails the parse only by the tree's depth check.
    """
    segments = []
    while callee.kind == "field_access":
        segments.append(callee.children[1].label)
        callee = callee.children[0]
    if callee.kind in ("identifier", "this_expr", "super_expr"):
        segments.append(callee.label)
    else:
        segments.append("<expr>")
    segments.reverse()
    return segments


def _callee_name(segments: list[str]) -> str | None:
    """Trailing run of plain name segments, dropping this/super/expression parts."""
    cleaned: list[str] = []
    for seg in segments:
        if seg in ("this", "super", "<expr>"):
            cleaned = []
        else:
            cleaned.append(seg)
    return ".".join(cleaned) if cleaned else None


def matches_blacklist(segments, patterns) -> bool:
    """True when a callee's dotted name matches one of the patterns.

    A pattern matches if it equals any single segment (``log`` matches
    ``log.debug``) or if its own dotted segments are a prefix of the callee
    (``System.out`` matches ``System.out.println``).
    """
    for pattern in patterns:
        parts = pattern.split(".")
        if len(parts) == 1:
            if pattern in segments:
                return True
        elif segments[: len(parts)] == parts:
            return True
    return False


def is_log_call_statement(node: SyntaxNode, blacklist=DEFAULT_BLACKLIST) -> bool:
    if node.kind != "expr_stmt" or not node.children:
        return False
    expr = node.children[0]
    if expr.kind != "call_expr":
        return False
    return matches_blacklist(callee_segments(expr.children[0]), blacklist)
