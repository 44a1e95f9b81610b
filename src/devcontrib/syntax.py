"""Language-neutral syntax-tree model plus a built-in Java-like grammar adapter.

The tree model is deliberately small: every node has a ``kind`` tag, an
optional ``label`` (identifier text, literal text, operator symbol, ...),
an ordered child list and a source span.  Comments never enter the tree;
they are collected on the side so that comment edits produce no tree edits
while comment-line counting stays possible.

A tree holds no parent links and no other reference cycle, and nothing
that reads it (``functions``, call-site and PDG collection) stores one.
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

A tree depends on its text alone, not on the file's path, and computes its
function units once (``functions``), with each method's call sites, in one
walk.  No layer changes a tree once it is built, so one tree may serve
every layer and several commits.  Every node gets its ``height`` when it
is built, which the depth check reads; ``struct_hash`` is filled on first
use.
"""

from __future__ import annotations

import enum
import logging
import re
from dataclasses import dataclass, field

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
    built, and its children are built before it.
    """

    __slots__ = ("kind", "label", "children", "start", "end", "height",
                 "_struct_hash")

    def __init__(self, kind, children=None, start=0, end=0, label=None):
        self.kind = kind
        self.label = label
        self.children = children if children is not None else []
        self.start = start
        self.end = end
        # subtree depth: 1 for a leaf, 1 + max over children otherwise
        self.height = 1 + max([c.height for c in children]) if children else 1
        self._struct_hash = None

    @property
    def is_leaf(self):
        return not self.children

    @property
    def span(self):
        return (self.start, self.end)

    @property
    def struct_hash(self):
        """Hash of (kind, label, child structure); equal for isomorphic subtrees.

        Filled on first use for every node below that lacks one, children
        before parents; a hashed node's subtree is hashed too, so it is
        skipped."""
        if self._struct_hash is None:
            stack, order = [self], []
            while stack:
                node = stack.pop()
                if node._struct_hash is None:
                    order.append(node)
                    stack.extend(node.children)
            for node in reversed(order):
                children = node.children
                shape = tuple([c._struct_hash for c in children]) if children else ()
                node._struct_hash = hash((node.kind, node.label, shape))
        return self._struct_hash

    def walk(self):
        """Yield this node and all descendants, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def isomorphic_to(self, other):
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.struct_hash != b.struct_hash or a.kind != b.kind \
                    or a.label != b.label or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __repr__(self):
        lbl = f" {self.label!r}" if self.label is not None else ""
        return f"<{self.kind}{lbl} [{self.start}:{self.end}] h={self.height}>"


@dataclass
class Comment:
    start: int
    end: int
    text: str


# Deepest tree a ``SyntaxTree`` accepts.  Function and call-site extraction
# and PDG collection recurse once per tree level, so a deeper tree could
# exhaust Python's default limit of 1000 frames; 500 levels leave the rest
# for the caller's stack.  Hand-written code stays far below this: the
# deep trees come from long operator or call chains, which the parser
# builds in a loop.
MAX_TREE_DEPTH = 500


class SyntaxTree:
    """A parsed file: root node, raw source, and out-of-tree comments.

    Raises ``ParseError`` when the tree is deeper than ``MAX_TREE_DEPTH``,
    at the start of a node one level too deep (see ``_node_at_depth``).
    The check reads the root's ``height``, set when the root was built.
    """

    def __init__(self, root: SyntaxNode, source_text: str, comments=None):
        self.root = root
        self.source_text = source_text
        self.comments = comments or []
        self._line_starts = None
        self._functions = None
        if root.height > MAX_TREE_DEPTH:
            deep = _node_at_depth(root, MAX_TREE_DEPTH + 1)
            raise ParseError(f"syntax tree deeper than {MAX_TREE_DEPTH} levels",
                             position=deep.start)

    @property
    def functions(self) -> list[FunctionUnit]:
        """``extract_functions(self)``, computed once; do not mutate."""
        if self._functions is None:
            self._functions = extract_functions(self)
        return self._functions

    @property
    def line_starts(self):
        if self._line_starts is None:
            starts = [0]
            for i, ch in enumerate(self.source_text):
                if ch == "\n":
                    starts.append(i + 1)
            self._line_starts = starts
        return self._line_starts

    def line_of(self, offset: int) -> int:
        """0-based line index containing the character offset."""
        import bisect
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
    """One method/constructor/lambda extracted from a tree.

    ``calls`` holds a method's or constructor's call sites in source
    order: the dotted callee of each call, from after its last ``this``,
    ``super`` or call result (``a.b.f`` for ``a.b.f(x)``, ``f`` for
    ``this.f()``, ``b`` for ``a().b()``), and the type of each ``new``
    without generics or array brackets.  Calls in its lambdas and
    anonymous-class bodies count; those in nested method or constructor
    declarations are theirs.  A lambda's list is empty.
    """

    qualified_name: str
    span: tuple[int, int]
    body: SyntaxNode   # the whole declaration or lambda; see ``function_body``
    calls: list[str] = field(default_factory=list)


def function_body(unit: FunctionUnit) -> SyntaxNode | None:
    """The body of a unit: a method's or constructor's block, a lambda's
    block or expression; None for a method without one (abstract)."""
    node = unit.body
    if node.kind == "lambda_expr":
        return node.children[1]
    return next((c for c in node.children if c.kind == "block"), None)


class NodeCategory(enum.Enum):
    NAME_BEARING = "NameBearing"
    MODIFIER = "Modifier"
    LOG_STATEMENT = "LogStatement"
    OTHER = "Other"


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


@dataclass(slots=True)
class _Token:
    type: str          # ident / keyword / int / float / string / char / op / punct / eof
    text: str
    start: int
    end: int


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
# * a quote or "/*" without its end is an error, as is any other character.
_TOKEN_RE = re.compile(
    r"[ \t\r\n\f]*(?:"
    r"(?P<word>[^\W\d][\w$]*|\$[\w$]*)"
    r"|(?P<line_comment>//[^\n]*)"
    r"|(?P<block_comment>/\*.*?\*/)"
    r"|(?P<hex>0[xX][0-9a-fA-F_]*[lL]?)"
    r"|(?P<number>(?=\.?\d)[\d_]*(?:\.[\d_]*)?(?:[eE][+-]?\d*)?[lLfFdD]?)"
    r'|(?P<string>"[^"\\]*(?:\\.[^"\\]*)*")'
    r"|(?P<char>'[^'\\]*(?:\\.[^'\\]*)*')"
    r"""|(?P<unterminated>/\*|"|')"""
    r"|(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")"
    r"|(?P<punct>[(){}\[\];,.@])"
    r"|(?P<end>\Z)"
    r"|(?P<unexpected>.)"
    r")", re.DOTALL)

_WORD_TYPES = {**dict.fromkeys(_KEYWORDS, "keyword"),
               **dict.fromkeys(("true", "false", "null"), "literal_word")}

_SIMPLE_TYPES = {"hex": "int", "string": "string", "char": "char", "op": "op",
                 "punct": "punct"}

_UNTERMINATED = {"/*": "unterminated block comment",
                 '"': "unterminated string literal",
                 "'": "unterminated char literal"}

_FLOAT_MARKS = frozenset(".eEfFdD")


def _decimal_digits(text: str) -> str:
    """``text`` with every ``isdigit()`` character that is not decimal
    replaced by the decimal digit U+0660, so that the number pattern's
    ``\\d`` matches where ``str.isdigit`` does; offsets are kept."""
    if text.isascii():
        return text
    digits = {ord(c): "\u0660" for c in set(text) if c.isdigit() and not c.isdecimal()}
    return text.translate(digits) if digits else text


def tokenize(text: str):
    """Return (tokens, comments).  Raises ParseError on malformed literals
    and on characters outside the grammar."""
    scan = _decimal_digits(text)
    tokens, comments = [], []
    match = _TOKEN_RE.match
    pos = 0
    while True:
        m = match(scan, pos)
        kind = m.lastgroup
        start, pos = m.span(kind)
        if kind == "word":
            if scan[start] > "\x7f" and not scan[start].isalpha():
                raise ParseError(f"unexpected character {text[start]!r}", position=start)
            word = text[start:pos]
            tokens.append(_Token(_WORD_TYPES.get(word, "ident"), word, start, pos))
        elif kind in _SIMPLE_TYPES:
            tokens.append(_Token(_SIMPLE_TYPES[kind], text[start:pos], start, pos))
        elif kind == "number":
            number = text[start:pos]
            tokens.append(_Token("int" if _FLOAT_MARKS.isdisjoint(number) else "float",
                                 number, start, pos))
        elif kind in ("line_comment", "block_comment"):
            comments.append(Comment(start, pos, text[start:pos]))
        elif kind == "end":
            break
        elif kind == "unterminated":
            raise ParseError(_UNTERMINATED[text[start:pos]], position=start)
        else:
            raise ParseError(f"unexpected character {text[start]!r}", position=start)
    tokens.append(_Token("eof", "", pos, pos))
    return tokens, comments


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    """Recursive-descent parser for the Java-like grammar."""

    def __init__(self, text: str):
        self.text = text
        self.tokens, self.comments = tokenize(text)
        # two more eof tokens, so that ``peek`` looks up to two tokens past
        # the end without a bounds check
        self.tokens += self.tokens[-1:] * 2
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, offset=0) -> _Token:
        return self.tokens[self.pos + offset]

    def at(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.text == text and tok.type in ("keyword", "op", "punct")

    def accept(self, text: str) -> bool:
        """Consume the current token if ``at(text)``; whether it did."""
        if self.at(text):
            self.pos += 1
            return True
        return False

    def at_ident(self) -> bool:
        return self.tokens[self.pos].type == "ident"

    def at_end(self) -> bool:
        return self.tokens[self.pos].type == "eof"

    def at_record(self) -> bool:
        """At ``record Name(`` or ``record Name<``: ``record`` is a keyword
        only there, elsewhere it is an ordinary identifier."""
        tok = self.peek()
        return (tok.type == "ident" and tok.text == "record"
                and self.peek(1).type == "ident" and self.peek(2).text in ("(", "<"))

    def at_type_keyword(self) -> bool:
        return (self.at("class") or self.at("interface") or self.at("enum")
                or self.at_record())

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.type != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", position=tok.start)
        return self.advance()

    def error(self, message: str):
        raise ParseError(message, position=self.peek().start)

    def leaf(self, kind, tok: _Token):
        return SyntaxNode(kind, None, tok.start, tok.end, tok.text)

    def identifier(self, message: str) -> SyntaxNode:
        """The identifier leaf at the current token, else ``message``."""
        if not self.at_ident():
            self.error(message)
        return self.leaf("identifier", self.advance())

    def skip_dims(self):
        """Skip ``[]`` pairs after a type or a declared name."""
        while self.at("[") and self.peek(1).text == "]":
            self.pos += 2

    def skip_parenthesized(self, what: str) -> int:
        """Skip the balanced ``( … )`` group at the current token; the end
        of its ``)``."""
        depth = 0
        while True:
            tok = self.advance()
            if tok.type == "eof":
                self.error(f"unterminated {what} arguments")
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                depth -= 1
                if depth == 0:
                    return tok.end

    def source_label(self, start: int, end: int) -> str:
        """The source text of ``start:end`` without whitespace."""
        return "".join(self.text[start:end].split())

    # -- entry --------------------------------------------------------------

    def parse_compilation_unit(self) -> SyntaxNode:
        start = self.peek().start
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
        start = self.expect("package").start
        name = self.parse_dotted_name()
        end = self.expect(";").end
        return SyntaxNode("package_decl", [], start, end, label=name)

    def parse_import(self):
        start = self.expect("import").start
        self.accept("static")
        name = self.parse_dotted_name()
        if self.accept("."):
            self.expect("*")
            name += ".*"
        end = self.expect(";").end
        return SyntaxNode("import_decl", [], start, end, label=name)

    def parse_dotted_name(self) -> str:
        parts = [self.advance().text]
        while self.at(".") and self.peek(1).type == "ident":
            self.advance()
            parts.append(self.advance().text)
        return ".".join(parts)

    # -- modifiers / annotations --------------------------------------------

    def parse_modifiers(self):
        nodes = []
        while True:
            tok = self.peek()
            if tok.text == "@" and self.peek(1).type == "ident":
                nodes.append(self.parse_annotation())
            elif tok.type == "keyword" and tok.text in _MODIFIER_KEYWORDS:
                # 'default' doubles as a switch label; only a modifier before members
                nodes.append(self.leaf("modifier", self.advance()))
            else:
                break
        return nodes

    def parse_annotation(self):
        start = self.expect("@").start
        self.parse_dotted_name()
        end = self.tokens[self.pos - 1].end
        if self.at("("):
            end = self.skip_parenthesized("annotation")
        return SyntaxNode("annotation", [], start, end, self.source_label(start, end))

    # -- types ---------------------------------------------------------------

    def try_parse_type(self):
        """Parse a type reference; returns a leaf node or None (position restored)."""
        save = self.pos
        tok = self.peek()
        start = tok.start
        if tok.type == "keyword" and tok.text in _PRIMITIVES:
            self.advance()
        elif tok.type == "ident":
            self.advance()
            while self.at(".") and self.peek(1).type == "ident":
                self.pos += 2
            if self.at("<") and not self._skip_type_arguments():
                self.pos = save
                return None
        else:
            return None
        self.skip_dims()
        end = self.tokens[self.pos - 1].end
        return SyntaxNode("type", [], start, end, self.source_label(start, end))

    def _skip_type_arguments(self) -> bool:
        """Consume a balanced ``<...>`` group of type tokens; False if not one."""
        save = self.pos
        depth = 0
        while True:
            tok = self.tokens[self.pos]
            self.pos += 1
            if tok.text == "<":
                depth += 1
            elif tok.text in (">", ">>", ">>>"):
                depth -= len(tok.text)
                if depth == 0:
                    return True
                if depth < 0:
                    break
            elif tok.type != "ident" and tok.text not in _TYPE_ARGUMENT_TOKENS:
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
        start = self.peek().start
        mods = self.parse_modifiers()
        if mods:
            start = mods[0].start
        if self.at_type_keyword():
            return self.parse_class_like(mods, start)
        self.error("expected a class or interface declaration")

    def parse_class_like(self, mods, start):
        kind = _TYPE_DECL_KINDS[self.advance().text]
        children = mods + [self.identifier("expected a type name")]
        if self.at("<"):
            if not self._skip_type_arguments():
                self.error("malformed type parameters")
        if kind == "record_decl":  # the components are the record's fields
            components = self.parse_param_list()
            children.append(SyntaxNode("record_components", components.children,
                                       components.start, components.end))
        for keyword in ("extends", "implements"):
            if self.accept(keyword):
                children.extend(self.parse_type_list())
        body = self.parse_class_body(enum=kind == "enum_decl")
        children.append(body)
        return SyntaxNode(kind, children, start, body.end)

    def parse_class_body(self, enum=False):
        """``{ members }``; an enum's body starts with its constants and has
        members only after a ``;``."""
        start = self.expect("{").start
        children = []
        while enum and self.at_ident():
            const = self.leaf("enum_constant", self.advance())
            if self.at("("):
                const.end = self.skip_parenthesized("enum constant")
            children.append(const)
            self.accept(",")
        if not enum or self.accept(";"):
            while not self.at("}") and not self.at_end():
                children.append(self.parse_member())
        end = self.expect("}").end
        return SyntaxNode("class_body", children, start, end)

    def parse_member(self):
        start = self.peek().start
        if self.at(";"):
            tok = self.advance()
            return SyntaxNode("empty_decl", [], tok.start, tok.end)
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
        if self.at_ident() and self.peek(1).text == "(":
            name = self.leaf("identifier", self.advance())
            return self.finish_method(mods, None, name, start, kind="constructor_decl")
        # a record's compact constructor: Name {
        if self.at_ident() and self.peek(1).text == "{":
            name = self.leaf("identifier", self.advance())
            body = self.parse_block()
            return SyntaxNode("constructor_decl", mods + [name, body], start, body.end)
        rtype = self.parse_type()
        name = self.identifier("expected a member name")
        if self.at("("):
            return self.finish_method(mods, rtype, name, start, kind="method_decl")
        return self.finish_field(mods, rtype, name, start)

    def finish_method(self, mods, rtype, name, start, kind):
        params = self.parse_param_list()
        children = list(mods)
        if rtype is not None:
            children.append(rtype)
        children.extend([name, params])
        if self.at("throws"):
            tstart = self.advance().start
            throws = self.parse_type_list()
            children.append(SyntaxNode("throws_clause", throws, tstart, throws[-1].end))
        if self.at(";"):
            end = self.advance().end
        else:
            body = self.parse_block()
            children.append(body)
            end = body.end
        return SyntaxNode(kind, children, start, end)

    def parse_param_list(self):
        start = self.expect("(").start
        params = []
        while not self.at(")"):
            pstart = self.peek().start
            pmods = self.parse_modifiers()
            ptype = self.parse_type()
            if self.accept("..."):
                ptype.label += "..."
            pname = self.identifier("expected a parameter name")
            self.skip_dims()
            params.append(SyntaxNode("param", pmods + [ptype, pname], pstart, pname.end))
            if not self.accept(",") and not self.at(")"):
                self.error("expected ',' or ')' in parameter list")
        end = self.expect(")").end
        return SyntaxNode("param_list", params, start, end)

    def finish_field(self, mods, ftype, first_name, start):
        declarators = [self.parse_var_declarator(first_name)]
        while self.accept(","):
            declarators.append(self.parse_var_declarator(
                self.identifier("expected a field name")))
        end = self.expect(";").end
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
        start = self.expect("{").start
        items = []
        while not self.at("}"):
            items.append(self.parse_variable_init())
            if not self.accept(",") and not self.at("}"):
                self.error("expected ',' or '}' in array initializer")
        end = self.expect("}").end
        return SyntaxNode("array_init", items, start, end)

    # -- statements ------------------------------------------------------------

    def parse_block(self):
        start = self.expect("{").start
        stmts = []
        while not self.at("}") and not self.at_end():
            stmts.append(self.parse_statement())
        end = self.expect("}").end
        return SyntaxNode("block", stmts, start, end)

    def parse_statement(self):
        tok = self.peek()
        if tok.text == "{":
            return self.parse_block()
        if tok.text == ";":
            t = self.advance()
            return SyntaxNode("empty_stmt", [], t.start, t.end)
        if tok.type == "keyword":
            kw = tok.text
            if kw == "if":
                return self.parse_if()
            if kw == "while":
                return self.parse_while()
            if kw == "do":
                return self.parse_do()
            if kw == "for":
                return self.parse_for()
            if kw == "switch":
                return self.parse_switch()
            if kw == "try":
                return self.parse_try()
            if kw == "return":
                start = self.advance().start
                children = []
                if not self.at(";"):
                    children.append(self.parse_expression())
                end = self.expect(";").end
                return SyntaxNode("return_stmt", children, start, end)
            if kw == "throw":
                start = self.advance().start
                expr = self.parse_expression()
                end = self.expect(";").end
                return SyntaxNode("throw_stmt", [expr], start, end)
            if kw in ("break", "continue"):
                start = self.advance().start
                children = []
                if self.at_ident():
                    children.append(self.leaf("identifier", self.advance()))
                end = self.expect(";").end
                return SyntaxNode(f"{kw}_stmt", children, start, end)
            if kw == "synchronized":
                start = self.advance().start
                expr = self.parse_parenthesized()
                body = self.parse_block()
                return SyntaxNode("synchronized_stmt", [expr, body], start, body.end)
            if kw == "assert":
                start = self.advance().start
                children = [self.parse_expression()]
                if self.accept(":"):
                    children.append(self.parse_expression())
                end = self.expect(";").end
                return SyntaxNode("assert_stmt", children, start, end)
        decl = self.try_parse_local_var_decl()
        if decl is not None:
            return decl
        start = self.peek().start
        expr = self.parse_expression()
        end = self.expect(";").end
        return SyntaxNode("expr_stmt", [expr], start, end)

    def try_parse_local_var_decl(self):
        save = self.pos
        start = self.peek().start
        mods = []
        while self.at("final") or (self.at("@") and self.peek(1).type == "ident"):
            if self.at("final"):
                mods.append(self.leaf("modifier", self.advance()))
            else:
                mods.append(self.parse_annotation())
        vtype = self.try_parse_type()
        if vtype is None or not self.at_ident() \
                or self.peek(1).text not in ("=", ";", ",", "["):
            self.pos = save
            return None
        declarators = [self.parse_var_declarator(self.leaf("identifier", self.advance()))]
        while self.accept(","):
            if not self.at_ident():
                self.pos = save
                return None
            declarators.append(self.parse_var_declarator(self.leaf("identifier", self.advance())))
        if not self.at(";"):
            self.pos = save
            return None
        end = self.advance().end
        return SyntaxNode("local_var_decl", mods + [vtype] + declarators, start, end)

    def parse_if(self):
        start = self.expect("if").start
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
        start = self.expect("while").start
        cond = self.parse_parenthesized()
        body = self.parse_statement()
        return SyntaxNode("while_stmt", [cond, body], start, body.end)

    def parse_do(self):
        start = self.expect("do").start
        body = self.parse_statement()
        self.expect("while")
        cond = self.parse_parenthesized()
        end = self.expect(";").end
        return SyntaxNode("do_stmt", [body, cond], start, end)

    def parse_for(self):
        start = self.expect("for").start
        self.expect("(")
        # enhanced for: [final] Type name : expr
        save = self.pos
        fmods = []
        while self.at("final"):
            fmods.append(self.leaf("modifier", self.advance()))
        vtype = self.try_parse_type()
        if vtype is not None and self.at_ident() and self.peek(1).text == ":":
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
        start = self.expect("switch").start
        selector = self.parse_parenthesized()
        self.expect("{")
        groups = []
        while not self.at("}") and not self.at_end():
            groups.append(self.parse_switch_group())
        end = self.expect("}").end
        return SyntaxNode("switch_stmt", [selector] + groups, start, end)

    def parse_switch_group(self):
        """``case …:`` labels and the statements after them, or one rule
        ``case … ->``: a single label and a single body, no fall-through."""
        gstart = self.peek().start
        labels = []
        while self.at("case") or self.at("default"):
            kw = self.advance()
            values = []
            if kw.text == "case":
                values.append(self.parse_case_value())
                while self.accept(","):
                    values.append(self.parse_case_value())
            kind = "case_label" if values else "default_label"
            if self.at("->"):
                labels.append(SyntaxNode(kind, values, kw.start, self.advance().end))
                body = self.parse_statement()
                return SyntaxNode("switch_rule", labels + [body], gstart, body.end)
            labels.append(SyntaxNode(kind, values, kw.start, self.expect(":").end))
        if not labels:
            self.error("expected 'case' or 'default' in switch body")
        stmts = []
        while not (self.at("case") or self.at("default") or self.at("}")):
            stmts.append(self.parse_statement())
        gend = stmts[-1].end if stmts else labels[-1].end
        return SyntaxNode("switch_group", labels + stmts, gstart, gend)

    def parse_case_value(self):
        # an enum constant before '->' is a label, not a lambda parameter
        if self.at_ident() and self.peek(1).text == "->":
            return self.leaf("identifier", self.advance())
        return self.parse_ternary()

    def parse_try(self):
        start = self.expect("try").start
        children = []
        if self.at("("):  # try-with-resources
            rstart = self.advance().start
            resources = []
            while not self.at(")"):
                rdecl_start = self.peek().start
                rmods = self.parse_modifiers()
                rtype = self.parse_type()
                rname = self.identifier("expected a resource name")
                self.expect("=")
                rexpr = self.parse_expression()
                resources.append(SyntaxNode("resource", rmods + [rtype, rname, rexpr],
                                            rdecl_start, rexpr.end))
                self.accept(";")
            rend = self.expect(")").end
            children.append(SyntaxNode("resource_spec", resources, rstart, rend))
        body = self.parse_block()
        children.append(body)
        end = body.end
        while self.at("catch"):
            cstart = self.advance().start
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
            fstart = self.advance().start
            fbody = self.parse_block()
            children.append(SyntaxNode("finally_clause", [fbody], fstart, fbody.end))
            end = fbody.end
        return SyntaxNode("try_stmt", children, start, end)

    # -- expressions ------------------------------------------------------------

    def parse_expression(self):
        lhs = self.parse_ternary()
        tok = self.peek()
        if tok.type == "op" and tok.text in _ASSIGN_OPS:
            op = self.advance().text
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
            tok = self.tokens[self.pos]
            op_level = _BINARY_LEVELS.get(tok.text, -1) \
                if tok.type in ("op", "keyword") else -1
            if not level <= op_level <= cap:
                return left
            cap = op_level
            self.advance()
            if tok.text == "instanceof":
                rtype = self.parse_type()
                left = SyntaxNode("instanceof_expr", [left, rtype], left.start, rtype.end)
                continue
            right = self.parse_binary(op_level + 1)
            left = SyntaxNode("binary_expr", [left, right], left.start, right.end,
                              label=tok.text)

    def parse_unary(self):
        tok = self.peek()
        if tok.type == "op" and tok.text in ("+", "-", "!", "~", "++", "--"):
            op = self.advance()
            operand = self.parse_unary()
            return SyntaxNode("unary_expr", [operand], op.start, operand.end, label=op.text)
        # unambiguous cast: ( primitive-type ) operand
        if tok.text == "(" and self.peek(1).type == "keyword" \
                and self.peek(1).text in _PRIMITIVES:
            save = self.pos
            start = self.advance().start
            ctype = self.try_parse_type()
            if ctype is not None and self.accept(")"):
                operand = self.parse_unary()
                return SyntaxNode("cast_expr", [ctype, operand], start, operand.end)
            self.pos = save
        return self.parse_postfix()

    def parse_postfix(self):
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.text == "." and self.peek(1).type == "ident":
                self.advance()
                name = self.leaf("identifier", self.advance())
                expr = SyntaxNode("field_access", [expr, name], expr.start, name.end)
                continue
            if tok.text == "(" and expr.kind in ("identifier", "field_access"):
                args, end = self.parse_arguments()
                expr = SyntaxNode("call_expr", [expr] + args, expr.start, end)
                continue
            if tok.text == "[":
                self.advance()
                index = self.parse_expression()
                end = self.expect("]").end
                expr = SyntaxNode("array_access", [expr, index], expr.start, end)
                continue
            if tok.text == "::" and self.peek(1).type in ("ident", "keyword"):
                self.advance()
                name = self.leaf("identifier", self.advance())
                expr = SyntaxNode("method_ref", [expr, name], expr.start, name.end)
                continue
            if tok.type == "op" and tok.text in ("++", "--"):
                op = self.advance()
                expr = SyntaxNode("postfix_expr", [expr], expr.start, op.end, label=op.text)
                continue
            return expr

    def parse_arguments(self):
        self.expect("(")
        args = []
        while not self.at(")"):
            args.append(self.parse_expression())
            if not self.accept(",") and not self.at(")"):
                self.error("expected ',' or ')' in argument list")
        end = self.expect(")").end
        return args, end

    def parse_primary(self):
        tok = self.peek()
        if tok.type in ("int", "float", "string", "char", "literal_word"):
            return self.leaf("literal", self.advance())
        if tok.type == "ident":
            if self.peek(1).text == "->":
                return self.parse_lambda_single(self.advance())
            return self.leaf("identifier", self.advance())
        if tok.text in ("this", "super"):
            node = self.leaf(f"{tok.text}_expr", self.advance())
            if self.at("("):
                args, end = self.parse_arguments()
                return SyntaxNode("call_expr", [node] + args, node.start, end)
            return node
        if tok.text == "new":
            return self.parse_creator()
        if tok.text == "(":
            if self._lambda_ahead():
                return self.parse_lambda_parenthesized()
            start = self.advance().start
            inner = self.parse_expression()
            end = self.expect(")").end
            return SyntaxNode("paren_expr", [inner], start, end)
        self.error(f"unexpected token {tok.text!r} in expression")

    def _lambda_ahead(self) -> bool:
        """From a '(' token, check whether the balanced group is lambda params."""
        depth = 0
        i = self.pos
        while True:
            t = self.tokens[i]
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
                if depth == 0:
                    return self.tokens[i + 1].text == "->"
            elif t.type == "eof":
                return False
            i += 1

    def parse_lambda_single(self, name_tok):
        param = SyntaxNode("param", [self.leaf("identifier", name_tok)],
                           name_tok.start, name_tok.end)
        params = SyntaxNode("param_list", [param], name_tok.start, name_tok.end)
        self.expect("->")
        body = self.parse_lambda_body()
        return SyntaxNode("lambda_expr", [params, body], name_tok.start, body.end)

    def parse_lambda_parenthesized(self):
        start = self.expect("(").start
        params = []
        while not self.at(")"):
            pstart = self.peek().start
            ptype = None
            if self.peek(1).type == "ident":  # typed parameter
                ptype = self.try_parse_type()
            pname = self.identifier("expected a lambda parameter name")
            kids = ([ptype] if ptype is not None else []) + [pname]
            params.append(SyntaxNode("param", kids, pstart, pname.end))
            self.accept(",")
        pend = self.expect(")").end
        plist = SyntaxNode("param_list", params, start, pend)
        self.expect("->")
        body = self.parse_lambda_body()
        return SyntaxNode("lambda_expr", [plist, body], start, body.end)

    def parse_lambda_body(self):
        if self.at("{"):
            return self.parse_block()
        return self.parse_expression()

    def parse_creator(self):
        start = self.expect("new").start
        ctype = self.parse_type()
        if self.at("["):
            dims = []
            end = ctype.end
            while self.accept("["):
                if not self.at("]"):
                    dims.append(self.parse_expression())
                end = self.expect("]").end
            children = [ctype] + dims
            if self.at("{"):
                init = self.parse_array_init()
                children.append(init)
                end = init.end
            return SyntaxNode("array_new", children, start, end)
        args, end = self.parse_arguments()
        children = [ctype] + args
        if self.at("{"):  # anonymous class body
            body = self.parse_class_body()
            children.append(body)
            end = body.end
        return SyntaxNode("new_expr", children, start, end)


# ---------------------------------------------------------------------------
# adapters and public operations
# ---------------------------------------------------------------------------

def _parse_java(text: str, path: str | None = None) -> SyntaxTree:
    """The tree of ``text``; the optional ``path`` does not change it."""
    parser = _Parser(text)
    root = parser.parse_compilation_unit()
    return SyntaxTree(root, text, comments=parser.comments)


_ADAPTERS = {"java": _parse_java}
_EXTENSION_MAP = {".java": "java"}


def register_adapter(language: str, parse_fn, extensions=()):
    """Register a grammar adapter: parse_fn(text, path=None) -> SyntaxTree."""
    _ADAPTERS[language] = parse_fn
    for ext in extensions:
        _EXTENSION_MAP[ext] = language


def language_for_path(path: str) -> str | None:
    for ext, lang in _EXTENSION_MAP.items():
        if path.endswith(ext):
            return lang
    return None


def parse_source(text: str, language: str = "java") -> SyntaxTree:
    """Parse source text with the registered adapter for ``language``.

    Nesting too deep for the recursive-descent parser raises ``ParseError``
    without a position; a tree deeper than ``MAX_TREE_DEPTH`` raises one at
    its deepest node.
    """
    if language not in _ADAPTERS:
        raise ParseError(f"no grammar adapter registered for {language!r}")
    try:
        return _ADAPTERS[language](text)
    except RecursionError:
        raise ParseError("nesting too deep for the parser") from None


def parse_file(path: str, text: str) -> SyntaxTree | None:
    """The tree of the source file ``path`` with ``text``, or None after
    logging why it failed to parse; the path must have a grammar adapter.
    The log record gets the error's text, not the error: a handler that
    keeps records would otherwise keep its traceback's frames, and with
    them the caller's syntax trees and call graph."""
    try:
        return parse_source(text, language_for_path(path))
    except ParseError as exc:
        logger.warning("skipping %s: %s at %s", path, str(exc), exc.position)
        return None


def extract_functions(tree: SyntaxTree) -> list[FunctionUnit]:
    """All method/constructor/lambda units in the tree, in source order.

    Qualified names carry the container path and parameter-type signature,
    e.g. ``Outer.Inner.run(int,String)``; lambdas get synthesized names
    ``<enclosing>$lambdaN`` numbered per enclosing function.  An anonymous
    class is a container named as javac names it, ``A$1``, ``A$2``, ...
    in source order within its enclosing type, so ``A$1.toString()`` is
    not ``A.toString()``.
    """
    units = []
    _visit_units(tree.root, [], None, {"n": 0}, {"n": 0}, None, units)
    units.sort(key=lambda u: u.span)
    return units


def _method_signature(node):
    name = None
    params = None
    for child in node.children:
        if child.kind == "identifier" and name is None:
            name = child.label
        elif child.kind == "param_list":
            params = child
    types = []
    if params is not None:
        for p in params.children:
            tleaf = next((c for c in p.children if c.kind == "type"), None)
            types.append(tleaf.label if tleaf is not None else "var")
    return f"{name}({','.join(types)})"


def _visit_units(node, containers, enclosing, lambda_counter, anonymous,
                 calls, units):
    """Append the units under ``node`` to ``units``, and its call sites to
    ``calls``, the list of the innermost enclosing method or constructor
    (None outside every one); not a closure, which would refer to itself
    and so hold the tree in a reference cycle.  ``anonymous`` counts the
    anonymous classes of the innermost enclosing type."""
    kind = node.kind
    if calls is not None:
        if kind == "call_expr":
            name = _callee_name(callee_segments(node.children[0]))
            if name:
                calls.append(name)
        elif kind == "new_expr":
            name = node.children[0].label.split("<", 1)[0].replace("[]", "")
            if name:
                calls.append(name)
    if kind in _TYPE_DECL_KINDS.values():
        name = next((c.label for c in node.children if c.kind == "identifier"), "?")
        containers = containers + [name]
        anonymous = {"n": 0}
        for child in node.children:
            _visit_units(child, containers, None, lambda_counter, anonymous, calls, units)
        return
    if kind == "new_expr" and node.children[-1].kind == "class_body":
        # arguments first: javac numbers a class in them before this one
        for child in node.children[:-1]:
            _visit_units(child, containers, enclosing, lambda_counter, anonymous,
                         calls, units)
        anonymous["n"] += 1
        containers = containers[:-1] + [f"{containers[-1]}${anonymous['n']}"]
        _visit_units(node.children[-1], containers, None, lambda_counter,
                     {"n": 0}, calls, units)
        return
    if kind in ("method_decl", "constructor_decl"):
        qname = ".".join(containers + [_method_signature(node)])
        unit = FunctionUnit(qname, (node.start, node.end), node)
        units.append(unit)
        counter = {"n": 0}
        for child in node.children:
            _visit_units(child, containers, qname, counter, anonymous, unit.calls, units)
        return
    if kind == "lambda_expr" and enclosing is not None:
        qname = f"{enclosing}$lambda{lambda_counter['n']}"
        lambda_counter["n"] += 1
        units.append(FunctionUnit(qname, (node.start, node.end), node))
        for child in node.children:
            _visit_units(child, containers, qname, lambda_counter, anonymous, calls, units)
        return
    for child in node.children:
        _visit_units(child, containers, enclosing, lambda_counter, anonymous, calls, units)


def callee_segments(callee: SyntaxNode) -> list[str]:
    """Flatten a call's callee expression into dotted-name segments.

    Non-name parts (call results, parenthesized expressions) become the
    placeholder ``<expr>`` which never matches a blacklist pattern.
    """
    if callee.kind == "identifier":
        return [callee.label]
    if callee.kind in ("this_expr", "super_expr"):
        return [callee.label]
    if callee.kind == "field_access":
        left = callee_segments(callee.children[0])
        return left + [callee.children[1].label]
    return ["<expr>"]


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


def classify_node(node: SyntaxNode, blacklist=DEFAULT_BLACKLIST) -> NodeCategory:
    """Coarse node category used by edit-weighting.

    Identifier leaves are name-bearing; modifiers and annotations form the
    modifier class; call statements whose callee matches the blacklist are
    log statements; everything else is Other.
    """
    if node.kind == "identifier":
        return NodeCategory.NAME_BEARING
    if node.kind in ("modifier", "annotation"):
        return NodeCategory.MODIFIER
    if is_log_call_statement(node, blacklist):
        return NodeCategory.LOG_STATEMENT
    return NodeCategory.OTHER


def comment_metrics(tree: SyntaxTree, span: tuple[int, int]) -> tuple[int, int]:
    """(comment_lines, total_lines) over the physical lines covered by span."""
    start, end = span
    if end <= start:
        return (0, 0)
    first = tree.line_of(start)
    last = tree.line_of(max(start, end - 1))
    total = last - first + 1
    starts = tree.line_starts
    text_len = len(tree.source_text)

    def line_range(idx):
        s = starts[idx]
        e = starts[idx + 1] if idx + 1 < len(starts) else text_len
        return s, e

    comment_lines = 0
    for idx in range(first, last + 1):
        ls, le = line_range(idx)
        if any(c.start < le and ls < c.end for c in tree.comments):
            comment_lines += 1
    return (comment_lines, total)
