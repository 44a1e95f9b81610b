"""The parser's trees and errors on a fixed Java corpus, recorded once.

``fixtures/Idioms.java`` uses each form that the parser reads with a shared
helper: annotation and enum-constant arguments with nested parentheses, an
enum body with members, ``[]`` after a type, a parameter and a declarator,
``extends``/``implements``/``throws`` lists, multi-catch, type arguments
closed by ``>``, ``>>`` and ``>>>``, ``this(…)``/``super(…)`` calls, typed and
untyped lambdas, and varargs.  ``fixtures/Idioms.tree.json`` is its tree as
nested ``[kind, label, start, end, children]`` lists.  Regenerate it only
when a parser change is meant to change trees:

    PYTHONPATH=src python3 tests/test_parser_snapshot.py
"""

import json
from pathlib import Path

import pytest

from devcontrib.errors import ParseError
from devcontrib.syntax import parse_source

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SOURCE = FIXTURES / "Idioms.java"
SNAPSHOT = FIXTURES / "Idioms.tree.json"


def _tree(node):
    return [node.kind, node.label, node.start, node.end, [_tree(c) for c in node.children]]


def _preorder(tree):
    """``(kind, label, start, end, child count)`` of each node, pre-order:
    equal for equal trees, and a mismatch shows the first node that differs."""
    out, stack = [], [tree]
    while stack:
        kind, label, start, end, children = stack.pop()
        out.append((kind, label, start, end, len(children)))
        stack.extend(reversed(children))
    return out


def _dump(tree, indent=0):
    """JSON text of ``tree``, one node per line."""
    kind, label, start, end, children = tree
    head = " " * indent + json.dumps([kind, label, start, end])[:-1]
    if not children:
        return head + ", []]"
    inner = ",\n".join(_dump(c, indent + 1) for c in children)
    return f"{head}, [\n{inner}]]"


def test_fixture_tree_matches_the_snapshot():
    actual = _tree(parse_source(SOURCE.read_text(), "java").root)
    expected = json.loads(SNAPSHOT.read_text())
    assert _preorder(actual) == _preorder(expected)


def _reference_height(node):
    return 1 + max((_reference_height(c) for c in node.children), default=0)


def test_fixture_heights_equal_a_recursive_reference():
    root = parse_source(SOURCE.read_text(), "java").root
    assert root.height > 10
    assert all(node.height == _reference_height(node) for node in root.walk())


def _method(body):
    return "class C { int m(int x) { " + body + " } }"


@pytest.mark.parametrize("source, message, position", [
    ('@A(x class C { }', "unterminated annotation arguments", 16),
    ('@A(f(x) class C { }', "unterminated annotation arguments", 19),
    ('class C { @A("(" void m() { } }', "unterminated annotation arguments", 31),
    ('enum E { A(1, 2 }', "unterminated enum constant arguments", 17),
    ('enum E { A(f(1), B }', "unterminated enum constant arguments", 20),
    ('class C { List<String>>> x; }', "expected a type", 10),
    ('class C { Map<String, List<String>>>> x; }', "expected a type", 10),
    ('class C { List<List<String>>> x; }', "expected a type", 10),
    ('class C<T>> { }', "malformed type parameters", 7),
    # one source per other way the lexer or parser fails; where a text
    # holds several faults, the first in text order wins
    (_method("return 1 }"), "expected ';', found '}'", 34),
    ("class C { <T void m() {} }", "malformed method type parameters", 10),
    (_method("int y = );"), "unexpected token ')' in expression", 33),
    ("class { }", "expected a type name", 6),
    ("int x;", "expected a class or interface declaration", 0),
    ("class C { int 1; }", "expected a member name", 14),
    ("class C { void m(int x int y) {} }", "expected ',' or ')' in parameter list", 23),
    ("class C { void m(int) {} }", "expected a parameter name", 20),
    ("class C { int a, ; }", "expected a field name", 17),
    ("class C { int[] a = {1 2}; }", "expected ',' or '}' in array initializer", 23),
    (_method("switch (x) { x++; }"), "expected 'case' or 'default' in switch body", 38),
    (_method("try (Reader = r) {}"), "expected a resource name", 37),
    (_method("try {} catch (E) {}"), "expected an exception name", 40),
    (_method("f(1 2);"), "expected ',' or ')' in argument list", 29),
    (_method("f((a, 1) -> 1);"), "expected a lambda parameter name", 31),
    pytest.param(_method("int y = " + " + ".join(["x"] * 600) + ";"),
                 "syntax tree deeper than 500 levels", 461, id="depth-limit"),
    pytest.param(_method("return " + "(" * 400 + "x" + ")" * 400 + ";"),
                 "nesting too deep for the parser", None, id="recursion-limit"),
    (_method('String s = "abc;'), "unterminated string literal", 36),
    (_method("char c = 'a;"), "unterminated char literal", 34),
    ("class C {} /* open", "unterminated block comment", 11),
    (_method("x = #;"), "unexpected character '#'", 29),
    (_method("int ½ = 1;"), "unexpected character '½'", 29),
    (_method("x = # + '\"open"), "unexpected character '#'", 29),
    ("class C { ½ } /* open", "unexpected character '½'", 10),
])
def test_malformed_input_error_and_position(source, message, position):
    with pytest.raises(ParseError) as exc:
        parse_source(source, "java")
    assert (str(exc.value), exc.value.position) == (message, position)


if __name__ == "__main__":
    root = parse_source(SOURCE.read_text(), "java").root
    SNAPSHOT.write_text(_dump(_tree(root)) + "\n")
    print(f"wrote {SNAPSHOT}")
